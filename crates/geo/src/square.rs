use crate::{Point, Rect};
use serde::{Deserialize, Serialize};

/// An axis-aligned square addressed by its **diagonal** length.
///
/// The paper parameterises everything about the IQuad-tree by the diagonal
/// `d̂` of a node's square (the position-count threshold is
/// `η(τ, PF, d̂)`, the leaf size is "diagonal = d̂", a parent has diagonal
/// `2·d̂`, …), so this type stores the diagonal as the primary measure and
/// derives the side length from it (`side = d̂ / √2`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Square {
    /// Lower-left corner.
    pub origin: Point,
    /// Side length in km.
    pub side: f64,
}

impl Square {
    /// Creates a square from its lower-left corner and side length.
    pub fn new(origin: Point, side: f64) -> Self {
        debug_assert!(side >= 0.0, "square side must be non-negative");
        Square { origin, side }
    }

    /// Diagonal length `d̂ = side·√2`.
    #[inline]
    pub fn diagonal(&self) -> f64 {
        self.side * std::f64::consts::SQRT_2
    }

    /// The square as a [`Rect`].
    #[inline]
    pub fn rect(&self) -> Rect {
        Rect {
            min: self.origin,
            max: Point::new(self.origin.x + self.side, self.origin.y + self.side),
        }
    }

    /// True when `p` lies inside or on the boundary.
    #[inline]
    pub fn contains(&self, p: &Point) -> bool {
        self.rect().contains(p)
    }

    /// Centre of the square.
    #[inline]
    pub fn center(&self) -> Point {
        Point::new(
            self.origin.x + self.side * 0.5,
            self.origin.y + self.side * 0.5,
        )
    }

    /// Index (0–3, same order as [`Square::child`]) of the child square
    /// containing `p`. Points on a split line go to the higher-indexed child
    /// so that every point of the square maps to exactly one child.
    // lint:allow(unread-pub): the scalar oracle that morton.rs's and iquadtree's tests re-descend `morton_code` against
    pub fn quadrant_of(&self, p: &Point) -> usize {
        let c = self.center();
        let east = p.x >= c.x;
        let north = p.y >= c.y;
        (north as usize) * 2 + east as usize
    }

    /// The `q`-th child square of a quad subdivision, ordered
    /// `[SW, SE, NW, NE]`.
    pub fn child(&self, q: usize) -> Square {
        debug_assert!(q < 4);
        let h = self.side * 0.5;
        Square::new(
            Point::new(
                self.origin.x + (q & 1) as f64 * h,
                self.origin.y + (q >> 1) as f64 * h,
            ),
            h,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagonal_roundtrip() {
        let s = Square::new(Point::ORIGIN, 2.0 / std::f64::consts::SQRT_2);
        assert!((s.diagonal() - 2.0).abs() < 1e-12);
        assert!((s.side - 2.0 / 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn rect_and_center() {
        let s = Square::new(Point::new(1.0, 1.0), 2.0);
        assert_eq!(
            s.rect(),
            Rect::new(Point::new(1.0, 1.0), Point::new(3.0, 3.0))
        );
        assert_eq!(s.center(), Point::new(2.0, 2.0));
    }

    #[test]
    fn quadrants_partition_square() {
        let s = Square::new(Point::ORIGIN, 2.0);
        let q: Vec<Square> = (0..4).map(|i| s.child(i)).collect();
        assert_eq!(q[0].origin, Point::new(0.0, 0.0));
        assert_eq!(q[1].origin, Point::new(1.0, 0.0));
        assert_eq!(q[2].origin, Point::new(0.0, 1.0));
        assert_eq!(q[3].origin, Point::new(1.0, 1.0));
        for c in &q {
            assert_eq!(c.side, 1.0);
        }
        // Child diagonal is half the parent diagonal — the relation the
        // IQuad-tree η-hash relies on.
        assert!((q[0].diagonal() * 2.0 - s.diagonal()).abs() < 1e-12);
    }

    #[test]
    fn quadrant_of_assigns_uniquely() {
        let s = Square::new(Point::ORIGIN, 2.0);
        assert_eq!(s.quadrant_of(&Point::new(0.5, 0.5)), 0);
        assert_eq!(s.quadrant_of(&Point::new(1.5, 0.5)), 1);
        assert_eq!(s.quadrant_of(&Point::new(0.5, 1.5)), 2);
        assert_eq!(s.quadrant_of(&Point::new(1.5, 1.5)), 3);
        // Centre point goes to NE (index 3).
        assert_eq!(s.quadrant_of(&Point::new(1.0, 1.0)), 3);
    }

    #[test]
    fn child_matches_quadrants() {
        // Each child's centre is assigned back to that child's index.
        let s = Square::new(Point::new(-3.0, 2.0), 8.0);
        for q in 0..4 {
            assert_eq!(s.quadrant_of(&s.child(q).center()), q);
        }
    }

    #[test]
    fn quadrant_of_matches_quadrants() {
        let s = Square::new(Point::new(-1.0, -1.0), 4.0);
        for p in [
            Point::new(-0.5, -0.5),
            Point::new(2.9, -0.9),
            Point::new(0.0, 2.5),
            Point::new(2.0, 2.0),
        ] {
            let idx = s.quadrant_of(&p);
            assert!(
                s.child(idx).contains(&p),
                "point {p:?} not in quadrant {idx}"
            );
        }
    }
}
