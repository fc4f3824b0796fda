use crate::Point;
use serde::{Deserialize, Serialize};

/// An axis-aligned rectangle — the paper's minimum bounding rectangle (MBR).
///
/// Rectangles are closed regions: boundary points count as contained. A
/// rectangle with `min == max` is a valid degenerate rectangle (a point),
/// which occurs for single-position users.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Rect {
    /// Lower-left corner.
    pub min: Point,
    /// Upper-right corner.
    pub max: Point,
}

impl Rect {
    /// Creates a rectangle from two corner points, normalising the order.
    pub fn new(a: Point, b: Point) -> Self {
        Rect {
            min: Point::new(a.x.min(b.x), a.y.min(b.y)),
            max: Point::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// A degenerate rectangle covering exactly `p`.
    pub fn point(p: Point) -> Self {
        Rect { min: p, max: p }
    }

    /// The MBR of a non-empty point set; `None` for an empty slice.
    pub fn bounding(points: &[Point]) -> Option<Self> {
        let (first, rest) = points.split_first()?;
        let mut r = Rect::point(*first);
        for p in rest {
            r.expand_to(p);
        }
        Some(r)
    }

    /// Grows the rectangle in place so it also covers `p`.
    #[inline]
    pub fn expand_to(&mut self, p: &Point) {
        self.min.x = self.min.x.min(p.x);
        self.min.y = self.min.y.min(p.y);
        self.max.x = self.max.x.max(p.x);
        self.max.y = self.max.y.max(p.y);
    }

    /// The smallest rectangle covering both `self` and `other`.
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            min: Point::new(self.min.x.min(other.min.x), self.min.y.min(other.min.y)),
            max: Point::new(self.max.x.max(other.max.x), self.max.y.max(other.max.y)),
        }
    }

    /// Width along x, in km.
    #[inline]
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height along y, in km.
    #[inline]
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Area in km².
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Length of the diagonal, in km.
    #[inline]
    pub fn diagonal(&self) -> f64 {
        self.min.distance(&self.max)
    }

    /// Centre point.
    #[inline]
    pub fn center(&self) -> Point {
        self.min.midpoint(&self.max)
    }

    /// True when `p` lies inside or on the boundary.
    #[inline]
    pub fn contains(&self, p: &Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// True when `other` is entirely inside `self` (boundaries allowed).
    #[inline]
    pub fn contains_rect(&self, other: &Rect) -> bool {
        self.min.x <= other.min.x
            && self.min.y <= other.min.y
            && self.max.x >= other.max.x
            && self.max.y >= other.max.y
    }

    /// True when the two closed rectangles share at least one point.
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        self.min.x <= other.max.x
            && self.max.x >= other.min.x
            && self.min.y <= other.max.y
            && self.max.y >= other.min.y
    }

    /// Exact minimum Euclidean distance from `p` to the rectangle
    /// (0 when `p` is inside).
    ///
    /// This is the test behind the NIB pruning region: a facility `v` cannot
    /// influence a user whose every position is farther than `mMR`, and
    /// `min_distance(v) > mMR` over the user's MBR certifies that.
    #[inline]
    pub fn min_distance(&self, p: &Point) -> f64 {
        self.min_distance_sq(p).sqrt()
    }

    /// Squared version of [`Rect::min_distance`].
    #[inline]
    pub fn min_distance_sq(&self, p: &Point) -> f64 {
        let dx = (self.min.x - p.x).max(0.0).max(p.x - self.max.x);
        let dy = (self.min.y - p.y).max(0.0).max(p.y - self.max.y);
        dx * dx + dy * dy
    }

    /// Exact maximum Euclidean distance from `p` to any point of the
    /// rectangle. Used by the IA region: if the farthest corner of the MBR is
    /// within `mMR` of a facility, every position certainly is.
    #[inline]
    pub fn max_distance(&self, p: &Point) -> f64 {
        self.max_distance_sq(p).sqrt()
    }

    /// Squared version of [`Rect::max_distance`].
    #[inline]
    pub fn max_distance_sq(&self, p: &Point) -> f64 {
        let dx = (p.x - self.min.x).abs().max((p.x - self.max.x).abs());
        let dy = (p.y - self.min.y).abs().max((p.y - self.max.y).abs());
        dx * dx + dy * dy
    }

    /// The rectangle grown by `delta` on every side.
    ///
    /// `□_NIR(ABCD)` from the paper (Lemma 3) is exactly
    /// `ABCD.inflate(NIR)`: the MBR of the NIR-rounded square.
    pub fn inflate(&self, delta: f64) -> Rect {
        debug_assert!(delta >= 0.0, "inflate takes a non-negative delta");
        Rect {
            min: Point::new(self.min.x - delta, self.min.y - delta),
            max: Point::new(self.max.x + delta, self.max.y + delta),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(x0: f64, y0: f64, x1: f64, y1: f64) -> Rect {
        Rect::new(Point::new(x0, y0), Point::new(x1, y1))
    }

    #[test]
    fn new_normalises_corners() {
        let a = Rect::new(Point::new(3.0, 4.0), Point::new(1.0, 2.0));
        assert_eq!(a.min, Point::new(1.0, 2.0));
        assert_eq!(a.max, Point::new(3.0, 4.0));
    }

    #[test]
    fn bounding_of_points() {
        let pts = [
            Point::new(1.0, 5.0),
            Point::new(-2.0, 0.5),
            Point::new(4.0, 2.0),
        ];
        let b = Rect::bounding(&pts).unwrap();
        assert_eq!(b, r(-2.0, 0.5, 4.0, 5.0));
        assert!(Rect::bounding(&[]).is_none());
    }

    #[test]
    fn union_covers_both() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let b = r(2.0, -1.0, 3.0, 0.5);
        let u = a.union(&b);
        assert!(u.contains_rect(&a));
        assert!(u.contains_rect(&b));
        assert_eq!(u, r(0.0, -1.0, 3.0, 1.0));
    }

    #[test]
    fn geometry_measures() {
        let a = r(0.0, 0.0, 3.0, 4.0);
        assert_eq!(a.width(), 3.0);
        assert_eq!(a.height(), 4.0);
        assert_eq!(a.area(), 12.0);
        assert!((a.diagonal() - 5.0).abs() < 1e-12);
        assert_eq!(a.center(), Point::new(1.5, 2.0));
    }

    #[test]
    fn contains_is_closed() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        assert!(a.contains(&Point::new(0.0, 0.0)));
        assert!(a.contains(&Point::new(1.0, 1.0)));
        assert!(a.contains(&Point::new(0.5, 1.0)));
        assert!(!a.contains(&Point::new(1.0 + 1e-9, 1.0)));
    }

    #[test]
    fn intersects_touching_edges() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        assert!(a.intersects(&r(1.0, 0.0, 2.0, 1.0)));
        assert!(!a.intersects(&r(1.1, 0.0, 2.0, 1.0)));
        assert!(a.intersects(&r(0.25, 0.25, 0.75, 0.75)));
    }

    #[test]
    fn min_distance_inside_is_zero() {
        let a = r(0.0, 0.0, 2.0, 2.0);
        assert_eq!(a.min_distance(&Point::new(1.0, 1.0)), 0.0);
        assert_eq!(a.min_distance(&Point::new(0.0, 2.0)), 0.0);
    }

    #[test]
    fn min_distance_outside() {
        let a = r(0.0, 0.0, 2.0, 2.0);
        // Directly right of the rectangle.
        assert!((a.min_distance(&Point::new(5.0, 1.0)) - 3.0).abs() < 1e-12);
        // Diagonal from the corner (3-4-5 triangle).
        assert!((a.min_distance(&Point::new(5.0, 6.0)) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn max_distance_reaches_farthest_corner() {
        let a = r(0.0, 0.0, 2.0, 2.0);
        // From the min corner, the farthest point is the max corner.
        assert!((a.max_distance(&Point::new(0.0, 0.0)) - 8f64.sqrt()).abs() < 1e-12);
        // From the centre, every corner is sqrt(2) away.
        assert!((a.max_distance(&Point::new(1.0, 1.0)) - 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn inflate_grows_every_side() {
        let a = r(0.0, 0.0, 1.0, 1.0).inflate(0.5);
        assert_eq!(a, r(-0.5, -0.5, 1.5, 1.5));
    }

    #[test]
    fn degenerate_point_rect() {
        let a = Rect::point(Point::new(1.0, 1.0));
        assert_eq!(a.area(), 0.0);
        assert!(a.contains(&Point::new(1.0, 1.0)));
        assert!((a.min_distance(&Point::new(4.0, 5.0)) - 5.0).abs() < 1e-12);
    }
}
