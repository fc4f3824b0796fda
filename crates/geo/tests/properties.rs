//! Property-based tests for the geometry substrate.

use mc2ls_geo::{Point, Rect, Square};
use proptest::prelude::*;

fn pt() -> impl Strategy<Value = Point> {
    (-500.0f64..500.0, -500.0f64..500.0).prop_map(|(x, y)| Point::new(x, y))
}

fn rect() -> impl Strategy<Value = Rect> {
    (pt(), pt()).prop_map(|(a, b)| Rect::new(a, b))
}

proptest! {
    #[test]
    fn triangle_inequality(a in pt(), b in pt(), c in pt()) {
        prop_assert!(a.distance(&c) <= a.distance(&b) + b.distance(&c) + 1e-9);
    }

    #[test]
    fn rect_min_le_max_distance(r in rect(), p in pt()) {
        prop_assert!(r.min_distance(&p) <= r.max_distance(&p) + 1e-12);
    }

    #[test]
    fn rect_min_distance_zero_iff_contained(r in rect(), p in pt()) {
        if r.contains(&p) {
            prop_assert_eq!(r.min_distance(&p), 0.0);
        } else {
            prop_assert!(r.min_distance(&p) > 0.0);
        }
    }

    /// min_distance is a true lower bound on the distance to any contained point.
    #[test]
    fn rect_min_distance_bounds_member_points(r in rect(), p in pt(), q in pt()) {
        // Clamp q into the rectangle to get an arbitrary member point.
        let member = Point::new(q.x.clamp(r.min.x, r.max.x), q.y.clamp(r.min.y, r.max.y));
        prop_assert!(r.min_distance(&p) <= p.distance(&member) + 1e-9);
        prop_assert!(r.max_distance(&p) >= p.distance(&member) - 1e-9);
    }

    #[test]
    fn union_contains_both(a in rect(), b in rect()) {
        let u = a.union(&b);
        prop_assert!(u.contains_rect(&a));
        prop_assert!(u.contains_rect(&b));
    }

    #[test]
    fn bounding_contains_all_points(pts in prop::collection::vec(pt(), 1..50)) {
        let mbr = Rect::bounding(&pts).unwrap();
        for p in &pts {
            prop_assert!(mbr.contains(p));
        }
    }

    #[test]
    fn inflate_preserves_containment(r in rect(), p in pt(), d in 0.0f64..100.0) {
        if r.contains(&p) {
            prop_assert!(r.inflate(d).contains(&p));
        }
        // Inflation by the point's distance always captures it.
        prop_assert!(r.inflate(r.min_distance(&p) + 1e-6).contains(&p));
    }

    #[test]
    fn circle_rect_intersection_agrees_with_sampling(c in pt(), radius in 0.1f64..50.0, r in rect()) {
        // The nearest rectangle point to the centre decides whether a disk
        // meets the rectangle, which is what its minimum distance measures.
        let nearest = Point::new(
            c.x.clamp(r.min.x, r.max.x),
            c.y.clamp(r.min.y, r.max.y),
        );
        prop_assert_eq!(r.min_distance(&c) <= radius, c.distance(&nearest) <= radius);
    }

    /// Lemma 2's geometric core: a circle with radius = diagonal centred
    /// anywhere inside a square covers the whole square.
    #[test]
    fn diagonal_circle_covers_square(origin in pt(), side in 0.1f64..50.0, fx in 0.0f64..1.0, fy in 0.0f64..1.0) {
        let sq = Square::new(origin, side);
        let inside = Point::new(origin.x + fx * side, origin.y + fy * side);
        // The disk is convex: holding the four corners is holding the square.
        let r = sq.rect();
        for corner in [r.min, Point::new(r.max.x, r.min.y), r.max, Point::new(r.min.x, r.max.y)] {
            prop_assert!(inside.distance(&corner) <= sq.diagonal() + 1e-9);
        }
    }

    #[test]
    fn quadrants_tile_parent(origin in pt(), side in 0.1f64..50.0, fx in 0.0f64..1.0, fy in 0.0f64..1.0) {
        let sq = Square::new(origin, side);
        let p = Point::new(origin.x + fx * side, origin.y + fy * side);
        let idx = sq.quadrant_of(&p);
        // Assigned quadrant contains the point (up to boundary fuzz)...
        prop_assert!(sq.child(idx).rect().inflate(1e-9).contains(&p));
        // ...and the index is unique by construction (no other check needed:
        // quadrant_of is a pure function of the comparison against centre).
    }

    #[test]
    fn square_diagonal_halves_in_children(origin in pt(), side in 0.1f64..50.0) {
        let sq = Square::new(origin, side);
        for child in (0..4).map(|q| sq.child(q)) {
            prop_assert!((child.diagonal() * 2.0 - sq.diagonal()).abs() < 1e-9);
        }
    }
}
