use serde::{Deserialize, Serialize};

/// A position in the planar working coordinate system, in kilometres.
///
/// The paper describes each moving-user position as a
/// `⟨latitude, longitude⟩` pair; loaders project those onto a local plane
/// (see [`crate::project`]) so that all index structures and pruning rules
/// can use cheap Euclidean distances.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Point {
    /// East–west coordinate in km.
    pub x: f64,
    /// North–south coordinate in km.
    pub y: f64,
}

impl Point {
    /// Creates a point from `x`/`y` km coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// The origin `(0, 0)`.
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// Euclidean distance to `other`, in km.
    #[inline]
    pub fn distance(&self, other: &Point) -> f64 {
        self.distance_sq(other).sqrt()
    }

    /// Squared Euclidean distance to `other`.
    #[inline]
    fn distance_sq(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Component-wise midpoint between `self` and `other`.
    #[inline]
    pub fn midpoint(&self, other: &Point) -> Point {
        Point::new((self.x + other.x) * 0.5, (self.y + other.y) * 0.5)
    }

    /// Returns the point translated by `(dx, dy)`.
    #[inline]
    pub fn translated(&self, dx: f64, dy: f64) -> Point {
        Point::new(self.x + dx, self.y + dy)
    }

    /// True when both coordinates are finite (not NaN/±inf).
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl From<(f64, f64)> for Point {
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_symmetric() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(4.0, 6.0);
        assert_eq!(a.distance(&b), b.distance(&a));
        assert!((a.distance(&b) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn distance_to_self_is_zero() {
        let a = Point::new(-3.5, 7.25);
        assert_eq!(a.distance(&a), 0.0);
        assert_eq!(a.distance_sq(&a), 0.0);
    }

    #[test]
    fn squared_distance_matches_distance() {
        let a = Point::new(0.3, -0.4);
        let b = Point::ORIGIN;
        assert!((a.distance_sq(&b) - 0.25).abs() < 1e-12);
        assert!((a.distance(&b) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn midpoint_is_halfway() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(2.0, 4.0);
        let m = a.midpoint(&b);
        assert_eq!(m, Point::new(1.0, 2.0));
        assert!((a.distance(&m) - b.distance(&m)).abs() < 1e-12);
    }

    #[test]
    fn translated_moves_by_offset() {
        let a = Point::new(1.0, 1.0).translated(-2.0, 3.0);
        assert_eq!(a, Point::new(-1.0, 4.0));
    }

    #[test]
    fn finite_detects_nan() {
        assert!(Point::new(1.0, 2.0).is_finite());
        assert!(!Point::new(f64::NAN, 2.0).is_finite());
        assert!(!Point::new(1.0, f64::INFINITY).is_finite());
    }

    #[test]
    fn tuple_conversion() {
        let p: Point = (3.0, 4.0).into();
        assert_eq!(p, Point::new(3.0, 4.0));
    }
}
