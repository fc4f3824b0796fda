//! Geographic projection helpers.
//!
//! The paper's datasets store `⟨latitude, longitude⟩` check-ins; every
//! algorithmic component of this workspace works on a planar km grid. The
//! [`Equirectangular`] projection maps a geographic region of city/state
//! scale onto that grid with sub-percent distortion, which is more than
//! enough fidelity for influence radii of a few kilometres.

use crate::Point;

/// Mean Earth radius in kilometres (IUGG).
const EARTH_RADIUS_KM: f64 = 6371.0088;

/// Great-circle (haversine) distance between two `(lat, lon)` pairs in
/// degrees, returned in km: the oracle that the planar projection is
/// validated against.
// lint:allow(unread-pub): the spherical oracle this file's projection tests measure `Equirectangular` against
pub fn haversine_km(lat1: f64, lon1: f64, lat2: f64, lon2: f64) -> f64 {
    let (phi1, phi2) = (lat1.to_radians(), lat2.to_radians());
    let dphi = (lat2 - lat1).to_radians();
    let dlambda = (lon2 - lon1).to_radians();
    let a = (dphi / 2.0).sin().powi(2) + phi1.cos() * phi2.cos() * (dlambda / 2.0).sin().powi(2);
    2.0 * EARTH_RADIUS_KM * a.sqrt().asin()
}

/// Equirectangular projection anchored at a reference latitude/longitude.
///
/// `x = R·Δλ·cos(φ₀)`, `y = R·Δφ` — locally distance-preserving around the
/// anchor, which dataset loaders place at the region centroid.
#[derive(Debug, Clone, Copy)]
pub struct Equirectangular {
    ref_lat_rad: f64,
    ref_lon_rad: f64,
    cos_ref_lat: f64,
}

impl Equirectangular {
    /// Creates a projection anchored at `(ref_lat, ref_lon)` in degrees.
    pub fn new(ref_lat: f64, ref_lon: f64) -> Self {
        let ref_lat_rad = ref_lat.to_radians();
        Equirectangular {
            ref_lat_rad,
            ref_lon_rad: ref_lon.to_radians(),
            cos_ref_lat: ref_lat_rad.cos(),
        }
    }

    /// Projects `(lat, lon)` in degrees to planar km coordinates.
    pub fn project(&self, lat: f64, lon: f64) -> Point {
        let x = EARTH_RADIUS_KM * (lon.to_radians() - self.ref_lon_rad) * self.cos_ref_lat;
        let y = EARTH_RADIUS_KM * (lat.to_radians() - self.ref_lat_rad);
        Point::new(x, y)
    }

    /// Inverse projection from planar km back to `(lat, lon)` degrees.
    pub fn unproject(&self, p: &Point) -> (f64, f64) {
        let lat = (self.ref_lat_rad + p.y / EARTH_RADIUS_KM).to_degrees();
        let lon = (self.ref_lon_rad + p.x / (EARTH_RADIUS_KM * self.cos_ref_lat)).to_degrees();
        (lat, lon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn haversine_known_distance() {
        // NYC (40.7128, -74.0060) to Philadelphia (39.9526, -75.1652): ~130 km.
        let d = haversine_km(40.7128, -74.0060, 39.9526, -75.1652);
        assert!((d - 129.6).abs() < 2.0, "got {d}");
    }

    #[test]
    fn haversine_zero_for_same_point() {
        assert_eq!(haversine_km(37.0, -122.0, 37.0, -122.0), 0.0);
    }

    #[test]
    fn projection_roundtrip() {
        let proj = Equirectangular::new(40.7, -74.0);
        let p = proj.project(40.75, -73.95);
        let (lat, lon) = proj.unproject(&p);
        assert!((lat - 40.75).abs() < 1e-9);
        assert!((lon - -73.95).abs() < 1e-9);
    }

    #[test]
    fn projection_preserves_local_distance() {
        let proj = Equirectangular::new(40.7, -74.0);
        // Two points ~5 km apart near the anchor.
        let a = proj.project(40.70, -74.00);
        let b = proj.project(40.74, -73.97);
        let planar = a.distance(&b);
        let sphere = haversine_km(40.70, -74.00, 40.74, -73.97);
        let rel_err = (planar - sphere).abs() / sphere;
        assert!(rel_err < 0.005, "relative error {rel_err}");
    }

    #[test]
    fn anchor_maps_to_origin() {
        let proj = Equirectangular::new(34.0, -118.0);
        let p = proj.project(34.0, -118.0);
        assert!(p.distance(&Point::ORIGIN) < 1e-9);
    }
}
