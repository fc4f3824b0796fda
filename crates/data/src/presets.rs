//! Calibrated dataset presets matching the statistics the paper reports for
//! its two real datasets (§VII-A):
//!
//! | property | California (Gowalla) | New York (Brightkite) |
//! |---|---|---|
//! | users | 10,162 | 2,725 |
//! | positions | 381,165 | 34,024 |
//! | user-MBR / region area | ≈ 0.085 | ≈ 0.029 |
//! | distribution | near-uniform | highly skewed, facilities overlap |
//! | positions per km² per user | ≈ 80% of N's | denser |
//!
//! The scaled variants keep every behavioural property (skew, density, MBR
//! ratios, heavy-tailed `r`) and shrink only the cardinalities, so tests and
//! quick experiments run in seconds.

use crate::generator::DatasetConfig;

/// Full-scale California-like preset (near-uniform, wide-roaming users).
pub fn california() -> DatasetConfig {
    DatasetConfig {
        name: "california".into(),
        n_users: 10_162,
        target_positions: 381_165,
        region_km: 300.0,
        hotspots: 160,
        hotspot_skew: 0.25,
        local_spread_km: 6.0,
        travel_span: 0.30,
        hotspots_per_user: (2, 4),
        min_positions: 2,
        n_pois: 4_000,
        seed: 0xCA11F0,
    }
}

/// Full-scale New York-like preset (skewed hotspots, compact users).
pub fn new_york() -> DatasetConfig {
    DatasetConfig {
        name: "new_york".into(),
        n_users: 2_725,
        target_positions: 34_024,
        region_km: 60.0,
        hotspots: 40,
        hotspot_skew: 1.25,
        local_spread_km: 1.8,
        travel_span: 0.25,
        hotspots_per_user: (2, 3),
        min_positions: 2,
        n_pois: 4_000,
        seed: 0x0E101,
    }
}

/// California preset with user/position counts scaled by `f ∈ (0, 1]`.
pub fn california_scaled(f: f64) -> DatasetConfig {
    scale(california(), f)
}

/// New York preset with user/position counts scaled by `f ∈ (0, 1]`.
pub fn new_york_scaled(f: f64) -> DatasetConfig {
    scale(new_york(), f)
}

fn scale(mut cfg: DatasetConfig, f: f64) -> DatasetConfig {
    assert!(f > 0.0 && f <= 1.0, "scale must be in (0, 1], got {f}");
    cfg.n_users = ((cfg.n_users as f64 * f).round() as usize).max(10);
    cfg.target_positions = ((cfg.target_positions as f64 * f).round() as usize).max(20);
    cfg.name = format!("{}_x{:.2}", cfg.name, f);
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dataset;

    #[test]
    fn scaled_california_matches_paper_statistics() {
        // 10% scale keeps the behavioural statistics; full scale is
        // exercised by the benchmark harness.
        let d = california_scaled(0.1).generate();
        let s = d.stats();
        assert_eq!(s.n_users, 1016);
        // Mean positions per user ≈ 37.5 like the paper's C.
        assert!(
            (s.mean_positions - 37.5).abs() < 6.0,
            "mean_positions={}",
            s.mean_positions
        );
        // MBR ratio near the paper's 0.085 (generous band: ±50%).
        assert!(
            s.mean_mbr_area_ratio > 0.04 && s.mean_mbr_area_ratio < 0.14,
            "mbr ratio {}",
            s.mean_mbr_area_ratio
        );
    }

    #[test]
    fn scaled_new_york_matches_paper_statistics() {
        let d = new_york_scaled(0.1).generate();
        let s = d.stats();
        assert_eq!(s.n_users, 273);
        assert!(
            (s.mean_positions - 12.5).abs() < 4.0,
            "mean_positions={}",
            s.mean_positions
        );
        assert!(
            s.mean_mbr_area_ratio > 0.012 && s.mean_mbr_area_ratio < 0.06,
            "mbr ratio {}",
            s.mean_mbr_area_ratio
        );
    }

    #[test]
    fn new_york_is_more_skewed_than_california() {
        let c = california_scaled(0.05).generate().stats();
        let n = new_york_scaled(0.2).generate().stats();
        assert!(
            n.hotspot_share > c.hotspot_share,
            "N share {} vs C share {}",
            n.hotspot_share,
            c.hotspot_share
        );
    }

    #[test]
    fn new_york_positions_are_denser() {
        // Paper: per-user positions per km² in C ≈ 80% of N's.
        let c = california_scaled(0.05).generate();
        let n = new_york_scaled(0.2).generate();
        let density = |d: &Dataset| {
            let s = d.stats();
            s.mean_positions / d.extent().area()
        };
        assert!(density(&n) > density(&c));
    }

    #[test]
    #[should_panic(expected = "scale must be in (0, 1]")]
    fn rejects_bad_scale() {
        california_scaled(1.5);
    }
}
