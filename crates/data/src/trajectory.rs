//! Time-ordered movement-trace generation.
//!
//! The flat generator ([`crate::DatasetConfig`]) produces unordered
//! position multisets — enough for the static MC²LS experiments. This
//! module generates **trajectories**: time-ordered traces following a
//! commuter pattern (home ↔ work anchors with noisy dwell positions),
//! tagged with the time slot of each record. Traces degrade gracefully
//! to [`MovingUser`]s for the static problem.

use mc2ls_geo::Point;
use mc2ls_influence::MovingUser;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One user's time-ordered trace: `(position, slot)` records in visit
/// order.
pub type Trace = Vec<(Point, u32)>;

/// Configuration of the commuter-trace generator.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrajectoryConfig {
    /// Number of users.
    pub n_users: usize,
    /// Side of the square region, km.
    pub region_km: f64,
    /// Time slots per day (e.g. 3 = morning / afternoon / evening).
    pub slots_per_day: u32,
    /// Days of recorded activity per user.
    pub days: usize,
    /// Std-dev (km) of positions around the active anchor.
    pub dwell_spread_km: f64,
    /// Fraction of days with a recorded check-in per slot (sparsity of
    /// real check-in data; 1.0 = every slot every day).
    pub record_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TrajectoryConfig {
    fn default() -> Self {
        TrajectoryConfig {
            n_users: 500,
            region_km: 30.0,
            slots_per_day: 3,
            days: 7,
            dwell_spread_km: 0.6,
            record_rate: 0.7,
            seed: 42,
        }
    }
}

impl TrajectoryConfig {
    /// Generates one trace per user. Each user gets a home and a work
    /// anchor; morning/evening slots dwell near home, midday slots near
    /// work, mimicking commuter check-in rhythms. Users whose sampling
    /// produced no record receive one forced home check-in so every trace
    /// is non-empty.
    pub fn generate(&self) -> Vec<Trace> {
        assert!(self.n_users > 0);
        assert!(self.slots_per_day >= 1);
        assert!(self.days >= 1);
        assert!((0.0..=1.0).contains(&self.record_rate));
        let mut rng = StdRng::seed_from_u64(self.seed);
        let site = |rng: &mut StdRng| {
            Point::new(
                rng.gen::<f64>() * self.region_km,
                rng.gen::<f64>() * self.region_km,
            )
        };
        (0..self.n_users)
            .map(|_| {
                let home = site(&mut rng);
                let work = site(&mut rng);
                let mut trace: Trace = Vec::new();
                for _day in 0..self.days {
                    for slot in 0..self.slots_per_day {
                        if rng.gen::<f64>() > self.record_rate {
                            continue;
                        }
                        // Midday slots at work; first/last near home.
                        let midday =
                            self.slots_per_day >= 3 && slot > 0 && slot < self.slots_per_day - 1;
                        let anchor = if midday { work } else { home };
                        let p = Point::new(
                            (anchor.x + gauss(&mut rng) * self.dwell_spread_km)
                                .clamp(0.0, self.region_km),
                            (anchor.y + gauss(&mut rng) * self.dwell_spread_km)
                                .clamp(0.0, self.region_km),
                        );
                        trace.push((p, slot));
                    }
                }
                if trace.is_empty() {
                    trace.push((home, 0));
                }
                trace
            })
            .collect()
    }
}

/// Collapses traces to static [`MovingUser`]s (drops slot tags).
pub fn to_moving_users(traces: &[Trace]) -> Vec<MovingUser> {
    traces
        .iter()
        .map(|t| MovingUser::new(t.iter().map(|&(p, _)| p).collect()))
        .collect()
}

fn gauss(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(1e-12);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_non_empty_slot_tagged_traces() {
        let cfg = TrajectoryConfig {
            n_users: 50,
            ..TrajectoryConfig::default()
        };
        let traces = cfg.generate();
        assert_eq!(traces.len(), 50);
        for t in &traces {
            assert!(!t.is_empty());
            for &(p, slot) in t {
                assert!(slot < cfg.slots_per_day);
                assert!(p.x >= 0.0 && p.x <= cfg.region_km);
                assert!(p.y >= 0.0 && p.y <= cfg.region_km);
            }
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let cfg = TrajectoryConfig::default();
        assert_eq!(cfg.generate(), cfg.generate());
        let other = TrajectoryConfig {
            seed: 43,
            ..TrajectoryConfig::default()
        };
        assert_ne!(cfg.generate(), other.generate());
    }

    #[test]
    fn record_rate_controls_density() {
        let sparse = TrajectoryConfig {
            record_rate: 0.2,
            ..TrajectoryConfig::default()
        };
        let dense = TrajectoryConfig {
            record_rate: 1.0,
            ..TrajectoryConfig::default()
        };
        let count = |ts: &[Trace]| ts.iter().map(Vec::len).sum::<usize>();
        assert!(count(&dense.generate()) > count(&sparse.generate()));
        // Full rate records every slot of every day.
        let full = dense.generate();
        assert_eq!(
            count(&full),
            dense.n_users * dense.days * dense.slots_per_day as usize
        );
    }

    #[test]
    fn commuter_pattern_separates_slots() {
        // With distant home/work anchors, midday positions cluster away
        // from morning positions for most users.
        let cfg = TrajectoryConfig {
            n_users: 100,
            region_km: 50.0,
            dwell_spread_km: 0.3,
            record_rate: 1.0,
            ..TrajectoryConfig::default()
        };
        let traces = cfg.generate();
        let mut separated = 0;
        for t in &traces {
            let centroid = |slot: u32| {
                let pts: Vec<Point> = t
                    .iter()
                    .filter(|&&(_, s)| s == slot)
                    .map(|&(p, _)| p)
                    .collect();
                let n = pts.len() as f64;
                Point::new(
                    pts.iter().map(|p| p.x).sum::<f64>() / n,
                    pts.iter().map(|p| p.y).sum::<f64>() / n,
                )
            };
            if centroid(0).distance(&centroid(1)) > 2.0 {
                separated += 1;
            }
        }
        // Home and work are independent uniforms on a 50 km square —
        // almost all users commute farther than 2 km.
        assert!(separated > 80, "only {separated} users separated");
    }

    #[test]
    fn conversion_to_moving_users_preserves_counts() {
        let traces = TrajectoryConfig::default().generate();
        let users = to_moving_users(&traces);
        assert_eq!(users.len(), traces.len());
        for (u, t) in users.iter().zip(&traces) {
            assert_eq!(u.len(), t.len());
        }
    }
}
