//! Seeded workload inputs.
//!
//! Everything a workload feeds the system is derived here from the run's
//! `--seed`: the preset dataset (its generator seed XOR-ed with the run
//! seed), the candidate/facility samples, the order instances are solved
//! in, the query stream and the UPDATE event stream. The server and the
//! engines receive only these generated values, never the seed itself.

use mc2ls_core::algorithms::Selector;
use mc2ls_core::Problem;
use mc2ls_data::{presets, Dataset};
use mc2ls_geo::Point;
use mc2ls_influence::{Model, MovingUser, Sigmoid, BLOCK_SIZE_AUTO};
use mc2ls_serve::{QueryRequest, WireEvent};

/// Paper defaults (§VII-A): `|C| = 100`, `|F| = 200`, `k = 10`, `τ = 0.7`.
pub const N_CANDIDATES: usize = 100;
/// Competitor facilities per instance.
pub const N_FACILITIES: usize = 200;
/// Default budget.
pub const K: usize = 10;
/// Default influence threshold.
pub const TAU: f64 = 0.7;
/// The thresholds `solve-C` cycles through.
pub const SOLVE_TAUS: [f64; 3] = [0.5, 0.7, 0.9];
/// Candidate/facility samples per `solve-C` run (each solved at every τ).
/// The instance count stays odd, so the median of the cycled instances is
/// one instance's cost rather than the gap between two of them.
pub const SOLVE_SITE_SAMPLES: u64 = 3;

/// Fixed candidate subsets the hot share of the query stream draws from.
pub const HOT_SUBSETS: usize = 512;
/// Candidates per subset query.
pub const SUBSET_LEN: usize = 50;
/// Share of queries drawn Zipf(s = 1) from the hot subsets; the rest are
/// fresh random subsets.
pub const HOT_SHARE: f64 = 0.7;
/// Budgets a query picks from uniformly.
pub const QUERY_KS: [usize; 3] = [5, 10, 20];
/// Events per UPDATE batch.
pub const BATCH_EVENTS: usize = 16;

const STREAM_SITES: u64 = 1;
const STREAM_ORDER: u64 = 2;
const STREAM_QUERIES: u64 = 3;
const STREAM_EVENTS: u64 = 4;

/// A splitmix64 generator; one independent stream per input kind.
pub struct Rng(u64);

impl Rng {
    /// Stream `stream` of the run seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n ≥ 1`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A uniformly drawn slot that is still alive (at least one is).
fn live_slot(rng: &mut Rng, alive: &[bool]) -> usize {
    loop {
        let o = rng.below(alive.len());
        if alive[o] {
            return o;
        }
    }
}

/// The two calibrated dataset presets.
#[derive(Debug, Clone, Copy)]
pub enum Preset {
    /// California-like: near-uniform, 10,162 users, 381k positions.
    California,
    /// New-York-like: skewed hotspots, 2,725 users, 34k positions.
    NewYork,
}

/// The preset at `scale`, generated with its seed XOR-ed with `seed`.
pub fn dataset(preset: Preset, scale: f64, seed: u64) -> Dataset {
    let mut cfg = match preset {
        Preset::California => presets::california_scaled(scale),
        Preset::NewYork => presets::new_york_scaled(scale),
    };
    cfg.seed ^= seed;
    cfg.generate()
}

/// A paper-default problem over `data` with site sample `sample` and
/// threshold `tau`.
pub fn problem(data: &Dataset, seed: u64, sample: u64, tau: f64) -> Problem<Sigmoid> {
    let site_seed = Rng::new(seed, STREAM_SITES + 16 * sample).next_u64();
    let (candidates, facilities) =
        data.sample_sites_disjoint(N_CANDIDATES, N_FACILITIES, site_seed);
    Problem::new(
        data.users.clone(),
        facilities,
        candidates,
        K,
        tau,
        Sigmoid::paper_default(),
    )
}

/// The `solve-C` instances: every site sample at every τ of
/// [`SOLVE_TAUS`], in a seed-shuffled order the closed loop cycles through.
pub fn solve_instances(data: &Dataset, seed: u64) -> Vec<Problem<Sigmoid>> {
    let mut instances: Vec<Problem<Sigmoid>> = (0..SOLVE_SITE_SAMPLES)
        .flat_map(|sample| SOLVE_TAUS.map(|tau| problem(data, seed, sample, tau)))
        .collect();
    Rng::new(seed, STREAM_ORDER).shuffle(&mut instances);
    instances
}

/// The full-candidate-set query at the default budget.
pub fn full_query(tau: f64) -> QueryRequest {
    QueryRequest {
        candidates: None,
        k: K,
        tau,
        block_size: BLOCK_SIZE_AUTO,
        selector: Selector::Auto,
        pf_exact: false,
        model: Model::Cumulative,
    }
}

fn random_subset(rng: &mut Rng, n_candidates: usize) -> Vec<u32> {
    let mut ids: Vec<u32> = (0..n_candidates as u32).collect();
    let take = SUBSET_LEN.min(n_candidates);
    for i in 0..take {
        let j = i + rng.below(n_candidates - i);
        ids.swap(i, j);
    }
    ids.truncate(take);
    ids
}

/// `len` subset queries: [`HOT_SHARE`] drawn Zipf(s = 1) from
/// [`HOT_SUBSETS`] fixed subsets, the rest fresh random subsets, each with
/// a budget drawn uniformly from [`QUERY_KS`].
pub fn query_stream(seed: u64, n_candidates: usize, tau: f64, len: usize) -> Vec<QueryRequest> {
    let mut rng = Rng::new(seed, STREAM_QUERIES);
    let hot: Vec<Vec<u32>> = (0..HOT_SUBSETS)
        .map(|_| random_subset(&mut rng, n_candidates))
        .collect();
    let mut cdf: Vec<f64> = (1..=HOT_SUBSETS)
        .scan(0.0, |acc, rank| {
            *acc += 1.0 / rank as f64;
            Some(*acc)
        })
        .collect();
    let total = cdf[HOT_SUBSETS - 1];
    cdf.iter_mut().for_each(|c| *c /= total);
    (0..len)
        .map(|_| {
            let candidates = if rng.unit() < HOT_SHARE {
                let u = rng.unit();
                hot[cdf.partition_point(|&c| c <= u).min(HOT_SUBSETS - 1)].clone()
            } else {
                random_subset(&mut rng, n_candidates)
            };
            QueryRequest {
                candidates: Some(candidates),
                k: QUERY_KS[rng.below(QUERY_KS.len())],
                ..full_query(tau)
            }
        })
        .collect()
}

/// `batches` UPDATE batches of [`BATCH_EVENTS`] events against a live
/// server started on `users`: per event, one in eight inserts a user near a
/// live one, one in eight deletes a live user, the rest check a live user
/// in at a position up to 1 km from its last one along each axis.
///
/// Ids follow the server's numbering: inserts take the next slot, and
/// after each batch the live slots are renumbered densely in slot order,
/// as the update engine's compaction does. Every event is therefore valid
/// when the batches are applied in order.
pub fn event_stream(seed: u64, users: &[MovingUser], batches: usize) -> Vec<Vec<WireEvent>> {
    let mut rng = Rng::new(seed, STREAM_EVENTS);
    // Per live slot: first and last position.
    let mut slots: Vec<(Point, Point)> = users
        .iter()
        .map(|u| {
            let p = u.positions();
            (p[0], p[p.len() - 1])
        })
        .collect();
    let event = |op: &str, user: usize, points: &[Point]| WireEvent {
        op: op.to_string(),
        user: user as u32,
        xs: points.iter().map(|p| p.x).collect(),
        ys: points.iter().map(|p| p.y).collect(),
    };
    (0..batches)
        .map(|_| {
            let mut alive = vec![true; slots.len()];
            let mut n_alive = slots.len();
            let mut batch = Vec::with_capacity(BATCH_EVENTS);
            for _ in 0..BATCH_EVENTS {
                let roll = rng.below(8);
                if roll == 0 {
                    let base = slots[live_slot(&mut rng, &alive)].0;
                    let mut near =
                        || Point::new(base.x + rng.unit() - 0.5, base.y + rng.unit() - 0.5);
                    let points = [near(), near()];
                    batch.push(event("insert", 0, &points));
                    slots.push((points[0], points[1]));
                    alive.push(true);
                    n_alive += 1;
                } else if roll == 1 && n_alive > 1 {
                    let o = live_slot(&mut rng, &alive);
                    batch.push(event("delete", o, &[]));
                    alive[o] = false;
                    n_alive -= 1;
                } else {
                    let o = live_slot(&mut rng, &alive);
                    let last = slots[o].1;
                    let next = Point::new(
                        last.x + rng.unit() * 2.0 - 1.0,
                        last.y + rng.unit() * 2.0 - 1.0,
                    );
                    batch.push(event("checkin", o, &[next]));
                    slots[o].1 = next;
                }
            }
            slots = slots
                .iter()
                .zip(&alive)
                .filter(|(_, &a)| a)
                .map(|(s, _)| *s)
                .collect();
            batch
        })
        .collect()
}
