//! Blocked ≡ plain: the block-bounded verification kernel is a pure
//! optimisation, so every pipeline must produce the same `InfluenceSets` —
//! and the greedy phase the same `Solution` — whether verification runs
//! through `influences_blocked` (any block size, auto-tuned included) or
//! the plain per-position kernel (`BLOCK_SIZE_PLAIN`), at any thread count.

use mc2ls_core::algorithms::{
    influence_sets_threaded, solve_threaded, IqtConfig, Method, Selector,
};
use mc2ls_core::Problem;
use mc2ls_geo::Point;
use mc2ls_influence::{MovingUser, Sigmoid, BLOCK_SIZE_AUTO, BLOCK_SIZE_PLAIN};

/// Fixed sizes plus the auto sentinel (`0`), which resolves per dataset.
const BLOCK_SIZES: [usize; 5] = [1, 4, 16, 33, BLOCK_SIZE_AUTO];
const THREAD_COUNTS: [usize; 2] = [1, 4];

/// Deterministic xorshift64 stream in [0, 1).
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift(seed.max(1))
    }

    fn next_f64(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A randomised MC²LS instance; clustering varies with the seed so block
/// MBRs range from tight (decides from bounds) to sprawling (falls through
/// to per-position evaluation).
fn random_problem(seed: u64) -> Problem {
    let mut rng = XorShift::new(seed);
    let n_users = 30 + (rng.next_f64() * 70.0) as usize;
    let n_facs = 5 + (rng.next_f64() * 12.0) as usize;
    let n_cands = 5 + (rng.next_f64() * 12.0) as usize;
    let tau = 0.3 + rng.next_f64() * 0.5;
    let spread = 0.5 + rng.next_f64() * 6.0;
    let users: Vec<MovingUser> = (0..n_users)
        .map(|_| {
            let cx = rng.next_f64() * 25.0;
            let cy = rng.next_f64() * 25.0;
            let r = 1 + (rng.next_f64() * 40.0) as usize;
            MovingUser::new(
                (0..r)
                    .map(|_| Point::new(cx + rng.next_f64() * spread, cy + rng.next_f64() * spread))
                    .collect(),
            )
        })
        .collect();
    let facilities = (0..n_facs)
        .map(|_| Point::new(rng.next_f64() * 25.0, rng.next_f64() * 25.0))
        .collect();
    let candidates = (0..n_cands)
        .map(|_| Point::new(rng.next_f64() * 25.0, rng.next_f64() * 25.0))
        .collect();
    Problem::new(
        users,
        facilities,
        candidates,
        2.min(n_cands),
        tau,
        Sigmoid::paper_default(),
    )
}

fn methods() -> [Method; 3] {
    [
        Method::Baseline,
        Method::KCifp,
        Method::Iqt(IqtConfig::iqt(2.0)),
    ]
}

#[test]
fn influence_sets_identical_blocked_vs_plain() {
    for seed in 1..=12u64 {
        let base = random_problem(seed);
        for method in methods() {
            let plain = base.clone().with_block_size(BLOCK_SIZE_PLAIN);
            let (want, _, _) = influence_sets_threaded(&plain, method, 1);
            for bs in BLOCK_SIZES {
                let blocked = base.clone().with_block_size(bs);
                for threads in THREAD_COUNTS {
                    let (got, _, _) = influence_sets_threaded(&blocked, method, threads);
                    assert_eq!(
                        want, got,
                        "InfluenceSets diverged: seed={seed} method={method:?} \
                         block_size={bs} threads={threads}"
                    );
                }
            }
        }
    }
}

#[test]
fn solutions_identical_blocked_vs_plain() {
    // End-to-end: same selected candidates, same objective, regardless of
    // which kernel verified the pairs, how many threads ran it, and which
    // selector picked the sites (all selectors are byte-equivalent).
    let selectors = [
        Selector::Greedy,
        Selector::LazyGreedy,
        Selector::Decremental,
        Selector::Auto,
    ];
    for seed in [3u64, 7, 11] {
        let base = random_problem(seed);
        for method in methods() {
            let plain = base.clone().with_block_size(BLOCK_SIZE_PLAIN);
            let want = solve_threaded(&plain, method, Selector::LazyGreedy, 1).solution;
            for bs in [4usize, 16, BLOCK_SIZE_AUTO] {
                let blocked = base.clone().with_block_size(bs);
                for threads in THREAD_COUNTS {
                    for selector in selectors {
                        let got = solve_threaded(&blocked, method, selector, threads).solution;
                        assert_eq!(
                            want.selected, got.selected,
                            "selection diverged: seed={seed} method={method:?} \
                             block_size={bs} threads={threads} selector={selector:?}"
                        );
                        assert_eq!(
                            want.cinf.to_bits(),
                            got.cinf.to_bits(),
                            "objective diverged: seed={seed} method={method:?} \
                             block_size={bs} threads={threads} selector={selector:?}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn blocked_stats_are_thread_count_invariant() {
    // The block counters (like the eval counters before them) are summed
    // per worker, so PruneStats must not depend on the thread count.
    for seed in [5u64, 9] {
        let p = random_problem(seed);
        for method in methods() {
            let (_, want, _) = influence_sets_threaded(&p, method, 1);
            for threads in [2usize, 4, 7] {
                let (_, got, _) = influence_sets_threaded(&p, method, threads);
                assert_eq!(
                    want, got,
                    "PruneStats diverged: seed={seed} method={method:?} threads={threads}"
                );
            }
        }
    }
}
