//! Parallel ≡ serial: the chunked IQuad-tree pipeline and the chunked
//! baseline must reproduce their one-thread results **bit-identically** — same
//! `Ω_c` (CSR arrays included), same `|F_o|`, same `PruneStats` — for every
//! thread count, because chunking only moves work between threads, never
//! changes it.

use mc2ls_core::algorithms::{baseline, iqt, run_selector, IqtConfig, Selector};
use mc2ls_core::{InfluenceSets, Problem};
use mc2ls_geo::Point;
use mc2ls_influence::{MovingUser, Sigmoid};

const THREAD_COUNTS: [usize; 5] = [1, 2, 4, 7, 16];

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

/// A randomised MC²LS instance; sizes and clustering vary with the seed so
/// the chunk boundaries land differently in every case.
fn random_problem(seed: u64) -> Problem {
    let mut rng = XorShift::new(seed);
    let n_users = 30 + (rng.next_f64() * 70.0) as usize;
    let n_facs = 5 + (rng.next_f64() * 12.0) as usize;
    let n_cands = 5 + (rng.next_f64() * 12.0) as usize;
    let tau = 0.3 + rng.next_f64() * 0.5;
    let users: Vec<MovingUser> = (0..n_users)
        .map(|_| {
            let cx = rng.next_f64() * 25.0;
            let cy = rng.next_f64() * 25.0;
            let r = 1 + (rng.next_f64() * 8.0) as usize;
            MovingUser::new(
                (0..r)
                    .map(|_| Point::new(cx + rng.next_f64() * 2.0, cy + rng.next_f64() * 2.0))
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

#[test]
fn iqt_parallel_is_bit_identical_across_20_instances() {
    for seed in 1..=20u64 {
        let p = random_problem(seed);
        for config in [
            IqtConfig::iqt_c(2.0),
            IqtConfig::iqt(2.0),
            IqtConfig::iqt_pino(2.0),
        ] {
            let (serial_sets, serial_stats, _) = iqt::influence_sets_parallel(&p, &config, 1);
            for threads in THREAD_COUNTS {
                let (par_sets, par_stats, _) = iqt::influence_sets_parallel(&p, &config, threads);
                assert_eq!(
                    serial_sets, par_sets,
                    "InfluenceSets diverged: seed={seed} threads={threads}"
                );
                assert_eq!(
                    serial_stats, par_stats,
                    "PruneStats diverged: seed={seed} threads={threads}"
                );
            }
        }
    }
}

#[test]
fn baseline_parallel_is_bit_identical_across_20_instances() {
    for seed in 100..=120u64 {
        let p = random_problem(seed);
        let (serial_sets, serial_stats, _) = baseline::influence_sets(&p, 1);
        for threads in THREAD_COUNTS {
            let (par_sets, par_stats, _) = baseline::influence_sets(&p, threads);
            assert_eq!(
                serial_sets, par_sets,
                "baseline diverged: seed={seed} threads={threads}"
            );
            assert_eq!(
                serial_stats, par_stats,
                "baseline PruneStats diverged: seed={seed} threads={threads}"
            );
        }
    }
}

#[test]
fn parallel_sets_drive_identical_selections() {
    // End-to-end: the greedy phase consumes the parallel sets and must pick
    // the same candidates with the same objective value — for every
    // selector, including the decremental one running its own threaded
    // inverted-index build.
    for seed in [3u64, 8, 14] {
        let p = random_problem(seed);
        let (serial_sets, _, _) = iqt::influence_sets_parallel(&p, &IqtConfig::iqt(2.0), 1);
        let want = run_selector(Selector::LazyGreedy, &serial_sets, p.k, 1).0;
        for threads in [2usize, 7] {
            let (par_sets, _, _) = iqt::influence_sets_parallel(&p, &IqtConfig::iqt(2.0), threads);
            let got = run_selector(Selector::LazyGreedy, &par_sets, p.k, 1).0;
            assert_eq!(want.selected, got.selected, "seed={seed} threads={threads}");
            assert!((want.cinf - got.cinf).abs() < 1e-15, "seed={seed}");
            let dec = run_selector(Selector::Decremental, &par_sets, p.k, threads).0;
            assert_eq!(
                want.selected, dec.selected,
                "decremental diverged: seed={seed} threads={threads}"
            );
            assert_eq!(
                want.cinf.to_bits(),
                dec.cinf.to_bits(),
                "decremental cinf bits diverged: seed={seed} threads={threads}"
            );
        }
    }
}

#[test]
fn csr_round_trip_on_pipeline_output() {
    // The CSR layout must reconstruct losslessly from both directions:
    // nested → CSR → nested and CSR → nested → CSR.
    for seed in [2u64, 9, 17] {
        let p = random_problem(seed);
        let (sets, _, _) = iqt::influence_sets_parallel(&p, &IqtConfig::iqt(2.0), 1);
        let nested: Vec<Vec<u32>> = (0..sets.n_candidates())
            .map(|c| sets.omega(c).to_vec())
            .collect();
        let rebuilt = InfluenceSets::new(nested.clone(), sets.f_count.clone());
        assert_eq!(rebuilt, sets, "nested round trip, seed={seed}");
        let (offsets, user_ids) = sets.csr();
        let from_csr =
            InfluenceSets::from_csr(offsets.to_vec(), user_ids.to_vec(), sets.f_count.clone());
        assert_eq!(from_csr, sets, "CSR round trip, seed={seed}");
    }
}
