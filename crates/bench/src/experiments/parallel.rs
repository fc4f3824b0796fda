//! `BENCH_parallel` — serial vs multi-threaded wall-clock of the influence
//! pipelines (written to `BENCH_parallel.json`).
//!
//! Two scaling metrics per thread count `T ∈ {2, 4, 8}`:
//!
//! * `speedupT_wall` — measured wall-clock ratio `t1 / tT` of the real
//!   multi-threaded run. This is bounded by the machine: on a CI box pinned
//!   to a single core (see the `cores` column) it stays ≈ 1 no matter how
//!   well the work distributes.
//! * `speedupT` — the critical-path speedup `sum(chunk times) / max(chunk
//!   times per phase)`: the exact contiguous chunk decomposition the worker
//!   pool uses is replayed **serially**, each chunk timed on the calling
//!   thread. The longest chunk per phase is what a run on `T` free cores
//!   would wait for; the sum is what one core pays for the same pass. Both
//!   come from the same pass (noise cancels, ratio ≤ T by construction).
//!   This measures the decomposition's load balance, not a model — the
//!   same work, same memory layout, same chunk boundaries.
//!
//! **Reading the numbers:** every row carries a `wall_unreliable` flag
//! that is `true` whenever the runner exposes a single core — the
//! `speedupT_wall` columns then carry no parallel signal at all, and the
//! headline metric is the critical-path `speedupT` (and `qps_crit` in
//! `BENCH_serve`), which replays the exact chunk decomposition and stays
//! meaningful at any core count.
//!
//! Every threaded run is also checked bit-identical to the serial run, sets
//! and `PruneStats` alike (the pipeline's core invariant).

use crate::{Ctx, ExperimentResult};
use mc2ls::prelude::*;
use serde_json::json;
use std::time::{Duration, Instant};

const THREADS: [usize; 3] = [2, 4, 8];

/// The chunk boundaries `map_chunks` uses for `n_items` over `threads`.
fn chunk_bounds(n_items: usize, threads: usize) -> Vec<std::ops::Range<usize>> {
    let threads = threads.min(n_items.max(1));
    let chunk = n_items.div_ceil(threads);
    (0..threads)
        .map(|t| {
            let lo = (t * chunk).min(n_items);
            let hi = (lo + chunk).min(n_items);
            lo..hi
        })
        .collect()
}

/// One serial replay of the Baseline's chunk decomposition: `serial` sums
/// every chunk's time (the one-core cost of this very pass) and `critical`
/// sums the longest chunk of each phase (what `threads` free cores would
/// wait for; the phases run one after the other in
/// `baseline_influence_sets_counted`). Both come from the same pass, so
/// `serial / critical` is a per-pass load-balance ratio, never above
/// `threads`.
struct Replay {
    serial: Duration,
    critical: Duration,
}

fn baseline_replay(problem: &Problem, threads: usize) -> Replay {
    let n_users = problem.n_users();
    let phase = |bounds: Vec<std::ops::Range<usize>>, work: &dyn Fn(usize)| {
        let times: Vec<Duration> = bounds
            .into_iter()
            .map(|range| {
                let t = Instant::now();
                range.for_each(work);
                t.elapsed()
            })
            .collect();
        (
            times.iter().sum::<Duration>(),
            times.into_iter().max().unwrap_or_default(),
        )
    };
    let (cand_sum, cand_max) = phase(chunk_bounds(problem.n_candidates(), threads), &|ci| {
        let c = &problem.candidates[ci];
        for o in 0..n_users {
            std::hint::black_box(influences(
                &problem.pf,
                c,
                problem.users[o].positions(),
                problem.tau,
            ));
        }
    });
    let (fac_sum, fac_max) = phase(chunk_bounds(problem.n_facilities(), threads), &|fi| {
        let f = &problem.facilities[fi];
        for o in 0..n_users {
            std::hint::black_box(influences(
                &problem.pf,
                f,
                problem.users[o].positions(),
                problem.tau,
            ));
        }
    });
    Replay {
        serial: cand_sum + fac_sum,
        critical: cand_max + fac_max,
    }
}

/// Runs the experiment; see the module docs for the two scaling metrics.
pub fn parallel(ctx: &Ctx) -> ExperimentResult {
    let cores = crate::detected_cores();
    let mut rows = Vec::new();
    for (name, dataset) in [
        ("C", crate::california(ctx.scale_c)),
        ("N", crate::new_york(ctx.scale_n)),
    ] {
        let problem = crate::problem_with(
            &dataset,
            crate::defaults::N_CANDIDATES,
            crate::defaults::N_FACILITIES,
            crate::defaults::K,
            crate::defaults::TAU,
        );

        for (pipeline, method) in [
            ("IQT", Method::Iqt(IqtConfig::default())),
            ("Baseline", Method::Baseline),
        ] {
            let (reference, reference_stats, _) = influence_sets_threaded(&problem, method, 1);
            let timed = |threads: usize| {
                super::median_of(ctx.reps, || {
                    let t = Instant::now();
                    let (sets, stats, _) = influence_sets_threaded(&problem, method, threads);
                    let elapsed = t.elapsed();
                    assert_eq!(
                        sets, reference,
                        "{pipeline} diverged from serial at {threads} threads"
                    );
                    assert_eq!(
                        stats, reference_stats,
                        "{pipeline} PruneStats diverged from serial at {threads} threads"
                    );
                    elapsed
                })
            };
            let t1 = timed(1);
            let mut r = crate::RowBuilder::new()
                .set("dataset", json!(name))
                .set("pipeline", json!(pipeline))
                .set("cores", json!(cores))
                .set("wall_unreliable", json!(cores == 1))
                .set("t1_ms", super::ms(t1));
            for threads in THREADS {
                let tn = timed(threads);
                r = r
                    .set(format!("t{threads}_wall_ms"), super::ms(tn))
                    .set(format!("speedup{threads}_wall"), json!(ratio(t1, tn)));
                // Load-balance critical path (what `threads` free cores
                // would wait for) — measurable even on a 1-core runner.
                // Each rep's ratio comes from one pass, so noise between
                // passes cancels out of the speedup.
                if pipeline == "Baseline" {
                    let mut ratios = Vec::with_capacity(ctx.reps.max(1));
                    let mut criticals = Vec::with_capacity(ctx.reps.max(1));
                    for _ in 0..ctx.reps.max(1) {
                        let rep = baseline_replay(&problem, threads);
                        ratios.push(ratio(rep.serial, rep.critical));
                        criticals.push(rep.critical);
                    }
                    ratios.sort_unstable_by(f64::total_cmp);
                    criticals.sort_unstable();
                    r = r
                        .set(
                            format!("t{threads}_critical_ms"),
                            super::ms(criticals[criticals.len() / 2]),
                        )
                        .set(format!("speedup{threads}"), json!(ratios[ratios.len() / 2]));
                }
            }
            rows.push(r.build());
        }
    }
    ExperimentResult {
        id: "BENCH_parallel",
        title: "Parallel scaling: wall-clock and critical-path speedups vs threads",
        rows,
    }
}

/// `a / b` rounded to 2 decimals.
fn ratio(a: Duration, b: Duration) -> f64 {
    ((a.as_secs_f64() / b.as_secs_f64().max(1e-9)) * 100.0).round() / 100.0
}
