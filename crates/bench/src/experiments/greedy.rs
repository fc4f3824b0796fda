//! `BENCH_greedy` — the selection phase head-to-head (written to
//! `BENCH_greedy.json`): rescan greedy vs CELF vs decremental maintenance
//! over the inverted user → candidate CSR, swept over `k` and `|C|` on both
//! dataset presets.
//!
//! Besides wall-clock medians, each row reports the selectors'
//! `SelectionStats` work counters (all thread-count-invariant, asserted
//! here at 1 vs 4 workers):
//!
//! * `celf_rescanned` — forward-CSR entries CELF re-visits after a
//!   candidate's first evaluation (its re-evaluation work).
//! * `dec_updates` — class-count decrements the decremental selector
//!   performs; bounded by `inverted_entries` (one inverted-CSR pass) over
//!   all `k` rounds, asserted per row.
//!
//! Two invariants are asserted on every row: all three selectors return
//! **byte-identical** solutions, and at `k ≥ 20` the decremental selector's
//! `dec_updates` stays strictly below CELF's `celf_rescanned` — the point
//! of maintaining gains instead of re-deriving them. The work comparison
//! is skipped on instances with fewer than [`MIN_COMPARABLE_ENTRIES`]
//! influence entries (heavily down-scaled smoke datasets), where both
//! counters are double-digit noise; at scale ≥ 0.3 every row qualifies.

use crate::{Ctx, ExperimentResult};
use mc2ls::core::algorithms::{run_selector, Selector};
use mc2ls::prelude::*;
use serde_json::json;
use std::time::Instant;

const K_SWEEP: [usize; 4] = [5, 10, 20, 40];
const CANDIDATE_SWEEP: [usize; 2] = [100, 200];

/// Minimum `Σ|Ω_c|` for the decremental-vs-CELF work assertion to be
/// meaningful (see the module docs).
const MIN_COMPARABLE_ENTRIES: u64 = 1000;

/// Runs the experiment; see the module docs for the counters and asserts.
pub fn greedy(ctx: &Ctx) -> ExperimentResult {
    let cores = crate::detected_cores();
    let mut rows = Vec::new();
    for (name, dataset) in [
        ("C", crate::california(ctx.scale_c)),
        ("N", crate::new_york(ctx.scale_n)),
    ] {
        for n_c in CANDIDATE_SWEEP {
            // The selection phase consumes InfluenceSets; build them once
            // per (dataset, |C|) and sweep k over the same sets. `k = 1`
            // here is a placeholder — the problem's k is not read below.
            let problem = crate::problem_with(
                &dataset,
                n_c,
                crate::defaults::N_FACILITIES,
                1,
                crate::defaults::TAU,
            );
            let (sets, _, _) =
                influence_sets_threaded(&problem, Method::Iqt(IqtConfig::default()), 1);

            for k_req in K_SWEEP {
                // Tiny smoke scales clamp the sampled candidate pool; keep
                // k admissible and record what actually ran.
                let k = k_req.min(sets.n_candidates());

                let (reference, rescan_stats) = run_selector(Selector::Greedy, &sets, k, 1);
                let (celf_sol, celf_stats) = run_selector(Selector::LazyGreedy, &sets, k, 1);
                let (dec_sol, dec_stats) = run_selector(Selector::Decremental, &sets, k, 1);
                for (label, sol) in [("celf", &celf_sol), ("decremental", &dec_sol)] {
                    assert_eq!(
                        reference.selected, sol.selected,
                        "{label} selected different sites ({name} |C|={n_c} k={k})"
                    );
                    assert_eq!(
                        reference.cinf.to_bits(),
                        sol.cinf.to_bits(),
                        "{label} cinf bits diverged ({name} |C|={n_c} k={k})"
                    );
                }
                // The counters must not depend on the worker count.
                assert_eq!(
                    celf_stats,
                    run_selector(Selector::LazyGreedy, &sets, k, 4).1,
                    "CELF stats diverged at 4 threads ({name} |C|={n_c} k={k})"
                );
                assert_eq!(
                    dec_stats,
                    run_selector(Selector::Decremental, &sets, k, 4).1,
                    "decremental stats diverged at 4 threads ({name} |C|={n_c} k={k})"
                );
                assert!(
                    dec_stats.gain_updates <= dec_stats.inverted_entries,
                    "decremental exceeded its one-inverted-pass bound"
                );
                if k >= 20 && dec_stats.inverted_entries >= MIN_COMPARABLE_ENTRIES {
                    assert!(
                        dec_stats.gain_updates < celf_stats.users_rescanned,
                        "decremental update work ({}) not below CELF re-scan work ({}) \
                         at {name} |C|={n_c} k={k}",
                        dec_stats.gain_updates,
                        celf_stats.users_rescanned
                    );
                }

                let time = |selector| {
                    super::median_of(ctx.reps, || {
                        let t = Instant::now();
                        std::hint::black_box(run_selector(selector, &sets, k, 1));
                        t.elapsed()
                    })
                };
                let rescan_ms = time(Selector::Greedy);
                let celf_ms = time(Selector::LazyGreedy);
                let dec_ms = time(Selector::Decremental);

                rows.push(
                    crate::RowBuilder::new()
                        .set("dataset", json!(name))
                        .set("n_candidates", json!(sets.n_candidates()))
                        .set("k", json!(k))
                        .set("cores", json!(cores))
                        .set("rescan_ms", super::ms(rescan_ms))
                        .set("celf_ms", super::ms(celf_ms))
                        .set("decremental_ms", super::ms(dec_ms))
                        .set("rescan_scanned", json!(rescan_stats.users_scanned))
                        .set("celf_rescanned", json!(celf_stats.users_rescanned))
                        .set("celf_gain_evals", json!(celf_stats.gain_evals))
                        .set("dec_updates", json!(dec_stats.gain_updates))
                        .set("dec_gain_evals", json!(dec_stats.gain_evals))
                        .set("inverted_entries", json!(dec_stats.inverted_entries))
                        .set("covered_users", json!(dec_stats.covered_users))
                        .build(),
                );
            }
        }
    }
    ExperimentResult {
        id: "BENCH_greedy",
        title: "Selection phase: rescan vs CELF vs decremental inverted-CSR greedy",
        rows,
    }
}
