//! One module per paper table/figure. Each experiment takes a [`Ctx`] and
//! returns an [`ExperimentResult`] with the same series the paper plots.

mod candgen;
mod fig07;
mod fig08;
mod fig09;
mod fig10;
mod fig11;
mod fig12;
mod fig13;
mod fig14;
pub(crate) mod fig15;
mod fig16;
mod figd;
mod greedy;
mod parallel;
mod quality;
mod serve;
mod table1;
mod table2;
mod update;
mod verify;

pub use candgen::candgen;
pub use fig07::fig7;
pub use fig08::fig8;
pub use fig09::fig9;
pub use fig10::fig10;
pub use fig11::fig11;
pub use fig12::fig12;
pub use fig13::fig13;
pub use fig14::fig14;
pub use fig15::fig15;
pub use fig16::fig16;
pub use figd::figd;
pub use greedy::greedy;
pub use parallel::parallel;
pub use quality::quality;
pub use serve::serve;
pub use table1::table1;
pub use table2::table2;
pub use update::update;
pub use verify::verify;

use crate::{Ctx, ExperimentResult};

/// An experiment entry point.
pub type Runner = fn(&Ctx) -> ExperimentResult;

/// All experiments in paper order: `(id, runner)`.
pub fn all() -> Vec<(&'static str, Runner)> {
    vec![
        ("fig7", fig7 as Runner),
        ("fig8", fig8),
        ("fig9", fig9),
        ("table1", table1),
        ("table2", table2),
        ("fig10", fig10),
        ("fig11", fig11),
        ("fig12", fig12),
        ("fig13", fig13),
        ("fig14", fig14),
        ("fig15", fig15),
        ("fig16", fig16),
        ("figd", figd),
        ("quality", quality),
        ("BENCH_parallel", parallel),
        ("BENCH_verify", verify),
        ("BENCH_greedy", greedy),
        ("BENCH_serve", serve),
        ("BENCH_update", update),
        ("BENCH_candgen", candgen),
    ]
}

/// The τ sweep the paper uses throughout.
pub(crate) const TAUS: [f64; 5] = [0.1, 0.3, 0.5, 0.7, 0.9];

/// Median wall-clock of `reps` runs of `f` (at least one run).
fn median_of<F: FnMut() -> std::time::Duration>(reps: usize, mut f: F) -> std::time::Duration {
    let mut times: Vec<std::time::Duration> = (0..reps.max(1)).map(|_| f()).collect();
    times.sort_unstable();
    times[times.len() / 2]
}

/// Milliseconds with two decimals, as a JSON number.
pub(crate) fn ms(d: std::time::Duration) -> serde_json::Value {
    serde_json::json!((d.as_secs_f64() * 100_000.0).round() / 100.0)
}

/// Runs every paper method on `problem` and appends, per method, the
/// median over `reps` repetitions of its total (`<label>_ms`) and of its
/// indexing, pruning and verification phases (`<label>_index_ms`,
/// `<label>_prune_ms`, `<label>_verify_ms`); asserts all methods return
/// equivalent solutions along the way (the paper: "all the algorithms
/// achieve identical k result candidates").
pub(crate) fn method_times_row(
    base: crate::RowBuilder,
    problem: &mc2ls::prelude::Problem,
    reps: usize,
) -> serde_json::Value {
    use mc2ls::prelude::*;
    let reps = reps.max(1);
    let mut r = base;
    let mut reference: Option<Solution> = None;
    for (method, label) in crate::paper_methods() {
        let mut phases: [Vec<std::time::Duration>; 4] = Default::default();
        let mut last = None;
        for _ in 0..reps {
            let report = solve(problem, method);
            let t = report.times;
            for (runs, d) in
                phases
                    .iter_mut()
                    .zip([t.total(), t.indexing, t.pruning, t.verification])
            {
                runs.push(d);
            }
            last = Some(report.solution);
        }
        for (runs, suffix) in phases
            .iter_mut()
            .zip(["ms", "index_ms", "prune_ms", "verify_ms"])
        {
            runs.sort_unstable();
            r = r.set(format!("{label}_{suffix}"), ms(runs[runs.len() / 2]));
        }
        let solution = last.expect("reps >= 1");
        match &reference {
            None => reference = Some(solution),
            Some(rf) => assert!(
                rf.equivalent(&solution),
                "{label} returned a different solution"
            ),
        }
    }
    r.build()
}
