//! The MC²LS solution algorithms and the common driver.

pub mod baseline;
pub mod budgeted;
pub mod exact;
pub mod iqt;
pub mod kcifp;
pub mod topk;

use crate::{
    select, GatherScratch, InfluenceSets, InvertedIndex, PhaseTimes, Problem, PruneStats,
    RunReport, SelectOpts, SelectionStats, SetRows,
};
use mc2ls_influence::{CompetitionModel, Model, ProbabilityFunction};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Configuration of the IQuad-tree solution (Algorithm 2).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct IqtConfig {
    /// Leaf-square diagonal `d̂` in km (paper default: 2 km).
    pub leaf_diagonal: f64,
    /// Layer the classical NIB rule on top of IS/NIR (the paper's `IQT`).
    pub use_nib: bool,
    /// Additionally layer the IA rule (the paper's `IQT-PINO`).
    pub use_ia: bool,
}

impl IqtConfig {
    /// `IQT-C`: IS + NIR only.
    pub fn iqt_c(leaf_diagonal: f64) -> Self {
        IqtConfig {
            leaf_diagonal,
            use_nib: false,
            use_ia: false,
        }
    }

    /// `IQT`: IS + NIR + NIB (the paper's recommended configuration).
    pub fn iqt(leaf_diagonal: f64) -> Self {
        IqtConfig {
            leaf_diagonal,
            use_nib: true,
            use_ia: false,
        }
    }

    /// `IQT-PINO`: IS + NIR + NIB + IA (shown by Table I to be unprofitable).
    pub fn iqt_pino(leaf_diagonal: f64) -> Self {
        IqtConfig {
            leaf_diagonal,
            use_nib: true,
            use_ia: true,
        }
    }
}

impl Default for IqtConfig {
    fn default() -> Self {
        IqtConfig::iqt(2.0)
    }
}

/// Which algorithm computes the influence relationships.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub enum Method {
    /// §IV-A: exhaustive influence computation (no pruning).
    Baseline,
    /// Algorithm 1: R-trees over C/F with IA + NIB pruning.
    KCifp,
    /// Algorithm 2: IQuad-tree with IS + NIR (+ optional NIB/IA).
    Iqt(IqtConfig),
}

impl Method {
    /// Human-readable name matching the paper's legend.
    pub fn name(&self) -> &'static str {
        match self {
            Method::Baseline => "Baseline",
            Method::KCifp => "k-CIFP",
            Method::Iqt(c) => match (c.use_nib, c.use_ia) {
                (false, false) => "IQT-C",
                (true, false) => "IQT",
                (true, true) => "IQT-PINO",
                (false, true) => "IQT+IA",
            },
        }
    }
}

/// How the `k` candidates are selected from the influence sets. Every
/// selector returns byte-identical [`crate::Solution`]s (canonical
/// weight-class gains, smallest-id tie-break); they differ only in how much
/// work they spend getting there.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Selector {
    /// The paper's greedy: re-evaluate every candidate per round.
    Greedy,
    /// CELF lazy greedy (identical result, fewer evaluations).
    LazyGreedy,
    /// Decremental gain maintenance over the inverted user → candidate CSR
    /// (identical result; update work bounded by one inverted-CSR pass).
    Decremental,
    /// Picks [`Selector::Decremental`] or [`Selector::LazyGreedy`] from the
    /// instance shape — see [`resolve_selector`].
    Auto,
}

/// Resolves [`Selector::Auto`] against the instance: decremental
/// maintenance pays off when one pass over the CSR (`Σ|Ω_c|`, its total
/// update bound) costs no more than the `k·|C|` candidate re-evaluations a
/// scanning selector risks, i.e. when the sets are sparse relative to the
/// budget; otherwise CELF's pruning on the forward CSR wins. Non-`Auto`
/// selectors resolve to themselves.
pub fn resolve_selector(selector: Selector, sets: &InfluenceSets, k: usize) -> Selector {
    resolve(selector, sets.total_influences(), sets.n_candidates(), k)
}

/// [`resolve_selector`] over an instance's shape: `Σ|Ω_c|` and `|C|`.
pub(crate) fn resolve(
    selector: Selector,
    total_influences: usize,
    n_candidates: usize,
    k: usize,
) -> Selector {
    match selector {
        Selector::Auto if total_influences <= k * n_candidates => Selector::Decremental,
        Selector::Auto => Selector::LazyGreedy,
        s => s,
    }
}

/// Runs the (resolved) selector, returning the solution plus its
/// [`SelectionStats`] work counters: a one-shard [`select`] over the owned
/// sets. Public so callers holding pre-computed (or deserialized)
/// [`InfluenceSets`] can run the selection phase alone without re-deriving
/// the influence relationships.
///
/// # Panics
/// Panics when `k` exceeds the candidate count or `threads == 0`.
pub fn run_selector(
    selector: Selector,
    sets: &InfluenceSets,
    k: usize,
    threads: usize,
) -> (crate::Solution, SelectionStats) {
    select_sets(selector, sets, k, threads, &Model::Cumulative)
}

/// The owned-sets selection path, with the **submodularity routing
/// rule**: a model declaring
/// [`is_submodular`](CompetitionModel::is_submodular) runs the requested
/// greedy-family selector (all byte-identical); a non-submodular model is
/// routed to the exact branch-and-bound oracle
/// ([`exact::solve_exact_model`]) regardless of `selector`, because
/// greedy's marginal-gain argument certifies nothing there. The exact
/// route is capped at [`exact::MAX_EXACT_CANDIDATES`] candidates. Only
/// the decremental selector gets the inverted CSR built.
fn select_sets<M: CompetitionModel + Sync>(
    selector: Selector,
    sets: &InfluenceSets,
    k: usize,
    threads: usize,
    model: &M,
) -> (crate::Solution, SelectionStats) {
    if !model.is_submodular() {
        let solution = exact::solve_exact_model(sets, k, model);
        let stats = SelectionStats {
            gain_evals: solution.selected.len() as u64,
            covered_users: sets.covered_by(&solution.selected).count_ones() as u64,
            ..SelectionStats::default()
        };
        return (solution, stats);
    }
    let selector = resolve_selector(selector, sets, k);
    let inverted = (selector == Selector::Decremental).then(|| InvertedIndex::build(sets));
    let rows = [SetRows {
        sets,
        inverted: inverted.as_ref(),
    }];
    let opts = SelectOpts {
        selector,
        model,
        threads,
        subset: None,
    };
    let (solution, stats, _) = select(&rows, None, k, &opts, &mut GatherScratch::new());
    (solution, stats)
}

/// Computes the influence relationships with `method`, then selects `k`
/// candidates with the standard greedy. This is the main entry point.
pub fn solve<PF: ProbabilityFunction>(problem: &Problem<PF>, method: Method) -> RunReport {
    solve_with(problem, method, Selector::Greedy)
}

/// [`solve`] with an explicit selection strategy.
pub fn solve_with<PF: ProbabilityFunction>(
    problem: &Problem<PF>,
    method: Method,
    selector: Selector,
) -> RunReport {
    let (sets, stats, mut times) = influence_sets(problem, method);
    let t = Instant::now();
    let (solution, selection) = select_sets(selector, &sets, problem.k, 1, &problem.model);
    times.selection = t.elapsed();
    RunReport {
        solution,
        stats,
        selection,
        times,
    }
}

/// Runs only the influence-relationship phases of `method`, returning the
/// resulting sets plus pruning counters and phase timings. Exposed so the
/// benchmarks can measure phases separately and so the exact solver can
/// reuse any method's sets.
pub fn influence_sets<PF: ProbabilityFunction>(
    problem: &Problem<PF>,
    method: Method,
) -> (InfluenceSets, PruneStats, PhaseTimes) {
    match method {
        Method::Baseline => baseline::influence_sets(problem),
        Method::KCifp => kcifp::influence_sets(problem),
        Method::Iqt(config) => iqt::influence_sets(problem, &config),
    }
}

/// [`solve_with`] with an explicit worker-thread count for the influence
/// phases. `threads == 1` is exactly the serial path; any thread count
/// produces bit-identical results (see `tests/parallel_equivalence.rs`),
/// so the selected sites and `cinf(G)` never depend on `threads`.
///
/// # Panics
/// Panics when `threads == 0`.
pub fn solve_threaded<PF: ProbabilityFunction>(
    problem: &Problem<PF>,
    method: Method,
    selector: Selector,
    threads: usize,
) -> RunReport {
    let (sets, stats, mut times) = influence_sets_threaded(problem, method, threads);
    let t = Instant::now();
    let (solution, selection) = select_sets(selector, &sets, problem.k, threads, &problem.model);
    times.selection = t.elapsed();
    RunReport {
        solution,
        stats,
        selection,
        times,
    }
}

/// [`influence_sets`] across `threads` worker threads.
///
/// * [`Method::Iqt`] runs the chunked IQuad-tree pipeline
///   ([`iqt::influence_sets_parallel`]): traversal, NIB/IA refinement and
///   exact verification all fan out; sets **and** `PruneStats` are
///   bit-identical to serial.
/// * [`Method::Baseline`] runs the chunked exhaustive scan with per-worker
///   evaluation counters; its whole cost is verification, so `PhaseTimes`
///   reports the wall-clock of the scan there.
/// * [`Method::KCifp`] stays serial (its R-tree walk shares mutable
///   per-candidate state); `threads` is ignored.
///
/// # Panics
/// Panics when `threads == 0`.
pub fn influence_sets_threaded<PF: ProbabilityFunction>(
    problem: &Problem<PF>,
    method: Method,
    threads: usize,
) -> (InfluenceSets, PruneStats, PhaseTimes) {
    assert!(threads >= 1, "need at least one worker thread");
    match method {
        Method::Baseline => {
            if threads == 1 {
                return baseline::influence_sets(problem);
            }
            let t0 = Instant::now();
            let (sets, counts) = crate::parallel::baseline_influence_sets_counted(problem, threads);
            let pairs =
                ((problem.n_candidates() + problem.n_facilities()) * problem.n_users()) as u64;
            let mut stats = PruneStats {
                pairs_total: pairs,
                verified: pairs,
                ..PruneStats::default()
            };
            counts.add_to(&mut stats);
            let times = PhaseTimes {
                verification: t0.elapsed(),
                ..PhaseTimes::default()
            };
            (sets, stats, times)
        }
        Method::KCifp => kcifp::influence_sets(problem),
        Method::Iqt(config) => iqt::influence_sets_parallel(problem, &config, threads),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A complementarity model with mixed-sign class weights: uncontested
    /// users are worth `+1` each, but any user already served by an
    /// incumbent *costs* the entrant (brand dilution). Not monotone, not
    /// submodular.
    struct Dilution;

    impl CompetitionModel for Dilution {
        fn name(&self) -> &'static str {
            "dilution-test"
        }

        fn class_contribution(&self, w: usize, n: u32) -> f64 {
            if w == 0 {
                f64::from(n)
            } else {
                -0.25 * f64::from(n)
            }
        }

        fn is_submodular(&self) -> bool {
            false
        }
    }

    #[test]
    fn non_submodular_models_route_to_the_exact_oracle() {
        let sets = InfluenceSets::new(
            vec![vec![0, 1], vec![2, 3, 4], vec![3, 4, 5]],
            vec![0, 0, 0, 1, 2, 1],
        );
        let direct = exact::solve_exact_model(&sets, 2, &Dilution);
        for selector in [
            Selector::Greedy,
            Selector::LazyGreedy,
            Selector::Decremental,
            Selector::Auto,
        ] {
            for threads in [1usize, 4] {
                let (sol, stats) = select_sets(selector, &sets, 2, threads, &Dilution);
                assert_eq!(direct.selected, sol.selected, "{selector:?} t={threads}");
                assert_eq!(
                    direct.cinf.to_bits(),
                    sol.cinf.to_bits(),
                    "{selector:?} t={threads}"
                );
                assert_eq!(stats.gain_evals, sol.selected.len() as u64);
            }
        }
    }
}
