use crate::Solution;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Counters over user–facility *pairs* classified by each pruning rule, plus
/// the exact-verification effort. These back the paper's pruning-effect
/// figures (Fig. 7, Fig. 8) and the verification-cost plots
/// (Fig. 15(b)/16(b)).
///
/// A "pair" is one (abstract facility, user) influence relationship. For
/// every pair exactly one of the following holds after the pruning phase:
/// decided-influenced (IS or IA), decided-not (NIR or NIB), or verified.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PruneStats {
    /// Total pairs considered: `(|C| + |F|)·|Ω|` (facility side restricted
    /// to users that matter, see Algorithm 1 line 10 / Algorithm 2).
    pub pairs_total: u64,
    /// Pairs decided *influenced* by the IS rule (Lemma 2).
    pub is_decided: u64,
    /// Pairs decided *not influenced* by the NIR rule (Lemma 3).
    pub nir_decided: u64,
    /// Pairs decided *influenced* by the IA region (Corollary 1).
    pub ia_decided: u64,
    /// Pairs decided *not influenced* by the NIB region (Corollary 2).
    pub nib_decided: u64,
    /// Facility–user pairs skipped because the user is influenced by no
    /// candidate (Algorithm 1 line 10): the user's weight is never read, so
    /// its `F_o` is irrelevant to the objective.
    pub irrelevant: u64,
    /// Pairs that reached exact verification (Definition 2).
    pub verified: u64,
    /// Per-position probability evaluations performed during verification
    /// (with early stopping).
    pub prob_evals: u64,
    /// Position blocks whose contents were never read because block-level
    /// distance bounds decided the pair first (blocked kernel only; 0 under
    /// the plain kernel, `BLOCK_SIZE_PLAIN`).
    pub blocks_bounded_out: u64,
    /// Position blocks opened for in-block lane evaluation (blocked kernel
    /// only). Users that fell back to the exact pass have their opened
    /// blocks counted twice (once per pass).
    pub blocks_opened: u64,
    /// Verified pairs whose fast-PF walk ended with the threshold inside
    /// the error band and were re-decided on the exact `exp` path. Always 0
    /// under the plain kernel. The fast-path hit rate is
    /// `1 − pf_fallbacks / verified`.
    pub pf_fallbacks: u64,
}

impl PruneStats {
    /// Fraction of pairs decided without verification.
    pub fn pruned_fraction(&self) -> f64 {
        if self.pairs_total == 0 {
            return 0.0;
        }
        1.0 - self.verified as f64 / self.pairs_total as f64
    }

    /// Fraction of pairs decided by the IS rule.
    pub fn is_fraction(&self) -> f64 {
        safe_div(self.is_decided, self.pairs_total)
    }

    /// Fraction of pairs decided by the NIR rule.
    pub fn nir_fraction(&self) -> f64 {
        safe_div(self.nir_decided, self.pairs_total)
    }

    /// Fraction of pairs decided by the IA region.
    pub fn ia_fraction(&self) -> f64 {
        safe_div(self.ia_decided, self.pairs_total)
    }

    /// Fraction of pairs decided by the NIB region.
    pub fn nib_fraction(&self) -> f64 {
        safe_div(self.nib_decided, self.pairs_total)
    }
}

fn safe_div(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Counters over the greedy **selection** phase, in the same spirit as
/// [`PruneStats`] for the influence phases: every selector counts the work
/// it performs in deterministic units, and — like the influence counters —
/// the values are invariant under the worker-thread and shard counts
/// (asserted in `tests/selector_equivalence.rs` and
/// `tests/sharded_equivalence.rs`), so they are comparable across machines.
///
/// The unit conventions, per [`crate::select`] selector:
///
/// * **rescan** (`Selector::Greedy`) and **CELF** (`Selector::LazyGreedy`)
///   evaluate gains by walking forward-CSR `Ω_c` rows: `users_scanned`
///   counts every entry visited, `users_rescanned` the subset visited
///   *again* after a candidate's first evaluation (rounds ≥ 2 for rescan,
///   re-evaluations for CELF) — the redundant work decremental maintenance
///   eliminates.
/// * **decremental** (`Selector::Decremental`) walks each newly covered
///   user's inverted row exactly once: `gain_updates` counts the
///   per-weight-class count decrements, which over all `k` rounds are
///   bounded by `inverted_entries` (one pass over the inverted CSR);
///   `users_scanned` is the one forward pass that builds the class counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SelectionStats {
    /// Marginal gains materialized from weight-class counts (initial pass
    /// included).
    pub gain_evals: u64,
    /// Forward-CSR `Ω_c` entries visited while evaluating gains.
    pub users_scanned: u64,
    /// Forward-CSR entries visited again after a candidate's first
    /// evaluation; 0 for the decremental selector.
    pub users_rescanned: u64,
    /// Per-weight-class count decrements over the inverted CSR
    /// (decremental selector only).
    pub gain_updates: u64,
    /// Entries in the inverted user → candidate CSR (decremental only).
    pub inverted_entries: u64,
    /// Entries pushed into the selector's max-heap (lazy selectors only).
    pub heap_pushes: u64,
    /// Users covered by the selected set (`covered.count_ones()`).
    pub covered_users: u64,
}

/// Wall-clock time per algorithm phase.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct PhaseTimes {
    /// Index construction (IQuad-tree and/or R-trees).
    pub indexing: Duration,
    /// Pruning-rule application.
    pub pruning: Duration,
    /// Exact verification of undecided pairs.
    pub verification: Duration,
    /// Greedy candidate selection.
    pub selection: Duration,
}

impl PhaseTimes {
    /// Total across all phases.
    pub fn total(&self) -> Duration {
        self.indexing + self.pruning + self.verification + self.selection
    }
}

/// Everything an algorithm run reports: the solution, the pruning counters,
/// the selection counters, and per-phase timings.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    /// The selected candidate set and its influence.
    pub solution: Solution,
    /// Pruning/verification counters.
    pub stats: PruneStats,
    /// Selection-phase counters.
    pub selection: SelectionStats,
    /// Per-phase wall-clock times.
    pub times: PhaseTimes,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_are_consistent() {
        let s = PruneStats {
            pairs_total: 100,
            is_decided: 30,
            nir_decided: 50,
            ia_decided: 0,
            nib_decided: 5,
            irrelevant: 0,
            verified: 15,
            prob_evals: 123,
            blocks_bounded_out: 4,
            blocks_opened: 2,
            pf_fallbacks: 1,
        };
        assert!((s.pruned_fraction() - 0.85).abs() < 1e-12);
        assert!((s.is_fraction() - 0.30).abs() < 1e-12);
        assert!((s.nir_fraction() - 0.50).abs() < 1e-12);
        assert!((s.nib_fraction() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn zero_totals_do_not_divide_by_zero() {
        let s = PruneStats::default();
        assert_eq!(s.pruned_fraction(), 0.0);
        assert_eq!(s.is_fraction(), 0.0);
    }

    #[test]
    fn phase_times_total() {
        let t = PhaseTimes {
            indexing: Duration::from_millis(10),
            pruning: Duration::from_millis(20),
            verification: Duration::from_millis(30),
            selection: Duration::from_millis(40),
        };
        assert_eq!(t.total(), Duration::from_millis(100));
    }
}
