//! Cumulative influence probability (Definition 1) and the influence
//! predicate (Definition 2) with PINOCCHIO's early-stopping evaluation.

use crate::ProbabilityFunction;
use mc2ls_geo::Point;
use std::cell::Cell;

/// Counts position-probability evaluations.
///
/// The paper's Fig. 15(b)/16(b) report "verification computation cost" — the
/// number of per-position probability evaluations the verification phase
/// performs. Threading a `&mut u64` through every call site would infect
/// read-only query APIs, so the counter is interior-mutable (a `Cell`;
/// `!Sync` by construction). The parallel pipeline gives each worker its
/// own and sums them at join — no cache-line ping-pong, and the total is
/// order-independent, keeping reported statistics identical to a serial
/// run.
#[derive(Debug, Default)]
pub struct EvalCounter(Cell<u64>);

impl EvalCounter {
    /// A fresh zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current number of evaluated positions.
    pub fn get(&self) -> u64 {
        self.0.get()
    }

    /// Adds `n` evaluations.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.set(self.0.get() + n);
    }

    /// Resets to zero.
    pub fn reset(&self) {
        self.0.set(0);
    }
}

/// `Pr_v(o) = 1 − Π_{i=1..r} (1 − PF(d(v, pᵢ)))` — Definition 1, evaluated
/// in full (no early stopping). Used by tests and by callers that need the
/// exact probability rather than the threshold decision.
///
/// # Examples
/// ```
/// use mc2ls_geo::Point;
/// use mc2ls_influence::{cumulative_probability, Sigmoid};
///
/// let pf = Sigmoid::paper_default(); // PF(0) = 0.5
/// let site = Point::new(0.0, 0.0);
/// // Two visits at the site: Pr = 1 − 0.5² = 0.75.
/// let pr = cumulative_probability(&pf, &site, &[site, site]);
/// assert!((pr - 0.75).abs() < 1e-12);
/// ```
pub fn cumulative_probability<PF: ProbabilityFunction + ?Sized>(
    pf: &PF,
    v: &Point,
    positions: &[Point],
) -> f64 {
    let mut not_influenced = 1.0f64;
    for p in positions {
        not_influenced *= 1.0 - pf.prob(v.distance(p));
    }
    1.0 - not_influenced
}

/// Definition 2 decision `Pr_v(o) ≥ τ` with two-sided early stopping:
///
/// * **success stop** (Algorithm 2, line 14): once the partial product
///   `Π(1 − PF(dᵢ)) ≤ 1 − τ`, the user is influenced regardless of the
///   remaining positions (probabilities only push the product down).
/// * **failure stop**: if even granting every remaining position the maximal
///   single-position probability `PF(0)` cannot push the product to
///   `1 − τ`, the user cannot be influenced.
///
/// Both stops are exact — they never change the decision — which the
/// property tests verify against [`cumulative_probability`].
pub fn influences<PF: ProbabilityFunction + ?Sized>(
    pf: &PF,
    v: &Point,
    positions: &[Point],
    tau: f64,
) -> bool {
    influences_impl(pf, v, positions, tau, None)
}

/// [`influences`] that also counts how many positions were actually
/// evaluated before a decision (for the verification-cost experiments).
/// Parallel callers give each worker its own [`EvalCounter`].
pub fn influences_counted<PF: ProbabilityFunction + ?Sized>(
    pf: &PF,
    v: &Point,
    positions: &[Point],
    tau: f64,
    counter: &EvalCounter,
) -> bool {
    influences_impl(pf, v, positions, tau, Some(counter))
}

fn influences_impl<PF: ProbabilityFunction + ?Sized>(
    pf: &PF,
    v: &Point,
    positions: &[Point],
    tau: f64,
    counter: Option<&EvalCounter>,
) -> bool {
    debug_assert!((0.0..=1.0).contains(&tau));
    let target = 1.0 - tau;
    let max_keep = 1.0 - pf.max_probability(); // smallest per-position factor
    let mut product = 1.0f64;
    let r = positions.len();
    // Failure-stop budget `max_keep^remaining`, maintained as a running
    // product: one binary exponentiation up front, then one multiply per
    // iteration. Division
    // by `max_keep` would be unsound (rounding could inflate the budget past
    // its true value and fire a wrong reject), so the tail is *multiplied* by
    // `1/max_keep` and clamped to 1.0 — the mathematical ceiling for any
    // `max_keep ≤ 1` power. An under-estimated tail merely delays the stop
    // (the final `product <= target` is still exact); it can never flip a
    // decision. `max_keep == 0` (PF(0) = 1) degrades the same way: tail 0
    // suppresses the stop and the loop decides exactly.
    let mut tail = if r > 1 {
        crate::lanes::pow_n(max_keep, r - 1)
    } else {
        1.0
    };
    let inv_keep = if max_keep > 0.0 { 1.0 / max_keep } else { 0.0 };
    for p in positions {
        if let Some(c) = counter {
            c.add(1);
        }
        product *= 1.0 - pf.prob(v.distance(p));
        if product <= target {
            return true; // success stop
        }
        // Even max influence at every remaining position cannot reach τ.
        if product * tail > target {
            return false; // failure stop
        }
        tail = (tail * inv_keep).min(1.0);
    }
    product <= target
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sigmoid;

    /// Example 2 from the paper: with Pr(p₁₁)=0.6 and Pr(p₁₂)=0.3 the
    /// cumulative probability is 0.72. We reproduce the arithmetic with a
    /// bespoke PF that returns those probabilities at the given distances.
    struct TablePf;
    impl ProbabilityFunction for TablePf {
        fn prob(&self, d: f64) -> f64 {
            if d < 1.5 {
                0.6
            } else if d < 2.5 {
                0.3
            } else {
                0.0
            }
        }
        fn inverse(&self, _p: f64) -> Option<f64> {
            None
        }
    }

    #[test]
    fn paper_example2_cumulative_value() {
        let v = Point::ORIGIN;
        let positions = [Point::new(1.0, 0.0), Point::new(2.0, 0.0)];
        let pr = cumulative_probability(&TablePf, &v, &positions);
        assert!((pr - 0.72).abs() < 1e-12);
        assert!(influences(&TablePf, &v, &positions, 0.7));
        assert!(!influences(&TablePf, &v, &positions, 0.73));
    }

    #[test]
    fn influence_decision_matches_full_evaluation() {
        let pf = Sigmoid::paper_default();
        let v = Point::new(0.0, 0.0);
        let positions: Vec<Point> = (0..20)
            .map(|i| Point::new(0.1 * i as f64, 0.05 * i as f64))
            .collect();
        for tau in [0.1, 0.3, 0.5, 0.7, 0.9] {
            let exact = cumulative_probability(&pf, &v, &positions) >= tau;
            assert_eq!(influences(&pf, &v, &positions, tau), exact, "tau={tau}");
        }
    }

    #[test]
    fn success_stop_counts_fewer_evaluations() {
        let pf = Sigmoid::paper_default();
        let v = Point::ORIGIN;
        // Many positions at distance 0: product shrinks by 0.5 per step, so
        // τ=0.9 is decided after ~4 positions.
        let positions = vec![Point::ORIGIN; 50];
        let counter = EvalCounter::new();
        assert!(influences_counted(&pf, &v, &positions, 0.9, &counter));
        assert!(counter.get() < 10, "evaluated {}", counter.get());
    }

    #[test]
    fn failure_stop_counts_fewer_evaluations() {
        let pf = Sigmoid::paper_default();
        let v = Point::ORIGIN;
        // 3 far positions then many far positions: once the remaining-budget
        // bound proves failure, evaluation must halt.
        let positions = vec![Point::new(50.0, 0.0); 100];
        let counter = EvalCounter::new();
        assert!(!influences_counted(&pf, &v, &positions, 0.9, &counter));
        assert!(counter.get() < 100, "evaluated {}", counter.get());
    }

    #[test]
    fn empty_position_product_never_influences_positive_tau() {
        let pf = Sigmoid::paper_default();
        assert!(!influences(&pf, &Point::ORIGIN, &[], 0.1));
        assert_eq!(cumulative_probability(&pf, &Point::ORIGIN, &[]), 0.0);
    }

    #[test]
    fn counter_accumulates_and_resets() {
        let c = EvalCounter::new();
        c.add(3);
        c.add(4);
        assert_eq!(c.get(), 7);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn more_positions_never_decrease_probability() {
        // Lemma 4's algebraic core: adding positions can only increase Pr.
        let pf = Sigmoid::paper_default();
        let v = Point::ORIGIN;
        let mut positions = vec![Point::new(1.0, 0.0)];
        let mut last = cumulative_probability(&pf, &v, &positions);
        for i in 0..10 {
            positions.push(Point::new(2.0 + i as f64, 1.0));
            let now = cumulative_probability(&pf, &v, &positions);
            assert!(now >= last - 1e-15);
            last = now;
        }
    }
}
