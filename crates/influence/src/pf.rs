//! Distance-based probability (utility) functions `PF(d)`.
//!
//! A `PF` maps the distance (km) between an abstract facility and one user
//! position to the probability that the facility influences the user at that
//! position (paper §III-A: `Pr_v(pᵢ) = PF(d(v, pᵢ))`). Every `PF` is
//! monotonically non-increasing in distance; pruning correctness depends on
//! exactly that property, so it is asserted by the property tests.

use crate::lanes::{exp_neg, FAST_PF_EPS};
use serde::{Deserialize, Serialize};

/// A monotonically non-increasing distance→probability mapping.
///
/// Implementations must guarantee, for all `0 ≤ d₁ ≤ d₂`:
/// `prob(d₁) ≥ prob(d₂)` and `0 ≤ prob(d) ≤ 1`.
pub trait ProbabilityFunction: Send + Sync {
    /// Influence probability of one position at distance `d` km (`d ≥ 0`).
    fn prob(&self, d: f64) -> f64;

    /// Evaluates [`prob`](Self::prob) over a lane of distances, writing into
    /// `out` (`out.len() == d.len()`, at most [`LANE`](crate::LANE) wide in
    /// the kernel). The default is the exact per-element evaluation; fast
    /// overrides may deviate by at most [`lane_error_bound`](Self::lane_error_bound)
    /// per element. The branch-free loop shape is what lets the compiler
    /// auto-vectorise the verification hot path.
    fn prob_lanes(&self, d: &[f64], out: &mut [f64]) {
        for (o, &x) in out.iter_mut().zip(d) {
            *o = self.prob(x);
        }
    }

    /// Absolute per-element error bound of [`prob_lanes`](Self::prob_lanes)
    /// against [`prob`](Self::prob); `0.0` means the lane path is exact.
    /// The blocked kernel brackets every keep factor by this half-width and
    /// consults the exact path only when a τ decision falls inside the band.
    fn lane_error_bound(&self) -> f64 {
        0.0
    }

    /// The largest achievable single-position probability, `prob(0)`.
    fn max_probability(&self) -> f64 {
        self.prob(0.0)
    }

    /// The largest distance `d` with `prob(d) ≥ p`, i.e. the generalised
    /// inverse `PF⁻¹(p)`.
    ///
    /// Returns `None` when `p > prob(0)` (no distance achieves `p`) or when
    /// `p ≤ 0` would make every distance qualify (callers never need an
    /// unbounded radius; they treat `None` from `p ≤ 0` as "cannot bound").
    fn inverse(&self, p: f64) -> Option<f64>;
}

/// The paper's experimental utility function `PF(d) = ρ / (1 + e^d)`
/// (§VII-A, following PINOCCHIO [13]), with `ρ ∈ (0, 1]` the maximum
/// probability parameter (the paper sets `ρ = 1`).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Sigmoid {
    /// Maximum probability parameter `ρ`.
    pub rho: f64,
}

impl Sigmoid {
    /// Creates the sigmoid utility with parameter `ρ ∈ (0, 1]`.
    pub fn new(rho: f64) -> Self {
        assert!(rho > 0.0 && rho <= 1.0, "rho must be in (0, 1], got {rho}");
        Sigmoid { rho }
    }

    /// The paper's default (`ρ = 1`).
    pub fn paper_default() -> Self {
        Sigmoid::new(1.0)
    }
}

impl ProbabilityFunction for Sigmoid {
    #[inline]
    fn prob(&self, d: f64) -> f64 {
        debug_assert!(d >= 0.0);
        self.rho / (1.0 + d.exp())
    }

    // ρ/(1 + e^d) = ρ·t/(1 + t) with t = e^{−d}, evaluated through the
    // bounded-error fast path. With t̃ = t(1 ± ε) and dp/dt = ρ/(1+t)² ≤ ρ,
    // the probability error is ≤ ρ·ε·t/(1+t)² ≤ ρ·ε/4 — comfortably inside
    // the published ρ·FAST_PF_EPS budget together with formula rounding.
    //
    // `#[inline]` is load-bearing: the kernel lives in a downstream
    // monomorphisation, and only an inlined body lets the compiler see the
    // constant `LANE` trip count of full chunks and vectorise the loop
    // (a cross-crate call also costs more than the polynomial itself).
    #[inline]
    fn prob_lanes(&self, d: &[f64], out: &mut [f64]) {
        for (o, &x) in out.iter_mut().zip(d) {
            let t = exp_neg(-x);
            *o = self.rho * t / (1.0 + t);
        }
    }

    fn lane_error_bound(&self) -> f64 {
        self.rho * FAST_PF_EPS
    }

    fn inverse(&self, p: f64) -> Option<f64> {
        if p <= 0.0 || p > self.max_probability() {
            return None;
        }
        // p = rho / (1 + e^d)  =>  d = ln(rho/p − 1); clamp the boundary
        // p == rho/2 (d = 0) against rounding.
        Some((self.rho / p - 1.0).ln().max(0.0))
    }
}

/// Exponential decay `PF(d) = ρ·e^{−d/σ}` — a common alternative influence
/// preference (steeper near the facility than the sigmoid).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
// lint:allow(unread-pub): influence/tests/properties.rs holds the lane kernel to the exact walk on this second fast-PF override
pub struct Exponential {
    /// Maximum probability at distance zero.
    pub rho: f64,
    /// Decay length-scale in km.
    pub sigma: f64,
}

impl Exponential {
    /// Creates an exponential-decay utility.
    pub fn new(rho: f64, sigma: f64) -> Self {
        assert!(rho > 0.0 && rho <= 1.0, "rho must be in (0, 1], got {rho}");
        assert!(sigma > 0.0, "sigma must be positive, got {sigma}");
        Exponential { rho, sigma }
    }
}

impl ProbabilityFunction for Exponential {
    #[inline]
    fn prob(&self, d: f64) -> f64 {
        debug_assert!(d >= 0.0);
        self.rho * (-d / self.sigma).exp()
    }

    // ρ·e^{−d/σ} through the fast path: with ẽ = e^{−d/σ}(1 ± ε) the
    // probability error is ≤ ρ·ε·e^{−d/σ} ≤ ρ·ε, inside ρ·FAST_PF_EPS.
    // `#[inline]` for the same reason as the sigmoid override: the constant
    // trip count of full chunks is only visible to the vectoriser inline.
    #[inline]
    fn prob_lanes(&self, d: &[f64], out: &mut [f64]) {
        for (o, &x) in out.iter_mut().zip(d) {
            *o = self.rho * exp_neg(-x / self.sigma);
        }
    }

    fn lane_error_bound(&self) -> f64 {
        self.rho * FAST_PF_EPS
    }

    fn inverse(&self, p: f64) -> Option<f64> {
        if p <= 0.0 || p > self.rho {
            return None;
        }
        Some((-(p / self.rho).ln() * self.sigma).max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_matches_paper_values() {
        let pf = Sigmoid::paper_default();
        assert!((pf.prob(0.0) - 0.5).abs() < 1e-12);
        // PF is strictly decreasing.
        assert!(pf.prob(0.5) > pf.prob(1.0));
        assert!(pf.prob(10.0) < 1e-4);
    }

    #[test]
    fn sigmoid_inverse_roundtrip() {
        let pf = Sigmoid::new(0.8);
        for p in [0.05, 0.1, 0.2, 0.39] {
            let d = pf.inverse(p).unwrap();
            assert!((pf.prob(d) - p).abs() < 1e-9, "p={p}");
        }
    }

    #[test]
    fn sigmoid_inverse_rejects_unreachable() {
        let pf = Sigmoid::paper_default();
        assert!(pf.inverse(0.6).is_none()); // > PF(0) = 0.5
        assert!(pf.inverse(0.0).is_none());
        assert!(pf.inverse(-0.1).is_none());
        assert!((pf.inverse(0.5).unwrap() - 0.0).abs() < 1e-9);
    }

    #[test]
    fn exponential_inverse_roundtrip() {
        let pf = Exponential::new(1.0, 2.0);
        for p in [0.1, 0.5, 0.9] {
            let d = pf.inverse(p).unwrap();
            assert!((pf.prob(d) - p).abs() < 1e-9);
        }
        assert!(pf.inverse(1.5).is_none());
    }

    #[test]
    #[should_panic(expected = "rho must be in (0, 1]")]
    fn sigmoid_rejects_bad_rho() {
        Sigmoid::new(1.5);
    }

    fn lane_grid() -> Vec<f64> {
        let mut d = Vec::new();
        let mut x = 0.0f64;
        while x <= 60.0 {
            d.push(x);
            x += 0.013;
        }
        d.extend([0.0, 1e-9, 700.0, 710.0, 1e6]);
        d
    }

    #[test]
    fn sigmoid_lanes_stay_inside_their_error_bound() {
        for pf in [Sigmoid::paper_default(), Sigmoid::new(0.4)] {
            let d = lane_grid();
            let mut out = vec![0.0; d.len()];
            pf.prob_lanes(&d, &mut out);
            let bound = pf.lane_error_bound();
            assert!(bound > 0.0);
            for (&x, &fast) in d.iter().zip(&out) {
                let exact = pf.prob(x);
                assert!(
                    (fast - exact).abs() <= bound,
                    "d={x} fast={fast} exact={exact}"
                );
            }
        }
    }

    #[test]
    fn exponential_lanes_stay_inside_their_error_bound() {
        for pf in [Exponential::new(1.0, 2.0), Exponential::new(0.6, 0.5)] {
            let d = lane_grid();
            let mut out = vec![0.0; d.len()];
            pf.prob_lanes(&d, &mut out);
            let bound = pf.lane_error_bound();
            for (&x, &fast) in d.iter().zip(&out) {
                let exact = pf.prob(x);
                assert!(
                    (fast - exact).abs() <= bound,
                    "d={x} fast={fast} exact={exact}"
                );
            }
        }
    }

    /// Linear decay `ρ·max(0, 1 − d/R)` at ρ = 1, R = 2: a PF that keeps
    /// the trait's default lane evaluation.
    struct Linear;

    impl ProbabilityFunction for Linear {
        fn prob(&self, d: f64) -> f64 {
            (1.0 - d / 2.0).max(0.0)
        }

        fn inverse(&self, p: f64) -> Option<f64> {
            (p > 0.0 && p <= 1.0).then(|| ((1.0 - p) * 2.0).max(0.0))
        }
    }

    #[test]
    fn default_lane_path_is_exact() {
        let pf = Linear;
        assert_eq!(pf.lane_error_bound(), 0.0);
        let d = [0.0, 0.5, 1.0, 1.9, 2.5, 100.0];
        let mut out = [0.0; 6];
        pf.prob_lanes(&d, &mut out);
        for (&x, &fast) in d.iter().zip(&out) {
            assert_eq!(fast.to_bits(), pf.prob(x).to_bits());
        }
    }
}
