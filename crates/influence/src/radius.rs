//! Radius and position-count thresholds derived from the influence model:
//! `mMR(τ, r)`, `NIR`, and `η(τ, PF, d̂)` (paper §IV-B and §V-A).

use crate::ProbabilityFunction;

/// `minMaxRadius(τ, r) = PF⁻¹(1 − (1 − τ)^{1/r})` (paper §IV-B).
///
/// * **Corollary 1**: if all `r` positions of a user lie within the circle
///   `φ(v, mMR(τ,r))`, then `v` necessarily influences the user.
/// * **Corollary 2**: if none do, `v` cannot influence the user.
///
/// Returns `None` when the required per-position probability
/// `1 − (1−τ)^{1/r}` exceeds `PF(0)` — i.e. a user with only `r` positions
/// can **never** reach `τ`, no matter how close; callers must treat such
/// users as uninfluenceable rather than skipping the pruning rule.
pub fn min_max_radius<PF: ProbabilityFunction + ?Sized>(
    pf: &PF,
    tau: f64,
    r: usize,
) -> Option<f64> {
    assert!(tau > 0.0 && tau < 1.0, "tau must be in (0, 1), got {tau}");
    if r == 0 {
        return None;
    }
    let per_position = 1.0 - (1.0 - tau).powf(1.0 / r as f64);
    pf.inverse(per_position)
}

/// `NIR = mMR(τ, r_max)` — the Non-influence Radius (paper §V-B): the upper
/// bound of every user's `mMR`, used by the NIR rounded-square rule
/// (Lemma 3). `None` when even `r_max` positions at distance 0 cannot reach
/// `τ`, in which case **no** user in the dataset can ever be influenced.
pub fn non_influence_radius<PF: ProbabilityFunction + ?Sized>(
    pf: &PF,
    tau: f64,
    r_max: usize,
) -> Option<f64> {
    min_max_radius(pf, tau, r_max)
}

/// `η(τ, PF, d̂) = 1 / log_{1−τ}(1 − PF(d̂))` — the position-count threshold
/// (Definition 8): if `⌈η⌉` positions of a user lie within distance `d̂` of
/// an abstract facility, the facility necessarily influences the user
/// (Lemma 1).
///
/// Returns `+∞` when `PF(d̂) = 0` (positions at that distance contribute
/// nothing, so no count suffices); callers treat an infinite threshold as
/// "the IS rule cannot fire at this scale".
pub fn eta<PF: ProbabilityFunction + ?Sized>(pf: &PF, tau: f64, d_hat: f64) -> f64 {
    assert!(tau > 0.0 && tau < 1.0, "tau must be in (0, 1), got {tau}");
    assert!(d_hat >= 0.0, "distance must be non-negative, got {d_hat}");
    let p = pf.prob(d_hat);
    if p <= 0.0 {
        return f64::INFINITY;
    }
    if p >= 1.0 {
        // A certain hit at one position influences immediately.
        return 1.0;
    }
    // 1/log_{1-τ}(1-p) = ln(1-τ)/ln(1-p); both logs are negative.
    (1.0 - tau).ln() / (1.0 - p).ln()
}

/// `⌈η(τ, PF, d̂)⌉` as a usable count; `None` when `η` is infinite (the IS
/// rule can never fire for this `d̂`).
pub fn eta_count<PF: ProbabilityFunction + ?Sized>(pf: &PF, tau: f64, d_hat: f64) -> Option<usize> {
    let e = eta(pf, tau, d_hat);
    if !e.is_finite() {
        return None;
    }
    // ceil, with a tiny slack so that exact-integer η does not round up due
    // to floating error; η ≥ something like 1e0..1e4 in practice.
    Some((e - 1e-9).ceil().max(1.0) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{cumulative_probability, Sigmoid};
    use mc2ls_geo::Point;

    #[test]
    fn mmr_boundary_probability_is_exact() {
        let pf = Sigmoid::paper_default();
        let tau = 0.7;
        for r in [2usize, 3, 5, 10] {
            let mmr = min_max_radius(&pf, tau, r).unwrap();
            // r positions exactly at distance mMR yield exactly τ.
            let positions = vec![Point::new(mmr, 0.0); r];
            let pr = cumulative_probability(&pf, &Point::ORIGIN, &positions);
            assert!((pr - tau).abs() < 1e-9, "r={r}: pr={pr}");
        }
    }

    #[test]
    fn mmr_none_when_unreachable() {
        let pf = Sigmoid::paper_default(); // PF(0) = 0.5
                                           // τ=0.7 with r=1 needs per-position 0.7 > 0.5: unreachable.
        assert!(min_max_radius(&pf, 0.7, 1).is_none());
        // r=2 needs 1−0.3^0.5 ≈ 0.452 < 0.5: reachable.
        assert!(min_max_radius(&pf, 0.7, 2).is_some());
        assert!(min_max_radius(&pf, 0.7, 0).is_none());
    }

    #[test]
    fn mmr_monotone_in_r() {
        let pf = Sigmoid::paper_default();
        let mut last = 0.0;
        for r in 2..30 {
            let mmr = min_max_radius(&pf, 0.7, r).unwrap();
            assert!(mmr >= last, "mMR must grow with r");
            last = mmr;
        }
    }

    #[test]
    fn nir_upper_bounds_every_mmr() {
        let pf = Sigmoid::paper_default();
        let r_max = 25;
        let nir = non_influence_radius(&pf, 0.5, r_max).unwrap();
        for r in 1..=r_max {
            if let Some(mmr) = min_max_radius(&pf, 0.5, r) {
                assert!(mmr <= nir + 1e-12);
            }
        }
    }

    #[test]
    fn nir_decreases_with_tau() {
        // The paper (Fig. 7 discussion): NIR declines as τ increases.
        let pf = Sigmoid::paper_default();
        let mut last = f64::INFINITY;
        for tau in [0.1, 0.3, 0.5, 0.7, 0.9] {
            let nir = non_influence_radius(&pf, tau, 30).unwrap();
            assert!(nir < last, "tau={tau}");
            last = nir;
        }
    }

    #[test]
    fn eta_guarantees_influence() {
        // Lemma 1: ⌈η⌉ positions within d̂ imply influence.
        let pf = Sigmoid::paper_default();
        for tau in [0.1, 0.3, 0.5, 0.7, 0.9] {
            for d_hat in [0.5, 1.0, 2.0] {
                let n = eta_count(&pf, tau, d_hat).unwrap();
                let positions = vec![Point::new(d_hat, 0.0); n];
                let pr = cumulative_probability(&pf, &Point::ORIGIN, &positions);
                assert!(pr >= tau - 1e-9, "tau={tau} d={d_hat} n={n}: pr={pr}");
            }
        }
    }

    #[test]
    fn eta_is_tight() {
        // One position fewer than ⌈η⌉ at exactly distance d̂ must NOT be
        // enough (when η is not an exact integer).
        let pf = Sigmoid::paper_default();
        let (tau, d_hat) = (0.7, 2.0);
        let e = eta(&pf, tau, d_hat);
        let n = eta_count(&pf, tau, d_hat).unwrap();
        if (e - e.round()).abs() > 1e-6 {
            let positions = vec![Point::new(d_hat, 0.0); n - 1];
            let pr = cumulative_probability(&pf, &Point::ORIGIN, &positions);
            assert!(pr < tau, "η should be tight: pr={pr} tau={tau}");
        }
    }

    #[test]
    fn eta_grows_with_distance_and_tau() {
        // Paper §VII-B: η grows with τ (for fixed d̂); it also grows with d̂.
        let pf = Sigmoid::paper_default();
        assert!(eta(&pf, 0.9, 2.0) > eta(&pf, 0.1, 2.0));
        assert!(eta(&pf, 0.7, 2.5) > eta(&pf, 0.7, 1.0));
    }

    #[test]
    fn eta_infinite_beyond_cutoff() {
        // e^{-2000} underflows to 0: no count of positions that far out
        // reaches τ.
        let pf = crate::Exponential::new(1.0, 1.0);
        assert!(eta(&pf, 0.5, 2000.0).is_infinite());
        assert!(eta_count(&pf, 0.5, 2000.0).is_none());
        assert!(eta_count(&pf, 0.5, 0.5).is_some());
    }

    #[test]
    fn eta_inverse_relation_with_mmr() {
        // Equation (3): plugging d̂ = mMR(τ, r) into η returns exactly r.
        let pf = Sigmoid::paper_default();
        for r in [2usize, 4, 8, 16] {
            let mmr = min_max_radius(&pf, 0.6, r).unwrap();
            if mmr > 0.0 {
                let e = eta(&pf, 0.6, mmr);
                assert!((e - r as f64).abs() < 1e-6, "r={r} eta={e}");
            }
        }
    }
}
