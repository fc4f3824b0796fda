//! Lane-width math for the vectorised verification kernel: a bounded-error
//! `e^x` fast path and an integer power helper, both in safe scalar Rust
//! that the compiler auto-vectorises when called over fixed-width chunks.
//!
//! The kernel never trusts the fast path blindly: [`EXP_NEG_EPS`] and
//! [`FAST_PF_EPS`] are *published, test-enforced* error bounds that the
//! blocked kernel folds into its two-sided suffix-product stops, so a fast
//! evaluation can only ever make a decision that the exact `exp` kernel
//! would also make (see `blocks.rs` for the bracketing argument).

use std::f64::consts::{LN_2, LOG2_E};

/// Fixed lane width of the chunked verification kernel — the workspace's
/// one lane width, shared with the lockstep Morton descent in `mc2ls-geo`.
/// The fixed-size `[f64; LANE]` scratch arrays keep the distance / PF loops
/// free of bounds checks and per-element branches.
pub use mc2ls_geo::LANE;

/// Relative error bound of [`exp_neg`] against `f64::exp` on `[-700, 0]`:
/// `|exp_neg(x) − e^x| ≤ EXP_NEG_EPS · e^x`. Enforced by a dense-grid test;
/// the observed maximum is a few times smaller (the bound keeps margin for
/// future targets with different rounding of the polynomial). The value is
/// a deliberate speed/precision point: the degree-8 polynomial behind it is
/// measurably cheaper than one more term, and the kernel's error-band
/// fallback makes *any* published bound decision-exact — a looser band only
/// risks more exact-path fallbacks, and at this width the observed fallback
/// rate is still zero on every bench preset.
pub const EXP_NEG_EPS: f64 = 1e-9;

/// Per-unit-ρ absolute error budget of the lane PF evaluations
/// (`ProbabilityFunction::prob_lanes`): every fast PF guarantees
/// `|prob_lanes(d) − prob(d)| ≤ ρ · FAST_PF_EPS`. Set 10× above
/// [`EXP_NEG_EPS`] so the budget also absorbs the rounding of the
/// surrounding sigmoid/exponential formulas; the blocked kernel treats it
/// as the half-width of the factor bracket it maintains.
pub const FAST_PF_EPS: f64 = 1e-8;

/// Below this input the fast path returns `0.0` outright: `e^x < 1e-304`
/// there, an absolute error far inside every published PF bound, and the
/// cutoff keeps the `2^k` scaling inside the normal-exponent range.
const UNDERFLOW_CUTOFF: f64 = -700.0;

/// A bounded-error `e^x` for `x ≤ 0` — the fast path behind the sigmoid and
/// exponential PF lane evaluations.
///
/// Range reduction `x = k·ln 2 + r` with `|r| ≤ ln 2 / 2` (the subtraction
/// is exact by Sterbenz' lemma since `x` and `k·ln 2` agree to within half
/// a binade), a degree-8 Horner polynomial for `e^r` (truncation below
/// `3·10⁻¹⁰` relative), and a `2^k` scale built with `f64::from_bits` — no
/// `unsafe`, no table, no libm call. The nearest integer `k` comes from the
/// shifted-add trick (adding `1.5·2⁵²` forces rounding to the unit place
/// under round-to-nearest; `f64::round` lowers to a libm call on baseline
/// x86-64 and would dominate the whole evaluation), and `k` is read back
/// *from the mantissa bits of that sum* — `to_bits(x·log₂e + SHIFT) −
/// to_bits(SHIFT)` is exactly `k` in two's complement — so the scale is
/// assembled with pure `u64` adds and shifts, no `f64 → i64` cast. That
/// matters twice over: the cast instruction (`cvttsd2si`) is the one op in
/// the dependency chain with no packed SSE2 form, and removing it together
/// with the early-out branch leaves a straight-line body the compiler can
/// if-convert and auto-vectorise across lanes. Inputs below
/// [`UNDERFLOW_CUTOFF`] are clamped for the computation and the result is
/// selected to `0.0` at the end (absolute error `≤ 1e-304`); the relative
/// error everywhere else is bounded by [`EXP_NEG_EPS`], which the
/// dense-grid test enforces.
#[inline]
pub fn exp_neg(x: f64) -> f64 {
    debug_assert!(
        x <= 0.0 || x.is_nan(),
        "exp_neg takes non-positive inputs, got {x}"
    );
    // Clamp instead of returning early: the branchless select at the end
    // restores the exact-zero contract, and the straight-line body is what
    // lets LLVM vectorise `prob_lanes` chunks.
    let xc = if x < UNDERFLOW_CUTOFF {
        UNDERFLOW_CUTOFF
    } else {
        x
    };
    // 1.5·2⁵² — large enough that adding it leaves no fractional bits (so
    // the sum rounds to an integer), small enough to keep |x·log₂e| ≤ 2⁵¹
    // exact on subtraction. Half-way cases round to even instead of away
    // from zero; either neighbour keeps |r| ≤ (ln 2 + 1 ulp) / 2.
    const SHIFT: f64 = 1.5 * 4_503_599_627_370_496.0;
    let kf = xc * LOG2_E + SHIFT;
    let k = kf - SHIFT;
    let r = xc - k * LN_2;
    // e^r as its degree-8 Taylor polynomial (Horner form). With
    // |r| ≤ ln 2 / 2 the truncation term r⁹/9! stays below 3·10⁻¹⁰
    // relative to e^r ≥ 1/√2 — inside [`EXP_NEG_EPS`] with margin, and two
    // terms cheaper than the next precision step (see the constant's doc
    // for why this speed/precision point is the right one).
    let p = 1.0
        + r * (1.0
            + r * (0.5
                + r * (1.0 / 6.0
                    + r * (1.0 / 24.0
                        + r * (1.0 / 120.0
                            + r * (1.0 / 720.0 + r * (1.0 / 5040.0 + r * (1.0 / 40320.0))))))));
    // 2^k for k ∈ [-1010, 0]: biased exponent k + 1023 ∈ [13, 1023] is
    // always a normal float, so the bit-assembled scale is exact. `kf`
    // shares SHIFT's binade (`kf = 1.5·2⁵² + k` with |k| ≤ 1010 keeps it in
    // [2⁵², 2⁵³)), so the bit patterns differ by exactly `k` in the mantissa
    // field and the wrapping u64 subtraction recovers `k` two's-complement —
    // no float→int conversion anywhere.
    let scale = f64::from_bits(
        kf.to_bits()
            .wrapping_sub(SHIFT.to_bits())
            .wrapping_add(1023)
            << 52,
    );
    let y = p * scale;
    if x < UNDERFLOW_CUTOFF {
        0.0
    } else {
        y
    }
}

/// `base^n` by binary exponentiation — the `powi` replacement on the
/// verification hot paths. Takes the exponent as `usize`, so block lengths
/// and remaining-position counts feed it without a narrowing cast, and it
/// runs an incremental running product of squarings (`O(log n)` multiplies)
/// instead of a libm call.
///
/// Like `powi`, each multiply rounds to nearest, so results can differ from
/// the true power by a few ulps in either direction — the same ambient
/// tolerance the suffix-product stops already carry (see `cumulative.rs`).
#[inline]
pub fn pow_n(base: f64, mut n: usize) -> f64 {
    let mut acc = 1.0f64;
    let mut sq = base;
    while n > 0 {
        if n & 1 == 1 {
            acc *= sq;
        }
        sq *= sq;
        n >>= 1;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp_neg_meets_its_published_bound_on_a_dense_grid() {
        // ~720k points across the full supported range, plus the reduction
        // boundaries k·ln2 ± δ where cancellation is worst.
        let mut worst = 0.0f64;
        let mut x = -700.0f64;
        while x <= 0.0 {
            let exact = x.exp();
            let fast = exp_neg(x);
            let rel = ((fast - exact) / exact).abs();
            if rel > worst {
                worst = rel;
            }
            x += 0.000_97;
        }
        for k in 0..1000 {
            for delta in [-1e-9, 0.0, 1e-9] {
                let x = -(k as f64) * LN_2 * 0.5 + delta;
                if x > 0.0 {
                    continue;
                }
                let exact = x.exp();
                let rel = ((exp_neg(x) - exact) / exact).abs();
                if rel > worst {
                    worst = rel;
                }
            }
        }
        assert!(worst <= EXP_NEG_EPS, "worst relative error {worst:e}");
    }

    #[test]
    fn exp_neg_edge_cases() {
        assert_eq!(exp_neg(0.0), 1.0);
        assert_eq!(exp_neg(-701.0), 0.0);
        assert_eq!(exp_neg(f64::NEG_INFINITY), 0.0);
        // Just above the cutoff the value is tiny but still relative-exact.
        let x = -699.9;
        let rel = ((exp_neg(x) - x.exp()) / x.exp()).abs();
        assert!(rel <= EXP_NEG_EPS);
    }

    #[test]
    fn exp_neg_is_monotone_on_a_coarse_grid() {
        let mut last = exp_neg(-700.0);
        let mut x = -700.0 + 0.125;
        while x <= 0.0 {
            let now = exp_neg(x);
            assert!(now >= last, "not monotone at {x}");
            last = now;
            x += 0.125;
        }
    }

    #[test]
    fn pow_n_small_cases_are_exact() {
        assert_eq!(pow_n(0.7, 0), 1.0);
        assert_eq!(pow_n(0.7, 1), 0.7);
        assert_eq!(pow_n(0.7, 2), 0.7 * 0.7);
        assert_eq!(pow_n(0.0, 5), 0.0);
        assert_eq!(pow_n(1.0, 1_000_000), 1.0);
    }

    #[test]
    fn pow_n_tracks_powi_within_ulps() {
        for &base in &[0.1, 0.5, 0.937, 0.999_99, 1.0] {
            for n in [3usize, 7, 16, 33, 100, 1023] {
                let a = pow_n(base, n);
                let b: f64 = base.powi(n as i32);
                if b == 0.0 {
                    assert!(a.abs() < 1e-300);
                } else {
                    assert!(((a - b) / b).abs() < 1e-12, "base {base} n {n}");
                }
            }
        }
    }
}
