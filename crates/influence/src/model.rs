//! Pluggable competition models: how a covered user's influence is split
//! between the entrant and the user's incumbent facility set.
//!
//! The paper's MC²LS objective hard-codes the *cumulative* model — a user
//! `o` already served by `|F_o| = w` competitor facilities contributes
//! exactly `1/(w+1)` to the entrant's collective influence `cinf`. The
//! per-weight-class count matrices every selector materialises carry
//! exactly that `w` statistic, so generalising the objective only requires
//! swapping the per-class weight: a [`CompetitionModel`] maps a weight
//! class `w` and a covered-user count `n` to the class's gain
//! contribution, and declares whether the induced set function is still
//! monotone submodular (greedy/CELF-safe) or must be routed to the exact
//! branch-and-bound oracle.
//!
//! Two models ship:
//!
//! * [`Model::Cumulative`] — the paper's `n/(w+1)`, kept **bit-identical**
//!   to the pre-trait code: one division per class, accumulated in
//!   ascending class order by the canonical gain walk.
//! * [`Model::Logit`] — a random-utility (logit/RUM) share. Each facility
//!   `f` in the user's choice set has utility `u_f`; the entrant's share
//!   is `exp(u_c)/Σ_f exp(u_f)`. With incumbent utilities normalised to 0
//!   and a fixed entrant advantage `γ =` `LOGIT_GAMMA` (newer sites win
//!   ties), the share over `w` incumbents is `e^γ/(e^γ + w) =
//!   1/(1 + w·e^{-γ})` — evaluated through the bounded-error
//!   [`exp_neg`] fast path (its argument `-γ` is a negative constant, so
//!   the fast path's `x ≤ 0` contract holds by construction).
//!
//! Both shipped models assign every class a fixed non-negative weight, so
//! their objectives are non-negative weighted coverage functions — monotone
//! and submodular — and all three selectors return byte-identical
//! solutions for them. A model reporting [`is_submodular`] = `false`
//! (e.g. a complementarity model with mixed-sign weights) is routed by
//! `mc2ls-core` to the exact branch-and-bound oracle instead of greedy,
//! where the marginal-gain argument no longer certifies a `1-1/e` bound.
//!
//! [`is_submodular`]: CompetitionModel::is_submodular

use crate::lanes::exp_neg;
use serde::{Deserialize, Serialize};

/// Entrant utility advantage `γ` of the logit model: the new facility's
/// systematic utility over the (normalised-to-zero) incumbents. At `γ =
/// 0.5` an uncontested user yields share 1, one incumbent leaves
/// `1/(1+e^{-0.5}) ≈ 0.622` — strictly kinder to contested users than the
/// cumulative model's `0.5`, decaying to the same `~1/w` tail.
const LOGIT_GAMMA: f64 = 0.5;

/// A competition model: per-weight-class contribution to the collective
/// influence plus the structural declaration the selector router needs.
///
/// The contract mirrors the canonical gain walk in `mc2ls-core`: a gain is
/// `Σ_w class_contribution(w, n_w)` accumulated in ascending `w` with zero
/// counts skipped. Implementations must be pure functions of `(w, n)` —
/// the bit-identity of solutions across selectors, thread counts, and
/// shard layouts rests on every code path computing the same contribution
/// from the same counts.
pub trait CompetitionModel {
    /// Stable human-readable name (CLI value, report label).
    fn name(&self) -> &'static str;

    /// Gain contribution of `n` covered users in weight class `w` (each
    /// already served by `w` competitor facilities).
    ///
    /// Implementations should compute the class total in one expression
    /// (e.g. `n as f64 / denominator(w)`), not as `n` summed singletons:
    /// the canonical gain accumulates one term per class, and a different
    /// association would change low-order bits.
    fn class_contribution(&self, w: usize, n: u32) -> f64;

    /// Whether the induced objective is monotone submodular. `true`
    /// certifies greedy/CELF/decremental selection (all byte-identical);
    /// `false` routes selection to the exact branch-and-bound oracle.
    fn is_submodular(&self) -> bool;
}

/// The shipped competition models, as carried by `Problem`, the `.mc2s`
/// META section, and the serve wire protocol. Serialises as its
/// [`name`](CompetitionModel::name) string.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum Model {
    /// The paper's cumulative-probability split: `n/(w+1)` per class.
    #[default]
    Cumulative,
    /// Logit/RUM share with entrant advantage `LOGIT_GAMMA` (0.5):
    /// `n/(1 + w·e^{-γ})` per class.
    Logit,
}

impl Model {
    /// Parses a CLI `--model` value. Accepts the [`name`] strings.
    ///
    /// [`name`]: CompetitionModel::name
    pub fn parse(s: &str) -> Option<Model> {
        match s {
            "cumulative" => Some(Model::Cumulative),
            "logit" => Some(Model::Logit),
            _ => None,
        }
    }

    /// Stable wire id for the `.mc2s` META section (u32, append-only).
    pub fn id(&self) -> u32 {
        match self {
            Model::Cumulative => 0,
            Model::Logit => 1,
        }
    }

    /// Inverse of [`Model::id`]; `None` for ids minted by a newer writer.
    pub fn from_id(id: u32) -> Option<Model> {
        match id {
            0 => Some(Model::Cumulative),
            1 => Some(Model::Logit),
            _ => None,
        }
    }

    /// One-byte discriminant for result-cache keys.
    pub fn tag(&self) -> u8 {
        match self {
            Model::Cumulative => 0,
            Model::Logit => 1,
        }
    }
}

impl std::fmt::Display for Model {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl CompetitionModel for Model {
    fn name(&self) -> &'static str {
        match self {
            Model::Cumulative => "cumulative",
            Model::Logit => "logit",
        }
    }

    fn class_contribution(&self, w: usize, n: u32) -> f64 {
        match self {
            // The pre-trait expression, verbatim: one division per class.
            Model::Cumulative => n as f64 / (w as f64 + 1.0),
            // Logit share 1/(1 + w·e^{-γ}) per user, n users per class.
            Model::Logit => n as f64 / (1.0 + w as f64 * exp_neg(-LOGIT_GAMMA)),
        }
    }

    fn is_submodular(&self) -> bool {
        // Fixed non-negative per-class weights ⇒ weighted coverage ⇒
        // monotone submodular, for both shipped models.
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cumulative_matches_the_paper_weights() {
        let m = Model::Cumulative;
        assert_eq!(m.class_contribution(0, 1), 1.0);
        assert_eq!(m.class_contribution(1, 1), 0.5);
        assert_eq!(m.class_contribution(3, 2), 0.5);
        // Bit-identical to the canonical expression for arbitrary counts.
        for w in 0..64usize {
            for n in [0u32, 1, 2, 7, 1000] {
                let expected = n as f64 / (w as f64 + 1.0);
                assert_eq!(m.class_contribution(w, n).to_bits(), expected.to_bits());
            }
        }
    }

    #[test]
    fn logit_share_is_a_rum_share() {
        let m = Model::Logit;
        // Uncontested user: full share, exactly 1.
        assert_eq!(m.class_contribution(0, 1), 1.0);
        // One incumbent: e^γ/(e^γ+1), within the fast path's error band.
        let exact = LOGIT_GAMMA.exp() / (LOGIT_GAMMA.exp() + 1.0);
        let got = m.class_contribution(1, 1);
        assert!((got - exact).abs() < 1e-5, "got {got}, exact {exact}");
        // Strictly decreasing in w, exactly n-linear (one shared
        // denominator per class), always in (0, 1] per user.
        let mut prev = f64::INFINITY;
        for w in 0..32usize {
            let share = m.class_contribution(w, 1);
            assert!(share > 0.0 && share <= 1.0);
            assert!(share < prev);
            let denom = 1.0 + w as f64 * exp_neg(-LOGIT_GAMMA);
            assert_eq!(
                m.class_contribution(w, 3).to_bits(),
                (3.0f64 / denom).to_bits()
            );
            prev = share;
        }
        // Logit favours contested users relative to cumulative: the RUM
        // entrant keeps more than 1/(w+1) whenever γ > 0.
        let cumulative = Model::Cumulative;
        for w in 1..16usize {
            assert!(m.class_contribution(w, 1) > cumulative.class_contribution(w, 1));
        }
    }

    #[test]
    fn ids_tags_names_round_trip() {
        for model in [Model::Cumulative, Model::Logit] {
            assert_eq!(Model::from_id(model.id()), Some(model));
            assert_eq!(Model::parse(model.name()), Some(model));
            assert_eq!(model.to_string(), model.name());
        }
        assert_eq!(Model::from_id(999), None);
        assert_eq!(Model::parse("nested-logit"), None);
        assert_eq!(Model::default(), Model::Cumulative);
        assert_ne!(Model::Cumulative.tag(), Model::Logit.tag());
    }

    #[test]
    fn models_serialise_as_name_strings() {
        use serde::{Deserialize as _, Serialize as _};
        let v = Model::Logit.to_value();
        assert_eq!(v.as_str(), Some("Logit"));
        assert_eq!(Model::from_value(&v).ok(), Some(Model::Logit));
        let c = Model::Cumulative.to_value();
        assert_eq!(Model::from_value(&c).ok(), Some(Model::Cumulative));
    }

    #[test]
    fn shipped_models_declare_submodularity() {
        assert!(Model::Cumulative.is_submodular());
        assert!(Model::Logit.is_submodular());
    }
}
