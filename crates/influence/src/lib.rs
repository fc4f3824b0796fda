//! The probability-based influence model over moving users (paper §III-A).
//!
//! This crate is the substrate every MC²LS algorithm builds on:
//!
//! * [`ProbabilityFunction`] — the distance-based utility `PF(d)` that maps
//!   the distance between an abstract facility and one user position to an
//!   influence probability. The paper's experiments use the sigmoid
//!   `PF(d) = ρ/(1 + e^d)` ([`Sigmoid`]); [`Exponential`] is a second
//!   fast-path override the kernel tests hold to the same decisions.
//! * [`cumulative_probability`] / [`influences`] — Definitions 1–2: a user is
//!   influenced when `Pr_v(o) = 1 − Π(1 − PF(d(v, pᵢ))) ≥ τ`, with the
//!   early-stopping evaluation from PINOCCHIO.
//! * [`min_max_radius`] (`mMR(τ,r)`), [`non_influence_radius`] (`NIR`) and
//!   [`eta`] (`η(τ, PF, d̂)`, Definition 8) — the radius/count thresholds
//!   behind the IA, NIB, IS and NIR pruning rules.
//! * [`MovingUser`] — a multi-position user with its cached MBR.
//! * [`PositionBlocks`] / [`influences_blocked`] — the blocked SoA
//!   verification substrate: Morton-sorted fixed-size position blocks
//!   with per-block MBR distance bounds that decide most users without
//!   touching their positions, and a [`LANE`]-wide chunked walk whose
//!   fast-PF error band is folded into the two-sided stops (same
//!   decisions, far fewer and far cheaper evaluations). Its exact-`exp`
//!   twin [`influences_blocked_exact`] is the fallback inside the error
//!   band and the oracle the tests hold it to. `block_size` is self-tuned
//!   per dataset by [`auto_block_size`] when configured as
//!   [`BLOCK_SIZE_AUTO`].
//! * [`lanes`] — the bounded-error `exp` fast path ([`exp_neg`]) and its
//!   published error constants.
//! * [`CompetitionModel`] / [`Model`] — pluggable competition models: how
//!   a covered user's influence splits between the entrant and the user's
//!   incumbent facilities. The paper's cumulative `1/(|F_o|+1)` split is
//!   the bit-identical default; a logit/RUM share rides the [`exp_neg`]
//!   fast path. Non-submodular models are routed by `mc2ls-core` to exact
//!   branch-and-bound selection.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod blocks;
mod cumulative;
pub mod lanes;
mod model;
mod pf;
mod radius;
mod user;

pub use blocks::{
    auto_block_size, influences_blocked, influences_blocked_counted, influences_blocked_exact,
    influences_blocked_exact_counted, resolve_block_size, BlockCounters, BlockScratch,
    PositionBlocks, BLOCK_SIZE_AUTO, BLOCK_SIZE_PLAIN, DEFAULT_BLOCK_SIZE,
};
pub use cumulative::{cumulative_probability, influences, influences_counted, EvalCounter};
pub use lanes::{exp_neg, pow_n, FAST_PF_EPS, LANE};
pub use model::{CompetitionModel, Model};
pub use pf::{Exponential, ProbabilityFunction, Sigmoid};
pub use radius::{eta, eta_count, min_max_radius, non_influence_radius};
pub use user::MovingUser;
