//! Dataset substrate for the MC²LS reproduction.
//!
//! The paper evaluates on two real check-in datasets that are not
//! redistributable here, so this crate provides:
//!
//! * [`DatasetConfig`]/[`Dataset`] — a synthetic moving-user generator whose
//!   knobs (hotspot skew, per-user travel span, position-count
//!   distribution) are calibrated against the statistics the paper reports
//!   for its datasets;
//! * [`presets`] — the calibrated **California** (Gowalla-like: 10,162
//!   users, ≈381k positions, near-uniform) and **New York**
//!   (Brightkite-like: 2,725 users, ≈34k positions, highly skewed) presets,
//!   plus scaled-down variants for fast iteration;
//! * [`loader`] — a parser for the real SNAP check-in format
//!   (`user ⟨tab⟩ time ⟨tab⟩ lat ⟨tab⟩ lon ⟨tab⟩ location_id`) so the
//!   harness runs on the true data when available;
//! * [`sampler`] — the subsampling utilities behind the paper's Fig. 10
//!   (user scaling) and Fig. 15/16 (position-count scaling) experiments;
//! * [`serialize`] — JSON persistence and SNAP-format export, so synthetic
//!   datasets interoperate with tools expecting the real dumps.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dataset;
mod generator;
pub mod loader;
pub mod presets;
pub mod sampler;
pub mod serialize;

pub use dataset::{Dataset, DatasetStats};
pub use generator::DatasetConfig;
