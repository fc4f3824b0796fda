//! MC²LS: Mobility-oriented Competitive-based Collective Location Selection.
//!
//! This crate implements the paper's problem (Definition 7) and all of its
//! solution algorithms:
//!
//! * [`Problem`] — the instance: moving users `Ω`, competitor facilities
//!   `F`, candidate sites `C`, budget `k`, threshold `τ` and the
//!   distance-probability function `PF`.
//! * [`algorithms::baseline`] — the straightforward greedy (paper §IV-A):
//!   exhaustive influence computation plus greedy selection.
//! * [`algorithms::kcifp`] — Adapted k-CIFP (Algorithm 1): R-trees over `C`
//!   and `F` with the classical IA/NIB candidate-pruning regions.
//! * [`algorithms::iqt`] — the IQuad-tree solution (Algorithm 2), in the
//!   paper's three flavours: `IQT-C` (IS+NIR only), `IQT` (adds NIB) and
//!   `IQT-PINO` (adds NIB and IA).
//! * [`algorithms::exact`] — exhaustive/branch-and-bound optimum for small
//!   instances; the oracle behind the `(1 − 1/e)` quality tests.
//! * [`select`] — the shared submodular greedy selector (Theorem 2),
//!   written once over [`Rows`] user partitions: the paper's rescan loop,
//!   CELF lazy evaluation and decremental gain maintenance, all returning
//!   identical results; the unsharded instance is a one-shard selection.
//!
//! Every algorithm produces the same [`Solution`] on the same input (the
//! pruning rules are lossless); the integration suite asserts this.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithms;
pub mod analysis;
mod bitset;
mod cinf;
mod greedy;
mod influence_sets;
mod inverted;
pub mod parallel;
mod problem;
pub mod pruning;
pub mod shard;
pub mod sketch;
mod solution;
mod stats;
pub mod update;
mod verify;

pub use bitset::{Bitset, IterOnes};
pub use cinf::{cinf_of_set, competitive_weight};
pub use greedy::{
    class_counts, select, ClassCounts, GatherScratch, GatherStats, Rows, SelectOpts, SetRows,
};
pub use influence_sets::InfluenceSets;
pub use inverted::InvertedIndex;
pub use problem::Problem;
pub use solution::Solution;
pub use stats::{PhaseTimes, PruneStats, RunReport, SelectionStats};
pub use update::{UpdateEngine, UpdateError, UpdateStats, UserUpdate};

pub use algorithms::{solve, IqtConfig, Method};
