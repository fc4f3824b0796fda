//! # MC²LS — Collective Location Selection in Competition
//!
//! A from-scratch Rust implementation of *"MC²LS: Towards Efficient
//! Collective Location Selection in Competition"* (Wang et al., TKDE 2024 /
//! ICDE 2025): select `k` candidate sites that collectively capture the
//! largest market share of **moving** users against **existing competitor
//! facilities**, under the cumulative-probability influence model.
//!
//! This facade crate re-exports the whole workspace. The typical flow:
//!
//! ```
//! use mc2ls::prelude::*;
//!
//! // A toy city: three users, one competitor, three candidate sites.
//! let users = vec![
//!     MovingUser::new(vec![Point::new(0.0, 0.0), Point::new(0.2, 0.1)]),
//!     MovingUser::new(vec![Point::new(4.0, 4.0), Point::new(4.1, 4.2)]),
//!     MovingUser::new(vec![Point::new(0.1, 0.3), Point::new(0.0, 0.2)]),
//! ];
//! let facilities = vec![Point::new(0.1, 0.1)];
//! let candidates = vec![Point::new(0.0, 0.1), Point::new(4.0, 4.1), Point::new(9.0, 9.0)];
//!
//! let problem = Problem::new(users, facilities, candidates, 2, 0.5,
//!                            Sigmoid::paper_default());
//! let report = solve(&problem, Method::Iqt(IqtConfig::default()));
//! assert_eq!(report.solution.selected.len(), 2);
//! assert!(report.solution.cinf > 0.0);
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`geo`] | points, rectangles, circles, squares, projections |
//! | [`influence`] | `PF` functions, cumulative probability, `mMR`/`NIR`/`η`, the blocked lane kernel |
//! | [`index`] | R-tree and the paper's IQuad-tree |
//! | [`core`] | the MC²LS problem, pruning rules, Baseline / k-CIFP / IQT / exact algorithms |
//! | [`data`] | calibrated dataset generators, SNAP loaders, samplers, persistence |
//! | [`viz`] | SVG maps of datasets and solutions |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mc2ls_core as core;
pub use mc2ls_data as data;
pub use mc2ls_geo as geo;
pub use mc2ls_index as index;
pub use mc2ls_influence as influence;
pub use mc2ls_viz as viz;

/// The one-import convenience module.
pub mod prelude {
    pub use mc2ls_core::algorithms::{
        influence_sets_threaded, solve_threaded, solve_with, Selector,
    };
    pub use mc2ls_core::{
        algorithms::exact::solve_exact, cinf_of_set, solve, InvertedIndex, IqtConfig, Method,
        Problem, RunReport, SelectionStats, Solution,
    };
    pub use mc2ls_data::{loader, presets, sampler, Dataset, DatasetConfig};
    pub use mc2ls_geo::{Point, Rect, Square};
    pub use mc2ls_index::{IQuadTree, RTree};
    pub use mc2ls_influence::{
        auto_block_size, cumulative_probability, influences, influences_blocked,
        resolve_block_size, BlockScratch, Model, MovingUser, PositionBlocks, ProbabilityFunction,
        Sigmoid, BLOCK_SIZE_AUTO, BLOCK_SIZE_PLAIN, DEFAULT_BLOCK_SIZE,
    };
}
