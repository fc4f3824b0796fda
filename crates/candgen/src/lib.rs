//! `mc2ls-candgen` — MaxRS-style candidate-site generation.
//!
//! Every MC²LS solver in this workspace *ranks a preset candidate list*:
//! the instance arrives with `C` already chosen and the algorithms decide
//! which `k` of them to open. This crate closes the loop upstream and
//! **proposes the sites themselves**, in the spirit of the MaxRS
//! (maximising-range-sum) problem family: aggregate the users' recorded
//! positions on a Morton-cell grid, slide an `r × r` window across the
//! grid, and emit the centers of the top-`m` densest windows as a
//! candidate file the existing pipeline consumes unchanged.
//!
//! The sweep is **deterministic at any thread count**: per-cell position
//! counts come from radix-sorting every position's cell key (the sorted
//! multiset ignores how the key pass was chunked), anchors are enumerated
//! in `(row, column)` order by a separable box sum, window scores are
//! exact `u64` sums, and ties rank by the anchor cell's Morton code
//! (smallest wins — also the winner under the min-separation dedup rule).
//! See [`sweep::propose`] for the full contract and `tests/` for the
//! edge-case matrix (empty input, all-coincident positions, window larger
//! than the data MBR, tie dedup), a property test against a dense
//! brute-force reference, and the pinned proposals.
//!
//! Grid cells come from [`mc2ls_geo::grid_cells`] — the *same* quad-descent
//! the IQuad-tree and the blocked verification substrate walk — so a
//! position lands in the identical cell everywhere in the workspace, and
//! the serve layer's `PROPOSE` verb can answer straight from a snapshot's
//! SoA [`mc2ls_influence::PositionBlocks`] without re-deriving anything.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod sweep;

pub use sweep::{
    propose, propose_from_blocks, CandidateSite, Proposal, SweepConfig, SweepStats, MAX_GRID_DEPTH,
};
