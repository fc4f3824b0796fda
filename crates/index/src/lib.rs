//! Spatial index substrates for the MC²LS reproduction.
//!
//! * [`RTree`] — a from-scratch point R-tree (Guttman insert with quadratic
//!   split + STR bulk loading). The paper's Adapted k-CIFP baseline
//!   (Algorithm 1) indexes candidates and facilities in two R-trees `RT_C`
//!   and `RT_F` and runs IA/NIB range queries against them.
//! * [`IQuadTree`] — the paper's contribution (§V-C): a user-MBR-free index
//!   stored as one Morton-sorted position array (a node is the range of
//!   positions sharing a code prefix), with the `⟨diagonal, η⟩` hash and the
//!   batch-wise `Traverse` procedure (Algorithm 3) implementing the IS
//!   (Lemma 2) and NIR (Lemma 3) pruning rules.
//! * [`setops`] — merge-based operations on sorted id vectors, shared by the
//!   traversal and the algorithm layer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod iquadtree;
pub mod rtree;
pub mod setops;

pub use iquadtree::{IQuadTree, IqtStats, TraverseOutcome, TraverseScratch};
pub use rtree::RTree;
