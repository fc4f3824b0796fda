//! The shared exact-verification kernel behind every algorithm's
//! "line 13–17" phase.
//!
//! [`decide`] is the one place that picks a kernel for a (site, user)
//! pair: the lane kernel ([`influences_blocked_counted`]) when the users
//! are blocked, the plain per-position kernel ([`influences_counted`])
//! when blocking is disabled. The solve pipeline reaches it through
//! [`Verifier`], which owns the problem's [`PositionBlocks`] (built once at
//! the block size [`resolve_block_size`] derives from the configuration —
//! fixed, auto-probed, or disabled — immutable, `Sync`, shared by reference
//! across all candidates and worker threads); the update engine calls it
//! directly over a one-user layout. Decisions are identical either way;
//! only the instrumented evaluation counts differ.
//!
//! Workers carry a private [`VerifyScratch`] (bound buffers + counters, all
//! `!Sync` by construction) and the per-worker counts are summed at join —
//! addition commutes, so the reported [`PruneStats`](crate::PruneStats)
//! counters are identical for every thread count. That includes the
//! fast-path fallback count: whether a user's decision lands inside the
//! error band depends only on geometry and τ, never on which worker
//! verifies it.
//!
//! [`resolve_block_size`]: mc2ls_influence::resolve_block_size

use crate::Problem;
use mc2ls_geo::Point;
use mc2ls_influence::{
    influences_blocked_counted, influences_counted, resolve_block_size, BlockCounters,
    BlockScratch, EvalCounter, MovingUser, PositionBlocks, ProbabilityFunction,
};

/// The exact `Pr_v(o) ≥ τ` decision for user `o` of `users` against site
/// `v`, counted into `s`: the lane kernel when `blocks` (which then covers
/// `users`) is present, the plain per-position kernel otherwise.
#[inline]
pub(crate) fn decide<PF: ProbabilityFunction>(
    pf: &PF,
    tau: f64,
    v: &Point,
    users: &[MovingUser],
    blocks: Option<&PositionBlocks>,
    o: u32,
    s: &mut VerifyScratch,
) -> bool {
    match blocks {
        Some(blocks) => {
            influences_blocked_counted(pf, v, blocks, o, tau, &mut s.bounds, &s.evals, &s.blocks)
        }
        None => influences_counted(pf, v, users[o as usize].positions(), tau, &s.evals),
    }
}

/// Per-problem verification state: the blocked substrate (if enabled) plus
/// the problem reference the kernels need.
pub(crate) struct Verifier<'a, PF: ProbabilityFunction> {
    problem: &'a Problem<PF>,
    blocks: Option<PositionBlocks>,
}

impl<'a, PF: ProbabilityFunction> Verifier<'a, PF> {
    /// Builds the substrate for `problem` at the resolved block size (a
    /// no-op for `BLOCK_SIZE_PLAIN`). Callers time this under their
    /// indexing phase.
    pub fn build(problem: &'a Problem<PF>) -> Self {
        let blocks = resolve_block_size(&problem.users, problem.block_size)
            .map(|bs| PositionBlocks::build(&problem.users, bs));
        Verifier { problem, blocks }
    }

    /// A fresh per-worker scratch (buffers + zeroed counters).
    pub fn scratch(&self) -> VerifyScratch {
        VerifyScratch::default()
    }

    /// The exact `Pr_v(o) ≥ τ` decision for user `o` against site `v`
    /// ([`decide`] over the problem's users).
    #[inline]
    pub fn influences(&self, v: &Point, o: u32, s: &mut VerifyScratch) -> bool {
        let p = self.problem;
        decide(&p.pf, p.tau, v, &p.users, self.blocks.as_ref(), o, s)
    }
}

/// One worker's reusable verification scratch and counters.
#[derive(Default)]
pub(crate) struct VerifyScratch {
    bounds: BlockScratch,
    evals: EvalCounter,
    blocks: BlockCounters,
}

impl VerifyScratch {
    /// Charges `n` PF evaluations made outside the kernels (the update
    /// engine's η bound).
    pub fn add_evals(&self, n: u64) {
        self.evals.add(n);
    }

    /// Folds another scratch's counters into this one (merging per-worker
    /// accumulators; the buffers are irrelevant at that point).
    pub fn absorb(&self, other: &VerifyScratch) {
        self.evals.add(other.evals.get());
        self.blocks.merge(&other.blocks);
    }

    /// The accumulated counts, field-for-field as they land in
    /// [`PruneStats`](crate::PruneStats).
    pub fn counts(&self) -> VerifyCounts {
        VerifyCounts {
            prob_evals: self.evals.get(),
            blocks_bounded_out: self.blocks.bounded_out(),
            blocks_opened: self.blocks.opened(),
            pf_fallbacks: self.blocks.fast_fallbacks(),
        }
    }
}

/// Summable verification counters (one per worker, merged at join).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct VerifyCounts {
    pub prob_evals: u64,
    pub blocks_bounded_out: u64,
    pub blocks_opened: u64,
    pub pf_fallbacks: u64,
}

impl VerifyCounts {
    /// Adds another worker's counts into this one.
    pub fn merge(&mut self, other: VerifyCounts) {
        self.prob_evals += other.prob_evals;
        self.blocks_bounded_out += other.blocks_bounded_out;
        self.blocks_opened += other.blocks_opened;
        self.pf_fallbacks += other.pf_fallbacks;
    }

    /// Writes the counts into the matching `PruneStats` fields (adding).
    pub fn add_to(&self, stats: &mut crate::PruneStats) {
        stats.prob_evals += self.prob_evals;
        stats.blocks_bounded_out += self.blocks_bounded_out;
        stats.blocks_opened += self.blocks_opened;
        stats.pf_fallbacks += self.pf_fallbacks;
    }
}
