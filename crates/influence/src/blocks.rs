//! Blocked SoA verification substrate for the exact `Pr_v(o) ≥ τ` decision.
//!
//! [`influences`](crate::influences) walks a user's positions in storage
//! order, paying one distance + one `PF` call per position, and its failure
//! stop is bounded by the globally loose `PF(0)^remaining`. This module
//! replaces that per-position walk with a *block-bounded* evaluation:
//!
//! * [`PositionBlocks`] — every user's positions, Morton-sorted and split
//!   into fixed-size blocks stored as flat `x[]`/`y[]` SoA arrays, each
//!   block carrying its MBR and count. Built once per problem; immutable
//!   and `Sync`, so one structure serves all candidates and all workers.
//! * [`influences_blocked`] — the decision kernel. `PF` is monotone
//!   non-increasing, so for a block `B` with MBR `R` and `n` positions the
//!   per-block product of "keep" factors is bracketed:
//!
//!   ```text
//!   (1 − PF(min_dist(v, R)))ⁿ  ≤  Π_{p ∈ B} (1 − PF(d(v, p)))  ≤  (1 − PF(max_dist(v, R)))ⁿ
//!   ```
//!
//!   Multiplying the per-block brackets gives two-sided bounds on the whole
//!   product `Π(1 − PF(dᵢ))`: when the upper bound is already `≤ 1 − τ` the
//!   user is influenced, when the lower bound is `> 1 − τ` they are not —
//!   in either case **without touching a single position**. Inconclusive
//!   users are resolved by visiting blocks closest-first and evaluating
//!   inside a block over fixed-width SoA lanes, with the early stops
//!   tightened from `PF(0)^remaining` to the product of the *remaining
//!   blocks'* bounds.
//!
//! # The lane kernel and the fast-PF error band
//!
//! [`influences_blocked`] walks each opened block in [`LANE`]-wide chunks:
//! distances land in a fixed `[f64; LANE]` scratch array with no
//! per-element branching, `PF` is evaluated through
//! [`ProbabilityFunction::prob_lanes`] (the sigmoid/exponential override
//! replaces `exp` with the bounded-error `exp_neg` fast path), and the
//! kernel maintains a *single* fast running product `prod` plus an additive
//! error band `band` that grows by the PF's published [`lane_error_bound`]
//! `ε` per evaluated position. Every keep factor — fast or true — lies in
//! `[0, 1]`, so
//!
//! ```text
//! |Π f̃ᵢ − Π fᵢ|  ≤  Σ |f̃ᵢ − fᵢ|  ≤  (positions evaluated) · ε
//! ```
//!
//! and the bracket `[max(0, prod − band), min(1, prod + band)]` always
//! contains the exact product. (A single multiply chain keeps the fast
//! walk's serial FP latency identical to the exact walk's; maintaining two
//! clamped per-element chains would double it and erase the fast path's
//! win.) Both early stops use the conservative side of the bracket — upper
//! for the success stop, lower for the failure stop — so a fast-path stop
//! is always justified by a true bound on the exact product: the decision
//! is the one the exact kernel would make. Only when the walk finishes with
//! `1 − τ` strictly inside the bracket (the target fell inside the error
//! band, which the `fast_fallbacks` counter records) does the kernel
//! consult the exact `exp` path, re-running the user with `PF::prob` so the
//! final decision is bit-identical to the exact kernel's.
//!
//! [`influences_blocked_exact`] runs that exact-`exp` walk on its own: it is
//! the fallback above, the oracle the property tests hold the lane kernel
//! to at knife-edge τ, and the baseline `BENCH_verify` times it against.
//!
//! [`lane_error_bound`]: ProbabilityFunction::lane_error_bound

use crate::lanes::{pow_n, LANE};
use crate::{EvalCounter, ProbabilityFunction};
use mc2ls_geo::{morton_codes, ByteReader, ByteWriter, CodecError, Point, Rect, Square};
use std::cell::Cell;

/// Default positions per block when a fixed size is requested without a
/// value; the auto-tune probe ([`auto_block_size`]) clamps around it.
pub const DEFAULT_BLOCK_SIZE: usize = 16;

/// `Problem::block_size` sentinel: derive the block size per dataset from
/// the one-pass density probe ([`auto_block_size`]). This is the default.
pub const BLOCK_SIZE_AUTO: usize = 0;

/// `Problem::block_size` sentinel: skip the blocked substrate entirely and
/// run the plain per-position kernel (`influences`).
pub const BLOCK_SIZE_PLAIN: usize = usize::MAX;

/// Morton depth: 16 levels = a 65536² virtual grid over each user's MBR,
/// far finer than any real block split needs.
const CURVE_DEPTH: usize = 16;

/// Derives a block size from a one-pass density probe over `users`.
///
/// The probe balances two costs: more blocks mean more bound evaluations
/// per user, larger blocks mean looser MBRs (weaker bounds, more opened
/// positions). Starting point is `√r̄` (blocks ≈ positions per block at the
/// average trajectory length `r̄`), rounded up to a full [`LANE`] multiple
/// so chunks stay full-width; when most positions belong to *dense* users
/// (trajectory MBR no larger in km than the position count — many revisits
/// per km), blocks double: tight MBRs keep bounds sharp even when coarse.
/// The result is clamped to `[LANE, 2 · DEFAULT_BLOCK_SIZE]`.
///
/// Deterministic (a pure fold over the user list), so every thread and
/// every run resolves the same size.
pub fn auto_block_size(users: &[crate::MovingUser]) -> usize {
    let mut total = 0usize;
    let mut dense = 0usize;
    for u in users {
        let r = u.len();
        total += r;
        let mbr = u.mbr();
        let span = mbr.width().max(mbr.height());
        if (r as f64) >= span {
            dense += r;
        }
    }
    if total == 0 {
        return DEFAULT_BLOCK_SIZE;
    }
    let avg = total as f64 / users.len() as f64;
    let rounded = match avg.sqrt().ceil() as usize {
        0 => LANE,
        t => t.div_ceil(LANE) * LANE,
    };
    let adjusted = if 2 * dense >= total {
        rounded * 2
    } else {
        rounded
    };
    adjusted.clamp(LANE, 2 * DEFAULT_BLOCK_SIZE)
}

/// Maps a configured `Problem::block_size` to the size the substrate is
/// actually built with: `None` for [`BLOCK_SIZE_PLAIN`] (no blocking), the
/// probed size for [`BLOCK_SIZE_AUTO`], the value itself otherwise.
pub fn resolve_block_size(users: &[crate::MovingUser], configured: usize) -> Option<usize> {
    match configured {
        BLOCK_SIZE_PLAIN => None,
        BLOCK_SIZE_AUTO => Some(auto_block_size(users)),
        fixed => Some(fixed),
    }
}

/// All users' positions in Morton order, chunked into fixed-size blocks
/// with per-block MBRs — the structure-of-arrays substrate the blocked
/// verification kernel reads.
///
/// Layout: positions live in flat `xs`/`ys` arrays; block `b` owns
/// `block_offsets[b]..block_offsets[b+1]` of them plus `rects[b]`; user `o`
/// owns blocks `user_offsets[o]..user_offsets[o+1]`. All arrays are
/// immutable after [`PositionBlocks::build`], so the structure is `Sync`
/// and shared by reference across verification workers.
#[derive(Debug, Clone, PartialEq)]
pub struct PositionBlocks {
    xs: Vec<f64>,
    ys: Vec<f64>,
    rects: Vec<Rect>,
    block_offsets: Vec<u32>,
    user_offsets: Vec<u32>,
    block_size: usize,
}

impl PositionBlocks {
    /// Builds the blocked layout for `users`, `block_size` positions per
    /// block (the last block of a user may be smaller).
    ///
    /// Positions are ordered by their Morton code over the user's own MBR
    /// (ties broken by original position index), so consecutive positions
    /// are spatially close and block MBRs stay tight. The order changes
    /// block composition only, never a kernel decision.
    ///
    /// # Panics
    /// Panics when `block_size == 0`.
    pub fn build(users: &[crate::MovingUser], block_size: usize) -> Self {
        let mut blocks = Self::sized(users, block_size);
        blocks.fill(users);
        blocks
    }

    /// [`PositionBlocks::build`] on one scoped worker thread while `f` runs
    /// on the calling thread; returns both results. The calling thread
    /// allocates every array at its final size before the worker starts,
    /// so the worker only writes into them: the layout lives in the
    /// caller's allocator arena, as an inline build's would, and equals
    /// the inline build.
    ///
    /// # Panics
    /// Panics when `block_size == 0`, and re-raises a panic of `f` or of
    /// the worker.
    pub fn build_beside<R>(
        users: &[crate::MovingUser],
        block_size: usize,
        f: impl FnOnce() -> R,
    ) -> (Self, R) {
        let mut blocks = Self::sized(users, block_size);
        let r = std::thread::scope(|scope| {
            let worker = scope.spawn(|| blocks.fill(users));
            let r = f();
            // lint:allow(panic-path): join only fails when the worker panicked; re-raising on the spawner is intended
            worker.join().expect("position-block worker panicked");
            r
        });
        (blocks, r)
    }

    /// An empty layout whose arrays have exactly the capacity
    /// [`PositionBlocks::fill`] needs for `users`: one slot per position,
    /// `⌈len / block_size⌉` blocks per user, so no push reallocates.
    fn sized(users: &[crate::MovingUser], block_size: usize) -> Self {
        assert!(block_size >= 1, "block_size must be at least 1");
        let total: usize = users.iter().map(crate::MovingUser::len).sum();
        let n_blocks: usize = users.iter().map(|u| u.len().div_ceil(block_size)).sum();
        let mut block_offsets = Vec::with_capacity(n_blocks + 1);
        block_offsets.push(0u32);
        let mut user_offsets = Vec::with_capacity(users.len() + 1);
        user_offsets.push(0u32);
        PositionBlocks {
            xs: Vec::with_capacity(total),
            ys: Vec::with_capacity(total),
            rects: Vec::with_capacity(n_blocks),
            block_offsets,
            user_offsets,
            block_size,
        }
    }

    /// Appends the blocks of `users` to a layout from
    /// [`PositionBlocks::sized`] over the same users.
    fn fill(&mut self, users: &[crate::MovingUser]) {
        let mut codes: Vec<u64> = Vec::new();
        let mut keyed: Vec<(u64, u32)> = Vec::new();
        for u in users {
            let mbr = u.mbr();
            // A square root over the MBR (degenerate side 0 is fine: all
            // positions then share one code and the original order holds).
            let root = Square::new(mbr.min, mbr.width().max(mbr.height()));
            morton_codes(&root, CURVE_DEPTH, u.positions(), &mut codes);
            keyed.clear();
            keyed.extend(codes.iter().copied().zip(0u32..));
            keyed.sort_unstable();
            for chunk in keyed.chunks(self.block_size) {
                let first = u.positions()[chunk[0].1 as usize];
                let mut rect = Rect::point(first);
                for &(_, i) in chunk {
                    let p = u.positions()[i as usize];
                    self.xs.push(p.x);
                    self.ys.push(p.y);
                    rect.expand_to(&p);
                }
                self.rects.push(rect);
                // lint:allow(narrowing-cast): total position count fits u32: positions are addressed by u32 ids
                self.block_offsets.push(self.xs.len() as u32);
            }
            // lint:allow(narrowing-cast): block count is bounded by position count, which fits u32
            self.user_offsets.push(self.rects.len() as u32);
        }
    }

    /// Number of users the structure covers.
    #[inline]
    pub fn n_users(&self) -> usize {
        self.user_offsets.len() - 1
    }

    /// Total number of blocks across all users.
    #[inline]
    // lint:allow(unread-pub): influence/tests/properties.rs checks `PositionBlocks::build`'s block layout through it
    pub fn n_blocks(&self) -> usize {
        self.rects.len()
    }

    /// The configured positions-per-block target.
    #[inline]
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// The global block-index range owned by `user`.
    #[inline]
    fn user_blocks(&self, user: u32) -> std::ops::Range<usize> {
        let o = user as usize;
        self.user_offsets[o] as usize..self.user_offsets[o + 1] as usize
    }

    /// The MBR of block `b`.
    #[inline]
    // lint:allow(unread-pub): influence/tests/properties.rs checks `PositionBlocks::build`'s block layout through it
    pub fn block_rect(&self, b: usize) -> &Rect {
        &self.rects[b]
    }

    /// Number of positions in block `b`.
    #[inline]
    // lint:allow(unread-pub): influence/tests/properties.rs checks `PositionBlocks::build`'s block layout through it
    pub fn block_len(&self, b: usize) -> usize {
        (self.block_offsets[b + 1] - self.block_offsets[b]) as usize
    }

    /// The SoA coordinate slices of block `b`.
    #[inline]
    // lint:allow(unread-pub): influence/tests/properties.rs checks `PositionBlocks::build`'s block layout through it
    pub fn block_positions(&self, b: usize) -> (&[f64], &[f64]) {
        let range = self.block_offsets[b] as usize..self.block_offsets[b + 1] as usize;
        (&self.xs[range.clone()], &self.ys[range])
    }

    /// Every position's coordinates as the flat SoA arrays: the blocks'
    /// [`block_positions`](Self::block_positions) slices, concatenated in
    /// block order (the block offsets tile both arrays).
    #[inline]
    pub fn positions(&self) -> (&[f64], &[f64]) {
        (&self.xs, &self.ys)
    }

    /// Structural sanitizer: checks the SoA/offset invariants the blocked
    /// kernel relies on. Always callable; the body compiles away in
    /// release builds.
    ///
    /// # Panics
    /// Panics (debug builds only) when the offset arrays are malformed, a
    /// block is empty or overfull, or a position lies outside its block's
    /// MBR.
    pub fn validate(&self) {
        #[cfg(debug_assertions)]
        {
            assert_eq!(self.xs.len(), self.ys.len(), "xs/ys length mismatch");
            assert_eq!(
                self.block_offsets.len(),
                self.rects.len() + 1,
                "one offset pair per block"
            );
            assert_eq!(
                self.block_offsets[self.block_offsets.len() - 1] as usize,
                self.xs.len(),
                "block offsets must end at the position count"
            );
            assert_eq!(
                self.user_offsets[self.user_offsets.len() - 1] as usize,
                self.rects.len(),
                "user offsets must end at the block count"
            );
            assert!(
                self.user_offsets.windows(2).all(|w| w[0] <= w[1]),
                "user offsets not non-decreasing"
            );
            for b in 0..self.n_blocks() {
                let len = self.block_len(b);
                assert!(
                    len >= 1 && len <= self.block_size,
                    "block {b} holds {len} positions (block_size {})",
                    self.block_size
                );
                let (xs, ys) = self.block_positions(b);
                let rect = &self.rects[b];
                for (x, y) in xs.iter().zip(ys) {
                    assert!(
                        rect.contains(&Point { x: *x, y: *y }),
                        "position outside its block MBR"
                    );
                }
            }
        }
    }

    /// Encodes the structure into the pinned little-endian byte layout
    /// (block size, SoA coordinate arrays, per-block MBRs as four `f64`s,
    /// both offset arrays) used by the `.mc2s` snapshot format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(
            48 + 16 * self.xs.len()
                + 32 * self.rects.len()
                + 4 * (self.block_offsets.len() + self.user_offsets.len()),
        );
        w.put_u64(self.block_size as u64);
        w.put_f64_slice(&self.xs);
        w.put_f64_slice(&self.ys);
        w.put_len(self.rects.len());
        for rect in &self.rects {
            w.put_f64(rect.min.x);
            w.put_f64(rect.min.y);
            w.put_f64(rect.max.x);
            w.put_f64(rect.max.y);
        }
        w.put_u32_slice(&self.block_offsets);
        w.put_u32_slice(&self.user_offsets);
        w.into_bytes()
    }

    /// Decodes [`PositionBlocks::to_bytes`] output, checking the SoA and
    /// offset invariants the blocked kernel relies on (including that every
    /// position sits inside its block's MBR, so corrupt coordinate or MBR
    /// bits cannot silently change kernel decisions). Corrupt input yields
    /// a typed [`CodecError`], never a panic.
    ///
    /// # Errors
    /// [`CodecError::Truncated`]/[`CodecError::BadLength`] on short or
    /// length-corrupt input, [`CodecError::Invalid`] on violated
    /// structural invariants.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = ByteReader::new(bytes);
        let block_size_raw = r.get_u64()?;
        let block_size = usize::try_from(block_size_raw)
            .ok()
            .filter(|&b| b >= 1)
            .ok_or(CodecError::Invalid("block_size must be a positive usize"))?;
        let xs = r.get_f64_vec("PositionBlocks.xs")?;
        let ys = r.get_f64_vec("PositionBlocks.ys")?;
        let n_rects = r.get_len("PositionBlocks.rects", 32)?;
        let mut rects = Vec::with_capacity(n_rects);
        for _ in 0..n_rects {
            let min = Point::new(r.get_f64()?, r.get_f64()?);
            let max = Point::new(r.get_f64()?, r.get_f64()?);
            if !(min.is_finite() && max.is_finite() && min.x <= max.x && min.y <= max.y) {
                return Err(CodecError::Invalid("block MBR is not a finite rectangle"));
            }
            rects.push(Rect { min, max });
        }
        let block_offsets = r.get_u32_vec("PositionBlocks.block_offsets")?;
        let user_offsets = r.get_u32_vec("PositionBlocks.user_offsets")?;
        r.expect_end()?;

        if xs.len() != ys.len() {
            return Err(CodecError::Invalid("xs/ys length mismatch"));
        }
        if block_offsets.len() != rects.len() + 1 || block_offsets.first() != Some(&0) {
            return Err(CodecError::Invalid("malformed block offsets"));
        }
        if block_offsets[rects.len()] as usize != xs.len()
            || !block_offsets.windows(2).all(|w| w[0] <= w[1])
        {
            return Err(CodecError::Invalid("block offsets do not cover the SoA"));
        }
        if user_offsets.first() != Some(&0)
            || user_offsets[user_offsets.len() - 1] as usize != rects.len()
            || !user_offsets.windows(2).all(|w| w[0] <= w[1])
        {
            return Err(CodecError::Invalid("malformed user offsets"));
        }
        for (b, w) in block_offsets.windows(2).enumerate() {
            let len = (w[1] - w[0]) as usize;
            if len == 0 || len > block_size {
                return Err(CodecError::Invalid("block length outside 1..=block_size"));
            }
            let rect = &rects[b];
            let range = w[0] as usize..w[1] as usize;
            if !xs[range.clone()]
                .iter()
                .zip(&ys[range])
                .all(|(&x, &y)| rect.contains(&Point { x, y }))
            {
                return Err(CodecError::Invalid("position outside its block MBR"));
            }
        }
        Ok(PositionBlocks {
            xs,
            ys,
            rects,
            block_offsets,
            user_offsets,
            block_size,
        })
    }
}

/// Per-worker scratch of the blocked kernel: per-block bounds and the
/// closest-first visit order, reused across calls so the hot path never
/// allocates once the vectors have grown to the largest block count seen.
#[derive(Debug, Default)]
pub struct BlockScratch {
    order: Vec<u32>,
    dmin: Vec<f64>,
    flo: Vec<f64>,
    fhi: Vec<f64>,
    lb: Vec<f64>,
    ub: Vec<f64>,
    suffix_lb: Vec<f64>,
    suffix_ub: Vec<f64>,
    // Per-chunk-boundary remainder bounds of the block currently being
    // walked (lane kernel only): entry c is the bound product for
    // everything after chunk c — this block's remaining positions and all
    // unopened blocks. Built backward with one multiply per chunk instead
    // of a `pow_n` pair per stop check.
    chunk_ub: Vec<f64>,
    chunk_lb: Vec<f64>,
}

impl BlockScratch {
    /// A fresh, empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Block-level counters of the blocked kernel, mirroring
/// [`EvalCounter`](crate::EvalCounter)'s interior-mutable design: one
/// instance per worker, summed at join (addition commutes, so the totals
/// are thread-count independent).
#[derive(Debug, Default)]
pub struct BlockCounters {
    bounded_out: Cell<u64>,
    opened: Cell<u64>,
    fallbacks: Cell<u64>,
}

impl BlockCounters {
    /// A fresh zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Blocks whose positions were never touched because block bounds
    /// decided the user first.
    pub fn bounded_out(&self) -> u64 {
        self.bounded_out.get()
    }

    /// Blocks opened for in-block lane evaluation.
    pub fn opened(&self) -> u64 {
        self.opened.get()
    }

    /// Users whose fast-path walk ended with `1 − τ` inside the error band
    /// and were re-decided on the exact `exp` path. Deterministic per user
    /// (the band depends only on geometry and τ), so the total is
    /// thread-count invariant. Such users' blocks are re-opened by the
    /// exact pass, so `opened` counts them twice.
    pub fn fast_fallbacks(&self) -> u64 {
        self.fallbacks.get()
    }

    #[inline]
    fn add_bounded(&self, n: u64) {
        self.bounded_out.set(self.bounded_out.get() + n);
    }

    #[inline]
    fn add_opened(&self, n: u64) {
        self.opened.set(self.opened.get() + n);
    }

    #[inline]
    fn add_fallbacks(&self, n: u64) {
        self.fallbacks.set(self.fallbacks.get() + n);
    }

    /// Adds another counter set's totals into this one (per-worker
    /// counters summed at join).
    pub fn merge(&self, other: &BlockCounters) {
        self.add_bounded(other.bounded_out());
        self.add_opened(other.opened());
        self.add_fallbacks(other.fast_fallbacks());
    }

    /// Resets all counters to zero.
    pub fn reset(&self) {
        self.bounded_out.set(0);
        self.opened.set(0);
        self.fallbacks.set(0);
    }
}

/// The blocked `Pr_v(o) ≥ τ` decision for `user` — identical to
/// [`influences`](crate::influences) over the same positions, evaluating
/// (usually far) fewer of them over [`LANE`]-wide chunks with the fast-PF
/// error-band bracket. See the module docs for the bound derivation and
/// the exactness argument.
///
/// # Examples
/// ```
/// use mc2ls_geo::Point;
/// use mc2ls_influence::{influences_blocked, BlockScratch, MovingUser, PositionBlocks, Sigmoid};
///
/// let users = vec![MovingUser::new(vec![Point::ORIGIN, Point::ORIGIN])];
/// let blocks = PositionBlocks::build(&users, 16);
/// let mut scratch = BlockScratch::new();
/// let pf = Sigmoid::paper_default(); // PF(0) = 0.5 ⇒ Pr = 0.75
/// assert!(influences_blocked(&pf, &Point::ORIGIN, &blocks, 0, 0.7, &mut scratch));
/// assert!(!influences_blocked(&pf, &Point::ORIGIN, &blocks, 0, 0.8, &mut scratch));
/// ```
// lint:allow(unread-pub): the counter-free entry through which this file's and properties.rs's tests hold the lane kernel that `influences_blocked_counted` runs to the exact walk
pub fn influences_blocked<PF: ProbabilityFunction + ?Sized>(
    pf: &PF,
    v: &Point,
    blocks: &PositionBlocks,
    user: u32,
    tau: f64,
    scratch: &mut BlockScratch,
) -> bool {
    influences_blocked_impl(pf, v, blocks, user, tau, scratch, None, None, false)
}

/// [`influences_blocked`] that also counts evaluated positions (the lane
/// kernel counts whole chunks into the [`EvalCounter`], so a stop
/// mid-block still charges the full chunk it evaluated) and block outcomes
/// (bounded out / opened / fast fallbacks) for the verification-cost
/// experiments.
#[allow(clippy::too_many_arguments)] // mirrors influences_counted + block instrumentation
pub fn influences_blocked_counted<PF: ProbabilityFunction + ?Sized>(
    pf: &PF,
    v: &Point,
    blocks: &PositionBlocks,
    user: u32,
    tau: f64,
    scratch: &mut BlockScratch,
    counter: &EvalCounter,
    block_counters: &BlockCounters,
) -> bool {
    influences_blocked_impl(
        pf,
        v,
        blocks,
        user,
        tau,
        scratch,
        Some(counter),
        Some(block_counters),
        false,
    )
}

/// [`influences_blocked`] on the exact `exp` path only: the lane walk runs
/// with `PF::prob` per position and an empty error band, never consulting
/// the fast-PF approximation. The lane kernel's fallback, and the oracle
/// and timing baseline it is checked against.
// lint:allow(unread-pub): the exact-`exp` oracle that this file's and properties.rs's tests hold the lane kernel to
pub fn influences_blocked_exact<PF: ProbabilityFunction + ?Sized>(
    pf: &PF,
    v: &Point,
    blocks: &PositionBlocks,
    user: u32,
    tau: f64,
    scratch: &mut BlockScratch,
) -> bool {
    influences_blocked_impl(pf, v, blocks, user, tau, scratch, None, None, true)
}

/// [`influences_blocked_exact`] with evaluation and block counting.
#[allow(clippy::too_many_arguments)] // mirrors influences_blocked_counted
pub fn influences_blocked_exact_counted<PF: ProbabilityFunction + ?Sized>(
    pf: &PF,
    v: &Point,
    blocks: &PositionBlocks,
    user: u32,
    tau: f64,
    scratch: &mut BlockScratch,
    counter: &EvalCounter,
    block_counters: &BlockCounters,
) -> bool {
    influences_blocked_impl(
        pf,
        v,
        blocks,
        user,
        tau,
        scratch,
        Some(counter),
        Some(block_counters),
        true,
    )
}

/// Kernel prologue: per-block factor bounds, the closest-first visit
/// order, and the suffix-product arrays, written into `scratch`.
///
/// For block j with n positions and per-position factor `f = 1 − PF(d)`:
/// `f ∈ [flo, fhi]` with `flo = 1 − PF(dmin)` and `fhi = 1 − PF(dmax)`
/// (block bounds always use the exact `PF::prob` — they are evaluated once
/// per block, not per position, so the fast path buys nothing there and
/// exactness keeps the fast and exact walks' bound arrays bit-identical),
/// so the block product lies in `[powⁿ(flo), powⁿ(fhi)]`.
fn fill_block_bounds<PF: ProbabilityFunction + ?Sized>(
    pf: &PF,
    v: &Point,
    blocks: &PositionBlocks,
    brange: &std::ops::Range<usize>,
    s: &mut BlockScratch,
) {
    let nb = brange.len();
    s.order.clear();
    s.dmin.clear();
    s.flo.clear();
    s.fhi.clear();
    s.lb.clear();
    s.ub.clear();
    for (local, b) in brange.clone().enumerate() {
        let rect = blocks.block_rect(b);
        let dmin = rect.min_distance(v);
        let dmax = rect.max_distance(v);
        let n = blocks.block_len(b);
        let flo = 1.0 - pf.prob(dmin);
        let fhi = 1.0 - pf.prob(dmax);
        // lint:allow(narrowing-cast): local indexes the per-user block list, bounded by the u32 block count
        s.order.push(local as u32);
        s.dmin.push(dmin);
        s.flo.push(flo);
        s.fhi.push(fhi);
        s.lb.push(pow_n(flo, n));
        s.ub.push(pow_n(fhi, n));
    }

    // Closest blocks first (ties toward the lower block index, which keeps
    // the visit order — and hence the evaluation counts — deterministic).
    {
        let dmin = &s.dmin;
        s.order.sort_unstable_by(|&a, &b| {
            dmin[a as usize]
                .total_cmp(&dmin[b as usize])
                .then(a.cmp(&b))
        });
    }

    // suffix_lb[t] / suffix_ub[t]: product of the [t..] blocks' bounds in
    // visit order; index nb is the empty product.
    s.suffix_lb.resize(nb + 1, 1.0);
    s.suffix_ub.resize(nb + 1, 1.0);
    s.suffix_lb[nb] = 1.0;
    s.suffix_ub[nb] = 1.0;
    for t in (0..nb).rev() {
        let j = s.order[t] as usize;
        s.suffix_lb[t] = s.suffix_lb[t + 1] * s.lb[j];
        s.suffix_ub[t] = s.suffix_ub[t + 1] * s.ub[j];
    }
}

/// Aggregate-bounds early decision: decides the user without touching any
/// position when the whole-product bracket is already conclusive.
#[inline]
fn aggregate_decision(
    s: &BlockScratch,
    nb: usize,
    target: f64,
    block_counters: Option<&BlockCounters>,
) -> Option<bool> {
    let decided = if s.suffix_ub[0] <= target {
        Some(true)
    } else if s.suffix_lb[0] > target {
        Some(false)
    } else {
        None
    };
    if decided.is_some() {
        if let Some(bc) = block_counters {
            bc.add_bounded(nb as u64);
        }
    }
    decided
}

#[allow(clippy::too_many_arguments)]
fn influences_blocked_impl<PF: ProbabilityFunction + ?Sized>(
    pf: &PF,
    v: &Point,
    blocks: &PositionBlocks,
    user: u32,
    tau: f64,
    scratch: &mut BlockScratch,
    counter: Option<&EvalCounter>,
    block_counters: Option<&BlockCounters>,
    pf_exact: bool,
) -> bool {
    debug_assert!((0.0..=1.0).contains(&tau));
    let target = 1.0 - tau;
    let brange = blocks.user_blocks(user);
    let nb = brange.len();
    if nb == 0 {
        // No positions: Pr = 0, influenced only when τ = 0 (target = 1).
        return 1.0 <= target;
    }

    let s = scratch;
    fill_block_bounds(pf, v, blocks, &brange, s);
    if let Some(decided) = aggregate_decision(s, nb, target, block_counters) {
        return decided;
    }

    // The lane walk. `prod` carries one running keep-product; in fast mode
    // its distance to the exact product is bounded *additively*: every
    // factor — fast or true — lies in [0, 1], so
    // `|Π fast − Π true| ≤ Σ |fastᵢ − trueᵢ| ≤ evals · ε`
    // with ε the PF's published lane error bound. The bracket
    // `[prod − band, prod + band]` is therefore derived only at chunk
    // boundaries, keeping the inner loop to a single multiply chain (the
    // dual per-element clamped chains this replaces doubled the serial
    // latency and made the fast path slower than the exact one). In exact
    // mode (and for PFs with no fast path, ε = 0) the band is zero and
    // `prod` is the exact kernel's product.
    let err = if pf_exact { 0.0 } else { pf.lane_error_bound() };
    let mut prod = 1.0f64;
    let mut band = 0.0f64;
    let mut d = [0.0f64; LANE];
    let mut p = [0.0f64; LANE];
    for t in 0..nb {
        let j = s.order[t] as usize;
        if let Some(bc) = block_counters {
            bc.add_opened(1);
        }
        let (xs, ys) = blocks.block_positions(brange.start + j);
        let n = xs.len();
        let (flo, fhi) = (s.flo[j], s.fhi[j]);
        // Remainder bounds per chunk boundary, built backward with one
        // multiply per chunk: entry c bounds the product of everything
        // after chunk c (this block's remaining positions, then the
        // unopened blocks). Replaces a `pow_n` pair inside every stop
        // check with a table lookup.
        let nc = n.div_ceil(LANE);
        s.chunk_ub.resize(nc, 0.0);
        s.chunk_lb.resize(nc, 0.0);
        s.chunk_ub[nc - 1] = s.suffix_ub[t + 1];
        s.chunk_lb[nc - 1] = s.suffix_lb[t + 1];
        if nc > 1 {
            // The last chunk may be partial; every earlier one is LANE wide.
            let tail = n - LANE * (nc - 1);
            s.chunk_ub[nc - 2] = s.chunk_ub[nc - 1] * pow_n(fhi, tail);
            s.chunk_lb[nc - 2] = s.chunk_lb[nc - 1] * pow_n(flo, tail);
            if nc > 2 {
                let fhi_lane = pow_n(fhi, LANE);
                let flo_lane = pow_n(flo, LANE);
                for c in (0..nc - 2).rev() {
                    s.chunk_ub[c] = s.chunk_ub[c + 1] * fhi_lane;
                    s.chunk_lb[c] = s.chunk_lb[c + 1] * flo_lane;
                }
            }
        }
        let mut i = 0;
        let mut chunk = 0;
        while i < n {
            let m = LANE.min(n - i);
            // Distance lanes: fixed-width, branch-free over the chunk, so
            // the compiler can vectorise the subtract/multiply/sqrt run.
            for ((dd, &px), &py) in d[..m].iter_mut().zip(&xs[i..i + m]).zip(&ys[i..i + m]) {
                let dx = px - v.x;
                let dy = py - v.y;
                *dd = (dx * dx + dy * dy).sqrt();
            }
            if pf_exact {
                for &dist in &d[..m] {
                    prod *= 1.0 - pf.prob(dist);
                }
            } else {
                // Full chunks pass the whole fixed-width arrays: after
                // inlining, the trip count is the constant `LANE`, which is
                // what actually unlocks the vectorised `prob_lanes` body
                // (a runtime-length tail slice compiles to the scalar loop).
                // The chunk's keep product is reduced as a pairwise tree —
                // depth log₂ LANE instead of a LANE-long serial multiply
                // chain. The association order only changes which rounding
                // the *fast* product carries (≤ LANE·2⁻⁵³ per chunk, five
                // orders below the ε·evals band); the exact-mode chain
                // below keeps the strict left-to-right order that the
                // fallback path and `influences_blocked_exact` share.
                if m == LANE {
                    pf.prob_lanes(&d, &mut p);
                    let f = [
                        (1.0 - p[0]) * (1.0 - p[1]),
                        (1.0 - p[2]) * (1.0 - p[3]),
                        (1.0 - p[4]) * (1.0 - p[5]),
                        (1.0 - p[6]) * (1.0 - p[7]),
                    ];
                    prod *= (f[0] * f[1]) * (f[2] * f[3]);
                } else {
                    pf.prob_lanes(&d[..m], &mut p[..m]);
                    for &q in &p[..m] {
                        prod *= 1.0 - q;
                    }
                }
                band += m as f64 * err;
            }
            if let Some(c) = counter {
                c.add(m as u64);
            }
            i += m;
            // Two-sided stops at chunk boundaries, each on the conservative
            // side of the bracket: the unvisited remainder is bracketed by
            // this block's per-position bounds to the power of its
            // remaining count times the unopened blocks' bound products —
            // much tighter than the global `PF(0)^remaining` budget.
            if (prod + band).min(1.0) * s.chunk_ub[chunk] <= target {
                if let Some(bc) = block_counters {
                    bc.add_bounded((nb - t - 1) as u64);
                }
                return true;
            }
            if (prod - band).max(0.0) * s.chunk_lb[chunk] > target {
                if let Some(bc) = block_counters {
                    bc.add_bounded((nb - t - 1) as u64);
                }
                return false;
            }
            chunk += 1;
        }
    }
    // Walk finished without a conclusive stop. With a zero band the
    // product is the exact kernel's full product and `≤ target` is the
    // decision itself. Otherwise decide only when the bracket clears the
    // target on one side; a target inside the error band is the one case
    // the fast kernel cannot decide, so re-run this user on the exact path
    // (terminates: the exact pass has pf_exact = true).
    if pf_exact || band == 0.0 {
        return prod <= target;
    }
    if (prod + band).min(1.0) <= target {
        return true;
    }
    if (prod - band).max(0.0) > target {
        return false;
    }
    if let Some(bc) = block_counters {
        bc.add_fallbacks(1);
    }
    influences_blocked_impl(pf, v, blocks, user, tau, s, counter, block_counters, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{cumulative_probability, influences, EvalCounter, MovingUser, Sigmoid};

    fn users_ring(n_users: usize, r: usize) -> Vec<MovingUser> {
        (0..n_users)
            .map(|u| {
                MovingUser::new(
                    (0..r)
                        .map(|i| {
                            let a = (u * r + i) as f64 * 0.37;
                            Point::new(
                                u as f64 * 3.0 + a.cos() * (1.0 + i as f64 * 0.1),
                                a.sin() * (1.0 + i as f64 * 0.1),
                            )
                        })
                        .collect(),
                )
            })
            .collect()
    }

    #[test]
    fn layout_partitions_every_position() {
        let users = users_ring(5, 23);
        let blocks = PositionBlocks::build(&users, 7);
        assert_eq!(blocks.n_users(), 5);
        for (o, u) in users.iter().enumerate() {
            let total: usize = blocks
                .user_blocks(o as u32)
                .map(|b| blocks.block_len(b))
                .sum();
            assert_eq!(total, u.len(), "user {o}");
            for b in blocks.user_blocks(o as u32) {
                assert!(blocks.block_len(b) <= 7);
                let (xs, ys) = blocks.block_positions(b);
                let rect = blocks.block_rect(b);
                for (x, y) in xs.iter().zip(ys) {
                    assert!(rect.contains(&Point::new(*x, *y)));
                }
            }
        }
        let (mut xs, mut ys) = (Vec::new(), Vec::new());
        for b in 0..blocks.n_blocks() {
            let (bx, by) = blocks.block_positions(b);
            xs.extend_from_slice(bx);
            ys.extend_from_slice(by);
        }
        assert_eq!(blocks.positions(), (&xs[..], &ys[..]));
    }

    #[test]
    fn blocked_decision_matches_plain_kernel() {
        let users = users_ring(6, 31);
        let pf = Sigmoid::paper_default();
        let blocks = PositionBlocks::build(&users, 4);
        let mut scratch = BlockScratch::new();
        for tau in [0.05, 0.3, 0.5, 0.7, 0.95] {
            for (o, u) in users.iter().enumerate() {
                for v in [Point::ORIGIN, Point::new(o as f64 * 3.0, 0.5)] {
                    let want = influences(&pf, &v, u.positions(), tau);
                    let got = influences_blocked(&pf, &v, &blocks, o as u32, tau, &mut scratch);
                    assert_eq!(got, want, "user {o} tau {tau} v {v:?}");
                }
            }
        }
    }

    #[test]
    fn block_size_one_and_huge_agree() {
        let users = users_ring(4, 17);
        let pf = Sigmoid::paper_default();
        let fine = PositionBlocks::build(&users, 1);
        let coarse = PositionBlocks::build(&users, 1000);
        let mut scratch = BlockScratch::new();
        for (o, u) in users.iter().enumerate() {
            let v = Point::new(1.0, -2.0);
            let want = cumulative_probability(&pf, &v, u.positions()) >= 0.6;
            for blocks in [&fine, &coarse] {
                assert_eq!(
                    influences_blocked(&pf, &v, blocks, o as u32, 0.6, &mut scratch),
                    want
                );
            }
        }
    }

    #[test]
    fn far_user_is_bounded_out_without_evaluations() {
        let users = vec![MovingUser::new(
            (0..32)
                .map(|i| Point::new(100.0 + i as f64 * 0.01, 50.0))
                .collect(),
        )];
        let pf = Sigmoid::paper_default();
        let blocks = PositionBlocks::build(&users, 8);
        let mut scratch = BlockScratch::new();
        let evals = EvalCounter::new();
        let bc = BlockCounters::new();
        assert!(!influences_blocked_counted(
            &pf,
            &Point::ORIGIN,
            &blocks,
            0,
            0.5,
            &mut scratch,
            &evals,
            &bc
        ));
        assert_eq!(evals.get(), 0, "no position may be touched");
        assert_eq!(bc.bounded_out(), blocks.n_blocks() as u64);
        assert_eq!(bc.opened(), 0);
    }

    #[test]
    fn near_user_is_accepted_without_evaluations() {
        // 32 positions essentially at the query point: the aggregate upper
        // bound (1 − PF(max_dist))³² is far below 1 − τ.
        let users = vec![MovingUser::new(
            (0..32).map(|i| Point::new(i as f64 * 1e-6, 0.0)).collect(),
        )];
        let pf = Sigmoid::paper_default();
        let blocks = PositionBlocks::build(&users, 8);
        let mut scratch = BlockScratch::new();
        let evals = EvalCounter::new();
        let bc = BlockCounters::new();
        assert!(influences_blocked_counted(
            &pf,
            &Point::ORIGIN,
            &blocks,
            0,
            0.9,
            &mut scratch,
            &evals,
            &bc
        ));
        assert_eq!(evals.get(), 0);
        assert_eq!(bc.bounded_out(), blocks.n_blocks() as u64);
    }

    #[test]
    fn blocked_never_evaluates_more_than_block_worths_needed() {
        // Mixed case: a near cluster and a far cluster; the far blocks must
        // never be opened once the near ones decide.
        let mut ps: Vec<Point> = (0..16).map(|i| Point::new(i as f64 * 0.01, 0.0)).collect();
        ps.extend((0..16).map(|i| Point::new(500.0 + i as f64, 0.0)));
        let users = vec![MovingUser::new(ps)];
        let pf = Sigmoid::paper_default();
        let blocks = PositionBlocks::build(&users, 8);
        let mut scratch = BlockScratch::new();
        let evals = EvalCounter::new();
        let bc = BlockCounters::new();
        let got = influences_blocked_counted(
            &pf,
            &Point::ORIGIN,
            &blocks,
            0,
            0.9,
            &mut scratch,
            &evals,
            &bc,
        );
        assert!(got);
        assert!(evals.get() <= 16, "evaluated {}", evals.get());
        assert!(bc.opened() <= 2);
        assert_eq!(bc.opened() + bc.bounded_out(), blocks.n_blocks() as u64);
    }

    #[test]
    fn degenerate_taus() {
        let users = users_ring(3, 9);
        let pf = Sigmoid::paper_default();
        let blocks = PositionBlocks::build(&users, 4);
        let mut scratch = BlockScratch::new();
        for (o, u) in users.iter().enumerate() {
            let v = Point::new(0.5, 0.5);
            // τ = 0: everyone is influenced (Pr ≥ 0 always).
            assert!(influences_blocked(
                &pf,
                &v,
                &blocks,
                o as u32,
                0.0,
                &mut scratch
            ));
            // τ → 1: the sigmoid (PF < 1) can never reach it.
            assert!(!influences_blocked(
                &pf,
                &v,
                &blocks,
                o as u32,
                1.0,
                &mut scratch
            ));
            assert_eq!(
                influences_blocked(&pf, &v, &blocks, o as u32, 0.999_999, &mut scratch),
                cumulative_probability(&pf, &v, u.positions()) >= 0.999_999
            );
        }
    }

    #[test]
    fn identical_positions_collapse_to_one_tight_block() {
        let users = vec![MovingUser::new(vec![Point::new(2.0, 2.0); 40])];
        let blocks = PositionBlocks::build(&users, 16);
        let pf = Sigmoid::paper_default();
        let mut scratch = BlockScratch::new();
        // Degenerate MBR (a point): bounds are exact, so every decision is
        // made from the bounds alone.
        let evals = EvalCounter::new();
        let bc = BlockCounters::new();
        let got = influences_blocked_counted(
            &pf,
            &Point::new(2.0, 2.0),
            &blocks,
            0,
            0.9,
            &mut scratch,
            &evals,
            &bc,
        );
        assert!(got);
        assert_eq!(evals.get(), 0);
    }

    #[test]
    fn byte_codec_round_trips_bit_identically() {
        let users = vec![
            MovingUser::new(vec![
                Point::new(0.0, 0.0),
                Point::new(3.0, 1.0),
                Point::new(-2.0, 4.0),
                Point::new(0.5, 0.5),
                Point::new(2.5, 2.5),
            ]),
            MovingUser::new(vec![Point::new(10.0, 10.0)]),
        ];
        for block_size in [1usize, 2, 16] {
            let blocks = PositionBlocks::build(&users, block_size);
            let decoded = PositionBlocks::from_bytes(&blocks.to_bytes()).expect("round trip");
            assert_eq!(decoded, blocks);
            decoded.validate();
        }
    }

    #[test]
    fn lane_scalar_and_exact_kernels_agree_everywhere() {
        let users = users_ring(6, 31);
        let pf = Sigmoid::paper_default();
        let mut scratch = BlockScratch::new();
        for bs in [1usize, 4, 16, 33] {
            let blocks = PositionBlocks::build(&users, bs);
            for tau in [0.0, 0.05, 0.3, 0.5, 0.7, 0.95, 1.0] {
                for (o, u) in users.iter().enumerate() {
                    for v in [Point::ORIGIN, Point::new(o as f64 * 3.0, 0.5)] {
                        let want = influences(&pf, &v, u.positions(), tau);
                        let o = o as u32;
                        let lane = influences_blocked(&pf, &v, &blocks, o, tau, &mut scratch);
                        let exact =
                            influences_blocked_exact(&pf, &v, &blocks, o, tau, &mut scratch);
                        assert_eq!(lane, want, "lane: user {o} tau {tau} bs {bs} v {v:?}");
                        assert_eq!(exact, want, "exact: user {o} tau {tau} bs {bs} v {v:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn auto_block_size_is_deterministic_and_lane_aligned() {
        let sparse = users_ring(5, 23);
        let a = auto_block_size(&sparse);
        assert_eq!(a, auto_block_size(&sparse), "pure fold must be stable");
        assert!((LANE..=2 * DEFAULT_BLOCK_SIZE).contains(&a));
        assert_eq!(a % LANE, 0, "auto size {a} must fill whole lanes");
        // Dense users (many positions inside a tiny MBR) double the size.
        let dense = vec![MovingUser::new(vec![Point::new(2.0, 2.0); 23]); 5];
        assert!(auto_block_size(&dense) >= a);
        assert_eq!(auto_block_size(&[]), DEFAULT_BLOCK_SIZE);
    }

    #[test]
    fn resolve_block_size_maps_the_sentinels() {
        let users = users_ring(3, 9);
        assert_eq!(resolve_block_size(&users, BLOCK_SIZE_PLAIN), None);
        assert_eq!(
            resolve_block_size(&users, BLOCK_SIZE_AUTO),
            Some(auto_block_size(&users))
        );
        assert_eq!(resolve_block_size(&users, 7), Some(7));
    }

    /// A PF that advertises a deliberately huge lane error band and biases
    /// its lane path low: the fast walk must end inconclusive for some
    /// users, fall back to the exact pass (fallbacks > 0), and still return
    /// exactly the plain kernel's decisions.
    struct SloppyPf(Sigmoid);

    impl ProbabilityFunction for SloppyPf {
        fn prob(&self, d: f64) -> f64 {
            self.0.prob(d)
        }

        fn prob_lanes(&self, d: &[f64], out: &mut [f64]) {
            for (o, &x) in out.iter_mut().zip(d) {
                *o = (self.0.prob(x) - 0.02).max(0.0);
            }
        }

        fn lane_error_bound(&self) -> f64 {
            0.05
        }

        fn inverse(&self, p: f64) -> Option<f64> {
            self.0.inverse(p)
        }

        fn max_probability(&self) -> f64 {
            self.0.max_probability()
        }
    }

    #[test]
    fn error_band_fallback_keeps_decisions_exact() {
        let users = users_ring(6, 31);
        let pf = SloppyPf(Sigmoid::paper_default());
        let blocks = PositionBlocks::build(&users, 8);
        let mut scratch = BlockScratch::new();
        let evals = EvalCounter::new();
        let bc = BlockCounters::new();
        let mut decided = 0u64;
        for tau in [0.05, 0.3, 0.5, 0.7, 0.95] {
            for (o, u) in users.iter().enumerate() {
                for v in [Point::ORIGIN, Point::new(o as f64 * 3.0, 0.5)] {
                    let want = influences(&pf.0, &v, u.positions(), tau);
                    let got = influences_blocked_counted(
                        &pf,
                        &v,
                        &blocks,
                        o as u32,
                        tau,
                        &mut scratch,
                        &evals,
                        &bc,
                    );
                    assert_eq!(got, want, "user {o} tau {tau} v {v:?}");
                    decided += 1;
                }
            }
        }
        let fb = bc.fast_fallbacks();
        assert!(fb > 0, "a 0.05-wide band must trap some decisions");
        assert!(fb <= decided);
    }

    #[test]
    fn byte_codec_rejects_corruption_without_panicking() {
        let users = vec![MovingUser::new(vec![
            Point::new(0.0, 0.0),
            Point::new(5.0, 5.0),
            Point::new(1.0, 2.0),
        ])];
        let bytes = PositionBlocks::build(&users, 2).to_bytes();
        for cut in 0..bytes.len() {
            assert!(PositionBlocks::from_bytes(&bytes[..cut]).is_err(), "{cut}");
        }
        // A NaN coordinate can never sit inside its block's MBR.
        let mut bad = bytes.clone();
        let x0 = 8 + 8; // block_size, xs length prefix
        bad[x0..x0 + 8].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        assert!(PositionBlocks::from_bytes(&bad).is_err());
        // A zero block size is structurally invalid.
        let mut zero = bytes;
        for b in &mut zero[..8] {
            *b = 0;
        }
        assert!(PositionBlocks::from_bytes(&zero).is_err());
    }
}
