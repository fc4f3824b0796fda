//! The grid-aggregated MaxRS sweep.
//!
//! # Algorithm
//!
//! 1. **Extent.** Fold every position into a bounding rectangle and grow
//!    it to a root [`Square`] (the same `QuadTree::new` convention the
//!    index crate uses: side = max(width, height)).
//! 2. **Depth.** Halve the cell side until it is at most half the window
//!    (`cell ≤ r/2`), capped at [`MAX_GRID_DEPTH`] levels. The window then
//!    spans `s = ⌈r / cell⌉ ∈ {1..4}` cells per axis.
//! 3. **Count.** Each position maps to its `(column, row)` grid cell via
//!    [`grid_cells`] — the identical quad descent the IQuad-tree and the
//!    blocked verifier walk, run lockstep over eight positions at a time —
//!    packed into one row-major key `(row << depth) | column` (at most 32
//!    bits). The key pass chunks across threads ([`map_chunks`]); an LSD
//!    radix sort and a run-length pass then turn the keys into
//!    `(row, column, count)` cells. The sorted key multiset does not
//!    depend on the chunking, so neither does anything after it.
//! 4. **Sweep.** A window anchor is a cell whose `s×s` window (clamped
//!    into the grid) holds a non-empty cell: exactly the non-empty cells'
//!    clamped `s×s` down-left shifts. Its score — positions inside the
//!    window — is a separable box sum. A two-pointer row pass emits each
//!    row's horizontal `s`-sum at every anchor column
//!    `[max(0, c − s + 1), min(c, grid_n − s)]` of its cells `c`; a column
//!    pass then merges the ≤ `s` row lists under each anchor row. Anchors
//!    come out in `(row, column)` order, each with its score, without a
//!    per-anchor search or an anchor set.
//! 5. **Rank + dedup.** A max-heap on (score, reversed anchor Morton code)
//!    is popped in (score descending, Morton ascending) order; a greedy
//!    pass keeps window centers at least `min_separation` apart
//!    (Euclidean) and stops at `m` — so only the popped prefix is ever
//!    ordered. Morton codes are unique per anchor, so the order is total:
//!    equal-score ties resolve to the smallest code, and a tied anchor too
//!    close to an already-accepted one is dropped.
//!
//! The sweep is a *heuristic at cell resolution* (classic MaxRS grid
//! approximation): the reported score counts the positions in the `s×s`
//! cell window, which contains the `r×r` continuous window anchored at
//! the same corner. Everything downstream re-scores the proposed sites
//! with the exact `cinf` pipeline, so the approximation only steers
//! *where* candidates are proposed, never how they are ranked by the
//! solver.

use mc2ls_core::parallel::map_chunks;
use mc2ls_geo::{grid_cells, Extent, Point, Square};
use mc2ls_influence::PositionBlocks;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

/// Deepest quad subdivision the sweep will use (`2^16` cells per axis).
/// Beyond this the grid outresolves any realistic dataset while the
/// per-axis cell coordinates still interleave into one `u64` Morton code.
pub const MAX_GRID_DEPTH: usize = 16;

/// Positions bucketed per [`grid_cells`] call in the count pass: large
/// enough to amortise the call, small enough that the cell buffer stays a
/// few kilobytes whatever the input size.
const CELL_BATCH: usize = 1024;

/// Parameters of one sweep.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SweepConfig {
    /// Side `r` of the square sweep window, in the dataset's coordinate
    /// units (km for the shipped presets).
    pub window: f64,
    /// Number of candidate sites to emit (the sweep may return fewer when
    /// the min-separation rule exhausts the anchors first).
    pub m: usize,
    /// Minimum Euclidean distance between two emitted window centers.
    /// `0.0` disables the dedup rule entirely.
    pub min_separation: f64,
    /// Worker threads for the cell-key pass. Results are
    /// bit-identical at any value.
    pub threads: usize,
}

impl SweepConfig {
    /// A sweep emitting `m` sites from an `r × r` window, with the
    /// default separation of half a window and a single worker thread.
    ///
    /// # Panics
    /// Panics when `window` is not strictly positive and finite or when
    /// `m == 0` — construction bugs at the call site, mirroring
    /// `Problem::new`.
    pub fn new(window: f64, m: usize) -> Self {
        assert!(
            window > 0.0 && window.is_finite(),
            "window must be positive and finite, got {window}"
        );
        assert!(m >= 1, "m must be at least 1");
        SweepConfig {
            window,
            m,
            min_separation: window * 0.5,
            threads: 1,
        }
    }

    /// Overrides the min-separation radius (must be finite and `≥ 0`).
    ///
    /// # Panics
    /// Panics on a negative or non-finite radius.
    pub fn with_min_separation(mut self, min_separation: f64) -> Self {
        assert!(
            min_separation >= 0.0 && min_separation.is_finite(),
            "min_separation must be finite and non-negative, got {min_separation}"
        );
        self.min_separation = min_separation;
        self
    }

    /// Overrides the worker-thread count (must be `≥ 1`).
    ///
    /// # Panics
    /// Panics when `threads == 0`.
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "need at least one worker thread");
        self.threads = threads;
        self
    }
}

/// One proposed site: a window center, its cell-window position count,
/// and the anchor cell's Morton code (the ranking tie-break witness).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CandidateSite {
    /// Center of the winning window.
    pub center: Point,
    /// Positions inside the window's `s×s` cell footprint.
    pub score: u64,
    /// Morton code of the window's anchor (south-west) cell.
    pub anchor: u64,
}

/// Shape counters of one sweep, for logs and experiment reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SweepStats {
    /// Positions folded into the grid.
    pub n_positions: u64,
    /// Quad-subdivision depth actually used.
    pub depth: u64,
    /// Side of one grid cell.
    pub cell: f64,
    /// Window span `s` in cells per axis.
    pub window_cells: u64,
    /// Non-empty grid cells.
    pub nonempty_cells: u64,
    /// Distinct window anchors scored.
    pub anchors: u64,
}

/// The result of one sweep: the ranked sites plus shape counters.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Proposal {
    /// Emitted sites, best first.
    pub sites: Vec<CandidateSite>,
    /// Shape counters of the sweep that produced them.
    pub stats: SweepStats,
}

/// Spreads the low 32 bits of `v` onto the even bit positions: the east
/// (column) half of a Morton code. The north (row) half is `spread(row) << 1`,
/// and their union is bit-identical to [`mc2ls_geo::morton_code`] of any
/// point inside the cell, since [`grid_cells`] walks the same descent.
fn spread(v: u64) -> u64 {
    let mut v = v & 0xFFFF_FFFF;
    v = (v | (v << 16)) & 0x0000_FFFF_0000_FFFF;
    v = (v | (v << 8)) & 0x00FF_00FF_00FF_00FF;
    v = (v | (v << 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    v = (v | (v << 2)) & 0x3333_3333_3333_3333;
    (v | (v << 1)) & 0x5555_5555_5555_5555
}

/// The inverse of [`spread`]: gathers the even bits of `v` into the low
/// 32 bits.
fn compact(v: u64) -> u64 {
    let mut v = v & 0x5555_5555_5555_5555;
    v = (v | (v >> 1)) & 0x3333_3333_3333_3333;
    v = (v | (v >> 2)) & 0x0F0F_0F0F_0F0F_0F0F;
    v = (v | (v >> 4)) & 0x00FF_00FF_00FF_00FF;
    v = (v | (v >> 8)) & 0x0000_FFFF_0000_FFFF;
    (v | (v >> 16)) & 0xFFFF_FFFF
}

/// [`propose_soa`] over a `Point` slice.
pub fn propose(points: &[Point], cfg: &SweepConfig) -> Proposal {
    let xs: Vec<f64> = points.iter().map(|p| p.x).collect();
    let ys: Vec<f64> = points.iter().map(|p| p.y).collect();
    propose_soa(&xs, &ys, cfg)
}

/// [`propose_soa`] over the concatenated positions of one or more SoA
/// [`PositionBlocks`] — the serve layer's `PROPOSE` verb feeds a loaded
/// snapshot's per-shard blocks here without touching the original user
/// trajectories. Each shard's coordinate arrays are read in place. Shard
/// order only affects the concatenation order, never the result: the
/// sweep aggregates positions into grid cells first.
pub fn propose_from_blocks(shards: &[PositionBlocks], cfg: &SweepConfig) -> Proposal {
    let parts: Vec<(&[f64], &[f64])> = shards.iter().map(PositionBlocks::positions).collect();
    sweep(&parts, cfg)
}

/// Runs the sweep over parallel coordinate slices (the SoA layout of
/// [`PositionBlocks`]). Returns the top-`m` window centers, best first.
///
/// Deterministic at any `cfg.threads`; an empty input yields an empty
/// proposal; all-coincident positions yield exactly one site at that
/// point; a window at least as large as the data extent yields exactly
/// one site at the root center (every anchor clamps to the same window).
///
/// # Panics
/// Panics when `xs` and `ys` have different lengths, when any coordinate
/// is non-finite, or on an invalid config (see [`SweepConfig::new`]).
pub fn propose_soa(xs: &[f64], ys: &[f64], cfg: &SweepConfig) -> Proposal {
    assert_eq!(xs.len(), ys.len(), "xs/ys length mismatch");
    sweep(&[(xs, ys)], cfg)
}

/// The sweep over the concatenation of `parts`, each an equal-length
/// `(xs, ys)` slice pair.
fn sweep(parts: &[(&[f64], &[f64])], cfg: &SweepConfig) -> Proposal {
    assert!(cfg.window > 0.0 && cfg.window.is_finite(), "bad window");
    assert!(cfg.m >= 1, "m must be at least 1");
    assert!(cfg.threads >= 1, "need at least one worker thread");
    assert!(
        parts
            .iter()
            .all(|(xs, ys)| xs.iter().chain(ys.iter()).all(|v| v.is_finite())),
        "positions must be finite"
    );
    let n: usize = parts.iter().map(|(xs, _)| xs.len()).sum();
    if n == 0 {
        return Proposal::default();
    }

    // 1. Root square over the data extent (QuadTree::new convention).
    let extent: Extent = parts
        .iter()
        .flat_map(|(xs, ys)| xs.iter().zip(ys.iter()).map(|(&x, &y)| Point::new(x, y)))
        .collect();
    // lint:allow(panic-path): n >= 1 guarantees the extent is non-empty
    let rect = extent.rect().expect("non-empty extent");
    let side = rect.width().max(rect.height()).max(f64::MIN_POSITIVE);
    let root = Square::new(rect.min, side);

    // 2. Cell depth: halve until cell ≤ window/2 (so s = ⌈window/cell⌉
    //    stays in {1..4}), capped at MAX_GRID_DEPTH.
    let mut depth = 0usize;
    let mut cell = side;
    while depth < MAX_GRID_DEPTH && cell > cfg.window * 0.5 {
        depth += 1;
        cell *= 0.5;
    }
    let grid_n = 1u64 << depth;
    let s = ((cfg.window / cell).ceil() as u64).clamp(1, grid_n);
    let max_anchor = grid_n - s;

    // 3. Per-cell counts: radix-sort the row-major cell keys and
    //    run-length them. The sorted multiset is the same however the key
    //    pass was chunked, so the counts are too.
    let mut keys = cell_keys(parts, n, &root, depth, cfg.threads);
    radix_sort(&mut keys, 2 * depth);
    let mut rows: Vec<u64> = Vec::new();
    let mut row_starts: Vec<usize> = Vec::new();
    let mut cols: Vec<u64> = Vec::new();
    let mut counts: Vec<u64> = Vec::new();
    for run in keys.chunk_by(|a, b| a == b) {
        let key = u64::from(run[0]);
        let row = key >> depth;
        if rows.last() != Some(&row) {
            rows.push(row);
            row_starts.push(cols.len());
        }
        cols.push(key & (grid_n - 1));
        counts.push(run.len() as u64);
    }
    row_starts.push(cols.len());
    let nonempty_cells = cols.len() as u64;

    // 4. Separable s×s box sum. Row pass: each row's horizontal s-sums at
    //    its anchor columns. Column pass: per anchor row, merge the ≤ s
    //    row lists under it. Anchors come out in (row, column) order.
    let mut row_sums: Vec<(u64, u64)> = Vec::new();
    let mut sum_starts: Vec<usize> = vec![0];
    for w in row_starts.windows(2) {
        let counts = &counts[w[0]..w[1]];
        for_each_span(&cols[w[0]..w[1]], s, max_anchor, |ax, span| {
            row_sums.push((ax, counts[span].iter().sum()));
        });
        sum_starts.push(row_sums.len());
    }
    let mut ranked: Vec<(u64, Reverse<u64>)> = Vec::new();
    let mut heads: Vec<Range<usize>> = Vec::new();
    for_each_span(&rows, s, max_anchor, |ay, span| {
        let north = spread(ay) << 1;
        heads.clear();
        heads.extend(span.map(|r| sum_starts[r]..sum_starts[r + 1]));
        while let Some(ax) = heads
            .iter()
            .filter(|h| h.start < h.end)
            .map(|h| row_sums[h.start].0)
            .min()
        {
            let mut score = 0u64;
            for h in heads.iter_mut() {
                if h.start < h.end && row_sums[h.start].0 == ax {
                    score += row_sums[h.start].1;
                    h.start += 1;
                }
            }
            ranked.push((score, Reverse(north | spread(ax))));
        }
    });
    let n_anchors = ranked.len() as u64;

    // 5. Rank by (score desc, Morton asc) — the Morton key is unique per
    //    anchor, so the order is total — popping a max-heap only until m
    //    centers at least min_separation apart are kept.
    let mut heap = BinaryHeap::from(ranked);
    let half_span = s as f64 * 0.5;
    // `m` may arrive off the wire unbounded; at most one site per anchor.
    let mut sites: Vec<CandidateSite> = Vec::with_capacity(cfg.m.min(heap.len()));
    while sites.len() < cfg.m {
        let Some((score, Reverse(anchor))) = heap.pop() else {
            break;
        };
        let (ax, ay) = (compact(anchor), compact(anchor >> 1));
        let center = Point::new(
            root.origin.x + (ax as f64 + half_span) * cell,
            root.origin.y + (ay as f64 + half_span) * cell,
        );
        let separated = sites
            .iter()
            .all(|site| site.center.distance(&center) >= cfg.min_separation);
        if separated {
            sites.push(CandidateSite {
                center,
                score,
                anchor,
            });
        }
    }

    Proposal {
        sites,
        stats: SweepStats {
            n_positions: n as u64,
            depth: depth as u64,
            cell,
            window_cells: s,
            nonempty_cells,
            anchors: n_anchors,
        },
    }
}

/// Row-major cell keys `(row << depth) | column` of every position, in
/// input order. Each part's pass chunks across `threads`.
fn cell_keys(
    parts: &[(&[f64], &[f64])],
    n: usize,
    root: &Square,
    depth: usize,
    threads: usize,
) -> Vec<u32> {
    let mut keys = Vec::with_capacity(n);
    for &(xs, ys) in parts {
        let chunks = map_chunks(xs.len(), threads, |range| {
            let mut chunk = Vec::with_capacity(range.len());
            let mut cells = Vec::with_capacity(CELL_BATCH);
            let batches = xs[range.clone()]
                .chunks(CELL_BATCH)
                .zip(ys[range].chunks(CELL_BATCH));
            for (bx, by) in batches {
                grid_cells(root, depth, bx, by, &mut cells);
                // lint:allow(narrowing-cast): row and column are below 2^depth <= 2^16, so a key fits 32 bits
                chunk.extend(cells.iter().map(|&(cx, cy)| ((cy << depth) | cx) as u32));
            }
            chunk
        });
        for chunk in chunks {
            keys.extend_from_slice(&chunk);
        }
    }
    keys
}

/// Sorts `keys`, all below `2^bits`, ascending: an LSD radix sort in as
/// few passes of at most 11 bits as cover `bits`. One read counts every
/// pass's digits; a pass whose digit is the same for every key is skipped.
fn radix_sort(keys: &mut Vec<u32>, bits: usize) {
    let passes = bits.div_ceil(11);
    if passes == 0 {
        return;
    }
    let width = bits.div_ceil(passes);
    let buckets = 1usize << width;
    let digit = |k: u32, pass: usize| ((k >> (pass * width)) as usize) & (buckets - 1);
    let mut offsets = vec![0usize; passes * buckets];
    for &k in keys.iter() {
        for pass in 0..passes {
            offsets[pass * buckets + digit(k, pass)] += 1;
        }
    }
    let mut scratch = vec![0u32; keys.len()];
    for (pass, offsets) in offsets.chunks_exact_mut(buckets).enumerate() {
        if offsets.contains(&keys.len()) {
            continue;
        }
        let mut total = 0;
        for slot in offsets.iter_mut() {
            (*slot, total) = (total, total + *slot);
        }
        for &k in keys.iter() {
            let slot = &mut offsets[digit(k, pass)];
            scratch[*slot] = k;
            *slot += 1;
        }
        std::mem::swap(keys, &mut scratch);
    }
}

/// Visits, ascending, every anchor `a ≤ max_anchor` whose span
/// `[a, a + s)` holds one of the strictly ascending `coords`, with the
/// index range of the coords inside that span. These anchors are exactly
/// the clamped down shifts `min(c − d, max_anchor)` (saturating at 0,
/// `d < s`) of the coords: one axis of the sweep's anchor set.
fn for_each_span(
    coords: &[u64],
    s: u64,
    max_anchor: u64,
    mut visit: impl FnMut(u64, Range<usize>),
) {
    let (mut next, mut lo, mut hi) = (0u64, 0usize, 0usize);
    for &c in coords {
        let last = c.min(max_anchor);
        for a in c.saturating_sub(s - 1).max(next)..=last {
            while coords[lo] < a {
                lo += 1;
            }
            while hi < coords.len() && coords[hi] < a + s {
                hi += 1;
            }
            visit(a, lo..hi);
        }
        next = last + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc2ls_geo::{grid_coords, morton_code};

    #[test]
    fn interleave_matches_the_geo_morton_code() {
        let root = Square::new(Point::new(-3.0, 2.0), 8.0);
        for p in [
            Point::new(-2.5, 2.5),
            Point::new(4.9, 9.9),
            Point::new(1.0, 6.0),
            Point::new(0.999, 6.001),
        ] {
            for depth in [1usize, 4, 7, MAX_GRID_DEPTH] {
                let (cx, cy) = grid_coords(&root, depth, &p);
                let code = spread(cx) | (spread(cy) << 1);
                assert_eq!(code, morton_code(&root, depth, &p), "{p:?} depth {depth}");
                assert_eq!((compact(code), compact(code >> 1)), (cx, cy), "{p:?}");
            }
        }
    }

    #[test]
    fn radix_sort_matches_a_comparison_sort() {
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        for bits in [0usize, 1, 7, 11, 12, 20, 22, 23, 32] {
            let mask = if bits == 32 {
                u32::MAX
            } else {
                (1u32 << bits) - 1
            };
            let mut keys: Vec<u32> = (0..500)
                .map(|_| {
                    rng = rng
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (rng >> 32) as u32 & mask
                })
                .collect();
            let mut want = keys.clone();
            want.sort_unstable();
            radix_sort(&mut keys, bits);
            assert_eq!(keys, want, "bits {bits}");
        }
    }

    #[test]
    fn depth_halves_the_cell_until_half_a_window() {
        // side 16, window 1.0: cell must end at most 0.5 ⇒ depth 5.
        let points: Vec<Point> = vec![Point::new(0.0, 0.0), Point::new(16.0, 16.0)];
        let p = propose(&points, &SweepConfig::new(1.0, 1));
        assert_eq!(p.stats.depth, 5);
        assert!(p.stats.cell <= 0.5 && p.stats.cell > 0.25);
        assert_eq!(p.stats.window_cells, 2);
    }
}
