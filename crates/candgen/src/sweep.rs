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
//!    and per-cell counts are summed. The count pass chunks across threads
//!    ([`map_chunks`]) and merges per-key `u64` sums, so the aggregate is
//!    independent of the chunking.
//! 4. **Sweep.** Candidate window anchors are the non-empty cells and
//!    their `s×s` down-left shifts (clamped into the grid), deduplicated
//!    in `BTreeSet` order. Each anchor's score — positions inside its
//!    `s×s` cell window — is a row-range sum over a row-grouped sparse
//!    grid with per-row prefix sums and binary-searched column ranges.
//! 5. **Rank + dedup.** Anchors sort by (score descending, anchor Morton
//!    code ascending); a greedy pass emits window centers at least
//!    `min_separation` apart (Euclidean), stopping at `m`. Equal-score
//!    ties therefore resolve to the smallest Morton code, and a tied
//!    anchor too close to an already-accepted one is dropped.
//!
//! The sweep is a *heuristic at cell resolution* (classic MaxRS grid
//! approximation): the reported score counts the positions in the `s×s`
//! cell window, which contains the `r×r` continuous window anchored at
//! the same corner. Everything downstream re-scores the proposed sites
//! with the exact `cinf` pipeline, so the approximation only steers
//! *where* candidates are proposed, never how they are ranked by the
//! solver.

use mc2ls_core::parallel::{map_chunks, map_items};
use mc2ls_geo::{grid_cells, Extent, Point, Square};
use mc2ls_influence::PositionBlocks;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

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
    /// Worker threads for the count and score passes. Results are
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

/// Row-grouped sparse grid: per row (cell `y`), the sorted non-empty cell
/// `x` coordinates and an exclusive prefix sum of their counts, so any
/// `[x0, x1)` column-range sum is two binary searches and a subtraction.
struct SparseRows {
    rows: BTreeMap<u64, (Vec<u64>, Vec<u64>)>,
}

impl SparseRows {
    /// Builds the rows from `(row, column) → count` in key order.
    fn build(cells: &BTreeMap<(u64, u64), u64>) -> Self {
        let mut rows: BTreeMap<u64, (Vec<u64>, Vec<u64>)> = BTreeMap::new();
        for (&(cy, cx), &n) in cells {
            let (xs, prefix) = rows.entry(cy).or_insert_with(|| (Vec::new(), vec![0]));
            // BTreeMap iterates (cy, cx) ascending, so each row's xs
            // arrive sorted and the prefix extends monotonically.
            xs.push(cx);
            let last = *prefix.last().unwrap_or(&0);
            prefix.push(last + n);
        }
        SparseRows { rows }
    }

    /// Positions inside the `s×s` cell window anchored at `(ax, ay)`.
    fn window_sum(&self, ax: u64, ay: u64, s: u64) -> u64 {
        let mut total = 0u64;
        for (xs, prefix) in self.rows.range(ay..ay.saturating_add(s)).map(|(_, r)| r) {
            let lo = xs.partition_point(|&x| x < ax);
            let hi = xs.partition_point(|&x| x < ax.saturating_add(s));
            total += prefix[hi] - prefix[lo];
        }
        total
    }
}

/// Interleaves the per-axis cell coordinates of an anchor into its Morton
/// code — bit-identical to [`mc2ls_geo::morton_code`] of any point inside
/// the cell, since [`grid_cells`] walks the same descent.
fn interleave(cx: u64, cy: u64, depth: usize) -> u64 {
    let mut code = 0u64;
    for level in (0..depth).rev() {
        code = (code << 2) | (((cy >> level) & 1) << 1) | ((cx >> level) & 1);
    }
    code
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
/// trajectories. Shard order only affects the concatenation order, never
/// the result: the sweep aggregates positions into grid cells first.
pub fn propose_from_blocks(shards: &[PositionBlocks], cfg: &SweepConfig) -> Proposal {
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for blocks in shards {
        for b in 0..blocks.n_blocks() {
            let (bx, by) = blocks.block_positions(b);
            xs.extend_from_slice(bx);
            ys.extend_from_slice(by);
        }
    }
    propose_soa(&xs, &ys, cfg)
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
    assert!(cfg.window > 0.0 && cfg.window.is_finite(), "bad window");
    assert!(cfg.m >= 1, "m must be at least 1");
    assert!(cfg.threads >= 1, "need at least one worker thread");
    assert!(
        xs.iter().chain(ys.iter()).all(|v| v.is_finite()),
        "positions must be finite"
    );
    let n = xs.len();
    if n == 0 {
        return Proposal::default();
    }

    // 1. Root square over the data extent (QuadTree::new convention).
    let extent: Extent = (0..n).map(|i| Point::new(xs[i], ys[i])).collect();
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

    // 3. Per-cell counts, keyed (row, column): chunked across threads,
    //    merged by per-key sums — order-independent, so bit-identical at
    //    any thread count.
    let partials = map_chunks(n, cfg.threads, |range| {
        let mut m: BTreeMap<(u64, u64), u64> = BTreeMap::new();
        let mut cells = Vec::with_capacity(CELL_BATCH);
        let batches = xs[range.clone()]
            .chunks(CELL_BATCH)
            .zip(ys[range].chunks(CELL_BATCH));
        for (bx, by) in batches {
            grid_cells(&root, depth, bx, by, &mut cells);
            for &(cx, cy) in &cells {
                *m.entry((cy, cx)).or_insert(0) += 1;
            }
        }
        m
    });
    let mut cells: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    for partial in partials {
        for (key, count) in partial {
            *cells.entry(key).or_insert(0) += count;
        }
    }
    let nonempty_cells = cells.len() as u64;

    // 4. Anchors: every non-empty cell and its s×s down-left shifts,
    //    clamped so the window stays inside the grid. BTreeSet order makes
    //    the enumeration (and thus map_items chunking) deterministic.
    let max_anchor = grid_n - s;
    let mut anchor_set: BTreeSet<(u64, u64)> = BTreeSet::new();
    for &(cy, cx) in cells.keys() {
        for dy in 0..s {
            for dx in 0..s {
                let ax = cx.saturating_sub(dx).min(max_anchor);
                let ay = cy.saturating_sub(dy).min(max_anchor);
                anchor_set.insert((ay, ax));
            }
        }
    }
    let anchors: Vec<(u64, u64)> = anchor_set.into_iter().collect();

    let n_anchors = anchors.len() as u64;
    let rows = SparseRows::build(&cells);
    let scores: Vec<u64> = map_items(anchors.len(), cfg.threads, |i| {
        let (ay, ax) = anchors[i];
        rows.window_sum(ax, ay, s)
    });

    // 5. Rank by (score desc, Morton asc) — the Morton key is unique per
    //    anchor, so the order is total — then greedily keep centers at
    //    least min_separation apart.
    let mut ranked: Vec<(u64, u64, u64, u64)> = anchors
        .iter()
        .zip(scores.iter())
        .map(|(&(ay, ax), &score)| (score, interleave(ax, ay, depth), ax, ay))
        .collect();
    ranked.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));

    let half_span = s as f64 * 0.5;
    let mut sites: Vec<CandidateSite> = Vec::with_capacity(cfg.m);
    for (score, anchor, ax, ay) in ranked {
        if sites.len() == cfg.m {
            break;
        }
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
            for depth in [1usize, 4, 7] {
                let (cx, cy) = grid_coords(&root, depth, &p);
                assert_eq!(
                    interleave(cx, cy, depth),
                    morton_code(&root, depth, &p),
                    "{p:?} depth {depth}"
                );
            }
        }
    }

    #[test]
    fn sparse_rows_window_sums_match_a_dense_recount() {
        // A tiny 8×8 grid with a few occupied cells.
        let mut cells: BTreeMap<(u64, u64), u64> = BTreeMap::new();
        for &(cy, cx, n) in &[(0, 0, 3), (0, 5, 2), (2, 1, 7), (3, 3, 1), (7, 7, 4)] {
            cells.insert((cy, cx), n);
        }
        let rows = SparseRows::build(&cells);
        for s in [1u64, 2, 3] {
            for ay in 0..8 {
                for ax in 0..8 {
                    let dense: u64 = cells
                        .iter()
                        .filter(|(&(cy, cx), _)| cx >= ax && cx < ax + s && cy >= ay && cy < ay + s)
                        .map(|(_, &n)| n)
                        .sum();
                    assert_eq!(
                        rows.window_sum(ax, ay, s),
                        dense,
                        "anchor ({ax},{ay}) s={s}"
                    );
                }
            }
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
