//! The IQuad-tree (Influence Quad-tree), the paper's user-MBR-free index
//! (§V-C) together with its `Traverse` procedure (Algorithm 3).
//!
//! The index partitions space into a hierarchy of squares whose leaf
//! diagonal is the configured `d̂`. Two pruning rules read it:
//!
//! * **IS rule (Lemma 2)** — a user with at least `⌈η(τ, PF, diag)⌉`
//!   positions inside a node's square is influenced by *every* abstract
//!   facility located in that square.
//! * **NIR rule (Lemma 3)** — a user with *no* position inside the leaf
//!   square inflated by `NIR = mMR(τ, r_max)` cannot be influenced by any
//!   facility in the leaf.
//!
//! No node is materialised. The tree is the users' positions in one array,
//! stably sorted by their depth-`D` Morton code: the node at level `ℓ` with
//! code prefix `P` is the range of positions whose code starts with `P`, and
//! its children split that range by the next 2-bit digit. The IS rule's
//! `Ω_inf` depends only on a node and its level's η, so the build computes
//! it once, at the levels where `η ≤ r_max` (no user reaches η elsewhere).
//! Each worker memoises the NIR candidates of the leaves it has seen
//! (`Ω_vrf`) in its [`TraverseScratch`], so facilities sharing a leaf are
//! handled batch-wise: the second and later pay one lookup, not a query.

mod codec;

// `morton_code(s)` lives in `mc2ls_geo`: it performs the same `quadrant_of`
// descent the paper's traversal does, so builder and traversal classify
// boundary positions identically, and it is shared with the blocked
// verification substrate in `mc2ls-influence`.
use mc2ls_geo::{morton_code, morton_codes, Point, Rect, Square};
use mc2ls_influence::{eta_count, non_influence_radius, MovingUser, ProbabilityFunction};
use std::collections::BTreeMap;
use std::ops::Range;

use crate::setops;

/// Widest digit of the build's LSD radix sort: 2^11 counters stay in L1.
const RADIX_BITS: usize = 11;

/// The result of traversing the IQuad-tree for one abstract facility.
#[derive(Debug, Clone, Default)]
pub struct TraverseOutcome {
    /// Users certainly influenced (caught by the IS rule at some level on
    /// the root→leaf path). Sorted.
    pub influenced: Vec<u32>,
    /// Users whose relationship is undecided and must be verified with the
    /// cumulative probability (the paper's `Ω'_v`). Sorted, disjoint from
    /// `influenced`. Every user in neither list is certainly *not*
    /// influenced (NIR rule).
    pub to_verify: Vec<u32>,
}

/// Shape statistics of an IQuad-tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IqtStats {
    /// Non-empty squares over every level, root included (the root counts
    /// even when no position is indexed).
    pub nodes: usize,
    /// Non-empty leaf-level squares (1 for a tree with no positions).
    pub leaves: usize,
    /// Tree depth (root = level 0; leaves at this level).
    pub depth: usize,
    /// Total positions indexed.
    pub positions: usize,
    /// Number of distinct users indexed.
    pub users: usize,
}

/// The IQuad-tree index over a set of moving users.
///
/// # Examples
/// ```
/// use mc2ls_geo::Point;
/// use mc2ls_influence::{MovingUser, Sigmoid};
/// use mc2ls_index::IQuadTree;
///
/// let users = vec![
///     MovingUser::new(vec![Point::new(0.0, 0.0), Point::new(0.1, 0.1)]),
///     MovingUser::new(vec![Point::new(40.0, 40.0), Point::new(40.1, 40.0)]),
/// ];
/// let tree = IQuadTree::build(&users, &Sigmoid::paper_default(), 0.5, 2.0);
/// let outcome = tree.traverse(&Point::new(0.05, 0.05), &mut tree.scratch());
/// // The far-away user is pruned by the NIR rule; only the nearby one
/// // can possibly be influenced.
/// assert!(!outcome.to_verify.contains(&1) && !outcome.influenced.contains(&1));
/// ```
#[derive(Debug, Clone)]
pub struct IQuadTree {
    root_square: Square,
    depth: usize,
    /// `⌈η⌉` per level (the paper's attached Hash structure keyed by the
    /// diagonal of each level); `None` when the IS rule cannot fire there.
    eta_by_level: Vec<Option<usize>>,
    nir: Option<f64>,
    r_max: usize,
    n_users: usize,
    /// The depth-`depth` Morton code of every position, ascending: the
    /// tree order.
    codes: Vec<u64>,
    /// The user of every position, in tree order. Within one code, users
    /// ascend (the sort is stable over user-id order).
    owner: Vec<u32>,
    /// Every position, in tree order.
    points: Vec<Point>,
    /// `Ω_inf` of every node where the IS rule fires, keyed by
    /// `(level, code prefix)` in ascending order; each user list is sorted.
    omega_inf: Vec<((usize, u64), Vec<u32>)>,
}

/// Per-worker state for [`IQuadTree::traverse`]: a dedup stamp for window
/// queries and the memo of every leaf's `Ω_vrf` this worker has computed.
/// `Ω_vrf` depends only on the leaf square and the immutable positions, so
/// memoising per worker changes *where* a result is cached, never *what*
/// it is: outcomes are identical for any scratch history.
#[derive(Debug)]
pub struct TraverseScratch {
    mark: Vec<u32>,
    epoch: u32,
    /// Leaf code → `Ω_vrf` (the users with a position in the leaf square
    /// inflated by NIR).
    omega_vrf: BTreeMap<u64, Vec<u32>>,
}

impl IQuadTree {
    /// The deepest tree the 64-bit Morton code holds (two bits per level).
    pub const MAX_DEPTH: usize = 31;

    /// Builds the index over `users` for threshold `tau` and probability
    /// function `pf`, with leaf squares of diagonal `leaf_diagonal` km (the
    /// paper's `d̂`, default 2 km in the experiments).
    ///
    /// # Panics
    /// Panics when `leaf_diagonal` is not finite and positive, when
    /// `tau ∉ (0, 1)`, or when [`IQuadTree::depth_for`] exceeds
    /// [`IQuadTree::MAX_DEPTH`] (the Morton-code budget).
    pub fn build<PF: ProbabilityFunction + ?Sized>(
        users: &[MovingUser],
        pf: &PF,
        tau: f64,
        leaf_diagonal: f64,
    ) -> Self {
        assert!(
            leaf_diagonal > 0.0 && leaf_diagonal.is_finite(),
            "leaf diagonal must be positive and finite"
        );
        assert!(tau > 0.0 && tau < 1.0, "tau must be in (0, 1)");

        let r_max = users.iter().map(MovingUser::len).max().unwrap_or(0);
        let nir = if r_max == 0 {
            None
        } else {
            non_influence_radius(pf, tau, r_max)
        };

        let (region, depth) = frame(users, leaf_diagonal);
        // Checked before any `1 << depth` below: a deeper tree would
        // overflow both the shifts and the 2·depth-bit Morton code.
        assert!(
            depth <= Self::MAX_DEPTH,
            "IQuad-tree depth {depth} exceeds the Morton-code budget; \
             use a larger leaf diagonal"
        );
        // Root square: the padded extent grown to a power-of-two multiple
        // of the leaf side so all leaves share one exact diagonal.
        let leaf_side = leaf_diagonal / std::f64::consts::SQRT_2;
        let root_side = leaf_side * (1u64 << depth) as f64;
        let root_square = Square::new(region.min, root_side);

        // η per level: level ℓ squares have diagonal root_diag / 2^ℓ.
        let root_diag = root_square.diagonal();
        let eta_by_level: Vec<Option<usize>> = (0..=depth)
            .map(|l| eta_count(pf, tau, root_diag / (1u64 << l) as f64))
            .collect();

        // Key every position in user-id order, then position order. The
        // radix sort is stable, so equal codes keep that order and the
        // array comes out in (code, user) order with no tie-break key.
        let total = users.iter().map(MovingUser::len).sum();
        let mut points: Vec<Point> = Vec::with_capacity(total);
        let mut owner_of: Vec<u32> = Vec::with_capacity(total);
        for (u, id) in users.iter().zip(0u32..) {
            points.extend_from_slice(u.positions());
            owner_of.extend(std::iter::repeat_n(id, u.len()));
        }
        let mut codes = Vec::new();
        morton_codes(&root_square, depth, &points, &mut codes);
        let order = radix_order(&codes, 2 * depth);

        let mut tree = IQuadTree {
            root_square,
            depth,
            eta_by_level,
            nir,
            r_max,
            n_users: users.len(),
            codes: Vec::with_capacity(total),
            owner: Vec::with_capacity(total),
            points: Vec::with_capacity(total),
            omega_inf: Vec::new(),
        };
        for i in order {
            let i = i as usize;
            tree.codes.push(codes[i]);
            tree.owner.push(owner_of[i]);
            tree.points.push(points[i]);
        }
        tree.omega_inf = tree.is_rule_table();
        tree
    }

    /// The depth a tree over `users` needs for leaves of diagonal
    /// `leaf_diagonal`: the halvings of the users' padded extent down to
    /// the leaf side. [`IQuadTree::build`] rejects a depth above
    /// [`IQuadTree::MAX_DEPTH`], so callers taking the diagonal from input
    /// can check it first. Saturates at `usize::MAX`.
    pub fn depth_for(users: &[MovingUser], leaf_diagonal: f64) -> usize {
        frame(users, leaf_diagonal).1
    }

    /// `Ω_inf` of every node at every level where `η_ℓ ≤ r_max`: one
    /// counting pass per such level over its node ranges. A node holding
    /// fewer than η positions cannot hold a user with η of them.
    fn is_rule_table(&self) -> Vec<((usize, u64), Vec<u32>)> {
        let mut table = Vec::new();
        let mut count = vec![0u32; self.n_users];
        let mut present: Vec<u32> = Vec::new();
        for (level, eta) in self.eta_by_level.iter().enumerate() {
            let Some(eta) = eta.filter(|&e| e <= self.r_max) else {
                continue;
            };
            let shift = 2 * (self.depth - level);
            let mut start = 0;
            while start < self.codes.len() {
                let prefix = self.codes[start] >> shift;
                let mut end = start + 1;
                while end < self.codes.len() && self.codes[end] >> shift == prefix {
                    end += 1;
                }
                if end - start >= eta {
                    for &u in &self.owner[start..end] {
                        if count[u as usize] == 0 {
                            present.push(u);
                        }
                        count[u as usize] += 1;
                    }
                    let mut users: Vec<u32> = present
                        .iter()
                        .copied()
                        .filter(|&u| count[u as usize] as usize >= eta)
                        .collect();
                    for u in present.drain(..) {
                        count[u as usize] = 0;
                    }
                    if !users.is_empty() {
                        users.sort_unstable();
                        table.push(((level, prefix), users));
                    }
                }
                start = end;
            }
        }
        table
    }

    /// The Non-influence Radius `NIR = mMR(τ, r_max)`; `None` when no user
    /// in the dataset can ever be influenced (then every traversal returns
    /// empty sets).
    pub fn nir(&self) -> Option<f64> {
        self.nir
    }

    /// Maximum number of positions over all indexed users.
    pub fn r_max(&self) -> usize {
        self.r_max
    }

    /// Leaf-square diagonal `d̂` in km.
    pub fn leaf_diagonal(&self) -> f64 {
        self.root_square.diagonal() / (1u64 << self.depth) as f64
    }

    /// The indexed root region; a facility outside it gets no IS pruning.
    // lint:allow(unread-pub): iqt_pinned.rs lays its pinned traversal probes over it
    pub fn root_region(&self) -> Rect {
        self.root_square.rect()
    }

    /// The root square, whose quad subdivision keys every position.
    pub fn root_square(&self) -> Square {
        self.root_square
    }

    /// The `⌈η⌉` table per level (index 0 = root). `None` entries mean the
    /// IS rule cannot fire at that scale.
    // lint:allow(unread-pub): iqt_pinned.rs's reference traversal applies the IS rule level by level from it
    pub fn eta_table(&self) -> &[Option<usize>] {
        &self.eta_by_level
    }

    /// Shape statistics. Two adjacent codes that first differ at level `ℓ`
    /// open one new node at each of the levels `ℓ..=depth`, so one pass
    /// over the codes counts every level's non-empty squares.
    pub fn stats(&self) -> IqtStats {
        let mut nodes = if self.codes.is_empty() {
            1
        } else {
            self.depth + 1
        };
        let mut leaves = 1;
        for w in self.codes.windows(2) {
            let diff = w[0] ^ w[1];
            if diff != 0 {
                leaves += 1;
                nodes += (63 - diff.leading_zeros() as usize) / 2 + 1;
            }
        }
        IqtStats {
            nodes,
            leaves,
            depth: self.depth,
            positions: self.points.len(),
            users: self.n_users,
        }
    }

    /// Structural sanitizer: checks the invariants the pruning rules rely
    /// on. Always callable; the body compiles away in release builds.
    ///
    /// # Panics
    /// Panics (debug builds only) when the arrays disagree in length, a
    /// code is not its position's Morton code, the positions are not in
    /// `(code, user)` order, a user id is out of range, or the `Ω_inf`
    /// table is unsorted or malformed.
    pub fn validate(&self) {
        #[cfg(debug_assertions)]
        {
            assert_eq!(
                self.eta_by_level.len(),
                self.depth + 1,
                "one eta entry per level"
            );
            assert_eq!(self.codes.len(), self.owner.len(), "one owner per code");
            let mut codes = Vec::new();
            morton_codes(&self.root_square, self.depth, &self.points, &mut codes);
            assert_eq!(codes, self.codes, "codes disagree with the positions");
            assert!(
                (1..self.codes.len())
                    .all(|i| (self.codes[i - 1], self.owner[i - 1])
                        <= (self.codes[i], self.owner[i])),
                "positions not in (code, user) order"
            );
            assert!(
                self.owner.iter().all(|&u| (u as usize) < self.n_users),
                "owner out of range"
            );
            assert!(
                self.omega_inf.windows(2).all(|w| w[0].0 < w[1].0),
                "omega_inf table not sorted by (level, prefix)"
            );
            for ((level, _), users) in &self.omega_inf {
                assert!(*level <= self.depth, "omega_inf entry below the leaf level");
                assert!(!users.is_empty(), "empty omega_inf entry");
                assert!(
                    users.windows(2).all(|w| w[0] < w[1]),
                    "omega_inf users not sorted"
                );
                assert!(
                    users.iter().all(|&u| (u as usize) < self.n_users),
                    "omega_inf user out of range"
                );
            }
        }
    }

    /// A fresh per-worker scratch for [`IQuadTree::traverse`].
    pub fn scratch(&self) -> TraverseScratch {
        TraverseScratch {
            mark: vec![0; self.n_users],
            epoch: 0,
            omega_vrf: BTreeMap::new(),
        }
    }

    /// Algorithm 3 (`Traverse`): classifies all users for the abstract
    /// facility at `v` using the IS and NIR rules.
    ///
    /// Takes `&self` (the tree is `Sync`), so workers chunking a batch of
    /// facilities traverse concurrently, each with its own `scratch`.
    /// Facilities sharing a leaf within one worker's chunk pay a single
    /// NIR query (the batch-wise property, per worker). The outcome does
    /// not depend on the scratch's history.
    pub fn traverse(&self, v: &Point, scratch: &mut TraverseScratch) -> TraverseOutcome {
        let Some(nir) = self.nir else {
            // No user can ever be influenced: nothing to verify either.
            return TraverseOutcome::default();
        };

        if !self.root_square.contains(v) {
            // v lies outside the indexed region: no IS pruning is possible;
            // fall back to an exact NIR ball around v.
            let rect = Rect::point(*v).inflate(nir);
            return TraverseOutcome {
                influenced: Vec::new(),
                to_verify: self.users_with_position_in(&rect, scratch),
            };
        }

        // Influenced users: union of Ω_inf along v's root→leaf path (IS
        // rule per level, Lemma 2 + the enlargement hierarchy of Fig. 4).
        // Only non-empty nodes where the rule fires have a table entry.
        let code = morton_code(&self.root_square, self.depth, v);
        let mut influenced: Vec<u32> = Vec::new();
        for level in 0..=self.depth {
            let key = (level, code >> (2 * (self.depth - level)));
            if let Ok(i) = self.omega_inf.binary_search_by_key(&key, |&(k, _)| k) {
                setops::union_into(&mut influenced, &self.omega_inf[i].1);
            }
        }

        // NIR rule at the leaf: candidates for influence are exactly the
        // users with ≥1 position inside □_NIR(leaf), memoised per leaf.
        let to_verify = match scratch.omega_vrf.get(&code) {
            Some(vrf) => setops::difference(vrf, &influenced),
            None => {
                let rect = self.square_of(self.depth, code).rect().inflate(nir);
                let vrf = self.users_with_position_in(&rect, scratch);
                let to_verify = setops::difference(&vrf, &influenced);
                scratch.omega_vrf.insert(code, vrf);
                to_verify
            }
        };
        TraverseOutcome {
            influenced,
            to_verify,
        }
    }

    /// The square of the node at `level` with code `prefix`, by the same
    /// `Square::child` descent the codes encode.
    fn square_of(&self, level: usize, prefix: u64) -> Square {
        (0..level).fold(self.root_square, |square, l| {
            square.child(((prefix >> (2 * (level - 1 - l))) & 3) as usize)
        })
    }

    /// Sorted ids of users having at least one position inside `rect`.
    ///
    /// Descends the node ranges: a fully covered square contributes the
    /// owners of its whole range; only partially covered leaves test
    /// positions. `scratch` only dedups; the output does not depend on it.
    fn users_with_position_in(&self, rect: &Rect, scratch: &mut TraverseScratch) -> Vec<u32> {
        scratch.epoch = scratch.epoch.wrapping_add(1);
        if scratch.epoch == 0 {
            // Epoch wrapped: clear stale marks once every 2^32 queries.
            scratch.mark.fill(0);
            scratch.epoch = 1;
        }
        let mut out: Vec<u32> = Vec::new();
        self.collect_users(
            0,
            0..self.codes.len(),
            self.root_square,
            rect,
            scratch,
            &mut out,
        );
        // `out` holds each user at most once (stamped); only a sort of the
        // unique ids remains.
        out.sort_unstable();
        out
    }

    fn collect_users(
        &self,
        level: usize,
        range: Range<usize>,
        square: Square,
        rect: &Rect,
        scratch: &mut TraverseScratch,
        out: &mut Vec<u32>,
    ) {
        let sq = square.rect();
        if range.is_empty() || !sq.intersects(rect) {
            return;
        }
        let mut mark = |u: u32| {
            let m = &mut scratch.mark[u as usize];
            if *m != scratch.epoch {
                *m = scratch.epoch;
                out.push(u);
            }
        };
        if rect.contains_rect(&sq) {
            self.owner[range].iter().for_each(|&u| mark(u));
            return;
        }
        if level == self.depth {
            for i in range {
                if rect.contains(&self.points[i]) {
                    mark(self.owner[i]);
                }
            }
            return;
        }
        // The range shares its first `level` digits, so the next digit
        // ascends through it: each child is one contiguous sub-range.
        let shift = 2 * (self.depth - 1 - level);
        let mut start = range.start;
        for q in 0..4u64 {
            let end =
                start + self.codes[start..range.end].partition_point(|&c| (c >> shift) & 3 <= q);
            self.collect_users(
                level + 1,
                start..end,
                square.child(q as usize),
                rect,
                scratch,
                out,
            );
            start = end;
        }
    }
}

/// The users' padded extent and the depth that halves it down to the leaf
/// side (saturating; unbounded until [`IQuadTree::build`] checks it).
///
/// The extent is the union of the users' cached MBRs, one rectangle per
/// user instead of one fold step per position. Each MBR comes from the same
/// min/max fold over that user's positions, so the union has the bounds a
/// fold over every position would have, up to the sign of a zero bound;
/// the `1e-6` pad maps `±0.0` to one value, so the root is bit-identical.
fn frame(users: &[MovingUser], leaf_diagonal: f64) -> (Rect, usize) {
    let region = users
        .iter()
        .map(|u| *u.mbr())
        .reduce(|a, b| a.union(&b))
        .map_or_else(
            || Rect::new(Point::ORIGIN, Point::new(1.0, 1.0)),
            |extent| extent.inflate(1e-6),
        );
    let leaf_side = leaf_diagonal / std::f64::consts::SQRT_2;
    let need = region.width().max(region.height()) / leaf_side;
    (region, need.log2().ceil().max(0.0) as usize)
}

/// The stable order of `codes` by their low `bits` bits: an LSD radix sort
/// of indices in the fewest passes of at most [`RADIX_BITS`]-bit digits.
fn radix_order(codes: &[u64], bits: usize) -> Vec<u32> {
    let mut order: Vec<u32> = (0..codes.len() as u32).collect();
    if bits == 0 {
        return order;
    }
    let passes = bits.div_ceil(RADIX_BITS);
    let width = bits.div_ceil(passes);
    let mask = (1u64 << width) - 1;
    let mut sorted = vec![0u32; codes.len()];
    let mut offsets = vec![0usize; 1 << width];
    for pass in 0..passes {
        let shift = pass * width;
        let digit = |i: usize| ((codes[i] >> shift) & mask) as usize;
        offsets.fill(0);
        for i in 0..codes.len() {
            offsets[digit(i)] += 1;
        }
        let mut sum = 0;
        for o in &mut offsets {
            sum += std::mem::replace(o, sum);
        }
        for &i in &order {
            let slot = &mut offsets[digit(i as usize)];
            sorted[*slot] = i;
            *slot += 1;
        }
        std::mem::swap(&mut order, &mut sorted);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc2ls_influence::{influences, Sigmoid};

    fn users_grid() -> Vec<MovingUser> {
        // 30 users, each with a small cluster of positions.
        (0..30)
            .map(|i| {
                let cx = (i % 6) as f64 * 3.0;
                let cy = (i / 6) as f64 * 3.0;
                MovingUser::new(
                    (0..5)
                        .map(|j| Point::new(cx + 0.1 * j as f64, cy + 0.07 * j as f64))
                        .collect(),
                )
            })
            .collect()
    }

    /// The root frame from the users' MBRs equals the frame from a fold
    /// over every position, bit for bit: with zero bounds of both signs
    /// (their union may keep a different zero than the fold), with a
    /// single-position user alone and beside longer ones, and with no user.
    #[test]
    fn frame_from_mbrs_matches_a_fold_over_every_position() {
        let p = Point::new;
        let cases: Vec<Vec<MovingUser>> = vec![
            vec![
                MovingUser::new(vec![p(-0.0, 0.0), p(3.0, -0.0)]),
                MovingUser::new(vec![p(0.0, -0.0)]),
                MovingUser::new(vec![p(-0.0, -0.0), p(0.0, 0.0)]),
            ],
            vec![
                MovingUser::new(vec![p(0.0, 0.0)]),
                MovingUser::new(vec![p(-0.0, -4.0), p(-0.0, -0.0)]),
            ],
            vec![MovingUser::new(vec![p(5.5, -2.25)])],
            vec![
                MovingUser::new(vec![p(5.5, -2.25)]),
                MovingUser::new(vec![p(1.0, 1.0), p(9.0, 7.0), p(-3.0, 2.0)]),
            ],
            Vec::new(),
        ];
        let pf = Sigmoid::paper_default();
        for (case, users) in cases.iter().enumerate() {
            let mut extent = mc2ls_geo::Extent::new();
            for u in users {
                extent.add_all(u.positions());
            }
            let want = extent
                .padded_rect(1e-6)
                .unwrap_or_else(|| Rect::new(Point::ORIGIN, Point::new(1.0, 1.0)));
            let (got, _) = frame(users, 2.0);
            let bits = |r: &Rect| [r.min.x, r.min.y, r.max.x, r.max.y].map(f64::to_bits);
            assert_eq!(bits(&got), bits(&want), "case {case}");
            let root = IQuadTree::build(users, &pf, 0.5, 2.0).root_square();
            assert_eq!(root.origin.x.to_bits(), want.min.x.to_bits(), "case {case}");
            assert_eq!(root.origin.y.to_bits(), want.min.y.to_bits(), "case {case}");
        }
    }

    #[test]
    fn build_shape_is_consistent() {
        let users = users_grid();
        let pf = Sigmoid::paper_default();
        let t = IQuadTree::build(&users, &pf, 0.7, 2.0);
        let s = t.stats();
        assert_eq!(s.users, 30);
        assert_eq!(s.positions, 150);
        assert!(s.leaves > 0 && s.nodes >= s.leaves);
        assert!((t.leaf_diagonal() - 2.0).abs() < 1e-9 || t.leaf_diagonal() < 2.0 + 1e-9);
        assert_eq!(t.r_max(), 5);
        assert_eq!(t.eta_table().len(), s.depth + 1);
    }

    #[test]
    fn traverse_classification_is_sound_and_complete() {
        let users = users_grid();
        let pf = Sigmoid::paper_default();
        let tau = 0.5;
        let t = IQuadTree::build(&users, &pf, tau, 2.0);
        let mut scratch = t.scratch();
        for v in [
            Point::new(0.2, 0.2),
            Point::new(7.5, 7.5),
            Point::new(15.0, 12.0),
            Point::new(-3.0, -3.0), // outside the region
        ] {
            let out = t.traverse(&v, &mut scratch);
            // influenced ∩ to_verify = ∅
            assert!(out
                .influenced
                .iter()
                .all(|&u| !setops::contains(&out.to_verify, u)));
            for (uid, u) in users.iter().enumerate() {
                let truth = influences(&pf, &v, u.positions(), tau);
                let uid = uid as u32;
                if setops::contains(&out.influenced, uid) {
                    assert!(
                        truth,
                        "IS rule admitted a non-influenced user {uid} at {v:?}"
                    );
                } else if !setops::contains(&out.to_verify, uid) {
                    assert!(!truth, "NIR rule pruned an influenced user {uid} at {v:?}");
                }
            }
        }
    }

    #[test]
    fn batchwise_traverse_is_cached_and_stable() {
        let users = users_grid();
        let pf = Sigmoid::paper_default();
        let t = IQuadTree::build(&users, &pf, 0.5, 2.0);
        let mut scratch = t.scratch();
        let v1 = Point::new(1.0, 1.0);
        let v2 = Point::new(1.05, 1.02); // same leaf
        let a = t.traverse(&v1, &mut scratch);
        assert_eq!(
            scratch.omega_vrf.len(),
            1,
            "the leaf's Omega_vrf is memoised"
        );
        let b1 = t.traverse(&v2, &mut scratch);
        assert_eq!(
            scratch.omega_vrf.len(),
            1,
            "a second facility in the leaf reuses it"
        );
        let b2 = t.traverse(&v2, &mut t.scratch());
        assert_eq!(b1.influenced, b2.influenced);
        assert_eq!(b1.to_verify, b2.to_verify);
        // Same leaf ⇒ same pruning sets (IS/NIR act on the square).
        assert_eq!(a.influenced, b1.influenced);
        assert_eq!(a.to_verify, b1.to_verify);
    }

    #[test]
    fn unreachable_tau_yields_empty_outcome() {
        // Single-position users can never reach τ=0.7 under the sigmoid
        // (PF(0) = 0.5 < 0.7), so NIR is None and everything is pruned.
        let users: Vec<MovingUser> = (0..5)
            .map(|i| MovingUser::new(vec![Point::new(i as f64, 0.0)]))
            .collect();
        let pf = Sigmoid::paper_default();
        let t = IQuadTree::build(&users, &pf, 0.7, 2.0);
        assert!(t.nir().is_none());
        let out = t.traverse(&Point::new(0.0, 0.0), &mut t.scratch());
        assert!(out.influenced.is_empty());
        assert!(out.to_verify.is_empty());
    }

    #[test]
    fn users_with_position_in_matches_brute_force() {
        let users = users_grid();
        let pf = Sigmoid::paper_default();
        let t = IQuadTree::build(&users, &pf, 0.5, 2.0);
        let mut scratch = t.scratch();
        // One fixed window, then windows from a small LCG over the grid and
        // beyond it (empty, partial and covering ones).
        let mut windows = vec![Rect::new(Point::new(2.0, 2.0), Point::new(9.0, 9.0))];
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut coord = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 11) as f64 / (1u64 << 53) as f64 * 24.0 - 4.0
        };
        for _ in 0..64 {
            let (a, b) = (Point::new(coord(), coord()), Point::new(coord(), coord()));
            windows.push(Rect::new(a, b));
        }
        for rect in windows {
            let got = t.users_with_position_in(&rect, &mut scratch);
            let mut want: Vec<u32> = users
                .iter()
                .enumerate()
                .filter(|(_, u)| u.positions().iter().any(|p| rect.contains(p)))
                .map(|(i, _)| i as u32)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want, "window {rect:?}");
        }
    }

    /// The children of every non-empty node split its range into four
    /// contiguous sub-ranges, one per quadrant, whose positions lie in the
    /// child's square: a node's position count is the sum of its
    /// children's.
    #[test]
    fn internal_counts_equal_sum_of_children() {
        let users = users_grid();
        let pf = Sigmoid::paper_default();
        let t = IQuadTree::build(&users, &pf, 0.5, 0.5);
        assert!(t.depth >= 3);
        let mut nodes = 0;
        // (level, prefix, range) of every non-empty node, parents first.
        let mut stack = vec![(0usize, 0u64, 0..t.codes.len())];
        while let Some((level, prefix, range)) = stack.pop() {
            nodes += 1;
            let square = t.square_of(level, prefix);
            let tol = square.side * 1e-12;
            for p in &t.points[range.clone()] {
                let r = square.rect();
                assert!(
                    p.x >= r.min.x - tol
                        && p.x <= r.max.x + tol
                        && p.y >= r.min.y - tol
                        && p.y <= r.max.y + tol,
                    "position {p:?} escapes its node square at level {level}"
                );
            }
            if level == t.depth {
                continue;
            }
            let shift = 2 * (t.depth - 1 - level);
            let mut start = range.start;
            for q in 0..4u64 {
                let len = t.codes[start..range.end]
                    .iter()
                    .take_while(|&&c| (c >> shift) & 3 == q)
                    .count();
                if len > 0 {
                    stack.push((level + 1, (prefix << 2) | q, start..start + len));
                }
                start += len;
            }
            assert_eq!(
                start, range.end,
                "children leave part of the range uncovered"
            );
        }
        assert_eq!(nodes, t.stats().nodes);
        assert_eq!(t.codes.len(), users.iter().map(|u| u.len()).sum::<usize>());
    }

    #[test]
    fn the_radix_order_is_stable_and_matches_a_comparison_sort() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for bits in [0, 2, 16, 22, 23, 40, 62] {
            let mask = if bits == 0 {
                0
            } else {
                u64::MAX >> (64 - bits)
            };
            let codes: Vec<u64> = (0..500)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    // Few distinct codes, so ties are common.
                    state & mask & !0xF0
                })
                .collect();
            let mut want: Vec<u32> = (0..500).collect();
            want.sort_by_key(|&i| codes[i as usize]);
            assert_eq!(radix_order(&codes, bits), want, "{bits} bits");
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the Morton-code budget")]
    fn a_leaf_too_small_for_the_morton_budget_is_rejected_before_any_shift() {
        // ~15 km of extent over a 1e-30 km leaf needs ~100 levels: the
        // budget check must fire before `1 << depth` overflows.
        IQuadTree::build(&users_grid(), &Sigmoid::paper_default(), 0.5, 1e-30);
    }

    #[test]
    fn depth_for_is_the_built_depth() {
        let users = users_grid();
        for leaf in [0.01, 0.5, 2.0, 100.0] {
            let t = IQuadTree::build(&users, &Sigmoid::paper_default(), 0.5, leaf);
            assert_eq!(IQuadTree::depth_for(&users, leaf), t.stats().depth);
        }
        assert!(IQuadTree::depth_for(&users, 1e-300) > IQuadTree::MAX_DEPTH);
    }

    #[test]
    #[should_panic(expected = "leaf diagonal must be positive and finite")]
    fn an_infinite_leaf_diagonal_is_rejected() {
        IQuadTree::build(&users_grid(), &Sigmoid::paper_default(), 0.5, f64::INFINITY);
    }

    #[test]
    fn morton_order_matches_geometric_descent() {
        let root = Square::new(Point::new(0.0, 0.0), 8.0);
        for p in [
            Point::new(0.5, 0.5),
            Point::new(7.9, 0.1),
            Point::new(4.0, 4.0), // exactly on every split line
            Point::new(3.999, 4.001),
        ] {
            let code = morton_code(&root, 3, &p);
            // Re-descend and check each 2-bit group matches quadrant_of.
            let mut sq = root;
            for level in 0..3 {
                let q = sq.quadrant_of(&p);
                assert_eq!(
                    ((code >> (2 * (2 - level))) & 3) as usize,
                    q,
                    "level {level} point {p:?}"
                );
                sq = sq.child(q);
            }
        }
    }

    #[test]
    fn tree_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<IQuadTree>();
    }

    #[test]
    fn traverse_shared_from_worker_threads() {
        let users = users_grid();
        let pf = Sigmoid::paper_default();
        let tau = 0.5;
        let t = IQuadTree::build(&users, &pf, tau, 2.0);
        let probes: Vec<Point> = (0..24)
            .map(|i| Point::new((i % 6) as f64 * 2.7 + 0.3, (i / 6) as f64 * 3.1 + 0.2))
            .collect();
        // Serial reference: one scratch across every probe.
        let mut serial = t.scratch();
        let want: Vec<TraverseOutcome> =
            probes.iter().map(|v| t.traverse(v, &mut serial)).collect();
        // 4 workers over contiguous chunks, each with a private scratch.
        let got: Vec<TraverseOutcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = probes
                .chunks(6)
                .map(|chunk| {
                    let tree = &t;
                    scope.spawn(move || {
                        let mut scratch = tree.scratch();
                        chunk
                            .iter()
                            .map(|v| tree.traverse(v, &mut scratch))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        for ((v, a), b) in probes.iter().zip(&want).zip(&got) {
            assert_eq!(a.influenced, b.influenced, "probe {v:?}");
            assert_eq!(a.to_verify, b.to_verify, "probe {v:?}");
        }
    }

    #[test]
    fn eta_table_grows_with_level_diagonal() {
        // Larger squares (smaller level index) need at least as many
        // positions; where defined, η must be non-increasing with level.
        let users = users_grid();
        let pf = Sigmoid::paper_default();
        let t = IQuadTree::build(&users, &pf, 0.3, 2.0);
        let table = t.eta_table();
        let defined: Vec<usize> = table.iter().flatten().copied().collect();
        for w in defined.windows(2) {
            assert!(w[0] >= w[1], "eta must shrink toward leaves: {table:?}");
        }
    }
}
