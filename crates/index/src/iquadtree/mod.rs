//! The IQuad-tree (Influence Quad-tree), the paper's user-MBR-free index
//! (§V-C) together with its `Traverse` procedure (Algorithm 3).
//!
//! The index partitions space into a hierarchy of squares whose leaf
//! diagonal is the configured `d̂`. Each node stores how many positions of
//! each user fall inside its square. Two pruning rules read those counts:
//!
//! * **IS rule (Lemma 2)** — a user with at least `⌈η(τ, PF, diag)⌉`
//!   positions inside a node's square is influenced by *every* abstract
//!   facility located in that square.
//! * **NIR rule (Lemma 3)** — a user with *no* position inside the leaf
//!   square inflated by `NIR = mMR(τ, r_max)` cannot be influenced by any
//!   facility in the leaf.
//!
//! Everything a node learns is cached (`Ω_inf`, `Ω_vrf`), so facilities
//! sharing a node are handled batch-wise: the second and later facilities
//! in a node pay one cache lookup instead of a scan.

mod codec;
mod node;

// `morton_codes` lives in `mc2ls_geo`: it performs the same `quadrant_of`
// descent `traverse` does, so builder and traversal classify boundary
// positions identically, and it is shared with the blocked verification
// substrate in `mc2ls-influence`.
use mc2ls_geo::{morton_codes, Extent, Point, Rect, Square};
use mc2ls_influence::{eta_count, non_influence_radius, MovingUser, ProbabilityFunction};
use node::IqtNode;

use crate::setops;

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

/// Build/shape statistics of an IQuad-tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IqtStats {
    /// Total number of nodes materialised (sparse: empty squares are not).
    pub nodes: usize,
    /// Number of leaf nodes.
    pub leaves: usize,
    /// Tree depth (root = level 0; leaves at this level).
    pub depth: usize,
    /// Total positions stored at leaves.
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
/// let mut tree = IQuadTree::build(&users, &Sigmoid::paper_default(), 0.5, 2.0);
/// let outcome = tree.traverse(&Point::new(0.05, 0.05));
/// // The far-away user is pruned by the NIR rule; only the nearby one
/// // can possibly be influenced.
/// assert!(!outcome.to_verify.contains(&1) && !outcome.influenced.contains(&1));
/// ```
#[derive(Debug)]
pub struct IQuadTree {
    nodes: Vec<IqtNode>,
    root_square: Square,
    depth: usize,
    /// `⌈η⌉` per level (the paper's attached Hash structure keyed by the
    /// diagonal of each level); `None` when the IS rule cannot fire there.
    eta_by_level: Vec<Option<usize>>,
    nir: Option<f64>,
    r_max: usize,
    n_users: usize,
    /// Epoch-stamped per-user dedup marks for
    /// [`IQuadTree::users_with_position_in`] (avoids sorting
    /// duplicate-laden raw id lists on every NIR query). A `Mutex` (rather
    /// than a `RefCell`) keeps the tree `Sync`; the shared-traversal path
    /// never touches it — each worker carries its own [`TraverseScratch`].
    seen: std::sync::Mutex<Stamp>,
    /// Extent of the positions deleted by the in-flight
    /// [`IQuadTree::remove_user`] call (scratch state for its
    /// cache-invalidation pass).
    last_removed_mbr: Option<Rect>,
}

impl Clone for IQuadTree {
    fn clone(&self) -> Self {
        IQuadTree {
            nodes: self.nodes.clone(),
            root_square: self.root_square,
            depth: self.depth,
            eta_by_level: self.eta_by_level.clone(),
            nir: self.nir,
            r_max: self.r_max,
            n_users: self.n_users,
            seen: std::sync::Mutex::new(
                self.seen
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .clone(),
            ),
            last_removed_mbr: self.last_removed_mbr,
        }
    }
}

#[derive(Debug, Clone, Default)]
struct Stamp {
    mark: Vec<u32>,
    epoch: u32,
}

/// Per-worker state for [`IQuadTree::traverse_shared`]: a private dedup
/// stamp plus memos standing in for the node caches that the `&mut self`
/// path ([`IQuadTree::traverse`]) writes in place. Because a node's
/// `Ω_inf`/`Ω_vrf` depend only on the node's square and the (immutable
/// during a shared phase) indexed positions, memoising per worker instead of
/// per tree changes *where* results are cached, never *what* they are — the
/// batch-wise reuse property survives within each worker's chunk.
#[derive(Debug)]
pub struct TraverseScratch {
    stamp: Stamp,
    /// node index → `Ω_inf` (IS rule result) computed by this worker.
    omega_inf: std::collections::BTreeMap<u32, Vec<u32>>,
    /// leaf node index → `Ω_vrf` (NIR window users) computed by this worker.
    omega_vrf: std::collections::BTreeMap<u32, Vec<u32>>,
}

impl IQuadTree {
    /// Builds the index over `users` for threshold `tau` and probability
    /// function `pf`, with leaf squares of diagonal `leaf_diagonal` km (the
    /// paper's `d̂`, default 2 km in the experiments).
    ///
    /// # Panics
    /// Panics when `leaf_diagonal ≤ 0`, when `tau ∉ (0, 1)`, or when the
    /// users' extent needs more than 31 halvings to reach `leaf_diagonal`
    /// (the Morton-code budget).
    pub fn build<PF: ProbabilityFunction + ?Sized>(
        users: &[MovingUser],
        pf: &PF,
        tau: f64,
        leaf_diagonal: f64,
    ) -> Self {
        assert!(leaf_diagonal > 0.0, "leaf diagonal must be positive");
        assert!(tau > 0.0 && tau < 1.0, "tau must be in (0, 1)");

        let r_max = users.iter().map(MovingUser::len).max().unwrap_or(0);
        let nir = if r_max == 0 {
            None
        } else {
            non_influence_radius(pf, tau, r_max)
        };

        // Root square: the padded extent grown to a power-of-two multiple of
        // the leaf side so all leaves share one exact diagonal.
        let mut extent = Extent::new();
        for u in users {
            extent.add_all(u.positions());
        }
        let region = extent
            .padded_rect(1e-6)
            .unwrap_or_else(|| Rect::new(Point::ORIGIN, Point::new(1.0, 1.0)));
        let leaf_side = leaf_diagonal / std::f64::consts::SQRT_2;
        let need = region.width().max(region.height()) / leaf_side;
        let depth = need.log2().ceil().max(0.0) as usize;
        // Checked before any `1 << depth` below: a deeper tree would
        // overflow both the shifts and the 2·depth-bit Morton code.
        assert!(
            depth <= 31,
            "IQuad-tree depth {depth} exceeds the Morton-code budget; \
             use a larger leaf diagonal"
        );
        let root_side = leaf_side * (1u64 << depth) as f64;
        let root_square = Square::new(region.min, root_side);

        // η per level: level ℓ squares have diagonal root_diag / 2^ℓ.
        let root_diag = root_square.diagonal();
        let eta_by_level: Vec<Option<usize>> = (0..=depth)
            .map(|l| eta_count(pf, tau, root_diag / (1u64 << l) as f64))
            .collect();

        let mut tree = IQuadTree {
            nodes: Vec::new(),
            root_square,
            depth,
            eta_by_level,
            nir,
            r_max,
            n_users: users.len(),
            seen: std::sync::Mutex::new(Stamp {
                mark: vec![0; users.len()],
                epoch: 0,
            }),
            last_removed_mbr: None,
        };

        // Morton-order construction: one code per position (computed by the
        // same quadrant descent `traverse` uses, so builder and traversal
        // agree bit-for-bit on boundary positions), one global sort, then
        // every node is a contiguous range. Sorting by (code, user) makes
        // each leaf range user-sorted, so leaf counts fall out of a
        // run-length scan and internal counts out of child merges — no
        // per-node sorting at all.
        let total: usize = users.iter().map(MovingUser::len).sum();
        let mut items: Vec<(u64, u32, Point)> = Vec::with_capacity(total);
        let mut codes: Vec<u64> = Vec::new();
        for (id, u) in users.iter().enumerate() {
            morton_codes(&root_square, depth, u.positions(), &mut codes);
            items.extend(
                codes
                    .iter()
                    .zip(u.positions())
                    .map(|(&code, &p)| (code, id as u32, p)),
            );
        }
        // Single u128 key (code ≤ 62 bits ‖ user 32 bits) sorts faster than
        // a lexicographic tuple comparison.
        items.sort_unstable_by_key(|&(code, user, _)| ((code as u128) << 32) | user as u128);
        tree.build_range(root_square, 0, &items);
        tree
    }

    /// Recursively materialises the subtree for `square` at `level` from a
    /// Morton-contiguous, (code, user)-sorted range. Returns the node index
    /// (nodes are only created for non-empty squares; the root is created
    /// even when empty).
    fn build_range(&mut self, square: Square, level: usize, items: &[(u64, u32, Point)]) -> u32 {
        let idx = self.nodes.len() as u32;
        self.nodes.push(IqtNode {
            square,
            level,
            children: [None; 4],
            counts: Vec::new(),
            points: Vec::new(),
            omega_inf: None,
            omega_vrf: None,
        });

        if level == self.depth {
            let mut counts: Vec<(u32, u32)> = Vec::new();
            for &(_, u, _) in items {
                match counts.last_mut() {
                    Some((last, c)) if *last == u => *c += 1,
                    _ => counts.push((u, 1)),
                }
            }
            let node = &mut self.nodes[idx as usize];
            node.counts = counts;
            node.points = items.iter().map(|&(_, u, p)| (u, p)).collect();
            return idx;
        }

        let shift = 2 * (self.depth - 1 - level);
        let mut counts: Vec<(u32, u32)> = Vec::new();
        let mut start = 0usize;
        for q in 0..4u64 {
            let len = items[start..].partition_point(|&(code, _, _)| (code >> shift) & 3 <= q);
            let end = start + len;
            if end > start {
                let child =
                    self.build_range(square.child(q as usize), level + 1, &items[start..end]);
                self.nodes[idx as usize].children[q as usize] = Some(child);
                let merged = merge_counts(&counts, &self.nodes[child as usize].counts);
                counts = merged;
            }
            start = end;
        }
        debug_assert_eq!(start, items.len());
        self.nodes[idx as usize].counts = counts;
        idx
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

    /// The indexed root region; [`IQuadTree::insert_user`] only accepts
    /// positions inside it.
    pub fn root_region(&self) -> Rect {
        self.root_square.rect()
    }

    /// The `⌈η⌉` table per level (index 0 = root). `None` entries mean the
    /// IS rule cannot fire at that scale.
    pub fn eta_table(&self) -> &[Option<usize>] {
        &self.eta_by_level
    }

    /// Shape statistics.
    pub fn stats(&self) -> IqtStats {
        IqtStats {
            nodes: self.nodes.len(),
            leaves: self.nodes.iter().filter(|n| n.is_leaf()).count(),
            depth: self.depth,
            positions: self.nodes.iter().map(|n| n.points.len()).sum(),
            users: self.n_users,
        }
    }

    /// Structural sanitizer: checks the node-hierarchy invariants the
    /// pruning rules rely on. Always callable; the body compiles away in
    /// release builds.
    ///
    /// # Panics
    /// Panics (debug builds only) when a child node's square escapes its
    /// parent's, levels are inconsistent, a count table is unsorted or
    /// disagrees with the children/points, or a cached `Ω` list is
    /// malformed.
    pub fn validate(&self) {
        #[cfg(debug_assertions)]
        {
            assert_eq!(
                self.eta_by_level.len(),
                self.depth + 1,
                "one eta entry per level"
            );
            for (i, node) in self.nodes.iter().enumerate() {
                assert!(node.level <= self.depth, "node below the leaf level");
                assert!(
                    node.counts.windows(2).all(|w| w[0].0 < w[1].0),
                    "node {i}: counts not sorted by user id"
                );
                for &(u, c) in &node.counts {
                    assert!((u as usize) < self.n_users, "node {i}: user out of range");
                    assert!(c > 0, "node {i}: zero count entry");
                }
                if node.level == self.depth {
                    assert!(node.is_leaf(), "leaf-level node with children");
                    // Leaf position multiset must reproduce the counts.
                    let total: u32 = node.counts.iter().map(|&(_, c)| c).sum();
                    assert_eq!(
                        total as usize,
                        node.points.len(),
                        "node {i}: counts disagree with stored points"
                    );
                } else {
                    assert!(node.points.is_empty(), "inner node {i} stores points");
                    let child_total: u32 = node
                        .children
                        .iter()
                        .flatten()
                        .map(|&c| {
                            let child = &self.nodes[c as usize];
                            assert_eq!(
                                child.level,
                                node.level + 1,
                                "child of node {i} skips a level"
                            );
                            // One-ulp slack: (origin + h) + h may round a
                            // hair past origin + side.
                            let tol = node.square.side * 1e-12;
                            let p = node.square.rect();
                            let c = child.square.rect();
                            assert!(
                                p.min.x - tol <= c.min.x
                                    && p.min.y - tol <= c.min.y
                                    && p.max.x + tol >= c.max.x
                                    && p.max.y + tol >= c.max.y,
                                "child square of node {i} escapes its parent"
                            );
                            child.counts.iter().map(|&(_, n)| n).sum::<u32>()
                        })
                        .sum();
                    let own_total: u32 = node.counts.iter().map(|&(_, c)| c).sum();
                    assert_eq!(
                        own_total, child_total,
                        "node {i}: counts disagree with its children"
                    );
                }
                for omega in [&node.omega_inf, &node.omega_vrf].into_iter().flatten() {
                    assert!(
                        omega.windows(2).all(|w| w[0] < w[1]),
                        "node {i}: cached omega list not sorted"
                    );
                    assert!(
                        omega.iter().all(|&u| (u as usize) < self.n_users),
                        "node {i}: cached omega user out of range"
                    );
                }
            }
        }
    }

    /// Inserts one more moving user into a built index (the streaming
    /// scenario of the related work: check-in streams keep arriving after
    /// deployment). Node counts along every affected path are updated and
    /// stale caches invalidated, so subsequent [`IQuadTree::traverse`]
    /// calls behave exactly as if the tree had been built with the user
    /// from the start. Returns the new user's id.
    ///
    /// `pf`/`tau` must match the values the tree was built with — they are
    /// needed to re-derive `NIR` when the new user raises `r_max`.
    ///
    /// # Errors
    /// Returns `Err` with the offending position when any position falls
    /// outside the indexed root region (the region is fixed at build time).
    pub fn insert_user<PF: ProbabilityFunction + ?Sized>(
        &mut self,
        user: &MovingUser,
        pf: &PF,
        tau: f64,
    ) -> Result<u32, Point> {
        let root_rect = self.root_square.rect();
        if let Some(p) = user.positions().iter().find(|p| !root_rect.contains(p)) {
            return Err(*p);
        }
        let uid = self.n_users as u32;
        self.n_users += 1;
        self.seen
            .get_mut()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .mark
            .push(0);

        self.raise_r_max(user.len(), pf, tau);
        self.insert_positions(uid, user);

        // Leaves whose NIR window now sees the new positions carry stale
        // Ω_vrf caches: a leaf L is affected iff some new position lies in
        // L.rect.inflate(NIR) ⟺ L.rect intersects position ± NIR.
        if let Some(nir) = self.nir {
            let window = user.mbr().inflate(nir);
            self.invalidate_vrf_in(0, &window);
        }
        Ok(uid)
    }

    /// Replaces user `uid`'s trajectory: removes every indexed position of
    /// the id, then re-inserts the new positions under the **same** id —
    /// the check-in/move side of the streaming scenario, keeping ids
    /// stable for the surrounding influence state. Subsequent traversals
    /// behave exactly as if the tree had been built with the new
    /// trajectory from the start. Returns the number of old positions
    /// removed (0 when the id is unknown, in which case nothing is
    /// inserted either).
    ///
    /// `pf`/`tau` must match the build-time values, as for
    /// [`IQuadTree::insert_user`].
    ///
    /// # Errors
    /// Returns `Err` with the offending position when any new position
    /// falls outside the indexed root region; the tree is unchanged.
    pub fn move_user<PF: ProbabilityFunction + ?Sized>(
        &mut self,
        uid: u32,
        user: &MovingUser,
        pf: &PF,
        tau: f64,
    ) -> Result<usize, Point> {
        let root_rect = self.root_square.rect();
        if let Some(p) = user.positions().iter().find(|p| !root_rect.contains(p)) {
            return Err(*p);
        }
        if uid as usize >= self.n_users {
            return Ok(0);
        }
        let removed = self.remove_user(uid);
        self.raise_r_max(user.len(), pf, tau);
        self.insert_positions(uid, user);
        if let Some(nir) = self.nir {
            let window = user.mbr().inflate(nir);
            self.invalidate_vrf_in(0, &window);
        }
        Ok(removed)
    }

    /// Growing `r_max` loosens NIR: every cached Ω_vrf may be too small.
    fn raise_r_max<PF: ProbabilityFunction + ?Sized>(&mut self, r: usize, pf: &PF, tau: f64) {
        if r > self.r_max {
            self.r_max = r;
            self.nir = non_influence_radius(pf, tau, self.r_max);
            for node in &mut self.nodes {
                node.omega_vrf = None;
            }
        }
    }

    /// The shared position walk of [`IQuadTree::insert_user`] and
    /// [`IQuadTree::move_user`]: threads every position down its root→leaf
    /// path, updating node counts, storing leaf points, materialising
    /// missing child nodes and dropping stale caches along the way.
    /// Callers have already validated that every position lies inside the
    /// root region and that `uid` is allocated.
    fn insert_positions(&mut self, uid: u32, user: &MovingUser) {
        for p in user.positions() {
            let mut square = self.root_square;
            let mut idx = 0usize;
            for level in 0..=self.depth {
                let node = &mut self.nodes[idx];
                // Counts and cached rule results of this node change.
                match node.counts.binary_search_by_key(&uid, |&(u, _)| u) {
                    Ok(i) => node.counts[i].1 += 1,
                    Err(i) => node.counts.insert(i, (uid, 1)),
                }
                node.omega_inf = None;
                node.omega_vrf = None;
                if level == self.depth {
                    node.points.push((uid, *p));
                    break;
                }
                let q = square.quadrant_of(p);
                square = square.child(q);
                idx = match self.nodes[idx].children[q] {
                    Some(c) => c as usize,
                    None => {
                        let new_idx = self.nodes.len() as u32;
                        self.nodes.push(IqtNode {
                            square,
                            level: level + 1,
                            children: [None; 4],
                            counts: Vec::new(),
                            points: Vec::new(),
                            omega_inf: None,
                            omega_vrf: None,
                        });
                        self.nodes[idx].children[q] = Some(new_idx);
                        new_idx as usize
                    }
                };
            }
        }
    }

    fn invalidate_vrf_in(&mut self, idx: usize, window: &Rect) {
        let sq = self.nodes[idx].square.rect();
        if !sq.intersects(window) {
            return;
        }
        self.nodes[idx].omega_vrf = None;
        let children = self.nodes[idx].children;
        for child in children.into_iter().flatten() {
            self.invalidate_vrf_in(child as usize, window);
        }
    }

    /// Removes every position of user `uid` from the index (the expiry side
    /// of the streaming scenario: a user's records age out). The id itself
    /// stays allocated — it simply never appears in any traversal outcome
    /// again, exactly as if the user had never been inserted.
    ///
    /// `NIR` is *not* shrunk even when the removed user carried `r_max`:
    /// a too-large NIR is conservative (more verification, never a wrong
    /// decision), and recomputing `r_max` would require a full rescan.
    ///
    /// Returns the number of positions removed (0 when the id is unknown
    /// or was already removed).
    pub fn remove_user(&mut self, uid: u32) -> usize {
        if uid as usize >= self.n_users {
            return 0;
        }
        let removed = self.remove_user_rec(0, uid);
        if removed > 0 {
            if let Some(nir) = self.nir {
                // Stale Ω_vrf caches around the removed positions would
                // keep offering the user for verification; clear them. The
                // affected area is bounded by the removed positions, whose
                // extent the recursive pass tracked via `last_removed_mbr`.
                if let Some(mbr) = self.last_removed_mbr.take() {
                    let window = mbr.inflate(nir);
                    self.invalidate_vrf_in(0, &window);
                }
            }
        }
        removed
    }

    fn remove_user_rec(&mut self, idx: usize, uid: u32) -> usize {
        let Ok(pos) = self.nodes[idx]
            .counts
            .binary_search_by_key(&uid, |&(u, _)| u)
        else {
            return 0;
        };
        self.nodes[idx].counts.remove(pos);
        self.nodes[idx].omega_inf = None;
        self.nodes[idx].omega_vrf = None;
        if self.nodes[idx].level == self.depth {
            let points = std::mem::take(&mut self.nodes[idx].points);
            let before = points.len();
            let mut kept = Vec::with_capacity(before);
            for (u, p) in points {
                if u == uid {
                    // Track the extent of removed positions for the cache
                    // invalidation pass in `remove_user`.
                    match &mut self.last_removed_mbr {
                        Some(m) => m.expand_to(&p),
                        none => *none = Some(Rect::point(p)),
                    }
                } else {
                    kept.push((u, p));
                }
            }
            let removed = before - kept.len();
            self.nodes[idx].points = kept;
            return removed;
        }
        let children = self.nodes[idx].children;
        let mut removed = 0;
        for child in children.into_iter().flatten() {
            removed += self.remove_user_rec(child as usize, uid);
        }
        removed
    }

    /// Algorithm 3 (`Traverse`): classifies all users for the abstract
    /// facility at `v` using the IS and NIR rules, reusing every previously
    /// cached node result (the batch-wise property).
    pub fn traverse(&mut self, v: &Point) -> TraverseOutcome {
        let Some(nir) = self.nir else {
            // No user can ever be influenced: nothing to verify either.
            return TraverseOutcome::default();
        };

        if !self.root_square.contains(v) {
            // v lies outside the indexed region: no IS pruning is possible;
            // fall back to an exact NIR ball around v.
            let rect = Rect::point(*v).inflate(nir);
            let possible = self.users_with_position_in(&rect);
            return TraverseOutcome {
                influenced: Vec::new(),
                to_verify: possible,
            };
        }

        // Influenced users: union of Ω_inf along the root→leaf path of
        // existing nodes containing v (IS rule per level, Lemma 2 + the
        // enlargement hierarchy of Fig. 4). The geometric descent continues
        // even where no node is materialised so the NIR rectangle stays
        // tight around the true leaf square.
        let mut influenced: Vec<u32> = Vec::new();
        let mut square = self.root_square;
        let mut cursor: Option<u32> = Some(0);
        for level in 0..=self.depth {
            if let Some(ci) = cursor {
                self.ensure_omega_inf(ci as usize);
                // ensure_omega_inf has just materialised the cache; an
                // (unreachable) empty fallback keeps this panic-free.
                if let Some(inf) = self.nodes[ci as usize].omega_inf.as_deref() {
                    setops::union_into(&mut influenced, inf);
                }
            }
            if level < self.depth {
                let q = square.quadrant_of(v);
                cursor = cursor.and_then(|ci| self.nodes[ci as usize].children[q]);
                square = square.quadrants()[q];
            }
        }
        // `square` is now the geometric leaf square containing v, and
        // `cursor` the materialised leaf node when the path exists.
        let leaf_node = cursor.map(|c| c as usize);

        // NIR rule at the leaf: candidates for influence are exactly the
        // users with ≥1 position inside □_NIR(leaf). Cached on the
        // materialised leaf (batch-wise reuse); computed on the fly for the
        // rare facility sitting in an empty leaf square.
        let to_verify = if let Some(leaf) = leaf_node {
            debug_assert_eq!(self.nodes[leaf].level, self.depth);
            if self.nodes[leaf].omega_vrf.is_none() {
                let rect = self.nodes[leaf].square.rect().inflate(nir);
                let possible = self.users_with_position_in(&rect);
                self.nodes[leaf].omega_vrf = Some(possible);
            }
            // Filled two lines up when absent; the empty fallback is
            // unreachable but keeps this branch panic-free.
            let cached = self.nodes[leaf].omega_vrf.as_deref().unwrap_or(&[]);
            setops::difference(cached, &influenced)
        } else {
            let rect = square.rect().inflate(nir);
            let possible = self.users_with_position_in(&rect);
            setops::difference(&possible, &influenced)
        };
        TraverseOutcome {
            influenced,
            to_verify,
        }
    }

    /// A fresh per-worker scratch for [`IQuadTree::traverse_shared`].
    pub fn scratch(&self) -> TraverseScratch {
        TraverseScratch {
            stamp: Stamp {
                mark: vec![0; self.n_users],
                epoch: 0,
            },
            omega_inf: std::collections::BTreeMap::new(),
            omega_vrf: std::collections::BTreeMap::new(),
        }
    }

    /// Read-only [`IQuadTree::traverse`] for concurrent use: takes `&self`
    /// (the tree is `Sync`) and caches node results in the caller-owned
    /// `scratch` instead of on the nodes. The outcome is **bit-identical**
    /// to `traverse` for every `v` — both classify by the leaf square
    /// containing `v`, and the IS/NIR computations read only immutable
    /// build-time state (assertion-tested below and in the core crate's
    /// parallel-equivalence suite).
    ///
    /// Workers chunking a batch of facilities each hold one scratch, so
    /// facilities sharing a leaf within a chunk still pay a single
    /// computation (the batch-wise property, per worker).
    ///
    /// Scratch memos mirror node caches, so the same invalidation contract
    /// applies: after [`IQuadTree::insert_user`]/[`IQuadTree::remove_user`],
    /// discard old scratches and start fresh ones (the dedup marks
    /// self-heal, the memos do not).
    pub fn traverse_shared(&self, v: &Point, scratch: &mut TraverseScratch) -> TraverseOutcome {
        let Some(nir) = self.nir else {
            // No user can ever be influenced: nothing to verify either.
            return TraverseOutcome::default();
        };

        if !self.root_square.contains(v) {
            // v lies outside the indexed region: no IS pruning is possible;
            // fall back to an exact NIR ball around v.
            let rect = Rect::point(*v).inflate(nir);
            let possible = self.users_in_rect(&rect, &mut scratch.stamp);
            return TraverseOutcome {
                influenced: Vec::new(),
                to_verify: possible,
            };
        }

        // Root→leaf descent, mirroring `traverse` line for line; the only
        // difference is where Ω_inf/Ω_vrf get cached.
        let mut influenced: Vec<u32> = Vec::new();
        let mut square = self.root_square;
        let mut cursor: Option<u32> = Some(0);
        for level in 0..=self.depth {
            if let Some(ci) = cursor {
                if let Some(inf) = self.nodes[ci as usize].omega_inf.as_deref() {
                    // A pre-warmed tree (serial traversals before the
                    // parallel phase) already carries the node cache.
                    setops::union_into(&mut influenced, inf);
                } else {
                    let inf = scratch
                        .omega_inf
                        .entry(ci)
                        .or_insert_with(|| self.compute_omega_inf(ci as usize));
                    setops::union_into(&mut influenced, inf);
                }
            }
            if level < self.depth {
                let q = square.quadrant_of(v);
                cursor = cursor.and_then(|ci| self.nodes[ci as usize].children[q]);
                square = square.quadrants()[q];
            }
        }
        let leaf_node = cursor.map(|c| c as usize);

        let to_verify = if let Some(leaf) = leaf_node {
            debug_assert_eq!(self.nodes[leaf].level, self.depth);
            if let Some(vrf) = self.nodes[leaf].omega_vrf.as_deref() {
                setops::difference(vrf, &influenced)
            } else {
                let leaf_key = leaf as u32;
                if !scratch.omega_vrf.contains_key(&leaf_key) {
                    let rect = self.nodes[leaf].square.rect().inflate(nir);
                    let possible = self.users_in_rect(&rect, &mut scratch.stamp);
                    scratch.omega_vrf.insert(leaf_key, possible);
                }
                setops::difference(&scratch.omega_vrf[&leaf_key], &influenced)
            }
        } else {
            let rect = square.rect().inflate(nir);
            let possible = self.users_in_rect(&rect, &mut scratch.stamp);
            setops::difference(&possible, &influenced)
        };
        TraverseOutcome {
            influenced,
            to_verify,
        }
    }

    /// Computes (or reuses) `Ω_inf` of a node: users whose position count in
    /// the node square reaches the level's `⌈η⌉`.
    fn ensure_omega_inf(&mut self, idx: usize) {
        if self.nodes[idx].omega_inf.is_some() {
            return;
        }
        let omega = self.compute_omega_inf(idx);
        self.nodes[idx].omega_inf = Some(omega);
    }

    /// `Ω_inf` of a node from its counts alone (the IS rule, Lemma 2).
    /// Counts are user-sorted, so the filtered ids come out sorted.
    fn compute_omega_inf(&self, idx: usize) -> Vec<u32> {
        match self.eta_by_level[self.nodes[idx].level] {
            Some(eta) => {
                let eta = eta as u32;
                self.nodes[idx]
                    .counts
                    .iter()
                    .filter(|&&(_, c)| c >= eta)
                    .map(|&(u, _)| u)
                    .collect()
            }
            None => Vec::new(),
        }
    }

    /// Sorted ids of users having at least one position inside `rect`.
    ///
    /// Fully covered nodes contribute their whole user list without
    /// descending; partially covered leaves test exact positions.
    pub fn users_with_position_in(&self, rect: &Rect) -> Vec<u32> {
        // A poisoned lock only means another traversal panicked mid-query;
        // the stamp is epoch-guarded, so its state is still valid.
        let mut stamp = self
            .seen
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        self.users_in_rect(rect, &mut stamp)
    }

    /// [`IQuadTree::users_with_position_in`] driven by an explicit stamp —
    /// the tree's own (serial path) or a worker's scratch (shared path).
    /// The stamp only dedups; the sorted output is stamp-independent.
    fn users_in_rect(&self, rect: &Rect, stamp: &mut Stamp) -> Vec<u32> {
        stamp.epoch = stamp.epoch.wrapping_add(1);
        if stamp.epoch == 0 {
            // Epoch wrapped: clear stale marks once every 2^32 queries.
            stamp.mark.iter_mut().for_each(|m| *m = 0);
            stamp.epoch = 1;
        }
        if stamp.mark.len() < self.n_users {
            // Scratch created before an insert_user call: grow the marks.
            stamp.mark.resize(self.n_users, 0);
        }
        let mut out: Vec<u32> = Vec::new();
        self.collect_users(0, rect, stamp, &mut out);
        // `out` holds each user at most once (stamped); only a sort of the
        // unique ids remains.
        out.sort_unstable();
        out
    }

    fn collect_users(&self, idx: usize, rect: &Rect, stamp: &mut Stamp, out: &mut Vec<u32>) {
        let node = &self.nodes[idx];
        let sq = node.square.rect();
        if !sq.intersects(rect) {
            return;
        }
        let mark = |u: u32, stamp: &mut Stamp, out: &mut Vec<u32>| {
            let m = &mut stamp.mark[u as usize];
            if *m != stamp.epoch {
                *m = stamp.epoch;
                out.push(u);
            }
        };
        if rect.contains_rect(&sq) {
            for u in node.user_ids() {
                mark(u, stamp, out);
            }
            return;
        }
        if node.level == self.depth {
            for (u, p) in &node.points {
                if rect.contains(p) {
                    mark(*u, stamp, out);
                }
            }
            return;
        }
        for child in node.children.into_iter().flatten() {
            self.collect_users(child as usize, rect, stamp, out);
        }
    }
}

/// Merges two user-sorted `(user, count)` lists, summing counts.
fn merge_counts(a: &[(u32, u32)], b: &[(u32, u32)]) -> Vec<(u32, u32)> {
    if a.is_empty() {
        return b.to_vec();
    }
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push((a[i].0, a[i].1 + b[j].1));
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc2ls_geo::morton_code;
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
        let mut t = IQuadTree::build(&users, &pf, tau, 2.0);
        for v in [
            Point::new(0.2, 0.2),
            Point::new(7.5, 7.5),
            Point::new(15.0, 12.0),
            Point::new(-3.0, -3.0), // outside the region
        ] {
            let out = t.traverse(&v);
            // influenced ∩ to_verify = ∅
            assert!(setops::intersect(&out.influenced, &out.to_verify).is_empty());
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
        let mut t = IQuadTree::build(&users, &pf, 0.5, 2.0);
        let v1 = Point::new(1.0, 1.0);
        let v2 = Point::new(1.05, 1.02); // same leaf
        let a = t.traverse(&v1);
        let b1 = t.traverse(&v2);
        let b2 = t.traverse(&v2);
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
        let mut t = IQuadTree::build(&users, &pf, 0.7, 2.0);
        assert!(t.nir().is_none());
        let out = t.traverse(&Point::new(0.0, 0.0));
        assert!(out.influenced.is_empty());
        assert!(out.to_verify.is_empty());
    }

    #[test]
    fn users_with_position_in_matches_brute_force() {
        let users = users_grid();
        let pf = Sigmoid::paper_default();
        let t = IQuadTree::build(&users, &pf, 0.5, 2.0);
        let rect = Rect::new(Point::new(2.0, 2.0), Point::new(9.0, 9.0));
        let got = t.users_with_position_in(&rect);
        let mut want: Vec<u32> = users
            .iter()
            .enumerate()
            .filter(|(_, u)| u.positions().iter().any(|p| rect.contains(p)))
            .map(|(i, _)| i as u32)
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn internal_counts_equal_sum_of_children() {
        let users = users_grid();
        let pf = Sigmoid::paper_default();
        let t = IQuadTree::build(&users, &pf, 0.5, 2.0);
        for node in &t.nodes {
            if node.is_leaf() {
                continue;
            }
            let mut merged: Vec<(u32, u32)> = Vec::new();
            for child in node.children.into_iter().flatten() {
                merged = merge_counts(&merged, &t.nodes[child as usize].counts);
            }
            assert_eq!(node.counts, merged);
        }
        // Root counts cover every position exactly once.
        let total: u32 = t.nodes[0].counts.iter().map(|&(_, c)| c).sum();
        assert_eq!(total as usize, users.iter().map(|u| u.len()).sum::<usize>());
    }

    #[test]
    #[should_panic(expected = "exceeds the Morton-code budget")]
    fn a_leaf_too_small_for_the_morton_budget_is_rejected_before_any_shift() {
        // ~15 km of extent over a 1e-30 km leaf needs ~100 levels: the
        // budget check must fire before `1 << depth` overflows.
        IQuadTree::build(&users_grid(), &Sigmoid::paper_default(), 0.5, 1e-30);
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
    fn incremental_insert_matches_batch_build() {
        let users = users_grid();
        let pf = Sigmoid::paper_default();
        let tau = 0.5;
        // Batch tree over all users.
        let mut batch = IQuadTree::build(&users, &pf, tau, 2.0);
        // Incremental tree: first 10 users at build time, rest inserted —
        // with traversals interleaved so caches exist and must be
        // invalidated correctly.
        let mut inc = IQuadTree::build(&users[..10], &pf, tau, 2.0);
        let probes: Vec<Point> = (0..8)
            .map(|i| Point::new((i % 4) as f64 * 4.0 + 0.3, (i / 4) as f64 * 6.0 + 0.4))
            .collect();
        for (i, u) in users[10..].iter().enumerate() {
            if i % 3 == 0 {
                let _ = inc.traverse(&probes[i % probes.len()]);
            }
            let uid = inc.insert_user(u, &pf, tau).unwrap();
            assert_eq!(uid as usize, 10 + i);
        }
        for v in &probes {
            let a = batch.traverse(v);
            let b = inc.traverse(v);
            assert_eq!(a.influenced, b.influenced, "probe {v:?}");
            assert_eq!(a.to_verify, b.to_verify, "probe {v:?}");
        }
        assert_eq!(batch.stats().positions, inc.stats().positions);
    }

    #[test]
    fn insert_raising_r_max_stays_sound() {
        let pf = Sigmoid::paper_default();
        let tau = 0.7;
        // Start with small users (r = 2) and cache a traversal.
        let small: Vec<MovingUser> = (0..5)
            .map(|i| {
                MovingUser::new(vec![
                    Point::new(i as f64, 0.0),
                    Point::new(i as f64 + 0.1, 0.1),
                ])
            })
            .collect();
        let mut t = IQuadTree::build(&small, &pf, tau, 2.0);
        let v = Point::new(2.0, 0.0);
        let _ = t.traverse(&v);
        let old_nir = t.nir();
        // Insert a 20-position user far away but within the old extent...
        // (positions must stay inside the root square).
        let root = t.root_square.rect();
        let big = MovingUser::new(
            (0..20)
                .map(|j| {
                    Point::new(
                        (root.min.x + 0.2 + 0.01 * j as f64).min(root.max.x),
                        (root.min.y + 0.2).min(root.max.y),
                    )
                })
                .collect(),
        );
        let uid = t.insert_user(&big, &pf, tau).unwrap();
        assert!(t.nir() >= old_nir, "NIR must not shrink");
        // Soundness after the update.
        let out = t.traverse(&v);
        let mut all: Vec<MovingUser> = small;
        all.push(big);
        for (o, u) in all.iter().enumerate() {
            let truth = influences(&pf, &v, u.positions(), tau);
            let o = o as u32;
            if setops::contains(&out.influenced, o) {
                assert!(truth);
            } else if !setops::contains(&out.to_verify, o) {
                assert!(!truth, "user {o} wrongly pruned after insert");
            }
        }
        assert_eq!(uid, 5);
    }

    #[test]
    fn remove_user_behaves_as_never_inserted() {
        let users = users_grid();
        let pf = Sigmoid::paper_default();
        let tau = 0.5;
        // Reference: a tree over all users except #7 and #19.
        let kept: Vec<MovingUser> = users
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != 7 && i != 19)
            .map(|(_, u)| u.clone())
            .collect();
        let mut reference = IQuadTree::build(&kept, &pf, tau, 2.0);
        // Under test: full tree, traversed (to fill caches), then pruned.
        let mut t = IQuadTree::build(&users, &pf, tau, 2.0);
        let probes: Vec<Point> = (0..6)
            .map(|i| Point::new((i % 3) as f64 * 5.0 + 0.2, (i / 3) as f64 * 7.0 + 0.3))
            .collect();
        for v in &probes {
            let _ = t.traverse(v);
        }
        assert_eq!(t.remove_user(7), users[7].len());
        assert_eq!(t.remove_user(19), users[19].len());
        assert_eq!(t.remove_user(7), 0, "double removal is a no-op");
        assert_eq!(t.remove_user(9999), 0, "unknown id is a no-op");
        // Every traversal must match the reference, modulo the id shift
        // (reference ids skip the removed users).
        let shift = |id: u32| -> u32 {
            // Map reference id back to original id space.
            let mut orig = id;
            if orig >= 7 {
                orig += 1;
            }
            if orig >= 19 {
                orig += 1;
            }
            orig
        };
        for v in &probes {
            let want = reference.traverse(v);
            let got = t.traverse(v);
            let want_inf: Vec<u32> = want.influenced.iter().map(|&i| shift(i)).collect();
            let want_vrf: Vec<u32> = want.to_verify.iter().map(|&i| shift(i)).collect();
            assert_eq!(got.influenced, want_inf, "probe {v:?}");
            assert_eq!(got.to_verify, want_vrf, "probe {v:?}");
        }
        assert_eq!(
            t.stats().positions,
            users.iter().map(|u| u.len()).sum::<usize>() - users[7].len() - users[19].len()
        );
    }

    #[test]
    fn insert_then_remove_roundtrip() {
        let users = users_grid();
        let pf = Sigmoid::paper_default();
        let tau = 0.6;
        let mut reference = IQuadTree::build(&users, &pf, tau, 2.0);
        let mut t = IQuadTree::build(&users, &pf, tau, 2.0);
        let newcomer = MovingUser::new(vec![
            Point::new(3.0, 3.0),
            Point::new(3.1, 3.2),
            Point::new(2.9, 3.1),
        ]);
        let probe = Point::new(3.05, 3.05);
        let _ = t.traverse(&probe); // fill caches before the churn
        let uid = t.insert_user(&newcomer, &pf, tau).unwrap();
        let _ = t.traverse(&probe);
        assert_eq!(t.remove_user(uid), 3);
        let a = reference.traverse(&probe);
        let b = t.traverse(&probe);
        assert_eq!(a.influenced, b.influenced);
        assert_eq!(a.to_verify, b.to_verify);
    }

    #[test]
    fn insert_out_of_bounds_is_rejected() {
        let users = users_grid();
        let pf = Sigmoid::paper_default();
        let mut t = IQuadTree::build(&users, &pf, 0.5, 2.0);
        let far = MovingUser::new(vec![Point::new(1e6, 1e6)]);
        let err = t.insert_user(&far, &pf, 0.5);
        assert_eq!(err, Err(Point::new(1e6, 1e6)));
        // A rejected insert leaves the tree untouched and queryable.
        let out = t.traverse(&Point::new(0.5, 0.5));
        assert!(!out.to_verify.is_empty() || !out.influenced.is_empty());
    }

    #[test]
    fn tree_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<IQuadTree>();
    }

    #[test]
    fn traverse_shared_matches_traverse() {
        let users = users_grid();
        let pf = Sigmoid::paper_default();
        let mut t = IQuadTree::build(&users, &pf, 0.5, 2.0);
        let probes: Vec<Point> = vec![
            Point::new(0.2, 0.2),
            Point::new(7.5, 7.5),
            Point::new(15.0, 12.0),
            Point::new(1.0, 1.0),
            Point::new(1.05, 1.02), // same leaf as the previous probe
            Point::new(-3.0, -3.0), // outside the region
        ];
        // Cold tree, one scratch reused across probes (batch-wise path).
        let mut scratch = t.scratch();
        let shared: Vec<TraverseOutcome> = probes
            .iter()
            .map(|v| t.traverse_shared(v, &mut scratch))
            .collect();
        // Reference outcomes from the &mut self path.
        for (v, got) in probes.iter().zip(&shared) {
            let want = t.traverse(v);
            assert_eq!(got.influenced, want.influenced, "probe {v:?}");
            assert_eq!(got.to_verify, want.to_verify, "probe {v:?}");
        }
        // Warm tree (node caches now populated): shared must still agree.
        let mut warm_scratch = t.scratch();
        for (v, want) in probes.iter().zip(&shared) {
            let got = t.traverse_shared(v, &mut warm_scratch);
            assert_eq!(got.influenced, want.influenced, "warm probe {v:?}");
            assert_eq!(got.to_verify, want.to_verify, "warm probe {v:?}");
        }
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
        // Serial reference on a clone (traverse needs &mut).
        let mut serial_tree = t.clone();
        let want: Vec<TraverseOutcome> = probes.iter().map(|v| serial_tree.traverse(v)).collect();
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
                            .map(|v| tree.traverse_shared(v, &mut scratch))
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
    fn stale_scratch_survives_insert() {
        let users = users_grid();
        let pf = Sigmoid::paper_default();
        let tau = 0.5;
        let mut t = IQuadTree::build(&users, &pf, tau, 2.0);
        let mut scratch = t.scratch(); // created before the insert
        let newcomer = MovingUser::new(vec![Point::new(3.0, 3.0), Point::new(3.1, 3.2)]);
        t.insert_user(&newcomer, &pf, tau).unwrap();
        let probe = Point::new(3.05, 3.05);
        let got = t.traverse_shared(&probe, &mut scratch);
        let want = t.traverse(&probe);
        assert_eq!(got.influenced, want.influenced);
        assert_eq!(got.to_verify, want.to_verify);
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
