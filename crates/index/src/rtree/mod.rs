//! A from-scratch point R-tree (Guttman 1984).
//!
//! The Adapted k-CIFP baseline (paper Algorithm 1) indexes candidate and
//! facility positions in two R-trees and issues one IA and one NIB range
//! query per user against each. Only points are indexed (facilities and
//! candidates are stationary), which keeps entries compact while the node
//! layout, quadratic split and STR bulk loading follow the classic design.

mod node;
mod split;

use mc2ls_geo::{Point, Rect};
use node::{Node, NodeKind};

/// Maximum entries per node before a split.
const MAX_ENTRIES: usize = 16;
/// Minimum entries per node after a split (40% fill, Guttman's advice).
pub const MIN_ENTRIES: usize = 6;

/// A point R-tree mapping `u32` ids to positions.
///
/// # Examples
/// ```
/// use mc2ls_geo::{Point, Rect};
/// use mc2ls_index::RTree;
///
/// let tree = RTree::bulk_load(vec![
///     (0, Point::new(1.0, 1.0)),
///     (1, Point::new(5.0, 5.0)),
///     (2, Point::new(9.0, 1.0)),
/// ]);
/// let mut hits = Vec::new();
/// tree.for_each_in_rect(&Rect::new(Point::new(0.0, 0.0), Point::new(6.0, 6.0)), |id, _| {
///     hits.push(id)
/// });
/// hits.sort_unstable();
/// assert_eq!(hits, vec![0, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct RTree {
    nodes: Vec<Node>,
    root: usize,
    len: usize,
}

impl RTree {
    /// An empty tree.
    pub fn new() -> Self {
        let root = Node {
            mbr: Rect::point(Point::ORIGIN),
            kind: NodeKind::Leaf(Vec::new()),
        };
        RTree {
            nodes: vec![root],
            root: 0,
            len: 0,
        }
    }

    /// Bulk-loads a tree with Sort-Tile-Recursive packing — the standard way
    /// to index a static point set (all facilities/candidates are known up
    /// front in MC²LS).
    pub fn bulk_load(items: Vec<(u32, Point)>) -> Self {
        if items.is_empty() {
            return RTree::new();
        }
        let len = items.len();
        let mut tree = RTree {
            nodes: Vec::new(),
            root: 0,
            len,
        };
        // Pack leaves with STR, then build upper levels the same way over
        // node centres until a single root remains.
        let mut level: Vec<usize> = tree.pack_leaves(items);
        while level.len() > 1 {
            level = tree.pack_internal(level);
        }
        tree.root = level[0];
        tree
    }

    fn pack_leaves(&mut self, mut items: Vec<(u32, Point)>) -> Vec<usize> {
        let n = items.len();
        let leaves = n.div_ceil(MAX_ENTRIES);
        let slices = (leaves as f64).sqrt().ceil() as usize;
        let per_slice = n.div_ceil(slices);
        items.sort_by(|a, b| a.1.x.total_cmp(&b.1.x));
        let mut out = Vec::with_capacity(leaves);
        for slice in items.chunks_mut(per_slice.max(1)) {
            slice.sort_by(|a, b| a.1.y.total_cmp(&b.1.y));
            for run in slice.chunks(MAX_ENTRIES) {
                let mut mbr = Rect::point(run[0].1);
                for (_, p) in run {
                    mbr.expand_to(p);
                }
                let idx = self.nodes.len();
                self.nodes.push(Node {
                    mbr,
                    kind: NodeKind::Leaf(run.to_vec()),
                });
                out.push(idx);
            }
        }
        out
    }

    fn pack_internal(&mut self, mut children: Vec<usize>) -> Vec<usize> {
        let n = children.len();
        let parents = n.div_ceil(MAX_ENTRIES);
        let slices = (parents as f64).sqrt().ceil() as usize;
        let per_slice = n.div_ceil(slices);
        children.sort_by(|&a, &b| {
            self.nodes[a]
                .mbr
                .center()
                .x
                .total_cmp(&self.nodes[b].mbr.center().x)
        });
        let mut out = Vec::with_capacity(parents);
        let mut i = 0;
        while i < n {
            let end = (i + per_slice.max(1)).min(n);
            children[i..end].sort_by(|&a, &b| {
                self.nodes[a]
                    .mbr
                    .center()
                    .y
                    .total_cmp(&self.nodes[b].mbr.center().y)
            });
            let mut j = i;
            while j < end {
                let hi = (j + MAX_ENTRIES).min(end);
                let kids: Vec<usize> = children[j..hi].to_vec();
                let mut mbr = self.nodes[kids[0]].mbr;
                for &k in &kids[1..] {
                    mbr = mbr.union(&self.nodes[k].mbr);
                }
                let idx = self.nodes.len();
                self.nodes.push(Node {
                    mbr,
                    kind: NodeKind::Internal(kids),
                });
                out.push(idx);
                j = hi;
            }
            i = end;
        }
        out
    }

    /// Inserts one point (Guttman insert with quadratic split).
    pub fn insert(&mut self, id: u32, point: Point) {
        if self.len == 0 {
            // Reset the placeholder root MBR to the first real point.
            self.nodes[self.root].mbr = Rect::point(point);
        }
        self.len += 1;
        if let Some(sibling) = self.insert_rec(self.root, id, point) {
            // Root split: grow the tree by one level.
            let old_root = self.root;
            let mbr = self.nodes[old_root].mbr.union(&self.nodes[sibling].mbr);
            let new_root = self.nodes.len();
            self.nodes.push(Node {
                mbr,
                kind: NodeKind::Internal(vec![old_root, sibling]),
            });
            self.root = new_root;
        }
    }

    /// Recursive insert; returns the index of a new sibling node when the
    /// visited node split.
    fn insert_rec(&mut self, node_idx: usize, id: u32, point: Point) -> Option<usize> {
        self.nodes[node_idx].mbr.expand_to(&point);
        match &self.nodes[node_idx].kind {
            NodeKind::Leaf(_) => {
                let NodeKind::Leaf(entries) = &mut self.nodes[node_idx].kind else {
                    // lint:allow(panic-propagation): the enclosing match arm just proved this node is a leaf
                    unreachable!()
                };
                entries.push((id, point));
                if entries.len() <= MAX_ENTRIES {
                    return None;
                }
                let (a, b) = split::split_leaf(std::mem::take(entries));
                let (mbr_a, entries_a) = a;
                let (mbr_b, entries_b) = b;
                self.nodes[node_idx] = Node {
                    mbr: mbr_a,
                    kind: NodeKind::Leaf(entries_a),
                };
                let sibling = self.nodes.len();
                self.nodes.push(Node {
                    mbr: mbr_b,
                    kind: NodeKind::Leaf(entries_b),
                });
                Some(sibling)
            }
            NodeKind::Internal(children) => {
                // Choose the child needing least area enlargement.
                let mut best = children[0];
                let mut best_enlargement = f64::INFINITY;
                let mut best_area = f64::INFINITY;
                for &c in children {
                    let m = &self.nodes[c].mbr;
                    let enlarged = m.union(&Rect::point(point));
                    let enlargement = enlarged.area() - m.area();
                    if enlargement < best_enlargement
                        || (enlargement == best_enlargement && m.area() < best_area)
                    {
                        best = c;
                        best_enlargement = enlargement;
                        best_area = m.area();
                    }
                }
                let new_child = self.insert_rec(best, id, point)?;
                let NodeKind::Internal(children) = &mut self.nodes[node_idx].kind else {
                    // lint:allow(panic-propagation): the enclosing match arm just proved this node is internal
                    unreachable!()
                };
                children.push(new_child);
                if children.len() <= MAX_ENTRIES {
                    return None;
                }
                let kids = std::mem::take(children);
                let (a, b) = split::split_internal(&self.nodes, kids);
                let (mbr_a, kids_a) = a;
                let (mbr_b, kids_b) = b;
                self.nodes[node_idx] = Node {
                    mbr: mbr_a,
                    kind: NodeKind::Internal(kids_a),
                };
                let sibling = self.nodes.len();
                self.nodes.push(Node {
                    mbr: mbr_b,
                    kind: NodeKind::Internal(kids_b),
                });
                Some(sibling)
            }
        }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no point is indexed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tree height (1 for a single leaf root).
    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut idx = self.root;
        loop {
            match &self.nodes[idx].kind {
                NodeKind::Leaf(_) => return h,
                NodeKind::Internal(children) => {
                    idx = children[0];
                    h += 1;
                }
            }
        }
    }

    /// Calls `f(id, point)` for every entry whose point lies in `rect`
    /// (closed region). This is the `RangeQuery` primitive of Algorithm 1.
    pub fn for_each_in_rect<F: FnMut(u32, Point)>(&self, rect: &Rect, mut f: F) {
        if self.len == 0 {
            return;
        }
        self.query_rec(self.root, rect, &mut f);
    }

    fn query_rec<F: FnMut(u32, Point)>(&self, idx: usize, rect: &Rect, f: &mut F) {
        let node = &self.nodes[idx];
        if !node.mbr.intersects(rect) {
            return;
        }
        match &node.kind {
            NodeKind::Leaf(entries) => {
                for (id, p) in entries {
                    if rect.contains(p) {
                        f(*id, *p);
                    }
                }
            }
            NodeKind::Internal(children) => {
                for &c in children {
                    self.query_rec(c, rect, f);
                }
            }
        }
    }
}

impl Default for RTree {
    fn default() -> Self {
        RTree::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_points(n: usize) -> Vec<(u32, Point)> {
        (0..n)
            .map(|i| {
                let x = (i % 17) as f64 * 0.7;
                let y = (i / 17) as f64 * 1.3;
                (i as u32, Point::new(x, y))
            })
            .collect()
    }

    /// Ids of the entries `for_each_in_rect` reports inside `rect`, sorted.
    fn window(t: &RTree, rect: &Rect) -> Vec<u32> {
        let mut out = Vec::new();
        t.for_each_in_rect(rect, |id, _| out.push(id));
        out.sort_unstable();
        out
    }

    fn brute_rect(items: &[(u32, Point)], rect: &Rect) -> Vec<u32> {
        let mut v: Vec<u32> = items
            .iter()
            .filter(|(_, p)| rect.contains(p))
            .map(|(id, _)| *id)
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn empty_tree_queries() {
        let t = RTree::new();
        assert!(t.is_empty());
        assert_eq!(
            window(&t, &Rect::new(Point::ORIGIN, Point::new(1.0, 1.0))),
            Vec::<u32>::new()
        );
    }

    #[test]
    fn bulk_load_matches_brute_force() {
        let items = grid_points(500);
        let t = RTree::bulk_load(items.clone());
        assert_eq!(t.len(), 500);
        let rect = Rect::new(Point::new(1.0, 2.0), Point::new(7.5, 20.0));
        assert_eq!(window(&t, &rect), brute_rect(&items, &rect));
    }

    #[test]
    fn insert_matches_brute_force() {
        let items = grid_points(300);
        let mut t = RTree::new();
        for (id, p) in &items {
            t.insert(*id, *p);
        }
        assert_eq!(t.len(), 300);
        for rect in [
            Rect::new(Point::new(0.0, 0.0), Point::new(3.0, 3.0)),
            Rect::new(Point::new(5.0, 10.0), Point::new(12.0, 25.0)),
            Rect::new(Point::new(-5.0, -5.0), Point::new(-1.0, -1.0)),
        ] {
            assert_eq!(window(&t, &rect), brute_rect(&items, &rect));
        }
    }

    #[test]
    fn insert_and_bulk_agree() {
        let items = grid_points(200);
        let bulk = RTree::bulk_load(items.clone());
        let mut inc = RTree::new();
        for (id, p) in &items {
            inc.insert(*id, *p);
        }
        let rect = Rect::new(Point::new(2.0, 2.0), Point::new(9.0, 18.0));
        assert_eq!(window(&bulk, &rect), window(&inc, &rect));
    }

    #[test]
    fn height_grows_logarithmically() {
        let t = RTree::bulk_load(grid_points(2000));
        // 2000 points at 16/leaf => 125 leaves => height 3.
        assert!(t.height() >= 2 && t.height() <= 4, "height={}", t.height());
    }

    #[test]
    fn duplicate_points_are_kept() {
        let mut t = RTree::new();
        for i in 0..50 {
            t.insert(i, Point::new(1.0, 1.0));
        }
        let r = Rect::new(Point::new(0.5, 0.5), Point::new(1.5, 1.5));
        assert_eq!(window(&t, &r).len(), 50);
    }
}
