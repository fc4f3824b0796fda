//! Property-based tests: the R-tree must agree with brute force, and the
//! IQuad-tree's IS/NIR classification must never contradict the exact
//! influence model.

use mc2ls_geo::{Point, Rect};
use mc2ls_index::{setops, IQuadTree, RTree};
use mc2ls_influence::{influences, MovingUser, Sigmoid};
use proptest::prelude::*;

fn pt() -> impl Strategy<Value = Point> {
    (-30.0f64..30.0, -30.0f64..30.0).prop_map(|(x, y)| Point::new(x, y))
}

fn items() -> impl Strategy<Value = Vec<(u32, Point)>> {
    prop::collection::vec(pt(), 0..300).prop_map(|ps| {
        ps.into_iter()
            .enumerate()
            .map(|(i, p)| (i as u32, p))
            .collect()
    })
}

fn rect() -> impl Strategy<Value = Rect> {
    (pt(), pt()).prop_map(|(a, b)| Rect::new(a, b))
}

/// Ids of the entries `for_each_in_rect` reports inside `r`, sorted.
fn window(t: &RTree, r: &Rect) -> Vec<u32> {
    let mut out = Vec::new();
    t.for_each_in_rect(r, |id, _| out.push(id));
    out.sort_unstable();
    out
}

fn brute(items: &[(u32, Point)], r: &Rect) -> Vec<u32> {
    let mut v: Vec<u32> = items
        .iter()
        .filter(|(_, p)| r.contains(p))
        .map(|(id, _)| *id)
        .collect();
    v.sort_unstable();
    v
}

fn users() -> impl Strategy<Value = Vec<MovingUser>> {
    prop::collection::vec(prop::collection::vec(pt(), 1..15), 1..40)
        .prop_map(|us| us.into_iter().map(MovingUser::new).collect())
}

proptest! {
    #[test]
    fn rtree_bulk_matches_brute(items in items(), r in rect()) {
        let t = RTree::bulk_load(items.clone());
        prop_assert_eq!(window(&t, &r), brute(&items, &r));
    }

    #[test]
    fn rtree_insert_matches_brute(items in items(), r in rect()) {
        let mut t = RTree::new();
        for (id, p) in &items {
            t.insert(*id, *p);
        }
        prop_assert_eq!(window(&t, &r), brute(&items, &r));
    }

    /// The IQuad-tree three-way classification is exact on both certain
    /// sides: `influenced` ⇒ truly influenced; pruned ⇒ truly not.
    #[test]
    fn iquadtree_classification_sound(us in users(), v in pt(),
                                      tau in 0.1f64..0.9, d_hat in 0.5f64..4.0) {
        let pf = Sigmoid::paper_default();
        let t = IQuadTree::build(&us, &pf, tau, d_hat);
        t.validate();
        let out = t.traverse(&v, &mut t.scratch());
        prop_assert!(setops::intersect(&out.influenced, &out.to_verify).is_empty());
        for (uid, u) in us.iter().enumerate() {
            let truth = influences(&pf, &v, u.positions(), tau);
            let uid = uid as u32;
            if setops::contains(&out.influenced, uid) {
                prop_assert!(truth, "IS admitted user {} wrongly", uid);
            } else if !setops::contains(&out.to_verify, uid) {
                prop_assert!(!truth, "NIR pruned influenced user {}", uid);
            }
        }
    }

    /// Traversing twice (the second from the scratch's leaf memo) returns
    /// identical outcomes.
    #[test]
    fn iquadtree_traverse_idempotent(us in users(), v in pt(), tau in 0.1f64..0.9) {
        let pf = Sigmoid::paper_default();
        let t = IQuadTree::build(&us, &pf, tau, 2.0);
        let mut scratch = t.scratch();
        let a = t.traverse(&v, &mut scratch);
        let b = t.traverse(&v, &mut scratch);
        prop_assert_eq!(a.influenced, b.influenced);
        prop_assert_eq!(a.to_verify, b.to_verify);
    }

    /// users_with_position_in agrees with a brute-force scan. A facility
    /// outside the indexed region gets no IS pruning, so `traverse`
    /// verifies exactly the users with a position in its NIR window; `v`
    /// sits beyond a random side, near enough for that window to cover
    /// the tree partly, wholly or not at all.
    #[test]
    fn iquadtree_user_query_matches_brute(us in users(), tau in 0.1f64..0.9,
                                          side in 0usize..4, along in 0.0f64..1.0,
                                          gap in 0.001f64..1.5) {
        let pf = Sigmoid::paper_default();
        let t = IQuadTree::build(&us, &pf, tau, 2.0);
        let Some(nir) = t.nir() else {
            return Ok(());
        };
        let root = t.root_region();
        let (lo, hi) = (root.min, root.max);
        let x = lo.x - nir + along * (hi.x - lo.x + 2.0 * nir);
        let y = lo.y - nir + along * (hi.y - lo.y + 2.0 * nir);
        let v = match side {
            0 => Point::new(lo.x - gap * nir, y),
            1 => Point::new(hi.x + gap * nir, y),
            2 => Point::new(x, lo.y - gap * nir),
            _ => Point::new(x, hi.y + gap * nir),
        };
        if root.contains(&v) {
            return Ok(());
        }
        let out = t.traverse(&v, &mut t.scratch());
        let window = Rect::point(v).inflate(nir);
        let mut want: Vec<u32> = us.iter().enumerate()
            .filter(|(_, u)| u.positions().iter().any(|p| window.contains(p)))
            .map(|(i, _)| i as u32)
            .collect();
        want.sort_unstable();
        prop_assert!(out.influenced.is_empty());
        prop_assert_eq!(out.to_verify, want);
    }
}
