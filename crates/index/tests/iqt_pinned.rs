//! Pins the IQuad-tree's traversal outcomes, and checks them against a
//! brute-force oracle of the IS and NIR rules.
//!
//! The solve pipeline and every equivalence suite run through the same
//! tree, so a wrong but self-consistent rewrite of it would pass them all.
//! The pins below were recorded from the node-based tree that preceded the
//! Morton-sorted position array; only the traversal calls may adapt to a new
//! API, never the recorded values.

use mc2ls_geo::codec::crc32;
use mc2ls_geo::{morton_code, Point, Rect};
use mc2ls_index::{IQuadTree, TraverseOutcome};
use mc2ls_influence::{MovingUser, Sigmoid};
use proptest::prelude::*;
use rand::prelude::*;

const TAUS: [f64; 4] = [0.3, 0.5, 0.7, 0.9];

/// Traverses every probe with one scratch, in order.
fn traverse_all(tree: &IQuadTree, probes: &[Point]) -> Vec<TraverseOutcome> {
    let mut scratch = tree.scratch();
    probes
        .iter()
        .map(|v| tree.traverse(v, &mut scratch))
        .collect()
}

/// A cluster of positions around `home`.
fn cluster(rng: &mut StdRng, home: Point, spread: f64, n: usize) -> MovingUser {
    MovingUser::new(
        (0..n)
            .map(|_| {
                Point::new(
                    home.x + rng.gen_range(-spread..spread),
                    home.y + rng.gen_range(-spread..spread),
                )
            })
            .collect(),
    )
}

fn clustered() -> Vec<MovingUser> {
    let mut rng = StdRng::seed_from_u64(0xc105_7e4d);
    let homes: Vec<Point> = (0..8)
        .map(|_| Point::new(rng.gen_range(-15.0..15.0), rng.gen_range(-15.0..15.0)))
        .collect();
    (0..60)
        .map(|i| {
            let spread = rng.gen_range(0.05..1.5);
            let n = rng.gen_range(3..26);
            cluster(&mut rng, homes[i % homes.len()], spread, n)
        })
        .collect()
}

/// Uniform users with duplicate positions, plus users whose positions sit
/// exactly on the tree's split lines and on the data extent's max edge.
fn uniform_with_edges(leaf_diagonal: f64) -> Vec<MovingUser> {
    let mut rng = StdRng::seed_from_u64(0xed6e5);
    let mut users: Vec<MovingUser> = (0..50)
        .map(|_| {
            let n = rng.gen_range(1..9);
            let mut ps: Vec<Point> = (0..n)
                .map(|_| Point::new(rng.gen_range(0.0..16.0), rng.gen_range(0.0..16.0)))
                .collect();
            // Repeat a position: duplicates count once per occurrence.
            let dup = ps[rng.gen_range(0..ps.len())];
            ps.extend(std::iter::repeat_n(dup, rng.gen_range(1..4)));
            MovingUser::new(ps)
        })
        .collect();
    // Fix the extent to [0, 16]²: its max edge is data, not padding.
    users.push(MovingUser::new(vec![
        Point::new(0.0, 0.0),
        Point::new(16.0, 16.0),
    ]));
    users.push(MovingUser::new(vec![
        Point::new(16.0, 3.0),
        Point::new(7.0, 16.0),
        Point::new(16.0, 16.0),
    ]));
    // Split lines of the tree over exactly these users. Users inside the
    // extent leave the root square unchanged.
    let root =
        IQuadTree::build(&users, &Sigmoid::paper_default(), 0.5, leaf_diagonal).root_square();
    let (ox, oy, side) = (root.origin.x, root.origin.y, root.side);
    let mut on_lines = Vec::new();
    for level in 1..=3 {
        let h = side / f64::from(1u32 << level);
        let x = ox + h;
        let y = oy + h;
        if x <= 16.0 && y <= 16.0 {
            on_lines.push(Point::new(x, y));
            on_lines.push(Point::new(x, 5.0));
            on_lines.push(Point::new(2.5, y));
        }
    }
    for chunk in on_lines.chunks(2) {
        users.push(MovingUser::new(chunk.to_vec()));
    }
    users.push(MovingUser::new(on_lines));
    users
}

fn one_user() -> Vec<MovingUser> {
    vec![MovingUser::new(vec![
        Point::new(3.0, 4.0),
        Point::new(3.1, 4.05),
        Point::new(3.02, 4.2),
        Point::new(3.2, 4.1),
        Point::new(3.1, 4.05),
        Point::new(3.25, 4.25),
    ])]
}

fn deep() -> Vec<MovingUser> {
    let mut rng = StdRng::seed_from_u64(0xdee9);
    (0..40)
        .map(|i| {
            let home = Point::new(rng.gen_range(0.0..20.0), rng.gen_range(0.0..20.0));
            let spread = if i % 3 == 0 { 1e-4 } else { 0.5 };
            let n = rng.gen_range(2..12);
            cluster(&mut rng, home, spread, n)
        })
        .collect()
}

/// Single-position users: under the sigmoid, PF(0) = 0.5, so no user can
/// reach τ ≥ 0.5 and NIR is `None` there.
fn single_positions() -> Vec<MovingUser> {
    let mut rng = StdRng::seed_from_u64(0x0e1e);
    (0..12)
        .map(|_| {
            MovingUser::new(vec![Point::new(
                rng.gen_range(0.0..9.0),
                rng.gen_range(0.0..9.0),
            )])
        })
        .collect()
}

/// The pinned cases: `(name, users, leaf diagonal)`.
fn cases() -> Vec<(&'static str, Vec<MovingUser>, f64)> {
    vec![
        ("clustered", clustered(), 1.0),
        ("uniform-edges", uniform_with_edges(2.0), 2.0),
        ("one-user", one_user(), 2.0),
        ("empty", Vec::new(), 2.0),
        ("deep", deep(), 2e-5),
        ("single-positions", single_positions(), 1.5),
    ]
}

/// A 13 × 13 grid over the root square grown by 30 % on every side, the
/// root's max corner, and every indexed position.
fn probes(tree: &IQuadTree, users: &[MovingUser]) -> Vec<Point> {
    let r = tree.root_region();
    let (w, h) = (r.width(), r.height());
    let mut out = Vec::new();
    for i in 0..13 {
        for j in 0..13 {
            out.push(Point::new(
                r.min.x - 0.3 * w + 1.6 * w * f64::from(i) / 12.0,
                r.min.y - 0.3 * h + 1.6 * h * f64::from(j) / 12.0,
            ));
        }
    }
    out.push(r.max);
    out.extend(users.iter().flat_map(|u| u.positions().iter().copied()));
    out
}

/// CRC-32 over every outcome's `influenced` then `to_verify` list, each as
/// a little-endian length followed by its ids.
fn outcomes_crc(outcomes: &[TraverseOutcome]) -> u32 {
    let mut bytes = Vec::new();
    for o in outcomes {
        for list in [&o.influenced, &o.to_verify] {
            bytes.extend_from_slice(&(list.len() as u32).to_le_bytes());
            for id in list {
                bytes.extend_from_slice(&id.to_le_bytes());
            }
        }
    }
    crc32(&bytes)
}

/// One pinned row: case, τ, `IqtStats` as `[nodes, leaves, depth,
/// positions, users]`, NIR bits (0 for `None`), the η table, and the
/// outcomes' CRC.
type Pin = (&'static str, f64, [usize; 5], u64, &'static str, u32);

#[rustfmt::skip]
const PINS: &[Pin] = &[
    ("clustered", 0.3, [202, 115, 6, 809, 60], 0x4010f87cfc08274f, "[None, Some(28181072712542), Some(3169454), Some(1064), Some(20), Some(3), Some(2)]", 0xcd1ba0d7),
    ("clustered", 0.5, [202, 115, 6, 809, 60], 0x400c926b539f76de, "[None, Some(54765919018995), Some(6159383), Some(2067), Some(39), Some(6), Some(3)]", 0x2de33ef6),
    ("clustered", 0.7, [202, 115, 6, 809, 60], 0x40081294da1a2d47, "[None, Some(95126517068886), Some(10698637), Some(3590), Some(67), Some(10), Some(4)]", 0x98fd0d19),
    ("clustered", 0.9, [202, 115, 6, 809, 60], 0x4002b51f1c06bae6, "[None, Some(181928445031523), Some(20461027), Some(6866), Some(127), Some(19), Some(8)]", 0xcc7d2e3c),
    ("uniform-edges", 0.3, [160, 110, 4, 357, 58], 0x400b4cf12fb1f3aa, "[Some(28181072712542), Some(3169454), Some(1064), Some(20), Some(3)]", 0x2f7696f4),
    ("uniform-edges", 0.5, [160, 110, 4, 357, 58], 0x4005dca4b9ad4474, "[Some(54765919018995), Some(6159383), Some(2067), Some(39), Some(6)]", 0xd38cb9c1),
    ("uniform-edges", 0.7, [160, 110, 4, 357, 58], 0x4001419ff469285d, "[Some(95126517068886), Some(10698637), Some(3590), Some(67), Some(10)]", 0x9ee96454),
    ("uniform-edges", 0.9, [160, 110, 4, 357, 58], 0x3ff751684059ab9c, "[Some(181928445031523), Some(20461027), Some(6866), Some(127), Some(19)]", 0x2843df0b),
    ("one-user", 0.3, [1, 1, 0, 6, 1], 0x400657b1e1ef9554, "[Some(3)]", 0x077f7881),
    ("one-user", 0.5, [1, 1, 0, 6, 1], 0x4000ccb4bd1ba0a3, "[Some(6)]", 0x077f7881),
    ("one-user", 0.7, [1, 1, 0, 6, 1], 0x3ff810e4d6204efe, "[Some(10)]", 0x592a488b),
    ("one-user", 0.9, [1, 1, 0, 6, 1], 0x3fe84f97e8a23ae7, "[Some(19)]", 0x693b3f3c),
    ("empty", 0.3, [1, 1, 0, 0, 0], 0x0, "[Some(3)]", 0x0d3ffc4c),
    ("empty", 0.5, [1, 1, 0, 0, 0], 0x0, "[Some(6)]", 0x0d3ffc4c),
    ("empty", 0.7, [1, 1, 0, 0, 0], 0x0, "[Some(10)]", 0x0d3ffc4c),
    ("empty", 0.9, [1, 1, 0, 0, 0], 0x0, "[Some(19)]", 0x0d3ffc4c),
    ("deep", 0.3, [3321, 260, 21, 261, 40], 0x400b4cf12fb1f3aa, "[None, Some(457180850), Some(12770), Some(68), Some(6), Some(2), Some(1), Some(1), Some(1), Some(1), Some(1), Some(1), Some(1), Some(1), Some(1), Some(1), Some(1), Some(1), Some(1), Some(1), Some(1), Some(1)]", 0x6c0bdb3f),
    ("deep", 0.5, [3321, 260, 21, 261, 40], 0x4005dca4b9ad4474, "[None, Some(888466157), Some(24817), Some(132), Some(10), Some(3), Some(2), Some(2), Some(2), Some(2), Some(2), Some(2), Some(2), Some(2), Some(2), Some(2), Some(2), Some(2), Some(2), Some(2), Some(2), Some(2)]", 0xc606e655),
    ("deep", 0.7, [3321, 260, 21, 261, 40], 0x4001419ff469285d, "[None, Some(1543235147), Some(43106), Some(229), Some(18), Some(6), Some(3), Some(3), Some(2), Some(2), Some(2), Some(2), Some(2), Some(2), Some(2), Some(2), Some(2), Some(2), Some(2), Some(2), Some(2), Some(2)]", 0xd15e8dcc),
    ("deep", 0.9, [3321, 260, 21, 261, 40], 0x3ff751684059ab9c, "[None, Some(2951420689), Some(82439), Some(437), Some(33), Some(10), Some(6), Some(5), Some(4), Some(4), Some(4), Some(4), Some(4), Some(4), Some(4), Some(4), Some(4), Some(4), Some(4), Some(4), Some(4), Some(4)]", 0x4cad32b0),
    ("single-positions", 0.3, [21, 9, 3, 12, 12], 0x3feb1d10670aae98, "[Some(58051), Some(145), Some(8), Some(2)]", 0xd76a2c71),
    ("single-positions", 0.5, [21, 9, 3, 12, 12], 0x0, "[Some(112814), Some(280), Some(15), Some(4)]", 0x80daa03f),
    ("single-positions", 0.7, [21, 9, 3, 12, 12], 0x0, "[Some(195953), Some(487), Some(25), Some(6)]", 0x16bcbc70),
    ("single-positions", 0.9, [21, 9, 3, 12, 12], 0x0, "[Some(374758), Some(931), Some(48), Some(12)]", 0x16bcbc70),
];

#[test]
fn traversal_outcomes_match_the_pins() {
    let pf = Sigmoid::paper_default();
    let mut got: Vec<String> = Vec::new();
    for (name, users, leaf_diagonal) in cases() {
        for tau in TAUS {
            let tree = IQuadTree::build(&users, &pf, tau, leaf_diagonal);
            tree.validate();
            let s = tree.stats();
            let outcomes = traverse_all(&tree, &probes(&tree, &users));
            got.push(format!(
                "    ({name:?}, {tau:?}, [{}, {}, {}, {}, {}], {:#x}, {:?}, {:#010x}),",
                s.nodes,
                s.leaves,
                s.depth,
                s.positions,
                s.users,
                tree.nir().map_or(0, f64::to_bits),
                format!("{:?}", tree.eta_table()),
                outcomes_crc(&outcomes),
            ));
        }
    }
    let want: Vec<String> = PINS
        .iter()
        .map(|&(name, tau, s, nir, eta, crc)| {
            format!(
                "    ({name:?}, {tau:?}, [{}, {}, {}, {}, {}], {nir:#x}, {eta:?}, {crc:#010x}),",
                s[0], s[1], s[2], s[3], s[4]
            )
        })
        .collect();
    assert!(
        got == want,
        "traversal pins moved; recomputed rows:\n{}",
        got.join("\n")
    );
}

#[test]
fn the_deep_case_is_deep_and_the_single_position_case_has_no_nir() {
    let pf = Sigmoid::paper_default();
    assert!(IQuadTree::build(&deep(), &pf, 0.5, 2e-5).stats().depth >= 20);
    assert!(IQuadTree::build(&one_user(), &pf, 0.5, 2.0).stats().depth == 0);
    assert!(IQuadTree::build(&single_positions(), &pf, 0.7, 1.5)
        .nir()
        .is_none());
}

/// The IS and NIR rules evaluated by brute force over every position.
fn oracle(tree: &IQuadTree, users: &[MovingUser], v: &Point) -> (Vec<u32>, Vec<u32>) {
    let Some(nir) = tree.nir() else {
        return (Vec::new(), Vec::new());
    };
    let with_position_in = |rect: &Rect| -> Vec<u32> {
        (0..users.len() as u32)
            .filter(|&u| {
                users[u as usize]
                    .positions()
                    .iter()
                    .any(|p| rect.contains(p))
            })
            .collect()
    };
    let root = tree.root_square();
    if !root.contains(v) {
        return (Vec::new(), with_position_in(&Rect::point(*v).inflate(nir)));
    }
    let depth = tree.stats().depth;
    let code = morton_code(&root, depth, v);
    let mut influenced = Vec::new();
    for (level, eta) in tree.eta_table().iter().enumerate() {
        let Some(eta) = *eta else { continue };
        let shift = 2 * (depth - level);
        let counts: Vec<usize> = users
            .iter()
            .map(|u| {
                u.positions()
                    .iter()
                    .filter(|p| morton_code(&root, depth, p) >> shift == code >> shift)
                    .count()
            })
            .collect();
        if counts.iter().all(|&c| c == 0) {
            continue;
        }
        influenced.extend((0..users.len() as u32).filter(|&u| counts[u as usize] >= eta));
    }
    influenced.sort_unstable();
    influenced.dedup();
    let mut leaf = root;
    for level in 0..depth {
        leaf = leaf.child(((code >> (2 * (depth - 1 - level))) & 3) as usize);
    }
    let to_verify = with_position_in(&leaf.rect().inflate(nir))
        .into_iter()
        .filter(|u| influenced.binary_search(u).is_err())
        .collect();
    (influenced, to_verify)
}

/// A random instance: clustered positions snapped to a coarse lattice so
/// duplicates and split-line positions are common.
fn random_users(rng: &mut StdRng) -> Vec<MovingUser> {
    let n_users = rng.gen_range(0..24);
    let lattice: f64 = [0.0, 0.25, 0.5][rng.gen_range(0..3usize)];
    (0..n_users)
        .map(|_| {
            let home = Point::new(rng.gen_range(-8.0..8.0), rng.gen_range(-8.0..8.0));
            let spread: f64 = rng.gen_range(0.05..3.0);
            let n = rng.gen_range(1..14);
            MovingUser::new(
                (0..n)
                    .map(|_| {
                        let snap = |c: f64| {
                            if lattice > 0.0 {
                                (c / lattice).round() * lattice
                            } else {
                                c
                            }
                        };
                        Point::new(
                            snap(home.x + rng.gen_range(-spread..spread)),
                            snap(home.y + rng.gen_range(-spread..spread)),
                        )
                    })
                    .collect(),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(48))]

    /// Every traversal equals the brute-force IS/NIR oracle, inside and
    /// outside the root square.
    #[test]
    fn traversal_matches_the_brute_force_oracle(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let users = random_users(&mut rng);
        let tau: f64 = rng.gen_range(0.2..0.95);
        let leaf_diagonal = [0.3, 0.7, 1.0, 2.0, 4.0][rng.gen_range(0..5usize)];
        let tree = IQuadTree::build(&users, &Sigmoid::paper_default(), tau, leaf_diagonal);
        tree.validate();
        let r = tree.root_region();
        let mut vs: Vec<Point> = (0..24)
            .map(|_| {
                Point::new(
                    rng.gen_range(r.min.x - 3.0..r.max.x + 3.0),
                    rng.gen_range(r.min.y - 3.0..r.max.y + 3.0),
                )
            })
            .collect();
        vs.extend(users.iter().flat_map(|u| u.positions().iter().copied()));
        for (v, got) in vs.iter().zip(traverse_all(&tree, &vs)) {
            let (influenced, to_verify) = oracle(&tree, &users, v);
            prop_assert_eq!(&got.influenced, &influenced, "influenced at {:?}", v);
            prop_assert_eq!(&got.to_verify, &to_verify, "to_verify at {:?}", v);
        }
    }
}
