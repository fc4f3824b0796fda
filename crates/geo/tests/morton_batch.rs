//! The lockstep batch descent must reproduce the scalar oracle bit for bit:
//! [`morton_codes`] against [`morton_code`], [`grid_cells`] against
//! [`grid_coords`] and [`hilbert_codes`] against [`hilbert_code`], over
//! every depth the codes fit, every remainder length of a [`LANE`] step,
//! and the points where a comparison is decided by a single rounding: on a
//! split line and on the root's max edge.

use mc2ls_geo::{
    grid_cells, grid_coords, hilbert_code, hilbert_codes, morton_code, morton_codes, Point, Square,
    LANE,
};
use proptest::prelude::*;
use rand::prelude::*;

/// A root corner coordinate: a signed zero or a value of either sign.
fn origin_coord() -> impl Strategy<Value = f64> {
    (0u8..4, -1e6f64..1e6).prop_map(|(kind, v)| match kind {
        0 => -0.0,
        1 => 0.0,
        _ => v,
    })
}

/// A root side: 0 (a single-position user) or log-uniform in `[1e-9, 1e9]`.
fn side() -> impl Strategy<Value = f64> {
    (0u8..8, -9.0f64..=9.0).prop_map(|(kind, e)| if kind == 0 { 0.0 } else { 10f64.powf(e) })
}

fn root() -> impl Strategy<Value = Square> {
    (origin_coord(), origin_coord(), side()).prop_map(|(x, y, s)| Square::new(Point::new(x, y), s))
}

/// One split coordinate of `root` along an axis starting at `origin`:
/// replays the descent's own arithmetic down a random path to a random
/// level below `depth`, then returns that level's midpoint `o + h`.
fn split_line(origin: f64, side: f64, depth: usize, rng: &mut StdRng) -> f64 {
    let level = rng.gen_range(0..depth.max(1));
    let (mut o, mut s) = (origin, side);
    for _ in 0..level {
        let h = s * 0.5;
        o += f64::from(u8::from(rng.gen::<bool>())) * h;
        s = h;
    }
    o + s * 0.5
}

/// One coordinate of a test point along an axis starting at `origin`: on a
/// split line, on the root's min or max edge, or anywhere in (and a little
/// beyond) the root.
fn coord(origin: f64, side: f64, depth: usize, rng: &mut StdRng) -> f64 {
    match rng.gen_range(0u8..5) {
        0 | 1 => split_line(origin, side, depth, rng),
        2 => origin + side,
        3 => origin,
        _ => origin + side * rng.gen_range(-0.05..1.05),
    }
}

fn points(root: &Square, depth: usize, n: usize, rng: &mut StdRng) -> Vec<Point> {
    (0..n)
        .map(|_| {
            Point::new(
                coord(root.origin.x, root.side, depth, rng),
                coord(root.origin.y, root.side, depth, rng),
            )
        })
        .collect()
}

/// Asserts all three batch forms equal their scalar oracles on `pts`.
fn assert_batch_matches_oracle(root: &Square, depth: usize, pts: &[Point]) {
    let mut codes = vec![u64::MAX; 3]; // stale content must be cleared
    morton_codes(root, depth, pts, &mut codes);
    let oracle: Vec<u64> = pts.iter().map(|p| morton_code(root, depth, p)).collect();
    assert_eq!(codes, oracle, "morton_codes, root {root:?} depth {depth}");

    let xs: Vec<f64> = pts.iter().map(|p| p.x).collect();
    let ys: Vec<f64> = pts.iter().map(|p| p.y).collect();
    let mut cells = vec![(1, 1)];
    grid_cells(root, depth, &xs, &ys, &mut cells);
    let oracle: Vec<(u64, u64)> = pts.iter().map(|p| grid_coords(root, depth, p)).collect();
    assert_eq!(cells, oracle, "grid_cells, root {root:?} depth {depth}");

    hilbert_codes(root, depth, pts, &mut codes);
    let oracle: Vec<u64> = pts.iter().map(|p| hilbert_code(root, depth, p)).collect();
    assert_eq!(codes, oracle, "hilbert_codes, root {root:?} depth {depth}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn batch_codes_equal_the_scalar_oracle(
        root in root(),
        depth in 0usize..=31,
        n in 0usize..=17,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pts = points(&root, depth, n, &mut rng);
        assert_batch_matches_oracle(&root, depth, &pts);
    }
}

/// Every (remainder length, depth) pair, deterministically, on roots with
/// a negative, a `-0.0` and a zero-side corner.
#[test]
fn every_length_and_depth_matches_the_oracle() {
    let roots = [
        Square::new(Point::new(-3.0, 2.0), 8.0),
        Square::new(Point::new(-0.0, -0.0), 1e-9),
        Square::new(Point::new(-1234.5, -0.0), 1e9),
        Square::new(Point::new(7.25, -7.25), 0.0),
    ];
    let mut rng = StdRng::seed_from_u64(0x1a7e);
    for root in &roots {
        for n in 0..=2 * LANE + 1 {
            for depth in 0..=31 {
                let pts = points(root, depth, n, &mut rng);
                assert_batch_matches_oracle(root, depth, &pts);
            }
        }
    }
}

/// Points on every split line of a small grid, one of them per lane slot,
/// so each lane position sees a tie resolved eastward/northward.
#[test]
fn split_lines_go_to_the_higher_child_in_every_lane() {
    let root = Square::new(Point::new(-1.0, -0.0), 3.0);
    let depth = 3;
    let cell = root.side / 8.0;
    let pts: Vec<Point> = (0..=8)
        .flat_map(|i| {
            (0..=8).map(move |j| {
                Point::new(
                    root.origin.x + cell * i as f64,
                    root.origin.y + cell * j as f64,
                )
            })
        })
        .collect();
    for start in 0..LANE {
        assert_batch_matches_oracle(&root, depth, &pts[start..]);
    }
}
