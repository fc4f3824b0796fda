//! Property-based tests for the influence model: the pruning thresholds
//! must never contradict the exact cumulative probability.

use mc2ls_geo::Point;
use mc2ls_influence::{
    cumulative_probability, eta_count, influences, influences_blocked, influences_blocked_exact,
    min_max_radius, resolve_block_size, BlockScratch, Exponential, MovingUser, PositionBlocks,
    ProbabilityFunction, Sigmoid, BLOCK_SIZE_AUTO,
};
use proptest::prelude::*;

/// Block sizes the kernel-equivalence properties sweep: the degenerate
/// one-position block, a sub-lane size, the old default, and the auto
/// sentinel (resolved per generated dataset).
const KERNEL_BLOCK_SIZES: [usize; 4] = [1, 4, 16, BLOCK_SIZE_AUTO];

/// Asserts the lane (fast-PF) and exact-`exp` blocked kernels return the
/// same decision for `user` across a τ sweep that includes both boundaries
/// and τ sitting *exactly on* the user's cumulative probability (the knife
/// edge where the fast path's error band is guaranteed to matter, forcing
/// the exact fallback). Interior τ is additionally checked against the
/// plain per-position kernel.
fn assert_kernel_trio_agrees<PF: ProbabilityFunction>(
    pf: &PF,
    v: &Point,
    user: &MovingUser,
    blocks: &PositionBlocks,
    o: u32,
    interior_tau: f64,
    scratch: &mut BlockScratch,
) {
    let pr = cumulative_probability(pf, v, user.positions());
    for t in [0.0, interior_tau, pr.clamp(0.0, 1.0), 1.0] {
        let lane = influences_blocked(pf, v, blocks, o, t, scratch);
        let exact = influences_blocked_exact(pf, v, blocks, o, t, scratch);
        assert_eq!(lane, exact, "fast vs exact diverged: user {o} tau {t}");
    }
    assert_eq!(
        influences_blocked(pf, v, blocks, o, interior_tau, scratch),
        influences(pf, v, user.positions(), interior_tau),
        "fast vs plain diverged: user {o} tau {interior_tau}"
    );
}

fn pt() -> impl Strategy<Value = Point> {
    (-20.0f64..20.0, -20.0f64..20.0).prop_map(|(x, y)| Point::new(x, y))
}

fn positions() -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(pt(), 1..40)
}

fn tau() -> impl Strategy<Value = f64> {
    0.05f64..0.95
}

fn users() -> impl Strategy<Value = Vec<MovingUser>> {
    prop::collection::vec(positions().prop_map(MovingUser::new), 1..6)
}

fn block_size() -> impl Strategy<Value = usize> {
    1usize..40
}

proptest! {
    /// Early stopping must agree with the exact Definition 2 decision.
    #[test]
    fn early_stopping_is_exact(v in pt(), ps in positions(), t in tau()) {
        let pf = Sigmoid::paper_default();
        let exact = cumulative_probability(&pf, &v, &ps) >= t;
        prop_assert_eq!(influences(&pf, &v, &ps, t), exact);
    }

    /// Corollary 1: all r positions within mMR(τ, r) ⇒ influenced.
    #[test]
    fn corollary1_inside_mmr_influences(center in pt(), t in tau(), r in 1usize..30, seed in 0u64..1000) {
        let pf = Sigmoid::paper_default();
        if let Some(mmr) = min_max_radius(&pf, t, r) {
            // Deterministic pseudo-random placement inside the circle.
            let ps: Vec<Point> = (0..r).map(|i| {
                let a = (seed as f64 * 0.618 + i as f64) % (2.0 * std::f64::consts::PI);
                let rad = mmr * (((seed + i as u64) % 97) as f64 / 97.0);
                Point::new(center.x + rad * a.cos(), center.y + rad * a.sin())
            }).collect();
            prop_assert!(influences(&pf, &center, &ps, t));
        }
    }

    /// Corollary 2: no position within mMR(τ, r) ⇒ not influenced.
    #[test]
    fn corollary2_outside_mmr_never_influences(center in pt(), t in tau(), r in 1usize..30, seed in 0u64..1000) {
        let pf = Sigmoid::paper_default();
        let mmr = min_max_radius(&pf, t, r).unwrap_or(0.0);
        let ps: Vec<Point> = (0..r).map(|i| {
            let a = (seed as f64 * 0.37 + i as f64) % (2.0 * std::f64::consts::PI);
            let rad = mmr + 1e-6 + ((seed + i as u64) % 13) as f64;
            Point::new(center.x + rad * a.cos(), center.y + rad * a.sin())
        }).collect();
        prop_assert!(!influences(&pf, &center, &ps, t));
    }

    /// Lemma 1: ⌈η(τ, PF, d̂)⌉ positions within distance d̂ ⇒ influenced,
    /// for any extra positions anywhere.
    #[test]
    fn lemma1_eta_count_influences(center in pt(), t in tau(), d_hat in 0.1f64..4.0,
                                   extra in prop::collection::vec(pt(), 0..10), seed in 0u64..1000) {
        let pf = Sigmoid::paper_default();
        if let Some(n) = eta_count(&pf, t, d_hat) {
            if n <= 200 {
                let mut ps: Vec<Point> = (0..n).map(|i| {
                    let a = (seed as f64 + i as f64 * 2.39996) % (2.0 * std::f64::consts::PI);
                    let rad = d_hat * ((i as u64 + seed) % 101) as f64 / 101.0;
                    Point::new(center.x + rad * a.cos(), center.y + rad * a.sin())
                }).collect();
                ps.extend(extra);
                prop_assert!(influences(&pf, &center, &ps, t));
            }
        }
    }

    /// Monotonicity (Lemma 4 core): appending positions never lowers Pr.
    #[test]
    fn appending_positions_monotone(v in pt(), ps in positions(), extra in pt()) {
        let pf = Exponential::new(0.9, 1.5);
        let before = cumulative_probability(&pf, &v, &ps);
        let mut more = ps.clone();
        more.push(extra);
        let after = cumulative_probability(&pf, &v, &more);
        prop_assert!(after >= before - 1e-12);
    }

    /// Pr is monotone non-increasing when the facility moves directly away
    /// from every position (PF monotone ⇒ cumulative monotone).
    #[test]
    fn probability_decreases_with_uniform_retreat(ps in positions(), shift in 0.0f64..10.0) {
        let pf = Sigmoid::paper_default();
        // Place v far east of the MBR, then move it farther east.
        let u = MovingUser::new(ps.clone());
        let base_x = u.mbr().max.x + 1.0;
        let near = Point::new(base_x, u.mbr().center().y);
        let far = Point::new(base_x + shift, u.mbr().center().y);
        // Moving straight east increases the distance to every position.
        let pr_near = cumulative_probability(&pf, &near, &ps);
        let pr_far = cumulative_probability(&pf, &far, &ps);
        prop_assert!(pr_far <= pr_near + 1e-12);
    }

    /// Probability is always in [0, 1].
    #[test]
    fn probability_in_unit_interval(v in pt(), ps in positions()) {
        let pf = Sigmoid::new(0.8);
        let pr = cumulative_probability(&pf, &v, &ps);
        prop_assert!((0.0..=1.0).contains(&pr));
    }

    /// The per-block factor bounds derived from the block MBR bracket the
    /// exact keep-product of the block's positions: PF is monotone
    /// non-increasing in distance, so every position's keep-factor
    /// `1 − PF(d)` lies in `[1 − PF(dmin), 1 − PF(dmax)]` and the block
    /// product in `[flo^n, fhi^n]`.
    #[test]
    fn block_bounds_bracket_exact_product(v in pt(), us in users(), bs in block_size()) {
        let pf = Sigmoid::paper_default();
        let blocks = PositionBlocks::build(&us, bs);
        blocks.validate();
        for b in 0..blocks.n_blocks() {
            let rect = blocks.block_rect(b);
            let n = blocks.block_len(b) as i32;
            let flo = 1.0 - pf.prob(rect.min_distance(&v));
            let fhi = 1.0 - pf.prob(rect.max_distance(&v));
            let (xs, ys) = blocks.block_positions(b);
            let exact: f64 = xs.iter().zip(ys)
                .map(|(&x, &y)| 1.0 - pf.prob(v.distance(&Point::new(x, y))))
                .product();
            prop_assert!(flo.powi(n) <= exact + 1e-12,
                "lower bound {} above exact {}", flo.powi(n), exact);
            prop_assert!(fhi.powi(n) >= exact - 1e-12,
                "upper bound {} below exact {}", fhi.powi(n), exact);
        }
    }

    /// The blocked kernel is a pure optimisation: its decision equals the
    /// exact Definition 2 decision for every user, any block size.
    #[test]
    fn blocked_kernel_is_exact(v in pt(), us in users(), bs in block_size(), t in tau()) {
        let pf = Sigmoid::paper_default();
        let blocks = PositionBlocks::build(&us, bs);
        blocks.validate();
        let mut scratch = BlockScratch::new();
        for (u, user) in us.iter().enumerate() {
            let exact = cumulative_probability(&pf, &v, user.positions()) >= t;
            prop_assert_eq!(
                influences_blocked(&pf, &v, &blocks, u as u32, t, &mut scratch),
                exact,
                "user {} diverged at block size {}", u, bs
            );
        }
    }

    /// Degenerate thresholds: τ = 0 accepts everyone (Pr ≥ 0 always);
    /// τ just below 1 — where PF(0) = 0.5 caps Pr of an r-position user at
    /// 1 − 2^−r — still matches the exact decision.
    #[test]
    fn blocked_kernel_handles_degenerate_taus(v in pt(), us in users(), bs in block_size()) {
        let pf = Sigmoid::paper_default();
        let blocks = PositionBlocks::build(&us, bs);
        blocks.validate();
        let mut scratch = BlockScratch::new();
        for (u, user) in us.iter().enumerate() {
            prop_assert!(influences_blocked(&pf, &v, &blocks, u as u32, 0.0, &mut scratch));
            let t = 1.0 - 1e-9;
            let exact = cumulative_probability(&pf, &v, user.positions()) >= t;
            prop_assert_eq!(influences_blocked(&pf, &v, &blocks, u as u32, t, &mut scratch), exact);
        }
    }

    /// The lane kernel's fast-PF decisions are bit-identical to the exact
    /// kernel's (and the plain kernel's) for the sigmoid PF, across
    /// boundary and knife-edge τ and the block-size sweep including auto.
    #[test]
    fn fast_pf_decisions_bit_identical_sigmoid(v in pt(), us in users(), t in tau()) {
        let pf = Sigmoid::paper_default();
        let mut scratch = BlockScratch::new();
        for bs in KERNEL_BLOCK_SIZES {
            let resolved = resolve_block_size(&us, bs).expect("fixed/auto always resolve");
            let blocks = PositionBlocks::build(&us, resolved);
            for (u, user) in us.iter().enumerate() {
                assert_kernel_trio_agrees(&pf, &v, user, &blocks, u as u32, t, &mut scratch);
            }
        }
    }

    /// Same bit-identity sweep for the exponential PF (the other fast-path
    /// override, exercising the `exp_neg(−d/σ)` lane).
    #[test]
    fn fast_pf_decisions_bit_identical_exponential(v in pt(), us in users(), t in tau()) {
        let pf = Exponential::new(0.9, 1.5);
        let mut scratch = BlockScratch::new();
        for bs in KERNEL_BLOCK_SIZES {
            let resolved = resolve_block_size(&us, bs).expect("fixed/auto always resolve");
            let blocks = PositionBlocks::build(&us, resolved);
            for (u, user) in us.iter().enumerate() {
                assert_kernel_trio_agrees(&pf, &v, user, &blocks, u as u32, t, &mut scratch);
            }
        }
    }

    /// All-identical positions collapse to point-rectangle blocks whose
    /// bounds are tight; the decision must still be exact.
    #[test]
    fn blocked_kernel_exact_on_identical_positions(v in pt(), p in pt(), r in 1usize..50,
                                                   bs in block_size(), t in tau()) {
        let pf = Sigmoid::paper_default();
        let us = vec![MovingUser::new(vec![p; r])];
        let blocks = PositionBlocks::build(&us, bs);
        blocks.validate();
        let mut scratch = BlockScratch::new();
        let exact = cumulative_probability(&pf, &v, &vec![p; r]) >= t;
        prop_assert_eq!(influences_blocked(&pf, &v, &blocks, 0, t, &mut scratch), exact);
    }
}
