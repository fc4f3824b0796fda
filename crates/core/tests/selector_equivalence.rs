//! All greedy selectors are the same function: rescan, CELF and
//! decremental (inverted-CSR gain maintenance) must return
//! **byte-identical** `Solution`s — same selected ids in the same order,
//! bit-equal marginal gains and `cinf` — on any instance, at any
//! worker-thread count. The canonical weight-class gain
//! materialisation (`Σ_w counts[w]/(w+1)` in fixed class order) is what
//! makes this hold exactly, not just within a tolerance.

use mc2ls_core::algorithms::{run_selector, Selector};
use mc2ls_core::{
    select, GatherScratch, InfluenceSets, InvertedIndex, SelectOpts, SelectionStats, SetRows,
    Solution,
};
use mc2ls_influence::Model;
use proptest::prelude::*;

const THREADS: [usize; 2] = [1, 4];

/// Normalises raw generated material into a valid instance: user ids are
/// folded into range, lists sorted + deduplicated.
fn build_sets(f_count: Vec<u32>, raw_lists: Vec<Vec<u32>>) -> InfluenceSets {
    let n_users = f_count.len() as u32;
    let omega_c: Vec<Vec<u32>> = raw_lists
        .into_iter()
        .map(|raw| {
            let mut list: Vec<u32> = raw.into_iter().map(|x| x % n_users).collect();
            list.sort_unstable();
            list.dedup();
            list
        })
        .collect();
    let sets = InfluenceSets::new(omega_c, f_count);
    // Debug-mode structural sanitizer: a malformed CSR would invalidate
    // every equivalence assertion below.
    sets.validate();
    sets
}

/// `selector` through [`select`] over the owned sets as one shard, with an
/// explicit `Model::Cumulative`.
fn via_select(sets: &InfluenceSets, selector: Selector, k: usize, threads: usize) -> Solution {
    let inverted = InvertedIndex::build(sets);
    let rows = [SetRows {
        sets,
        inverted: Some(&inverted),
    }];
    let opts = SelectOpts {
        selector,
        model: &Model::Cumulative,
        threads,
        subset: None,
    };
    select(&rows, None, k, &opts, &mut GatherScratch::new()).0
}

/// Runs every selector at every thread count and asserts byte-identity
/// against the rescan reference. Returns the reference solution.
fn assert_all_selectors_identical(sets: &InfluenceSets, k: usize) -> Solution {
    // Sanitize the derived structures the selectors run on.
    InvertedIndex::build(sets).validate();
    let (reference, _) = run_selector(Selector::Greedy, sets, k, 1);
    sets.covered_by(&reference.selected).validate();
    let ref_bits: Vec<u64> = reference
        .marginal_gains
        .iter()
        .map(|g| g.to_bits())
        .collect();
    let check = |name: &str, got: Solution| {
        assert_eq!(reference.selected, got.selected, "{name}: selected ids");
        let got_bits: Vec<u64> = got.marginal_gains.iter().map(|g| g.to_bits()).collect();
        assert_eq!(ref_bits, got_bits, "{name}: marginal gain bits");
        assert_eq!(
            reference.cinf.to_bits(),
            got.cinf.to_bits(),
            "{name}: cinf bits"
        );
    };
    for threads in THREADS {
        check(
            &format!("celf t={threads}"),
            run_selector(Selector::LazyGreedy, sets, k, threads).0,
        );
        check(
            &format!("decremental t={threads}"),
            run_selector(Selector::Decremental, sets, k, threads).0,
        );
    }
    // Trait-dispatched cumulative model: routing the same selection through
    // the CompetitionModel trait with an explicit `Model::Cumulative` must
    // not move a bit relative to the default paths above.
    check("rescan via trait", via_select(sets, Selector::Greedy, k, 1));
    for threads in THREADS {
        check(
            &format!("celf via trait t={threads}"),
            via_select(sets, Selector::LazyGreedy, k, threads),
        );
        check(
            &format!("decremental via trait t={threads}"),
            via_select(sets, Selector::Decremental, k, threads),
        );
    }
    reference
}

/// The selectors' stats must not depend on the thread count.
fn assert_stats_thread_invariant(sets: &InfluenceSets, k: usize) {
    let stats_at = |threads: usize| -> (SelectionStats, SelectionStats) {
        (
            run_selector(Selector::LazyGreedy, sets, k, threads).1,
            run_selector(Selector::Decremental, sets, k, threads).1,
        )
    };
    assert_eq!(stats_at(1), stats_at(4), "stats diverged at t=4");
}

proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(64))]

    /// Randomised instances: mixed weight classes, uneven coverage.
    #[test]
    fn selectors_agree_on_random_instances(
        f_count in prop::collection::vec(0u32..4, 1..24),
        raw_lists in prop::collection::vec(prop::collection::vec(0u32..1000, 0..30), 1..10),
        k_raw in 0usize..1000,
    ) {
        let sets = build_sets(f_count, raw_lists);
        let k = 1 + k_raw % sets.n_candidates();
        assert_all_selectors_identical(&sets, k);
        assert_stats_thread_invariant(&sets, k);
    }

    /// Tie-heavy instances: one weight class only and many duplicated
    /// candidate lists, so nearly every round is decided by the
    /// smallest-id tie-break.
    #[test]
    fn selectors_agree_on_tie_heavy_instances(
        n_users_raw in 1u32..12,
        raw_lists in prop::collection::vec(prop::collection::vec(0u32..1000, 0..8), 2..8),
        dup_from in prop::collection::vec(0usize..1000, 2..8),
    ) {
        let f_count = vec![0u32; n_users_raw as usize];
        let mut lists = raw_lists;
        // Overwrite a suffix of the candidates with copies of earlier ones.
        for i in 1..lists.len() {
            if i < dup_from.len() && dup_from[i] % 2 == 0 {
                lists[i] = lists[dup_from[i] % i].clone();
            }
        }
        let sets = build_sets(f_count, lists);
        let k = sets.n_candidates(); // exhaust every tie
        assert_all_selectors_identical(&sets, k);
    }

    /// One dominant candidate covers every user, so from round 2 on every
    /// remaining gain is exactly 0.0 — the all-covered regime where stale
    /// heap entries and empty decrement phases must still agree.
    #[test]
    fn selectors_agree_when_first_pick_covers_everything(
        f_count in prop::collection::vec(0u32..3, 1..16),
        raw_lists in prop::collection::vec(prop::collection::vec(0u32..1000, 0..10), 1..6),
    ) {
        let n_users = f_count.len() as u32;
        let mut lists = raw_lists;
        lists.push((0..n_users).collect()); // the dominant candidate
        let sets = build_sets(f_count, lists);
        let k = sets.n_candidates();
        let sol = assert_all_selectors_identical(&sets, k);
        // Sanity: once everything is covered the remaining gains are +0.0.
        let full = sets.cinf_set(&(0..sets.n_candidates() as u32).collect::<Vec<u32>>());
        prop_assert!((sol.cinf - full).abs() < 1e-12);
    }

    /// Instances with empty Ω lists sprinkled in: zero-gain candidates must
    /// rank purely by id in every implementation.
    #[test]
    fn selectors_agree_with_empty_omegas(
        f_count in prop::collection::vec(0u32..3, 1..16),
        raw_lists in prop::collection::vec(prop::collection::vec(0u32..1000, 0..6), 1..6),
        empty_at in prop::collection::vec(0usize..1000, 1..4),
    ) {
        let mut lists = raw_lists;
        for &pos in &empty_at {
            lists.insert(pos % (lists.len() + 1), Vec::new());
        }
        let sets = build_sets(f_count, lists);
        let k = sets.n_candidates();
        assert_all_selectors_identical(&sets, k);
    }
}

/// End-to-end geometric regression for the competition-model refactor: the
/// full pipeline (verification → influence sets → selection) under an
/// explicit `Model::Cumulative` is byte-identical to the default dispatch,
/// at every verification block size × thread count × selector.
#[test]
fn trait_dispatched_cumulative_is_byte_identical_across_block_sizes() {
    use mc2ls_core::algorithms::{solve_threaded, Method};
    use mc2ls_core::{IqtConfig, Problem};
    use mc2ls_geo::Point;
    use mc2ls_influence::{MovingUser, Sigmoid, BLOCK_SIZE_AUTO, BLOCK_SIZE_PLAIN};

    let mut seed = 0x5eed_cafe_u64;
    let mut next = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    let mut point = {
        let mut draw = move || (next() % 10_000) as f64 / 1000.0;
        move || Point::new(draw(), draw())
    };
    let users: Vec<MovingUser> = (0..60)
        .map(|i| MovingUser::new((0..1 + i % 4).map(|_| point()).collect()))
        .collect();
    let facilities: Vec<Point> = (0..8).map(|_| point()).collect();
    let candidates: Vec<Point> = (0..12).map(|_| point()).collect();
    let problem = Problem::new(
        users,
        facilities,
        candidates,
        4,
        0.5,
        Sigmoid::paper_default(),
    );

    let reference = solve_threaded(
        &problem,
        Method::Iqt(IqtConfig::default()),
        Selector::Greedy,
        1,
    )
    .solution;
    assert!(!reference.selected.is_empty());
    for block_size in [BLOCK_SIZE_PLAIN, 4, BLOCK_SIZE_AUTO] {
        for threads in THREADS {
            for selector in [
                Selector::Greedy,
                Selector::LazyGreedy,
                Selector::Decremental,
            ] {
                for explicit in [false, true] {
                    let mut p = problem.clone().with_block_size(block_size);
                    if explicit {
                        p = p.with_model(Model::Cumulative);
                    }
                    let got =
                        solve_threaded(&p, Method::Iqt(IqtConfig::default()), selector, threads)
                            .solution;
                    let label = format!(
                        "block_size={block_size} t={threads} {selector:?} explicit={explicit}"
                    );
                    assert_eq!(reference.selected, got.selected, "{label}: selected");
                    let ref_bits: Vec<u64> = reference
                        .marginal_gains
                        .iter()
                        .map(|g| g.to_bits())
                        .collect();
                    let got_bits: Vec<u64> =
                        got.marginal_gains.iter().map(|g| g.to_bits()).collect();
                    assert_eq!(ref_bits, got_bits, "{label}: gain bits");
                    assert_eq!(
                        reference.cinf.to_bits(),
                        got.cinf.to_bits(),
                        "{label}: cinf bits"
                    );
                }
            }
        }
    }
}

#[test]
fn selectors_agree_on_degenerate_edges() {
    // No users at all.
    let no_users = InfluenceSets::new(vec![vec![], vec![]], vec![]);
    assert_all_selectors_identical(&no_users, 2);
    // A single candidate, k = 0 and k = 1.
    let single = InfluenceSets::new(vec![vec![0, 1]], vec![0, 1]);
    assert_all_selectors_identical(&single, 0);
    assert_all_selectors_identical(&single, 1);
}
