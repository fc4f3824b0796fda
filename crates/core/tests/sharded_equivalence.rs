//! The selector is written once over user partitions, so it must be
//! byte-identical for any shard count, worker count, and subset — for
//! every selector, not only the decremental scatter/gather the serving
//! layer runs.

use mc2ls_core::algorithms::{run_selector, Selector};
use mc2ls_core::shard::{parse_shard_view, shard_starts, split_sets, ShardView};
use mc2ls_core::{
    class_counts, select, ClassCounts, GatherScratch, GatherStats, InfluenceSets, InvertedIndex,
    SelectOpts, SelectionStats, Solution,
};
use mc2ls_influence::Model;
use proptest::prelude::*;

const SELECTORS: [Selector; 4] = [
    Selector::Greedy,
    Selector::LazyGreedy,
    Selector::Decremental,
    Selector::Auto,
];

fn random_sets(seed: u64, n_users: usize, n_cands: usize) -> InfluenceSets {
    let mut s = seed.max(1);
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let f_count: Vec<u32> = (0..n_users).map(|_| (next() % 5) as u32).collect();
    let omega: Vec<Vec<u32>> = (0..n_cands)
        .map(|_| {
            let mut v: Vec<u32> = (0..n_users as u32).filter(|_| next() % 4 != 0).collect();
            v.sort_unstable();
            v.dedup();
            v
        })
        .collect();
    InfluenceSets::new(omega, f_count)
}

fn shard_payloads(sets: &InfluenceSets, n_shards: usize) -> Vec<(u32, Vec<u8>, Vec<u8>)> {
    let starts = shard_starts(sets.n_users(), n_shards);
    split_sets(sets, &starts)
        .into_iter()
        .enumerate()
        .map(|(s, local)| {
            let inv = InvertedIndex::build(&local);
            (starts[s], local.to_bytes(), inv.to_bytes())
        })
        .collect()
}

fn views(payloads: &[(u32, Vec<u8>, Vec<u8>)], n_candidates: usize) -> Vec<ShardView<'_>> {
    payloads
        .iter()
        .map(|(base, fwd, inv)| {
            parse_shard_view(*base, fwd, inv, n_candidates as u32).expect("valid shard payloads")
        })
        .collect()
}

fn run(
    shards: &[ShardView<'_>],
    counts: Option<&ClassCounts>,
    selector: Selector,
    subset: Option<&[u32]>,
    k: usize,
    threads: usize,
) -> (Solution, SelectionStats, GatherStats) {
    let opts = SelectOpts {
        selector,
        model: &Model::Cumulative,
        threads,
        subset,
    };
    select(shards, counts, k, &opts, &mut GatherScratch::new())
}

fn bits(sol: &Solution) -> (Vec<u32>, Vec<u64>, u64) {
    (
        sol.selected.clone(),
        sol.marginal_gains.iter().map(|g| g.to_bits()).collect(),
        sol.cinf.to_bits(),
    )
}

#[test]
fn gather_matches_every_selector_across_shard_and_thread_counts() {
    for seed in [1u64, 8, 21, 77] {
        let sets = random_sets(seed, 60, 12);
        let k = 5;
        for n_shards in [1usize, 2, 4, 7] {
            let payloads = shard_payloads(&sets, n_shards);
            let shards = views(&payloads, sets.n_candidates());
            for threads in [1usize, 3] {
                let counts = class_counts(&shards, sets.n_candidates(), threads);
                let (got, _, _) = run(
                    &shards,
                    Some(&counts),
                    Selector::Decremental,
                    None,
                    k,
                    threads,
                );
                for selector in SELECTORS {
                    let (want, _) = run_selector(selector, &sets, k, threads);
                    assert_eq!(
                        bits(&want),
                        bits(&got),
                        "seed={seed} shards={n_shards} threads={threads} {selector:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn subset_gather_matches_subinstance_selectors() {
    let sets = random_sets(13, 45, 10);
    let subset: Vec<u32> = vec![0, 2, 5, 6, 9];
    let sub = sets.subset(&subset);
    let payloads = shard_payloads(&sets, 3);
    let shards = views(&payloads, sets.n_candidates());
    let counts = class_counts(&shards, sets.n_candidates(), 2);
    let (got, _, _) = run(
        &shards,
        Some(&counts),
        Selector::Decremental,
        Some(&subset),
        3,
        2,
    );
    let (want, _) = run_selector(Selector::Auto, &sub, 3, 1);
    let mapped: Vec<u32> = want.selected.iter().map(|&r| subset[r as usize]).collect();
    assert_eq!(mapped, got.selected);
    assert_eq!(want.cinf.to_bits(), got.cinf.to_bits());
}

proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(24))]

    /// Every selector over shard counts {1, 2, 5} × threads {1, 4} × {full
    /// set, random subset}: the solution is the one-shard rescan's, bit for
    /// bit, and the stats are the same selector's one-shard run on the
    /// (sub-)instance — with or without caller-supplied counts.
    #[test]
    fn every_selector_is_shard_thread_and_subset_invariant(
        seed in 1u64..1_000_000,
        n_users in 1usize..40,
        n_cands in 1usize..10,
        pick in prop::collection::vec(0u32..1000, 1..8),
        k_raw in 0usize..1000,
    ) {
        let sets = random_sets(seed, n_users, n_cands);
        let mut subset: Vec<u32> = pick.iter().map(|&c| c % n_cands as u32).collect();
        subset.sort_unstable();
        subset.dedup();
        for subset in [None, Some(subset.as_slice())] {
            let instance = subset.map_or_else(|| sets.clone(), |ids| sets.subset(ids));
            let n = instance.n_candidates();
            let k = 1 + k_raw % n;
            let map_back = |sol: &Solution| -> Vec<u32> {
                sol.selected
                    .iter()
                    .map(|&r| subset.map_or(r, |ids| ids[r as usize]))
                    .collect()
            };
            let (reference, _) = run_selector(Selector::Greedy, &instance, k, 1);
            for n_shards in [1usize, 2, 5] {
                let payloads = shard_payloads(&sets, n_shards);
                let shards = views(&payloads, n_cands);
                for threads in [1usize, 4] {
                    let counts = class_counts(&shards, n_cands, threads);
                    for selector in SELECTORS {
                        let (one_shard, want_stats) = run_selector(selector, &instance, k, threads);
                        prop_assert_eq!(bits(&one_shard), bits(&reference));
                        for given in [None, Some(&counts)] {
                            let (got, got_stats, gather) =
                                run(&shards, given, selector, subset, k, threads);
                            let label = format!(
                                "{selector:?} shards={n_shards} t={threads} subset={} counts={}",
                                subset.is_some(),
                                given.is_some()
                            );
                            prop_assert_eq!(&got.selected, &map_back(&reference), "{}", &label);
                            let got_gains: Vec<u64> =
                                got.marginal_gains.iter().map(|g| g.to_bits()).collect();
                            prop_assert_eq!(&got_gains, &bits(&reference).1, "{}", &label);
                            prop_assert_eq!(got.cinf.to_bits(), reference.cinf.to_bits(), "{}", &label);
                            prop_assert_eq!(got_stats, want_stats, "{}", &label);
                            prop_assert_eq!(gather.shards as usize, shards.len());
                            prop_assert_eq!(gather.rounds as usize, k);
                            prop_assert_eq!(gather.shared_epoch, given.is_some());
                        }
                    }
                }
            }
        }
    }
}
