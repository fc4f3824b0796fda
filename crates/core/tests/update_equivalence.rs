//! The rebuild-equivalence guarantee of the incremental update engine:
//! after ANY sequence of inserts, deletes and moves plus a compaction, the
//! engine's influence sets, inverted index and solutions are bit-identical
//! to a from-scratch rebuild of the mutated instance — across thread
//! counts and shard layouts.

use mc2ls_core::algorithms::{influence_sets_threaded, run_selector, Selector};
use mc2ls_core::shard::{parse_shard_view, shard_starts, split_sets, ShardView};
use mc2ls_core::{
    class_counts, select, GatherScratch, InfluenceSets, InvertedIndex, IqtConfig, Method, Problem,
    SelectOpts, UpdateEngine, UserUpdate,
};
use mc2ls_geo::Point;
use mc2ls_influence::{Model, MovingUser, Sigmoid};
use proptest::prelude::*;

/// Coordinates tight enough (and τ low enough) that influence sets are
/// non-empty: `Sigmoid::paper_default()` caps PF(0) at 0.5, so sparse
/// instances would test nothing.
fn pt() -> impl Strategy<Value = Point> {
    (-4.0f64..4.0, -4.0f64..4.0).prop_map(|(x, y)| Point::new(x, y))
}

fn trajectory() -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(pt(), 1..4)
}

/// An abstract mobility event; `user_pick` is resolved against the set of
/// slots alive at application time, so every generated sequence is valid.
#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<Point>),
    Delete(usize),
    Move(usize, Vec<Point>),
}

fn op() -> impl Strategy<Value = Op> {
    // The shim has no `prop_oneof`; a discriminant field picks the variant.
    (0usize..3, 0usize..64, trajectory()).prop_map(|(kind, pick, traj)| match kind {
        0 => Op::Insert(traj),
        1 => Op::Delete(pick),
        _ => Op::Move(pick, traj),
    })
}

fn instance() -> impl Strategy<Value = (Vec<MovingUser>, Vec<Point>, Vec<Point>, Vec<Op>)> {
    (
        prop::collection::vec(trajectory(), 8..20)
            .prop_map(|ts| ts.into_iter().map(MovingUser::new).collect::<Vec<_>>()),
        prop::collection::vec(pt(), 4..10), // candidates
        prop::collection::vec(pt(), 2..5),  // facilities
        prop::collection::vec(op(), 1..12),
    )
}

/// Picks the `pick`-th alive slot (mod the alive count); `None` when every
/// slot is tombstoned.
fn resolve(alive: &[bool], pick: usize) -> Option<u32> {
    let live: Vec<u32> = (0..alive.len() as u32)
        .filter(|&o| alive[o as usize])
        .collect();
    if live.is_empty() {
        None
    } else {
        Some(live[pick % live.len()])
    }
}

/// Replays `ops` against the engine, mirroring the surviving trajectories
/// in the same order compaction will produce: slot order, tombstones
/// dropped, inserts appended.
fn replay(engine: &mut UpdateEngine<Sigmoid>, ops: &[Op]) {
    let mut alive = vec![true; engine.n_slots()];
    for op in ops {
        match op {
            Op::Insert(traj) => {
                engine
                    .apply(UserUpdate::Insert {
                        positions: traj.clone(),
                    })
                    .expect("insert is always valid");
                alive.push(true);
            }
            Op::Delete(pick) => {
                if let Some(user) = resolve(&alive, *pick) {
                    engine.apply(UserUpdate::Delete { user }).expect("alive");
                    alive[user as usize] = false;
                }
            }
            Op::Move(pick, traj) => {
                if let Some(user) = resolve(&alive, *pick) {
                    engine
                        .apply(UserUpdate::Move {
                            user,
                            positions: traj.clone(),
                        })
                        .expect("alive");
                }
            }
        }
    }
}

fn rebuild(
    engine: &UpdateEngine<Sigmoid>,
    problem: &Problem<Sigmoid>,
    threads: usize,
) -> InfluenceSets {
    let fresh = Problem::new(
        engine.users().to_vec(),
        problem.facilities.clone(),
        problem.candidates.clone(),
        problem.k,
        problem.tau,
        problem.pf,
    );
    influence_sets_threaded(&fresh, Method::Iqt(IqtConfig::default()), threads).0
}

/// Shards `sets` into `n_shards` payloads and runs the scatter/gather
/// selector over them.
fn gather_solution(
    sets: &InfluenceSets,
    n_shards: usize,
    k: usize,
    threads: usize,
) -> (Vec<u32>, u64) {
    let starts = shard_starts(sets.n_users(), n_shards);
    let payloads: Vec<(u32, Vec<u8>, Vec<u8>)> = split_sets(sets, &starts)
        .into_iter()
        .enumerate()
        .map(|(s, local)| {
            let inv = InvertedIndex::build(&local, 1);
            (starts[s], local.to_bytes(), inv.to_bytes())
        })
        .collect();
    let shards: Vec<ShardView<'_>> = payloads
        .iter()
        .map(|(base, fwd, inv)| {
            parse_shard_view(*base, fwd, inv, sets.n_candidates() as u32).expect("valid payloads")
        })
        .collect();
    let counts = class_counts(&shards, sets.n_candidates(), threads);
    let opts = SelectOpts {
        selector: Selector::Decremental,
        model: &Model::Cumulative,
        threads,
        subset: None,
    };
    let (sol, _, _) = select(&shards, Some(&counts), k, &opts, &mut GatherScratch::new());
    (sol.selected, sol.cinf.to_bits())
}

proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(24))]

    #[test]
    fn random_update_sequences_match_a_from_scratch_rebuild(inst in instance()) {
        let (users, candidates, facilities, ops) = inst;
        let k = 3;
        let problem = Problem::new(
            users,
            facilities,
            candidates,
            k,
            0.25,
            Sigmoid::paper_default(),
        );
        for threads in [1usize, 4] {
            let mut engine = UpdateEngine::new(&problem, threads);
            replay(&mut engine, &ops);
            engine.compact();

            // The influence sets are equal as values, and their inverted
            // indexes serialise to the same bytes.
            let fresh = rebuild(&engine, &problem, threads);
            prop_assert_eq!(engine.sets(), &fresh, "threads={}", threads);
            let fresh_inv = InvertedIndex::build(&fresh, threads);
            prop_assert_eq!(
                engine.inverted().to_bytes(),
                fresh_inv.to_bytes(),
                "threads={}",
                threads
            );

            // The engine's own solve, the rebuilt selectors, and the
            // sharded gather path all pick the same sites with the same
            // cinf bits.
            let (sol, _) = engine.solve(k);
            let (want, _) = run_selector(Selector::Auto, &fresh, k, threads);
            prop_assert_eq!(&sol.selected, &want.selected);
            prop_assert_eq!(sol.cinf.to_bits(), want.cinf.to_bits());
            for n_shards in [1usize, 2] {
                let (selected, cinf_bits) = gather_solution(&fresh, n_shards, k, threads);
                prop_assert_eq!(&selected, &want.selected, "shards={}", n_shards);
                prop_assert_eq!(cinf_bits, want.cinf.to_bits(), "shards={}", n_shards);
            }
        }
    }
}
