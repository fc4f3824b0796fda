//! End-to-end exercise of live mode: a server started with an update
//! engine absorbs mobility batches through the UPDATE verb — no RELOAD —
//! and afterwards serves answers bit-identical to a from-scratch solve of
//! the mutated instance.

use mc2ls_core::algorithms::{solve_threaded, IqtConfig, Method, Selector};
use mc2ls_core::{Problem, Solution};
use mc2ls_geo::Point;
use mc2ls_influence::{Model, MovingUser, Sigmoid};
use mc2ls_serve::{
    Client, LiveUpdater, ProposeRequest, QueryAnswer, QueryEngine, QueryRequest, ServeError,
    Server, ServerConfig, Snapshot, WireEvent,
};
use rand::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;

fn random_problem(seed: u64, n_users: usize, n_cands: usize) -> Problem<Sigmoid> {
    // Dense enough (tight extent, low τ) that influence sets are non-empty
    // and mobility events actually flip candidate memberships.
    let mut rng = StdRng::seed_from_u64(seed);
    let pt = |r: &mut StdRng| Point::new(r.gen_range(-4.0..4.0), r.gen_range(-4.0..4.0));
    let users = (0..n_users)
        .map(|_| {
            let n = rng.gen_range(1..4);
            MovingUser::new((0..n).map(|_| pt(&mut rng)).collect())
        })
        .collect();
    let facilities = (0..6).map(|_| pt(&mut rng)).collect();
    let candidates = (0..n_cands).map(|_| pt(&mut rng)).collect();
    Problem::new(
        users,
        facilities,
        candidates,
        3,
        0.25,
        Sigmoid::paper_default(),
    )
}

fn start_live(problem: &Problem<Sigmoid>, n_shards: usize) -> Server {
    let (live, snapshot, _prune) = LiveUpdater::new("live", problem, 2.0, 2, n_shards);
    let engine = QueryEngine::new(snapshot, 2);
    Server::start_live(
        ServerConfig {
            threads: 2,
            workers: 2,
            ..ServerConfig::default()
        },
        engine,
        live,
    )
    .expect("bind loopback")
}

fn query_for(problem: &Problem<Sigmoid>, k: usize) -> QueryRequest {
    QueryRequest {
        candidates: None,
        k,
        tau: problem.tau,
        block_size: problem.block_size,
        selector: Selector::Auto,
        pf_exact: false,
        model: Model::Cumulative,
    }
}

fn event(op: &str, user: u32, points: &[Point]) -> WireEvent {
    WireEvent {
        op: op.to_string(),
        user,
        xs: points.iter().map(|p| p.x).collect(),
        ys: points.iter().map(|p| p.y).collect(),
    }
}

/// Insert + checkin + delete over the wire, then the served answer equals
/// a from-scratch solve of the mutated instance, bit for bit — with zero
/// reloads.
#[test]
fn absorbed_updates_match_a_from_scratch_rebuild() {
    let problem = random_problem(91, 50, 14);
    for n_shards in [1usize, 2] {
        let server = start_live(&problem, n_shards);
        let mut client = Client::connect(&server.addr().to_string()).expect("connect");

        // Prime an answer so the epoch swap below is observable.
        let before = client.query(&query_for(&problem, 3)).expect("pre-update");

        let newcomer = vec![Point::new(1.5, -2.5), Point::new(2.0, -2.0)];
        let checkin = Point::new(-3.0, 4.0);
        let batch = vec![
            event("insert", 0, &newcomer),
            event("checkin", 2, &[checkin]),
            event("delete", 0, &[]),
        ];
        let report = client.update(&batch).expect("update accepted");
        assert_eq!(report.applied, 3);
        assert_eq!(report.compactions, 1);
        assert_eq!(
            report.n_users,
            problem.n_users() as u64,
            "+1 insert -1 delete"
        );
        assert_eq!(
            report.next_user_id as usize,
            problem.n_users(),
            "compaction re-densified the slots"
        );
        assert!(!report.touched_shards.is_empty());

        // The mutated instance, in the engine's compaction order: slot 0
        // tombstoned, survivors in slot order, the newcomer appended last.
        let mut users: Vec<MovingUser> = problem.users[1..].to_vec();
        let mut traj = users[1].positions().to_vec(); // slot 2 = survivor index 1
        traj.push(checkin);
        users[1] = MovingUser::new(traj);
        users.push(MovingUser::new(newcomer.clone()));
        let mutated = Problem::new(
            users,
            problem.facilities.clone(),
            problem.candidates.clone(),
            3,
            problem.tau,
            problem.pf,
        );
        let direct = solve_threaded(
            &mutated,
            Method::Iqt(IqtConfig::iqt(2.0)),
            Selector::Auto,
            1,
        );

        let answer = client.query(&query_for(&mutated, 3)).expect("post-update");
        assert!(!answer.cached, "the update must start a fresh epoch");
        assert_eq!(answer.solution.selected, direct.solution.selected);
        assert_eq!(
            answer.solution.cinf.to_bits(),
            direct.solution.cinf.to_bits(),
            "n_shards={n_shards}"
        );
        assert_eq!(
            before.solution.selected.len(),
            3,
            "sanity: the pre-update answer existed"
        );

        let stats = client.stats().expect("stats");
        assert_eq!(stats.updates_applied, 3);
        assert_eq!(stats.compactions, 1);
        assert!(stats.flipped_candidates > 0, "the events must flip sites");
        assert_eq!(stats.reloads, 0, "live absorption, not reload");
        assert_eq!(stats.meta.n_users, problem.n_users());
        server.shutdown();
    }
}

/// A malformed batch is rejected all-or-nothing: typed error, counters and
/// answers untouched.
#[test]
fn rejected_batches_change_nothing() {
    let problem = random_problem(92, 30, 10);
    let server = start_live(&problem, 2);
    let mut client = Client::connect(&server.addr().to_string()).expect("connect");
    let baseline = client.query(&query_for(&problem, 2)).expect("baseline");

    // The second event addresses a user that never existed: the insert
    // before it must not land either.
    let bad = vec![
        event("insert", 0, &[Point::new(0.0, 0.0)]),
        event("move", 9999, &[Point::new(1.0, 1.0)]),
    ];
    match client.update(&bad) {
        Err(ServeError::Remote { kind, message }) => {
            assert_eq!(kind, "update:rejected");
            assert!(message.contains("9999"), "{message}");
        }
        other => panic!("expected rejection, got {other:?}"),
    }
    match client.update(&[event("warp", 0, &[])]) {
        Err(ServeError::Remote { kind, .. }) => assert_eq!(kind, "update:rejected"),
        other => panic!("expected rejection, got {other:?}"),
    }

    let stats = client.stats().expect("stats");
    assert_eq!(stats.updates_applied, 0);
    assert_eq!(stats.meta.n_users, problem.n_users());
    let again = client.query(&query_for(&problem, 2)).expect("query again");
    assert_eq!(
        again.solution.cinf.to_bits(),
        baseline.solution.cinf.to_bits()
    );
    server.shutdown();
}

/// A snapshot-serving (non-live) server answers UPDATE with a typed
/// `update:unsupported` error and keeps serving.
#[test]
fn non_live_servers_reject_the_update_verb() {
    let problem = random_problem(93, 25, 8);
    let (snapshot, _) = Snapshot::build_sharded("static", &problem, 2.0, 1, 2);
    let engine = QueryEngine::new(snapshot, 1);
    let server = Server::start(ServerConfig::default(), engine).expect("bind");
    let mut client = Client::connect(&server.addr().to_string()).expect("connect");

    match client.update(&[event("insert", 0, &[Point::new(0.0, 0.0)])]) {
        Err(ServeError::Remote { kind, .. }) => assert_eq!(kind, "update:unsupported"),
        other => panic!("expected unsupported, got {other:?}"),
    }
    client.ping().expect("connection survives");
    server.shutdown();
}

/// A single-flight leader that computed on a superseded epoch must not
/// leave its answer in the new epoch's cache. Identical queries race
/// UPDATE batches (the coalesce window widens each leader's exposure); every
/// `cached: true` answer must equal a fresh in-process answer of an epoch
/// that was current while the query was in flight.
#[test]
fn cached_answers_never_outlive_their_epoch() {
    const BATCHES: usize = 12;
    let problem = random_problem(94, 40, 10);
    let q = query_for(&problem, 3);
    // Every batch piles three more users onto candidate 0, so each epoch
    // answers with its own cinf.
    let c0 = problem.candidates[0];
    let on_c0 = [c0, Point::new(c0.x + 0.01, c0.y)];
    let batch = vec![event("insert", 0, &on_c0); 3];

    let (mut reference, snapshot, _) = LiveUpdater::new("live", &problem, 2.0, 1, 2);
    let fresh = |snapshot| -> Solution {
        let answer = QueryEngine::new(snapshot, 1)
            .answer(&q)
            .expect("fresh answer");
        answer.solution
    };
    let mut expected = vec![fresh(snapshot)];
    for _ in 0..BATCHES {
        let (_, snapshot) = reference.apply_batch(&batch, &[]).expect("batch");
        expected.push(fresh(snapshot));
    }
    let same = |a: &Solution, b: &Solution| {
        a.selected == b.selected && a.cinf.to_bits() == b.cinf.to_bits()
    };
    assert!(
        expected.windows(2).all(|w| !same(&w[0], &w[1])),
        "every epoch must answer differently for staleness to be visible"
    );

    let (live, snapshot, _) = LiveUpdater::new("live", &problem, 2.0, 2, 2);
    let server = Server::start_live(
        ServerConfig {
            threads: 2,
            workers: 4,
            coalesce_window: Duration::from_millis(6),
            ..ServerConfig::default()
        },
        QueryEngine::new(snapshot, 2),
        live,
    )
    .expect("bind loopback");
    let addr = server.addr().to_string();
    let epoch = AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut client = Client::connect(&addr).expect("connect");
            // Back-to-back batches land inside a leader's coalesce window;
            // the pause after them lets fresh answers be cached and hit.
            for i in 0..BATCHES {
                std::thread::sleep(Duration::from_millis(if i % 3 == 2 { 15 } else { 0 }));
                client.update(&batch).expect("update accepted");
                epoch.fetch_add(1, Ordering::SeqCst);
            }
            done.store(true, Ordering::SeqCst);
        });
        for _ in 0..2 {
            scope.spawn(|| {
                let mut client = Client::connect(&addr).expect("connect");
                while !done.load(Ordering::SeqCst) {
                    let lo = epoch.load(Ordering::SeqCst);
                    let answer = client.query(&q).expect("query");
                    // An update may be applied but not yet acknowledged.
                    let hi = (epoch.load(Ordering::SeqCst) + 1).min(BATCHES);
                    if answer.cached {
                        assert!(
                            expected[lo..=hi]
                                .iter()
                                .any(|want| same(want, &answer.solution)),
                            "cached answer {:?} belongs to no epoch in {lo}..={hi}",
                            answer.solution.selected
                        );
                    }
                }
            });
        }
    });
    // Once the updates stop, the final epoch's answer is cached and served.
    let mut client = Client::connect(&addr).expect("connect");
    client.query(&q).expect("query");
    let hit = client.query(&q).expect("query");
    assert!(hit.cached && same(&hit.solution, &expected[BATCHES]));
    server.shutdown();
}

/// A live server answers RELOAD with a typed `reload:live` error: its
/// epochs come from the update engine alone. Nothing is swapped, and
/// queries and UPDATEs keep working on the live instance.
#[test]
fn live_servers_reject_reload() {
    let problem = random_problem(95, 30, 10);
    let server = start_live(&problem, 2);
    let mut client = Client::connect(&server.addr().to_string()).expect("connect");

    // A perfectly valid snapshot file of the same instance: rejected anyway.
    let (snapshot, _) = Snapshot::build_sharded("static", &problem, 2.0, 1, 2);
    let dir = std::env::temp_dir().join(format!("mc2ls-live-reload-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("same.mc2s");
    snapshot.save(&path).expect("save");
    match client.reload(&path.to_string_lossy()) {
        Err(ServeError::Remote { kind, .. }) => assert_eq!(kind, "reload:live"),
        other => panic!("expected reload:live, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();

    let report = client
        .update(&[event("insert", 0, &[Point::new(0.5, 0.5)])])
        .expect("updates still absorbed");
    assert_eq!(report.n_users, problem.n_users() as u64 + 1);
    client
        .query(&query_for(&problem, 2))
        .expect("queries still answered");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.reloads, 0);
    assert_eq!(stats.errors, 1, "the rejected RELOAD");
    assert_eq!(stats.updates_applied, 1);
    assert_eq!(stats.meta.n_users, problem.n_users() + 1);
    server.shutdown();
}

/// A random valid batch against `n` dense live ids: inserts, deletes,
/// moves and check-ins, addressing batch inserts too.
fn random_batch(rng: &mut StdRng, n: usize) -> Vec<WireEvent> {
    let pt = |r: &mut StdRng| Point::new(r.gen_range(-4.0..4.0), r.gen_range(-4.0..4.0));
    let mut alive: Vec<u32> = (0..n as u32).collect();
    let mut next = n as u32;
    (0..rng.gen_range(1..12))
        .map(|_| match rng.gen_range(0..8) {
            0 | 1 => {
                let points: Vec<Point> = (0..rng.gen_range(1..4)).map(|_| pt(rng)).collect();
                alive.push(next);
                next += 1;
                event("insert", 0, &points)
            }
            2 if alive.len() > 2 => {
                let user = alive.swap_remove(rng.gen_range(0..alive.len()));
                event("delete", user, &[])
            }
            3 | 4 => {
                let user = alive[rng.gen_range(0..alive.len())];
                let points: Vec<Point> = (0..rng.gen_range(1..4)).map(|_| pt(rng)).collect();
                event("move", user, &points)
            }
            _ => {
                let user = alive[rng.gen_range(0..alive.len())];
                event("checkin", user, &[pt(rng)])
            }
        })
        .collect()
}

/// A comparison key for wire types without `PartialEq`: JSON round-trips
/// every `f64` exactly.
fn json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("serialisable")
}

/// The deterministic part of an answer: ids, gain bits, selection stats
/// and the gather shape (not its wall-clock fields).
fn answer_bits(a: &QueryAnswer) -> impl PartialEq + std::fmt::Debug {
    let g = &a.gather;
    (
        a.solution.selected.clone(),
        a.solution.cinf.to_bits(),
        a.solution
            .marginal_gains
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>(),
        a.selection,
        (
            g.shards,
            g.workers,
            g.rounds,
            g.scatter_events,
            g.shared_epoch,
        ),
    )
}

/// After every random batch, the live server serves exactly what an
/// in-process engine over the reference's fully assembled snapshot
/// serves: the same reports, full and subset answers, proposals and
/// epoch META — at every shard count.
#[test]
fn live_epochs_match_the_assembled_reference() {
    const BATCHES: usize = 10;
    let problem = random_problem(96, 45, 12);
    let propose = ProposeRequest {
        window: 1.5,
        m: 4,
        min_separation: Some(0.5),
    };
    for n_shards in [1usize, 2, 3] {
        let mut rng = StdRng::seed_from_u64(7 + n_shards as u64);
        let server = start_live(&problem, n_shards);
        let mut client = Client::connect(&server.addr().to_string()).expect("connect");
        let (mut reference, snapshot, _) = LiveUpdater::new("live", &problem, 2.0, 2, n_shards);
        let mut engine = QueryEngine::new(snapshot, 2);
        let mut n = problem.n_users();
        let mut ops = std::collections::BTreeSet::new();
        for b in 0..=BATCHES {
            let subset: Vec<u32> = (0..6).map(|_| rng.gen_range(0..12)).collect();
            for (candidates, k) in [(None, 3), (Some(subset), 2)] {
                let mut q = query_for(&problem, k);
                q.candidates = candidates;
                let served = client.query(&q).expect("served");
                let want = engine.answer(&q).expect("reference");
                assert_eq!(
                    answer_bits(&served),
                    answer_bits(&want),
                    "shards {n_shards} batch {b}"
                );
            }
            let served = client.propose(&propose).expect("served proposal");
            let want = engine.propose(&propose).expect("reference proposal");
            assert_eq!(json(&served), json(&want), "shards {n_shards} batch {b}");
            let meta = client.stats().expect("stats").meta;
            let want = engine.meta();
            assert_eq!(meta.n_users, want.n_users);
            assert_eq!(meta.shard_starts, want.shard_starts);
            assert_eq!(meta.resolved_block_size, want.resolved_block_size);
            assert_eq!(&meta, want);
            if b == BATCHES {
                break;
            }

            let batch = random_batch(&mut rng, n);
            ops.extend(batch.iter().map(|ev| ev.op.clone()));
            let starts = engine.meta().shard_starts.clone();
            let served = client.update(&batch).expect("update accepted");
            let (want, snapshot) = reference.apply_batch(&batch, &starts).expect("reference");
            assert_eq!(json(&served), json(&want), "shards {n_shards} batch {b}");
            n = want.n_users as usize;
            engine = QueryEngine::new(snapshot, 2);
        }
        assert_eq!(ops.len(), 4, "every op kind exercised: {ops:?}");
        let stats = client.stats().expect("stats");
        assert!(stats.flipped_candidates > 0, "the batches must flip sites");
        assert_eq!(stats.compactions, BATCHES as u64);
        server.shutdown();
    }
}
