//! End-to-end exercise of the query server over real loopback sockets:
//! byte-identity of served answers against direct solves, cache hit
//! accounting, admission-control rejection, live stats, snapshot
//! hot-reload, and graceful shutdown that drains admitted connections.

use mc2ls_core::algorithms::{solve_threaded, IqtConfig, Method, Selector};
use mc2ls_core::{Problem, PruneStats, Solution};
use mc2ls_geo::Point;
use mc2ls_influence::{Model, MovingUser, Sigmoid};
use mc2ls_serve::{Client, QueryEngine, QueryRequest, ServeError, Server, ServerConfig, Snapshot};
use rand::prelude::*;
use std::io::Write;
use std::time::Duration;

fn random_problem(seed: u64, n_users: usize, n_cands: usize) -> Problem<Sigmoid> {
    let mut rng = StdRng::seed_from_u64(seed);
    let pt = |r: &mut StdRng| Point::new(r.gen_range(-8.0..8.0), r.gen_range(-8.0..8.0));
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
        0.6,
        Sigmoid::paper_default(),
    )
}

fn start_server(problem: &Problem<Sigmoid>, config: ServerConfig) -> Server {
    let (snapshot, _) = Snapshot::build("e2e", problem, 2.0, 2);
    let engine = QueryEngine::new(snapshot, config.threads);
    Server::start(config, engine).expect("bind loopback")
}

fn connect(server: &Server) -> Client {
    Client::connect(&server.addr().to_string()).expect("connect")
}

fn query_for(problem: &Problem<Sigmoid>, candidates: Option<Vec<u32>>, k: usize) -> QueryRequest {
    QueryRequest {
        candidates,
        k,
        tau: problem.tau,
        block_size: problem.block_size,
        selector: Selector::Auto,
        pf_exact: false,
        model: Model::Cumulative,
    }
}

fn assert_solutions_bit_identical(a: &Solution, b: &Solution, what: &str) {
    assert_eq!(a.selected, b.selected, "{what}: selected ids");
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&a.marginal_gains),
        bits(&b.marginal_gains),
        "{what}: marginal gain bits"
    );
    assert_eq!(a.cinf.to_bits(), b.cinf.to_bits(), "{what}: cinf bits");
}

/// Served answers are byte-identical to direct `solve_threaded` runs, at
/// every server thread count, with the cache on and off — and carry
/// default `PruneStats`, the proof that serving ran zero influence-set
/// evaluations.
#[test]
fn served_answers_match_direct_solves_bit_for_bit() {
    let problem = random_problem(71, 70, 18);
    let direct = solve_threaded(
        &problem,
        Method::Iqt(IqtConfig::iqt(2.0)),
        Selector::Auto,
        1,
    );

    for threads in [1usize, 2, 4] {
        for cache_capacity in [0usize, 32] {
            let server = start_server(
                &problem,
                ServerConfig {
                    threads,
                    cache_capacity,
                    workers: 2,
                    ..ServerConfig::default()
                },
            );
            let mut client = connect(&server);
            // Ask twice so the second answer exercises the cache path
            // (when enabled); both must match the direct solve.
            for round in 0..2 {
                let answer = client
                    .query(&query_for(&problem, None, problem.k))
                    .expect("query");
                assert_solutions_bit_identical(
                    &answer.solution,
                    &direct.solution,
                    &format!("t={threads} cache={cache_capacity} round={round}"),
                );
                assert_eq!(answer.prune, PruneStats::default());
                assert_eq!(answer.cached, cache_capacity > 0 && round == 1);
            }
            server.shutdown();
        }
    }
}

/// Subset queries equal a from-scratch solve on the sub-instance.
#[test]
fn subset_queries_match_subinstance_solves() {
    let problem = random_problem(72, 60, 16);
    let server = start_server(&problem, ServerConfig::default());
    let mut client = connect(&server);

    for subset in [vec![0u32, 5, 9, 13], vec![15, 2, 2, 7, 11, 3, 1]] {
        let mut canon = subset.clone();
        canon.sort_unstable();
        canon.dedup();
        let k = 2.min(canon.len());
        let answer = client
            .query(&query_for(&problem, Some(subset), k))
            .expect("subset query");

        let sub_problem = Problem::new(
            problem.users.clone(),
            problem.facilities.clone(),
            canon
                .iter()
                .map(|&c| problem.candidates[c as usize])
                .collect(),
            k,
            problem.tau,
            problem.pf,
        )
        .with_block_size(problem.block_size);
        let direct = solve_threaded(
            &sub_problem,
            Method::Iqt(IqtConfig::iqt(2.0)),
            Selector::Auto,
            1,
        );
        let mapped: Vec<u32> = direct
            .solution
            .selected
            .iter()
            .map(|&l| canon[l as usize])
            .collect();
        assert_eq!(answer.solution.selected, mapped);
        assert_eq!(
            answer.solution.cinf.to_bits(),
            direct.solution.cinf.to_bits()
        );
    }
    server.shutdown();
}

/// Cache accounting: hits/misses are visible in STATS, equivalent query
/// spellings share one cache entry, and ping/stats round-trips work.
#[test]
fn stats_report_cache_and_request_counters() {
    let problem = random_problem(73, 40, 12);
    let server = start_server(
        &problem,
        ServerConfig {
            cache_capacity: 8,
            ..ServerConfig::default()
        },
    );
    let mut client = connect(&server);
    client.ping().expect("ping");

    let first = client
        .query(&query_for(&problem, Some(vec![3, 1, 2]), 2))
        .expect("first");
    assert!(!first.cached);
    // Different spelling, same canonical query → cache hit.
    let second = client
        .query(&query_for(&problem, Some(vec![2, 3, 1, 1]), 2))
        .expect("second");
    assert!(second.cached);
    assert_eq!(first.key_hash, second.key_hash);
    assert_solutions_bit_identical(&first.solution, &second.solution, "cache hit");

    let stats = client.stats().expect("stats");
    assert_eq!(stats.meta.n_users, problem.n_users());
    assert_eq!(stats.meta.n_candidates, problem.n_candidates());
    assert_eq!(stats.meta.tau.to_bits(), problem.tau.to_bits());
    assert_eq!(stats.queries, 2);
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.cache_misses, 1);
    assert_eq!(stats.cache_len, 1);
    assert_eq!(stats.cache_capacity, 8);
    assert!(stats.requests >= 4, "ping + 2 queries + stats");
    assert_eq!(stats.rejected, 0);
    assert!(stats.p50_us <= stats.p99_us);
    server.shutdown();
}

/// Admission control: with one worker busy and a queue bound of one, a
/// third connection is rejected with a typed `busy` error and counted.
#[test]
fn admission_control_rejects_beyond_the_bound() {
    let problem = random_problem(74, 30, 10);
    let server = start_server(
        &problem,
        ServerConfig {
            workers: 1,
            max_pending: 1,
            ..ServerConfig::default()
        },
    );
    // A: served by the only worker (ping proves it was popped).
    let mut a = connect(&server);
    a.ping().expect("ping a");
    // B: admitted, waits in the queue behind A's persistent connection.
    let _b = connect(&server);
    std::thread::sleep(Duration::from_millis(50));
    // C: the queue is full → typed busy rejection.
    let mut c = connect(&server);
    match c.ping() {
        Err(ServeError::Remote { kind, .. }) => assert_eq!(kind, "busy"),
        other => panic!("expected busy rejection, got {other:?}"),
    }

    let stats = a.stats().expect("stats");
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.queue_depth, 1, "B still waiting");
    server.shutdown();
}

/// Snapshot hot-reload: the engine swaps, the cache clears, and answers
/// afterwards reflect the new snapshot; a bad path is a typed error and
/// leaves the old snapshot serving.
#[test]
fn snapshot_reload_swaps_the_engine_and_clears_the_cache() {
    let old_problem = random_problem(75, 40, 12);
    let new_problem = random_problem(76, 55, 14);
    let dir = std::env::temp_dir().join(format!("mc2ls-serve-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("new.mc2s");
    let (new_snapshot, _) = Snapshot::build("new", &new_problem, 2.0, 1);
    new_snapshot.save(&path).expect("save");

    let server = start_server(
        &old_problem,
        ServerConfig {
            cache_capacity: 8,
            ..ServerConfig::default()
        },
    );
    let mut client = connect(&server);

    // Prime the cache against the old snapshot.
    let q_old = query_for(&old_problem, None, 2);
    client.query(&q_old).expect("old query");
    assert!(client.query(&q_old).expect("old query again").cached);

    // A bad path fails typed and changes nothing.
    match client.reload(&dir.join("absent.mc2s").to_string_lossy()) {
        Err(ServeError::Remote { kind, .. }) => assert_eq!(kind, "snapshot"),
        other => panic!("expected snapshot error, got {other:?}"),
    }
    assert_eq!(client.stats().expect("stats").meta.name, "e2e");

    // The real reload swaps metadata and empties the cache.
    let message = client.reload(&path.to_string_lossy()).expect("reload");
    assert!(message.contains("new"), "ack message: {message}");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.meta.name, "new");
    assert_eq!(stats.meta.n_users, new_problem.n_users());
    assert_eq!(stats.reloads, 1);
    assert_eq!(stats.cache_len, 0, "reload must clear the cache");

    // Answers now come from the new snapshot, bit-identical to a direct
    // solve of the new instance.
    let direct = solve_threaded(
        &new_problem,
        Method::Iqt(IqtConfig::iqt(2.0)),
        Selector::Auto,
        1,
    );
    let answer = client
        .query(&query_for(&new_problem, None, new_problem.k))
        .expect("new query");
    assert!(!answer.cached, "cache was cleared");
    assert_solutions_bit_identical(&answer.solution, &direct.solution, "post-reload");

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Mismatched τ or block size are typed remote errors, not wrong answers.
#[test]
fn mismatched_query_parameters_are_typed_errors() {
    let problem = random_problem(77, 25, 8);
    let server = start_server(&problem, ServerConfig::default());
    let mut client = connect(&server);

    let mut bad_tau = query_for(&problem, None, 2);
    bad_tau.tau = 0.5;
    match client.query(&bad_tau) {
        Err(ServeError::Remote { kind, .. }) => assert_eq!(kind, "query:tau-mismatch"),
        other => panic!("expected tau mismatch, got {other:?}"),
    }

    // `auto` is canonicalised server-side, so probe with a concrete block
    // size that can never equal the snapshot's resolved one.
    let mut bad_block = query_for(&problem, None, 2);
    bad_block.block_size = usize::MAX - 1;
    match client.query(&bad_block) {
        Err(ServeError::Remote { kind, .. }) => assert_eq!(kind, "query:block-size-mismatch"),
        other => panic!("expected block-size mismatch, got {other:?}"),
    }

    match client.query(&query_for(&problem, None, 99)) {
        Err(ServeError::Remote { kind, .. }) => assert_eq!(kind, "query:bad-budget"),
        other => panic!("expected bad budget, got {other:?}"),
    }

    // The connection survives error responses.
    client.ping().expect("still alive");
    server.shutdown();
}

/// PROPOSE answers from the loaded snapshot's position blocks: the served
/// proposal is bit-identical to a direct sweep over the instance's raw
/// positions, and bad sweep parameters come back as typed errors.
#[test]
fn propose_serves_the_candidate_sweep_from_the_snapshot() {
    let problem = random_problem(82, 60, 12);
    let server = start_server(&problem, ServerConfig::default());
    let mut client = connect(&server);

    let points: Vec<Point> = problem
        .users
        .iter()
        .flat_map(|u| u.positions().iter().copied())
        .collect();
    let direct = mc2ls_candgen::propose(&points, &mc2ls_candgen::SweepConfig::new(2.0, 4));

    let served = client
        .propose(&mc2ls_serve::ProposeRequest {
            window: 2.0,
            m: 4,
            min_separation: None,
        })
        .expect("propose");
    assert_eq!(served.stats, direct.stats);
    assert_eq!(served.sites.len(), direct.sites.len());
    for (a, b) in served.sites.iter().zip(&direct.sites) {
        assert_eq!(a.center.x.to_bits(), b.center.x.to_bits());
        assert_eq!(a.center.y.to_bits(), b.center.y.to_bits());
        assert_eq!(a.score, b.score);
        assert_eq!(a.anchor, b.anchor);
    }

    match client.propose(&mc2ls_serve::ProposeRequest {
        window: -1.0,
        m: 4,
        min_separation: None,
    }) {
        Err(ServeError::Remote { kind, .. }) => assert_eq!(kind, "propose:bad-window"),
        other => panic!("expected bad-window rejection, got {other:?}"),
    }
    match client.propose(&mc2ls_serve::ProposeRequest {
        window: 2.0,
        m: 0,
        min_separation: None,
    }) {
        Err(ServeError::Remote { kind, .. }) => assert_eq!(kind, "propose:bad-count"),
        other => panic!("expected bad-count rejection, got {other:?}"),
    }

    // The connection survives error responses and still answers queries.
    client
        .query(&query_for(&problem, None, 2))
        .expect("query after propose");
    server.shutdown();
}

/// A PROPOSE for more sites than the allocator could ever reserve is
/// answered with every separated anchor, and the server stays up: a later
/// STATS is still answered, on the same connection and on a new one.
#[test]
fn propose_with_a_huge_site_count_keeps_the_server_up() {
    let problem = random_problem(84, 40, 8);
    let server = start_server(&problem, ServerConfig::default());
    let mut client = connect(&server);
    let proposal = client
        .propose(&mc2ls_serve::ProposeRequest {
            window: 2.0,
            m: 1_000_000_000_000,
            min_separation: None,
        })
        .expect("a huge site count is answered");
    assert!(!proposal.sites.is_empty());
    assert!(proposal.sites.len() as u64 <= proposal.stats.anchors);

    let stats = client.stats().expect("STATS on the same connection");
    assert!(stats.requests >= 1);
    drop(client);
    connect(&server).stats().expect("STATS on a new connection");
    server.shutdown();
}

/// A client-sent Shutdown stops the server; `join` returns once every
/// thread (acceptor + workers) has drained and exited.
#[test]
fn client_shutdown_drains_and_joins() {
    let problem = random_problem(78, 25, 8);
    let server = start_server(
        &problem,
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    );
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");
    client.query(&query_for(&problem, None, 2)).expect("query");
    let message = client.shutdown().expect("shutdown ack");
    assert!(message.contains("shutting down"), "{message}");
    // Must return promptly rather than hanging on a live worker.
    server.join();
    // New connections are no longer served.
    std::thread::sleep(Duration::from_millis(20));
    let refused = std::net::TcpStream::connect(&addr).is_err();
    assert!(refused, "listener should be closed after shutdown");
}

/// A connection that never completes a request is torn down at the
/// per-request deadline with a `timeout` error — the worker is freed and
/// live clients are still served.
#[test]
fn stalled_connections_hit_the_request_deadline() {
    let problem = random_problem(81, 25, 8);
    let server = start_server(
        &problem,
        ServerConfig {
            workers: 1,
            poll_interval: Duration::from_millis(10),
            idle_timeout: Duration::from_millis(120),
            ..ServerConfig::default()
        },
    );
    let addr = server.addr().to_string();

    // One connection sends nothing; another sends a frame's length
    // prefix and then stalls past the deadline.
    let silent = Vec::new();
    let prefix = ping_frame()[..4].to_vec();
    for sent in [silent, prefix] {
        let mut stalled = std::net::TcpStream::connect(&addr).expect("connect");
        stalled.write_all(&sent).expect("send");
        let notice: mc2ls_serve::Response = mc2ls_serve::protocol::recv_message(&mut stalled)
            .expect("deadline notice")
            .expect("a frame, not EOF");
        match notice {
            mc2ls_serve::Response::Error { kind, .. } => assert_eq!(kind, "timeout"),
            other => panic!("expected a timeout error, got {other:?}"),
        }
        // After the notice the server closes the connection.
        let eof = mc2ls_serve::protocol::read_frame(&mut stalled).expect("clean close");
        assert!(
            eof.is_none(),
            "connection should be closed after the notice"
        );
    }

    // The freed worker serves a live client normally.
    let mut client = connect(&server);
    client.ping().expect("worker available again");
    server.shutdown();
}

/// One Ping request as it goes on the wire: length prefix, then payload.
fn ping_frame() -> Vec<u8> {
    let mut frame = Vec::new();
    mc2ls_serve::protocol::send_message(&mut frame, &mc2ls_serve::Request::Ping).expect("frame");
    frame
}

/// A read timeout that fires between a frame's length prefix and its
/// payload neither loses the prefix nor the connection.
#[test]
fn a_payload_that_arrives_after_a_read_timeout_is_still_answered() {
    let problem = random_problem(82, 25, 8);
    let config = ServerConfig {
        workers: 1,
        poll_interval: Duration::from_millis(20),
        ..ServerConfig::default()
    };
    let pause = 3 * config.poll_interval;
    let server = start_server(&problem, config);
    let mut raw = std::net::TcpStream::connect(server.addr()).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let expect_pong = |raw: &mut std::net::TcpStream, what: &str| {
        let reply: mc2ls_serve::Response = mc2ls_serve::protocol::recv_message(raw)
            .expect("a reply")
            .expect("a frame, not EOF");
        assert!(
            matches!(reply, mc2ls_serve::Response::Pong),
            "{what}: {reply:?}"
        );
    };
    let frame = ping_frame();
    raw.write_all(&frame[..4]).expect("prefix");
    std::thread::sleep(pause);
    raw.write_all(&frame[4..]).expect("payload");
    expect_pong(&mut raw, "the slow frame");
    raw.write_all(&frame).expect("second ping");
    expect_pong(&mut raw, "the next frame on the same connection");
    server.shutdown();
}
