//! `serve-live-N`: writes beside reads. The New-York preset at full scale
//! is served in live mode (`LiveUpdater` + `Server::start_live`). One
//! connection sends UPDATE batches of 16 events every 200 ms, open loop
//! (¾ check-ins, ⅛ inserts, ⅛ deletes); the other sends the serve-read
//! query mix open loop at 1000 queries/s. The timed operation is the UPDATE
//! acknowledgement: each batch runs the update engine, compaction,
//! `Snapshot::assemble` and the engine re-encode, and clears the result
//! cache, so the queries meet a colder cache on a CPU shared with the
//! writer.
//!
//! Reference: an in-process `LiveUpdater` replays the same batches. Every
//! UPDATE report must equal the replay's, and every query answer must equal
//! the in-process answer of an epoch that was live while it was in flight.

use super::{open_loop, server_config, set_up, Op, Outcome, References, Reply, Settings};
use super::{LEAF_DIAGONAL, SERVE_THREADS, SHARDS, THREADS};
use crate::inputs::{self, Preset};
use crate::summary::percentile;
use crate::trace::Tracer;
use mc2ls_core::algorithms::influence_sets_threaded;
use mc2ls_core::{IqtConfig, Method, Problem, UpdateEngine, UserUpdate};
use mc2ls_geo::Point;
use mc2ls_influence::Sigmoid;
use mc2ls_serve::{Client, LiveUpdater, QueryEngine, Server, Snapshot, SnapshotMeta, WireEvent};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Offered query load, queries per second.
const QUERY_QPS: f64 = 1000.0;
/// Interval between UPDATE batches.
const BATCH_PERIOD: Duration = Duration::from_millis(200);
/// Result-cache capacity, in answers.
const CACHE: usize = 256;

struct System {
    server: Server,
    queries: Client,
    updates: Client,
    problem: Problem<Sigmoid>,
}

pub(super) fn run(s: &Settings, tr: &mut Tracer) -> Outcome {
    let (mut sys, setup_s, rss_mb) = set_up(
        tr,
        |tr, rep| {
            let data = tr.span("data.generate", rep, |_| {
                inputs::dataset(Preset::NewYork, s.scale(), s.seed)
            });
            let problem = inputs::problem(&data, s.seed, 0, inputs::TAU);
            let (live, snapshot, _) =
                LiveUpdater::new("N", &problem, LEAF_DIAGONAL, THREADS, SHARDS);
            let engine = QueryEngine::new(snapshot, SERVE_THREADS);
            let server =
                Server::start_live(server_config(CACHE), engine, live).expect("server binds");
            let addr = server.addr().to_string();
            let mut queries = Client::connect(&addr).expect("client connects");
            queries
                .query(&inputs::full_query(inputs::TAU))
                .expect("first query answered");
            let mut updates = Client::connect(&addr).expect("client connects");
            updates.ping().expect("ping answered");
            System {
                server,
                queries,
                updates,
                problem,
            }
        },
        |sys| {
            drop((sys.queries, sys.updates));
            sys.server.shutdown();
        },
    );
    let mut out = Outcome {
        setup_s,
        rss_mb,
        ..Outcome::default()
    };

    let total = s.warmup() + s.window();
    let n_queries = (total.as_secs_f64() * QUERY_QPS) as usize;
    let n_batches = (total.as_secs_f64() / BATCH_PERIOD.as_secs_f64()).ceil() as usize;
    let queries = inputs::query_stream(s.seed, inputs::N_CANDIDATES, inputs::TAU, n_queries);
    let events = inputs::event_stream(s.seed, &sys.problem.users, n_batches);

    // A query's answer comes from an epoch between the batches acknowledged
    // before it was sent and the batches sent before its reply arrived.
    let sent = AtomicUsize::new(0);
    let acked = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(5);
    let warm_end = start + s.warmup();
    let half = warm_end + s.window() / 2;
    let query_period = Duration::from_secs_f64(1.0 / QUERY_QPS);
    let due = |period: Duration, i: usize| start + period.mul_f64(i as f64);
    let on = tr.is_on();
    let traced = move |t: Instant| on && t >= half;
    let (mut qtr, mut utr) = (tr.fork(1), tr.fork(2));
    let (query_log, update_log, cpu_ms) = std::thread::scope(|scope| {
        let (client, sent, acked, queries) = (&mut sys.queries, &sent, &acked, &queries);
        let qtr = &mut qtr;
        let q = scope.spawn(move || {
            open_loop(start, query_period, 0..queries.len(), |i| {
                let lo = acked.load(Ordering::SeqCst);
                let mut ask = || Reply::of(client.query(&queries[i]));
                let reply = if traced(due(query_period, i)) {
                    qtr.span("serve.wire.query", i as u64, |_| ask())
                } else {
                    ask()
                };
                (lo, sent.load(Ordering::SeqCst), reply)
            })
        });
        let (client, events) = (&mut sys.updates, &events);
        let utr = &mut utr;
        let u = scope.spawn(move || {
            open_loop(start, BATCH_PERIOD, 0..events.len(), |b| {
                sent.fetch_add(1, Ordering::SeqCst);
                let mut apply = || client.update(&events[b]).ok();
                let report = if traced(due(BATCH_PERIOD, b)) {
                    utr.span("serve.wire.update", b as u64, |_| apply())
                } else {
                    apply()
                };
                acked.fetch_add(1, Ordering::SeqCst);
                report
            })
        });
        std::thread::sleep(warm_end.saturating_duration_since(Instant::now()));
        let cpu0 = crate::sys::cpu_ms();
        let q = q.join().expect("query thread panicked");
        let u = u.join().expect("update thread panicked");
        (q, u, crate::sys::cpu_ms() - cpu0)
    });
    tr.absorb(qtr);
    tr.absorb(utr);
    out.cpu_ms = cpu_ms;
    let stats = sys.queries.stats().ok();
    drop((sys.queries, sys.updates));
    sys.server.shutdown();

    for x in &update_log {
        let t = due(BATCH_PERIOD, x.i);
        if t >= warm_end {
            out.ops.push(Op {
                ms: x.latency_ns as f64 / 1e6,
                traced: traced(t),
            });
            out.gen_late_us.push(x.late_ns as f64 / 1e3);
        }
    }
    let window_queries: Vec<_> = query_log
        .iter()
        .filter(|x| due(query_period, x.i) >= warm_end)
        .collect();
    let latency_us: Vec<f64> = window_queries
        .iter()
        .map(|x| x.latency_ns as f64 / 1e3)
        .collect();
    let replies: Vec<&Reply> = window_queries
        .iter()
        .filter_map(|x| x.out.2.as_ref())
        .collect();
    let hits = replies.iter().filter(|r| r.cached).count();
    out.gen_late_us
        .extend(window_queries.iter().map(|x| x.late_ns as f64 / 1e3));
    out.layers.extend([
        ("live.query_us_p50", percentile(&latency_us, 0.5)),
        ("live.query_us_p90", percentile(&latency_us, 0.9)),
        (
            "serve.cache.hit_pct",
            100.0 * hits as f64 / replies.len().max(1) as f64,
        ),
    ]);
    out.record_stats(stats);

    let (mut live, snapshot, _) =
        LiveUpdater::new("N", &sys.problem, LEAF_DIAGONAL, THREADS, SHARDS);
    if tr.is_on() {
        decomposed_replay(tr, &sys.problem, &snapshot.meta, &events);
    }

    // Walk the epochs in order, comparing every query with each epoch that
    // was live while it was in flight, then apply the next batch to the
    // reference. An answer may also come from the epoch just before: a
    // query computed on the old epoch that completes after an UPDATE swapped
    // epochs still inserts its answer into the new epoch's result cache (a
    // known server race), so later hits on that key are one epoch stale.
    // They pass the check and are counted as `live.stale_answers`.
    let mut refs = References::new(
        QueryEngine::new(snapshot, SERVE_THREADS),
        s.corrupt_reference,
    );
    let mut fresh = vec![false; query_log.len()];
    let mut stale = vec![false; query_log.len()];
    for epoch in 0..=events.len() {
        for (n, x) in query_log.iter().enumerate() {
            let (lo, hi, reply) = &x.out;
            if fresh[n] || epoch + 1 < *lo || epoch > *hi {
                continue;
            }
            let Some(reply) = reply else { continue };
            if refs
                .get(&queries[x.i])
                .is_some_and(|want| reply.matches(want))
            {
                if epoch >= *lo {
                    fresh[n] = true;
                } else {
                    stale[n] = true;
                }
            }
        }
        if epoch == events.len() {
            break;
        }
        let starts = refs.engine.meta().shard_starts.clone();
        let applied = tr.span("serve.live.batch", epoch as u64, |_| {
            live.apply_batch(&events[epoch], &starts)
        });
        let Ok((report, snapshot)) = applied else {
            out.check(false);
            break;
        };
        let served = update_log[epoch].out.as_ref();
        out.check(served.is_some_and(|got| {
            serde_json::to_string(got).ok() == serde_json::to_string(&report).ok()
        }));
        refs = References::new(QueryEngine::new(snapshot, SERVE_THREADS), false);
    }
    let stale_only = fresh.iter().zip(&stale).filter(|&(f, s)| !f && *s).count();
    out.layers.push(("live.stale_answers", stale_only as f64));
    for (f, s) in fresh.into_iter().zip(stale) {
        out.check(f || s);
    }
    out
}

/// The event as the update engine takes it. The generated stream holds
/// inserts, deletes and check-ins; a check-in appends its position to the
/// user's trajectory, as the server does.
fn to_update(engine: &UpdateEngine<Sigmoid>, ev: &WireEvent) -> UserUpdate {
    let mut points: Vec<Point> = ev
        .xs
        .iter()
        .zip(&ev.ys)
        .map(|(&x, &y)| Point::new(x, y))
        .collect();
    match ev.op.as_str() {
        "insert" => UserUpdate::Insert { positions: points },
        "delete" => UserUpdate::Delete { user: ev.user },
        _ => {
            let mut positions = engine
                .positions_of(ev.user)
                .map(<[Point]>::to_vec)
                .unwrap_or_default();
            positions.append(&mut points);
            UserUpdate::Move {
                user: ev.user,
                positions,
            }
        }
    }
}

/// Replays every batch through the public steps an UPDATE runs on the
/// server, with a span around each: apply the events, compact, assemble the
/// snapshot, encode it, load the view, answer the first query.
fn decomposed_replay(
    tr: &mut Tracer,
    problem: &Problem<Sigmoid>,
    meta: &SnapshotMeta,
    events: &[Vec<WireEvent>],
) {
    let method = Method::Iqt(IqtConfig::iqt(LEAF_DIAGONAL));
    let (sets, _, _) = influence_sets_threaded(problem, method, THREADS);
    let mut engine = UpdateEngine::from_sets(problem, sets, THREADS);
    let query = inputs::full_query(inputs::TAU);
    for (b, batch) in events.iter().enumerate() {
        let req = (1 << 32) + b as u64;
        tr.span("live.replay", req, |tr| {
            let before = engine.stats().clone();
            tr.span("core.update.apply", req, |_| {
                for ev in batch {
                    let update = to_update(&engine, ev);
                    engine.apply(update).expect("generated events are valid");
                }
            });
            tr.span("core.update.compact", req, |_| engine.compact());
            let snapshot = tr.span("serve.snapshot.assemble", req, |_| {
                Snapshot::assemble(
                    meta.clone(),
                    engine.users(),
                    &problem.pf,
                    engine.sets(),
                    THREADS,
                    SHARDS,
                )
            });
            let bytes = tr.span("serve.snapshot.encode", req, |_| snapshot.to_bytes());
            let view = tr.span("serve.view.load", req, |_| {
                QueryEngine::from_bytes(bytes, SERVE_THREADS).expect("assembled snapshot loads")
            });
            tr.span("serve.engine.first_answer", req, |_| {
                view.answer(&query).ok()
            });
            let after = engine.stats();
            tr.count(
                req,
                "core.update.prob_evals",
                (after.prob_evals - before.prob_evals) as f64,
            );
            tr.count(
                req,
                "core.update.flipped",
                (after.flipped - before.flipped) as f64,
            );
        });
    }
}
