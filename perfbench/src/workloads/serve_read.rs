//! `serve-read-N`: read-only serving. The New-York preset at full scale is
//! built into a 2-shard snapshot, saved to a file and cold-started with
//! `QueryEngine::from_bytes` behind a 2-worker server with a 256-answer
//! cache. Two connections send subset queries (70 % Zipf over 512 fixed
//! 50-candidate subsets, 30 % fresh subsets, k ∈ {5, 10, 20}) open loop at
//! 2000 queries/s for two thirds of the window, then run three closed-loop
//! passes for the rest to find the saturation rate. Selection and the wire
//! path (protocol, server, result cache) do nearly all the work; the
//! influence phase does none.
//!
//! Reference: every answer is compared with an in-process engine loaded
//! from the same file.

use super::{open_loop, server_config, set_up, Op, Outcome, References, Reply, Sent, Settings};
use super::{LEAF_DIAGONAL, SERVE_THREADS, SHARDS, THREADS, WORKERS};
use crate::inputs::{self, Preset};
use crate::summary::{mean, median};
use crate::trace::Tracer;
use mc2ls_serve::protocol::{recv_message, send_message, Request, Response};
use mc2ls_serve::{Client, QueryEngine, QueryRequest, Server, Snapshot};
use std::time::{Duration, Instant};

/// Offered load of the open-loop phase, queries per second.
const RATE_QPS: f64 = 2000.0;
/// Result-cache capacity, in answers.
const CACHE: usize = 256;
/// Closed-loop passes; `read.sat_qps` is their median rate.
const PASSES: u32 = 3;
/// Share of the window run open loop.
const OPEN_SHARE: f64 = 2.0 / 3.0;

struct System {
    server: Server,
    clients: Vec<Client>,
    bytes: Vec<u8>,
}

/// Sends `requests` open loop, spread round-robin over the connections.
/// Requests from index `traced_from` on get a span each.
fn open_phase(
    clients: &mut [Client],
    requests: &[QueryRequest],
    traced_from: usize,
    tr: &mut Tracer,
) -> Vec<Sent<Option<Reply>>> {
    let period = Duration::from_secs_f64(1.0 / RATE_QPS);
    let start = Instant::now() + Duration::from_millis(5);
    let n = clients.len();
    let mut sent: Vec<Sent<Option<Reply>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(j, client)| {
                let mut local = tr.fork(j as u64 + 1);
                scope.spawn(move || {
                    let sent = open_loop(start, period, (j..requests.len()).step_by(n), |i| {
                        if i >= traced_from {
                            local.span("serve.wire.query", i as u64, |_| {
                                Reply::of(client.query(&requests[i]))
                            })
                        } else {
                            Reply::of(client.query(&requests[i]))
                        }
                    });
                    (sent, local)
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| {
                let (sent, local) = h.join().expect("client thread panicked");
                tr.absorb(local);
                sent
            })
            .collect()
    });
    sent.sort_by_key(|x| x.i);
    sent
}

/// One closed-loop pass of `pass` over every connection, cycling through
/// `requests` from `offset`. Returns the rate and every (request, reply).
fn closed_pass(
    clients: &mut [Client],
    requests: &[QueryRequest],
    offset: usize,
    pass: Duration,
) -> (f64, Vec<(usize, Option<Reply>)>) {
    let n = clients.len();
    let start = Instant::now();
    let end = start + pass;
    let replies: Vec<(usize, Option<Reply>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(j, client)| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    let mut i = offset + j;
                    while Instant::now() < end {
                        let idx = i % requests.len();
                        out.push((idx, Reply::of(client.query(&requests[idx]))));
                        i += n;
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let rate = replies.len() as f64 / start.elapsed().as_secs_f64();
    (rate, replies)
}

pub(super) fn run(s: &Settings, tr: &mut Tracer) -> Outcome {
    let path = s.tmp.join("serve-read.mc2s");
    let (mut sys, setup_s, rss_mb) = set_up(
        tr,
        |tr, rep| {
            let data = tr.span("data.generate", rep, |_| {
                inputs::dataset(Preset::NewYork, s.scale(), s.seed)
            });
            let problem = inputs::problem(&data, s.seed, 0, inputs::TAU);
            let (snapshot, _) =
                Snapshot::build_sharded("N", &problem, LEAF_DIAGONAL, THREADS, SHARDS);
            snapshot.save(&path).expect("snapshot saves");
            let bytes = std::fs::read(&path).expect("snapshot reads back");
            let engine =
                QueryEngine::from_bytes(bytes.clone(), SERVE_THREADS).expect("snapshot loads");
            let server = Server::start(server_config(CACHE), engine).expect("server binds");
            let addr = server.addr().to_string();
            let clients = (0..WORKERS)
                .map(|_| {
                    let mut client = Client::connect(&addr).expect("client connects");
                    client
                        .query(&inputs::full_query(inputs::TAU))
                        .expect("first query answered");
                    client
                })
                .collect();
            System {
                server,
                clients,
                bytes,
            }
        },
        |sys| {
            drop(sys.clients);
            sys.server.shutdown();
        },
    );
    let mut out = Outcome {
        setup_s,
        rss_mb,
        ..Outcome::default()
    };

    let n_warm = (s.warmup().as_secs_f64() * RATE_QPS) as usize;
    let open = s.window().mul_f64(OPEN_SHARE);
    let n_open = (open.as_secs_f64() * RATE_QPS).max(1.0) as usize;
    let stream = inputs::query_stream(s.seed, inputs::N_CANDIDATES, inputs::TAU, n_warm + n_open);
    let (warm_stream, window_stream) = stream.split_at(n_warm);

    let warm = open_phase(&mut sys.clients, warm_stream, usize::MAX, tr);
    let cpu0 = crate::sys::cpu_ms();
    let traced_from = if tr.is_on() { n_open / 2 } else { usize::MAX };
    let window = open_phase(&mut sys.clients, window_stream, traced_from, tr);
    out.cpu_ms = crate::sys::cpu_ms() - cpu0;

    let pass = (s.window() - open) / PASSES;
    let mut rates = Vec::new();
    let mut closed = Vec::new();
    for p in 0..PASSES as usize {
        let (rate, replies) = closed_pass(&mut sys.clients, &stream, p * 7919, pass);
        rates.push(rate);
        closed.extend(replies);
    }
    let stats = sys.clients[0].stats().ok();
    drop(sys.clients);
    sys.server.shutdown();

    for x in &window {
        out.ops.push(Op {
            ms: x.latency_ns as f64 / 1e6,
            traced: x.i >= traced_from,
        });
        out.gen_late_us.push(x.late_ns as f64 / 1e3);
    }
    let misses: Vec<&Reply> = window
        .iter()
        .filter_map(|x| x.out.as_ref())
        .filter(|r| !r.cached)
        .collect();
    let answered = window.iter().filter(|x| x.out.is_some()).count().max(1);
    let per_miss = |f: fn(&Reply) -> f64| misses.iter().map(|r| f(r)).collect::<Vec<_>>();
    out.layers.extend([
        ("read.sat_qps", median(&rates)),
        (
            "serve.cache.hit_pct",
            100.0 - 100.0 * misses.len() as f64 / answered as f64,
        ),
        (
            "core.shard.scatter_events_per_query",
            mean(&per_miss(|r| r.scatter_events as f64)),
        ),
        (
            "core.shard.critical_path_us_p50",
            median(&per_miss(|r| r.critical_path_ns as f64 / 1e3)),
        ),
        (
            "core.select.gain_updates_per_query",
            mean(&per_miss(|r| r.gain_updates as f64)),
        ),
    ]);
    out.record_stats(stats);

    let engine = QueryEngine::from_bytes(sys.bytes, SERVE_THREADS).expect("snapshot loads");
    let mut refs = References::new(engine, s.corrupt_reference);
    if tr.is_on() {
        replay(
            tr,
            &mut refs,
            window_stream,
            &window[traced_from.min(window.len())..],
            &mut out,
        );
    }
    let replies = warm
        .iter()
        .map(|x| (x.i, &x.out))
        .chain(window.iter().map(|x| (n_warm + x.i, &x.out)))
        .chain(closed.iter().map(|(i, r)| (*i, r)));
    for (i, reply) in replies {
        let ok = match (reply, refs.get(&stream[i])) {
            (Some(r), Some(want)) => r.matches(want),
            _ => false,
        };
        out.check(ok);
    }
    out
}

/// Replays each traced cache miss in-process: the engine answer, then the
/// request and response through the wire codec. The client round trip minus
/// the in-process answer is the wire overhead.
fn replay(
    tr: &mut Tracer,
    refs: &mut References,
    requests: &[QueryRequest],
    traced: &[Sent<Option<Reply>>],
    out: &mut Outcome,
) {
    let mut overhead_us = Vec::new();
    let mut response_bytes = Vec::new();
    for x in traced {
        let Some(reply) = &x.out else { continue };
        if reply.cached {
            continue;
        }
        let q = &requests[x.i];
        let req = x.i as u64;
        tr.span("serve.replay", req, |tr| {
            let t = Instant::now();
            let answer = tr.span("serve.engine.answer", req, |_| refs.engine.answer(q));
            let answer_ns = t.elapsed().as_nanos() as f64;
            let Ok(answer) = answer else { return };
            let (qbuf, abuf) = tr.span("serve.protocol.encode", req, |_| {
                let (mut qbuf, mut abuf) = (Vec::new(), Vec::new());
                send_message(&mut qbuf, &Request::Query(q.clone())).expect("request encodes");
                send_message(&mut abuf, &Response::Answer(answer)).expect("response encodes");
                (qbuf, abuf)
            });
            tr.span("serve.protocol.decode", req, |_| {
                recv_message::<Request>(&mut &qbuf[..]).expect("request decodes");
                recv_message::<Response>(&mut &abuf[..]).expect("response decodes");
            });
            overhead_us.push((x.rtt_ns as f64 - answer_ns) / 1e3);
            response_bytes.push(abuf.len() as f64);
        });
    }
    out.layers.extend([
        ("serve.wire.overhead_us_p50", median(&overhead_us)),
        ("serve.protocol.response_bytes_p50", median(&response_bytes)),
    ]);
}
