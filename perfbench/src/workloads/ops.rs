//! `ops-C`: the operator paths. The California preset at full scale is
//! built into a 2-shard snapshot and served by a 2-worker server. Each
//! iteration of one closed-loop caller runs `Snapshot::save` to a file,
//! then a RELOAD of that file plus the first QUERY on the new epoch, then
//! one PROPOSE (2 km window, 100 sites), all over one connection. The
//! snapshot codec, file I/O, view validation and the candidate sweep do the
//! work; selection and verification are nearly idle.
//!
//! Reference: the first query of every epoch must equal a one-thread IQT-C
//! rescan solve of the instance, and every proposal must equal a direct
//! sweep over the users' positions.

use super::{answer_of, corrupt, ms, set_up, Op, Outcome, Reply, Settings};
use super::{LEAF_DIAGONAL, SERVE_THREADS, SHARDS, THREADS};
use crate::inputs::{self, Preset};
use crate::summary::median;
use crate::trace::Tracer;
use mc2ls_candgen::{propose, propose_from_blocks, Proposal, SweepConfig};
use mc2ls_core::algorithms::{solve_threaded, Selector};
use mc2ls_core::{IqtConfig, Method, Problem};
use mc2ls_influence::{PositionBlocks, Sigmoid};
use mc2ls_serve::{Client, LoadedSnapshot, ProposeRequest, QueryEngine, Server, Snapshot};
use std::time::Instant;

/// PROPOSE window side (km) and site count.
const WINDOW_KM: f64 = 2.0;
const SITES: usize = 100;
/// In-process replays of the load path in a traced run.
const REPLAYS: u64 = 3;

struct System {
    server: Server,
    client: Client,
    snapshot: Snapshot,
    problem: Problem<Sigmoid>,
}

fn propose_request() -> ProposeRequest {
    ProposeRequest {
        window: WINDOW_KM,
        m: SITES,
        min_separation: None,
    }
}

/// Whether two proposals are bit-identical.
fn same_proposal(a: &Proposal, b: &Proposal) -> bool {
    a.stats == b.stats
        && a.sites.len() == b.sites.len()
        && a.sites.iter().zip(&b.sites).all(|(x, y)| {
            x.center.x.to_bits() == y.center.x.to_bits()
                && x.center.y.to_bits() == y.center.y.to_bits()
                && x.score == y.score
                && x.anchor == y.anchor
        })
}

/// The results of one iteration to check.
struct Iteration {
    reloaded: bool,
    first: Option<Reply>,
    proposal: Option<Proposal>,
}

pub(super) fn run(s: &Settings, tr: &mut Tracer) -> Outcome {
    let path = s.tmp.join("ops.mc2s");
    let path_str = path.to_string_lossy().into_owned();
    let query = inputs::full_query(inputs::TAU);
    let (mut sys, setup_s, rss_mb) = set_up(
        tr,
        |tr, rep| {
            let data = tr.span("data.generate", rep, |_| {
                inputs::dataset(Preset::California, s.scale(), s.seed)
            });
            let problem = inputs::problem(&data, s.seed, 0, inputs::TAU);
            let (snapshot, _) =
                Snapshot::build_sharded("C", &problem, LEAF_DIAGONAL, THREADS, SHARDS);
            let engine = QueryEngine::new(snapshot.clone(), SERVE_THREADS);
            let server = Server::start(super::server_config(256), engine).expect("server binds");
            let mut client = Client::connect(&server.addr().to_string()).expect("client connects");
            client.query(&query).expect("first query answered");
            System {
                server,
                client,
                snapshot,
                problem,
            }
        },
        |sys| {
            drop(sys.client);
            sys.server.shutdown();
        },
    );
    let mut out = Outcome {
        setup_s,
        rss_mb,
        ..Outcome::default()
    };

    let (mut save_ms, mut reload_ms, mut propose_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut iterations = Vec::new();
    // Untraced iterations run against a disabled tracer, and save through
    // `Snapshot::save` itself rather than its two traced halves.
    let mut idle = Tracer::new(false, Instant::now(), 0);
    let mut iterate = |tr: &mut Tracer, i: u64, traced: bool| {
        let tr = if traced { tr } else { &mut idle };
        let sys = &mut sys;
        tr.span("ops.iteration", i, |tr| {
            let t0 = Instant::now();
            if traced {
                tr.span("ops.save", i, |tr| {
                    let bytes = tr.span("serve.snapshot.encode", i, |_| sys.snapshot.to_bytes());
                    tr.span("serve.snapshot.write", i, |_| std::fs::write(&path, bytes))
                        .expect("snapshot saves");
                });
            } else {
                sys.snapshot.save(&path).expect("snapshot saves");
            }
            let t1 = Instant::now();
            let (reloaded, first) = tr.span("ops.reload", i, |_| {
                let reloaded = sys.client.reload(&path_str).is_ok();
                (reloaded, Reply::of(sys.client.query(&query)))
            });
            let t2 = Instant::now();
            let proposal = tr.span("ops.propose", i, |_| {
                sys.client.propose(&propose_request()).ok()
            });
            let t3 = Instant::now();
            iterations.push(Iteration {
                reloaded,
                first,
                proposal,
            });
            [ms(t1 - t0), ms(t2 - t1), ms(t3 - t2)]
        })
    };

    let warm_end = Instant::now() + s.warmup();
    let mut i = 0;
    while Instant::now() < warm_end {
        iterate(tr, i, false);
        i += 1;
    }
    let cpu0 = crate::sys::cpu_ms();
    let start = Instant::now();
    let (half, end) = (start + s.window() / 2, start + s.window());
    while Instant::now() < end {
        let traced = tr.is_on() && Instant::now() >= half;
        let t = Instant::now();
        let [save, reload, proposal] = iterate(tr, i, traced);
        out.ops.push(Op {
            ms: ms(t.elapsed()),
            traced,
        });
        save_ms.push(save);
        reload_ms.push(reload);
        propose_ms.push(proposal);
        i += 1;
    }
    out.cpu_ms = crate::sys::cpu_ms() - cpu0;
    drop(sys.client);
    sys.server.shutdown();
    out.layers.extend([
        ("ops.save_ms_p50", median(&save_ms)),
        ("ops.reload_ms_p50", median(&reload_ms)),
        ("ops.propose_ms_p50", median(&propose_ms)),
    ]);

    if tr.is_on() {
        replay(tr, &sys.snapshot, &path, &mut out);
    }

    let reference = solve_threaded(
        &sys.problem,
        Method::Iqt(IqtConfig::iqt_c(LEAF_DIAGONAL)),
        Selector::Greedy,
        1,
    );
    let mut want_answer = answer_of(&reference.solution);
    let points: Vec<_> = sys
        .problem
        .users
        .iter()
        .flat_map(|u| u.positions().iter().copied())
        .collect();
    let mut want_proposal = propose(&points, &SweepConfig::new(WINDOW_KM, SITES));
    if s.corrupt_reference {
        corrupt(&mut want_answer);
        want_proposal.sites.pop();
    }
    for it in &iterations {
        out.check(it.reloaded);
        out.check(it.first.as_ref().is_some_and(|r| r.matches(&want_answer)));
        out.check(
            it.proposal
                .as_ref()
                .is_some_and(|p| same_proposal(p, &want_proposal)),
        );
    }
    out
}

/// Replays the load path in-process with a span around each public call,
/// including the lazy position-block decode a first PROPOSE pays, sweeps
/// the snapshot's position blocks directly, and sizes each artifact.
fn replay(tr: &mut Tracer, snapshot: &Snapshot, path: &std::path::Path, out: &mut Outcome) {
    let blocks: Vec<PositionBlocks> = snapshot.shards.iter().map(|s| s.blocks.clone()).collect();
    let cfg = SweepConfig::new(WINDOW_KM, SITES).with_threads(SERVE_THREADS);
    let query = inputs::full_query(inputs::TAU);
    for r in 0..REPLAYS {
        let req = (1 << 32) + r;
        tr.span("ops.replay", req, |tr| {
            let bytes = tr.span("serve.view.read", req, |_| {
                std::fs::read(path).expect("snapshot reads")
            });
            let copy = bytes.clone();
            let engine = tr.span("serve.view.load", req, |_| {
                QueryEngine::from_bytes(copy, SERVE_THREADS).expect("snapshot loads")
            });
            tr.span("serve.engine.first_answer", req, |_| {
                engine.answer(&query).ok()
            });
            let view = LoadedSnapshot::from_bytes(bytes).expect("snapshot loads");
            tr.span("serve.view.pblk_decode", req, |_| {
                view.position_blocks().map(<[PositionBlocks]>::len).ok()
            });
        });
        let proposal = tr.span("candgen.sweep", req, |_| propose_from_blocks(&blocks, &cfg));
        tr.count(req, "candgen.anchors", proposal.stats.anchors as f64);
        tr.count(
            req,
            "candgen.nonempty_cells",
            proposal.stats.nonempty_cells as f64,
        );
    }
    let mb = |n: usize| n as f64 / 1e6;
    let size =
        |f: &dyn Fn(&mc2ls_serve::ShardArtifacts) -> usize| mb(snapshot.shards.iter().map(f).sum());
    out.layers.extend([
        ("serve.snapshot.mb", mb(snapshot.to_bytes().len())),
        ("serve.snapshot.iset_mb", size(&|s| s.sets.to_bytes().len())),
        (
            "serve.snapshot.iinv_mb",
            size(&|s| s.inverted.to_bytes().len()),
        ),
        (
            "serve.snapshot.pblk_mb",
            size(&|s| s.blocks.to_bytes().len()),
        ),
        ("serve.snapshot.iqtr_mb", mb(snapshot.tree.to_bytes().len())),
    ]);
}
