//! `solve-C`: the paper's headline path. One closed-loop caller runs
//! `solve_threaded` (IQT pruning, automatic selector, 2 threads) on the
//! California preset at full scale, cycling through the seed's instances:
//! three candidate/facility samples, each at τ ∈ {0.5, 0.7, 0.9}. Index
//! build, pruning and verification do nearly all the work and no serve
//! layer runs, so influence-kernel changes show here and nowhere else.
//!
//! Reference: every instance solved again on one thread with IQT-C pruning
//! and the rescan selector, which must agree bit for bit.

use super::{answer_of, corrupt, ms, set_up, Answer, Op, Outcome, Settings};
use super::{LEAF_DIAGONAL, THREADS};
use crate::inputs::{self, Preset};
use crate::trace::Tracer;
use mc2ls_core::algorithms::{influence_sets_threaded, run_selector, solve_threaded, Selector};
use mc2ls_core::{IqtConfig, Method, Problem, Solution};
use mc2ls_index::IQuadTree;
use mc2ls_influence::Sigmoid;
use std::time::Instant;

fn method() -> Method {
    Method::Iqt(IqtConfig::iqt(LEAF_DIAGONAL))
}

fn solve(p: &Problem<Sigmoid>) -> Solution {
    solve_threaded(p, method(), Selector::Auto, THREADS).solution
}

/// `solve_threaded` split at its layer boundaries, with a span around each
/// call and the layers' work counts recorded.
fn traced_solve(tr: &mut Tracer, p: &Problem<Sigmoid>, req: u64) -> Solution {
    tr.span("solve", req, |tr| {
        let (sets, prune, _) = tr.span("core.iqt.sets", req, |_| {
            influence_sets_threaded(p, method(), THREADS)
        });
        let (solution, sel) = tr.span("core.select", req, |_| {
            run_selector(Selector::Auto, &sets, p.k, THREADS)
        });
        tr.count(req, "core.iqt.pruned_pct", prune.pruned_fraction() * 100.0);
        tr.count(req, "influence.pairs_total", prune.pairs_total as f64);
        tr.count(req, "influence.pairs_verified", prune.verified as f64);
        tr.count(req, "influence.prob_evals", prune.prob_evals as f64);
        tr.count(req, "influence.blocks_opened", prune.blocks_opened as f64);
        tr.count(req, "influence.pf_fallbacks", prune.pf_fallbacks as f64);
        tr.count(req, "core.select.gain_evals", sel.gain_evals as f64);
        tr.count(req, "core.select.gain_updates", sel.gain_updates as f64);
        tr.count(req, "core.select.heap_pushes", sel.heap_pushes as f64);
        solution
    })
}

pub(super) fn run(s: &Settings, tr: &mut Tracer) -> Outcome {
    let (instances, setup_s, rss_mb) = set_up(
        tr,
        |tr, rep| {
            let data = tr.span("data.generate", rep, |_| {
                inputs::dataset(Preset::California, s.scale(), s.seed)
            });
            inputs::solve_instances(&data, s.seed)
        },
        drop,
    );
    let mut out = Outcome {
        setup_s,
        rss_mb,
        ..Outcome::default()
    };
    let instance = |i: usize| &instances[i % instances.len()];

    // Closed loop: warm-up, then the window, whose second half is traced
    // when tracing is on (the first half gives the untraced comparison).
    let mut answers: Vec<(usize, Answer)> = Vec::new();
    let warm_end = Instant::now() + s.warmup();
    while Instant::now() < warm_end {
        let i = answers.len();
        answers.push((i, answer_of(&solve(instance(i)))));
    }
    let cpu0 = crate::sys::cpu_ms();
    let start = Instant::now();
    let (half, end) = (start + s.window() / 2, start + s.window());
    while Instant::now() < end {
        let i = answers.len();
        let traced = tr.is_on() && Instant::now() >= half;
        let t = Instant::now();
        let solution = if traced {
            traced_solve(tr, instance(i), i as u64)
        } else {
            solve(instance(i))
        };
        out.ops.push(Op {
            ms: ms(t.elapsed()),
            traced,
        });
        answers.push((i, answer_of(&solution)));
    }
    out.cpu_ms = crate::sys::cpu_ms() - cpu0;

    if tr.is_on() {
        // One decomposed solve per instance gives work counts that depend
        // only on the seed, plus a stand-alone IQuad-tree build.
        for (n, p) in instances.iter().enumerate() {
            let req = (1 << 32) + n as u64;
            tr.span("index.iquadtree_build", req, |_| {
                IQuadTree::build(&p.users, &p.pf, p.tau, LEAF_DIAGONAL)
            });
            answers.push((n, answer_of(&traced_solve(tr, p, req))));
        }
    }

    // References, one thread per half of the instances.
    let mut references: Vec<Answer> = std::thread::scope(|scope| {
        let handles: Vec<_> = instances
            .chunks(instances.len().div_ceil(THREADS))
            .map(|chunk| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|p| {
                            let method = Method::Iqt(IqtConfig::iqt_c(LEAF_DIAGONAL));
                            answer_of(&solve_threaded(p, method, Selector::Greedy, 1).solution)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference solver thread panicked"))
            .collect()
    });
    if s.corrupt_reference {
        corrupt(&mut references[0]);
    }
    for (i, answer) in &answers {
        out.check(*answer == references[i % instances.len()]);
    }
    out
}
