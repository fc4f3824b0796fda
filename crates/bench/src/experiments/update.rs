//! `BENCH_update` — incremental update engine vs full rebuild (written to
//! `BENCH_update.json`).
//!
//! The serving question behind the update engine: when one user checks in,
//! moves, appears or leaves, how much verification work does absorbing the
//! event cost, compared with recomputing the influence phase from scratch?
//! Per preset this experiment:
//!
//! * builds the engine once (the ordinary influence pipeline),
//! * replays a deterministic mobility stream — check-in moves against
//!   live users, a sprinkle of inserts and deletes — with a periodic
//!   compaction, timing the whole absorption,
//! * rebuilds the mutated instance from scratch and asserts the engine's
//!   folded state is **bit-identical** (sets, inverted bytes, solution),
//! * reports per-update PF evaluations against the rebuild's, asserting
//!   the engine needs at least [`MIN_EVAL_RATIO`]× fewer per event.
//!
//! The eval counters on both sides are the same metric: per-position
//! probability evaluations inside the verification kernels
//! (`UpdateStats::prob_evals` vs `PruneStats::prob_evals`), so the ratio
//! is exactly "how many events one rebuild is worth".

use crate::{Ctx, ExperimentResult};
use mc2ls::core::{InvertedIndex, UpdateEngine, UserUpdate};
use mc2ls::prelude::*;
use serde_json::json;
use std::time::Instant;

/// Events replayed per preset; compaction fires every [`COMPACT_EVERY`].
const EVENTS: usize = 64;
const COMPACT_EVERY: usize = 16;
/// The headline gate: a rebuild must cost at least this many times the PF
/// evaluations of an absorbed update, on every preset.
const MIN_EVAL_RATIO: f64 = 50.0;

/// Deterministic xorshift stream for event synthesis.
struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Picks a live slot; the engine is never drained below one user.
fn live_slot(engine: &UpdateEngine<Sigmoid>, rng: &mut Rng) -> u32 {
    let n = engine.n_slots() as u32;
    loop {
        let o = (rng.next() % u64::from(n)) as u32;
        if engine.is_alive(o) {
            return o;
        }
    }
}

/// The event mix of a check-in stream: mostly moves that append one
/// jittered position to a live trajectory, with occasional inserts and
/// deletes (one in eight each).
fn synth_event(engine: &UpdateEngine<Sigmoid>, rng: &mut Rng) -> UserUpdate {
    let roll = rng.next() % 8;
    if roll == 0 {
        let base = engine.users()[live_slot(engine, rng) as usize].positions()[0];
        return UserUpdate::Insert {
            positions: vec![
                Point::new(base.x + rng.unit() - 0.5, base.y + rng.unit() - 0.5),
                Point::new(base.x + rng.unit() - 0.5, base.y + rng.unit() - 0.5),
            ],
        };
    }
    if roll == 1 && engine.n_live() > 1 {
        return UserUpdate::Delete {
            user: live_slot(engine, rng),
        };
    }
    let o = live_slot(engine, rng);
    let mut positions = engine.positions_of(o).expect("live slot").to_vec();
    let last = positions[positions.len() - 1];
    positions.push(Point::new(
        last.x + rng.unit() * 2.0 - 1.0,
        last.y + rng.unit() * 2.0 - 1.0,
    ));
    UserUpdate::Move { user: o, positions }
}

/// Runs the experiment; see the module docs for the protocol.
pub fn update(ctx: &Ctx) -> ExperimentResult {
    let cores = crate::detected_cores();
    let mut rows = Vec::new();
    let cal = crate::california(ctx.scale_c);
    let ny = crate::new_york(ctx.scale_n);
    for (name, dataset) in [("C", &cal), ("N", &ny)] {
        let problem = crate::problem_with(
            dataset,
            crate::defaults::N_CANDIDATES,
            crate::defaults::N_FACILITIES,
            crate::defaults::K,
            crate::defaults::TAU,
        );
        let mut engine = UpdateEngine::new(&problem, 1);
        let mut rng = Rng(0x5851_F42D_4C95_7F2D ^ name.len() as u64);

        // Absorb the stream, compaction included in the timed span — that
        // is the cost a live server actually pays per batch.
        let evals_before = engine.stats().prob_evals;
        let t_updates = Instant::now();
        for i in 0..EVENTS {
            let event = synth_event(&engine, &mut rng);
            engine.apply(event).expect("synthesised events are valid");
            if (i + 1) % COMPACT_EVERY == 0 {
                engine.compact();
            }
        }
        engine.compact();
        let update_time = t_updates.elapsed();
        let stats = engine.stats().clone();
        let update_evals = stats.prob_evals - evals_before;
        let per_update_evals = update_evals as f64 / EVENTS as f64;

        // The from-scratch bar: rebuild the mutated instance and demand
        // bit-identical folded state.
        let mutated = Problem::new(
            engine.users().to_vec(),
            problem.facilities.clone(),
            problem.candidates.clone(),
            problem.k,
            problem.tau,
            problem.pf,
        );
        let t_rebuild = Instant::now();
        let (fresh, prune, _) =
            influence_sets_threaded(&mutated, Method::Iqt(IqtConfig::default()), 1);
        let rebuild_time = t_rebuild.elapsed();
        assert_eq!(
            engine.sets(),
            &fresh,
            "{name}: folded engine state diverged from the rebuild"
        );
        assert_eq!(
            engine.inverted().to_bytes(),
            InvertedIndex::build(&fresh).to_bytes(),
            "{name}: inverted CSRs diverged"
        );
        let (sol, _) = engine.solve(problem.k);
        let (want, _) = mc2ls::core::algorithms::run_selector(Selector::Auto, &fresh, problem.k, 1);
        assert_eq!(sol.selected, want.selected, "{name}: solve diverged");
        assert_eq!(sol.cinf.to_bits(), want.cinf.to_bits());

        let ratio = prune.prob_evals as f64 / per_update_evals.max(1e-9);
        assert!(
            ratio >= MIN_EVAL_RATIO,
            "{name}: one rebuild is worth only {ratio:.1} updates in PF evals \
             ({} rebuild vs {per_update_evals:.1}/update) — below the {MIN_EVAL_RATIO}× gate",
            prune.prob_evals,
        );

        rows.push(
            crate::RowBuilder::new()
                .set("dataset", json!(name))
                .set("cores", json!(cores))
                .set("users", json!(mutated.n_users()))
                .set("events", json!(EVENTS))
                .set("inserts", json!(stats.inserts))
                .set("deletes", json!(stats.deletes))
                .set("moves", json!(stats.moves))
                .set("compactions", json!(stats.compactions))
                .set("flipped", json!(stats.flipped))
                .set("sites_pruned", json!(stats.sites_pruned))
                .set("sites_checked", json!(stats.sites_checked))
                .set("update_evals", json!(update_evals))
                .set(
                    "evals_per_update",
                    json!((per_update_evals * 10.0).round() / 10.0),
                )
                .set("rebuild_evals", json!(prune.prob_evals))
                .set("eval_ratio", json!((ratio * 10.0).round() / 10.0))
                .set("update_ms", super::ms(update_time))
                .set(
                    "ms_per_update",
                    json!((update_time.as_secs_f64() * 1e5 / EVENTS as f64).round() / 100.0),
                )
                .set("rebuild_ms", super::ms(rebuild_time))
                .build(),
        );
    }
    ExperimentResult {
        id: "BENCH_update",
        title: "Incremental updates: PF evaluations and wall-clock per event vs full rebuild",
        rows,
    }
}
