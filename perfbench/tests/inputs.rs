//! Input determinism: the seed alone fixes every input, a different seed
//! changes every input, and the generated update stream is valid.

use mc2ls_data::{presets, Dataset};
use mc2ls_geo::Point;
use mc2ls_perfbench::inputs::{self, Preset};
use mc2ls_perfbench::workloads::{LEAF_DIAGONAL, SHARDS, SMOKE_SCALE};
use mc2ls_serve::LiveUpdater;
use std::collections::BTreeSet;

fn point_bytes<'a>(points: impl IntoIterator<Item = &'a Point>) -> Vec<u8> {
    points
        .into_iter()
        .flat_map(|p| [p.x.to_bits(), p.y.to_bits()])
        .flat_map(u64::to_le_bytes)
        .collect()
}

fn dataset_bytes(d: &Dataset) -> Vec<u8> {
    let mut out = Vec::new();
    for u in &d.users {
        out.extend((u.len() as u64).to_le_bytes());
        out.extend(point_bytes(u.positions()));
    }
    out.extend(point_bytes(&d.pois));
    out
}

/// Every input of one seed, serialised.
fn inputs_of(seed: u64) -> [Vec<u8>; 4] {
    let data = inputs::dataset(Preset::NewYork, SMOKE_SCALE, seed);
    let sites = inputs::problem(&data, seed, 0, inputs::TAU);
    let queries = inputs::query_stream(seed, inputs::N_CANDIDATES, inputs::TAU, 500);
    let events = inputs::event_stream(seed, &data.users, 20);
    [
        dataset_bytes(&data),
        point_bytes(sites.candidates.iter().chain(&sites.facilities)),
        serde_json::to_string(&queries).unwrap().into_bytes(),
        serde_json::to_string(&events).unwrap().into_bytes(),
    ]
}

#[test]
fn the_same_seed_gives_byte_identical_inputs() {
    assert_eq!(inputs_of(7), inputs_of(7));
}

#[test]
fn a_different_seed_changes_every_input() {
    let (a, b) = (inputs_of(7), inputs_of(8));
    for (what, (x, y)) in ["dataset", "sites", "queries", "events"]
        .iter()
        .zip(a.iter().zip(&b))
    {
        assert_ne!(x, y, "{what} did not change with the seed");
    }
}

#[test]
fn the_seed_reaches_the_dataset_only_through_the_preset_seed() {
    let mut cfg = presets::california_scaled(SMOKE_SCALE);
    cfg.seed ^= 42;
    assert_eq!(
        dataset_bytes(&inputs::dataset(Preset::California, SMOKE_SCALE, 42)),
        dataset_bytes(&cfg.generate())
    );
}

#[test]
fn solve_instances_cover_every_tau_for_every_site_sample() {
    let data = inputs::dataset(Preset::California, SMOKE_SCALE, 5);
    let instances = inputs::solve_instances(&data, 5);
    assert_eq!(
        instances.len(),
        inputs::SOLVE_SITE_SAMPLES as usize * inputs::SOLVE_TAUS.len()
    );
    for tau in inputs::SOLVE_TAUS {
        let n = instances.iter().filter(|p| p.tau == tau).count();
        assert_eq!(n, inputs::SOLVE_SITE_SAMPLES as usize);
    }
}

#[test]
fn every_generated_update_batch_is_accepted_in_order() {
    let data = inputs::dataset(Preset::NewYork, SMOKE_SCALE, 11);
    let problem = inputs::problem(&data, 11, 0, inputs::TAU);
    let events = inputs::event_stream(11, &problem.users, 40);
    let (mut live, snapshot, _) = LiveUpdater::new("N", &problem, LEAF_DIAGONAL, 1, SHARDS);
    let mut starts = snapshot.meta.shard_starts.clone();
    let ops: BTreeSet<&str> = events.iter().flatten().map(|e| e.op.as_str()).collect();
    assert_eq!(ops, BTreeSet::from(["checkin", "delete", "insert"]));
    for (b, batch) in events.iter().enumerate() {
        assert_eq!(batch.len(), inputs::BATCH_EVENTS);
        let (_, snapshot) = live
            .apply_batch(batch, &starts)
            .unwrap_or_else(|e| panic!("batch {b} rejected: {e}"));
        starts = snapshot.meta.shard_starts.clone();
    }
}
