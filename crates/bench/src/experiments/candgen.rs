//! Candidate-generation quality (the MaxRS-style sweep of the candgen
//! crate): at equal `k`, does solving over the top-`m` density peaks
//! proposed from the users' positions reach the collective influence of
//! the preset (POI-sampled) candidate pool?
//!
//! The experiment also pins the competition-model dispatch: an explicit
//! `Model::Cumulative` problem must solve bit-identically to the default.
//! Each row records the sweep's cost: its non-empty cells, its scored
//! window anchors, and its wall-clock (median over `--reps`).

use crate::{Ctx, ExperimentResult};
use mc2ls::prelude::*;
use mc2ls_candgen::{propose, Proposal, SweepConfig};
use serde_json::json;
use std::time::Instant;

/// Runs the experiment; see the module docs for the protocol.
pub fn candgen(ctx: &Ctx) -> ExperimentResult {
    let mut rows = Vec::new();
    let mut best_ratio = f64::NEG_INFINITY;
    for (name, dataset) in [
        ("C", crate::california(ctx.scale_c)),
        ("N", crate::new_york(ctx.scale_n)),
    ] {
        let preset_problem = crate::default_problem(&dataset);
        let preset = solve(&preset_problem, Method::Iqt(IqtConfig::default()));

        // The trait-dispatched cumulative model is the default: making it
        // explicit must not move a single bit of the solution.
        let explicit = solve(
            &crate::default_problem(&dataset).with_model(Model::Cumulative),
            Method::Iqt(IqtConfig::default()),
        );
        assert_eq!(
            preset.solution.selected, explicit.solution.selected,
            "explicit cumulative model changed the selection on {name}"
        );
        assert_eq!(
            preset.solution.cinf.to_bits(),
            explicit.solution.cinf.to_bits(),
            "explicit cumulative model changed cinf bits on {name}"
        );

        // Propose the same number of candidates from the users' positions
        // (window = the paper's d̂ leaf diagonal) and solve the identical
        // instance over them: same users, facilities, k, τ.
        let points: Vec<Point> = dataset
            .users
            .iter()
            .flat_map(|u| u.positions().iter().copied())
            .collect();
        let cfg = SweepConfig::new(crate::defaults::D_HAT, preset_problem.candidates.len());
        let mut proposal = Proposal::default();
        let sweep = super::median_of(ctx.reps, || {
            let start = Instant::now();
            proposal = propose(&points, &cfg);
            start.elapsed()
        });
        let generated_problem = Problem::new(
            dataset.users.clone(),
            preset_problem.facilities.clone(),
            proposal.sites.iter().map(|s| s.center).collect(),
            preset_problem.k,
            preset_problem.tau,
            Sigmoid::paper_default(),
        );
        let generated = solve(&generated_problem, Method::Iqt(IqtConfig::default()));

        let ratio = generated.solution.cinf / preset.solution.cinf.max(1e-12);
        best_ratio = best_ratio.max(ratio);
        rows.push(
            crate::RowBuilder::new()
                .set("dataset", json!(name))
                .set("k", json!(preset_problem.k))
                .set("m", json!(proposal.sites.len()))
                .set("positions", json!(proposal.stats.n_positions))
                .set("nonempty_cells", json!(proposal.stats.nonempty_cells))
                .set("anchors", json!(proposal.stats.anchors))
                .set("sweep_ms", super::ms(sweep))
                .set(
                    "preset_cinf",
                    json!((preset.solution.cinf * 100.0).round() / 100.0),
                )
                .set(
                    "generated_cinf",
                    json!((generated.solution.cinf * 100.0).round() / 100.0),
                )
                .set("ratio", json!((ratio * 1000.0).round() / 1000.0))
                .build(),
        );
    }
    assert!(
        best_ratio >= 1.0,
        "generated candidates must match the preset pool on at least one \
         preset (best ratio {best_ratio:.3})"
    );
    ExperimentResult {
        id: "BENCH_candgen",
        title: "Candidate generation: proposed density peaks vs preset POI candidates",
        rows,
    }
}
