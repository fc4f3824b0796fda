//! Table II — index construction cost: the IQuad-tree over all moving
//! users vs an R-tree over 300 abstract facilities, total and per indexed
//! object.
//!
//! Paper expectation: the IQuad-tree's total build time exceeds the
//! R-tree's (it indexes hundreds of thousands of positions, not hundreds of
//! points), but its per-object cost is *lower*, and the build is a fraction
//! of a percent of Baseline's query cost.

use super::ms;
use crate::{Ctx, ExperimentResult};
use mc2ls::prelude::*;
use serde_json::json;
use std::time::Instant;

/// Runs the experiment; see the module docs for the protocol and the
/// paper expectations it checks.
pub fn table2(ctx: &Ctx) -> ExperimentResult {
    let mut rows = Vec::new();
    for (name, dataset) in [
        ("C", crate::california(ctx.scale_c)),
        ("N", crate::new_york(ctx.scale_n)),
    ] {
        let n_positions: usize = dataset.users.iter().map(|u| u.len()).sum();
        let pf = Sigmoid::paper_default();

        let t = Instant::now();
        let iqt = IQuadTree::build(
            &dataset.users,
            &pf,
            crate::defaults::TAU,
            crate::defaults::D_HAT,
        );
        let iqt_time = t.elapsed();
        let _ = iqt.stats();

        let sites = dataset.sample_sites(300, crate::defaults::SITE_SEED);
        let items: Vec<(u32, Point)> = sites
            .iter()
            .enumerate()
            .map(|(i, p)| (i as u32, *p))
            .collect();
        let t = Instant::now();
        let rt = RTree::bulk_load(items.clone());
        let rtree_time = t.elapsed();
        assert_eq!(rt.len(), 300);

        // Also time the incremental R-tree insert path for completeness.
        let t = Instant::now();
        let mut rt2 = RTree::new();
        for (id, p) in &items {
            rt2.insert(*id, *p);
        }
        let rtree_insert_time = t.elapsed();

        rows.push(
            crate::RowBuilder::new()
                .set("dataset", json!(name))
                .set("iqt_objects", json!(n_positions))
                .set("IQuad_ms", ms(iqt_time))
                .set(
                    "IQuad_us_per_obj",
                    json!(
                        (iqt_time.as_secs_f64() * 1e6 / n_positions as f64 * 1000.0).round()
                            / 1000.0
                    ),
                )
                .set("RTree_bulk_ms", ms(rtree_time))
                .set("RTree_insert_ms", ms(rtree_insert_time))
                .set(
                    "RTree_us_per_obj",
                    json!(
                        (rtree_insert_time.as_secs_f64() * 1e6 / 300.0 * 1000.0).round() / 1000.0
                    ),
                )
                .build(),
        );
    }
    ExperimentResult {
        id: "table2",
        title: "Index construction cost: IQuad-tree (users) vs R-tree (300 sites)",
        rows,
    }
}
