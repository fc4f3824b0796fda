//! Solution-quality comparison (not a paper figure, but the paper's Fig. 1
//! argument made quantitative): the overlap-aware greedy versus the
//! single-facility top-k baseline ([17]/[18]-style) and the
//! competition-blind greedy (the k-CIFP objective evaluated under
//! competition).

use crate::{percent, Ctx, ExperimentResult};
use mc2ls::core::algorithms::topk::select_top_k_single;
use mc2ls::core::algorithms::{self, run_selector, Selector};
use mc2ls::core::InfluenceSets;
use mc2ls::prelude::*;
use serde_json::json;

/// Runs the experiment; see the module docs for the protocol.
pub fn quality(ctx: &Ctx) -> ExperimentResult {
    let mut rows = Vec::new();
    for (name, dataset) in [
        ("C", crate::california(ctx.scale_c)),
        ("N", crate::new_york(ctx.scale_n)),
    ] {
        for k in [5usize, 10, 20] {
            let problem = crate::problem_with(
                &dataset,
                crate::defaults::N_CANDIDATES,
                crate::defaults::N_FACILITIES,
                k,
                crate::defaults::TAU,
            );
            let (sets, _, _) =
                algorithms::influence_sets(&problem, Method::Iqt(IqtConfig::default()));

            let greedy_sol = run_selector(Selector::Greedy, &sets, k, 1).0;
            let topk_sol = select_top_k_single(&sets, k);

            // Competition-blind: optimise raw coverage (every weight 1),
            // then score the chosen set under the true competitive weights.
            let (offsets, user_ids) = sets.csr();
            let blind_sets = InfluenceSets::from_csr(
                offsets.to_vec(),
                user_ids.to_vec(),
                vec![0; sets.n_users()],
            );
            let blind_pick = run_selector(Selector::Greedy, &blind_sets, k, 1).0;
            let blind_value = sets.cinf_set(&blind_pick.selected);

            let rel = |v: f64| percent(v / greedy_sol.cinf.max(1e-12));
            rows.push(
                crate::RowBuilder::new()
                    .set("dataset", json!(name))
                    .set("k", json!(k))
                    .set(
                        "greedy_cinf",
                        json!((greedy_sol.cinf * 100.0).round() / 100.0),
                    )
                    .set("topk_single%", rel(topk_sol.cinf))
                    .set("competition_blind%", rel(blind_value))
                    .build(),
            );
        }
    }
    ExperimentResult {
        id: "quality",
        title: "Solution quality vs the overlap-aware greedy (=100%)",
        rows,
    }
}
