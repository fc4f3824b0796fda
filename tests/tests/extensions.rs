//! Integration tests for the layers built on a solved instance: the
//! analysis reports and the budgeted selector over real influence sets,
//! and the SVG scene.

use mc2ls::core::algorithms::budgeted::{solve_budgeted, solve_budgeted_exact};
use mc2ls::core::analysis;
use mc2ls::prelude::*;

fn dataset() -> Dataset {
    presets::new_york_scaled(0.08).generate()
}

fn base_problem(d: &Dataset, k: usize) -> Problem {
    let (c, f) = d.sample_sites_disjoint(25, 40, 3);
    Problem::new(d.users.clone(), f, c, k, 0.6, Sigmoid::paper_default())
}

#[test]
fn analysis_layers_agree_with_solution() {
    let d = dataset();
    let p = base_problem(&d, 5);
    let (sets, _, _) =
        mc2ls::core::algorithms::influence_sets(&p, Method::Iqt(IqtConfig::default()));
    let sol = solve(&p, Method::Iqt(IqtConfig::default())).solution;

    let curve = analysis::coverage_curve(&sets, 5);
    assert!((curve[4] - sol.cinf).abs() < 1e-9);

    let reports = analysis::site_reports(&sets, &sol);
    assert_eq!(reports.len(), 5);
    let exclusive_total: f64 = reports.iter().map(|r| r.exclusive_weight).sum();
    assert!(exclusive_total <= sol.cinf + 1e-9);

    let demand = analysis::demand_summary(&sets);
    assert!(demand.total_addressable_weight >= sol.cinf - 1e-9);
    assert!(demand.addressable_users <= p.n_users());
}

#[test]
fn budgeted_selection_on_real_sets() {
    let d = dataset();
    let p = base_problem(&d, 5);
    let (sets, _, _) =
        mc2ls::core::algorithms::influence_sets(&p, Method::Iqt(IqtConfig::default()));
    // Costs grow with candidate id; a budget of 6 units.
    let costs: Vec<f64> = (0..sets.n_candidates())
        .map(|c| 1.0 + (c % 4) as f64)
        .collect();
    let sol = solve_budgeted(&sets, &costs, 6.0);
    let spent: f64 = sol.selected.iter().map(|&c| costs[c as usize]).sum();
    assert!(spent <= 6.0 + 1e-9);
    // Compare to the exact optimum on a trimmed instance.
    let trimmed =
        mc2ls::core::InfluenceSets::new(sets.to_nested()[..12].to_vec(), sets.f_count.clone());
    let g = solve_budgeted(&trimmed, &costs[..12], 6.0);
    let opt = solve_budgeted_exact(&trimmed, &costs[..12], 6.0);
    assert!(g.cinf >= (1.0 - (-0.5f64).exp()) * opt.cinf - 1e-9);
}

#[test]
fn svg_scene_for_a_solved_instance() {
    let d = dataset();
    let p = base_problem(&d, 3);
    let sol = solve(&p, Method::Iqt(IqtConfig::default())).solution;
    let svg = mc2ls::viz::render_scene(&p, Some(&sol), &mc2ls::viz::RenderOptions::default());
    assert!(svg.starts_with("<svg"));
    assert_eq!(svg.matches("<polygon").count(), 3); // 3 selected diamonds
}
