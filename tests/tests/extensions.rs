//! Integration tests for the layers built on a solved instance: the
//! analysis reports over real influence sets, and the SVG scene.

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
fn svg_scene_for_a_solved_instance() {
    let d = dataset();
    let p = base_problem(&d, 3);
    let sol = solve(&p, Method::Iqt(IqtConfig::default())).solution;
    let svg = mc2ls::viz::render_scene(&p, Some(&sol), &mc2ls::viz::RenderOptions::default());
    assert!(svg.starts_with("<svg"));
    assert_eq!(svg.matches("<polygon").count(), 3); // 3 selected diamonds
}
