//! Integration tests across the extension crates: geo-social, road-network
//! and temporal variants plugged into the calibrated datasets, plus the
//! analysis/budgeted layers over real influence sets.

use mc2ls::core::algorithms::budgeted::{solve_budgeted, solve_budgeted_exact};
use mc2ls::core::{analysis, sketch};
use mc2ls::prelude::*;
use mc2ls::roadnet::{solve_network, NetworkProblem, RoadNetwork};
use mc2ls::social::{solve_social, PropagationModel, SocialGraph, SocialProblem};
use mc2ls::temporal::{solve_temporal, TemporalProblem, TimedUser};

fn dataset() -> Dataset {
    presets::new_york_scaled(0.08).generate()
}

fn base_problem(d: &Dataset, k: usize) -> Problem {
    let (c, f) = d.sample_sites_disjoint(25, 40, 3);
    Problem::new(d.users.clone(), f, c, k, 0.6, Sigmoid::paper_default())
}

#[test]
fn social_extension_on_calibrated_dataset() {
    let d = dataset();
    let n = d.users.len();
    let p = base_problem(&d, 4);
    let graph = SocialGraph::small_world(n, 4, 0.2, (0.1, 0.6), 5);
    let sp = SocialProblem::new(
        p.clone(),
        graph,
        vec![],
        PropagationModel::IndependentCascade {
            samples: 8,
            seed: 1,
        },
    );
    let social = solve_social(&sp);
    let plain = solve(&p, Method::Iqt(IqtConfig::default()));
    // Social reach can only add to the same set's geo value.
    assert!(social.scinf >= social.geo_cinf - 1e-9);
    // Both pick k sites.
    assert_eq!(social.selected.len(), 4);
    assert_eq!(plain.solution.selected.len(), 4);
}

#[test]
fn network_variant_on_calibrated_dataset() {
    let d = dataset();
    let extent = d.extent();
    // A road grid spanning the dataset extent.
    let spacing = extent.width().max(extent.height()) / 24.0;
    let network = RoadNetwork::city_grid(25, 25, spacing, 9);
    let (c, f) = d.sample_sites_disjoint(15, 20, 3);
    let np = NetworkProblem::snap(&network, &d.users, &f, &c, 3, 0.6, Sigmoid::paper_default());
    let sol = solve_network(&network, &np);
    assert_eq!(sol.selected.len(), 3);
    assert!(sol.cinf >= 0.0);
    // The network objective never exceeds the Euclidean one's ceiling on
    // total demand (distances only grow).
    assert!(sol.cinf <= d.users.len() as f64);
}

#[test]
fn temporal_variant_from_generated_traces() {
    let traces = mc2ls::data::trajectory::TrajectoryConfig {
        n_users: 300,
        region_km: 25.0,
        slots_per_day: 3,
        days: 5,
        dwell_spread_km: 0.5,
        record_rate: 0.8,
        seed: 17,
    }
    .generate();
    let users: Vec<TimedUser> = traces.into_iter().map(TimedUser::new).collect();
    // Candidates in a grid over the region.
    let candidates: Vec<Point> = (0..9)
        .map(|i| Point::new(4.0 + (i % 3) as f64 * 8.0, 4.0 + (i / 3) as f64 * 8.0))
        .collect();
    let problem = TemporalProblem {
        users,
        facilities: vec![Point::new(12.0, 12.0)],
        candidates,
        k: 3,
        tau: 0.5,
        pf: Sigmoid::paper_default(),
        n_slots: 3,
        slot_weights: vec![0.3, 0.4, 0.3],
    };
    let sol = solve_temporal(&problem);
    assert_eq!(sol.selected.len(), 3);
    for w in sol.marginal_gains.windows(2) {
        assert!(w[0] >= w[1] - 1e-9, "temporal gains must be non-increasing");
    }
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
fn sketch_greedy_close_to_exact_on_real_sets() {
    let d = dataset();
    let p = base_problem(&d, 5);
    let (sets, _, _) =
        mc2ls::core::algorithms::influence_sets(&p, Method::Iqt(IqtConfig::default()));
    let exact = mc2ls::core::algorithms::run_selector(Selector::Greedy, &sets, 5, 1).0;
    let approx = sketch::select_sketched(&sets, 5, 48);
    assert!(
        approx.cinf >= 0.6 * exact.cinf,
        "sketched {} vs exact {}",
        approx.cinf,
        exact.cinf
    );
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
