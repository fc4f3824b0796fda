//! Competition models beyond the cumulative default: the exact
//! branch-and-bound oracle that non-submodular models are routed to (the
//! routing itself is unit-tested beside `algorithms::run_selector`), its
//! agreement with the plain exact solver on the cumulative model, and the
//! shipped submodular models running every greedy-family selector.

use mc2ls_core::algorithms::{exact, Selector};
use mc2ls_core::{select, GatherScratch, InfluenceSets, InvertedIndex, SelectOpts, SetRows};
use mc2ls_influence::{CompetitionModel, Model};

/// A complementarity model with mixed-sign class weights: uncontested
/// users are worth `+1` each, but any user already served by an incumbent
/// *costs* the entrant (brand dilution). Not monotone, not submodular.
struct Dilution;

impl CompetitionModel for Dilution {
    fn name(&self) -> &'static str {
        "dilution-test"
    }

    fn class_contribution(&self, w: usize, n: u32) -> f64 {
        if w == 0 {
            f64::from(n)
        } else {
            -0.25 * f64::from(n)
        }
    }

    fn is_submodular(&self) -> bool {
        false
    }
}

/// Candidate 0 covers two clean users; candidate 1 covers one clean and
/// two contested users; candidate 2 covers contested users only.
fn mixed_sets() -> InfluenceSets {
    InfluenceSets::new(
        vec![vec![0, 1], vec![2, 3, 4], vec![3, 4, 5]],
        vec![0, 0, 0, 1, 2, 1],
    )
}

#[test]
fn exact_oracle_may_open_fewer_than_k_sites_under_dilution() {
    // Candidate 1 nets 1 − 0.5 = +0.5 and candidate 0 nets +2, but adding
    // candidate 2 to {0, 1} only brings one *new* contested user (user 5,
    // −0.25): the oracle must stop at the profitable prefix rather than
    // filling k. Under the cumulative model the same k returns k sites.
    let sets = mixed_sets();
    let diluted = exact::solve_exact_model(&sets, 3, &Dilution);
    assert_eq!(diluted.selected, vec![0, 1]);
    assert!((diluted.cinf - 2.5).abs() < 1e-12);
    let cumulative = exact::solve_exact_model(&sets, 3, &Model::Cumulative);
    assert_eq!(cumulative.selected.len(), 3);
}

#[test]
fn exact_model_oracle_matches_the_plain_exact_solver_on_cumulative() {
    let mut seed = 0xd1ce_u64;
    let mut next = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    for _case in 0..25 {
        let n_users = 4 + (next() % 20) as usize;
        let n_cands = 2 + (next() % 8) as usize;
        let f_count: Vec<u32> = (0..n_users).map(|_| (next() % 3) as u32).collect();
        let omega_c: Vec<Vec<u32>> = (0..n_cands)
            .map(|_| {
                let mut v: Vec<u32> = (0..n_users as u32).filter(|_| next() % 3 == 0).collect();
                v.sort_unstable();
                v.dedup();
                v
            })
            .collect();
        let sets = InfluenceSets::new(omega_c, f_count);
        let k = 1 + (next() as usize % n_cands.min(4));
        let plain = exact::solve_exact(&sets, k);
        let via_model = exact::solve_exact_model(&sets, k, &Model::Cumulative);
        // Enumeration orders differ, so tie-broken *sets* may differ; the
        // optimum value may not.
        assert!(
            (plain.cinf - via_model.cinf).abs() < 1e-9,
            "values diverged: plain={} via_model={}",
            plain.cinf,
            via_model.cinf
        );
        assert!(via_model.selected.len() <= k);
        assert!(
            (sets.cinf_set(&via_model.selected) - via_model.cinf).abs() < 1e-9,
            "reported cinf must match the selected set"
        );
    }
}

#[test]
fn submodular_models_keep_the_greedy_family() {
    // A shipped (submodular) model runs every greedy-family selector to the
    // same k sites as the model-dispatched rescan, not the oracle's
    // at-most-k semantics.
    let sets = mixed_sets();
    let inverted = InvertedIndex::build(&sets, 1);
    let rows = [SetRows {
        sets: &sets,
        inverted: Some(&inverted),
    }];
    let run = |selector| {
        let opts = SelectOpts {
            selector,
            model: &Model::Logit,
            threads: 1,
            subset: None,
        };
        select(&rows, None, 3, &opts, &mut GatherScratch::new()).0
    };
    let expected = run(Selector::Greedy);
    for selector in [
        Selector::Greedy,
        Selector::LazyGreedy,
        Selector::Decremental,
    ] {
        let sol = run(selector);
        assert_eq!(expected.selected, sol.selected, "{selector:?}");
        assert_eq!(expected.cinf.to_bits(), sol.cinf.to_bits(), "{selector:?}");
    }
}
