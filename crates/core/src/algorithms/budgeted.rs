//! Budget-constrained MC²LS.
//!
//! The paper's introduction motivates `k` as a budget proxy ("budget is
//! commonly the primary factor of k"). This module drops the proxy: every
//! candidate has an **opening cost** and the constraint is a total budget
//! `B` instead of a cardinality. The objective stays the submodular
//! `cinf(G)`; the solver is the classic cost-benefit greedy made safe by
//! taking the better of (a) the benefit-per-cost greedy sweep and (b) the
//! best single affordable candidate — the combination carries the
//! `(1 − 1/√e) ≈ 0.39` guarantee for budgeted submodular maximisation
//! (Khuller–Moss–Naor / Leskovec et al.).

use super::{run_selector, Selector};
use crate::{InfluenceSets, Solution};

/// Exhaustive optimum over affordable subsets — exponential; test oracle
/// only.
pub fn solve_budgeted_exact(sets: &InfluenceSets, costs: &[f64], budget: f64) -> Solution {
    let n = sets.n_candidates();
    assert_eq!(costs.len(), n, "one cost per candidate");
    assert!(n <= 20, "exact budgeted solver capped at 20 candidates");
    let mut best_set: Vec<u32> = Vec::new();
    let mut best_value = 0.0;
    for mask in 0u32..(1 << n) {
        let cost: f64 = (0..n)
            .filter(|&c| mask & (1 << c) != 0)
            .map(|c| costs[c])
            .sum();
        if cost > budget + 1e-12 {
            continue;
        }
        let set: Vec<u32> = (0..n as u32).filter(|&c| mask & (1 << c) != 0).collect();
        let value = sets.cinf_set(&set);
        if value > best_value + 1e-15 {
            best_value = value;
            best_set = set;
        }
    }
    solution_for(sets, best_set)
}

/// Budgeted greedy: the better of the benefit-per-cost sweep and the best
/// single affordable candidate.
///
/// # Panics
/// Panics on a cost-vector length mismatch, non-positive costs, or a
/// negative budget.
pub fn solve_budgeted(sets: &InfluenceSets, costs: &[f64], budget: f64) -> Solution {
    let n = sets.n_candidates();
    assert_eq!(costs.len(), n, "one cost per candidate");
    assert!(costs.iter().all(|&c| c > 0.0), "costs must be positive");
    assert!(budget >= 0.0, "budget must be non-negative");

    // (a) benefit-per-cost greedy sweep.
    let mut covered = vec![false; sets.n_users()];
    let mut taken = vec![false; n];
    let mut remaining = budget;
    let mut sweep: Vec<u32> = Vec::new();
    loop {
        let mut best: Option<(usize, f64)> = None;
        for (c, &cost) in costs.iter().enumerate() {
            if taken[c] || cost > remaining + 1e-12 {
                continue;
            }
            let gain: f64 = sets
                .omega(c)
                .iter()
                .filter(|&&o| !covered[o as usize])
                .map(|&o| sets.weight(o))
                .sum();
            let ratio = gain / cost;
            match best {
                Some((_, r)) if ratio <= r => {}
                _ => best = Some((c, ratio)),
            }
        }
        let Some((c, ratio)) = best else { break };
        if ratio <= 0.0 {
            break; // nothing affordable adds value
        }
        taken[c] = true;
        remaining -= costs[c];
        sweep.push(c as u32);
        for &o in sets.omega(c) {
            covered[o as usize] = true;
        }
    }

    // (b) best single affordable candidate. Each `cinf_candidate` walks the
    // candidate's whole Ω_c; computing it once per candidate instead of
    // inside the comparator (O(n log n) re-evaluations) matters when the
    // sets are dense.
    let singleton: Vec<f64> = (0..n).map(|c| sets.cinf_candidate(c)).collect();
    let single: Option<u32> = (0..n)
        .filter(|&c| costs[c] <= budget + 1e-12)
        .max_by(|&a, &b| {
            singleton[a].total_cmp(&singleton[b]).then(b.cmp(&a)) // smaller id on ties
        })
        .map(|c| c as u32);

    let sweep_value = sets.cinf_set(&sweep);
    let single_value = single.map_or(0.0, |c| singleton[c as usize]);
    if single_value > sweep_value + 1e-15 {
        // lint:allow(panic-path): single_value > 0 is only reachable when the singleton argmax exists
        solution_for(sets, vec![single.expect("value > 0 implies a candidate")])
    } else {
        solution_for(sets, sweep)
    }
}

fn solution_for(sets: &InfluenceSets, mut selected: Vec<u32>) -> Solution {
    selected.sort_unstable();
    let cinf = sets.cinf_set(&selected);
    let mut gains = Vec::with_capacity(selected.len());
    let mut prev = 0.0;
    for i in 0..selected.len() {
        let v = sets.cinf_set(&selected[..=i]);
        gains.push(v - prev);
        prev = v;
    }
    Solution {
        selected,
        marginal_gains: gains,
        cinf,
    }
}

/// Convenience: uniform costs make the budgeted solver equivalent to the
/// cardinality greedy with `k = ⌊B⌋`.
pub fn solve_unit_cost(sets: &InfluenceSets, k: usize) -> Solution {
    run_selector(Selector::Greedy, sets, k, 1).0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sets() -> InfluenceSets {
        // 6 users, 4 candidates with varying coverage; no competitors.
        InfluenceSets::new(
            vec![
                vec![0, 1, 2],    // c0: big
                vec![3, 4],       // c1
                vec![5],          // c2
                vec![0, 1, 2, 3], // c3: biggest
            ],
            vec![0; 6],
        )
    }

    #[test]
    fn respects_the_budget() {
        let s = sets();
        let costs = [2.0, 1.5, 1.0, 3.0];
        for budget in [0.0, 1.0, 2.5, 4.0, 10.0] {
            let sol = solve_budgeted(&s, &costs, budget);
            let spent: f64 = sol.selected.iter().map(|&c| costs[c as usize]).sum();
            assert!(spent <= budget + 1e-9, "budget {budget}: spent {spent}");
        }
    }

    #[test]
    fn zero_budget_selects_nothing() {
        let sol = solve_budgeted(&sets(), &[1.0, 1.0, 1.0, 1.0], 0.0);
        assert!(sol.selected.is_empty());
        assert_eq!(sol.cinf, 0.0);
    }

    #[test]
    fn single_expensive_candidate_beats_cheap_sweep() {
        // c3 covers 4 users at cost 3; the ratio greedy would spend the
        // budget on cheap small candidates first — the single-candidate
        // fallback must rescue the solution.
        let s = sets();
        let costs = [1.0, 1.0, 1.0, 3.0];
        let sol = solve_budgeted(&s, &costs, 3.0);
        assert!(sol.cinf >= 4.0 - 1e-9, "got {}", sol.cinf);
    }

    #[test]
    fn meets_budgeted_approximation_bound() {
        // (1 − 1/√e) ≈ 0.3935 against the exact optimum, over random
        // instances.
        let mut seed = 99u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let bound = 1.0 - (-0.5f64).exp();
        for _case in 0..25 {
            let n_users = 4 + (next() % 20) as usize;
            let n_cands = 2 + (next() % 8) as usize;
            let omega_c: Vec<Vec<u32>> = (0..n_cands)
                .map(|_| {
                    let mut v: Vec<u32> = (0..n_users as u32).filter(|_| next() % 3 == 0).collect();
                    v.sort_unstable();
                    v.dedup();
                    v
                })
                .collect();
            let f_count: Vec<u32> = (0..n_users).map(|_| (next() % 3) as u32).collect();
            let s = InfluenceSets::new(omega_c, f_count);
            let costs: Vec<f64> = (0..n_cands).map(|_| 1.0 + (next() % 5) as f64).collect();
            let budget = 1.0 + (next() % 8) as f64;
            let greedy = solve_budgeted(&s, &costs, budget);
            let opt = solve_budgeted_exact(&s, &costs, budget);
            assert!(
                greedy.cinf >= bound * opt.cinf - 1e-9,
                "bound violated: {} vs opt {}",
                greedy.cinf,
                opt.cinf
            );
        }
    }

    #[test]
    fn unit_costs_match_cardinality_greedy() {
        let s = sets();
        let a = solve_budgeted(&s, &[1.0; 4], 2.0);
        let b = solve_unit_cost(&s, 2);
        // Same value (sets may differ on ties, value must not).
        assert!((a.cinf - b.cinf).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "costs must be positive")]
    fn rejects_free_candidates() {
        solve_budgeted(&sets(), &[0.0, 1.0, 1.0, 1.0], 2.0);
    }
}
