//! Post-solution analysis utilities: the reports a business planner would
//! actually read once the sites are chosen.

use crate::algorithms::{run_selector, Selector};
use crate::{InfluenceSets, Solution};
use serde::{Deserialize, Serialize};

/// The diminishing-returns curve: `cinf` of the greedy prefix for every
/// budget `k ∈ 1..=k_max` from a *single* greedy run (prefix-optimal by
/// construction of the greedy).
pub fn coverage_curve(sets: &InfluenceSets, k_max: usize) -> Vec<f64> {
    let sol = run_selector(Selector::Greedy, sets, k_max.min(sets.n_candidates()), 1).0;
    sol.marginal_gains
        .iter()
        .scan(0.0, |acc, g| {
            *acc += g;
            Some(*acc)
        })
        .collect()
}

/// Per-site breakdown of a solution.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SiteReport {
    /// The candidate id.
    pub candidate: u32,
    /// Users only this site covers within the selected set.
    pub exclusive_users: usize,
    /// Users it shares with at least one other selected site.
    pub shared_users: usize,
    /// Competitive weight captured exclusively (lost if the site closes).
    pub exclusive_weight: f64,
}

/// Analyses each selected site's contribution: how much demand would be
/// lost if that site alone were dropped (its *exclusive* coverage under the
/// evenly-split weights).
pub fn site_reports(sets: &InfluenceSets, solution: &Solution) -> Vec<SiteReport> {
    let mut cover_count = vec![0u32; sets.n_users()];
    for &c in &solution.selected {
        for &o in sets.omega(c as usize) {
            cover_count[o as usize] += 1;
        }
    }
    solution
        .selected
        .iter()
        .map(|&c| {
            let mut exclusive_users = 0;
            let mut shared_users = 0;
            let mut exclusive_weight = 0.0;
            for &o in sets.omega(c as usize) {
                if cover_count[o as usize] == 1 {
                    exclusive_users += 1;
                    exclusive_weight += sets.weight(o);
                } else {
                    shared_users += 1;
                }
            }
            SiteReport {
                candidate: c,
                exclusive_users,
                shared_users,
                exclusive_weight,
            }
        })
        .collect()
}

/// Summary of the demand landscape of an instance.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct DemandSummary {
    /// Users reachable by at least one candidate.
    pub addressable_users: usize,
    /// Total weight if every candidate were opened (the cinf ceiling).
    pub total_addressable_weight: f64,
    /// Users already contested by at least one competitor.
    pub contested_users: usize,
    /// Mean number of competitors per contested user.
    pub mean_competitors: f64,
}

/// Computes the demand landscape from precomputed influence sets.
pub fn demand_summary(sets: &InfluenceSets) -> DemandSummary {
    let all: Vec<u32> = (0..sets.n_candidates() as u32).collect();
    let addressable = sets.omega_of_set(&all);
    let total_addressable_weight: f64 = addressable.iter().map(|&o| sets.weight(o)).sum();
    let contested: Vec<u32> = addressable
        .iter()
        .copied()
        .filter(|&o| sets.f_count[o as usize] > 0)
        .collect();
    let mean_competitors = if contested.is_empty() {
        0.0
    } else {
        contested
            .iter()
            .map(|&o| sets.f_count[o as usize] as f64)
            .sum::<f64>()
            / contested.len() as f64
    };
    DemandSummary {
        addressable_users: addressable.len(),
        total_addressable_weight,
        contested_users: contested.len(),
        mean_competitors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sets() -> InfluenceSets {
        InfluenceSets::new(vec![vec![0, 1], vec![1, 3], vec![0, 2]], vec![1, 2, 0, 1])
    }

    #[test]
    fn coverage_curve_is_monotone_and_matches_greedy() {
        let s = sets();
        let curve = coverage_curve(&s, 3);
        assert_eq!(curve.len(), 3);
        for w in curve.windows(2) {
            assert!(w[1] >= w[0] - 1e-12);
        }
        let full = run_selector(Selector::Greedy, &s, 3, 1).0;
        assert!((curve[2] - full.cinf).abs() < 1e-12);
        // Prefix property: curve[k-1] equals greedy with that k.
        let k2 = run_selector(Selector::Greedy, &s, 2, 1).0;
        assert!((curve[1] - k2.cinf).abs() < 1e-12);
    }

    #[test]
    fn site_reports_identify_exclusive_coverage() {
        let s = sets();
        let sol = run_selector(Selector::Greedy, &s, 2, 1).0; // {c2, c1}: covers {0,2} and {1,3}
        let reports = site_reports(&s, &sol);
        assert_eq!(reports.len(), 2);
        // Disjoint coverage ⇒ everything exclusive.
        for r in &reports {
            assert_eq!(r.shared_users, 0);
            assert_eq!(r.exclusive_users, 2);
        }
        let total: f64 = reports.iter().map(|r| r.exclusive_weight).sum();
        assert!((total - sol.cinf).abs() < 1e-12);
    }

    #[test]
    fn overlapping_sites_report_shared_users() {
        let s = InfluenceSets::new(vec![vec![0, 1], vec![1, 2]], vec![0, 0, 0]);
        let sol = run_selector(Selector::Greedy, &s, 2, 1).0;
        let reports = site_reports(&s, &sol);
        // User 1 is shared between both sites.
        assert!(reports.iter().all(|r| r.shared_users == 1));
        assert!(reports.iter().all(|r| r.exclusive_users == 1));
    }

    #[test]
    fn demand_summary_counts_contestation() {
        let s = sets();
        let d = demand_summary(&s);
        assert_eq!(d.addressable_users, 4);
        assert_eq!(d.contested_users, 3); // users 0, 1, 3 have competitors
        assert!((d.mean_competitors - 4.0 / 3.0).abs() < 1e-12);
        assert!((d.total_addressable_weight - (0.5 + 1.0 / 3.0 + 1.0 + 0.5)).abs() < 1e-12);
    }
}
