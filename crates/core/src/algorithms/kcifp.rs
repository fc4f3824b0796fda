//! Adapted k-CIFP (paper Algorithm 1): the state-of-the-art comparator,
//! extended from the k-CIFP study [15] with the competition factor.
//!
//! Candidates and facilities are indexed in two R-trees (`RT_C`, `RT_F`).
//! For every user the IA and NIB regions derived from `mMR(τ, r)` classify
//! abstract facilities: inside IA ⇒ influences for sure; outside NIB ⇒
//! cannot influence; in between ⇒ verify with the cumulative probability.
//!
//! We issue a single NIB-window range query per (user, tree) and classify
//! each hit exactly — IA first (`max_dist ≤ mMR`), then NIB membership
//! (`min_dist ≤ mMR`) — which is semantically identical to Algorithm 1's
//! two `RangeQuery` calls but touches the R-tree once.

use crate::pruning::{ia_contains, nib_contains, nib_query_rect, MmrTable};
use crate::verify::Verifier;
use crate::{InfluenceSets, PhaseTimes, Problem, PruneStats};
use mc2ls_index::RTree;
use mc2ls_influence::ProbabilityFunction;
use std::time::Instant;

/// Computes influence relationships with IA/NIB pruning over R-trees.
/// Undecided pairs go through the configured verification kernel (blocked
/// when `problem.block_size > 0`).
pub fn influence_sets<PF: ProbabilityFunction>(
    problem: &Problem<PF>,
) -> (InfluenceSets, PruneStats, PhaseTimes) {
    let mut stats = PruneStats::default();
    let mut times = PhaseTimes::default();

    // Lines 1–2: R-trees of C and F (and the blocked substrate).
    let t = Instant::now();
    let verifier = Verifier::build(problem);
    let mut scratch = verifier.scratch();
    let rt_c = RTree::bulk_load(
        problem
            .candidates
            .iter()
            .enumerate()
            .map(|(i, p)| (i as u32, *p))
            .collect(),
    );
    let rt_f = RTree::bulk_load(
        problem
            .facilities
            .iter()
            .enumerate()
            .map(|(i, p)| (i as u32, *p))
            .collect(),
    );
    let mmr = MmrTable::build(&problem.pf, problem.tau, problem.r_max());
    times.indexing = t.elapsed();

    let n_users = problem.n_users();
    let n_cands = problem.n_candidates();
    let n_facs = problem.n_facilities();
    stats.pairs_total = ((n_cands + n_facs) * n_users) as u64;

    let mut omega_c: Vec<Vec<u32>> = vec![Vec::new(); n_cands];
    let mut f_count = vec![0u32; n_users];

    // Lines 3–9: candidate classification per user.
    let t = Instant::now();
    let mut pruning_time = std::time::Duration::ZERO;
    let mut influenced_by_candidate = vec![false; n_users];
    for (o, user) in problem.users.iter().enumerate() {
        let Some(radius) = mmr.get(user.len()) else {
            // This user can never be influenced: every pair is pruned.
            stats.nib_decided += n_cands as u64;
            continue;
        };
        let t_prune = Instant::now();
        let window = nib_query_rect(user.mbr(), radius);
        let mut in_window: Vec<(u32, mc2ls_geo::Point)> = Vec::new();
        rt_c.for_each_in_rect(&window, |id, p| in_window.push((id, p)));
        pruning_time += t_prune.elapsed();

        stats.nib_decided += (n_cands - in_window.len()) as u64;
        for (c, p) in in_window {
            if ia_contains(user.mbr(), &p, radius) {
                stats.ia_decided += 1;
                omega_c[c as usize].push(o as u32);
                influenced_by_candidate[o] = true;
            } else if !nib_contains(user.mbr(), &p, radius) {
                stats.nib_decided += 1;
            } else {
                stats.verified += 1;
                if verifier.influences(&p, o as u32, &mut scratch) {
                    omega_c[c as usize].push(o as u32);
                    influenced_by_candidate[o] = true;
                }
            }
        }
    }

    // Lines 10–15: facility classification, restricted to users influenced
    // by at least one candidate (Ω′) — the others never contribute weight.
    for (o, user) in problem.users.iter().enumerate() {
        if !influenced_by_candidate[o] {
            stats.irrelevant += n_facs as u64;
            continue;
        }
        let Some(radius) = mmr.get(user.len()) else {
            stats.nib_decided += n_facs as u64;
            continue;
        };
        let t_prune = Instant::now();
        let window = nib_query_rect(user.mbr(), radius);
        let mut in_window: Vec<(u32, mc2ls_geo::Point)> = Vec::new();
        rt_f.for_each_in_rect(&window, |id, p| in_window.push((id, p)));
        pruning_time += t_prune.elapsed();

        stats.nib_decided += (n_facs - in_window.len()) as u64;
        for (_f, p) in in_window {
            if ia_contains(user.mbr(), &p, radius) {
                stats.ia_decided += 1;
                f_count[o] += 1;
            } else if !nib_contains(user.mbr(), &p, radius) {
                stats.nib_decided += 1;
            } else {
                stats.verified += 1;
                if verifier.influences(&p, o as u32, &mut scratch) {
                    f_count[o] += 1;
                }
            }
        }
    }
    let phase = t.elapsed();
    times.pruning = pruning_time;
    times.verification = phase.saturating_sub(pruning_time);

    // omega_c lists were filled in increasing user order already.
    scratch.counts().add_to(&mut stats);
    (InfluenceSets::new(omega_c, f_count), stats, times)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::baseline;
    use mc2ls_geo::Point;
    use mc2ls_influence::{MovingUser, Sigmoid};

    fn random_problem(seed: u64, n_users: usize, n_f: usize, n_c: usize) -> Problem {
        let mut s = seed.max(1);
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        let users: Vec<MovingUser> = (0..n_users)
            .map(|_| {
                let cx = next() * 20.0;
                let cy = next() * 20.0;
                let r = 1 + (next() * 8.0) as usize;
                MovingUser::new(
                    (0..r)
                        .map(|_| Point::new(cx + next() * 2.0, cy + next() * 2.0))
                        .collect(),
                )
            })
            .collect();
        let facilities = (0..n_f)
            .map(|_| Point::new(next() * 20.0, next() * 20.0))
            .collect();
        let candidates = (0..n_c)
            .map(|_| Point::new(next() * 20.0, next() * 20.0))
            .collect();
        Problem::new(
            users,
            facilities,
            candidates,
            2.min(n_c),
            0.6,
            Sigmoid::paper_default(),
        )
    }

    #[test]
    fn matches_baseline_on_random_instances() {
        for seed in 1..15u64 {
            let p = random_problem(seed, 40, 8, 10);
            let (a, _, _) = baseline::influence_sets(&p, 1);
            let (b, _, _) = influence_sets(&p);
            assert_eq!(a.csr(), b.csr(), "omega_c diverged, seed={seed}");
            // f_count may differ on users influenced by no candidate (k-CIFP
            // skips them as an optimisation); weights only matter for
            // influenced users.
            for c in 0..p.n_candidates() {
                for &o in a.omega(c) {
                    assert_eq!(
                        a.f_count[o as usize], b.f_count[o as usize],
                        "f_count diverged for influenced user {o}, seed={seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn prunes_more_than_it_verifies_on_sparse_data() {
        let p = random_problem(7, 100, 20, 20);
        let (_, stats, _) = influence_sets(&p);
        assert!(stats.verified < stats.pairs_total);
        assert!(stats.nib_decided > 0);
        assert_eq!(
            stats.verified
                + stats.nib_decided
                + stats.ia_decided
                + stats.is_decided
                + stats.nir_decided
                + stats.irrelevant,
            stats.pairs_total
        );
    }
}
