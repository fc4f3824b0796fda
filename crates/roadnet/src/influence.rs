//! MC²LS influence relationships under network distances.

use crate::{bounded_dijkstra, dijkstra, NodeId, RoadNetwork};
use mc2ls_core::algorithms::{run_selector, Selector};
use mc2ls_core::{InfluenceSets, Solution};
use mc2ls_influence::{non_influence_radius, MovingUser, ProbabilityFunction};

/// An MC²LS instance living on a road network: every user position,
/// facility and candidate is snapped to its nearest network node, and all
/// distances are shortest-path distances.
#[derive(Debug, Clone)]
pub struct NetworkProblem<PF: ProbabilityFunction = mc2ls_influence::Sigmoid> {
    /// Snapped positions per user (one node per original position;
    /// duplicates are meaningful — two visits to one mall count twice,
    /// exactly as in the Euclidean model).
    pub user_nodes: Vec<Vec<NodeId>>,
    /// Snapped competitor facilities.
    pub facility_nodes: Vec<NodeId>,
    /// Snapped candidate sites.
    pub candidate_nodes: Vec<NodeId>,
    /// Number of sites to open.
    pub k: usize,
    /// Influence threshold `τ ∈ (0, 1)`.
    pub tau: f64,
    /// Distance-probability function (applied to km of road distance).
    pub pf: PF,
}

impl<PF: ProbabilityFunction> NetworkProblem<PF> {
    /// Snaps a Euclidean MC²LS instance onto a road network.
    pub fn snap(
        network: &RoadNetwork,
        users: &[MovingUser],
        facilities: &[mc2ls_geo::Point],
        candidates: &[mc2ls_geo::Point],
        k: usize,
        tau: f64,
        pf: PF,
    ) -> Self {
        assert!(tau > 0.0 && tau < 1.0, "tau must be in (0, 1)");
        assert!(k >= 1 && k <= candidates.len(), "invalid k");
        NetworkProblem {
            user_nodes: snap_users(network, users),
            facility_nodes: facilities.iter().map(|p| network.nearest_node(p)).collect(),
            candidate_nodes: candidates.iter().map(|p| network.nearest_node(p)).collect(),
            k,
            tau,
            pf,
        }
    }

    /// The largest per-user position count.
    pub fn r_max(&self) -> usize {
        self.user_nodes.iter().map(Vec::len).max().unwrap_or(0)
    }
}

/// Snaps each user position to its nearest network node.
pub fn snap_users(network: &RoadNetwork, users: &[MovingUser]) -> Vec<Vec<NodeId>> {
    users
        .iter()
        .map(|u| {
            u.positions()
                .iter()
                .map(|p| network.nearest_node(p))
                .collect()
        })
        .collect()
}

/// Computes the exact influence relationships under network distances.
///
/// Pruning: a bounded Dijkstra to the network `NIR = mMR(τ, r_max)` first
/// filters users with no position in reach (Corollary 2 holds verbatim in
/// any metric); only facilities with at least one surviving user pay for a
/// full Dijkstra to evaluate the exact cumulative probability.
pub fn network_influence_sets<PF: ProbabilityFunction>(
    network: &RoadNetwork,
    problem: &NetworkProblem<PF>,
) -> InfluenceSets {
    let n_users = problem.user_nodes.len();
    let nir = non_influence_radius(&problem.pf, problem.tau, problem.r_max());

    // node → users with a position snapped there (for the NIR filter).
    let mut users_at_node: Vec<Vec<u32>> = vec![Vec::new(); network.n()];
    for (o, nodes) in problem.user_nodes.iter().enumerate() {
        for &n in nodes {
            users_at_node[n as usize].push(o as u32);
        }
    }
    for list in &mut users_at_node {
        list.dedup();
    }

    let evaluate = |site: NodeId| -> Vec<u32> {
        let Some(radius) = nir else {
            return Vec::new(); // no user can ever be influenced
        };
        // Phase 1: bounded search = candidate users.
        let bounded = bounded_dijkstra(network, site, radius);
        let mut candidates: Vec<u32> = Vec::new();
        for (node, d) in bounded.iter().enumerate() {
            if d.is_finite() {
                candidates.extend_from_slice(&users_at_node[node]);
            }
        }
        candidates.sort_unstable();
        candidates.dedup();
        if candidates.is_empty() {
            return Vec::new();
        }
        // Phase 2: exact cumulative probability over full distances.
        let dist = dijkstra(network, site);
        let target = 1.0 - problem.tau;
        candidates
            .into_iter()
            .filter(|&o| {
                let mut product = 1.0f64;
                for &n in &problem.user_nodes[o as usize] {
                    let d = dist[n as usize];
                    if d.is_finite() {
                        product *= 1.0 - problem.pf.prob(d);
                        if product <= target {
                            return true;
                        }
                    }
                }
                product <= target
            })
            .collect()
    };

    let omega_c: Vec<Vec<u32>> = problem
        .candidate_nodes
        .iter()
        .map(|&c| evaluate(c))
        .collect();

    // Facility side, restricted to users some candidate influences.
    let mut relevant = vec![false; n_users];
    for list in &omega_c {
        for &o in list {
            relevant[o as usize] = true;
        }
    }
    let mut f_count = vec![0u32; n_users];
    for &f in &problem.facility_nodes {
        for o in evaluate(f) {
            if relevant[o as usize] {
                f_count[o as usize] += 1;
            }
        }
    }

    InfluenceSets::new(omega_c, f_count)
}

/// Solves the network MC²LS instance with the shared greedy.
pub fn solve_network<PF: ProbabilityFunction>(
    network: &RoadNetwork,
    problem: &NetworkProblem<PF>,
) -> Solution {
    let sets = network_influence_sets(network, problem);
    run_selector(Selector::Greedy, &sets, problem.k, 1).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc2ls_geo::Point;
    use mc2ls_influence::{Sigmoid, Step};

    /// A 1-D road: 6 nodes in a line, 1 km apart.
    fn line() -> RoadNetwork {
        let nodes: Vec<Point> = (0..6).map(|i| Point::new(i as f64, 0.0)).collect();
        let edges: Vec<(NodeId, NodeId, f64)> = (0..5)
            .map(|i| (i as NodeId, i as NodeId + 1, 1.0))
            .collect();
        RoadNetwork::new(nodes, &edges)
    }

    fn user_at(nodes: &[u32]) -> Vec<NodeId> {
        nodes.to_vec()
    }

    #[test]
    fn network_influence_matches_manual_computation() {
        // Step PF with range 1.5 km: a site influences a user iff some
        // position is within 1.5 road-km.
        let net = line();
        let problem = NetworkProblem {
            user_nodes: vec![user_at(&[0, 1]), user_at(&[4, 5]), user_at(&[2])],
            facility_nodes: vec![5],
            candidate_nodes: vec![0, 3],
            k: 1,
            tau: 0.5,
            pf: Step::new(0.9, 1.5),
        };
        let sets = network_influence_sets(&net, &problem);
        // Candidate at node 0: users 0 (positions 0,1) and 2 (pos 2 at
        // distance 2 > 1.5? no) — user 2's position is 2 km away, excluded.
        assert_eq!(sets.omega(0), [0]);
        // Candidate at node 3: user 1 (position 4 at 1 km), user 2 (pos 2
        // at 1 km).
        assert_eq!(sets.omega(1), [1, 2]);
        // Facility at node 5 influences user 1 only; f_count restricted to
        // candidate-influenced users.
        assert_eq!(sets.f_count, vec![0, 1, 0]);
    }

    #[test]
    fn greedy_picks_better_network_site() {
        let net = line();
        let problem = NetworkProblem {
            user_nodes: vec![user_at(&[0, 1]), user_at(&[4, 5]), user_at(&[2])],
            facility_nodes: vec![],
            candidate_nodes: vec![0, 3],
            k: 1,
            tau: 0.5,
            pf: Step::new(0.9, 1.5),
        };
        let sol = solve_network(&net, &problem);
        assert_eq!(sol.selected, vec![1]); // candidate at node 3 covers 2 users
        assert!((sol.cinf - 2.0).abs() < 1e-9);
    }

    #[test]
    fn network_detour_changes_the_decision() {
        // Two sites equidistant in Euclidean space, but the road detours:
        // user reachable in a straight line may be far by road.
        //   0 --- 1 (1 km)        3 is Euclidean-close to 0 but only
        //   connected through 1-2 (long way around).
        let net = RoadNetwork::new(
            vec![
                Point::new(0.0, 0.0),
                Point::new(1.0, 0.0),
                Point::new(1.0, 1.0),
                Point::new(0.0, 1.0),
            ],
            &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)],
        );
        let problem = NetworkProblem {
            user_nodes: vec![user_at(&[3, 3])],
            facility_nodes: vec![],
            candidate_nodes: vec![0, 2],
            k: 1,
            tau: 0.5,
            pf: Step::new(0.9, 1.5),
        };
        let sets = network_influence_sets(&net, &problem);
        // Euclidean distance 0→3 is 1 km, but road distance is 3 km: no
        // influence. Candidate at node 2 is 1 road-km away: influences.
        assert!(sets.omega(0).is_empty());
        assert_eq!(sets.omega(1), [0]);
    }

    #[test]
    fn sigmoid_on_network_matches_bruteforce() {
        let net = RoadNetwork::city_grid(6, 6, 0.8, 21);
        let pf = Sigmoid::paper_default();
        // Users with a handful of snapped positions scattered on the grid.
        let user_nodes: Vec<Vec<NodeId>> = (0..12)
            .map(|i| (0..4).map(|j| ((i * 7 + j * 5) % 36) as NodeId).collect())
            .collect();
        let problem = NetworkProblem {
            user_nodes: user_nodes.clone(),
            facility_nodes: vec![1, 8],
            candidate_nodes: vec![0, 17, 35],
            k: 2,
            tau: 0.6,
            pf,
        };
        let sets = network_influence_sets(&net, &problem);
        // Brute force: full Dijkstra per site, full product per user.
        for (ci, &site) in problem.candidate_nodes.iter().enumerate() {
            let dist = dijkstra(&net, site);
            let mut expect: Vec<u32> = Vec::new();
            for (o, nodes) in user_nodes.iter().enumerate() {
                let mut prod = 1.0;
                for &n in nodes {
                    prod *= 1.0 - pf.prob(dist[n as usize]);
                }
                if 1.0 - prod >= 0.6 {
                    expect.push(o as u32);
                }
            }
            assert_eq!(sets.omega(ci), expect, "candidate {ci}");
        }
    }

    #[test]
    fn disconnected_components_are_never_influenced() {
        let net = RoadNetwork::new(
            vec![
                Point::new(0.0, 0.0),
                Point::new(1.0, 0.0),
                Point::new(50.0, 50.0),
            ],
            &[(0, 1, 1.0)],
        );
        let problem = NetworkProblem {
            user_nodes: vec![user_at(&[2, 2, 2])],
            facility_nodes: vec![],
            candidate_nodes: vec![0],
            k: 1,
            tau: 0.3,
            pf: Sigmoid::paper_default(),
        };
        let sets = network_influence_sets(&net, &problem);
        assert!(sets.omega(0).is_empty());
    }
}
