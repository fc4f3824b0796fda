//! The Baseline greedy (paper §IV-A): exhaustively evaluate every
//! candidate–user and facility–user pair with the cumulative probability
//! model, then select greedily. Complexity `O((n+m)·u·r + 2kn)`.

use crate::verify::Verifier;
use crate::{InfluenceSets, PhaseTimes, Problem, PruneStats};
use mc2ls_influence::ProbabilityFunction;
use std::time::Instant;

/// Computes the full influence relationships with no pruning at all.
///
/// "No pruning" refers to the pair level: every candidate–user and
/// facility–user pair is decided exactly. Each individual decision still
/// goes through the configured verification kernel (blocked when
/// `problem.block_size > 0`), which changes the evaluation count but never
/// the decision.
pub fn influence_sets<PF: ProbabilityFunction>(
    problem: &Problem<PF>,
) -> (InfluenceSets, PruneStats, PhaseTimes) {
    let t_index = Instant::now();
    let verifier = Verifier::build(problem);
    let indexing = t_index.elapsed();

    let t0 = Instant::now();
    let mut scratch = verifier.scratch();
    let n_users = problem.n_users();

    let omega_c: Vec<Vec<u32>> = problem
        .candidates
        .iter()
        .map(|c| {
            (0..n_users as u32)
                .filter(|&o| verifier.influences(c, o, &mut scratch))
                .collect()
        })
        .collect();

    let mut f_count = vec![0u32; n_users];
    for f in &problem.facilities {
        for (o, cnt) in f_count.iter_mut().enumerate() {
            if verifier.influences(f, o as u32, &mut scratch) {
                *cnt += 1;
            }
        }
    }

    let pairs = ((problem.n_candidates() + problem.n_facilities()) * n_users) as u64;
    let mut stats = PruneStats {
        pairs_total: pairs,
        verified: pairs,
        ..PruneStats::default()
    };
    scratch.counts().add_to(&mut stats);
    let times = PhaseTimes {
        indexing,
        verification: t0.elapsed(),
        ..PhaseTimes::default()
    };
    (InfluenceSets::new(omega_c, f_count), stats, times)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{run_selector, Selector};
    use mc2ls_geo::Point;
    use mc2ls_influence::{MovingUser, Sigmoid};

    fn small_problem() -> Problem {
        // Three user clusters; candidates near two of them, a facility near
        // one.
        let users = vec![
            MovingUser::new(vec![
                Point::new(0.0, 0.0),
                Point::new(0.2, 0.1),
                Point::new(0.1, 0.2),
            ]),
            MovingUser::new(vec![
                Point::new(5.0, 5.0),
                Point::new(5.1, 5.2),
                Point::new(5.2, 5.0),
            ]),
            MovingUser::new(vec![Point::new(10.0, 0.0), Point::new(10.1, 0.1)]),
        ];
        let facilities = vec![Point::new(0.1, 0.1)];
        let candidates = vec![
            Point::new(0.0, 0.1),
            Point::new(5.1, 5.1),
            Point::new(20.0, 20.0),
        ];
        Problem::new(
            users,
            facilities,
            candidates,
            2,
            0.5,
            Sigmoid::paper_default(),
        )
    }

    #[test]
    fn influence_sets_are_correct() {
        let p = small_problem();
        let (sets, stats, _) = influence_sets(&p);
        // Candidate 0 influences user 0 (three close positions).
        assert_eq!(sets.omega(0), [0]);
        // Candidate 1 influences user 1.
        assert_eq!(sets.omega(1), [1]);
        // Candidate 2 is far from everyone.
        assert!(sets.omega(2).is_empty());
        // Facility competes for user 0 only.
        assert_eq!(sets.f_count, vec![1, 0, 0]);
        assert_eq!(stats.pairs_total, stats.verified);
        // The blocked kernel may decide pairs from bounds alone; some work
        // must be recorded either way.
        assert!(stats.prob_evals + stats.blocks_bounded_out > 0);
    }

    #[test]
    fn blocked_and_plain_kernels_agree() {
        let p = small_problem();
        let (blocked, b_stats, _) = influence_sets(&p);
        let (plain, p_stats, _) =
            influence_sets(&p.clone().with_block_size(mc2ls_influence::BLOCK_SIZE_PLAIN));
        assert_eq!(blocked, plain);
        // Plain kernel records no block activity; on this clustered instance
        // the block bounds decide pairs cheaper than the per-position walk.
        assert_eq!(p_stats.blocks_opened + p_stats.blocks_bounded_out, 0);
        assert!(b_stats.prob_evals <= p_stats.prob_evals);
    }

    #[test]
    fn greedy_on_baseline_sets_picks_best_pair() {
        let p = small_problem();
        let (sets, _, _) = influence_sets(&p);
        let sol = run_selector(Selector::Greedy, &sets, 2, 1).0;
        // User 1 is uncontested (weight 1) so candidate 1 is first; then
        // candidate 0 adds user 0 at weight 1/2.
        assert_eq!(sol.selected, vec![1, 0]);
        assert!((sol.cinf - 1.5).abs() < 1e-12);
    }
}
