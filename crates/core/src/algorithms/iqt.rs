//! The IQuad-tree-based solution (paper Algorithm 2) in its three flavours:
//!
//! * `IQT-C` — IS + NIR pruning only (the pure contribution of the paper).
//! * `IQT`   — additionally intersects the undecided sets with the NIB
//!   regions (Algorithm 2 lines 5–12); the paper's recommended variant.
//! * `IQT-PINO` — further layers the IA rule; Table I shows the extra range
//!   queries cost more than they save, and this implementation reproduces
//!   that by actually doing the work.
//!
//! The four phases: (1) index-based pruning via `Traverse` (Algorithm 3),
//! (2) exact verification with early stopping of the undecided pairs,
//! (3) competitive-influence computation, (4) greedy updating — phase 3/4
//! live in [`crate::select`]; this module produces the influence sets.

use crate::algorithms::IqtConfig;
use crate::parallel::{map_chunks, map_items};
use crate::pruning::{ia_contains, nib_contains, nib_query_rect, MmrTable};
use crate::verify::{Verifier, VerifyScratch};
use crate::{InfluenceSets, PhaseTimes, Problem, PruneStats};
use mc2ls_geo::Point;
use mc2ls_index::{setops, IQuadTree, RTree};
use mc2ls_influence::ProbabilityFunction;
use std::time::Instant;

/// Computes influence relationships with the IQuad-tree pruning pipeline.
pub fn influence_sets<PF: ProbabilityFunction>(
    problem: &Problem<PF>,
    config: &IqtConfig,
) -> (InfluenceSets, PruneStats, PhaseTimes) {
    influence_sets_parallel(problem, config, 1)
}

/// [`influence_sets`] across `threads` workers. Every phase chunks its item
/// space contiguously (see [`crate::parallel`]): traversals per abstract
/// facility, NIB/IA R-tree queries per user, and exact verification per
/// abstract facility. Chunk results are stitched in chunk order and partial
/// statistics are summed, so the returned `InfluenceSets` **and**
/// `PruneStats` are bit-identical to the serial run for any thread count
/// (assertion-tested in `tests/parallel_equivalence.rs`). `PhaseTimes` are
/// wall-clock per phase, measured on the coordinating thread — not summed
/// across workers.
///
/// # Panics
/// Panics when `threads == 0`.
pub fn influence_sets_parallel<PF: ProbabilityFunction>(
    problem: &Problem<PF>,
    config: &IqtConfig,
    threads: usize,
) -> (InfluenceSets, PruneStats, PhaseTimes) {
    assert!(threads >= 1, "need at least one worker thread");
    let mut stats = PruneStats::default();
    let mut times = PhaseTimes::default();

    let n_users = problem.n_users();
    let n_cands = problem.n_candidates();
    let n_facs = problem.n_facilities();
    let n_abstract = n_cands + n_facs;
    stats.pairs_total = (n_abstract * n_users) as u64;

    // Abstract facilities: candidates first, then facilities (paper's
    // `v ∈ C ∪ F`), materialised so workers can index any chunk.
    let points: Vec<Point> = problem
        .candidates
        .iter()
        .chain(problem.facilities.iter())
        .copied()
        .collect();

    // Lines 1–2: build the IQuad-tree, record NIR. The blocked verification
    // substrate is built alongside (once, shared by every worker).
    let t = Instant::now();
    let iqt = IQuadTree::build(
        &problem.users,
        &problem.pf,
        problem.tau,
        config.leaf_diagonal,
    );
    let verifier = Verifier::build(problem);
    times.indexing = t.elapsed();

    // Lines 3–4: Traverse per abstract facility (IS + NIR rules).
    // Facilities are independent; each worker reuses one scratch across its
    // chunk, preserving the batch-wise property per worker.
    let t = Instant::now();
    let mut influenced: Vec<Vec<u32>> = Vec::with_capacity(n_abstract);
    let mut to_verify: Vec<Vec<u32>> = Vec::with_capacity(n_abstract);
    let outcome_chunks = map_chunks(n_abstract, threads, |range| {
        let mut scratch = iqt.scratch();
        range
            .map(|i| iqt.traverse_shared(&points[i], &mut scratch))
            .collect::<Vec<_>>()
    });
    for outcome in outcome_chunks.into_iter().flatten() {
        stats.is_decided += outcome.influenced.len() as u64;
        stats.nir_decided += (n_users - outcome.influenced.len() - outcome.to_verify.len()) as u64;
        influenced.push(outcome.influenced);
        to_verify.push(outcome.to_verify);
    }
    times.pruning = t.elapsed();

    // Lines 5–12: optional NIB (and IA) integration over R-trees of C and F.
    if config.use_nib || config.use_ia {
        let t = Instant::now();
        let rt_c = RTree::bulk_load(
            problem
                .candidates
                .iter()
                .enumerate()
                // lint:allow(narrowing-cast): i enumerates candidates, whose count fits the u32 id space by construction
                .map(|(i, p)| (i as u32, *p))
                .collect(),
        );
        let rt_f = RTree::bulk_load(
            problem
                .facilities
                .iter()
                .enumerate()
                // lint:allow(narrowing-cast): candidate and facility counts both fit the u32 id space by construction
                .map(|(i, p)| (i as u32 + n_cands as u32, *p))
                .collect(),
        );
        let mmr = MmrTable::build(&problem.pf, problem.tau, problem.r_max());
        times.indexing += t.elapsed();

        let t = Instant::now();
        // Conservative relevance: a user in no candidate's influenced or
        // to-verify set can never be candidate-influenced (pruning is
        // sound), so its facility relationships never enter the objective —
        // skip its facility-side NIB queries outright.
        let mut maybe_relevant = vec![false; n_users];
        for v in 0..n_cands {
            for &o in influenced[v].iter().chain(to_verify[v].iter()) {
                maybe_relevant[o as usize] = true;
            }
        }
        // Users are independent: each worker runs the R-tree queries for a
        // contiguous user chunk into private per-v lists. Serial execution
        // pushes users in ascending id order, so concatenating the chunks in
        // chunk order rebuilds exactly the serial lists.
        let query_chunks = map_chunks(n_users, threads, |range| {
            let mut nib_possible: Vec<Vec<u32>> = vec![Vec::new(); n_abstract];
            let mut ia_certain: Vec<Vec<u32>> = vec![Vec::new(); n_abstract];
            for o in range {
                let user = &problem.users[o];
                let Some(radius) = mmr.get(user.len()) else {
                    continue; // never appears in any NIB set ⇒ dropped below
                };
                let window = nib_query_rect(user.mbr(), radius);
                let mut handle = |v: u32, p: Point| {
                    if config.use_ia && ia_contains(user.mbr(), &p, radius) {
                        // lint:allow(narrowing-cast): o enumerates users, whose count fits the u32 id space by construction
                        ia_certain[v as usize].push(o as u32);
                    } else if nib_contains(user.mbr(), &p, radius) {
                        // lint:allow(narrowing-cast): o enumerates users, whose count fits the u32 id space by construction
                        nib_possible[v as usize].push(o as u32);
                    }
                };
                rt_c.for_each_in_rect(&window, &mut handle);
                if maybe_relevant[o] {
                    rt_f.for_each_in_rect(&window, &mut handle);
                }
            }
            (nib_possible, ia_certain)
        });
        let mut nib_possible: Vec<Vec<u32>> = vec![Vec::new(); n_abstract];
        let mut ia_certain: Vec<Vec<u32>> = vec![Vec::new(); n_abstract];
        for (nib_part, ia_part) in query_chunks {
            for (v, part) in nib_part.into_iter().enumerate() {
                nib_possible[v].extend(part);
            }
            for (v, part) in ia_part.into_iter().enumerate() {
                ia_certain[v].extend(part);
            }
        }

        // Set algebra per abstract facility — independent across v.
        let folded = map_items(n_abstract, threads, |v| {
            let mut inf = influenced[v].clone();
            let mut tv = to_verify[v].clone();
            let mut ia = ia_certain[v].clone();
            let mut nib = nib_possible[v].clone();
            let mut ia_decided = 0u64;
            let mut nib_decided = 0u64;
            if config.use_ia && !ia.is_empty() {
                setops::normalize(&mut ia);
                // Users certain by IA skip verification entirely.
                let moved = setops::intersect(&tv, &ia);
                ia_decided = moved.len() as u64;
                tv = setops::difference(&tv, &moved);
                setops::union_into(&mut inf, &moved);
            }
            if config.use_nib {
                setops::normalize(&mut nib);
                // Line 12: Ω′_v := Ω′_v ∩ Ω_v^NIB — users outside the NIB
                // region of v cannot be influenced. IA-certain users are
                // deliberately absent from nib_possible; they were already
                // moved out of Ω′_v above.
                let keep = if config.use_ia {
                    setops::union(&nib, &ia)
                } else {
                    nib
                };
                let before = tv.len();
                tv = setops::intersect(&tv, &keep);
                nib_decided = (before - tv.len()) as u64;
            }
            (inf, tv, ia_decided, nib_decided)
        });
        for (v, (inf, tv, ia_decided, nib_decided)) in folded.into_iter().enumerate() {
            influenced[v] = inf;
            to_verify[v] = tv;
            stats.ia_decided += ia_decided;
            stats.nib_decided += nib_decided;
        }
        times.pruning += t.elapsed();
    }

    // Lines 13–17: exact verification with early stopping. Candidates are
    // verified first; facility pairs are then restricted to users at least
    // one candidate influences (the Ω′ optimisation of Algorithm 1 line 10,
    // applied symmetrically) — other users' `F_o` never enters the
    // objective, so skipping them cannot change the solution.
    //
    // Each worker counts probability evaluations and block outcomes in
    // private scratch (no cache-line contention); every stop is per-pair
    // deterministic, so the summed totals match a serial run exactly.
    let t = Instant::now();
    let verify_hits = |point: &Point, list: &[u32], scratch: &mut VerifyScratch| -> Vec<u32> {
        let mut hits: Vec<u32> = Vec::new();
        for &o in list {
            if verifier.influences(point, o, scratch) {
                hits.push(o);
            }
        }
        hits
    };
    let cand_chunks = map_chunks(n_cands, threads, |range| {
        let mut scratch = verifier.scratch();
        let mut verified = 0u64;
        let hits: Vec<Vec<u32>> = range
            .map(|v| {
                verified += to_verify[v].len() as u64;
                verify_hits(&problem.candidates[v], &to_verify[v], &mut scratch)
            })
            .collect();
        (hits, verified, scratch.counts())
    });
    {
        let mut v = 0usize;
        for (hits, verified, counts) in cand_chunks {
            stats.verified += verified;
            counts.add_to(&mut stats);
            for h in hits {
                setops::union_into(&mut influenced[v], &h);
                v += 1;
            }
        }
    }
    let mut relevant = vec![false; n_users];
    for list in &influenced[..n_cands] {
        for &o in list {
            relevant[o as usize] = true;
        }
    }
    let fac_chunks = map_chunks(n_facs, threads, |range| {
        let mut scratch = verifier.scratch();
        let mut verified = 0u64;
        let mut irrelevant = 0u64;
        let hits: Vec<Vec<u32>> = range
            .map(|f| {
                let v = n_cands + f;
                let kept: Vec<u32> = to_verify[v]
                    .iter()
                    .copied()
                    .filter(|&o| relevant[o as usize])
                    .collect();
                irrelevant += (to_verify[v].len() - kept.len()) as u64;
                verified += kept.len() as u64;
                verify_hits(&problem.facilities[f], &kept, &mut scratch)
            })
            .collect();
        (hits, verified, irrelevant, scratch.counts())
    });
    {
        let mut v = n_cands;
        for (hits, verified, irrelevant, counts) in fac_chunks {
            stats.verified += verified;
            stats.irrelevant += irrelevant;
            counts.add_to(&mut stats);
            for h in hits {
                setops::union_into(&mut influenced[v], &h);
                v += 1;
            }
        }
    }
    times.verification = t.elapsed();

    // Assemble Ω_c and |F_o|.
    let omega_c: Vec<Vec<u32>> = influenced[..n_cands].to_vec();
    let mut f_count = vec![0u32; n_users];
    for list in &influenced[n_cands..] {
        for &o in list {
            f_count[o as usize] += 1;
        }
    }

    (InfluenceSets::new(omega_c, f_count), stats, times)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::baseline;
    use mc2ls_influence::{MovingUser, Sigmoid};

    fn random_problem(seed: u64, n_users: usize, n_f: usize, n_c: usize, tau: f64) -> Problem {
        let mut s = seed.max(1);
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        let users: Vec<MovingUser> = (0..n_users)
            .map(|_| {
                let cx = next() * 25.0;
                let cy = next() * 25.0;
                let r = 1 + (next() * 10.0) as usize;
                MovingUser::new(
                    (0..r)
                        .map(|_| Point::new(cx + next() * 3.0, cy + next() * 3.0))
                        .collect(),
                )
            })
            .collect();
        let facilities = (0..n_f)
            .map(|_| Point::new(next() * 25.0, next() * 25.0))
            .collect();
        let candidates = (0..n_c)
            .map(|_| Point::new(next() * 25.0, next() * 25.0))
            .collect();
        Problem::new(
            users,
            facilities,
            candidates,
            2.min(n_c),
            tau,
            Sigmoid::paper_default(),
        )
    }

    fn assert_equivalent_sets(a: &InfluenceSets, b: &InfluenceSets, label: &str) {
        assert_eq!(a.csr(), b.csr(), "{label}: omega_c diverged");
        for list in a.iter_omegas() {
            for &o in list {
                assert_eq!(
                    a.f_count[o as usize], b.f_count[o as usize],
                    "{label}: f_count diverged for user {o}"
                );
            }
        }
    }

    #[test]
    fn all_variants_match_baseline() {
        for seed in 1..10u64 {
            for tau in [0.3, 0.6, 0.8] {
                let p = random_problem(seed, 50, 10, 12, tau);
                let (base, _, _) = baseline::influence_sets(&p);
                for config in [
                    IqtConfig::iqt_c(2.0),
                    IqtConfig::iqt(2.0),
                    IqtConfig::iqt_pino(2.0),
                ] {
                    let (got, stats, _) = influence_sets(&p, &config);
                    assert_equivalent_sets(&base, &got, &format!("seed={seed} tau={tau}"));
                    assert_eq!(
                        stats.is_decided
                            + stats.nir_decided
                            + stats.ia_decided
                            + stats.nib_decided
                            + stats.irrelevant
                            + stats.verified,
                        stats.pairs_total,
                        "pair accounting broken (seed={seed})"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_pipeline_is_bit_identical() {
        let p = random_problem(7, 70, 12, 10, 0.5);
        for config in [
            IqtConfig::iqt_c(2.0),
            IqtConfig::iqt(2.0),
            IqtConfig::iqt_pino(2.0),
        ] {
            let (sets, stats, _) = influence_sets(&p, &config);
            for threads in [2usize, 4, 7] {
                let (par_sets, par_stats, _) = influence_sets_parallel(&p, &config, threads);
                assert_eq!(sets, par_sets, "threads={threads}");
                assert_eq!(stats, par_stats, "threads={threads}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_rejected() {
        let p = random_problem(2, 10, 3, 3, 0.5);
        influence_sets_parallel(&p, &IqtConfig::iqt(2.0), 0);
    }

    #[test]
    fn facility_influence_is_complete_where_it_matters() {
        // IQT skips facility verification for users no candidate influences
        // (their weight is never read); for every user some candidate does
        // influence, f_count must match baseline exactly.
        let p = random_problem(3, 60, 15, 10, 0.5);
        let (base, _, _) = baseline::influence_sets(&p);
        let (got, _, _) = influence_sets(&p, &IqtConfig::iqt_c(2.0));
        let mut relevant = vec![false; p.n_users()];
        for list in base.iter_omegas() {
            for &o in list {
                relevant[o as usize] = true;
            }
        }
        for (o, &rel) in relevant.iter().enumerate() {
            if rel {
                assert_eq!(base.f_count[o], got.f_count[o], "user {o}");
            }
        }
    }

    #[test]
    fn leaf_diagonal_does_not_change_results() {
        let p = random_problem(11, 40, 8, 8, 0.6);
        let (a, _, _) = influence_sets(&p, &IqtConfig::iqt(1.0));
        let (b, _, _) = influence_sets(&p, &IqtConfig::iqt(2.5));
        assert_eq!(a, b);
    }

    #[test]
    fn pruning_reduces_verification_versus_baseline() {
        let p = random_problem(5, 120, 20, 20, 0.6);
        let (_, base_stats, _) = baseline::influence_sets(&p);
        let (_, iqt_stats, _) = influence_sets(&p, &IqtConfig::iqt(2.0));
        assert!(iqt_stats.verified < base_stats.verified);
        assert!(iqt_stats.prob_evals <= base_stats.prob_evals);
    }
}
