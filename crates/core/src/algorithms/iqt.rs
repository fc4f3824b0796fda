//! The IQuad-tree-based solution (paper Algorithm 2) in its three flavours:
//!
//! * `IQT-C` — IS + NIR pruning only (the pure contribution of the paper).
//! * `IQT`   — additionally intersects the undecided sets with the NIB
//!   regions (Algorithm 2 lines 5–12); the paper's recommended variant.
//! * `IQT-PINO` — further layers the IA rule, one more distance test per
//!   pair in a NIB window; Table I finds it decides next to no pairs the
//!   IS rule left open, so it does not pay.
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
use mc2ls_index::{setops, IQuadTree};
use mc2ls_influence::ProbabilityFunction;
use std::time::Instant;

/// Computes influence relationships with the IQuad-tree pruning pipeline
/// across `threads` workers. At two or more threads the verifier's
/// position blocks fill on one worker while the calling thread builds the
/// IQuad-tree. Every later phase chunks the abstract facilities
/// contiguously (see [`crate::parallel`]): traversals, the NIB/IA decisions
/// over each `Ω′_v`, and exact verification. Chunk results are stitched in
/// chunk order and partial statistics are summed, so the returned
/// `InfluenceSets` **and** `PruneStats` are bit-identical to the serial run
/// for any thread count (assertion-tested in
/// `tests/parallel_equivalence.rs`). `PhaseTimes` are wall-clock per phase,
/// measured on the coordinating thread — not summed across workers.
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
    stats.pairs_total =
        ((problem.n_candidates() + problem.n_facilities()) * problem.n_users()) as u64;
    let points = abstract_facilities(problem);

    // Lines 1–2: build the IQuad-tree, record NIR. The blocked verification
    // substrate (shared by every worker) fills beside it.
    let t = Instant::now();
    let (verifier, iqt) = Verifier::build_beside(problem, threads, || {
        IQuadTree::build(
            &problem.users,
            &problem.pf,
            problem.tau,
            config.leaf_diagonal,
        )
    });
    let mmr = (config.use_nib || config.use_ia)
        .then(|| MmrTable::build(&problem.pf, problem.tau, problem.r_max()));
    times.indexing = t.elapsed();

    // Lines 3–4: Traverse per abstract facility (IS + NIR rules).
    let t = Instant::now();
    let mut pruned = traverse_all(&iqt, &points, problem.n_users(), threads, &mut stats);
    times.pruning = t.elapsed();

    // Lines 5–12: optional NIB (and IA) decisions over each Ω′_v.
    if let Some(mmr) = &mmr {
        let t = Instant::now();
        refine(
            problem,
            config,
            mmr,
            &points,
            &mut pruned,
            threads,
            &mut stats,
        );
        times.pruning += t.elapsed();
    }

    // Lines 13–17: exact verification with early stopping.
    let t = Instant::now();
    let influenced = verify_all(problem, &verifier, pruned, threads, &mut stats);
    times.verification = t.elapsed();

    (
        assemble(influenced, problem.n_candidates(), problem.n_users()),
        stats,
        times,
    )
}

/// The abstract facilities: candidates first, then facilities (paper's
/// `v ∈ C ∪ F`), materialised so workers can index any chunk.
fn abstract_facilities<PF: ProbabilityFunction>(problem: &Problem<PF>) -> Vec<Point> {
    problem
        .candidates
        .iter()
        .chain(problem.facilities.iter())
        .copied()
        .collect()
}

/// Every abstract facility's pairs after pruning.
#[derive(Clone)]
struct Pruned {
    /// Per abstract facility `v`, the users certainly influenced. Sorted.
    influenced: Vec<Vec<u32>>,
    /// Per abstract facility `v`, `Ω′_v`: the undecided users. Sorted and
    /// disjoint from `influenced[v]`.
    to_verify: Vec<Vec<u32>>,
}

/// Lines 3–4: `Traverse` per abstract facility. Facilities are
/// independent; each worker reuses one scratch across its chunk,
/// preserving the batch-wise property per worker.
fn traverse_all(
    iqt: &IQuadTree,
    points: &[Point],
    n_users: usize,
    threads: usize,
    stats: &mut PruneStats,
) -> Pruned {
    let mut pruned = Pruned {
        influenced: Vec::with_capacity(points.len()),
        to_verify: Vec::with_capacity(points.len()),
    };
    let outcome_chunks = map_chunks(points.len(), threads, |range| {
        let mut scratch = iqt.scratch();
        range
            .map(|i| iqt.traverse(&points[i], &mut scratch))
            .collect::<Vec<_>>()
    });
    for outcome in outcome_chunks.into_iter().flatten() {
        stats.is_decided += outcome.influenced.len() as u64;
        stats.nir_decided += (n_users - outcome.influenced.len() - outcome.to_verify.len()) as u64;
        pruned.influenced.push(outcome.influenced);
        pruned.to_verify.push(outcome.to_verify);
    }
    pruned
}

/// Lines 5–12, decided per pair of `Ω′_v`. A pair `(v, o)` meets the
/// classical rules only when `mMR(τ, |o|)` exists and `v` lies in the NIB
/// query window of `o` (the MBR inflated by `mMR`); facility pairs
/// additionally need `o` to be *maybe relevant*. Such a pair moves to
/// `influenced[v]` when IA is on and `v` lies in `o`'s IA region, and stays
/// undecided when `v` lies in `o`'s NIB region. Under NIB every other pair
/// leaves `Ω′_v` (Line 12: `Ω′_v := Ω′_v ∩ Ω_v^NIB`).
///
/// Maybe relevant: a user in no candidate's influenced or to-verify set can
/// never be candidate-influenced (pruning is sound), so its facility
/// relationships never enter the objective and no rule looks at them.
fn refine<PF: ProbabilityFunction>(
    problem: &Problem<PF>,
    config: &IqtConfig,
    mmr: &MmrTable,
    points: &[Point],
    pruned: &mut Pruned,
    threads: usize,
    stats: &mut PruneStats,
) {
    let n_cands = problem.n_candidates();
    let mut maybe_relevant = vec![false; problem.n_users()];
    for v in 0..n_cands {
        for &o in pruned.influenced[v].iter().chain(&pruned.to_verify[v]) {
            maybe_relevant[o as usize] = true;
        }
    }
    let to_verify = &pruned.to_verify;
    let decided = map_items(points.len(), threads, |v| {
        let point = &points[v];
        let mut keep: Vec<u32> = Vec::with_capacity(to_verify[v].len());
        let mut certain: Vec<u32> = Vec::new();
        for &o in &to_verify[v] {
            let user = &problem.users[o as usize];
            let radius = (v < n_cands || maybe_relevant[o as usize])
                .then(|| mmr.get(user.len()))
                .flatten()
                .filter(|&r| nib_query_rect(user.mbr(), r).contains(point));
            match radius {
                Some(r) if config.use_ia && ia_contains(user.mbr(), point, r) => certain.push(o),
                Some(r) if nib_contains(user.mbr(), point, r) => keep.push(o),
                _ if !config.use_nib => keep.push(o),
                _ => {}
            }
        }
        (keep, certain)
    });
    for (v, (keep, certain)) in decided.into_iter().enumerate() {
        stats.ia_decided += certain.len() as u64;
        stats.nib_decided += (pruned.to_verify[v].len() - keep.len() - certain.len()) as u64;
        setops::union_into(&mut pruned.influenced[v], &certain);
        pruned.to_verify[v] = keep;
    }
}

/// Lines 13–17: exact verification with early stopping; returns every
/// abstract facility's influenced users. Candidates are verified first;
/// facility pairs are then restricted to users at least one candidate
/// influences (the Ω′ optimisation of Algorithm 1 line 10, applied
/// symmetrically) — other users' `F_o` never enters the objective, so
/// skipping them cannot change the solution.
///
/// Each worker counts probability evaluations and block outcomes in
/// private scratch (no cache-line contention); every stop is per-pair
/// deterministic, so the summed totals match a serial run exactly.
fn verify_all<PF: ProbabilityFunction>(
    problem: &Problem<PF>,
    verifier: &Verifier<'_, PF>,
    pruned: Pruned,
    threads: usize,
    stats: &mut PruneStats,
) -> Vec<Vec<u32>> {
    let Pruned {
        mut influenced,
        to_verify,
    } = pruned;
    let n_cands = problem.n_candidates();
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
            counts.add_to(stats);
            for h in hits {
                setops::union_into(&mut influenced[v], &h);
                v += 1;
            }
        }
    }
    let mut relevant = vec![false; problem.n_users()];
    for list in &influenced[..n_cands] {
        for &o in list {
            relevant[o as usize] = true;
        }
    }
    let fac_chunks = map_chunks(problem.n_facilities(), threads, |range| {
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
            counts.add_to(stats);
            for h in hits {
                setops::union_into(&mut influenced[v], &h);
                v += 1;
            }
        }
    }
    influenced
}

/// `Ω_c` of every candidate and `|F_o|` of every user from the abstract
/// facilities' influenced users.
fn assemble(influenced: Vec<Vec<u32>>, n_cands: usize, n_users: usize) -> InfluenceSets {
    let mut f_count = vec![0u32; n_users];
    for list in &influenced[n_cands..] {
        for &o in list {
            f_count[o as usize] += 1;
        }
    }
    let mut omega_c = influenced;
    omega_c.truncate(n_cands);
    InfluenceSets::new(omega_c, f_count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::baseline;
    use mc2ls_index::RTree;
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
        for list in (0..a.n_candidates()).map(|c| a.omega(c)) {
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
                let (base, _, _) = baseline::influence_sets(&p, 1);
                for config in [
                    IqtConfig::iqt_c(2.0),
                    IqtConfig::iqt(2.0),
                    IqtConfig::iqt_pino(2.0),
                ] {
                    let (got, stats, _) = influence_sets_parallel(&p, &config, 1);
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
            let (sets, stats, _) = influence_sets_parallel(&p, &config, 1);
            for threads in [2usize, 4, 7] {
                let (par_sets, par_stats, _) = influence_sets_parallel(&p, &config, threads);
                assert_eq!(sets, par_sets, "threads={threads}");
                assert_eq!(stats, par_stats, "threads={threads}");
            }
        }
    }

    /// The R-tree route lines 5–12 took before [`refine`], kept as its
    /// oracle: R-trees over C and F, one window query per user (facility
    /// side only for maybe-relevant users), IA and NIB hits collected per
    /// abstract facility, then set algebra on each `Ω′_v`.
    fn rtree_refine(
        problem: &Problem,
        config: &IqtConfig,
        mmr: &MmrTable,
        pruned: &mut Pruned,
        stats: &mut PruneStats,
    ) {
        let n_cands = problem.n_candidates();
        let n_abstract = n_cands + problem.n_facilities();
        let ids = |offset: usize, points: &[Point]| -> Vec<(u32, Point)> {
            (0u32..)
                .zip(points.iter().copied())
                .map(|(i, p)| (i + offset as u32, p))
                .collect()
        };
        let rt_c = RTree::bulk_load(ids(0, &problem.candidates));
        let rt_f = RTree::bulk_load(ids(n_cands, &problem.facilities));
        let mut maybe_relevant = vec![false; problem.n_users()];
        for v in 0..n_cands {
            for &o in pruned.influenced[v].iter().chain(&pruned.to_verify[v]) {
                maybe_relevant[o as usize] = true;
            }
        }
        let mut nib_possible: Vec<Vec<u32>> = vec![Vec::new(); n_abstract];
        let mut ia_certain: Vec<Vec<u32>> = vec![Vec::new(); n_abstract];
        for (o, user) in (0u32..).zip(&problem.users) {
            let Some(radius) = mmr.get(user.len()) else {
                continue;
            };
            let window = nib_query_rect(user.mbr(), radius);
            let mut handle = |v: u32, p: Point| {
                if config.use_ia && ia_contains(user.mbr(), &p, radius) {
                    ia_certain[v as usize].push(o);
                } else if nib_contains(user.mbr(), &p, radius) {
                    nib_possible[v as usize].push(o);
                }
            };
            rt_c.for_each_in_rect(&window, &mut handle);
            if maybe_relevant[o as usize] {
                rt_f.for_each_in_rect(&window, &mut handle);
            }
        }
        for v in 0..n_abstract {
            let (ia, nib) = (&ia_certain[v], &nib_possible[v]);
            let tv = &mut pruned.to_verify[v];
            if config.use_ia {
                let moved: Vec<u32> = tv.iter().copied().filter(|o| ia.contains(o)).collect();
                stats.ia_decided += moved.len() as u64;
                tv.retain(|o| !moved.contains(o));
                pruned.influenced[v].extend(moved);
                pruned.influenced[v].sort_unstable();
            }
            if config.use_nib {
                let before = tv.len();
                tv.retain(|o| nib.contains(o) || ia.contains(o));
                stats.nib_decided += (before - tv.len()) as u64;
            }
        }
    }

    /// [`random_problem`] plus sites on the float edges of NIB windows:
    /// for every third user with an `mMR`, sites on each edge of its
    /// window (the MBR inflated by `mMR`) and one `next_up`/`next_down`
    /// step either side of it, and four sites 1.2–1.6 km off its MBR
    /// centre, where IA can decide pairs the IS rule left open. Users with
    /// one position have no `mMR` at τ ≥ 0.5.
    fn edge_problem(seed: u64, tau: f64) -> Problem {
        let base = random_problem(seed, 45, 5, 5, tau);
        let mmr = MmrTable::build(&base.pf, tau, base.r_max());
        let mut sites = Vec::new();
        for user in base.users.iter().step_by(3) {
            let Some(r) = mmr.get(user.len()) else {
                continue;
            };
            let w = nib_query_rect(user.mbr(), r);
            let c = user.mbr().center();
            for edge in [w.min.x, w.max.x] {
                for x in [edge.next_down(), edge, edge.next_up()] {
                    sites.push(Point::new(x, c.y));
                }
            }
            for edge in [w.min.y, w.max.y] {
                for y in [edge.next_down(), edge, edge.next_up()] {
                    sites.push(Point::new(c.x, y));
                }
            }
            sites.push(Point::new(w.min.x.next_up(), w.min.y.next_up()));
            sites.push(Point::new(w.max.x.next_down(), w.max.y));
            for (dx, dy) in [(1.2, 0.3), (-1.4, 0.2), (0.4, 1.6), (-0.3, -1.5)] {
                sites.push(Point::new(c.x + dx, c.y + dy));
            }
        }
        let (mut candidates, mut facilities) = (base.candidates, base.facilities);
        for (i, site) in sites.into_iter().enumerate() {
            if i % 2 == 0 {
                candidates.push(site);
            } else {
                facilities.push(site);
            }
        }
        Problem::new(
            base.users,
            facilities,
            candidates,
            2,
            tau,
            Sigmoid::paper_default(),
        )
    }

    #[test]
    fn per_pair_nib_and_ia_match_the_rtree_route() {
        let (mut ia_total, mut nib_total) = (0u64, 0u64);
        for seed in 1..=8u64 {
            for tau in [0.3, 0.55, 0.8] {
                let p = edge_problem(seed, tau);
                let points = abstract_facilities(&p);
                let iqt = IQuadTree::build(&p.users, &p.pf, p.tau, 2.0);
                let mmr = MmrTable::build(&p.pf, p.tau, p.r_max());
                for config in [IqtConfig::iqt(2.0), IqtConfig::iqt_pino(2.0)] {
                    let label = format!("seed={seed} tau={tau} ia={}", config.use_ia);
                    let mut stats = PruneStats {
                        pairs_total: (points.len() * p.n_users()) as u64,
                        ..PruneStats::default()
                    };
                    let traversed = traverse_all(&iqt, &points, p.n_users(), 1, &mut stats);
                    let (mut want, mut want_stats) = (traversed.clone(), stats);
                    rtree_refine(&p, &config, &mmr, &mut want, &mut want_stats);
                    for threads in [1usize, 3] {
                        let (mut got, mut got_stats) = (traversed.clone(), stats);
                        refine(
                            &p,
                            &config,
                            &mmr,
                            &points,
                            &mut got,
                            threads,
                            &mut got_stats,
                        );
                        assert_eq!(got.to_verify, want.to_verify, "{label} threads={threads}");
                        assert_eq!(got.influenced, want.influenced, "{label} threads={threads}");
                        assert_eq!(got_stats, want_stats, "{label} threads={threads}");
                    }
                    ia_total += want_stats.ia_decided;
                    nib_total += want_stats.nib_decided;

                    // The reference route's pairs, verified, give the
                    // pipeline's sets and every PruneStats field.
                    let verifier = Verifier::build(&p);
                    let influenced = verify_all(&p, &verifier, want, 1, &mut want_stats);
                    let want_sets = assemble(influenced, p.n_candidates(), p.n_users());
                    for threads in [1usize, 2] {
                        let (sets, stats, _) = influence_sets_parallel(&p, &config, threads);
                        assert_eq!(sets, want_sets, "{label} threads={threads}");
                        assert_eq!(stats, want_stats, "{label} threads={threads}");
                    }
                }
            }
        }
        assert!(ia_total > 0, "no instance had an IA-decided pair");
        assert!(nib_total > 0, "no instance had a NIB-decided pair");
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
        let (base, _, _) = baseline::influence_sets(&p, 1);
        let (got, _, _) = influence_sets_parallel(&p, &IqtConfig::iqt_c(2.0), 1);
        let mut relevant = vec![false; p.n_users()];
        for list in (0..base.n_candidates()).map(|c| base.omega(c)) {
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
        let (a, _, _) = influence_sets_parallel(&p, &IqtConfig::iqt(1.0), 1);
        let (b, _, _) = influence_sets_parallel(&p, &IqtConfig::iqt(2.5), 1);
        assert_eq!(a, b);
    }

    #[test]
    fn pruning_reduces_verification_versus_baseline() {
        let p = random_problem(5, 120, 20, 20, 0.6);
        let (_, base_stats, _) = baseline::influence_sets(&p, 1);
        let (_, iqt_stats, _) = influence_sets_parallel(&p, &IqtConfig::iqt(2.0), 1);
        assert!(iqt_stats.verified < base_stats.verified);
        assert!(iqt_stats.prob_evals <= base_stats.prob_evals);
    }
}
