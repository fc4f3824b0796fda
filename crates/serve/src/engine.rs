//! The shard-per-worker query engine: scatter/gather selection over a
//! zero-copy loaded snapshot.
//!
//! Queries never re-derive influence relationships — the snapshot's
//! per-shard CSRs are the ground truth. Every query runs the workspace's
//! one selector ([`mc2ls_core::select`]) over the shard views, fixed to
//! the decremental scatter/gather plan: per-shard decrement scatter on up
//! to `min(threads, shards)` workers, gathered into the merged count
//! matrix — **byte-identical** to every unsharded selector at any shard
//! and thread count (the workspace invariant, asserted by the loopback
//! suites). The request's `selector` field is therefore not read. Answers
//! carry [`mc2ls_core::PruneStats::default`] pruning counters — the
//! visible proof that zero influence evaluations ran.
//!
//! The initial per-candidate count matrix ([`mc2ls_core::class_counts`])
//! is materialised **once per snapshot epoch** (lazily, on the first
//! query) and shared: every query, full-set or subset, seeds from its
//! rows. Concurrent queries on the same epoch therefore share one
//! gain-materialisation pass — the engine half of request batching (the
//! server adds single-flight coalescing on top).

use crate::cache::canonical_subset;
use crate::error::SnapshotError;
use crate::protocol::{ProposeRequest, QueryAnswer, QueryRequest};
use crate::snapshot::{Snapshot, SnapshotMeta};
use crate::view::LoadedSnapshot;
use mc2ls_candgen::{propose_from_blocks, Proposal, SweepConfig};
use mc2ls_core::algorithms::Selector;
use mc2ls_core::{class_counts, select, ClassCounts, GatherScratch, PruneStats, SelectOpts};
use mc2ls_influence::{Model, BLOCK_SIZE_AUTO};
use std::sync::{Mutex, OnceLock};

/// A query rejected before selection ran.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// Requested τ differs (bit-wise) from the snapshot's τ. Influence
    /// sets are τ-specific; answering anyway would silently be wrong.
    TauMismatch {
        /// τ in the request.
        requested: f64,
        /// τ the snapshot was built with.
        snapshot: f64,
    },
    /// Requested block size differs from the snapshot's after
    /// canonicalisation (the auto sentinel resolves to the snapshot's
    /// stored block size before comparing).
    BlockSizeMismatch {
        /// Block size in the request.
        requested: usize,
        /// Block size the snapshot was built with.
        snapshot: usize,
    },
    /// `k` is zero or exceeds the available candidates.
    BadBudget {
        /// Requested budget.
        k: usize,
        /// Candidates available to this query (subset or full set).
        available: usize,
    },
    /// A subset id is not a candidate of the snapshot.
    UnknownCandidate {
        /// The offending id.
        id: u32,
        /// Number of candidates in the snapshot.
        n_candidates: usize,
    },
    /// The candidate subset is empty after canonicalisation.
    EmptySubset,
    /// Requested competition model differs from the one the snapshot was
    /// built to serve. The influence sets themselves are model-independent,
    /// but the build recorded its intent — answering under another model
    /// would silently change what `cinf` means for this deployment.
    ModelMismatch {
        /// Model in the request.
        requested: Model,
        /// Model recorded in the snapshot META.
        snapshot: Model,
    },
}

impl QueryError {
    /// Stable machine-readable kind for the wire protocol.
    pub fn kind(&self) -> &'static str {
        match self {
            QueryError::TauMismatch { .. } => "tau-mismatch",
            QueryError::BlockSizeMismatch { .. } => "block-size-mismatch",
            QueryError::BadBudget { .. } => "bad-budget",
            QueryError::UnknownCandidate { .. } => "unknown-candidate",
            QueryError::EmptySubset => "empty-subset",
            QueryError::ModelMismatch { .. } => "model-mismatch",
        }
    }
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::TauMismatch {
                requested,
                snapshot,
            } => write!(
                f,
                "query tau {requested} does not match snapshot tau {snapshot}"
            ),
            QueryError::BlockSizeMismatch {
                requested,
                snapshot,
            } => write!(
                f,
                "query block size {requested} does not match snapshot block size {snapshot}"
            ),
            QueryError::BadBudget { k, available } => {
                write!(f, "budget k = {k} outside 1..={available}")
            }
            QueryError::UnknownCandidate { id, n_candidates } => {
                write!(f, "candidate {id} outside 0..{n_candidates}")
            }
            QueryError::EmptySubset => write!(f, "candidate subset is empty"),
            QueryError::ModelMismatch {
                requested,
                snapshot,
            } => write!(
                f,
                "query model {requested} does not match snapshot model {snapshot}"
            ),
        }
    }
}

impl std::error::Error for QueryError {}

/// A PROPOSE request rejected before the sweep ran, or whose position
/// sections failed to decode.
#[derive(Debug)]
pub enum ProposeError {
    /// The sweep window is zero, negative, or non-finite.
    BadWindow {
        /// Window in the request.
        window: f64,
    },
    /// The requested site count is zero.
    BadCount,
    /// The min-separation override is negative or non-finite.
    BadSeparation {
        /// Separation in the request.
        min_separation: f64,
    },
    /// The snapshot's PBLK sections failed their lazy decode.
    Snapshot(SnapshotError),
}

impl ProposeError {
    /// Stable machine-readable kind for the wire protocol.
    pub fn kind(&self) -> &'static str {
        match self {
            ProposeError::BadWindow { .. } => "bad-window",
            ProposeError::BadCount => "bad-count",
            ProposeError::BadSeparation { .. } => "bad-separation",
            ProposeError::Snapshot(_) => "snapshot",
        }
    }
}

impl std::fmt::Display for ProposeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProposeError::BadWindow { window } => {
                write!(f, "sweep window {window} must be positive and finite")
            }
            ProposeError::BadCount => write!(f, "site count m must be at least 1"),
            ProposeError::BadSeparation { min_separation } => write!(
                f,
                "min separation {min_separation} must be finite and non-negative"
            ),
            ProposeError::Snapshot(e) => write!(f, "position sections failed to decode: {e}"),
        }
    }
}

impl std::error::Error for ProposeError {}

/// A zero-copy loaded snapshot plus the scatter worker count and the
/// epoch-shared count matrix.
#[derive(Debug)]
pub struct QueryEngine {
    loaded: LoadedSnapshot,
    threads: usize,
    /// Initial count matrix of the full candidate set, materialised once
    /// per engine (= snapshot epoch) on first use and shared by every
    /// query until the next reload.
    epoch_counts: OnceLock<ClassCounts>,
    /// Pool of selection scratch buffers (heap, version/taken/stamp
    /// arrays, coverage bitsets). Each query checks one out, selects with
    /// it, and returns it — repeated queries against an epoch reuse the
    /// same allocations instead of reallocating per call.
    scratch_pool: Mutex<Vec<GatherScratch>>,
}

impl QueryEngine {
    /// Wraps a decoded snapshot by re-encoding it into the zero-copy view
    /// form; selection scatters over up to `threads` workers (clamped to
    /// at least one). Thread count never changes answers, only wall-clock.
    pub fn new(snapshot: Snapshot, threads: usize) -> Self {
        let bytes = snapshot.to_bytes();
        // lint:allow(panic-path): encoding a consistent snapshot and re-validating it cannot fail
        let loaded = LoadedSnapshot::from_bytes(bytes).expect("snapshot re-validates");
        QueryEngine {
            loaded,
            threads: threads.max(1),
            epoch_counts: OnceLock::new(),
            scratch_pool: Mutex::new(Vec::new()),
        }
    }

    /// Builds an engine straight from container bytes via the zero-copy
    /// load path — the cold-start and reload entry point.
    ///
    /// # Errors
    /// Every validation error [`LoadedSnapshot::from_bytes`] produces.
    pub fn from_bytes(bytes: Vec<u8>, threads: usize) -> Result<Self, SnapshotError> {
        Ok(QueryEngine {
            loaded: LoadedSnapshot::from_bytes(bytes)?,
            threads: threads.max(1),
            epoch_counts: OnceLock::new(),
            scratch_pool: Mutex::new(Vec::new()),
        })
    }

    /// Checks a scratch out of the pool (or starts a fresh one when all
    /// are in flight — concurrent queries never block on each other here).
    fn take_scratch(&self) -> GatherScratch {
        self.scratch_pool
            .lock()
            .map(|mut pool| pool.pop())
            .unwrap_or_default()
            .unwrap_or_default()
    }

    /// Returns a scratch to the pool for the next query to reuse.
    fn put_scratch(&self, scratch: GatherScratch) {
        if let Ok(mut pool) = self.scratch_pool.lock() {
            pool.push(scratch);
        }
    }

    /// The loaded snapshot's metadata.
    pub fn meta(&self) -> &SnapshotMeta {
        self.loaded.meta()
    }

    /// The raw container bytes this engine serves from — the base a delta
    /// reload applies onto.
    pub fn snapshot_bytes(&self) -> &[u8] {
        self.loaded.bytes()
    }

    /// Number of user shards the engine scatters over.
    pub fn n_shards(&self) -> usize {
        self.loaded.n_shards()
    }

    /// Canonicalises a requested block size: the auto sentinel resolves to
    /// the block size the snapshot's PBLK sections actually store, so
    /// `auto` and the explicit resolved value are the same query (and the
    /// same cache key).
    pub fn canonical_block_size(&self, requested: usize) -> usize {
        if requested == BLOCK_SIZE_AUTO {
            self.loaded.meta().resolved_block_size
        } else {
            requested
        }
    }

    fn epoch_counts(&self) -> &ClassCounts {
        self.epoch_counts.get_or_init(|| {
            class_counts(
                &self.loaded.shard_views(),
                self.loaded.meta().n_candidates,
                self.threads,
            )
        })
    }

    /// Validates `req` against the snapshot and runs the scatter/gather
    /// selection.
    ///
    /// # Errors
    /// A typed [`QueryError`] when the request disagrees with the snapshot
    /// (τ / canonical block size), addresses an unknown candidate, or
    /// carries an out-of-range budget. Never panics on malformed requests.
    pub fn answer(&self, req: &QueryRequest) -> Result<QueryAnswer, QueryError> {
        let meta = self.loaded.meta();
        if req.tau.to_bits() != meta.tau.to_bits() {
            return Err(QueryError::TauMismatch {
                requested: req.tau,
                snapshot: meta.tau,
            });
        }
        if self.canonical_block_size(req.block_size) != self.canonical_block_size(meta.block_size) {
            return Err(QueryError::BlockSizeMismatch {
                requested: req.block_size,
                snapshot: meta.block_size,
            });
        }
        if req.model != meta.model {
            return Err(QueryError::ModelMismatch {
                requested: req.model,
                snapshot: meta.model,
            });
        }

        let n_candidates = meta.n_candidates;
        let canon = req.candidates.as_deref().map(canonical_subset);
        if let Some(canon) = &canon {
            if canon.is_empty() {
                return Err(QueryError::EmptySubset);
            }
            if let Some(&max) = canon.last() {
                if max as usize >= n_candidates {
                    return Err(QueryError::UnknownCandidate {
                        id: max,
                        n_candidates,
                    });
                }
            }
        }
        check_budget(req.k, canon.as_ref().map_or(n_candidates, Vec::len))?;

        let opts = SelectOpts {
            selector: Selector::Decremental,
            model: &meta.model,
            threads: self.threads,
            subset: canon.as_deref(),
        };
        let mut scratch = self.take_scratch();
        let (solution, selection, gather) = select(
            &self.loaded.shard_views(),
            Some(self.epoch_counts()),
            req.k,
            &opts,
            &mut scratch,
        );
        self.put_scratch(scratch);
        Ok(QueryAnswer {
            solution,
            selection,
            // Serving touches no influence-set evaluation: the counters
            // stay at their defaults, and tests assert exactly that.
            prune: PruneStats::default(),
            gather,
            cached: false,
            key_hash: 0,
        })
    }
}

impl QueryEngine {
    /// Validates `req` and runs the MaxRS-style candidate sweep over the
    /// snapshot's position blocks (decoded lazily on the first PROPOSE,
    /// cached afterwards). Pure read: proposing never touches the query
    /// plane, the result cache, or the epoch counts.
    ///
    /// # Errors
    /// A typed [`ProposeError`] on out-of-range sweep parameters or a PBLK
    /// decode failure. Never panics on malformed requests — every
    /// precondition of [`SweepConfig`] is checked here first.
    pub fn propose(&self, req: &ProposeRequest) -> Result<Proposal, ProposeError> {
        if !(req.window > 0.0 && req.window.is_finite()) {
            return Err(ProposeError::BadWindow { window: req.window });
        }
        if req.m == 0 {
            return Err(ProposeError::BadCount);
        }
        if let Some(sep) = req.min_separation {
            if !(sep >= 0.0 && sep.is_finite()) {
                return Err(ProposeError::BadSeparation {
                    min_separation: sep,
                });
            }
        }
        let blocks = self
            .loaded
            .position_blocks()
            .map_err(ProposeError::Snapshot)?;
        let mut cfg = SweepConfig::new(req.window, req.m).with_threads(self.threads);
        if let Some(sep) = req.min_separation {
            cfg = cfg.with_min_separation(sep);
        }
        Ok(propose_from_blocks(blocks, &cfg))
    }
}

fn check_budget(k: usize, available: usize) -> Result<(), QueryError> {
    if k == 0 || k > available {
        return Err(QueryError::BadBudget { k, available });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc2ls_core::algorithms::{solve_threaded, IqtConfig, Method, Selector};
    use mc2ls_core::Problem;
    use mc2ls_geo::Point;
    use mc2ls_influence::{MovingUser, Sigmoid};
    use rand::prelude::*;

    fn random_problem(seed: u64, n_users: usize, n_cands: usize) -> Problem<Sigmoid> {
        let mut rng = StdRng::seed_from_u64(seed);
        let pt = |r: &mut StdRng| Point::new(r.gen_range(-8.0..8.0), r.gen_range(-8.0..8.0));
        let users = (0..n_users)
            .map(|_| {
                let n = rng.gen_range(1..4);
                MovingUser::new((0..n).map(|_| pt(&mut rng)).collect())
            })
            .collect();
        let facilities = (0..5).map(|_| pt(&mut rng)).collect();
        let candidates = (0..n_cands).map(|_| pt(&mut rng)).collect();
        Problem::new(
            users,
            facilities,
            candidates,
            3,
            0.6,
            Sigmoid::paper_default(),
        )
    }

    fn engine_for(problem: &Problem<Sigmoid>, threads: usize, n_shards: usize) -> QueryEngine {
        let (snap, _) = Snapshot::build_sharded("test", problem, 2.0, threads, n_shards);
        QueryEngine::new(snap, threads)
    }

    fn query(problem: &Problem<Sigmoid>, candidates: Option<Vec<u32>>, k: usize) -> QueryRequest {
        QueryRequest {
            candidates,
            k,
            tau: problem.tau,
            block_size: problem.block_size,
            selector: Selector::Auto,
            pf_exact: false,
            model: Model::Cumulative,
        }
    }

    #[test]
    fn full_set_answers_match_direct_solve_bit_for_bit() {
        let problem = random_problem(11, 60, 20);
        let direct = solve_threaded(
            &problem,
            Method::Iqt(IqtConfig::iqt(2.0)),
            Selector::Auto,
            1,
        );
        for (threads, n_shards) in [(1usize, 1usize), (2, 3), (5, 4)] {
            let engine = engine_for(&problem, threads, n_shards);
            let ans = engine
                .answer(&query(&problem, None, problem.k))
                .expect("answer");
            assert_eq!(ans.solution.selected, direct.solution.selected);
            assert_eq!(
                ans.solution.cinf.to_bits(),
                direct.solution.cinf.to_bits(),
                "threads={threads} shards={n_shards}"
            );
            assert_eq!(ans.prune, PruneStats::default());
            assert_eq!(ans.gather.shards as usize, engine.n_shards());
            assert!(ans.gather.shared_epoch);
            assert_eq!(ans.gather.rounds as usize, problem.k);
        }
    }

    #[test]
    fn subset_answers_match_a_solve_on_the_subinstance() {
        let problem = random_problem(23, 50, 16);
        let engine = engine_for(&problem, 2, 3);
        let subset = vec![14u32, 3, 7, 3, 11, 0];
        let ans = engine
            .answer(&query(&problem, Some(subset.clone()), 2))
            .expect("answer");

        // Direct solve on the sub-instance with the same candidate order as
        // the canonical subset.
        let canon = canonical_subset(&subset);
        let sub_problem = Problem::new(
            problem.users.clone(),
            problem.facilities.clone(),
            canon
                .iter()
                .map(|&c| problem.candidates[c as usize])
                .collect(),
            2,
            problem.tau,
            problem.pf,
        )
        .with_block_size(problem.block_size);
        let direct = solve_threaded(
            &sub_problem,
            Method::Iqt(IqtConfig::iqt(2.0)),
            Selector::Auto,
            1,
        );
        let mapped: Vec<u32> = direct
            .solution
            .selected
            .iter()
            .map(|&l| canon[l as usize])
            .collect();
        assert_eq!(ans.solution.selected, mapped);
        assert_eq!(ans.solution.cinf.to_bits(), direct.solution.cinf.to_bits());
    }

    #[test]
    fn all_selectors_agree_on_the_engine_path() {
        let problem = random_problem(37, 40, 12);
        let engine = engine_for(&problem, 3, 2);
        let selectors = [
            Selector::Greedy,
            Selector::LazyGreedy,
            Selector::Decremental,
            Selector::Auto,
        ];
        let answers: Vec<_> = selectors
            .iter()
            .map(|&s| {
                let mut q = query(&problem, Some(vec![0, 1, 2, 3, 4, 5]), 3);
                q.selector = s;
                engine.answer(&q).expect("answer")
            })
            .collect();
        for pair in answers.windows(2) {
            assert_eq!(pair[0].solution.selected, pair[1].solution.selected);
            assert_eq!(
                pair[0].solution.cinf.to_bits(),
                pair[1].solution.cinf.to_bits()
            );
        }
    }

    #[test]
    fn auto_and_resolved_block_sizes_are_the_same_query() {
        let problem = random_problem(51, 30, 10);
        let engine = engine_for(&problem, 1, 2);
        let resolved = engine.meta().resolved_block_size;
        assert_eq!(engine.canonical_block_size(BLOCK_SIZE_AUTO), resolved);
        assert_eq!(engine.canonical_block_size(resolved), resolved);

        let mut q = query(&problem, None, 3);
        q.block_size = BLOCK_SIZE_AUTO;
        let a = engine.answer(&q).expect("auto accepted");
        q.block_size = resolved;
        let b = engine.answer(&q).expect("resolved accepted");
        assert_eq!(a.solution.selected, b.solution.selected);
    }

    #[test]
    fn invalid_queries_are_typed_errors() {
        let problem = random_problem(5, 30, 10);
        let engine = engine_for(&problem, 1, 1);

        let mut q = query(&problem, None, 3);
        q.tau = 0.5;
        assert!(matches!(
            engine.answer(&q),
            Err(QueryError::TauMismatch { .. })
        ));

        let mut q = query(&problem, None, 3);
        // A fixed size no resolution maps to: canonically distinct.
        q.block_size = usize::MAX - 1;
        assert!(matches!(
            engine.answer(&q),
            Err(QueryError::BlockSizeMismatch { .. })
        ));

        assert!(matches!(
            engine.answer(&query(&problem, None, 0)),
            Err(QueryError::BadBudget { .. })
        ));
        assert!(matches!(
            engine.answer(&query(&problem, None, 11)),
            Err(QueryError::BadBudget { .. })
        ));
        assert!(matches!(
            engine.answer(&query(&problem, Some(vec![1, 2]), 3)),
            Err(QueryError::BadBudget { .. })
        ));
        assert!(matches!(
            engine.answer(&query(&problem, Some(vec![]), 1)),
            Err(QueryError::EmptySubset)
        ));
        assert!(matches!(
            engine.answer(&query(&problem, Some(vec![0, 10]), 1)),
            Err(QueryError::UnknownCandidate { id: 10, .. })
        ));

        let mut q = query(&problem, None, 3);
        q.model = Model::Logit;
        assert!(matches!(
            engine.answer(&q),
            Err(QueryError::ModelMismatch {
                requested: Model::Logit,
                snapshot: Model::Cumulative,
            })
        ));
    }

    #[test]
    fn propose_matches_a_direct_sweep_over_the_raw_positions() {
        let problem = random_problem(43, 70, 12);
        let points: Vec<Point> = problem
            .users
            .iter()
            .flat_map(|u| u.positions().iter().copied())
            .collect();
        let direct =
            mc2ls_candgen::propose(&points, &SweepConfig::new(3.0, 5).with_min_separation(1.0));
        let req = ProposeRequest {
            window: 3.0,
            m: 5,
            min_separation: Some(1.0),
        };
        // The snapshot reorders positions (Morton within users, users into
        // shards), but the sweep aggregates into grid cells first — so the
        // proposal is identical at any shard/thread count.
        for (threads, n_shards) in [(1usize, 1usize), (3, 2)] {
            let engine = engine_for(&problem, threads, n_shards);
            let served = engine.propose(&req).expect("propose");
            assert_eq!(served.stats, direct.stats, "shards={n_shards}");
            assert_eq!(served.sites.len(), direct.sites.len());
            for (a, b) in served.sites.iter().zip(&direct.sites) {
                assert_eq!(a.center.x.to_bits(), b.center.x.to_bits());
                assert_eq!(a.center.y.to_bits(), b.center.y.to_bits());
                assert_eq!(a.score, b.score);
                assert_eq!(a.anchor, b.anchor);
            }
        }
    }

    #[test]
    fn invalid_propose_requests_are_typed_errors() {
        let problem = random_problem(47, 20, 6);
        let engine = engine_for(&problem, 1, 1);
        let req = |window: f64, m: usize, sep: Option<f64>| ProposeRequest {
            window,
            m,
            min_separation: sep,
        };
        assert!(matches!(
            engine.propose(&req(0.0, 3, None)),
            Err(ProposeError::BadWindow { .. })
        ));
        assert!(matches!(
            engine.propose(&req(f64::INFINITY, 3, None)),
            Err(ProposeError::BadWindow { .. })
        ));
        assert!(matches!(
            engine.propose(&req(1.0, 0, None)),
            Err(ProposeError::BadCount)
        ));
        assert!(matches!(
            engine.propose(&req(1.0, 3, Some(-1.0))),
            Err(ProposeError::BadSeparation { .. })
        ));
        assert!(matches!(
            engine.propose(&req(1.0, 3, Some(f64::NAN))),
            Err(ProposeError::BadSeparation { .. })
        ));
        assert!(engine.propose(&req(1.0, 3, None)).is_ok());
    }

    #[test]
    fn logit_snapshots_serve_logit_answers_and_reject_cumulative() {
        let problem = random_problem(61, 50, 14).with_model(Model::Logit);
        let direct = solve_threaded(
            &problem,
            Method::Iqt(IqtConfig::iqt(2.0)),
            Selector::Auto,
            1,
        );
        for (threads, n_shards) in [(1usize, 1usize), (2, 3)] {
            let engine = engine_for(&problem, threads, n_shards);
            assert_eq!(engine.meta().model, Model::Logit);

            // The model a pre-model client defaults to is rejected…
            assert!(matches!(
                engine.answer(&query(&problem, None, problem.k)),
                Err(QueryError::ModelMismatch {
                    requested: Model::Cumulative,
                    snapshot: Model::Logit,
                })
            ));

            // …and the matching model is served bit-identically to the
            // direct logit solve at any shard/thread count.
            let mut q = query(&problem, None, problem.k);
            q.model = Model::Logit;
            let ans = engine.answer(&q).expect("logit answer");
            assert_eq!(ans.solution.selected, direct.solution.selected);
            assert_eq!(
                ans.solution.cinf.to_bits(),
                direct.solution.cinf.to_bits(),
                "threads={threads} shards={n_shards}"
            );
        }
    }
}
