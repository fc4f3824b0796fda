//! Greedy selection of `k` candidates maximising the submodular objective
//! `cinf(G)` (paper §IV-A step 2–3 and Theorem 2), written **once** as
//! [`select`] over a slice of [`Rows`] user partitions.
//!
//! [`select`] holds three round loops with **byte-identical** output:
//!
//! * **rescan** ([`Selector::Greedy`]) — the paper's procedure: each round
//!   re-evaluates `cinf(c)` over uncovered users for every remaining
//!   candidate and picks the maximum (ties broken toward the smaller
//!   candidate id, which makes all algorithms in this crate byte-for-byte
//!   comparable).
//! * **CELF** ([`Selector::LazyGreedy`]) — lazy evaluation exploiting the
//!   submodularity proven in Theorem 2: a candidate whose cached marginal
//!   gain (always an upper bound) cannot beat the current best is not
//!   re-evaluated. This is this repository's implementation of the
//!   "candidate-pruning strategy to further accelerate the computation" the
//!   paper's abstract highlights.
//! * **decremental** ([`Selector::Decremental`]) — exact gain maintenance:
//!   each candidate keeps a per-weight-class count of its uncovered users
//!   ([`class_counts`]), and selecting a candidate walks only the newly
//!   covered users' inverted rows to decrement the affected counts. Total
//!   update work over all `k` rounds is bounded by **one pass over the
//!   inverted CSR**, instead of `k` passes over the forward CSR.
//!
//! # One loop for any user partition
//!
//! The objective is additive over users (Equation 1 sums an independent
//! weight per influenced user), so every per-candidate per-class count
//! splits exactly across any partition of the user id space and integer
//! counts sum associatively. A [`Rows`] value is one such partition:
//! [`SetRows`] wraps the owned [`InfluenceSets`] (the unsharded instance
//! is a one-shard gather), `shard::ShardView` is a zero-copy snapshot
//! shard. The decremental loop **scatters** each round over the shards —
//! each covers its users of the picked candidate's row and emits
//! per-class decrement events from its inverted rows — and **gathers** the
//! events into the merged count matrix in shard order, so any shard or
//! worker count replays the same decisions.
//!
//! # Canonical gains
//!
//! Every user's competitive weight `1/(|F_o|+1)` (Equation 1) is one of a
//! small set of **weight classes** — one per distinct `|F_o|` value. All
//! loops therefore evaluate a marginal gain the same way: count the
//! candidate's uncovered users per class, then materialise
//! `Σ_w counts[w]/(w+1)` in ascending class order ([`canonical_gain_model`]'s
//! fixed summation order). Equal class counts produce bit-identical `f64`
//! gains in every loop, which is what makes the three selectors — and any
//! worker-thread or shard count — byte-for-byte comparable
//! (`tests/selector_equivalence.rs` and `tests/sharded_equivalence.rs`
//! assert it).
//!
//! # Competition models
//!
//! The per-class weight is pluggable: [`SelectOpts::model`] is a
//! [`CompetitionModel`] whose `class_contribution(w, n_w)` replaces the
//! cumulative `n_w/(w+1)` term inside the same ascending-class walk. The
//! loops require a **monotone submodular** model (CELF treats stale gains
//! as upper bounds); non-submodular models are routed to exact
//! branch-and-bound by the owned-sets path behind
//! `algorithms::run_selector`.

use crate::algorithms::{resolve, Selector};
use crate::{Bitset, InfluenceSets, InvertedIndex, SelectionStats, Solution};
use mc2ls_influence::CompetitionModel;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Materialises a marginal gain from per-weight-class counts under `model`:
/// `Σ_w class_contribution(w, counts[w])`, accumulated in ascending class
/// order with empty classes skipped (a zero count contributes `+0.0` in
/// every shipped model, skipping just saves the divisions). Every selector
/// funnels gains through this one walk, so equal counts give bit-identical
/// gains everywhere.
#[inline]
pub(crate) fn canonical_gain_model<M: CompetitionModel>(counts: &[u32], model: &M) -> f64 {
    let mut total = 0.0;
    for (w, &n) in counts.iter().enumerate() {
        if n != 0 {
            total += model.class_contribution(w, n);
        }
    }
    total
}

/// What selection reads from one partition of the users. Candidate rows
/// are global (every partition has all candidates); user ids are local to
/// the partition.
pub trait Rows: Sync {
    /// Number of candidate rows.
    fn n_candidates(&self) -> usize;
    /// Users in this partition (local ids `0..n_users()`).
    fn n_users(&self) -> usize;
    /// `Σ_c |row(c)|` over this partition.
    fn n_entries(&self) -> usize;
    /// `max |F_o| + 1` over this partition's users (1 when it has none).
    fn n_classes(&self) -> usize;
    /// Length of candidate `c`'s forward row.
    fn row_len(&self, c: usize) -> usize;
    /// Candidate `c`'s forward row: the local users it influences, ascending.
    fn row(&self, c: usize) -> impl Iterator<Item = u32> + '_;
    /// Weight class `|F_o|` of local user `o`.
    fn class(&self, o: u32) -> u32;
    /// Local user `o`'s inverted row: the candidates influencing it,
    /// ascending. Only the decremental selector reads it.
    fn inverted_row(&self, o: u32) -> impl Iterator<Item = u32> + '_;
}

/// The owned instance as one user partition: the influence sets plus —
/// for the decremental selector only — their inverted CSR.
#[derive(Debug, Clone, Copy)]
pub struct SetRows<'a> {
    /// The forward CSR and the per-user weight classes.
    pub sets: &'a InfluenceSets,
    /// The inverted CSR of `sets`; required by [`Selector::Decremental`]
    /// only, so rescan and CELF never build it.
    pub inverted: Option<&'a InvertedIndex>,
}

impl Rows for SetRows<'_> {
    fn n_candidates(&self) -> usize {
        self.sets.n_candidates()
    }

    fn n_users(&self) -> usize {
        self.sets.n_users()
    }

    fn n_entries(&self) -> usize {
        self.sets.total_influences()
    }

    fn n_classes(&self) -> usize {
        self.sets.n_weight_classes()
    }

    #[inline]
    fn row_len(&self, c: usize) -> usize {
        self.sets.omega(c).len()
    }

    #[inline]
    fn row(&self, c: usize) -> impl Iterator<Item = u32> + '_ {
        self.sets.omega(c).iter().copied()
    }

    #[inline]
    fn class(&self, o: u32) -> u32 {
        self.sets.f_count[o as usize]
    }

    #[inline]
    fn inverted_row(&self, o: u32) -> impl Iterator<Item = u32> + '_ {
        self.inverted
            // lint:allow(panic-path): the owned-sets path builds the inverted CSR whenever it runs the decremental selector
            .expect("the decremental selector needs SetRows::inverted")
            .candidates_of(o)
            .iter()
            .copied()
    }
}

/// The per-candidate weight-class count matrix: entry `(c, w)` holds
/// `#{o ∈ Ω_c : |F_o| = w}`, row-major with `stride` columns. The state the
/// decremental selector maintains.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassCounts {
    /// Row-major entries, `n_candidates × stride`.
    pub(crate) matrix: Vec<u32>,
    /// Columns per row (`max |F_o| + 1`, or wider: trailing all-zero
    /// classes contribute nothing to a gain).
    pub(crate) stride: usize,
}

impl ClassCounts {
    /// Candidate `c`'s per-class counts.
    #[inline]
    pub fn row(&self, c: usize) -> &[u32] {
        &self.matrix[c * self.stride..(c + 1) * self.stride]
    }
}

/// Counts every candidate's users per weight class across all `shards`,
/// fanning candidate chunks out over `threads` workers. Each entry is an
/// integer sum over shards, so the matrix is bit-identical for any shard
/// or thread count.
///
/// # Panics
/// Panics when `threads == 0`.
pub fn class_counts<R: Rows>(shards: &[R], n_candidates: usize, threads: usize) -> ClassCounts {
    let stride = shards.iter().map(R::n_classes).max().unwrap_or(1);
    let matrix = crate::parallel::map_chunks(n_candidates, threads, |range| {
        let mut part = vec![0u32; range.len() * stride];
        for (row, c) in part.chunks_exact_mut(stride).zip(range) {
            for shard in shards {
                for o in shard.row(c) {
                    row[shard.class(o) as usize] += 1;
                }
            }
        }
        part
    })
    .concat();
    ClassCounts { matrix, stride }
}

/// How [`select`] runs: the selection parameters that already exist,
/// grouped.
#[derive(Debug, Clone, Copy)]
pub struct SelectOpts<'a, M> {
    /// Which round loop runs. [`Selector::Auto`] resolves like
    /// `algorithms::resolve_selector` on the (sub-)instance.
    pub selector: Selector,
    /// The competition model; must be monotone submodular.
    pub model: &'a M,
    /// Worker threads for count materialisation, the CELF seed and the
    /// decremental scatter. Never changes the answer.
    pub threads: usize,
    /// Sorted, deduplicated global candidate ids to select from; `None`
    /// selects from every candidate.
    pub subset: Option<&'a [u32]>,
}

/// Per-selection execution counters. Unlike [`SelectionStats`]
/// (deterministic work units), the nanosecond fields are measured
/// wall-clock: `busy_ns` sums every shard's scatter time and
/// `critical_path_ns` sums each round's **slowest** shard — what a fleet
/// of free cores would wait for, measurable even when the shards actually
/// ran serially on a one-core host. Scatter events and times are recorded
/// by the decremental selector only.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GatherStats {
    /// User shards selected over.
    pub shards: u32,
    /// Scatter worker threads used (`min(threads, shards)`).
    pub workers: u32,
    /// Selection rounds executed (`k`).
    pub rounds: u32,
    /// Per-class decrement events gathered across all rounds.
    pub scatter_events: u64,
    /// Total scatter time summed over every shard, nanoseconds.
    pub busy_ns: u64,
    /// Per-round maximum shard scatter time, summed over rounds.
    pub critical_path_ns: u64,
    /// Whether the initial count matrix was supplied by the caller (e.g.
    /// the serving engine's per-epoch materialisation) rather than built
    /// by a private pass.
    pub shared_epoch: bool,
}

/// Reusable allocation pool for [`select`]: the lazy-bucket heap, the
/// version/taken/stamp arrays, the touched list, the working count matrix
/// and the per-shard coverage bitsets ([`Bitset::clear`] is a short
/// memset) survive across repeated selections — a serving loop answering
/// many queries against one snapshot stops paying per-query allocation
/// cost. Reuse never changes an answer.
#[derive(Debug, Default)]
pub struct GatherScratch {
    version: Vec<u32>,
    taken: Vec<bool>,
    stamp: Vec<u32>,
    touched: Vec<u32>,
    heap: BinaryHeap<Entry>,
    counts: Vec<u32>,
    covered: Vec<Bitset>,
}

impl GatherScratch {
    /// An empty pool; every buffer grows to fit on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Re-shapes for `n` selection rows over `shards`, clearing in place
    /// wherever the previous use already had the right shape.
    fn reset<R: Rows>(&mut self, n: usize, shards: &[R]) {
        self.version.clear();
        self.version.resize(n, 0);
        self.taken.clear();
        self.taken.resize(n, false);
        self.stamp.clear();
        self.stamp.resize(n, u32::MAX);
        self.touched.clear();
        self.heap.clear();
        let reusable = self.covered.len() == shards.len()
            && self
                .covered
                .iter()
                .zip(shards)
                .all(|(b, s)| b.len() == s.n_users());
        if reusable {
            self.covered.iter_mut().for_each(Bitset::clear);
        } else {
            self.covered = shards.iter().map(|s| Bitset::new(s.n_users())).collect();
        }
    }
}

/// Max-heap entry shared by the lazy selectors: orders by gain, then by
/// *smaller* candidate id, then by *newer* version — so on equal gains the
/// smallest id pops first (the shared tie-break) and a candidate's current
/// entry pops before its stale ones.
#[derive(Debug, PartialEq)]
struct Entry {
    gain: f64,
    cand: u32,
    version: u32,
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.gain
            .total_cmp(&other.gain)
            .then_with(|| other.cand.cmp(&self.cand))
            .then_with(|| self.version.cmp(&other.version))
    }
}

/// One selection's read plane: the shards, the model, the class stride and
/// the candidate rows in play (selection row `r` is global candidate
/// `subset[r]`, or `r` itself for the full set).
struct Plan<'a, R, M> {
    shards: &'a [R],
    subset: Option<&'a [u32]>,
    model: &'a M,
    n_classes: usize,
}

impl<R: Rows, M: CompetitionModel> Plan<'_, R, M> {
    #[inline]
    fn global(&self, r: usize) -> usize {
        self.subset.map_or(r, |ids| ids[r] as usize)
    }

    /// `|Ω_c|` of row `r`, summed over shards.
    fn row_len(&self, r: usize) -> u64 {
        let c = self.global(r);
        self.shards.iter().map(|s| s.row_len(c) as u64).sum()
    }

    /// Row `r`'s canonical gain over the users outside `covered`: class
    /// counts summed across shards into `class` (left cleared).
    fn gain(&self, r: usize, covered: &[Bitset], class: &mut [u32]) -> f64 {
        let c = self.global(r);
        for (shard, cov) in self.shards.iter().zip(covered) {
            for o in shard.row(c) {
                if !cov.contains(o) {
                    class[shard.class(o) as usize] += 1;
                }
            }
        }
        let gain = canonical_gain_model(class, self.model);
        class.fill(0);
        gain
    }

    /// Marks row `r`'s users covered in every shard.
    fn cover(&self, r: usize, covered: &mut [Bitset]) {
        let c = self.global(r);
        for (shard, cov) in self.shards.iter().zip(covered) {
            for o in shard.row(c) {
                cov.insert(o);
            }
        }
    }
}

/// The picks of one selection, in selection-row space.
#[derive(Default)]
struct Picks {
    selected: Vec<u32>,
    gains: Vec<f64>,
    total: f64,
    stats: SelectionStats,
}

impl Picks {
    fn push(&mut self, r: usize, gain: f64) {
        // lint:allow(narrowing-cast): r indexes the candidate array, whose length fits the u32 id space
        self.selected.push(r as u32);
        self.gains.push(gain);
        self.total += gain;
    }
}

/// Greedy top-`k` over the users partitioned into `shards`: the one
/// selector every path runs. `counts` is the full candidate set's
/// [`class_counts`] when the caller already holds it (the decremental
/// selector then copies its rows instead of counting; the other selectors
/// only read its stride); `None` makes the decremental selector count
/// privately.
///
/// With [`SelectOpts::subset`], selection ranges over those candidates
/// only — exactly like solving the sub-instance — and the returned ids are
/// global. The [`SelectionStats`] are those of the (sub-)instance at any
/// shard or thread count; the [`GatherStats`] describe the execution.
///
/// # Examples
/// ```
/// use mc2ls_core::algorithms::Selector;
/// use mc2ls_core::{select, GatherScratch, InfluenceSets, SelectOpts, SetRows};
/// use mc2ls_influence::Model;
///
/// // Two candidates over three users; user 2 is contested by one competitor.
/// let sets = InfluenceSets::new(vec![vec![0, 1], vec![1, 2]], vec![0, 0, 1]);
/// let rows = [SetRows { sets: &sets, inverted: None }];
/// let opts = SelectOpts {
///     selector: Selector::Greedy,
///     model: &Model::Cumulative,
///     threads: 1,
///     subset: None,
/// };
/// let (sol, _, _) = select(&rows, None, 1, &opts, &mut GatherScratch::new());
/// assert_eq!(sol.selected, vec![0]); // two uncontested users beat 1 + ½
/// assert!((sol.cinf - 2.0).abs() < 1e-12);
/// ```
///
/// # Panics
/// Panics when `k` exceeds the candidates in play, `threads == 0`, a
/// subset id is out of range, or the decremental selector runs over rows
/// without an inverted CSR.
pub fn select<R: Rows, M: CompetitionModel + Sync>(
    shards: &[R],
    counts: Option<&ClassCounts>,
    k: usize,
    opts: &SelectOpts<'_, M>,
    scratch: &mut GatherScratch,
) -> (Solution, SelectionStats, GatherStats) {
    assert!(opts.threads >= 1, "need at least one worker thread");
    let n_candidates = shards.first().map_or(0, R::n_candidates);
    let n = opts.subset.map_or(n_candidates, <[u32]>::len);
    assert!(k <= n, "k = {k} exceeds the number of candidates ({n})");
    let total: usize = match opts.subset {
        None => shards.iter().map(R::n_entries).sum(),
        Some(ids) => shards
            .iter()
            .map(|s| ids.iter().map(|&c| s.row_len(c as usize)).sum::<usize>())
            .sum(),
    };
    let selector = resolve(opts.selector, total, n, k);
    let workers = opts.threads.min(shards.len()).max(1);
    let mut gather = GatherStats {
        // lint:allow(narrowing-cast): shard counts are operator-configured small integers
        shards: shards.len() as u32,
        // lint:allow(narrowing-cast): workers <= shards
        workers: workers as u32,
        // lint:allow(narrowing-cast): k <= n_candidates, which fits the u32 id space
        rounds: k as u32,
        shared_epoch: counts.is_some(),
        ..GatherStats::default()
    };
    let private;
    let counts = match counts {
        None if selector == Selector::Decremental => {
            private = class_counts(shards, n_candidates, opts.threads);
            Some(&private)
        }
        given => given,
    };
    let plan = Plan {
        shards,
        subset: opts.subset,
        model: opts.model,
        n_classes: counts.map_or_else(
            || shards.iter().map(R::n_classes).max().unwrap_or(1),
            |c| c.stride,
        ),
    };

    scratch.reset(n, shards);
    let mut picks = Picks::default();
    match (selector, counts) {
        (Selector::Greedy, _) => rescan(&plan, k, scratch, &mut picks),
        (Selector::LazyGreedy, _) => {
            celf(&plan, k, opts.threads, total as u64, scratch, &mut picks);
        }
        (Selector::Decremental, Some(counts)) => {
            picks.stats.inverted_entries = total as u64;
            picks.stats.users_scanned = total as u64;
            decremental(&plan, counts, k, workers, scratch, &mut picks, &mut gather);
        }
        // lint:allow(panic-propagation): resolve() maps Auto to a concrete selector and the decremental arm always has counts
        _ => unreachable!("selector resolved and decremental counts materialised above"),
    }

    let Picks {
        mut selected,
        gains,
        total: cinf,
        mut stats,
    } = picks;
    stats.covered_users = scratch.covered.iter().map(|b| b.count_ones() as u64).sum();
    if let Some(ids) = opts.subset {
        for id in &mut selected {
            *id = ids[*id as usize];
        }
    }
    (
        Solution {
            selected,
            marginal_gains: gains,
            cinf,
        },
        stats,
        gather,
    )
}

/// The paper's greedy: re-evaluate every remaining row each round.
fn rescan<R: Rows, M: CompetitionModel>(
    plan: &Plan<'_, R, M>,
    k: usize,
    scratch: &mut GatherScratch,
    picks: &mut Picks,
) {
    let GatherScratch { taken, covered, .. } = scratch;
    let mut class = vec![0u32; plan.n_classes];
    for round in 0..k {
        let mut best: Option<(usize, f64)> = None;
        for (r, &already) in taken.iter().enumerate() {
            if already {
                continue;
            }
            let gain = plan.gain(r, covered, &mut class);
            let len = plan.row_len(r);
            picks.stats.gain_evals += 1;
            picks.stats.users_scanned += len;
            if round > 0 {
                picks.stats.users_rescanned += len;
            }
            match best {
                // Strict `>` keeps the smallest id on ties.
                Some((_, g)) if gain <= g => {}
                _ => best = Some((r, gain)),
            }
        }
        // lint:allow(panic-path): select() validates k <= n, so an untaken row always remains
        let (r, gain) = best.expect("k <= n guarantees a candidate remains");
        taken[r] = true;
        picks.push(r, gain);
        plan.cover(r, covered);
    }
}

/// CELF lazy greedy: a popped entry evaluated this round is the maximum,
/// a stale one is re-evaluated and pushed back. The seed (every row's
/// full cinf) fans out over `threads` workers, stitched in row order.
fn celf<R: Rows, M: CompetitionModel + Sync>(
    plan: &Plan<'_, R, M>,
    k: usize,
    threads: usize,
    total: u64,
    scratch: &mut GatherScratch,
    picks: &mut Picks,
) {
    let GatherScratch {
        taken,
        heap,
        covered,
        ..
    } = scratch;
    let n = taken.len();
    let uncovered: &[Bitset] = covered;
    let initial: Vec<f64> = crate::parallel::map_items(n, threads, |r| {
        plan.gain(r, uncovered, &mut vec![0u32; plan.n_classes])
    });
    picks.stats.gain_evals += n as u64;
    picks.stats.users_scanned += total;
    picks.stats.heap_pushes += n as u64;
    heap.extend(initial.into_iter().enumerate().map(|(r, gain)| Entry {
        gain,
        // lint:allow(narrowing-cast): r indexes the candidate array, whose length fits the u32 id space
        cand: r as u32,
        version: 0,
    }));

    let mut class = vec![0u32; plan.n_classes];
    // lint:allow(narrowing-cast): k <= n_candidates, which fits the u32 id space
    for round in 1..=k as u32 {
        loop {
            // lint:allow(panic-path): each untaken row keeps one entry in the heap and k <= n is validated
            let top = heap.pop().expect("heap cannot be empty while k <= n");
            let r = top.cand as usize;
            if top.version == round - 1 {
                // Fresh enough: by submodularity no stale entry below can
                // exceed it, and any equal-gain fresh entry with a smaller
                // id would have sorted above it.
                picks.push(r, top.gain);
                plan.cover(r, covered);
                break;
            }
            let fresh = plan.gain(r, covered, &mut class);
            let len = plan.row_len(r);
            picks.stats.gain_evals += 1;
            picks.stats.users_scanned += len;
            picks.stats.users_rescanned += len;
            picks.stats.heap_pushes += 1;
            heap.push(Entry {
                gain: fresh,
                cand: top.cand,
                version: round - 1,
            });
        }
    }
}

/// Decremental greedy: every row keeps its per-class counts of uncovered
/// users. Picking a row scatters over the shards — each covers its users
/// of the row and emits one `(row, class)` decrement per affected untaken
/// row from its inverted rows — and the gather applies the events in shard
/// order. Each affected row then re-materialises its canonical gain once;
/// a gain-ordered lazy-bucket heap (entries invalidated by a per-row
/// version, the current version re-pushed on every update) replaces the
/// per-round argmax, and the decrement total over all `k` rounds never
/// exceeds one pass over the inverted CSR.
fn decremental<R: Rows, M: CompetitionModel>(
    plan: &Plan<'_, R, M>,
    counts: &ClassCounts,
    k: usize,
    workers: usize,
    scratch: &mut GatherScratch,
    picks: &mut Picks,
    gather: &mut GatherStats,
) {
    let GatherScratch {
        version,
        taken,
        stamp,
        touched,
        heap,
        counts: working,
        covered,
    } = scratch;
    let stride = counts.stride;
    working.clear();
    match plan.subset {
        None => working.extend_from_slice(&counts.matrix),
        Some(ids) => {
            for &c in ids {
                working.extend_from_slice(counts.row(c as usize));
            }
        }
    }
    // Subset selections remap the scatter's global candidate ids to rows.
    let pos_of: Option<Vec<u32>> = plan.subset.map(|ids| {
        let mut map = vec![u32::MAX; plan.shards.first().map_or(0, R::n_candidates)];
        for (i, &c) in ids.iter().enumerate() {
            // lint:allow(narrowing-cast): i < n <= n_candidates, which fits the u32 id space
            map[c as usize] = i as u32;
        }
        map
    });

    // Seed the lazy-bucket heap with every row's canonical cinf.
    let n = taken.len();
    for r in 0..n {
        heap.push(Entry {
            gain: canonical_gain_model(&working[r * stride..(r + 1) * stride], plan.model),
            // lint:allow(narrowing-cast): r indexes the candidate array, whose length fits the u32 id space
            cand: r as u32,
            version: 0,
        });
    }
    picks.stats.gain_evals += n as u64;
    picks.stats.heap_pushes += n as u64;

    // lint:allow(narrowing-cast): k <= n_candidates, which fits the u32 id space
    for round in 0..k as u32 {
        // Pop until the entry is current. Every untaken row always has
        // exactly one entry carrying its latest version (seeded above,
        // re-pushed on every update), so the first current entry is the
        // true maximum under the shared (gain, smaller-id) order.
        let (r, gain) = loop {
            // lint:allow(panic-path): every untaken row re-pushes its current-version entry before this pop
            let top = heap.pop().expect("a current entry exists per candidate");
            let r = top.cand as usize;
            if taken[r] || top.version != version[r] {
                continue;
            }
            break (r, top.gain);
        };
        taken[r] = true;
        picks.push(r, gain);

        // Scatter: shards partition the users, so the per-shard event
        // streams are disjoint slices of the serial decrement stream.
        let results = scatter_round(
            plan.shards,
            covered,
            plan.global(r),
            pos_of.as_deref(),
            taken,
            workers,
        );

        // Gather: apply events in shard order. The count updates commute
        // (integer decrements) and `touched` membership is order-stamped,
        // so any scatter schedule yields the same refreshed gains.
        touched.clear();
        let mut round_max_ns = 0u64;
        for (events, busy_ns) in results {
            gather.busy_ns += busy_ns;
            round_max_ns = round_max_ns.max(busy_ns);
            gather.scatter_events += events.len() as u64;
            for (row, w) in events {
                let ru = row as usize;
                working[ru * stride + w as usize] -= 1;
                picks.stats.gain_updates += 1;
                if stamp[ru] != round {
                    stamp[ru] = round;
                    touched.push(row);
                }
            }
        }
        gather.critical_path_ns += round_max_ns;

        // Refresh: one canonical re-materialisation and one heap push per
        // affected row; older entries die by version.
        for &row in touched.iter() {
            let ru = row as usize;
            version[ru] += 1;
            heap.push(Entry {
                gain: canonical_gain_model(&working[ru * stride..(ru + 1) * stride], plan.model),
                cand: row,
                version: version[ru],
            });
            picks.stats.gain_evals += 1;
            picks.stats.heap_pushes += 1;
        }
    }
}

/// One shard's scatter for picked candidate `c` (global id): cover the
/// shard's not-yet covered users of `Ω_c` and emit one `(row, class)`
/// decrement event per affected untaken row. `pos_of` (subset selections)
/// maps global candidate ids to rows, `u32::MAX` marking non-members.
fn scatter_one<R: Rows>(
    shard: &R,
    covered: &mut Bitset,
    c: usize,
    pos_of: Option<&[u32]>,
    taken: &[bool],
) -> (Vec<(u32, u32)>, u64) {
    let t = Instant::now();
    let mut events = Vec::new();
    for o in shard.row(c) {
        if covered.contains(o) {
            continue;
        }
        covered.insert(o);
        let w = shard.class(o);
        for c2 in shard.inverted_row(o) {
            let row = match pos_of {
                Some(map) => {
                    let p = map[c2 as usize];
                    if p == u32::MAX {
                        continue;
                    }
                    p
                }
                None => c2,
            };
            if taken[row as usize] {
                continue;
            }
            events.push((row, w));
        }
    }
    // Truncation-safe: a scatter pass lasts far below u64 nanoseconds.
    (events, t.elapsed().as_nanos() as u64)
}

/// Scatters one round across all shards on up to `workers` threads,
/// returning per-shard `(events, busy_ns)` **in shard order** (contiguous
/// shard chunks, stitched in chunk order — the event stream any worker
/// count produces is identical).
fn scatter_round<R: Rows>(
    shards: &[R],
    covered: &mut [Bitset],
    c: usize,
    pos_of: Option<&[u32]>,
    taken: &[bool],
    workers: usize,
) -> Vec<(Vec<(u32, u32)>, u64)> {
    let n_shards = shards.len();
    let workers = workers.min(n_shards).max(1);
    if workers == 1 {
        return shards
            .iter()
            .zip(covered.iter_mut())
            .map(|(shard, cov)| scatter_one(shard, cov, c, pos_of, taken))
            .collect();
    }
    let chunk = n_shards.div_ceil(workers);
    let mut out = Vec::with_capacity(n_shards);
    std::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .chunks(chunk)
            .zip(covered.chunks_mut(chunk))
            .map(|(part, covs)| {
                scope.spawn(move || {
                    part.iter()
                        .zip(covs.iter_mut())
                        .map(|(shard, cov)| scatter_one(shard, cov, c, pos_of, taken))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            // lint:allow(panic-path): join only fails when the worker panicked; re-raising on the spawner is intended
            out.extend(h.join().expect("scatter worker panicked"));
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::run_selector;

    /// The paper's running example (Examples 1/3/4).
    fn paper_sets() -> InfluenceSets {
        InfluenceSets::new(vec![vec![0, 1], vec![1, 3], vec![0, 2]], vec![1, 2, 0, 1])
    }

    fn rescan_of(sets: &InfluenceSets, k: usize) -> Solution {
        run_selector(Selector::Greedy, sets, k, 1).0
    }

    /// All selectors on the same instance, as (name, solution) pairs.
    fn all_selectors(sets: &InfluenceSets, k: usize) -> Vec<(&'static str, Solution)> {
        let run = |selector, threads| run_selector(selector, sets, k, threads).0;
        vec![
            ("rescan", run(Selector::Greedy, 1)),
            ("celf", run(Selector::LazyGreedy, 1)),
            ("celf-t4", run(Selector::LazyGreedy, 4)),
            ("decremental", run(Selector::Decremental, 1)),
            ("decremental-t4", run(Selector::Decremental, 4)),
        ]
    }

    #[test]
    fn example4_greedy_trace() {
        // Paper Example 4: first pick c₃ (cinf 3/2) and remove {o₁, o₃};
        // in round two c₂ retains o₂, o₄ (1/3 + 1/2 = 5/6) and beats c₁,
        // so the final result is {c₃, c₂}.
        let s = paper_sets();
        let sol = rescan_of(&s, 2);
        assert_eq!(sol.selected, vec![2, 1]);
        assert!((sol.marginal_gains[0] - 1.5).abs() < 1e-12);
        assert!((sol.marginal_gains[1] - 5.0 / 6.0).abs() < 1e-12);
        assert!((sol.cinf - (1.5 + 5.0 / 6.0)).abs() < 1e-12);
    }

    #[test]
    fn example4_selection_stats_are_pinned() {
        // Recorded from the per-selector implementations this selector
        // replaced; any drift in a work counter is a regression.
        // Columns: gain_evals, users_scanned, users_rescanned, gain_updates,
        // inverted_entries, heap_pushes, covered_users.
        let s = paper_sets();
        let cases = [
            (1, Selector::Greedy, [3, 6, 0, 0, 0, 0, 2]),
            (1, Selector::LazyGreedy, [3, 6, 0, 0, 0, 3, 2]),
            (1, Selector::Decremental, [4, 6, 0, 1, 6, 4, 2]),
            (1, Selector::Auto, [3, 6, 0, 0, 0, 3, 2]),
            (2, Selector::Greedy, [5, 10, 4, 0, 0, 0, 4]),
            (2, Selector::LazyGreedy, [5, 10, 4, 0, 0, 5, 4]),
            (2, Selector::Decremental, [5, 6, 0, 2, 6, 5, 4]),
            (2, Selector::Auto, [5, 6, 0, 2, 6, 5, 4]),
            (3, Selector::Greedy, [6, 12, 6, 0, 0, 0, 4]),
            (3, Selector::LazyGreedy, [6, 12, 6, 0, 0, 6, 4]),
            (3, Selector::Decremental, [5, 6, 0, 2, 6, 5, 4]),
            (3, Selector::Auto, [5, 6, 0, 2, 6, 5, 4]),
        ];
        for (k, selector, [evals, scanned, rescanned, updates, inverted, pushes, covered]) in cases
        {
            let want = SelectionStats {
                gain_evals: evals,
                users_scanned: scanned,
                users_rescanned: rescanned,
                gain_updates: updates,
                inverted_entries: inverted,
                heap_pushes: pushes,
                covered_users: covered,
            };
            for threads in [1usize, 4] {
                let (_, got) = run_selector(selector, &s, k, threads);
                assert_eq!(got, want, "k={k} {selector:?} t={threads}");
            }
        }
    }

    #[test]
    fn all_selectors_match_on_paper_example() {
        let s = paper_sets();
        let reference = rescan_of(&s, 2);
        for (name, got) in all_selectors(&s, 2) {
            assert_eq!(reference.selected, got.selected, "{name}");
            assert_eq!(reference.cinf.to_bits(), got.cinf.to_bits(), "{name}");
        }
    }

    #[test]
    fn all_selectors_bit_identical_on_many_random_instances() {
        // Deterministic pseudo-random instances exercising tie cases.
        let mut seed = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _case in 0..50 {
            let n_users = 1 + (next() % 30) as usize;
            let n_cands = 1 + (next() % 12) as usize;
            let f_count: Vec<u32> = (0..n_users).map(|_| (next() % 4) as u32).collect();
            let omega_c: Vec<Vec<u32>> = (0..n_cands)
                .map(|_| {
                    let mut v: Vec<u32> = (0..n_users as u32).filter(|_| next() % 3 == 0).collect();
                    v.sort_unstable();
                    v.dedup();
                    v
                })
                .collect();
            let sets = InfluenceSets::new(omega_c, f_count);
            let k = 1 + (next() as usize % n_cands);
            let reference = rescan_of(&sets, k);
            for (name, got) in all_selectors(&sets, k) {
                assert_eq!(reference.selected, got.selected, "{name} k={k}");
                let want_bits: Vec<u64> = reference
                    .marginal_gains
                    .iter()
                    .map(|g| g.to_bits())
                    .collect();
                let got_bits: Vec<u64> = got.marginal_gains.iter().map(|g| g.to_bits()).collect();
                assert_eq!(want_bits, got_bits, "{name} gains k={k}");
                assert_eq!(reference.cinf.to_bits(), got.cinf.to_bits(), "{name} k={k}");
            }
        }
    }

    #[test]
    fn decremental_stats_are_thread_count_invariant() {
        let s = paper_sets();
        let (_, want) = run_selector(Selector::Decremental, &s, 3, 1);
        for threads in [2usize, 4, 7] {
            let (_, got) = run_selector(Selector::Decremental, &s, 3, threads);
            assert_eq!(want, got, "threads={threads}");
        }
        let (_, lazy1) = run_selector(Selector::LazyGreedy, &s, 3, 1);
        let (_, lazy4) = run_selector(Selector::LazyGreedy, &s, 3, 4);
        assert_eq!(lazy1, lazy4);
    }

    #[test]
    fn decremental_update_work_is_bounded_by_one_inverted_pass() {
        let s = paper_sets();
        let (_, stats) = run_selector(Selector::Decremental, &s, 3, 1);
        assert!(stats.gain_updates <= stats.inverted_entries);
        assert_eq!(stats.inverted_entries, s.total_influences() as u64);
        assert_eq!(stats.users_rescanned, 0);
        assert_eq!(stats.covered_users, 4);
    }

    #[test]
    fn gains_are_non_increasing() {
        let s = paper_sets();
        let sol = rescan_of(&s, 3);
        for w in sol.marginal_gains.windows(2) {
            assert!(w[0] >= w[1] - 1e-12, "greedy gains must be non-increasing");
        }
    }

    #[test]
    fn covers_empty_candidates_gracefully() {
        let s = InfluenceSets::new(vec![vec![], vec![0]], vec![0]);
        for (name, sol) in all_selectors(&s, 2) {
            assert_eq!(sol.selected_sorted(), vec![0, 1], "{name}");
            assert!((sol.cinf - 1.0).abs() < 1e-12, "{name}");
        }
    }

    #[test]
    fn tie_break_prefers_smaller_id() {
        // Two identical candidates: every implementation must pick id 0.
        let s = InfluenceSets::new(vec![vec![0], vec![0]], vec![0]);
        for (name, sol) in all_selectors(&s, 1) {
            assert_eq!(sol.selected, vec![0], "{name}");
        }
    }

    #[test]
    fn class_counts_are_shard_and_thread_invariant() {
        let s = paper_sets();
        let whole = class_counts(
            &[SetRows {
                sets: &s,
                inverted: None,
            }],
            3,
            1,
        );
        assert_eq!(whole.stride, 3);
        assert_eq!(whole.row(2), [1, 1, 0]);
        let starts = crate::shard::shard_starts(s.n_users(), 3);
        let parts = crate::shard::split_sets(&s, &starts);
        let rows: Vec<SetRows<'_>> = parts
            .iter()
            .map(|sets| SetRows {
                sets,
                inverted: None,
            })
            .collect();
        for threads in [1usize, 2, 5] {
            assert_eq!(class_counts(&rows, 3, threads), whole, "t={threads}");
        }
    }
}
