//! Incremental maintenance of the influence state under a live user
//! stream: the [`UpdateEngine`] applies [`UserUpdate`] events
//! (insert/delete/move) against the `InfluenceSets`/`InvertedIndex`/count
//! state without rebuilding it, so per-event work is bounded by the small
//! **flip set** of sites whose `Pr_v(o) ≥ τ` decision can actually change
//! — never by `|C|·|Ω|`.
//!
//! # Flip-set bound
//!
//! An event only touches one user `o`, so the only decisions that can flip
//! are the pairs `(site, o)` — the event's row in the inverted orientation.
//! Two nested bounds shrink that row before the verification kernel runs:
//!
//! 1. **MBR / minimum-influence radius.** With `r = |o|` positions, even
//!    `r` positions at the same distance `d` cannot reach `τ` once
//!    `d > mMR(τ, PF, r)` ([`min_max_radius`], paper Corollary 2). A site
//!    whose distance to the event user's MBR exceeds that radius (plus a
//!    relative slack of `1e-6`, far above any rounding in the analytic
//!    inverse) is pruned with **zero** PF evaluations.
//! 2. **η position-count threshold in kernel arithmetic.** For survivors,
//!    one PF evaluation at the MBR distance `d_min` bounds the user's
//!    reach: `Pr_v(o) ≤ 1 − (1 − PF(d_min))^r`. This is exactly the
//!    `r < η(τ, PF, d_min)` test ([`crate::update`] ↔
//!    [`mc2ls_influence::eta_count`]), but evaluated through the **same
//!    left-folded product the kernel computes** — each true factor
//!    `1 − PF(dᵢ)` is ≥ the bound factor (distances are ≥ `d_min` and PF
//!    is non-increasing), and IEEE multiplication is monotone, so a
//!    pruned site is one the kernel itself would reject. No analytic
//!    `powf`/`ln` roundoff can ever disagree with verification.
//!
//! Sites inside both bounds are re-verified with the blocked vectorised
//! kernel over a single-user [`PositionBlocks`] layout (per-block MBR and
//! cumulative bounds apply inside), whose decisions are identical to the
//! plain exact kernel in every mode.
//!
//! Bound 1 assumes the analytic radius is consistent with `PF` at the
//! `1e-6` scale — true for every strictly decreasing PF in this workspace;
//! bound 2 and the kernel carry the bit-exactness guarantee on their own.
//!
//! # Buffer / tombstone layout
//!
//! The compacted CSRs stay immutable between compactions. Diffs live in an
//! append-side log keyed by user: `overrides[o]` holds `o`'s **current**
//! sorted candidate row (replacing its compacted inverted row), and a dead
//! `alive[o]` flag is the tombstone. The per-candidate weight-class count
//! matrix — the only state greedy selection reads — is patched **in
//! place** on every event (integer decrements/increments, no drift), so a
//! followup [`UpdateEngine::solve`] seeds the decremental selector
//! directly from the patched counts. [`UpdateEngine::compact`] folds the
//! log back into flat CSRs (dropping tombstones, densely remapping ids in
//! slot order) and is the only O(instance) step; nothing ever re-verifies.

use crate::algorithms::Selector;
use crate::{
    class_counts, select, ClassCounts, GatherScratch, InfluenceSets, InvertedIndex, Problem,
    SelectOpts, SelectionStats, SetRows, Solution,
};
use mc2ls_geo::Point;
use mc2ls_influence::{
    influences_blocked_counted, influences_blocked_exact_counted, influences_counted,
    min_max_radius, resolve_block_size, BlockCounters, BlockScratch, EvalCounter, MovingUser,
    PositionBlocks, ProbabilityFunction,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// One event of the live user stream.
#[derive(Debug, Clone, PartialEq)]
pub enum UserUpdate {
    /// A new user appears with an initial trajectory.
    Insert {
        /// The user's position multiset (must be non-empty and finite).
        positions: Vec<Point>,
    },
    /// User `user` leaves the instance.
    Delete {
        /// Engine-internal id of the user to remove.
        user: u32,
    },
    /// User `user`'s trajectory is replaced wholesale (a check-in appends
    /// one position to the current trajectory and moves).
    Move {
        /// Engine-internal id of the user to update.
        user: u32,
        /// The replacement position multiset (non-empty, finite).
        positions: Vec<Point>,
    },
}

/// Why an event was rejected. Rejected events leave the engine unchanged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateError {
    /// The user id was never allocated.
    UnknownUser(u32),
    /// The user id refers to an already deleted user.
    DeadUser(u32),
    /// Insert/Move carried an empty position list.
    EmptyPositions,
    /// Insert/Move carried a non-finite coordinate.
    NonFinitePosition,
}

impl fmt::Display for UpdateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateError::UnknownUser(o) => write!(f, "unknown user id {o}"),
            UpdateError::DeadUser(o) => write!(f, "user {o} was already deleted"),
            UpdateError::EmptyPositions => write!(f, "a user needs at least one position"),
            UpdateError::NonFinitePosition => write!(f, "positions must be finite"),
        }
    }
}

impl std::error::Error for UpdateError {}

/// Work counters accumulated over the engine's lifetime.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct UpdateStats {
    /// Events applied (rejected events are not counted).
    pub events: u64,
    /// Inserts among [`UpdateStats::events`].
    pub inserts: u64,
    /// Deletes among [`UpdateStats::events`].
    pub deletes: u64,
    /// Moves among [`UpdateStats::events`].
    pub moves: u64,
    /// Sites (candidates + facilities) excluded by the flip-set bounds
    /// without running the verification kernel.
    pub sites_pruned: u64,
    /// Sites re-verified with the kernel.
    pub sites_checked: u64,
    /// Site decisions that actually flipped (row symmetric difference for
    /// moves; the full row for inserts/deletes).
    pub flipped: u64,
    /// PF evaluations spent (η bound evaluations + kernel evaluations).
    pub prob_evals: u64,
    /// Compactions folding the log back into flat CSRs.
    pub compactions: u64,
}

/// Scratch shared by the single-user verification calls of one event.
struct EventScratch {
    bounds: BlockScratch,
    evals: EvalCounter,
    blocks: BlockCounters,
}

/// Live influence state under insert/delete/move events. See the module
/// docs for the flip-set bounds and the buffer layout. Between
/// compactions, ids are **slot ids**: dense at construction, inserts
/// append new slots, deletes tombstone theirs. [`UpdateEngine::compact`]
/// renumbers the live slots densely (in slot order) and returns the remap
/// so external id maps can follow.
#[derive(Clone)]
pub struct UpdateEngine<PF: ProbabilityFunction + Clone> {
    pf: PF,
    tau: f64,
    pf_exact: bool,
    /// Resolved verification block size (`None` = plain kernel), fixed at
    /// construction — block size never changes decisions.
    resolved: Option<usize>,
    threads: usize,
    candidates: Vec<Point>,
    facilities: Vec<Point>,
    /// Per-slot trajectories; tombstoned slots keep their last value.
    users: Vec<MovingUser>,
    /// Tombstone flags, one per slot.
    alive: Vec<bool>,
    /// Compacted forward CSR (candidate → live users at last compaction).
    base: InfluenceSets,
    /// Compacted inverted CSR (user → candidates at last compaction).
    inverted: InvertedIndex,
    /// Append-side log: a slot's current candidate row when it diverged
    /// from the compacted CSR (always sorted; inserted slots always
    /// present). Deterministically ordered — never a hash map.
    overrides: BTreeMap<u32, Vec<u32>>,
    /// Current `|F_o|` per slot.
    f_count: Vec<u32>,
    /// Candidate × weight-class count matrix, patched in place. Its
    /// stride grows when a live `|F_o|` exceeds it and narrows back at
    /// compaction.
    counts: ClassCounts,
    dirty: bool,
    stats: UpdateStats,
}

impl<PF: ProbabilityFunction + Clone> UpdateEngine<PF> {
    /// Builds the engine from a problem, computing the initial influence
    /// state with the IQuad-tree pipeline. Prefer
    /// [`UpdateEngine::from_sets`] when the sets already exist.
    ///
    /// # Panics
    /// Panics when `threads == 0`.
    pub fn new(problem: &Problem<PF>, threads: usize) -> Self {
        let (sets, _, _) = crate::algorithms::influence_sets_threaded(
            problem,
            crate::Method::Iqt(crate::IqtConfig::default()),
            threads,
        );
        Self::from_sets(problem, sets, threads)
    }

    /// Wraps an already computed [`InfluenceSets`] for `problem` (any
    /// method — they all produce identical sets).
    ///
    /// # Panics
    /// Panics when the sets' shape disagrees with the problem or when
    /// `threads == 0`.
    pub fn from_sets(problem: &Problem<PF>, sets: InfluenceSets, threads: usize) -> Self {
        assert!(threads >= 1, "need at least one worker thread");
        assert_eq!(sets.n_users(), problem.n_users(), "sets/problem user count");
        assert_eq!(
            sets.n_candidates(),
            problem.n_candidates(),
            "sets/problem candidate count"
        );
        let counts = class_counts(&[owned_rows(&sets)], sets.n_candidates(), threads);
        let inverted = InvertedIndex::build(&sets);
        UpdateEngine {
            pf: problem.pf.clone(),
            tau: problem.tau,
            pf_exact: problem.pf_exact,
            resolved: resolve_block_size(&problem.users, problem.block_size),
            threads,
            candidates: problem.candidates.clone(),
            facilities: problem.facilities.clone(),
            users: problem.users.clone(),
            alive: vec![true; problem.n_users()],
            f_count: sets.f_count.clone(),
            base: sets,
            inverted,
            overrides: BTreeMap::new(),
            counts,
            dirty: false,
            stats: UpdateStats::default(),
        }
    }

    /// Applies one event, returning the affected slot id (the freshly
    /// allocated slot for inserts). Rejected events change nothing.
    pub fn apply(&mut self, event: UserUpdate) -> Result<u32, UpdateError> {
        match event {
            UserUpdate::Insert { positions } => self.insert(positions),
            UserUpdate::Delete { user } => self.delete(user),
            UserUpdate::Move { user, positions } => self.move_to(user, positions),
        }
    }

    fn insert(&mut self, positions: Vec<Point>) -> Result<u32, UpdateError> {
        let user = validated_user(positions)?;
        let (row, w) = self.verify_user(&user);
        assert!(
            self.users.len() < u32::MAX as usize,
            "user slot space exhausted"
        );
        // lint:allow(narrowing-cast): guarded by the slot-space assert above
        let o = self.users.len() as u32;
        self.stats.flipped += row.len() as u64;
        self.ensure_classes(w as usize);
        for &c in &row {
            *self.count_mut(c, w) += 1;
        }
        self.users.push(user);
        self.alive.push(true);
        self.f_count.push(w);
        self.overrides.insert(o, row);
        self.stats.events += 1;
        self.stats.inserts += 1;
        self.dirty = true;
        Ok(o)
    }

    fn delete(&mut self, o: u32) -> Result<u32, UpdateError> {
        self.check_alive(o)?;
        let old = self.current_row(o).to_vec();
        let w = self.f_count[o as usize];
        for &c in &old {
            *self.count_mut(c, w) -= 1;
        }
        self.stats.flipped += old.len() as u64;
        self.alive[o as usize] = false;
        self.overrides.insert(o, Vec::new());
        self.stats.events += 1;
        self.stats.deletes += 1;
        self.dirty = true;
        Ok(o)
    }

    fn move_to(&mut self, o: u32, positions: Vec<Point>) -> Result<u32, UpdateError> {
        self.check_alive(o)?;
        let user = validated_user(positions)?;
        let (row, w_new) = self.verify_user(&user);
        let old = self.current_row(o).to_vec();
        let w_old = self.f_count[o as usize];
        for &c in &old {
            *self.count_mut(c, w_old) -= 1;
        }
        self.ensure_classes(w_new as usize);
        for &c in &row {
            *self.count_mut(c, w_new) += 1;
        }
        self.stats.flipped += symmetric_difference(&old, &row);
        self.users[o as usize] = user;
        self.f_count[o as usize] = w_new;
        self.overrides.insert(o, row);
        self.stats.events += 1;
        self.stats.moves += 1;
        self.dirty = true;
        Ok(o)
    }

    /// Re-verifies one trajectory against every site, returning its sorted
    /// candidate row and `|F_o|`. Only flip-set survivors reach the
    /// kernel; see the module docs for the soundness argument.
    fn verify_user(&mut self, user: &MovingUser) -> (Vec<u32>, u32) {
        let r = user.len();
        let nir = min_max_radius(&self.pf, self.tau, r);
        let mut row = Vec::new();
        let mut w = 0u32;
        let Some(radius) = nir else {
            // Even r coincident positions cannot reach τ: every decision
            // is a non-influence, with zero evaluations.
            self.stats.sites_pruned += (self.candidates.len() + self.facilities.len()) as u64;
            return (row, w);
        };
        let slack = radius + 1e-6 * (1.0 + radius);
        let single = [user.clone()];
        let blocks = self.resolved.map(|bs| PositionBlocks::build(&single, bs));
        let mut scratch = EventScratch {
            bounds: BlockScratch::new(),
            evals: EvalCounter::new(),
            blocks: BlockCounters::new(),
        };
        let candidates = std::mem::take(&mut self.candidates);
        for (c, site) in candidates.iter().enumerate() {
            if self.site_influenced(site, user, r, slack, &blocks, &mut scratch) {
                // lint:allow(narrowing-cast): c indexes the candidate array, whose length fits the u32 id space
                row.push(c as u32);
            }
        }
        self.candidates = candidates;
        // The pipeline's irrelevant-user rule: a user outside every Ω_c
        // contributes to no gain, so its |F_o| is canonically zero and the
        // facility verifications are skipped — the from-scratch rebuild
        // produces the same representation.
        if row.is_empty() {
            self.stats.sites_pruned += self.facilities.len() as u64;
            self.stats.prob_evals += scratch.evals.get();
            return (row, 0);
        }
        let facilities = std::mem::take(&mut self.facilities);
        for site in &facilities {
            if self.site_influenced(site, user, r, slack, &blocks, &mut scratch) {
                w += 1;
            }
        }
        self.facilities = facilities;
        self.stats.prob_evals += scratch.evals.get();
        (row, w)
    }

    /// The flip-set bounds plus the kernel, for one (site, user) pair.
    fn site_influenced(
        &mut self,
        site: &Point,
        user: &MovingUser,
        r: usize,
        slack_radius: f64,
        blocks: &Option<PositionBlocks>,
        scratch: &mut EventScratch,
    ) -> bool {
        let d_min = user.mbr().min_distance(site);
        // Bound 1: beyond the slacked minimum-influence radius, no
        // arrangement of r positions reaches τ. Zero evaluations.
        if d_min > slack_radius {
            self.stats.sites_pruned += 1;
            return false;
        }
        // Bound 2: η in kernel arithmetic. Every true factor 1 − PF(dᵢ) is
        // ≥ this one (dᵢ ≥ d_min, PF non-increasing), and the left fold
        // mirrors the kernel's, so `bound > 1 − τ` implies the kernel's
        // final product also exceeds 1 − τ: it would reject.
        scratch.evals.add(1);
        let keep = 1.0 - self.pf.prob(d_min);
        let mut bound = 1.0f64;
        for _ in 0..r {
            bound *= keep;
        }
        if bound > 1.0 - self.tau {
            self.stats.sites_pruned += 1;
            return false;
        }
        self.stats.sites_checked += 1;
        match blocks {
            Some(b) if self.pf_exact => influences_blocked_exact_counted(
                &self.pf,
                site,
                b,
                0,
                self.tau,
                &mut scratch.bounds,
                &scratch.evals,
                &scratch.blocks,
            ),
            Some(b) => influences_blocked_counted(
                &self.pf,
                site,
                b,
                0,
                self.tau,
                &mut scratch.bounds,
                &scratch.evals,
                &scratch.blocks,
            ),
            None => influences_counted(&self.pf, site, user.positions(), self.tau, &scratch.evals),
        }
    }

    /// Folds the override log and the tombstones back into flat CSRs:
    /// live slots are renumbered densely in slot order, the forward CSR is
    /// rebuilt from the current rows (already sorted — slots are walked in
    /// ascending order), the inverted CSR is rebuilt by one counting sort
    /// and the count matrix narrows back to the canonical class width.
    /// Surviving users move to their new slots; no trajectory is copied.
    /// Returns `remap[old_slot] = new_id` (`u32::MAX` for tombstones), or
    /// `None` when nothing changed since the last compaction.
    pub fn compact(&mut self) -> Option<Vec<u32>> {
        if !self.dirty {
            return None;
        }
        let n_old = self.users.len();
        let mut remap = vec![u32::MAX; n_old];
        let mut f_count = Vec::with_capacity(n_old);
        for (o, slot) in remap.iter_mut().enumerate() {
            if self.alive[o] {
                // lint:allow(narrowing-cast): live count <= slot count, which fits the u32 id space
                *slot = f_count.len() as u32;
                f_count.push(self.f_count[o]);
            }
        }
        let mut alive = self.alive.iter();
        self.users.retain(|_| alive.next() == Some(&true));
        let mut rows: Vec<Vec<u32>> = vec![Vec::new(); self.candidates.len()];
        for (o, &new_id) in remap.iter().enumerate() {
            if !self.alive[o] {
                continue;
            }
            // lint:allow(narrowing-cast): o < n_old <= the u32 slot space
            for &c in self.current_row(o as u32) {
                rows[c as usize].push(new_id);
            }
        }
        self.base = InfluenceSets::new(rows, f_count);
        self.inverted = InvertedIndex::build(&self.base);
        self.alive = vec![true; self.users.len()];
        self.f_count = self.base.f_count.clone();
        self.overrides.clear();
        let target = self.base.n_weight_classes();
        if target != self.counts.stride {
            let n = self.candidates.len();
            let mut next = vec![0u32; n * target];
            for c in 0..n {
                let row = self.counts.row(c);
                debug_assert!(
                    row.iter().skip(target).all(|&x| x == 0),
                    "classes beyond the canonical width must be empty"
                );
                next[c * target..(c + 1) * target].copy_from_slice(&row[..target.min(row.len())]);
            }
            self.counts = ClassCounts {
                matrix: next,
                stride: target,
            };
        }
        debug_assert_eq!(
            self.counts,
            class_counts(&[owned_rows(&self.base)], self.candidates.len(), 1),
            "patched counts must equal a from-scratch recount"
        );
        self.stats.compactions += 1;
        self.dirty = false;
        Some(remap)
    }

    /// Greedy top-`k` over the live state: compacts if dirty (the only
    /// O(instance) step — never a re-verification), then runs the
    /// decremental selector seeded from the patched count matrix.
    /// Bit-identical to any from-scratch selector on the same state.
    ///
    /// # Panics
    /// Panics when `k` exceeds the candidate count.
    pub fn solve(&mut self, k: usize) -> (Solution, SelectionStats) {
        self.compact();
        let rows = [SetRows {
            sets: &self.base,
            inverted: Some(&self.inverted),
        }];
        let opts = SelectOpts {
            selector: Selector::Decremental,
            model: &mc2ls_influence::Model::Cumulative,
            threads: self.threads,
            subset: None,
        };
        let (solution, mut stats, _) = select(
            &rows,
            Some(&self.counts),
            k,
            &opts,
            &mut GatherScratch::new(),
        );
        // The counts were patched in place: no forward-CSR pass ran.
        stats.users_scanned = 0;
        (solution, stats)
    }

    fn check_alive(&self, o: u32) -> Result<(), UpdateError> {
        if o as usize >= self.users.len() {
            return Err(UpdateError::UnknownUser(o));
        }
        if !self.alive[o as usize] {
            return Err(UpdateError::DeadUser(o));
        }
        Ok(())
    }

    /// Slot `o`'s current candidate row: the override when one exists,
    /// otherwise the compacted inverted row.
    fn current_row(&self, o: u32) -> &[u32] {
        match self.overrides.get(&o) {
            Some(row) => row,
            None => self.inverted.candidates_of(o),
        }
    }

    /// The count of candidate `c`'s users in weight class `w`.
    fn count_mut(&mut self, c: u32, w: u32) -> &mut u32 {
        &mut self.counts.matrix[c as usize * self.counts.stride + w as usize]
    }

    /// Grows the count matrix so class `w` exists.
    fn ensure_classes(&mut self, w: usize) {
        let stride = self.counts.stride;
        if w < stride {
            return;
        }
        let wider = w + 1;
        let n = self.candidates.len();
        let mut next = vec![0u32; n * wider];
        for c in 0..n {
            next[c * wider..c * wider + stride].copy_from_slice(self.counts.row(c));
        }
        self.counts = ClassCounts {
            matrix: next,
            stride: wider,
        };
    }

    /// The compacted influence CSR. Call [`UpdateEngine::compact`] first
    /// to fold pending events in.
    pub fn sets(&self) -> &InfluenceSets {
        &self.base
    }

    /// The compacted inverted CSR (stale for slots with pending events).
    pub fn inverted(&self) -> &InvertedIndex {
        &self.inverted
    }

    /// Per-slot trajectories; after a compaction every slot is live.
    pub fn users(&self) -> &[MovingUser] {
        &self.users
    }

    /// Whether slot `o` exists and is live.
    pub fn is_alive(&self, o: u32) -> bool {
        (o as usize) < self.alive.len() && self.alive[o as usize]
    }

    /// Slot `o`'s current trajectory, when live.
    pub fn positions_of(&self, o: u32) -> Option<&[Point]> {
        self.is_alive(o).then(|| self.users[o as usize].positions())
    }

    /// Live (non-tombstoned) user count.
    pub fn n_live(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }

    /// Allocated slot count, tombstones included.
    pub fn n_slots(&self) -> usize {
        self.users.len()
    }

    /// Whether events are pending since the last compaction.
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Lifetime work counters.
    pub fn stats(&self) -> &UpdateStats {
        &self.stats
    }

    /// The candidate sites (fixed for the engine's lifetime).
    pub fn candidates(&self) -> &[Point] {
        &self.candidates
    }
}

/// Validates an event's position list into a [`MovingUser`].
fn validated_user(positions: Vec<Point>) -> Result<MovingUser, UpdateError> {
    if positions.is_empty() {
        return Err(UpdateError::EmptyPositions);
    }
    if positions
        .iter()
        .any(|p| !p.x.is_finite() || !p.y.is_finite())
    {
        return Err(UpdateError::NonFinitePosition);
    }
    Ok(MovingUser::new(positions))
}

/// `|a Δ b|` for two sorted id rows.
fn symmetric_difference(a: &[u32], b: &[u32]) -> u64 {
    let (mut i, mut j, mut out) = (0usize, 0usize, 0u64);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                i += 1;
                out += 1;
            }
            std::cmp::Ordering::Greater => {
                j += 1;
                out += 1;
            }
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    out + (a.len() - i) as u64 + (b.len() - j) as u64
}

/// `sets` as one user partition without its inverted CSR — all counting
/// needs.
fn owned_rows(sets: &InfluenceSets) -> SetRows<'_> {
    SetRows {
        sets,
        inverted: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{influence_sets_threaded, run_selector};
    use crate::{IqtConfig, Method};
    use mc2ls_influence::Sigmoid;

    fn lattice_problem() -> Problem<Sigmoid> {
        // 4 users on a line, 3 candidates, 2 facilities; τ low enough that
        // nearby sites influence.
        let users = vec![
            MovingUser::new(vec![Point::new(0.0, 0.0), Point::new(0.5, 0.0)]),
            MovingUser::new(vec![Point::new(5.0, 0.0)]),
            MovingUser::new(vec![Point::new(10.0, 0.0), Point::new(10.5, 0.5)]),
            MovingUser::new(vec![Point::new(50.0, 50.0)]),
        ];
        let candidates = vec![
            Point::new(0.2, 0.1),
            Point::new(5.1, 0.1),
            Point::new(10.2, 0.2),
        ];
        let facilities = vec![Point::new(0.4, -0.1), Point::new(9.9, 0.1)];
        Problem::new(users, facilities, candidates, 2, 0.6, Sigmoid { rho: 1.0 })
    }

    fn rebuilt_sets(engine: &UpdateEngine<Sigmoid>, problem: &Problem<Sigmoid>) -> InfluenceSets {
        let fresh = Problem::new(
            engine.users().to_vec(),
            problem.facilities.clone(),
            problem.candidates.clone(),
            problem.k,
            problem.tau,
            problem.pf,
        )
        .with_block_size(problem.block_size)
        .with_pf_exact(problem.pf_exact);
        influence_sets_threaded(&fresh, Method::Iqt(IqtConfig::default()), 2).0
    }

    #[test]
    fn insert_then_compact_matches_rebuild() {
        let problem = lattice_problem();
        let mut engine = UpdateEngine::new(&problem, 2);
        let o = engine
            .apply(UserUpdate::Insert {
                positions: vec![Point::new(5.2, 0.0), Point::new(4.9, 0.1)],
            })
            .unwrap();
        assert_eq!(o, 4);
        assert!(engine.is_dirty());
        let remap = engine.compact().unwrap();
        assert_eq!(remap, vec![0, 1, 2, 3, 4]);
        assert_eq!(engine.sets(), &rebuilt_sets(&engine, &problem));
        assert!(engine.compact().is_none(), "second compaction is a no-op");
    }

    #[test]
    fn delete_costs_zero_kernel_checks() {
        let problem = lattice_problem();
        let mut engine = UpdateEngine::new(&problem, 1);
        let before = engine.stats().clone();
        engine.apply(UserUpdate::Delete { user: 1 }).unwrap();
        let after = engine.stats();
        assert_eq!(after.sites_checked, before.sites_checked);
        assert_eq!(after.prob_evals, before.prob_evals);
        assert_eq!(after.deletes, 1);
        engine.compact();
        assert_eq!(engine.sets(), &rebuilt_sets(&engine, &problem));
        assert_eq!(engine.n_live(), 3);
    }

    #[test]
    fn move_matches_rebuild_and_remap_skips_tombstones() {
        let problem = lattice_problem();
        let mut engine = UpdateEngine::new(&problem, 2);
        engine.apply(UserUpdate::Delete { user: 0 }).unwrap();
        engine
            .apply(UserUpdate::Move {
                user: 2,
                positions: vec![Point::new(0.1, 0.0)],
            })
            .unwrap();
        let remap = engine.compact().unwrap();
        assert_eq!(remap, vec![u32::MAX, 0, 1, 2]);
        assert_eq!(engine.sets(), &rebuilt_sets(&engine, &problem));
    }

    #[test]
    fn compaction_moves_untouched_users_without_copying() {
        let problem = lattice_problem();
        let mut engine = UpdateEngine::new(&problem, 1);
        let before: Vec<*const Point> = engine
            .users()
            .iter()
            .map(|u| u.positions().as_ptr())
            .collect();
        for step in [0.1, 0.2] {
            let mut positions = engine.positions_of(0).unwrap().to_vec();
            positions.push(Point::new(step, 0.0));
            engine
                .apply(UserUpdate::Move { user: 0, positions })
                .unwrap();
        }
        engine
            .apply(UserUpdate::Insert {
                positions: vec![Point::new(5.2, 0.0)],
            })
            .unwrap();
        engine.apply(UserUpdate::Delete { user: 1 }).unwrap();
        let remap = engine.compact().unwrap();
        assert_eq!(remap, vec![0, u32::MAX, 1, 2, 3]);
        for old in [2usize, 3] {
            let user = &engine.users()[remap[old] as usize];
            assert_eq!(user.positions().as_ptr(), before[old], "user {old}");
        }
        assert_eq!(engine.sets(), &rebuilt_sets(&engine, &problem));
    }

    #[test]
    fn far_sites_are_pruned_without_evals() {
        let problem = lattice_problem();
        let mut engine = UpdateEngine::new(&problem, 1);
        // A user far away from every site: the whole row prunes on the
        // radius bound, so the only evaluations are the η bounds (at most
        // one per site) — and for a truly remote MBR, none at all.
        engine
            .apply(UserUpdate::Insert {
                positions: vec![Point::new(1e4, 1e4)],
            })
            .unwrap();
        let stats = engine.stats();
        assert_eq!(stats.sites_checked, 0);
        assert_eq!(stats.prob_evals, 0);
        assert_eq!(stats.sites_pruned, 5);
    }

    #[test]
    fn solve_after_events_matches_from_scratch_selection() {
        let problem = lattice_problem();
        let mut engine = UpdateEngine::new(&problem, 2);
        engine
            .apply(UserUpdate::Move {
                user: 3,
                positions: vec![Point::new(0.3, 0.0)],
            })
            .unwrap();
        let (sol, _) = engine.solve(2);
        let rebuilt = rebuilt_sets(&engine, &problem);
        let (want, _) = run_selector(Selector::Decremental, &rebuilt, 2, 1);
        assert_eq!(sol.selected, want.selected);
        assert_eq!(sol.cinf.to_bits(), want.cinf.to_bits());
    }

    #[test]
    fn rejected_events_leave_the_engine_untouched() {
        let problem = lattice_problem();
        let mut engine = UpdateEngine::new(&problem, 1);
        assert_eq!(
            engine.apply(UserUpdate::Delete { user: 99 }),
            Err(UpdateError::UnknownUser(99))
        );
        engine.apply(UserUpdate::Delete { user: 1 }).unwrap();
        assert_eq!(
            engine.apply(UserUpdate::Delete { user: 1 }),
            Err(UpdateError::DeadUser(1))
        );
        assert_eq!(
            engine.apply(UserUpdate::Insert { positions: vec![] }),
            Err(UpdateError::EmptyPositions)
        );
        assert_eq!(
            engine.apply(UserUpdate::Move {
                user: 0,
                positions: vec![Point::new(f64::NAN, 0.0)],
            }),
            Err(UpdateError::NonFinitePosition)
        );
        assert_eq!(engine.stats().events, 1);
        assert!(!engine.is_dirty() || engine.stats().events == 1);
    }

    #[test]
    fn weight_class_growth_and_narrowing() {
        // Moving a user on top of both facilities grows |F_o| beyond the
        // initial class width; deleting it narrows back at compaction.
        let problem = lattice_problem();
        let mut engine = UpdateEngine::new(&problem, 1);
        engine
            .apply(UserUpdate::Move {
                user: 3,
                positions: vec![Point::new(0.4, -0.1), Point::new(9.9, 0.1)],
            })
            .unwrap();
        engine.compact();
        assert_eq!(engine.sets(), &rebuilt_sets(&engine, &problem));
        let (sol, _) = engine.solve(2);
        let (want, _) = run_selector(Selector::Decremental, engine.sets(), 2, 1);
        assert_eq!(sol.selected, want.selected);
        assert_eq!(sol.cinf.to_bits(), want.cinf.to_bits());
    }
}
