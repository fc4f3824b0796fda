//! Live-mode state behind the UPDATE verb: an [`UpdateEngine`] absorbing
//! user-mobility events, and the owned query plane each batch hands the
//! server — no RELOAD, no rebuild, no container.
//!
//! One batch = one epoch. `LiveUpdater::advance` validates the whole
//! batch up front (all-or-nothing: a malformed event rejects the batch
//! before any state changes), replays the events through the engine's
//! flip-set path — only candidates whose `Pr_v(o) ≥ τ` decision can change
//! are re-verified — and compacts the update buffers once. The compacted
//! CSRs then become the epoch's `EpochPlane`: split by the refreshed
//! shard manifest, one inverted CSR per shard, the epoch's users and its
//! META. That is everything a query reads. The server swaps its
//! [`QueryEngine`](crate::QueryEngine) to the plane directly, so no batch
//! builds an IQuad-tree or position blocks, encodes, checksums or
//! re-validates a container; PROPOSE builds the position blocks from the
//! plane's users on first use.
//!
//! [`LiveUpdater::apply_batch`] is the same step followed by
//! [`Snapshot::assemble`], for callers that need a full artifact (a
//! reference replay, a snapshot to save); the server does not call it.
//!
//! **User ids.** Events address server-assigned dense ids. Inserts are
//! allocated sequentially from [`UpdateReport::next_user_id`]; while no
//! deletes occur the post-batch compaction renumbering is the identity, so
//! a replaying client can predict ids by counting its own inserts. After a
//! delete the compaction re-densifies ids; clients resynchronise from the
//! reported `next_user_id`.

use crate::protocol::{UpdateReport, WireEvent};
use crate::snapshot::{index_shards, shard_blocks, Snapshot, SnapshotMeta};
use mc2ls_core::{
    InfluenceSets, InvertedIndex, Problem, PruneStats, SetRows, UpdateEngine, UserUpdate,
};
use mc2ls_geo::Point;
use mc2ls_influence::{MovingUser, PositionBlocks, Sigmoid};
use std::sync::OnceLock;

/// A batch rejected before any event was applied.
#[derive(Debug, Clone, PartialEq)]
pub enum UpdateBatchError {
    /// `op` is not one of `insert`, `delete`, `move`, `checkin`.
    BadOp(String),
    /// `xs` and `ys` have different lengths.
    LengthMismatch,
    /// An insert/move carried no positions, or a checkin carried a
    /// position count other than one.
    BadPositions,
    /// A coordinate is NaN or infinite.
    NonFinite,
    /// The event addresses an id that was never allocated.
    UnknownUser(u32),
    /// The event addresses an id already deleted (in the instance or
    /// earlier in this batch).
    DeadUser(u32),
}

impl std::fmt::Display for UpdateBatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpdateBatchError::BadOp(op) => write!(f, "unknown event op {op:?}"),
            UpdateBatchError::LengthMismatch => write!(f, "xs/ys length mismatch"),
            UpdateBatchError::BadPositions => {
                write!(f, "insert/move need >= 1 position, checkin exactly 1")
            }
            UpdateBatchError::NonFinite => write!(f, "positions must be finite"),
            UpdateBatchError::UnknownUser(u) => write!(f, "unknown user id {u}"),
            UpdateBatchError::DeadUser(u) => write!(f, "user {u} was already deleted"),
        }
    }
}

impl std::error::Error for UpdateBatchError {}

/// One live epoch's query plane, owned: the compacted influence sets split
/// by the epoch's shard manifest, each shard with its inverted CSR, plus
/// the epoch's users and META. Shard `s` holds the same rows a snapshot's
/// `ISET`/`IINV` sections would, so selection over it is bit-identical to
/// selection over the assembled snapshot.
#[derive(Debug)]
pub(crate) struct EpochPlane {
    meta: SnapshotMeta,
    shards: Vec<(InfluenceSets, InvertedIndex)>,
    users: Vec<MovingUser>,
    /// Per-shard position blocks, built from `users` on the first PROPOSE
    /// (queries never read them).
    blocks: OnceLock<Vec<PositionBlocks>>,
}

impl EpochPlane {
    /// The epoch's metadata, field for field what [`Snapshot::assemble`]
    /// writes for the same state.
    pub(crate) fn meta(&self) -> &SnapshotMeta {
        &self.meta
    }

    /// The per-shard rows selection runs over.
    pub(crate) fn rows(&self) -> Vec<SetRows<'_>> {
        self.shards
            .iter()
            .map(|(sets, inverted)| SetRows {
                sets,
                inverted: Some(inverted),
            })
            .collect()
    }

    /// The per-shard SoA position blocks the snapshot's `PBLK` sections
    /// would hold, built on first use and cached for the epoch.
    pub(crate) fn position_blocks(&self) -> &[PositionBlocks] {
        self.blocks
            .get_or_init(|| shard_blocks(&self.users, &self.meta).collect())
    }
}

/// The live half of an update-capable server: the incremental engine and
/// the metadata template every epoch's META is refreshed from.
pub struct LiveUpdater {
    engine: UpdateEngine<Sigmoid>,
    meta: SnapshotMeta,
    pf: Sigmoid,
    n_shards: usize,
}

impl LiveUpdater {
    /// Builds the live state from a problem instance: runs the influence
    /// phase **once** and shares its sets between the update engine and
    /// the initial snapshot ([`Snapshot::assemble`] re-derives nothing).
    ///
    /// # Panics
    /// Propagates the workspace validation panics on a malformed problem
    /// (`threads == 0`, inconsistent shapes).
    pub fn new(
        name: &str,
        problem: &Problem<Sigmoid>,
        leaf_diagonal: f64,
        threads: usize,
        n_shards: usize,
    ) -> (LiveUpdater, Snapshot, PruneStats) {
        let method = mc2ls_core::Method::Iqt(mc2ls_core::IqtConfig::iqt(leaf_diagonal));
        let (sets, prune, _times) =
            mc2ls_core::algorithms::influence_sets_threaded(problem, method, threads);
        let meta = SnapshotMeta::template(name, problem, leaf_diagonal);
        let snapshot = Snapshot::assemble(
            meta.clone(),
            &problem.users,
            &problem.pf,
            &sets,
            threads,
            n_shards,
        );
        let engine = UpdateEngine::from_sets(problem, sets, threads);
        let live = LiveUpdater {
            engine,
            meta,
            pf: problem.pf,
            n_shards,
        };
        (live, snapshot, prune)
    }

    /// Validates and applies one event batch, compacts, and hands back the
    /// new epoch's owned query plane — the server's UPDATE path. `starts`
    /// is the shard manifest in force before the batch (it routes
    /// [`UpdateReport::touched_shards`]). On `Err` the engine state is
    /// untouched.
    ///
    /// # Errors
    /// A typed [`UpdateBatchError`] naming the first offending event.
    pub(crate) fn advance(
        &mut self,
        events: &[WireEvent],
        starts: &[u32],
    ) -> Result<(UpdateReport, EpochPlane), UpdateBatchError> {
        let report = self.absorb(events, starts)?;
        Ok((report, self.plane()))
    }

    /// `LiveUpdater::advance`'s validate → apply → compact step followed
    /// by [`Snapshot::assemble`] of the refreshed state: the full artifact
    /// for reference replays and tests. Reports are identical to the
    /// server's for the same batches. On `Err` the engine state is
    /// untouched.
    ///
    /// # Errors
    /// A typed [`UpdateBatchError`] naming the first offending event.
    pub fn apply_batch(
        &mut self,
        events: &[WireEvent],
        starts: &[u32],
    ) -> Result<(UpdateReport, Snapshot), UpdateBatchError> {
        let report = self.absorb(events, starts)?;
        let snapshot = Snapshot::assemble(
            self.meta.clone(),
            self.engine.users(),
            &self.pf,
            self.engine.sets(),
            1,
            self.n_shards,
        );
        Ok((report, snapshot))
    }

    /// The current (compacted) state's query plane. Its users share their
    /// positions with the engine's: the copy holds handles only.
    pub(crate) fn plane(&self) -> EpochPlane {
        let users = self.engine.users().to_vec();
        let sets = self.engine.sets();
        let meta = self
            .meta
            .clone()
            .reshaped(&users, sets.n_candidates(), self.n_shards);
        EpochPlane {
            shards: index_shards(sets, &meta.shard_starts).collect(),
            meta,
            users,
            blocks: OnceLock::new(),
        }
    }

    /// Validates the batch, replays it through the flip-set path and
    /// compacts once.
    fn absorb(
        &mut self,
        events: &[WireEvent],
        starts: &[u32],
    ) -> Result<UpdateReport, UpdateBatchError> {
        self.validate(events)?;
        let before = self.engine.stats().clone();
        let mut touched: Vec<u32> = Vec::new();
        for ev in events {
            let update = self.decode(ev);
            // Validation guarantees applicability; a rejection here would
            // mean the simulation and the engine disagree.
            // lint:allow(panic-path): validate() simulated this exact batch against the same state
            let id = self.engine.apply(update).expect("pre-validated event");
            touched.push(id);
        }
        self.engine.compact();
        let after = self.engine.stats();
        Ok(UpdateReport {
            applied: events.len() as u64,
            flipped: after.flipped - before.flipped,
            prob_evals: after.prob_evals - before.prob_evals,
            compactions: after.compactions - before.compactions,
            touched_shards: shards_of(&touched, starts),
            // lint:allow(narrowing-cast): slot count tracks the dense u32 user-id space
            next_user_id: self.engine.n_slots() as u32,
            n_users: self.engine.n_live() as u64,
        })
    }

    /// The underlying engine (stats, state inspection).
    pub fn engine(&self) -> &UpdateEngine<Sigmoid> {
        &self.engine
    }

    /// Simulates the batch against the current alive set without mutating
    /// anything: all-or-nothing admission.
    fn validate(&self, events: &[WireEvent]) -> Result<(), UpdateBatchError> {
        let mut alive: Vec<bool> = (0..self.engine.n_slots())
            // lint:allow(narrowing-cast): slot count tracks the dense u32 user-id space
            .map(|o| self.engine.is_alive(o as u32))
            .collect();
        for ev in events {
            if ev.xs.len() != ev.ys.len() {
                return Err(UpdateBatchError::LengthMismatch);
            }
            let finite = ev.xs.iter().chain(ev.ys.iter()).all(|v| v.is_finite());
            let target = |alive: &[bool]| -> Result<usize, UpdateBatchError> {
                let u = ev.user as usize;
                match alive.get(u) {
                    None => Err(UpdateBatchError::UnknownUser(ev.user)),
                    Some(false) => Err(UpdateBatchError::DeadUser(ev.user)),
                    Some(true) => Ok(u),
                }
            };
            match ev.op.as_str() {
                "insert" => {
                    if ev.xs.is_empty() {
                        return Err(UpdateBatchError::BadPositions);
                    }
                    if !finite {
                        return Err(UpdateBatchError::NonFinite);
                    }
                    alive.push(true);
                }
                "delete" => {
                    let u = target(&alive)?;
                    // lint:allow(panic-propagation): target() just range-checked u against alive.len()
                    alive[u] = false;
                }
                "move" => {
                    if ev.xs.is_empty() {
                        return Err(UpdateBatchError::BadPositions);
                    }
                    if !finite {
                        return Err(UpdateBatchError::NonFinite);
                    }
                    target(&alive)?;
                }
                "checkin" => {
                    if ev.xs.len() != 1 {
                        return Err(UpdateBatchError::BadPositions);
                    }
                    if !finite {
                        return Err(UpdateBatchError::NonFinite);
                    }
                    target(&alive)?;
                }
                other => return Err(UpdateBatchError::BadOp(other.to_string())),
            }
        }
        Ok(())
    }

    /// Turns a validated wire event into the engine's event type. A
    /// checkin is a move to the current trajectory plus the new position.
    fn decode(&self, ev: &WireEvent) -> UserUpdate {
        let points = |ev: &WireEvent| -> Vec<Point> {
            ev.xs
                .iter()
                .zip(ev.ys.iter())
                .map(|(&x, &y)| Point::new(x, y))
                .collect()
        };
        match ev.op.as_str() {
            "insert" => UserUpdate::Insert {
                positions: points(ev),
            },
            "delete" => UserUpdate::Delete { user: ev.user },
            "move" => UserUpdate::Move {
                user: ev.user,
                positions: points(ev),
            },
            _ => {
                // "checkin" — the only op left after validation.
                let mut positions: Vec<Point> = self
                    .engine
                    .positions_of(ev.user)
                    .map(<[Point]>::to_vec)
                    .unwrap_or_default();
                positions.extend(points(ev));
                UserUpdate::Move {
                    user: ev.user,
                    positions,
                }
            }
        }
    }
}

/// Maps touched user ids to shard indices via the manifest in force before
/// the batch (ids at or past the last boundary — batch inserts — land in
/// the final shard). Sorted, deduplicated.
fn shards_of(touched: &[u32], starts: &[u32]) -> Vec<u32> {
    if starts.len() < 2 {
        return if touched.is_empty() { vec![] } else { vec![0] };
    }
    let mut out: Vec<u32> = touched
        .iter()
        .map(|&u| {
            // Count the interior boundaries at or below u; the result is
            // already capped at the last shard index by slicing.
            // lint:allow(panic-propagation): the starts.len() < 2 early return keeps the interior slice in bounds
            let i = starts[1..starts.len() - 1].partition_point(|&s| s <= u);
            // lint:allow(narrowing-cast): shard counts are operator-configured small integers
            i as u32
        })
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc2ls_core::Problem;

    #[test]
    fn the_plane_shares_the_engines_positions() {
        let users = (0..6)
            .map(|i| {
                let x = f64::from(i);
                MovingUser::new(vec![Point::new(x, 0.0), Point::new(x, 0.5)])
            })
            .collect();
        let candidates = vec![Point::new(1.0, 0.2), Point::new(4.0, 0.2)];
        let facilities = vec![Point::new(2.5, 0.0)];
        let problem = Problem::new(
            users,
            facilities,
            candidates,
            1,
            0.5,
            Sigmoid::paper_default(),
        );
        let (mut live, snapshot, _) = LiveUpdater::new("t", &problem, 2.0, 1, 2);
        let checkin = WireEvent {
            op: "checkin".to_string(),
            user: 2,
            xs: vec![2.0],
            ys: vec![0.1],
        };
        let (_, plane) = live
            .advance(&[checkin], &snapshot.meta.shard_starts)
            .expect("valid batch");
        let engine_users = live.engine().users();
        assert_eq!(plane.users.len(), engine_users.len());
        for (mine, theirs) in plane.users.iter().zip(engine_users) {
            assert_eq!(mine.positions().as_ptr(), theirs.positions().as_ptr());
        }
    }

    #[test]
    fn shard_mapping_clamps_and_dedups() {
        // starts = [0, 3, 6, 10]: shard 0 = 0..3, 1 = 3..6, 2 = 6..10.
        let starts = vec![0u32, 3, 6, 10];
        assert_eq!(shards_of(&[], &starts), Vec::<u32>::new());
        assert_eq!(shards_of(&[0, 2], &starts), vec![0]);
        assert_eq!(shards_of(&[5, 3], &starts), vec![1]);
        assert_eq!(shards_of(&[9, 0, 4], &starts), vec![0, 1, 2]);
        // Past-the-end ids (batch inserts) clamp to the last shard.
        assert_eq!(shards_of(&[25], &starts), vec![2]);
        // Degenerate manifest: everything is shard 0.
        assert_eq!(shards_of(&[7], &[0]), vec![0]);
    }
}
