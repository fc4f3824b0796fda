//! The `.mc2s` snapshot container: every index artifact the query engine
//! needs, persisted in one versioned, checksummed, little-endian file —
//! split into per-user-shard section groups so the serving layer can
//! scatter work across shards and ship deltas at section granularity.
//!
//! # Format (version 3)
//!
//! ```text
//! magic    [u8; 4] = b"MC2S"
//! version  u32     = 3
//! META section                         instance metadata + shard manifest
//! per shard s in 0..n_shards, fixed order:
//!     ISET section                     shard-local InfluenceSets CSR
//!     IINV section                     shard-local InvertedIndex CSR
//!     PBLK section                     shard-local PositionBlocks SoA
//! IQTR section                         the global IQuad-tree (its
//!                                      positions in Morton order)
//! ```
//!
//! Every section is framed identically:
//!
//! ```text
//! tag      [u8; 4]
//! len      u64            payload length in bytes
//! crc      u32            CRC-32 (IEEE) of the payload
//! payload  [u8; len]      artifact codec output
//! ```
//!
//! Every scalar is little-endian (the workspace codec convention, see
//! `mc2ls_geo::codec`). The META payload carries the **shard manifest**
//! (the user-id boundary vector, see [`mc2ls_core::shard::shard_starts`])
//! so a reader learns the section count from META alone, plus the
//! *resolved* verification block size so queries using the auto sentinel
//! canonicalise without decoding PBLK. Shard sections reuse the v1 tags;
//! the owning shard is implied by position. Decoding verifies the magic,
//! the version, each section's tag/CRC, each artifact's own invariants,
//! and finally that the artifacts agree with each other on the instance
//! shape — any violation is a typed [`SnapshotError`], never a panic.
//!
//! Per-section CRC framing is what makes **delta snapshots**
//! ([`crate::delta`]) safe: a delta splices whole frames, and every splice
//! is re-verified by the same checks a full decode runs.

use crate::error::SnapshotError;
use crate::view::validate;
use mc2ls_core::algorithms::{influence_sets_threaded, IqtConfig, Method};
use mc2ls_core::shard::{shard_starts, split_sets};
use mc2ls_core::{InfluenceSets, InvertedIndex, Problem, PruneStats};
use mc2ls_geo::codec::crc32;
use mc2ls_geo::{ByteReader, ByteWriter, CodecError};
use mc2ls_index::IQuadTree;
use mc2ls_influence::{
    auto_block_size, resolve_block_size, Model, MovingUser, PositionBlocks, Sigmoid,
};
use std::ops::Range;

/// File magic: "MC2S".
pub const MAGIC: [u8; 4] = *b"MC2S";
/// Current container version.
pub const VERSION: u32 = 3;
/// Container header length (magic + version) preceding the first section.
pub(crate) const HEADER_LEN: usize = 8;
/// Section frame header length (tag + len + crc) preceding each payload.
pub(crate) const FRAME_HEADER_LEN: usize = 16;

/// Maps a section tag to its human name for error reporting.
pub(crate) fn section_name(tag: [u8; 4]) -> &'static str {
    match &tag {
        b"META" => "META",
        b"ISET" => "ISET",
        b"IINV" => "IINV",
        b"PBLK" => "PBLK",
        b"IQTR" => "IQTR",
        _ => "unknown",
    }
}

/// One CRC-verified section located inside a container byte buffer.
#[derive(Debug, Clone)]
pub(crate) struct Frame {
    /// The four tag bytes.
    pub tag: [u8; 4],
    /// Byte range of the whole frame (header through payload).
    pub frame: Range<usize>,
    /// Byte range of the payload.
    pub payload: Range<usize>,
}

/// Walks the container framing: verifies the magic, the version, and every
/// section's CRC, returning each section's location. Decodes **no**
/// artifact payloads — this is the shared skeleton under full decode
/// ([`Snapshot::from_bytes`]), zero-copy load ([`crate::view`]) and delta
/// splicing ([`crate::delta`]).
pub(crate) fn walk_frames(bytes: &[u8]) -> Result<Vec<Frame>, SnapshotError> {
    let container = |source| SnapshotError::Codec {
        section: "container",
        source,
    };
    let mut r = ByteReader::new(bytes);
    let magic = r.take(4).map_err(container)?;
    if magic != MAGIC {
        let mut m = [0u8; 4];
        m.copy_from_slice(magic);
        return Err(SnapshotError::BadMagic(m));
    }
    let version = r.get_u32().map_err(container)?;
    if version != VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }

    let mut frames = Vec::new();
    while r.remaining() > 0 {
        if r.remaining() < FRAME_HEADER_LEN {
            return Err(SnapshotError::TrailingData(r.remaining()));
        }
        let start = r.position();
        let mut tag = [0u8; 4];
        tag.copy_from_slice(r.take(4).map_err(container)?);
        let len = r.get_u64().map_err(container)?;
        let stored = r.get_u32().map_err(container)?;
        let claimed = usize::try_from(len).map_err(|_| {
            container(CodecError::BadLength {
                what: "section length",
                claimed: len,
            })
        })?;
        let payload_start = r.position();
        let payload = r.take(claimed).map_err(container)?;
        let computed = crc32(payload);
        if computed != stored {
            return Err(SnapshotError::ChecksumMismatch {
                section: section_name(tag),
                stored,
                computed,
            });
        }
        frames.push(Frame {
            tag,
            frame: start..r.position(),
            payload: payload_start..r.position(),
        });
    }
    Ok(frames)
}

/// The section tag the fixed layout expects at position `i` of a
/// container holding `n_sections` sections.
pub(crate) fn expected_tag(i: usize, n_sections: usize) -> &'static str {
    if i == 0 {
        "META"
    } else if i + 1 == n_sections {
        "IQTR"
    } else {
        ["ISET", "IINV", "PBLK"][(i - 1) % 3]
    }
}

/// Walks the frames and checks the tag sequence against the fixed layout
/// (META first, whole shard trios, IQTR last) without decoding any
/// payload.
pub(crate) fn check_layout(bytes: &[u8]) -> Result<Vec<Frame>, SnapshotError> {
    let frames = walk_frames(bytes)?;
    if frames.is_empty() || frames[0].tag != *b"META" {
        return Err(SnapshotError::SectionOrder {
            expected: "META",
            found: frames.first().map_or([0; 4], |f| f.tag),
        });
    }
    // n_sections = 2 + 3 * n_shards, so the remainder after META and IQTR
    // must fall into whole shard trios.
    if frames.len() < 2 || (frames.len() - 2) % 3 != 0 {
        return Err(SnapshotError::Inconsistent(
            "section count is not META + shard groups + IQTR",
        ));
    }
    for (i, frame) in frames.iter().enumerate() {
        let expected = expected_tag(i, frames.len());
        if section_name(frame.tag) != expected {
            return Err(SnapshotError::SectionOrder {
                expected,
                found: frame.tag,
            });
        }
    }
    Ok(frames)
}

/// Instance-shape metadata pinned into the snapshot so the server can
/// validate queries (τ and block size must match after canonicalisation)
/// and report itself over `STATS` without touching the heavyweight
/// artifacts. Carries the shard manifest: readers learn the section count
/// from META alone.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SnapshotMeta {
    /// Free-form snapshot name (e.g. the preset it was built from).
    pub name: String,
    /// `|Ω|` — number of moving users.
    pub n_users: usize,
    /// `|C|` — number of candidate locations.
    pub n_candidates: usize,
    /// `|F|` — number of competitor facilities.
    pub n_facilities: usize,
    /// Influence threshold τ the influence sets were computed with.
    pub tau: f64,
    /// Verification block size the instance was *configured* with (may be
    /// the auto or plain sentinel).
    pub block_size: usize,
    /// Sigmoid ρ parameter of the probability function.
    pub rho: f64,
    /// Leaf-square diagonal `d̂` (km) of the persisted IQuad-tree.
    pub leaf_diagonal: f64,
    /// Default selection budget `k` for queries that do not override it.
    pub default_k: usize,
    /// Shard manifest: user-id boundaries, `shard_starts[s]..shard_starts
    /// [s + 1]` being shard `s`'s global user range (so `len - 1` shards,
    /// starting at 0 and ending at `n_users`).
    pub shard_starts: Vec<u32>,
    /// The block size PBLK sections actually store — what the auto
    /// sentinel resolved to at build time. Queries asking for `auto`
    /// canonicalise to this value.
    pub resolved_block_size: usize,
    /// The competition model the snapshot was built to serve. Appended to
    /// the META wire format after every older field: snapshots written
    /// before the field existed decode as [`Model::Cumulative`] (the only
    /// model that existed then), and queries requesting a different model
    /// are rejected with a typed error rather than silently reweighted.
    pub model: Model,
}

impl SnapshotMeta {
    /// `problem`'s configuration under `name`. The instance-shape fields
    /// are placeholders until [`SnapshotMeta::reshaped`] fits them to the
    /// artifacts actually built.
    pub(crate) fn template(
        name: &str,
        problem: &Problem<Sigmoid>,
        leaf_diagonal: f64,
    ) -> SnapshotMeta {
        SnapshotMeta {
            name: name.to_string(),
            n_users: problem.n_users(),
            n_candidates: problem.n_candidates(),
            n_facilities: problem.n_facilities(),
            tau: problem.tau,
            block_size: problem.block_size,
            rho: problem.pf.rho,
            leaf_diagonal,
            default_k: problem.k,
            shard_starts: Vec::new(),
            resolved_block_size: 1,
            model: problem.model,
        }
    }

    /// Refreshes the instance-shape fields (`n_users`, `n_candidates`,
    /// `shard_starts`, `resolved_block_size`) for `users` over
    /// `n_candidates` candidates split into `n_shards` shards; every
    /// configuration field is kept as-is. Snapshots and live epochs both
    /// take their META from here, so the two agree field for field.
    pub(crate) fn reshaped(
        mut self,
        users: &[MovingUser],
        n_candidates: usize,
        n_shards: usize,
    ) -> SnapshotMeta {
        // PBLK always stores real blocks: the auto sentinel resolves via
        // the density probe, and the plain sentinel (which disables blocked
        // verification locally but has no meaning inside a snapshot) falls
        // back to the same auto-tuned size. `block_size` keeps the
        // *configured* value so queries validate against what the user
        // asked for, `resolved_block_size` what `auto` canonicalises to.
        self.resolved_block_size =
            resolve_block_size(users, self.block_size).unwrap_or_else(|| auto_block_size(users));
        self.n_users = users.len();
        self.n_candidates = n_candidates;
        self.shard_starts = shard_starts(users.len(), n_shards);
        self
    }

    fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(96 + self.name.len() + 4 * self.shard_starts.len());
        w.put_str(&self.name);
        w.put_len(self.n_users);
        w.put_len(self.n_candidates);
        w.put_len(self.n_facilities);
        w.put_f64(self.tau);
        w.put_len(self.block_size);
        w.put_f64(self.rho);
        w.put_f64(self.leaf_diagonal);
        w.put_len(self.default_k);
        w.put_u32_slice(&self.shard_starts);
        w.put_len(self.resolved_block_size);
        w.put_u32(self.model.id());
        w.into_bytes()
    }

    pub(crate) fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = ByteReader::new(bytes);
        let name = r.get_string("SnapshotMeta.name")?;
        let n_users = read_usize(&mut r, "SnapshotMeta.n_users")?;
        let n_candidates = read_usize(&mut r, "SnapshotMeta.n_candidates")?;
        let n_facilities = read_usize(&mut r, "SnapshotMeta.n_facilities")?;
        let tau = r.get_f64()?;
        let block_size = read_usize(&mut r, "SnapshotMeta.block_size")?;
        let rho = r.get_f64()?;
        let leaf_diagonal = r.get_f64()?;
        let default_k = read_usize(&mut r, "SnapshotMeta.default_k")?;
        let shard_starts = r.get_u32_vec("SnapshotMeta.shard_starts")?;
        let resolved_block_size = read_usize(&mut r, "SnapshotMeta.resolved_block_size")?;
        // The model id trails every pre-model field: absent (older v2
        // writer) means the only model that writer knew, cumulative.
        let model = if r.remaining() > 0 {
            Model::from_id(r.get_u32()?)
                .ok_or(CodecError::Invalid("unknown competition model id"))?
        } else {
            Model::Cumulative
        };
        r.expect_end()?;
        if !(tau > 0.0 && tau < 1.0) {
            return Err(CodecError::Invalid("tau must lie in (0, 1)"));
        }
        if !(rho > 0.0 && rho <= 1.0) {
            return Err(CodecError::Invalid("rho must lie in (0, 1]"));
        }
        if !(leaf_diagonal > 0.0 && leaf_diagonal.is_finite()) {
            return Err(CodecError::Invalid("leaf diagonal must be positive"));
        }
        if default_k == 0 || default_k > n_candidates {
            return Err(CodecError::Invalid("default_k out of range"));
        }
        if shard_starts.len() < 2
            || shard_starts[0] != 0
            || shard_starts.windows(2).any(|w| w[0] > w[1])
            || shard_starts[shard_starts.len() - 1] as usize != n_users
        {
            return Err(CodecError::Invalid(
                "shard manifest is not a boundary vector over the users",
            ));
        }
        if resolved_block_size == 0 {
            return Err(CodecError::Invalid("resolved block size must be positive"));
        }
        Ok(SnapshotMeta {
            name,
            n_users,
            n_candidates,
            n_facilities,
            tau,
            block_size,
            rho,
            leaf_diagonal,
            default_k,
            shard_starts,
            resolved_block_size,
            model,
        })
    }

    /// Number of user shards in the manifest.
    pub fn n_shards(&self) -> usize {
        self.shard_starts.len().saturating_sub(1)
    }

    /// Total section count of a container with this manifest.
    pub fn n_sections(&self) -> usize {
        2 + 3 * self.n_shards()
    }
}

/// `sets` split by the shard manifest `starts` ([`split_sets`]), each
/// shard with its inverted CSR: the query plane of a snapshot or a live
/// epoch.
pub(crate) fn index_shards(
    sets: &InfluenceSets,
    starts: &[u32],
) -> impl Iterator<Item = (InfluenceSets, InvertedIndex)> {
    split_sets(sets, starts).into_iter().map(|local| {
        let inverted = InvertedIndex::build(&local);
        (local, inverted)
    })
}

/// Per shard of `meta`'s manifest, the blocked position layout of the
/// shard's users at the resolved block size: a snapshot's `PBLK` sections,
/// or a live epoch's blocks on its first PROPOSE.
pub(crate) fn shard_blocks<'a>(
    users: &'a [MovingUser],
    meta: &'a SnapshotMeta,
) -> impl Iterator<Item = PositionBlocks> + 'a {
    meta.shard_starts.windows(2).map(|w| {
        let slice = &users[w[0] as usize..w[1] as usize];
        PositionBlocks::build(slice, meta.resolved_block_size)
    })
}

fn read_usize(r: &mut ByteReader<'_>, what: &'static str) -> Result<usize, CodecError> {
    let v = r.get_u64()?;
    usize::try_from(v).map_err(|_| CodecError::BadLength { what, claimed: v })
}

/// One user shard's persisted artifacts: the shard-local influence CSR
/// (users rebased to `0..len`), its inverted index, and the shard's slice
/// of the blocked position layout.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardArtifacts {
    /// Forward influence CSR `c → Ω_c ∩ shard` (local user ids).
    pub sets: InfluenceSets,
    /// Inverted CSR `local o → {c : o ∈ Ω_c}`.
    pub inverted: InvertedIndex,
    /// Blocked SoA position layout of the shard's user trajectories.
    pub blocks: PositionBlocks,
}

/// Everything the query engine serves from: the instance metadata, the
/// per-shard index artifacts and the global IQuad-tree.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Instance-shape metadata (validated against the artifacts on load).
    pub meta: SnapshotMeta,
    /// Per-user-shard artifacts, in manifest order.
    pub shards: Vec<ShardArtifacts>,
    /// The IQuad-tree over all users.
    pub tree: IQuadTree,
}

impl Snapshot {
    /// Builds a single-shard snapshot — [`Snapshot::build_sharded`] with
    /// one shard.
    ///
    /// # Panics
    /// Panics when `threads == 0` (programming error, mirroring
    /// [`influence_sets_threaded`]).
    pub fn build(
        name: &str,
        problem: &Problem<Sigmoid>,
        leaf_diagonal: f64,
        threads: usize,
    ) -> (Snapshot, PruneStats) {
        Snapshot::build_sharded(name, problem, leaf_diagonal, threads, 1)
    }

    /// Builds every artifact from `problem` across `threads` workers using
    /// the paper's recommended `IQT` influence pipeline, partitioning the
    /// user space into `n_shards` balanced contiguous shards (clamped to
    /// `1..=n_users`). Returns the snapshot plus the pruning counters of
    /// the build (so callers can compare a later load against the work it
    /// saved).
    ///
    /// Sharding never changes answers: the influence phase runs unsharded
    /// and is then split losslessly ([`split_sets`]), and the
    /// scatter/gather selection is byte-identical at any shard count.
    ///
    /// # Panics
    /// Panics when `threads == 0`.
    pub fn build_sharded(
        name: &str,
        problem: &Problem<Sigmoid>,
        leaf_diagonal: f64,
        threads: usize,
        n_shards: usize,
    ) -> (Snapshot, PruneStats) {
        let method = Method::Iqt(IqtConfig::iqt(leaf_diagonal));
        let (sets, stats, _times) = influence_sets_threaded(problem, method, threads);
        let meta = SnapshotMeta::template(name, problem, leaf_diagonal);
        let snapshot =
            Snapshot::assemble(meta, &problem.users, &problem.pf, &sets, threads, n_shards);
        (snapshot, stats)
    }

    /// Assembles a snapshot from **already-computed** influence sets:
    /// splits them by the manifest of `n_shards` shards, builds the
    /// per-shard inverted and position artifacts and the IQuad-tree, and
    /// refreshes the instance-shape fields of `meta` (`n_users`,
    /// `n_candidates`, `shard_starts`, `resolved_block_size`); every
    /// configuration field (`name`, `tau`, `block_size`, `rho`,
    /// `leaf_diagonal`, `default_k`, `n_facilities`, `model`) is taken from
    /// the template as-is. [`Snapshot::build_sharded`] is the influence
    /// phase plus this; [`crate::LiveUpdater::apply_batch`] is one update
    /// batch plus this.
    ///
    /// Zero PF verification evaluations run here; the IQuad-tree build only
    /// derives its η tables from the PF. Every step is serial, so
    /// `_threads` is unused; it stays for the existing callers.
    pub fn assemble(
        meta: SnapshotMeta,
        users: &[MovingUser],
        pf: &Sigmoid,
        sets: &InfluenceSets,
        _threads: usize,
        n_shards: usize,
    ) -> Snapshot {
        assert_eq!(sets.n_users(), users.len(), "sets/users shape mismatch");
        let meta = meta.reshaped(users, sets.n_candidates(), n_shards);
        let shards: Vec<ShardArtifacts> = index_shards(sets, &meta.shard_starts)
            .zip(shard_blocks(users, &meta))
            .map(|((sets, inverted), blocks)| ShardArtifacts {
                sets,
                inverted,
                blocks,
            })
            .collect();
        let tree = IQuadTree::build(users, pf, meta.tau, meta.leaf_diagonal);
        Snapshot { meta, shards, tree }
    }

    /// Number of user shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// `Σ_c |Ω_c|` across all shards.
    pub fn total_influences(&self) -> usize {
        self.shards.iter().map(|s| s.sets.total_influences()).sum()
    }

    /// Encodes the container (magic, version, checksummed sections: META,
    /// per-shard ISET/IINV/PBLK groups, IQTR).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut payloads: Vec<([u8; 4], Vec<u8>)> = Vec::with_capacity(2 + 3 * self.shards.len());
        payloads.push((*b"META", self.meta.to_bytes()));
        for shard in &self.shards {
            payloads.push((*b"ISET", shard.sets.to_bytes()));
            payloads.push((*b"IINV", shard.inverted.to_bytes()));
            payloads.push((*b"PBLK", shard.blocks.to_bytes()));
        }
        payloads.push((*b"IQTR", self.tree.to_bytes()));
        let total: usize = payloads
            .iter()
            .map(|(_, p)| p.len() + FRAME_HEADER_LEN)
            .sum();
        let mut w = ByteWriter::with_capacity(HEADER_LEN + total);
        w.put_bytes(&MAGIC);
        w.put_u32(VERSION);
        for (tag, payload) in &payloads {
            w.put_bytes(tag);
            w.put_u64(payload.len() as u64);
            w.put_u32(crc32(payload));
            w.put_bytes(payload);
        }
        w.into_bytes()
    }

    /// Decodes [`Snapshot::to_bytes`] output: validates the container with
    /// the checks [`crate::LoadedSnapshot::from_bytes`] runs, then decodes
    /// every artifact from the validated ranges.
    ///
    /// # Errors
    /// Every malformation maps to a typed [`SnapshotError`]: wrong magic or
    /// version, section tags out of order, CRC mismatches, per-artifact
    /// codec violations, trailing bytes, or artifacts that disagree on the
    /// instance shape.
    pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
        let layout = validate(bytes)?;
        let section = |name: &'static str| {
            move |source| SnapshotError::Codec {
                section: name,
                source,
            }
        };
        let mut shards = Vec::with_capacity(layout.shard_ranges.len());
        for ((iset, iinv), pblk) in layout.shard_ranges.iter().zip(&layout.pblk_ranges) {
            let sets = InfluenceSets::from_bytes(&bytes[iset.clone()]).map_err(section("ISET"))?;
            let inverted =
                InvertedIndex::from_bytes(&bytes[iinv.clone()]).map_err(section("IINV"))?;
            let blocks =
                PositionBlocks::from_bytes(&bytes[pblk.clone()]).map_err(section("PBLK"))?;
            // The validator matched ISET's user count to the manifest.
            if blocks.n_users() != sets.n_users() {
                return Err(SnapshotError::Inconsistent("PBLK user count vs manifest"));
            }
            shards.push(ShardArtifacts {
                sets,
                inverted,
                blocks,
            });
        }
        let tree =
            IQuadTree::from_bytes(&bytes[layout.tree_range.clone()]).map_err(section("IQTR"))?;
        if tree.stats().users != layout.meta.n_users {
            return Err(SnapshotError::Inconsistent("IQTR user count vs META"));
        }
        Ok(Snapshot {
            meta: layout.meta,
            shards,
            tree,
        })
    }

    /// Writes the container to `path` (the conventional extension is
    /// `.mc2s`).
    ///
    /// # Errors
    /// Propagates file-system failures as [`SnapshotError::Io`].
    pub fn save(&self, path: &std::path::Path) -> Result<(), SnapshotError> {
        std::fs::write(path, self.to_bytes()).map_err(SnapshotError::Io)
    }

    /// Reads and decodes a container from `path`.
    ///
    /// # Errors
    /// [`SnapshotError::Io`] on file-system failure, otherwise every decode
    /// error [`Snapshot::from_bytes`] produces.
    pub fn load(path: &std::path::Path) -> Result<Snapshot, SnapshotError> {
        let bytes = std::fs::read(path).map_err(SnapshotError::Io)?;
        Snapshot::from_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc2ls_geo::Point;
    use mc2ls_influence::MovingUser;

    fn tiny_problem() -> Problem<Sigmoid> {
        let users = vec![
            MovingUser::new(vec![Point::new(0.0, 0.0), Point::new(0.4, 0.2)]),
            MovingUser::new(vec![Point::new(2.0, 2.0)]),
            MovingUser::new(vec![Point::new(-1.0, 1.5), Point::new(-0.8, 1.2)]),
        ];
        let facilities = vec![Point::new(5.0, 5.0)];
        let candidates = vec![
            Point::new(0.1, 0.1),
            Point::new(2.1, 2.1),
            Point::new(-0.9, 1.3),
        ];
        Problem::new(
            users,
            facilities,
            candidates,
            2,
            0.6,
            Sigmoid::paper_default(),
        )
    }

    #[test]
    fn container_round_trips() {
        let (snap, _stats) = Snapshot::build("tiny", &tiny_problem(), 2.0, 2);
        let bytes = snap.to_bytes();
        let back = Snapshot::from_bytes(&bytes).expect("round trip");
        assert_eq!(back.meta, snap.meta);
        assert_eq!(back.shards, snap.shards);
        // Re-encoding the decoded snapshot is bit-identical.
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn sharded_container_round_trips_and_stitches_the_instance() {
        let problem = tiny_problem();
        let (whole, _) = Snapshot::build("tiny", &problem, 2.0, 1);
        for n_shards in [2usize, 3, 9] {
            let (snap, _) = Snapshot::build_sharded("tiny", &problem, 2.0, 2, n_shards);
            assert_eq!(snap.n_shards(), n_shards.min(problem.n_users()));
            assert_eq!(snap.total_influences(), whole.total_influences());
            let back = Snapshot::from_bytes(&snap.to_bytes()).expect("round trip");
            assert_eq!(back.meta, snap.meta);
            assert_eq!(back.shards, snap.shards);
            // Stitching the shard-local rows (rebased to global user ids)
            // reproduces the unsharded influence sets.
            for c in 0..problem.n_candidates() {
                let mut stitched: Vec<u32> = Vec::new();
                for (s, shard) in back.shards.iter().enumerate() {
                    stitched.extend(
                        shard
                            .sets
                            .omega(c)
                            .iter()
                            .map(|&o| o + back.meta.shard_starts[s]),
                    );
                }
                assert_eq!(stitched, whole.shards[0].sets.omega(c), "candidate {c}");
            }
        }
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let (snap, _) = Snapshot::build("tiny", &tiny_problem(), 2.0, 1);
        let bytes = snap.to_bytes();
        // Stride through prefixes (every length near section boundaries is
        // covered by the container framing checks).
        for cut in (0..bytes.len()).step_by(7).chain([bytes.len() - 1]) {
            assert!(Snapshot::from_bytes(&bytes[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn bad_magic_version_and_checksum_are_typed() {
        let (snap, _) = Snapshot::build("tiny", &tiny_problem(), 2.0, 1);
        let bytes = snap.to_bytes();

        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(
            Snapshot::from_bytes(&bad),
            Err(SnapshotError::BadMagic(_))
        ));

        let mut bad = bytes.clone();
        bad[4] = 99;
        assert!(matches!(
            Snapshot::from_bytes(&bad),
            Err(SnapshotError::UnsupportedVersion(99))
        ));

        // Flip one payload byte: the META payload starts 24 bytes in
        // (magic 4 + version 4 + tag 4 + len 8 + crc 4).
        let mut bad = bytes.clone();
        bad[24] ^= 0xFF;
        assert!(matches!(
            Snapshot::from_bytes(&bad),
            Err(SnapshotError::ChecksumMismatch {
                section: "META",
                ..
            })
        ));

        // Swap a section tag.
        let mut bad = bytes;
        bad[8..12].copy_from_slice(b"XXXX");
        assert!(matches!(
            Snapshot::from_bytes(&bad),
            Err(SnapshotError::SectionOrder {
                expected: "META",
                ..
            })
        ));
    }

    /// Re-frames the META section of an encoded container with `payload`,
    /// fixing up the length and CRC so only the META content differs.
    fn splice_meta(bytes: &[u8], payload: &[u8]) -> Vec<u8> {
        let frames = walk_frames(bytes).expect("well-formed input");
        let meta = &frames[0];
        let mut out = bytes[..meta.frame.start].to_vec();
        let mut w = ByteWriter::with_capacity(FRAME_HEADER_LEN + payload.len());
        w.put_bytes(b"META");
        w.put_u64(payload.len() as u64);
        w.put_u32(crc32(payload));
        w.put_bytes(payload);
        out.extend_from_slice(&w.into_bytes());
        out.extend_from_slice(&bytes[meta.frame.end..]);
        out
    }

    #[test]
    fn pre_model_meta_decodes_as_cumulative() {
        // A v2 writer that predates the model field stops right after
        // resolved_block_size: dropping the trailing 4-byte model id
        // reproduces its output exactly.
        let problem = tiny_problem().with_model(Model::Logit);
        let (snap, _) = Snapshot::build("tiny", &problem, 2.0, 1);
        assert_eq!(snap.meta.model, Model::Logit);
        let bytes = snap.to_bytes();
        let frames = walk_frames(&bytes).expect("frames");
        let meta_payload = &bytes[frames[0].payload.clone()];
        let old = splice_meta(&bytes, &meta_payload[..meta_payload.len() - 4]);
        let back = Snapshot::from_bytes(&old).expect("pre-model META decodes");
        assert_eq!(
            back.meta.model,
            Model::Cumulative,
            "absent model id defaults to the only pre-model model"
        );
        // Everything else survives untouched.
        assert_eq!(back.meta.name, snap.meta.name);
        assert_eq!(back.meta.shard_starts, snap.meta.shard_starts);
        assert_eq!(back.shards, snap.shards);
    }

    #[test]
    fn unknown_model_id_is_a_typed_error() {
        let (snap, _) = Snapshot::build("tiny", &tiny_problem(), 2.0, 1);
        let bytes = snap.to_bytes();
        let frames = walk_frames(&bytes).expect("frames");
        let mut meta_payload = bytes[frames[0].payload.clone()].to_vec();
        let at = meta_payload.len() - 4;
        meta_payload[at..].copy_from_slice(&99u32.to_le_bytes());
        let bad = splice_meta(&bytes, &meta_payload);
        assert!(matches!(
            Snapshot::from_bytes(&bad),
            Err(SnapshotError::Codec {
                section: "META",
                source: CodecError::Invalid("unknown competition model id"),
            })
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let (snap, _) = Snapshot::build("tiny", &tiny_problem(), 2.0, 1);
        let mut bytes = snap.to_bytes();
        bytes.push(0);
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(SnapshotError::TrailingData(1))
        ));
    }

    #[test]
    fn save_and_load_round_trip_through_the_filesystem() {
        let (snap, _) = Snapshot::build("tiny", &tiny_problem(), 2.0, 1);
        let dir = std::env::temp_dir().join("mc2ls-serve-snapshot-test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("tiny.mc2s");
        snap.save(&path).expect("save");
        let back = Snapshot::load(&path).expect("load");
        assert_eq!(back.meta, snap.meta);
        assert_eq!(back.shards, snap.shards);
        std::fs::remove_file(&path).ok();
        // A missing file is an Io error, not a panic.
        assert!(matches!(
            Snapshot::load(&dir.join("absent.mc2s")),
            Err(SnapshotError::Io(_))
        ));
    }
}
