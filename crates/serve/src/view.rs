//! Zero-copy snapshot loading: the query-plane view of a `.mc2s` file, and
//! the one validator every container load runs.
//!
//! `validate` checks a container once, over its bytes:
//!
//! * container framing and every section CRC,
//! * META (it is tiny and holds the shard manifest) and the section count
//!   it implies,
//! * every shard's CSR invariants via [`parse_shard_view`], including
//!   IINV's candidate ids against META's candidate count; an error names
//!   the section at fault.
//!
//! It decodes nothing beyond META and returns where each payload lies.
//! [`LoadedSnapshot`] keeps the raw container bytes and those ranges and
//! **borrows** the CSR offset/id arrays directly from them through
//! [`mc2ls_core::shard::CsrView`] (safe Rust, no `unsafe`); PBLK and IQTR
//! stay as checksummed bytes. Cold start therefore does `O(file)` checksum
//! work and `O(edges)` integer validation, but allocates nothing
//! proportional to the position data — I/O-dominated, not
//! decode-dominated. Queries re-derive their shard views per call through
//! the *trusted* (validation-free) parse, which only re-reads the `O(1)`
//! array framing.
//!
//! [`Snapshot::from_bytes`](crate::snapshot::Snapshot::from_bytes) runs the
//! same `validate` and then decodes every artifact into owned structures
//! from its ranges, including the `f64`-heavy PBLK and IQTR sections a
//! serving engine never touches.

use crate::error::SnapshotError;
use crate::snapshot::{check_layout, SnapshotMeta};
use mc2ls_core::shard::{parse_shard_view, trusted_shard_view, ShardError, ShardView};
use mc2ls_geo::CodecError;
use mc2ls_influence::PositionBlocks;
use std::ops::Range;
use std::sync::OnceLock;

/// Where a validated container keeps its sections.
#[derive(Debug)]
pub(crate) struct Layout {
    /// The decoded META section.
    pub meta: SnapshotMeta,
    /// Per shard, in manifest order: (ISET payload range, IINV payload
    /// range).
    pub shard_ranges: Vec<(Range<usize>, Range<usize>)>,
    /// Per shard: PBLK payload range (CRC-verified, not decoded).
    pub pblk_ranges: Vec<Range<usize>>,
    /// IQTR payload range (CRC-verified, not decoded).
    pub tree_range: Range<usize>,
}

/// Validates `bytes` as a container of the current version: framing, CRCs,
/// META invariants, the section count, every CSR invariant and cross-array
/// consistency of the query plane. Copies no payload and decodes nothing
/// beyond META; PBLK and IQTR are checked only by their CRCs.
///
/// # Errors
/// A typed [`SnapshotError`] for any malformation, naming the section at
/// fault; never panics.
pub(crate) fn validate(bytes: &[u8]) -> Result<Layout, SnapshotError> {
    let frames = check_layout(bytes)?;
    let section = |name: &'static str| {
        move |source| SnapshotError::Codec {
            section: name,
            source,
        }
    };
    let meta =
        SnapshotMeta::from_bytes(&bytes[frames[0].payload.clone()]).map_err(section("META"))?;
    if frames.len() != meta.n_sections() {
        return Err(SnapshotError::Inconsistent(
            "section count vs META shard manifest",
        ));
    }

    let n_candidates = u32::try_from(meta.n_candidates)
        .map_err(|_| SnapshotError::Inconsistent("candidate count exceeds the u32 id space"))?;
    let mut shard_ranges = Vec::with_capacity(meta.n_shards());
    let mut pblk_ranges = Vec::with_capacity(meta.n_shards());
    for s in 0..meta.n_shards() {
        let iset = frames[1 + 3 * s].payload.clone();
        let iinv = frames[2 + 3 * s].payload.clone();
        pblk_ranges.push(frames[3 + 3 * s].payload.clone());
        let view = parse_shard_view(
            meta.shard_starts[s],
            &bytes[iset.clone()],
            &bytes[iinv.clone()],
            n_candidates,
        )
        .map_err(|e| match e {
            ShardError::Forward(source) => SnapshotError::Codec {
                section: "ISET",
                source,
            },
            ShardError::Inverted(source) => SnapshotError::Codec {
                section: "IINV",
                source,
            },
            ShardError::Mismatch(what) => SnapshotError::Inconsistent(what),
        })?;
        let size = (meta.shard_starts[s + 1] - meta.shard_starts[s]) as usize;
        if view.n_users as usize != size {
            return Err(SnapshotError::Inconsistent("ISET user count vs manifest"));
        }
        shard_ranges.push((iset, iinv));
    }

    Ok(Layout {
        meta,
        shard_ranges,
        pblk_ranges,
        tree_range: frames[frames.len() - 1].payload.clone(),
    })
}

/// A validated `.mc2s` container held as raw bytes, exposing zero-copy
/// shard views instead of decoded artifacts.
#[derive(Debug)]
pub struct LoadedSnapshot {
    bytes: Vec<u8>,
    meta: SnapshotMeta,
    /// Per shard: (ISET payload range, IINV payload range).
    shard_ranges: Vec<(Range<usize>, Range<usize>)>,
    /// Per shard: PBLK payload range — CRC-verified at load, decoded
    /// lazily only when the PROPOSE verb first needs positions.
    pblk_ranges: Vec<Range<usize>>,
    /// Lazily decoded per-shard position blocks. Queries never touch
    /// this; a decode failure is cached so every PROPOSE sees the same
    /// typed error instead of retrying a corrupt section.
    blocks: OnceLock<Result<Vec<PositionBlocks>, CodecError>>,
}

impl LoadedSnapshot {
    /// Validates `bytes` as a container of the current version (the
    /// module's one validator) and keeps them with its section ranges.
    /// Leaves PBLK and IQTR as bytes.
    ///
    /// # Errors
    /// A typed [`SnapshotError`] for any malformation; never panics.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<LoadedSnapshot, SnapshotError> {
        let Layout {
            meta,
            shard_ranges,
            pblk_ranges,
            ..
        } = validate(&bytes)?;
        Ok(LoadedSnapshot {
            bytes,
            meta,
            shard_ranges,
            pblk_ranges,
            blocks: OnceLock::new(),
        })
    }

    /// Reads and validates a container from `path` without decoding the
    /// position or tree sections.
    ///
    /// # Errors
    /// [`SnapshotError::Io`] on file-system failure, otherwise every error
    /// [`LoadedSnapshot::from_bytes`] produces.
    pub fn load(path: &std::path::Path) -> Result<LoadedSnapshot, SnapshotError> {
        let bytes = std::fs::read(path).map_err(SnapshotError::Io)?;
        LoadedSnapshot::from_bytes(bytes)
    }

    /// The decoded snapshot metadata (including the shard manifest).
    pub fn meta(&self) -> &SnapshotMeta {
        &self.meta
    }

    /// The raw, validated container bytes — the base a delta snapshot
    /// applies onto.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Number of user shards.
    pub fn n_shards(&self) -> usize {
        self.shard_ranges.len()
    }

    /// Re-derives the per-shard zero-copy views. Cheap (`O(shards)` array
    /// framing, no validation — the constructor proved the invariants over
    /// these exact bytes), so query paths call this per request instead of
    /// fighting a self-referential borrow.
    pub fn shard_views(&self) -> Vec<ShardView<'_>> {
        self.shard_ranges
            .iter()
            .enumerate()
            .map(|(s, (iset, iinv))| {
                trusted_shard_view(
                    self.meta.shard_starts[s],
                    &self.bytes[iset.clone()],
                    &self.bytes[iinv.clone()],
                )
                // lint:allow(panic-path): from_bytes fully parsed these exact payload ranges
                .expect("shard payloads were validated at load")
            })
            .collect()
    }

    /// The per-shard SoA position blocks, decoded from the PBLK sections
    /// on first use and cached for the snapshot's lifetime. Query serving
    /// never calls this — only the PROPOSE verb pays the decode, and only
    /// once per loaded snapshot.
    ///
    /// # Errors
    /// [`SnapshotError::Codec`] when a PBLK payload fails to decode (its
    /// CRC was already verified at load, so this means a codec-level
    /// malformation); the failure is cached and repeated verbatim.
    pub fn position_blocks(&self) -> Result<&[PositionBlocks], SnapshotError> {
        let decoded = self.blocks.get_or_init(|| {
            self.pblk_ranges
                .iter()
                .map(|range| PositionBlocks::from_bytes(&self.bytes[range.clone()]))
                .collect()
        });
        match decoded {
            Ok(blocks) => Ok(blocks.as_slice()),
            Err(source) => Err(SnapshotError::Codec {
                section: "PBLK",
                source: source.clone(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::Snapshot;
    use mc2ls_core::Problem;
    use mc2ls_geo::Point;
    use mc2ls_influence::{MovingUser, Sigmoid};

    fn tiny_problem() -> Problem<Sigmoid> {
        let users = (0..10)
            .map(|i| {
                let x = f64::from(i) * 0.3 - 1.5;
                MovingUser::new(vec![Point::new(x, -x), Point::new(x + 0.1, 0.2)])
            })
            .collect();
        let facilities = vec![Point::new(5.0, 5.0), Point::new(-4.0, 3.0)];
        let candidates = (0..6)
            .map(|i| Point::new(f64::from(i) * 0.5 - 1.0, 0.1))
            .collect();
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
    fn view_load_agrees_with_the_full_decode() {
        let problem = tiny_problem();
        for n_shards in [1usize, 3] {
            let (snap, _) = Snapshot::build_sharded("tiny", &problem, 2.0, 1, n_shards);
            let bytes = snap.to_bytes();
            let loaded = LoadedSnapshot::from_bytes(bytes.clone()).expect("load");
            assert_eq!(loaded.meta(), &snap.meta);
            assert_eq!(loaded.n_shards(), snap.n_shards());
            assert_eq!(loaded.bytes(), &bytes[..]);
            let views = loaded.shard_views();
            let row_ids = |fwd: &mc2ls_core::shard::CsrView<'_>| -> usize {
                (0..snap.meta.n_candidates).map(|c| fwd.row_len(c)).sum()
            };
            let total: usize = views.iter().map(|v| row_ids(&v.fwd)).sum();
            assert_eq!(total, snap.total_influences());
            assert_eq!(views.len(), snap.n_shards());
            for (view, shard) in views.iter().zip(&snap.shards) {
                assert_eq!(view.n_users as usize, shard.sets.n_users());
                assert_eq!(row_ids(&view.fwd), shard.sets.total_influences());
                for c in 0..snap.meta.n_candidates {
                    let got: Vec<u32> = view.fwd.row(c).collect();
                    assert_eq!(got, shard.sets.omega(c));
                }
            }
            let blocks = loaded.position_blocks().expect("PBLK decode");
            assert_eq!(blocks.len(), snap.n_shards());
            for (got, shard) in blocks.iter().zip(&snap.shards) {
                assert_eq!(got, &shard.blocks, "lazy PBLK decode vs full decode");
            }
        }
    }

    #[test]
    fn corruption_is_rejected_without_decoding_positions() {
        let (snap, _) = Snapshot::build_sharded("tiny", &tiny_problem(), 2.0, 1, 2);
        let bytes = snap.to_bytes();
        // Truncations.
        for cut in (0..bytes.len()).step_by(11) {
            assert!(LoadedSnapshot::from_bytes(bytes[..cut].to_vec()).is_err());
        }
        // A flipped payload byte anywhere fails its section CRC.
        for at in (8..bytes.len()).step_by(97) {
            let mut bad = bytes.clone();
            bad[at] ^= 0xFF;
            assert!(
                LoadedSnapshot::from_bytes(bad).is_err(),
                "flip at {at} must not pass validation"
            );
        }
    }
}
