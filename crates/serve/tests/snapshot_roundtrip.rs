//! The `.mc2s` container must be a faithful, tamper-evident store: every
//! snapshot round-trips bit-identically, and **any** single-byte
//! corruption, truncation, or version skew is a typed [`SnapshotError`] —
//! never a panic, never a silently different snapshot.

use mc2ls_core::{Problem, PruneStats};
use mc2ls_geo::{codec::crc32, Point};
use mc2ls_influence::{MovingUser, Sigmoid};
use mc2ls_serve::{ShardArtifacts, Snapshot, SnapshotError};
use proptest::prelude::*;
use rand::prelude::*;

/// A randomised but always-valid instance.
fn random_problem(seed: u64, n_users: usize, n_cands: usize, n_facs: usize) -> Problem<Sigmoid> {
    let mut rng = StdRng::seed_from_u64(seed);
    let pt = |r: &mut StdRng| Point::new(r.gen_range(-10.0..10.0), r.gen_range(-10.0..10.0));
    let users = (0..n_users)
        .map(|_| {
            let n = rng.gen_range(1..5);
            MovingUser::new((0..n).map(|_| pt(&mut rng)).collect())
        })
        .collect();
    let facilities = (0..n_facs).map(|_| pt(&mut rng)).collect();
    let candidates = (0..n_cands).map(|_| pt(&mut rng)).collect();
    let k = 1 + (seed as usize) % n_cands;
    let tau = 0.3 + (seed % 5) as f64 * 0.1;
    Problem::new(
        users,
        facilities,
        candidates,
        k,
        tau,
        Sigmoid::paper_default(),
    )
}

fn assert_snapshots_equal(a: &Snapshot, b: &Snapshot) {
    assert_eq!(a.meta, b.meta);
    assert_eq!(a.shards, b.shards);
    // IQuadTree carries no PartialEq (it holds runtime caches); its codec
    // is canonical, so byte equality of re-encodes is the right check.
    assert_eq!(a.tree.to_bytes(), b.tree.to_bytes());
}

proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(12))]

    /// Round trip: decode(encode(s)) == s and encoding is canonical.
    #[test]
    fn container_round_trips_bit_identically(
        seed in 0u64..10_000,
        n_users in 1usize..40,
        n_cands in 1usize..15,
        n_facs in 0usize..6,
    ) {
        let problem = random_problem(seed, n_users, n_cands, n_facs);
        let (snap, _stats) = Snapshot::build("prop", &problem, 2.0, 1 + (seed % 4) as usize);
        let bytes = snap.to_bytes();
        let back = Snapshot::from_bytes(&bytes).expect("round trip");
        assert_snapshots_equal(&snap, &back);
        prop_assert_eq!(back.to_bytes(), bytes);
    }
}

proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(3))]

    /// Tamper evidence: flipping any single byte fails with a typed error.
    /// (Section payloads are CRC-guarded; headers are validated field by
    /// field.)
    #[test]
    fn any_single_byte_flip_is_detected(seed in 0u64..10_000) {
        let problem = random_problem(seed, 8, 4, 2);
        let (snap, _) = Snapshot::build("prop", &problem, 2.0, 1);
        let bytes = snap.to_bytes();
        for pos in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x01;
            prop_assert!(
                Snapshot::from_bytes(&bad).is_err(),
                "flip at byte {} of {} went undetected", pos, bytes.len()
            );
        }
    }

    /// Truncation at every prefix length is a typed error.
    #[test]
    fn every_truncation_is_detected(seed in 0u64..10_000) {
        let problem = random_problem(seed, 6, 3, 1);
        let (snap, _) = Snapshot::build("prop", &problem, 2.0, 1);
        let bytes = snap.to_bytes();
        for cut in 0..bytes.len() {
            prop_assert!(Snapshot::from_bytes(&bytes[..cut]).is_err(), "cut={}", cut);
        }
    }
}

#[test]
fn version_and_magic_skew_are_specific_errors() {
    let problem = random_problem(1, 5, 3, 1);
    let (snap, _) = Snapshot::build("skew", &problem, 2.0, 1);
    let bytes = snap.to_bytes();

    let mut wrong_version = bytes.clone();
    wrong_version[4] = 99;
    assert!(matches!(
        Snapshot::from_bytes(&wrong_version),
        Err(SnapshotError::UnsupportedVersion(99))
    ));

    let mut wrong_magic = bytes.clone();
    wrong_magic[..4].copy_from_slice(b"ELF\x7f");
    assert!(matches!(
        Snapshot::from_bytes(&wrong_magic),
        Err(SnapshotError::BadMagic(_))
    ));

    // Growing a section's declared length runs the reader off the end.
    let mut grown = bytes;
    grown[12] = grown[12].wrapping_add(1);
    assert!(Snapshot::from_bytes(&grown).is_err());
}

#[test]
fn giant_declared_lengths_do_not_allocate_or_panic() {
    let problem = random_problem(2, 5, 3, 1);
    let (snap, _) = Snapshot::build("len", &problem, 2.0, 1);
    let mut bytes = snap.to_bytes();
    // The META section length field lives at offset 12 (magic 4 + version
    // 4 + tag 4); claim u64::MAX bytes.
    bytes[12..20].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(Snapshot::from_bytes(&bytes).is_err());
}

#[test]
fn artifacts_that_disagree_are_rejected() {
    // Build two snapshots over differently sized instances and splice the
    // ISET section of one into the container of the other: every section
    // CRC still verifies, so only the cross-artifact check can catch it.
    let (a, _) = Snapshot::build("a", &random_problem(3, 6, 3, 1), 2.0, 1);
    let (b, _) = Snapshot::build("b", &random_problem(4, 9, 3, 1), 2.0, 1);
    let spliced = Snapshot {
        meta: a.meta.clone(),
        shards: vec![ShardArtifacts {
            sets: b.shards[0].sets.clone(),
            inverted: a.shards[0].inverted.clone(),
            blocks: a.shards[0].blocks.clone(),
        }],
        tree: a.tree.clone(),
    };
    let bytes = spliced.to_bytes();
    assert!(matches!(
        Snapshot::from_bytes(&bytes),
        Err(SnapshotError::Inconsistent(_))
    ));
}

/// Clustered users with 5–39 positions each over 4-position blocks, so
/// most users span several blocks and the block order decides which
/// positions share an MBR.
fn pinned_problem() -> Problem<Sigmoid> {
    let mut rng = StdRng::seed_from_u64(0x5eed_0b10c);
    let users = (0..48)
        .map(|_| {
            let home = Point::new(rng.gen_range(-12.0..12.0), rng.gen_range(-12.0..12.0));
            let spread: f64 = rng.gen_range(0.3..3.0);
            let n = rng.gen_range(5..40);
            MovingUser::new(
                (0..n)
                    .map(|_| {
                        Point::new(
                            home.x + rng.gen_range(-spread..spread),
                            home.y + rng.gen_range(-spread..spread),
                        )
                    })
                    .collect(),
            )
        })
        .collect();
    let pt = |r: &mut StdRng| Point::new(r.gen_range(-12.0..12.0), r.gen_range(-12.0..12.0));
    let facilities = (0..6).map(|_| pt(&mut rng)).collect();
    let candidates = (0..12).map(|_| pt(&mut rng)).collect();
    Problem::new(
        users,
        facilities,
        candidates,
        4,
        0.5,
        Sigmoid::paper_default(),
    )
    .with_block_size(4)
}

/// The built artifacts are pinned byte for byte. Block order never changes
/// a verification decision, so a wrong but self-consistent position order
/// (Morton codes in the block layout, the IQuad-tree's leaf order) passes
/// every equivalence suite; only the PBLK/IQTR bytes and `blocks_opened`
/// show it. The pinned values were produced by builders keying through the
/// scalar `morton_code`, so they also hold the batch keys to that oracle
/// end to end.
#[test]
fn built_artifacts_match_their_pinned_bytes() {
    let problem = pinned_problem();
    let pinned_stats = PruneStats {
        pairs_total: 864,
        is_decided: 3,
        nir_decided: 736,
        ia_decided: 0,
        nib_decided: 37,
        irrelevant: 14,
        verified: 74,
        prob_evals: 210,
        blocks_bounded_out: 402,
        blocks_opened: 55,
        pf_fallbacks: 0,
    };
    for (shards, len, crc) in [(1, 117_171, 0x826c_ccb1), (2, 117_375, 0x01bd_f832)] {
        let (snap, stats) = Snapshot::build_sharded("pin", &problem, 1.0, 1, shards);
        let bytes = snap.to_bytes();
        assert_eq!(bytes.len(), len, "{shards} shard(s): container length");
        assert_eq!(crc32(&bytes), crc, "{shards} shard(s): container CRC-32");
        assert_eq!(stats, pinned_stats, "{shards} shard(s): prune stats");
    }
}
