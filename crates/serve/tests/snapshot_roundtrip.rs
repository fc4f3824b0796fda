//! The `.mc2s` container must be a faithful, tamper-evident store: every
//! snapshot round-trips bit-identically, and **any** single-byte
//! corruption, truncation, or version skew is a typed [`SnapshotError`] —
//! never a panic, never a silently different snapshot.

use mc2ls_core::{Problem, PruneStats};
use mc2ls_geo::{codec::crc32, Point};
use mc2ls_influence::{MovingUser, Sigmoid};
use mc2ls_serve::{LoadedSnapshot, QueryEngine, ShardArtifacts, Snapshot, SnapshotError};
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

    // A v2 container (node-based IQTR payload) gets the same typed error:
    // there is no second decoder.
    let mut v2 = bytes.clone();
    v2[4..8].copy_from_slice(&2u32.to_le_bytes());
    assert!(matches!(
        Snapshot::from_bytes(&v2),
        Err(SnapshotError::UnsupportedVersion(2))
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

/// One pinned section: tag, payload length, payload CRC-32.
type Section = (&'static str, u64, u32);

/// `(tag, payload length, payload CRC-32)` of every section, in order.
fn sections(bytes: &[u8]) -> Vec<(String, u64, u32)> {
    let mut out = Vec::new();
    let mut at = 8;
    while at < bytes.len() {
        let tag = String::from_utf8_lossy(&bytes[at..at + 4]).into_owned();
        let len = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().unwrap());
        let payload = &bytes[at + 16..at + 16 + len as usize];
        out.push((tag, len, crc32(payload)));
        at += 16 + len as usize;
    }
    out
}

/// The built artifacts are pinned section by section. Block order never
/// changes a verification decision, so a wrong but self-consistent position
/// order (Morton codes in the block layout, the IQuad-tree's position order)
/// passes every equivalence suite; only the PBLK/IQTR bytes and
/// `blocks_opened` show it. The pinned values were produced by builders
/// keying through the scalar `morton_code`, so they also hold the batch keys
/// to that oracle end to end. Pinning each section on its own keeps a
/// change to one artifact from moving the pins of the others.
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
    #[rustfmt::skip]
    let pinned: [(usize, &[Section]); 2] = [
        (1, &[
            ("META", 103, 0xd408_5af3),
            ("ISET", 424, 0xd295_0cf5),
            ("IINV", 368, 0xab05_17f8),
            ("PBLK", 28_804, 0x2747_b6bd),
            ("IQTR", 22_368, 0x0ff8_e32a),
        ]),
        (2, &[
            ("META", 107, 0xcd09_e0fe),
            ("ISET", 252, 0xb03a_83be),
            ("IINV", 196, 0xfc7b_0958),
            ("PBLK", 13_696, 0x27b0_2cd6),
            ("ISET", 248, 0xeb8f_d1ad),
            ("IINV", 192, 0x6817_77ac),
            ("PBLK", 15_164, 0xff2f_7ada),
            ("IQTR", 22_368, 0x0ff8_e32a),
        ]),
    ];
    for (shards, want) in pinned {
        let (snap, stats) = Snapshot::build_sharded("pin", &problem, 1.0, 1, shards);
        let bytes = snap.to_bytes();
        assert_eq!(&bytes[4..8], &3u32.to_le_bytes(), "container version");
        let got = sections(&bytes);
        let want: Vec<(String, u64, u32)> = want
            .iter()
            .map(|&(tag, len, crc)| (tag.to_string(), len, crc))
            .collect();
        assert!(
            got == want,
            "{shards} shard(s): sections moved; recomputed rows:\n{}",
            got.iter()
                .map(|(tag, len, crc)| format!("({tag:?}, {len}, {crc:#010x}),"))
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert_eq!(stats, pinned_stats, "{shards} shard(s): prune stats");
    }
}

/// Each section's tag and payload range, in container order.
fn payloads(bytes: &[u8]) -> Vec<([u8; 4], std::ops::Range<usize>)> {
    let mut out = Vec::new();
    let mut at = 8;
    while at < bytes.len() {
        let tag = bytes[at..at + 4].try_into().unwrap();
        let len = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().unwrap()) as usize;
        out.push((tag, at + 16..at + 16 + len));
        at += 16 + len;
    }
    out
}

/// Re-stores the CRC of the section whose payload is `payload`, so only
/// its content differs from what the writer produced.
fn fix_crc(bytes: &mut [u8], payload: &std::ops::Range<usize>) {
    let crc = crc32(&bytes[payload.clone()]);
    bytes[payload.start - 4..payload.start].copy_from_slice(&crc.to_le_bytes());
}

/// `bytes` with the last candidate id of the first non-empty IINV section
/// rewritten to `n_candidates`, one past the last valid id, under a
/// consistent CRC. The row stays strictly sorted and every count still
/// agrees with ISET, so only the id bound is broken.
fn out_of_range_iinv(bytes: &[u8], n_candidates: usize) -> Vec<u8> {
    let mut bad = bytes.to_vec();
    let (_, payload) = payloads(bytes)
        .into_iter()
        .find(|(tag, range)| {
            // IINV = [u64 n][n offsets][u64 m][m candidate ids].
            if tag != b"IINV" {
                return false;
            }
            let n = u64::from_le_bytes(bytes[range.start..range.start + 8].try_into().unwrap());
            let ids_at = range.start + 8 + 4 * n as usize;
            bytes[ids_at..ids_at + 8] != [0; 8]
        })
        .expect("a non-empty IINV section");
    let id = u32::try_from(n_candidates).unwrap().to_le_bytes();
    bad[payload.end - 4..payload.end].copy_from_slice(&id);
    fix_crc(&mut bad, &payload);
    bad
}

fn is_iinv_codec_error<T>(result: &Result<T, SnapshotError>) -> bool {
    matches!(
        result,
        Err(SnapshotError::Codec {
            section: "IINV",
            ..
        })
    )
}

/// Every load path runs the same validator, so a candidate id past META's
/// candidate count is one typed IINV error on all of them: the owned
/// decode, the file load, the zero-copy view and the engine's cold start.
#[test]
fn every_load_path_rejects_an_out_of_range_iinv_candidate() {
    let problem = random_problem(5, 24, 6, 3);
    for shards in [1usize, 2] {
        let (snap, _) = Snapshot::build_sharded("probe", &problem, 2.0, 1, shards);
        let bad = out_of_range_iinv(&snap.to_bytes(), snap.meta.n_candidates);
        assert!(is_iinv_codec_error(&Snapshot::from_bytes(&bad)), "{shards}");
        let path = std::env::temp_dir().join(format!("mc2ls-iinv-probe-{shards}.mc2s"));
        std::fs::write(&path, &bad).unwrap();
        assert!(is_iinv_codec_error(&Snapshot::load(&path)), "{shards}");
        std::fs::remove_file(&path).ok();
        assert!(
            is_iinv_codec_error(&LoadedSnapshot::from_bytes(bad.clone())),
            "{shards}"
        );
        assert!(
            is_iinv_codec_error(&QueryEngine::from_bytes(bad, 1)),
            "{shards}"
        );
    }
}

proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(48))]

    /// One validator: the owned decode never accepts a container the view
    /// rejects. Payload mutations of META, ISET and IINV under recomputed
    /// CRCs reach past the checksums into every structural check; whenever
    /// `Snapshot::from_bytes` accepts one, the view accepts it too and the
    /// engine wraps the decoded snapshot without panicking.
    #[test]
    fn owned_decode_accepts_only_what_the_view_accepts(
        seed in 0u64..10_000,
        shards in 1usize..4,
    ) {
        let problem = random_problem(seed, 12, 5, 2);
        let (snap, _) = Snapshot::build_sharded("prop", &problem, 2.0, 1, shards);
        let bytes = snap.to_bytes();
        let targets: Vec<_> = payloads(&bytes)
            .into_iter()
            .filter(|(tag, range)| {
                [*b"META", *b"ISET", *b"IINV"].contains(tag) && !range.is_empty()
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..32 {
            let (_, payload) = &targets[rng.gen_range(0..targets.len())];
            let mut bad = bytes.clone();
            let at = rng.gen_range(payload.clone());
            if rng.gen_bool(0.5) {
                // One byte, any bits.
                bad[at] ^= rng.gen_range(1..=255u8);
            } else {
                // One aligned word set to a small id or count: the values
                // the structural checks compare.
                let word = payload.start + (at - payload.start) / 4 * 4;
                if word + 4 <= payload.end {
                    let v: u32 = rng.gen_range(0..20);
                    bad[word..word + 4].copy_from_slice(&v.to_le_bytes());
                }
            }
            fix_crc(&mut bad, payload);
            if let Ok(decoded) = Snapshot::from_bytes(&bad) {
                prop_assert!(
                    LoadedSnapshot::from_bytes(bad.clone()).is_ok(),
                    "view rejected a container the owned decode accepted"
                );
                let _ = QueryEngine::new(decoded, 1);
            }
        }
    }
}
