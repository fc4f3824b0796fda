//! User shards: build-time partitioning and zero-copy snapshot views.
//!
//! The competitive influence objective is **additive over users**
//! (Equation 1 sums an independent weight `1/(|F_o|+1)` per influenced
//! user), so every per-candidate per-weight-class count splits exactly
//! across any partition of the user id space:
//!
//! ```text
//! counts[c][w] = Σ_shards #{uncovered o ∈ Ω_c ∩ shard : |F_o| = w}
//! ```
//!
//! The selector ([`crate::select`]) is written once over such partitions;
//! this module supplies them:
//!
//! * [`shard_starts`] / [`split_sets`] — build-time partitioning of an
//!   [`InfluenceSets`] by contiguous user-id range (users rebased to
//!   shard-local ids, candidate rows kept global).
//! * [`CsrView`] / [`ShardView`] / [`parse_shard_view`] — zero-copy views
//!   over the canonical CSR wire encoding ([`InfluenceSets::to_bytes`],
//!   `InvertedIndex::to_bytes`), validated once at parse time so query
//!   paths index without re-checking. [`ShardView`] implements [`Rows`],
//!   so a snapshot's shards feed [`crate::class_counts`] and
//!   [`crate::select`] directly.

use crate::{InfluenceSets, Rows};
use mc2ls_geo::{ByteReader, CodecError, U32View};

/// Balanced contiguous shard boundaries over `0..n_users`: a vector of
/// `s + 1` cut points starting at 0 and ending at `n_users`, where
/// `s = clamp(n_shards, 1, max(n_users, 1))`. The first `n_users mod s`
/// shards hold one extra user. Deterministic in its inputs.
pub fn shard_starts(n_users: usize, n_shards: usize) -> Vec<u32> {
    let s = n_shards.clamp(1, n_users.max(1));
    let base = n_users / s;
    let extra = n_users % s;
    let mut starts = Vec::with_capacity(s + 1);
    let mut at = 0usize;
    starts.push(0u32);
    for i in 0..s {
        at += base + usize::from(i < extra);
        // lint:allow(narrowing-cast): at <= n_users, which InfluenceSets caps at the u32 id space
        starts.push(at as u32);
    }
    starts
}

/// Splits `sets` by the user ranges in `starts` (a [`shard_starts`]-shaped
/// boundary vector): shard `s` receives users `starts[s]..starts[s+1]`
/// rebased to local ids `0..len`, every candidate keeps its global row
/// (possibly empty in a shard), and `f_count` is sliced per shard.
///
/// # Panics
/// Panics when `starts` is not a monotone boundary vector over the user
/// id space.
pub fn split_sets(sets: &InfluenceSets, starts: &[u32]) -> Vec<InfluenceSets> {
    assert!(starts.len() >= 2, "need at least one shard");
    assert_eq!(starts[0], 0, "shard boundaries must start at 0");
    assert_eq!(
        starts[starts.len() - 1] as usize,
        sets.n_users(),
        "shard boundaries must end at the user count"
    );
    (0..starts.len() - 1)
        .map(|s| {
            let (lo, hi) = (starts[s], starts[s + 1]);
            assert!(lo <= hi, "shard boundaries must be monotone");
            let rows: Vec<Vec<u32>> = (0..sets.n_candidates())
                .map(|c| {
                    let row = sets.omega(c);
                    let a = row.partition_point(|&o| o < lo);
                    let b = row.partition_point(|&o| o < hi);
                    row[a..b].iter().map(|&o| o - lo).collect()
                })
                .collect();
            InfluenceSets::new(rows, sets.f_count[lo as usize..hi as usize].to_vec())
        })
        .collect()
}

/// A validated zero-copy CSR: `offsets` (one leading 0, one entry past the
/// last row) and `ids` both borrowed from encoded bytes. Construction
/// checks every structural invariant once — monotone offsets bracketing
/// the id array, strictly sorted rows, ids below `id_bound` — so accessors
/// index without re-validating.
#[derive(Debug, Clone, Copy)]
pub struct CsrView<'a> {
    offsets: U32View<'a>,
    ids: U32View<'a>,
}

impl<'a> CsrView<'a> {
    /// Validates and wraps an offsets/ids pair.
    pub fn new(
        offsets: U32View<'a>,
        ids: U32View<'a>,
        id_bound: u32,
    ) -> Result<CsrView<'a>, &'static str> {
        if offsets.is_empty() {
            return Err("CSR offsets need a leading 0 entry");
        }
        if offsets.get(0) != 0 {
            return Err("CSR offsets must start at 0");
        }
        if ids.len() > u32::MAX as usize {
            return Err("CSR id count exceeds the u32 offset space");
        }
        let mut prev_off = 0u32;
        for off in offsets.iter() {
            if off < prev_off {
                return Err("CSR offsets must be non-decreasing");
            }
            prev_off = off;
        }
        if prev_off as usize != ids.len() {
            return Err("CSR offsets must end at the id count");
        }
        let view = CsrView { offsets, ids };
        for r in 0..view.n_rows() {
            let mut prev: Option<u32> = None;
            for id in view.row(r) {
                if id >= id_bound {
                    return Err("CSR id out of range");
                }
                if prev.is_some_and(|p| id <= p) {
                    return Err("CSR rows must be strictly sorted");
                }
                prev = Some(id);
            }
        }
        Ok(view)
    }

    /// Wraps an offsets/ids pair **without** re-running the structural
    /// checks. Only for payload bytes a previous [`CsrView::new`] on the
    /// same bytes already validated (e.g. re-deriving views from a loaded
    /// snapshot each query): handing unvalidated bytes here trades the
    /// typed errors for row accessors that may panic or misread.
    pub fn trusted(offsets: U32View<'a>, ids: U32View<'a>) -> CsrView<'a> {
        CsrView { offsets, ids }
    }

    /// Number of rows.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total ids across all rows.
    #[inline]
    pub fn total_ids(&self) -> usize {
        self.ids.len()
    }

    /// Number of ids in row `r`.
    #[inline]
    pub fn row_len(&self, r: usize) -> usize {
        (self.offsets.get(r + 1) - self.offsets.get(r)) as usize
    }

    /// Iterates row `r`'s ids in sorted order.
    #[inline]
    pub fn row(&self, r: usize) -> impl Iterator<Item = u32> + 'a {
        self.ids.iter_range(
            self.offsets.get(r) as usize,
            self.offsets.get(r + 1) as usize,
        )
    }
}

/// One user shard's read plane, borrowed from snapshot bytes: the forward
/// candidate → local-user CSR, the per-local-user weight classes, and the
/// inverted local-user → global-candidate CSR.
#[derive(Debug, Clone, Copy)]
pub struct ShardView<'a> {
    /// Global id of the shard's local user 0.
    pub user_base: u32,
    /// Users in this shard.
    pub n_users: u32,
    /// Candidate → sorted local user ids (rows are global candidates).
    pub fwd: CsrView<'a>,
    /// `|F_o|` per local user.
    pub f_count: U32View<'a>,
    /// Local user → sorted global candidate ids.
    pub inv: CsrView<'a>,
}

/// Parses one shard's forward payload (`InfluenceSets::to_bytes` of the
/// shard-local sets) and inverted payload (`InvertedIndex::to_bytes`) into
/// a fully validated [`ShardView`] without copying any array.
///
/// # Errors
/// [`CodecError`] when either payload is malformed, truncated, carries
/// trailing bytes, or violates a CSR/cross-array invariant.
pub fn parse_shard_view<'a>(
    user_base: u32,
    fwd_payload: &'a [u8],
    inv_payload: &'a [u8],
    n_candidates: u32,
) -> Result<ShardView<'a>, CodecError> {
    let mut r = ByteReader::new(fwd_payload);
    let offsets = r.get_u32_view("InfluenceSets.offsets")?;
    let ids = r.get_u32_view("InfluenceSets.user_ids")?;
    let f_count = r.get_u32_view("InfluenceSets.f_count")?;
    r.expect_end()?;
    if f_count.len() > u32::MAX as usize {
        return Err(CodecError::Invalid("shard user count exceeds u32"));
    }
    // lint:allow(narrowing-cast): bounded by the u32::MAX check above
    let n_users = f_count.len() as u32;
    let fwd = CsrView::new(offsets, ids, n_users).map_err(CodecError::Invalid)?;
    if fwd.n_rows() != n_candidates as usize {
        return Err(CodecError::Invalid("shard candidate row count mismatch"));
    }

    let mut r = ByteReader::new(inv_payload);
    let offsets = r.get_u32_view("InvertedIndex.offsets")?;
    let cand_ids = r.get_u32_view("InvertedIndex.cand_ids")?;
    r.expect_end()?;
    let inv = CsrView::new(offsets, cand_ids, n_candidates).map_err(CodecError::Invalid)?;
    if inv.n_rows() != f_count.len() {
        return Err(CodecError::Invalid("inverted row count mismatch"));
    }
    if inv.total_ids() != fwd.total_ids() {
        return Err(CodecError::Invalid("inverted entry count mismatch"));
    }

    Ok(ShardView {
        user_base,
        n_users,
        fwd,
        f_count,
        inv,
    })
}

/// Re-parses shard payloads that a previous [`parse_shard_view`] over the
/// same bytes already validated, skipping the `O(edges)` structural
/// re-checks — the per-query fast path of a zero-copy snapshot load. The
/// only remaining failure mode is array framing (lengths), which stays
/// `O(1)`.
///
/// # Errors
/// [`CodecError`] when either payload's array framing is malformed — but
/// CSR invariants are **assumed**, per the [`CsrView::trusted`] contract.
pub fn trusted_shard_view<'a>(
    user_base: u32,
    fwd_payload: &'a [u8],
    inv_payload: &'a [u8],
) -> Result<ShardView<'a>, CodecError> {
    let mut r = ByteReader::new(fwd_payload);
    let offsets = r.get_u32_view("InfluenceSets.offsets")?;
    let ids = r.get_u32_view("InfluenceSets.user_ids")?;
    let f_count = r.get_u32_view("InfluenceSets.f_count")?;
    if f_count.len() > u32::MAX as usize {
        return Err(CodecError::Invalid("shard user count exceeds u32"));
    }
    // lint:allow(narrowing-cast): bounded by the u32::MAX check above
    let n_users = f_count.len() as u32;
    let fwd = CsrView::trusted(offsets, ids);
    let mut r = ByteReader::new(inv_payload);
    let offsets = r.get_u32_view("InvertedIndex.offsets")?;
    let cand_ids = r.get_u32_view("InvertedIndex.cand_ids")?;
    let inv = CsrView::trusted(offsets, cand_ids);
    Ok(ShardView {
        user_base,
        n_users,
        fwd,
        f_count,
        inv,
    })
}

impl Rows for ShardView<'_> {
    fn n_candidates(&self) -> usize {
        self.fwd.n_rows()
    }

    fn n_users(&self) -> usize {
        self.n_users as usize
    }

    fn n_entries(&self) -> usize {
        self.fwd.total_ids()
    }

    fn n_classes(&self) -> usize {
        self.f_count.iter().max().map_or(1, |w| w as usize + 1)
    }

    #[inline]
    fn row_len(&self, c: usize) -> usize {
        self.fwd.row_len(c)
    }

    #[inline]
    fn row(&self, c: usize) -> impl Iterator<Item = u32> + '_ {
        self.fwd.row(c)
    }

    #[inline]
    fn class(&self, o: u32) -> u32 {
        self.f_count.get(o as usize)
    }

    #[inline]
    fn inverted_row(&self, o: u32) -> impl Iterator<Item = u32> + '_ {
        self.inv.row(o as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{run_selector, Selector};
    use crate::{
        class_counts, select, ClassCounts, GatherScratch, GatherStats, InvertedIndex, SelectOpts,
        SelectionStats, Solution,
    };
    use mc2ls_influence::Model;

    fn random_sets(seed: u64, n_users: usize, n_cands: usize) -> InfluenceSets {
        let mut s = seed.max(1);
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let f_count: Vec<u32> = (0..n_users).map(|_| (next() % 4) as u32).collect();
        let omega: Vec<Vec<u32>> = (0..n_cands)
            .map(|_| {
                let mut v: Vec<u32> = (0..n_users as u32).filter(|_| next() % 3 == 0).collect();
                v.sort_unstable();
                v.dedup();
                v
            })
            .collect();
        InfluenceSets::new(omega, f_count)
    }

    /// Encodes the shard-local artifacts so views can borrow from them.
    fn shard_payloads(sets: &InfluenceSets, starts: &[u32]) -> Vec<(u32, Vec<u8>, Vec<u8>)> {
        split_sets(sets, starts)
            .into_iter()
            .enumerate()
            .map(|(s, local)| {
                let inv = InvertedIndex::build(&local);
                (starts[s], local.to_bytes(), inv.to_bytes())
            })
            .collect()
    }

    fn views<'a>(
        payloads: &'a [(u32, Vec<u8>, Vec<u8>)],
        n_candidates: usize,
    ) -> Vec<ShardView<'a>> {
        payloads
            .iter()
            .map(|(base, fwd, inv)| {
                parse_shard_view(*base, fwd, inv, n_candidates as u32).expect("valid shard")
            })
            .collect()
    }

    #[test]
    fn shard_starts_are_balanced_boundaries() {
        assert_eq!(shard_starts(10, 4), vec![0, 3, 6, 8, 10]);
        assert_eq!(shard_starts(3, 8), vec![0, 1, 2, 3]);
        assert_eq!(shard_starts(5, 1), vec![0, 5]);
        assert_eq!(shard_starts(0, 4), vec![0, 0]);
    }

    #[test]
    fn split_rebases_users_and_preserves_rows() {
        let sets = random_sets(7, 23, 6);
        let starts = shard_starts(23, 3);
        let locals = split_sets(&sets, &starts);
        assert_eq!(locals.len(), 3);
        for c in 0..6 {
            let mut stitched: Vec<u32> = Vec::new();
            for (s, l) in locals.iter().enumerate() {
                stitched.extend(l.omega(c).iter().map(|&o| o + starts[s]));
            }
            assert_eq!(stitched, sets.omega(c));
        }
        let stitched_f: Vec<u32> = locals.iter().flat_map(|l| l.f_count.clone()).collect();
        assert_eq!(stitched_f, sets.f_count);
    }

    /// The served plan: the decremental selector over shard views.
    fn decremental(
        shards: &[ShardView<'_>],
        counts: &ClassCounts,
        subset: Option<&[u32]>,
        k: usize,
        threads: usize,
        scratch: &mut GatherScratch,
    ) -> (Solution, SelectionStats, GatherStats) {
        let opts = SelectOpts {
            selector: Selector::Decremental,
            model: &Model::Cumulative,
            threads,
            subset,
        };
        select(shards, Some(counts), k, &opts, scratch)
    }

    #[test]
    fn gather_select_is_bit_identical_to_decremental_for_any_sharding() {
        for seed in [3u64, 11, 42] {
            let sets = random_sets(seed, 40, 9);
            let k = 4;
            let (want, want_stats) = run_selector(Selector::Decremental, &sets, k, 1);
            for n_shards in [1usize, 2, 3, 5, 40] {
                let starts = shard_starts(sets.n_users(), n_shards);
                let payloads = shard_payloads(&sets, &starts);
                let shards = views(&payloads, sets.n_candidates());
                for threads in [1usize, 4] {
                    let counts = class_counts(&shards, sets.n_candidates(), threads);
                    let (got, got_stats, gather) = decremental(
                        &shards,
                        &counts,
                        None,
                        k,
                        threads,
                        &mut GatherScratch::new(),
                    );
                    assert_eq!(want.selected, got.selected, "seed={seed} shards={n_shards}");
                    let want_bits: Vec<u64> =
                        want.marginal_gains.iter().map(|g| g.to_bits()).collect();
                    let got_bits: Vec<u64> =
                        got.marginal_gains.iter().map(|g| g.to_bits()).collect();
                    assert_eq!(want_bits, got_bits, "seed={seed} shards={n_shards}");
                    assert_eq!(want.cinf.to_bits(), got.cinf.to_bits());
                    assert_eq!(want_stats, got_stats, "seed={seed} shards={n_shards}");
                    assert_eq!(gather.rounds, k as u32);
                    assert_eq!(gather.scatter_events, got_stats.gain_updates);
                    assert!(gather.shared_epoch);
                }
            }
        }
    }

    #[test]
    fn reused_scratch_is_bit_identical_across_shapes() {
        // One pool serves selections of different candidate counts and
        // shardings back to back — both the clear-in-place path (same
        // shapes) and the rebuild path (shape change) must reproduce a
        // fresh scratch exactly.
        let mut scratch = GatherScratch::new();
        for seed in [3u64, 11] {
            for n_shards in [1usize, 3] {
                for _rep in 0..2 {
                    let sets = random_sets(seed, 40, 9);
                    let starts = shard_starts(sets.n_users(), n_shards);
                    let payloads = shard_payloads(&sets, &starts);
                    let shards = views(&payloads, sets.n_candidates());
                    let counts = class_counts(&shards, sets.n_candidates(), 2);
                    let (want, want_stats, _) =
                        decremental(&shards, &counts, None, 4, 2, &mut GatherScratch::new());
                    let (got, got_stats, _) =
                        decremental(&shards, &counts, None, 4, 2, &mut scratch);
                    assert_eq!(want.selected, got.selected, "seed={seed} shards={n_shards}");
                    assert_eq!(want.cinf.to_bits(), got.cinf.to_bits());
                    assert_eq!(want_stats, got_stats);
                }
            }
        }
    }

    #[test]
    fn subset_gather_matches_the_subinstance_solve() {
        let sets = random_sets(5, 30, 8);
        let subset: Vec<u32> = vec![1, 3, 4, 6];
        let sub = sets.subset(&subset);
        let (want, want_stats) = run_selector(Selector::Decremental, &sub, 2, 1);

        let starts = shard_starts(sets.n_users(), 3);
        let payloads = shard_payloads(&sets, &starts);
        let shards = views(&payloads, sets.n_candidates());
        let counts = class_counts(&shards, sets.n_candidates(), 2);
        let (got, got_stats, _) = decremental(
            &shards,
            &counts,
            Some(&subset),
            2,
            2,
            &mut GatherScratch::new(),
        );
        let mapped: Vec<u32> = want.selected.iter().map(|&r| subset[r as usize]).collect();
        assert_eq!(mapped, got.selected);
        assert_eq!(want.cinf.to_bits(), got.cinf.to_bits());
        assert_eq!(want_stats, got_stats);
    }

    #[test]
    fn parse_rejects_structural_corruption() {
        let sets = random_sets(9, 12, 4);
        let starts = shard_starts(12, 2);
        let payloads = shard_payloads(&sets, &starts);
        // Wrong candidate count.
        assert!(parse_shard_view(0, &payloads[0].1, &payloads[0].2, 5).is_err());
        // A forward payload in the inverted slot has a trailing array.
        assert!(parse_shard_view(0, &payloads[0].1, &payloads[0].1, 4).is_err());
        // Truncation anywhere is a typed error, never a panic.
        for cut in 0..payloads[0].1.len() {
            assert!(parse_shard_view(0, &payloads[0].1[..cut], &payloads[0].2, 4).is_err());
        }
    }
}
