//! The inverted influence index: `user → candidates whose Ω_c contain that
//! user`, in the same flat CSR layout as [`InfluenceSets`] uses for the
//! forward direction.
//!
//! The decremental greedy selector ([`crate::select`] with
//! `Selector::Decremental`, reading it through [`crate::SetRows`]) needs
//! to answer "which candidates lose this user?" every time a user
//! becomes covered; the inverted CSR answers that in one contiguous slice
//! read. Construction is one counting sort over the forward CSR and
//! parallelises by candidate chunks: each worker inverts its contiguous
//! candidate range privately and the per-chunk partial CSRs are stitched
//! back **in chunk order**. Candidate ids ascend within a chunk (the worker
//! walks them in order) and across chunks (ranges are contiguous and
//! ordered), so every user's stitched candidate list is sorted and the
//! whole structure is bit-identical for any thread count.

use crate::parallel::map_chunks;
use crate::InfluenceSets;
use mc2ls_geo::{ByteReader, ByteWriter, CodecError};

/// CSR mapping each user to the sorted candidates that influence them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvertedIndex {
    /// Row pointers: user `o` owns `cand_ids[offsets[o] as usize ..
    /// offsets[o + 1] as usize]`. Always `n_users + 1` entries.
    offsets: Vec<u32>,
    /// Concatenated sorted candidate ids of every user.
    cand_ids: Vec<u32>,
}

impl InvertedIndex {
    /// Inverts the forward CSR of `sets` across `threads` workers.
    ///
    /// # Panics
    /// Panics when `threads == 0`.
    pub fn build(sets: &InfluenceSets, threads: usize) -> Self {
        assert!(threads >= 1, "need at least one worker thread");
        let n_users = sets.n_users();
        let n_cands = sets.n_candidates();

        // Each worker counting-sorts its candidate chunk into a private
        // partial CSR over the full user range.
        let parts: Vec<(Vec<u32>, Vec<u32>)> = map_chunks(n_cands, threads, |range| {
            let mut offs = vec![0u32; n_users + 1];
            for c in range.clone() {
                for &o in sets.omega(c) {
                    offs[o as usize + 1] += 1;
                }
            }
            for o in 0..n_users {
                offs[o + 1] += offs[o];
            }
            let mut ids = vec![0u32; offs[n_users] as usize];
            let mut cursor = offs[..n_users].to_vec();
            for c in range {
                for &o in sets.omega(c) {
                    let slot = cursor[o as usize];
                    // lint:allow(narrowing-cast): c indexes the candidate array, whose length fits the u32 id space
                    ids[slot as usize] = c as u32;
                    cursor[o as usize] = slot + 1;
                }
            }
            (offs, ids)
        });

        // Stitch: per user, concatenate the chunk-local slices in chunk
        // order. Chunked candidate ranges ascend, so the result is sorted.
        let mut offsets = vec![0u32; n_users + 1];
        for (offs, _) in &parts {
            for o in 0..n_users {
                offsets[o + 1] += offs[o + 1] - offs[o];
            }
        }
        for o in 0..n_users {
            offsets[o + 1] += offsets[o];
        }
        let mut cand_ids = vec![0u32; offsets[n_users] as usize];
        let mut cursor = offsets[..n_users].to_vec();
        for (offs, ids) in &parts {
            for o in 0..n_users {
                let src = &ids[offs[o] as usize..offs[o + 1] as usize];
                let dst = cursor[o] as usize;
                cand_ids[dst..dst + src.len()].copy_from_slice(src);
                // lint:allow(narrowing-cast): a CSR row is no longer than the total adjacency, which fits u32
                cursor[o] += src.len() as u32;
            }
        }
        InvertedIndex { offsets, cand_ids }
    }

    /// Number of users (rows).
    pub fn n_users(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of (user, candidate) influence entries — identical to
    /// the forward CSR's `Σ|Ω_c|`.
    pub fn len(&self) -> usize {
        self.cand_ids.len()
    }

    /// Whether the index holds no influence entry at all.
    pub fn is_empty(&self) -> bool {
        self.cand_ids.is_empty()
    }

    /// The sorted candidates influencing user `o`.
    #[inline]
    pub fn candidates_of(&self, o: u32) -> &[u32] {
        &self.cand_ids[self.offsets[o as usize] as usize..self.offsets[o as usize + 1] as usize]
    }

    /// Encodes the structure into the pinned little-endian byte layout
    /// (`offsets` then `cand_ids`, each length-prefixed) used by the
    /// `.mc2s` snapshot format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(16 + 4 * (self.offsets.len() + self.cand_ids.len()));
        w.put_u32_slice(&self.offsets);
        w.put_u32_slice(&self.cand_ids);
        w.into_bytes()
    }

    /// Decodes [`InvertedIndex::to_bytes`] output, checking every CSR
    /// invariant the accessors rely on. Corrupt input yields a typed
    /// [`CodecError`], never a panic.
    ///
    /// # Errors
    /// [`CodecError::Truncated`]/[`CodecError::BadLength`] on short or
    /// length-corrupt input, [`CodecError::Invalid`] when the decoded
    /// arrays violate a CSR invariant.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = ByteReader::new(bytes);
        let offsets = r.get_u32_vec("InvertedIndex.offsets")?;
        let cand_ids = r.get_u32_vec("InvertedIndex.cand_ids")?;
        r.expect_end()?;
        if offsets.first() != Some(&0) {
            return Err(CodecError::Invalid("offsets must start at 0"));
        }
        if offsets[offsets.len() - 1] as usize != cand_ids.len() {
            return Err(CodecError::Invalid("offsets must end at cand_ids.len()"));
        }
        if !offsets.windows(2).all(|w| w[0] <= w[1]) {
            return Err(CodecError::Invalid("offsets not non-decreasing"));
        }
        for w in offsets.windows(2) {
            let row = &cand_ids[w[0] as usize..w[1] as usize];
            if !row.windows(2).all(|x| x[0] < x[1]) {
                return Err(CodecError::Invalid("candidate row not strictly sorted"));
            }
        }
        Ok(InvertedIndex { offsets, cand_ids })
    }

    /// Structural sanitizer: checks every CSR invariant the accessors rely
    /// on. Always callable; the body compiles away in release builds.
    ///
    /// # Panics
    /// Panics (debug builds only) when the row pointers are malformed or a
    /// user's candidate list is unsorted / holds duplicates.
    pub fn validate(&self) {
        #[cfg(debug_assertions)]
        {
            assert!(!self.offsets.is_empty(), "offsets needs a leading 0 entry");
            assert_eq!(self.offsets[0], 0, "offsets must start at 0");
            assert_eq!(
                self.offsets[self.offsets.len() - 1] as usize,
                self.cand_ids.len(),
                "offsets must end at cand_ids.len()"
            );
            assert!(
                self.offsets.windows(2).all(|w| w[0] <= w[1]),
                "offsets not non-decreasing"
            );
            for w in self.offsets.windows(2) {
                let row = &self.cand_ids[w[0] as usize..w[1] as usize];
                assert!(
                    row.windows(2).all(|x| x[0] < x[1]),
                    "candidate row not sorted"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_sets() -> InfluenceSets {
        InfluenceSets::new(vec![vec![0, 1], vec![1, 3], vec![0, 2]], vec![1, 2, 0, 1])
    }

    #[test]
    fn inverts_the_paper_example() {
        let inv = InvertedIndex::build(&paper_sets(), 1);
        assert_eq!(inv.n_users(), 4);
        assert_eq!(inv.len(), 6);
        assert_eq!(inv.candidates_of(0), [0, 2]);
        assert_eq!(inv.candidates_of(1), [0, 1]);
        assert_eq!(inv.candidates_of(2), [2]);
        assert_eq!(inv.candidates_of(3), [1]);
    }

    #[test]
    fn round_trips_against_the_forward_csr() {
        let mut seed = 0xC0FFEEu64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _case in 0..25 {
            let n_users = 1 + (next() % 50) as usize;
            let n_cands = 1 + (next() % 20) as usize;
            let omega_c: Vec<Vec<u32>> = (0..n_cands)
                .map(|_| {
                    let mut v: Vec<u32> = (0..n_users as u32).filter(|_| next() % 3 == 0).collect();
                    v.sort_unstable();
                    v.dedup();
                    v
                })
                .collect();
            let sets = InfluenceSets::new(omega_c.clone(), vec![0; n_users]);
            let inv = InvertedIndex::build(&sets, 1);
            assert_eq!(inv.len(), sets.total_influences());
            for o in 0..n_users as u32 {
                let want: Vec<u32> = (0..n_cands as u32)
                    .filter(|&c| omega_c[c as usize].contains(&o))
                    .collect();
                assert_eq!(inv.candidates_of(o), want.as_slice(), "user {o}");
            }
        }
    }

    #[test]
    fn parallel_build_is_bit_identical() {
        let mut seed = 7u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _case in 0..10 {
            let n_users = 1 + (next() % 60) as usize;
            let n_cands = 1 + (next() % 25) as usize;
            let omega_c: Vec<Vec<u32>> = (0..n_cands)
                .map(|_| {
                    let mut v: Vec<u32> = (0..n_users as u32).filter(|_| next() % 2 == 0).collect();
                    v.sort_unstable();
                    v.dedup();
                    v
                })
                .collect();
            let sets = InfluenceSets::new(omega_c, vec![0; n_users]);
            let serial = InvertedIndex::build(&sets, 1);
            for threads in [2usize, 4, 7, 16] {
                assert_eq!(serial, InvertedIndex::build(&sets, threads), "t={threads}");
            }
        }
    }

    #[test]
    fn byte_codec_round_trips_and_rejects_corruption() {
        let inv = InvertedIndex::build(&paper_sets(), 2);
        let bytes = inv.to_bytes();
        assert_eq!(InvertedIndex::from_bytes(&bytes).expect("round trip"), inv);
        for cut in 0..bytes.len() {
            assert!(InvertedIndex::from_bytes(&bytes[..cut]).is_err(), "{cut}");
        }
        // Corrupting the row-pointer monotonicity is a typed error.
        let mut bad = bytes;
        bad[8] = 0xFF; // first offset entry becomes nonzero
        assert!(InvertedIndex::from_bytes(&bad).is_err());
    }

    #[test]
    fn empty_inputs_are_fine() {
        let sets = InfluenceSets::new(vec![vec![], vec![]], vec![0; 3]);
        let inv = InvertedIndex::build(&sets, 4);
        assert!(inv.is_empty());
        assert_eq!(inv.n_users(), 3);
        assert!(inv.candidates_of(2).is_empty());
    }
}
