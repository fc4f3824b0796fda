//! The inverted influence index: `user → candidates whose Ω_c contain that
//! user`, in the same flat CSR layout as [`InfluenceSets`] uses for the
//! forward direction.
//!
//! The decremental greedy selector ([`crate::select`] with
//! `Selector::Decremental`, reading it through [`crate::SetRows`]) needs
//! to answer "which candidates lose this user?" every time a user
//! becomes covered; the inverted CSR answers that in one contiguous slice
//! read. Construction is one serial counting sort over the forward CSR.
//! Candidates are walked in ascending order, so every user's candidate
//! list comes out sorted.

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
    /// Inverts the forward CSR of `sets` with one counting sort: count
    /// each user's candidates, prefix-sum the counts into row pointers,
    /// then scatter the candidate ids in ascending candidate order.
    pub fn build(sets: &InfluenceSets) -> Self {
        let n_users = sets.n_users();
        let mut offsets = vec![0u32; n_users + 1];
        for c in 0..sets.n_candidates() {
            for &o in sets.omega(c) {
                offsets[o as usize + 1] += 1;
            }
        }
        for o in 0..n_users {
            offsets[o + 1] += offsets[o];
        }
        let mut cand_ids = vec![0u32; offsets[n_users] as usize];
        let mut cursor = offsets[..n_users].to_vec();
        for c in 0..sets.n_candidates() {
            for &o in sets.omega(c) {
                let slot = cursor[o as usize];
                // lint:allow(narrowing-cast): c indexes the candidate array, whose length fits the u32 id space
                cand_ids[slot as usize] = c as u32;
                cursor[o as usize] = slot + 1;
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
        let inv = InvertedIndex::build(&paper_sets());
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
            let inv = InvertedIndex::build(&sets);
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
    fn byte_codec_round_trips_and_rejects_corruption() {
        let inv = InvertedIndex::build(&paper_sets());
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
        let inv = InvertedIndex::build(&sets);
        assert!(inv.is_empty());
        assert_eq!(inv.n_users(), 3);
        assert!(inv.candidates_of(2).is_empty());
    }
}
