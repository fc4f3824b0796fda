use crate::Bitset;
use mc2ls_geo::{ByteReader, ByteWriter, CodecError};

/// The influence relationships an algorithm's pruning + verification phases
/// produce, and everything the greedy selection phase needs:
///
/// * `omega(c)` — the sorted users influenced by candidate `c`
///   (Definition 2's `Ω_c`).
/// * `f_count[o]` — `|F_o|`, the number of existing facilities influencing
///   user `o` (Definition 3). The competitive weight of a user is
///   `1/(|F_o|+1)` (Equation 1).
///
/// The per-candidate lists live in one flat **CSR layout**: `user_ids`
/// concatenates every candidate's sorted users, and `offsets[c]..offsets[c+1]`
/// delimits candidate `c`'s slice. Compared to a `Vec<Vec<u32>>`, the greedy
/// selection phase scans candidates back to back over one contiguous
/// allocation — no per-candidate pointer chase, and the whole structure is
/// two `memcpy`s to clone or send across threads.
///
/// All MC²LS algorithms in this crate reduce to this structure; since the
/// pruning rules are lossless, every algorithm must produce the same
/// `InfluenceSets` for the same instance — the integration tests rely on
/// exactly that to cross-validate the implementations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InfluenceSets {
    /// CSR row pointers: candidate `c` owns `user_ids[offsets[c] as usize
    /// .. offsets[c + 1] as usize]`. Always `n_candidates + 1` entries,
    /// starting at 0, non-decreasing.
    offsets: Vec<u32>,
    /// Concatenated sorted user ids of every candidate.
    user_ids: Vec<u32>,
    /// `|F_o|` per user.
    pub f_count: Vec<u32>,
}

impl InfluenceSets {
    /// Creates the structure from nested per-candidate lists (flattened to
    /// CSR internally), asserting each list is sorted and in range (debug
    /// builds only).
    pub fn new(omega_c: Vec<Vec<u32>>, f_count: Vec<u32>) -> Self {
        let mut offsets = Vec::with_capacity(omega_c.len() + 1);
        offsets.push(0u32);
        let total: usize = omega_c.iter().map(Vec::len).sum();
        assert!(
            u32::try_from(total).is_ok(),
            "CSR adjacency length {total} exceeds the u32 offset space"
        );
        let mut user_ids = Vec::with_capacity(total);
        for list in &omega_c {
            user_ids.extend_from_slice(list);
            // lint:allow(narrowing-cast): total adjacency length is asserted to fit u32 above
            offsets.push(user_ids.len() as u32);
        }
        Self::from_csr(offsets, user_ids, f_count)
    }

    /// Creates the structure directly from a CSR layout.
    ///
    /// # Panics
    /// Panics when `offsets` is empty, does not start at 0, or does not end
    /// at `user_ids.len()`. Per-candidate sortedness and id range are
    /// debug-asserted like in [`InfluenceSets::new`].
    pub fn from_csr(offsets: Vec<u32>, user_ids: Vec<u32>, f_count: Vec<u32>) -> Self {
        assert!(!offsets.is_empty(), "offsets needs a leading 0 entry");
        assert_eq!(offsets[0], 0, "offsets must start at 0");
        assert_eq!(
            offsets[offsets.len() - 1] as usize,
            user_ids.len(),
            "offsets must end at user_ids.len()"
        );
        let sets = InfluenceSets {
            offsets,
            user_ids,
            f_count,
        };
        sets.validate();
        sets
    }

    /// Structural sanitizer: checks every CSR invariant the accessors rely
    /// on. Always callable; the body compiles away in release builds.
    ///
    /// # Panics
    /// Panics (debug builds only) when `offsets` is not non-decreasing, a
    /// per-candidate list is unsorted or holds duplicates, or a user id is
    /// out of the `f_count` range.
    pub fn validate(&self) {
        #[cfg(debug_assertions)]
        {
            assert!(
                self.offsets.windows(2).all(|w| w[0] <= w[1]),
                "offsets not non-decreasing"
            );
            for w in self.offsets.windows(2) {
                let list = &self.user_ids[w[0] as usize..w[1] as usize];
                assert!(list.windows(2).all(|x| x[0] < x[1]), "omega_c not sorted");
                assert!(
                    list.iter().all(|&u| (u as usize) < self.f_count.len()),
                    "user id out of range"
                );
            }
        }
    }

    /// Number of candidates.
    pub fn n_candidates(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of users.
    pub fn n_users(&self) -> usize {
        self.f_count.len()
    }

    /// Sorted users influenced by candidate `c` (Definition 2's `Ω_c`).
    #[inline]
    pub fn omega(&self, c: usize) -> &[u32] {
        &self.user_ids[self.offsets[c] as usize..self.offsets[c + 1] as usize]
    }

    /// The raw CSR arrays `(offsets, user_ids)`.
    pub fn csr(&self) -> (&[u32], &[u32]) {
        (&self.offsets, &self.user_ids)
    }

    /// Total number of (candidate, user) influence entries, `Σ_c |Ω_c|` —
    /// the size of the CSR payload and the work bound of one full pass
    /// over it (forward or inverted).
    #[inline]
    pub fn total_influences(&self) -> usize {
        self.user_ids.len()
    }

    /// Number of distinct competitive **weight classes**: users fall into
    /// classes by `|F_o|` (class `w` has weight `1/(w+1)`), so this is
    /// `max |F_o| + 1` — bounded by `|F| + 1`, small in practice. The
    /// selectors bucket per-candidate gains by class (see
    /// [`crate::select`]).
    pub fn n_weight_classes(&self) -> usize {
        self.f_count.iter().max().map_or(1, |&m| m as usize + 1)
    }

    /// Competitive weight `1/(|F_o|+1)` of user `o`.
    #[inline]
    pub fn weight(&self, o: u32) -> f64 {
        1.0 / (self.f_count[o as usize] as f64 + 1.0)
    }

    /// `cinf(c)` against the full user set (Definition 4).
    pub fn cinf_candidate(&self, c: usize) -> f64 {
        // lint:allow(float-accum): serial sum over the CSR row in fixed ascending user order
        self.omega(c).iter().map(|&o| self.weight(o)).sum()
    }

    /// The set of users influenced by any candidate in `set`, as a
    /// [`Bitset`] sized to the user range.
    pub fn covered_by(&self, set: &[u32]) -> Bitset {
        let mut covered = Bitset::new(self.n_users());
        for &c in set {
            for &o in self.omega(c as usize) {
                covered.insert(o);
            }
        }
        covered
    }

    /// The union `Ω_G` of influenced users over a candidate set (sorted).
    pub fn omega_of_set(&self, set: &[u32]) -> Vec<u32> {
        self.covered_by(set).iter_ones().collect()
    }

    /// `cinf(G)` for a candidate set (Definition 6): overlapping influence
    /// counts once.
    pub fn cinf_set(&self, set: &[u32]) -> f64 {
        // lint:allow(float-accum): serial sum over the sorted union in fixed ascending user order
        self.omega_of_set(set).iter().map(|&o| self.weight(o)).sum()
    }

    /// The influence sets restricted to the candidate subset `cands`
    /// (global candidate ids, in the given order): row `i` of the result is
    /// this structure's row `cands[i]`, and `f_count` is shared unchanged.
    ///
    /// Because every pruning rule decides candidates independently, this
    /// equals the `InfluenceSets` a from-scratch solve over the same
    /// candidate subset would compute — the query-serving layer relies on
    /// exactly that to answer subset queries without re-verification (the
    /// serve tests assert the resulting solutions bit-identical).
    ///
    /// # Panics
    /// Panics when a candidate id is out of range — serving code validates
    /// ids against `n_candidates` before calling.
    pub fn subset(&self, cands: &[u32]) -> InfluenceSets {
        let mut offsets = Vec::with_capacity(cands.len() + 1);
        offsets.push(0u32);
        let total: usize = cands.iter().map(|&c| self.omega(c as usize).len()).sum();
        let mut user_ids = Vec::with_capacity(total);
        for &c in cands {
            user_ids.extend_from_slice(self.omega(c as usize));
            // lint:allow(narrowing-cast): the subset adjacency is no longer than the full adjacency, which fits u32
            offsets.push(user_ids.len() as u32);
        }
        InfluenceSets {
            offsets,
            user_ids,
            f_count: self.f_count.clone(),
        }
    }

    /// Encodes the structure into the pinned little-endian byte layout
    /// (`offsets`, `user_ids`, `f_count`, each length-prefixed) used by the
    /// `.mc2s` snapshot format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(
            24 + 4 * (self.offsets.len() + self.user_ids.len() + self.f_count.len()),
        );
        w.put_u32_slice(&self.offsets);
        w.put_u32_slice(&self.user_ids);
        w.put_u32_slice(&self.f_count);
        w.into_bytes()
    }

    /// Decodes [`InfluenceSets::to_bytes`] output, checking every CSR
    /// invariant the accessors rely on. Corrupt input yields a typed
    /// [`CodecError`], never a panic.
    ///
    /// # Errors
    /// [`CodecError::Truncated`]/[`CodecError::BadLength`] on short or
    /// length-corrupt input, [`CodecError::Invalid`] when the decoded
    /// arrays violate a CSR invariant.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = ByteReader::new(bytes);
        let offsets = r.get_u32_vec("InfluenceSets.offsets")?;
        let user_ids = r.get_u32_vec("InfluenceSets.user_ids")?;
        let f_count = r.get_u32_vec("InfluenceSets.f_count")?;
        r.expect_end()?;
        if offsets.first() != Some(&0) {
            return Err(CodecError::Invalid("offsets must start at 0"));
        }
        if offsets[offsets.len() - 1] as usize != user_ids.len() {
            return Err(CodecError::Invalid("offsets must end at user_ids.len()"));
        }
        if !offsets.windows(2).all(|w| w[0] <= w[1]) {
            return Err(CodecError::Invalid("offsets not non-decreasing"));
        }
        for w in offsets.windows(2) {
            let row = &user_ids[w[0] as usize..w[1] as usize];
            if !row.windows(2).all(|x| x[0] < x[1]) {
                return Err(CodecError::Invalid("omega_c row not strictly sorted"));
            }
            if row.last().is_some_and(|&u| u as usize >= f_count.len()) {
                return Err(CodecError::Invalid("user id out of the f_count range"));
            }
        }
        Ok(InfluenceSets {
            offsets,
            user_ids,
            f_count,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The running example of the paper (Examples 1, 3, 4):
    /// c₁ → {o₁, o₂}, c₂ → {o₂, o₄}, c₃ → {o₁, o₃};
    /// f₁ → {o₁, o₂}, f₂ → {o₂, o₄}, so |F| counts are
    /// o₁: 1, o₂: 2, o₃: 0, o₄: 1.
    pub(crate) fn paper_example() -> InfluenceSets {
        InfluenceSets::new(vec![vec![0, 1], vec![1, 3], vec![0, 2]], vec![1, 2, 0, 1])
    }

    #[test]
    fn weights_follow_evenly_split_model() {
        let s = paper_example();
        assert!((s.weight(0) - 0.5).abs() < 1e-12);
        assert!((s.weight(1) - 1.0 / 3.0).abs() < 1e-12);
        assert!((s.weight(2) - 1.0).abs() < 1e-12);
        assert!((s.weight(3) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn example4_candidate_cinf_values() {
        // Paper Example 4: cinf(c₁) = 5/6, cinf(c₂) = 5/6, cinf(c₃) = 3/2.
        let s = paper_example();
        assert!((s.cinf_candidate(0) - 5.0 / 6.0).abs() < 1e-12);
        assert!((s.cinf_candidate(1) - 5.0 / 6.0).abs() < 1e-12);
        assert!((s.cinf_candidate(2) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn example3_set_cinf_values() {
        // Paper Example 3: cinf({c₁,c₂}) = 4/3, cinf({c₁,c₃}) = 11/6.
        let s = paper_example();
        assert!((s.cinf_set(&[0, 1]) - 4.0 / 3.0).abs() < 1e-12);
        assert!((s.cinf_set(&[0, 2]) - 11.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn omega_of_set_unions_without_duplicates() {
        let s = paper_example();
        assert_eq!(s.omega_of_set(&[0, 1]), vec![0, 1, 3]);
        assert_eq!(s.omega_of_set(&[0, 2]), vec![0, 1, 2]);
        assert_eq!(s.omega_of_set(&[]), Vec::<u32>::new());
        assert_eq!(s.covered_by(&[0, 1]).count_ones(), 3);
    }

    #[test]
    fn size_and_class_accessors() {
        let s = paper_example();
        assert_eq!(s.total_influences(), 6);
        // |F_o| counts are {1, 2, 0, 1} → classes 0..=2.
        assert_eq!(s.n_weight_classes(), 3);
        let empty = InfluenceSets::new(vec![vec![]], vec![]);
        assert_eq!(empty.total_influences(), 0);
        assert_eq!(empty.n_weight_classes(), 1);
    }

    #[test]
    fn cinf_is_monotone_and_subadditive() {
        let s = paper_example();
        let single = s.cinf_set(&[0]);
        let pair = s.cinf_set(&[0, 1]);
        assert!(pair >= single);
        assert!(pair <= s.cinf_candidate(0) + s.cinf_candidate(1) + 1e-12);
    }

    #[test]
    fn csr_layout_matches_nested_input() {
        let s = paper_example();
        let (offsets, user_ids) = s.csr();
        assert_eq!(offsets, &[0, 2, 4, 6]);
        assert_eq!(user_ids, &[0, 1, 1, 3, 0, 2]);
        assert_eq!(s.omega(0), [0, 1]);
        assert_eq!(s.omega(1), [1, 3]);
        assert_eq!(s.omega(2), [0, 2]);
        assert_eq!(s.n_candidates(), 3);
    }

    #[test]
    fn nested_round_trip_is_lossless() {
        let nested = vec![vec![0, 1], vec![], vec![2], vec![0, 1, 2, 3]];
        let s = InfluenceSets::new(nested.clone(), vec![0; 4]);
        let lists: Vec<Vec<u32>> = (0..s.n_candidates()).map(|c| s.omega(c).to_vec()).collect();
        assert_eq!(lists, nested);
        let (offsets, user_ids) = s.csr();
        let rebuilt =
            InfluenceSets::from_csr(offsets.to_vec(), user_ids.to_vec(), s.f_count.clone());
        assert_eq!(rebuilt, s);
    }

    #[test]
    fn empty_candidate_lists_are_preserved() {
        let s = InfluenceSets::new(vec![vec![], vec![], vec![1]], vec![0, 0]);
        assert_eq!(s.n_candidates(), 3);
        assert!(s.omega(0).is_empty());
        assert!(s.omega(1).is_empty());
        assert_eq!(s.omega(2), [1]);
    }

    #[test]
    #[should_panic(expected = "offsets must end at user_ids.len()")]
    fn csr_with_dangling_ids_is_rejected() {
        InfluenceSets::from_csr(vec![0, 1], vec![0, 1, 2], vec![0; 3]);
    }

    #[test]
    #[should_panic(expected = "offsets must start at 0")]
    fn csr_with_bad_leading_offset_is_rejected() {
        InfluenceSets::from_csr(vec![1, 3], vec![0, 1, 2], vec![0; 3]);
    }

    #[test]
    fn subset_slices_rows_in_request_order() {
        let s = paper_example();
        let sub = s.subset(&[2, 0]);
        assert_eq!(sub.n_candidates(), 2);
        assert_eq!(sub.omega(0), s.omega(2));
        assert_eq!(sub.omega(1), s.omega(0));
        assert_eq!(sub.f_count, s.f_count);
        let empty = s.subset(&[]);
        assert_eq!(empty.n_candidates(), 0);
        assert_eq!(empty.total_influences(), 0);
    }

    #[test]
    fn byte_codec_round_trips_bit_identically() {
        let s = paper_example();
        let decoded = InfluenceSets::from_bytes(&s.to_bytes()).expect("round trip");
        assert_eq!(decoded, s);
        let empty = InfluenceSets::new(vec![vec![]], vec![]);
        assert_eq!(
            InfluenceSets::from_bytes(&empty.to_bytes()).expect("empty"),
            empty
        );
    }

    #[test]
    fn byte_codec_rejects_corruption_without_panicking() {
        let s = paper_example();
        let bytes = s.to_bytes();
        // Truncations at every prefix length fail with a typed error.
        for cut in 0..bytes.len() {
            assert!(InfluenceSets::from_bytes(&bytes[..cut]).is_err(), "{cut}");
        }
        // An unsorted row is caught by the invariant check: swap the two
        // user ids of candidate 0 (offsets block is 4 entries + prefix).
        let mut swapped = bytes.clone();
        let row_start = 8 + 4 * 4 + 8; // offsets prefix+payload, ids prefix
        swapped.swap(row_start, row_start + 4);
        swapped.swap(row_start + 1, row_start + 5);
        swapped.swap(row_start + 2, row_start + 6);
        swapped.swap(row_start + 3, row_start + 7);
        assert!(InfluenceSets::from_bytes(&swapped).is_err());
        // Trailing garbage is rejected too.
        let mut long = bytes;
        long.push(0);
        assert!(InfluenceSets::from_bytes(&long).is_err());
    }
}
