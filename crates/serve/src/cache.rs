//! The deterministic LRU result cache and the canonical query key.
//!
//! Keys are byte strings derived from the *canonical* form of a query
//! (sorted-deduped candidate subset, τ bits, `k`, block size,
//! competition-model tag), so two requests that mean the same query
//! always collide regardless of candidate order or duplicates. The
//! request's `selector` and `pf_exact` fields are left out: the engine
//! reads neither, so they never change an answer. The block size passed
//! to [`key_bytes`] must be the *canonical* one — the server resolves the
//! `auto` sentinel to the snapshot's resolved block size via
//! [`crate::engine::QueryEngine::canonical_block_size`] before keying, so
//! `auto` and an explicit spelling of the resolved value share one
//! entry. Storage is `BTreeMap`-based — ordered,
//! so iteration and eviction are deterministic (lint rule R1 applies to
//! this crate) — with an explicit recency sequence implementing
//! least-recently-used eviction.

use crate::protocol::{QueryAnswer, QueryRequest};
use mc2ls_geo::ByteWriter;
use std::collections::BTreeMap;

/// Returns `cands` sorted ascending with duplicates removed — the
/// canonical spelling of a candidate subset, used both for cache keys and
/// for the engine's subset slicing.
pub fn canonical_subset(cands: &[u32]) -> Vec<u32> {
    let mut v = cands.to_vec();
    v.sort_unstable();
    v.dedup();
    v
}

/// Builds the canonical key bytes for `query`, whose block size
/// canonicalises to `block_size`.
pub fn key_bytes(query: &QueryRequest, block_size: usize) -> Vec<u8> {
    let subset = query.candidates.as_deref().map(canonical_subset);
    let mut w = ByteWriter::with_capacity(32 + 4 * subset.as_ref().map_or(0, Vec::len));
    w.put_u64(query.tau.to_bits());
    w.put_len(query.k);
    w.put_len(block_size);
    w.put_u8(query.model.tag());
    match subset.as_deref() {
        None => w.put_u8(0),
        Some(ids) => {
            w.put_u8(1);
            w.put_u32_slice(ids);
        }
    }
    w.into_bytes()
}

/// FNV-1a 64-bit hash of `bytes` — reported in answers so clients and logs
/// can correlate cache entries without shipping the raw key.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

struct Entry {
    seq: u64,
    answer: QueryAnswer,
}

/// A bounded least-recently-used map from canonical key bytes to cached
/// [`QueryAnswer`]s. Capacity `0` disables caching entirely (every lookup
/// misses, nothing is stored, and no counters move).
pub struct ResultCache {
    capacity: usize,
    entries: BTreeMap<Vec<u8>, Entry>,
    /// recency sequence → key, the smallest sequence being the LRU victim.
    recency: BTreeMap<u64, Vec<u8>>,
    next_seq: u64,
    hits: u64,
    misses: u64,
}

impl ResultCache {
    /// Creates a cache holding at most `capacity` answers.
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            capacity,
            entries: BTreeMap::new(),
            recency: BTreeMap::new(),
            next_seq: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Looks `key` up, refreshing its recency on a hit.
    pub fn get(&mut self, key: &[u8]) -> Option<QueryAnswer> {
        if self.capacity == 0 {
            return None;
        }
        match self.entries.get_mut(key) {
            Some(entry) => {
                self.recency.remove(&entry.seq);
                entry.seq = self.next_seq;
                self.recency.insert(self.next_seq, key.to_vec());
                self.next_seq += 1;
                self.hits += 1;
                Some(entry.answer.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts (or refreshes) `key → answer`, evicting the
    /// least-recently-used entry when full.
    pub fn put(&mut self, key: Vec<u8>, answer: QueryAnswer) {
        if self.capacity == 0 {
            return;
        }
        if let Some(old) = self.entries.remove(&key) {
            self.recency.remove(&old.seq);
        } else if self.entries.len() >= self.capacity {
            // Deterministic LRU victim: the smallest recency sequence.
            if let Some((&victim_seq, _)) = self.recency.iter().next() {
                if let Some(victim_key) = self.recency.remove(&victim_seq) {
                    self.entries.remove(&victim_key);
                }
            }
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.recency.insert(seq, key.clone());
        self.entries.insert(key, Entry { seq, answer });
    }

    /// Drops every entry (used on snapshot reload); counters are kept.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.recency.clear();
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache currently holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Configured capacity (`0` = disabled).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Lifetime `(hits, misses)` counters.
    pub fn counters(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc2ls_core::algorithms::Selector;
    use mc2ls_core::{GatherStats, PruneStats, SelectionStats, Solution};
    use mc2ls_influence::Model;

    fn answer(tag: u32) -> QueryAnswer {
        QueryAnswer {
            solution: Solution {
                selected: vec![tag],
                marginal_gains: vec![f64::from(tag)],
                cinf: f64::from(tag),
            },
            selection: SelectionStats::default(),
            prune: PruneStats::default(),
            gather: GatherStats::default(),
            cached: false,
            key_hash: 0,
        }
    }

    fn query(candidates: Option<Vec<u32>>) -> QueryRequest {
        QueryRequest {
            candidates,
            k: 2,
            tau: 0.7,
            block_size: 8,
            selector: Selector::Auto,
            pf_exact: false,
            model: Model::Cumulative,
        }
    }

    #[test]
    fn canonicalisation_makes_equivalent_queries_collide() {
        let q = query(Some(vec![3, 1, 2, 1]));
        let a = key_bytes(&q, 8);
        assert_eq!(a, key_bytes(&query(Some(vec![2, 3, 1])), 8));
        // Selector and exact-PF flag never change an answer: same key.
        for selector in [
            Selector::Greedy,
            Selector::LazyGreedy,
            Selector::Decremental,
        ] {
            for pf_exact in [false, true] {
                let same = QueryRequest {
                    selector,
                    pf_exact,
                    ..q.clone()
                };
                assert_eq!(a, key_bytes(&same, 8), "{selector:?} pf_exact={pf_exact}");
            }
        }
        // Any other parameter change separates the keys.
        assert_ne!(a, key_bytes(&QueryRequest { k: 3, ..q.clone() }, 8));
        assert_ne!(
            a,
            key_bytes(
                &QueryRequest {
                    tau: 0.71,
                    ..q.clone()
                },
                8
            )
        );
        assert_ne!(a, key_bytes(&q, 9));
        let logit = QueryRequest {
            model: Model::Logit,
            ..q.clone()
        };
        assert_ne!(a, key_bytes(&logit, 8));
        assert_ne!(a, key_bytes(&query(None), 8));
        // An empty subset is not the same key as "full set".
        assert_ne!(
            key_bytes(&query(Some(vec![])), 8),
            key_bytes(&query(None), 8)
        );
    }

    #[test]
    fn lru_evicts_the_least_recently_used() {
        let mut cache = ResultCache::new(2);
        let (ka, kb, kc) = (vec![1u8], vec![2u8], vec![3u8]);
        cache.put(ka.clone(), answer(1));
        cache.put(kb.clone(), answer(2));
        // Touch A so B becomes the victim.
        assert!(cache.get(&ka).is_some());
        cache.put(kc.clone(), answer(3));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&kb).is_none(), "B was the LRU victim");
        assert!(cache.get(&ka).is_some());
        assert!(cache.get(&kc).is_some());
        let (hits, misses) = cache.counters();
        assert_eq!((hits, misses), (3, 1));
    }

    #[test]
    fn reinsertion_refreshes_instead_of_duplicating() {
        let mut cache = ResultCache::new(2);
        cache.put(vec![1], answer(1));
        cache.put(vec![1], answer(10));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&[1]).expect("hit").solution.selected, vec![10]);
    }

    #[test]
    fn zero_capacity_disables_everything() {
        let mut cache = ResultCache::new(0);
        cache.put(vec![1], answer(1));
        assert!(cache.get(&[1]).is_none());
        assert!(cache.is_empty());
        assert_eq!(cache.counters(), (0, 0));
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xAF63_DC4C_8601_EC8C);
    }
}
