//! The single-facility top-k baseline — the method the paper's Fig. 1(d)
//! warns about.
//!
//! Single-facility competitive LS studies ([17], [18] in the paper) rank
//! candidates by their *individual* competitive influence `cinf(c)` and
//! return the top k. Because the ranking ignores influence overlap between
//! the chosen sites, the union can capture far less than the greedy's: in
//! the paper's example, `{c₁, c₄}` both influence the same users and lose
//! to the overlap-aware `{c₁, c₃}`. This module implements the baseline so
//! the harness can measure that quality gap.

use crate::{InfluenceSets, Solution};

/// Ranks candidates by individual `cinf(c)` (ties toward the smaller id)
/// and returns the top `k` — overlap-blind by construction. The reported
/// `cinf` is the honest set value (overlap counted once), so the quality
/// loss is directly visible against the greedy ([`crate::select`]).
pub fn select_top_k_single(sets: &InfluenceSets, k: usize) -> Solution {
    let n = sets.n_candidates();
    assert!(k <= n, "k = {k} exceeds the number of candidates ({n})");
    let mut ranked: Vec<(usize, f64)> = (0..n).map(|c| (c, sets.cinf_candidate(c))).collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    let selected: Vec<u32> = ranked[..k].iter().map(|&(c, _)| c as u32).collect();

    let cinf = sets.cinf_set(&selected);
    let mut gains = Vec::with_capacity(k);
    let mut prev = 0.0;
    for i in 0..selected.len() {
        let v = sets.cinf_set(&selected[..=i]);
        gains.push(v - prev);
        prev = v;
    }
    Solution {
        selected,
        marginal_gains: gains,
        cinf,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{run_selector, Selector};

    /// Fig. 1(d)'s structure: two "strong" candidates covering the same
    /// three users, plus two weaker candidates covering fresh users.
    fn overlap_trap() -> InfluenceSets {
        InfluenceSets::new(
            vec![
                vec![0, 1, 4], // c0: strong
                vec![0, 1, 4], // c1: strong but redundant with c0
                vec![2, 3],    // c2
                vec![5],       // c3
            ],
            vec![0; 6],
        )
    }

    #[test]
    fn top_k_falls_into_the_overlap_trap() {
        let s = overlap_trap();
        let topk = select_top_k_single(&s, 2);
        // Individual ranking picks the two redundant strongest.
        assert_eq!(topk.selected, vec![0, 1]);
        assert!((topk.cinf - 3.0).abs() < 1e-12);
        // The greedy avoids the trap and captures 5 users.
        let g = run_selector(Selector::Greedy, &s, 2, 1).0;
        assert_eq!(g.selected_sorted(), vec![0, 2]);
        assert!((g.cinf - 5.0).abs() < 1e-12);
        assert!(g.cinf > topk.cinf);
    }

    #[test]
    fn top_k_never_beats_greedy() {
        let mut seed = 3u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _case in 0..40 {
            let n_users = 5 + (next() % 40) as usize;
            let n_cands = 3 + (next() % 10) as usize;
            let omega_c: Vec<Vec<u32>> = (0..n_cands)
                .map(|_| {
                    let mut v: Vec<u32> = (0..n_users as u32).filter(|_| next() % 3 == 0).collect();
                    v.sort_unstable();
                    v.dedup();
                    v
                })
                .collect();
            let f_count: Vec<u32> = (0..n_users).map(|_| (next() % 3) as u32).collect();
            let sets = InfluenceSets::new(omega_c, f_count);
            let k = 1 + (next() as usize % n_cands);
            let g = run_selector(Selector::Greedy, &sets, k, 1).0;
            let t = select_top_k_single(&sets, k);
            assert!(
                g.cinf >= t.cinf - 1e-9,
                "top-k beat greedy?! {} vs {}",
                t.cinf,
                g.cinf
            );
        }
    }

    #[test]
    fn k_equals_one_matches_greedy() {
        let s = overlap_trap();
        assert_eq!(
            select_top_k_single(&s, 1).selected,
            run_selector(Selector::Greedy, &s, 1, 1).0.selected
        );
    }
}
