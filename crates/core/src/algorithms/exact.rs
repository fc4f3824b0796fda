//! Exact optimum for small instances via branch-and-bound enumeration.
//!
//! MC²LS is NP-hard (paper Theorem 1, reduction from Maximum k-Coverage), so
//! this solver is exponential and intended as a *test oracle*: the
//! integration suite uses it to check the `(1 − 1/e)` approximation bound of
//! the greedy algorithms on exhaustively solvable instances.
//!
//! The search enumerates k-subsets in decreasing order of individual
//! `cinf(c)` and prunes with the submodular upper bound
//! `cinf(G) + Σ top-(k−|G|) remaining individual cinf`, which is valid
//! because `cinf(G ∪ {c}) − cinf(G) ≤ cinf({c})`.

use crate::greedy::canonical_gain_model;
use crate::{Bitset, InfluenceSets, Solution};
use mc2ls_influence::CompetitionModel;

/// Practical safety cap: enumeration beyond this many candidates would not
/// terminate in reasonable time.
const MAX_EXACT_CANDIDATES: usize = 30;

/// `cinf(set)` under an arbitrary competition model: per-weight-class
/// counts over the covered-user union, materialised through the shared
/// canonical gain walk (so a singleton's value here is bit-identical to
/// the selectors' round-1 gain for the same candidate).
fn cinf_set_model<M: CompetitionModel>(
    sets: &InfluenceSets,
    set: &[u32],
    n_classes: usize,
    model: &M,
) -> f64 {
    let mut covered = Bitset::new(sets.n_users());
    let mut counts = vec![0u32; n_classes];
    for &c in set {
        for &o in sets.omega(c as usize) {
            if !covered.contains(o) {
                covered.insert(o);
                counts[sets.f_count[o as usize] as usize] += 1;
            }
        }
    }
    canonical_gain_model(&counts, model)
}

/// Candidate `c`'s per-class positive parts under `model`:
/// `Σ_w max(0, class_contribution(w, |Ω_c ∩ class w|))`, walked in
/// ascending class order like [`canonical_gain_model`] — so for a model
/// whose contributions are all non-negative it is bit-identical to the
/// singleton value.
fn positive_parts_model<M: CompetitionModel>(
    sets: &InfluenceSets,
    c: usize,
    n_classes: usize,
    model: &M,
) -> f64 {
    let mut counts = vec![0u32; n_classes];
    for &o in sets.omega(c) {
        counts[sets.f_count[o as usize] as usize] += 1;
    }
    let mut total = 0.0;
    for (w, &n) in counts.iter().enumerate() {
        if n != 0 {
            total += model.class_contribution(w, n).max(0.0);
        }
    }
    total
}

/// Finds the best subset of **at most** `k` candidates under an arbitrary
/// competition model by branch-and-bound — the routing target for models
/// whose [`is_submodular`](CompetitionModel::is_submodular) is `false`,
/// where greedy's marginal-gain argument certifies nothing.
///
/// Differences from [`solve_exact`], both required once monotonicity is
/// gone:
///
/// * the incumbent is updated at **every** enumeration prefix, not only at
///   full `k`-subsets — with mixed-sign class weights a smaller set may
///   beat every `k`-set (the empty set is the floor: value 0);
/// * the upper bound adds, for each of the top-`(k−|G|)` remaining
///   candidates, its **per-class positive parts**
///   `Σ_w max(0, class_contribution(w, |Ω_c ∩ class w|))`: a class's
///   contribution on the uncovered remainder never exceeds its full-count
///   contribution when that is positive, and is otherwise at most 0, so
///   the bound stays admissible for any fixed-per-class-weight model. (The
///   positive part of the singleton *total* is not: a candidate whose
///   negative classes outweigh its positive ones scores 0 there, yet can
///   still raise a set that already covers its negative users.)
///
/// Ties between equal-value subsets keep the first one found in the
/// positive-part-ordered enumeration — deterministic in the inputs.
///
/// # Panics
/// Panics when `k` exceeds the candidate count or the candidate count
/// exceeds `MAX_EXACT_CANDIDATES` (30).
pub fn solve_exact_model<M: CompetitionModel>(
    sets: &InfluenceSets,
    k: usize,
    model: &M,
) -> Solution {
    let n = sets.n_candidates();
    assert!(k <= n, "k = {k} exceeds the number of candidates ({n})");
    assert!(
        n <= MAX_EXACT_CANDIDATES,
        "exact solver is capped at {MAX_EXACT_CANDIDATES} candidates (got {n})"
    );
    let n_classes = sets.n_weight_classes();

    // Per-class positive parts of the singletons, descending, for the bound.
    let singles: Vec<f64> = (0..n)
        .map(|c| positive_parts_model(sets, c, n_classes, model))
        .collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| singles[b].total_cmp(&singles[a]).then(a.cmp(&b)));
    let sorted_singles: Vec<f64> = order.iter().map(|&c| singles[c]).collect();
    let mut prefix = vec![0.0; n + 1];
    for i in 0..n {
        prefix[i + 1] = prefix[i] + sorted_singles[i];
    }
    let top_from = |i: usize, j: usize| -> f64 {
        let end = (i + j).min(n);
        prefix[end] - prefix[i]
    };

    // DFS over the ordered enumeration tree; the incumbent starts at the
    // empty set (value 0) and is challenged at every prefix.
    let mut best_value = 0.0f64;
    let mut best_set: Vec<u32> = Vec::new();
    let mut stack: Vec<(usize, usize)> = Vec::new(); // (order index, depth)
    let mut chosen: Vec<u32> = Vec::with_capacity(k);
    let mut values: Vec<f64> = vec![0.0]; // value at each chosen depth
    for i in (0..n).rev() {
        stack.push((i, 0));
    }
    while let Some((i, depth)) = stack.pop() {
        chosen.truncate(depth);
        values.truncate(depth + 1);
        let parent_value = values[depth];
        if parent_value + top_from(i, k - depth) <= best_value + 1e-15 {
            continue; // admissible bound: no extension from here can win
        }
        chosen.push(order[i] as u32);
        let value = cinf_set_model(sets, &chosen, n_classes, model);
        values.push(value);
        if value > best_value + 1e-15 {
            best_value = value;
            best_set = chosen.clone();
        }
        if depth + 1 < k {
            for j in ((i + 1)..n).rev() {
                stack.push((j, depth + 1));
            }
        }
    }

    best_set.sort_unstable();
    let cinf = cinf_set_model(sets, &best_set, n_classes, model);
    let mut gains = Vec::with_capacity(best_set.len());
    let mut prev = 0.0;
    for i in 0..best_set.len() {
        let v = cinf_set_model(sets, &best_set[..=i], n_classes, model);
        gains.push(v - prev);
        prev = v;
    }
    Solution {
        selected: best_set,
        marginal_gains: gains,
        cinf,
    }
}

/// Finds the optimal `k`-subset by branch-and-bound.
///
/// # Panics
/// Panics when `k` exceeds the candidate count or the candidate count
/// exceeds `MAX_EXACT_CANDIDATES` (30).
// lint:allow(unread-pub): the optimum that model_routing.rs and approximation_quality.rs hold the greedy selectors to
pub fn solve_exact(sets: &InfluenceSets, k: usize) -> Solution {
    let n = sets.n_candidates();
    assert!(k <= n, "k = {k} exceeds the number of candidates ({n})");
    assert!(
        n <= MAX_EXACT_CANDIDATES,
        "exact solver is capped at {MAX_EXACT_CANDIDATES} candidates (got {n})"
    );

    // Order candidates by individual cinf, descending, for tighter bounds.
    let mut order: Vec<usize> = (0..n).collect();
    let singles: Vec<f64> = (0..n).map(|c| sets.cinf_candidate(c)).collect();
    order.sort_by(|&a, &b| singles[b].total_cmp(&singles[a]).then(a.cmp(&b)));

    // Suffix sums of the top-j singles from position i onward.
    // suffix_top[i][j] = sum of the j largest singles among order[i..].
    // Since order is sorted descending, that is simply the next j entries.
    let sorted_singles: Vec<f64> = order.iter().map(|&c| singles[c]).collect();
    let mut prefix = vec![0.0; n + 1];
    for i in 0..n {
        prefix[i + 1] = prefix[i] + sorted_singles[i];
    }
    let top_from = |i: usize, j: usize| -> f64 {
        let end = (i + j).min(n);
        prefix[end] - prefix[i]
    };

    struct Search<'a> {
        sets: &'a InfluenceSets,
        order: &'a [usize],
        k: usize,
        best_value: f64,
        best_set: Vec<u32>,
        top_from: Box<dyn Fn(usize, usize) -> f64 + 'a>,
    }

    impl Search<'_> {
        fn dfs(&mut self, start: usize, chosen: &mut Vec<u32>, covered_value: f64) {
            if chosen.len() == self.k {
                if covered_value > self.best_value + 1e-15 {
                    self.best_value = covered_value;
                    self.best_set = chosen.clone();
                }
                return;
            }
            let need = self.k - chosen.len();
            let n = self.order.len();
            if n - start < need {
                return;
            }
            // Submodular upper bound.
            if covered_value + (self.top_from)(start, need) <= self.best_value + 1e-15 {
                return;
            }
            for i in start..n {
                let c = self.order[i] as u32;
                chosen.push(c);
                let value = self.sets.cinf_set(chosen);
                self.dfs(i + 1, chosen, value);
                chosen.pop();
            }
        }
    }

    let mut search = Search {
        sets,
        order: &order,
        k,
        best_value: f64::NEG_INFINITY,
        best_set: Vec::new(),
        top_from: Box::new(top_from),
    };
    let mut chosen = Vec::with_capacity(k);
    search.dfs(0, &mut chosen, 0.0);

    let mut selected = search.best_set;
    selected.sort_unstable();
    let cinf = sets.cinf_set(&selected);
    // Marginal gains in pick order are not meaningful for an exact optimum;
    // report each candidate's contribution in the listed order.
    let mut gains = Vec::with_capacity(selected.len());
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

    fn paper_sets() -> InfluenceSets {
        InfluenceSets::new(vec![vec![0, 1], vec![1, 3], vec![0, 2]], vec![1, 2, 0, 1])
    }

    #[test]
    fn optimum_on_paper_example() {
        // Hand enumeration of the paper's example: cinf({c₁,c₂}) = 4/3,
        // cinf({c₁,c₃}) = 11/6, and cinf({c₂,c₃}) = 1/3+1/2+1/2+1 = 7/3,
        // so the optimum for k = 2 is {c₂, c₃}.
        let s = paper_sets();
        let opt = solve_exact(&s, 2);
        assert_eq!(opt.selected, vec![1, 2]);
        assert!((opt.cinf - 7.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn greedy_meets_approximation_bound_on_paper_example() {
        let s = paper_sets();
        let opt = solve_exact(&s, 2);
        let g = run_selector(Selector::Greedy, &s, 2, 1).0;
        // Greedy picks {c₃, c₂} here, which is optimal.
        assert!(g.cinf >= (1.0 - 1.0 / std::f64::consts::E) * opt.cinf - 1e-12);
        assert!((g.cinf - opt.cinf).abs() < 1e-12);
    }

    #[test]
    fn exact_beats_or_equals_greedy_randomly() {
        let mut seed = 12345u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _case in 0..30 {
            let n_users = 5 + (next() % 25) as usize;
            let n_cands = 3 + (next() % 10) as usize;
            let f_count: Vec<u32> = (0..n_users).map(|_| (next() % 3) as u32).collect();
            let omega_c: Vec<Vec<u32>> = (0..n_cands)
                .map(|_| {
                    let mut v: Vec<u32> = (0..n_users as u32).filter(|_| next() % 3 == 0).collect();
                    v.sort_unstable();
                    v.dedup();
                    v
                })
                .collect();
            let sets = InfluenceSets::new(omega_c, f_count);
            let k = 1 + (next() as usize % n_cands.min(4));
            let opt = solve_exact(&sets, k);
            let g = run_selector(Selector::Greedy, &sets, k, 1).0;
            assert!(opt.cinf >= g.cinf - 1e-9, "exact below greedy!");
            assert!(
                g.cinf >= (1.0 - 1.0 / std::f64::consts::E) * opt.cinf - 1e-9,
                "approximation bound violated: greedy={} opt={}",
                g.cinf,
                opt.cinf
            );
            assert_eq!(opt.selected.len(), k);
        }
    }

    /// A model whose contested class dilutes: uncontested users count +1,
    /// contested ones −¼ each.
    struct Dilution;

    impl CompetitionModel for Dilution {
        fn name(&self) -> &'static str {
            "dilution"
        }

        fn class_contribution(&self, w: usize, n: u32) -> f64 {
            if w == 0 {
                f64::from(n)
            } else {
                -0.25 * f64::from(n)
            }
        }

        fn is_submodular(&self) -> bool {
            false
        }
    }

    #[test]
    fn mixed_sign_models_keep_the_optimum() {
        // Users 0..16 are uncontested (+1), users 16..41 contested (−¼).
        //   c0 = {0, 1}                    → +2
        //   c1 = {2..10} ∪ contested (25)  → 8 − 6.25 = 1.75
        //   c2 = {10..16} ∪ contested (25) → 6 − 6.25 = −0.25
        // {c1, c2} shares the contested users: 14 − 6.25 = 7.75, the
        // optimum. Bounding c2 by the positive part of its total (0)
        // prunes it and returns {c0, c1} = 3.75; its per-class positive
        // part (6) keeps it in play.
        let mut f_count = vec![0u32; 41];
        f_count[16..].fill(1);
        let contested = 16u32..41;
        let c0 = vec![0, 1];
        let c1: Vec<u32> = (2..10).chain(contested.clone()).collect();
        let c2: Vec<u32> = (10..16).chain(contested).collect();
        let sets = InfluenceSets::new(vec![c0, c1, c2], f_count);

        let sol = solve_exact_model(&sets, 2, &Dilution);
        // Brute force over every subset of at most two candidates.
        let subsets: [&[u32]; 7] = [&[], &[0], &[1], &[2], &[0, 1], &[0, 2], &[1, 2]];
        let n_classes = sets.n_weight_classes();
        let brute = subsets
            .iter()
            .map(|set| cinf_set_model(&sets, set, n_classes, &Dilution))
            .fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(brute, 7.75);
        assert_eq!(sol.selected, vec![1, 2]);
        assert_eq!(sol.cinf, brute, "the bound pruned the optimum");
    }

    #[test]
    fn k_equals_n_selects_everything() {
        let s = paper_sets();
        let opt = solve_exact(&s, 3);
        assert_eq!(opt.selected, vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "capped")]
    fn rejects_oversized_instances() {
        let sets = InfluenceSets::new(vec![vec![]; 31], vec![]);
        solve_exact(&sets, 1);
    }
}
