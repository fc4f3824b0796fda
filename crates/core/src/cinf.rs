//! Competitive-influence arithmetic (paper Definitions 4 and 6).

use crate::InfluenceSets;

/// `cinf(G)` of a candidate id set against precomputed influence sets
/// (Definition 6). Duplicated candidates are tolerated (set semantics).
pub fn cinf_of_set(sets: &InfluenceSets, g: &[u32]) -> f64 {
    sets.cinf_set(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InfluenceSets;

    #[test]
    fn duplicate_candidates_do_not_double_count() {
        let s = InfluenceSets::new(vec![vec![0, 1]], vec![0, 0]);
        assert_eq!(cinf_of_set(&s, &[0, 0]), cinf_of_set(&s, &[0]));
    }

    #[test]
    fn empty_set_has_zero_cinf() {
        let s = InfluenceSets::new(vec![vec![0]], vec![0]);
        assert_eq!(cinf_of_set(&s, &[]), 0.0);
    }
}
