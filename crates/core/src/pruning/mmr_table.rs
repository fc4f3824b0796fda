use mc2ls_influence::{min_max_radius, ProbabilityFunction};

/// Memoised `mMR(τ, r)` radii for every position count `r ∈ 0..=r_max`.
///
/// Users share few distinct `r` values and both the IA/NIB regions and the
/// NIR bound query `mMR` per user, so the radii are computed once per
/// instance. `None` entries mean a user with that many positions can never
/// be influenced under `(PF, τ)`.
#[derive(Debug, Clone)]
pub struct MmrTable {
    by_r: Vec<Option<f64>>,
}

impl MmrTable {
    /// Builds the table for `r ∈ 0..=r_max`.
    pub fn build<PF: ProbabilityFunction + ?Sized>(pf: &PF, tau: f64, r_max: usize) -> Self {
        let by_r = (0..=r_max).map(|r| min_max_radius(pf, tau, r)).collect();
        MmrTable { by_r }
    }

    /// `mMR(τ, r)`; `None` when unreachable. `r` beyond `r_max` panics —
    /// the table is always built from the dataset's true maximum.
    #[inline]
    pub fn get(&self, r: usize) -> Option<f64> {
        self.by_r[r]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc2ls_influence::{non_influence_radius, Sigmoid};

    #[test]
    fn table_matches_direct_computation() {
        let pf = Sigmoid::paper_default();
        let t = MmrTable::build(&pf, 0.7, 20);
        for r in 0..=20 {
            assert_eq!(t.get(r), min_max_radius(&pf, 0.7, r));
        }
    }

    #[test]
    fn max_radius_equals_nir() {
        let pf = Sigmoid::paper_default();
        let t = MmrTable::build(&pf, 0.5, 30);
        // mMR grows with r, so the largest entry is r_max's: NIR.
        let nir = non_influence_radius(&pf, 0.5, 30);
        assert_eq!(t.get(30), nir);
    }

    #[test]
    fn unreachable_rs_are_none() {
        let pf = Sigmoid::paper_default();
        let t = MmrTable::build(&pf, 0.7, 5);
        assert!(t.get(0).is_none());
        assert!(t.get(1).is_none()); // PF(0)=0.5 < 0.7
        assert!(t.get(2).is_some());
    }

    #[test]
    fn all_unreachable_gives_no_max() {
        let pf = Sigmoid::new(0.1);
        // τ=0.9 unreachable even with r=2 positions at distance 0:
        // 1-(1-0.1)^2 = 0.19 < 0.9.
        let t = MmrTable::build(&pf, 0.9, 2);
        assert!((0..=2).all(|r| t.get(r).is_none()));
    }
}
