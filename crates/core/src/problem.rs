use mc2ls_geo::Point;
use mc2ls_influence::{Model, MovingUser, ProbabilityFunction, Sigmoid};

/// An MC²LS instance (paper Definition 7): moving users `Ω`, existing
/// competitor facilities `F`, candidate locations `C`, the number `k` of
/// sites to open, the influence threshold `τ`, and the probability function
/// `PF`.
///
/// Users, facilities and candidates are addressed by their index in the
/// respective vectors throughout the crate (`u32` ids).
#[derive(Debug, Clone)]
pub struct Problem<PF: ProbabilityFunction = Sigmoid> {
    /// Moving users `Ω`.
    pub users: Vec<MovingUser>,
    /// Existing competitor facilities `F` (stationary points).
    pub facilities: Vec<Point>,
    /// Candidate locations `C` (stationary points).
    pub candidates: Vec<Point>,
    /// Number of candidates to select (`k ≥ 1`).
    pub k: usize,
    /// Influence probability threshold `τ ∈ (0, 1)`.
    pub tau: f64,
    /// The distance-based probability function.
    pub pf: PF,
    /// Positions per block of the blocked verification substrate
    /// ([`mc2ls_influence::PositionBlocks`]).
    /// [`BLOCK_SIZE_AUTO`](mc2ls_influence::BLOCK_SIZE_AUTO) (`0`, the
    /// default) derives the size per dataset from the density probe;
    /// [`BLOCK_SIZE_PLAIN`](mc2ls_influence::BLOCK_SIZE_PLAIN) disables
    /// blocking and runs the plain per-position kernel. Decisions are
    /// identical in every mode, only the evaluation count differs.
    pub block_size: usize,
    /// The competition model splitting a covered user's influence between
    /// the entrant and the user's incumbent facilities
    /// ([`mc2ls_influence::CompetitionModel`]). Defaults to the paper's
    /// [`Model::Cumulative`], whose selections are bit-identical to the
    /// pre-model code; non-submodular models route selection to the exact
    /// branch-and-bound oracle (see `algorithms::run_selector`).
    pub model: Model,
}

impl<PF: ProbabilityFunction> Problem<PF> {
    /// Creates and validates an instance.
    ///
    /// # Panics
    /// Panics when `τ ∉ (0,1)`, `k = 0`, `k > |C|`, or any coordinate is
    /// non-finite — all of these indicate a construction bug at the call
    /// site, not a recoverable runtime condition.
    pub fn new(
        users: Vec<MovingUser>,
        facilities: Vec<Point>,
        candidates: Vec<Point>,
        k: usize,
        tau: f64,
        pf: PF,
    ) -> Self {
        assert!(tau > 0.0 && tau < 1.0, "tau must be in (0, 1), got {tau}");
        assert!(k >= 1, "k must be at least 1");
        assert!(
            k <= candidates.len(),
            "k = {k} exceeds the number of candidates ({})",
            candidates.len()
        );
        assert!(
            facilities
                .iter()
                .chain(candidates.iter())
                .all(Point::is_finite),
            "facility/candidate coordinates must be finite"
        );
        assert!(
            users
                .iter()
                .all(|u| u.positions().iter().all(Point::is_finite)),
            "user positions must be finite"
        );
        Problem {
            users,
            facilities,
            candidates,
            k,
            tau,
            pf,
            block_size: mc2ls_influence::BLOCK_SIZE_AUTO,
            model: Model::Cumulative,
        }
    }

    /// Sets the verification block size
    /// ([`BLOCK_SIZE_AUTO`](mc2ls_influence::BLOCK_SIZE_AUTO) = density
    /// probe, [`BLOCK_SIZE_PLAIN`](mc2ls_influence::BLOCK_SIZE_PLAIN) =
    /// plain per-position kernel).
    pub fn with_block_size(mut self, block_size: usize) -> Self {
        self.block_size = block_size;
        self
    }

    /// Sets the competition model (see [`Problem::model`]). Influence
    /// relationships (`Pr_v(o) ≥ τ` coverage) are model-independent; the
    /// model only reweights the selection phase.
    pub fn with_model(mut self, model: Model) -> Self {
        self.model = model;
        self
    }

    /// Number of users `|Ω|`.
    pub fn n_users(&self) -> usize {
        self.users.len()
    }

    /// Number of candidates `|C|`.
    pub fn n_candidates(&self) -> usize {
        self.candidates.len()
    }

    /// Number of existing facilities `|F|`.
    pub fn n_facilities(&self) -> usize {
        self.facilities.len()
    }

    /// Total number of recorded positions across all users.
    pub fn n_positions(&self) -> usize {
        self.users.iter().map(MovingUser::len).sum()
    }

    /// The largest per-user position count `r_max`.
    pub fn r_max(&self) -> usize {
        self.users.iter().map(MovingUser::len).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (Vec<MovingUser>, Vec<Point>, Vec<Point>) {
        let users = vec![
            MovingUser::new(vec![Point::new(0.0, 0.0), Point::new(0.1, 0.1)]),
            MovingUser::new(vec![Point::new(5.0, 5.0)]),
        ];
        let facilities = vec![Point::new(1.0, 1.0)];
        let candidates = vec![Point::new(0.0, 0.5), Point::new(4.0, 4.0)];
        (users, facilities, candidates)
    }

    #[test]
    fn constructs_and_reports_sizes() {
        let (u, f, c) = tiny();
        let p = Problem::new(u, f, c, 2, 0.5, Sigmoid::paper_default());
        assert_eq!(p.n_users(), 2);
        assert_eq!(p.n_facilities(), 1);
        assert_eq!(p.n_candidates(), 2);
        assert_eq!(p.n_positions(), 3);
        assert_eq!(p.r_max(), 2);
    }

    #[test]
    #[should_panic(expected = "tau must be in (0, 1)")]
    fn rejects_bad_tau() {
        let (u, f, c) = tiny();
        Problem::new(u, f, c, 1, 1.0, Sigmoid::paper_default());
    }

    #[test]
    #[should_panic(expected = "exceeds the number of candidates")]
    fn rejects_k_over_candidates() {
        let (u, f, c) = tiny();
        Problem::new(u, f, c, 3, 0.5, Sigmoid::paper_default());
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn rejects_zero_k() {
        let (u, f, c) = tiny();
        Problem::new(u, f, c, 0, 0.5, Sigmoid::paper_default());
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn rejects_nan_candidate() {
        let (u, f, mut c) = tiny();
        c.push(Point::new(f64::NAN, 0.0));
        Problem::new(u, f, c, 1, 0.5, Sigmoid::paper_default());
    }
}
