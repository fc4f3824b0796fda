//! The four pruning regions/rules of the paper.
//!
//! Two *classical* facility-pruning regions from PINOCCHIO [13], used by the
//! Adapted k-CIFP baseline (Algorithm 1) and optionally layered onto the
//! IQuad-tree solution:
//!
//! * **IA (Influence Arcs)** — [`ia_contains`]: an abstract facility whose
//!   distance to the *farthest* corner of a user's MBR is at most
//!   `mMR(τ, r)` certainly influences the user (every position sits inside
//!   the facility's influence circle; Corollary 1).
//! * **NIB (Non-Influence Boundary)** — [`nib_contains`]: a facility whose
//!   distance to the *nearest* point of the MBR exceeds `mMR(τ, r)` cannot
//!   influence the user (no position can be inside the influence circle;
//!   Corollary 2).
//!
//! The paper's *novel* user-pruning rules — **IS** (Lemma 2) and **NIR**
//! (Lemma 3) — live inside [`mc2ls_index::IQuadTree`], because they are
//! defined on the index's squares; this module adds [`MmrTable`], the
//! shared per-`r` memo of `mMR(τ, r)` radii that both rule families need.

mod mmr_table;

pub use mmr_table::MmrTable;

use mc2ls_geo::{Point, Rect};

/// True when `v` lies in the user's IA region: `max_dist(v, MBR) ≤ mMR`.
///
/// This is exact for the corner-arc region of [13]: all positions lie in the
/// MBR, and the farthest-corner test is equivalent to "the influence circle
/// `φ(v, mMR)` covers the MBR".
#[inline]
pub fn ia_contains(user_mbr: &Rect, v: &Point, mmr: f64) -> bool {
    user_mbr.max_distance_sq(v) <= mmr * mmr
}

/// True when `v` lies in the user's NIB region: `min_dist(v, MBR) ≤ mMR`.
/// Facilities *outside* the region are certainly non-influencing.
#[inline]
pub fn nib_contains(user_mbr: &Rect, v: &Point, mmr: f64) -> bool {
    user_mbr.min_distance_sq(v) <= mmr * mmr
}

/// The axis-aligned bounding rectangle of the NIB region (the MBR inflated
/// by `mMR`): k-CIFP's R-tree range-query window and IQT's first test on a
/// pair; hits are then filtered exactly with [`nib_contains`].
#[inline]
pub fn nib_query_rect(user_mbr: &Rect, mmr: f64) -> Rect {
    user_mbr.inflate(mmr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc2ls_influence::{cumulative_probability, min_max_radius, MovingUser, Sigmoid};

    fn user() -> MovingUser {
        MovingUser::new(vec![
            Point::new(0.0, 0.0),
            Point::new(0.4, 0.2),
            Point::new(0.1, 0.5),
            Point::new(0.3, 0.3),
        ])
    }

    #[test]
    fn ia_implies_influence() {
        let u = user();
        let pf = Sigmoid::paper_default();
        let tau = 0.6;
        let mmr = min_max_radius(&pf, tau, u.len()).unwrap();
        // Scan a grid of facility placements; every IA hit must influence.
        for i in -20..20 {
            for j in -20..20 {
                let v = Point::new(i as f64 * 0.1, j as f64 * 0.1);
                if ia_contains(u.mbr(), &v, mmr) {
                    let pr = cumulative_probability(&pf, &v, u.positions());
                    assert!(pr >= tau - 1e-9, "IA admitted v={v:?} with pr={pr}");
                }
            }
        }
    }

    #[test]
    fn outside_nib_implies_no_influence() {
        let u = user();
        let pf = Sigmoid::paper_default();
        let tau = 0.6;
        let mmr = min_max_radius(&pf, tau, u.len()).unwrap();
        for i in -30..30 {
            for j in -30..30 {
                let v = Point::new(i as f64 * 0.2, j as f64 * 0.2);
                if !nib_contains(u.mbr(), &v, mmr) {
                    let pr = cumulative_probability(&pf, &v, u.positions());
                    assert!(pr < tau, "NIB failed to exclude v={v:?} with pr={pr}");
                }
            }
        }
    }

    #[test]
    fn ia_region_is_inside_nib_region() {
        let u = user();
        let mmr = 1.0;
        for i in -15..15 {
            for j in -15..15 {
                let v = Point::new(i as f64 * 0.15, j as f64 * 0.15);
                if ia_contains(u.mbr(), &v, mmr) {
                    assert!(nib_contains(u.mbr(), &v, mmr));
                }
            }
        }
    }

    #[test]
    fn nib_query_rect_covers_nib_region() {
        let u = user();
        let mmr = 0.8;
        let rect = nib_query_rect(u.mbr(), mmr);
        for i in -20..20 {
            for j in -20..20 {
                let v = Point::new(i as f64 * 0.1, j as f64 * 0.1);
                if nib_contains(u.mbr(), &v, mmr) {
                    assert!(rect.contains(&v));
                }
            }
        }
    }
}
