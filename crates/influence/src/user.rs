use mc2ls_geo::{Point, Rect};
use std::sync::Arc;

/// Identifier of a moving user: its index in the problem's user vector.
pub type UserId = u32;

/// A moving user `o = {p₁, …, p_r}` with its cached activity MBR
/// (paper §III-A).
///
/// Users always have at least one position; the paper trims single-position
/// users from the datasets, but the model and all algorithms remain correct
/// for `r = 1`, so construction only rejects the empty case.
///
/// The positions are immutable and shared: a clone bumps a reference
/// count instead of copying the trajectory, so the update engine, a live
/// epoch's plane and a problem can all hold the same user. Changing a
/// trajectory means building a new user.
#[derive(Debug, Clone)]
pub struct MovingUser {
    positions: Arc<[Point]>,
    mbr: Rect,
}

impl MovingUser {
    /// Builds a user from a non-empty position list.
    ///
    /// # Panics
    /// Panics when `positions` is empty — a user without positions has no
    /// meaning in the influence model.
    pub fn new(positions: Vec<Point>) -> Self {
        let mbr =
            // lint:allow(panic-path): the documented panic contract of MovingUser::new (empty positions)
            Rect::bounding(&positions).expect("a moving user must have at least one position");
        MovingUser {
            positions: positions.into(),
            mbr,
        }
    }

    /// The user's recorded positions.
    #[inline]
    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// Number of positions `r = |o|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Always `false`; present for clippy's `len_without_is_empty`.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The activity region (minimum bounding rectangle of all positions).
    #[inline]
    pub fn mbr(&self) -> &Rect {
        &self.mbr
    }

    /// A new user keeping only the selected position indices (used by the
    /// Fig. 15/16 experiments that subsample `r` positions per user).
    ///
    /// # Panics
    /// Panics when `indices` is empty or contains an out-of-range index.
    pub fn subsample(&self, indices: &[usize]) -> MovingUser {
        let positions: Vec<Point> = indices.iter().map(|&i| self.positions[i]).collect();
        MovingUser::new(positions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mbr_is_cached_bounding_box() {
        let u = MovingUser::new(vec![
            Point::new(0.0, 0.0),
            Point::new(2.0, -1.0),
            Point::new(1.0, 3.0),
        ]);
        assert_eq!(u.len(), 3);
        assert_eq!(
            *u.mbr(),
            Rect::new(Point::new(0.0, -1.0), Point::new(2.0, 3.0))
        );
    }

    #[test]
    #[should_panic(expected = "at least one position")]
    fn rejects_empty_user() {
        MovingUser::new(vec![]);
    }

    #[test]
    fn single_position_user_has_point_mbr() {
        let u = MovingUser::new(vec![Point::new(1.0, 2.0)]);
        assert_eq!(u.mbr().area(), 0.0);
        assert!(u.mbr().contains(&Point::new(1.0, 2.0)));
    }

    #[test]
    fn subsample_keeps_selected_positions() {
        let u = MovingUser::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(2.0, 2.0),
        ]);
        let s = u.subsample(&[0, 2]);
        assert_eq!(s.positions(), &[Point::new(0.0, 0.0), Point::new(2.0, 2.0)]);
        assert_eq!(
            *s.mbr(),
            Rect::new(Point::new(0.0, 0.0), Point::new(2.0, 2.0))
        );
    }

    #[test]
    fn clones_share_their_positions() {
        let u = MovingUser::new(vec![Point::new(0.0, 0.0), Point::new(1.0, 1.0)]);
        let v = u.clone();
        assert_eq!(v.positions().as_ptr(), u.positions().as_ptr());
        assert_eq!(v.mbr(), u.mbr());
    }
}
