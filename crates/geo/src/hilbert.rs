//! Hilbert-curve codes over quad subdivisions of a [`Square`] — the
//! alternative block ordering of the verification substrate.
//!
//! Morton order (z-order) is cheap but takes long diagonal jumps between
//! quadrants, which can spread spatially close positions across blocks and
//! loosen per-block MBRs. The Hilbert curve visits the same grid cells with
//! unit steps only, so consecutive positions are always adjacent cells; the
//! `BENCH_verify` experiment measures whether that tightens block MBRs
//! enough to lower the blocked kernel's open rate.
//!
//! The cell a point occupies is computed by [`grid_coords`] — the *same*
//! floating-point midpoint descent as [`morton_code`](crate::morton_code) —
//! so the two orderings always agree on cell assignment bit for bit; only
//! the order of cells along the curve differs. The batch [`hilbert_codes`]
//! reads the cells off the lockstep [`morton_codes`] instead.

use crate::morton::{grid_coords, morton_codes, split_code};
use crate::{Point, Square};

/// The Hilbert-curve index of `p`'s grid cell under a `depth`-level quad
/// subdivision of `root` (a `2^depth × 2^depth` grid; callers keep
/// `depth ≤ 31` so the index fits `2·depth` bits).
///
/// # Examples
/// ```
/// use mc2ls_geo::{hilbert_code, Point, Square};
///
/// let root = Square::new(Point::ORIGIN, 8.0);
/// // The curve starts in the SW corner cell.
/// assert_eq!(hilbert_code(&root, 3, &Point::new(0.1, 0.1)), 0);
/// ```
pub fn hilbert_code(root: &Square, depth: usize, p: &Point) -> u64 {
    debug_assert!(depth <= 31, "hilbert depth {depth} exceeds 31");
    if depth == 0 {
        return 0;
    }
    let (cx, cy) = grid_coords(root, depth, p);
    hilbert_index(1u64 << depth, cx, cy)
}

/// [`hilbert_code`] of every point in `points`, in order: `out` is cleared
/// and refilled with one code per point.
///
/// The cells come from the lockstep [`morton_codes`] descent, split back
/// into `(column, row)`, so every code equals the scalar [`hilbert_code`]'s.
pub fn hilbert_codes(root: &Square, depth: usize, points: &[Point], out: &mut Vec<u64>) {
    debug_assert!(depth <= 31, "hilbert depth {depth} exceeds 31");
    morton_codes(root, depth, points, out);
    for code in out.iter_mut() {
        let (cx, cy) = split_code(*code);
        *code = hilbert_index(1u64 << depth, cx, cy);
    }
}

/// The classic xy→d walk: per level, pick the quadrant's position along the
/// curve, then rotate/reflect the coordinate frame into that quadrant's
/// sub-curve orientation.
fn hilbert_index(n: u64, mut x: u64, mut y: u64) -> u64 {
    let mut d = 0u64;
    let mut s = n / 2;
    while s > 0 {
        let rx = u64::from(x & s > 0);
        let ry = u64::from(y & s > 0);
        d += s * s * ((3 * rx) ^ ry);
        if ry == 0 {
            if rx == 1 {
                x = n - 1 - x;
                y = n - 1 - y;
            }
            std::mem::swap(&mut x, &mut y);
        }
        s /= 2;
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Codes over the full grid must be a permutation of `0..n²` in which
    /// consecutive cells are unit-Manhattan neighbours — the defining
    /// property of the Hilbert traversal (Morton fails it at every quadrant
    /// boundary).
    #[test]
    fn full_grid_is_a_unit_step_permutation() {
        for depth in [1usize, 2, 3, 5] {
            let n = 1u64 << depth;
            let mut cells = vec![(0u64, 0u64); (n * n) as usize];
            let mut seen = vec![false; (n * n) as usize];
            for x in 0..n {
                for y in 0..n {
                    let d = hilbert_index(n, x, y);
                    assert!(!seen[d as usize], "duplicate code {d} at depth {depth}");
                    seen[d as usize] = true;
                    cells[d as usize] = (x, y);
                }
            }
            for pair in cells.windows(2) {
                let (ax, ay) = pair[0];
                let (bx, by) = pair[1];
                let step = ax.abs_diff(bx) + ay.abs_diff(by);
                assert_eq!(step, 1, "non-unit step at depth {depth}: {pair:?}");
            }
        }
    }

    #[test]
    fn code_reflects_the_shared_cell_descent() {
        let root = Square::new(Point::new(-3.0, 2.0), 8.0);
        for p in [
            Point::new(-2.5, 2.5),
            Point::new(4.9, 9.9),
            Point::new(1.0, 6.0), // exactly on every split line
            Point::new(0.999, 6.001),
        ] {
            let (cx, cy) = grid_coords(&root, 4, &p);
            assert_eq!(hilbert_code(&root, 4, &p), hilbert_index(1 << 4, cx, cy));
        }
    }

    #[test]
    fn zero_depth_and_degenerate_squares_are_total() {
        let root = Square::new(Point::ORIGIN, 1.0);
        assert_eq!(hilbert_code(&root, 0, &Point::new(0.7, 0.3)), 0);
        // A zero-side root maps every point to the same cell, hence the
        // same code — identical positions keep their original order.
        let degenerate = Square::new(Point::new(1.0, 1.0), 0.0);
        let a = hilbert_code(&degenerate, 4, &Point::new(1.0, 1.0));
        let b = hilbert_code(&degenerate, 4, &Point::new(1.0, 1.0));
        assert_eq!(a, b);
    }

    #[test]
    fn nearby_points_get_nearby_codes() {
        let root = Square::new(Point::ORIGIN, 16.0);
        let a = hilbert_code(&root, 5, &Point::new(1.0, 1.0));
        let b = hilbert_code(&root, 5, &Point::new(1.2, 0.8));
        let far = hilbert_code(&root, 5, &Point::new(15.0, 15.0));
        assert!(a.abs_diff(b) < a.abs_diff(far));
    }
}
