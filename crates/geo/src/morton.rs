//! Morton (z-order) codes over quad subdivisions of a [`Square`].
//!
//! Four consumers key positions through this module:
//!
//! * the IQuad-tree builder in `mc2ls-index`, whose codes must be
//!   bit-identical to its `quadrant_of` traversal descent;
//! * the blocked verification substrate in `mc2ls-influence`, which
//!   Morton-sorts each user's positions so consecutive positions are
//!   spatially close, making per-block MBRs tight;
//! * the same substrate's Hilbert ordering
//!   ([`hilbert_codes`](crate::hilbert_codes)), which reads each position's
//!   grid cell off the Morton code;
//! * the MaxRS-style sweep in `mc2ls-candgen`, which buckets every position
//!   into its `(column, row)` grid cell.
//!
//! All of them go through the batch calls [`morton_codes`] and
//! [`grid_cells`], which run one *lockstep* descent over [`LANE`] points at
//! a time. Per level, every lane compares its point against its own
//! square's midpoint `ox + h` and moves its origin with a select between
//! that same midpoint and the old origin — where the scalar descent adds
//! `east·h`. Both produce the identical midpoint expression at every level
//! (the select drops only the sign of a zero origin, which no comparison
//! can see), so every batch code equals [`morton_code`]'s bit for bit. The
//! lane loop has a fixed trip count and no data-dependent branch, so
//! optimised builds lower it to packed compares and and/andn/or blends
//! whatever loop the caller wraps around it; the scalar descent's
//! `east as f64 * h` instead puts a convert and a multiply on every
//! level's dependency chain.
//!
//! The scalar [`morton_code`] and [`grid_coords`] stay as the single-point
//! API and as the oracle the kernel's equality tests compare against.

use crate::{Point, Square};

/// Points per step of the lockstep descent, and the lane width of the
/// verification kernel in `mc2ls-influence`. Eight `f64`s span one or two
/// SIMD registers on every target the workspace builds for, and fixed-size
/// `[f64; LANE]` arrays keep the lane loops free of bounds checks.
pub const LANE: usize = 8;

/// The Morton (z-order) code of `p` under a `depth`-level quad subdivision
/// of `root`.
///
/// The descent is a scalar replica of [`Square::quadrant_of`] +
/// [`Square::child`], evaluating the *same* floating-point expressions
/// (`center = origin + side·0.5`, `child.origin = origin + (q&1)·h`) so the
/// result is bit-identical to the struct-based descent, just without
/// materialising squares. Points on a split line go to the higher-indexed
/// child, exactly as `quadrant_of` assigns them.
///
/// Each level contributes two bits (`north ‖ east`), so the code fits in
/// `2·depth` bits; callers keep `depth ≤ 31`.
///
/// # Examples
/// ```
/// use mc2ls_geo::{morton_code, Point, Square};
///
/// let root = Square::new(Point::ORIGIN, 8.0);
/// // SW quadrant at every level ⇒ code 0.
/// assert_eq!(morton_code(&root, 3, &Point::new(0.1, 0.1)), 0);
/// // NE quadrant at every level ⇒ all bits set.
/// assert_eq!(morton_code(&root, 3, &Point::new(7.9, 7.9)), 0b111111);
/// ```
pub fn morton_code(root: &Square, depth: usize, p: &Point) -> u64 {
    let (mut ox, mut oy, mut side) = (root.origin.x, root.origin.y, root.side);
    let mut code = 0u64;
    for _ in 0..depth {
        let h = side * 0.5;
        let east = (p.x >= ox + h) as u64;
        let north = (p.y >= oy + h) as u64;
        code = (code << 2) | (north << 1) | east;
        ox += east as f64 * h;
        oy += north as f64 * h;
        side = h;
    }
    code
}

/// The `(column, row)` grid cell of `p` under the same `depth`-level quad
/// subdivision [`morton_code`] walks — the per-level `east`/`north` bits
/// accumulated as integer coordinates on the `2^depth × 2^depth` grid.
///
/// Because the descent evaluates the *identical* floating-point midpoint
/// expressions, interleaving the returned coordinate bits reproduces
/// `morton_code` exactly; the Hilbert ordering reuses these cells so the two
/// orderings always agree on which grid cell a point occupies (only the
/// ordering of cells differs).
pub fn grid_coords(root: &Square, depth: usize, p: &Point) -> (u64, u64) {
    let (mut ox, mut oy, mut side) = (root.origin.x, root.origin.y, root.side);
    let (mut cx, mut cy) = (0u64, 0u64);
    for _ in 0..depth {
        let h = side * 0.5;
        let east = (p.x >= ox + h) as u64;
        let north = (p.y >= oy + h) as u64;
        cx = (cx << 1) | east;
        cy = (cy << 1) | north;
        ox += east as f64 * h;
        oy += north as f64 * h;
        side = h;
    }
    (cx, cy)
}

/// [`morton_code`] of every point in `points`, in order: `out` is cleared
/// and refilled with one code per point.
///
/// Runs the lockstep descent [`LANE`] points at a time; every code equals
/// the scalar [`morton_code`]'s bit for bit. Callers keep `depth ≤ 31`.
///
/// # Examples
/// ```
/// use mc2ls_geo::{morton_code, morton_codes, Point, Square};
///
/// let root = Square::new(Point::ORIGIN, 8.0);
/// let points = [Point::new(0.1, 0.1), Point::new(7.9, 7.9), Point::new(4.0, 1.0)];
/// let mut codes = Vec::new();
/// morton_codes(&root, 3, &points, &mut codes);
/// assert_eq!(codes, [0, 0b111111, morton_code(&root, 3, &points[2])]);
/// ```
pub fn morton_codes(root: &Square, depth: usize, points: &[Point], out: &mut Vec<u64>) {
    out.clear();
    out.reserve(points.len());
    lockstep(
        root,
        depth,
        points.len(),
        |i| (points[i].x, points[i].y),
        |codes| out.extend_from_slice(codes),
    );
}

/// [`grid_coords`] of every point `(xs[i], ys[i])` of a structure-of-arrays
/// position list, in order: `out` is cleared and refilled with one
/// `(column, row)` cell per point.
///
/// The cells are the lockstep descent's Morton codes split back into their
/// east (column) and north (row) bits, so they equal the scalar
/// [`grid_coords`] bit for bit. Callers keep `depth ≤ 31`.
///
/// # Panics
/// Panics when `xs` and `ys` have different lengths.
///
/// # Examples
/// ```
/// use mc2ls_geo::{grid_cells, Point, Square};
///
/// let root = Square::new(Point::ORIGIN, 8.0);
/// let mut cells = Vec::new();
/// grid_cells(&root, 3, &[0.1, 7.9, 4.0], &[0.1, 7.9, 1.0], &mut cells);
/// assert_eq!(cells, [(0, 0), (7, 7), (4, 1)]);
/// ```
pub fn grid_cells(root: &Square, depth: usize, xs: &[f64], ys: &[f64], out: &mut Vec<(u64, u64)>) {
    assert_eq!(xs.len(), ys.len(), "xs/ys length mismatch");
    out.clear();
    out.reserve(xs.len());
    lockstep(
        root,
        depth,
        xs.len(),
        |i| (xs[i], ys[i]),
        |codes| out.extend(codes.iter().map(|&code| split_code(code))),
    );
}

/// The `(column, row)` cell of a Morton code: its east bits (even
/// positions) and north bits (odd positions), each gathered into the low
/// half of a word — the inverse of the interleave [`morton_code`] builds.
#[inline]
pub(crate) fn split_code(code: u64) -> (u64, u64) {
    (even_bits(code), even_bits(code >> 1))
}

/// Gathers bits `0, 2, 4, …, 62` of `x` into bits `0..32`.
#[inline]
fn even_bits(x: u64) -> u64 {
    let mut x = x & 0x5555_5555_5555_5555;
    x = (x | (x >> 1)) & 0x3333_3333_3333_3333;
    x = (x | (x >> 2)) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | (x >> 4)) & 0x00FF_00FF_00FF_00FF;
    x = (x | (x >> 8)) & 0x0000_FFFF_0000_FFFF;
    (x | (x >> 16)) & 0x0000_0000_FFFF_FFFF
}

/// Drives [`descend`] over `n` points read through `load`, [`LANE`] at a
/// time, handing each step's codes to `emit` in input order. The last step
/// is padded by repeating its final point; only its real codes are handed
/// on.
#[inline(always)]
fn lockstep(
    root: &Square,
    depth: usize,
    n: usize,
    load: impl Fn(usize) -> (f64, f64),
    mut emit: impl FnMut(&[u64]),
) {
    let mut start = 0;
    while start < n {
        let len = (n - start).min(LANE);
        let mut px = [0.0; LANE];
        let mut py = [0.0; LANE];
        for (l, (x, y)) in px.iter_mut().zip(&mut py).enumerate() {
            (*x, *y) = load(start + l.min(len - 1));
        }
        emit(&descend(root, depth, &px, &py)[..len]);
        start += len;
    }
}

/// The lockstep descent: [`morton_code`] of `LANE` points at once.
///
/// Each lane keeps its own square origin; the side is shared, since every
/// lane halves it at every level. A lane's origin moves by a select of the
/// midpoint it was just compared against, the value the scalar
/// `ox += east·h` produces, so the comparisons — and hence the codes —
/// agree with [`morton_code`] at every level.
#[inline(always)]
fn descend(root: &Square, depth: usize, px: &[f64; LANE], py: &[f64; LANE]) -> [u64; LANE] {
    let mut ox = [root.origin.x; LANE];
    let mut oy = [root.origin.y; LANE];
    let mut code = [0u64; LANE];
    let mut side = root.side;
    for _ in 0..depth {
        let h = side * 0.5;
        for l in 0..LANE {
            let mx = ox[l] + h;
            let my = oy[l] + h;
            let east = px[l] >= mx;
            let north = py[l] >= my;
            code[l] = (code[l] << 2) | (u64::from(north) << 1) | u64::from(east);
            ox[l] = if east { mx } else { ox[l] };
            oy[l] = if north { my } else { oy[l] };
        }
        side = h;
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_matches_geometric_descent() {
        let root = Square::new(Point::new(-3.0, 2.0), 8.0);
        for p in [
            Point::new(-2.5, 2.5),
            Point::new(4.9, 9.9),
            Point::new(1.0, 6.0), // exactly on every split line
            Point::new(0.999, 6.001),
        ] {
            let code = morton_code(&root, 4, &p);
            let mut sq = root;
            for level in 0..4 {
                let q = sq.quadrant_of(&p);
                assert_eq!(
                    ((code >> (2 * (3 - level))) & 3) as usize,
                    q,
                    "level {level} point {p:?}"
                );
                sq = sq.child(q);
            }
        }
    }

    #[test]
    fn zero_depth_is_zero() {
        let root = Square::new(Point::ORIGIN, 1.0);
        assert_eq!(morton_code(&root, 0, &Point::new(0.7, 0.3)), 0);
    }

    #[test]
    fn degenerate_square_is_total() {
        // A zero-side root (identical positions) still yields a code —
        // every point lands in the NE child at every level.
        let root = Square::new(Point::new(1.0, 1.0), 0.0);
        let c = morton_code(&root, 2, &Point::new(1.0, 1.0));
        assert_eq!(c, 0b1111);
    }

    #[test]
    fn grid_coords_interleave_to_the_morton_code() {
        let root = Square::new(Point::new(-3.0, 2.0), 8.0);
        for p in [
            Point::new(-2.5, 2.5),
            Point::new(4.9, 9.9),
            Point::new(1.0, 6.0),
            Point::new(0.999, 6.001),
        ] {
            let depth = 6;
            let (cx, cy) = grid_coords(&root, depth, &p);
            let mut interleaved = 0u64;
            for level in (0..depth).rev() {
                let east = (cx >> level) & 1;
                let north = (cy >> level) & 1;
                interleaved = (interleaved << 2) | (north << 1) | east;
            }
            assert_eq!(interleaved, morton_code(&root, depth, &p), "{p:?}");
            assert_eq!(split_code(interleaved), (cx, cy), "{p:?}");
        }
    }

    #[test]
    fn order_is_spatially_coherent() {
        // Points in the same deep quadrant sort adjacently.
        let root = Square::new(Point::ORIGIN, 16.0);
        let sw_a = morton_code(&root, 5, &Point::new(1.0, 1.0));
        let sw_b = morton_code(&root, 5, &Point::new(1.2, 0.8));
        let ne = morton_code(&root, 5, &Point::new(15.0, 15.0));
        assert!(sw_a.abs_diff(sw_b) < sw_a.abs_diff(ne));
    }
}
