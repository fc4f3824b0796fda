//! Pinned proposals: every case's `SweepStats` and a CRC-32 over its sites,
//! recorded once and asserted forever after.
//!
//! The other sweep checks compare `propose` against itself (across thread
//! counts, entry points, shard layouts) or against a reference written in
//! the test, so a rewrite that is wrong but self-consistent could pass them
//! all. These rows are absolute: two seeded point sets, windows that hit a
//! window span `s` of 1, 2, 3 and 4 cells plus the `MAX_GRID_DEPTH` cap,
//! `m` ∈ {1, 7, more than the anchor count}, `min_separation` ∈ {default,
//! 0, wider than the extent}, each run at 1 and 3 threads.
//!
//! A row that moves on purpose is re-pinned from the failure message, which
//! prints the whole table as recomputed; CHANGES.md then says why.

use mc2ls_candgen::{propose, Proposal, SweepConfig, MAX_GRID_DEPTH};
use mc2ls_geo::codec::crc32;
use mc2ls_geo::{Extent, Point};
use rand::prelude::*;

/// Site counts large enough to exceed every case's anchor count.
const M_ALL: usize = 1 << 20;
const MS: [usize; 3] = [1, 7, M_ALL];

/// One pinned `(input, window)` row: the proposal's `SweepStats`, then one
/// `(site count, CRC)` pair per `(m, separation)` case, `m`-major in the
/// order of [`MS`] and [`separations`].
type Row = (
    &'static str,
    &'static str,
    u64,
    u64,
    u64,
    u64,
    u64,
    u64,
    [(usize, u32); 9],
);

#[rustfmt::skip]
const PINNED: &[Row] = &[
    ("clusters", "s1", 600, 0, 0x40467ae543e034be, 1, 1, 1,
     [(1, 0xcadf885c), (1, 0xcadf885c), (1, 0xcadf885c), (1, 0xcadf885c), (1, 0xcadf885c), (1, 0xcadf885c), (1, 0xcadf885c), (1, 0xcadf885c), (1, 0xcadf885c)]),
    ("clusters", "s2", 600, 5, 0x3ff67ae543e034be, 2, 119, 146,
     [(1, 0x99f2374b), (1, 0x99f2374b), (1, 0x99f2374b), (7, 0x2ed0d594), (7, 0x598f5aa1), (1, 0x99f2374b), (107, 0xd009546b), (146, 0x8cfe8234), (1, 0x99f2374b)]),
    ("clusters", "s3", 600, 4, 0x40067ae543e034be, 3, 40, 68,
     [(1, 0x3e71481f), (1, 0x3e71481f), (1, 0x3e71481f), (7, 0x2dc08f7f), (7, 0x3ed53de9), (1, 0x3e71481f), (35, 0x68d37505), (68, 0xb40cf510), (1, 0x3e71481f)]),
    ("clusters", "s4", 600, 6, 0x3fe67ae543e034be, 4, 290, 540,
     [(1, 0xc2ab07b2), (1, 0xc2ab07b2), (1, 0xc2ab07b2), (7, 0x617ef047), (7, 0x3640ff3c), (1, 0xc2ab07b2), (123, 0x280651e1), (540, 0xaef7d2fe), (1, 0xc2ab07b2)]),
    ("clusters", "cap1", 600, 16, 0x3f467ae543e034be, 1, 600, 600,
     [(1, 0x0987cc2e), (1, 0x0987cc2e), (1, 0x0987cc2e), (7, 0x3ad2f13b), (7, 0x3ad2f13b), (1, 0x0987cc2e), (600, 0x86ca61a1), (600, 0x86ca61a1), (1, 0x0987cc2e)]),
    ("clusters", "cap2", 600, 16, 0x3f467ae543e034be, 2, 600, 2394,
     [(1, 0xe3b8c64c), (1, 0xe3b8c64c), (1, 0xe3b8c64c), (7, 0x01fd1057), (7, 0x01fd1057), (1, 0xe3b8c64c), (2394, 0x02f94bae), (2394, 0x02f94bae), (1, 0xe3b8c64c)]),
    ("lattice", "s1", 500, 0, 0x4031400000000000, 1, 1, 1,
     [(1, 0x24473de8), (1, 0x24473de8), (1, 0x24473de8), (1, 0x24473de8), (1, 0x24473de8), (1, 0x24473de8), (1, 0x24473de8), (1, 0x24473de8), (1, 0x24473de8)]),
    ("lattice", "s2", 500, 5, 0x3fe1400000000000, 2, 276, 637,
     [(1, 0xeb8b05e8), (1, 0xeb8b05e8), (1, 0xeb8b05e8), (7, 0xc2708698), (7, 0xc2708698), (1, 0xeb8b05e8), (637, 0x5261d96c), (637, 0x5261d96c), (1, 0xeb8b05e8)]),
    ("lattice", "s3", 500, 4, 0x3ff1400000000000, 3, 174, 196,
     [(1, 0x13dcb87d), (1, 0x13dcb87d), (1, 0x13dcb87d), (7, 0x18a67777), (7, 0xca38b8a9), (1, 0x13dcb87d), (84, 0x88c3b508), (196, 0x5d46d54c), (1, 0x13dcb87d)]),
    ("lattice", "s4", 500, 6, 0x3fd1400000000000, 4, 276, 2399,
     [(1, 0xeb8b05e8), (1, 0xeb8b05e8), (1, 0xeb8b05e8), (7, 0xb157d32e), (7, 0xe42c2160), (1, 0xeb8b05e8), (461, 0xdd0039c8), (2399, 0x4a406183), (1, 0xeb8b05e8)]),
    ("lattice", "cap1", 500, 16, 0x3f31400000000000, 1, 276, 276,
     [(1, 0x91203b97), (1, 0x91203b97), (1, 0x91203b97), (7, 0xae7eb222), (7, 0xae7eb222), (1, 0x91203b97), (276, 0x58796fec), (276, 0x58796fec), (1, 0x91203b97)]),
    ("lattice", "cap2", 500, 16, 0x3f31400000000000, 2, 276, 985,
     [(1, 0x15d13cf7), (1, 0x15d13cf7), (1, 0x15d13cf7), (7, 0xd6358b99), (7, 0xd6358b99), (1, 0x15d13cf7), (985, 0x7d2a8fac), (985, 0x7d2a8fac), (1, 0x15d13cf7)]),
];

/// Three uniform clusters of different density, 600 positions.
fn clusters() -> Vec<Point> {
    let mut rng = StdRng::seed_from_u64(0x5eed_0001);
    let mut points = Vec::new();
    for &((cx, cy), n, spread) in &[
        ((0.0, 0.0), 250, 6.0),
        ((25.0, -10.0), 200, 3.0),
        ((-15.0, 30.0), 150, 2.0),
    ] {
        points.extend((0..n).map(|_| {
            Point::new(
                cx + rng.gen_range(-spread..spread),
                cy + rng.gen_range(-spread..spread),
            )
        }));
    }
    points
}

/// 500 positions on a skewed 24×24 lattice of pitch 0.75: many duplicates,
/// equal-score ties, and positions on the extent's max edges.
fn lattice() -> Vec<Point> {
    let mut rng = StdRng::seed_from_u64(0x5eed_0002);
    let axis = |rng: &mut StdRng| {
        let u: f64 = rng.gen_range(0.0..1.0);
        ((u * u * 24.0) as u32).min(23) as f64 * 0.75
    };
    (0..500)
        .map(|_| {
            let x = axis(&mut rng);
            let y = axis(&mut rng);
            Point::new(x, y)
        })
        .collect()
}

/// Side of the sweep's root square over `points`.
fn side(points: &[Point]) -> f64 {
    let extent: Extent = points.iter().copied().collect();
    let rect = extent.rect().expect("non-empty input");
    rect.width().max(rect.height())
}

/// `(name, window, expected s, expected depth)`: windows placed so the
/// depth rule of the sweep lands on each window span.
fn windows(side: f64) -> [(&'static str, f64, u64, u64); 6] {
    let cap = (1u64 << MAX_GRID_DEPTH) as f64;
    [
        ("s1", 3.0 * side, 1, 0),
        ("s2", 2.0 * side / 32.0, 2, 5),
        ("s3", 2.5 * side / 16.0, 3, 4),
        ("s4", 3.5 * side / 64.0, 4, 6),
        ("cap1", 0.5 * side / cap, 1, MAX_GRID_DEPTH as u64),
        ("cap2", 1.5 * side / cap, 2, MAX_GRID_DEPTH as u64),
    ]
}

/// The default separation (half a window), none, and one wider than the
/// extent.
fn separations(window: f64, side: f64) -> [f64; 3] {
    [window * 0.5, 0.0, 10.0 * side]
}

/// CRC-32 over every site's center bits, score and anchor, little-endian.
fn sites_crc(p: &Proposal) -> u32 {
    let mut bytes = Vec::with_capacity(32 * p.sites.len());
    for site in &p.sites {
        bytes.extend_from_slice(&site.center.x.to_bits().to_le_bytes());
        bytes.extend_from_slice(&site.center.y.to_bits().to_le_bytes());
        bytes.extend_from_slice(&site.score.to_le_bytes());
        bytes.extend_from_slice(&site.anchor.to_le_bytes());
    }
    crc32(&bytes)
}

/// Recomputes every row at `threads`.
fn table(threads: usize) -> Vec<Row> {
    let mut rows = Vec::new();
    for (input, points) in [("clusters", clusters()), ("lattice", lattice())] {
        let side = side(&points);
        for (name, window, want_s, want_depth) in windows(side) {
            let mut cases = [(0usize, 0u32); 9];
            let mut stats = None;
            for (i, &m) in MS.iter().enumerate() {
                for (j, &sep) in separations(window, side).iter().enumerate() {
                    let cfg = SweepConfig::new(window, m)
                        .with_min_separation(sep)
                        .with_threads(threads);
                    let p = propose(&points, &cfg);
                    assert_eq!(p.stats.window_cells, want_s, "{input}/{name}: s");
                    assert_eq!(p.stats.depth, want_depth, "{input}/{name}: depth");
                    assert!(p.stats.anchors < M_ALL as u64, "{input}/{name}: anchors");
                    assert!(*stats.get_or_insert(p.stats) == p.stats);
                    cases[3 * i + j] = (p.sites.len(), sites_crc(&p));
                }
            }
            let s = stats.expect("nine cases ran");
            rows.push((
                input,
                name,
                s.n_positions,
                s.depth,
                s.cell.to_bits(),
                s.window_cells,
                s.nonempty_cells,
                s.anchors,
                cases,
            ));
        }
    }
    rows
}

fn render(rows: &[Row]) -> String {
    rows.iter()
        .map(|(input, name, n, depth, cell, s, cells, anchors, cases)| {
            let cases: Vec<String> = cases
                .iter()
                .map(|(len, crc)| format!("({len}, 0x{crc:08x})"))
                .collect();
            format!(
                "    (\"{input}\", \"{name}\", {n}, {depth}, 0x{cell:016x}, {s}, {cells}, {anchors},\n     [{}]),\n",
                cases.join(", ")
            )
        })
        .collect()
}

#[test]
fn proposals_match_their_pinned_stats_and_site_checksums() {
    for threads in [1usize, 3] {
        let rows = table(threads);
        assert!(
            rows == PINNED,
            "threads={threads}: proposals moved; recomputed table:\n{}",
            render(&rows)
        );
    }
}
