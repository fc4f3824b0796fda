//! Edge-case matrix of the MaxRS-style sweep: empty input, all-coincident
//! positions, a window dwarfing the data extent, min-separation tie
//! handling (smallest Morton code wins), bit-determinism at any thread
//! count, and a property test against a dense brute-force reference.

use mc2ls_candgen::{propose, CandidateSite, Proposal, SweepConfig, SweepStats, MAX_GRID_DEPTH};
use mc2ls_geo::{grid_coords, Extent, Point, Square};
use proptest::prelude::*;
use rand::prelude::*;

fn cluster(center: (f64, f64), n: usize, spread: f64, rng: &mut StdRng) -> Vec<Point> {
    (0..n)
        .map(|_| {
            Point::new(
                center.0 + rng.gen_range(-spread..spread),
                center.1 + rng.gen_range(-spread..spread),
            )
        })
        .collect()
}

fn assert_sites_identical(a: &[CandidateSite], b: &[CandidateSite], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: site count");
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(
            x.center.x.to_bits(),
            y.center.x.to_bits(),
            "{what}: site {i} center.x"
        );
        assert_eq!(
            x.center.y.to_bits(),
            y.center.y.to_bits(),
            "{what}: site {i} center.y"
        );
        assert_eq!(x.score, y.score, "{what}: site {i} score");
        assert_eq!(x.anchor, y.anchor, "{what}: site {i} anchor");
    }
}

#[test]
fn empty_input_yields_an_empty_proposal() {
    let p = propose(&[], &SweepConfig::new(1.0, 5));
    assert!(p.sites.is_empty());
    assert_eq!(p.stats.n_positions, 0);
    assert_eq!(p.stats.anchors, 0);
}

#[test]
fn all_coincident_positions_yield_one_site_at_the_point() {
    let pt = Point::new(3.25, -1.5);
    let points = vec![pt; 40];
    let p = propose(&points, &SweepConfig::new(2.0, 7));
    assert_eq!(p.sites.len(), 1, "one degenerate cell, one site");
    assert_eq!(p.sites[0].score, 40);
    assert!(
        p.sites[0].center.distance(&pt) < 1e-9,
        "center {:?} must sit on the coincident point",
        p.sites[0].center
    );
}

#[test]
fn window_larger_than_the_data_mbr_yields_one_covering_site() {
    let mut rng = StdRng::seed_from_u64(7);
    let points = cluster((0.0, 0.0), 60, 1.0, &mut rng);
    // Extent is ~2×2; a 50×50 window covers it from any anchor.
    let p = propose(&points, &SweepConfig::new(50.0, 4));
    assert_eq!(p.sites.len(), 1, "every anchor clamps to the same window");
    assert_eq!(p.sites[0].score, 60, "the single window covers everything");
}

#[test]
fn equal_score_ties_rank_by_smallest_morton_code() {
    // Two equal-mass point groups in opposite corners, far enough apart
    // that min-separation never links them. The SW group has the smaller
    // Morton code at every depth, so it must be emitted first.
    let mut points = vec![Point::new(0.1, 0.1); 5];
    points.extend(vec![Point::new(99.9, 99.9); 5]);
    let p = propose(&points, &SweepConfig::new(1.0, 2));
    assert_eq!(p.sites.len(), 2);
    assert_eq!(p.sites[0].score, p.sites[1].score, "scores tie");
    assert!(
        p.sites[0].anchor < p.sites[1].anchor,
        "smallest Morton code first"
    );
    assert!(
        p.sites[0].center.x < 50.0 && p.sites[1].center.x > 50.0,
        "SW group wins the tie"
    );
}

#[test]
fn min_separation_drops_the_larger_morton_tie() {
    // One tight group: many overlapping windows see the same mass. With a
    // separation radius wider than the group, only the best (smallest
    // Morton among ties) survives.
    let mut rng = StdRng::seed_from_u64(11);
    let mut points = cluster((5.0, 5.0), 50, 0.4, &mut rng);
    // A decoy far away so the extent (and grid) is non-trivial.
    points.extend(cluster((40.0, 40.0), 10, 0.4, &mut rng));
    let cfg = SweepConfig::new(2.0, 8).with_min_separation(10.0);
    let p = propose(&points, &cfg);
    assert_eq!(
        p.sites.len(),
        2,
        "one site per cluster once separation prunes the overlaps"
    );
    assert!(p.sites[0].score >= p.sites[1].score);
    assert!(
        p.sites[0].score >= 50,
        "the dense cluster's window sees its whole mass"
    );
}

#[test]
fn zero_min_separation_emits_overlapping_windows() {
    let mut rng = StdRng::seed_from_u64(13);
    let points = cluster((0.0, 0.0), 80, 2.0, &mut rng);
    let cfg = SweepConfig::new(1.5, 6).with_min_separation(0.0);
    let p = propose(&points, &cfg);
    assert_eq!(p.sites.len(), 6, "no dedup: anchors are plentiful");
    for w in p.sites.windows(2) {
        assert!(
            w[0].score > w[1].score || (w[0].score == w[1].score && w[0].anchor < w[1].anchor),
            "ranked by (score desc, Morton asc)"
        );
    }
}

#[test]
fn results_are_bit_identical_at_any_thread_count() {
    let mut rng = StdRng::seed_from_u64(17);
    let mut points = cluster((0.0, 0.0), 300, 6.0, &mut rng);
    points.extend(cluster((25.0, -10.0), 200, 3.0, &mut rng));
    points.extend(cluster((-15.0, 30.0), 150, 2.0, &mut rng));
    let serial = propose(&points, &SweepConfig::new(4.0, 10));
    for threads in [2usize, 3, 4, 8] {
        let par = propose(&points, &SweepConfig::new(4.0, 10).with_threads(threads));
        assert_sites_identical(&serial.sites, &par.sites, &format!("threads={threads}"));
        assert_eq!(serial.stats, par.stats, "threads={threads}: stats");
    }
}

#[test]
fn scores_match_a_brute_force_window_count() {
    // The emitted score must equal the number of positions inside the
    // winning window's cell footprint, recomputed brute-force.
    let mut rng = StdRng::seed_from_u64(23);
    let mut points = cluster((0.0, 0.0), 90, 4.0, &mut rng);
    points.extend(cluster((12.0, 7.0), 60, 1.5, &mut rng));
    let cfg = SweepConfig::new(3.0, 3);
    let p = propose(&points, &cfg);
    assert!(!p.sites.is_empty());
    let span = p.stats.cell * p.stats.window_cells as f64;
    for site in &p.sites {
        // The cell window is the axis-aligned square of side s·cell
        // centered on the emitted center (anchor corner + half-span).
        let (x0, y0) = (site.center.x - span * 0.5, site.center.y - span * 0.5);
        let brute = points
            .iter()
            .filter(|q| q.x >= x0 && q.x < x0 + span && q.y >= y0 && q.y < y0 + span)
            .count() as u64;
        // Cell membership is decided by the grid descent's `>=` splits;
        // positions exactly on the window's far edge can be counted by
        // the grid but not the open interval above, so allow equality
        // with the half-open recount or a tiny boundary surplus.
        assert!(
            site.score >= brute && site.score <= brute + 2,
            "score {} vs brute {brute}",
            site.score
        );
    }
}

#[test]
#[should_panic(expected = "positions must be finite")]
fn non_finite_positions_are_rejected() {
    propose(&[Point::new(f64::NAN, 0.0)], &SweepConfig::new(1.0, 1));
}

#[test]
#[should_panic(expected = "window must be positive")]
fn zero_window_is_rejected() {
    SweepConfig::new(0.0, 1);
}

#[test]
#[should_panic(expected = "m must be at least 1")]
fn zero_m_is_rejected() {
    SweepConfig::new(1.0, 0);
}

/// Dense brute-force reference of the sweep: each position's cell from
/// `grid_coords`, a dense count grid, the anchor set as every clamped
/// `s×s` down-left shift of a non-empty cell, dense window sums, a full
/// sort by (score desc, Morton asc), then the greedy separation rule.
/// Meant for grids of at most a few thousand cells.
fn dense_reference(points: &[Point], cfg: &SweepConfig) -> Proposal {
    if points.is_empty() {
        return Proposal::default();
    }
    let extent: Extent = points.iter().copied().collect();
    let rect = extent.rect().expect("non-empty input");
    let side = rect.width().max(rect.height()).max(f64::MIN_POSITIVE);
    let root = Square::new(rect.min, side);
    let mut depth = 0usize;
    let mut cell = side;
    while depth < MAX_GRID_DEPTH && cell > cfg.window * 0.5 {
        depth += 1;
        cell *= 0.5;
    }
    let grid_n = 1usize << depth;
    let s = ((cfg.window / cell).ceil() as usize).clamp(1, grid_n);

    let mut counts = vec![0u64; grid_n * grid_n];
    for p in points {
        let (cx, cy) = grid_coords(&root, depth, p);
        counts[cy as usize * grid_n + cx as usize] += 1;
    }
    let max_anchor = grid_n - s;
    let mut is_anchor = vec![false; grid_n * grid_n];
    for cy in 0..grid_n {
        for cx in 0..grid_n {
            if counts[cy * grid_n + cx] == 0 {
                continue;
            }
            for dy in 0..s {
                for dx in 0..s {
                    let ax = cx.saturating_sub(dx).min(max_anchor);
                    let ay = cy.saturating_sub(dy).min(max_anchor);
                    is_anchor[ay * grid_n + ax] = true;
                }
            }
        }
    }
    let morton = |ax: usize, ay: usize| {
        (0..depth).fold(0u64, |code, level| {
            code | (((ax >> level) & 1) as u64) << (2 * level)
                | (((ay >> level) & 1) as u64) << (2 * level + 1)
        })
    };
    let mut ranked = Vec::new();
    for ay in 0..grid_n {
        for ax in 0..grid_n {
            if is_anchor[ay * grid_n + ax] {
                let score: u64 = (ay..ay + s)
                    .flat_map(|y| (ax..ax + s).map(move |x| (x, y)))
                    .map(|(x, y)| counts[y * grid_n + x])
                    .sum();
                ranked.push((score, morton(ax, ay), ax, ay));
            }
        }
    }
    let anchors = ranked.len() as u64;
    ranked.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));

    let half_span = s as f64 * 0.5;
    let mut sites: Vec<CandidateSite> = Vec::new();
    for (score, anchor, ax, ay) in ranked {
        if sites.len() == cfg.m {
            break;
        }
        let center = Point::new(
            root.origin.x + (ax as f64 + half_span) * cell,
            root.origin.y + (ay as f64 + half_span) * cell,
        );
        if sites
            .iter()
            .all(|site| site.center.distance(&center) >= cfg.min_separation)
        {
            sites.push(CandidateSite {
                center,
                score,
                anchor,
            });
        }
    }
    Proposal {
        sites,
        stats: SweepStats {
            n_positions: points.len() as u64,
            depth: depth as u64,
            cell,
            window_cells: s as u64,
            nonempty_cells: counts.iter().filter(|&&n| n > 0).count() as u64,
            anchors,
        },
    }
}

/// Positions on the lattice points `cells` of pitch `q`, so duplicates,
/// equal-score ties and positions on the extent's max edge are common. `shape` 4
/// flattens the set onto one row, 5 onto one column, 6 onto one point;
/// the other shapes keep both axes.
fn lattice_points(cells: &[(u32, u32)], q: f64, shape: u8) -> Vec<Point> {
    cells
        .iter()
        .map(|&(i, j)| match shape {
            4 => Point::new(i as f64 * q, -2.0),
            5 => Point::new(5.0, j as f64 * q),
            6 => Point::new(1.5, 1.5),
            _ => Point::new(i as f64 * q - 3.0, j as f64 * q + 1.0),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The sweep equals the dense reference bit for bit: sites (center
    /// bits, score, anchor) and every `SweepStats` field.
    #[test]
    fn propose_soa_matches_a_dense_reference(
        cells in prop::collection::vec((0u32..12, 0u32..12), 1..80),
        qi in 0usize..4,
        shape in 0u8..7,
        depth in 0u32..6,
        frac in 2.0f64..4.0,
        wide in any::<bool>(),
        mi in 0usize..6,
        sep_kind in 0u8..4,
        threads in 1usize..4,
    ) {
        let q = [0.25, 0.5, 1.0, 0.3][qi];
        let m = [1usize, 2, 3, 7, 20, 1 << 20][mi];
        let points = lattice_points(&cells, q, shape);
        let extent: Extent = points.iter().copied().collect();
        let rect = extent.rect().expect("non-empty");
        let side = rect.width().max(rect.height()).max(f64::MIN_POSITIVE);
        // frac·side/2^depth lands the depth rule on `depth` with a window
        // span of 2–4 cells; `wide` takes s = 1 at depth 0 instead.
        let window = if wide { 2.5 * side } else { frac * side / (1u64 << depth) as f64 };
        let sep = match sep_kind {
            0 => window * 0.5,
            1 => 0.0,
            2 => 10.0 * side,
            _ => window * 1.5,
        };
        let cfg = SweepConfig::new(window, m)
            .with_min_separation(sep)
            .with_threads(threads);
        let got = propose(&points, &cfg);
        let want = dense_reference(&points, &cfg);
        prop_assert_eq!(got.stats.cell.to_bits(), want.stats.cell.to_bits());
        prop_assert_eq!(got.stats, want.stats);
        prop_assert_eq!(got.sites.len(), want.sites.len());
        for (i, (a, b)) in got.sites.iter().zip(&want.sites).enumerate() {
            prop_assert_eq!(a.center.x.to_bits(), b.center.x.to_bits(), "site {} x", i);
            prop_assert_eq!(a.center.y.to_bits(), b.center.y.to_bits(), "site {} y", i);
            prop_assert_eq!(a.score, b.score, "site {} score", i);
            prop_assert_eq!(a.anchor, b.anchor, "site {} anchor", i);
        }
    }
}
