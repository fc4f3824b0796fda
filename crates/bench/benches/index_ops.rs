//! Index-operation micro-benchmarks beyond Table II: R-tree window-query
//! throughput and IQuad-tree traversal.

#[path = "common.rs"]
mod common;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mc2ls::index::{IQuadTree, RTree};
use mc2ls::prelude::*;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("index_ops");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));

    let dataset = common::dataset_c();
    let positions: Vec<(u32, Point)> = dataset
        .users
        .iter()
        .flat_map(|u| u.positions().iter().copied())
        .enumerate()
        .map(|(i, p)| (i as u32, p))
        .collect();
    let extent = dataset.extent();
    let window = Rect::new(
        extent.center(),
        Point::new(extent.center().x + 20.0, extent.center().y + 20.0),
    );

    // Window-query throughput over the full position set: the
    // `for_each_in_rect` walk Adapted k-CIFP and NIB run per user.
    let rtree = RTree::bulk_load(positions);
    group.bench_function(BenchmarkId::new("range", "RTree"), |b| {
        b.iter(|| {
            let mut hits = 0u32;
            rtree.for_each_in_rect(&window, |_, _| hits += 1);
            hits
        })
    });

    // IQuad-tree traverse over 64 rotating probes with one scratch, as a
    // solve worker holds: after the first pass every probe's leaf has its
    // Omega_vrf memoised, so this times the IS lookups plus the memo hit.
    let pf = Sigmoid::paper_default();
    let iqt = IQuadTree::build(&dataset.users, &pf, 0.7, 2.0);
    let mut scratch = iqt.scratch();
    let probes: Vec<Point> = (0..64)
        .map(|i| {
            Point::new(
                extent.min.x + extent.width() * ((i * 37) % 64) as f64 / 64.0,
                extent.min.y + extent.height() * ((i * 23) % 64) as f64 / 64.0,
            )
        })
        .collect();
    let mut cursor = 0usize;
    group.bench_function("iqt_traverse", |b| {
        b.iter(|| {
            cursor = (cursor + 1) % probes.len();
            iqt.traverse(&probes[cursor], &mut scratch)
        })
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
