//! Table II bench: index construction — IQuad-tree over users vs R-tree
//! over sites.

#[path = "common.rs"]
mod common;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mc2ls::prelude::*;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("table2_index_build");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for (name, dataset) in [("C", common::dataset_c()), ("N", common::dataset_n())] {
        let pf = Sigmoid::paper_default();
        group.bench_with_input(BenchmarkId::new("IQuadTree", name), &dataset, |b, d| {
            b.iter(|| IQuadTree::build(&d.users, &pf, 0.7, 2.0))
        });
        let sites: Vec<(u32, Point)> = dataset
            .sample_sites(300, 1)
            .into_iter()
            .enumerate()
            .map(|(i, p)| (i as u32, p))
            .collect();
        group.bench_with_input(BenchmarkId::new("RTree-bulk", name), &sites, |b, s| {
            b.iter(|| RTree::bulk_load(s.clone()))
        });
        group.bench_with_input(BenchmarkId::new("RTree-insert", name), &sites, |b, s| {
            b.iter(|| {
                let mut t = RTree::new();
                for (id, p) in s {
                    t.insert(*id, *p);
                }
                t
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
