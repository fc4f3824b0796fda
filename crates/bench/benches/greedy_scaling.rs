//! Selection-phase scaling: rescan vs CELF vs decremental inverted-CSR
//! greedy as the budget `k` grows, plus the inverted-index build cost on
//! its own.

#[path = "common.rs"]
mod common;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mc2ls::core::algorithms::{self, run_selector, Selector};
use mc2ls::core::InvertedIndex;
use mc2ls::prelude::*;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("greedy_scaling");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    let dataset = common::dataset_c();
    let problem = mc2ls_bench::problem_with(&dataset, 300, 200, 20, 0.7);
    let (sets, _, _) = algorithms::influence_sets(&problem, Method::Iqt(IqtConfig::default()));

    for k in [5usize, 20, 60] {
        let k = k.min(sets.n_candidates());
        for (name, selector) in [
            ("rescan", Selector::Greedy),
            ("celf", Selector::LazyGreedy),
            ("decremental", Selector::Decremental),
        ] {
            group.bench_with_input(BenchmarkId::new(name, k), &k, |b, &k| {
                b.iter(|| run_selector(selector, &sets, k, 1))
            });
        }
    }

    for threads in [1usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("inverted-build", threads),
            &threads,
            |b, &t| b.iter(|| InvertedIndex::build(&sets, t)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
