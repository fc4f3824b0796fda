//! Ablation: selection/acceleration strategies beyond the paper's default —
//! standard greedy vs CELF lazy greedy vs FM-sketch greedy, plus the
//! crossbeam-parallel exhaustive influence computation.

#[path = "common.rs"]
mod common;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mc2ls::core::algorithms::{self, run_selector, Selector};
use mc2ls::core::{parallel, sketch};
use mc2ls::prelude::*;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_selectors");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    let dataset = common::dataset_c();
    let problem = mc2ls_bench::problem_with(&dataset, 300, 200, 20, 0.7);
    let (sets, _, _) = algorithms::influence_sets(&problem, Method::Iqt(IqtConfig::default()));

    group.bench_function("greedy", |b| {
        b.iter(|| run_selector(Selector::Greedy, &sets, 20, 1))
    });
    group.bench_function("celf", |b| {
        b.iter(|| run_selector(Selector::LazyGreedy, &sets, 20, 1))
    });
    group.bench_function("fm-sketch", |b| {
        b.iter(|| sketch::select_sketched(&sets, 20, 32))
    });

    for threads in [1usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("baseline-parallel", threads),
            &problem,
            |b, p| b.iter(|| parallel::baseline_influence_sets_parallel(p, threads)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
