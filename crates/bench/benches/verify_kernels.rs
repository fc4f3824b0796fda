//! Microbench for the verification kernels: the plain early-stop kernel
//! (`influences`) vs. the blocked kernels on the full candidate × user
//! workload at paper-default τ. The blocked kernel is swept over block
//! sizes (lane/fast-PF variant) and then A/B'd at the default size against
//! its exact-`exp` twin (`influences_blocked_exact`). Block construction is
//! benchmarked separately — it is a once-per-problem cost, while the
//! decision kernels run per pair.

#[path = "common.rs"]
mod common;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mc2ls::influence::influences_blocked_exact;
use mc2ls::prelude::*;
use std::hint::black_box;

const BLOCK_SIZES: [usize; 3] = [4, 16, 32];

fn bench_verify_kernels(c: &mut Criterion) {
    let dataset = common::dataset_c();
    let problem = common::problem(&dataset, 0.7);
    let n_users = problem.n_users();

    let mut group = c.benchmark_group("verify_kernels");
    group
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2));

    group.bench_function("early_stop", |b| {
        b.iter(|| {
            let mut hits = 0u32;
            for v in &problem.candidates {
                for o in 0..n_users {
                    hits += u32::from(influences(
                        &problem.pf,
                        black_box(v),
                        problem.users[o].positions(),
                        problem.tau,
                    ));
                }
            }
            hits
        })
    });

    for bs in BLOCK_SIZES {
        let blocks = PositionBlocks::build(&problem.users, bs);
        group.bench_with_input(BenchmarkId::new("blocked", bs), &blocks, |b, blocks| {
            let mut scratch = BlockScratch::new();
            b.iter(|| {
                let mut hits = 0u32;
                for v in &problem.candidates {
                    for o in 0..n_users as u32 {
                        hits += u32::from(influences_blocked(
                            &problem.pf,
                            black_box(v),
                            blocks,
                            o,
                            problem.tau,
                            &mut scratch,
                        ));
                    }
                }
                hits
            })
        });
    }

    // The lane kernel's exact-exp twin at the default block size — same
    // decisions, no fast-PF path.
    let default_blocks = PositionBlocks::build(&problem.users, DEFAULT_BLOCK_SIZE);
    group.bench_function("blocked_exact", |b| {
        let mut scratch = BlockScratch::new();
        b.iter(|| {
            let mut hits = 0u32;
            for v in &problem.candidates {
                for o in 0..n_users as u32 {
                    hits += u32::from(influences_blocked_exact(
                        &problem.pf,
                        black_box(v),
                        &default_blocks,
                        o,
                        problem.tau,
                        &mut scratch,
                    ));
                }
            }
            hits
        })
    });

    for bs in BLOCK_SIZES {
        group.bench_with_input(BenchmarkId::new("build_blocks", bs), &bs, |b, &bs| {
            b.iter(|| PositionBlocks::build(black_box(&problem.users), bs))
        });
    }

    group.finish();
}

criterion_group!(benches, bench_verify_kernels);
criterion_main!(benches);
