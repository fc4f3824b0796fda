//! Multi-threaded execution primitives (std scoped threads).
//!
//! The influence relationships of distinct abstract facilities are
//! independent, so every expensive phase of the pipeline parallelises by
//! *contiguous chunking*: the item index space `0..n` is split into at most
//! `threads` contiguous ranges, each worker computes its range privately,
//! and the per-chunk results are stitched back **in chunk order**. Because
//! chunk boundaries never change what is computed for an item — only which
//! thread computes it — the stitched output is bit-identical to a serial
//! run for any thread count (assertion-tested in
//! `tests/parallel_equivalence.rs` and below).
//!
//! [`map_chunks`] is the one primitive; [`map_items`] and [`sum_folds`] are
//! the two stitching conventions the pipeline needs (per-item results in
//! order; order-independent partial aggregates).

use std::ops::Range;

/// Splits `0..n_items` into at most `threads` contiguous ranges, runs
/// `work` on each range in parallel, and returns the per-chunk results in
/// chunk order. With one thread (or zero/one item) the work runs on the
/// calling thread — no spawn cost on the serial path.
///
/// # Panics
/// Panics when `threads == 0`, or when a worker panics.
pub fn map_chunks<T, F>(n_items: usize, threads: usize, work: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    assert!(threads >= 1, "need at least one worker thread");
    let threads = threads.min(n_items.max(1));
    if threads == 1 {
        return vec![work(0..n_items)];
    }
    let chunk = n_items.div_ceil(threads);
    let mut out = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let lo = (t * chunk).min(n_items);
                let hi = (lo + chunk).min(n_items);
                scope.spawn(move || work(lo..hi))
            })
            .collect();
        out.extend(
            handles
                .into_iter()
                // lint:allow(panic-path): join only fails when the worker panicked; re-raising on the spawner is intended
                .map(|h| h.join().expect("worker panicked")),
        );
    });
    out
}

/// Runs `f` once per item index and returns the results in item order —
/// identical to `(0..n_items).map(f).collect()` for any thread count.
pub fn map_items<R, F>(n_items: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    map_chunks(n_items, threads, |range| range.map(&f).collect::<Vec<R>>())
        .into_iter()
        .flatten()
        .collect()
}

/// Runs `fold` per chunk (each worker folding into a fresh `init()`
/// accumulator) and combines the partial accumulators **in chunk order**
/// with `merge`. For commutative merges (sums, max) the result is identical
/// to a serial fold for any thread count.
pub fn sum_folds<A, F, I, M>(n_items: usize, threads: usize, init: I, fold: F, merge: M) -> A
where
    A: Send,
    I: Fn() -> A + Sync,
    F: Fn(&mut A, Range<usize>) + Sync,
    M: Fn(&mut A, A),
{
    let parts = map_chunks(n_items, threads, |range| {
        let mut acc = init();
        fold(&mut acc, range);
        acc
    });
    let mut parts = parts.into_iter();
    // lint:allow(panic-path): map_chunks always yields at least one chunk even for empty input
    let mut total = parts.next().expect("map_chunks returns >= 1 chunk");
    for part in parts {
        merge(&mut total, part);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::baseline;
    use crate::Problem;
    use mc2ls_geo::Point;
    use mc2ls_influence::{MovingUser, Sigmoid};

    fn problem(seed: u64) -> Problem {
        let mut s = seed.max(1);
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        let users: Vec<MovingUser> = (0..80)
            .map(|_| {
                let cx = next() * 20.0;
                let cy = next() * 20.0;
                MovingUser::new(
                    (0..1 + (next() * 6.0) as usize)
                        .map(|_| Point::new(cx + next(), cy + next()))
                        .collect(),
                )
            })
            .collect();
        let f = (0..15)
            .map(|_| Point::new(next() * 20.0, next() * 20.0))
            .collect();
        let c = (0..12)
            .map(|_| Point::new(next() * 20.0, next() * 20.0))
            .collect();
        Problem::new(users, f, c, 3, 0.5, Sigmoid::paper_default())
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        for seed in [1u64, 2, 3] {
            let p = problem(seed);
            let (serial, serial_stats, _) = baseline::influence_sets(&p, 1);
            for threads in [2usize, 4, 7] {
                let (par, par_stats, _) = baseline::influence_sets(&p, threads);
                assert_eq!(serial, par, "threads={threads}");
                assert_eq!(serial_stats, par_stats, "threads={threads}");
            }
        }
    }

    #[test]
    fn more_threads_than_work_is_fine() {
        let p = problem(9);
        let (par, _, _) = baseline::influence_sets(&p, 64);
        assert_eq!(par.n_candidates(), p.n_candidates());
    }

    #[test]
    fn map_items_matches_serial_map() {
        for threads in [1usize, 2, 3, 7, 16] {
            let got = map_items(23, threads, |i| i * i);
            let want: Vec<usize> = (0..23).map(|i| i * i).collect();
            assert_eq!(got, want, "threads={threads}");
        }
        assert!(map_items(0, 4, |i| i).is_empty());
    }

    #[test]
    fn sum_folds_matches_serial_fold() {
        for threads in [1usize, 2, 5, 11] {
            let total = sum_folds(
                100,
                threads,
                || 0u64,
                |acc, range| *acc += range.map(|i| i as u64).sum::<u64>(),
                |a, b| *a += b,
            );
            assert_eq!(total, 4950, "threads={threads}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_rejected() {
        let p = problem(4);
        baseline::influence_sets(&p, 0);
    }
}
