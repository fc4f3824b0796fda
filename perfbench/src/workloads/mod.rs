//! The four workloads and the machinery they share: repeated set-up,
//! the open-loop generator, server configuration and answer checking.
//!
//! Load limits: the machine the bounds were fixed on has two cores, so
//! solves and builds use [`THREADS`] = 2 threads, servers run
//! [`WORKERS`] = 2 workers that each answer on [`SERVE_THREADS`] = 1 thread,
//! and no workload opens more connections than the server has workers (a
//! worker serves one connection for its lifetime, so an extra connection
//! would wait for the whole run).

mod ops;
mod serve_live;
mod serve_read;
mod solve;

use crate::trace::Tracer;
use mc2ls_core::Solution;
use mc2ls_serve::{QueryAnswer, QueryEngine, QueryRequest, ServeError, ServerConfig, StatsReport};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Workload names, in the order a full run executes them.
pub const NAMES: [&str; 4] = ["solve-C", "serve-read-N", "serve-live-N", "ops-C"];

/// Solve, snapshot-build and update-engine threads.
pub const THREADS: usize = 2;
/// Server worker threads.
pub const WORKERS: usize = 2;
/// Selection threads per served query: parallelism comes from the workers,
/// and a per-query scatter over two threads costs more than it saves on
/// instances this size.
pub const SERVE_THREADS: usize = 1;
/// User shards of every snapshot.
pub const SHARDS: usize = 2;
/// IQuad-tree leaf diagonal `d̂` (km), the paper default.
pub const LEAF_DIAGONAL: f64 = 2.0;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: u64 = 3;
/// Dataset scale of `--smoke` runs.
pub const SMOKE_SCALE: f64 = 0.05;

/// What one run was asked to do.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Input seed.
    pub seed: u64,
    /// Length of the timed window, seconds.
    pub seconds: f64,
    /// Small datasets for tests.
    pub smoke: bool,
    /// Corrupt one reference answer (flip one `cinf` bit, drop one proposed
    /// site) so the run must report failures; exercises the checker.
    pub corrupt_reference: bool,
    /// Directory for the run's temporary files.
    pub tmp: PathBuf,
}

impl Settings {
    /// Dataset scale.
    pub fn scale(&self) -> f64 {
        if self.smoke {
            SMOKE_SCALE
        } else {
            1.0
        }
    }

    /// Discarded warm-up before the timed window.
    pub fn warmup(&self) -> Duration {
        Duration::from_secs_f64((self.seconds / 5.0).min(1.0))
    }

    /// The timed window.
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// One timed operation of the window.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// Latency in milliseconds (from its due time for open-loop work).
    pub ms: f64,
    /// Whether spans were recorded around it.
    pub traced: bool,
}

/// Everything a workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Wall time of each set-up, seconds.
    pub setup_s: Vec<f64>,
    /// VmRSS at the end of set-up, MB.
    pub rss_mb: f64,
    /// The timed operations.
    pub ops: Vec<Op>,
    /// Process CPU time over the timed window, milliseconds.
    pub cpu_ms: f64,
    /// Operations whose result was checked.
    pub checked: u64,
    /// Operations that failed or answered differently from the reference.
    pub failed: u64,
    /// How late the open-loop generator sent each timed request, µs.
    pub gen_late_us: Vec<f64>,
    /// Per-layer values the workload measured directly.
    pub layers: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.checked += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Records the server's STATS counters; a STATS request that failed
    /// counts as a failed operation.
    fn record_stats(&mut self, stats: Option<StatsReport>) {
        self.check(stats.is_some());
        if let Some(st) = stats {
            self.layers.extend([
                ("serve.server.p50_us", st.p50_us as f64),
                ("serve.server.p99_us", st.p99_us as f64),
                ("serve.server.coalesced", st.coalesced as f64),
                ("serve.server.rejected", st.rejected as f64),
                ("serve.server.errors", st.errors as f64),
            ]);
        }
    }
}

/// Runs workload `name`, or `None` when no workload has that name.
pub fn run(name: &str, s: &Settings, tr: &mut Tracer) -> Option<Outcome> {
    Some(match name {
        "solve-C" => solve::run(s, tr),
        "serve-read-N" => serve_read::run(s, tr),
        "serve-live-N" => serve_live::run(s, tr),
        "ops-C" => ops::run(s, tr),
        _ => return None,
    })
}

/// Builds the system [`SETUP_REPS`] times, tearing down every instance but
/// the last. Returns it with the wall time of each build (seconds) and the
/// VmRSS after the last build (MB). Measured then, RSS includes what the
/// allocator kept from earlier builds; after the first build alone it
/// depends on which thread arenas happened to serve the build and swings
/// by more than 10 % between runs.
fn set_up<T>(
    tr: &mut Tracer,
    mut build: impl FnMut(&mut Tracer, u64) -> T,
    mut tear_down: impl FnMut(T),
) -> (T, Vec<f64>, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for rep in 0..SETUP_REPS {
        if let Some(previous) = last.take() {
            tear_down(previous);
        }
        let t = Instant::now();
        last = Some(tr.span("setup", rep, |tr| build(tr, rep)));
        times.push(t.elapsed().as_secs_f64());
    }
    let system = last.expect("SETUP_REPS >= 1");
    (system, times, crate::sys::rss_mb())
}

/// Server settings shared by every served workload.
fn server_config(cache_capacity: usize) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: WORKERS,
        cache_capacity,
        threads: SERVE_THREADS,
        ..ServerConfig::default()
    }
}

/// The parts of a served answer the benchmark checks and reports.
#[derive(Debug, Clone)]
struct Reply {
    selected: Vec<u32>,
    cinf_bits: u64,
    cached: bool,
    scatter_events: u64,
    critical_path_ns: u64,
    gain_updates: u64,
}

impl Reply {
    fn of(answer: Result<QueryAnswer, ServeError>) -> Option<Reply> {
        answer.ok().map(|a| Reply {
            selected: a.solution.selected,
            cinf_bits: a.solution.cinf.to_bits(),
            cached: a.cached,
            scatter_events: a.gather.scatter_events,
            critical_path_ns: a.gather.critical_path_ns,
            gain_updates: a.selection.gain_updates,
        })
    }

    fn matches(&self, want: &Answer) -> bool {
        self.selected == want.0 && self.cinf_bits == want.1
    }
}

/// A reference answer: selected ids and `cinf` bits.
type Answer = (Vec<u32>, u64);

fn answer_of(solution: &Solution) -> Answer {
    (solution.selected.clone(), solution.cinf.to_bits())
}

/// Flips the lowest `cinf` bit of a reference answer.
fn corrupt(answer: &mut Answer) {
    answer.1 ^= 1;
}

/// In-process reference answers for subset queries, memoised on the
/// canonical request (sorted, deduplicated subset and budget).
struct References {
    engine: QueryEngine,
    memo: BTreeMap<(usize, Vec<u32>), Answer>,
    corrupt_next: bool,
}

impl References {
    fn new(engine: QueryEngine, corrupt_first: bool) -> References {
        References {
            engine,
            memo: BTreeMap::new(),
            corrupt_next: corrupt_first,
        }
    }

    fn get(&mut self, q: &QueryRequest) -> Option<&Answer> {
        let mut subset = q.candidates.clone().unwrap_or_default();
        subset.sort_unstable();
        subset.dedup();
        let key = (q.k, subset);
        if !self.memo.contains_key(&key) {
            let mut answer = answer_of(&self.engine.answer(q).ok()?.solution);
            if std::mem::take(&mut self.corrupt_next) {
                corrupt(&mut answer);
            }
            self.memo.insert(key.clone(), answer);
        }
        self.memo.get(&key)
    }
}

/// One request of an open loop.
struct Sent<R> {
    /// Index of the request within its phase.
    i: usize,
    /// Send time minus due time.
    late_ns: u64,
    /// Completion minus due time.
    latency_ns: u64,
    /// Completion minus send time.
    rtt_ns: u64,
    out: R,
}

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Open-loop generator: request `i` is due at `start + i·period`. A request
/// is sent at its due time or, when the previous one is still outstanding,
/// as soon as it completes, and its latency is counted from the due time,
/// so a stall is charged to every request it delays.
fn open_loop<R>(
    start: Instant,
    period: Duration,
    indices: impl Iterator<Item = usize>,
    mut call: impl FnMut(usize) -> R,
) -> Vec<Sent<R>> {
    indices
        .map(|i| {
            let due = start + period.mul_f64(i as f64);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let sent = Instant::now();
            let out = call(i);
            let done = Instant::now();
            Sent {
                i,
                late_ns: ns(sent.saturating_duration_since(due)),
                latency_ns: ns(done.saturating_duration_since(due)),
                rtt_ns: ns(done - sent),
                out,
            }
        })
        .collect()
}

/// Milliseconds in `d`.
fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
