//! The concurrent TCP query server.
//!
//! Architecture: one non-blocking **acceptor** thread feeds accepted
//! connections into a bounded queue guarded by a mutex + condvar; `workers`
//! **worker** threads pop connections and serve them for their whole
//! lifetime (the protocol is request/response over a persistent
//! connection). Admission control happens at the queue: when it already
//! holds `max_pending` waiting connections, new arrivals are answered with
//! a typed `busy` error and closed — bounded memory, no silent drops.
//!
//! Shutdown (a [`Request::Shutdown`] frame or [`Server::shutdown`]) flips
//! one atomic flag. The acceptor stops accepting; workers finish the
//! request they are on, **drain the queue** (every already-admitted
//! connection still gets served), then exit. Workers notice the flag
//! between requests via the per-connection read timeout, so a quiet client
//! delays shutdown by at most `poll_interval`.
//!
//! Concurrent identical queries are **coalesced**: the first arrival of a
//! canonical cache key becomes the *leader* (optionally sleeping a short
//! coalesce window so near-simultaneous duplicates can pile on), runs the
//! selection once, and publishes the answer to every *joiner* waiting on
//! the same key — single-flight request batching on top of the engine's
//! epoch-shared gain materialisation.
//!
//! `RELOAD` accepts either a full `.mc2s` container or a `.mc2d` delta;
//! a delta is applied onto the raw bytes of the snapshot currently being
//! served (fingerprint-checked) and the spliced result is validated
//! exactly like a full snapshot before it replaces the engine. A live
//! server rejects RELOAD with a typed `reload:live` error: its epochs come
//! from the update engine alone, and a reloaded snapshot would diverge
//! from it (the next UPDATE would silently revert the reload).
//!
//! Nothing here panics on socket errors: failed writes to a dying peer are
//! dropped on the floor (the peer is gone; there is nobody to tell) and
//! every other failure path returns through [`ServeError`].

use crate::cache::{self, ResultCache};
use crate::engine::{QueryEngine, QueryError};
use crate::error::ServeError;
use crate::live::LiveUpdater;
use crate::metrics::Metrics;
use crate::protocol::{
    recv_message_while, send_message, ProposeRequest, QueryAnswer, QueryRequest, Request, Response,
    StatsReport, WireEvent,
};
use crate::{delta, SnapshotError};
use std::collections::{BTreeMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port `0` to let the OS pick a free port.
    pub addr: String,
    /// Worker threads serving connections.
    pub workers: usize,
    /// Admission bound: connections allowed to wait for a worker. Arrivals
    /// beyond this are rejected with a `busy` error.
    pub max_pending: usize,
    /// Result-cache capacity in answers (`0` disables caching).
    pub cache_capacity: usize,
    /// Worker threads the selection phase fans out over per query.
    pub threads: usize,
    /// Socket read timeout; also the cadence at which idle workers notice
    /// the shutdown flag.
    pub poll_interval: Duration,
    /// Per-request deadline: a connection that goes this long without
    /// completing a request is answered with a `timeout` error and torn
    /// down, so a stalled peer cannot hold a worker forever.
    pub idle_timeout: Duration,
    /// How long the leader of a fresh query lingers before computing, so
    /// concurrent identical queries can join its flight instead of being
    /// serialised behind the cache. Zero (the default) disables the wait
    /// but keeps single-flight dedup.
    pub coalesce_window: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            max_pending: 64,
            cache_capacity: 256,
            threads: 1,
            poll_interval: Duration::from_millis(50),
            idle_timeout: Duration::from_secs(30),
            coalesce_window: Duration::ZERO,
        }
    }
}

/// One in-flight computation of a canonical query key. The leader
/// publishes exactly once; joiners block on the condvar until then.
struct Flight {
    done: Mutex<Option<Result<QueryAnswer, QueryError>>>,
    cv: Condvar,
}

impl Flight {
    fn new() -> Flight {
        Flight {
            done: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn publish(&self, result: Result<QueryAnswer, QueryError>) {
        *lock(&self.done) = Some(result);
        self.cv.notify_all();
    }

    fn wait(&self) -> Result<QueryAnswer, QueryError> {
        let mut guard = lock(&self.done);
        loop {
            if let Some(result) = guard.as_ref() {
                return result.clone();
            }
            guard = match self.cv.wait(guard) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }
}

struct Shared {
    engine: RwLock<Arc<QueryEngine>>,
    /// Live-mode update state; `None` on snapshot-serving servers (the
    /// UPDATE verb is then a typed error).
    live: Option<Mutex<LiveUpdater>>,
    cache: Mutex<ResultCache>,
    /// Single-flight table: canonical key → the in-flight computation.
    batcher: Mutex<BTreeMap<Vec<u8>, Arc<Flight>>>,
    metrics: Metrics,
    queue: Mutex<VecDeque<TcpStream>>,
    queue_cv: Condvar,
    shutdown: AtomicBool,
    config: ServerConfig,
}

/// Recovers the guard from a poisoned mutex: every structure behind these
/// locks is valid after any interleaving of the (panic-free) operations
/// performed under them, so continuing is safe and keeps the server up.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The engine currently serving. Cloning the `Arc` means a concurrent
/// swap never blocks behind a reader (and vice versa).
fn current_engine(shared: &Shared) -> Arc<QueryEngine> {
    match shared.engine.read() {
        Ok(guard) => Arc::clone(&guard),
        Err(poisoned) => Arc::clone(&poisoned.into_inner()),
    }
}

/// A running query server. Dropping the handle without calling
/// [`Server::shutdown`] leaves the threads running detached.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `config.addr` and spawns the acceptor plus worker threads.
    ///
    /// # Errors
    /// [`ServeError::Io`] when the bind fails or the listener cannot be
    /// configured.
    pub fn start(config: ServerConfig, engine: QueryEngine) -> Result<Server, ServeError> {
        Server::start_inner(config, engine, None)
    }

    /// Like [`Server::start`], but in **live mode**: the server also owns
    /// an update engine and accepts the UPDATE verb, swapping to the new
    /// epoch's owned plane after each absorbed batch — the influence phase
    /// never re-runs, and no snapshot is rebuilt. RELOAD is rejected.
    ///
    /// # Errors
    /// [`ServeError::Io`] when the bind fails or the listener cannot be
    /// configured.
    pub fn start_live(
        config: ServerConfig,
        engine: QueryEngine,
        live: LiveUpdater,
    ) -> Result<Server, ServeError> {
        Server::start_inner(config, engine, Some(live))
    }

    fn start_inner(
        config: ServerConfig,
        engine: QueryEngine,
        live: Option<LiveUpdater>,
    ) -> Result<Server, ServeError> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let shared = Arc::new(Shared {
            engine: RwLock::new(Arc::new(engine)),
            live: live.map(Mutex::new),
            cache: Mutex::new(ResultCache::new(config.cache_capacity)),
            batcher: Mutex::new(BTreeMap::new()),
            metrics: Metrics::default(),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            config: config.clone(),
        });

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&listener, &shared))
        };
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();

        Ok(Server {
            addr,
            shared,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (resolves port `0` to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether a shutdown has been requested (by a client or locally).
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::Acquire)
    }

    /// Blocks until the server has shut down (a client sent
    /// [`Request::Shutdown`]) and every thread has drained and exited.
    pub fn join(mut self) {
        self.join_threads();
    }

    /// Requests shutdown locally and blocks until every thread has drained
    /// and exited.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.queue_cv.notify_all();
        self.join_threads();
    }

    fn join_threads(&mut self) {
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Shared) {
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => admit(stream, shared),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => {
                // Transient accept failure (e.g. aborted handshake): keep
                // listening rather than killing the server.
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
}

fn admit(mut stream: TcpStream, shared: &Shared) {
    let mut queue = lock(&shared.queue);
    if queue.len() >= shared.config.max_pending {
        drop(queue);
        Metrics::bump(&shared.metrics.rejected);
        // Best effort: the peer may already be gone.
        let _ = send_message(
            &mut stream,
            &Response::Error {
                kind: "busy".to_string(),
                message: "admission queue full, retry later".to_string(),
            },
        );
        return;
    }
    queue.push_back(stream);
    drop(queue);
    shared.queue_cv.notify_one();
}

fn worker_loop(shared: &Shared) {
    loop {
        let conn = next_connection(shared);
        match conn {
            Some(stream) => serve_connection(stream, shared),
            None => return,
        }
    }
}

/// Pops the next admitted connection, waiting on the condvar. Returns
/// `None` only when shutdown is flagged **and** the queue is drained, so
/// every admitted connection is served before workers exit.
fn next_connection(shared: &Shared) -> Option<TcpStream> {
    let mut queue = lock(&shared.queue);
    loop {
        if let Some(stream) = queue.pop_front() {
            return Some(stream);
        }
        if shared.shutdown.load(Ordering::Acquire) {
            return None;
        }
        queue = match shared
            .queue_cv
            .wait_timeout(queue, shared.config.poll_interval)
        {
            Ok((guard, _timeout)) => guard,
            Err(poisoned) => poisoned.into_inner().0,
        };
    }
}

fn serve_connection(mut stream: TcpStream, shared: &Shared) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.config.poll_interval));
    let mut deadline = Instant::now() + shared.config.idle_timeout;
    loop {
        // A read timeout between frames is an idle poll. Inside a frame it
        // must not drop the bytes already read, so the read goes on until
        // the frame completes, shutdown is set or the deadline passes; the
        // last two then end the connection below.
        let keep_waiting = || !shared.shutdown.load(Ordering::Acquire) && Instant::now() < deadline;
        let request: Request = match recv_message_while(&mut stream, keep_waiting) {
            Ok(Some(req)) => {
                deadline = Instant::now() + shared.config.idle_timeout;
                req
            }
            Ok(None) => return, // peer closed cleanly
            Err(ServeError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                if Instant::now() >= deadline {
                    // Graceful teardown: tell the peer why, then free the
                    // worker for admitted connections that are alive.
                    let _ = send_message(
                        &mut stream,
                        &Response::Error {
                            kind: "timeout".to_string(),
                            message: "request deadline exceeded, closing connection".to_string(),
                        },
                    );
                    return;
                }
                continue;
            }
            Err(ServeError::ConnectionClosed) => return,
            Err(e) => {
                Metrics::bump(&shared.metrics.errors);
                let _ = send_message(
                    &mut stream,
                    &Response::Error {
                        kind: "protocol".to_string(),
                        message: e.to_string(),
                    },
                );
                return;
            }
        };
        Metrics::bump(&shared.metrics.requests);
        let (response, close) = dispatch(request, shared);
        if send_message(&mut stream, &response).is_err() {
            return; // peer vanished mid-response
        }
        if close {
            return;
        }
    }
}

/// Routes one request; the `bool` asks the connection loop to close after
/// responding.
fn dispatch(request: Request, shared: &Shared) -> (Response, bool) {
    match request {
        Request::Ping => (Response::Pong, false),
        Request::Query(query) => (handle_query(&query, shared), false),
        Request::Stats => (Response::Stats(stats_report(shared)), false),
        Request::Reload { path } => (handle_reload(&path, shared), false),
        Request::Update { events } => (handle_update(&events, shared), false),
        Request::Propose(req) => (handle_propose(&req, shared), false),
        Request::Shutdown => {
            shared.shutdown.store(true, Ordering::Release);
            shared.queue_cv.notify_all();
            (
                Response::Done {
                    message: "shutting down: draining admitted connections".to_string(),
                },
                true,
            )
        }
    }
}

fn handle_query(query: &QueryRequest, shared: &Shared) -> Response {
    let started = Instant::now();
    Metrics::bump(&shared.metrics.queries);

    let engine = current_engine(shared);

    // The cache key uses the *canonical* block size: `auto` and the
    // snapshot's resolved value name the same query, so they share one
    // entry (and one flight).
    let key = cache::key_bytes(query, engine.canonical_block_size(query.block_size));
    let key_hash = cache::fnv1a64(&key);

    if let Some(mut answer) = lock(&shared.cache).get(&key) {
        answer.cached = true;
        record_latency(shared, started);
        return Response::Answer(answer);
    }

    // Single-flight: the first miss of a key becomes the leader; everyone
    // else joins its flight and receives the leader's answer.
    let (flight, leader) = {
        let mut batcher = lock(&shared.batcher);
        match batcher.get(&key) {
            Some(flight) => (Arc::clone(flight), false),
            None => {
                let flight = Arc::new(Flight::new());
                batcher.insert(key.clone(), Arc::clone(&flight));
                (flight, true)
            }
        }
    };

    let result = if leader {
        // Linger so near-simultaneous duplicates can pile onto the flight
        // before the (much longer) selection starts.
        if !shared.config.coalesce_window.is_zero() {
            std::thread::sleep(shared.config.coalesce_window);
        }
        let result = engine.answer(query).map(|mut answer| {
            answer.key_hash = key_hash;
            answer
        });
        flight.publish(result.clone());
        {
            // A swap may have cleared the table and a new-epoch leader
            // started a flight for this key: remove only our own.
            let mut batcher = lock(&shared.batcher);
            if batcher.get(&key).is_some_and(|f| Arc::ptr_eq(f, &flight)) {
                batcher.remove(&key);
            }
        }
        if let Ok(answer) = &result {
            // Cache only answers of the engine still serving. Checked under
            // the cache lock, which every swap takes (after replacing the
            // engine) to clear the cache: either the swap's clear runs after
            // this put, or this check already sees the new engine.
            let mut cache = lock(&shared.cache);
            // lint:allow(hold-across-blocking): the engine read lock only clones an Arc, and no path takes the cache lock while holding the engine lock
            if Arc::ptr_eq(&current_engine(shared), &engine) {
                cache.put(key, answer.clone());
            }
        }
        result
    } else {
        Metrics::bump(&shared.metrics.coalesced);
        flight.wait()
    };

    match result {
        Ok(answer) => {
            record_latency(shared, started);
            Response::Answer(answer)
        }
        Err(e) => {
            Metrics::bump(&shared.metrics.errors);
            Response::Error {
                kind: format!("query:{}", e.kind()),
                message: e.to_string(),
            }
        }
    }
}

fn handle_propose(req: &ProposeRequest, shared: &Shared) -> Response {
    // Snapshot reads share the query plane's reload discipline: clone the
    // Arc so a concurrent reload never blocks behind a running sweep.
    let engine = current_engine(shared);
    // No caching or coalescing: the sweep is a bounded read over the
    // already-decoded position blocks, far cheaper than a selection.
    match engine.propose(req) {
        Ok(proposal) => Response::Proposed(proposal),
        Err(e) => {
            Metrics::bump(&shared.metrics.errors);
            Response::Error {
                kind: format!("propose:{}", e.kind()),
                message: e.to_string(),
            }
        }
    }
}

fn record_latency(shared: &Shared, started: Instant) {
    let us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
    shared.metrics.latency.record(us);
}

/// Installs `engine` as the serving epoch. Cached answers and pending
/// flights belong to the old epoch (in-flight leaders still publish to
/// their joiners; new arrivals start fresh flights).
fn swap_engine(shared: &Shared, engine: QueryEngine) {
    match shared.engine.write() {
        Ok(mut guard) => *guard = Arc::new(engine),
        Err(poisoned) => *poisoned.into_inner() = Arc::new(engine),
    }
    lock(&shared.cache).clear();
    lock(&shared.batcher).clear();
}

fn handle_reload(path: &str, shared: &Shared) -> Response {
    if shared.live.is_some() {
        Metrics::bump(&shared.metrics.errors);
        return Response::Error {
            kind: "reload:live".to_string(),
            message: "a live server takes its epochs from UPDATE batches only; \
                      restart without --live to serve a snapshot file"
                .to_string(),
        };
    }
    let loaded: Result<(QueryEngine, bool), SnapshotError> = (|| {
        let bytes = std::fs::read(std::path::Path::new(path)).map_err(SnapshotError::Io)?;
        if delta::is_delta(&bytes) {
            // Apply the delta onto the raw bytes of the snapshot being
            // served; the spliced result re-runs full validation.
            let base = current_engine(shared);
            let base_bytes = base.snapshot_bytes().ok_or(SnapshotError::BadDelta(
                "the serving epoch has no container bytes to apply onto",
            ))?;
            let spliced = delta::apply(base_bytes, &bytes)?;
            Ok((
                QueryEngine::from_bytes(spliced, shared.config.threads)?,
                true,
            ))
        } else {
            Ok((
                QueryEngine::from_bytes(bytes, shared.config.threads)?,
                false,
            ))
        }
    })();
    match loaded {
        Ok((engine, was_delta)) => {
            let meta = engine.meta().clone();
            let shards = engine.n_shards();
            swap_engine(shared, engine);
            Metrics::bump(&shared.metrics.reloads);
            if was_delta {
                Metrics::bump(&shared.metrics.delta_reloads);
            }
            Response::Done {
                message: format!(
                    "snapshot {:?} {}: {} users, {} candidates, {} shards, tau {}",
                    meta.name,
                    if was_delta {
                        "patched via delta"
                    } else {
                        "loaded"
                    },
                    meta.n_users,
                    meta.n_candidates,
                    shards,
                    meta.tau
                ),
            }
        }
        Err(e) => {
            Metrics::bump(&shared.metrics.errors);
            Response::Error {
                kind: "snapshot".to_string(),
                message: e.to_string(),
            }
        }
    }
}

/// Applies one UPDATE batch: validate + flip-set replay + compaction in
/// the live engine, then swap to a [`QueryEngine`] over the new epoch's
/// owned plane (the compacted CSRs split by the refreshed shard manifest).
/// No IQuad-tree or position blocks are built, and no container is
/// encoded, checksummed or re-validated: the batch costs the events plus
/// one compaction. Cache and flights belong to the old epoch. The `live`
/// lock is held through the swap, so concurrent UPDATEs install their
/// epochs in the order the update engine absorbed them.
fn handle_update(events: &[WireEvent], shared: &Shared) -> Response {
    let Some(live) = shared.live.as_ref() else {
        Metrics::bump(&shared.metrics.errors);
        return Response::Error {
            kind: "update:unsupported".to_string(),
            message: "server is not in live mode (start with --live to accept updates)".to_string(),
        };
    };
    let mut live = lock(live);
    // The manifest in force before the batch routes touched users to the
    // shards a delta-shipping follow-up would have to touch.
    // lint:allow(hold-across-blocking): the engine read lock only clones an Arc, and no path takes `live` while holding it
    let starts = current_engine(shared).meta().shard_starts.clone();
    // lint:allow(hold-across-blocking): `live` serialises writers by design — queries never take it, and the joined compact workers belong to this batch
    match live.advance(events, &starts) {
        Ok((report, plane)) => {
            // lint:allow(hold-across-blocking): the swap takes the engine, cache and batcher locks briefly; no path takes `live` while holding them
            swap_engine(
                shared,
                QueryEngine::from_plane(plane, shared.config.threads),
            );
            Metrics::add(&shared.metrics.updates_applied, report.applied);
            Metrics::add(&shared.metrics.flipped_candidates, report.flipped);
            Metrics::add(&shared.metrics.compactions, report.compactions);
            Response::Updated(report)
        }
        Err(e) => {
            Metrics::bump(&shared.metrics.errors);
            Response::Error {
                kind: "update:rejected".to_string(),
                message: e.to_string(),
            }
        }
    }
}

fn stats_report(shared: &Shared) -> StatsReport {
    let engine = current_engine(shared);
    let (cache_hits, cache_misses, cache_len, cache_capacity) = {
        let cache = lock(&shared.cache);
        let (h, m) = cache.counters();
        (h, m, cache.len() as u64, cache.capacity() as u64)
    };
    StatsReport {
        meta: engine.meta().clone(),
        requests: Metrics::read(&shared.metrics.requests),
        queries: Metrics::read(&shared.metrics.queries),
        cache_hits,
        cache_misses,
        rejected: Metrics::read(&shared.metrics.rejected),
        errors: Metrics::read(&shared.metrics.errors),
        reloads: Metrics::read(&shared.metrics.reloads),
        delta_reloads: Metrics::read(&shared.metrics.delta_reloads),
        coalesced: Metrics::read(&shared.metrics.coalesced),
        shards: engine.n_shards() as u64,
        queue_depth: lock(&shared.queue).len() as u64,
        workers: shared.config.workers.max(1) as u64,
        cache_capacity,
        cache_len,
        p50_us: shared.metrics.latency.quantile_upper_bound(0.5),
        p99_us: shared.metrics.latency.quantile_upper_bound(0.99),
        updates_applied: Metrics::read(&shared.metrics.updates_applied),
        flipped_candidates: Metrics::read(&shared.metrics.flipped_candidates),
        compactions: Metrics::read(&shared.metrics.compactions),
    }
}
