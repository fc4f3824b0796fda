//! The wire protocol: length-prefixed JSON frames.
//!
//! Each frame is a `u32` little-endian payload length followed by that many
//! bytes of UTF-8 JSON encoding one [`Request`] or [`Response`]. The JSON
//! shapes are the `serde` derives below (enums externally tagged), so the
//! protocol is self-describing and diffable with any JSON tool. Frames are
//! capped at [`MAX_FRAME_LEN`] so a corrupt length prefix cannot force an
//! unbounded allocation.
//!
//! Floating-point fields survive the trip bit-for-bit: the workspace JSON
//! shim renders finite `f64`s with shortest-roundtrip formatting, which is
//! what makes the served [`Solution`]s byte-identical to locally computed
//! ones.

use crate::error::ServeError;
use crate::snapshot::SnapshotMeta;
use mc2ls_core::algorithms::Selector;
use mc2ls_core::{GatherStats, PruneStats, SelectionStats, Solution};
use mc2ls_influence::Model;
use serde::{Deserialize, Serialize};
use std::io::{ErrorKind, Read, Write};

/// Hard cap on a frame's payload length (64 MiB).
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// A client → server message.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Request {
    /// Liveness probe; answered with [`Response::Pong`].
    Ping,
    /// Solve a selection query against the loaded snapshot.
    Query(QueryRequest),
    /// Report live counters, latency quantiles and snapshot metadata.
    Stats,
    /// Swap the serving snapshot for the one at `path` (cache is cleared).
    Reload {
        /// File-system path of the `.mc2s` container to load.
        path: String,
    },
    /// Apply a batch of user-mobility events to a live-mode server. The
    /// batch is all-or-nothing: it is validated up front and either every
    /// event lands (the serving engine swaps to the refreshed state) or
    /// none do. Answered with [`Response::Updated`].
    Update {
        /// Events in application order.
        events: Vec<WireEvent>,
    },
    /// Propose candidate sites from the loaded snapshot's position data
    /// (the MaxRS-style sweep). Answered with [`Response::Proposed`].
    Propose(ProposeRequest),
    /// Stop accepting connections, drain in-flight work and exit.
    Shutdown,
}

/// Parameters of one candidate-generation request.
///
/// The server runs the [`mc2ls_candgen`] sweep over the loaded snapshot's
/// SoA position blocks — no model, τ or block-size coupling: proposing
/// sites only reads positions, so any client may PROPOSE against any
/// snapshot.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProposeRequest {
    /// Side of the square sweep window, in the dataset's coordinate units.
    /// Must be strictly positive and finite.
    pub window: f64,
    /// Number of candidate sites to emit (`≥ 1`); fewer may come back when
    /// the min-separation rule exhausts the window anchors first.
    pub m: usize,
    /// Minimum Euclidean distance between two emitted sites. `None` takes
    /// the sweep default of half a window; `Some(0.0)` disables dedup.
    pub min_separation: Option<f64>,
}

/// One user-mobility event on the wire.
///
/// `op` selects the shape: `"insert"` (new user from `xs`/`ys`, ignoring
/// `user`), `"delete"` (tombstone `user`), `"move"` (replace `user`'s
/// trajectory with `xs`/`ys`), `"checkin"` (append the single `xs[0]`,
/// `ys[0]` position to `user`'s trajectory — the SNAP replay verb).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WireEvent {
    /// Event kind: `insert`, `delete`, `move` or `checkin`.
    pub op: String,
    /// Target user id (server-assigned, dense); ignored for `insert`.
    pub user: u32,
    /// Position x coordinates (projected plane).
    pub xs: Vec<f64>,
    /// Position y coordinates (projected plane).
    pub ys: Vec<f64>,
}

/// Parameters of one selection query.
///
/// `tau` and `block_size` must match the snapshot bit-for-bit — influence
/// sets are τ-specific, so silently answering a different τ would be wrong.
/// Clients discover the snapshot's values via [`Request::Stats`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QueryRequest {
    /// Restrict selection to this candidate subset (global ids); `None`
    /// queries the full candidate set. Order and duplicates are irrelevant:
    /// the server canonicalises (sorts + dedups) before solving or caching.
    pub candidates: Option<Vec<u32>>,
    /// Number of sites to select (`1 ≤ k ≤` available candidates).
    pub k: usize,
    /// Influence threshold τ; must equal the snapshot's τ bit-for-bit.
    pub tau: f64,
    /// Verification block size; must equal the snapshot's value after
    /// canonicalisation (the auto sentinel resolves to the block size the
    /// snapshot stores, so `auto` and the resolved value are the same
    /// query — and the same cache entry).
    pub block_size: usize,
    /// The selector a direct solve would use. All selectors return
    /// byte-identical solutions and the engine always runs the decremental
    /// plan, so this field is accepted but not read (nor part of the
    /// cache key).
    pub selector: Selector,
    /// Whether the client solved (or will solve) its side of an A/B
    /// comparison with the exact-`exp` PF kernel. Serving runs zero PF
    /// evaluations — influence sets are precomputed — so this is a
    /// parity/debug field: accepted, never read, never part of the cache
    /// key.
    pub pf_exact: bool,
    /// Competition model the client expects the answer under. Must match
    /// the model recorded in the snapshot META (the server rejects
    /// mismatches with a typed `model-mismatch` error). Defaults to
    /// cumulative, so pre-model clients keep working against cumulative
    /// snapshots unchanged.
    #[serde(default)]
    pub model: Model,
}

/// A solved query as returned to the client.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QueryAnswer {
    /// The selected sites, per-round marginal gains and `cinf(G)` —
    /// byte-identical to a direct `solve_threaded` on the same instance.
    pub solution: Solution,
    /// Work counters of the selection phase.
    pub selection: SelectionStats,
    /// Pruning counters of the influence phase. Always
    /// [`PruneStats::default`] when served from a snapshot: loading runs
    /// zero influence-set evaluations.
    pub prune: PruneStats,
    /// Scatter/gather execution counters: shard and worker counts, event
    /// volume, and the busy/critical-path nanosecond split.
    pub gather: GatherStats,
    /// Whether this answer came from the result cache.
    pub cached: bool,
    /// FNV-1a hash of the canonical cache key (diagnostic aid).
    pub key_hash: u64,
}

/// Live server counters as reported by [`Request::Stats`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StatsReport {
    /// Metadata of the currently loaded snapshot.
    pub meta: SnapshotMeta,
    /// Total frames received (all verbs).
    pub requests: u64,
    /// Query frames received.
    pub queries: u64,
    /// Queries answered from the result cache.
    pub cache_hits: u64,
    /// Queries that missed the cache and ran the selector.
    pub cache_misses: u64,
    /// Connections rejected by admission control.
    pub rejected: u64,
    /// Requests that produced an error response.
    pub errors: u64,
    /// Successful snapshot reloads since start.
    pub reloads: u64,
    /// Reloads applied as delta snapshots (a subset of `reloads`).
    pub delta_reloads: u64,
    /// Queries that joined another in-flight identical query instead of
    /// computing (request batching).
    pub coalesced: u64,
    /// User shards in the currently loaded snapshot.
    pub shards: u64,
    /// Connections currently waiting for a worker.
    pub queue_depth: u64,
    /// Worker-thread count.
    pub workers: u64,
    /// Result-cache capacity (`0` = caching disabled).
    pub cache_capacity: u64,
    /// Entries currently resident in the result cache.
    pub cache_len: u64,
    /// Median query latency in microseconds (histogram upper bound).
    pub p50_us: u64,
    /// 99th-percentile query latency in microseconds (histogram upper bound).
    pub p99_us: u64,
    /// Mobility events applied through the UPDATE verb since start.
    pub updates_applied: u64,
    /// Candidate sites whose membership actually flipped across all
    /// applied updates (the flip-set sizes, summed).
    pub flipped_candidates: u64,
    /// Update-buffer compactions run (each refresh compacts once).
    pub compactions: u64,
}

/// What one [`Request::Update`] batch did, as reported to the client.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UpdateReport {
    /// Events applied (equals the batch length on success).
    pub applied: u64,
    /// Candidate sites whose influence-set membership changed for some
    /// touched user.
    pub flipped: u64,
    /// PF probability evaluations the flip-set re-verification spent.
    pub prob_evals: u64,
    /// Compactions run while absorbing this batch (the refresh runs one).
    pub compactions: u64,
    /// Shards (by the snapshot manifest in force *before* the batch) that
    /// contained a touched user — the scatter targets of the refresh.
    pub touched_shards: Vec<u32>,
    /// Server-assigned id the *next* `insert` will receive — clients
    /// replaying a stream map their external ids by counting from here.
    pub next_user_id: u32,
    /// Live users after the batch.
    pub n_users: u64,
}

/// A server → client message.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong,
    /// Answer to [`Request::Query`].
    Answer(QueryAnswer),
    /// Answer to [`Request::Stats`].
    Stats(StatsReport),
    /// Answer to [`Request::Update`].
    Updated(UpdateReport),
    /// Answer to [`Request::Propose`]: the ranked sites plus sweep shape
    /// counters, straight from the candidate-generation crate.
    Proposed(mc2ls_candgen::Proposal),
    /// Success acknowledgement for verbs without a payload.
    Done {
        /// Human-readable description of what happened.
        message: String,
    },
    /// Typed failure.
    Error {
        /// Stable machine-readable kind: `busy`, `query`, `snapshot`,
        /// `protocol`.
        kind: String,
        /// Human-readable explanation.
        message: String,
    },
}

/// Writes one frame (length prefix + payload).
///
/// # Errors
/// Propagates socket write failures.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), ServeError> {
    let len = u32::try_from(payload.len())
        .map_err(|_| ServeError::FrameTooLarge(payload.len() as u64))?;
    if len > MAX_FRAME_LEN {
        return Err(ServeError::FrameTooLarge(u64::from(len)));
    }
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame. `Ok(None)` means the peer closed the connection before
/// sending another length prefix (the clean end of a conversation).
///
/// # Errors
/// [`ServeError::FrameTooLarge`] on an implausible length prefix,
/// [`ServeError::ConnectionClosed`] when the peer closes mid-frame,
/// [`ServeError::Io`] on socket failures (including read timeouts, which
/// surface as `WouldBlock`/`TimedOut`).
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, ServeError> {
    read_frame_while(r, || false)
}

/// [`read_frame`] for a socket with a read timeout. A timeout before the
/// frame's first byte is returned at once: it ends an idle wait. A timeout
/// after it keeps the bytes read so far and asks `keep_waiting` whether to
/// read on, so a frame that arrives in pieces stays whole; the timeout is
/// returned only when `keep_waiting` says no.
fn read_frame_while(
    r: &mut impl Read,
    mut keep_waiting: impl FnMut() -> bool,
) -> Result<Option<Vec<u8>>, ServeError> {
    let mut len_buf = [0u8; 4];
    if !fill(r, &mut len_buf, false, &mut keep_waiting)? {
        return Ok(None);
    }
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME_LEN {
        return Err(ServeError::FrameTooLarge(u64::from(len)));
    }
    let mut payload = vec![0u8; len as usize];
    fill(r, &mut payload, true, &mut keep_waiting)?;
    Ok(Some(payload))
}

/// Fills `buf` from `r`. Interrupted reads are retried; so are timeouts
/// once the frame has begun (`begun`, or a byte of `buf` was read) and
/// `keep_waiting` allows. `Ok(false)` when the peer closed before the frame
/// began.
fn fill(
    r: &mut impl Read,
    buf: &mut [u8],
    begun: bool,
    keep_waiting: &mut impl FnMut() -> bool,
) -> Result<bool, ServeError> {
    let mut at = 0;
    while let Some(rest) = buf.get_mut(at..).filter(|rest| !rest.is_empty()) {
        match r.read(rest) {
            Ok(0) if !begun && at == 0 => return Ok(false),
            Ok(0) => return Err(ServeError::ConnectionClosed),
            Ok(n) => at += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e)
                if (begun || at > 0)
                    && matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
                    && keep_waiting() => {}
            Err(e) => return Err(ServeError::Io(e)),
        }
    }
    Ok(true)
}

/// Serialises `msg` to JSON and writes it as one frame.
///
/// # Errors
/// Propagates [`write_frame`] failures.
pub fn send_message<T: Serialize>(w: &mut impl Write, msg: &T) -> Result<(), ServeError> {
    let json = serde_json::to_string(msg)
        .map_err(|e| ServeError::Protocol(format!("message failed to serialise: {e}")))?;
    write_frame(w, json.as_bytes())
}

/// Reads one frame and parses it as `T`. `Ok(None)` mirrors
/// [`read_frame`]'s clean-close signal.
///
/// # Errors
/// [`ServeError::Protocol`] when the payload is not valid JSON of shape
/// `T`; all [`read_frame`] errors otherwise.
pub fn recv_message<T: Deserialize>(r: &mut impl Read) -> Result<Option<T>, ServeError> {
    recv_message_while(r, || false)
}

/// [`recv_message`] for a socket with a read timeout: a timeout ends only
/// the wait for a frame's first byte. Once the frame has begun, reading
/// goes on through timeouts for as long as `keep_waiting` returns `true`.
///
/// # Errors
/// As [`recv_message`]; a timeout mid-frame is returned only after
/// `keep_waiting` returned `false`, and the partial frame is lost.
pub fn recv_message_while<T: Deserialize>(
    r: &mut impl Read,
    keep_waiting: impl FnMut() -> bool,
) -> Result<Option<T>, ServeError> {
    let Some(payload) = read_frame_while(r, keep_waiting)? else {
        return Ok(None);
    };
    let text = std::str::from_utf8(&payload)
        .map_err(|e| ServeError::Protocol(format!("frame is not UTF-8: {e}")))?;
    serde_json::from_str(text)
        .map(Some)
        .map_err(|e| ServeError::Protocol(format!("unexpected message shape: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Serialize + Deserialize>(msg: &T) -> T {
        let mut buf = Vec::new();
        send_message(&mut buf, msg).expect("send");
        recv_message(&mut &buf[..]).expect("recv").expect("some")
    }

    #[test]
    fn requests_round_trip() {
        let req = Request::Query(QueryRequest {
            candidates: Some(vec![3, 1, 2]),
            k: 2,
            tau: 0.7,
            block_size: 8,
            selector: Selector::Auto,
            pf_exact: true,
            model: Model::Logit,
        });
        match round_trip(&req) {
            Request::Query(q) => {
                assert_eq!(q.candidates, Some(vec![3, 1, 2]));
                assert_eq!(q.k, 2);
                assert_eq!(q.tau.to_bits(), 0.7f64.to_bits());
                assert_eq!(q.selector, Selector::Auto);
                assert!(q.pf_exact);
            }
            other => panic!("wrong variant: {other:?}"),
        }
        assert!(matches!(round_trip(&Request::Ping), Request::Ping));
        assert!(matches!(round_trip(&Request::Shutdown), Request::Shutdown));
        match round_trip(&Request::Propose(ProposeRequest {
            window: 2.5,
            m: 12,
            min_separation: Some(0.75),
        })) {
            Request::Propose(p) => {
                assert_eq!(p.window.to_bits(), 2.5f64.to_bits());
                assert_eq!(p.m, 12);
                assert_eq!(p.min_separation.map(f64::to_bits), Some(0.75f64.to_bits()));
            }
            other => panic!("wrong variant: {other:?}"),
        }
        match round_trip(&Request::Reload {
            path: "/tmp/x.mc2s".into(),
        }) {
            Request::Reload { path } => assert_eq!(path, "/tmp/x.mc2s"),
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn answers_preserve_float_bits() {
        let ans = QueryAnswer {
            solution: Solution {
                selected: vec![5, 9],
                marginal_gains: vec![0.1 + 0.2, 1.0 / 3.0],
                cinf: 0.30000000000000004,
            },
            selection: SelectionStats::default(),
            prune: PruneStats::default(),
            gather: GatherStats {
                shards: 2,
                workers: 2,
                rounds: 2,
                scatter_events: 7,
                busy_ns: 10,
                critical_path_ns: 6,
                shared_epoch: true,
            },
            cached: true,
            key_hash: 0xDEAD_BEEF,
        };
        match round_trip(&Response::Answer(ans.clone())) {
            Response::Answer(back) => {
                assert_eq!(back.solution.selected, ans.solution.selected);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&back.solution.marginal_gains),
                    bits(&ans.solution.marginal_gains)
                );
                assert_eq!(back.solution.cinf.to_bits(), ans.solution.cinf.to_bits());
                assert_eq!(back.gather, ans.gather);
                assert!(back.cached);
                assert_eq!(back.key_hash, 0xDEAD_BEEF);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn oversized_frames_are_rejected_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        buf.extend_from_slice(&[0; 8]);
        assert!(matches!(
            read_frame(&mut &buf[..]),
            Err(ServeError::FrameTooLarge(_))
        ));
    }

    /// Serves its chunks one `read` at a time; an empty chunk is a read
    /// timeout.
    struct Stalling(std::collections::VecDeque<Vec<u8>>);

    impl Read for Stalling {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match self.0.pop_front() {
                None => Ok(0),
                Some(chunk) if chunk.is_empty() => Err(ErrorKind::WouldBlock.into()),
                Some(chunk) => {
                    let n = chunk.len().min(buf.len());
                    buf[..n].copy_from_slice(&chunk[..n]);
                    if n < chunk.len() {
                        self.0.push_front(chunk[n..].to_vec());
                    }
                    Ok(n)
                }
            }
        }
    }

    #[test]
    fn a_timeout_after_the_prefix_keeps_the_frame() {
        let mut frame = Vec::new();
        send_message(&mut frame, &Request::Ping).expect("frame");
        let (prefix, payload) = frame.split_at(4);
        let chunks = || {
            Stalling(
                [prefix.to_vec(), vec![], vec![], payload.to_vec()]
                    .into_iter()
                    .collect(),
            )
        };
        let mut polls = 0;
        let got: Option<Request> = recv_message_while(&mut chunks(), || {
            polls += 1;
            true
        })
        .expect("the frame survives the stalls");
        assert!(matches!(got, Some(Request::Ping)));
        assert_eq!(polls, 2);

        // When the caller stops waiting, the timeout surfaces.
        let stopped = recv_message_while::<Request>(&mut chunks(), || false);
        assert!(
            matches!(&stopped, Err(ServeError::Io(e)) if e.kind() == ErrorKind::WouldBlock),
            "{stopped:?}"
        );

        // A timeout before the first byte is an idle poll: returned at
        // once, without asking.
        let mut idle = Stalling([vec![], frame.clone()].into_iter().collect());
        let first = recv_message_while::<Request>(&mut idle, || panic!("not asked"));
        assert!(matches!(first, Err(ServeError::Io(_))));
        let second: Option<Request> = recv_message_while(&mut idle, || false).expect("frame");
        assert!(matches!(second, Some(Request::Ping)));
    }

    #[test]
    fn truncated_frames_and_clean_closes_are_distinguished() {
        // No bytes at all: clean close.
        assert!(matches!(read_frame(&mut &[][..]), Ok(None)));
        // Length prefix but a short payload: hard error.
        let mut buf = Vec::new();
        buf.extend_from_slice(&8u32.to_le_bytes());
        buf.extend_from_slice(&[1, 2, 3]);
        assert!(matches!(
            read_frame(&mut &buf[..]),
            Err(ServeError::ConnectionClosed)
        ));
        // Garbage JSON is a protocol error.
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{not json").expect("frame");
        assert!(matches!(
            recv_message::<Request>(&mut &buf[..]),
            Err(ServeError::Protocol(_))
        ));
    }
}
