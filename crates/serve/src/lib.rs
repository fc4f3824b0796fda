//! `mc2ls-serve`: sharded snapshot persistence and a concurrent
//! scatter/gather query-serving subsystem for MC²LS.
//!
//! The crate splits into two halves:
//!
//! * **Snapshot persistence** ([`snapshot`], [`view`], [`delta`]): the
//!   versioned, little-endian `.mc2s` container bundling every index
//!   artifact a query needs — per user shard, the
//!   [`mc2ls_core::InfluenceSets`] CSR, the [`mc2ls_core::InvertedIndex`]
//!   and the [`mc2ls_influence::PositionBlocks`] SoA, plus the global
//!   [`mc2ls_index::IQuadTree`] — each in its own CRC-checked section.
//!   [`view::LoadedSnapshot`] loads it **zero-copy**: CSR arrays are
//!   borrowed straight from the file bytes (safe Rust, validated once), so
//!   cold start is I/O-dominated, with **zero** influence-set evaluations
//!   and no position/tree decode. [`delta`] ships only changed section
//!   groups, fingerprinted against a base container.
//! * **Query service** ([`server`]): a dependency-free thread-per-worker TCP
//!   server speaking length-prefixed JSON ([`protocol`]), with a bounded
//!   admission queue (connections beyond the bound are rejected with a
//!   typed `busy` error), a deterministic LRU result cache ([`cache`])
//!   keyed on canonicalised queries, single-flight request batching,
//!   live counters and a latency histogram ([`metrics`]), snapshot
//!   hot-reload (full or delta), and a graceful drain on shutdown.
//! * **Live mode** ([`live`]): an update engine absorbs UPDATE batches of
//!   user-mobility events, and each batch's compacted CSRs become the next
//!   epoch's owned query plane — served in memory, never assembled into a
//!   container, encoded or re-validated. A live server rejects RELOAD.
//!
//! Answers are byte-identical to a direct [`mc2ls_core::algorithms::
//! solve_threaded`] run on the same instance: the engine ([`engine`])
//! replays the selection phase through the scatter/gather plan
//! ([`mc2ls_core::shard`]) over the per-shard CSRs — a loaded snapshot's
//! or a live epoch's, or a canonical candidate-subset slice of them —
//! which the workspace guarantees is bit-equal at every shard and thread
//! count.
//!
//! Everything on a network or file error path returns a typed error
//! ([`ServeError`] / [`SnapshotError`]) — no panicking shortcuts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod delta;
pub mod engine;
pub mod error;
pub mod live;
pub mod metrics;
pub mod protocol;
pub mod server;
pub mod snapshot;
pub mod view;

pub use cache::ResultCache;
pub use client::Client;
pub use engine::{ProposeError, QueryEngine, QueryError};
pub use error::{ServeError, SnapshotError};
pub use live::{LiveUpdater, UpdateBatchError};
pub use metrics::Metrics;
pub use protocol::{
    ProposeRequest, QueryAnswer, QueryRequest, Request, Response, StatsReport, UpdateReport,
    WireEvent,
};
pub use server::{Server, ServerConfig};
pub use snapshot::{ShardArtifacts, Snapshot, SnapshotMeta};
pub use view::LoadedSnapshot;
