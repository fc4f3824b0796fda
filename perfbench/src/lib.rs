//! Seeded end-to-end benchmark of MC²LS.
//!
//! One run executes one workload through the real user paths (a solve, a
//! served QUERY over TCP, a live UPDATE batch, snapshot save / RELOAD /
//! PROPOSE), checks every answer against an in-process reference, and
//! prints its metrics as one JSON line. See `README.md` for the workloads,
//! the metrics and how to run and compare.

#![forbid(unsafe_code)]

pub mod compare;
pub mod inputs;
pub mod report;
pub mod summary;
pub mod sys;
pub mod trace;
pub mod workloads;
