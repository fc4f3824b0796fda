// Not a bench target: shared helpers included by the bench files via
// `#[path = "common.rs"] mod common;`. Each bench uses a subset, hence
// the dead_code allowance.
#![allow(dead_code)]

use mc2ls::prelude::*;
use std::sync::Arc;

/// A reduced dataset scale so `cargo bench` completes quickly while keeping
/// the dataset's behavioural character.
pub const SCALE_C: f64 = 0.05;

pub fn dataset_c() -> Arc<Dataset> {
    mc2ls_bench::california(SCALE_C)
}

/// Default-parameter problem over a dataset at bench scale.
pub fn problem(dataset: &Dataset, tau: f64) -> Problem {
    mc2ls_bench::problem_with(dataset, 100, 200, 10, tau)
}
