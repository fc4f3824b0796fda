//! Smoke runs of the built benchmark: every workload at scale 0.05 with a
//! 1 s window, untraced and traced, plus runs against a corrupted reference.

use serde_json::Value;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `perfbench run --smoke ...` in `dir`; returns the exit status and
/// the parsed last line of standard output.
fn run(dir: &Path, args: &[&str]) -> (bool, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .arg("run")
        .arg("--smoke")
        .args(args)
        .current_dir(dir)
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    let last = stdout.lines().last().unwrap_or_default();
    let result = serde_json::from_str(last).unwrap_or_else(|e| {
        panic!(
            "last line is not JSON ({e}): {stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    (out.status.success(), result)
}

/// (name, unit) of every metric `BENCHMARK.json` declares under `key`.
fn declared(key: &str) -> BTreeSet<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
    doc[key]
        .as_array()
        .unwrap()
        .iter()
        .map(|m| {
            let field = |f: &str| m[f].as_str().unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn printed(result: &Value) -> BTreeSet<(String, String)> {
    result["metrics"]
        .as_object()
        .unwrap()
        .iter()
        .map(|(name, m)| (name.clone(), m["unit"].as_str().unwrap().to_string()))
        .collect()
}

fn assert_clean(result: &Value) {
    let keys: Vec<&String> = result.as_object().unwrap().keys().collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result["correct"].as_bool(), Some(true), "{result}");
    assert_eq!(result["failed"].as_u64(), Some(0), "{result}");
    assert!(result["attempted"].as_u64().unwrap() >= 1);
}

/// Every span of a trace file has a request id and a parent that is either
/// absent (a root) or another span of the file.
fn check_trace(file: &Path) {
    let text = std::fs::read_to_string(file).unwrap();
    let spans: Vec<Value> = text
        .lines()
        .map(|l| serde_json::from_str::<Value>(l).unwrap())
        .filter(|v| v.get("span").is_some())
        .collect();
    assert!(!spans.is_empty(), "{} holds no spans", file.display());
    let ids: BTreeSet<u64> = spans.iter().map(|s| s["id"].as_u64().unwrap()).collect();
    assert_eq!(ids.len(), spans.len(), "span ids repeat");
    for s in &spans {
        assert!(
            s["req"].as_u64().is_some(),
            "span without a request id: {s}"
        );
        let parent = &s["parent"];
        assert!(
            parent.is_null() || ids.contains(&parent.as_u64().unwrap()),
            "span with a missing parent: {s}"
        );
        assert!(s["end_ns"].as_u64() >= s["start_ns"].as_u64());
    }
}

fn smoke(workload: &str) {
    let dir = tmp_dir(workload);
    let (ok, result) = run(&dir, &["--workload", workload, "--seed", "3"]);
    assert!(ok, "{workload}: {result}");
    assert_clean(&result);
    assert_eq!(printed(&result), declared("end_to_end"), "{workload}");
    for (name, m) in result["metrics"].as_object().unwrap() {
        assert!(
            m["value"].as_f64().unwrap() > 0.0,
            "{workload}: {name} is 0"
        );
    }

    let traces = dir.join("traces");
    let traces_arg = traces.to_str().unwrap();
    let args = ["--workload", workload, "--seed", "3", "--trace", "1"];
    let (ok, result) = run(&dir, &[&args[..], &["--trace-out", traces_arg]].concat());
    assert!(ok, "{workload} traced: {result}");
    assert_clean(&result);
    assert_eq!(printed(&result), declared("per_layer"), "{workload}");
    check_trace(&traces.join(format!("{workload}-seed3.jsonl")));
}

#[test]
fn solve_c_smoke() {
    smoke("solve-C");
}

#[test]
fn serve_read_n_smoke() {
    smoke("serve-read-N");
}

#[test]
fn serve_live_n_smoke() {
    smoke("serve-live-N");
}

#[test]
fn ops_c_smoke() {
    smoke("ops-C");
}

#[test]
fn a_corrupted_reference_fails_the_run() {
    let dir = tmp_dir("corrupt");
    for workload in ["solve-C", "ops-C"] {
        let args = ["--workload", workload, "--corrupt-reference"];
        let (ok, result) = run(&dir, &args);
        assert!(!ok, "{workload}: a wrong reference must fail the run");
        assert_eq!(result["correct"].as_bool(), Some(false));
        assert!(result["failed"].as_u64().unwrap() > 0, "{result}");
    }
}

#[test]
fn bad_flags_exit_without_a_result() {
    for args in [
        &["run", "--workload", "nope"][..],
        &["run", "--trace", "2"],
        &["run", "--seconds", "0"],
        &["frobnicate"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
