//! `perfbench` — the MC²LS end-to-end benchmark.
//!
//! ```text
//! perfbench run [--workload NAME]... [--seed S] [--seconds T] [--trace 0|1]
//!               [--trace-out DIR] [--smoke] [--out FILE]
//! perfbench compare PARENT CHANGE [--bench BENCHMARK.json]
//! ```
//!
//! `run` with one workload runs it in this process and prints its metrics,
//! the last line being one JSON result object. With no or several
//! `--workload`s, each workload runs in a fresh child process. The exit
//! code is non-zero when any operation failed or answered wrongly.

#![forbid(unsafe_code)]

use mc2ls_perfbench::workloads::{self, Settings, NAMES};
use mc2ls_perfbench::{compare, report, trace::Tracer};
use serde_json::Value;
use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

const USAGE: &str = "usage:
  perfbench run [--workload NAME]... [--seed S] [--seconds T] [--trace 0|1]
                [--trace-out DIR] [--smoke] [--out FILE]
  perfbench compare PARENT CHANGE [--bench BENCHMARK.json]";

/// Parsed `run` flags.
struct RunArgs {
    workloads: Vec<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    trace_out: Option<PathBuf>,
    smoke: bool,
    out: Option<PathBuf>,
    corrupt_reference: bool,
    /// The flags to forward to a child process, minus `--workload`.
    forward: Vec<String>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut r = RunArgs {
        workloads: Vec::new(),
        seed: 1,
        seconds: None,
        trace: false,
        trace_out: None,
        smoke: false,
        out: None,
        corrupt_reference: false,
        forward: Vec::new(),
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let switch = matches!(flag, "--smoke" | "--corrupt-reference");
        let value = if switch {
            ""
        } else {
            args.get(i + 1).ok_or(format!("{flag} needs a value"))?
        };
        match flag {
            "--workload" => {
                if !NAMES.contains(&value) {
                    return Err(format!("unknown workload {value:?}; known: {NAMES:?}"));
                }
                r.workloads.push(value.to_string());
            }
            "--seed" => r.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                r.seconds = Some(s);
            }
            "--trace" => {
                r.trace = match value {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--trace-out" => r.trace_out = Some(value.into()),
            "--out" => r.out = Some(value.into()),
            "--smoke" => r.smoke = true,
            "--corrupt-reference" => r.corrupt_reference = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
        let next = i + if switch { 1 } else { 2 };
        if flag != "--workload" {
            r.forward.extend_from_slice(&args[i..next]);
        }
        i = next;
    }
    Ok(r)
}

/// Removes the run's temporary directory, and its parent once no other run
/// uses it, when the run ends.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn run_one(args: &RunArgs, name: &str) -> Result<bool, String> {
    let seconds = args.seconds.unwrap_or(if args.smoke { 1.0 } else { 20.0 });
    // A stuck server must not hang the caller: give up well after any
    // healthy run would have ended. The thread is deliberately left
    // detached; process exit ends it.
    let deadline = Duration::from_secs_f64(2.0 * seconds + 120.0);
    std::thread::spawn(move || {
        std::thread::sleep(deadline);
        eprintln!("perfbench: run exceeded {deadline:?}, aborting");
        std::process::exit(3);
    });

    let tmp = TempDir(
        std::env::current_dir()
            .map_err(|e| e.to_string())?
            .join(".perfbench-tmp")
            .join(format!("{name}-{}", std::process::id())),
    );
    std::fs::create_dir_all(&tmp.0).map_err(|e| format!("{}: {e}", tmp.0.display()))?;
    let settings = Settings {
        seed: args.seed,
        seconds,
        smoke: args.smoke,
        corrupt_reference: args.corrupt_reference,
        tmp: tmp.0.clone(),
    };
    let mut tracer = Tracer::new(args.trace, Instant::now(), 0);
    let mut outcome = workloads::run(name, &settings, &mut tracer).ok_or("unknown workload")?;
    if outcome.checked == 0 {
        // A run that checked nothing showed nothing correct.
        outcome.check(false);
    }
    let metrics = if args.trace {
        report::per_layer(&outcome, &tracer)
    } else {
        report::end_to_end(&outcome)
    };

    if let Some(dir) = &args.trace_out {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let file = dir.join(format!("{name}-seed{}.jsonl", args.seed));
        tracer
            .write_jsonl(&file)
            .map_err(|e| format!("{}: {e}", file.display()))?;
    }
    println!(
        "# {name} seed {} ({} s window): {} of {} operations failed",
        args.seed, seconds, outcome.failed, outcome.checked
    );
    for m in &metrics {
        println!(
            "# {:<40} {:>14.4} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    let result = report::result(&outcome, &metrics);
    let line = serde_json::to_string(&Value::Object(result.clone())).map_err(|e| e.to_string())?;
    if let Some(path) = &args.out {
        let mut tagged = serde_json::Map::new();
        tagged.insert("workload".into(), Value::from(name));
        tagged.insert("seed".into(), Value::from(args.seed));
        tagged.insert("trace".into(), Value::from(args.trace));
        for (k, v) in result {
            tagged.insert(k, v);
        }
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let tagged = serde_json::to_string(&Value::Object(tagged)).map_err(|e| e.to_string())?;
        writeln!(file, "{tagged}").map_err(|e| e.to_string())?;
    }
    println!("{line}");
    Ok(outcome.failed == 0)
}

/// Runs each workload in a fresh child process of this executable.
fn run_children(args: &RunArgs) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let names: Vec<&str> = if args.workloads.is_empty() {
        NAMES.to_vec()
    } else {
        args.workloads.iter().map(String::as_str).collect()
    };
    let mut all_ok = true;
    for name in names {
        let status = Command::new(&exe)
            .arg("run")
            .args(["--workload", name])
            .args(&args.forward)
            .status()
            .map_err(|e| e.to_string())?;
        if !status.success() {
            eprintln!("perfbench: workload {name} exited with {status}");
            all_ok = false;
        }
    }
    Ok(all_ok)
}

fn run_compare(args: &[String]) -> Result<bool, String> {
    let mut files = Vec::new();
    let mut bench = PathBuf::from("BENCHMARK.json");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--bench" {
            bench = it.next().ok_or("--bench needs a value")?.into();
        } else {
            files.push(a);
        }
    }
    let [parent, change] = files.as_slice() else {
        return Err("compare needs PARENT and CHANGE".into());
    };
    let read = |p: &dyn AsRef<std::path::Path>| {
        std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.as_ref().display()))
    };
    let specs = compare::load_specs(&read(&bench)?)?;
    let rows = compare::compare(
        &specs,
        &compare::parse_runs(&read(parent)?)?,
        &compare::parse_runs(&read(change)?)?,
    );
    print!("{}", compare::render(&rows));
    Ok(!rows
        .iter()
        .any(|r| r.verdict == compare::Verdict::Regressed))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..]).and_then(|r| match r.workloads.as_slice() {
            [one] => run_one(&r, one),
            _ => run_children(&r),
        }),
        Some("compare") => run_compare(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
