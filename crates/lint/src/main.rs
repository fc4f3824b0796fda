//! The `mc2ls-lint` binary: lints the workspace tree and exits non-zero
//! on any diagnostic. CI runs it before clippy; `--json` feeds the
//! experiments-smoke emptiness check and the runtime budget assertion.
//!
//! ```text
//! cargo run -p mc2ls-lint -- --workspace-root . [--json] [--graph-json g.json]
//! ```

#![forbid(unsafe_code)]
// Diagnostics on stdout/stderr are this binary's entire purpose.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: mc2ls-lint [--workspace-root <dir>] [--json] \
[--graph-json <path>] [--fix-waivers]

Determinism & safety linter for the MC2LS workspace (rules R1-R9, W1-W2).
Exits 0 when clean, 1 when any diagnostic fires, 2 on usage/I/O errors.

options:
  --workspace-root <dir>  workspace checkout to lint (default: .)
  --json                  emit diagnostics as a JSON array on stdout,
                          followed by one runtime-footer JSON object line
  --graph-json <path>     also dump the call/lock graph as JSON to <path>
  --fix-waivers           delete unused `// lint:allow` waivers in place,
                          report what was removed, and exit
  --help                  print this help";

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut json = false;
    let mut graph_json: Option<PathBuf> = None;
    let mut fix = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace-root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => {
                    eprintln!("error: --workspace-root needs a directory\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--json" => json = true,
            "--graph-json" => match args.next() {
                Some(p) => graph_json = Some(PathBuf::from(p)),
                None => {
                    eprintln!("error: --graph-json needs a path\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--fix-waivers" => fix = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("error: unknown argument `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    if fix {
        return match mc2ls_lint::fix_waivers(&root) {
            Ok(edited) if edited.is_empty() => {
                println!("mc2ls-lint: no unused waivers");
                ExitCode::SUCCESS
            }
            Ok(edited) => {
                let total: usize = edited.iter().map(|(_, n)| n).sum();
                for (file, n) in &edited {
                    println!("{file}: removed {n} unused waiver(s)");
                }
                println!("mc2ls-lint: removed {total} unused waiver(s)");
                ExitCode::SUCCESS
            }
            Err(err) => {
                eprintln!("error: cannot fix waivers under {}: {err}", root.display());
                ExitCode::from(2)
            }
        };
    }

    let started = Instant::now();
    let report = match mc2ls_lint::lint_workspace_report(&root) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("error: cannot lint {}: {err}", root.display());
            return ExitCode::from(2);
        }
    };
    let runtime_ms = started.elapsed().as_millis();

    if let Some(path) = &graph_json {
        if let Err(err) = std::fs::write(path, &report.graph_json) {
            eprintln!("error: cannot write {}: {err}", path.display());
            return ExitCode::from(2);
        }
    }

    let diags = &report.diags;
    if json {
        println!("{}", mc2ls_lint::to_json(diags));
        // One self-audit footer line: CI asserts the linter stays fast
        // enough to run on every push (runtime_ms budget).
        println!(
            "{{\"runtime_ms\":{runtime_ms},\"files\":{},\"functions\":{},\"diagnostics\":{}}}",
            report.n_files,
            report.n_functions,
            diags.len()
        );
    } else {
        for d in diags {
            println!("{d}");
        }
        if diags.is_empty() {
            println!(
                "mc2ls-lint: clean ({} files, {} functions, {runtime_ms} ms)",
                report.n_files, report.n_functions
            );
        } else {
            println!("mc2ls-lint: {} diagnostic(s)", diags.len());
        }
    }
    if diags.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
