//! `mc2ls-lint` — a from-scratch, zero-dependency static-analysis pass
//! over the workspace's Rust sources.
//!
//! Every result this workspace ships rests on one invariant the compiler
//! cannot see: solutions and stats must be **byte-identical at any thread
//! count and any kernel/selector choice**. The dynamic tests assert it on
//! sampled instances; this linter closes the gap statically by keeping the
//! known nondeterminism sources out of result-producing code:
//!
//! | code | rule            | scope                                  | what it catches |
//! |------|-----------------|----------------------------------------|-----------------|
//! | R1   | nondet-iteration| `core`/`index`/`influence`/`geo` lib   | `HashMap`/`HashSet` (iteration order varies per process) |
//! | R2   | panic-path      | library crates (not `cli`/`bench`)     | `unwrap`/`expect`/`panic!`/`todo!`/`unimplemented!` |
//! | R3   | unsafe-code     | everywhere, plus crate-root audit      | `unsafe` tokens; missing `#![forbid(unsafe_code)]` |
//! | R4   | narrowing-cast  | CSR/Morton/heap hot-path files         | unchecked `as u32`-style narrowing on index arithmetic |
//! | R5   | float-accum     | parallel-join / gain files             | f64 reductions outside `canonical_gain` |
//! | R6   | lock-order      | workspace lock graph                   | any cycle of lock-acquisition order, incl. through callees |
//! | R7   | panic-propagation| public fns of panic-path crates       | transitive reach of an unwaived panic / unguarded indexing |
//! | R8   | hold-across-blocking | `serve` worker files              | guard held across blocking I/O, joins, waits, or lock-taking calls |
//! | R9   | unread-pub      | pipeline library crates (not `cli`/`bench`/`lint`) | `pub` item no other file's non-test code names |
//! | W1   | bad-waiver      | everywhere                             | waiver without a reason / unknown rule |
//! | W2   | unused-waiver   | everywhere                             | waiver that suppresses nothing |
//!
//! R1–R5 are token-level. R6–R8 are **inter-procedural**: an item-level
//! parser ([`parser`]) feeds a workspace symbol table ([`symbols`]) and a
//! per-function lock/call/blocking summary ([`lockscope`]); the call
//! graph ([`callgraph`]) closes lock, blocking and panic reachability
//! over resolved edges, and the three rules read those closures. The
//! whole substrate dumps to JSON via `--graph-json` for CI diffing. R9 is
//! a **cross-file** token rule: an item counts as read when any other
//! crate source, example or the end-to-end benchmark names it, so it
//! over-approximates use and never flags a live item.
//!
//! Violations are waived inline with `// lint:allow(<rule>): <reason>` on
//! the offending line or the line above; the reason is mandatory and
//! unused waivers are errors, so the waiver inventory is always a live,
//! audited list of documented invariants.
//!
//! The crate has **no dependencies** (not even the in-repo shims): its own
//! minimal lexer handles strings, char literals, lifetimes, raw
//! strings/identifiers and nested comments, so rule patterns never fire
//! inside a literal or comment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod callgraph;
pub mod lexer;
pub mod lockscope;
pub mod parser;
mod r6_lock_order;
mod r7_panic_prop;
mod r8_hold_blocking;
mod r9_unread_pub;
mod rules;
pub mod scopes;
pub mod symbols;

pub use rules::{Diagnostic, FileClass, Rule};

use std::io;
use std::path::{Path, PathBuf};

/// Crates whose library code produces results (solutions, stats, influence
/// sets) — the R1 scope. `serve` is included: cache keys, snapshot
/// sections and stats reports must not depend on hash-iteration order.
const RESULT_CRATES: [&str; 6] = ["core", "index", "influence", "geo", "serve", "candgen"];

/// Crates exempt from R2: binaries and the bench harness may shortcut.
const PANIC_EXEMPT_CRATES: [&str; 2] = ["cli", "bench"];

/// The pipeline library crates whose `pub` items R9 checks. The tool
/// crates (`cli`, `bench`, `lint`) are not checked, but their code reads.
const PIPELINE_CRATES: [&str; 9] = [
    "geo",
    "influence",
    "index",
    "core",
    "candgen",
    "data",
    "serve",
    "viz",
    "mc2ls",
];

/// Hot-path files for R4 (CSR layouts, Morton codes, selection heaps,
/// shard views, the update engine's slot/buffer arithmetic, the live
/// batch's shard routing, and the delta splice's frame indices),
/// workspace-relative with `/` separators.
const NARROWING_SCOPE: [&str; 14] = [
    "crates/core/src/influence_sets.rs",
    "crates/core/src/inverted.rs",
    "crates/core/src/bitset.rs",
    "crates/core/src/greedy.rs",
    "crates/core/src/shard.rs",
    "crates/core/src/update.rs",
    "crates/core/src/algorithms/iqt.rs",
    "crates/geo/src/morton.rs",
    "crates/influence/src/blocks.rs",
    "crates/influence/src/lanes.rs",
    "crates/serve/src/delta.rs",
    "crates/serve/src/live.rs",
    "crates/candgen/src/sweep.rs",
    "crates/influence/src/model.rs",
];

/// Serve request-path files where R7 treats unguarded slice indexing as a
/// panic source: these run inside worker threads where a panic poisons
/// the shared locks and wedges the whole accept loop.
const INDEX_GUARD_SCOPE: [&str; 6] = [
    "crates/serve/src/server.rs",
    "crates/serve/src/engine.rs",
    "crates/serve/src/live.rs",
    "crates/serve/src/cache.rs",
    "crates/serve/src/metrics.rs",
    "crates/serve/src/protocol.rs",
];

/// Files containing parallel-join, gain-materialisation, or lane-kernel
/// float accumulation code for R5.
const FLOAT_SCOPE: [&str; 11] = [
    "crates/core/src/greedy.rs",
    "crates/core/src/parallel.rs",
    "crates/core/src/inverted.rs",
    "crates/core/src/verify.rs",
    "crates/core/src/influence_sets.rs",
    "crates/core/src/algorithms/iqt.rs",
    "crates/core/src/shard.rs",
    "crates/core/src/update.rs",
    "crates/influence/src/lanes.rs",
    "crates/candgen/src/sweep.rs",
    "crates/influence/src/model.rs",
];

/// Classifies a workspace-relative path (always `/`-separated) into the
/// rule set that applies to it, or `None` when the file is out of scope.
pub fn classify(rel: &str) -> Option<FileClass> {
    if !rel.ends_with(".rs") {
        return None;
    }
    // The linter's own violation fixtures are linted only by the
    // self-tests, with explicit classes.
    if rel.contains("/fixtures/") {
        return None;
    }

    // crates/<name>/src/** — library (or binary) source.
    if let Some(rest) = rel.strip_prefix("crates/") {
        let (name, tail) = rest.split_once('/')?;
        if let Some(in_src) = tail.strip_prefix("src/") {
            let is_bin_target = in_src.starts_with("bin/");
            return Some(FileClass {
                nondet_iteration: RESULT_CRATES.contains(&name),
                panic_path: !PANIC_EXEMPT_CRATES.contains(&name) && !is_bin_target,
                narrowing_cast: NARROWING_SCOPE.contains(&rel),
                float_accum: FLOAT_SCOPE.contains(&rel),
                crate_root: in_src == "lib.rs",
                graph: true,
                bin_crate: PANIC_EXEMPT_CRATES.contains(&name) || is_bin_target,
                hold_across_blocking: name == "serve",
                index_guard: INDEX_GUARD_SCOPE.contains(&rel),
                unread_pub: PIPELINE_CRATES.contains(&name) && !is_bin_target,
                pub_reader: true,
            });
        }
        // Integration tests / benches of a crate: unsafe audit only. A
        // crate's example programs also read `pub` items (R9).
        return Some(FileClass {
            pub_reader: tail.starts_with("examples/"),
            ..FileClass::default()
        });
    }

    // The end-to-end benchmark is a workspace of its own. Its sources read
    // the crates' `pub` items (R9); like every walked file, they get the
    // `unsafe` token audit (R3) and the waiver checks, and nothing else.
    if rel.starts_with("perfbench/src/") {
        return Some(FileClass {
            pub_reader: true,
            ..FileClass::default()
        });
    }

    // Offline dependency shims: reimplemented third-party API surface.
    // Panic shortcuts mirror the upstream APIs, but unsafe stays banned
    // and every shim root must carry the forbid attribute.
    if let Some(rest) = rel.strip_prefix("shims/") {
        let crate_root = rest
            .split_once('/')
            .is_some_and(|(_, tail)| tail == "src/lib.rs");
        // Shims join the call graph (so calls into them resolve instead of
        // dangling) but contribute no panic sources — like std itself.
        let graph = rest
            .split_once('/')
            .is_some_and(|(_, t)| t.starts_with("src/"));
        return Some(FileClass {
            crate_root,
            graph,
            ..FileClass::default()
        });
    }

    // The cross-crate integration crate and the examples: unsafe audit.
    if rel.starts_with("tests/") || rel.starts_with("examples/") {
        return Some(FileClass {
            crate_root: rel == "tests/src/lib.rs",
            pub_reader: rel.starts_with("examples/"),
            ..FileClass::default()
        });
    }

    None
}

/// Recursively collects `.rs` files under `dir` into `out` (skipping
/// `target/` and hidden directories), as workspace-relative paths.
fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
    Ok(())
}

/// One source file handed to [`lint_project`].
pub struct ProjectFile {
    /// Workspace-relative, `/`-separated path (used in diagnostics and
    /// for symbol-table module derivation).
    pub path: String,
    /// The file's contents.
    pub src: String,
    /// Which rules apply.
    pub class: FileClass,
}

/// Per-function analysis state: the parsed item plus its operation
/// summary (calls, acquisitions, blocking sites, panic sites).
pub(crate) struct FnAnal {
    pub(crate) item: parser::FnItem,
    pub(crate) ops: lockscope::FnOps,
}

/// Per-file analysis state shared between the token and graph phases.
pub(crate) struct FileAnal {
    pub(crate) path: String,
    pub(crate) class: FileClass,
    pub(crate) waivers: Vec<rules::Waiver>,
    /// Raw (pre-waiver) diagnostics; the graph rules append here so one
    /// waiver protocol covers R1–R9 uniformly.
    pub(crate) raw: Vec<Diagnostic>,
    pub(crate) fns: Vec<FnAnal>,
    /// R9's view of the file: its checked `pub` items and what it reads.
    pub(crate) surface: r9_unread_pub::Surface,
}

/// The result of a project-level lint run.
pub struct ProjectReport {
    /// All diagnostics, sorted by file and line; empty means clean.
    pub diags: Vec<Diagnostic>,
    /// The call-graph/lock-graph dump (the `--graph-json` payload).
    pub graph_json: String,
    /// Files analysed.
    pub n_files: usize,
    /// Functions in the call graph.
    pub n_functions: usize,
}

/// Lints a set of files as **one project**: token rules (R1–R5) per file,
/// then the inter-procedural rules (R6–R8) over the cross-file call
/// graph and R9 over the cross-file name index, then waiver accounting
/// (W1/W2) across all of it.
pub fn lint_project(files: &[ProjectFile]) -> ProjectReport {
    let mut anals: Vec<FileAnal> = Vec::new();
    let mut diags: Vec<Diagnostic> = Vec::new();

    for pf in files {
        let toks = lexer::lex(&pf.src);
        let sc = scopes::analyze(&toks);
        let code: Vec<usize> = (0..toks.len())
            .filter(|&i| {
                !matches!(
                    toks[i].kind,
                    lexer::TokKind::LineComment | lexer::TokKind::BlockComment
                )
            })
            .collect();

        let (waivers, mut bad) = rules::collect_waivers(&pf.path, &toks, &sc);
        diags.append(&mut bad); // W1 is never waivable
        let raw = rules::token_rules(&pf.path, &toks, &code, &sc, pf.class);

        let mut fns: Vec<FnAnal> = Vec::new();
        if pf.class.graph {
            for item in parser::parse_items(&toks, &code, &sc) {
                if item.is_test {
                    continue;
                }
                let ops = lockscope::extract_ops(&toks, &code, &item, pf.class.index_guard);
                fns.push(FnAnal { item, ops });
            }
        }
        let surface = r9_unread_pub::scan(&toks, &code, &sc, pf.class);
        anals.push(FileAnal {
            path: pf.path.clone(),
            class: pf.class,
            waivers,
            raw,
            fns,
            surface,
        });
    }

    let graph = callgraph::Graph::build(&mut anals);
    let mut graph_raw = r6_lock_order::check(&graph);
    graph_raw.extend(r7_panic_prop::check(&graph, &anals));
    graph_raw.extend(r8_hold_blocking::check(&graph, &anals));
    let surfaces: Vec<(&str, &r9_unread_pub::Surface)> = anals
        .iter()
        .map(|f| (f.path.as_str(), &f.surface))
        .collect();
    graph_raw.extend(r9_unread_pub::check(&surfaces));
    // Route each project diagnostic into its file's raw list so the normal
    // same-line / line-above waiver protocol applies to R6–R9 too.
    for d in graph_raw {
        match anals.iter_mut().find(|f| f.path == d.file) {
            Some(f) => f.raw.push(d),
            None => diags.push(d),
        }
    }

    let n_functions = graph.table.fns.len();
    let graph_json = graph.to_json(&anals);

    for f in &mut anals {
        let raw = std::mem::take(&mut f.raw);
        rules::apply_waivers(raw, &mut f.waivers, &mut diags);
        rules::unused_waiver_diags(&f.path, &f.waivers, &mut diags);
    }
    diags.sort();
    ProjectReport {
        diags,
        graph_json,
        n_files: anals.len(),
        n_functions,
    }
}

/// Lints one file standalone — the single-file view of [`lint_project`].
/// Cross-file call edges obviously cannot form, but every rule that can
/// fire within one file (including R6–R8 on local evidence) does.
pub fn lint_source(path: &str, src: &str, class: FileClass) -> Vec<Diagnostic> {
    lint_project(&[ProjectFile {
        path: path.to_string(),
        src: src.to_string(),
        class,
    }])
    .diags
}

/// Builds the [`ProjectFile`] set for a workspace checkout: every
/// in-scope `.rs` file under `crates/`, `shims/`, `tests/`, `examples/`
/// and `perfbench/src/`, in sorted order.
///
/// # Errors
/// Propagates I/O errors from walking or reading the tree.
pub fn workspace_files(root: &Path) -> io::Result<Vec<ProjectFile>> {
    let mut files: Vec<PathBuf> = Vec::new();
    for top in ["crates", "shims", "tests", "examples", "perfbench/src"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs(root, &dir, &mut files)?;
        }
    }
    // Deterministic order regardless of directory-entry order.
    files.sort();

    let mut out: Vec<ProjectFile> = Vec::new();
    for rel in &files {
        let rel_str = rel
            .to_string_lossy()
            .replace(std::path::MAIN_SEPARATOR, "/");
        let Some(class) = classify(&rel_str) else {
            continue;
        };
        let src = std::fs::read_to_string(root.join(rel))?;
        out.push(ProjectFile {
            path: rel_str,
            src,
            class,
        });
    }
    Ok(out)
}

/// Lints every in-scope `.rs` file under `root` (a workspace checkout)
/// as one project. Returns the full report; [`lint_workspace`] is the
/// diagnostics-only shorthand.
///
/// # Errors
/// Propagates I/O errors from walking or reading the tree.
pub fn lint_workspace_report(root: &Path) -> io::Result<ProjectReport> {
    Ok(lint_project(&workspace_files(root)?))
}

/// Lints every in-scope `.rs` file under `root` (a workspace checkout).
/// Returns all diagnostics sorted by file and line; empty means clean.
///
/// # Errors
/// Propagates I/O errors from walking or reading the tree.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Diagnostic>> {
    Ok(lint_workspace_report(root)?.diags)
}

/// Deletes every **unused** waiver comment in the workspace (the W2
/// findings): a waiver on its own line is removed whole; a trailing
/// waiver is cut back to the code before it. Returns the edited
/// workspace-relative paths with the number of waivers removed from each.
///
/// # Errors
/// Propagates I/O errors from linting, re-reading, or rewriting files.
pub fn fix_waivers(root: &Path) -> io::Result<Vec<(String, usize)>> {
    let report = lint_workspace_report(root)?;
    let mut by_file: std::collections::BTreeMap<String, Vec<u32>> =
        std::collections::BTreeMap::new();
    for d in &report.diags {
        if d.rule == Rule::UnusedWaiver {
            by_file.entry(d.file.clone()).or_default().push(d.line);
        }
    }

    let mut edited: Vec<(String, usize)> = Vec::new();
    for (rel, lines) in &by_file {
        let path = root.join(rel);
        let src = std::fs::read_to_string(&path)?;
        let mut kept: Vec<&str> = Vec::new();
        let mut removed = 0usize;
        for (i, line) in src.lines().enumerate() {
            let lineno = (i + 1) as u32;
            if !lines.contains(&lineno) {
                kept.push(line);
                continue;
            }
            removed += 1;
            let Some(at) = line.find("// lint:allow") else {
                kept.push(line); // defensive: diagnostic without a comment
                continue;
            };
            let head = line[..at].trim_end();
            if !head.is_empty() {
                kept.push(head); // trailing waiver: keep the code
            }
        }
        let mut out = kept.join("\n");
        if src.ends_with('\n') {
            out.push('\n');
        }
        std::fs::write(&path, out)?;
        edited.push((rel.clone(), removed));
    }
    Ok(edited)
}

/// Renders diagnostics as a machine-readable JSON array (`[]` when clean).
/// Hand-rolled on purpose: the linter stays dependency-free.
pub fn to_json(diags: &[Diagnostic]) -> String {
    fn escape(s: &str, out: &mut String) {
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                c if (c as u32) < 0x20 => {
                    out.push_str("\\u");
                    let code = c as u32;
                    for shift in [12u32, 8, 4, 0] {
                        let digit = (code >> shift) & 0xF;
                        out.push(char::from_digit(digit, 16).unwrap_or('0'));
                    }
                }
                c => out.push(c),
            }
        }
    }
    let mut out = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n  {\"rule\":\"");
        escape(d.rule.slug(), &mut out);
        out.push_str("\",\"code\":\"");
        escape(d.rule.code(), &mut out);
        out.push_str("\",\"file\":\"");
        escape(&d.file, &mut out);
        out.push_str("\",\"line\":");
        out.push_str(&d.line.to_string());
        out.push_str(",\"message\":\"");
        escape(&d.message, &mut out);
        out.push_str("\"}");
    }
    if !diags.is_empty() {
        out.push('\n');
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_scopes_match_the_policy() {
        let core = classify("crates/core/src/greedy.rs").expect("in scope");
        assert!(core.nondet_iteration && core.panic_path);
        assert!(core.narrowing_cast && core.float_accum);
        assert!(!core.crate_root);

        let cli = classify("crates/cli/src/commands.rs").expect("in scope");
        assert!(!cli.panic_path && !cli.nondet_iteration);

        // R9 checks the pipeline crates; every crate source, example and
        // the end-to-end benchmark reads, tests and benches do not.
        assert!(core.unread_pub && core.pub_reader);
        assert!(!cli.unread_pub && cli.pub_reader);
        let bench = classify("perfbench/src/workloads/ops.rs").expect("in scope");
        assert!(bench.pub_reader && !bench.unread_pub && !bench.panic_path);
        let example = classify("examples/quickstart.rs").expect("in scope");
        assert!(example.pub_reader && !example.unread_pub);
        let crate_example = classify("crates/data/examples/calibration.rs").expect("in scope");
        assert!(crate_example.pub_reader);
        let test = classify("crates/core/tests/greedy.rs").expect("in scope");
        assert!(!test.pub_reader && !test.unread_pub);
        assert!(
            !classify("tests/tests/extensions.rs")
                .expect("in scope")
                .pub_reader
        );
        assert!(classify("perfbench/tests/smoke.rs").is_none());

        // The serving layer hands out results over the wire: both the
        // determinism rule and the no-panic rule apply in full.
        let serve = classify("crates/serve/src/server.rs").expect("in scope");
        assert!(serve.nondet_iteration && serve.panic_path);
        assert!(!serve.narrowing_cast && !serve.float_accum);
        // The delta splice indexes frames with u32 — narrowing is audited.
        let delta = classify("crates/serve/src/delta.rs").expect("in scope");
        assert!(delta.narrowing_cast && !delta.float_accum);

        // The scatter/gather replay carries both hot-path rule sets: shard
        // ids and candidate rows narrow to u32, and its gain accumulation
        // must stay in the canonical serial order.
        let shard = classify("crates/core/src/shard.rs").expect("in scope");
        assert!(shard.narrowing_cast && shard.float_accum);

        // The lane module carries both hot-path rule sets: its bit-level
        // exponent assembly must not hide narrowing casts, and its running
        // products/bands are float accumulation.
        let lanes = classify("crates/influence/src/lanes.rs").expect("in scope");
        assert!(lanes.narrowing_cast && lanes.float_accum);

        // The candidate sweep produces result data (R1) and carries both
        // hot-path rule sets: grid/anchor arithmetic narrows, and its
        // density scores feed deterministic ranking. The competition-model
        // module defines the per-class gain weights themselves.
        let sweep = classify("crates/candgen/src/sweep.rs").expect("in scope");
        assert!(sweep.nondet_iteration && sweep.panic_path);
        assert!(sweep.narrowing_cast && sweep.float_accum);
        let model = classify("crates/influence/src/model.rs").expect("in scope");
        assert!(model.nondet_iteration && model.panic_path);
        assert!(model.narrowing_cast && model.float_accum);

        let data_root = classify("crates/data/src/lib.rs").expect("in scope");
        assert!(data_root.crate_root && data_root.panic_path);
        assert!(!data_root.nondet_iteration);

        let shim = classify("shims/serde/src/parse.rs").expect("in scope");
        assert!(!shim.panic_path && !shim.crate_root);
        let shim_root = classify("shims/serde/src/lib.rs").expect("in scope");
        assert!(shim_root.crate_root);

        assert!(classify("crates/lint/tests/fixtures/r2.rs").is_none());
        assert!(classify("README.md").is_none());
    }

    #[test]
    fn json_is_well_formed_and_escaped() {
        let diags = vec![Diagnostic {
            file: "a\\b.rs".into(),
            line: 3,
            rule: Rule::PanicPath,
            message: "say \"no\"".into(),
        }];
        let json = to_json(&diags);
        assert!(json.contains("\"file\":\"a\\\\b.rs\""));
        assert!(json.contains("\"say \\\"no\\\"\""));
        assert_eq!(to_json(&[]), "[]");
    }
}
