//! Fixture-driven self-tests: each fixture under `tests/fixtures/` holds
//! known violations; the assertions pin the exact rule **and line** of
//! every expected diagnostic, so a lexer or scope regression shows up as a
//! changed line number, not a silent miss.
//!
//! The fixture directory is excluded from the workspace walk
//! (`classify` skips `/fixtures/` paths), so these violations never leak
//! into a real lint run.

#![forbid(unsafe_code)]

use mc2ls_lint::{classify, lint_project, lint_source, FileClass, ProjectFile, Rule};

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// `(rule, line)` pairs of the diagnostics, in sorted order.
fn hits(name: &str, class: FileClass) -> Vec<(Rule, u32)> {
    lint_source(name, &fixture(name), class)
        .into_iter()
        .map(|d| (d.rule, d.line))
        .collect()
}

#[test]
fn r1_flags_hash_containers_at_exact_lines() {
    let got = hits("r1_nondet.rs", FileClass::strict());
    assert_eq!(
        got,
        vec![
            (Rule::NondetIteration, 2),  // use std::collections::HashMap;
            (Rule::NondetIteration, 4),  // -> HashMap<u32, u32>
            (Rule::NondetIteration, 5),  // HashMap::new()
            (Rule::NondetIteration, 11), // HashSet<u32> annotation
        ]
    );
}

#[test]
fn r2_flags_each_panicking_shortcut() {
    let got = hits("r2_panic.rs", FileClass::strict());
    assert_eq!(
        got,
        vec![
            (Rule::PanicPath, 4),  // .unwrap()
            (Rule::PanicPath, 8),  // .expect(…)
            (Rule::PanicPath, 12), // panic!
            (Rule::PanicPath, 16), // todo!
        ]
    );
}

#[test]
fn r2_flags_serve_style_network_and_file_shortcuts() {
    // Serving code is the R2 scope's reason to exist: a worker thread that
    // unwraps a socket read or a lock takes the whole server down.
    let got = hits("r2_serve.rs", FileClass::strict());
    assert_eq!(
        got,
        vec![
            (Rule::PanicPath, 9),  // .unwrap() on a socket read
            (Rule::PanicPath, 11), // .expect(…) on a socket read
            (Rule::PanicPath, 16), // .expect(…) on a file read
            (Rule::PanicPath, 20), // .unwrap() on a mutex lock
        ]
    );
}

#[test]
fn r2_is_off_for_panic_exempt_classes() {
    let got = hits("r2_panic.rs", FileClass::default());
    assert!(got.is_empty(), "{got:?}");
}

#[test]
fn r3_flags_unsafe_and_missing_forbid() {
    let class = FileClass {
        crate_root: true,
        ..FileClass::default()
    };
    let got = hits("r3_unsafe.rs", class);
    assert_eq!(
        got,
        vec![
            (Rule::UnsafeCode, 1), // crate root missing #![forbid(unsafe_code)]
            (Rule::UnsafeCode, 5), // the unsafe block
        ]
    );
}

#[test]
fn r4_flags_narrowing_not_widening() {
    let got = hits("r4_narrowing.rs", FileClass::strict());
    assert_eq!(
        got,
        vec![
            (Rule::NarrowingCast, 4), // total as u32
            (Rule::NarrowingCast, 5), // n as i16
        ]
    );
}

#[test]
fn r5_flags_each_accumulation_shape_but_not_the_canonical_routine() {
    let got = hits("r5_float.rs", FileClass::strict());
    assert_eq!(
        got,
        vec![
            (Rule::FloatAccum, 4),  // .sum::<f64>() turbofish
            (Rule::FloatAccum, 8),  // float-typed .sum()
            (Rule::FloatAccum, 13), // float-seeded .fold(0.0, …)
        ]
    );
}

#[test]
fn waiver_protocol_honours_uses_and_flags_abuse() {
    let got = hits("waivers.rs", FileClass::strict());
    assert_eq!(
        got,
        vec![
            (Rule::UnusedWaiver, 9), // waiver covering a non-violation
            (Rule::BadWaiver, 15),   // missing reason
            (Rule::PanicPath, 16),   // reasonless waiver does not suppress
            (Rule::BadWaiver, 20),   // unknown rule name
            (Rule::PanicPath, 21),   // unknown-rule waiver does not suppress
        ]
    );
}

#[test]
fn r6_reports_the_exact_witness_cycle() {
    // R8 would also flag `self.tail()` under a held guard; switch it off
    // so this test pins R6 alone.
    let class = FileClass {
        hold_across_blocking: false,
        ..FileClass::strict()
    };
    let diags = lint_source("r6_lockorder.rs", &fixture("r6_lockorder.rs"), class);
    assert_eq!(
        diags.iter().map(|d| (d.rule, d.line)).collect::<Vec<_>>(),
        vec![(Rule::LockOrder, 19)] // the Pair.a -> Pair.b acquisition
    );
    // The witness must spell out the full cycle: the direct edge, then
    // the edge closed through the callee, with sites and the via hop.
    assert_eq!(
        diags[0].message,
        "lock-order cycle: `Pair.a` -> `Pair.b` (r6_lockorder.rs:19) -> \
         `Pair.a` (r6_lockorder.rs:25, via `tail`) — acquire these locks in \
         one global order, or waive with the protocol that prevents \
         concurrent entry"
    );
}

#[test]
fn r7_flags_entries_not_sources_and_honours_source_waivers() {
    let got = hits("r7_panicprop.rs", FileClass::strict());
    assert_eq!(
        got,
        vec![
            (Rule::PanicPropagation, 6),  // entry_chain -> helper -> unwrap
            (Rule::PanicPath, 11),        // the unwrap itself (R2)
            (Rule::PanicPropagation, 14), // entry_indexing: xs[0]
            (Rule::PanicPath, 19),        // entry_direct: source in the entry is R2 only
            (Rule::PanicPropagation, 40), // Widget::get -> raw -> unwrap
            (Rule::PanicPath, 45),        // raw's unwrap (R2)
        ]
    );
    // entry_waived -> dispatch is silent: the panic-propagation waiver at
    // the unreachable! source suppressed it — and counted as used (no W2).
    assert!(!got.iter().any(|&(_, l)| l == 22 || l == 31));
}

#[test]
fn r7_witness_chain_names_the_shortest_path() {
    let diags = lint_source(
        "r7_panicprop.rs",
        &fixture("r7_panicprop.rs"),
        FileClass::strict(),
    );
    let chain = diags
        .iter()
        .find(|d| d.rule == Rule::PanicPropagation && d.line == 6)
        .expect("entry_chain diagnostic");
    assert!(
        chain.message.contains("entry_chain -> helper")
            && chain.message.contains("`.unwrap()` at r7_panicprop.rs:11"),
        "{}",
        chain.message
    );
}

#[test]
fn r8_flags_held_guards_but_not_condvar_or_dropped_ones() {
    let got = hits("r8_holdblock.rs", FileClass::strict());
    assert_eq!(
        got,
        vec![
            (Rule::HoldAcrossBlocking, 26), // write_all under the queue guard
            (Rule::HoldAcrossBlocking, 31), // emit() reaches flush
            (Rule::HoldAcrossBlocking, 41), // swap_out() takes Worker.out
        ]
    );
}

#[test]
fn graph_rules_cross_file_boundaries() {
    // The panic source lives in one file, the public entry in another:
    // only whole-project analysis can connect them.
    let entry = ProjectFile {
        path: "crates/app/src/lib.rs".into(),
        src: "pub fn run(x: Option<u32>) -> u32 {\n    mc2ls_util::pick(x)\n}\n".into(),
        class: FileClass::strict(),
    };
    let util = ProjectFile {
        path: "crates/util/src/lib.rs".into(),
        src: "pub fn pick(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n".into(),
        class: FileClass {
            panic_path: true,
            graph: true,
            ..FileClass::default()
        },
    };
    let report = lint_project(&[entry, util]);
    let got: Vec<(Rule, &str, u32)> = report
        .diags
        .iter()
        .map(|d| (d.rule, d.file.as_str(), d.line))
        .collect();
    assert_eq!(
        got,
        vec![
            // run -> pick crosses the crate boundary; pick itself holds
            // the source, so it stays R2-only jurisdiction.
            (Rule::PanicPropagation, "crates/app/src/lib.rs", 1),
            (Rule::PanicPath, "crates/util/src/lib.rs", 2),
        ]
    );
    assert_eq!(report.n_files, 2);
    assert_eq!(report.n_functions, 2);
    // The graph dump knows both functions and the resolved edge.
    assert!(report.graph_json.contains("\"name\":\"run\""));
    assert!(report.graph_json.contains("\"name\":\"pick\""));
}

/// The R9 project: the checked fixture as a `geo` source file, another
/// crate's source and test files, and the benchmark stand-in, each classed
/// by its path.
fn r9_project() -> Vec<ProjectFile> {
    let file = |path: &str, src: String| ProjectFile {
        path: path.into(),
        class: classify(path).expect("in scope"),
        src,
    };
    vec![
        file(
            "crates/geo/src/r9_unread_pub.rs",
            fixture("r9_unread_pub.rs"),
        ),
        file(
            "crates/app/src/lib.rs",
            concat!(
                "#![forbid(unsafe_code)]\n",
                "pub use mc2ls_geo::only_reexported;\n",
                "// only_own_tests() is named in a comment, which reads nothing.\n",
                "pub fn build() -> u32 {\n",
                "    let _ = \"only_other_tests\";\n",
                "    mc2ls_geo::read_from_src().unwrap_or(0)\n",
                "}\n",
            )
            .into(),
        ),
        file(
            "crates/app/tests/it.rs",
            concat!(
                "#[test]\n",
                "fn uses() {\n",
                "    assert_eq!(mc2ls_geo::only_other_tests() + mc2ls_geo::oracle(), 9);\n",
                "}\n",
            )
            .into(),
        ),
        file(
            "perfbench/src/workloads.rs",
            fixture("r9_perfbench_reader.rs"),
        ),
    ]
}

#[test]
fn r9_flags_pub_items_no_other_file_reads() {
    let report = lint_project(&r9_project());
    let got: Vec<(Rule, &str, u32)> = report
        .diags
        .iter()
        .map(|d| (d.rule, d.file.as_str(), d.line))
        .collect();
    let fixture = "crates/geo/src/r9_unread_pub.rs";
    assert_eq!(
        got,
        vec![
            (Rule::UnreadPub, fixture, 6),  // only its own unit tests call it
            (Rule::UnreadPub, fixture, 11), // only another crate's tests/ call it
            (Rule::UnreadPub, fixture, 16), // named only in a `pub use`
            (Rule::UnreadPub, fixture, 21), // read only by its own file
            (Rule::UnreadPub, fixture, 24), // named only by its own impl
        ]
    );
    // Clean: read_from_src (33), SignatureOnly via its signature (39),
    // read_by_perfbench (42), the shared name `build` (48), the waived
    // oracle (53, its waiver used), pub(crate) (58), and the benchmark
    // stand-in's own unread `pub fn`.
    // Each message ends with the action to take.
    let message = |line: u32| {
        report
            .diags
            .iter()
            .find(|d| d.line == line)
            .map(|d| d.message.as_str())
            .expect("diagnostic")
    };
    assert!(message(6).contains("— delete it"), "{}", message(6));
    assert!(message(21).contains("— narrow it"), "{}", message(21));
    assert!(message(6).ends_with("or waive with the invariant that makes it deliberate API"));
}

#[test]
fn r9_needs_the_other_files_to_judge() {
    // Without the benchmark stand-in, its one reader, the item is unread.
    let mut project = r9_project();
    project.retain(|f| !f.path.starts_with("perfbench/"));
    let report = lint_project(&project);
    assert!(report
        .diags
        .iter()
        .any(|d| d.rule == Rule::UnreadPub && d.line == 42));
    // On its own, a file has no readers: everything unwaived is flagged.
    let alone = lint_source(
        "crates/geo/src/r9_unread_pub.rs",
        &fixture("r9_unread_pub.rs"),
        classify("crates/geo/src/r9_unread_pub.rs").expect("in scope"),
    );
    let lines: Vec<u32> = alone
        .iter()
        .filter(|d| d.rule == Rule::UnreadPub)
        .map(|d| d.line)
        .collect();
    assert_eq!(lines, vec![6, 11, 16, 21, 24, 33, 42, 48]);
}

#[test]
fn violations_inside_strings_and_comments_never_fire() {
    let class = FileClass {
        crate_root: false,
        ..FileClass::strict()
    };
    let got = hits("tricky_lexing.rs", class);
    assert!(got.is_empty(), "{got:?}");
}

#[test]
fn every_violation_fixture_is_nonempty_under_its_class() {
    // The CI gate relies on a non-zero exit for any violation; pin that
    // each fixture actually produces at least one diagnostic.
    for name in [
        "r1_nondet.rs",
        "r2_panic.rs",
        "r2_serve.rs",
        "r4_narrowing.rs",
        "r5_float.rs",
        "waivers.rs",
    ] {
        assert!(
            !lint_source(name, &fixture(name), FileClass::strict()).is_empty(),
            "{name} unexpectedly clean"
        );
    }
    let root = FileClass {
        crate_root: true,
        ..FileClass::default()
    };
    assert!(!lint_source("r3_unsafe.rs", &fixture("r3_unsafe.rs"), root).is_empty());
}

#[test]
fn the_workspace_tree_itself_is_clean() {
    // Walk upward from the crate dir to the workspace root.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(std::path::Path::parent)
        .expect("crates/lint sits two levels below the root");
    let diags = mc2ls_lint::lint_workspace(root).expect("workspace walk");
    assert!(
        diags.is_empty(),
        "workspace not lint-clean:\n{}",
        diags
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert_eq!(mc2ls_lint::to_json(&diags), "[]");
}
