//! Integration test for `fix_waivers`: builds a throwaway workspace in
//! the cargo temp dir, plants one used and two unused waivers, and
//! asserts the unused ones are excised — whole-line waivers vanish,
//! trailing waivers are cut back to the code — while the used one stays.

#![forbid(unsafe_code)]

const SRC: &str = "#![forbid(unsafe_code)]\n\
\n\
// lint:allow(nondet-iteration): keyed lookup table only; never iterated\n\
use std::collections::HashMap;\n\
\n\
fn double(x: u32) -> u32 {\n\
    // lint:allow(panic-path): nothing here panics\n\
    x * 2\n\
}\n\
\n\
fn tail(x: u32) -> u32 {\n\
    x + 1 // lint:allow(float-accum): stale trailing note\n\
}\n";

#[test]
fn fix_waivers_removes_only_the_unused_ones() {
    let root = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("fix_waivers_ws");
    let src_dir = root.join("crates/core/src");
    std::fs::create_dir_all(&src_dir).expect("mkdir");
    let lib = src_dir.join("lib.rs");
    std::fs::write(&lib, SRC).expect("write fixture workspace");

    // Sanity: before the fix, exactly the two unused waivers fire.
    let before = mc2ls_lint::lint_workspace(&root).expect("lint");
    assert_eq!(
        before.iter().map(|d| (d.rule, d.line)).collect::<Vec<_>>(),
        vec![
            (mc2ls_lint::Rule::UnusedWaiver, 7),
            (mc2ls_lint::Rule::UnusedWaiver, 12),
        ]
    );

    let edited = mc2ls_lint::fix_waivers(&root).expect("fix");
    assert_eq!(edited, vec![("crates/core/src/lib.rs".to_string(), 2)]);

    let after = std::fs::read_to_string(&lib).expect("reread");
    // The used waiver survives; both unused ones are gone; the trailing
    // waiver's code line survives without the comment.
    assert!(after.contains("keyed lookup table only"));
    assert!(!after.contains("nothing here panics"));
    assert!(!after.contains("stale trailing note"));
    assert!(after.contains("\nx + 1\n"));
    assert_eq!(after.lines().count(), SRC.lines().count() - 1);

    // And the workspace is now clean — the fix converges in one pass.
    let diags = mc2ls_lint::lint_workspace(&root).expect("relint");
    assert!(diags.is_empty(), "{diags:?}");
}
