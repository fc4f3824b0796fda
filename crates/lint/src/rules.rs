//! The rule engine: the token-level determinism/safety rules (R1–R5),
//! plus the waiver protocol (`// lint:allow(<rule>): <reason>`) that every
//! rule, R6–R9 included, is waived through.
//!
//! Rules fire on *code* tokens only (the lexer already separates strings,
//! char literals and comments), and never inside `#[cfg(test)]` /
//! `#[test]` spans for the library-code rules. A waiver suppresses
//! diagnostics of its rule on the waiver's own line and the line directly
//! below it; a waiver that suppresses nothing is itself an error, as is a
//! waiver without a written reason — waivers are documentation, not mute
//! buttons.

use crate::lexer::{Tok, TokKind};
use crate::scopes::Scopes;

/// Every rule the linter knows, including the waiver-protocol errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// R1 — `HashMap`/`HashSet` in result-producing library code.
    NondetIteration,
    /// R2 — `unwrap`/`expect`/`panic!`/`todo!`/`unimplemented!` in library
    /// code.
    PanicPath,
    /// R3 — any `unsafe` token, or a crate root missing
    /// `#![forbid(unsafe_code)]`.
    UnsafeCode,
    /// R4 — narrowing `as` cast in the CSR/Morton/heap hot paths.
    NarrowingCast,
    /// R5 — ad-hoc float accumulation outside the canonical gain routine.
    FloatAccum,
    /// R6 — cycle in the global lock-acquisition graph.
    LockOrder,
    /// R7 — public entry point transitively reaching a panic site.
    PanicPropagation,
    /// R8 — guard held across a blocking call in serve-worker code.
    HoldAcrossBlocking,
    /// R9 — `pub` item of a pipeline crate that no other file's non-test
    /// code names.
    UnreadPub,
    /// W1 — malformed waiver (unknown rule or missing reason).
    BadWaiver,
    /// W2 — waiver that suppressed nothing.
    UnusedWaiver,
}

impl Rule {
    /// Stable machine-readable slug (used in waivers and JSON output).
    pub fn slug(self) -> &'static str {
        match self {
            Rule::NondetIteration => "nondet-iteration",
            Rule::PanicPath => "panic-path",
            Rule::UnsafeCode => "unsafe-code",
            Rule::NarrowingCast => "narrowing-cast",
            Rule::FloatAccum => "float-accum",
            Rule::LockOrder => "lock-order",
            Rule::PanicPropagation => "panic-propagation",
            Rule::HoldAcrossBlocking => "hold-across-blocking",
            Rule::UnreadPub => "unread-pub",
            Rule::BadWaiver => "bad-waiver",
            Rule::UnusedWaiver => "unused-waiver",
        }
    }

    /// Short code (the rule table in DESIGN.md uses these).
    pub fn code(self) -> &'static str {
        match self {
            Rule::NondetIteration => "R1",
            Rule::PanicPath => "R2",
            Rule::UnsafeCode => "R3",
            Rule::NarrowingCast => "R4",
            Rule::FloatAccum => "R5",
            Rule::LockOrder => "R6",
            Rule::PanicPropagation => "R7",
            Rule::HoldAcrossBlocking => "R8",
            Rule::UnreadPub => "R9",
            Rule::BadWaiver => "W1",
            Rule::UnusedWaiver => "W2",
        }
    }

    /// Parses a waiver slug (both `panic-path` and `R2` spellings work).
    pub fn from_waiver_name(name: &str) -> Option<Rule> {
        let all = [
            Rule::NondetIteration,
            Rule::PanicPath,
            Rule::UnsafeCode,
            Rule::NarrowingCast,
            Rule::FloatAccum,
            Rule::LockOrder,
            Rule::PanicPropagation,
            Rule::HoldAcrossBlocking,
            Rule::UnreadPub,
        ];
        all.into_iter()
            .find(|r| r.slug() == name || r.code() == name)
    }
}

/// One finding, file/line addressed.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Path as given to the linter (workspace-relative in CLI use).
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// Which rule fired.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{} {}] {}",
            self.file,
            self.line,
            self.rule.code(),
            self.rule.slug(),
            self.message
        )
    }
}

/// Which rules apply to a file — derived from workspace layout by the
/// walker, or set directly by the self-tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct FileClass {
    /// R1: result-producing library crate (`core`, `index`, `influence`,
    /// `geo`).
    pub nondet_iteration: bool,
    /// R2: library code (not `cli`, `bench`, shims, tests or benches).
    pub panic_path: bool,
    /// R4: CSR/Morton/heap hot-path file.
    pub narrowing_cast: bool,
    /// R5: parallel-join / gain-materialisation file.
    pub float_accum: bool,
    /// R3 structural half: this file is a crate root that must carry
    /// `#![forbid(unsafe_code)]`.
    pub crate_root: bool,
    /// The file's functions join the workspace call/lock graph (library
    /// and shim sources; integration tests and benches stay out).
    pub graph: bool,
    /// Binary-crate file (`cli`/`bench`): in the graph, but its functions
    /// resolve only from their own crate and are never R7 entry points.
    pub bin_crate: bool,
    /// R8: serve-worker file — guards must not be held across blocking.
    pub hold_across_blocking: bool,
    /// R7 indexing half: request-path file where unguarded slice indexing
    /// counts as a panic source.
    pub index_guard: bool,
    /// R9: pipeline library file whose `pub` items must have a reader.
    pub unread_pub: bool,
    /// R9 reader: the file's non-test code counts as a use of any item it
    /// names (crate sources, examples, the end-to-end benchmark).
    pub pub_reader: bool,
}

impl FileClass {
    /// Every per-file rule on — the strictest class (used by fixtures).
    /// R9 stays off: it judges a file by the project around it, so its
    /// self-test sets the two R9 flags explicitly.
    pub fn strict() -> Self {
        FileClass {
            nondet_iteration: true,
            panic_path: true,
            narrowing_cast: true,
            float_accum: true,
            crate_root: false,
            graph: true,
            bin_crate: false,
            hold_across_blocking: true,
            index_guard: true,
            unread_pub: false,
            pub_reader: false,
        }
    }
}

/// Functions allowed to accumulate floats directly: the canonical gain
/// materialisation (`Σ counts[w]/(w+1)`) every selector funnels through.
const FLOAT_ALLOWLIST: [&str; 2] = ["canonical_gain", "canonical_cinf"];

/// Hash-keyed container types whose iteration order is nondeterministic.
const HASH_TYPES: [&str; 6] = [
    "HashMap",
    "HashSet",
    "FxHashMap",
    "FxHashSet",
    "AHashMap",
    "AHashSet",
];

/// Narrowing integer cast targets (`as usize`/`as u64`/`as f64` are
/// widening on every supported platform and stay allowed).
const NARROW_TARGETS: [&str; 6] = ["u8", "u16", "u32", "i8", "i16", "i32"];

/// An inline waiver with use tracking. Shared between the token rules and
/// the graph rules: a `panic-path`/`panic-propagation` waiver consumed by
/// the R7 source filter counts as used exactly like an R2 suppression.
#[derive(Debug)]
pub(crate) struct Waiver {
    pub(crate) rule: Rule,
    pub(crate) line: u32,
    pub(crate) used: bool,
}

/// Collects every waiver in the file, emitting W1 diagnostics for the
/// malformed ones. Test spans are excluded: no rule fires there, so a
/// waiver there could never be used.
pub(crate) fn collect_waivers(
    path: &str,
    toks: &[Tok<'_>],
    scopes: &Scopes,
) -> (Vec<Waiver>, Vec<Diagnostic>) {
    let mut diags: Vec<Diagnostic> = Vec::new();
    let mut waivers: Vec<Waiver> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::LineComment || scopes.is_test(i) {
            continue;
        }
        let body = t.text.trim_start();
        let Some(rest) = body.strip_prefix("lint:allow(") else {
            continue;
        };
        let Some(close) = rest.find(')') else {
            diags.push(Diagnostic {
                file: path.to_string(),
                line: t.line,
                rule: Rule::BadWaiver,
                message: "unterminated waiver: expected `lint:allow(<rule>): <reason>`".into(),
            });
            continue;
        };
        let name = rest[..close].trim();
        let Some(rule) = Rule::from_waiver_name(name) else {
            diags.push(Diagnostic {
                file: path.to_string(),
                line: t.line,
                rule: Rule::BadWaiver,
                message: format!("waiver names unknown rule `{name}`"),
            });
            continue;
        };
        let after = &rest[close + 1..];
        let reason = after.strip_prefix(':').map(str::trim).unwrap_or("");
        if reason.is_empty() {
            diags.push(Diagnostic {
                file: path.to_string(),
                line: t.line,
                rule: Rule::BadWaiver,
                message: format!(
                    "waiver for `{}` carries no reason — write `lint:allow({}): <why this is sound>`",
                    rule.slug(),
                    rule.slug()
                ),
            });
            continue;
        }
        waivers.push(Waiver {
            rule,
            line: t.line,
            used: false,
        });
    }
    (waivers, diags)
}

/// Runs the token-level rules R1–R5 (plus the crate-root audit) and
/// returns the **raw** diagnostics, before waiver application. `code` is
/// the comment-free token index slice (adjacency patterns must not be
/// split by an interleaved comment).
pub(crate) fn token_rules(
    path: &str,
    toks: &[Tok<'_>],
    code: &[usize],
    scopes: &Scopes,
    class: FileClass,
) -> Vec<Diagnostic> {
    let tok = |ci: usize| -> Option<&Tok<'_>> { code.get(ci).map(|&i| &toks[i]) };

    let mut raw: Vec<Diagnostic> = Vec::new();
    let mut push = |rule: Rule, line: u32, message: String| {
        raw.push(Diagnostic {
            file: path.to_string(),
            line,
            rule,
            message,
        });
    };

    for ci in 0..code.len() {
        let i = code[ci];
        let t = &toks[i];
        let in_test = scopes.is_test(i);

        // R3: `unsafe` anywhere, tests included — the determinism guarantee
        // is memory-safety-shaped too.
        if t.is_ident("unsafe") {
            push(
                Rule::UnsafeCode,
                t.line,
                "`unsafe` is forbidden across the workspace".into(),
            );
            continue;
        }
        if in_test {
            continue;
        }

        // R1: hash-keyed containers in result-producing library code.
        if class.nondet_iteration && t.kind == TokKind::Ident && HASH_TYPES.contains(&t.text) {
            push(
                Rule::NondetIteration,
                t.line,
                format!(
                    "`{}` in result-producing code: iteration order is nondeterministic — \
                     use `BTreeMap`/`BTreeSet` or a sorted `Vec`",
                    t.text
                ),
            );
        }

        // R2: panicking shortcuts in library code.
        if class.panic_path {
            let method_call = |name: &str| {
                ci >= 1
                    && tok(ci - 1).is_some_and(|p| p.is_punct(b'.'))
                    && t.is_ident(name)
                    && tok(ci + 1).is_some_and(|n| n.is_punct(b'('))
            };
            if method_call("unwrap") || method_call("expect") {
                push(
                    Rule::PanicPath,
                    t.line,
                    format!(
                        "`.{}()` in library code: return a typed error, or waive with the \
                         invariant that makes this infallible",
                        t.text
                    ),
                );
            }
            if (t.is_ident("panic") || t.is_ident("todo") || t.is_ident("unimplemented"))
                && tok(ci + 1).is_some_and(|n| n.is_punct(b'!'))
            {
                push(
                    Rule::PanicPath,
                    t.line,
                    format!("`{}!` in library code", t.text),
                );
            }
        }

        // R4: narrowing `as` casts on the hot paths.
        if class.narrowing_cast
            && t.is_ident("as")
            && tok(ci + 1)
                .is_some_and(|n| n.kind == TokKind::Ident && NARROW_TARGETS.contains(&n.text))
        {
            let target = tok(ci + 1).map(|n| n.text).unwrap_or("?");
            push(
                Rule::NarrowingCast,
                t.line,
                format!(
                    "unchecked narrowing `as {target}` on a hot path: use `try_from` or waive \
                     with the bound that keeps the value in range"
                ),
            );
        }

        // R5: float accumulation outside the canonical gain routine.
        if class.float_accum
            && !scopes
                .enclosing_fn(i)
                .is_some_and(|f| FLOAT_ALLOWLIST.contains(&f))
        {
            let float_ident = |s: &str| s == "f64" || s == "f32";
            // `.sum::<f64>()` / `.product::<f32>()` turbofish.
            if (t.is_ident("sum") || t.is_ident("product"))
                && tok(ci + 1).is_some_and(|a| a.is_punct(b':'))
                && tok(ci + 2).is_some_and(|a| a.is_punct(b':'))
                && tok(ci + 3).is_some_and(|a| a.is_punct(b'<'))
                && tok(ci + 4).is_some_and(|a| a.kind == TokKind::Ident && float_ident(a.text))
            {
                push(
                    Rule::FloatAccum,
                    t.line,
                    format!(
                        "`.{}::<f64>()` outside the canonical gain routine: float reduction \
                         order must be canonicalised (route through `canonical_gain`) or waived",
                        t.text
                    ),
                );
            }
            // `.sum()` / `.product()` whose enclosing statement (or small
            // fn signature) names a float type.
            else if (t.is_ident("sum") || t.is_ident("product"))
                && ci >= 1
                && tok(ci - 1).is_some_and(|p| p.is_punct(b'.'))
                && tok(ci + 1).is_some_and(|n| n.is_punct(b'('))
                && statement_mentions_float(toks, code, ci, float_ident)
            {
                push(
                    Rule::FloatAccum,
                    t.line,
                    format!(
                        "float-typed `.{}()` outside the canonical gain routine: float \
                         reduction order must be canonicalised or waived",
                        t.text
                    ),
                );
            }
            // `.fold(0.0, …)` with a float seed.
            if t.is_ident("fold")
                && ci >= 1
                && tok(ci - 1).is_some_and(|p| p.is_punct(b'.'))
                && tok(ci + 1).is_some_and(|n| n.is_punct(b'('))
                && tok(ci + 2).is_some_and(|a| {
                    a.kind == TokKind::Num
                        && (a.text.contains('.')
                            || a.text.contains("f64")
                            || a.text.contains("f32"))
                })
            {
                push(
                    Rule::FloatAccum,
                    t.line,
                    "float-seeded `.fold(…)` outside the canonical gain routine".into(),
                );
            }
        }
    }

    // R3 structural half: crate roots must carry `#![forbid(unsafe_code)]`.
    if class.crate_root && !has_forbid_unsafe(toks) {
        push(
            Rule::UnsafeCode,
            1,
            "crate root is missing `#![forbid(unsafe_code)]`".into(),
        );
    }
    raw
}

/// Applies the waiver protocol: a waiver covers its own line and the next
/// one; matched raw diagnostics mark it used, unmatched ones pass through.
pub(crate) fn apply_waivers(
    raw: Vec<Diagnostic>,
    waivers: &mut [Waiver],
    out: &mut Vec<Diagnostic>,
) {
    for d in raw {
        let waived = waivers
            .iter_mut()
            .find(|w| w.rule == d.rule && (w.line == d.line || w.line + 1 == d.line));
        match waived {
            Some(w) => w.used = true,
            None => out.push(d),
        }
    }
}

/// Emits the W2 diagnostics for waivers nothing consumed.
pub(crate) fn unused_waiver_diags(path: &str, waivers: &[Waiver], out: &mut Vec<Diagnostic>) {
    for w in waivers {
        if !w.used {
            out.push(Diagnostic {
                file: path.to_string(),
                line: w.line,
                rule: Rule::UnusedWaiver,
                message: format!(
                    "waiver for `{}` suppresses nothing — remove it (stale waivers hide \
                     future violations)",
                    w.rule.slug()
                ),
            });
        }
    }
}

/// Whether the statement around code-token `ci` mentions a float type.
/// Scans backwards to the nearest `;`/`{`/`}`; when the boundary is a `{`,
/// keeps scanning through the enclosing signature (tail-expression returns
/// like `-> f64 { ….sum() }`) until an item boundary.
fn statement_mentions_float(
    toks: &[Tok<'_>],
    code: &[usize],
    ci: usize,
    is_float: impl Fn(&str) -> bool,
) -> bool {
    let mut passed_open_brace = false;
    for back in (0..ci).rev() {
        let t = &toks[code[back]];
        match t.kind {
            TokKind::Ident if is_float(t.text) => return true,
            TokKind::Ident if passed_open_brace && t.text == "fn" => return false,
            TokKind::Punct(b';') | TokKind::Punct(b'}') => return false,
            TokKind::Punct(b'{') if passed_open_brace => return false,
            TokKind::Punct(b'{') => passed_open_brace = true,
            _ => {}
        }
        if ci - back > 96 {
            return false;
        }
    }
    false
}

/// Detects the inner attribute `#![forbid(unsafe_code)]` token sequence.
fn has_forbid_unsafe(toks: &[Tok<'_>]) -> bool {
    let code: Vec<&Tok<'_>> = toks
        .iter()
        .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .collect();
    code.windows(7).any(|w| {
        w[0].is_punct(b'#')
            && w[1].is_punct(b'!')
            && w[2].is_punct(b'[')
            && w[3].is_ident("forbid")
            && w[4].is_punct(b'(')
            && w[5].is_ident("unsafe_code")
            && w[6].is_punct(b')')
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Diagnostic> {
        crate::lint_source("mem.rs", src, FileClass::strict())
    }

    fn rules_of(diags: &[Diagnostic]) -> Vec<Rule> {
        diags.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn clean_source_is_clean() {
        let d = run("fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn unwrap_in_string_or_comment_does_not_fire() {
        let d = run(
            "fn f() -> &'static str {\n // .unwrap() here is prose\n \"call .unwrap() later\"\n}",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn waiver_covers_next_line_and_is_counted_used() {
        let src = "fn f(x: Option<u32>) -> u32 {\n  // lint:allow(panic-path): x is Some by construction\n  x.unwrap()\n}";
        let d = run(src);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn unused_waiver_is_an_error() {
        let src = "// lint:allow(panic-path): nothing here panics\nfn f() {}";
        let d = run(src);
        assert_eq!(rules_of(&d), vec![Rule::UnusedWaiver]);
    }

    #[test]
    fn waiver_without_reason_is_an_error() {
        let src = "// lint:allow(panic-path)\nfn f(x: Option<u32>) -> u32 { x.unwrap() }";
        let d = run(src);
        assert!(d.iter().any(|d| d.rule == Rule::BadWaiver), "{d:?}");
        assert!(d.iter().any(|d| d.rule == Rule::PanicPath), "{d:?}");
    }

    #[test]
    fn test_modules_are_exempt_from_library_rules() {
        let src = "#[cfg(test)]\nmod tests {\n  #[test]\n  fn t() { Some(1).unwrap(); }\n}";
        let d = run(src);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn unsafe_fires_even_in_tests() {
        let src = "#[cfg(test)]\nmod tests {\n  fn t() { let _ = unsafe { std::mem::zeroed::<u8>() }; }\n}";
        let d = run(src);
        assert_eq!(rules_of(&d), vec![Rule::UnsafeCode]);
    }

    #[test]
    fn float_sum_inside_canonical_gain_is_allowed() {
        let src = "fn canonical_gain(counts: &[u32]) -> f64 {\n  counts.iter().map(|&n| n as f64).sum::<f64>()\n}";
        // `as f64` is widening (not flagged); the sum is allowlisted.
        let d = run(src);
        assert!(d.is_empty(), "{d:?}");
    }
}
