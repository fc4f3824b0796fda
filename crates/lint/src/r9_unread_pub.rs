//! R9 — unread-pub: an unrestricted `pub` item of a pipeline library
//! crate that no non-test code of any other file names.
//!
//! The check is a token match, and it over-approximates use on purpose:
//! any identifier token equal to the item's name in a reader file counts
//! as a read, so a name that anything live shares (`new`, `build`) is
//! never flagged. The call graph behind R6–R8 cannot decide this: it
//! under-approximates edges, so it can prove reachability but never
//! non-use.
//!
//! - *Checked:* `pub` fn (free or inherent method), const, static,
//!   struct, enum, trait and type alias outside test code, in files whose
//!   class sets [`FileClass::unread_pub`](crate::FileClass).
//! - *Readers:* the non-test code of every file whose class sets
//!   `pub_reader` (crate sources, examples, the end-to-end benchmark).
//!   Comments, strings, test items and `pub use` re-export statements
//!   never read: a re-export alone would let every item read itself.
//! - *Types* are also read by their own file's code outside the
//!   declaration, the `impl` headers and the type's own `impl` bodies:
//!   callers reach an error type through another item's signature without
//!   ever naming it, but a type that only its own methods name is unread.

use crate::lexer::{Tok, TokKind};
use crate::parser::{matching_brace, parse_self_ty_header};
use crate::rules::{Diagnostic, Rule};
use crate::scopes::Scopes;
use crate::FileClass;
use std::collections::{BTreeMap, BTreeSet};

/// Item keywords R9 checks.
const ITEM_KWS: [&str; 7] = ["fn", "const", "static", "struct", "enum", "trait", "type"];

/// Kinds that count as read by their own file's code (see module docs).
const TYPE_KWS: [&str; 4] = ["struct", "enum", "trait", "type"];

/// One unrestricted `pub` item of a checked file.
#[derive(Debug)]
struct PubItem {
    kind: &'static str,
    name: String,
    line: u32,
    /// The own file names the item outside its declaration (and, for a
    /// type, outside the `impl` headers and its own `impl` bodies).
    read_here: bool,
}

/// What one file contributes to R9.
#[derive(Debug, Default)]
pub(crate) struct Surface {
    items: Vec<PubItem>,
    /// Identifiers the file's non-test code names (empty unless the file
    /// is a reader).
    reads: BTreeSet<String>,
}

/// Scans one file: its checked `pub` items and the identifiers it reads.
pub(crate) fn scan(toks: &[Tok<'_>], code: &[usize], sc: &Scopes, class: FileClass) -> Surface {
    let tok = |ci: usize| code.get(ci).map(|&i| &toks[i]);
    let n = code.len();

    // Code tokens that read nothing: test code and `pub use` statements.
    let mut silent: Vec<bool> = code.iter().map(|&i| sc.is_test(i)).collect();
    // Tokens of `impl` headers, and the self type (an index into
    // `impl_tys`) of the innermost `impl` body around each token.
    let mut impl_header = vec![false; n];
    let mut impl_tys: Vec<String> = Vec::new();
    let mut impl_of: Vec<Option<usize>> = vec![None; n];
    for ci in 0..n {
        let t = &toks[code[ci]];
        if t.is_ident("use") && is_pub_prefixed(toks, code, ci) {
            for (k, s) in silent.iter_mut().enumerate().skip(ci) {
                *s = true;
                if toks[code[k]].is_punct(b';') {
                    break;
                }
            }
        } else if t.is_ident("impl") {
            let (self_ty, open) = parse_self_ty_header(toks, code, ci + 1);
            let Some(open) = open else {
                continue;
            };
            impl_header[ci..open].fill(true);
            let close = matching_brace(toks, code, open);
            let ty = self_ty.map(|ty| {
                impl_tys.push(ty);
                impl_tys.len() - 1
            });
            impl_of[open..=close].fill(ty);
        }
    }

    let mut surface = Surface::default();
    // Code indices of the checked items' name tokens.
    let mut is_decl = vec![false; n];
    if class.unread_pub {
        for ci in 0..n {
            if silent[ci] || !toks[code[ci]].is_ident("pub") {
                continue;
            }
            // `pub(crate)`/`pub(super)` items are not workspace API.
            if tok(ci + 1).is_some_and(|t| t.is_punct(b'(')) {
                continue;
            }
            let mut j = ci + 1;
            while let Some(t) = tok(j) {
                let qualifier = t.is_ident("async")
                    || t.is_ident("unsafe")
                    || t.is_ident("extern")
                    || t.kind == TokKind::Str
                    || (t.is_ident("const")
                        && tok(j + 1).is_some_and(|u| {
                            u.is_ident("fn") || u.is_ident("unsafe") || u.is_ident("async")
                        }));
                if !qualifier {
                    break;
                }
                j += 1;
            }
            let Some(kind) = tok(j).and_then(|t| ITEM_KWS.iter().find(|&&k| t.is_ident(k))) else {
                continue;
            };
            if *kind == "static" && tok(j + 1).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            let Some(name) = tok(j + 1).filter(|t| t.kind == TokKind::Ident) else {
                continue;
            };
            is_decl[j + 1] = true;
            surface.items.push(PubItem {
                kind,
                name: name.text.to_string(),
                line: toks[code[ci]].line,
                read_here: false,
            });
        }
    }

    // Own-file mentions per name: (anywhere, outside every `impl` header
    // and outside the bodies of the named type's own `impl` blocks).
    let mut here: BTreeMap<&str, (bool, bool)> = BTreeMap::new();
    for ci in 0..n {
        let t = &toks[code[ci]];
        if t.kind != TokKind::Ident || silent[ci] {
            continue;
        }
        if class.pub_reader {
            surface.reads.insert(t.text.to_string());
        }
        if !is_decl[ci] {
            let seen = here.entry(t.text).or_default();
            seen.0 = true;
            let own_impl = impl_of[ci].is_some_and(|ty| impl_tys[ty] == t.text);
            seen.1 |= !impl_header[ci] && !own_impl;
        }
    }
    for item in &mut surface.items {
        let (any, outside_impl) = here.get(item.name.as_str()).copied().unwrap_or_default();
        item.read_here = if TYPE_KWS.contains(&item.kind) {
            outside_impl
        } else {
            any
        };
    }
    surface
}

/// Whether the `use` at code index `ci` carries a `pub` or `pub(…)`
/// visibility: a re-export statement.
fn is_pub_prefixed(toks: &[Tok<'_>], code: &[usize], ci: usize) -> bool {
    let Some(prev) = ci.checked_sub(1).map(|p| &toks[code[p]]) else {
        return false;
    };
    if prev.is_ident("pub") {
        return true;
    }
    if !prev.is_punct(b')') {
        return false;
    }
    // `pub(crate) use` / `pub(in path) use`: walk back to the `(`.
    let mut k = ci - 1;
    while k > 0 && !toks[code[k]].is_punct(b'(') {
        k -= 1;
    }
    k > 0 && toks[code[k - 1]].is_ident("pub")
}

/// Flags every checked item that no other reader file names. `files`
/// pairs each file's path with its [`Surface`].
pub(crate) fn check(files: &[(&str, &Surface)]) -> Vec<Diagnostic> {
    let mut diags: Vec<Diagnostic> = Vec::new();
    for (i, (path, surface)) in files.iter().enumerate() {
        for item in &surface.items {
            let read_elsewhere = files
                .iter()
                .enumerate()
                .any(|(j, (_, s))| j != i && s.reads.contains(&item.name));
            let is_type = TYPE_KWS.contains(&item.kind);
            if read_elsewhere || (is_type && item.read_here) {
                continue;
            }
            let action = if item.read_here {
                "narrow it to `pub(crate)` or private"
            } else {
                "delete it with the tests that check only it"
            };
            diags.push(Diagnostic {
                file: path.to_string(),
                line: item.line,
                rule: Rule::UnreadPub,
                message: format!(
                    "`pub {} {}` is named by no non-test code outside this file — {action}, \
                     or waive with the invariant that makes it deliberate API",
                    item.kind, item.name
                ),
            });
        }
    }
    diags
}
