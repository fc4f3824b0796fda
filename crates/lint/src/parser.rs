//! Item-level parsing over the token stream: functions, the `impl`/`mod`
//! context they live in, their visibility, parameter names and body token
//! ranges. This is deliberately **not** an expression grammar — the
//! inter-procedural rules only need to know *which* function a token
//! belongs to and *what* that function's call sites look like; the
//! call-site shapes themselves are extracted by [`crate::lockscope`].
//!
//! The parser is resilient by construction: it walks the code-token
//! stream with a context stack and plain brace counting, so any construct
//! it does not model (macros, closures, const blocks) simply passes
//! through without deraililng item boundaries.

use crate::lexer::{Tok, TokKind};
use crate::scopes::Scopes;

/// One parsed `fn` item with the context the symbol table needs.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// The `impl`/`trait` self type the function is defined on, if any
    /// (last path segment: `impl std::fmt::Display for Foo` yields `Foo`).
    pub self_type: Option<String>,
    /// Inline `mod` chain enclosing the item within this file.
    pub inline_mods: Vec<String>,
    /// `pub` without a restriction (`pub(crate)`/`pub(super)` count as
    /// private: they are not workspace API entry points).
    pub is_public: bool,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Parameter names (patterns reduced to their binding ident; `self`
    /// receivers appear as `"self"`).
    pub params: Vec<String>,
    /// Body range as **code-token indices** `[open_brace, close_brace]`
    /// into the `code` index slice, or `None` for bodyless declarations.
    pub body: Option<(usize, usize)>,
    /// The item sits inside `#[cfg(test)]` / `#[test]` code.
    pub is_test: bool,
}

/// One entry of the item-context stack `parse_items` maintains.
enum Ctx {
    /// Inline `mod name { … }`.
    Mod(String),
    /// `impl`/`trait` block carrying a self-type name.
    SelfTy(String),
    /// A header the parser tracked but could not name (e.g. `impl` on a
    /// reference type); functions inside get no self type.
    Other,
}

/// Keywords that can immediately precede `(` without being a call, and
/// idents that never name a parameter binding.
pub(crate) fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "as" | "async"
            | "await"
            | "box"
            | "break"
            | "const"
            | "continue"
            | "crate"
            | "dyn"
            | "else"
            | "enum"
            | "extern"
            | "fn"
            | "for"
            | "if"
            | "impl"
            | "in"
            | "let"
            | "loop"
            | "match"
            | "mod"
            | "move"
            | "mut"
            | "pub"
            | "ref"
            | "return"
            | "static"
            | "struct"
            | "super"
            | "trait"
            | "type"
            | "unsafe"
            | "use"
            | "where"
            | "while"
            | "yield"
    )
}

/// Parses every `fn` item in the file. `code` is the comment-free token
/// index slice (indices into `toks`) the caller also hands to the
/// lock-scope extractor, so body ranges line up between the two.
pub fn parse_items(toks: &[Tok<'_>], code: &[usize], scopes: &Scopes) -> Vec<FnItem> {
    let mut items: Vec<FnItem> = Vec::new();
    let mut stack: Vec<(Ctx, u32)> = Vec::new();
    let mut depth: u32 = 0;
    let mut ci = 0usize;

    while ci < code.len() {
        let t = &toks[code[ci]];
        match t.kind {
            TokKind::Punct(b'{') => {
                depth += 1;
                ci += 1;
            }
            TokKind::Punct(b'}') => {
                while stack.last().is_some_and(|(_, d)| *d == depth) {
                    stack.pop();
                }
                depth = depth.saturating_sub(1);
                ci += 1;
            }
            TokKind::Ident if t.text == "mod" => {
                // `mod name {` opens a module context; `mod name;` does not.
                let name = code
                    .get(ci + 1)
                    .map(|&i| &toks[i])
                    .filter(|n| n.kind == TokKind::Ident)
                    .map(|n| n.text.to_string());
                let opens = code.get(ci + 2).is_some_and(|&i| toks[i].is_punct(b'{'));
                if let (Some(name), true) = (name, opens) {
                    stack.push((Ctx::Mod(name), depth + 1));
                    ci += 2; // land on the `{`
                } else {
                    ci += 1;
                }
            }
            TokKind::Ident if t.text == "impl" || t.text == "trait" => {
                let (self_ty, brace_ci) = parse_self_ty_header(toks, code, ci + 1);
                match brace_ci {
                    Some(j) => {
                        let ctx = match self_ty {
                            Some(ty) => Ctx::SelfTy(ty),
                            None => Ctx::Other,
                        };
                        stack.push((ctx, depth + 1));
                        ci = j; // land on the `{`
                    }
                    None => ci += 1,
                }
            }
            TokKind::Ident if t.text == "fn" => {
                if let Some((item, next_ci)) = parse_fn(toks, code, scopes, ci, &stack) {
                    items.push(item);
                    ci = next_ci;
                } else {
                    ci += 1;
                }
            }
            _ => ci += 1,
        }
    }
    items
}

/// Scans an `impl`/`trait` header starting just after the keyword: skips
/// generics, resolves `impl A for B` to `B`, stops at the opening brace.
/// Returns the self-type name and the code index of the `{`.
pub(crate) fn parse_self_ty_header(
    toks: &[Tok<'_>],
    code: &[usize],
    start: usize,
) -> (Option<String>, Option<usize>) {
    let mut angle = 0i32;
    let mut ty: Option<String> = None;
    let mut in_where = false;
    let mut j = start;
    while j < code.len() {
        let u = &toks[code[j]];
        match u.kind {
            TokKind::Punct(b'<') => angle += 1,
            TokKind::Punct(b'>') => {
                // `->` arrows inside `Fn() -> T` bounds are not closers.
                let arrow = j > 0 && toks[code[j - 1]].is_punct(b'-');
                if !arrow {
                    angle -= 1;
                }
            }
            TokKind::Punct(b'{') if angle <= 0 => {
                return (ty, Some(j));
            }
            TokKind::Punct(b';') if angle <= 0 => return (None, None),
            TokKind::Ident if angle <= 0 => {
                if u.text == "where" {
                    in_where = true;
                } else if u.text == "for" {
                    ty = None; // the real self type follows `for`
                } else if !in_where && !is_keyword(u.text) {
                    ty = Some(u.text.to_string());
                }
            }
            _ => {}
        }
        j += 1;
    }
    (None, None)
}

/// Parses one `fn` whose keyword sits at code index `ci`. Returns the item
/// and the code index to resume scanning at (just inside the body, so
/// nested items are parsed too).
fn parse_fn(
    toks: &[Tok<'_>],
    code: &[usize],
    scopes: &Scopes,
    ci: usize,
    stack: &[(Ctx, u32)],
) -> Option<(FnItem, usize)> {
    let name_tok = code.get(ci + 1).map(|&i| &toks[i])?;
    if name_tok.kind != TokKind::Ident {
        return None;
    }
    let name = name_tok.text.to_string();
    let line = toks[code[ci]].line;

    // Visibility: walk back over signature qualifiers to a possible `pub`.
    let mut k = ci;
    while k > 0 {
        let p = &toks[code[k - 1]];
        let qual = matches!(p.kind, TokKind::Str)
            || p.is_ident("const")
            || p.is_ident("async")
            || p.is_ident("unsafe")
            || p.is_ident("extern");
        if qual {
            k -= 1;
        } else {
            break;
        }
    }
    // `pub fn` is public; `pub(crate) fn` ends in `)` and is not.
    let is_public = k > 0 && toks[code[k - 1]].is_ident("pub");

    // Skip generics after the name.
    let mut j = ci + 2;
    if code.get(j).is_some_and(|&i| toks[i].is_punct(b'<')) {
        let mut angle = 1i32;
        j += 1;
        while j < code.len() && angle > 0 {
            let u = &toks[code[j]];
            if u.is_punct(b'<') {
                angle += 1;
            } else if u.is_punct(b'>') && !toks[code[j - 1]].is_punct(b'-') {
                angle -= 1;
            }
            j += 1;
        }
    }

    // Parameter list.
    let mut params: Vec<String> = Vec::new();
    if code.get(j).is_some_and(|&i| toks[i].is_punct(b'(')) {
        let mut pdepth = 0i32;
        while j < code.len() {
            let u = &toks[code[j]];
            if u.is_punct(b'(') {
                pdepth += 1;
            } else if u.is_punct(b')') {
                pdepth -= 1;
                if pdepth == 0 {
                    j += 1;
                    break;
                }
            } else if pdepth == 1 && u.kind == TokKind::Ident && !is_keyword(u.text) {
                let colon = code.get(j + 1).is_some_and(|&i| toks[i].is_punct(b':'))
                    && !code.get(j + 2).is_some_and(|&i| toks[i].is_punct(b':'));
                if colon {
                    params.push(u.text.to_string());
                }
            } else if pdepth == 1 && u.is_ident("self") {
                params.push("self".to_string());
            }
            j += 1;
        }
    }

    // Return type / where clause, through the body `{` or a bodyless `;`.
    let mut wrap = 0i32; // () and [] nesting in the return type
    let mut body: Option<(usize, usize)> = None;
    while j < code.len() {
        let u = &toks[code[j]];
        match u.kind {
            TokKind::Punct(b'(') | TokKind::Punct(b'[') => wrap += 1,
            TokKind::Punct(b')') | TokKind::Punct(b']') => wrap -= 1,
            TokKind::Punct(b';') if wrap == 0 => {
                j += 1;
                break;
            }
            TokKind::Punct(b'{') if wrap == 0 => {
                let close = matching_brace(toks, code, j);
                body = Some((j, close));
                // Resume AT the `{`: the caller's depth tracking must see
                // it, or the body's `}` pops the enclosing impl context
                // one level early. Nested items still parse.
                break;
            }
            _ => {}
        }
        j += 1;
    }

    let inline_mods: Vec<String> = stack
        .iter()
        .filter_map(|(c, _)| match c {
            Ctx::Mod(name) => Some(name.clone()),
            _ => None,
        })
        .collect();
    let self_type = stack.iter().rev().find_map(|(c, _)| match c {
        Ctx::SelfTy(ty) => Some(ty.clone()),
        _ => None,
    });
    let is_test = scopes.is_test(code[ci]);

    Some((
        FnItem {
            name,
            self_type,
            inline_mods,
            is_public,
            line,
            params,
            body,
            is_test,
        },
        j,
    ))
}

/// Finds the code index of the `}` matching the `{` at code index `open`
/// (or the last token if unbalanced — the compiler owns well-formedness).
pub(crate) fn matching_brace(toks: &[Tok<'_>], code: &[usize], open: usize) -> usize {
    let mut depth = 0i64;
    let mut j = open;
    while j < code.len() {
        let u = &toks[code[j]];
        if u.is_punct(b'{') {
            depth += 1;
        } else if u.is_punct(b'}') {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        j += 1;
    }
    code.len().saturating_sub(1)
}
