//! A lightweight syntax layer on top of the lexer.
//!
//! This is **not** a Rust grammar. It recovers exactly the structure the
//! interprocedural analyses need from the token stream:
//!
//! * function items — name, `impl` type, parameters (name + type idents),
//!   return-type idents, body extent, `#[cfg(test)]` gating;
//! * calls — callee name, path qualifier, receiver-chain identifiers,
//!   per-argument identifiers and nested calls;
//! * `let` bindings — pattern names, ascribed type, right-hand-side
//!   identifiers/calls, and the *primary* call (the call whose result the
//!   binding evaluates to, used for declassifier matching);
//! * `return`/tail expressions;
//! * sink-macro invocations;
//! * mutex/channel events (`lock()`, `send()`, `try_send()`, `recv()`,
//!   `recv_timeout()`) with an approximated guard-release point.
//!
//! Soundness caveats of this recovery are documented in DESIGN.md §14:
//! macro-generated code is invisible, trait dispatch resolves by name,
//! and guard lifetimes are approximated from statement shape
//! (`let`-bound → end of enclosing block, `match` scrutinee → end of the
//! match, `if`/`while` condition → start of the block, other temporaries
//! → end of statement).

use crate::lexer::{Lexed, Tok, TokKind};

/// Identifiers and nested calls appearing in one expression region.
#[derive(Debug, Clone, Default)]
pub struct ExprInfo {
    /// Value identifiers in source order (callee names, path qualifiers
    /// and macro names excluded; `self` included).
    pub idents: Vec<String>,
    /// Indices (into [`FnDef::calls`]) of calls inside the region.
    pub call_ids: Vec<usize>,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct Call {
    /// Last path segment of the callee (`encode_delta`, `lock`, `seal`).
    pub callee: String,
    /// Path segment just before the callee, if any (`codec`, `cs`).
    pub qual: Option<String>,
    /// Method call (`recv.name(..)`) rather than a path call.
    pub is_method: bool,
    /// Receiver chain (identifiers + nested calls), empty for path calls.
    pub recv: ExprInfo,
    /// Per-argument expression info, split on top-level commas.
    pub args: Vec<ExprInfo>,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column.
    pub col: u32,
    /// Token index of the callee within the file token stream.
    pub tok_idx: usize,
    /// Token index of the closing `)` of the argument list.
    pub close_idx: usize,
}

/// A sink-macro invocation (`format!`, `panic!`, …).
#[derive(Debug, Clone)]
pub struct MacroUse {
    /// Macro name without the `!`.
    pub name: String,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column.
    pub col: u32,
    /// Identifiers/calls inside the macro's delimiters.
    pub args: ExprInfo,
}

/// One `let` binding.
#[derive(Debug, Clone)]
pub struct Binding {
    /// Names bound by the pattern (tuple/struct patterns bind several).
    pub names: Vec<String>,
    /// Identifiers of an ascribed type (`let x: Key = …`), if any.
    pub ty_idents: Vec<String>,
    /// Right-hand-side identifiers and calls.
    pub rhs: ExprInfo,
    /// The call the RHS evaluates to, when the RHS ends in a call —
    /// `let t = seal(k, m)` or a method chain ending in `.finalize()`.
    pub primary_call: Option<usize>,
    /// 1-based source line.
    pub line: u32,
}

/// Mutex/channel operation kinds tracked by the lock-order analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncOp {
    /// `x.lock()` — acquires mutex class `x`.
    Lock,
    /// `tx.send(..)` — potentially blocking send (bounded channels).
    Send,
    /// `tx.try_send(..)` — non-blocking send.
    TrySend,
    /// `rx.recv()` — blocking receive.
    Recv,
    /// `rx.recv_timeout(..)` — bounded-wait receive.
    RecvTimeout,
}

/// One mutex/channel event with its approximated guard extent.
#[derive(Debug, Clone)]
pub struct SyncEvent {
    /// The operation.
    pub op: SyncOp,
    /// Lock/channel class: last receiver-chain identifier that is not
    /// `self` (`self.registry.lock()` → `registry`).
    pub class: String,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column.
    pub col: u32,
    /// Token index of the operation within the file token stream.
    pub tok_idx: usize,
    /// For `Lock`: token index past which the guard is dead. For channel
    /// ops this equals `tok_idx` (no guard).
    pub release_idx: usize,
}

/// One function parameter.
#[derive(Debug, Clone)]
pub struct Param {
    /// Binding name (`self` for the receiver).
    pub name: String,
    /// Identifiers appearing in the declared type.
    pub ty_idents: Vec<String>,
}

/// One recovered function item.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// `impl` block type ident, when the fn is an inherent/trait method.
    pub self_ty: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Parameters in order; a receiver appears as a param named `self`.
    pub params: Vec<Param>,
    /// Identifiers appearing in the return type (`Result<Key, E>` →
    /// `Result`, `Key`, `E`).
    pub ret_ty_idents: Vec<String>,
    /// Inside a `#[cfg(test)]`/`#[test]` region (analyses skip these).
    pub in_test: bool,
    /// All calls in the body, in source order.
    pub calls: Vec<Call>,
    /// All `let` bindings.
    pub bindings: Vec<Binding>,
    /// Sink-macro invocations.
    pub macros: Vec<MacroUse>,
    /// `return` expressions plus the tail expression.
    pub returns: Vec<ExprInfo>,
    /// Mutex/channel events, in source order.
    pub sync_events: Vec<SyncEvent>,
}

/// Parse statistics for one file (analyzer self-stats).
#[derive(Debug, Clone, Copy, Default)]
pub struct ParseStats {
    /// Function items recovered.
    pub fns: usize,
    /// Call sites recovered.
    pub calls: usize,
}

/// The recovered syntax of one file.
#[derive(Debug)]
pub struct FileSyntax {
    /// Policy-root-relative path.
    pub rel: String,
    /// Function items in source order.
    pub fns: Vec<FnDef>,
    /// Parse statistics.
    pub stats: ParseStats,
}

/// Rust keywords that must never be treated as value identifiers.
fn is_expr_keyword(s: &str) -> bool {
    matches!(
        s,
        "let"
            | "if"
            | "else"
            | "match"
            | "return"
            | "for"
            | "while"
            | "loop"
            | "in"
            | "as"
            | "mut"
            | "ref"
            | "move"
            | "break"
            | "continue"
            | "fn"
            | "impl"
            | "dyn"
            | "where"
            | "pub"
            | "use"
            | "mod"
            | "struct"
            | "enum"
            | "trait"
            | "const"
            | "static"
            | "unsafe"
            | "await"
    )
}

/// Builds the [`FileSyntax`] for one lexed file.
pub fn parse_file(rel: &str, lexed: &Lexed) -> FileSyntax {
    let toks = &lexed.toks;
    let test_lines = crate::rules::test_regions(toks);
    let in_test = |line: u32| test_lines.iter().any(|&(a, b)| line >= a && line <= b);

    let mut fns = Vec::new();
    let mut impl_stack: Vec<(String, usize)> = Vec::new(); // (type, close_idx)
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        // Track `impl Type { … }` / `impl Trait for Type { … }` blocks so
        // methods know their Self type.
        if t.is_ident("impl") {
            if let Some((ty, open)) = impl_header(toks, i) {
                let close = matching_brace(toks, open);
                impl_stack.push((ty, close));
                i = open + 1;
                continue;
            }
        }
        impl_stack.retain(|(_, close)| i <= *close);
        if t.is_ident("fn") && i + 1 < toks.len() && toks[i + 1].kind == TokKind::Ident {
            let self_ty = impl_stack.last().map(|(ty, _)| ty.clone());
            if let Some((def, next)) = parse_fn(toks, i, self_ty, in_test(t.line)) {
                fns.push(def);
                i = next;
                continue;
            }
        }
        i += 1;
    }
    let stats = ParseStats {
        fns: fns.len(),
        calls: fns.iter().map(|f| f.calls.len()).sum(),
    };
    FileSyntax {
        rel: rel.to_string(),
        fns,
        stats,
    }
}

/// Parses `impl … {`: returns the Self-type ident and the `{` index.
fn impl_header(toks: &[Tok], at: usize) -> Option<(String, usize)> {
    let mut i = at + 1;
    let mut idents: Vec<String> = Vec::new();
    let mut after_for: Option<usize> = None;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct("{") {
            // `impl Trait for Type` → the type is the segment after `for`;
            // plain `impl Type` → the first path segment.
            let pick = match after_for {
                Some(mark) if mark < idents.len() => idents.get(mark),
                _ => idents.first(),
            };
            return pick.map(|ty| (ty.clone(), i));
        }
        if t.is_punct(";") {
            return None;
        }
        if t.is_ident("for") {
            after_for = Some(idents.len());
        } else if t.kind == TokKind::Ident && !is_expr_keyword(&t.text) {
            idents.push(t.text.clone());
        }
        i += 1;
    }
    None
}

/// Index of the `}` matching the `{` at `open` (or the last token).
fn matching_brace(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < toks.len() {
        if toks[i].is_punct("{") {
            depth += 1;
        } else if toks[i].is_punct("}") {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    toks.len().saturating_sub(1)
}

/// Parses one `fn` item starting at the `fn` keyword. Returns the def and
/// the index just past the body (or the `;` of a bodyless declaration).
fn parse_fn(
    toks: &[Tok],
    at: usize,
    self_ty: Option<String>,
    in_test: bool,
) -> Option<(FnDef, usize)> {
    let name = toks[at + 1].text.clone();
    let line = toks[at].line;
    let mut i = at + 2;
    // Generics: count `<`/`>` characters (the lexer may fuse `>>`).
    if i < toks.len() && toks[i].is_punct("<") {
        let mut depth = 0i32;
        while i < toks.len() {
            let txt = &toks[i].text;
            if toks[i].kind == TokKind::Punct {
                depth += txt.matches('<').count() as i32;
                depth -= txt.matches('>').count() as i32;
                // `->` inside generics cannot appear; no correction needed.
            }
            i += 1;
            if depth <= 0 {
                break;
            }
        }
    }
    if i >= toks.len() || !toks[i].is_punct("(") {
        return None;
    }
    let params_open = i;
    let params_close = matching_paren(toks, params_open)?;
    let params = parse_params(toks, params_open, params_close);

    // Return type: idents between `->` and `{`/`;`/`where`.
    let mut ret_ty_idents = Vec::new();
    let mut j = params_close + 1;
    if j < toks.len() && toks[j].is_punct("->") {
        j += 1;
        while j < toks.len() {
            let t = &toks[j];
            if t.is_punct("{") || t.is_punct(";") || t.is_ident("where") {
                break;
            }
            if t.kind == TokKind::Ident && !is_expr_keyword(&t.text) {
                ret_ty_idents.push(t.text.clone());
            }
            j += 1;
        }
    }
    // Skip a where clause.
    while j < toks.len() && !toks[j].is_punct("{") && !toks[j].is_punct(";") {
        j += 1;
    }
    if j >= toks.len() {
        return None;
    }
    if toks[j].is_punct(";") {
        // Trait method declaration without a body.
        let def = FnDef {
            name,
            self_ty,
            line,
            params,
            ret_ty_idents,
            in_test,
            calls: Vec::new(),
            bindings: Vec::new(),
            macros: Vec::new(),
            returns: Vec::new(),
            sync_events: Vec::new(),
        };
        return Some((def, j + 1));
    }
    let body_open = j;
    let body_close = matching_brace(toks, body_open);
    let mut def = FnDef {
        name,
        self_ty,
        line,
        params,
        ret_ty_idents,
        in_test,
        calls: Vec::new(),
        bindings: Vec::new(),
        macros: Vec::new(),
        returns: Vec::new(),
        sync_events: Vec::new(),
    };
    scan_body(toks, body_open + 1, body_close, &mut def);
    Some((def, body_close + 1))
}

/// Index of the `)` matching the `(` at `open`.
fn matching_paren(toks: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    let mut i = open;
    while i < toks.len() {
        if toks[i].is_punct("(") {
            depth += 1;
        } else if toks[i].is_punct(")") {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
        i += 1;
    }
    None
}

/// Parses the parameter list between `open` and `close` (exclusive).
fn parse_params(toks: &[Tok], open: usize, close: usize) -> Vec<Param> {
    let mut params = Vec::new();
    let mut start = open + 1;
    let mut depth = 0i32;
    let mut i = open + 1;
    while i <= close {
        let at_end = i == close;
        let t = &toks[i];
        if !at_end && (t.is_punct("(") || t.is_punct("[")) {
            depth += 1;
        } else if !at_end && (t.is_punct(")") || t.is_punct("]")) {
            depth -= 1;
        } else if t.kind == TokKind::Punct {
            depth += t.text.matches('<').count() as i32;
            depth -= t.text.matches('>').count() as i32;
            if t.is_punct("->") {
                depth += 1; // undo the '>' counted above
            }
        }
        if at_end || (t.is_punct(",") && depth == 0) {
            if let Some(p) = parse_one_param(toks, start, i) {
                params.push(p);
            }
            start = i + 1;
        }
        i += 1;
    }
    params
}

/// Parses one parameter slice `[start, end)`: `name: Type`, `&self`,
/// `mut name: Type`, pattern params take the last pre-`:` ident.
fn parse_one_param(toks: &[Tok], start: usize, end: usize) -> Option<Param> {
    if start >= end {
        return None;
    }
    let colon = (start..end).find(|&k| toks[k].is_punct(":"));
    match colon {
        None => {
            // Receiver form: `self`, `&self`, `&mut self`, `mut self`.
            (start..end)
                .find(|&k| toks[k].is_ident("self"))
                .map(|_| Param {
                    name: "self".to_string(),
                    ty_idents: Vec::new(),
                })
        }
        Some(c) => {
            let name = (start..c)
                .rev()
                .find(|&k| {
                    toks[k].kind == TokKind::Ident
                        && !matches!(toks[k].text.as_str(), "mut" | "ref")
                })
                .map(|k| toks[k].text.clone())?;
            let mut ty_idents = Vec::new();
            for t in &toks[c + 1..end] {
                if t.kind == TokKind::Ident && !is_expr_keyword(&t.text) {
                    ty_idents.push(t.text.clone());
                }
            }
            Some(Param { name, ty_idents })
        }
    }
}

// ---------------------------------------------------------------------------
// Body scanning
// ---------------------------------------------------------------------------

/// Names treated as mutex/channel operations when called as methods.
fn sync_op_of(name: &str) -> Option<SyncOp> {
    match name {
        "lock" => Some(SyncOp::Lock),
        "send" => Some(SyncOp::Send),
        "try_send" => Some(SyncOp::TrySend),
        "recv" => Some(SyncOp::Recv),
        "recv_timeout" => Some(SyncOp::RecvTimeout),
        _ => None,
    }
}

/// Scans the body tokens `[start, end)` and fills `def`.
fn scan_body(toks: &[Tok], start: usize, end: usize, def: &mut FnDef) {
    collect_calls_and_macros(toks, start, end, def);
    collect_bindings_and_returns(toks, start, end, def);
    collect_sync_events(toks, start, end, def);
}

/// Is the token at `i` the callee of a call (`name(`), excluding macro
/// invocations (`name!(`) and definitions (`fn name(`)?
fn is_call_at(toks: &[Tok], i: usize) -> bool {
    toks[i].kind == TokKind::Ident
        && !is_expr_keyword(&toks[i].text)
        && i + 1 < toks.len()
        && toks[i + 1].is_punct("(")
        && !(i > 0 && toks[i - 1].is_ident("fn"))
}

/// First pass: every call and sink-macro invocation in `[start, end)`.
fn collect_calls_and_macros(toks: &[Tok], start: usize, end: usize, def: &mut FnDef) {
    // (open paren, close paren, receiver token span if a method call).
    type CallExtent = (usize, usize, Option<(usize, usize)>);
    let mut call_extents: Vec<CallExtent> = Vec::new();
    let mut macro_extents: Vec<(usize, usize)> = Vec::new();
    let mut i = start;
    while i < end {
        let t = &toks[i];
        // Macro use: name ! ( … )   (also [ and { delimiters).
        if t.kind == TokKind::Ident
            && i + 2 < end
            && toks[i + 1].is_punct("!")
            && (toks[i + 2].is_punct("(") || toks[i + 2].is_punct("[") || toks[i + 2].is_punct("{"))
        {
            let close = match toks[i + 2].text.as_str() {
                "(" => matching_paren(toks, i + 2).unwrap_or(end.saturating_sub(1)),
                "[" => matching_delim(toks, i + 2, "[", "]"),
                _ => matching_brace(toks, i + 2),
            };
            def.macros.push(MacroUse {
                name: t.text.clone(),
                line: t.line,
                col: t.col,
                args: ExprInfo::default(), // filled after calls exist
            });
            macro_extents.push((i + 3, close));
            i += 3;
            continue;
        }
        if is_call_at(toks, i) {
            let open = i + 1;
            let close = matching_paren(toks, open).unwrap_or(end.saturating_sub(1));
            let (qual, is_method, recv_range) = call_context(toks, i);
            def.calls.push(Call {
                callee: t.text.clone(),
                qual,
                is_method,
                recv: ExprInfo::default(),
                args: Vec::new(),
                line: t.line,
                col: t.col,
                tok_idx: i,
                close_idx: close,
            });
            call_extents.push((open + 1, close, recv_range));
        }
        i += 1;
    }
    // Second sweep: fill args/recv/macro idents now that all calls are
    // known (nested calls need the full call list for `call_ids`).
    for (idx, (astart, aclose, recv_range)) in call_extents.into_iter().enumerate() {
        let args = split_args(toks, astart, aclose, &def.calls);
        let recv = match recv_range {
            Some((rs, re)) => expr_info(toks, rs, re, &def.calls),
            None => ExprInfo::default(),
        };
        def.calls[idx].args = args;
        def.calls[idx].recv = recv;
    }
    for (idx, (mstart, mclose)) in macro_extents.into_iter().enumerate() {
        def.macros[idx].args = expr_info(toks, mstart, mclose, &def.calls);
    }
}

/// Classifies the tokens before a callee: `(qual, is_method, recv_range)`.
fn call_context(toks: &[Tok], callee: usize) -> (Option<String>, bool, Option<(usize, usize)>) {
    if callee == 0 {
        return (None, false, None);
    }
    if toks[callee - 1].is_punct(".") {
        // Method call: receiver chain walks back over idents, `.`,
        // balanced groups and `?`.
        let mut i = callee - 1;
        loop {
            if i == 0 {
                break;
            }
            let p = &toks[i - 1];
            let extend = match p.kind {
                TokKind::Ident => !is_expr_keyword(&p.text),
                TokKind::Punct => match p.text.as_str() {
                    "." | "?" | "::" => true,
                    ")" | "]" => {
                        // Skip the balanced group backwards.
                        let close = p.text.clone();
                        let open = if close == ")" { "(" } else { "[" };
                        let mut depth = 1usize;
                        let mut k = i - 1;
                        while k > 0 && depth > 0 {
                            k -= 1;
                            if toks[k].is_punct(&close) {
                                depth += 1;
                            } else if toks[k].is_punct(open) {
                                depth -= 1;
                            }
                        }
                        i = k + 1; // re-enter loop just past the group open
                        if k == 0 {
                            break;
                        }
                        i -= 1;
                        continue;
                    }
                    _ => false,
                },
                _ => false,
            };
            if !extend {
                break;
            }
            i -= 1;
        }
        return (None, true, Some((i, callee - 1)));
    }
    if toks[callee - 1].is_punct("::") && callee >= 2 && toks[callee - 2].kind == TokKind::Ident {
        return (Some(toks[callee - 2].text.clone()), false, None);
    }
    (None, false, None)
}

/// Splits a call's argument tokens `[start, close)` on top-level commas.
fn split_args(toks: &[Tok], start: usize, close: usize, calls: &[Call]) -> Vec<ExprInfo> {
    let mut args = Vec::new();
    let mut seg_start = start;
    let mut depth = 0i32;
    let mut i = start;
    while i <= close {
        let at_end = i == close;
        if !at_end {
            let t = &toks[i];
            if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
                depth += 1;
            } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
                depth -= 1;
            }
        }
        if at_end || (toks[i].is_punct(",") && depth == 0) {
            if seg_start < i {
                args.push(expr_info(toks, seg_start, i, calls));
            }
            seg_start = i + 1;
        }
        i += 1;
    }
    args
}

/// Collects value idents and call ids within `[start, end)`.
fn expr_info(toks: &[Tok], start: usize, end: usize, calls: &[Call]) -> ExprInfo {
    let mut info = ExprInfo::default();
    for i in start..end {
        let t = &toks[i];
        if t.kind != TokKind::Ident || is_expr_keyword(&t.text) {
            continue;
        }
        // Skip callee names, path qualifiers and macro names.
        let is_callee = i + 1 < toks.len() && toks[i + 1].is_punct("(");
        let is_qual = i + 1 < toks.len() && toks[i + 1].is_punct("::");
        let is_macro = i + 1 < toks.len() && toks[i + 1].is_punct("!");
        if is_qual || is_macro {
            continue;
        }
        if is_callee {
            continue; // the call itself is captured via call_ids
        }
        if !info.idents.contains(&t.text) {
            info.idents.push(t.text.clone());
        }
    }
    for (id, c) in calls.iter().enumerate() {
        if c.tok_idx >= start && c.tok_idx < end {
            info.call_ids.push(id);
        }
    }
    info
}

/// Closing delimiter index for a non-paren open delimiter.
fn matching_delim(toks: &[Tok], open: usize, o: &str, c: &str) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < toks.len() {
        if toks[i].is_punct(o) {
            depth += 1;
        } else if toks[i].is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    toks.len().saturating_sub(1)
}

/// Second pass: `let` bindings, `return` expressions, and the tail expr.
fn collect_bindings_and_returns(toks: &[Tok], start: usize, end: usize, def: &mut FnDef) {
    let mut i = start;
    let mut last_stmt_end = start; // start of the current top-level segment
    let mut depth = 0i32;
    while i < end {
        let t = &toks[i];
        if t.is_punct("{") || t.is_punct("(") || t.is_punct("[") {
            depth += 1;
        } else if t.is_punct("}") || t.is_punct(")") || t.is_punct("]") {
            depth -= 1;
        } else if t.is_punct(";") && depth == 0 {
            last_stmt_end = i + 1;
        } else if t.is_ident("let") {
            if let Some((binding, next)) = parse_let(toks, i, end, &def.calls) {
                // If the RHS opens a block (`let x = { let g = m.lock(); … };`,
                // match/if RHS, closure bodies), walk *into* it so nested
                // `let`s and `return`s are collected too; the statement's
                // own `;` restores the bookkeeping. Flat RHS skips ahead.
                let rhs_start = i + 1;
                let has_block = (rhs_start..next.min(end)).any(|k| toks[k].is_punct("{"));
                def.bindings.push(binding);
                if has_block {
                    i = rhs_start;
                } else {
                    i = next;
                    if depth == 0 {
                        last_stmt_end = i;
                    }
                }
                continue;
            }
        } else if t.is_ident("return") {
            // Idents/calls up to the terminating `;` (or end).
            let mut j = i + 1;
            let mut d = 0i32;
            while j < end {
                let tj = &toks[j];
                if tj.is_punct("(") || tj.is_punct("[") || tj.is_punct("{") {
                    d += 1;
                } else if tj.is_punct(")") || tj.is_punct("]") || tj.is_punct("}") {
                    if d == 0 {
                        break;
                    }
                    d -= 1;
                } else if tj.is_punct(";") && d == 0 {
                    break;
                }
                j += 1;
            }
            def.returns.push(expr_info(toks, i + 1, j, &def.calls));
            i = j;
            continue;
        }
        i += 1;
    }
    // Tail expression: the final top-level segment, if non-empty.
    if last_stmt_end < end {
        let tail = expr_info(toks, last_stmt_end, end, &def.calls);
        if !tail.idents.is_empty() || !tail.call_ids.is_empty() {
            def.returns.push(tail);
        }
    }
}

/// Parses `let pat[: Ty] = rhs ;` starting at the `let`. Returns the
/// binding and the index just past the terminating `;`.
fn parse_let(toks: &[Tok], at: usize, end: usize, calls: &[Call]) -> Option<(Binding, usize)> {
    let line = toks[at].line;
    // Pattern: up to top-level `=` (but not `==` / `=>`).
    let mut i = at + 1;
    let mut depth = 0i32;
    let mut colon: Option<usize> = None;
    let eq = loop {
        if i >= end {
            return None;
        }
        let t = &toks[i];
        if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
            depth -= 1;
        } else if t.is_punct(":") && depth == 0 && colon.is_none() {
            colon = Some(i);
        } else if t.is_punct("=") && depth == 0 {
            break i;
        } else if t.is_punct(";") && depth == 0 {
            return None; // `let x;` — no RHS to track
        } else if t.kind == TokKind::Punct {
            // `<`/`>` inside a type ascription (generics).
            depth += t.text.matches('<').count() as i32;
            depth -= t.text.matches('>').count() as i32;
        }
        i += 1;
    };
    let pat_end = colon.unwrap_or(eq);
    let mut names = Vec::new();
    for k in at + 1..pat_end {
        let t = &toks[k];
        if t.kind != TokKind::Ident || matches!(t.text.as_str(), "mut" | "ref") {
            continue;
        }
        // Constructor paths in patterns (`Some(x)`, `Wire { .. }`) are not
        // bindings; skip idents followed by `(`/`::`/`{`.
        let next_is = |s: &str| k + 1 < pat_end && toks[k + 1].is_punct(s);
        if next_is("(") || next_is("::") || next_is("{") {
            continue;
        }
        names.push(t.text.clone());
    }
    if names.is_empty() {
        return None;
    }
    let mut ty_idents = Vec::new();
    if let Some(c) = colon {
        for t in &toks[c + 1..eq] {
            if t.kind == TokKind::Ident && !is_expr_keyword(&t.text) {
                ty_idents.push(t.text.clone());
            }
        }
    }
    // RHS: up to the matching `;` at depth 0.
    let mut j = eq + 1;
    let mut d = 0i32;
    while j < end {
        let t = &toks[j];
        if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
            d += 1;
        } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
            d -= 1;
        } else if t.is_punct(";") && d <= 0 {
            break;
        }
        j += 1;
    }
    let rhs = expr_info(toks, eq + 1, j, calls);
    // Primary call: the call whose `)` closes the RHS (modulo trailing `?`).
    let mut tail_idx = j;
    while tail_idx > eq + 1 && toks[tail_idx - 1].is_punct("?") {
        tail_idx -= 1;
    }
    let primary_call = calls
        .iter()
        .position(|c| c.close_idx + 1 == tail_idx)
        .filter(|_| tail_idx > eq + 1 && toks[tail_idx - 1].is_punct(")"));
    Some((
        Binding {
            names,
            ty_idents,
            rhs,
            primary_call,
            line,
        },
        j + 1,
    ))
}

/// Third pass: mutex/channel events with guard-release approximation.
fn collect_sync_events(toks: &[Tok], start: usize, end: usize, def: &mut FnDef) {
    for call in &def.calls {
        if !call.is_method {
            continue;
        }
        let Some(op) = sync_op_of(&call.callee) else {
            continue;
        };
        let class = call
            .recv
            .idents
            .iter()
            .rev()
            .find(|s| s.as_str() != "self")
            .cloned()
            .unwrap_or_else(|| def.self_ty.clone().unwrap_or_else(|| "self".into()));
        let release_idx = if op == SyncOp::Lock {
            guard_release(toks, start, end, call)
        } else {
            call.close_idx
        };
        def.sync_events.push(SyncEvent {
            op,
            class,
            line: call.line,
            col: call.col,
            tok_idx: call.tok_idx,
            release_idx,
        });
    }
    def.sync_events.sort_by_key(|e| e.tok_idx);
}

/// Adaptors that turn a `LockResult` into the guard it holds, so a `let`
/// bound through them binds the guard itself.
pub(crate) const UNWRAPS_GUARD: [&str; 3] = ["unwrap", "expect", "unwrap_or_else"];

/// Approximates where the guard returned by `call` (an `x.lock()`) dies.
///
/// * `let g = x.lock();` → end of the enclosing block (or `drop(g)`);
/// * `match x.lock()… {…}` → end of the match (scrutinee temporaries live
///   through the whole match);
/// * `if`/`while` conditions → start of the block (temporaries drop);
/// * anything else → end of the statement (`;`).
fn guard_release(toks: &[Tok], body_start: usize, body_end: usize, call: &Call) -> usize {
    // Statement start: token after the nearest preceding `;`, `{` or `}`.
    let mut s = call.tok_idx;
    while s > body_start {
        let p = &toks[s - 1];
        if p.is_punct(";") || p.is_punct("{") || p.is_punct("}") {
            break;
        }
        s -= 1;
    }
    let head = &toks[s];
    // `let id = x.lock().admit(…);` binds the *result of the chain*, not
    // the guard — the guard is a temporary dying at the `;`. Only
    // `.unwrap()`, `.expect(…)` and `.unwrap_or_else(…)` keep the guard
    // alive (they unwrap a `LockResult` into the guard itself).
    let chain_consumed = head.is_ident("let") && {
        let mut i = call.close_idx + 1;
        while i + 1 < body_end
            && toks[i].is_punct(".")
            && UNWRAPS_GUARD.iter().any(|u| toks[i + 1].is_ident(u))
        {
            i += 2;
            if i < body_end && toks[i].is_punct("(") {
                let mut depth = 0i32;
                while i < body_end {
                    if toks[i].is_punct("(") {
                        depth += 1;
                    } else if toks[i].is_punct(")") {
                        depth -= 1;
                        if depth == 0 {
                            i += 1;
                            break;
                        }
                    }
                    i += 1;
                }
            }
        }
        i < body_end && toks[i].is_punct(".")
    };
    if head.is_ident("let") && !chain_consumed {
        // Guard name (for early `drop(name)`).
        let guard = (s + 1..call.tok_idx)
            .find(|&k| {
                toks[k].kind == TokKind::Ident && !matches!(toks[k].text.as_str(), "mut" | "ref")
            })
            .map(|k| toks[k].text.clone());
        // Enclosing block close: first `}` that takes relative depth
        // negative.
        let mut depth = 0i32;
        let mut i = call.close_idx + 1;
        while i < body_end {
            let t = &toks[i];
            if t.is_punct("{") {
                depth += 1;
            } else if t.is_punct("}") {
                depth -= 1;
                if depth < 0 {
                    break;
                }
            } else if let Some(g) = &guard {
                // `drop(g)` ends the guard early.
                if t.is_ident("drop")
                    && i + 2 < body_end
                    && toks[i + 1].is_punct("(")
                    && toks[i + 2].is_ident(g)
                {
                    return i;
                }
            }
            i += 1;
        }
        return i.min(body_end);
    }
    if head.is_ident("match") {
        // First `{` at relative depth 0, then its matching `}`.
        let mut depth = 0i32;
        let mut i = call.close_idx + 1;
        while i < body_end {
            let t = &toks[i];
            if t.is_punct("(") || t.is_punct("[") {
                depth += 1;
            } else if t.is_punct(")") || t.is_punct("]") {
                depth -= 1;
            } else if t.is_punct("{") && depth == 0 {
                return matching_brace(toks, i).min(body_end);
            }
            i += 1;
        }
        return body_end;
    }
    if head.is_ident("if") || head.is_ident("while") {
        // Temporaries in the condition drop at the block open.
        let mut depth = 0i32;
        let mut i = call.close_idx + 1;
        while i < body_end {
            let t = &toks[i];
            if t.is_punct("(") || t.is_punct("[") {
                depth += 1;
            } else if t.is_punct(")") || t.is_punct("]") {
                depth -= 1;
            } else if t.is_punct("{") && depth == 0 {
                return i;
            }
            i += 1;
        }
        return body_end;
    }
    // Plain statement temporary: dies at the `;`.
    let mut depth = 0i32;
    let mut i = call.close_idx + 1;
    while i < body_end {
        let t = &toks[i];
        if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
            depth -= 1;
        } else if t.is_punct(";") && depth <= 0 {
            return i;
        }
        i += 1;
    }
    body_end
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> FileSyntax {
        parse_file("t.rs", &lex(src))
    }

    #[test]
    fn fn_signature_recovered() {
        let s = parse("pub fn seal(key: &Key, msg: &[u8]) -> Result<Vec<u8>, E> { msg.to_vec() }");
        assert_eq!(s.fns.len(), 1);
        let f = &s.fns[0];
        assert_eq!(f.name, "seal");
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.params[0].name, "key");
        assert_eq!(f.params[0].ty_idents, vec!["Key"]);
        assert!(f.ret_ty_idents.contains(&"Result".to_string()));
        assert_eq!(f.returns.len(), 1, "tail expr captured");
    }

    #[test]
    fn impl_methods_get_self_type() {
        let s = parse("impl RsaSecret { fn root(&self, x: &Ubig) -> Ubig { x.clone() } }");
        let f = &s.fns[0];
        assert_eq!(f.self_ty.as_deref(), Some("RsaSecret"));
        assert_eq!(f.params[0].name, "self");
        // `impl Trait for Type` picks the type.
        let s2 = parse("impl Drop for Key { fn drop(&mut self) { } }");
        assert_eq!(s2.fns[0].self_ty.as_deref(), Some("Key"));
    }

    #[test]
    fn calls_with_args_and_qualifiers() {
        let s = parse("fn f(k: Key) { let t = aead::seal(&k, &sid); g(t, 3); }");
        let f = &s.fns[0];
        let seal = f.calls.iter().find(|c| c.callee == "seal").unwrap();
        assert_eq!(seal.qual.as_deref(), Some("aead"));
        assert_eq!(seal.args.len(), 2);
        assert_eq!(seal.args[0].idents, vec!["k"]);
        let g = f.calls.iter().find(|c| c.callee == "g").unwrap();
        assert_eq!(g.args.len(), 2);
        assert_eq!(g.args[0].idents, vec!["t"]);
    }

    #[test]
    fn method_chain_receiver() {
        let s = parse("fn f(k: Key) { let t = mac.update(&k).finalize(); }");
        let f = &s.fns[0];
        let fin = f.calls.iter().find(|c| c.callee == "finalize").unwrap();
        assert!(fin.is_method);
        assert!(fin.recv.idents.contains(&"mac".to_string()));
        // The binding's primary call is the chain tail.
        let b = &f.bindings[0];
        assert_eq!(b.names, vec!["t"]);
        assert_eq!(
            b.primary_call.map(|i| f.calls[i].callee.clone()),
            Some("finalize".to_string())
        );
    }

    #[test]
    fn bindings_track_types_and_rhs() {
        let s = parse("fn f() { let x: Key = derive(seed); let (a, b) = pair(); }");
        let f = &s.fns[0];
        assert_eq!(f.bindings[0].ty_idents, vec!["Key"]);
        assert_eq!(f.bindings[0].rhs.idents, vec!["seed"]);
        assert_eq!(f.bindings[1].names, vec!["a", "b"]);
    }

    #[test]
    fn return_exprs_collected() {
        let s = parse("fn f(k: Key) -> Key { if early { return k; } derive(k) }");
        let f = &s.fns[0];
        assert_eq!(f.returns.len(), 2);
        assert!(f.returns[0].idents.contains(&"k".to_string()));
        assert!(!f.returns[1].call_ids.is_empty());
    }

    #[test]
    fn sync_events_and_guard_release() {
        let src = "fn f(&self) {
            let mut reg = self.registry.lock();
            reg.insert(1);
            self.shapes.lock().learn(2);
            tx.send(w);
        }";
        let s = parse(src);
        let f = &s.fns[0];
        let locks: Vec<_> = f
            .sync_events
            .iter()
            .filter(|e| e.op == SyncOp::Lock)
            .collect();
        assert_eq!(locks.len(), 2);
        assert_eq!(locks[0].class, "registry");
        assert_eq!(locks[1].class, "shapes");
        // let-bound guard lives to end of fn body; statement temporary
        // dies at its `;` — i.e. registry's release is *after* shapes'.
        assert!(locks[0].release_idx > locks[1].release_idx);
        let send = f.sync_events.iter().find(|e| e.op == SyncOp::Send).unwrap();
        assert_eq!(send.class, "tx");
    }

    #[test]
    fn match_scrutinee_guard_spans_the_match() {
        let src =
            "fn f() { match q.lock().pop() { Some(x) => use_it(x), None => idle() } done(); }";
        let s = parse(src);
        let f = &s.fns[0];
        let lock = f.sync_events.iter().find(|e| e.op == SyncOp::Lock).unwrap();
        let use_call = f.calls.iter().find(|c| c.callee == "use_it").unwrap();
        let done = f.calls.iter().find(|c| c.callee == "done").unwrap();
        assert!(lock.release_idx > use_call.tok_idx, "held inside match");
        assert!(lock.release_idx < done.tok_idx, "released after match");
    }

    #[test]
    fn if_condition_guard_drops_at_block() {
        let src = "fn f() { if reg.lock().active() == 0 { finish(); } }";
        let s = parse(src);
        let f = &s.fns[0];
        let lock = f.sync_events.iter().find(|e| e.op == SyncOp::Lock).unwrap();
        let finish = f.calls.iter().find(|c| c.callee == "finish").unwrap();
        assert!(lock.release_idx < finish.tok_idx);
    }

    #[test]
    fn drop_releases_let_guard_early() {
        let src = "fn f() { let g = m.lock(); step(); drop(g); late(); }";
        let s = parse(src);
        let f = &s.fns[0];
        let lock = f.sync_events.iter().find(|e| e.op == SyncOp::Lock).unwrap();
        let late = f.calls.iter().find(|c| c.callee == "late").unwrap();
        assert!(lock.release_idx < late.tok_idx);
    }

    #[test]
    fn test_gated_fns_marked() {
        let src = "#[cfg(test)]\nmod t { fn helper() { } }\nfn real() { }";
        let s = parse(src);
        let helper = s.fns.iter().find(|f| f.name == "helper").unwrap();
        let real = s.fns.iter().find(|f| f.name == "real").unwrap();
        assert!(helper.in_test);
        assert!(!real.in_test);
    }

    #[test]
    fn macro_args_collected() {
        let s = parse("fn f(k: Key) { println!(\"{:?}\", k.bytes); }");
        let f = &s.fns[0];
        assert_eq!(f.macros.len(), 1);
        assert_eq!(f.macros[0].name, "println");
        assert!(f.macros[0].args.idents.contains(&"k".to_string()));
    }
}
