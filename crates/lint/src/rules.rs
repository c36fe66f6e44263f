//! The secret-hygiene rules, run over one file's token stream.
//!
//! Every rule is a linear scan over the [`crate::lexer::Lexed`] tokens;
//! none of them needs a parse tree. Code inside `#[cfg(test)]`-gated items
//! and `#[test]` functions is exempt (tests may print, compare, and
//! unwrap secrets freely), and individual findings can be waived with a
//! written-down `// lint:allow(<rule>) reason="…"` directive on the same
//! line or the line above.

use crate::lexer::{AllowDirective, Lexed, Tok, TokKind};
use crate::policy::{Policy, Rule};
use crate::report::Finding;

/// Raw findings from the token rules, test regions already filtered,
/// allow directives **not** yet applied (the pipeline merges the
/// analyses' findings in and then runs [`finalize`]).
///
/// `rel` is the policy-root-relative path used for path-scoped rules and
/// for reporting.
pub fn token_findings(rel: &str, lexed: &Lexed, policy: &Policy) -> Vec<Finding> {
    let toks = &lexed.toks;
    let test_lines = test_regions(toks);
    let in_test = |line: u32| test_lines.iter().any(|&(a, b)| line >= a && line <= b);

    let mut raw: Vec<Finding> = Vec::new();
    raw.extend(rule_secret_debug(rel, toks, policy));
    raw.extend(rule_secret_cmp(rel, toks, policy));
    raw.extend(rule_secret_fmt(rel, toks, policy));
    if policy.panic_rule_applies(rel) {
        raw.extend(rule_panic_path(rel, toks));
    }
    if policy.index_rule_applies(rel) {
        raw.extend(rule_index_path(rel, toks));
    }
    if policy.factory_rule_applies(rel) {
        raw.extend(rule_factory_dispatch(rel, toks, policy));
    }
    if policy.vartime_rule_applies(rel) {
        raw.extend(rule_vartime_usage(rel, toks, policy));
    }
    raw.retain(|f| !in_test(f.line));
    raw
}

/// Applies the file's allow directives to `raw` (token and analysis
/// findings alike) and appends allow-hygiene findings. Accounting is
/// per named rule: a directive listing several rules must suppress at
/// least one finding of **each**, or the idle names are themselves
/// findings — this is what lets a policy-rule upgrade surface every
/// allow it made stale.
pub fn finalize(rel: &str, lexed: &Lexed, mut raw: Vec<Finding>) -> Vec<Finding> {
    let test_lines = test_regions(&lexed.toks);
    let in_test = |line: u32| test_lines.iter().any(|&(a, b)| line >= a && line <= b);

    // Which rule names of each directive actually suppressed a finding.
    let mut used: Vec<Vec<&str>> = vec![Vec::new(); lexed.allows.len()];
    raw.retain(|f| {
        let mut suppressed = false;
        for (i, a) in lexed.allows.iter().enumerate() {
            if allow_covers(a, f) {
                if !used[i].contains(&f.rule.name()) {
                    used[i].push(f.rule.name());
                }
                suppressed = true;
            }
        }
        !suppressed
    });

    // Allow-directive hygiene: every exception must carry a reason, name
    // real rules, and actually suppress something under each named rule.
    for (i, a) in lexed.allows.iter().enumerate() {
        if in_test(a.line) {
            continue;
        }
        if !a.has_reason {
            raw.push(Finding::new(
                rel,
                a.line,
                1,
                Rule::AllowHygiene,
                "lint:allow directive without a reason=\"…\" justification".to_string(),
            ));
            continue;
        }
        let mut all_known = true;
        for r in &a.rules {
            if Rule::from_name(r).is_none() {
                all_known = false;
                raw.push(Finding::new(
                    rel,
                    a.line,
                    1,
                    Rule::AllowHygiene,
                    format!("lint:allow names unknown rule `{r}`"),
                ));
            }
        }
        if !all_known {
            continue;
        }
        if used[i].is_empty() {
            raw.push(Finding::new(
                rel,
                a.line,
                1,
                Rule::AllowHygiene,
                "unused lint:allow directive (suppresses nothing on this or the next line)"
                    .to_string(),
            ));
        } else {
            for r in &a.rules {
                if !used[i].contains(&r.as_str()) {
                    raw.push(Finding::new(
                        rel,
                        a.line,
                        1,
                        Rule::AllowHygiene,
                        format!(
                            "lint:allow lists `{r}` but suppresses no `{r}` finding \
                             on this or the next line; drop the stale rule name"
                        ),
                    ));
                }
            }
        }
    }

    raw.sort_by_key(|a| (a.line, a.col, a.rule));
    raw
}

/// A directive covers a finding on its own line or the line below it.
fn allow_covers(a: &AllowDirective, f: &Finding) -> bool {
    (f.line == a.line || f.line == a.line + 1) && a.rules.iter().any(|r| r == f.rule.name())
}

// ---------------------------------------------------------------------------
// Test-region detection
// ---------------------------------------------------------------------------

/// Line ranges of items gated by `#[cfg(test)]` / `#[test]` (also used
/// by the syntax layer to exempt test fns from the analyses).
pub(crate) fn test_regions(toks: &[Tok]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_punct("#") && i + 1 < toks.len() && toks[i + 1].is_punct("[") {
            let (idents, after) = attr_contents(toks, i + 1);
            if is_test_attr(&idents) {
                let start_line = toks[i].line;
                if let Some(end_line) = item_end_line(toks, after) {
                    regions.push((start_line, end_line));
                    // Skip past the whole gated item in one step.
                    i = after;
                    continue;
                }
            }
            i = after;
            continue;
        }
        i += 1;
    }
    regions
}

/// `#[cfg(test)]`, `#[test]`, `#[cfg(any(test, …))]`, `#[tokio::test]` …
/// but never `#[cfg(not(test))]`.
fn is_test_attr(idents: &[String]) -> bool {
    let has = |s: &str| idents.iter().any(|i| i == s);
    has("test") && !has("not")
}

/// Collects the identifiers inside `[…]` starting at `open` (the `[`),
/// returning them and the index just past the closing `]`.
fn attr_contents(toks: &[Tok], open: usize) -> (Vec<String>, usize) {
    let mut depth = 0usize;
    let mut idents = Vec::new();
    let mut i = open;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct("[") {
            depth += 1;
        } else if t.is_punct("]") {
            depth -= 1;
            if depth == 0 {
                return (idents, i + 1);
            }
        } else if t.kind == TokKind::Ident {
            idents.push(t.text.clone());
        }
        i += 1;
    }
    (idents, i)
}

/// The last line of the item starting at `i` (skipping further attributes):
/// through the matching `}` of its first brace, or at its terminating `;`.
fn item_end_line(toks: &[Tok], mut i: usize) -> Option<u32> {
    // Skip stacked attributes between the test gate and the item.
    while i + 1 < toks.len() && toks[i].is_punct("#") && toks[i + 1].is_punct("[") {
        let (_, after) = attr_contents(toks, i + 1);
        i = after;
    }
    let mut depth = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct("{") {
            depth += 1;
        } else if t.is_punct("}") {
            depth -= 1;
            if depth == 0 {
                return Some(t.line);
            }
        } else if t.is_punct(";") && depth == 0 {
            return Some(t.line);
        }
        i += 1;
    }
    toks.last().map(|t| t.line)
}

// ---------------------------------------------------------------------------
// secret-debug
// ---------------------------------------------------------------------------

fn rule_secret_debug(rel: &str, toks: &[Tok], policy: &Policy) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut i = 0;
    while i + 2 < toks.len() {
        if toks[i].is_punct("#") && toks[i + 1].is_punct("[") && toks[i + 2].is_ident("derive") {
            let derive_line = toks[i].line;
            let (derived, mut j) = attr_contents(toks, i + 1);
            // Skip further attributes/visibility down to the item keyword.
            loop {
                if j + 1 < toks.len() && toks[j].is_punct("#") && toks[j + 1].is_punct("[") {
                    let (_, after) = attr_contents(toks, j + 1);
                    j = after;
                } else if j < toks.len()
                    && (toks[j].is_ident("pub")
                        || toks[j].is_punct("(")
                        || toks[j].is_punct(")")
                        || toks[j].is_ident("crate")
                        || toks[j].is_ident("super"))
                {
                    j += 1;
                } else {
                    break;
                }
            }
            let is_type_item = j < toks.len()
                && (toks[j].is_ident("struct")
                    || toks[j].is_ident("enum")
                    || toks[j].is_ident("union"));
            if is_type_item && j + 1 < toks.len() && toks[j + 1].kind == TokKind::Ident {
                let name = &toks[j + 1].text;
                if policy.secret_types.iter().any(|t| t == name) {
                    for bad in ["Debug", "Display"] {
                        if derived.iter().any(|d| d == bad && d != "derive") {
                            out.push(Finding::new(
                                rel,
                                derive_line,
                                toks[i].col,
                                Rule::SecretDebug,
                                format!(
                                    "secret type `{name}` derives `{bad}`; write a redacting \
                                     manual impl (print type name and length only)"
                                ),
                            ));
                        }
                    }
                }
            }
            i = j;
            continue;
        }
        i += 1;
    }
    out
}

// ---------------------------------------------------------------------------
// secret-cmp
// ---------------------------------------------------------------------------

fn rule_secret_cmp(rel: &str, toks: &[Tok], policy: &Policy) -> Vec<Finding> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !(t.is_punct("==") || t.is_punct("!=")) {
            continue;
        }
        let mut idents = operand_idents_left(toks, i);
        idents.extend(operand_idents_right(toks, i));
        if let Some(secret) = idents
            .iter()
            .find(|id| policy.secret_idents.iter().any(|s| s == *id))
        {
            out.push(Finding::new(
                rel,
                t.line,
                t.col,
                Rule::SecretCmp,
                format!(
                    "`{}` on secret value `{secret}`; use `shs_crypto::ct::eq` \
                     (or `Key::ct_eq`) for content comparison",
                    t.text
                ),
            ));
        }
    }
    out
}

/// Identifiers in the primary expression to the left of operator index `op`.
fn operand_idents_left(toks: &[Tok], op: usize) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = op;
    while i > 0 {
        i -= 1;
        let t = &toks[i];
        match t.kind {
            TokKind::Ident => out.push(t.text.clone()),
            TokKind::Number | TokKind::Str | TokKind::Char | TokKind::Lifetime => {}
            TokKind::Punct => match t.text.as_str() {
                ")" | "]" => {
                    // Skip the balanced group backwards.
                    let close = t.text.clone();
                    let open = if close == ")" { "(" } else { "[" };
                    let mut depth = 1usize;
                    while i > 0 && depth > 0 {
                        i -= 1;
                        if toks[i].is_punct(&close) {
                            depth += 1;
                        } else if toks[i].is_punct(open) {
                            depth -= 1;
                        } else if toks[i].kind == TokKind::Ident {
                            out.push(toks[i].text.clone());
                        }
                    }
                }
                "." | "::" | "&" | "*" | "?" => {}
                _ => break,
            },
        }
    }
    out
}

/// Identifiers in the primary expression to the right of operator index `op`.
fn operand_idents_right(toks: &[Tok], op: usize) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = op + 1;
    while i < toks.len() {
        let t = &toks[i];
        match t.kind {
            TokKind::Ident => out.push(t.text.clone()),
            TokKind::Number | TokKind::Str | TokKind::Char | TokKind::Lifetime => {}
            TokKind::Punct => match t.text.as_str() {
                "(" | "[" => {
                    let open = t.text.clone();
                    let close = if open == "(" { ")" } else { "]" };
                    let mut depth = 1usize;
                    while i + 1 < toks.len() && depth > 0 {
                        i += 1;
                        if toks[i].is_punct(&open) {
                            depth += 1;
                        } else if toks[i].is_punct(close) {
                            depth -= 1;
                        } else if toks[i].kind == TokKind::Ident {
                            out.push(toks[i].text.clone());
                        }
                    }
                }
                "." | "::" | "&" | "*" | "?" => {}
                _ => break,
            },
        }
        i += 1;
    }
    out
}

// ---------------------------------------------------------------------------
// secret-fmt
// ---------------------------------------------------------------------------

fn rule_secret_fmt(rel: &str, toks: &[Tok], policy: &Policy) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut i = 0;
    while i + 2 < toks.len() {
        let is_sink = toks[i].kind == TokKind::Ident
            && policy.sink_macros.iter().any(|m| m == &toks[i].text)
            && toks[i + 1].is_punct("!")
            && (toks[i + 2].is_punct("(")
                || toks[i + 2].is_punct("[")
                || toks[i + 2].is_punct("{"));
        if !is_sink {
            i += 1;
            continue;
        }
        let sink = toks[i].text.clone();
        let (line, col) = (toks[i].line, toks[i].col);
        let open = toks[i + 2].text.clone();
        let close = match open.as_str() {
            "(" => ")",
            "[" => "]",
            _ => "}",
        };
        let mut depth = 1usize;
        let mut j = i + 3;
        let mut leaked: Vec<String> = Vec::new();
        while j < toks.len() && depth > 0 {
            let t = &toks[j];
            if t.is_punct(&open) {
                depth += 1;
            } else if t.is_punct(close) {
                depth -= 1;
            } else if t.kind == TokKind::Ident
                && policy.secret_idents.iter().any(|s| s == &t.text)
                && !leaked.contains(&t.text)
            {
                leaked.push(t.text.clone());
            }
            j += 1;
        }
        for id in leaked {
            out.push(Finding::new(
                rel,
                line,
                col,
                Rule::SecretFmt,
                format!("secret value `{id}` flows into `{sink}!` sink; redact or remove it"),
            ));
        }
        i = j;
    }
    out
}

// ---------------------------------------------------------------------------
// panic-path
// ---------------------------------------------------------------------------

const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

fn rule_panic_path(rel: &str, toks: &[Tok]) -> Vec<Finding> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let is_method = (t.text == "unwrap" || t.text == "expect")
            && i > 0
            && toks[i - 1].is_punct(".")
            && i + 1 < toks.len()
            && toks[i + 1].is_punct("(");
        let is_macro = PANIC_MACROS.contains(&t.text.as_str())
            && i + 1 < toks.len()
            && toks[i + 1].is_punct("!");
        if is_method {
            out.push(Finding::new(
                rel,
                t.line,
                t.col,
                Rule::PanicPath,
                format!(
                    "`.{}()` on a protocol path; return a structured error \
                     (`CoreError`/`AbortReason`) instead of panicking",
                    t.text
                ),
            ));
        } else if is_macro {
            out.push(Finding::new(
                rel,
                t.line,
                t.col,
                Rule::PanicPath,
                format!(
                    "`{}!` on a protocol path; protocol code must fail \
                     structurally, not panic",
                    t.text
                ),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// index-path
// ---------------------------------------------------------------------------

fn rule_index_path(rel: &str, toks: &[Tok]) -> Vec<Finding> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !t.is_punct("[") || i == 0 {
            continue;
        }
        let prev = &toks[i - 1];
        let is_index = prev.kind == TokKind::Ident && !is_keyword(&prev.text)
            || prev.is_punct(")")
            || prev.is_punct("]");
        if is_index {
            out.push(Finding::new(
                rel,
                t.line,
                t.col,
                Rule::IndexPath,
                "indexing can panic on a decoder path; use `.get(..)` and return \
                 a structured error"
                    .to_string(),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// factory-dispatch
// ---------------------------------------------------------------------------

/// Flags `match` expressions and `matches!` invocations that dispatch on a
/// factory-owned configuration enum (a `Enum::Variant` path appears in the
/// expression) anywhere outside the registered factory module(s). Keeping
/// all backend construction in one file is what lets a new instantiation
/// be added by touching exactly one dispatch site.
fn rule_factory_dispatch(rel: &str, toks: &[Tok], policy: &Policy) -> Vec<Finding> {
    let is_enum = |i: usize| -> Option<String> {
        let t = &toks[i];
        (t.kind == TokKind::Ident
            && policy.factory_enums.iter().any(|e| e == &t.text)
            && i + 1 < toks.len()
            && toks[i + 1].is_punct("::"))
        .then(|| t.text.clone())
    };
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_ident("match") {
            // The match body is the first `{` outside any bracket group in
            // the scrutinee; scan the body for `Enum::Variant` paths.
            let mut j = i + 1;
            let mut nest = 0usize;
            while j < toks.len() {
                let tj = &toks[j];
                if tj.is_punct("(") || tj.is_punct("[") {
                    nest += 1;
                } else if tj.is_punct(")") || tj.is_punct("]") {
                    nest = nest.saturating_sub(1);
                } else if tj.is_punct("{") && nest == 0 {
                    break;
                }
                j += 1;
            }
            let mut depth = 0usize;
            let mut hit: Option<String> = None;
            while j < toks.len() {
                let tj = &toks[j];
                if tj.is_punct("{") {
                    depth += 1;
                } else if tj.is_punct("}") {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                } else if hit.is_none() {
                    hit = is_enum(j);
                }
                j += 1;
            }
            if let Some(name) = hit {
                out.push(Finding::new(
                    rel,
                    t.line,
                    t.col,
                    Rule::FactoryDispatch,
                    format!(
                        "`match` dispatches on `{name}` outside the factory module; \
                         construct backends through the factory instead"
                    ),
                ));
                // The whole expression is one finding; skip past it.
                i = j;
                continue;
            }
            i += 1;
            continue;
        }
        let is_matches_macro = t.is_ident("matches")
            && i + 2 < toks.len()
            && toks[i + 1].is_punct("!")
            && toks[i + 2].is_punct("(");
        if is_matches_macro {
            let mut depth = 1usize;
            let mut j = i + 3;
            let mut hit: Option<String> = None;
            while j < toks.len() && depth > 0 {
                if toks[j].is_punct("(") {
                    depth += 1;
                } else if toks[j].is_punct(")") {
                    depth -= 1;
                } else if hit.is_none() {
                    hit = is_enum(j);
                }
                j += 1;
            }
            if let Some(name) = hit {
                out.push(Finding::new(
                    rel,
                    t.line,
                    t.col,
                    Rule::FactoryDispatch,
                    format!(
                        "`matches!` dispatches on `{name}` outside the factory module; \
                         construct backends through the factory instead"
                    ),
                ));
            }
            i = j;
            continue;
        }
        i += 1;
    }
    out
}

// ---------------------------------------------------------------------------
// vartime-usage
// ---------------------------------------------------------------------------

/// Flags calls to registered variable-time exponentiation kernels
/// (`modpow_vartime`, `multi_exp_vartime`, …) anywhere outside the
/// allowlisted files. The vartime kernels' memory trace depends on the
/// exponent, so they are only safe on broadcast/public data — the
/// constant-trace kernels' definitions and the vetted verification
/// modules are allowlisted in the policy; everything else must use the
/// constant-trace kernels.
fn rule_vartime_usage(rel: &str, toks: &[Tok], policy: &Policy) -> Vec<Finding> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || !policy.vartime_fns.iter().any(|f| f == &t.text) {
            continue;
        }
        // A call: `name(` — not a definition (`fn name(`) and not a bare
        // mention in a path or doc.
        let is_call = i + 1 < toks.len() && toks[i + 1].is_punct("(");
        let is_def = i > 0 && toks[i - 1].is_ident("fn");
        if is_call && !is_def {
            out.push(Finding::new(
                rel,
                t.line,
                t.col,
                Rule::VartimeUsage,
                format!(
                    "variable-time kernel `{}` called outside the allowlisted \
                     public-data verification sites; use the constant-trace \
                     kernel, or add this file to rules.vartime-usage.paths \
                     with a review",
                    t.text
                ),
            ));
        }
    }
    out
}

/// Keywords that may directly precede `[` without it being an index
/// expression (`in [..]`, `return [..]`, …).
fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "in" | "return"
            | "break"
            | "if"
            | "else"
            | "match"
            | "while"
            | "as"
            | "mut"
            | "ref"
            | "move"
            | "box"
            | "dyn"
            | "impl"
            | "where"
            | "for"
            | "let"
            | "const"
            | "static"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn policy() -> Policy {
        Policy::parse(
            r#"
[secret]
types = ["Key", "JoinSecret"]
idents = ["k_prime", "tag", "key"]
[sinks]
macros = ["format", "println", "dbg"]
[rules.panic-path]
paths = ["proto.rs"]
[rules.index-path]
paths = ["proto.rs"]
"#,
        )
        .unwrap()
    }

    /// The token rules over one file, allow directives applied.
    fn finalized_tokens(rel: &str, src: &str, policy: &Policy) -> Vec<(Rule, u32)> {
        let lexed = lex(src);
        finalize(rel, &lexed, token_findings(rel, &lexed, policy))
            .into_iter()
            .map(|f| (f.rule, f.line))
            .collect()
    }

    fn findings(rel: &str, src: &str) -> Vec<(Rule, u32)> {
        finalized_tokens(rel, src, &policy())
    }

    #[test]
    fn derive_debug_on_secret_flagged() {
        let src = "#[derive(Clone, Debug)]\npub struct Key([u8; 32]);";
        assert_eq!(findings("a.rs", src), vec![(Rule::SecretDebug, 1)]);
        // Non-secret type: fine.
        let ok = "#[derive(Clone, Debug)]\npub struct Public([u8; 32]);";
        assert!(findings("a.rs", ok).is_empty());
        // Secret type without Debug: fine.
        let ok2 = "#[derive(Clone)]\npub struct Key([u8; 32]);";
        assert!(findings("a.rs", ok2).is_empty());
    }

    #[test]
    fn secret_eq_flagged() {
        assert_eq!(
            findings("a.rs", "fn f() { if tag == other { } }"),
            vec![(Rule::SecretCmp, 1)]
        );
        assert_eq!(
            findings("a.rs", "fn f() { let x = a.key != b; }"),
            vec![(Rule::SecretCmp, 1)]
        );
        assert!(findings("a.rs", "fn f() { if a.len() == b.len() { } }").is_empty());
    }

    #[test]
    fn secret_fmt_flagged() {
        assert_eq!(
            findings("a.rs", "fn f() { println!(\"{:?}\", k_prime); }"),
            vec![(Rule::SecretFmt, 1)]
        );
        assert!(findings("a.rs", "fn f() { println!(\"{}\", public); }").is_empty());
    }

    #[test]
    fn panic_and_index_scoped_by_path() {
        let src = "fn f(v: &[u8]) -> u8 { let x = v[0]; y.unwrap(); panic!(\"no\"); x }";
        let hits = findings("proto.rs", src);
        assert!(hits.contains(&(Rule::IndexPath, 1)));
        assert!(hits.iter().filter(|(r, _)| *r == Rule::PanicPath).count() == 2);
        // Out-of-scope file: silent.
        assert!(findings("other.rs", src).is_empty());
    }

    #[test]
    fn cfg_test_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n  fn f() { tag == x; v.unwrap(); }\n}";
        assert!(findings("proto.rs", src).is_empty());
        let src2 = "#[test]\nfn t() { tag == x; }";
        assert!(findings("a.rs", src2).is_empty());
        // cfg(not(test)) is NOT exempt.
        let src3 = "#[cfg(not(test))]\nmod m {\n  fn f() { tag == x; }\n}";
        assert_eq!(findings("a.rs", src3), vec![(Rule::SecretCmp, 3)]);
    }

    #[test]
    fn factory_dispatch_scoped_by_path() {
        let p = Policy::parse(
            r#"
[secret]
types = ["Key"]
idents = ["k_prime"]
[sinks]
macros = ["println"]
[rules.factory-dispatch]
enums = ["SchemeKind"]
paths = ["factory.rs"]
"#,
        )
        .unwrap();
        let hits = |rel: &str, src: &str| finalized_tokens(rel, src, &p);
        let m = "fn f(s: SchemeKind) -> u8 { match s { SchemeKind::A => 1, _ => 2 } }";
        assert_eq!(hits("other.rs", m), vec![(Rule::FactoryDispatch, 1)]);
        // The factory module itself is exempt.
        assert!(hits("factory.rs", m).is_empty());
        // matches! is also a dispatch.
        let mm = "fn g(s: SchemeKind) -> bool { matches!(s, SchemeKind::A) }";
        assert_eq!(hits("other.rs", mm), vec![(Rule::FactoryDispatch, 1)]);
        // Construction and matches on other enums are fine.
        assert!(hits("other.rs", "fn h() -> SchemeKind { SchemeKind::A }").is_empty());
        assert!(hits(
            "other.rs",
            "fn k(o: Option<u8>) -> u8 { match o { Some(x) => x, None => 0 } }"
        )
        .is_empty());
    }

    #[test]
    fn vartime_usage_scoped_by_path() {
        let p = Policy::parse(
            r#"
[secret]
types = ["Key"]
idents = ["k_prime"]
[sinks]
macros = ["println"]
[rules.vartime-usage]
fns = ["modpow_vartime", "multi_exp_vartime"]
paths = ["verify.rs"]
"#,
        )
        .unwrap();
        let hits = |rel: &str, src: &str| finalized_tokens(rel, src, &p);
        let call = "fn f() { let y = ctx.modpow_vartime(&b, &e); }";
        assert_eq!(hits("sign.rs", call), vec![(Rule::VartimeUsage, 1)]);
        // The allowlisted verification module is exempt.
        assert!(hits("verify.rs", call).is_empty());
        // Definitions of the kernel are not calls.
        let def = "pub fn modpow_vartime(e: &U) -> U { e.clone() }";
        assert!(hits("mont.rs", def).is_empty());
        // Mentions without a call (doc paths, imports) are fine.
        assert!(hits("sign.rs", "use mont::modpow_vartime;").is_empty());
        // Constant-time kernels are never flagged.
        assert!(hits("sign.rs", "fn f() { let y = ctx.modpow(&b, &e); }").is_empty());
    }

    #[test]
    fn allow_suppresses_with_reason() {
        let src =
            "fn f() { tag == x; } // lint:allow(secret-cmp) reason=\"public commitment bytes\"";
        assert!(findings("a.rs", src).is_empty());
        // Directive above the line also works.
        let src2 = "// lint:allow(secret-cmp) reason=\"vetted\"\nfn f() { tag == x; }";
        assert!(findings("a.rs", src2).is_empty());
    }

    #[test]
    fn allow_hygiene_enforced() {
        // No reason.
        let src = "fn f() { tag == x; } // lint:allow(secret-cmp)";
        assert_eq!(findings("a.rs", src), vec![(Rule::AllowHygiene, 1)]);
        // Unused.
        let src2 = "fn f() {} // lint:allow(secret-cmp) reason=\"stale\"";
        assert_eq!(findings("a.rs", src2), vec![(Rule::AllowHygiene, 1)]);
        // Unknown rule name.
        let src3 = "fn f() {} // lint:allow(secret-compare) reason=\"typo\"";
        assert_eq!(findings("a.rs", src3), vec![(Rule::AllowHygiene, 1)]);
    }

    #[test]
    fn multi_rule_allow_with_stale_name_flagged() {
        // secret-cmp earns its keep; secret-fmt suppresses nothing and is
        // itself a finding.
        let src = "fn f() { tag == x; } // lint:allow(secret-cmp,secret-fmt) reason=\"cmp vetted\"";
        let hits = findings("a.rs", src);
        assert_eq!(hits, vec![(Rule::AllowHygiene, 1)], "{hits:?}");
    }
}
