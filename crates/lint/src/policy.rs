//! The written secret-hygiene policy (`lint-policy.toml`).
//!
//! The workspace is offline, so instead of a TOML crate this module parses
//! the small TOML subset the policy file actually uses: `[section]` and
//! `[section.sub]` headers, `key = "string"`, `key = 123`, `key = true`,
//! and `key = ["a", "b"]` arrays (single- or multi-line). That subset is
//! stable; anything outside it is a hard error so policy typos cannot
//! silently disable a rule.

use std::collections::BTreeMap;
use std::fmt;

/// The lint rules, in severity-then-name order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// `#[derive(Debug)]`/`Display` on a registered secret type.
    SecretDebug,
    /// `==`/`!=` touching a registered secret identifier.
    SecretCmp,
    /// A secret identifier flowing into a format/print/log sink macro.
    SecretFmt,
    /// `unwrap()`/`expect()`/panicking macro on a protocol path.
    PanicPath,
    /// Slice/array indexing (can panic) on a decoder path.
    IndexPath,
    /// A `match`/`matches!` dispatch on a factory-owned configuration
    /// enum outside the factory module.
    FactoryDispatch,
    /// A variable-time exponentiation kernel called outside the
    /// allowlisted public-data verification sites.
    VartimeUsage,
    /// Interprocedural: a policy-seeded secret value reaching a vartime
    /// kernel, a format/panic sink, or a raw wire-encode path.
    SecretTaint,
    /// Interprocedural: a cycle (or recursive acquisition) in the global
    /// mutex acquisition graph.
    LockOrder,
    /// Interprocedural: a blocking channel `send`/`recv` (directly or via
    /// a callee) while holding a mutex guard.
    SendUnderLock,
    /// A malformed or unused `lint:allow` directive, or a policy path
    /// entry that matches no scanned file.
    AllowHygiene,
}

impl Rule {
    /// All rules.
    pub const ALL: [Rule; 11] = [
        Rule::SecretDebug,
        Rule::SecretCmp,
        Rule::SecretFmt,
        Rule::PanicPath,
        Rule::IndexPath,
        Rule::FactoryDispatch,
        Rule::VartimeUsage,
        Rule::SecretTaint,
        Rule::LockOrder,
        Rule::SendUnderLock,
        Rule::AllowHygiene,
    ];

    /// The kebab-case name used in the policy file and allow directives.
    pub fn name(self) -> &'static str {
        match self {
            Rule::SecretDebug => "secret-debug",
            Rule::SecretCmp => "secret-cmp",
            Rule::SecretFmt => "secret-fmt",
            Rule::PanicPath => "panic-path",
            Rule::IndexPath => "index-path",
            Rule::FactoryDispatch => "factory-dispatch",
            Rule::VartimeUsage => "vartime-usage",
            Rule::SecretTaint => "secret-taint",
            Rule::LockOrder => "lock-order",
            Rule::SendUnderLock => "send-under-lock",
            Rule::AllowHygiene => "allow-hygiene",
        }
    }

    /// Parses a rule name.
    pub fn from_name(s: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.name() == s)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Parsed, validated policy.
#[derive(Debug, Clone)]
pub struct Policy {
    /// Type names whose contents are secret (Debug/Display must redact).
    pub secret_types: Vec<String>,
    /// Identifiers bound to secret values (exact match).
    pub secret_idents: Vec<String>,
    /// Macro names that are observable sinks (`format`, `println`, …).
    pub sink_macros: Vec<String>,
    /// Files (suffix match) the panic-path rule applies to.
    pub panic_paths: Vec<String>,
    /// Files (suffix match) the index-path rule applies to.
    pub index_paths: Vec<String>,
    /// Enum names only the factory module may `match` on.
    pub factory_enums: Vec<String>,
    /// Files (suffix match) exempt from the factory-dispatch rule —
    /// the factory module(s) themselves.
    pub factory_paths: Vec<String>,
    /// Function names that are variable-time kernels (their trace leaks
    /// the exponent); callable only from `vartime_paths`.
    pub vartime_fns: Vec<String>,
    /// Files (suffix match) exempt from the vartime-usage rule — the
    /// kernel definitions and the vetted public-data verification sites.
    pub vartime_paths: Vec<String>,
    /// Function names whose outputs are declassified for the taint
    /// analysis: keyed one-way primitives (`seal`, `encrypt`, `finalize`)
    /// whose outputs are published by protocol design, plus structural
    /// sanitizers (`len`, `is_empty`).
    pub taint_declassify: Vec<String>,
    /// Types the taint analysis seeds as secret *material* (strong
    /// taint). Defaults to `secret_types`; a workspace policy narrows
    /// this when the secret list includes container types (a group
    /// manager holds factors, but its public key is public).
    pub taint_seed_types: Vec<String>,
    /// Macro names the taint analysis treats as format sinks. Defaults
    /// to `sink_macros`; a workspace policy narrows this to the macros
    /// that actually print values (bare `assert!` stringifies the
    /// condition *expression*, not its value).
    pub taint_fmt_sinks: Vec<String>,
    /// Function names that write raw bytes onto the wire (`put_*`,
    /// frame encoders) — a taint sink class.
    pub wire_sink_fns: Vec<String>,
    /// Files (glob/suffix match) exempt from the wire-encode sink: the
    /// registered decoy and AEAD-bound construction sites.
    pub wire_allow_paths: Vec<String>,
    /// Files (glob/suffix match) the lock-order and send-under-lock
    /// analyses apply to.
    pub lock_paths: Vec<String>,
    /// Directories under the policy root to scan.
    pub scan_roots: Vec<String>,
    /// Path substrings to exclude from scanning.
    pub scan_exclude: Vec<String>,
}

impl Policy {
    /// Parses a policy file's contents.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line for anything outside
    /// the supported TOML subset or for missing required keys.
    pub fn parse(src: &str) -> Result<Policy, String> {
        let map = parse_toml_subset(src)?;
        let list = |key: &str| -> Vec<String> {
            match map.get(key) {
                Some(Value::List(v)) => v.clone(),
                _ => Vec::new(),
            }
        };
        let required = |key: &str| -> Result<Vec<String>, String> {
            match map.get(key) {
                Some(Value::List(v)) if !v.is_empty() => Ok(v.clone()),
                _ => Err(format!("lint-policy: missing required list `{key}`")),
            }
        };
        Ok(Policy {
            secret_types: required("secret.types")?,
            secret_idents: required("secret.idents")?,
            sink_macros: required("sinks.macros")?,
            panic_paths: list("rules.panic-path.paths"),
            index_paths: list("rules.index-path.paths"),
            factory_enums: list("rules.factory-dispatch.enums"),
            factory_paths: list("rules.factory-dispatch.paths"),
            vartime_fns: list("rules.vartime-usage.fns"),
            vartime_paths: list("rules.vartime-usage.paths"),
            taint_declassify: list("taint.declassify"),
            taint_seed_types: list("taint.seed-types"),
            taint_fmt_sinks: list("taint.fmt-sinks"),
            wire_sink_fns: list("taint.wire-sinks"),
            wire_allow_paths: list("taint.wire-allow-paths"),
            lock_paths: list("rules.lock-order.paths"),
            scan_roots: {
                let r = list("scan.roots");
                if r.is_empty() {
                    vec!["crates".into(), "src".into()]
                } else {
                    r
                }
            },
            scan_exclude: list("scan.exclude"),
        })
    }

    /// Does the panic-path rule apply to this (policy-root-relative) file?
    pub fn panic_rule_applies(&self, rel: &str) -> bool {
        path_listed(&self.panic_paths, rel)
    }

    /// Does the index-path rule apply to this file?
    pub fn index_rule_applies(&self, rel: &str) -> bool {
        path_listed(&self.index_paths, rel)
    }

    /// Does the factory-dispatch rule apply to this file? It applies
    /// everywhere *except* the registered factory module(s), and only
    /// when the policy names at least one factory-owned enum.
    pub fn factory_rule_applies(&self, rel: &str) -> bool {
        !self.factory_enums.is_empty() && !path_listed(&self.factory_paths, rel)
    }

    /// Does the vartime-usage rule apply to this file? It applies
    /// everywhere *except* the allowlisted kernel/verification files,
    /// and only when the policy names at least one vartime function.
    pub fn vartime_rule_applies(&self, rel: &str) -> bool {
        !self.vartime_fns.is_empty() && !path_listed(&self.vartime_paths, rel)
    }

    /// The taint seed-type list: `taint.seed-types` when written,
    /// otherwise all of `secret.types`.
    pub fn taint_seed_types(&self) -> &[String] {
        if self.taint_seed_types.is_empty() {
            &self.secret_types
        } else {
            &self.taint_seed_types
        }
    }

    /// The taint format-sink macro list: `taint.fmt-sinks` when written,
    /// otherwise all of `sinks.macros`.
    pub fn taint_fmt_sinks(&self) -> &[String] {
        if self.taint_fmt_sinks.is_empty() {
            &self.sink_macros
        } else {
            &self.taint_fmt_sinks
        }
    }

    /// Is this file exempt from the wire-encode taint sink — a registered
    /// decoy/AEAD construction site?
    pub fn wire_sink_exempt(&self, rel: &str) -> bool {
        path_listed(&self.wire_allow_paths, rel)
    }

    /// Do the lock-order/send-under-lock analyses apply to this file?
    pub fn lock_rule_applies(&self, rel: &str) -> bool {
        path_listed(&self.lock_paths, rel)
    }

    /// Is this file excluded from scanning entirely?
    pub fn excluded(&self, rel: &str) -> bool {
        self.scan_exclude.iter().any(|e| rel.contains(e.as_str()))
    }

    /// Path-scope entries that match none of `files` (policy-root-relative
    /// names), as `(key, entry)` in policy order. Such an entry scopes or
    /// exempts nothing: it names a deleted or moved file.
    pub fn unmatched_paths(&self, files: &[String]) -> Vec<(&'static str, &str)> {
        let scopes: [(&'static str, &[String]); 6] = [
            ("rules.panic-path.paths", &self.panic_paths),
            ("rules.index-path.paths", &self.index_paths),
            ("rules.factory-dispatch.paths", &self.factory_paths),
            ("rules.vartime-usage.paths", &self.vartime_paths),
            ("taint.wire-allow-paths", &self.wire_allow_paths),
            ("rules.lock-order.paths", &self.lock_paths),
        ];
        let mut out = Vec::new();
        for (key, list) in scopes {
            for p in list {
                if !files.iter().any(|f| path_matches(p, f)) {
                    out.push((key, p.as_str()));
                }
            }
        }
        out
    }
}

fn path_listed(list: &[String], rel: &str) -> bool {
    list.iter().any(|p| path_matches(p, rel))
}

/// A path matches a policy entry by exact match, suffix match, or glob
/// (`*` matches within one path segment, `**` across segments), so
/// workspace policies can cover whole modules (`crates/core/src/handshake/*`)
/// while fixture policies can still name bare file names.
fn path_matches(p: &str, rel: &str) -> bool {
    if p.contains('*') {
        glob_match(p, rel)
    } else {
        rel == p || rel.ends_with(p)
    }
}

/// Minimal glob matcher: `*` matches any run of non-`/` characters, `**`
/// matches any run including `/`. No character classes or `?`.
fn glob_match(pattern: &str, path: &str) -> bool {
    let p: Vec<char> = pattern.chars().collect();
    let s: Vec<char> = path.chars().collect();
    glob_rec(&p, 0, &s, 0)
}

fn glob_rec(p: &[char], mut pi: usize, s: &[char], mut si: usize) -> bool {
    while pi < p.len() {
        if p[pi] == '*' {
            let deep = pi + 1 < p.len() && p[pi + 1] == '*';
            let rest = if deep { pi + 2 } else { pi + 1 };
            // Try every split point, longest-suffix last.
            let mut k = si;
            loop {
                if glob_rec(p, rest, s, k) {
                    return true;
                }
                if k >= s.len() || (!deep && s[k] == '/') {
                    return false;
                }
                k += 1;
            }
        }
        if si >= s.len() || p[pi] != s[si] {
            return false;
        }
        pi += 1;
        si += 1;
    }
    si == s.len()
}

#[derive(Debug, Clone, PartialEq)]
enum Value {
    Str(String),
    Int(i64),
    Bool(bool),
    List(Vec<String>),
}

/// Parses the supported TOML subset into a `section.key -> value` map.
fn parse_toml_subset(src: &str) -> Result<BTreeMap<String, Value>, String> {
    let mut map = BTreeMap::new();
    let mut section = String::new();
    let mut lines = src.lines().enumerate().peekable();
    while let Some((idx, raw)) = lines.next() {
        let line = strip_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            let end = line
                .find(']')
                .ok_or_else(|| format!("lint-policy line {}: unterminated section", idx + 1))?;
            section = line[1..end].trim().to_string();
            continue;
        }
        let eq = line
            .find('=')
            .ok_or_else(|| format!("lint-policy line {}: expected `key = value`", idx + 1))?;
        let key = line[..eq].trim();
        let mut value = line[eq + 1..].trim().to_string();
        // Multi-line arrays: keep consuming until brackets balance.
        while value.starts_with('[') && !value.ends_with(']') {
            let (_, next) = lines
                .next()
                .ok_or_else(|| format!("lint-policy line {}: unterminated array", idx + 1))?;
            value.push(' ');
            value.push_str(strip_comment(next).trim());
        }
        let full_key = if section.is_empty() {
            key.to_string()
        } else {
            format!("{section}.{key}")
        };
        map.insert(full_key, parse_value(&value, idx + 1)?);
    }
    Ok(map)
}

/// Removes a `#` comment that is not inside a quoted string.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_value(v: &str, line: usize) -> Result<Value, String> {
    if v == "true" {
        return Ok(Value::Bool(true));
    }
    if v == "false" {
        return Ok(Value::Bool(false));
    }
    if let Some(stripped) = v.strip_prefix('"') {
        let end = stripped
            .find('"')
            .ok_or_else(|| format!("lint-policy line {line}: unterminated string"))?;
        return Ok(Value::Str(stripped[..end].to_string()));
    }
    if v.starts_with('[') {
        if !v.ends_with(']') {
            return Err(format!("lint-policy line {line}: unterminated array"));
        }
        let inner = &v[1..v.len() - 1];
        let mut items = Vec::new();
        for part in inner.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            match parse_value(part, line)? {
                Value::Str(s) => items.push(s),
                _ => {
                    return Err(format!(
                        "lint-policy line {line}: arrays may contain only strings"
                    ))
                }
            }
        }
        return Ok(Value::List(items));
    }
    v.parse::<i64>()
        .map(Value::Int)
        .map_err(|_| format!("lint-policy line {line}: unsupported value `{v}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# comment
version = 1

[secret]
types = ["Key", "JoinSecret"]  # trailing comment
idents = [
    "k_prime",
    "k_star",
]

[sinks]
macros = ["format", "println"]

[rules.panic-path]
paths = ["crates/core/src/wire.rs"]

[scan]
roots = ["crates"]
exclude = ["shims/", "tests/"]
"#;

    #[test]
    fn parses_sample() {
        let p = Policy::parse(SAMPLE).unwrap();
        assert_eq!(p.secret_types, vec!["Key", "JoinSecret"]);
        assert_eq!(p.secret_idents, vec!["k_prime", "k_star"]);
        assert!(p.panic_rule_applies("crates/core/src/wire.rs"));
        assert!(!p.panic_rule_applies("crates/core/src/codec.rs"));
        assert!(p.excluded("shims/rand/src/lib.rs"));
        assert!(p.excluded("crates/core/tests/x.rs"));
        assert!(!p.excluded("crates/core/src/handshake.rs"));
    }

    #[test]
    fn missing_required_key_is_error() {
        let err = Policy::parse("[secret]\ntypes = [\"Key\"]").unwrap_err();
        assert!(err.contains("secret.idents"), "{err}");
    }

    #[test]
    fn bad_syntax_is_error() {
        assert!(Policy::parse("key value").is_err());
        assert!(Policy::parse("[sec\nk = 1").is_err());
        assert!(Policy::parse("k = [1, 2]").is_err());
    }

    #[test]
    fn glob_paths_match_whole_modules() {
        let p = Policy::parse(
            r#"
[secret]
types = ["Key"]
idents = ["k_prime"]
[sinks]
macros = ["format"]
[rules.panic-path]
paths = ["crates/core/src/handshake/*", "crates/net/src/**"]
"#,
        )
        .unwrap();
        assert!(p.panic_rule_applies("crates/core/src/handshake/phase2.rs"));
        assert!(
            !p.panic_rule_applies("crates/core/src/handshake/deep/x.rs"),
            "single `*` must not cross a path segment"
        );
        assert!(p.panic_rule_applies("crates/net/src/tcp/frame.rs"));
        assert!(!p.panic_rule_applies("crates/core/src/codec.rs"));
    }

    #[test]
    fn glob_star_mid_pattern() {
        assert!(glob_match(
            "crates/*/src/pool.rs",
            "crates/core/src/pool.rs"
        ));
        assert!(!glob_match(
            "crates/*/src/pool.rs",
            "crates/a/b/src/pool.rs"
        ));
        assert!(glob_match("**/bin/*.rs", "crates/bench/src/bin/b.rs"));
        assert!(glob_match("a*c", "abc"));
        assert!(!glob_match("a*c", "ab"));
    }

    #[test]
    fn lock_and_wire_sections_parse() {
        let p = Policy::parse(
            r#"
[secret]
types = ["Key"]
idents = ["k_prime"]
[sinks]
macros = ["format"]
[taint]
declassify = ["seal"]
wire-sinks = ["put_bytes"]
wire-allow-paths = ["decoy.rs"]
[rules.lock-order]
paths = ["crates/net/src/serve/*"]
"#,
        )
        .unwrap();
        assert_eq!(p.taint_declassify, vec!["seal"]);
        assert!(p.wire_sink_exempt("crates/core/src/decoy.rs"));
        // Defaults: seed types fall back to secret.types, fmt sinks to
        // sinks.macros.
        assert_eq!(p.taint_seed_types(), ["Key".to_string()]);
        assert_eq!(p.taint_fmt_sinks(), ["format".to_string()]);
        assert!(p.lock_rule_applies("crates/net/src/serve/mod.rs"));
        assert!(!p.lock_rule_applies("crates/core/src/pool.rs"));
    }

    #[test]
    fn rule_names_roundtrip() {
        for r in Rule::ALL {
            assert_eq!(Rule::from_name(r.name()), Some(r));
        }
        assert_eq!(Rule::from_name("nope"), None);
    }
}
