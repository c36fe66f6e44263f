//! `shs-lint` — secret-hygiene static analysis for the secret-handshakes
//! workspace.
//!
//! The GCD framework's anonymity and unobservability guarantees are only
//! as strong as the implementation's side channels: a timing-dependent
//! `==` on a MAC tag, a `Debug`-printed join secret, or a panic on a
//! protocol path de-anonymizes a participant even when the protocol math
//! is correct. This crate machine-checks the written policy in
//! `lint-policy.toml` on every PR. Every run executes the token rules
//! and the interprocedural analyses over one lexed workspace, then
//! applies one set of allow directives to their findings.
//!
//! **Token rules** (site-local, one linear scan per file):
//!
//! * **secret-debug** — registered secret types must not derive
//!   `Debug`/`Display`; redacting manual impls only.
//! * **secret-cmp** — no `==`/`!=` on secret values; comparisons route
//!   through `shs_crypto::ct`.
//! * **secret-fmt** — no secret value may flow into `format!`-family or
//!   log sinks.
//! * **panic-path** — no `unwrap()`/`expect()`/panicking macro on the
//!   protocol paths named by the policy.
//! * **index-path** — no panicking indexing on the decoder paths named by
//!   the policy.
//! * **factory-dispatch** — configuration enums dispatch only inside the
//!   factory module.
//! * **vartime-usage** — variable-time kernels only in allowlisted files.
//! * **allow-hygiene** — every `// lint:allow(<rule>) reason="…"`
//!   exception must carry a reason and suppress something under each
//!   rule it names, and every path a policy scope names must match a
//!   scanned file.
//!
//! **Interprocedural analyses** (a lightweight syntax layer
//! ([`syntax`]), a workspace call graph ([`graph`]), then dataflow):
//!
//! * **secret-taint** — policy-seeded secrets tracked through locals,
//!   calls, and returns to vartime kernels, format/panic sinks, and raw
//!   wire-encode paths ([`taint`]).
//! * **lock-order** / **send-under-lock** — the global mutex acquisition
//!   graph over the concurrency layers: cycles, recursive acquisition,
//!   and blocking channel ops under a live guard ([`locks`]).
//!
//! Analysis findings ride the same allow machinery as the token rules:
//! an inline `// lint:allow(<rule>) reason="…"` is the one way to accept
//! a finding, every rule it names must suppress a finding of that rule,
//! and CI holds the run at 0 findings. Everything is hand-rolled (lexer,
//! TOML-subset parser, JSON emitter) so the tool has zero dependencies,
//! consistent with the offline `shims/` policy of this workspace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod graph;
pub mod lexer;
pub mod locks;
pub mod policy;
pub mod report;
pub mod rules;
pub mod syntax;
pub mod taint;

pub use policy::{Policy, Rule};
pub use report::{AnalysisStats, Finding, Report};

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// A configured lint run rooted at the directory holding the policy file.
#[derive(Debug)]
pub struct Linter {
    policy: Policy,
    root: PathBuf,
    /// The policy file's name under `root`, and its text, so that a
    /// stale policy entry is reported at its own line.
    policy_name: String,
    policy_src: String,
}

impl Linter {
    /// Loads the policy at `policy_path`; its parent directory becomes the
    /// scan root.
    ///
    /// # Errors
    ///
    /// I/O or policy-syntax problems, as a printable message.
    pub fn from_policy_file(policy_path: &Path) -> Result<Linter, String> {
        let src = fs::read_to_string(policy_path)
            .map_err(|e| format!("cannot read {}: {e}", policy_path.display()))?;
        let policy = Policy::parse(&src)?;
        let root = policy_path
            .parent()
            .map(Path::to_path_buf)
            .unwrap_or_else(|| PathBuf::from("."));
        let policy_name = policy_path
            .file_name()
            .map_or_else(String::new, |n| n.to_string_lossy().into_owned());
        Ok(Linter {
            policy,
            root,
            policy_name,
            policy_src: src,
        })
    }

    /// Builds a linter from an already-parsed policy (used by tests).
    pub fn from_policy(policy: Policy, root: PathBuf) -> Linter {
        Linter {
            policy,
            root,
            policy_name: "lint-policy.toml".to_string(),
            policy_src: String::new(),
        }
    }

    /// The scan root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Lints every `.rs` file under the policy's scan roots, and reports,
    /// as `allow-hygiene`, every policy path entry that matches no
    /// scanned file.
    ///
    /// # Errors
    ///
    /// I/O problems, as a printable message.
    pub fn lint_workspace(&self) -> Result<Report, String> {
        let mut files = Vec::new();
        for dir in &self.policy.scan_roots {
            collect_rs_files(&self.root.join(dir), &mut files)?;
        }
        files.sort();
        let mut report = self.lint_files(&files)?;
        let scanned: Vec<String> = files
            .iter()
            .map(|f| self.relative_name(f))
            .filter(|rel| !self.policy.excluded(rel))
            .collect();
        report.findings.extend(self.stale_policy_paths(&scanned));
        sort_findings(&mut report.findings);
        Ok(report)
    }

    /// One finding per policy path entry that matches none of `scanned`,
    /// at the entry's line within its section of the policy file.
    fn stale_policy_paths(&self, scanned: &[String]) -> Vec<Finding> {
        let lines: Vec<&str> = self.policy_src.lines().collect();
        self.policy
            .unmatched_paths(scanned)
            .into_iter()
            .map(|(key, entry)| {
                let header = format!("[{}]", key.rsplit_once('.').map_or(key, |(s, _)| s));
                let quoted = format!("\"{entry}\"");
                let start = lines.iter().position(|l| l.trim() == header).unwrap_or(0);
                let line = lines
                    .iter()
                    .skip(start)
                    .position(|l| l.contains(&quoted))
                    .map_or(1, |i| start + i + 1);
                Finding::new(
                    &self.policy_name,
                    line as u32,
                    1,
                    Rule::AllowHygiene,
                    format!("`{key}` entry `{entry}` matches no scanned file"),
                )
            })
            .collect()
    }

    /// Lints an explicit set of files.
    ///
    /// # Errors
    ///
    /// I/O problems, as a printable message.
    pub fn lint_files(&self, files: &[PathBuf]) -> Result<Report, String> {
        let mut sources = Vec::new();
        for path in files {
            let rel = self.relative_name(path);
            if self.policy.excluded(&rel) {
                continue;
            }
            let src = fs::read_to_string(path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            sources.push((rel, src));
        }
        Ok(self.lint_sources(&sources))
    }

    /// Lints one file's source text under the given relative name (the
    /// single file is its own "workspace").
    pub fn lint_source(&self, rel: &str, src: &str) -> Vec<Finding> {
        self.lint_sources(&[(rel.to_string(), src.to_string())])
            .findings
    }

    /// The one pipeline: lex once, run the token rules and the
    /// analyses, merge per file, dedupe, then apply allow directives.
    fn lint_sources(&self, sources: &[(String, String)]) -> Report {
        let lexed: Vec<lexer::Lexed> = sources.iter().map(|(_, src)| lexer::lex(src)).collect();
        let mut raw: Vec<Vec<Finding>> = sources
            .iter()
            .zip(&lexed)
            .map(|((rel, _), lx)| rules::token_findings(rel, lx, &self.policy))
            .collect();

        let t0 = Instant::now();
        let syntaxes: Vec<syntax::FileSyntax> = sources
            .iter()
            .zip(&lexed)
            .map(|((rel, _), lx)| syntax::parse_file(rel, lx))
            .collect();
        let cg = graph::CallGraph::build(&syntaxes);
        let (taint_findings, tstats) = taint::analyze(&syntaxes, &cg, &self.policy);
        let (lock_findings, lstats) = locks::analyze(&syntaxes, &cg, &self.policy);
        for f in taint_findings.into_iter().chain(lock_findings) {
            if let Some(i) = sources.iter().position(|(rel, _)| rel == &f.file) {
                raw[i].push(f);
            }
        }
        let analysis = AnalysisStats {
            files_parsed: syntaxes.len(),
            fns_parsed: syntaxes.iter().map(|s| s.fns.len()).sum(),
            calls_total: cg.stats.calls,
            calls_resolved: cg.stats.resolved,
            calls_ambiguous: cg.stats.ambiguous,
            calls_unresolved: cg.stats.unknown,
            taint_seeds: tstats.seeds,
            tainted_fns: tstats.tainted_fns,
            lock_files: lstats.files_in_scope,
            lock_events: lstats.sync_events,
            lock_edges: lstats.edges,
            elapsed_ms: t0.elapsed().as_millis() as u64,
        };

        let mut report = Report {
            files_scanned: sources.len(),
            analysis,
            ..Report::default()
        };
        for ((rel, _), (lx, file_raw)) in sources.iter().zip(lexed.iter().zip(raw)) {
            report
                .findings
                .extend(rules::finalize(rel, lx, dedupe_colocated(file_raw)));
        }
        sort_findings(&mut report.findings);
        report
    }

    /// Root-relative, `/`-separated path used in reports and policy
    /// matching.
    fn relative_name(&self, path: &Path) -> String {
        let rel = path.strip_prefix(&self.root).unwrap_or(path);
        rel.components()
            .map(|c| c.as_os_str().to_string_lossy().into_owned())
            .collect::<Vec<_>>()
            .join("/")
    }
}

/// Report order: by file, then position.
fn sort_findings(findings: &mut [Finding]) {
    findings.sort_by(|a, b| (&a.file, a.line, a.col).cmp(&(&b.file, b.line, b.col)));
}

/// An interprocedural `secret-taint` finding at the same line and column
/// as a site-local `secret-fmt`/`vartime-usage` token finding is the same
/// sink call seen twice; keep the token finding (its message names the
/// exact identifier) and drop the duplicate, so one allow directive
/// covers the site. A taint finding at another sink on that line is a
/// different defect and stays. This runs before allow filtering.
fn dedupe_colocated(mut raw: Vec<Finding>) -> Vec<Finding> {
    let token_sites: Vec<(u32, u32)> = raw
        .iter()
        .filter(|f| matches!(f.rule, Rule::SecretFmt | Rule::VartimeUsage))
        .map(|f| (f.line, f.col))
        .collect();
    raw.retain(|f| f.rule != Rule::SecretTaint || !token_sites.contains(&(f.line, f.col)));
    raw
}

/// Recursively collects `.rs` files; a missing root directory is fine
/// (policies may list optional dirs like `examples`).
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return Ok(()),
    };
    for entry in entries {
        let entry = entry.map_err(|e| format!("walk {}: {e}", dir.display()))?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_on_source_text() {
        let policy = Policy::parse(
            r#"
[secret]
types = ["Key"]
idents = ["k_prime"]
[sinks]
macros = ["println"]
"#,
        )
        .unwrap();
        let linter = Linter::from_policy(policy, PathBuf::from("."));
        let bad = "fn f() { if k_prime == x { println!(\"{:?}\", k_prime); } }";
        let fs = linter.lint_source("m.rs", bad);
        assert_eq!(fs.len(), 2);
        assert!(linter.lint_source("m.rs", "fn f() {}").is_empty());
    }

    #[test]
    fn stale_policy_entry_is_reported_at_its_line_in_its_section() {
        let src = r#"
[secret]
types = ["Key"]
idents = ["k"]
[sinks]
macros = ["println"]
[rules.panic-path]
paths = ["gone.rs"]
[rules.lock-order]
paths = [
    "gone.rs",
]
"#;
        let linter = Linter {
            policy: Policy::parse(src).unwrap(),
            root: PathBuf::from("."),
            policy_name: "p.toml".to_string(),
            policy_src: src.to_string(),
        };
        let at: Vec<(String, u32)> = linter
            .stale_policy_paths(&["kept.rs".to_string()])
            .into_iter()
            .map(|f| (f.file, f.line))
            .collect();
        assert_eq!(at, [("p.toml".to_string(), 8), ("p.toml".to_string(), 11)]);
    }

    #[test]
    fn colocated_taint_and_token_findings_dedupe() {
        let policy = Policy::parse(
            r#"
[secret]
types = ["Key"]
idents = ["k_prime"]
[sinks]
macros = ["println"]
"#,
        )
        .unwrap();
        let linter = Linter::from_policy(policy, PathBuf::from("."));
        // `k_prime` is a param here, so the taint analysis sees it too;
        // the sink line must still yield exactly one finding.
        let bad = "fn f(k_prime: &Key) { println!(\"{:?}\", k_prime); }";
        let fs = linter.lint_source("m.rs", bad);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].rule, Rule::SecretFmt);
        // So the token rule's allow accepts the site, and naming the
        // folded rule as well is an idle name.
        let with = |allow: &str| {
            let src = format!(
                "fn f(k_prime: &Key) {{\n    // lint:allow({allow}) reason=\"vetted\"\n    \
                 println!(\"{{:?}}\", k_prime);\n}}"
            );
            linter.lint_source("m.rs", &src)
        };
        assert!(with("secret-fmt").is_empty());
        let fs = with("secret-fmt, secret-taint");
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!((fs[0].rule, fs[0].line), (Rule::AllowHygiene, 2));
        assert!(fs[0].message.contains("`secret-taint`"), "{fs:?}");
    }

    #[test]
    fn taint_at_another_sink_on_the_line_is_not_folded() {
        let policy = Policy::parse(
            r#"
[secret]
types = ["Key"]
idents = ["k_prime"]
[sinks]
macros = ["println"]
[taint]
wire-sinks = ["put_raw"]
"#,
        )
        .unwrap();
        let linter = Linter::from_policy(policy, PathBuf::from("."));
        let sink = "    w.put_raw(k_prime.as_bytes()); println!(\"{:?}\", k_prime);\n";
        let at = |src: &str| -> Vec<(Rule, u32, u32)> {
            let fs = linter.lint_source("m.rs", src);
            fs.iter().map(|f| (f.rule, f.line, f.col)).collect()
        };
        // The wire sink and the format sink are two defects on one line:
        // only the taint finding at `println!` itself is folded.
        let bare = format!("fn f(k_prime: &Key, w: &mut W) {{\n{sink}}}");
        assert_eq!(
            at(&bare),
            [(Rule::SecretTaint, 2, 7), (Rule::SecretFmt, 2, 36)]
        );
        // Accepting the format sink does not accept the wire leak.
        let allowed = format!(
            "fn f(k_prime: &Key, w: &mut W) {{\n    \
             // lint:allow(secret-fmt) reason=\"debug print, vetted\"\n{sink}}}"
        );
        assert_eq!(at(&allowed), [(Rule::SecretTaint, 3, 7)]);
    }

    #[test]
    fn interprocedural_finding_respects_allow() {
        let policy = Policy::parse(
            r#"
[secret]
types = ["Key"]
idents = ["k_prime"]
[sinks]
macros = ["println"]
[rules.vartime-usage]
fns = ["modpow_vartime"]
paths = ["m.rs"]
"#,
        )
        .unwrap();
        let linter = Linter::from_policy(policy, PathBuf::from("."));
        // vartime-usage is path-exempt in m.rs, but the *taint* rule is
        // not; the secret-taint finding must be allowable like any other.
        let bad = "fn f(k_prime: &U) { let y = c.modpow_vartime(&b, k_prime); }";
        let fs = linter.lint_source("m.rs", bad);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].rule, Rule::SecretTaint);
        let allowed = "fn f(k_prime: &U) {\n    // lint:allow(secret-taint) reason=\"blinded exponent, vetted\"\n    let y = c.modpow_vartime(&b, k_prime);\n}";
        assert!(linter.lint_source("m.rs", allowed).is_empty());
        // An analysis-rule allow that suppresses nothing is stale.
        let stale = "fn f(n: u64) -> u64 {\n    // lint:allow(secret-taint) reason=\"was a secret once\"\n    n + 1\n}";
        let fs = linter.lint_source("m.rs", stale);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!((fs[0].rule, fs[0].line), (Rule::AllowHygiene, 2));
        assert!(fs[0].message.starts_with("unused lint:allow"), "{fs:?}");
    }
}
