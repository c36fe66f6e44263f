//! Fixture suite: every rule has a positive (bad/) and negative (good/)
//! fixture under `tests/fixtures/`, linted with the fixture policy, with
//! the exact expected findings asserted. The `shs-lint` binary itself is
//! exercised for exit codes and report formats via `CARGO_BIN_EXE_shs-lint`.

use shs_lint::{Linter, Policy, Rule};
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixtures_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn linter() -> Linter {
    Linter::from_policy_file(&fixtures_root().join("policy.toml")).expect("fixture policy parses")
}

/// Findings for one fixture file as `(rule, line)` pairs.
fn lint_one(name: &str) -> Vec<(Rule, u32)> {
    let report = linter()
        .lint_files(&[fixtures_root().join(name)])
        .expect("fixture lints");
    report
        .findings
        .into_iter()
        .map(|f| (f.rule, f.line))
        .collect()
}

#[test]
fn secret_debug_fixture_pair() {
    assert_eq!(
        lint_one("bad/secret_debug.rs"),
        vec![(Rule::SecretDebug, 3)]
    );
    assert_eq!(lint_one("good/secret_debug.rs"), vec![]);
}

#[test]
fn secret_cmp_fixture_pair() {
    assert_eq!(lint_one("bad/secret_cmp.rs"), vec![(Rule::SecretCmp, 4)]);
    assert_eq!(lint_one("good/secret_cmp.rs"), vec![]);
}

#[test]
fn secret_fmt_fixture_pair() {
    assert_eq!(lint_one("bad/secret_fmt.rs"), vec![(Rule::SecretFmt, 4)]);
    assert_eq!(lint_one("good/secret_fmt.rs"), vec![]);
}

#[test]
fn panic_path_fixture_pair() {
    assert_eq!(
        lint_one("bad/panic_path.rs"),
        vec![(Rule::PanicPath, 4), (Rule::PanicPath, 5)]
    );
    assert_eq!(lint_one("good/panic_path.rs"), vec![]);
}

#[test]
fn index_path_fixture_pair() {
    assert_eq!(lint_one("bad/index_path.rs"), vec![(Rule::IndexPath, 4)]);
    assert_eq!(lint_one("good/index_path.rs"), vec![]);
}

#[test]
fn factory_dispatch_fixture_pair() {
    assert_eq!(
        lint_one("bad/factory_dispatch.rs"),
        vec![(Rule::FactoryDispatch, 9)]
    );
    // The good twin contains the same match but is registered as the
    // factory module, so it is exempt.
    assert_eq!(lint_one("good/factory_dispatch.rs"), vec![]);
}

#[test]
fn vartime_usage_fixture_pair() {
    assert_eq!(
        lint_one("bad/vartime_usage.rs"),
        vec![(Rule::VartimeUsage, 5)]
    );
    // The good twin calls the same kernel but is a registered
    // verification site (and defines the kernel, which is not a call).
    assert_eq!(lint_one("good/vartime_usage.rs"), vec![]);
}

#[test]
fn taint_through_call_fixture_pair() {
    // The bad twin is a *vetted* vartime file (the token rule is silent);
    // only interprocedural taint catches the secret exponent arriving
    // through the helper.
    assert_eq!(lint_one("bad/taint_call.rs"), vec![(Rule::SecretTaint, 15)]);
    assert_eq!(lint_one("good/taint_call.rs"), vec![]);
}

#[test]
fn taint_through_return_fixture_pair() {
    assert_eq!(
        lint_one("bad/taint_return.rs"),
        vec![(Rule::SecretTaint, 12)]
    );
    assert_eq!(lint_one("good/taint_return.rs"), vec![]);
}

#[test]
fn lock_cycle_fixture_pair() {
    let findings = lint_one("bad/lock_cycle.rs");
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].0, Rule::LockOrder);
    assert_eq!(lint_one("good/lock_cycle.rs"), vec![]);
}

#[test]
fn send_under_lock_fixture_pair() {
    // Direct send under the guard, the transitive variant through
    // `notify`, and a guard bound through `unwrap_or_else`.
    assert_eq!(
        lint_one("bad/send_under_lock.rs"),
        vec![
            (Rule::SendUnderLock, 10),
            (Rule::SendUnderLock, 20),
            (Rule::SendUnderLock, 25)
        ]
    );
    assert_eq!(lint_one("good/send_under_lock.rs"), vec![]);
}

#[test]
fn allow_hygiene_fixture_pair() {
    // Missing reason, stale directive, unknown rule name — one finding
    // each; the suppressed secret-cmp on line 4 must NOT reappear.
    assert_eq!(
        lint_one("bad/allow_hygiene.rs"),
        vec![
            (Rule::AllowHygiene, 3),
            (Rule::AllowHygiene, 6),
            (Rule::AllowHygiene, 9),
        ]
    );
    assert_eq!(lint_one("good/allow_hygiene.rs"), vec![]);
}

#[test]
fn policy_path_matching_no_scanned_file_is_reported() {
    let policy = Policy::parse(
        r#"
[secret]
types = ["Key"]
idents = ["k_prime"]
[sinks]
macros = ["println"]
[rules.panic-path]
paths = ["panic_path.rs", "deleted.rs"]
[rules.lock-order]
paths = ["good/*", "bad/*"]
[scan]
roots = ["good"]
"#,
    )
    .expect("policy parses");
    let report = Linter::from_policy(policy, fixtures_root())
        .lint_workspace()
        .expect("fixture tree lints");
    let stale: Vec<String> = report
        .findings
        .iter()
        .filter(|f| f.file == "lint-policy.toml")
        .map(|f| format!("[{}] {}", f.rule, f.message))
        .collect();
    assert_eq!(
        stale,
        [
            "[allow-hygiene] `rules.panic-path.paths` entry `deleted.rs` matches no scanned file",
            "[allow-hygiene] `rules.lock-order.paths` entry `bad/*` matches no scanned file",
        ]
    );
}

#[test]
fn fixture_workspace_totals() {
    let report = linter().lint_workspace().expect("fixture tree lints");
    assert_eq!(report.files_scanned, 24, "one bad + one good file per rule");
    assert_eq!(report.findings.len(), 17);
    // Every rule is represented by at least one finding.
    for rule in Rule::ALL {
        assert!(
            report.findings.iter().any(|f| f.rule == rule),
            "no fixture finding for rule `{rule}`"
        );
    }
    // All findings come from bad/, none from good/.
    assert!(report.findings.iter().all(|f| f.file.starts_with("bad/")));
}

#[test]
fn findings_render_as_file_line_col() {
    let report = linter().lint_workspace().expect("fixture tree lints");
    let rendered = report
        .findings
        .iter()
        .find(|f| f.file == "bad/secret_cmp.rs")
        .expect("secret-cmp finding present")
        .render();
    assert!(
        rendered.starts_with("bad/secret_cmp.rs:4:") && rendered.contains("[secret-cmp]"),
        "unexpected render: {rendered}"
    );
}

// ---------------------------------------------------------------------------
// Binary behaviour (exit codes, stderr, JSON report)
// ---------------------------------------------------------------------------

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_shs-lint"))
}

#[test]
fn binary_exits_nonzero_on_bad_fixtures_with_file_line_output() {
    let out = bin()
        .arg("--policy")
        .arg(fixtures_root().join("policy.toml"))
        .arg("--workspace")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("bad/secret_cmp.rs:4:"),
        "stderr lacks file:line finding:\n{stderr}"
    );
    assert!(stderr.contains("17 finding(s)"), "{stderr}");
}

#[test]
fn binary_exits_zero_on_good_fixtures() {
    let mut cmd = bin();
    cmd.arg("--policy").arg(fixtures_root().join("policy.toml"));
    for name in [
        "secret_debug",
        "secret_cmp",
        "secret_fmt",
        "panic_path",
        "index_path",
        "factory_dispatch",
        "vartime_usage",
        "allow_hygiene",
    ] {
        cmd.arg(fixtures_root().join(format!("good/{name}.rs")));
    }
    let out = cmd.output().expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn binary_emits_json_report_on_stdout() {
    let out = bin()
        .arg("--policy")
        .arg(fixtures_root().join("policy.toml"))
        .arg("--workspace")
        .arg("--quiet")
        .arg("--json")
        .arg("-")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.contains("\"tool\": \"shs-lint\""), "{json}");
    assert!(json.contains("\"finding_count\": 17"), "{json}");
    assert!(json.contains("\"rule\": \"secret-debug\""), "{json}");
}

#[test]
fn binary_exits_two_on_usage_errors() {
    let out = bin().arg("--no-such-flag").output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let out = bin()
        .arg("--policy")
        .arg("/nonexistent/policy.toml")
        .arg("--workspace")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
}
