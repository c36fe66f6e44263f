//! Snapshot gate: the real workspace, linted with the real policy, is
//! clean. This is the tier-1 guarantee that the secret-hygiene lint stays
//! green; any new violation fails `cargo test` with the exact findings.

use shs_lint::Linter;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root exists")
        .to_path_buf()
}

/// One run, token rules and analyses together, reports no finding on the
/// workspace, parses it as fully as ever, and stays inside a 10 s
/// latency budget so pre-commit runs remain cheap.
#[test]
fn workspace_is_lint_clean_under_the_shipped_policy() {
    let linter = Linter::from_policy_file(&workspace_root().join("lint-policy.toml"))
        .expect("workspace policy parses");
    let t0 = Instant::now();
    let report = linter.lint_workspace().expect("workspace lints");
    let elapsed = t0.elapsed();

    assert!(
        report.files_scanned > 50,
        "suspiciously few files scanned ({}); scan roots misconfigured?",
        report.files_scanned
    );
    let rendered: Vec<String> = report.findings.iter().map(|f| f.render()).collect();
    assert!(
        report.clean(),
        "workspace has {} secret-hygiene finding(s):\n{}",
        rendered.len(),
        rendered.join("\n")
    );
    assert!(
        report.analysis.fns_parsed > 1000,
        "suspiciously few fns parsed ({}); syntax layer regressed?",
        report.analysis.fns_parsed
    );
    assert!(
        report.analysis.calls_resolved > 1000,
        "suspiciously few calls resolved ({}); call graph regressed?",
        report.analysis.calls_resolved
    );
    assert!(
        elapsed < Duration::from_secs(10),
        "lint run took {elapsed:?}, over the 10 s budget"
    );
}
