//! Snapshot gate: the real workspace, linted with the real policy, is
//! clean. This is the tier-1 guarantee that the secret-hygiene pass stays
//! green; any new violation fails `cargo test` with the exact findings.

use shs_lint::{Linter, Mode};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root exists")
        .to_path_buf()
}

fn workspace_linter() -> Linter {
    Linter::from_policy_file(&workspace_root().join("lint-policy.toml"))
        .expect("workspace policy parses")
}

#[test]
fn workspace_is_lint_clean_under_the_shipped_policy() {
    let report = workspace_linter()
        .lint_workspace()
        .expect("workspace lints");
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
}

/// The analysis pass alone reports no finding on the workspace, and
/// stays inside a 10 s latency budget so pre-commit runs remain cheap.
#[test]
fn analysis_pass_is_clean_within_budget() {
    let linter = workspace_linter();
    let t0 = Instant::now();
    let report = linter
        .lint_workspace_mode(Mode::Analysis)
        .expect("workspace lints");
    let elapsed = t0.elapsed();

    let rendered: Vec<String> = report.findings.iter().map(|f| f.render()).collect();
    assert!(
        report.clean(),
        "analysis pass has {} finding(s):\n{}",
        rendered.len(),
        rendered.join("\n")
    );

    let stats = report.analysis.expect("analysis pass ran");
    assert!(
        stats.fns_parsed > 1000,
        "suspiciously few fns parsed ({}); syntax layer regressed?",
        stats.fns_parsed
    );
    assert!(
        stats.calls_resolved > 1000,
        "suspiciously few calls resolved ({}); call graph regressed?",
        stats.calls_resolved
    );
    assert!(
        elapsed < Duration::from_secs(10),
        "analysis pass took {elapsed:?}, over the 10 s budget"
    );
}
