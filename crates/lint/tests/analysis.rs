//! Integration tests for the interprocedural layer: the call graph over
//! real fixture files, the analyzer self-stats, and the `--tokens-only` /
//! `--analysis-only` split the CI job relies on.

use shs_lint::graph::{fn_def, CallGraph, Resolution};
use shs_lint::{lexer, syntax, Linter, Mode};
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixtures_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn linter() -> Linter {
    Linter::from_policy_file(&fixtures_root().join("policy.toml")).expect("fixture policy parses")
}

fn parse_fixture(name: &str) -> syntax::FileSyntax {
    let src = std::fs::read_to_string(fixtures_root().join(name)).expect("fixture readable");
    syntax::parse_file(name, &lexer::lex(&src))
}

// ---------------------------------------------------------------------------
// Call graph on real fixture files
// ---------------------------------------------------------------------------

#[test]
fn call_graph_resolves_fixture_helper_same_file() {
    let files = vec![
        parse_fixture("bad/taint_call.rs"),
        parse_fixture("good/taint_call.rs"),
    ];
    let g = CallGraph::build(&files);
    // `check` in the bad twin calls `exponent_of`; both twins define a
    // same-named helper, so same-file resolution must pick file 0.
    let (fi, ni, ci) = files
        .iter()
        .enumerate()
        .find_map(|(fi, f)| {
            f.fns.iter().enumerate().find_map(|(ni, d)| {
                (f.rel.starts_with("bad/") && d.name == "check").then(|| {
                    let ci = d
                        .calls
                        .iter()
                        .position(|c| c.callee == "exponent_of")
                        .expect("check calls exponent_of");
                    (fi, ni, ci)
                })
            })
        })
        .expect("bad/check found");
    let target = g.target((fi, ni), ci).expect("helper resolves uniquely");
    assert_eq!(target.0, fi, "same-file definition wins over the good twin");
    assert_eq!(fn_def(&files, target).name, "exponent_of");
}

#[test]
fn call_graph_marks_external_kernels_unknown() {
    let files = vec![parse_fixture("bad/taint_call.rs")];
    let g = CallGraph::build(&files);
    let def = files[0]
        .fns
        .iter()
        .enumerate()
        .find(|(_, d)| d.name == "check")
        .expect("check present");
    let ci = def
        .1
        .calls
        .iter()
        .position(|c| c.callee == "modpow_vartime")
        .expect("kernel call present");
    assert_eq!(
        g.resolution((0, def.0), ci),
        Resolution::Unknown,
        "modpow_vartime has no workspace definition"
    );
    assert!(g.stats.unknown >= 1);
}

#[test]
fn call_graph_sees_transitive_send_helper() {
    let files = vec![parse_fixture("bad/send_under_lock.rs")];
    let g = CallGraph::build(&files);
    assert_eq!(g.defs_named("notify").len(), 1);
    let (ni, def) = files[0]
        .fns
        .iter()
        .enumerate()
        .find(|(_, d)| d.name == "enqueue_via_helper")
        .expect("helper caller present");
    let ci = def
        .calls
        .iter()
        .position(|c| c.callee == "notify")
        .expect("notify call present");
    let target = g.target((0, ni), ci).expect("notify resolves");
    assert_eq!(fn_def(&files, target).name, "notify");
}

// ---------------------------------------------------------------------------
// Mode split and self-stats (what the CI job consumes)
// ---------------------------------------------------------------------------

#[test]
fn mode_split_partitions_rules_between_passes() {
    let tokens = linter().lint_workspace_mode(Mode::Tokens).unwrap();
    assert!(tokens.analysis.is_none(), "token pass carries no stats");
    assert!(tokens.findings.iter().all(|f| !f.rule.is_analysis()));

    // The analysis pass emits only analysis findings — allow-hygiene
    // belongs to the token job, and a token-rule allow must NOT be
    // reported stale just because tokens did not run here.
    let analysis = linter().lint_workspace_mode(Mode::Analysis).unwrap();
    assert!(analysis.findings.iter().all(|f| f.rule.is_analysis()));

    // Together the passes cover the full run. (They may overlap: a taint
    // finding colocated with a token finding is deduped only when both
    // passes run, so the sum can exceed the full count.)
    let full = linter().lint_workspace().unwrap();
    for f in &full.findings {
        let seen = |r: &shs_lint::Report| {
            r.findings
                .iter()
                .any(|g| g.file == f.file && g.line == f.line && g.rule == f.rule)
        };
        assert!(
            seen(&tokens) || seen(&analysis),
            "full-run finding missing from both split passes: {}",
            f.render()
        );
    }
    assert!(tokens.findings.len() + analysis.findings.len() >= full.findings.len());
}

#[test]
fn analyzer_self_stats_reflect_the_fixture_tree() {
    let report = linter().lint_workspace_mode(Mode::Analysis).unwrap();
    let a = report.analysis.expect("analysis pass ran");
    assert_eq!(a.files_parsed, report.files_scanned);
    assert!(a.fns_parsed > 0);
    assert_eq!(
        a.calls_total,
        a.calls_resolved + a.calls_ambiguous + a.calls_unresolved
    );
    assert!(a.taint_seeds > 0, "secret params must seed taint");
    assert!(a.lock_events > 0, "lock fixtures must produce events");
    assert!(a.lock_edges > 0, "lock cycle fixture must produce edges");

    let json = report.to_json();
    for key in [
        "\"analysis\"",
        "\"fns_parsed\"",
        "\"calls_resolved\"",
        "\"taint_seeds\"",
        "\"lock_edges\"",
        "\"elapsed_ms\"",
    ] {
        assert!(json.contains(key), "JSON report lacks {key}:\n{json}");
    }
}

// ---------------------------------------------------------------------------
// Binary: the CI steps' contract
// ---------------------------------------------------------------------------

/// CI runs each pass as its own step with `--json`. Either pass fails on
/// any finding and still writes its report for the artifact upload; an
/// inline allow is the only way to accept a finding, so the CLI takes no
/// findings file.
#[test]
fn binary_each_pass_fails_on_any_finding_and_takes_no_baseline() {
    let lint = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_shs-lint"))
            .arg("--policy")
            .arg(fixtures_root().join("policy.toml"))
            .arg("--workspace")
            .args(args)
            .output()
            .expect("binary runs")
    };
    for (pass, rules) in [
        ("--tokens-only", ["secret-cmp", "panic-path"]),
        ("--analysis-only", ["secret-taint", "lock-order"]),
    ] {
        let out = lint(&[pass, "--json", "-"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{pass}: {stderr}");
        let json = String::from_utf8_lossy(&out.stdout);
        for rule in rules {
            assert!(stderr.contains(&format!("[{rule}]")), "{pass}: {stderr}");
            assert!(
                json.contains(&format!("\"rule\": \"{rule}\"")),
                "{pass}: {json}"
            );
        }
    }

    let out = lint(&["--analysis-only", "--baseline", "x"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag `--baseline`"), "{stderr}");
    assert!(
        !stderr.contains("baseline <"),
        "usage lists a baseline flag: {stderr}"
    );
}

/// `--help` and `-h` are requests, not errors: the usage goes to stdout
/// and the run exits 0. A flag the CLI does not know still exits 2.
#[test]
fn binary_help_prints_the_usage_to_stdout_and_exits_zero() {
    let lint = |arg: &str| {
        Command::new(env!("CARGO_BIN_EXE_shs-lint"))
            .arg(arg)
            .output()
            .expect("binary runs")
    };
    for flag in ["--help", "-h"] {
        let out = lint(flag);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{flag}");
        assert!(stdout.starts_with("usage: shs-lint"), "{flag}: {stdout}");
        assert!(out.stderr.is_empty(), "{flag} writes to stderr");
    }
    let out = lint("--no-such-flag");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag `--no-such-flag`"), "{stderr}");
}
