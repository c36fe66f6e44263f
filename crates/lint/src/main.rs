//! `shs-lint` CLI.
//!
//! ```text
//! shs-lint --workspace                  # both passes, everything under the policy root
//! shs-lint path/to/file.rs …           # lint specific files
//! shs-lint --workspace --tokens-only   # fast token rules only
//! shs-lint --workspace --analysis-only # interprocedural analyses only
//! shs-lint --workspace --json report.json
//! shs-lint --workspace --policy other-policy.toml
//! ```
//!
//! Any finding fails the run, in either pass. The one way to accept a
//! finding is an inline `// lint:allow(<rule>) reason="…"` at its site,
//! which the `allow-hygiene` rule audits.
//!
//! Exit codes: `0` clean (or `--help`, which prints the usage to
//! stdout), `1` findings, `2` usage or I/O error.

use shs_lint::{Linter, Mode};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workspace: bool,
    policy: Option<PathBuf>,
    json: Option<PathBuf>,
    quiet: bool,
    mode: Mode,
    files: Vec<PathBuf>,
}

fn usage() -> &'static str {
    "usage: shs-lint [--workspace] [--policy <lint-policy.toml>] \
     [--tokens-only | --analysis-only] [--json <out.json|->] [--quiet] \
     [files…]"
}

/// The parsed command line, or `None` when it asks for the usage.
fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        workspace: false,
        policy: None,
        json: None,
        quiet: false,
        mode: Mode::Full,
        files: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workspace" | "-w" => args.workspace = true,
            "--policy" => {
                args.policy = Some(PathBuf::from(
                    it.next().ok_or("--policy needs a path argument")?,
                ))
            }
            "--json" => {
                args.json = Some(PathBuf::from(
                    it.next().ok_or("--json needs a path argument (or `-`)")?,
                ))
            }
            "--tokens-only" => {
                if args.mode == Mode::Analysis {
                    return Err("--tokens-only conflicts with --analysis-only".to_string());
                }
                args.mode = Mode::Tokens;
            }
            "--analysis-only" => {
                if args.mode == Mode::Tokens {
                    return Err("--analysis-only conflicts with --tokens-only".to_string());
                }
                args.mode = Mode::Analysis;
            }
            "--quiet" | "-q" => args.quiet = true,
            "--help" | "-h" => return Ok(None),
            other if other.starts_with('-') => {
                return Err(format!("unknown flag `{other}`\n{}", usage()))
            }
            file => args.files.push(PathBuf::from(file)),
        }
    }
    if !args.workspace && args.files.is_empty() {
        return Err(format!("nothing to lint\n{}", usage()));
    }
    Ok(Some(args))
}

/// Finds `lint-policy.toml` in the current directory or any ancestor.
fn find_policy() -> Result<PathBuf, String> {
    let mut dir = std::env::current_dir().map_err(|e| format!("cwd: {e}"))?;
    loop {
        let candidate = dir.join("lint-policy.toml");
        if candidate.is_file() {
            return Ok(candidate);
        }
        if !dir.pop() {
            return Err(
                "no lint-policy.toml found in the current directory or any ancestor; \
                 pass --policy <path>"
                    .to_string(),
            );
        }
    }
}

fn run() -> Result<bool, String> {
    let Some(args) = parse_args()? else {
        println!("{}", usage());
        return Ok(true);
    };
    let policy_path = match &args.policy {
        Some(p) => p.clone(),
        None => find_policy()?,
    };
    let linter = Linter::from_policy_file(&policy_path)?;
    let report = if args.workspace {
        linter.lint_workspace_mode(args.mode)?
    } else {
        // Make explicit paths absolute so root-stripping yields stable
        // relative names.
        let files: Vec<PathBuf> = args
            .files
            .iter()
            .map(|f| {
                if f.is_absolute() {
                    f.clone()
                } else {
                    std::env::current_dir().unwrap_or_default().join(f)
                }
            })
            .collect();
        linter.lint_files_mode(&files, args.mode)?
    };

    if !args.quiet {
        for f in &report.findings {
            eprintln!("{}", f.render());
        }
        eprintln!(
            "shs-lint: {} file(s) scanned, {} finding(s)",
            report.files_scanned,
            report.findings.len()
        );
        if let Some(a) = &report.analysis {
            eprintln!(
                "shs-lint: analysis: {} fns in {} files, {}/{} calls resolved \
                 ({} ambiguous, {} external), {} taint seeds, {} lock events, {} ms",
                a.fns_parsed,
                a.files_parsed,
                a.calls_resolved,
                a.calls_total,
                a.calls_ambiguous,
                a.calls_unresolved,
                a.taint_seeds,
                a.lock_events,
                a.elapsed_ms
            );
        }
    }
    if let Some(json_path) = &args.json {
        let body = report.to_json();
        if json_path.as_os_str() == "-" {
            print!("{body}");
        } else {
            std::fs::write(json_path, body)
                .map_err(|e| format!("cannot write {}: {e}", json_path.display()))?;
        }
    }
    Ok(report.clean())
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("shs-lint: {msg}");
            ExitCode::from(2)
        }
    }
}
