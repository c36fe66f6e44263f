//! The deterministic section — modexp counts, wire bytes, exchanges,
//! attempts, re-formations, rekey bytes — repeats exactly across two
//! runs of one seed, and every run passes its correctness gate.

use std::process::Command;

/// Runs a short benchmark and returns its deterministic section.
fn deterministic(workload: &str, seed: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            seed,
            "--seconds",
            "2",
            "--trace",
            "0",
        ])
        .output()
        .expect("the benchmark starts");
    assert!(
        out.status.success(),
        "{workload} exited with {}",
        out.status
    );
    let text = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = text.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\": true"), "{workload}: {last}");
    text.lines()
        .find(|l| l.starts_with("{\"deterministic\""))
        .expect("a deterministic section")
        .to_string()
}

fn repeats(workload: &str) {
    let first = deterministic(workload, "7");
    assert_eq!(
        first,
        deterministic(workload, "7"),
        "{workload} differs across runs"
    );
}

#[test]
fn hs_small_m8_repeats() {
    repeats("hs_small_m8");
}

#[test]
fn svc_mixed_m3_repeats() {
    repeats("svc_mixed_m3");
}

#[test]
fn churn_m3_repeats() {
    repeats("churn_m3");
}
