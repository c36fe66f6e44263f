//! Suite-level assertions: the adversary schedules must land sessions
//! in *distinct* terminal-class mixes, and the whole suite must be
//! bit-reproducible.

use shs_sim::{run_suite, SuiteConfig};

/// Trace fingerprints of the `SuiteConfig::smoke(0xE20)` run, as
/// `bench_sim --smoke` prints them. Each folds every delivery, latency
/// draw, exchange cost, attempt, class and virtual duration of its
/// scenario, so a change here is a change in what the simulated
/// sessions did, not noise.
const SMOKE_FINGERPRINTS: [(&str, &str); 6] = [
    ("clean", "f1781a68cecb2041"),
    ("partition", "2a498797d25b5923"),
    ("slow-loris", "8d85063c88dc8309"),
    ("phase-crash", "16ee6b9601fde250"),
    ("sybil-flood", "9c011a770e7098d8"),
    ("epoch-churn", "8ab81c81a312a158"),
];

#[test]
fn adversaries_produce_distinct_class_histograms() {
    let report = run_suite(&SuiteConfig::smoke(0xE20));
    let fingerprints: Vec<(&str, String)> = std::iter::once(&report.capacity)
        .chain(&report.scenarios)
        .map(|r| (r.name, format!("{:016x}", r.fingerprint)))
        .collect();
    let pinned: Vec<(&str, String)> = SMOKE_FINGERPRINTS
        .iter()
        .map(|(name, fp)| (*name, fp.to_string()))
        .collect();
    assert_eq!(fingerprints, pinned, "smoke-suite trace fingerprints");
    let mut signatures = Vec::new();
    for r in &report.scenarios {
        let sig = r.classes.signature();
        println!(
            "{:<12} {:?} reformations={} faults={:?}",
            r.name, r.classes, r.reformations, r.faults
        );
        assert_eq!(
            r.sessions,
            r.classes.total(),
            "{}: every session classified",
            r.name
        );
        signatures.push((r.name, sig));
    }
    // The four required adversaries (partition, slow-loris, phase-crash,
    // sybil-flood) must be pairwise distinguishable by histogram alone.
    for i in 0..signatures.len() {
        for j in i + 1..signatures.len() {
            assert_ne!(
                signatures[i].1, signatures[j].1,
                "{} and {} are indistinguishable",
                signatures[i].0, signatures[j].0
            );
        }
    }
}

#[test]
fn same_seed_renders_byte_identical_json() {
    let a = run_suite(&SuiteConfig::smoke(7)).deterministic_json();
    let b = run_suite(&SuiteConfig::smoke(7)).deterministic_json();
    assert_eq!(a, b, "deterministic section must be byte-identical");
}
