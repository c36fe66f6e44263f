//! Shared helpers for the benchmark harness: deterministic fixtures,
//! a wall-clock timer and host metadata, plus the paper's experiments
//! ([`paper`]) and the table type they print through ([`table`]). See
//! `EXPERIMENTS.md` at the repository root for the experiment index.

pub mod paper;
pub mod table;

use rand::RngCore;
use shs_core::{GroupAuthority, Member, SchemeKind};
use shs_crypto::drbg::HmacDrbg;

/// Deterministic RNG for an experiment.
pub fn rng(label: &str) -> HmacDrbg {
    HmacDrbg::from_seed(label.as_bytes())
}

/// A test-preset group with `n` fully-updated members.
pub fn group(
    scheme: SchemeKind,
    n: usize,
    rng: &mut impl RngCore,
) -> (GroupAuthority, Vec<Member>) {
    shs_core::fixtures::group_with_members(scheme, n, rng).expect("bench fixture")
}

/// Arithmetic mean of a u64 slice.
pub fn mean(xs: &[u64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<u64>() as f64 / xs.len() as f64
}

/// Wall-clock helper returning (elapsed-seconds, result).
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = std::time::Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// The CPU model the benchmark ran on, from `/proc/cpuinfo` where
/// available, `"unknown"` elsewhere — numbers without the host they
/// were measured on are not comparable across baselines.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .filter(|m| !m.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// A `"host"` JSON object fragment (hand-rolled; the offline build has
/// no serde_json) recording where the numbers came from: CPU model,
/// logical CPU count, OS, and the worker count the harness used.
pub fn host_json(workers: usize) -> String {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{ \"cpu_model\": \"{}\", \"cpus\": {}, \"os\": \"{}\", \"workers\": {} }}",
        cpu_model().replace('"', "'"),
        cpus,
        std::env::consts::OS,
        workers
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_works() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2, 4]), 3.0);
    }
}
