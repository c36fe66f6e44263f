//! The repository benchmark: three long workloads driven from one
//! process through the crates' public APIs, a correctness gate, and a
//! traced mode that yields per-layer metrics. See README.md.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload hs_small_m8 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is the result object; the lines
//! before it are notes (tail percentile, host canary, tracing overhead)
//! and the deterministic section.

mod churn;
mod hs;
mod probe;
mod stats;
mod svc;
mod trace;

use stats::{median, Canary, Metrics, Window};
use std::process::{Command, ExitCode};
use std::time::Instant;

/// What a workload's measured window produced.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (sessions, plus churn windows).
    pub attempted: u64,
    /// Operations that ended outside their expected class or failed a
    /// correctness check.
    pub failed: u64,
    pub window: Window,
    /// Per-layer metrics (traced runs only).
    pub layers: Metrics,
    pub notes: Vec<String>,
    /// Quantities that must repeat exactly across runs of one seed, as
    /// a JSON object.
    pub deterministic: String,
}

const WORKLOADS: [&str; 3] = ["hs_small_m8", "svc_mixed_m3", "churn_m3"];

/// Every end-to-end metric, in output order. This list and
/// [`PER_LAYER`] are the authoritative ones: a test checks that
/// `BENCHMARK.json` names the same metrics with the same units.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("sessions_per_s", "1/s"),
    ("latency_p10_p90_mean_ms", "ms"),
    ("wire_bytes_per_session", "bytes"),
    ("peak_rss_mb", "MiB"),
];

/// Every per-layer metric, in output order. A workload that never
/// reaches a layer reports 0 for it (README.md lists which).
const PER_LAYER: [(&str, &str); 44] = [
    ("session.latency_p50_ms", "ms"),
    ("session.latency_mean_ms", "ms"),
    ("session.latency_tail_ms", "ms"),
    ("session.latency_tail_pct", "%"),
    ("session.count", "count"),
    ("bigint.modexp_per_session", "count"),
    ("bigint.modexp_us.256", "us"),
    ("bigint.modexp_us.512", "us"),
    ("bigint.modexp_us.768", "us"),
    ("bigint.modexp_us.1024", "us"),
    ("gsig.sign_ms", "ms"),
    ("gsig.verify_batch_ms", "ms"),
    ("gsig.sign_modexp", "count"),
    ("gsig.verify_batch_modexp", "count"),
    ("handshake.phase1_ms", "ms"),
    ("handshake.phase2_ms", "ms"),
    ("handshake.phase3_ms", "ms"),
    ("handshake.exchanges_per_session", "count"),
    ("handshake.retries_per_session", "count"),
    ("handshake.accounted_pct", "%"),
    ("net.exchange_us", "us"),
    ("net.faults_fired_per_session", "count"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.attempt_ms", "ms"),
    ("serve.backoff_ms", "ms"),
    ("serve.attempts_per_session", "count"),
    ("serve.reformations_per_session", "count"),
    ("serve.useful_ratio", "ratio"),
    ("serve.shed", "count"),
    ("cgkd.epoch_latency_ms", "ms"),
    ("cgkd.rekey_bytes_per_epoch", "bytes"),
    ("cgkd.apply_epoch_ms", "ms"),
    ("cgkd.member_sync_us", "us"),
    ("cgkd.rekey_items_per_epoch", "count"),
    ("gsig.crl_len_end", "count"),
    ("gen.lateness_p50_ms", "ms"),
    ("gen.lateness_max_ms", "ms"),
    ("host.ref_modexp_us", "us"),
    ("trace.overhead_pct", "%"),
    ("trace.sessions_traced", "count"),
    ("trace.sessions_untraced", "count"),
    ("trace.canary_start_us", "us"),
    ("trace.canary_mid_us", "us"),
    ("trace.canary_end_us", "us"),
];

/// Every workload runs a fixed number of sessions, sized from
/// `--seconds` at the rate of a typical run on the reference host, so the
/// work, every count and byte total, and the service registry's size
/// (which sets the peak RSS) are the same on every run of a seed.
pub fn planned(seconds: f64, per_s: f64) -> u64 {
    ((seconds * per_s).round() as u64).max(1)
}

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut setup_only) =
        (None, 1, 20.0_f64, false, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                workload = Some(*WORKLOADS.iter().find(|k| **k == w).ok_or(format!(
                    "unknown workload {w} (one of {})",
                    WORKLOADS.join(", ")
                ))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            "--setup-only" => setup_only = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !(seconds.is_finite() && seconds > 0.0 && seconds <= 3600.0) {
        return Err(format!("--seconds must lie in (0, 3600], got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        setup_only,
    })
}

enum Fixture {
    Hs(Box<hs::Fixture>),
    Svc(Box<svc::Fixture>),
    Churn(Box<churn::Fixture>),
}

/// Builds a workload's fixture; returns it with the seconds it took.
fn setup(workload: &str) -> Result<(Fixture, f64), String> {
    let t = Instant::now();
    let fixture = match workload {
        "hs_small_m8" => Fixture::Hs(Box::new(hs::setup()?)),
        "svc_mixed_m3" => Fixture::Svc(Box::new(svc::setup()?)),
        _ => Fixture::Churn(Box::new(churn::setup()?)),
    };
    Ok((fixture, t.elapsed().as_secs_f64()))
}

/// Cold set-ups per run. Each extra one runs in a fresh child process
/// (so process-wide caches start empty), one at a time. A set-up much
/// shorter than the host's speed phases reads whichever phase it lands
/// in, so the median of several spread over the run is steadier. The
/// Small-preset set-up takes 10–16 s on its own, so it runs once.
fn setups(workload: &str) -> usize {
    match workload {
        "svc_mixed_m3" => 9,
        "churn_m3" => 3,
        _ => 1,
    }
}

fn child_setup(workload: &str) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--setup-only"])
        .output()
        .map_err(|e| format!("spawning a set-up: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines()
        .last()
        .and_then(|l| l.strip_prefix("setup_s "))
        .and_then(|v| v.parse().ok())
        .filter(|_| out.status.success())
        .ok_or(format!(
            "set-up child failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ))
}

fn run(args: &Args) -> Result<(Report, Vec<f64>, Canary), String> {
    // Half the extra set-ups run before the measured window and half
    // after it, so they sample different host speed phases.
    let children = setups(args.workload) - 1;
    let mut setup_s = Vec::new();
    for _ in 0..children / 2 {
        setup_s.push(child_setup(args.workload)?);
    }
    let (fixture, s) = setup(args.workload)?;
    setup_s.push(s);
    let mut canary = Canary::default();
    canary.sample();
    let report = match fixture {
        Fixture::Hs(fx) => hs::run(&fx, args.seed, args.seconds, args.trace, &mut canary),
        Fixture::Svc(fx) => svc::run(*fx, args.seed, args.seconds, args.trace, &mut canary),
        Fixture::Churn(fx) => churn::run(*fx, args.seed, args.seconds, args.trace, &mut canary),
    };
    canary.sample();
    for _ in children / 2..children {
        setup_s.push(child_setup(args.workload)?);
    }
    Ok((report, setup_s, canary))
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.setup_only {
        return match setup(args.workload) {
            Ok((_, s)) => {
                println!("setup_s {s}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: set-up failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let (mut report, setup_s, canary) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut notes = std::mem::take(&mut report.notes);
    let mut e2e = Metrics::default();
    e2e.put("setup_s", median(&setup_s), "s");
    report.window.end_to_end(&mut e2e, &mut notes);
    notes.push(format!(
        "set-ups (s): {}",
        setup_s
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    notes.push(canary.note());
    let (listed, measured): (&[(&'static str, &'static str)], &Metrics) = if args.trace {
        let l = &mut report.layers;
        report.window.tail_metrics(l);
        l.put("host.ref_modexp_us", median(&canary.samples), "us");
        for (i, name) in [
            "trace.canary_start_us",
            "trace.canary_mid_us",
            "trace.canary_end_us",
        ]
        .iter()
        .enumerate()
        {
            l.put(name, canary.samples.get(i).copied().unwrap_or(0.0), "us");
        }
        (&PER_LAYER, &report.layers)
    } else {
        (&END_TO_END, &e2e)
    };
    let mut metrics = Metrics::default();
    for &(name, unit) in listed {
        metrics.put(name, measured.get(name).unwrap_or(0.0), unit);
    }
    for n in &notes {
        println!("# {n}");
    }
    println!("{{\"deterministic\": {}}}", report.deterministic);
    let correct = report.failed == 0 && report.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.attempted,
        report.failed,
        metrics.to_json()
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::{END_TO_END, PER_LAYER};

    /// `BENCHMARK.json` lists exactly the metrics this program prints,
    /// with the same units.
    #[test]
    fn benchmark_json_matches_the_metric_lists() {
        let json = include_str!("../../BENCHMARK.json");
        assert_eq!(
            json.matches("\"better\"").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }
}
