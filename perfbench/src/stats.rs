//! Summary statistics, host probes and the result line.

use shs_bigint::mont::MontCtx;
use shs_bigint::{rng as brng, Ubig};
use shs_crypto::drbg::HmacDrbg;
use std::time::Instant;

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Arithmetic mean of `xs` (0 for an empty slice).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Interdecile mean of `xs`: the mean of the samples between the 10th
/// and 90th percentiles (0 for an empty slice). A session runs at one of
/// the host's two speeds, so the median sits at whichever speed held more
/// of a run's sessions and jumps between them from run to run, while the
/// plain mean follows the host's stalls in the top decile; this moves in
/// proportion to the share of slow sessions and ignores the stalls.
pub fn interdecile_mean(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 10;
    mean(&v[cut..v.len() - cut])
}

/// How many samples must lie above the reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// The tail of `xs`: the highest order statistic with at least
/// [`TAIL_BEYOND`] samples above it, with its percentile. Falls back to
/// the maximum when there are too few samples.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    if n <= TAIL_BEYOND {
        return (v[n - 1], 100.0);
    }
    let i = n - TAIL_BEYOND - 1;
    (v[i], 100.0 * (i + 1) as f64 / n as f64)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One constant-trace modular exponentiation of `bits` width through
/// the public `MontCtx::modpow`: median microseconds over `reps`.
pub fn modexp_us(bits: u32, reps: usize) -> f64 {
    let mut rng = HmacDrbg::from_seed(format!("perfbench/modexp/{bits}").as_bytes());
    let mut n = brng::random_bits(&mut rng, bits);
    if !n.is_odd() {
        n = n.add(&Ubig::one());
    }
    let base = brng::random_bits(&mut rng, bits - 1);
    let exp = brng::random_bits(&mut rng, bits);
    let ctx = MontCtx::new(n);
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(ctx.modpow(&base, &exp));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// The host-speed canary: a fixed 1024-bit modexp loop, timed at the
/// start, middle and end of every run so a slow host phase can be told
/// apart from a regression. The workloads take the middle sample while
/// no worker is busy, so it never adds a busy thread.
#[derive(Default)]
pub struct Canary {
    /// Microseconds per modexp, in the order taken.
    pub samples: Vec<f64>,
}

impl Canary {
    const REPS: usize = 40;

    /// Takes one sample now; returns the seconds it took.
    pub fn sample(&mut self) -> f64 {
        let t = Instant::now();
        self.samples.push(modexp_us(1024, Self::REPS));
        t.elapsed().as_secs_f64()
    }

    /// Whether the middle sample is due: half of the `seconds` measured
    /// from `start` have passed, and only the start sample is taken.
    pub fn mid_due(&self, start: Instant, seconds: f64) -> bool {
        self.samples.len() == 1 && 2.0 * start.elapsed().as_secs_f64() >= seconds
    }

    /// The note printed beside the metrics.
    pub fn note(&self) -> String {
        let s: Vec<String> = self.samples.iter().map(|v| format!("{v:.1}")).collect();
        format!(
            "host canary (1024-bit modexp, us) start/mid/end: {}",
            s.join(" / ")
        )
    }
}

/// `gen.lateness_*`: how late the generator issued each session, after
/// the completion that freed its place.
pub fn lateness(out: &mut Metrics, lateness_ms: &[f64]) {
    out.put("gen.lateness_p50_ms", median(lateness_ms), "ms");
    out.put(
        "gen.lateness_max_ms",
        lateness_ms.iter().copied().fold(0.0, f64::max),
        "ms",
    );
}

/// A named metric with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// An ordered list of metrics.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// The metrics as a JSON object.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Session-level samples every workload collects in its measured window.
#[derive(Default)]
pub struct Window {
    /// Wall seconds the window lasted.
    pub seconds: f64,
    /// Sessions that reached their expected class inside the window.
    pub ok_in_window: u64,
    /// Per-session latency in milliseconds.
    pub latency_ms: Vec<f64>,
    /// Per-session wire bytes from the eavesdropper log.
    pub wire_bytes: Vec<f64>,
}

impl Window {
    /// The end-to-end metrics shared by every workload (`setup_s` is
    /// added by the caller).
    pub fn end_to_end(&self, out: &mut Metrics, notes: &mut Vec<String>) {
        out.put(
            "sessions_per_s",
            self.ok_in_window as f64 / self.seconds.max(1e-9),
            "1/s",
        );
        out.put(
            "latency_p10_p90_mean_ms",
            interdecile_mean(&self.latency_ms),
            "ms",
        );
        out.put("wire_bytes_per_session", mean(&self.wire_bytes), "bytes");
        out.put("peak_rss_mb", peak_rss_mb(), "MiB");
        let (tail_ms, pct) = tail(&self.latency_ms);
        notes.push(format!(
            "latency median {:.3} ms, mean {:.3} ms; latency_tail_ms = {tail_ms:.3} ms, \
             p{pct:.2} of {} sessions ({TAIL_BEYOND} beyond it)",
            median(&self.latency_ms),
            mean(&self.latency_ms),
            self.latency_ms.len()
        ));
    }

    /// The latency median, mean and tail, recorded with the per-layer
    /// metrics: too unsteady on the reference host to carry a bound (see
    /// [`interdecile_mean`]; the tail reads the worst slow phase of a run).
    pub fn tail_metrics(&self, out: &mut Metrics) {
        out.put("session.latency_p50_ms", median(&self.latency_ms), "ms");
        out.put("session.latency_mean_ms", mean(&self.latency_ms), "ms");
        let (tail_ms, pct) = tail(&self.latency_ms);
        out.put("session.latency_tail_ms", tail_ms, "ms");
        out.put("session.latency_tail_pct", pct, "%");
        out.put("session.count", self.latency_ms.len() as f64, "count");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let (v, p) = tail(&xs);
        assert_eq!(v, 90.0);
        assert_eq!(p, 90.0);
        assert_eq!(tail(&[5.0, 7.0]), (7.0, 100.0));
        let mut xs: Vec<f64> = (1..=18).map(f64::from).collect();
        xs.extend([1000.0, 2000.0]);
        assert_eq!(interdecile_mean(&xs), 10.5);
        assert_eq!(interdecile_mean(&[3.0, 5.0]), 4.0);
        assert_eq!(interdecile_mean(&[]), 0.0);
    }
}
