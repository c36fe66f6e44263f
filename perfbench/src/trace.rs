//! The traced run's recorder: a timing [`Medium`] wrapper that splits a
//! session into engine self time per phase and time spent inside the
//! medium, plus in-memory accumulators for every layer's metrics.

use crate::stats::{mean, median, Metrics};
use shs_net::observe::TrafficLog;
use shs_net::sync::Received;
use shs_net::{Medium, NetError, TransportCounters};
use std::time::Instant;

/// Which handshake phase a round label belongs to (0-based).
fn phase_of(label: &str) -> usize {
    if label.starts_with("dgka") {
        0
    } else if label.starts_with("phase2") {
        1
    } else {
        2
    }
}

/// Whether session `index` of a traced run is traced. Traced and
/// untraced sessions alternate in pairs, so both see the same host speed
/// phases, and both shards of a two-worker service (sessions are pinned
/// by id parity) serve both kinds.
pub fn traced(trace: bool, index: u64) -> bool {
    trace && (index / 2) % 2 == 1
}

/// Wraps a medium and stamps every exchange. Engine time before an
/// exchange is charged to that exchange's phase; time after the last
/// exchange (Phase-III verification) to Phase III.
pub struct TimingMedium<'m> {
    inner: &'m mut dyn Medium,
    last: Instant,
    self_s: [f64; 3],
    exchange_s: f64,
    exchanges: u32,
}

impl<'m> TimingMedium<'m> {
    /// Starts the session clock now.
    pub fn new(inner: &'m mut dyn Medium) -> TimingMedium<'m> {
        TimingMedium {
            inner,
            last: Instant::now(),
            self_s: [0.0; 3],
            exchange_s: 0.0,
            exchanges: 0,
        }
    }

    /// Closes the session clock now.
    pub fn finish(mut self) -> PhaseSplit {
        self.self_s[2] += self.last.elapsed().as_secs_f64();
        PhaseSplit {
            self_ms: self.self_s.map(|s| s * 1e3),
            exchange_ms: self.exchange_s * 1e3,
            exchanges: self.exchanges,
        }
    }
}

impl Medium for TimingMedium<'_> {
    fn slots(&self) -> usize {
        self.inner.slots()
    }

    fn exchange(
        &mut self,
        round: &str,
        outgoing: Vec<Vec<u8>>,
    ) -> Result<Vec<Vec<Received>>, NetError> {
        let enter = Instant::now();
        self.self_s[phase_of(round)] += enter.duration_since(self.last).as_secs_f64();
        let out = self.inner.exchange(round, outgoing);
        self.last = Instant::now();
        self.exchange_s += self.last.duration_since(enter).as_secs_f64();
        self.exchanges += 1;
        out
    }

    fn traffic_snapshot(&self) -> TrafficLog {
        self.inner.traffic_snapshot()
    }

    fn crashed_slots(&self) -> Vec<usize> {
        self.inner.crashed_slots()
    }

    fn transport_counters(&self) -> TransportCounters {
        self.inner.transport_counters()
    }
}

/// One attempt's time split.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseSplit {
    /// Engine self time per phase, ms.
    pub self_ms: [f64; 3],
    /// Time inside `Medium::exchange`, ms.
    pub exchange_ms: f64,
    /// Exchanges performed.
    pub exchanges: u32,
}

impl PhaseSplit {
    /// Self time plus exchange time: the attempt's wall time as seen
    /// from inside the engine.
    pub fn accounted_ms(&self) -> f64 {
        self.self_ms.iter().sum::<f64>() + self.exchange_ms
    }
}

/// In-memory accumulators for the per-layer metrics, filled by traced
/// sessions (and, for comparison, untraced ones) and written once at
/// exit.
#[derive(Default)]
pub struct LayerTrace {
    /// Attempts whose engine time was split.
    pub attempts: Vec<PhaseSplit>,
    /// Wall time of untraced attempts, measured around the engine call.
    pub untraced_attempt_ms: Vec<f64>,
    /// Sessions traced.
    pub sessions: u64,
    /// Modexps, retries and fired faults summed over traced sessions.
    pub modexp: u64,
    pub retries: u64,
    pub faults: u64,
    /// Latency of traced and untraced sessions (tracing overhead).
    pub traced_ms: Vec<f64>,
    pub untraced_ms: Vec<f64>,
}

impl LayerTrace {
    /// Writes the engine-level metrics (bigint/handshake/net) and the
    /// tracing overhead.
    pub fn engine_metrics(&self, out: &mut Metrics, notes: &mut Vec<String>) {
        let n = self.sessions.max(1) as f64;
        let per_attempt =
            |f: &dyn Fn(&PhaseSplit) -> f64| mean(&self.attempts.iter().map(f).collect::<Vec<_>>());
        out.put("bigint.modexp_per_session", self.modexp as f64 / n, "count");
        for (i, name) in [
            "handshake.phase1_ms",
            "handshake.phase2_ms",
            "handshake.phase3_ms",
        ]
        .iter()
        .enumerate()
        {
            out.put(name, per_attempt(&|s| s.self_ms[i]), "ms");
        }
        let exchanges: u32 = self.attempts.iter().map(|s| s.exchanges).sum();
        out.put(
            "handshake.exchanges_per_session",
            f64::from(exchanges) / n,
            "count",
        );
        out.put(
            "handshake.retries_per_session",
            self.retries as f64 / n,
            "count",
        );
        // The traced attempts' split against the wall time of the same
        // run's untraced attempts: the split accounts for the latency when
        // the two differ by no more than the tracing overhead.
        let accounted =
            100.0 * per_attempt(&PhaseSplit::accounted_ms) / mean(&self.untraced_attempt_ms);
        out.put("handshake.accounted_pct", accounted, "%");
        let exchange_ms: f64 = self.attempts.iter().map(|s| s.exchange_ms).sum();
        out.put(
            "net.exchange_us",
            1e3 * exchange_ms / f64::from(exchanges.max(1)),
            "us",
        );
        out.put(
            "net.faults_fired_per_session",
            self.faults as f64 / n,
            "count",
        );
        let overhead = 100.0 * (mean(&self.traced_ms) / mean(&self.untraced_ms) - 1.0);
        out.put("trace.overhead_pct", overhead, "%");
        out.put(
            "trace.sessions_traced",
            self.traced_ms.len() as f64,
            "count",
        );
        out.put(
            "trace.sessions_untraced",
            self.untraced_ms.len() as f64,
            "count",
        );
        notes.push(format!(
            "tracing overhead: traced sessions {:.3} ms vs untraced {:.3} ms mean ({:+.2}%), \
             medians {:.3} / {:.3} ms; traced phase self time + exchange time = {:.2}% of \
             the untraced attempts' wall time (mean)",
            mean(&self.traced_ms),
            mean(&self.untraced_ms),
            overhead,
            median(&self.traced_ms),
            median(&self.untraced_ms),
            accounted,
        ));
    }
}
