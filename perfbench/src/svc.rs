//! `svc_mixed_m3`: `shs_net::serve::Service` with two workers at the
//! Test preset, m = 3, sequential Phase-III verification, closed loop
//! with a fixed number of sessions in flight and a seeded mix of clean,
//! partial, failing, crash-stopped and lossy sessions.

use crate::stats::{mean, Canary, Window};
use crate::trace::{LayerTrace, PhaseSplit, TimingMedium};
use crate::Report;
use rand::RngCore;
use shs_bigint::counters;
use shs_core::config::CgkdChoice;
use shs_core::fixtures;
use shs_core::service::{HandshakeJob, Participant};
use shs_core::{GroupConfig, HandshakeOptions, Member, SchemeKind};
use shs_crypto::drbg::HmacDrbg;
use shs_net::fault::{FaultPlan, FaultRule};
use shs_net::serve::{
    AttemptContext, AttemptOutcome, Service, ServiceConfig, SessionEntry, SessionId, SessionJob,
    SessionSpec, TerminalClass,
};
use shs_net::sync::BroadcastNet;
use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

const POOL: usize = 6;
const M: usize = 3;
const WORKERS: usize = 2;
const IN_FLIGHT: usize = 8;
/// Sessions per second of `--seconds` the run performs: two workers
/// complete 95–175 a second depending on the host's speed phase, most
/// often 105–125.
const PLANNED_PER_S: f64 = 120.0;
/// How long the generator waits for any one completion before it
/// declares the service stuck.
const STUCK: Duration = Duration::from_secs(60);

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Kind {
    /// All three slots are members: full success.
    Clean,
    /// One outsider slot: the two members succeed partially.
    Outsider,
    /// A lone member and two outsiders: ordinary failure, decoy path.
    Lone,
    /// One slot crash-stops in the first attempt: liveness analysis,
    /// re-formation among the survivors, backoff, retry.
    Crash,
    /// One Phase-II delivery is dropped: in-attempt retransmission.
    Drop,
}

const KINDS: [Kind; 5] = [
    Kind::Clean,
    Kind::Outsider,
    Kind::Lone,
    Kind::Crash,
    Kind::Drop,
];

/// The 60/10/10/10/10 mix, dealt in blocks of ten in seeded order, so
/// every run's mix is exact whatever its length.
struct Mix {
    block: Vec<Kind>,
}

impl Mix {
    fn next(&mut self, rng: &mut HmacDrbg) -> Kind {
        if self.block.is_empty() {
            self.block = [Kind::Clean; 6]
                .into_iter()
                .chain(KINDS[1..].iter().copied())
                .collect();
            for i in (1..self.block.len()).rev() {
                let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                self.block.swap(i, j);
            }
        }
        self.block.pop().unwrap_or(Kind::Clean)
    }
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Clean => "clean",
            Kind::Outsider => "outsider",
            Kind::Lone => "lone",
            Kind::Crash => "crash",
            Kind::Drop => "drop",
        }
    }
}

/// One session's seeded inputs.
#[derive(Debug, Clone)]
struct Draw {
    kind: Kind,
    slots: Vec<Participant>,
    /// Crash victim, or the dropped delivery's sender.
    a: usize,
    /// The dropped delivery's receiver.
    b: usize,
    fault_seed: u64,
}

impl Draw {
    fn new(kind: Kind, rng: &mut HmacDrbg) -> Draw {
        let mut pool: Vec<usize> = (0..POOL).collect();
        let mut members = Vec::new();
        for _ in 0..M {
            let j = (rng.next_u64() % pool.len() as u64) as usize;
            members.push(pool.swap_remove(j));
        }
        let outsiders = match kind {
            Kind::Outsider => 1,
            Kind::Lone => 2,
            _ => 0,
        };
        let mut slots: Vec<Participant> = members.into_iter().map(Participant::Member).collect();
        for _ in 0..outsiders {
            let at = (rng.next_u64() % M as u64) as usize;
            // Replace a member slot, keeping the roster size at m.
            let member_at = (0..M)
                .cycle()
                .skip(at)
                .find(|&s| matches!(slots[s], Participant::Member(_)))
                .unwrap_or(at);
            slots[member_at] = Participant::Outsider;
        }
        let a = (rng.next_u64() % M as u64) as usize;
        let b = (a + 1 + (rng.next_u64() % (M as u64 - 1)) as usize) % M;
        Draw {
            kind,
            slots,
            a,
            b,
            fault_seed: rng.next_u64(),
        }
    }

    /// The fault plan of one attempt: faults hit the first attempt only.
    fn faults(&self, ctx: &AttemptContext) -> Option<FaultPlan> {
        if ctx.attempt > 0 {
            return None;
        }
        let plan = FaultPlan::new(self.fault_seed);
        match self.kind {
            Kind::Crash => Some(plan.with(FaultRule::crash_stop(self.a, 1))),
            Kind::Drop => Some(
                plan.with(
                    FaultRule::drop()
                        .in_round("phase2-mac")
                        .from(self.a)
                        .to(self.b)
                        .at_most(1),
                ),
            ),
            _ => None,
        }
    }
}

/// What a job reports when the service drops it, which happens right
/// after its session reached a terminal class.
#[derive(Default)]
pub(crate) struct Done {
    pub(crate) index: u64,
    pub(crate) modexp: u64,
    pub(crate) attempt_ms: Vec<f64>,
    pub(crate) backoff_ms: Vec<f64>,
    pub(crate) splits: Vec<PhaseSplit>,
}

/// `HandshakeJob` plus per-attempt fault plans, optional timing, and a
/// completion message, so the generator blocks on completions instead
/// of polling the registry.
struct BenchJob {
    inner: HandshakeJob,
    draw: Draw,
    traced: bool,
    done: Option<Sender<Done>>,
    rec: Done,
    last_end: Option<Instant>,
}

impl SessionJob for BenchJob {
    fn roster_len(&self) -> usize {
        self.inner.roster_len()
    }

    fn run_attempt(&mut self, ctx: &AttemptContext) -> AttemptOutcome {
        let start = Instant::now();
        if let Some(end) = self.last_end {
            self.rec
                .backoff_ms
                .push(start.duration_since(end).as_secs_f64() * 1e3);
        }
        let mut net = BroadcastNet::new(ctx.roster.len(), shs_net::DeliveryPolicy::Synchronous);
        if let Some(plan) = self.draw.faults(ctx) {
            net.set_fault_plan(plan);
        }
        let (counts, outcome) = if self.traced {
            let mut timed = TimingMedium::new(&mut net);
            let r = counters::measure(|| self.inner.run_attempt_on(ctx, &mut timed));
            self.rec.splits.push(timed.finish());
            r
        } else {
            counters::measure(|| self.inner.run_attempt_on(ctx, &mut net))
        };
        let end = Instant::now();
        self.rec.modexp += counts.modexp;
        self.rec
            .attempt_ms
            .push(end.duration_since(start).as_secs_f64() * 1e3);
        self.last_end = Some(end);
        outcome
    }
}

impl Drop for BenchJob {
    fn drop(&mut self) {
        if let Some(tx) = self.done.take() {
            let _ = tx.send(std::mem::take(&mut self.rec));
        }
    }
}

/// The exact quantities a session of one kind must reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Exact {
    class: Option<TerminalClass>,
    attempts: usize,
    reformations: u32,
    wire_bytes: usize,
    faults: u64,
    modexp: u64,
}

impl Exact {
    fn of(entry: &SessionEntry, done: &Done) -> Exact {
        Exact {
            class: entry.class,
            attempts: entry.attempts.len(),
            reformations: entry.reformations,
            wire_bytes: entry.attempts.iter().map(|a| a.traffic.total_bytes()).sum(),
            faults: entry
                .attempts
                .iter()
                .map(|a| a.traffic.faults().total())
                .sum(),
            modexp: done.modexp,
        }
    }

    fn json(&self, exchanges: u32) -> String {
        format!(
            "{{\"class\": \"{}\", \"attempts\": {}, \"reformations\": {}, \"wire_bytes\": {}, \
             \"faults\": {}, \"modexp\": {}, \"exchanges\": {}}}",
            self.class.map_or("none".to_string(), |c| c.to_string()),
            self.attempts,
            self.reformations,
            self.wire_bytes,
            self.faults,
            self.modexp,
            exchanges
        )
    }
}

/// A run's totals over every session, for the deterministic section.
#[derive(Default)]
struct Totals {
    attempts: u64,
    reformations: u64,
    wire_bytes: u64,
    faults: u64,
    modexp: u64,
}

impl Totals {
    fn add(&mut self, e: &Exact) {
        self.attempts += e.attempts as u64;
        self.reformations += u64::from(e.reformations);
        self.wire_bytes += e.wire_bytes as u64;
        self.faults += e.faults;
        self.modexp += e.modexp;
    }

    fn json(&self) -> String {
        format!(
            "{{\"attempts\": {}, \"reformations\": {}, \"wire_bytes\": {}, \"faults\": {}, \
             \"modexp\": {}}}",
            self.attempts, self.reformations, self.wire_bytes, self.faults, self.modexp
        )
    }
}

pub struct Fixture {
    pool: Arc<Vec<Member>>,
    svc: Service,
    done_tx: Sender<Done>,
    done_rx: Receiver<Done>,
    exact: HashMap<Kind, Exact>,
    deterministic: String,
}

fn options() -> HandshakeOptions {
    HandshakeOptions {
        parallel_verify: false,
        ..HandshakeOptions::default()
    }
}

fn job(
    pool: &Arc<Vec<Member>>,
    draw: Draw,
    label: &str,
    index: u64,
    traced: bool,
    tx: &Sender<Done>,
) -> BenchJob {
    let inner =
        HandshakeJob::new(Arc::clone(pool), M, options(), label).with_slots(draw.slots.clone());
    BenchJob {
        inner,
        draw,
        traced,
        done: Some(tx.clone()),
        rec: Done {
            index,
            ..Done::default()
        },
        last_end: None,
    }
}

/// Builds the member pool from fixed labels, starts the service, and
/// runs one traced reference session per kind: it warms the fixed-base
/// tables, the Montgomery contexts and the service's `ShapeBook`, and
/// fixes each kind's exact values.
pub fn setup() -> Result<Fixture, String> {
    let mut rng = HmacDrbg::from_seed(b"perfbench/svc_mixed_m3/group");
    let config = GroupConfig {
        capacity: 8,
        ..GroupConfig::test_with_cgkd(SchemeKind::Scheme1, CgkdChoice::Lkh)
    };
    let mut ga = fixtures::test_authority_with(config, &mut rng);
    let (members, _) = ga
        .apply_epoch(POOL, &[], &mut rng)
        .map_err(|e| format!("admitting members: {e}"))?;
    let pool = Arc::new(members);
    let svc = Service::start(ServiceConfig {
        workers: WORKERS,
        // Room for every session in flight, split over the two shards: a
        // shard holding half of them pushes the next arrival onto its
        // sibling (work stealing), and nothing is ever shed.
        queue_capacity: IN_FLIGHT,
        default_deadline: Duration::from_secs(30),
        default_max_attempts: 4,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(8),
        seed: 0x05ee_d5ec,
    });
    let (done_tx, done_rx) = channel();
    let mut exact = HashMap::new();
    let mut det = Vec::new();
    let mut draws = HmacDrbg::from_seed(b"perfbench/svc_mixed_m3/reference");
    for (n, kind) in KINDS.into_iter().enumerate() {
        let draw = Draw::new(kind, &mut draws);
        let j = job(
            &pool,
            draw,
            &format!("reference/{n}"),
            n as u64,
            true,
            &done_tx,
        );
        let id = svc.submit(SessionSpec::new(Box::new(j))).id();
        let done = done_rx
            .recv_timeout(STUCK)
            .map_err(|_| format!("reference {} session never finished", kind.name()))?;
        let entry = svc.entry(id).ok_or("reference entry missing")?;
        let e = Exact::of(&entry, &done);
        let want = match kind {
            Kind::Lone => TerminalClass::Rejected,
            _ => TerminalClass::Accepted,
        };
        if e.class != Some(want) {
            return Err(format!(
                "reference {} session ended {:?}",
                kind.name(),
                e.class
            ));
        }
        let exchanges: u32 = done.splits.iter().map(|s| s.exchanges).sum();
        det.push(format!("\"{}\": {}", kind.name(), e.json(exchanges)));
        exact.insert(kind, e);
    }
    Ok(Fixture {
        pool,
        svc,
        done_tx,
        done_rx,
        exact,
        deterministic: format!("{{{}}}", det.join(", ")),
    })
}

pub fn run(fx: Fixture, seed: u64, seconds: f64, trace: bool, canary: &mut Canary) -> Report {
    let mut inputs =
        HmacDrbg::from_seed(format!("perfbench/svc_mixed_m3/inputs/{seed}").as_bytes());
    let mut report = Report::default();
    let mut layer = LayerTrace::default();
    let mut window = Window::default();
    let mut inflight: HashMap<u64, (SessionId, Kind)> = HashMap::new();
    let mut lateness_ms = Vec::new();
    let (mut queue_ms, mut attempt_ms, mut backoff_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut useful = 0u64;
    let mut next = 0u64;
    let mut mix = Mix { block: Vec::new() };
    let mut submit = |next: &mut u64, inflight: &mut HashMap<u64, (SessionId, Kind)>| {
        let kind = mix.next(&mut inputs);
        let draw = Draw::new(kind, &mut inputs);
        let traced = crate::trace::traced(trace, *next);
        let label = format!("{seed}/{next}");
        let j = job(&fx.pool, draw, &label, *next, traced, &fx.done_tx);
        let id = fx.svc.submit(SessionSpec::new(Box::new(j))).id();
        inflight.insert(*next, (id, kind));
        *next += 1;
    };
    let sessions = crate::planned(seconds, PLANNED_PER_S);
    let mut total = Totals::default();
    // Completion times of the sessions whose places in flight are free.
    let mut freed: Vec<Instant> = Vec::new();
    let mut paused = 0.0;
    let start = Instant::now();
    loop {
        if canary.mid_due(start, seconds) && inflight.is_empty() {
            // The generator stopped submitting when the sample fell due
            // and waited for the sessions in flight: both workers idle.
            paused += canary.sample();
            freed.clear();
        }
        while next < sessions && inflight.len() < IN_FLIGHT && !canary.mid_due(start, seconds) {
            submit(&mut next, &mut inflight);
            if let Some(f) = freed.pop() {
                lateness_ms.push(f.elapsed().as_secs_f64() * 1e3);
            }
        }
        if inflight.is_empty() {
            break;
        }
        let done = match fx.done_rx.recv_timeout(STUCK) {
            Ok(done) => done,
            Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => {
                report.attempted += inflight.len() as u64;
                report.failed += inflight.len() as u64;
                break;
            }
        };
        let Some((id, kind)) = inflight.remove(&done.index) else {
            continue;
        };
        let entry = fx.svc.entry(id);
        if let Some(f) = entry.as_ref().and_then(|e| e.finished_at) {
            freed.push(f);
        }
        report.attempted += 1;
        let Some(entry) = entry else {
            report.failed += 1;
            continue;
        };
        let got = Exact::of(&entry, &done);
        total.add(&got);
        if fx.exact.get(&kind) == Some(&got) {
            window.ok_in_window += 1;
            useful += 1;
        } else {
            report.failed += 1;
        }
        if let Some(l) = entry.latency() {
            window.latency_ms.push(l.as_secs_f64() * 1e3);
        }
        window.wire_bytes.push(got.wire_bytes as f64);
        if let Some(s) = entry.started_at {
            queue_ms.push(s.duration_since(entry.queued_at).as_secs_f64() * 1e3);
        }
        attempt_ms.extend_from_slice(&done.attempt_ms);
        backoff_ms.extend_from_slice(&done.backoff_ms);
        if done.splits.is_empty() {
            layer
                .untraced_attempt_ms
                .extend_from_slice(&done.attempt_ms);
            if let Some(l) = entry.latency() {
                layer.untraced_ms.push(l.as_secs_f64() * 1e3);
            }
        } else {
            layer.sessions += 1;
            layer.modexp += done.modexp;
            layer.faults += got.faults;
            let exchanges: u32 = done.splits.iter().map(|s| s.exchanges).sum();
            let base: u32 = got.attempts as u32 * 4;
            layer.retries += u64::from(exchanges.saturating_sub(base));
            layer.attempts.extend_from_slice(&done.splits);
            if let Some(l) = entry.latency() {
                layer.traced_ms.push(l.as_secs_f64() * 1e3);
            }
        }
    }
    window.seconds = start.elapsed().as_secs_f64() - paused;
    let stats = fx.svc.stats();
    if stats.illegal_transitions != 0 || !fx.svc.leaks().is_empty() {
        report.failed += 1;
    }
    let drain = fx.svc.shutdown(Duration::from_secs(30));
    if !drain.clean() {
        report.failed += 1;
    }
    report.window = window;
    report.deterministic = format!(
        "{{\"sessions\": {sessions}, \"total\": {}, \"per_kind\": {}}}",
        total.json(),
        fx.deterministic
    );
    if trace {
        let out = &mut report.layers;
        layer.engine_metrics(out, &mut report.notes);
        crate::probe::bigint(out);
        let others: Vec<&Member> = fx.pool[1..M].iter().collect();
        if !crate::probe::gsig(out, &fx.pool[0], &others, 40) {
            report.failed += 1;
        }
        let n = (report.attempted.max(1)) as f64;
        out.put("serve.queue_wait_ms", mean(&queue_ms), "ms");
        out.put("serve.attempt_ms", mean(&attempt_ms), "ms");
        out.put("serve.backoff_ms", mean(&backoff_ms), "ms");
        out.put(
            "serve.attempts_per_session",
            total.attempts as f64 / n,
            "count",
        );
        out.put(
            "serve.reformations_per_session",
            total.reformations as f64 / n,
            "count",
        );
        out.put(
            "serve.useful_ratio",
            useful as f64 / total.attempts.max(1) as f64,
            "ratio",
        );
        out.put("serve.shed", stats.shed as f64, "count");
        crate::stats::lateness(out, &lateness_ms);
    }
    report
}
