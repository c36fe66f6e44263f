//! **`shs-sim`** — a deterministic discrete-event adversary simulator
//! for the GCD secret-handshake stack.
//!
//! The simulator runs *thousands* of concurrent handshake sessions
//! through the **real** engine — real credentials, real DGKA, real
//! Phase II/III crypto, the real service attempt loop — under
//! a virtual clock: latency, loss, backoff and deadlines are all
//! simulated time, so a campaign that spans minutes of network time
//! completes in seconds of CPU and performs **zero wall-clock sleeps**.
//!
//! Same seed ⇒ same event trace, byte for byte: every latency draw and
//! fault coin is a pure function of event identities (see
//! [`core::unit_draw`]), every tie in the event queue breaks on
//! identity keys, and the committed metrics JSON
//! ([`metrics::render_deterministic`]) contains virtual-time numbers
//! only.
//!
//! # Module map
//!
//! * [`core`] — virtual time, the deterministic event queue, seeded
//!   latency distributions, the trace fingerprint.
//! * [`network`] — the simulated media: [`network::SimMedium`] (the
//!   lockstep `BroadcastNet` plus virtual-time latency accounting) and
//!   [`network::run_session`] (the in-process per-party medium, the
//!   virtual-time counterpart of `TcpParty`, driving the unmodified
//!   per-party `run_party` driver).
//! * [`adversary`] — pluggable schedules over the `shs-net` fault
//!   vocabulary: partition, slow-loris, phase-timed crash, Sybil
//!   flood, epoch churn.
//! * [`metrics`] — class tallies, log-bucket latency histograms and
//!   the deterministic JSON section of `BENCH_sim.json`.
//!
//! The crate root hosts the **capacity harness**: a discrete-event
//! model of the session service (virtual workers, bounded admission
//! queue, shed-on-overflow). Each admitted session runs through the
//! service's own attempt loop, [`shs_net::serve::drive`], on a fresh
//! [`VirtualClock`], so liveness analysis, survivor re-formation,
//! backoff, deadlines and classification are production's code. Every
//! handshake attempt is executed by [`HandshakeJob::run_attempt_on`]
//! over a [`SimMedium`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod core;
pub mod metrics;
pub mod network;

use crate::adversary::{Kind, Schedule};
use crate::core::{nanos, EventQueue, Nanos, TraceFingerprint};
use crate::metrics::{ClassTally, LatencyHistogram, ScenarioReport};
use crate::network::SimMedium;
use shs_core::service::HandshakeJob;
use shs_core::{HandshakeOptions, Member, SchemeKind};
use shs_crypto::drbg::HmacDrbg;
use shs_net::clock::{Clock, VirtualClock};
use shs_net::observe::FaultCounters;
use shs_net::serve::{
    drive, AttemptContext, AttemptOutcome, DriveConfig, SessionJob, SessionRegistry, TerminalClass,
};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// A credential pool shared by every simulated session: `members`
/// holds real admitted credentials, and indices `stale_from..` hold
/// members that **missed the last epoch rekey** (their group key is one
/// epoch behind — the epoch-churn adversary's ammunition).
pub struct SimPool {
    /// The admitted members.
    pub members: Arc<Vec<Member>>,
    /// First stale index; `members.len()` when the whole pool is fresh.
    pub stale_from: usize,
}

/// Unwraps one pool-construction step. Pool setup consumes no wire
/// data — a failure here is a harness bug, not protocol input, so the
/// panic is deliberate (see [`SimPool::build`]'s `# Panics`).
fn step<T, E: std::fmt::Debug>(what: &str, r: Result<T, E>) -> T {
    // lint:allow(panic-path) reason="simulator pool setup, no wire data; failure is a harness bug, documented under SimPool::build # Panics"
    r.unwrap_or_else(|e| panic!("shs-sim pool setup: {what}: {e:?}"))
}

impl SimPool {
    /// A pool of `fresh + stale` members of one Scheme-1 test group.
    /// The pool is built, a sacrificial member is removed to force an
    /// epoch rekey, and only the first `fresh` members apply the
    /// resulting update — the last `stale` members keep their pre-rekey
    /// keys. With `stale == 0` every member is synced.
    ///
    /// # Panics
    ///
    /// Panics if group setup fails — harness configuration, not input.
    pub fn build(fresh: usize, stale: usize, seed: u64) -> SimPool {
        let tag = format!("shs-sim/pool/{seed:016x}");
        let mut rng = HmacDrbg::from_seed(tag.as_bytes());
        let mut ga = shs_core::fixtures::test_authority(SchemeKind::Scheme1, &mut rng);
        let mut members: Vec<Member> = Vec::new();
        for _ in 0..fresh + stale {
            let (m, update) = step("admit pool member", ga.admit(&mut rng));
            for existing in &mut members {
                step("sync pool member", existing.apply_update(&update));
            }
            members.push(m);
        }
        if stale > 0 {
            // The sacrificial leaver: removing it rekeys the epoch.
            let (victim, update) = step("admit sacrificial member", ga.admit(&mut rng));
            for existing in &mut members {
                step("sync pool member", existing.apply_update(&update));
            }
            let rekey = step("epoch rekey", ga.remove(victim.id(), &mut rng));
            for existing in members.iter_mut().take(fresh) {
                step("apply rekey", existing.apply_update(&rekey));
            }
            // members[fresh..] deliberately skip the rekey: stale.
        }
        SimPool {
            members: Arc::new(members),
            stale_from: fresh,
        }
    }
}

/// Parties per simulated session.
const GROUP_SIZE: usize = 3;
/// Per-session virtual deadline.
const DEADLINE: Duration = Duration::from_secs(30);
/// Backoff base between attempts.
const BACKOFF_BASE: Duration = Duration::from_millis(10);
/// Backoff cap.
const BACKOFF_CAP: Duration = Duration::from_millis(200);

/// Knobs of one scenario run: the service model (virtual workers,
/// bounded queue) plus the per-session attempt budget, mirroring
/// [`shs_net::serve::ServiceConfig`] in virtual time. Every session has
/// three parties and arrives at virtual time zero; its deadline and
/// backoff bounds are the crate's fixed constants.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioConfig {
    /// Sessions submitted.
    pub sessions: u64,
    /// Virtual workers executing sessions concurrently.
    pub workers: usize,
    /// Admission queue depth; arrivals beyond it are shed.
    pub queue_capacity: usize,
    /// Attempts allowed per session (including the first).
    pub max_attempts: u32,
    /// Service seed; [`drive`] derives every attempt's seed from it.
    pub seed: u64,
}

impl ScenarioConfig {
    /// A burst of `sessions` 3-party sessions with service-like
    /// defaults and enough workers that nothing queues.
    pub fn burst(sessions: u64, seed: u64) -> ScenarioConfig {
        ScenarioConfig {
            sessions,
            workers: sessions.max(1) as usize,
            queue_capacity: 64,
            max_attempts: 3,
            seed,
        }
    }
}

/// How one simulated session ended, with its whole-campaign metrics.
struct SessionOutcome {
    class: TerminalClass,
    duration: Nanos,
    reformations: u64,
    attempts: u64,
    exchanges: u64,
    deliveries: u64,
    faults: FaultCounters,
    fingerprint: u64,
}

fn class_code(class: TerminalClass) -> u64 {
    match class {
        TerminalClass::Accepted => 1,
        TerminalClass::Rejected => 2,
        TerminalClass::Shed => 3,
        TerminalClass::Exhausted => 4,
        TerminalClass::DeadlineExceeded => 5,
        TerminalClass::TooFewSurvivors => 6,
        TerminalClass::Drained => 7,
    }
}

/// One simulated session as a service job: every attempt runs the real
/// handshake over a fresh [`SimMedium`] with the schedule's latency
/// model and fault plan, and charges the medium's virtual time to the
/// session clock.
struct VirtualJob {
    job: HandshakeJob,
    schedule: Schedule,
    session: u64,
    clock: VirtualClock,
    exchanges: u64,
    deliveries: u64,
    fingerprint: TraceFingerprint,
}

impl SessionJob for VirtualJob {
    fn roster_len(&self) -> usize {
        self.job.roster_len()
    }

    fn run_attempt(&mut self, ctx: &AttemptContext) -> AttemptOutcome {
        let mut net = SimMedium::new(ctx.roster.len(), self.schedule.latency(self.session));
        let m = self.job.roster_len();
        if let Some(plan) = self.schedule.plan(self.session, ctx.attempt, m) {
            net.set_fault_plan(plan);
        }
        let outcome = self.job.run_attempt_on(ctx, &mut net);
        self.clock.advance_by(net.elapsed());
        self.exchanges += net.exchanges();
        self.deliveries += net.deliveries();
        self.fingerprint
            .fold(&[self.session, u64::from(ctx.attempt), net.fingerprint()]);
        outcome
    }
}

/// Runs one session to a terminal class in virtual time: the service's
/// own attempt loop ([`drive`]) on a fresh virtual clock, so deadlines,
/// liveness, re-formation, backoff and classification are production's.
fn run_virtual_session(
    pool: &SimPool,
    schedule: Schedule,
    cfg: &ScenarioConfig,
    session: u64,
) -> SessionOutcome {
    let slots = schedule.participants(session, GROUP_SIZE, pool.members.len(), pool.stale_from);
    let label = format!("sim/{}/{}", schedule.name(), session);
    let clock = VirtualClock::new();
    let mut job = VirtualJob {
        job: HandshakeJob::new(
            Arc::clone(&pool.members),
            GROUP_SIZE,
            HandshakeOptions::default(),
            &label,
        )
        .with_slots(slots),
        schedule,
        session,
        clock: clock.clone(),
        exchanges: 0,
        deliveries: 0,
        fingerprint: TraceFingerprint::new(),
    };
    let config = DriveConfig {
        backoff_base: BACKOFF_BASE,
        backoff_cap: BACKOFF_CAP,
        seed: cfg.seed,
        clock: Arc::new(clock.clone()),
    };
    let registry = Mutex::new(SessionRegistry::new());
    registry
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .admit_with_id(session, job.roster_len(), clock.now() + DEADLINE);
    drive(&registry, &config, session, &mut job, cfg.max_attempts);
    let classified = registry
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .entry(session)
        .and_then(|e| Some((e.class?, e)));
    // lint:allow(panic-path) reason="drive leaves the session admitted above classified; a missing class is a harness bug, not wire data"
    let (class, entry) = classified.expect("drive classifies the admitted session");
    let mut faults = FaultCounters::default();
    for a in &entry.attempts {
        faults += a.traffic.faults();
    }
    let duration = nanos(clock.now());
    job.fingerprint.fold(&[class_code(class), duration]);
    SessionOutcome {
        class,
        duration,
        reformations: u64::from(entry.reformations),
        attempts: entry.attempts.len() as u64,
        exchanges: job.exchanges,
        deliveries: job.deliveries,
        faults,
        fingerprint: job.fingerprint.value(),
    }
}

/// The service-model events of the capacity harness.
enum SimEv {
    Arrival(u64),
    Completion { session: u64, arrival: Nanos },
}

/// Runs one scenario: `cfg.sessions` sessions submitted to a virtual
/// service of `cfg.workers` workers and a bounded admission queue,
/// each executed through the real handshake engine over a simulated
/// medium. Fully deterministic: the returned report (fingerprint
/// included) is a pure function of `(pool seed, schedule, cfg)`.
pub fn run_scenario(pool: &SimPool, schedule: Schedule, cfg: &ScenarioConfig) -> ScenarioReport {
    let mut queue: EventQueue<SimEv> = EventQueue::new();
    for s in 0..cfg.sessions {
        queue.push(0, s * 2, SimEv::Arrival(s));
    }
    let mut report = ScenarioReport {
        name: schedule.name(),
        sessions: cfg.sessions,
        peak_concurrency: 0,
        classes: ClassTally::default(),
        reformations: 0,
        attempts: 0,
        exchanges: 0,
        deliveries: 0,
        faults: FaultCounters::default(),
        latency: LatencyHistogram::new(),
        makespan: 0,
        fingerprint: 0,
    };
    let mut fp = TraceFingerprint::new();
    let mut busy: u64 = 0;
    let mut waiting: VecDeque<(u64, Nanos)> = VecDeque::new();
    let start = |session: u64,
                 now: Nanos,
                 queue: &mut EventQueue<SimEv>,
                 busy: &mut u64,
                 report: &mut ScenarioReport,
                 fp: &mut TraceFingerprint,
                 arrival: Nanos| {
        *busy += 1;
        report.peak_concurrency = report.peak_concurrency.max(*busy);
        let out = run_virtual_session(pool, schedule, cfg, session);
        report.classes.bump(out.class);
        report.reformations += out.reformations;
        report.attempts += out.attempts;
        report.exchanges += out.exchanges;
        report.deliveries += out.deliveries;
        report.faults += &out.faults;
        fp.fold(&[
            session,
            class_code(out.class),
            out.duration,
            out.fingerprint,
        ]);
        queue.push(
            now.saturating_add(out.duration),
            session * 2 + 1,
            SimEv::Completion { session, arrival },
        );
    };
    while let Some((t, ev)) = queue.pop() {
        report.makespan = report.makespan.max(t);
        match ev {
            SimEv::Arrival(s) => {
                if busy < cfg.workers as u64 {
                    start(s, t, &mut queue, &mut busy, &mut report, &mut fp, t);
                } else if waiting.len() < cfg.queue_capacity {
                    waiting.push_back((s, t));
                } else {
                    report.classes.bump(TerminalClass::Shed);
                    fp.fold(&[s, class_code(TerminalClass::Shed)]);
                }
            }
            SimEv::Completion { session, arrival } => {
                report.latency.record(t.saturating_sub(arrival));
                fp.fold(&[session, t]);
                busy = busy.saturating_sub(1);
                if let Some((next, arrived)) = waiting.pop_front() {
                    start(
                        next,
                        t,
                        &mut queue,
                        &mut busy,
                        &mut report,
                        &mut fp,
                        arrived,
                    );
                }
            }
        }
    }
    report.fingerprint = fp.value();
    report
}

/// Knobs of the full capacity-frontier suite: one clean burst sized
/// for the concurrency criterion plus one campaign per adversary.
#[derive(Debug, Clone, Copy)]
pub struct SuiteConfig {
    /// Master seed; every scenario derives its own from it.
    pub seed: u64,
    /// Fresh pool members.
    pub pool_fresh: usize,
    /// Stale (pre-rekey) pool members for the epoch-churn adversary.
    pub pool_stale: usize,
    /// Sessions in the clean capacity burst.
    pub burst_sessions: u64,
    /// Virtual workers serving the burst.
    pub burst_workers: usize,
    /// Sessions per adversary campaign.
    pub scenario_sessions: u64,
}

impl SuiteConfig {
    /// The committed-benchmark shape: a 2,200-session burst against
    /// 2,048 virtual workers (peak concurrency ≥ 2,000) plus 120
    /// sessions per adversary.
    pub fn full(seed: u64) -> SuiteConfig {
        SuiteConfig {
            seed,
            pool_fresh: 12,
            pool_stale: 4,
            burst_sessions: 2_200,
            burst_workers: 2_048,
            scenario_sessions: 120,
        }
    }

    /// A seconds-scale shape for tests and `--smoke` runs.
    pub fn smoke(seed: u64) -> SuiteConfig {
        SuiteConfig {
            seed,
            pool_fresh: 6,
            pool_stale: 2,
            burst_sessions: 24,
            burst_workers: 16,
            scenario_sessions: 12,
        }
    }
}

/// The whole suite's deterministic results.
pub struct SuiteReport {
    /// The master seed the suite ran under.
    pub seed: u64,
    /// The clean capacity burst.
    pub capacity: ScenarioReport,
    /// One report per adversary campaign, in [`Kind::ALL`] order
    /// (minus the clean baseline, which the burst already covers).
    pub scenarios: Vec<ScenarioReport>,
}

impl SuiteReport {
    /// The deterministic JSON section (see
    /// [`metrics::render_deterministic`]): byte-identical across runs
    /// with the same [`SuiteConfig`].
    pub fn deterministic_json(&self) -> String {
        metrics::render_deterministic(self.seed, &self.capacity, &self.scenarios)
    }
}

/// Runs the full suite: builds the shared pool, runs the clean
/// capacity burst, then every adversary campaign.
pub fn run_suite(cfg: &SuiteConfig) -> SuiteReport {
    let pool = SimPool::build(cfg.pool_fresh, cfg.pool_stale, cfg.seed);
    let burst_cfg = ScenarioConfig {
        workers: cfg.burst_workers,
        queue_capacity: cfg.burst_sessions as usize,
        ..ScenarioConfig::burst(cfg.burst_sessions, cfg.seed)
    };
    let capacity = run_scenario(&pool, Schedule::new(Kind::Clean, cfg.seed), &burst_cfg);
    let mut scenarios = Vec::new();
    for (i, kind) in Kind::ALL.iter().copied().enumerate() {
        if kind == Kind::Clean {
            continue;
        }
        let seed = cfg.seed.wrapping_add(0x100 * (i as u64 + 1));
        let mut sc = ScenarioConfig::burst(cfg.scenario_sessions, seed);
        if kind == Kind::SybilFlood {
            // The flood targets an undersized service so admission
            // control sheds the overflow.
            sc.workers = (cfg.scenario_sessions as usize / 4).max(2);
            sc.queue_capacity = (cfg.scenario_sessions as usize / 8).max(1);
        }
        scenarios.push(run_scenario(&pool, Schedule::new(kind, seed), &sc));
    }
    SuiteReport {
        seed: cfg.seed,
        capacity,
        scenarios,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_burst_accepts_everything_and_tracks_concurrency() {
        let pool = SimPool::build(3, 0, 0xC1EA);
        let cfg = ScenarioConfig::burst(6, 0xC1EA);
        let r = run_scenario(&pool, Schedule::new(Kind::Clean, 0xC1EA), &cfg);
        assert_eq!(r.classes.accepted, 6, "{:?}", r.classes);
        assert_eq!(r.peak_concurrency, 6, "burst arrivals overlap fully");
        assert_eq!(r.latency.count(), 6);
        assert!(r.makespan > 0);
        assert_eq!(r.faults, FaultCounters::default());
    }

    #[test]
    fn same_seed_same_report() {
        let run = || {
            let pool = SimPool::build(3, 0, 7);
            let cfg = ScenarioConfig::burst(4, 7);
            run_scenario(&pool, Schedule::new(Kind::SlowLoris, 7), &cfg)
        };
        let (a, b) = (run(), run());
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.classes, b.classes);
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.makespan, b.makespan);
    }

    #[test]
    fn undersized_service_sheds_the_overflow() {
        let pool = SimPool::build(3, 0, 9);
        let mut cfg = ScenarioConfig::burst(8, 9);
        cfg.workers = 2;
        cfg.queue_capacity = 1;
        let r = run_scenario(&pool, Schedule::new(Kind::Clean, 9), &cfg);
        assert_eq!(r.classes.shed, 5, "8 arrivals, 2 served + 1 queued");
        assert_eq!(r.classes.total(), 8);
        assert_eq!(r.peak_concurrency, 2);
    }

    #[test]
    fn partition_exhausts_the_full_roster() {
        let pool = SimPool::build(3, 0, 11);
        let mut cfg = ScenarioConfig::burst(2, 11);
        cfg.max_attempts = 2;
        let r = run_scenario(&pool, Schedule::new(Kind::Partition, 11), &cfg);
        assert_eq!(r.classes.exhausted, 2, "{:?}", r.classes);
        assert_eq!(r.reformations, 0, "uniform liveness keeps the roster");
        assert!(r.faults.partitioned > 0);
    }
}
