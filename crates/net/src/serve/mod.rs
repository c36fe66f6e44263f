//! A long-lived multi-session handshake service.
//!
//! [`Service`] multiplexes many concurrent handshake sessions over a
//! bounded worker pool:
//!
//! * **Lifecycle** — every submission gets a [`registry::SessionEntry`]
//!   whose state machine (`Gathering → Running → Draining →
//!   Completed/Aborted`) only moves along legal edges
//!   ([`registry::SessionRegistry::transition`] refuses and counts
//!   anything else).
//! * **Scheduling** — one registry behind one mutex holds every session,
//!   and one queue, bounded at exactly [`ServiceConfig::queue_capacity`],
//!   feeds every worker: whichever worker is idle takes the next
//!   session, so no session waits behind a busy worker while another is
//!   free.
//! * **Backpressure** — when the queue is full, admission control sheds
//!   the session *with decoy traffic* ([`shed`]) copying a wire shape the
//!   registry learned, so outsiders cannot distinguish a shed session
//!   from a served-and-failed one.
//! * **Survivor re-formation** — when an attempt aborts, slot liveness
//!   read off the summary of the attempt's
//!   [`crate::observe::TrafficLog`] picks the responsive survivors and
//!   the session is re-formed among them (§7 partial-success
//!   semantics), retried under jittered exponential backoff, a bounded
//!   attempt budget and a per-session deadline.
//! * **Graceful shutdown** — [`Service::shutdown`] sweeps the queue,
//!   lets running sessions finish their current attempt but start no
//!   other, and reports a [`drain::DrainReport`] whose leak count a
//!   chaos soak can assert to be zero.
//!
//! The registry is the one store of what the service knows about
//! sessions: their entries, the decoy templates, and the drain (the
//! running entries' [`SessionState::Draining`]). The service is generic
//! over [`session::SessionJob`], so `shs-net` stays protocol-agnostic;
//! `shs-core` provides the adapter that runs real GCD handshakes as
//! jobs.

pub mod drain;
pub mod registry;
pub mod session;
pub mod shed;

pub use drain::DrainReport;
pub use registry::{
    RegistryError, RegistryStats, SessionEntry, SessionId, SessionRegistry, SessionState,
    TerminalClass,
};
pub use session::{
    drive, live_slots, AttemptContext, AttemptOutcome, AttemptRecord, AttemptVerdict, DriveConfig,
    SessionJob, SessionSpec,
};
pub use shed::backoff_delay;

use crate::clock::SharedClock;
use crate::observe::TrafficLog;
use std::sync::mpsc::{sync_channel, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Service tuning knobs. The defaults suit tests and the bundled
/// daemon example; a deployment would size them to its fleet.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Worker threads executing sessions concurrently (default 4).
    pub workers: usize,
    /// Bound of the submission queue (default 32). A full queue is the
    /// shedding trigger: submissions beyond it are turned away with
    /// decoy traffic instead of buffering without limit. With 0, a
    /// submission is queued only if a worker is waiting for it.
    pub queue_capacity: usize,
    /// Deadline applied to sessions whose spec does not override it
    /// (default 30 s, measured from admission).
    pub default_deadline: Duration,
    /// Attempt budget applied to sessions whose spec does not override
    /// it (default 4: the original attempt plus three retries).
    pub default_max_attempts: u32,
    /// First-retry backoff (default 5 ms); doubles per retry.
    pub backoff_base: Duration,
    /// Backoff ceiling (default 100 ms).
    pub backoff_cap: Duration,
    /// Seed for per-attempt randomness derivation and decoy payloads.
    pub seed: u64,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            workers: 4,
            queue_capacity: 32,
            default_deadline: Duration::from_secs(30),
            default_max_attempts: 4,
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(100),
            seed: 0x5e5510,
        }
    }
}

/// Outcome of a [`Service::submit`] call.
#[derive(Debug)]
pub enum Submitted {
    /// Admitted and queued for a worker.
    Queued(SessionId),
    /// Turned away by admission control. `decoy` is the synthetic
    /// traffic emitted in place of a real session (present once the
    /// service has learned a wire shape for this roster size).
    Shed {
        /// The registry id of the shed session (terminal immediately).
        id: SessionId,
        /// What an eavesdropper saw instead of a real session.
        decoy: Option<TrafficLog>,
    },
}

impl Submitted {
    /// The registry id, whichever way admission went.
    pub fn id(&self) -> SessionId {
        match self {
            Submitted::Queued(id) => *id,
            Submitted::Shed { id, .. } => *id,
        }
    }

    /// Was the session admitted to the queue?
    pub fn queued(&self) -> bool {
        matches!(self, Submitted::Queued(_))
    }
}

struct WorkItem {
    id: SessionId,
    spec: SessionSpec,
}

/// The multi-session handshake service. See the module docs.
pub struct Service {
    config: ServiceConfig,
    registry: Arc<Mutex<SessionRegistry>>,
    /// The session clock (wall time): registry deadlines are readings
    /// of it, and the workers' attempt loops run on it.
    clock: SharedClock,
    /// The submission queue; dropped on shutdown to disconnect the
    /// workers.
    queue: SyncSender<WorkItem>,
    workers: Vec<JoinHandle<()>>,
}

impl Service {
    /// Starts the worker pool and returns the running service.
    pub fn start(config: ServiceConfig) -> Service {
        let clock = crate::clock::wall();
        let registry = Arc::new(Mutex::new(SessionRegistry::new()));
        let drive_cfg = DriveConfig {
            backoff_base: config.backoff_base,
            backoff_cap: config.backoff_cap,
            seed: config.seed,
            clock: Arc::clone(&clock),
        };
        let (queue, rx) = sync_channel::<WorkItem>(config.queue_capacity);
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let rx = Arc::clone(&rx);
                let registry = Arc::clone(&registry);
                let drive_cfg = drive_cfg.clone();
                thread::spawn(move || loop {
                    // Idle workers share the receiver: the one holding
                    // its lock takes the next session. The timeout bounds
                    // each hold, so no worker blocks for good under it.
                    let next = rx
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .recv_timeout(Duration::from_millis(25));
                    match next {
                        Ok(mut item) => drive(
                            &registry,
                            &drive_cfg,
                            item.id,
                            item.spec.job.as_mut(),
                            item.spec.max_attempts,
                        ),
                        Err(RecvTimeoutError::Timeout) => continue,
                        Err(RecvTimeoutError::Disconnected) => break,
                    }
                })
            })
            .collect();
        Service {
            config,
            registry,
            clock,
            queue,
            workers,
        }
    }

    /// Submits a session. Admission control applies here: the registry
    /// admits the session and it is offered to the queue once; if the
    /// queue is full the submission is shed with decoy traffic, and the
    /// shed entry is terminal at once. (No submission can race a drain:
    /// [`Service::shutdown`] consumes the service.)
    pub fn submit(&self, mut spec: SessionSpec) -> Submitted {
        if spec.deadline == Duration::ZERO {
            spec.deadline = self.config.default_deadline;
        }
        if spec.max_attempts == 0 {
            spec.max_attempts = self.config.default_max_attempts;
        }
        let id = self
            .registry
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .admit(spec.job.roster_len(), self.clock.now() + spec.deadline);
        if self.queue.try_send(WorkItem { id, spec }).is_ok() {
            return Submitted::Queued(id);
        }
        // Shed: classify immediately and emit a decoy so the refusal is
        // indistinguishable on the wire from a served session. The entry
        // keeps the template's summary; the decoy's bytes go to the caller.
        let decoy = self
            .registry
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .shed(id, self.config.seed ^ id.wrapping_mul(0x9e37));
        Submitted::Shed { id, decoy }
    }

    /// Blocks until every admitted session is terminal or `timeout`
    /// passes; returns whether the registry went fully terminal.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let active = self
                .registry
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .active();
            if active == 0 {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            thread::sleep(Duration::from_millis(2));
        }
    }

    /// Gracefully shuts down: sweeps queued sessions (classified
    /// [`TerminalClass::Drained`]), moves running ones to
    /// [`SessionState::Draining`], which forbids further retries, gives
    /// them `grace` to finish their current attempt, and joins the
    /// workers.
    pub fn shutdown(self, grace: Duration) -> DrainReport {
        let start = Instant::now();
        let (swept, running_at_drain) = self
            .registry
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .drain();
        self.wait_idle(grace.saturating_sub(start.elapsed()));
        let stats = self.stats();
        // Dropping the sender lets idle workers exit; busy workers exit
        // after their in-flight session terminates.
        drop(self.queue);
        if stats.active == 0 {
            for h in self.workers {
                let _ = h.join();
            }
        }
        DrainReport {
            swept_from_queue: swept,
            finished_in_grace: running_at_drain.saturating_sub(stats.active),
            leaked: stats.active,
            backpressure_dropped: stats.backpressure_dropped,
            elapsed: start.elapsed(),
        }
    }

    /// Aggregate registry counters.
    pub fn stats(&self) -> RegistryStats {
        self.registry
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .stats()
    }

    /// Removes every terminal entry and returns how many went. Sessions
    /// still queued or running stay, and [`RegistryStats::submitted`]
    /// keeps counting the evicted ones.
    pub fn evict_terminal(&self) -> usize {
        self.registry
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .evict_terminal()
    }

    /// A clone of one registry entry.
    pub fn entry(&self, id: SessionId) -> Option<SessionEntry> {
        self.registry
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(id)
    }

    /// Clones of every registry entry, in id order.
    pub fn snapshot(&self) -> Vec<SessionEntry> {
        self.registry
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .snapshot()
    }

    /// Ids of non-terminal sessions (the leak check).
    pub fn leaks(&self) -> Vec<SessionId> {
        self.registry
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .leaks()
    }

    /// Roster sizes the registry has learned a decoy template for.
    pub fn known_decoy_sizes(&self) -> Vec<usize> {
        self.registry
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .known_decoy_sizes()
    }

    /// The configuration the service was started with.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    /// A job that sleeps briefly, then succeeds with uniform traffic.
    struct SleepyJob {
        len: usize,
        sleep: Duration,
    }

    impl SessionJob for SleepyJob {
        fn roster_len(&self) -> usize {
            self.len
        }
        fn run_attempt(&mut self, _ctx: &AttemptContext) -> AttemptOutcome {
            thread::sleep(self.sleep);
            let mut traffic = TrafficLog::new();
            for round in ["p1", "p2"] {
                for slot in 0..self.len {
                    traffic.record(round, slot, b"payload");
                }
            }
            AttemptOutcome {
                verdict: AttemptVerdict::Success,
                traffic,
            }
        }
    }

    fn sleepy(len: usize, ms: u64) -> SessionSpec {
        SessionSpec::new(Box::new(SleepyJob {
            len,
            sleep: Duration::from_millis(ms),
        }))
    }

    /// A job that blocks until its gate closes (the test drops the
    /// sender), then succeeds like a [`SleepyJob`]: the test, not a
    /// timer, decides how long a worker stays busy.
    struct GatedJob(mpsc::Receiver<()>);

    impl SessionJob for GatedJob {
        fn roster_len(&self) -> usize {
            2
        }
        fn run_attempt(&mut self, ctx: &AttemptContext) -> AttemptOutcome {
            let _ = self.0.recv();
            SleepyJob {
                len: 2,
                sleep: Duration::ZERO,
            }
            .run_attempt(ctx)
        }
    }

    /// A gated session and its gate; dropping the gate lets it finish.
    fn gated() -> (SessionSpec, mpsc::Sender<()>) {
        let (gate, rx) = mpsc::channel();
        (SessionSpec::new(Box::new(GatedJob(rx))), gate)
    }

    /// Waits until a worker has picked session `id` up.
    fn wait_running(svc: &Service, id: SessionId) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while svc.entry(id).unwrap().state != SessionState::Running {
            assert!(Instant::now() < deadline, "no worker picked {id} up");
            thread::sleep(Duration::from_millis(1));
        }
    }

    /// Runs `inner` and keeps a copy of every attempt's log, which the
    /// registry does not.
    struct Keeping<J> {
        inner: J,
        logs: Arc<Mutex<Vec<TrafficLog>>>,
    }

    impl<J: SessionJob> SessionJob for Keeping<J> {
        fn roster_len(&self) -> usize {
            self.inner.roster_len()
        }
        fn run_attempt(&mut self, ctx: &AttemptContext) -> AttemptOutcome {
            let outcome = self.inner.run_attempt(ctx);
            self.logs
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(outcome.traffic.clone());
            outcome
        }
    }

    /// A two-slot job whose every attempt aborts with both slots live.
    struct AbortingJob;

    impl SessionJob for AbortingJob {
        fn roster_len(&self) -> usize {
            2
        }
        fn run_attempt(&mut self, _ctx: &AttemptContext) -> AttemptOutcome {
            let mut traffic = TrafficLog::new();
            for slot in 0..2 {
                traffic.record("p1", slot, b"decoy");
            }
            AttemptOutcome {
                verdict: AttemptVerdict::Abort,
                traffic,
            }
        }
    }

    #[test]
    fn unset_spec_budgets_take_the_service_defaults() {
        let svc = Service::start(ServiceConfig {
            workers: 1,
            default_deadline: Duration::from_secs(300),
            default_max_attempts: 2,
            ..ServiceConfig::default()
        });
        let id = svc.submit(SessionSpec::new(Box::new(AbortingJob))).id();
        assert!(svc.wait_idle(Duration::from_secs(10)));
        let e = svc.entry(id).unwrap();
        assert_eq!(e.attempts.len(), 2, "default_max_attempts applies");
        assert_eq!(e.class, Some(TerminalClass::Exhausted));
        assert!(
            e.deadline > Duration::from_secs(299),
            "default_deadline applies: {:?}",
            e.deadline
        );
        assert!(svc.shutdown(Duration::from_secs(5)).clean());
    }

    /// The drain is the entry's state: a session backing off when it
    /// begins is classified drained without another attempt.
    #[test]
    fn a_session_backing_off_at_a_drain_starts_no_further_attempt() {
        let svc = Service::start(ServiceConfig {
            workers: 1,
            backoff_base: Duration::from_millis(400),
            backoff_cap: Duration::from_millis(400),
            ..ServiceConfig::default()
        });
        let registry = Arc::clone(&svc.registry);
        let id = svc.submit(SessionSpec::new(Box::new(AbortingJob))).id();
        let deadline = Instant::now() + Duration::from_secs(5);
        while svc.entry(id).unwrap().attempts.is_empty() {
            assert!(Instant::now() < deadline, "attempt 0 was never recorded");
            thread::sleep(Duration::from_millis(1));
        }
        // 20 ms into a backoff of 200-400 ms.
        thread::sleep(Duration::from_millis(20));
        let report = svc.shutdown(Duration::from_secs(5));
        assert!(report.clean(), "{report:?}");
        assert_eq!(report.finished_in_grace, 1);
        let e = registry.lock().unwrap().entry(id).unwrap();
        assert_eq!(e.class, Some(TerminalClass::Drained));
        assert_eq!(e.attempts.len(), 1, "no attempt starts after the drain");
    }

    #[test]
    fn sessions_complete_and_registry_stays_leak_free() {
        let svc = Service::start(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        let ids: Vec<_> = (0..6).map(|_| svc.submit(sleepy(3, 1)).id()).collect();
        assert!(svc.wait_idle(Duration::from_secs(10)));
        for id in &ids {
            let e = svc.entry(*id).unwrap();
            assert_eq!(e.class, Some(TerminalClass::Accepted));
            assert!(e.latency().is_some());
        }
        let snap_ids: Vec<_> = svc.snapshot().iter().map(|e| e.id).collect();
        assert_eq!(snap_ids, ids, "the snapshot is in id order");
        let stats = svc.stats();
        assert_eq!((stats.submitted, stats.completed), (6, 6));
        assert!(svc.leaks().is_empty());
        let report = svc.shutdown(Duration::from_secs(5));
        assert!(report.clean());
    }

    #[test]
    fn full_queue_sheds_with_decoy_after_learning() {
        let svc = Service::start(ServiceConfig {
            workers: 1,
            queue_capacity: 1,
            ..ServiceConfig::default()
        });
        // Teach the registry a template with one clean session first.
        let logs = Arc::new(Mutex::new(Vec::new()));
        let first = svc.submit(SessionSpec::new(Box::new(Keeping {
            inner: SleepyJob {
                len: 2,
                sleep: Duration::ZERO,
            },
            logs: Arc::clone(&logs),
        })));
        assert!(first.queued());
        assert!(svc.wait_idle(Duration::from_secs(10)));
        assert_eq!(svc.known_decoy_sizes(), vec![2]);
        // Saturate: one long session occupies the worker, one fills the
        // queue; everything beyond must shed.
        let _busy = svc.submit(sleepy(2, 300));
        thread::sleep(Duration::from_millis(50)); // let the worker claim it
        let _queued = svc.submit(sleepy(2, 0));
        let shed = svc.submit(sleepy(2, 0));
        assert!(!shed.queued(), "third submission should be shed");
        let Submitted::Shed { id, decoy } = shed else {
            unreachable!()
        };
        let decoy = decoy.expect("shape was learned, decoy must exist");
        let real = logs.lock().unwrap_or_else(PoisonError::into_inner)[0].clone();
        assert_eq!(decoy.shape(), real.shape(), "shedding is unobservable");
        assert_ne!(decoy, real, "decoy bits are fresh");
        let shed_entry = svc.entry(id).unwrap();
        assert_eq!(shed_entry.class, Some(TerminalClass::Shed));
        assert_eq!(
            shed_entry.decoy_traffic,
            Some(decoy.into_summary()),
            "the registry keeps the decoy's summary"
        );
        let kept = shed_entry.decoy_traffic.as_ref().unwrap();
        let first_entry = svc.entry(first.id()).unwrap();
        assert!(
            Arc::ptr_eq(
                kept.shared_shape(),
                first_entry.attempts[0].traffic.shared_shape()
            ),
            "the shed entry shares the teaching attempt's shape, not a copy"
        );
        assert!(svc.wait_idle(Duration::from_secs(10)));
        assert!(svc.shutdown(Duration::from_secs(5)).clean());
    }

    #[test]
    fn evict_terminal_keeps_running_sessions() {
        let svc = Service::start(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        let done: Vec<_> = (0..4).map(|_| svc.submit(sleepy(2, 0)).id()).collect();
        assert!(svc.wait_idle(Duration::from_secs(10)));
        let running = svc.submit(sleepy(2, 300)).id();
        wait_running(&svc, running);
        assert_eq!(svc.evict_terminal(), done.len());
        for id in &done {
            assert!(svc.entry(*id).is_none(), "session {id} evicted");
        }
        assert!(svc.entry(running).is_some(), "a running session is kept");
        assert_eq!(svc.stats().submitted, 5, "eviction keeps the history");
        assert!(svc.wait_idle(Duration::from_secs(10)));
        assert!(svc.leaks().is_empty());
        let kept = svc.entry(running).unwrap();
        assert_eq!(kept.class, Some(TerminalClass::Accepted));
        assert_eq!(svc.evict_terminal(), 1);
        assert_eq!(svc.stats().submitted, 5);
        assert!(svc.leaks().is_empty());
        assert!(svc.shutdown(Duration::from_secs(5)).clean());
    }

    #[test]
    fn shutdown_sweeps_queue_and_reports() {
        let svc = Service::start(ServiceConfig {
            workers: 1,
            queue_capacity: 8,
            ..ServiceConfig::default()
        });
        let registry = Arc::clone(&svc.registry);
        let busy = svc.submit(sleepy(2, 100)).id();
        wait_running(&svc, busy);
        for _ in 0..3 {
            assert!(svc.submit(sleepy(2, 0)).queued());
        }
        // The swept entries themselves are checked by the registry's
        // `drain_applies_both_edges_in_place`.
        let report = svc.shutdown(Duration::from_secs(5));
        assert!(report.clean(), "no leaks: {report:?}");
        assert_eq!(report.swept_from_queue, 3);
        assert_eq!(report.finished_in_grace, 1);
        // The workers still pulled the swept work items; starting one is
        // not an illegal transition.
        let stats = registry.lock().unwrap().stats();
        assert_eq!(stats.illegal_transitions, 0);
    }

    #[test]
    fn an_idle_worker_takes_the_next_session_while_another_is_busy() {
        let svc = Service::start(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        let (long, gate) = gated();
        let long = svc.submit(long).id();
        wait_running(&svc, long);
        let short: Vec<_> = (0..2).map(|_| svc.submit(sleepy(2, 0)).id()).collect();
        let deadline = Instant::now() + Duration::from_secs(2);
        let classes = loop {
            let classes: Vec<_> = short
                .iter()
                .map(|id| svc.entry(*id).unwrap().class)
                .collect();
            if classes.iter().all(Option::is_some) || Instant::now() >= deadline {
                break classes;
            }
            thread::sleep(Duration::from_millis(2));
        };
        assert_eq!(classes, vec![Some(TerminalClass::Accepted); 2]);
        assert_eq!(svc.entry(long).unwrap().state, SessionState::Running);
        drop(gate);
        assert!(svc.wait_idle(Duration::from_secs(10)));
        assert!(svc.shutdown(Duration::from_secs(5)).clean());
    }

    #[test]
    fn the_queue_holds_exactly_queue_capacity_sessions() {
        let svc = Service::start(ServiceConfig {
            workers: 2,
            queue_capacity: 3,
            ..ServiceConfig::default()
        });
        let mut gates = Vec::new();
        for _ in 0..2 {
            let (busy, gate) = gated();
            let busy = svc.submit(busy).id();
            wait_running(&svc, busy);
            gates.push(gate);
        }
        let queued = (0..4).filter(|_| svc.submit(sleepy(2, 0)).queued()).count();
        assert_eq!(queued, 3);
        assert_eq!(svc.stats().shed, 1);
        drop(gates);
        assert!(svc.wait_idle(Duration::from_secs(10)));
        assert_eq!(svc.stats().completed, 5);
        assert!(svc.shutdown(Duration::from_secs(5)).clean());
    }
}
