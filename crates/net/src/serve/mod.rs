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
//! * **Sharding** — the registry is split into one shard per worker.
//!   Sessions are pinned to a shard by `id % workers`, each worker owns
//!   its shard's queue outright (no shared receiver lock), and in the
//!   steady state a worker only ever touches its own shard's mutex, so
//!   workers never contend. Cross-shard traffic happens in exactly one
//!   place: admission, where a submission whose pinned queue is full is
//!   *stolen* onto the first sibling queue with room, scanning
//!   circularly from the pinned shard (the stolen item still records
//!   into its owning shard's registry, keeping id → shard lookup a pure
//!   modulus).
//! * **Backpressure** — every shard queue is bounded; when all of them
//!   are full, admission control sheds the session *with decoy traffic*
//!   ([`shed::ShapeBook`]) so outsiders cannot distinguish a shed
//!   session from a served-and-failed one.
//! * **Survivor re-formation** — when an attempt aborts, slot liveness
//!   derived from the attempt's [`crate::observe::TrafficLog`] picks the
//!   responsive survivors and the session is re-formed among them
//!   (§7 partial-success semantics), retried under jittered exponential
//!   backoff, a bounded attempt budget and a per-session deadline.
//! * **Graceful shutdown** — [`Service::shutdown`] sweeps the queue,
//!   lets running sessions finish their current attempt, and reports a
//!   [`drain::DrainReport`] whose leak count a chaos soak can assert to
//!   be zero.
//!
//! The service is generic over [`session::SessionJob`], so `shs-net`
//! stays protocol-agnostic; `shs-core` provides the adapter that runs
//! real GCD handshakes as jobs.

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
pub use shed::{backoff_delay, DecoyShape, ShapeBook};

use crate::clock::SharedClock;
use crate::observe::TrafficLog;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, RecvTimeoutError, SyncSender, TrySendError};
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
    /// decoy traffic instead of buffering without limit.
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
    /// Index of the shard registry this session lives in — `id % n` at
    /// admission. Carried explicitly so a *stolen* item (executed by a
    /// sibling worker) still records into its owning shard.
    shard: usize,
    spec: SessionSpec,
}

/// The multi-session handshake service. See the module docs.
pub struct Service {
    config: ServiceConfig,
    /// One registry shard per worker; session `id` lives in
    /// `shards[id % shards.len()]`.
    shards: Arc<Vec<Mutex<SessionRegistry>>>,
    shapes: Arc<Mutex<ShapeBook>>,
    draining: Arc<AtomicBool>,
    /// Global id allocator — the only cross-shard state touched on the
    /// admission fast path.
    next_id: Arc<AtomicU64>,
    /// The session clock (wall time): registry deadlines are readings
    /// of it, and the workers' attempt loops run on it.
    clock: SharedClock,
    /// Per-worker submission queues; cleared on shutdown to disconnect
    /// the workers.
    queues: Vec<SyncSender<WorkItem>>,
    workers: Vec<JoinHandle<()>>,
}

impl Service {
    /// Starts the worker pool and returns the running service.
    pub fn start(config: ServiceConfig) -> Service {
        let clock = crate::clock::wall();
        let n = config.workers.max(1);
        let shards: Arc<Vec<Mutex<SessionRegistry>>> =
            Arc::new((0..n).map(|_| Mutex::new(SessionRegistry::new())).collect());
        let shapes = Arc::new(Mutex::new(ShapeBook::new()));
        let draining = Arc::new(AtomicBool::new(false));
        // The configured capacity bounds the *total* queued work, split
        // evenly across the per-worker queues.
        let per_queue = config.queue_capacity.max(1).div_ceil(n).max(1);
        let drive_cfg = DriveConfig {
            backoff_base: config.backoff_base,
            backoff_cap: config.backoff_cap,
            seed: config.seed,
            clock: Arc::clone(&clock),
        };
        let mut queues = Vec::with_capacity(n);
        let mut workers = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = sync_channel::<WorkItem>(per_queue);
            queues.push(tx);
            let shards = Arc::clone(&shards);
            let shapes = Arc::clone(&shapes);
            let draining = Arc::clone(&draining);
            let drive_cfg = drive_cfg.clone();
            workers.push(thread::spawn(move || loop {
                // The worker owns its receiver outright — no dequeue
                // contention; the timeout keeps idle workers responsive
                // to a disconnect.
                match rx.recv_timeout(Duration::from_millis(25)) {
                    Ok(mut item) => {
                        let roster_len = item.spec.job.roster_len();
                        let summary = drive(
                            &shards[item.shard],
                            &draining,
                            &drive_cfg,
                            item.id,
                            item.spec.job.as_mut(),
                            item.spec.max_attempts,
                        );
                        if let Some(shape) = summary.clean_shape {
                            shapes
                                .lock()
                                .unwrap_or_else(PoisonError::into_inner)
                                .learn(roster_len, shape);
                        }
                    }
                    Err(RecvTimeoutError::Timeout) => continue,
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }));
        }
        Service {
            config,
            shards,
            shapes,
            draining,
            next_id: Arc::new(AtomicU64::new(0)),
            clock,
            queues,
            workers,
        }
    }

    /// Submits a session. Admission control applies here: the session is
    /// pinned to shard `id % workers` and offered to that worker's
    /// queue first; if the pinned queue is full the item is stolen onto
    /// the next sibling with room. Only when *every* queue is full (or
    /// the service is draining) is the submission shed with decoy
    /// traffic, and the shed entry is terminal at once.
    pub fn submit(&self, mut spec: SessionSpec) -> Submitted {
        if spec.deadline == Duration::ZERO {
            spec.deadline = self.config.default_deadline;
        }
        if spec.max_attempts == 0 {
            spec.max_attempts = self.config.default_max_attempts;
        }
        let roster_len = spec.job.roster_len();
        let n = self.queues.len();
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        let shard = (id % n as u64) as usize;
        self.shards[shard]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .admit_with_id(id, roster_len, self.clock.now() + spec.deadline);
        if !self.draining.load(Ordering::SeqCst) {
            let mut item = WorkItem { id, shard, spec };
            for offset in 0..n {
                let q = (shard + offset) % n;
                match self.queues[q].try_send(item) {
                    Ok(()) => return Submitted::Queued(id),
                    // `try_send` hands the message back either way;
                    // reclaim it and try the next sibling queue.
                    Err(TrySendError::Full(back)) | Err(TrySendError::Disconnected(back)) => {
                        item = back;
                    }
                }
            }
        }
        // Shed: classify immediately and emit a decoy so the refusal is
        // indistinguishable on the wire from a served session.
        let decoy = self
            .shapes
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .template(roster_len)
            .map(|t| t.synthesize(self.config.seed ^ id.wrapping_mul(0x9e37)));
        let mut reg = self.shards[shard]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let _ = reg.transition(id, SessionState::Aborted, Some(TerminalClass::Shed));
        if let Some(d) = &decoy {
            let _ = reg.set_decoy_traffic(id, d.clone().into_summary());
        }
        Submitted::Shed { id, decoy }
    }

    /// Non-terminal sessions across every shard.
    fn total_active(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).active())
            .sum()
    }

    /// Blocks until every admitted session is terminal or `timeout`
    /// passes; returns whether the registry went fully terminal.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if self.total_active() == 0 {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            thread::sleep(Duration::from_millis(2));
        }
    }

    /// Gracefully shuts down: sweeps queued sessions (classified
    /// [`TerminalClass::Drained`]), forbids further retries, gives
    /// running sessions `grace` to finish their current attempt, and
    /// joins the workers.
    pub fn shutdown(mut self, grace: Duration) -> DrainReport {
        let start = Instant::now();
        self.draining.store(true, Ordering::SeqCst);
        let mut swept = 0u64;
        let mut running_at_drain = 0u64;
        for shard in self.shards.iter() {
            let mut reg = shard.lock().unwrap_or_else(PoisonError::into_inner);
            for e in reg.snapshot() {
                match e.state {
                    SessionState::Gathering
                        if reg
                            .transition(e.id, SessionState::Aborted, Some(TerminalClass::Drained))
                            .is_ok() =>
                    {
                        swept += 1;
                    }
                    SessionState::Running => {
                        let _ = reg.transition(e.id, SessionState::Draining, None);
                        running_at_drain += 1;
                    }
                    _ => {}
                }
            }
        }
        // Dropping the senders lets idle workers exit; busy workers exit
        // after their in-flight session terminates.
        self.queues.clear();
        let deadline = start + grace;
        while self.total_active() > 0 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(2));
        }
        let leaked = self.total_active() as u64;
        if leaked == 0 {
            for h in self.workers.drain(..) {
                let _ = h.join();
            }
        }
        DrainReport {
            swept_from_queue: swept,
            finished_in_grace: running_at_drain.saturating_sub(leaked),
            leaked,
            backpressure_dropped: self.stats().backpressure_dropped,
            elapsed: start.elapsed(),
        }
    }

    /// Aggregate registry counters: the field-wise sum over every shard.
    pub fn stats(&self) -> RegistryStats {
        let mut total = RegistryStats::default();
        for shard in self.shards.iter() {
            total.absorb(&shard.lock().unwrap_or_else(PoisonError::into_inner).stats());
        }
        total
    }

    /// Removes every terminal entry from every shard and returns how
    /// many went. Sessions still queued or running stay, and
    /// [`RegistryStats::submitted`] keeps counting the evicted ones.
    pub fn evict_terminal(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .evict_terminal()
            })
            .sum()
    }

    /// A clone of one registry entry (looked up in its pinned shard).
    pub fn entry(&self, id: SessionId) -> Option<SessionEntry> {
        self.shards[(id % self.shards.len() as u64) as usize]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(id)
    }

    /// Clones of every registry entry across all shards, in id order.
    pub fn snapshot(&self) -> Vec<SessionEntry> {
        let mut all: Vec<SessionEntry> = self
            .shards
            .iter()
            .flat_map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).snapshot())
            .collect();
        all.sort_unstable_by_key(|e| e.id);
        all
    }

    /// Ids of non-terminal sessions across all shards (the leak check).
    pub fn leaks(&self) -> Vec<SessionId> {
        let mut ids: Vec<SessionId> = self
            .shards
            .iter()
            .flat_map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).leaks())
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Roster sizes the shape book can already imitate.
    pub fn known_decoy_sizes(&self) -> Vec<usize> {
        self.shapes
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .known_sizes()
    }

    /// The configuration the service was started with.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn sessions_complete_and_registry_stays_leak_free() {
        let svc = Service::start(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        let ids: Vec<_> = (0..6).map(|_| svc.submit(sleepy(3, 1)).id()).collect();
        assert!(svc.wait_idle(Duration::from_secs(10)));
        for id in ids {
            let e = svc.entry(id).unwrap();
            assert_eq!(e.class, Some(TerminalClass::Accepted));
            assert!(e.latency().is_some());
        }
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
        // Teach the shape book with one clean session first.
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
        assert!(svc.wait_idle(Duration::from_secs(10)));
        assert!(svc.shutdown(Duration::from_secs(5)).clean());
    }

    #[test]
    fn evict_terminal_sweeps_every_shard_and_keeps_running_sessions() {
        let svc = Service::start(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        // Ids 0..4 land on both shards.
        let done: Vec<_> = (0..4).map(|_| svc.submit(sleepy(2, 0)).id()).collect();
        assert!(svc.wait_idle(Duration::from_secs(10)));
        let running = svc.submit(sleepy(2, 300)).id();
        let deadline = Instant::now() + Duration::from_secs(5);
        while svc.entry(running).unwrap().state != SessionState::Running {
            assert!(Instant::now() < deadline, "no worker picked the session up");
            thread::sleep(Duration::from_millis(1));
        }
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
        let _busy = svc.submit(sleepy(2, 100));
        thread::sleep(Duration::from_millis(30));
        let queued: Vec<_> = (0..3).map(|_| svc.submit(sleepy(2, 0)).id()).collect();
        let report = svc.shutdown(Duration::from_secs(5));
        assert!(report.clean(), "no leaks: {report:?}");
        assert_eq!(report.swept_from_queue, 3);
        // Swept sessions must be classified Drained, not left dangling.
        // (The service is gone; inspect via the report only.)
        let _ = queued;
    }

    #[test]
    fn stats_and_snapshot_aggregate_across_shards() {
        let svc = Service::start(ServiceConfig {
            workers: 3,
            ..ServiceConfig::default()
        });
        let ids: Vec<_> = (0..7).map(|_| svc.submit(sleepy(2, 1)).id()).collect();
        assert!(svc.wait_idle(Duration::from_secs(10)));
        let stats = svc.stats();
        assert_eq!(stats.submitted, 7, "per-shard admissions must sum");
        assert_eq!(stats.completed, 7);
        // Every id resolves through its pinned shard, and the snapshot
        // is globally id-ordered despite being stored shard-wise.
        for id in &ids {
            assert!(svc.entry(*id).is_some());
        }
        let snap_ids: Vec<_> = svc.snapshot().iter().map(|e| e.id).collect();
        assert_eq!(snap_ids, ids);
        assert!(svc.leaks().is_empty());
        assert!(svc.shutdown(Duration::from_secs(5)).clean());
    }

    #[test]
    fn full_pinned_queue_steals_to_sibling_instead_of_shedding() {
        // Two workers, one slot per queue. Occupy worker 0 with a long
        // session and park another item in its queue; the next session
        // pinned to shard 0 must then be stolen onto queue 1 (queued,
        // not shed) while still registering in shard 0.
        let svc = Service::start(ServiceConfig {
            workers: 2,
            queue_capacity: 2,
            ..ServiceConfig::default()
        });
        let long = svc.submit(sleepy(2, 400)).id(); // id 0 → shard 0
        thread::sleep(Duration::from_millis(60)); // worker 0 claims it
        let short = svc.submit(sleepy(2, 0)).id(); // id 1 → shard 1

        // Wait for worker 1 to finish id 1 so its queue has room.
        let deadline = Instant::now() + Duration::from_secs(5);
        while svc.entry(short).unwrap().class.is_none() {
            assert!(Instant::now() < deadline, "short session never finished");
            thread::sleep(Duration::from_millis(2));
        }
        let parked = svc.submit(sleepy(2, 0)); // id 2 → shard 0, fills queue 0
        assert!(parked.queued());
        let stolen = svc.submit(sleepy(2, 0)); // id 3 → shard 1 → queue 1
        assert!(stolen.queued());
        // Let worker 1 drain id 3 so queue 1 has a free slot again.
        while svc.entry(stolen.id()).unwrap().class.is_none() {
            assert!(Instant::now() < deadline, "queue-1 session never finished");
            thread::sleep(Duration::from_millis(2));
        }
        let stolen2 = svc.submit(sleepy(2, 0)); // id 4 → shard 0: queue 0 full → steal
        assert!(
            stolen2.queued(),
            "submission with a full pinned queue must steal, not shed"
        );
        assert!(svc.wait_idle(Duration::from_secs(10)));
        for id in [long, parked.id(), stolen.id(), stolen2.id()] {
            assert_eq!(svc.entry(id).unwrap().class, Some(TerminalClass::Accepted));
        }
        assert_eq!(svc.stats().submitted, 5);
        assert!(svc.shutdown(Duration::from_secs(5)).clean());
    }
}
