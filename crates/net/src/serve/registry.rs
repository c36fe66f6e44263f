//! The session registry: one entry per submitted session, with an
//! explicit lifecycle state machine.
//!
//! Every session moves through
//!
//! ```text
//! Gathering ──► Running ──► Completed   (Accepted | Rejected)
//!     │            │   ╲
//!     │            │    ► Aborted      (Exhausted | DeadlineExceeded |
//!     │            ▼              TooFewSurvivors | Drained)
//!     │        Draining ──► Completed | Aborted
//!     └──► Aborted (Shed | Drained)
//! ```
//!
//! and *only* through those edges: [`SessionRegistry::transition`]
//! rejects every other move and counts it, so a chaos soak can assert
//! that no session ever took an illegal shortcut. Terminal entries stay
//! in the registry (with their per-attempt records) until explicitly
//! evicted ([`SessionRegistry::evict_terminal`]) — the leak check is
//! "every entry is terminal", not "the map is empty".
//!
//! An entry keeps each attempt's roster, verdict, wire shape and fault
//! counters, and no payload byte: a recorded attempt holds the
//! [`TrafficSummary`] of its log, and the payloads die with the
//! attempt. Liveness is not stored: it is read off the summary's
//! per-slot counts ([`AttemptRecord::live_slots`]). Sessions of one
//! roster size put one shape on the wire, so the registry keeps each
//! distinct shape once and every summary it records points at that
//! copy.
//!
//! The registry is the service's one store of session state. It also
//! learns the decoy templates a shed session imitates (one per roster
//! size, see [`super::shed`]), and a drain is the entries' own
//! [`SessionState::Draining`], which the attempt loop reads.

use super::session::AttemptRecord;
use super::shed::synthesize;
use crate::observe::{FaultCounters, TrafficLog, TrafficShape, TrafficSummary};
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Registry-unique session identifier.
pub type SessionId = u64;

/// Lifecycle state of a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// Admitted and queued; no worker has picked it up yet.
    Gathering,
    /// A worker is executing attempts.
    Running,
    /// Still executing, but the service is shutting down: the current
    /// attempt finishes, no further re-formation retries are scheduled.
    Draining,
    /// Terminal: the protocol ran to completion (successfully or as an
    /// ordinary failure — both are completions, not aborts).
    Completed,
    /// Terminal: the session was turned away or gave up.
    Aborted,
}

impl SessionState {
    /// Is this a terminal state?
    pub fn terminal(self) -> bool {
        matches!(self, SessionState::Completed | SessionState::Aborted)
    }
}

/// Why a session reached its terminal state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TerminalClass {
    /// Completed with the job reporting success (full or partial
    /// handshake, per the job's policy).
    Accepted,
    /// Completed as an ordinary protocol failure (e.g. membership
    /// mismatch) — a completion, not an abort.
    Rejected,
    /// Turned away by admission control; a decoy traffic shape was
    /// emitted so outsiders cannot tell shedding from a served session.
    Shed,
    /// Aborted: the attempt/re-formation budget ran out.
    Exhausted,
    /// Aborted: the per-session deadline passed.
    DeadlineExceeded,
    /// Aborted: fewer than two live slots remained, so no re-formed
    /// session is possible (a handshake needs `m ≥ 2`).
    TooFewSurvivors,
    /// Aborted because the service shut down before (or while) the
    /// session could finish.
    Drained,
}

impl TerminalClass {
    /// The terminal [`SessionState`] this class belongs to.
    pub fn state(self) -> SessionState {
        match self {
            TerminalClass::Accepted | TerminalClass::Rejected => SessionState::Completed,
            _ => SessionState::Aborted,
        }
    }
}

impl std::fmt::Display for TerminalClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            TerminalClass::Accepted => "accepted",
            TerminalClass::Rejected => "rejected",
            TerminalClass::Shed => "shed",
            TerminalClass::Exhausted => "exhausted",
            TerminalClass::DeadlineExceeded => "deadline-exceeded",
            TerminalClass::TooFewSurvivors => "too-few-survivors",
            TerminalClass::Drained => "drained",
        };
        write!(f, "{s}")
    }
}

/// Error from an attempted registry operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegistryError {
    /// The session id is not in the registry.
    UnknownSession,
    /// The requested lifecycle edge does not exist.
    IllegalTransition {
        /// State the session was in.
        from: SessionState,
        /// State the caller asked for.
        to: SessionState,
    },
    /// A terminal state was requested without a class, or a class whose
    /// terminal state disagrees with the requested state.
    ClassMismatch,
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::UnknownSession => write!(f, "unknown session id"),
            RegistryError::IllegalTransition { from, to } => {
                write!(f, "illegal lifecycle transition {from:?} -> {to:?}")
            }
            RegistryError::ClassMismatch => write!(f, "terminal class/state mismatch"),
        }
    }
}

impl std::error::Error for RegistryError {}

/// One registry entry: lifecycle, deadline, and the attempt history of
/// a session (roster, verdict, wire shape and fault counters per
/// attempt; no payload bytes).
#[derive(Debug, Clone)]
pub struct SessionEntry {
    /// Registry-unique id.
    pub id: SessionId,
    /// Current lifecycle state.
    pub state: SessionState,
    /// Terminal classification, set exactly when `state` is terminal.
    pub class: Option<TerminalClass>,
    /// Size of the originally requested roster.
    pub roster_len: usize,
    /// Per-attempt records, in attempt order.
    pub attempts: Vec<AttemptRecord>,
    /// How many times the roster was re-formed to the survivor set.
    pub reformations: u32,
    /// Summary of the decoy traffic emitted if this session was shed
    /// (admission control): shaped like an ordinary session so shedding
    /// is unobservable to outsiders. The decoy's bytes went to the
    /// submitter.
    pub decoy_traffic: Option<TrafficSummary>,
    /// When the session was admitted. This and the two stamps below are
    /// wall-clock readings that the registry takes itself, even when
    /// the session is driven on a [`crate::clock::VirtualClock`]; only
    /// `deadline` is a reading of the session's clock.
    pub queued_at: Instant,
    /// When a worker first picked it up (wall clock, see `queued_at`).
    pub started_at: Option<Instant>,
    /// When it reached a terminal state (wall clock, see `queued_at`).
    pub finished_at: Option<Instant>,
    /// Per-session deadline: a reading of the [`crate::clock::Clock`]
    /// the session is driven on (admission time plus the budget).
    pub deadline: Duration,
}

impl SessionEntry {
    /// Queue + execution latency, if the session already terminated.
    pub fn latency(&self) -> Option<Duration> {
        self.finished_at.map(|f| f.duration_since(self.queued_at))
    }
}

/// Aggregate registry counters (derived, cheap to snapshot).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// Sessions ever admitted (including shed ones).
    pub submitted: u64,
    /// Entries not yet in a terminal state.
    pub active: u64,
    /// Entries in [`SessionState::Completed`].
    pub completed: u64,
    /// Entries in [`SessionState::Aborted`] (including shed).
    pub aborted: u64,
    /// Entries classified [`TerminalClass::Shed`].
    pub shed: u64,
    /// Total attempts recorded across all sessions.
    pub attempts: u64,
    /// Total survivor re-formations across all sessions.
    pub reformations: u64,
    /// Illegal lifecycle transitions that were requested (and refused).
    pub illegal_transitions: u64,
    /// Messages lost to backpressure across every recorded attempt
    /// (outbox sheds at the TCP relay).
    pub backpressure_dropped: u64,
}

/// The session registry (interior mutability is the caller's concern;
/// the service wraps it in one mutex).
#[derive(Debug, Default)]
pub struct SessionRegistry {
    /// Boxed: ids arrive in order, so the map's leaves stay part-empty,
    /// and an inline slot would carry that slack at a whole entry's size.
    entries: BTreeMap<SessionId, Box<SessionEntry>>,
    /// Every distinct wire shape a recorded summary holds, once; the
    /// summaries point at these copies ([`TrafficSummary::intern`]).
    shapes: HashSet<Arc<TrafficShape>>,
    /// The decoy template of each roster size: the interned shape of the
    /// first fault-free attempt 0 recorded for a session of that size.
    templates: BTreeMap<usize, Arc<TrafficShape>>,
    next_id: SessionId,
    /// Sessions ever admitted here. Distinct from `entries.len()`:
    /// eviction removes entries but admission history stands.
    admitted: u64,
    illegal_transitions: u64,
}

impl SessionRegistry {
    /// An empty registry.
    pub fn new() -> SessionRegistry {
        SessionRegistry::default()
    }

    /// Admits a new session in [`SessionState::Gathering`], returning
    /// its id. `deadline` is a reading of the clock the session will be
    /// driven on.
    pub fn admit(&mut self, roster_len: usize, deadline: Duration) -> SessionId {
        let id = self.next_id;
        self.admit_with_id(id, roster_len, deadline);
        id
    }

    /// Admits a new session under a caller-chosen id (the simulator
    /// pins each session's id to its arrival number). Self-allocation
    /// stays collision-free afterwards.
    pub fn admit_with_id(&mut self, id: SessionId, roster_len: usize, deadline: Duration) {
        self.next_id = self.next_id.max(id + 1);
        self.admitted += 1;
        let now = Instant::now();
        self.entries.insert(
            id,
            Box::new(SessionEntry {
                id,
                state: SessionState::Gathering,
                class: None,
                roster_len,
                attempts: Vec::new(),
                reformations: 0,
                decoy_traffic: None,
                queued_at: now,
                started_at: None,
                finished_at: None,
                deadline,
            }),
        );
    }

    /// Moves a session along a lifecycle edge. Terminal targets require
    /// a [`TerminalClass`] whose own terminal state matches; illegal
    /// edges are refused and counted.
    ///
    /// # Errors
    ///
    /// [`RegistryError::UnknownSession`], [`RegistryError::ClassMismatch`]
    /// or [`RegistryError::IllegalTransition`].
    pub fn transition(
        &mut self,
        id: SessionId,
        to: SessionState,
        class: Option<TerminalClass>,
    ) -> Result<(), RegistryError> {
        let entry = match self.entries.get_mut(&id) {
            Some(e) => e,
            None => return Err(RegistryError::UnknownSession),
        };
        if to.terminal() != class.is_some() || class.is_some_and(|c| c.state() != to) {
            return Err(RegistryError::ClassMismatch);
        }
        let legal = matches!(
            (entry.state, to),
            (SessionState::Gathering, SessionState::Running)
                | (SessionState::Gathering, SessionState::Aborted)
                | (SessionState::Running, SessionState::Draining)
                | (SessionState::Running, SessionState::Completed)
                | (SessionState::Running, SessionState::Aborted)
                | (SessionState::Draining, SessionState::Completed)
                | (SessionState::Draining, SessionState::Aborted)
        );
        if !legal {
            self.illegal_transitions += 1;
            return Err(RegistryError::IllegalTransition {
                from: entry.state,
                to,
            });
        }
        let now = Instant::now();
        if to == SessionState::Running {
            entry.started_at = Some(now);
        }
        if to.terminal() {
            entry.finished_at = Some(now);
            entry.class = class;
            // No attempt follows: drop the slack the first push reserved.
            entry.attempts.shrink_to_fit();
        }
        entry.state = to;
        Ok(())
    }

    /// Applies the two drain edges in place, through
    /// [`SessionRegistry::transition`]: every queued session is aborted
    /// as [`TerminalClass::Drained`] and every running one moves to
    /// [`SessionState::Draining`]. Terminal and already draining
    /// entries are left as they are. Returns how many sessions took each
    /// edge, `(swept, running)`.
    pub fn drain(&mut self) -> (u64, u64) {
        // Only the non-terminal entries are read out: a few ids, however
        // large the terminal history.
        let live: Vec<(SessionId, SessionState)> = self
            .entries
            .values()
            .filter(|e| !e.state.terminal())
            .map(|e| (e.id, e.state))
            .collect();
        let (mut swept, mut running) = (0, 0);
        for (id, state) in live {
            match state {
                SessionState::Gathering
                    if self
                        .transition(id, SessionState::Aborted, Some(TerminalClass::Drained))
                        .is_ok() =>
                {
                    swept += 1;
                }
                SessionState::Running
                    if self.transition(id, SessionState::Draining, None).is_ok() =>
                {
                    running += 1;
                }
                _ => {}
            }
        }
        (swept, running)
    }

    /// Appends an attempt record to a session's history, its summary
    /// interned (one allocation shared by every equal shape in this
    /// registry), and returns the session's state, which reads
    /// [`SessionState::Draining`] once a drain has begun.
    ///
    /// The first fault-free attempt 0 of each roster size also becomes
    /// that size's decoy template: faulty traffic would bake an injected
    /// anomaly into every future decoy, and a retry may run on a
    /// re-formed, smaller roster.
    ///
    /// # Errors
    ///
    /// [`RegistryError::UnknownSession`].
    pub fn record_attempt(
        &mut self,
        id: SessionId,
        mut record: AttemptRecord,
    ) -> Result<SessionState, RegistryError> {
        let entry = self
            .entries
            .get_mut(&id)
            .ok_or(RegistryError::UnknownSession)?;
        record.traffic.intern(&mut self.shapes);
        if record.attempt == 0 && record.traffic.faults().total() == 0 {
            self.templates
                .entry(entry.roster_len)
                .or_insert_with(|| Arc::clone(record.traffic.shared_shape()));
        }
        entry.attempts.push(record);
        Ok(entry.state)
    }

    /// Counts one survivor re-formation on a session.
    ///
    /// # Errors
    ///
    /// [`RegistryError::UnknownSession`].
    pub fn note_reformation(&mut self, id: SessionId) -> Result<(), RegistryError> {
        self.entries
            .get_mut(&id)
            .ok_or(RegistryError::UnknownSession)?
            .reformations += 1;
        Ok(())
    }

    /// Sheds a queued session: classifies it [`TerminalClass::Shed`]
    /// and, once its roster size has a template, keeps the template's
    /// shape (zero fault counters: no medium carried the decoy) as the
    /// entry's `decoy_traffic` and returns a decoy synthesized from it
    /// with `seed`. `None` if no template is known, or if the transition
    /// is refused (an unknown or already terminal session).
    pub(crate) fn shed(&mut self, id: SessionId, seed: u64) -> Option<TrafficLog> {
        self.transition(id, SessionState::Aborted, Some(TerminalClass::Shed))
            .ok()?;
        let entry = self.entries.get_mut(&id)?;
        let template = self.templates.get(&entry.roster_len)?;
        let summary = TrafficSummary::new(Arc::clone(template), FaultCounters::default());
        entry.decoy_traffic = Some(summary);
        Some(synthesize(template, seed))
    }

    /// Roster sizes with a decoy template.
    pub(crate) fn known_decoy_sizes(&self) -> Vec<usize> {
        self.templates.keys().copied().collect()
    }

    /// The lifecycle state of one session.
    pub(crate) fn state(&self, id: SessionId) -> Option<SessionState> {
        self.entries.get(&id).map(|e| e.state)
    }

    /// A clone of one entry.
    pub fn entry(&self, id: SessionId) -> Option<SessionEntry> {
        self.entries.get(&id).map(|e| SessionEntry::clone(e))
    }

    /// Starts a queued session: moves a [`SessionState::Gathering`]
    /// entry to [`SessionState::Running`] and returns its deadline (a
    /// clock reading). An unknown or already classified entry (one a
    /// drain swept while its work item sat in the queue) returns `None`
    /// without a transition, so it counts no illegal one.
    pub(crate) fn start(&mut self, id: SessionId) -> Option<Duration> {
        let entry = self.entries.get(&id)?;
        if entry.state.terminal() {
            return None;
        }
        let deadline = entry.deadline;
        self.transition(id, SessionState::Running, None).ok()?;
        Some(deadline)
    }

    /// Clones every entry, in id order.
    pub fn snapshot(&self) -> Vec<SessionEntry> {
        self.entries
            .values()
            .map(|e| SessionEntry::clone(e))
            .collect()
    }

    /// Ids of every non-terminal session — the leak check: after a full
    /// drain this must be empty.
    pub fn leaks(&self) -> Vec<SessionId> {
        self.entries
            .values()
            .filter(|e| !e.state.terminal())
            .map(|e| e.id)
            .collect()
    }

    /// Number of non-terminal sessions.
    pub fn active(&self) -> usize {
        self.entries
            .values()
            .filter(|e| !e.state.terminal())
            .count()
    }

    /// Aggregate counters.
    pub fn stats(&self) -> RegistryStats {
        let mut s = RegistryStats {
            submitted: self.admitted,
            illegal_transitions: self.illegal_transitions,
            ..RegistryStats::default()
        };
        for e in self.entries.values() {
            match e.state {
                SessionState::Completed => s.completed += 1,
                SessionState::Aborted => s.aborted += 1,
                _ => s.active += 1,
            }
            if e.class == Some(TerminalClass::Shed) {
                s.shed += 1;
            }
            s.attempts += e.attempts.len() as u64;
            s.reformations += u64::from(e.reformations);
            s.backpressure_dropped += e
                .attempts
                .iter()
                .map(|a| a.traffic.faults().backpressure_dropped)
                .sum::<u64>();
        }
        s
    }

    /// Removes terminal entries (a long-lived deployment would do this
    /// periodically; tests keep them for inspection), and the shapes no
    /// one else holds any more. Returns how many entries were evicted.
    pub fn evict_terminal(&mut self) -> usize {
        let before = self.entries.len();
        self.entries.retain(|_, e| !e.state.terminal());
        // A shape held by the set alone was held by evicted entries
        // alone; a remaining entry, a template or a clone keeps it.
        self.shapes.retain(|s| Arc::strong_count(s) > 1);
        before - self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn soon() -> Duration {
        Duration::from_secs(5)
    }

    #[test]
    fn lifecycle_happy_path() {
        let mut r = SessionRegistry::new();
        let id = r.admit(3, soon());
        assert_eq!(r.active(), 1);
        r.transition(id, SessionState::Running, None).unwrap();
        r.transition(id, SessionState::Completed, Some(TerminalClass::Accepted))
            .unwrap();
        assert_eq!(r.active(), 0);
        assert!(r.leaks().is_empty());
        let e = r.entry(id).unwrap();
        assert_eq!(e.class, Some(TerminalClass::Accepted));
        assert!(e.latency().is_some());
    }

    #[test]
    fn illegal_edges_are_refused_and_counted() {
        let mut r = SessionRegistry::new();
        let id = r.admit(2, soon());
        // Gathering -> Completed is not an edge.
        let err = r
            .transition(id, SessionState::Completed, Some(TerminalClass::Accepted))
            .unwrap_err();
        assert!(matches!(err, RegistryError::IllegalTransition { .. }));
        // Terminal without class / class mismatch.
        assert_eq!(
            r.transition(id, SessionState::Aborted, None),
            Err(RegistryError::ClassMismatch)
        );
        assert_eq!(
            r.transition(id, SessionState::Aborted, Some(TerminalClass::Accepted)),
            Err(RegistryError::ClassMismatch)
        );
        // Terminal is sticky.
        r.transition(id, SessionState::Aborted, Some(TerminalClass::Shed))
            .unwrap();
        assert!(r.transition(id, SessionState::Running, None).is_err());
        assert_eq!(r.stats().illegal_transitions, 2);
        assert_eq!(r.stats().shed, 1);
    }

    #[test]
    fn drain_edges() {
        let mut r = SessionRegistry::new();
        let id = r.admit(4, soon());
        r.transition(id, SessionState::Running, None).unwrap();
        r.transition(id, SessionState::Draining, None).unwrap();
        r.transition(id, SessionState::Aborted, Some(TerminalClass::Drained))
            .unwrap();
        assert!(r.leaks().is_empty());
    }

    #[test]
    fn drain_applies_both_edges_in_place() {
        let mut r = SessionRegistry::new();
        let queued = [r.admit(2, soon()), r.admit(3, soon())];
        let running = r.admit(2, soon());
        r.transition(running, SessionState::Running, None).unwrap();
        let draining = r.admit(2, soon());
        r.transition(draining, SessionState::Running, None).unwrap();
        r.transition(draining, SessionState::Draining, None)
            .unwrap();
        let done = r.admit(2, soon());
        r.transition(done, SessionState::Running, None).unwrap();
        r.transition(done, SessionState::Completed, Some(TerminalClass::Accepted))
            .unwrap();
        let shed = r.admit(2, soon());
        r.transition(shed, SessionState::Aborted, Some(TerminalClass::Shed))
            .unwrap();
        let before: Vec<_> = [draining, done, shed]
            .iter()
            .map(|id| r.entry(*id).unwrap())
            .collect();
        let illegal = r.stats().illegal_transitions;

        assert_eq!(r.drain(), (2, 1));
        for id in queued {
            let e = r.entry(id).unwrap();
            assert_eq!(e.state, SessionState::Aborted);
            assert_eq!(e.class, Some(TerminalClass::Drained));
            assert!(e.finished_at.is_some() && e.started_at.is_none());
        }
        let e = r.entry(running).unwrap();
        assert_eq!(e.state, SessionState::Draining);
        assert!(e.class.is_none() && e.finished_at.is_none());
        for old in before {
            let now = r.entry(old.id).unwrap();
            assert_eq!(
                (now.state, now.class, now.finished_at),
                (old.state, old.class, old.finished_at),
                "session {} is left as it was",
                old.id
            );
        }
        assert_eq!(r.stats().illegal_transitions, illegal);
        assert_eq!(r.drain(), (0, 0), "nothing is left to move");
    }

    #[test]
    fn stats_count_attempts_and_backpressure_from_summaries() {
        use crate::serve::AttemptVerdict;
        let mut r = SessionRegistry::new();
        let id = r.admit(2, soon());
        for shed in [2, 3] {
            let mut log = TrafficLog::new();
            log.record("r1", 0, b"abc");
            log.set_faults(FaultCounters {
                backpressure_dropped: shed,
                ..FaultCounters::default()
            });
            let record = AttemptRecord {
                attempt: 0,
                roster: vec![0, 1],
                verdict: AttemptVerdict::Abort,
                traffic: log.into_summary(),
            };
            r.record_attempt(id, record).unwrap();
        }
        let stats = r.stats();
        assert_eq!(stats.attempts, 2);
        assert_eq!(stats.backpressure_dropped, 5);
        assert_eq!(r.entry(id).unwrap().attempts[1].traffic.total_bytes(), 3);
    }

    /// Records one fault-free attempt 0 on `id` whose two slots each
    /// sent one 3-byte message labelled `round`, and returns the shape
    /// the entry holds for it.
    fn record_shape(r: &mut SessionRegistry, id: SessionId, round: &str) -> Arc<TrafficShape> {
        use crate::serve::AttemptVerdict;
        let mut log = TrafficLog::new();
        for slot in 0..2 {
            log.record(round, slot, b"abc");
        }
        let record = AttemptRecord {
            attempt: 0,
            roster: vec![0, 1],
            verdict: AttemptVerdict::Success,
            traffic: log.into_summary(),
        };
        r.record_attempt(id, record).unwrap();
        let recorded = r.entries[&id].attempts.last().unwrap();
        Arc::clone(recorded.traffic.shared_shape())
    }

    fn finish(r: &mut SessionRegistry, id: SessionId) {
        r.transition(id, SessionState::Running, None).unwrap();
        r.transition(id, SessionState::Completed, Some(TerminalClass::Accepted))
            .unwrap();
    }

    #[test]
    fn equal_summaries_share_one_shape_per_registry() {
        let mut r = SessionRegistry::new();
        let (a, b, c) = (r.admit(2, soon()), r.admit(2, soon()), r.admit(2, soon()));
        let sa = record_shape(&mut r, a, "p1");
        let sb = record_shape(&mut r, b, "p1");
        let sc = record_shape(&mut r, c, "p2");
        assert!(Arc::ptr_eq(&sa, &sb), "equal shapes share one allocation");
        assert!(!Arc::ptr_eq(&sa, &sc), "a different shape gets its own");
        assert_ne!(sa, sc);
        // A shed entry keeps the template, `a`'s shape, not a copy.
        let shed = r.admit(2, soon());
        assert!(r.shed(shed, 1).is_some());
        let decoy = r.entry(shed).unwrap().decoy_traffic.unwrap();
        assert!(Arc::ptr_eq(decoy.shared_shape(), &sa));
        assert_eq!(r.shapes.len(), 2, "two distinct shapes, one copy each");
        // An unknown id sheds nothing and interns nothing; a size with no
        // template is shed without a decoy.
        assert!(r.shed(99, 1).is_none());
        let lone = r.admit(5, soon());
        assert!(r.shed(lone, 1).is_none());
        let lone = r.entry(lone).unwrap();
        assert_eq!(
            (lone.class, lone.decoy_traffic),
            (Some(TerminalClass::Shed), None)
        );
        assert_eq!((r.shapes.len(), r.templates.len()), (2, 1));
    }

    #[test]
    fn the_first_template_per_size_wins() {
        let mut r = SessionRegistry::new();
        let (first, later, shed) = (r.admit(2, soon()), r.admit(2, soon()), r.admit(2, soon()));
        let taught = record_shape(&mut r, first, "p1");
        record_shape(&mut r, later, "p2");
        let three = r.admit(3, soon());
        record_shape(&mut r, three, "p2");
        assert_eq!(r.known_decoy_sizes(), vec![2, 3]);
        assert!(Arc::ptr_eq(&r.templates[&2], &taught));
        let decoy = r.shed(shed, 7).unwrap();
        assert_eq!(decoy.shape(), *taught);
        assert_eq!(
            r.entry(shed).unwrap().decoy_traffic,
            Some(decoy.into_summary()),
            "the entry keeps the decoy's summary"
        );
    }

    #[test]
    fn eviction_keeps_only_the_shapes_still_held() {
        let mut r = SessionRegistry::new();
        let (taught, gone, live) = (r.admit(2, soon()), r.admit(2, soon()), r.admit(2, soon()));
        record_shape(&mut r, taught, "p1");
        let gone_shape = Arc::downgrade(&record_shape(&mut r, gone, "p2"));
        let live_shape = record_shape(&mut r, live, "p3");
        finish(&mut r, taught);
        finish(&mut r, gone);
        r.transition(live, SessionState::Running, None).unwrap();
        assert_eq!(r.shapes.len(), 3);

        assert_eq!(r.evict_terminal(), 2);
        let mut kept: Vec<_> = r.shapes.iter().cloned().collect();
        kept.sort_by_key(|s| s.entries[0].0.clone());
        assert_eq!(
            kept.len(),
            2,
            "the shape only an evicted entry held is gone"
        );
        assert!(Arc::ptr_eq(&kept[0], &r.templates[&2]), "the template's");
        assert!(Arc::ptr_eq(&kept[1], &live_shape), "the live entry's");
        assert!(gone_shape.upgrade().is_none(), "and its memory is freed");
    }

    #[test]
    fn terminal_entries_keep_exactly_their_attempts() {
        let mut r = SessionRegistry::new();
        let id = r.admit(2, soon());
        r.transition(id, SessionState::Running, None).unwrap();
        for _ in 0..3 {
            record_shape(&mut r, id, "p1");
        }
        assert!(
            r.entries[&id].attempts.capacity() > 3,
            "pushes reserve slack"
        );
        r.transition(id, SessionState::Completed, Some(TerminalClass::Accepted))
            .unwrap();
        let attempts = &r.entries[&id].attempts;
        assert_eq!((attempts.len(), attempts.capacity()), (3, 3));
    }

    #[test]
    fn eviction_keeps_live_sessions() {
        let mut r = SessionRegistry::new();
        let a = r.admit(2, soon());
        let b = r.admit(2, soon());
        r.transition(a, SessionState::Running, None).unwrap();
        r.transition(a, SessionState::Completed, Some(TerminalClass::Rejected))
            .unwrap();
        assert_eq!(r.evict_terminal(), 1);
        assert!(r.entry(a).is_none());
        assert!(r.entry(b).is_some());
        assert_eq!(r.stats().submitted, 2);
    }
}
