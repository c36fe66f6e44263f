//! Per-session execution: the attempt loop, slot-liveness analysis and
//! survivor re-formation.
//!
//! A [`SessionJob`] is one logical handshake session, abstracted from
//! the protocol it runs: the service hands it an [`AttemptContext`]
//! (attempt number, current roster, derived seed) and gets back an
//! [`AttemptOutcome`] — a verdict plus the attempt's [`TrafficLog`].
//! Everything the service decides — who is still alive, whether to
//! re-form, when to give up — is driven by that log's counters, exactly
//! the information a deployment's traffic accounting would have. The
//! log is summarised ([`TrafficSummary`]) as soon as the attempt
//! returns, liveness is read off the summary, and the registry keeps
//! the summary alone: the payloads are dropped.
//!
//! **Survivor re-formation** leans on the §7 partially-successful-
//! handshake semantics: survivors of the same group still succeed among
//! themselves, so when an attempt aborts, the service re-forms the
//! session from the slots the traffic log shows to be live and retries
//! under jittered exponential backoff, a bounded attempt count and the
//! per-session deadline. Fewer than two live slots means no session is
//! possible and the retry loop stops immediately (no retry storm).
//!
//! The loop keeps no state of its own beyond the roster and the attempt
//! number: it records each attempt in the [`SessionRegistry`] and reads
//! a drain from the entry's [`SessionState::Draining`], after an
//! aborted attempt and during the backoff, so no attempt starts once a
//! drain has begun.

use super::registry::{SessionId, SessionRegistry, SessionState, TerminalClass};
use super::shed::backoff_delay;
use crate::clock::SharedClock;
use crate::observe::{TrafficLog, TrafficSummary};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

/// What the service tells a job about the attempt it is asking for.
#[derive(Debug, Clone)]
pub struct AttemptContext {
    /// The registry id of the session.
    pub session_id: SessionId,
    /// 0-based attempt number (attempt 0 is the original roster).
    pub attempt: u32,
    /// Original-roster indices participating in this attempt; the
    /// attempt's wire slots are `0..roster.len()` in this order.
    pub roster: Vec<usize>,
    /// Deterministic per-attempt seed (fresh randomness every retry, so
    /// a re-formed session never reuses nonces or transcripts).
    pub seed: u64,
}

/// A job's summary judgement of one attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptVerdict {
    /// The protocol completed and the job's success policy is met.
    Success,
    /// The protocol completed as an ordinary failure (e.g. membership
    /// mismatch). Terminal: retrying would not change the outcome.
    Failure,
    /// Some slot aborted (faults, budget exhaustion): the service may
    /// re-form among survivors and retry.
    Abort,
}

/// Everything one attempt produced.
#[derive(Debug, Clone)]
pub struct AttemptOutcome {
    /// The job's verdict.
    pub verdict: AttemptVerdict,
    /// The attempt's eavesdropper log (liveness analysis input).
    pub traffic: TrafficLog,
}

/// One logical session, abstracted from its protocol. Implementations
/// run one attempt per call; the service owns scheduling, liveness,
/// re-formation and classification.
pub trait SessionJob: Send {
    /// Size of the original roster (wire slots of attempt 0).
    fn roster_len(&self) -> usize;
    /// Runs one attempt among `ctx.roster` and reports what happened.
    fn run_attempt(&mut self, ctx: &AttemptContext) -> AttemptOutcome;
}

/// A recorded attempt, kept in the session's registry entry: who took
/// part, what the job decided, and the traffic's wire shape and fault
/// counters, from which [`AttemptRecord::live_slots`] reads who was
/// live. No payload byte is kept: [`drive`] summarises the
/// [`AttemptOutcome`]'s log and drops its payloads.
#[derive(Debug, Clone)]
pub struct AttemptRecord {
    /// 0-based attempt number.
    pub attempt: u32,
    /// Original-roster indices that participated.
    pub roster: Vec<usize>,
    /// The job's verdict.
    pub verdict: AttemptVerdict,
    /// The attempt's traffic, payloads dropped.
    pub traffic: TrafficSummary,
}

impl AttemptRecord {
    /// Original-roster indices the traffic showed to be live (see
    /// [`live_slots`]).
    pub fn live_slots(&self) -> Vec<usize> {
        live_slots(&self.roster, &self.traffic)
    }
}

/// A session submission: the job plus its service-level budget.
pub struct SessionSpec {
    /// The job to run.
    pub job: Box<dyn SessionJob>,
    /// Attempts allowed (including the first); 0 takes the service's
    /// `default_max_attempts` at submission.
    pub max_attempts: u32,
    /// Per-session deadline, measured from admission; zero takes the
    /// service's `default_deadline` at submission.
    pub deadline: Duration,
}

impl SessionSpec {
    /// A spec with both budgets unset: [`super::Service::submit`] fills
    /// them from its [`super::ServiceConfig`].
    pub fn new(job: Box<dyn SessionJob>) -> SessionSpec {
        SessionSpec {
            job,
            max_attempts: 0,
            deadline: Duration::ZERO,
        }
    }

    /// Overrides the attempt budget.
    pub fn with_max_attempts(mut self, n: u32) -> SessionSpec {
        self.max_attempts = n.max(1);
        self
    }
}

/// Liveness analysis: which roster members does this attempt's traffic
/// show to be alive?
///
/// A slot is **live** iff it transmitted as many messages as the most
/// talkative slot of the attempt: the session protocols are uniform
/// (every live party broadcasts once per exchange, aborting parties
/// included — they send decoys), so a lower count is exactly the
/// signature of a crash-stopped or silenced sender. A partition, by
/// contrast, leaves all counts equal (everyone kept transmitting), so
/// every slot stays live and a retry keeps the full roster — which is
/// the right call, since partitions heal.
///
/// `roster` maps the attempt's wire slots back to original-roster
/// indices; the returned vector contains original indices, sorted.
pub fn live_slots(roster: &[usize], traffic: &TrafficSummary) -> Vec<usize> {
    let counts: Vec<usize> = (0..roster.len())
        .map(|s| traffic.messages_from(s))
        .collect();
    let max = counts.iter().copied().max().unwrap_or(0);
    if max == 0 {
        return Vec::new();
    }
    roster
        .iter()
        .enumerate()
        .filter(|(s, _)| counts[*s] == max)
        .map(|(_, orig)| *orig)
        .collect()
}

/// Service-side knobs of the attempt loop: the relevant
/// [`super::ServiceConfig`] fields plus the clock the loop runs on.
#[derive(Clone)]
pub struct DriveConfig {
    /// First-retry backoff; doubles per retry up to `backoff_cap`.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Service seed; every attempt's seed is derived from it, the
    /// session id and the attempt number.
    pub seed: u64,
    /// The session clock. Registry deadlines are readings of it and
    /// backoff waits sleep on it: wall time in [`super::Service`], a
    /// [`crate::clock::VirtualClock`] under the discrete-event
    /// simulator, where waiting advances simulated time instead.
    pub clock: SharedClock,
}

/// Runs the admitted session `id` to a terminal state: the attempt loop
/// with deadline checks, liveness analysis, survivor re-formation and
/// jittered backoff, all timed on `config.clock` against the deadline
/// the registry entry was admitted with. A session the registry shows
/// [`SessionState::Draining`] after an aborted attempt, or during its
/// backoff, is classified [`TerminalClass::Drained`] without a further
/// attempt. Every path out of this function leaves the registry entry
/// terminal; registry errors (which cannot occur while the caller owns
/// the entry exclusively) surface as the entry simply keeping its last
/// legal state, never as a panic.
pub fn drive(
    registry: &Mutex<SessionRegistry>,
    config: &DriveConfig,
    id: SessionId,
    job: &mut dyn SessionJob,
    max_attempts: u32,
) {
    // Unknown, or classified before a worker reached it (e.g. a drain
    // swept the queue): nothing to run.
    let started = registry
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .start(id);
    let Some(deadline) = started else {
        return;
    };
    let clock = &config.clock;
    let mut roster: Vec<usize> = (0..job.roster_len()).collect();
    let mut attempt: u32 = 0;
    let class = 'attempts: loop {
        if clock.now() >= deadline {
            break TerminalClass::DeadlineExceeded;
        }
        let ctx = AttemptContext {
            session_id: id,
            attempt,
            roster: roster.clone(),
            seed: config
                .seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(id)
                .wrapping_add(u64::from(attempt) << 32),
        };
        let outcome = job.run_attempt(&ctx);
        let traffic = outcome.traffic.into_summary();
        let live = live_slots(&roster, &traffic);
        let state = registry
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .record_attempt(
                id,
                AttemptRecord {
                    attempt,
                    roster: roster.clone(),
                    verdict: outcome.verdict,
                    traffic,
                },
            );
        match outcome.verdict {
            AttemptVerdict::Success => break TerminalClass::Accepted,
            AttemptVerdict::Failure => break TerminalClass::Rejected,
            AttemptVerdict::Abort => {}
        }
        if state == Ok(SessionState::Draining) {
            break TerminalClass::Drained;
        }
        if live.len() < 2 {
            break TerminalClass::TooFewSurvivors;
        }
        if attempt + 1 >= max_attempts {
            break TerminalClass::Exhausted;
        }
        if live.len() < roster.len() {
            // Survivor re-formation: retry among the live slots.
            let _ = registry
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .note_reformation(id);
            roster = live;
        }
        attempt += 1;
        // Jittered exponential backoff, clipped to what the deadline
        // leaves. It sleeps in steps of at most 1 ms and reads the
        // entry's state after each, so a drain that begins meanwhile is
        // noticed within a step and no attempt follows it; the last
        // step is the remainder, so the wait ends exactly at `until`.
        let wait = backoff_delay(attempt, config.backoff_base, config.backoff_cap, ctx.seed);
        let mut now = clock.now();
        let until = now + wait.min(deadline.saturating_sub(now));
        while now < until {
            clock.sleep((until - now).min(Duration::from_millis(1)));
            now = clock.now();
            let state = registry
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .state(id);
            if state == Some(SessionState::Draining) {
                break 'attempts TerminalClass::Drained;
            }
        }
    };
    let _ = registry
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .transition(id, class.state(), Some(class));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{Clock, VirtualClock};
    use std::sync::Arc;

    fn log_with_counts(counts: &[usize]) -> TrafficLog {
        let mut log = TrafficLog::new();
        for (slot, n) in counts.iter().enumerate() {
            for i in 0..*n {
                log.record(&format!("r{i}"), slot, b"x");
            }
        }
        log
    }

    #[test]
    fn liveness_flags_quieter_slots() {
        let roster = vec![0, 1, 2, 3];
        let log = log_with_counts(&[4, 4, 2, 4]).into_summary();
        assert_eq!(live_slots(&roster, &log), vec![0, 1, 3]);
    }

    #[test]
    fn liveness_keeps_everyone_when_uniform() {
        let roster = vec![5, 7, 9];
        let log = log_with_counts(&[3, 3, 3]).into_summary();
        assert_eq!(live_slots(&roster, &log), vec![5, 7, 9]);
    }

    #[test]
    fn liveness_of_silence_is_empty() {
        assert!(live_slots(&[0, 1], &TrafficLog::new().into_summary()).is_empty());
    }

    #[test]
    fn liveness_maps_to_original_indices() {
        // A re-formed attempt among original slots {0, 2, 3}: wire slot 1
        // (original 2) went quiet.
        let roster = vec![0, 2, 3];
        let log = log_with_counts(&[2, 1, 2]).into_summary();
        assert_eq!(live_slots(&roster, &log), vec![0, 3]);
    }

    struct ScriptedJob {
        len: usize,
        verdicts: Vec<AttemptVerdict>,
        counts: Vec<Vec<usize>>,
        /// Dropped deliveries tallied on each attempt (none if absent).
        dropped: Vec<u64>,
        seen: Vec<AttemptContext>,
    }

    impl ScriptedJob {
        /// The log attempt `i` reports.
        fn traffic(&self, i: usize) -> TrafficLog {
            let mut log = log_with_counts(&self.counts[i]);
            log.set_faults(crate::observe::FaultCounters {
                dropped: self.dropped.get(i).copied().unwrap_or(0),
                ..Default::default()
            });
            log
        }
    }

    impl SessionJob for ScriptedJob {
        fn roster_len(&self) -> usize {
            self.len
        }
        fn run_attempt(&mut self, ctx: &AttemptContext) -> AttemptOutcome {
            let i = ctx.attempt as usize;
            self.seen.push(ctx.clone());
            AttemptOutcome {
                verdict: self.verdicts[i],
                traffic: self.traffic(i),
            }
        }
    }

    fn scripted(verdicts: Vec<AttemptVerdict>, counts: Vec<Vec<usize>>) -> ScriptedJob {
        ScriptedJob {
            len: counts[0].len(),
            verdicts,
            counts,
            dropped: Vec::new(),
            seen: Vec::new(),
        }
    }

    fn config(clock: SharedClock, backoff_base: Duration, backoff_cap: Duration) -> DriveConfig {
        DriveConfig {
            backoff_base,
            backoff_cap,
            seed: 7,
            clock,
        }
    }

    /// Admits `job` with `deadline` left on the config's clock and
    /// drives it.
    fn drive_on(
        cfg: &DriveConfig,
        deadline: Duration,
        job: &mut ScriptedJob,
        max_attempts: u32,
    ) -> (SessionRegistry, SessionId) {
        let registry = Mutex::new(SessionRegistry::new());
        let id = registry
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .admit(job.len, cfg.clock.now() + deadline);
        drive(&registry, cfg, id, job, max_attempts);
        (
            registry
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner),
            id,
        )
    }

    fn run_scripted(
        verdicts: Vec<AttemptVerdict>,
        counts: Vec<Vec<usize>>,
        max_attempts: u32,
    ) -> (SessionRegistry, SessionId) {
        let cfg = config(
            crate::clock::wall(),
            Duration::from_millis(1),
            Duration::from_millis(2),
        );
        let mut job = scripted(verdicts, counts);
        drive_on(&cfg, Duration::from_secs(10), &mut job, max_attempts)
    }

    /// A config on a fresh virtual clock, plus a handle to that clock.
    fn virtual_config() -> (DriveConfig, VirtualClock) {
        let clock = VirtualClock::new();
        let cfg = config(
            Arc::new(clock.clone()),
            Duration::from_millis(10),
            Duration::from_millis(200),
        );
        (cfg, clock)
    }

    #[test]
    fn abort_then_reformed_success() {
        let (reg, id) = run_scripted(
            vec![AttemptVerdict::Abort, AttemptVerdict::Success],
            vec![vec![3, 3, 1], vec![2, 2]],
            4,
        );
        let e = reg.entry(id).unwrap();
        assert_eq!(e.state, SessionState::Completed);
        assert_eq!(e.class, Some(TerminalClass::Accepted));
        assert_eq!(e.reformations, 1);
        assert_eq!(e.attempts.len(), 2);
        assert_eq!(e.attempts[1].roster, vec![0, 1], "re-formed to survivors");
    }

    #[test]
    fn lone_survivor_stops_immediately() {
        let (reg, id) = run_scripted(
            vec![AttemptVerdict::Abort],
            vec![vec![1, 4, 1]], // only slot 1 fully live
            8,
        );
        let e = reg.entry(id).unwrap();
        assert_eq!(e.class, Some(TerminalClass::TooFewSurvivors));
        assert_eq!(e.attempts.len(), 1, "no retry storm");
    }

    #[test]
    fn attempt_budget_bounds_retries() {
        let (reg, id) = run_scripted(
            vec![AttemptVerdict::Abort, AttemptVerdict::Abort],
            vec![vec![2, 2, 2], vec![2, 2, 2]], // uniform: partition-like
            2,
        );
        let e = reg.entry(id).unwrap();
        assert_eq!(e.class, Some(TerminalClass::Exhausted));
        assert_eq!(e.attempts.len(), 2);
        assert_eq!(e.reformations, 0, "uniform liveness keeps the roster");
    }

    #[test]
    fn virtual_deadline_ends_the_session_without_wall_time() {
        // The deadline is shorter than the first backoff (5–10 ms), so
        // the wait is clipped to the deadline and the loop classifies
        // before a second attempt, however generous the budget.
        let started = std::time::Instant::now();
        let mut job = scripted(vec![AttemptVerdict::Abort; 8], vec![vec![2, 2, 2]; 8]);
        let (cfg, clock) = virtual_config();
        let (reg, id) = drive_on(&cfg, Duration::from_millis(3), &mut job, 8);
        let e = reg.entry(id).unwrap();
        assert_eq!(e.class, Some(TerminalClass::DeadlineExceeded));
        assert_eq!(e.attempts.len(), 1);
        assert_eq!(
            clock.now(),
            Duration::from_millis(3),
            "waited out the deadline"
        );
        assert!(
            started.elapsed() < Duration::from_millis(500),
            "no wall wait"
        );
    }

    #[test]
    fn virtual_backoff_lands_exactly_on_the_delay() {
        let mut job = scripted(
            vec![AttemptVerdict::Abort, AttemptVerdict::Success],
            vec![vec![2, 2, 2], vec![2, 2, 2]],
        );
        let (cfg, clock) = virtual_config();
        let (reg, id) = drive_on(&cfg, Duration::from_secs(10), &mut job, 4);
        assert_eq!(reg.entry(id).unwrap().class, Some(TerminalClass::Accepted));
        let s0 = job.seen[0].seed;
        let wait = backoff_delay(1, cfg.backoff_base, cfg.backoff_cap, s0);
        assert_ne!(
            wait.subsec_nanos() % 1_000_000,
            0,
            "not a whole millisecond"
        );
        assert_eq!(clock.now(), wait);
    }

    #[test]
    fn records_keep_summaries_and_only_a_clean_first_attempt_teaches() {
        // A faulty attempt 0 teaches no template, and neither does the
        // clean attempt 1 after it.
        for (dropped, teaches) in [(vec![0, 0], true), (vec![1, 0], false)] {
            let mut job = scripted(
                vec![AttemptVerdict::Abort, AttemptVerdict::Success],
                vec![vec![3, 3, 1], vec![2, 2]],
            );
            job.dropped = dropped;
            let (cfg, _) = virtual_config();
            let (mut reg, id) = drive_on(&cfg, Duration::from_secs(10), &mut job, 4);
            let e = reg.entry(id).unwrap();
            assert_eq!(e.attempts.len(), 2);
            for (i, record) in e.attempts.iter().enumerate() {
                assert_eq!(record.traffic, job.traffic(i).into_summary());
            }
            assert_eq!(e.attempts[0].live_slots(), vec![0, 1]);
            assert_eq!(
                reg.known_decoy_sizes(),
                if teaches { vec![3] } else { vec![] }
            );
            // A session of the same size sheds with the taught template.
            let shed = reg.admit(3, Duration::from_secs(10));
            let decoy = reg.shed(shed, 1).map(|d| d.shape());
            assert_eq!(decoy, teaches.then(|| job.traffic(0).shape()));
            if let Some(kept) = reg.entry(shed).unwrap().decoy_traffic {
                assert!(
                    Arc::ptr_eq(kept.shared_shape(), e.attempts[0].traffic.shared_shape()),
                    "the shed entry shares the teaching attempt's shape"
                );
            }
        }
    }

    #[test]
    fn ordinary_failure_is_a_completion() {
        let (reg, id) = run_scripted(vec![AttemptVerdict::Failure], vec![vec![2, 2]], 4);
        let e = reg.entry(id).unwrap();
        assert_eq!(e.state, SessionState::Completed);
        assert_eq!(e.class, Some(TerminalClass::Rejected));
    }
}
