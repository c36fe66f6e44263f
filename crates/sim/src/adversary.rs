//! Pluggable adversary schedules, expressed over the [`shs_net::fault`]
//! vocabulary.
//!
//! A [`Schedule`] decides, per simulated session, three things the
//! capacity harness composes into an attempt: the **roster** (which
//! pool members — or credential-less outsiders — fill the slots), the
//! **fault plan** handed to each attempt's medium, and the **latency
//! model** of that session's links. Everything is keyed by `(schedule
//! seed, session index, attempt)`, so a schedule is a deterministic
//! function: the same seed replays the identical campaign.
//!
//! The five adversaries are chosen to land sessions in *different*
//! terminal classes (see `EXPERIMENTS.md` E20 — the abort-class
//! histogram is the observable that separates them):
//!
//! * [`Kind::Partition`] — a persistent link cut. Liveness stays
//!   uniform (everyone keeps transmitting), so the service retries the
//!   full roster until the attempt budget runs out: **exhausted**.
//! * [`Kind::SlowLoris`] — one peer's bytes dribble: most of its
//!   deliveries arrive truncated, and every link crawls. Sessions
//!   split three ways: late **accepted**, **rejected** (the victim
//!   ends partially unverified) and **exhausted** retry budgets.
//! * [`Kind::PhaseCrash`] — crash-stop timed to the Phase I/II
//!   boundary (after the two DGKA broadcasts, before the Phase II
//!   MAC). One victim leaves survivors to re-form and **accept**; two
//!   victims of a 3-party session leave a lone survivor:
//!   **too-few-survivors**.
//! * [`Kind::SybilFlood`] — a flood of outsider-heavy rosters thrown
//!   at an undersized service: admitted sessions complete as
//!   **rejected** (no credentials, no handshake), the overflow is
//!   **shed** by admission control.
//! * [`Kind::EpochChurn`] — half the rosters include a member that
//!   missed an epoch rekey; its stale group key fails Phase II against
//!   synced peers, splitting sessions between **accepted** and
//!   **rejected**.

use crate::core::{mix64, LatencyModel};
use shs_core::service::Participant;
use shs_net::fault::{FaultPlan, FaultRule};
use std::time::Duration;

/// The adversary families the simulator ships.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// No adversary: the clean-throughput baseline.
    Clean,
    /// Persistent partition isolating slot 0 from the rest.
    Partition,
    /// Byte-dribbling victim plus crawling links.
    SlowLoris,
    /// Crash-stop timed to the Phase I/II boundary.
    PhaseCrash,
    /// Outsider rosters flooding an undersized service.
    SybilFlood,
    /// Rosters mixing in members with stale epoch keys.
    EpochChurn,
}

impl Kind {
    /// Every shipped adversary, baseline first.
    pub const ALL: [Kind; 6] = [
        Kind::Clean,
        Kind::Partition,
        Kind::SlowLoris,
        Kind::PhaseCrash,
        Kind::SybilFlood,
        Kind::EpochChurn,
    ];

    /// The schedule's stable name (metric keys, JSON, CI assertions).
    pub fn name(self) -> &'static str {
        match self {
            Kind::Clean => "clean",
            Kind::Partition => "partition",
            Kind::SlowLoris => "slow-loris",
            Kind::PhaseCrash => "phase-crash",
            Kind::SybilFlood => "sybil-flood",
            Kind::EpochChurn => "epoch-churn",
        }
    }
}

/// A seeded adversary schedule: [`Kind`] plus the campaign seed.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    /// Which adversary family.
    pub kind: Kind,
    /// Campaign seed; all per-session decisions derive from it.
    pub seed: u64,
}

impl Schedule {
    /// A schedule of `kind` seeded by `seed`.
    pub fn new(kind: Kind, seed: u64) -> Schedule {
        Schedule { kind, seed }
    }

    /// Stable name (delegates to [`Kind::name`]).
    pub fn name(&self) -> &'static str {
        self.kind.name()
    }

    /// Per-session sub-seed, independent across sessions.
    fn session_seed(&self, session: u64) -> u64 {
        mix64(self.seed ^ mix64(session.wrapping_add(0x5eed)))
    }

    /// The roster for session `session` of width `m`, drawing members
    /// from a pool of `pool_len` credentials of which indices
    /// `stale_from..` hold **stale** (pre-rekey) keys. Non-adversarial
    /// schedules rotate through the fresh region so the campaign
    /// exercises the whole pool.
    pub fn participants(
        &self,
        session: u64,
        m: usize,
        pool_len: usize,
        stale_from: usize,
    ) -> Vec<Participant> {
        let fresh = stale_from.max(1);
        let rotate =
            |i: usize| Participant::Member((session as usize * m + i) % fresh.min(pool_len));
        match self.kind {
            Kind::SybilFlood => {
                // One real member probing a wall of Sybils: slots 1.. are
                // credential-less outsiders.
                let mut slots = vec![rotate(0)];
                slots.extend(std::iter::repeat_n(
                    Participant::Outsider,
                    m.saturating_sub(1),
                ));
                slots
            }
            Kind::EpochChurn if session % 2 == 1 && stale_from < pool_len => {
                // Odd sessions smuggle in one stale member.
                let stale_len = pool_len - stale_from;
                let stale = stale_from + (session as usize / 2) % stale_len;
                let mut slots: Vec<Participant> = (0..m.saturating_sub(1)).map(rotate).collect();
                slots.push(Participant::Member(stale));
                slots
            }
            _ => (0..m).map(rotate).collect(),
        }
    }

    /// The fault plan for one attempt, or `None` for a clean medium.
    pub fn plan(&self, session: u64, attempt: u32, m: usize) -> Option<FaultPlan> {
        let seed = self.session_seed(session).wrapping_add(u64::from(attempt));
        match self.kind {
            Kind::Clean | Kind::SybilFlood | Kind::EpochChurn => None,
            Kind::Partition => {
                // The cut persists across attempts: partitions that do
                // not heal exhaust the retry budget.
                Some(FaultPlan::new(seed).with(FaultRule::partition(1)))
            }
            Kind::SlowLoris => {
                let victim = (session as usize) % m;
                // Aggressive enough that a session's retry budget often
                // runs dry mid-phase: the histogram mixes late accepts,
                // rejects (the victim ends partially unverified) and
                // exhausted retry budgets.
                Some(
                    FaultPlan::new(seed)
                        .with(FaultRule::truncate().from(victim).with_probability(0.6)),
                )
            }
            Kind::PhaseCrash => {
                if attempt > 0 {
                    // The crash was transient; the re-formed attempt
                    // runs clean.
                    return None;
                }
                // Crash after the two DGKA broadcasts — the Phase I/II
                // boundary, the most expensive point to lose a peer.
                let mut plan = FaultPlan::new(seed).with(FaultRule::crash_stop(m - 1, 2));
                if session % 2 == 1 && m >= 3 {
                    // Odd sessions lose a second victim, leaving too few
                    // survivors to re-form.
                    plan = plan.with(FaultRule::crash_stop(m - 2, 2));
                }
                Some(plan)
            }
        }
    }

    /// The latency model of session `session`'s links.
    pub fn latency(&self, session: u64) -> LatencyModel {
        let seed = self.session_seed(session) ^ 0x1a7e_0c1e;
        match self.kind {
            Kind::SlowLoris => LatencyModel {
                // The dribbler stalls everyone: ~10× LAN latencies.
                base: Duration::from_millis(2),
                jitter: Duration::from_millis(8),
                seed,
            },
            _ => LatencyModel::lan(seed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_deterministic_per_session() {
        for kind in Kind::ALL {
            let s = Schedule::new(kind, 42);
            for session in 0..4u64 {
                let a = s.participants(session, 3, 8, 6);
                let b = s.participants(session, 3, 8, 6);
                assert_eq!(a, b, "{} roster", s.name());
                assert_eq!(
                    s.latency(session).draw("dgka-r1", 0, 1, 1, 0),
                    s.latency(session).draw("dgka-r1", 0, 1, 1, 0),
                    "{} latency",
                    s.name()
                );
            }
        }
    }

    #[test]
    fn sybil_rosters_are_outsider_heavy() {
        let s = Schedule::new(Kind::SybilFlood, 7);
        let slots = s.participants(3, 3, 8, 8);
        assert!(matches!(slots[0], Participant::Member(_)));
        assert_eq!(&slots[1..], &[Participant::Outsider, Participant::Outsider]);
    }

    #[test]
    fn churn_alternates_stale_and_fresh_rosters() {
        let s = Schedule::new(Kind::EpochChurn, 7);
        let fresh = s.participants(0, 3, 8, 6);
        assert!(fresh
            .iter()
            .all(|p| matches!(p, Participant::Member(i) if *i < 6)));
        let churned = s.participants(1, 3, 8, 6);
        assert!(churned
            .iter()
            .any(|p| matches!(p, Participant::Member(i) if *i >= 6)));
    }

    #[test]
    fn phase_crash_clears_after_first_attempt() {
        let s = Schedule::new(Kind::PhaseCrash, 7);
        assert!(s.plan(0, 0, 3).is_some());
        assert!(s.plan(0, 1, 3).is_none());
        // Even sessions crash one victim, odd sessions two.
        assert_eq!(s.plan(0, 0, 3).unwrap().crashed_slots(3).len(), 0);
        // A crash-stop at 2 lets slot 2 make two sends, then silences it.
        let plan = FaultPlan::new(1).with(FaultRule::crash_stop(2, 2));
        let mut router = shs_net::route::Router::new(3, Some(plan));
        for round in ["r1", "r2"] {
            router.route(round, vec![(2, vec![2])], None, None);
            assert!(router.crashed_slots().is_empty(), "alive in {round}");
        }
        router.route("r3", vec![(2, vec![2])], None, None);
        assert_eq!(router.crashed_slots(), vec![2]);
    }
}
