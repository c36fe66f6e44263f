//! Running real GCD handshakes as [`shs_net::serve`] session jobs.
//!
//! `shs-net`'s [`Service`](shs_net::serve::Service) is protocol-agnostic:
//! it schedules [`SessionJob`]s, watches their traffic for liveness, and
//! re-forms aborted sessions among the survivors. [`HandshakeJob`] is
//! the adapter that makes a full GCD handshake such a job:
//!
//! * every attempt runs [`run_handshake_with_net`] over a **fresh**
//!   [`BroadcastNet`] with a **fresh** attempt-scoped DRBG, so a retried
//!   or re-formed session never reuses nonces, blinding values or DGKA
//!   exponents — each attempt is a cryptographically new session whose
//!   transcript shares nothing with the aborted one;
//! * the per-attempt retry behaviour *inside* an attempt stays governed
//!   by [`HandshakeOptions::budget`] (the PR-1 hardened runtime); the
//!   service adds the *between*-attempt layer on top: liveness-driven
//!   roster re-formation, jittered backoff, attempt budget, deadline;
//! * fault injection plugs in per attempt through a [`PlanFactory`], so
//!   chaos tests can hand each attempt a different [`FaultPlan`] (e.g.
//!   crash-stop the first attempt, run the re-formed one clean).
//!
//! Verdict mapping: any slot with [`Outcome::abort`](crate::handshake::Outcome) set — or a session
//! that errors out entirely — is an **abort** (retryable); otherwise the
//! job's [`SuccessPolicy`] decides between success and ordinary failure
//! (terminal: a membership mismatch does not improve with retries).

use crate::handshake::{run_handshake_with_net, Actor};
use crate::{HandshakeOptions, Member, SessionResult};
use shs_crypto::drbg::HmacDrbg;
use shs_net::fault::FaultPlan;
use shs_net::serve::{AttemptContext, AttemptOutcome, AttemptVerdict, SessionJob};
use shs_net::sync::BroadcastNet;
use shs_net::Medium;
use std::sync::Arc;

/// Per-attempt fault-plan source. Returning `None` leaves the attempt's
/// medium fault-free; the context carries the attempt number and roster,
/// so a factory can fault the first attempt and spare the re-formed one.
pub type PlanFactory = Box<dyn FnMut(&AttemptContext) -> Option<FaultPlan> + Send>;

/// When does a completed (non-aborted) handshake count as a success?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuccessPolicy {
    /// Every slot must accept the *full* handshake (`Handshake(Δ) = 1`
    /// for the whole roster).
    FullOnly,
    /// Every member slot must complete at least a partial handshake
    /// (§7: its co-member subgroup verified and keyed). Mixed sessions
    /// where each sub-group succeeds among itself count as success.
    AllowPartial,
}

/// One slot of a job's roster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Participant {
    /// Index into the job's member pool.
    Member(usize),
    /// A credential-less adversary slot.
    Outsider,
}

/// A GCD handshake session, packaged as a service job. Build with
/// [`HandshakeJob::new`], customize with the `with_*` methods, submit
/// via [`shs_net::serve::SessionSpec::new`].
pub struct HandshakeJob {
    pool: Arc<Vec<Member>>,
    slots: Vec<Participant>,
    opts: HandshakeOptions,
    label: String,
    policy: SuccessPolicy,
    plans: Option<PlanFactory>,
}

impl HandshakeJob {
    /// A job whose roster is the first `m` members of `pool`, judged
    /// under [`SuccessPolicy::AllowPartial`]. `label` seeds the
    /// attempt-scoped randomness (vary it per session for distinct
    /// transcripts).
    pub fn new(
        pool: Arc<Vec<Member>>,
        m: usize,
        opts: HandshakeOptions,
        label: &str,
    ) -> HandshakeJob {
        let m = m.min(pool.len());
        HandshakeJob {
            pool,
            slots: (0..m).map(Participant::Member).collect(),
            opts,
            label: label.to_string(),
            policy: SuccessPolicy::AllowPartial,
            plans: None,
        }
    }

    /// Overrides the roster with an explicit slot list (mixed groups,
    /// outsiders, duplicates — any composition the session model allows).
    pub fn with_slots(mut self, slots: Vec<Participant>) -> HandshakeJob {
        self.slots = slots;
        self
    }

    /// Overrides the success policy.
    pub fn with_policy(mut self, policy: SuccessPolicy) -> HandshakeJob {
        self.policy = policy;
        self
    }

    /// Installs a per-attempt fault-plan factory.
    pub fn with_plans(
        mut self,
        f: impl FnMut(&AttemptContext) -> Option<FaultPlan> + Send + 'static,
    ) -> HandshakeJob {
        self.plans = Some(Box::new(f));
        self
    }

    /// Fresh deterministic randomness for one attempt: keyed by the job
    /// label, the session id, the attempt number and the service seed,
    /// so no two attempts (or sessions) share a DRBG stream.
    fn attempt_rng(&self, ctx: &AttemptContext) -> HmacDrbg {
        let tag = format!(
            "svc/{}/s{}/a{}/{:016x}",
            self.label, ctx.session_id, ctx.attempt, ctx.seed
        );
        HmacDrbg::from_seed(tag.as_bytes())
    }

    /// Runs one attempt over a caller-supplied [`Medium`] — the seam the
    /// discrete-event simulator uses: the caller owns the medium (and
    /// therefore fault installation and virtual-time accounting), while
    /// the job still derives the fresh attempt-scoped randomness, builds
    /// the roster's actors, and judges the outcome exactly like
    /// [`SessionJob::run_attempt`]. Note the installed [`PlanFactory`]
    /// is **not** consulted here; the caller composes its own plans.
    pub fn run_attempt_on(&mut self, ctx: &AttemptContext, net: &mut dyn Medium) -> AttemptOutcome {
        let actors: Vec<Actor<'_>> = ctx
            .roster
            .iter()
            .map(|orig| match self.slots.get(*orig) {
                Some(Participant::Member(i)) if *i < self.pool.len() => {
                    Actor::Member(&self.pool[*i])
                }
                _ => Actor::Outsider,
            })
            .collect();
        let mut rng = self.attempt_rng(ctx);
        match run_handshake_with_net(&actors, &self.opts, net, &mut rng) {
            Ok(result) => AttemptOutcome {
                verdict: self.judge(&ctx.roster, &result),
                traffic: result.traffic,
            },
            Err(_) => AttemptOutcome {
                // A session-level error is an abort: whatever traffic the
                // medium saw before the failure still feeds liveness.
                verdict: AttemptVerdict::Abort,
                traffic: net.traffic_snapshot(),
            },
        }
    }

    fn judge(&self, roster: &[usize], result: &SessionResult) -> AttemptVerdict {
        if result.outcomes.iter().any(|o| o.abort.is_some()) {
            return AttemptVerdict::Abort;
        }
        let ok = match self.policy {
            SuccessPolicy::FullOnly => result.outcomes.iter().all(|o| o.accepted),
            SuccessPolicy::AllowPartial => result
                .outcomes
                .iter()
                .zip(roster)
                .filter(|(_, orig)| matches!(self.slots[**orig], Participant::Member(_)))
                .all(|(o, _)| o.partial_accepted()),
        };
        if ok {
            AttemptVerdict::Success
        } else {
            AttemptVerdict::Failure
        }
    }
}

impl SessionJob for HandshakeJob {
    fn roster_len(&self) -> usize {
        self.slots.len()
    }

    fn run_attempt(&mut self, ctx: &AttemptContext) -> AttemptOutcome {
        let mut net = BroadcastNet::new(ctx.roster.len(), self.opts.delivery);
        if let Some(factory) = &mut self.plans {
            if let Some(plan) = factory(ctx) {
                net.set_fault_plan(plan);
            }
        }
        self.run_attempt_on(ctx, &mut net)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use crate::SchemeKind;
    use shs_net::serve::live_slots;

    fn member_pool(n: usize, seed: &str) -> Arc<Vec<Member>> {
        let mut rng = HmacDrbg::from_seed(seed.as_bytes());
        let mut ga = fixtures::test_authority(SchemeKind::Scheme1, &mut rng);
        let mut members: Vec<Member> = Vec::new();
        for _ in 0..n {
            let (m, update) = ga.admit(&mut rng).unwrap();
            for existing in &mut members {
                existing.apply_update(&update).unwrap();
            }
            members.push(m);
        }
        Arc::new(members)
    }

    fn ctx(attempt: u32, roster: Vec<usize>) -> AttemptContext {
        AttemptContext {
            session_id: 1,
            attempt,
            roster,
            seed: 42,
        }
    }

    #[test]
    fn clean_attempt_succeeds_with_uniform_liveness() {
        let pool = member_pool(3, "svc-clean");
        let mut job = HandshakeJob::new(pool, 3, HandshakeOptions::default(), "t1");
        let out = job.run_attempt(&ctx(0, vec![0, 1, 2]));
        assert_eq!(out.verdict, AttemptVerdict::Success);
        let traffic = out.traffic.into_summary();
        assert_eq!(live_slots(&[0, 1, 2], &traffic), vec![0, 1, 2]);
    }

    #[test]
    fn crash_stop_aborts_and_marks_the_crashed_slot_dead() {
        let pool = member_pool(3, "svc-crash");
        let mut job =
            HandshakeJob::new(pool, 3, HandshakeOptions::default(), "t2").with_plans(|ctx| {
                (ctx.attempt == 0)
                    .then(|| FaultPlan::new(7).with(shs_net::fault::FaultRule::crash_stop(2, 1)))
            });
        let out = job.run_attempt(&ctx(0, vec![0, 1, 2]));
        assert_eq!(out.verdict, AttemptVerdict::Abort);
        let traffic = out.traffic.into_summary();
        assert_eq!(live_slots(&[0, 1, 2], &traffic), vec![0, 1]);
        // The re-formed attempt among survivors is clean and succeeds.
        let out = job.run_attempt(&ctx(1, vec![0, 1]));
        assert_eq!(out.verdict, AttemptVerdict::Success);
    }

    #[test]
    fn outsider_session_is_a_failure_not_an_abort() {
        let pool = member_pool(1, "svc-outsider");
        let mut job = HandshakeJob::new(pool, 1, HandshakeOptions::default(), "t3")
            .with_slots(vec![Participant::Member(0), Participant::Outsider]);
        let out = job.run_attempt(&ctx(0, vec![0, 1]));
        assert_eq!(out.verdict, AttemptVerdict::Failure);
    }

    #[test]
    fn retried_attempts_never_share_a_transcript() {
        let pool = member_pool(2, "svc-fresh");
        let mut job = HandshakeJob::new(pool, 2, HandshakeOptions::default(), "t4");
        let a = job.run_attempt(&ctx(0, vec![0, 1]));
        let b = job.run_attempt(&ctx(1, vec![0, 1]));
        assert_eq!(a.verdict, AttemptVerdict::Success);
        assert_eq!(b.verdict, AttemptVerdict::Success);
        assert_eq!(a.traffic.shape(), b.traffic.shape(), "same wire shape");
        assert_ne!(a.traffic, b.traffic, "fresh payload bits every attempt");
    }
}
