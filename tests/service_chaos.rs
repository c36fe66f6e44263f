//! Chaos soak for the multi-session handshake service: dozens of
//! concurrent sessions pushed through the full PR-1 fault matrix.
//!
//! The availability contract under test (DESIGN.md §12):
//!
//! * **no deadlock** — the service goes idle within the soak timeout;
//! * **no registry leak** — every admitted session reaches a terminal
//!   state, and the drain report confirms it;
//! * **no illegal lifecycle shortcut** — the registry counted zero
//!   refused transitions;
//! * **re-formation works** — whenever a fault leaves ≥ 2 live
//!   co-members, the session is re-formed among the survivors and
//!   succeeds; when fewer survive, it aborts cleanly after exactly one
//!   attempt (no retry storm).

mod common;

use common::{kept, rng, KeepLogs};
use shs_core::service::{HandshakeJob, Participant, SuccessPolicy};
use shs_core::{fixtures, HandshakeOptions, Member, SchemeKind};
use shs_net::fault::{FaultPlan, FaultRule};
use shs_net::serve::{Service, ServiceConfig, SessionId, SessionSpec, TerminalClass};
use std::sync::Arc;
use std::time::Duration;

/// One pool holding two distinct groups: members 0..4 of group A,
/// members 4..7 of group B. Jobs pick their roster by index.
fn two_group_pool() -> Arc<Vec<Member>> {
    let mut r = rng("service-chaos-pool");
    let (_, a) = fixtures::group_with_members(SchemeKind::Scheme1, 4, &mut r).expect("group A");
    let (_, b) = fixtures::group_with_members(SchemeKind::Scheme1, 3, &mut r).expect("group B");
    let mut pool = a;
    pool.extend(b);
    Arc::new(pool)
}

fn soak_service() -> Service {
    Service::start(ServiceConfig {
        workers: 4,
        queue_capacity: 64,
        default_deadline: Duration::from_secs(120),
        default_max_attempts: 4,
        backoff_base: Duration::from_millis(2),
        backoff_cap: Duration::from_millis(20),
        seed: 0xc4a05,
    })
}

/// The fault matrix, one schedule per kind, applied to the first attempt
/// (kind 7 faults every attempt: it must *stay* hopeless).
fn plan_for(kind: usize, attempt: u32) -> Option<FaultPlan> {
    if attempt > 0 && kind != 7 {
        return None; // retries run on a healed medium
    }
    let seed = 100 + kind as u64;
    match kind {
        0 => None, // clean
        1 => Some(
            FaultPlan::new(seed).with(
                FaultRule::drop()
                    .in_round("dgka-r1")
                    .from(1)
                    .to(0)
                    .at_most(1),
            ),
        ),
        2 => Some(FaultPlan::new(seed).with(FaultRule::duplicate().from(2))),
        3 => {
            Some(FaultPlan::new(seed).with(FaultRule::corrupt(5).in_round("dgka-r1").from(1).to(0)))
        }
        4 => Some(FaultPlan::new(seed).with(FaultRule::delay(1).from(1).to(0).at_most(2))),
        5 => Some(FaultPlan::new(seed).with(FaultRule::crash_stop(2, 1))),
        6 => Some(FaultPlan::new(seed).with(FaultRule::partition(1))),
        7 => Some(
            FaultPlan::new(seed)
                .with(FaultRule::crash_stop(1, 1))
                .with(FaultRule::crash_stop(2, 1)),
        ),
        _ => None,
    }
}

/// What the matrix owes each kind.
fn expected_class(kind: usize) -> TerminalClass {
    match kind {
        7 => TerminalClass::TooFewSurvivors,
        _ => TerminalClass::Accepted,
    }
}

#[test]
fn chaos_soak_terminates_every_session_without_leaks() {
    let pool = two_group_pool();
    let svc = soak_service();
    let mut expectations: Vec<(SessionId, &str, TerminalClass)> = Vec::new();
    let mut wildcards: Vec<SessionId> = Vec::new();

    // 24 fault-matrix sessions: three per fault kind, all co-members of
    // group A, submitted concurrently.
    for i in 0..24usize {
        let kind = i % 8;
        let job = HandshakeJob::new(
            Arc::clone(&pool),
            3,
            HandshakeOptions::default(),
            &format!("soak-{i}"),
        )
        .with_plans(move |ctx| plan_for(kind, ctx.attempt));
        let sub = svc.submit(SessionSpec::new(Box::new(job)).with_max_attempts(4));
        assert!(sub.queued(), "soak session {i} admitted");
        expectations.push((sub.id(), "matrix", expected_class(kind)));
    }

    // 3 mixed-group sessions judged FullOnly: completed rejections.
    for i in 0..3usize {
        let job = HandshakeJob::new(
            Arc::clone(&pool),
            0,
            HandshakeOptions::default(),
            &format!("soak-mixed-{i}"),
        )
        .with_slots(vec![
            Participant::Member(0),
            Participant::Member(1),
            Participant::Member(4),
            Participant::Member(5),
        ])
        .with_policy(SuccessPolicy::FullOnly);
        let sub = svc.submit(SessionSpec::new(Box::new(job)));
        assert!(sub.queued());
        expectations.push((sub.id(), "mixed", TerminalClass::Rejected));
    }

    // 2 outsider sessions: the adversary completes but never succeeds.
    for i in 0..2usize {
        let job = HandshakeJob::new(
            Arc::clone(&pool),
            0,
            HandshakeOptions::default(),
            &format!("soak-outsider-{i}"),
        )
        .with_slots(vec![Participant::Member(0), Participant::Outsider]);
        let sub = svc.submit(SessionSpec::new(Box::new(job)));
        assert!(sub.queued());
        expectations.push((sub.id(), "outsider", TerminalClass::Rejected));
    }

    // 3 probabilistic-chaos sessions: outcome is schedule-dependent, the
    // contract is only "terminal, within budget, no leak".
    for i in 0..3usize {
        let job = HandshakeJob::new(
            Arc::clone(&pool),
            3,
            HandshakeOptions::default(),
            &format!("soak-chaos-{i}"),
        )
        .with_plans(move |ctx| {
            Some(
                FaultPlan::new(900 + i as u64 + u64::from(ctx.attempt))
                    .with(FaultRule::drop().with_probability(0.3))
                    .with(FaultRule::corrupt(1).with_probability(0.2))
                    .with(FaultRule::duplicate().with_probability(0.2)),
            )
        });
        let sub = svc.submit(SessionSpec::new(Box::new(job)).with_max_attempts(3));
        assert!(sub.queued());
        wildcards.push(sub.id());
    }

    // No deadlock: the whole soak settles.
    assert!(
        svc.wait_idle(Duration::from_secs(300)),
        "service went idle (no deadlock, no runaway retries)"
    );

    // Every session reached its expected terminal class.
    for (id, tag, want) in &expectations {
        let e = svc.entry(*id).expect("entry kept until eviction");
        assert!(e.state.terminal(), "{tag} session {id} terminal");
        assert_eq!(e.class, Some(*want), "{tag} session {id}");
        assert!(
            e.attempts.len() <= 4,
            "{tag} session {id}: attempts bounded"
        );
    }
    for id in &wildcards {
        let e = svc.entry(*id).expect("entry");
        assert!(e.state.terminal(), "chaos session {id} terminal");
        assert!(e.attempts.len() <= 3);
    }

    // Crash-kind sessions (kind 5) really re-formed among survivors.
    for (i, (id, _, _)) in expectations.iter().take(24).enumerate() {
        let e = svc.entry(*id).expect("entry");
        match i % 8 {
            5 => {
                assert!(e.reformations >= 1, "crash session {id} re-formed");
                let last = e.attempts.last().expect("attempts recorded");
                assert_eq!(last.roster, vec![0, 1], "re-formed roster = survivors");
            }
            6 => {
                // Partition leaves uniform liveness: full-roster retry.
                assert_eq!(e.reformations, 0, "partition keeps the roster");
                assert_eq!(e.attempts.len(), 2, "one healed retry");
            }
            7 => {
                assert_eq!(e.attempts.len(), 1, "lone survivor: no retry storm");
            }
            _ => {}
        }
    }

    // Registry hygiene: zero leaks, zero illegal transitions, and the
    // books balance.
    let stats = svc.stats();
    assert_eq!(svc.leaks(), Vec::<SessionId>::new());
    assert_eq!(stats.illegal_transitions, 0);
    assert_eq!(stats.active, 0);
    assert_eq!(
        stats.completed + stats.aborted,
        stats.submitted,
        "every admitted session is terminal"
    );
    assert!(
        stats.reformations >= 3,
        "the three crash sessions re-formed"
    );

    let report = svc.shutdown(Duration::from_secs(30));
    assert!(report.clean(), "drain left no leaks: {report:?}");
}

#[test]
fn saturated_service_sheds_unobservably_and_recovers() {
    let pool = two_group_pool();
    let svc = Service::start(ServiceConfig {
        workers: 1,
        queue_capacity: 2,
        default_deadline: Duration::from_secs(120),
        default_max_attempts: 2,
        backoff_base: Duration::from_millis(2),
        backoff_cap: Duration::from_millis(10),
        seed: 0x5ed5,
    });
    // Teach the shape book: one clean 3-member session, whose full log
    // the wrapper keeps (the registry keeps only its summary).
    let (teacher, teach_logs) = KeepLogs::new(HandshakeJob::new(
        Arc::clone(&pool),
        3,
        HandshakeOptions::default(),
        "shed-teach",
    ));
    let teach = svc.submit(SessionSpec::new(Box::new(teacher)));
    assert!(teach.queued());
    assert!(svc.wait_idle(Duration::from_secs(60)));

    // Flood a 1-worker, 2-slot queue with 10 sessions: some must shed.
    let mut shed_decoys = Vec::new();
    let mut queued = 0usize;
    for i in 0..10usize {
        let job = HandshakeJob::new(
            Arc::clone(&pool),
            3,
            HandshakeOptions::default(),
            &format!("shed-{i}"),
        );
        match svc.submit(SessionSpec::new(Box::new(job))) {
            shs_net::serve::Submitted::Queued(_) => queued += 1,
            shs_net::serve::Submitted::Shed { decoy, .. } => {
                shed_decoys.push(decoy.expect("shape learned, decoy emitted"));
            }
        }
    }
    assert!(queued >= 1, "some sessions were served");
    assert!(!shed_decoys.is_empty(), "saturation shed some sessions");

    // Unobservability: every decoy has exactly the wire shape of the real
    // clean session the book learned from.
    let real = kept(&teach_logs)[0].traffic.clone();
    let taught = svc.entry(teach.id()).expect("teach entry").attempts[0]
        .traffic
        .clone();
    assert_eq!(*taught.shape(), real.shape(), "the registry kept its shape");
    for decoy in &shed_decoys {
        assert_eq!(decoy.shape(), real.shape(), "shedding is unobservable");
        assert_ne!(*decoy, real, "decoy payload bits are fresh");
    }

    // The service recovers: everything admitted still terminates.
    assert!(svc.wait_idle(Duration::from_secs(120)));
    let stats = svc.stats();
    assert_eq!(stats.active, 0);
    assert_eq!(stats.shed as usize, shed_decoys.len());
    assert_eq!(stats.illegal_transitions, 0);
    assert!(svc.shutdown(Duration::from_secs(30)).clean());
}
