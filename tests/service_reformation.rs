//! Survivor re-formation edge cases (DESIGN.md §12).
//!
//! Three corners of the availability model:
//!
//! * **all-but-one crash** — a session with a single live survivor
//!   cannot re-form (`m ≥ 2`); it must abort cleanly after exactly one
//!   attempt, never spin in a retry storm;
//! * **crash after key agreement** — a crash in Phase III, *after* the
//!   session key exists, still aborts the attempt; the re-formed retry
//!   is a cryptographically fresh session sharing no wire bytes (hence
//!   no nonces, blinds or DGKA exponents) with the aborted one;
//! * **abort-shape indistinguishability survives the service layer** —
//!   the aborted attempt the service retries is shape-identical on the
//!   wire to an ordinary failed handshake, exactly as `tests/faults.rs`
//!   establishes for bare sessions.

mod common;

use common::{kept, rng, KeepLogs, KeptAttempt};
use shs_core::handshake::run_handshake_with_net;
use shs_core::service::HandshakeJob;
use shs_core::{fixtures, Actor, HandshakeOptions, SchemeKind};
use shs_net::fault::{FaultPlan, FaultRule};
use shs_net::observe::TrafficShape;
use shs_net::serve::{Service, ServiceConfig, SessionEntry, SessionSpec, TerminalClass};
use shs_net::sync::BroadcastNet;
use shs_net::DeliveryPolicy;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Duration;

fn service() -> Service {
    Service::start(ServiceConfig {
        workers: 1,
        queue_capacity: 8,
        default_deadline: Duration::from_secs(120),
        default_max_attempts: 4,
        backoff_base: Duration::from_millis(2),
        backoff_cap: Duration::from_millis(10),
        seed: 0x5e5510,
    })
}

/// Runs one job to termination and returns its registry entry plus
/// every attempt's full log (the registry keeps only summaries).
fn run_one(
    svc: &Service,
    job: HandshakeJob,
    max_attempts: u32,
) -> (SessionEntry, Vec<KeptAttempt>) {
    let (job, logs) = KeepLogs::new(job);
    let sub = svc.submit(SessionSpec::new(Box::new(job)).with_max_attempts(max_attempts));
    assert!(sub.queued(), "session admitted");
    assert!(svc.wait_idle(Duration::from_secs(120)), "session settled");
    let entry = svc.entry(sub.id()).expect("entry retained");
    (entry, kept(&logs))
}

#[test]
fn all_but_one_crash_aborts_cleanly_without_retry_storm() {
    let mut r = rng("reform-lone");
    let (_, members) = fixtures::group_with_members(SchemeKind::Scheme1, 3, &mut r).expect("group");
    let svc = service();
    let job = HandshakeJob::new(
        Arc::new(members),
        3,
        HandshakeOptions::default(),
        "reform-lone",
    )
    .with_plans(|_| {
        Some(
            FaultPlan::new(71)
                .with(FaultRule::crash_stop(1, 1))
                .with(FaultRule::crash_stop(2, 1)),
        )
    });
    // A generous attempt budget on purpose: the *liveness* check, not
    // the budget, must be what stops the retries.
    let (e, _) = run_one(&svc, job, 8);
    assert_eq!(e.class, Some(TerminalClass::TooFewSurvivors));
    assert_eq!(
        e.attempts.len(),
        1,
        "no retry storm: one attempt, then stop"
    );
    assert_eq!(e.reformations, 0, "nothing to re-form around one survivor");
    assert_eq!(
        e.attempts[0].live_slots(),
        vec![0],
        "only slot 0 stayed live"
    );
    assert!(svc.shutdown(Duration::from_secs(10)).clean());
}

#[test]
fn crash_after_key_agreement_reforms_with_a_fresh_transcript() {
    let mut r = rng("reform-phase3");
    let (_, members) = fixtures::group_with_members(SchemeKind::Scheme1, 3, &mut r).expect("group");
    let svc = service();
    // Slot 2 participates in three exchanges — both DGKA rounds (so the
    // session key exists) and the Phase-II tags — then crash-stops
    // during Phase III.
    let job = HandshakeJob::new(
        Arc::new(members),
        3,
        HandshakeOptions::default(),
        "reform-phase3",
    )
    .with_plans(|ctx| {
        (ctx.attempt == 0).then(|| FaultPlan::new(72).with(FaultRule::crash_stop(2, 3)))
    });
    let (e, logs) = run_one(&svc, job, 4);
    assert_eq!(e.class, Some(TerminalClass::Accepted));
    assert_eq!(e.attempts.len(), 2);
    assert_eq!(logs.len(), 2);
    assert_eq!(e.reformations, 1);
    assert_eq!(
        e.attempts[0].live_slots(),
        vec![0, 1],
        "the Phase-III crash shows up in liveness"
    );
    assert_eq!(
        e.attempts[1].roster,
        vec![0, 1],
        "re-formed to the survivors"
    );

    // Fresh transcript: no wire payload of the aborted attempt reappears
    // in the retry. Every DGKA exponent, MAC tag, signature and nonce is
    // new — a transcript-level guarantee that nothing was reused after
    // the key-agreement state was thrown away.
    let first: BTreeSet<&[u8]> = logs[0]
        .traffic
        .records()
        .iter()
        .map(|rec| rec.payload.as_slice())
        .collect();
    let reused = logs[1]
        .traffic
        .records()
        .iter()
        .filter(|rec| first.contains(rec.payload.as_slice()))
        .count();
    assert_eq!(reused, 0, "retry shares zero wire bytes with the abort");
    assert!(svc.shutdown(Duration::from_secs(10)).clean());
}

/// Per-round wire shape (same reduction as `tests/faults.rs`): for each
/// round label, the set of `(slot, payload_len)` transmissions.
fn per_round_shape(shape: &TrafficShape) -> BTreeMap<String, BTreeSet<(usize, usize)>> {
    let mut by_round: BTreeMap<String, BTreeSet<(usize, usize)>> = BTreeMap::new();
    for (round, slot, len) in &shape.entries {
        by_round
            .entry(round.clone())
            .or_default()
            .insert((*slot, *len));
    }
    by_round
}

#[test]
fn reformation_preserves_abort_shape_indistinguishability() {
    // Reference: an ordinary failed handshake (members of different
    // groups, fault-free medium) — what an eavesdropper calls "failure".
    let mut r = rng("reform-shape-ordinary");
    let (_, ours) = fixtures::group_with_members(SchemeKind::Scheme1, 2, &mut r).expect("group A");
    let (_, foreign) =
        fixtures::group_with_members(SchemeKind::Scheme1, 1, &mut r).expect("group B");
    let mixed = [
        Actor::Member(&ours[0]),
        Actor::Member(&ours[1]),
        Actor::Member(&foreign[0]),
    ];
    let opts = HandshakeOptions {
        partial_success: false,
        ..Default::default()
    };
    let mut plain_net = BroadcastNet::new(3, DeliveryPolicy::Synchronous);
    let ordinary = run_handshake_with_net(&mixed, &opts, &mut plain_net, &mut r).expect("run");
    assert!(ordinary.outcomes.iter().all(|o| !o.accepted));

    // Service-managed session whose first attempt aborts (persistent
    // Phase-I corruption) and whose retry succeeds.
    let mut r2 = rng("reform-shape-service");
    let (_, members) =
        fixtures::group_with_members(SchemeKind::Scheme1, 3, &mut r2).expect("group");
    let svc = service();
    let job = HandshakeJob::new(Arc::new(members), 3, opts, "reform-shape").with_plans(|ctx| {
        (ctx.attempt == 0).then(|| {
            FaultPlan::new(73).with(FaultRule::corrupt(5).in_round("dgka-r1").from(1).to(0))
        })
    });
    let (e, _) = run_one(&svc, job, 4);
    assert_eq!(e.class, Some(TerminalClass::Accepted), "retry succeeded");
    assert_eq!(e.attempts.len(), 2);

    // The aborted attempt the service re-ran is, on the wire, an
    // ordinary failed handshake — managing sessions through the service
    // (and deciding to retry them) leaks nothing extra to eavesdroppers.
    assert_eq!(
        per_round_shape(e.attempts[0].traffic.shape()),
        per_round_shape(&ordinary.traffic.shape()),
        "service-layer abort is shape-identical to an ordinary failure"
    );
    assert!(svc.shutdown(Duration::from_secs(10)).clean());
}
