//! What the service registry keeps of each attempt (DESIGN.md §12).
//!
//! A registry entry holds, per attempt, the roster, the verdict, the
//! live slots and a summary of the attempt's traffic: its wire shape
//! and fault counters, no payload byte. The sessions here run through
//! [`Service`] wrapped in a job that keeps every attempt's full
//! eavesdropper log, so each summary is checked against the log it was
//! made from:
//!
//! * a **clean** session (one fault-free attempt);
//! * a **crash-stop** session (slot 2 dies in the first exchange, the
//!   service re-forms among the two survivors);
//! * a **dropped-delivery** session (one Phase-I delivery lost and
//!   recovered inside the attempt, so the fault counters are nonzero).

mod common;

use common::{kept, rng, KeepLogs, KeptAttempt};
use shs_core::service::HandshakeJob;
use shs_core::{fixtures, HandshakeOptions, SchemeKind};
use shs_net::fault::{FaultPlan, FaultRule};
use shs_net::observe::FaultCounters;
use shs_net::serve::{
    live_slots, Service, ServiceConfig, SessionEntry, SessionSpec, TerminalClass,
};
use std::sync::Arc;
use std::time::Duration;

/// Checks every recorded attempt of `entry` against the log the job
/// kept for it.
fn assert_summaries_match(tag: &str, entry: &SessionEntry, logs: &[KeptAttempt]) {
    assert_eq!(
        entry.attempts.len(),
        logs.len(),
        "{tag}: one log per attempt"
    );
    for (record, kept) in entry.attempts.iter().zip(logs) {
        let (summary, log) = (&record.traffic, &kept.traffic);
        let a = record.attempt;
        assert!(!log.is_empty(), "{tag} attempt {a}: the attempt sent");
        assert_eq!(record.roster, kept.ctx.roster, "{tag} attempt {a}: roster");
        assert_eq!(*summary.shape(), log.shape(), "{tag} attempt {a}: shape");
        assert_eq!(
            summary.total_bytes(),
            log.total_bytes(),
            "{tag} attempt {a}: total bytes"
        );
        for slot in 0..=record.roster.len() {
            assert_eq!(
                summary.messages_from(slot),
                log.messages_from(slot),
                "{tag} attempt {a}: messages from slot {slot}"
            );
        }
        assert_eq!(summary.faults(), log.faults(), "{tag} attempt {a}: faults");
        assert_eq!(
            record.live_slots(),
            live_slots(&record.roster, &log.clone().into_summary()),
            "{tag} attempt {a}: live slots"
        );
    }
    // The entry's whole debug view names no payload field.
    assert!(
        !format!("{entry:?}").contains("payload"),
        "{tag}: no payload reaches the registry"
    );
}

#[test]
fn registry_keeps_each_attempts_summary_not_its_payloads() {
    let mut r = rng("service-registry");
    let (_, members) = fixtures::group_with_members(SchemeKind::Scheme1, 3, &mut r).expect("group");
    let members = Arc::new(members);
    let svc = Service::start(ServiceConfig {
        workers: 2,
        queue_capacity: 8,
        default_deadline: Duration::from_secs(120),
        default_max_attempts: 4,
        backoff_base: Duration::from_millis(2),
        backoff_cap: Duration::from_millis(10),
        seed: 0x5e5511,
    });
    let job = |label: &str| {
        HandshakeJob::new(Arc::clone(&members), 3, HandshakeOptions::default(), label)
    };
    let sessions = [
        ("clean", job("registry-clean")),
        (
            "crash-stop",
            job("registry-crash").with_plans(|ctx| {
                (ctx.attempt == 0).then(|| FaultPlan::new(81).with(FaultRule::crash_stop(2, 1)))
            }),
        ),
        (
            "dropped",
            job("registry-drop").with_plans(|ctx| {
                (ctx.attempt == 0).then(|| {
                    FaultPlan::new(82).with(
                        FaultRule::drop()
                            .in_round("dgka-r1")
                            .from(1)
                            .to(0)
                            .at_most(1),
                    )
                })
            }),
        ),
    ];
    let submitted: Vec<_> = sessions
        .into_iter()
        .map(|(tag, job)| {
            let (job, logs) = KeepLogs::new(job);
            let sub = svc.submit(SessionSpec::new(Box::new(job)));
            assert!(sub.queued(), "{tag} admitted");
            (tag, sub.id(), logs)
        })
        .collect();
    assert!(svc.wait_idle(Duration::from_secs(120)), "sessions settled");

    for (tag, id, logs) in &submitted {
        let entry = svc.entry(*id).expect("entry retained");
        assert_eq!(entry.class, Some(TerminalClass::Accepted), "{tag}");
        assert_summaries_match(tag, &entry, &kept(logs));
    }

    // Each session exercised what it was built for.
    let attempts = |i: usize| svc.entry(submitted[i].1).expect("entry").attempts;
    let clean = attempts(0);
    assert_eq!(clean.len(), 1);
    assert_eq!(*clean[0].traffic.faults(), FaultCounters::default());
    let crash = attempts(1);
    assert_eq!(crash.len(), 2, "the crash forced one re-formed retry");
    assert_eq!(crash[0].live_slots(), vec![0, 1]);
    assert_eq!(crash[1].roster, vec![0, 1]);
    assert!(crash[0].traffic.faults().crash_silenced > 0);
    let dropped = attempts(2);
    assert_eq!(dropped[0].traffic.faults().dropped, 1);

    assert!(svc.shutdown(Duration::from_secs(10)).clean());
}
