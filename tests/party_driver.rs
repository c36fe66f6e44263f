//! The per-party driver seam: `run_party` over in-process links and
//! over real TCP must agree with the lockstep driver's acceptance
//! logic (they share the phase code, so disagreement would mean the
//! exchange loops diverged), and recover from a lost delivery the same
//! way on every medium (they share one routing step).

mod common;

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use common::{group, rng, run_tcp_parties};
use shs_core::handshake::party::{run_party, PartyOutcome};
use shs_core::{Actor, HandshakeOptions, Member, SchemeKind};
use shs_net::fault::{FaultPlan, FaultRule};
use shs_net::observe::TrafficLog;
use shs_net::tcp::{RelayConfig, TcpParty};
use shs_sim::core::LatencyModel;
use shs_sim::network::{run_session, SimLink};

const COLLECT: Duration = Duration::from_secs(5);

/// Three co-members, each on its own thread behind a `SimLink`: everyone
/// accepts and derives the same session key — exactly what the lockstep
/// driver concludes for the same configuration.
#[test]
fn sim_parties_agree_with_lockstep_acceptance() {
    let mut r = rng("party-sim-accept");
    let (_, members) = group(SchemeKind::Scheme1, 3, &mut r);
    let opts = HandshakeOptions::default();
    let bodies: Vec<_> = members
        .into_iter()
        .enumerate()
        .map(|(i, member)| {
            move |mut link: SimLink| {
                let mut r = rng(&format!("party-sim-accept-{i}"));
                run_party(&Actor::Member(&member), &opts, &mut link, COLLECT, &mut r)
                    .expect("party completes")
            }
        })
        .collect();
    let report = run_session(3, FaultPlan::new(7), LatencyModel::lan(7), bodies);
    let (results, traffic) = (report.outputs, report.traffic);
    let keys: Vec<_> = results
        .iter()
        .map(|p| p.outcome.session_key.clone().expect("keyed"))
        .collect();
    for (i, p) in results.iter().enumerate() {
        assert!(p.outcome.accepted, "slot {i} accepts");
        assert_eq!(p.outcome.slot, i);
        assert_eq!(p.outcome.same_group_slots, vec![0, 1, 2]);
        assert_eq!(p.outcome.verified_slots, vec![0, 1, 2]);
        assert!(p.outcome.abort.is_none());
        assert_eq!(keys[i], keys[0], "slot {i} derived the group key");
        assert!(p.stats.exchanges > 0);
    }
    assert!(!traffic.is_empty(), "the eavesdropper saw the session");
}

/// Mixed groups over party links: an ordinary failure — completions
/// without keys, not aborts — matching the lockstep semantics.
#[test]
fn sim_parties_fail_ordinarily_across_groups() {
    let mut r = rng("party-sim-mixed");
    let (_, mut ours) = group(SchemeKind::Scheme1, 2, &mut r);
    let (_, mut foreign) = group(SchemeKind::Scheme1, 1, &mut r);
    let mut members = Vec::new();
    members.append(&mut ours);
    members.append(&mut foreign);
    let opts = HandshakeOptions {
        partial_success: false,
        ..Default::default()
    };
    let bodies: Vec<_> = members
        .into_iter()
        .enumerate()
        .map(|(i, member)| {
            move |mut link: SimLink| {
                let mut r = rng(&format!("party-sim-mixed-{i}"));
                run_party(&Actor::Member(&member), &opts, &mut link, COLLECT, &mut r)
                    .expect("party completes")
            }
        })
        .collect();
    let results = run_session(3, FaultPlan::new(8), LatencyModel::lan(8), bodies).outputs;
    for (i, p) in results.iter().enumerate() {
        assert!(!p.outcome.accepted, "slot {i} rejects");
        assert!(p.outcome.session_key.is_none());
        assert!(
            p.outcome.abort.is_none(),
            "an ordinary failure is a completion, not an abort"
        );
    }
    // The co-members still found each other in Phase II.
    assert_eq!(results[0].outcome.same_group_slots, vec![0, 1]);
    assert_eq!(results[1].outcome.same_group_slots, vec![0, 1]);
    assert_eq!(results[2].outcome.same_group_slots, vec![2]);
}

/// Two co-members, two real TCP connections through a relay: the full
/// handshake completes across the wire with a shared key.
#[test]
fn tcp_parties_complete_a_real_network_handshake() {
    let mut r = rng("party-tcp-accept");
    let (_, members) = group(SchemeKind::Scheme1, 2, &mut r);
    let opts = HandshakeOptions::default();
    let bodies: Vec<_> = members
        .into_iter()
        .enumerate()
        .map(|(i, member)| {
            move |link: &mut TcpParty| {
                let mut r = rng(&format!("party-tcp-accept-{i}"));
                run_party(&Actor::Member(&member), &opts, link, COLLECT, &mut r)
                    .expect("party completes")
            }
        })
        .collect();
    let config = RelayConfig {
        gather_deadline: Duration::from_secs(10),
        ..RelayConfig::new(2)
    };
    let (results, log) = run_tcp_parties(config, None, bodies);
    let keys: Vec<_> = results
        .iter()
        .map(|p| p.outcome.session_key.clone().expect("keyed"))
        .collect();
    for (i, p) in results.iter().enumerate() {
        assert!(p.outcome.accepted, "slot {i} accepts over TCP");
        assert_eq!(p.outcome.same_group_slots, vec![0, 1]);
        assert!(p.outcome.abort.is_none());
        assert_eq!(keys[i], keys[0]);
    }
    assert!(!log.is_empty(), "relay-side eavesdropper saw the session");
}

/// The `drop-one-phase2` plan of `tests/driver_digests.rs`: the first
/// Phase-II delivery from slot 1 to slot 0 is lost.
fn drop_one_phase2() -> FaultPlan {
    FaultPlan::new(13).with(
        FaultRule::drop()
            .in_round("phase2-mac")
            .from(1)
            .to(0)
            .at_most(1),
    )
}

/// Three co-members for the recovery runs, shared by the party threads.
fn recovery_members(label: &str) -> Arc<Vec<Member>> {
    let mut r = rng(label);
    Arc::new(group(SchemeKind::Scheme1, 3, &mut r).1)
}

/// Everyone accepts with one key and no abort, and the eavesdropper saw
/// every slot equally often under each round label (a retransmission
/// brought every slot's copy, not just the retransmitting party's).
fn assert_recovered(medium: &str, results: &[PartyOutcome], log: &TrafficLog) {
    let key = results[0].outcome.session_key.clone();
    assert!(key.is_some(), "{medium}: slot 0 keyed");
    for (i, p) in results.iter().enumerate() {
        assert!(p.outcome.accepted, "{medium}: slot {i} accepts");
        assert!(p.outcome.abort.is_none(), "{medium}: slot {i} aborted");
        assert_eq!(p.outcome.session_key, key, "{medium}: slot {i} key");
    }
    let mut per_label: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for r in log.records() {
        per_label.entry(&r.round).or_insert_with(|| vec![0; 3])[r.from_slot] += 1;
    }
    for (label, counts) in &per_label {
        assert!(
            counts.iter().all(|&c| c == counts[0]),
            "{medium}: uneven sends under {label}: {counts:?}"
        );
    }
    assert_eq!(log.faults().dropped, 1, "{medium}: the plan fired once");
    assert!(
        per_label.get("phase2-mac").is_some_and(|c| c[0] >= 2),
        "{medium}: Phase II was retransmitted"
    );
}

/// One lost Phase-II delivery over `shs-sim`'s virtual-time `SimLink`:
/// slot 0's retransmission brings its co-parties' cached tags, and their
/// Phase-III broadcasts that land meanwhile are held for slot 0's next
/// collect.
#[test]
fn sim_parties_recover_from_one_lost_phase2_delivery() {
    let members = recovery_members("party-sim-drop");
    let opts = HandshakeOptions::default();
    let bodies: Vec<_> = (0..3)
        .map(|i| {
            let members = Arc::clone(&members);
            move |mut link: SimLink| {
                let mut r = rng(&format!("party-sim-drop-{i}"));
                let window = Duration::from_millis(50);
                run_party(
                    &Actor::Member(&members[i]),
                    &opts,
                    &mut link,
                    window,
                    &mut r,
                )
                .expect("party completes")
            }
        })
        .collect();
    let report = run_session(3, drop_one_phase2(), LatencyModel::lan(3), bodies);
    assert_recovered("sim", &report.outputs, &report.traffic);
}

/// The same loss over real TCP through a relay. The relay waits for a
/// late seat longer than a party's collect window, so slot 0's Phase-III
/// broadcast, delayed by its Phase-II retry, joins its co-parties' batch.
#[test]
fn tcp_parties_recover_from_one_lost_phase2_delivery() {
    let members = recovery_members("party-tcp-drop");
    let opts = HandshakeOptions::default();
    let bodies: Vec<_> = (0..3)
        .map(|i| {
            let members = Arc::clone(&members);
            move |link: &mut TcpParty| {
                let mut r = rng(&format!("party-tcp-drop-{i}"));
                let window = Duration::from_secs(1);
                run_party(&Actor::Member(&members[i]), &opts, link, window, &mut r)
                    .expect("party completes")
            }
        })
        .collect();
    let config = RelayConfig {
        gather_deadline: Duration::from_secs(10),
        round_deadline: Duration::from_secs(5),
        ..RelayConfig::new(3)
    };
    let (results, log) = run_tcp_parties(config, Some(drop_one_phase2()), bodies);
    assert_recovered("tcp", &results, &log);
}

/// A Phase-III copy from slot 1 to slot 0 held for one exchange over
/// `SimLink`: slot 0 retransmits once, and that retransmission opens the
/// label's second exchange, which releases the held copy.
#[test]
fn sim_delayed_copy_is_released_by_the_retransmission() {
    let members = recovery_members("party-sim-delay");
    let opts = HandshakeOptions::default();
    let plan = FaultPlan::new(16).with(
        FaultRule::delay(1)
            .in_round("phase3-full")
            .from(1)
            .to(0)
            .at_most(1),
    );
    let bodies: Vec<_> = (0..3)
        .map(|i| {
            let members = Arc::clone(&members);
            move |mut link: SimLink| {
                let mut r = rng(&format!("party-sim-delay-{i}"));
                let window = Duration::from_millis(50);
                run_party(
                    &Actor::Member(&members[i]),
                    &opts,
                    &mut link,
                    window,
                    &mut r,
                )
                .expect("party completes")
            }
        })
        .collect();
    let report = run_session(3, plan, LatencyModel::lan(3), bodies);
    let retries: Vec<u32> = report.outputs.iter().map(|p| p.stats.retries).collect();
    assert_eq!(retries, vec![1, 0, 0], "only slot 0 retransmits, once");
    let faults = report.traffic.faults();
    assert_eq!((faults.delayed, faults.redelivered), (1, 1));
    for (i, p) in report.outputs.iter().enumerate() {
        assert!(p.outcome.accepted, "slot {i} accepts");
    }
    let phase3 = |slot| {
        report
            .traffic
            .records()
            .iter()
            .filter(|r| r.round == "phase3-full" && r.from_slot == slot)
            .count()
    };
    assert_eq!([phase3(0), phase3(1), phase3(2)], [2, 2, 2]);
}
