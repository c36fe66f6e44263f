//! The discrete-event simulator is a *medium*, not a fork of the
//! engine: the same parties, seeds and rosters must produce the same
//! bytes whether the session runs over real TCP through the relay, the
//! lockstep `BroadcastNet`, or `shs-sim`'s virtual-time media — and a
//! simulated campaign must reproduce bit-for-bit from its seed.

mod common;

use std::time::Duration;

use common::{actors, group, rng, run_tcp_parties};
use shs_core::handshake::party::run_party;
use shs_core::handshake::run_handshake_with_net;
use shs_core::{Actor, HandshakeOptions, SchemeKind};
use shs_net::fault::FaultPlan;
use shs_net::observe::{TrafficLog, TrafficRecord};
use shs_net::sync::BroadcastNet;
use shs_net::tcp::{RelayConfig, TcpParty};
use shs_sim::adversary::{Kind, Schedule};
use shs_sim::core::LatencyModel;
use shs_sim::network::{run_session, SimLink, SimMedium};
use shs_sim::{run_scenario, ScenarioConfig, SimPool};

const COLLECT: Duration = Duration::from_secs(5);

/// The relay logs in the order frames cross the sockets (the sim's order
/// is canonical); order both by identity before comparing bytes.
fn canonical(log: &TrafficLog) -> Vec<TrafficRecord> {
    let mut records = log.records().to_vec();
    records.sort_by(|a, b| {
        (&a.round, a.from_slot, &a.payload).cmp(&(&b.round, b.from_slot, &b.payload))
    });
    records
}

/// A fault-free session driven by the unmodified per-party driver over
/// the simulated medium produces the byte-identical transcript — same
/// rounds, same slots, same payload bytes — as three `TcpParty` links
/// through a loopback relay with the same roster and per-party seeds,
/// plus the same acceptances and keys.
#[test]
fn simulated_session_matches_tcp_transcript_byte_for_byte() {
    let label = "sim-tcp-equiv";
    // TCP run. (Each run rebuilds the identical group from the same
    // seed so it owns its members — determinism end to end.)
    let mut r = rng(label);
    let (_, members) = group(SchemeKind::Scheme1, 3, &mut r);
    let opts = HandshakeOptions::default();
    let tcp_bodies: Vec<_> = members
        .into_iter()
        .enumerate()
        .map(|(i, member)| {
            move |link: &mut TcpParty| {
                let mut r = rng(&format!("{label}-{i}"));
                run_party(&Actor::Member(&member), &opts, link, COLLECT, &mut r)
                    .expect("tcp party completes")
            }
        })
        .collect();
    let config = RelayConfig {
        gather_deadline: Duration::from_secs(10),
        round_deadline: Duration::from_secs(5),
        ..RelayConfig::new(3)
    };
    let (tcp_results, tcp_traffic) = run_tcp_parties(config, None, tcp_bodies);

    // Simulated run: same members, same per-party seeds, virtual time.
    let mut r = rng(label);
    let (_, members) = group(SchemeKind::Scheme1, 3, &mut r);
    let sim_bodies: Vec<_> = members
        .into_iter()
        .enumerate()
        .map(|(i, member)| {
            move |mut link: SimLink| {
                let mut r = rng(&format!("{label}-{i}"));
                run_party(&Actor::Member(&member), &opts, &mut link, COLLECT, &mut r)
                    .expect("sim party completes")
            }
        })
        .collect();
    let report = run_session(3, FaultPlan::new(7), LatencyModel::lan(7), sim_bodies);

    for (slot, (t, s)) in tcp_results.iter().zip(&report.outputs).enumerate() {
        assert!(t.outcome.accepted && s.outcome.accepted, "slot {slot}");
        assert_eq!(t.outcome.session_key, s.outcome.session_key, "slot {slot}");
        assert_eq!(
            t.outcome.same_group_slots, s.outcome.same_group_slots,
            "slot {slot}"
        );
        assert_eq!(
            t.outcome.verified_slots, s.outcome.verified_slots,
            "slot {slot}"
        );
    }
    assert_eq!(
        canonical(&tcp_traffic),
        canonical(&report.traffic),
        "the eavesdropper cannot tell the simulated wire from the real one"
    );
    assert!(report.elapsed > Duration::ZERO, "virtual time was charged");
}

/// The lockstep anchor: the full engine over `SimMedium` produces the
/// byte-identical session result as over `BroadcastNet`, fault plans
/// included — the simulated medium changes *when*, never *what*.
#[test]
fn sim_medium_is_transparent_to_the_lockstep_engine() {
    let mut r = rng("sim-medium-equiv");
    let (_, members) = group(SchemeKind::Scheme1, 3, &mut r);
    let opts = HandshakeOptions::default();

    let mut rng_a = rng("sim-medium-equiv-run");
    let mut real = BroadcastNet::new(3, opts.delivery);
    real.set_fault_plan(FaultPlan::new(21));
    let a = run_handshake_with_net(&actors(&members), &opts, &mut real, &mut rng_a)
        .expect("real-medium session");

    let mut rng_b = rng("sim-medium-equiv-run");
    let mut sim = SimMedium::new(3, LatencyModel::lan(21));
    sim.set_fault_plan(FaultPlan::new(21));
    let b = run_handshake_with_net(&actors(&members), &opts, &mut sim, &mut rng_b)
        .expect("sim-medium session");

    assert_eq!(a.traffic, b.traffic, "byte-identical transcript");
    for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
        assert_eq!(x.accepted, y.accepted);
        assert_eq!(x.session_key, y.session_key);
        assert_eq!(x.same_group_slots, y.same_group_slots);
    }
    assert!(sim.elapsed() > Duration::ZERO);
}

/// Same seed, same campaign: a full scenario (arrivals, queueing,
/// faults, re-formation, histograms) replays to the identical report.
#[test]
fn scenario_replays_bit_identically_from_its_seed() {
    let run = || {
        let pool = SimPool::build(3, 0, 0xD57);
        let cfg = ScenarioConfig::burst(5, 0xD57);
        run_scenario(&pool, Schedule::new(Kind::PhaseCrash, 0xD57), &cfg)
    };
    let (a, b) = (run(), run());
    assert_eq!(a.fingerprint, b.fingerprint, "event-trace fingerprint");
    assert_eq!(a.classes, b.classes);
    assert_eq!(a.latency, b.latency);
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.faults, b.faults);
}
