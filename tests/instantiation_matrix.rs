//! The full instantiation matrix (§5–§6: GCD is a compiler): every
//! GSIG × CGKD × DGKA combination the factory can construct runs a
//! complete handshake with the same outcome semantics. The newly wired
//! backends — Star CGKD and the Katz–Yung authenticated BD — also get
//! lifecycle and fault coverage of their own.

mod common;

use std::collections::{BTreeMap, BTreeSet};

use common::{actors, rng};
use shs_core::config::{CgkdChoice, DgkaChoice, GroupConfig};
use shs_core::fixtures::group_with_config;
use shs_core::handshake::{run_handshake, run_handshake_with_net};
use shs_core::{Actor, HandshakeOptions, SchemeKind};
use shs_net::fault::{FaultPlan, FaultRule};
use shs_net::observe::TrafficLog;
use shs_net::sync::BroadcastNet;
use shs_net::DeliveryPolicy;

/// Every cell of the 3×3×3 matrix completes a 3-party handshake with
/// unanimous acceptance and a shared session key. Iterates the `ALL`
/// registries, so a new backend is matrix-tested the moment it lands.
#[test]
fn full_3x3x3_matrix_completes_with_shared_key() {
    for scheme in SchemeKind::ALL {
        for cgkd in CgkdChoice::ALL {
            let mut r = rng(&format!("matrix-{scheme:?}-{cgkd:?}"));
            let config = GroupConfig::test_with_cgkd(scheme, cgkd);
            let (_, members) = group_with_config(config, 3, &mut r).expect("group builds");
            for dgka in DgkaChoice::ALL {
                let opts = HandshakeOptions::with_dgka(dgka);
                let result =
                    run_handshake(&actors(&members), &opts, &mut r).expect("matrix cell runs");
                let cell = format!("{scheme:?}×{cgkd:?}×{dgka:?}");
                for o in &result.outcomes {
                    assert!(o.accepted, "{cell}: slot {} rejected", o.slot);
                }
                let key0 = result.outcomes[0].session_key.clone();
                assert!(key0.is_some(), "{cell}: no session key");
                assert!(
                    result.outcomes.iter().all(|o| o.session_key == key0),
                    "{cell}: slots disagree on the session key"
                );
            }
        }
    }
}

/// Star CGKD runs the full lifecycle: the removed member loses the
/// group key and is excluded from later handshakes, while the remaining
/// members still succeed with each other.
#[test]
fn star_cgkd_lifecycle_excludes_removed_member() {
    let mut r = rng("matrix-star-lifecycle");
    let config = GroupConfig::test_with_cgkd(SchemeKind::Scheme1, CgkdChoice::Star);
    let (mut ga, mut members) = group_with_config(config, 3, &mut r).expect("group builds");

    let removed = members.remove(2);
    let update = ga.remove(removed.id(), &mut r).expect("removal succeeds");
    for m in members.iter_mut() {
        m.apply_update(&update).expect("survivor rekeys");
        assert_eq!(m.group_key(), ga.group_key());
    }
    assert_ne!(removed.group_key(), ga.group_key(), "stale key after evict");

    // The removed member joins a session: the survivors only accept
    // each other.
    let session = [
        Actor::Member(&members[0]),
        Actor::Member(&members[1]),
        Actor::Member(&removed),
    ];
    let result =
        run_handshake(&session, &HandshakeOptions::default(), &mut r).expect("session runs");
    assert_eq!(result.outcomes[0].same_group_slots, vec![0, 1]);
    assert_eq!(result.outcomes[1].same_group_slots, vec![0, 1]);
    assert!(
        !result.outcomes[2].same_group_slots.contains(&0),
        "the removed member must not still see slot 0 as a co-member"
    );
}

/// The authenticated-BD phase I recovers from a bounded drop (the
/// signed frames are retransmitted like any other round).
#[test]
fn authenticated_bd_recovers_from_bounded_drop() {
    let mut r = rng("matrix-ake-drop");
    let (_, members) =
        group_with_config(GroupConfig::test(SchemeKind::Scheme1), 3, &mut r).expect("group");
    let acts = actors(&members);
    let mut net = BroadcastNet::new(3, DeliveryPolicy::Synchronous);
    net.set_fault_plan(
        FaultPlan::new(71).with(
            FaultRule::drop()
                .in_round("dgka-ake-nonce")
                .from(1)
                .to(0)
                .at_most(1),
        ),
    );
    let opts = HandshakeOptions::with_dgka(DgkaChoice::AuthenticatedBd);
    let result = run_handshake_with_net(&acts, &opts, &mut net, &mut r).expect("session runs");
    assert!(result.outcomes.iter().all(|o| o.accepted), "drop recovered");
    assert!(result.stats.retries > 0, "recovery was not free");
}

/// Persistent corruption of a signed round-1 frame makes the receiver
/// abort: the Katz–Yung signatures reject the tamper at Phase I (there
/// is nothing a retransmission budget can do against a persistent MITM).
#[test]
fn authenticated_bd_aborts_under_persistent_tamper() {
    let mut r = rng("matrix-ake-tamper");
    let (_, members) =
        group_with_config(GroupConfig::test(SchemeKind::Scheme1), 3, &mut r).expect("group");
    let acts = actors(&members);
    let mut net = BroadcastNet::new(3, DeliveryPolicy::Synchronous);
    net.set_fault_plan(
        FaultPlan::new(72).with(FaultRule::corrupt(9).in_round("dgka-ake-r1").from(1).to(0)),
    );
    let opts = HandshakeOptions {
        partial_success: false,
        ..HandshakeOptions::with_dgka(DgkaChoice::AuthenticatedBd)
    };
    let result = run_handshake_with_net(&acts, &opts, &mut net, &mut r).expect("session runs");
    assert!(result.outcomes.iter().any(|o| o.abort.is_some()));
    assert!(result.outcomes.iter().all(|o| !o.accepted));
    assert!(
        result.stats.exchanges <= opts.budget.max_exchanges,
        "abort stays within the exchange budget"
    );
}

/// Per-round wire shape: for each round label, the set of
/// `(slot, payload_len)` pairs seen on the medium (as in tests/faults.rs).
fn per_round_shape(log: &TrafficLog) -> BTreeMap<String, BTreeSet<(usize, usize)>> {
    let mut by_round: BTreeMap<String, BTreeSet<(usize, usize)>> = BTreeMap::new();
    for rec in log.records() {
        by_round
            .entry(rec.round.clone())
            .or_default()
            .insert((rec.from_slot, rec.payload.len()));
    }
    by_round
}

/// Abort indistinguishability holds for the new DGKA too: an
/// authenticated-BD session aborted by persistent tampering emits, per
/// round, exactly the traffic shape of an ordinary failed handshake
/// between members of different groups.
#[test]
fn authenticated_bd_abort_is_shape_identical_to_ordinary_failure() {
    let opts = HandshakeOptions {
        partial_success: false,
        ..HandshakeOptions::with_dgka(DgkaChoice::AuthenticatedBd)
    };

    // Ordinary failure: a mixed session, no faults. Phase I completes
    // (the DGKA is group-independent); Phase II separates the groups.
    let mut r = rng("matrix-ake-shape-ordinary");
    let (_, ours) =
        group_with_config(GroupConfig::test(SchemeKind::Scheme1), 2, &mut r).expect("group");
    let (_, foreign) =
        group_with_config(GroupConfig::test(SchemeKind::Scheme1), 1, &mut r).expect("group");
    let mixed = [
        Actor::Member(&ours[0]),
        Actor::Member(&ours[1]),
        Actor::Member(&foreign[0]),
    ];
    let mut plain_net = BroadcastNet::new(3, DeliveryPolicy::Synchronous);
    let ordinary =
        run_handshake_with_net(&mixed, &opts, &mut plain_net, &mut r).expect("session runs");
    assert!(ordinary.outcomes.iter().all(|o| !o.accepted));

    // Aborted session: co-members, but slot 0 can never verify slot 1's
    // signed round-1 frame.
    let mut r = rng("matrix-ake-shape-aborted");
    let (_, members) =
        group_with_config(GroupConfig::test(SchemeKind::Scheme1), 3, &mut r).expect("group");
    let acts = actors(&members);
    let mut net = BroadcastNet::new(3, DeliveryPolicy::Synchronous);
    net.set_fault_plan(
        FaultPlan::new(73).with(FaultRule::corrupt(9).in_round("dgka-ake-r1").from(1).to(0)),
    );
    let aborted = run_handshake_with_net(&acts, &opts, &mut net, &mut r).expect("session runs");
    assert!(aborted.outcomes.iter().any(|o| o.abort.is_some()));
    assert!(aborted.outcomes.iter().all(|o| !o.accepted));

    // Same rounds, same per-round per-slot message sizes.
    assert_eq!(
        per_round_shape(&ordinary.traffic),
        per_round_shape(&aborted.traffic),
        "aborted AKE session is distinguishable on the wire"
    );
}
