//! The C of GCD is pluggable (§5): the framework runs unchanged on the
//! stateless Subset-Difference backend instead of LKH.

mod common;

use common::rng;
use shs_core::config::CgkdChoice;
use shs_core::handshake::{run_handshake, Actor};
use shs_core::{GroupAuthority, GroupConfig, HandshakeOptions, Member, SchemeKind};

fn sd_group(n: usize, r: &mut impl rand::RngCore) -> (GroupAuthority, Vec<Member>) {
    let (rsa, secret) = shs_gsig::fixtures::test_rsa_setting().clone();
    let config = GroupConfig::test_with_cgkd(SchemeKind::Scheme1, CgkdChoice::SubsetDifference);
    let mut ga = GroupAuthority::create_with_rsa(config, rsa, secret, r);
    let mut members: Vec<Member> = Vec::new();
    for _ in 0..n {
        let (joiner, update) = ga.admit(r).unwrap();
        for m in members.iter_mut() {
            m.apply_update(&update).unwrap();
        }
        members.push(joiner);
    }
    (ga, members)
}

#[test]
fn sd_backed_handshake_accepts() {
    let mut r = rng("sd-accept");
    let (ga, members) = sd_group(3, &mut r);
    for m in &members {
        assert_eq!(m.group_key(), ga.group_key());
    }
    let actors: Vec<Actor<'_>> = members.iter().map(Actor::Member).collect();
    let result = run_handshake(&actors, &HandshakeOptions::default(), &mut r).unwrap();
    assert!(result.outcomes.iter().all(|o| o.accepted));
    // Tracing works identically.
    let traced = ga.trace(&result.transcript);
    assert!(traced.iter().all(|t| t.result.is_ok()));
}

#[test]
fn sd_backed_revocation_excludes_member() {
    let mut r = rng("sd-revoke");
    let (mut ga, mut members) = sd_group(3, &mut r);
    let mut victim = members.pop().unwrap();
    let update = ga.remove(victim.id(), &mut r).unwrap();
    for m in members.iter_mut() {
        m.apply_update(&update).unwrap();
    }
    assert!(victim.apply_update(&update).is_err());
    // Revoked member with its stale key fails the MAC phase.
    let session = [
        Actor::Member(&members[0]),
        Actor::Member(&members[1]),
        Actor::Member(&victim),
    ];
    let result = run_handshake(&session, &HandshakeOptions::default(), &mut r).unwrap();
    assert_eq!(result.outcomes[0].same_group_slots, vec![0, 1]);
    assert!(!result.outcomes[0].accepted);
}

#[test]
fn sd_members_are_stateless_receivers() {
    // A member that slept through several membership changes needs only
    // the LATEST update — the property SD buys (LKH members must process
    // every epoch in order; see lifecycle::updates_cannot_be_replayed_or_skipped).
    let mut r = rng("sd-stateless");
    let (mut ga, mut members) = sd_group(2, &mut r);
    let sleeper = &mut members[1];
    let (_m3, _u1) = ga.admit(&mut r).unwrap();
    let (_m4, _u2) = ga.admit(&mut r).unwrap();
    let (_m5, u3) = ga.admit(&mut r).unwrap();
    // The sleeper skips u1 and u2 entirely and applies only u3.
    sleeper.apply_update(&u3).unwrap();
    assert_eq!(sleeper.group_key(), ga.group_key());
}

#[test]
fn mixed_backends_interoperate_in_one_session() {
    // Groups with different CGKD backends can still meet in one handshake
    // session — the backend never shows on the wire.
    let mut r = rng("sd-mixed");
    let (_, lkh_members) =
        shs_core::fixtures::group_with_members(SchemeKind::Scheme1, 2, &mut r).unwrap();
    let (_, sd_members) = sd_group(2, &mut r);
    let session = [
        Actor::Member(&lkh_members[0]),
        Actor::Member(&sd_members[0]),
        Actor::Member(&lkh_members[1]),
        Actor::Member(&sd_members[1]),
    ];
    let result = run_handshake(&session, &HandshakeOptions::default(), &mut r).unwrap();
    assert_eq!(result.outcomes[0].same_group_slots, vec![0, 2]);
    assert_eq!(result.outcomes[1].same_group_slots, vec![1, 3]);
    assert!(result.outcomes.iter().all(|o| o.partial_accepted()));
}
