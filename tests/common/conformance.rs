//! Substrate-conformance harness (DESIGN.md §10): behavioral checks
//! that every CGKD backend and every DGKA protocol constructed through
//! `shs_core::factory` satisfies the `shs_core::substrate` contracts.
//!
//! The checks are written once against the trait objects and driven
//! over the full registries (`CgkdChoice::ALL`, `DgkaChoice::ALL`) by
//! `tests/substrate_conformance.rs`, so a new backend is conformance-
//! tested the moment it is added to its `ALL` array and the factory.

use rand::RngCore;
use shs_cgkd::UserId;
use shs_core::config::{CgkdChoice, DgkaChoice};
use shs_core::factory;
use shs_core::handshake::AbortReason;
use shs_core::substrate::{Cgkd, CgkdSlot, EpochBroadcast, Phase1Slot};
use shs_crypto::Key;
use shs_groups::schnorr::{SchnorrGroup, SchnorrPreset};

fn test_group() -> &'static SchnorrGroup {
    SchnorrGroup::system_wide(SchnorrPreset::Test)
}

/// `CGKD.Join` as a one-join window: the joiner's uid and slot (already
/// synced past the window) and the broadcast everyone else processes.
fn join(ctrl: &mut dyn Cgkd, rng: &mut dyn RngCore) -> (UserId, Box<dyn CgkdSlot>, EpochBroadcast) {
    let mut outcome = ctrl
        .apply_epoch(1, &[], rng)
        .expect("admit within capacity");
    let (uid, slot) = outcome
        .joined
        .pop()
        .expect("a one-join window admits one member");
    (uid, slot, outcome.broadcast)
}

/// `CGKD.Leave` as a one-leave window.
fn leave(ctrl: &mut dyn Cgkd, uid: UserId, rng: &mut dyn RngCore) -> Option<EpochBroadcast> {
    ctrl.apply_epoch(0, &[uid], rng).ok().map(|o| o.broadcast)
}

/// Exercises one CGKD backend end to end through one-entry windows:
/// join/leave round-trips, key and epoch agreement between controller
/// and slots, eviction security, replay and foreign-envelope rejection,
/// cloning, and the E7b key-forcing hook.
pub fn check_cgkd(choice: CgkdChoice, rng: &mut dyn RngCore) {
    let mut ctrl = factory::cgkd_controller(choice, 8, rng);
    let mut slots: Vec<(UserId, Box<dyn CgkdSlot>)> = Vec::new();
    let mut uids = Vec::new();
    for _ in 0..3 {
        let (uid, mut slot, rekey) = join(ctrl.as_mut(), rng);
        for (_, s) in slots.iter_mut() {
            s.process(&rekey)
                .expect("existing member processes the join rekey");
        }
        assert!(
            slot.process(&rekey).is_err(),
            "{choice:?}: the joiner accepted a replay of the window it joined in"
        );
        assert_eq!(slot.id(), uid, "slot reports the uid it was admitted as");
        slots.push((uid, slot));
        uids.push(uid);
        let members = ctrl.members();
        for u in &uids {
            assert!(members.contains(u), "controller roster lists {u:?}");
        }
        for (u, s) in &slots {
            assert!(
                s.group_key() == ctrl.group_key(),
                "{choice:?}: member {u:?} disagrees with the controller key"
            );
            assert_eq!(s.epoch(), ctrl.epoch(), "epoch agreement for {u:?}");
        }
    }

    // Eviction: remaining members rekey, the evicted member cannot.
    let (evicted_uid, mut evicted) = slots.remove(1);
    let rekey = leave(ctrl.as_mut(), evicted_uid, rng).expect("evict a known member");
    for (u, s) in slots.iter_mut() {
        s.process(&rekey)
            .expect("remaining member processes the evict rekey");
        assert!(
            s.group_key() == ctrl.group_key(),
            "{choice:?}: member {u:?} disagrees after eviction"
        );
    }
    assert!(
        evicted.process(&rekey).is_err(),
        "{choice:?}: the evicted member decrypted the rekey that excludes it"
    );
    assert!(
        !ctrl.members().contains(&evicted_uid),
        "roster still lists the evicted member"
    );
    assert!(
        leave(ctrl.as_mut(), evicted_uid, rng).is_none(),
        "double-evict must fail structurally"
    );

    // Cloned slots stay in lockstep with the original.
    let mut cloned = slots[0].1.clone();
    let (_, _, rekey) = join(ctrl.as_mut(), rng);
    cloned.process(&rekey).expect("clone processes the rekey");
    slots[0]
        .1
        .process(&rekey)
        .expect("original processes the rekey");
    assert!(cloned.group_key() == slots[0].1.group_key());
    assert_eq!(cloned.epoch(), slots[0].1.epoch());

    // An envelope from a different backend is rejected, not misparsed.
    let other = CgkdChoice::ALL
        .into_iter()
        .find(|c| *c != choice)
        .expect("at least two backends registered");
    let mut foreign_ctrl = factory::cgkd_controller(other, 4, rng);
    let (_, _, foreign) = join(foreign_ctrl.as_mut(), rng);
    assert!(
        slots[0].1.process(&foreign).is_err(),
        "{choice:?}: accepted a {other:?} envelope"
    );

    // E7b hook: forcing a key bypasses rekey processing entirely.
    let leaked = Key::random(rng);
    slots[0].1.force_group_key(leaked.clone(), 99);
    assert!(slots[0].1.group_key() == &leaked);
    assert_eq!(slots[0].1.epoch(), 99);

    check_cgkd_epoch_windows(choice, rng);
}

/// Exercises the churn windows of one CGKD backend: a whole window is
/// one broadcast, mixed join+leave windows keep everyone in agreement,
/// the evicted member is excluded by the very window that removes it,
/// empty windows are no-ops, and a refused window — unknown or
/// duplicated leavers, or more joins than fit — changes nothing.
fn check_cgkd_epoch_windows(choice: CgkdChoice, rng: &mut dyn RngCore) {
    let mut ctrl = factory::cgkd_controller(choice, 8, rng);

    // An initial build window: three joins, one broadcast.
    let outcome = ctrl.apply_epoch(3, &[], rng).expect("build window");
    assert_eq!(outcome.joined.len(), 3, "{choice:?}: three joined slots");
    assert_eq!(
        outcome.broadcast.epoch(),
        ctrl.epoch(),
        "{choice:?}: broadcast carries the window's final epoch"
    );
    let mut slots = outcome.joined;
    for (u, s) in &slots {
        assert_eq!(s.id(), *u, "{choice:?}: joined slot reports its uid");
        assert!(
            s.group_key() == ctrl.group_key(),
            "{choice:?}: joined slot {u:?} disagrees with the controller"
        );
        assert_eq!(s.epoch(), ctrl.epoch(), "{choice:?}: epoch agreement");
    }

    // A mixed window: evict one member and admit two, as ONE broadcast
    // (evict-then-rejoin inside a single epoch: the join may reuse the
    // freed slot).
    let (evicted_uid, mut evicted) = slots.remove(1);
    let outcome = ctrl
        .apply_epoch(2, &[evicted_uid], rng)
        .expect("mixed window");
    for (u, s) in slots.iter_mut() {
        s.process(&outcome.broadcast)
            .expect("survivor processes the window");
        assert!(
            s.group_key() == ctrl.group_key(),
            "{choice:?}: survivor {u:?} disagrees after the mixed window"
        );
        assert_eq!(s.epoch(), ctrl.epoch());
    }
    assert!(
        evicted.process(&outcome.broadcast).is_err(),
        "{choice:?}: the evicted member processed the window that removes it"
    );
    for (u, s) in &outcome.joined {
        assert!(
            s.group_key() == ctrl.group_key(),
            "{choice:?}: window joiner {u:?} is not synced"
        );
        assert_eq!(s.epoch(), ctrl.epoch());
    }
    slots.extend(outcome.joined);

    // An empty window is a no-op broadcast nobody needs to process.
    let before = ctrl.epoch();
    let outcome = ctrl.apply_epoch(0, &[], rng).expect("empty window");
    assert!(outcome.broadcast.is_empty(), "{choice:?}: empty window");
    assert!(outcome.joined.is_empty());
    assert_eq!(
        ctrl.epoch(),
        before,
        "{choice:?}: empty window bumped epoch"
    );
    assert!(
        slots[0].1.process(&outcome.broadcast).is_err(),
        "{choice:?}: an empty window must not be processable"
    );

    // Leaver validation is atomic: unknown and duplicated leavers are
    // rejected before any state changes.
    let live_uid = slots[0].0;
    for bad in [vec![evicted_uid], vec![live_uid, live_uid]] {
        let epoch = ctrl.epoch();
        let key = ctrl.group_key().clone();
        assert!(
            ctrl.apply_epoch(0, &bad, rng).is_err(),
            "{choice:?}: accepted invalid leaver list {bad:?}"
        );
        assert_eq!(
            ctrl.epoch(),
            epoch,
            "{choice:?}: failed window bumped epoch"
        );
        assert!(
            ctrl.group_key() == &key,
            "{choice:?}: failed window changed the group key"
        );
    }

    // An over-capacity window is refused whole: in a full group of
    // capacity 4, one leave and two joins change nothing, and the
    // would-be leaver can still leave.
    let mut full = factory::cgkd_controller(choice, 4, rng);
    let outcome = full.apply_epoch(4, &[], rng).expect("fill to capacity");
    let leaver = outcome.joined[0].0;
    let (epoch, key, roster) = (full.epoch(), full.group_key().clone(), full.members());
    assert!(
        full.apply_epoch(2, &[leaver], rng).is_err(),
        "{choice:?}: accepted a window past capacity"
    );
    assert_eq!(
        full.epoch(),
        epoch,
        "{choice:?}: refused window bumped epoch"
    );
    assert!(
        full.group_key() == &key,
        "{choice:?}: refused window changed the group key"
    );
    assert_eq!(
        full.members(),
        roster,
        "{choice:?}: refused window changed the roster"
    );
    assert!(
        leave(full.as_mut(), leaver, rng).is_some(),
        "{choice:?}: the would-be leaver cannot leave after a refused window"
    );
}

/// Exercises one DGKA protocol through the slot state machine: an
/// honest lossless run must converge (same sid, same key, same recorded
/// contributions, no abort), and a lossy run must abort with chaff of
/// the honest wire shape (abort indistinguishability).
pub fn check_dgka(choice: DgkaChoice, m: usize, rng: &mut dyn RngCore) {
    let group = test_group();

    // --- Honest, lossless run ---------------------------------------
    let mut slots = factory::dgka_slots(choice, group, m, rng).expect("construct slots");
    assert_eq!(slots.len(), m);
    let rounds = slots[0].rounds();
    assert!(rounds >= 1, "{choice:?}: at least one round");
    assert!(
        slots.iter().all(|s| s.rounds() == rounds),
        "{choice:?}: slots disagree on the round count"
    );
    let labels: Vec<String> = (0..rounds).map(|t| slots[0].round_label(t)).collect();
    for (t, label) in labels.iter().enumerate() {
        assert!(
            labels[..t].iter().all(|l| l != label),
            "{choice:?}: duplicate round label `{label}`"
        );
        assert!(
            slots.iter().all(|s| &s.round_label(t) == label),
            "{choice:?}: slots disagree on the label of round {t}"
        );
    }
    let mut round_lens = Vec::with_capacity(rounds);
    for t in 0..rounds {
        let payloads: Vec<Vec<u8>> = slots.iter_mut().map(|s| s.emit(t, rng)).collect();
        let len = payloads[0].len();
        assert!(
            payloads.iter().all(|p| p.len() == len),
            "{choice:?}: round {t} payload lengths differ (wire shape leaks the sender)"
        );
        round_lens.push(len);
        for (to, s) in slots.iter().enumerate() {
            for (from, p) in payloads.iter().enumerate() {
                if from == to {
                    continue;
                }
                assert!(
                    s.validate(t, from, p),
                    "{choice:?}: round {t}: slot {to} rejects an honest payload from {from}"
                );
            }
        }
        let view: Vec<Option<Vec<u8>>> = payloads.into_iter().map(Some).collect();
        for s in slots.iter_mut() {
            s.absorb(t, &view, None, rng);
        }
    }
    let finished: Vec<(Phase1Slot, Option<AbortReason>)> =
        slots.iter_mut().map(|s| s.finish(rng)).collect();
    let first = &finished[0].0;
    for (i, (p1, abort)) in finished.iter().enumerate() {
        assert!(
            abort.is_none(),
            "{choice:?}: slot {i} aborted an honest run: {abort:?}"
        );
        assert!(
            !p1.sid.is_empty(),
            "{choice:?}: slot {i} derived an empty sid"
        );
        assert_eq!(
            p1.sid, first.sid,
            "{choice:?}: slot {i} derived a different sid"
        );
        assert!(
            p1.k_star == first.k_star,
            "{choice:?}: slot {i} derived a different key"
        );
        assert_eq!(
            p1.contributions.len(),
            m,
            "{choice:?}: slot {i} records {} contributions for {m} slots",
            p1.contributions.len()
        );
        assert_eq!(
            p1.contributions, first.contributions,
            "{choice:?}: slot {i} records different contributions"
        );
    }

    // --- Lossy run: slot 0's round-0 broadcast is lost for everyone --
    let mut slots = factory::dgka_slots(choice, group, m, rng).expect("construct slots");
    for (t, &honest_len) in round_lens.iter().enumerate() {
        let payloads: Vec<Vec<u8>> = slots.iter_mut().map(|s| s.emit(t, rng)).collect();
        assert!(
            payloads.iter().all(|p| p.len() == honest_len),
            "{choice:?}: aborted slots must emit chaff of the honest round-{t} length"
        );
        let mut view: Vec<Option<Vec<u8>>> = payloads.into_iter().map(Some).collect();
        let incomplete = (t == 0).then(|| {
            view[0] = None;
            AbortReason::KeyAgreement
        });
        for s in slots.iter_mut() {
            s.absorb(t, &view, incomplete, rng);
        }
    }
    for (i, s) in slots.iter_mut().enumerate() {
        let (p1, abort) = s.finish(rng);
        assert!(
            abort.is_some(),
            "{choice:?}: slot {i} completed although round 0 was incomplete"
        );
        assert_eq!(
            p1.sid.len(),
            first.sid.len(),
            "{choice:?}: slot {i}'s decoy sid has a distinguishable length"
        );
    }
}
