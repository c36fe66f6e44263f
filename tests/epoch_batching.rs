//! Batched epoch windows are equivalent to sequential admit/remove: for
//! every CGKD backend, a `GroupAuthority::apply_epoch` churn window
//! leaves the group in the same observable state as the one-operation-
//! at-a-time `admit`/`remove` sequence — same roster size, every
//! surviving member in agreement with the authority, every evicted
//! member excluded by the very update that removes it. (Keys are not
//! literally equal across the two executions: they draw fresh
//! randomness in a different order. Equivalence is about member views.)
//!
//! Includes evict-then-rejoin inside a single window, which on LKH
//! reuses the freed leaf in the same rekey union.

mod common;

use common::rng;
use proptest::prelude::*;
use rand::RngCore;
use shs_cgkd::CgkdError;
use shs_core::config::CgkdChoice;
use shs_core::{fixtures, CoreError, GroupConfig, GroupUpdate, Member, SchemeKind};
use shs_gsig::ky::MemberId;

/// One group evolving under churn, tracking survivors and evictees.
struct World {
    ga: shs_core::GroupAuthority,
    live: Vec<Member>,
    gone: Vec<Member>,
}

impl World {
    fn new(cgkd: CgkdChoice, initial: usize, r: &mut impl RngCore) -> World {
        let config = GroupConfig::test_with_cgkd(SchemeKind::Scheme1, cgkd);
        let (ga, live) = fixtures::group_with_config(config, initial, r).expect("world fixture");
        World {
            ga,
            live,
            gone: Vec::new(),
        }
    }

    /// Picks distinct leaver ids from the live roster given raw index
    /// material (the proptest schedule), at most `live.len() - 1` so the
    /// group never empties.
    fn pick_leavers(&self, raw: &[u8]) -> Vec<MemberId> {
        let mut ids = Vec::new();
        for sel in raw {
            if self.live.is_empty() || ids.len() + 1 >= self.live.len() {
                break;
            }
            let id = self.live[*sel as usize % self.live.len()].id();
            if !ids.contains(&id) {
                ids.push(id);
            }
        }
        ids
    }

    /// Splits the live roster into (survivors-to-be, leavers).
    fn split_leavers(&mut self, ids: &[MemberId]) -> Vec<Member> {
        let mut leaving = Vec::new();
        let mut staying = Vec::new();
        for m in self.live.drain(..) {
            if ids.contains(&m.id()) {
                leaving.push(m);
            } else {
                staying.push(m);
            }
        }
        self.live = staying;
        leaving
    }

    /// One batched window: evict `ids` and admit `joins` in a single
    /// `apply_epoch`, then distribute the single update.
    fn batched_window(&mut self, joins: usize, ids: &[MemberId], r: &mut impl RngCore) {
        let mut leaving = self.split_leavers(ids);
        let (new_members, update) = self.ga.apply_epoch(joins, ids, r).expect("batched window");
        for m in self.live.iter_mut() {
            m.apply_update(&update)
                .expect("survivor applies the window");
        }
        if !update.rekey.is_empty() {
            for m in leaving.iter_mut() {
                assert!(
                    m.apply_update(&update).is_err(),
                    "a leaver applied the window that evicts it"
                );
            }
        }
        self.gone.append(&mut leaving);
        self.live.extend(new_members);
    }

    /// The same window as a sequence of single-operation updates.
    fn sequential_window(&mut self, joins: usize, ids: &[MemberId], r: &mut impl RngCore) {
        for id in ids {
            let mut leaving = self.split_leavers(&[*id]);
            let update = self.ga.remove(*id, r).expect("sequential remove");
            self.distribute(&update);
            for m in leaving.iter_mut() {
                assert!(
                    m.apply_update(&update).is_err(),
                    "a leaver applied the update that evicts it"
                );
            }
            self.gone.append(&mut leaving);
        }
        for _ in 0..joins {
            let (joiner, update) = self.ga.admit(r).expect("sequential admit");
            self.distribute(&update);
            self.live.push(joiner);
        }
    }

    fn distribute(&mut self, update: &GroupUpdate) {
        for m in self.live.iter_mut() {
            m.apply_update(update).expect("survivor applies an update");
        }
    }

    /// The observable state every execution of the same schedule must
    /// agree on: everyone live tracks the authority, everyone gone is
    /// locked out of the current key.
    fn check_views(&self) {
        assert_eq!(self.live.len(), self.ga.member_count(), "roster size");
        for m in &self.live {
            assert_eq!(m.group_key(), self.ga.group_key(), "survivor key view");
            assert_eq!(m.epoch(), self.ga.epoch(), "survivor epoch view");
            assert_eq!(m.crl_version(), self.ga.crl_version(), "survivor CRL view");
        }
        for m in &self.gone {
            assert_ne!(m.group_key(), self.ga.group_key(), "evictee sees the key");
        }
    }
}

proptest! {
    // Each case churns two full groups (one per execution strategy)
    // through the same schedule; keep the case count moderate.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// For every backend and any churn schedule, the batched execution
    /// and the sequential execution produce the same member views.
    #[test]
    fn batched_window_matches_sequential(
        schedule in prop::collection::vec(
            (0usize..=2, prop::collection::vec(any::<u8>(), 0..=2)),
            1..=3,
        ),
        seed in any::<u64>(),
    ) {
        for cgkd in CgkdChoice::ALL {
            let mut r = rng(&format!("epoch-batching-{cgkd:?}-{seed}"));
            let mut batched = World::new(cgkd, 3, &mut r);
            let mut sequential = World::new(cgkd, 3, &mut r);
            for (joins, raw) in &schedule {
                // Both worlds hold the same-size roster, so the same raw
                // schedule picks structurally identical leaver sets.
                let b_ids = batched.pick_leavers(raw);
                let s_ids = sequential.pick_leavers(raw);
                prop_assert_eq!(b_ids.len(), s_ids.len());
                batched.batched_window(*joins, &b_ids, &mut r);
                sequential.sequential_window(*joins, &s_ids, &mut r);
                batched.check_views();
                sequential.check_views();
                prop_assert_eq!(batched.live.len(), sequential.live.len());
                // Batching compresses the whole window into one epoch.
                prop_assert!(batched.ga.epoch() <= sequential.ga.epoch());
            }
        }
    }
}

/// Evict-then-rejoin in ONE window: the join lands in the epoch that
/// evicts, and (on LKH) may reuse the freed leaf. The joiner must be a
/// fully functional member and the evictee must stay excluded.
#[test]
fn evict_then_rejoin_in_one_window() {
    for cgkd in CgkdChoice::ALL {
        let mut r = rng(&format!("evict-rejoin-{cgkd:?}"));
        let mut w = World::new(cgkd, 4, &mut r);
        let victim_id = w.live[1].id();
        let epoch_before = w.ga.epoch();
        w.batched_window(1, &[victim_id], &mut r);
        // Every backend compresses the whole window into one epoch.
        assert_eq!(
            w.ga.epoch(),
            epoch_before + 1,
            "{cgkd:?}: window epoch count"
        );
        w.check_views();
        // The rejoiner participates in the next window like anyone else.
        w.batched_window(0, &[], &mut r);
        w.check_views();
    }
}

/// A window that does not fit is refused whole on every backend: the
/// epoch and roster stay put, the would-be leaver can still be removed
/// afterwards, and the survivors sync to the authority's key.
#[test]
fn over_capacity_window_is_refused_whole() {
    for cgkd in CgkdChoice::ALL {
        let mut r = rng(&format!("over-capacity-{cgkd:?}"));
        let config = GroupConfig {
            capacity: 4,
            ..GroupConfig::test_with_cgkd(SchemeKind::Scheme1, cgkd)
        };
        let (mut ga, mut live) =
            fixtures::group_with_config(config, 4, &mut r).expect("a full group");
        let leaver = live[1].id();
        let epoch = ga.epoch();
        assert!(
            ga.apply_epoch(2, &[leaver], &mut r).is_err(),
            "{cgkd:?}: accepted a window past capacity"
        );
        assert_eq!(
            ga.epoch(),
            epoch,
            "{cgkd:?}: refused window moved the epoch"
        );
        assert_eq!(
            ga.member_count(),
            4,
            "{cgkd:?}: refused window moved the roster"
        );
        let mut gone = live.remove(1);
        let update = ga
            .remove(leaver, &mut r)
            .unwrap_or_else(|e| panic!("{cgkd:?}: remove after a refused window: {e}"));
        for m in live.iter_mut() {
            m.apply_update(&update)
                .expect("survivor applies the removal");
            assert!(
                m.group_key() == ga.group_key(),
                "{cgkd:?}: survivor off the authority's key"
            );
        }
        assert!(
            gone.apply_update(&update).is_err(),
            "{cgkd:?}: the removed member applied its own removal"
        );
    }
}

/// A group of `capacity` members with every seat taken.
fn full_group(
    cgkd: CgkdChoice,
    capacity: u32,
    r: &mut impl RngCore,
) -> (shs_core::GroupAuthority, Vec<Member>) {
    let config = GroupConfig {
        capacity,
        ..GroupConfig::test_with_cgkd(SchemeKind::Scheme1, cgkd)
    };
    fixtures::group_with_config(config, capacity as usize, r).expect("a full group")
}

/// An admit into a full group is refused before `GSIG.Join` runs, so it
/// spends no member id: the next admit after a removal takes the id
/// the refused one would have had.
#[test]
fn refused_admit_spends_no_member_id() {
    let mut r = rng("refused-admit-id");
    let (mut ga, members) = full_group(CgkdChoice::Lkh, 2, &mut r);
    let ids: Vec<MemberId> = members.iter().map(Member::id).collect();
    assert_eq!(ids, vec![MemberId(0), MemberId(1)]);
    assert!(
        matches!(ga.admit(&mut r), Err(CoreError::Cgkd(CgkdError::Full))),
        "admitted past capacity"
    );
    ga.remove(ids[0], &mut r).expect("remove");
    let (joiner, _) = ga.admit(&mut r).expect("admit after a removal");
    assert_eq!(joiner.id(), MemberId(2), "the refused admit spent an id");
}

/// A refused admit draws nothing from the RNG, on every backend: two
/// DRBGs from one seed run the same script, one of them with a refused
/// admit into the full group, and their next outputs agree.
#[test]
fn refused_admit_draws_nothing() {
    for cgkd in CgkdChoice::ALL {
        let next_draw = |refuse: bool| {
            let mut r = rng(&format!("refused-admit-draws-{cgkd:?}"));
            let (mut ga, _) = full_group(cgkd, 2, &mut r);
            if refuse {
                assert!(
                    matches!(ga.admit(&mut r), Err(CoreError::Cgkd(CgkdError::Full))),
                    "{cgkd:?}: admitted past capacity"
                );
            }
            r.next_u64()
        };
        assert_eq!(
            next_draw(true),
            next_draw(false),
            "{cgkd:?}: the refused admit drew from the RNG"
        );
    }
}
