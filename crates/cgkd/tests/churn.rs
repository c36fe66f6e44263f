//! Property-based churn tests: arbitrary scripts of churn windows keep
//! every live member's view of the group key consistent with the
//! controller's, lock evicted members out, and leave a refused window
//! without effect — for all three CGKD schemes.

use proptest::prelude::*;
use rand::SeedableRng;
use shs_cgkd::lkh::LkhController;
use shs_cgkd::sd::{SdController, SdMember};
use shs_cgkd::star::StarController;
use shs_cgkd::{CgkdError, Controller, MemberState, UserId};
use std::collections::HashSet;

/// One churn window: this many joins, and leavers picked from the live
/// roster by these raw indices (a pick may repeat, which the window must
/// refuse).
type Window = (usize, Vec<usize>);

fn window_strategy() -> impl Strategy<Value = Window> {
    (0usize..=3, prop::collection::vec(any::<usize>(), 0..=2))
}

/// Runs a script of windows against a controller, tracking all live
/// member states and checking the consistency invariant after every
/// window.
fn run_script<C: Controller>(
    mut gc: C,
    windows: &[Window],
    seed: u64,
) -> Result<(), TestCaseError> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut live: Vec<(UserId, C::Member)> = Vec::new();
    for (joins, picks) in windows {
        let leaves: Vec<UserId> = if live.is_empty() {
            Vec::new()
        } else {
            picks.iter().map(|p| live[p % live.len()].0).collect()
        };
        let (epoch, key, roster) = (gc.epoch(), gc.group_key().clone(), gc.members());
        let (joined, broadcast) = match gc.apply_epoch(*joins, &leaves, &mut rng) {
            Ok(out) => out,
            Err(e) => {
                let duplicated = leaves.iter().collect::<HashSet<_>>().len() < leaves.len();
                prop_assert!(
                    e == CgkdError::Full || (e == CgkdError::UnknownMember && duplicated),
                    "window refused: {e}"
                );
                prop_assert_eq!(gc.epoch(), epoch, "a refused window moved the epoch");
                prop_assert_eq!(gc.group_key(), &key, "a refused window rekeyed");
                prop_assert_eq!(gc.members(), roster, "a refused window moved the roster");
                continue;
            }
        };
        if *joins == 0 && leaves.is_empty() {
            prop_assert_eq!(gc.epoch(), epoch, "an empty window moved the epoch");
            continue;
        }
        prop_assert_eq!(gc.epoch(), epoch + 1, "one window, one epoch");
        let (leaving, staying): (Vec<_>, Vec<_>) =
            live.into_iter().partition(|(id, _)| leaves.contains(id));
        live = staying;
        for (_, m) in live.iter_mut() {
            m.process(&broadcast).unwrap();
        }
        for (id, welcome) in joined {
            let mut joiner = gc.member_from_welcome(welcome);
            joiner.process(&broadcast).unwrap();
            live.push((id, joiner));
        }
        // An evicted member must NOT recover the new key.
        for (_, mut evicted) in leaving {
            let _ = evicted.process(&broadcast);
            prop_assert_ne!(
                evicted.group_key(),
                gc.group_key(),
                "evicted member must not learn the new key"
            );
        }
        // Invariant: every live member agrees with the controller.
        for (id, m) in &live {
            prop_assert_eq!(
                m.group_key(),
                gc.group_key(),
                "member {} diverged after {:?}",
                id,
                (joins, &leaves)
            );
            prop_assert_eq!(m.epoch(), gc.epoch());
        }
        prop_assert_eq!(live.len(), gc.members().len());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn lkh_survives_arbitrary_churn(
        windows in prop::collection::vec(window_strategy(), 1..30),
        seed in any::<u64>(),
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let gc = LkhController::new(16, &mut rng);
        run_script(gc, &windows, seed.wrapping_add(1))?;
    }

    #[test]
    fn sd_survives_arbitrary_churn(
        windows in prop::collection::vec(window_strategy(), 1..30),
        seed in any::<u64>(),
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let gc = SdController::new(32, &mut rng);
        run_script(gc, &windows, seed.wrapping_add(1))?;
    }

    #[test]
    fn star_survives_arbitrary_churn(
        windows in prop::collection::vec(window_strategy(), 1..30),
        seed in any::<u64>(),
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let gc = StarController::new(16, &mut rng);
        run_script(gc, &windows, seed.wrapping_add(1))?;
    }

    #[test]
    fn sd_covers_exactly_the_live_set(
        joins in 2usize..32,
        leave_picks in prop::collection::vec(any::<usize>(), 0..12),
        seed in any::<u64>(),
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut gc = SdController::new(64, &mut rng);
        let (joined, _) = gc.apply_epoch(joins, &[], &mut rng).unwrap();
        let mut live: Vec<(UserId, SdMember)> = joined
            .into_iter()
            .map(|(id, w)| (id, gc.member_from_welcome(w)))
            .collect();
        let mut excluded: Vec<SdMember> = Vec::new();
        for pick in &leave_picks {
            if live.len() <= 1 {
                break;
            }
            let idx = pick % live.len();
            let (id, m) = live.swap_remove(idx);
            gc.apply_epoch(0, &[id], &mut rng).unwrap();
            excluded.push(m);
        }
        // One fresh broadcast: every live member decrypts, every revoked
        // member fails. (Stateless receivers need only the latest.)
        let (mut joined, broadcast) = gc.apply_epoch(1, &[], &mut rng).unwrap();
        for (_, m) in live.iter_mut() {
            m.process(&broadcast).unwrap();
        }
        let (id, w) = joined.pop().unwrap();
        let mut joiner = gc.member_from_welcome(w);
        joiner.process(&broadcast).unwrap();
        live.push((id, joiner));
        for (_, m) in &live {
            prop_assert_eq!(m.group_key(), gc.group_key());
        }
        for m in excluded.iter_mut() {
            prop_assert_eq!(m.process(&broadcast), Err(CgkdError::CannotDecrypt));
        }
    }
}
