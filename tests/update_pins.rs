//! Byte-for-byte pins of the group authority's bulletin-board updates.
//!
//! Each script drives one `GroupAuthority` through a seeded sequence of
//! `admit`, `remove` and `apply_epoch` windows and folds every posted
//! `GroupUpdate` into a SHA-256 digest: the sealed payload bytes, the
//! epoch the rekey record establishes, and the record's item and byte
//! counts. The script closes with the RNG's next draw, so a change in
//! how many random bytes any step consumes moves the digest too. Every
//! live member applies every update, and the script ends with all of
//! them on the authority's key. A refactor of the rekey path must leave
//! every digest unchanged; the failure message prints the recomputed
//! table.
//!
//! The Star scripts use single admits and removes only: a Star window of
//! several changes is one broadcast, and that broadcast's shape is the
//! backend's own business.

mod common;

use common::rng;
use rand::RngCore;
use shs_core::config::{CgkdChoice, GroupConfig};
use shs_core::{fixtures, GroupAuthority, GroupUpdate, Member, SchemeKind};
use shs_crypto::sha256::Sha256;

/// One step of a script.
#[derive(Clone, Copy)]
enum Step {
    /// `GroupAuthority::admit`.
    Admit,
    /// `GroupAuthority::remove` of the live member at this index.
    Remove(usize),
    /// `GroupAuthority::apply_epoch` with this many joins, removing the
    /// live members at these indices.
    Window(usize, &'static [usize]),
}

/// Single admits and removes, the whole surface a Star script uses.
const SINGLES: &[Step] = &[
    Step::Admit,
    Step::Admit,
    Step::Admit,
    Step::Admit,
    Step::Remove(1),
    Step::Admit,
    Step::Remove(0),
    Step::Remove(2),
    Step::Admit,
];

/// Singles mixed with windows: a build window, an evict-and-join window,
/// an empty window, a two-leave window and a three-join-one-leave one.
const MIXED: &[Step] = &[
    Step::Window(3, &[]),
    Step::Admit,
    Step::Remove(1),
    Step::Window(2, &[0]),
    Step::Window(0, &[]),
    Step::Window(0, &[1, 3]),
    Step::Admit,
    Step::Window(3, &[2]),
    Step::Remove(0),
];

fn scripts() -> [(&'static str, SchemeKind, CgkdChoice, &'static [Step]); 5] {
    [
        ("lkh-scheme1", SchemeKind::Scheme1, CgkdChoice::Lkh, MIXED),
        (
            "sd-scheme1",
            SchemeKind::Scheme1,
            CgkdChoice::SubsetDifference,
            MIXED,
        ),
        (
            "star-scheme1",
            SchemeKind::Scheme1,
            CgkdChoice::Star,
            SINGLES,
        ),
        (
            "lkh-scheme2",
            SchemeKind::Scheme2SelfDistinct,
            CgkdChoice::Lkh,
            MIXED,
        ),
        (
            "sd-classic",
            SchemeKind::Scheme1Classic,
            CgkdChoice::SubsetDifference,
            MIXED,
        ),
    ]
}

fn fold(h: &mut Sha256, update: &GroupUpdate) {
    let stats = update.rekey.stats();
    h.update(&update.rekey.epoch().to_be_bytes());
    h.update(&(stats.items as u64).to_be_bytes());
    h.update(&(stats.bytes as u64).to_be_bytes());
    h.update(&(update.payload_ct.len() as u64).to_be_bytes());
    h.update(&update.payload_ct);
}

/// Every live member applies `update`; the leavers it removes cannot.
fn distribute(live: &mut [Member], leaving: &mut [Member], update: &GroupUpdate) {
    for m in live.iter_mut() {
        m.apply_update(update)
            .expect("a live member applies the update");
    }
    for m in leaving.iter_mut() {
        assert!(
            m.apply_update(update).is_err(),
            "a leaver applied the update that removes it"
        );
    }
}

/// Takes the live members at `picks` out of `live`.
fn take(live: &mut Vec<Member>, picks: &[usize]) -> Vec<Member> {
    let ids: Vec<_> = picks.iter().map(|&i| live[i].id()).collect();
    let (leaving, staying) = live.drain(..).partition(|m| ids.contains(&m.id()));
    *live = staying;
    leaving
}

fn script_digest(scheme: SchemeKind, cgkd: CgkdChoice, steps: &[Step], label: &str) -> String {
    let mut r = rng(&format!("update-pins-{label}"));
    let config = GroupConfig::test_with_cgkd(scheme, cgkd);
    let mut ga: GroupAuthority = fixtures::test_authority_with(config, &mut r);
    let mut live: Vec<Member> = Vec::new();
    let mut h = Sha256::new();
    for step in steps {
        match *step {
            Step::Admit => {
                let (joiner, update) = ga.admit(&mut r).expect("admit within capacity");
                distribute(&mut live, &mut [], &update);
                fold(&mut h, &update);
                live.push(joiner);
            }
            Step::Remove(i) => {
                let mut leaving = take(&mut live, &[i]);
                let update = ga.remove(leaving[0].id(), &mut r).expect("remove a member");
                distribute(&mut live, &mut leaving, &update);
                fold(&mut h, &update);
            }
            Step::Window(joins, picks) => {
                let mut leaving = take(&mut live, picks);
                let ids: Vec<_> = leaving.iter().map(Member::id).collect();
                let (joined, update) = ga.apply_epoch(joins, &ids, &mut r).expect("window");
                distribute(&mut live, &mut leaving, &update);
                fold(&mut h, &update);
                live.extend(joined);
            }
        }
    }
    assert_eq!(live.len(), ga.member_count(), "{label}: roster size");
    for m in &live {
        assert!(
            m.group_key() == ga.group_key(),
            "{label}: a live member disagrees with the authority"
        );
        assert_eq!(m.epoch(), ga.epoch(), "{label}: epoch agreement");
    }
    let mut next = [0u8; 32];
    r.fill_bytes(&mut next);
    h.update(&next);
    h.finalize()[..16]
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

const UPDATE_PINS: &[(&str, &str)] = &[
    ("lkh-scheme1", "d89c94e4ff2a9e3d5fff80128ef75a85"),
    ("sd-scheme1", "8b127409c1611c32501212a2633a1acb"),
    ("star-scheme1", "fbc72309c359e7f2d412bf37ee89c225"),
    ("lkh-scheme2", "e082f33a647e91688913e3d0e69bce72"),
    ("sd-classic", "0d52f320b7b18fb132e54bceccd4a65f"),
];

#[test]
fn posted_updates_match_their_pins() {
    let computed: Vec<(&str, String)> = scripts()
        .iter()
        .map(|(label, scheme, cgkd, steps)| (*label, script_digest(*scheme, *cgkd, steps, label)))
        .collect();
    let table: String = computed
        .iter()
        .map(|(name, digest)| format!("    (\"{name}\", \"{digest}\"),\n"))
        .collect();
    let names: Vec<&str> = computed.iter().map(|(name, _)| *name).collect();
    let pinned: Vec<&str> = UPDATE_PINS.iter().map(|(name, _)| *name).collect();
    assert_eq!(names, pinned, "pinned scripts\n{table}");
    let changed: Vec<&str> = computed
        .iter()
        .zip(UPDATE_PINS)
        .filter(|((_, digest), (_, pin))| digest != pin)
        .map(|((name, _), _)| *name)
        .collect();
    assert!(changed.is_empty(), "digests changed: {changed:?}\n{table}");
}
