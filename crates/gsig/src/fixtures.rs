//! Deterministic fixtures shared by tests and benchmarks.
//!
//! Safe-prime generation and member joins are the expensive parts of every
//! group-signature test; these helpers generate them once per process from
//! fixed DRBG seeds and hand out cached or cheaply-derived copies.

use crate::ky::{self, GroupManager, MemberKey};
use crate::params::{GsigParams, GsigPreset};
use shs_crypto::drbg::HmacDrbg;
use shs_groups::rsa::{RsaGroup, RsaSecret};
use std::sync::LazyLock;

/// Number of members pre-admitted in the shared cached group.
pub const CACHED_MEMBERS: usize = 8;

/// The cached deterministic RSA setting for the `Test` preset.
pub fn test_rsa_setting() -> &'static (RsaGroup, RsaSecret) {
    static SETTING: LazyLock<(RsaGroup, RsaSecret)> = LazyLock::new(|| {
        let params = GsigParams::preset(GsigPreset::Test);
        RsaGroup::generate_deterministic(params.modulus_bits, b"gsig-fixture-rsa")
    });
    &SETTING
}

/// Builds a fresh group manager (using the cached RSA setting) with
/// `n_members` admitted members. Deterministic for a given `seed`.
pub fn fresh_group_seeded(n_members: usize, seed: &[u8]) -> (GroupManager, Vec<MemberKey>) {
    let (rsa, rsa_secret) = test_rsa_setting().clone();
    let params = GsigParams::preset(GsigPreset::Test);
    let mut rng = HmacDrbg::from_seed(seed);
    let mut gm = GroupManager::setup_with_rsa(params, rsa, rsa_secret, &mut rng);
    let mut keys = Vec::with_capacity(n_members);
    for _ in 0..n_members {
        let (secret, req) = ky::start_join(gm.public_key(), &mut rng);
        let resp = gm.admit(&req, &mut rng).expect("fixture join");
        let key = ky::finish_join(gm.public_key(), secret, &resp).expect("fixture finish");
        keys.push(key);
    }
    (gm, keys)
}

/// A fresh, mutable group with `n_members` members (for tests that revoke
/// or admit).
pub fn group_with_members_mut(n_members: usize) -> (GroupManager, Vec<MemberKey>) {
    fresh_group_seeded(n_members, b"gsig-fixture-mut")
}

fn cached_group() -> &'static (GroupManager, Vec<MemberKey>) {
    static GROUP: LazyLock<(GroupManager, Vec<MemberKey>)> =
        LazyLock::new(|| fresh_group_seeded(CACHED_MEMBERS, b"gsig-fixture-shared"));
    &GROUP
}

/// A shared immutable group with up to [`CACHED_MEMBERS`] members; the
/// returned keys are clones of the first `n_members`.
///
/// # Panics
///
/// Panics if `n_members > CACHED_MEMBERS`.
pub fn group_with_members(n_members: usize) -> (&'static GroupManager, Vec<MemberKey>) {
    assert!(n_members <= CACHED_MEMBERS, "raise CACHED_MEMBERS");
    let (gm, keys) = cached_group();
    (gm, keys[..n_members].to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cached_group_is_consistent() {
        let (gm, keys) = group_with_members(2);
        assert_eq!(gm.members().len(), CACHED_MEMBERS);
        assert_eq!(keys.len(), 2);
        assert_ne!(keys[0].id, keys[1].id);
    }

    #[test]
    fn seeded_groups_are_deterministic() {
        let (gm1, k1) = fresh_group_seeded(1, b"same-seed");
        let (gm2, k2) = fresh_group_seeded(1, b"same-seed");
        let (pk1, pk2) = (gm1.public_key(), gm2.public_key());
        assert_eq!(pk1.params, pk2.params);
        assert_eq!(pk1.rsa().n(), pk2.rsa().n());
        assert_eq!(
            [&pk1.a, &pk1.a0, &pk1.b, &pk1.g, &pk1.h, &pk1.y],
            [&pk2.a, &pk2.a0, &pk2.b, &pk2.g, &pk2.h, &pk2.y]
        );
        assert_eq!(k1[0].certificate(), k2[0].certificate());
    }
}
