//! Deterministic fixtures: test-sized group authorities built on the
//! cached RSA setting, so tests and benchmarks skip safe-prime search.

use crate::authority::GroupAuthority;
use crate::config::{GroupConfig, SchemeKind};
use crate::member::Member;
use crate::CoreError;
use rand::RngCore;

/// Builds a test-sized [`GroupAuthority`] for `scheme`, reusing the
/// workspace-wide cached RSA setting.
pub fn test_authority(scheme: SchemeKind, rng: &mut impl RngCore) -> GroupAuthority {
    test_authority_with(GroupConfig::test(scheme), rng)
}

/// Builds a [`GroupAuthority`] for an arbitrary configuration (any cell
/// of the instantiation matrix), reusing the cached RSA setting.
pub fn test_authority_with(config: GroupConfig, rng: &mut impl RngCore) -> GroupAuthority {
    let (rsa, secret) = shs_gsig::fixtures::test_rsa_setting().clone();
    GroupAuthority::create_with_rsa(config, rsa, secret, rng)
}

/// Builds a test authority plus `n` members, every member fully updated.
///
/// # Errors
///
/// Propagates admission errors (none occur for valid `n` within
/// capacity).
pub fn group_with_members(
    scheme: SchemeKind,
    n: usize,
    rng: &mut impl RngCore,
) -> Result<(GroupAuthority, Vec<Member>), CoreError> {
    group_with_config(GroupConfig::test(scheme), n, rng)
}

/// Builds a test authority plus `n` fully-updated members, after
/// `revoked` more members have joined and been removed, so under a VLR
/// scheme every member's CRL holds `revoked` tokens. With `revoked = 0`
/// this is [`group_with_members`], draw for draw.
///
/// # Errors
///
/// Propagates admission, removal and update errors (none occur for
/// valid sizes within capacity).
pub fn group_with_revoked(
    scheme: SchemeKind,
    n: usize,
    revoked: usize,
    rng: &mut impl RngCore,
) -> Result<(GroupAuthority, Vec<Member>), CoreError> {
    let (mut ga, mut members) = group_with_members(scheme, n + revoked, rng)?;
    for leaver in members.split_off(n) {
        let update = ga.remove(leaver.id(), rng)?;
        for m in members.iter_mut() {
            m.apply_update(&update)?;
        }
    }
    Ok((ga, members))
}

/// Builds an authority for `config` plus `n` fully-updated members.
///
/// # Errors
///
/// Propagates admission errors (none occur for valid `n` within
/// capacity).
pub fn group_with_config(
    config: GroupConfig,
    n: usize,
    rng: &mut impl RngCore,
) -> Result<(GroupAuthority, Vec<Member>), CoreError> {
    let mut ga = test_authority_with(config, rng);
    let mut members: Vec<Member> = Vec::with_capacity(n);
    for _ in 0..n {
        let (joiner, update) = ga.admit(rng)?;
        for m in members.iter_mut() {
            m.apply_update(&update)?;
        }
        members.push(joiner);
    }
    Ok((ga, members))
}

#[cfg(test)]
mod tests {
    use super::*;
    use shs_crypto::drbg::HmacDrbg;

    #[test]
    fn members_share_group_key() {
        let mut rng = HmacDrbg::from_seed(b"fixture-core");
        let (ga, members) = group_with_members(SchemeKind::Scheme1, 3, &mut rng).unwrap();
        for m in &members {
            assert_eq!(m.group_key(), ga.group_key());
        }
        assert_eq!(ga.member_count(), 3);
    }
}
