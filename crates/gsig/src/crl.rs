//! The certificate revocation list (CRL).
//!
//! `SHS.CreateGroup` (Fig. 1 of the paper) creates an initially-empty CRL
//! that is "made known only to current group members"; `SHS.RemoveUser`
//! appends to it and ships the update over the authenticated anonymous
//! channel (in the framework: AEAD-encrypted under the *new* CGKD group
//! key, so revoked members cannot read it). Entries are the verifier-local
//! revocation tokens of [`crate::ky`].

use crate::ky::{GroupPublicKey, RevocationToken, Signature};
use crate::params::{pow2, GsigParams};
use shs_bigint::{counters, FixedBase};
use std::sync::Arc;

/// A versioned list of revocation tokens.
///
/// The version counts the tokens: [`Crl::push`] adds one token per
/// version and [`Crl::apply`] accepts only a delta whose version span
/// equals its token count, so a member's list can neither skip, repeat
/// nor rewind an update.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Crl {
    /// Monotone version; bumped on every revocation.
    pub version: u64,
    /// Tokens of all revoked members.
    pub tokens: Vec<RevocationToken>,
}

/// An incremental CRL update (what actually travels in rekey messages).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrlDelta {
    /// Version the delta applies on top of.
    pub from_version: u64,
    /// Version after applying.
    pub to_version: u64,
    /// Newly revoked tokens.
    pub new_tokens: Vec<RevocationToken>,
}

/// Error applying a CRL delta that does not continue the member's list:
/// it starts at another version than the list holds, or its version span
/// is not its token count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VersionMismatch {
    /// The version the member's list holds, or reaches with the delta's
    /// tokens.
    pub have: u64,
    /// The version the delta names for it.
    pub expected: u64,
}

impl std::fmt::Display for VersionMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "CRL delta names version {} where the member's list is at {}",
            self.expected, self.have
        )
    }
}

impl std::error::Error for VersionMismatch {}

impl CrlDelta {
    /// Merges a consecutive later delta into this one, producing the
    /// single delta covering both windows — what a batched epoch ships
    /// when it revokes several members at once.
    ///
    /// # Errors
    ///
    /// [`VersionMismatch`] unless `later` starts exactly where `self`
    /// ends.
    pub fn merge(self, later: CrlDelta) -> Result<CrlDelta, VersionMismatch> {
        if later.from_version != self.to_version {
            return Err(VersionMismatch {
                have: self.to_version,
                expected: later.from_version,
            });
        }
        let mut new_tokens = self.new_tokens;
        new_tokens.extend(later.new_tokens);
        Ok(CrlDelta {
            from_version: self.from_version,
            to_version: later.to_version,
            new_tokens,
        })
    }
}

/// The width `t = λ2 + 3` of an offset token. A token `x ∈ Λ` is
/// `o + x̂` with the public offset `o = 2^{λ1} − 2^t`, so that
/// `x̂ ∈ (2^t − 2^{λ2}, 2^t + 2^{λ2})` is `t` or `t + 1` bits wide. `λ2` is
/// even for every derived parameter set (`2ℓp + 16` or `4ℓp + 4`), so `t`
/// is odd and both widths take the same number of 4-bit windows: which
/// width a token has stays out of its check's trace.
fn offset_bits(p: &GsigParams) -> u32 {
    p.lambda2 + 3
}

impl Crl {
    /// An empty CRL at version 0.
    pub fn new() -> Crl {
        Crl::default()
    }

    /// Appends a token, bumping the version, and returns the delta to
    /// distribute.
    pub fn push(&mut self, token: RevocationToken) -> CrlDelta {
        let from_version = self.version;
        self.tokens.push(token.clone());
        self.version += 1;
        CrlDelta {
            from_version,
            to_version: self.version,
            new_tokens: vec![token],
        }
    }

    /// Applies a delta received from the group authority. Deltas stream:
    /// a batched epoch's merged delta applies in one call.
    ///
    /// # Errors
    ///
    /// [`VersionMismatch`] when the delta does not start at this list's
    /// version (out of order or replayed), or when its version span is
    /// not its token count: every genuine delta spans exactly that,
    /// since [`Crl::push`] adds one token per version and
    /// [`CrlDelta::merge`] concatenates.
    pub fn apply(&mut self, delta: &CrlDelta) -> Result<(), VersionMismatch> {
        if delta.from_version != self.version {
            return Err(VersionMismatch {
                have: self.version,
                expected: delta.from_version,
            });
        }
        let reached = self.version.checked_add(delta.new_tokens.len() as u64);
        if reached != Some(delta.to_version) {
            return Err(VersionMismatch {
                have: reached.unwrap_or(u64::MAX),
                expected: delta.to_version,
            });
        }
        self.tokens.extend_from_slice(&delta.new_tokens);
        self.version = delta.to_version;
        Ok(())
    }

    /// Does this signature match any revoked member, that is,
    /// `T5^x = T4` for some token `x`?
    ///
    /// Costs one exponentiation per token, inherent to verifier-local
    /// revocation: `T5` is fresh randomness per signature, so no check
    /// carries over to another signature. Tokens are member-only
    /// secrets, so every token goes through the masked constant-trace
    /// [`FixedBase::pow_times`] of one table on `T5`, and the scan does
    /// not stop at a match. Each token counts one modular exponentiation,
    /// as [`shs_groups::rsa::RsaGroup::exp`] does.
    ///
    /// A token `x ∈ Λ` is checked as the offset token `x̂ = x − o`, with
    /// the public offset `o = 2^{λ1} − 2^t`, where `t = λ2 + 3`:
    /// `T5^x = T4` exactly when `T5^{x̂} · T5^{2^{λ1}} = T4 · T5^{2^t}`,
    /// as long as `T5` is a unit mod `n` (a `T5` that shares a factor
    /// with `n` would factor it). The table is built per call at the
    /// width `t + 1` of `x̂`, far narrower than `x`'s `λ1 + 1`, and every
    /// token of `Λ` runs the windows of that public width from the one
    /// Montgomery-form start `T5^{2^{λ1}}`. Both powers of two come from
    /// the table's squaring chain. A token below `o` or at
    /// `2^{λ1} + 2^t` and above, outside `Λ` and so only in a malformed
    /// list, is checked at its full width.
    pub fn is_revoked(&self, pk: &GroupPublicKey, sig: &Signature) -> bool {
        if self.tokens.is_empty() {
            return false;
        }
        let p = &pk.params;
        let t = offset_bits(p);
        let (low, high) = (pow2(t), pow2(p.lambda1));
        let (t4, t5) = (&sig.tags.t4, &sig.tags.t5);
        let table = FixedBase::new(Arc::clone(pk.rsa().ctx()), t5, t + 1);
        let lift = table.factor(&table.squared(p.lambda1));
        let target = pk.rsa().mul(t4, &table.squared(t));
        self.tokens.iter().fold(false, |revoked, token| {
            counters::record_modexp();
            // No comparison with the token: for x ∈ Λ, x + 2^t lies in
            // [2^λ1, 2^{λ1+1}), so its width is public, and x̂ is that sum
            // less 2^λ1, of public width at most t + 1.
            let shifted = token.x.add(&low);
            let offset = (shifted.bits() == p.lambda1 + 1)
                .then(|| shifted.sub(&high))
                .filter(|x_hat| x_hat.bits() <= t + 1);
            let hit = match offset {
                Some(x_hat) => table.pow_times(&x_hat, t + 1, &lift) == target,
                None => pk.rsa().ctx().modpow(t5, &token.x) == *t4,
            };
            revoked | hit
        })
    }

    /// Number of revoked members.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Is the CRL empty?
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use crate::ky::{self, MemberId, SignBasis};
    use crate::params::GsigPreset;
    use shs_bigint::Ubig;
    use shs_crypto::drbg::HmacDrbg;

    #[test]
    fn push_apply_roundtrip() {
        let (mut gm, keys) = fixtures::group_with_members_mut(2);
        let mut authority_crl = Crl::new();
        let mut member_crl = Crl::new();

        let token = gm.revoke(keys[0].id).unwrap();
        let delta = authority_crl.push(token);
        member_crl.apply(&delta).unwrap();
        assert_eq!(authority_crl, member_crl);
        assert_eq!(member_crl.version, 1);
        assert_eq!(member_crl.len(), 1);
    }

    #[test]
    fn out_of_order_delta_rejected() {
        let (mut gm, keys) = fixtures::group_with_members_mut(2);
        let mut authority_crl = Crl::new();
        let mut member_crl = Crl::new();
        let d1 = authority_crl.push(gm.revoke(keys[0].id).unwrap());
        let d2 = authority_crl.push(gm.revoke(keys[1].id).unwrap());
        // Applying d2 before d1 fails.
        assert!(member_crl.apply(&d2).is_err());
        member_crl.apply(&d1).unwrap();
        member_crl.apply(&d2).unwrap();
        assert_eq!(member_crl.version, 2);
    }

    #[test]
    fn is_revoked_detects_signatures() {
        let (mut gm, keys) = fixtures::group_with_members_mut(3);
        let pk = gm.public_key().clone();
        let mut rng = HmacDrbg::from_seed(b"crl-test");
        let sig_revoked = ky::sign(&pk, &keys[0], b"m", SignBasis::Random, &mut rng);
        let sig_ok = ky::sign(&pk, &keys[1], b"m", SignBasis::Random, &mut rng);
        let mut crl = Crl::new();
        crl.push(gm.revoke(keys[0].id).unwrap());
        crl.push(gm.revoke(keys[2].id).unwrap());
        // The first token matches, and the scan still runs both: a check
        // costs the same whether and where a token matches.
        for (sig, revoked) in [(&sig_revoked, true), (&sig_ok, false)] {
            let (ops, verdict) = counters::measure(|| crl.is_revoked(&pk, sig));
            assert_eq!(verdict, revoked);
            assert_eq!(ops.modexp, 2);
        }
    }

    #[test]
    fn offset_tokens_fit_the_scan_width_at_every_preset() {
        // The narrowest and widest offset tokens of Λ, x̂ = x − o for
        // x = lambda_lo() + 1 and lambda_hi() − 1: every token of Λ fits
        // the t + 1 bits the scan runs (and its table covers), and the
        // widths span both t and t + 1, so only that public width may set
        // the window count.
        for preset in [GsigPreset::Test, GsigPreset::Small, GsigPreset::Paper] {
            let p = GsigParams::preset(preset);
            let t = offset_bits(&p);
            let offset = pow2(p.lambda1).sub(&pow2(t));
            let narrow = p.lambda_lo().add_u64(1).sub(&offset);
            let wide = p.lambda_hi().sub_u64(1).sub(&offset);
            assert_eq!((narrow.bits(), wide.bits()), (t, t + 1), "{preset:?}");
        }
    }

    #[test]
    fn empty_crl() {
        let crl = Crl::new();
        assert!(crl.is_empty());
        assert_eq!(crl.len(), 0);
        assert_eq!(crl.version, 0);
    }

    #[test]
    fn merged_delta_applies_as_one_stream() {
        let (mut gm, keys) = fixtures::group_with_members_mut(3);
        let mut authority_crl = Crl::new();
        let mut member_crl = Crl::new();
        let d1 = authority_crl.push(gm.revoke(keys[0].id).unwrap());
        let d2 = authority_crl.push(gm.revoke(keys[1].id).unwrap());
        let d3 = authority_crl.push(gm.revoke(keys[2].id).unwrap());
        // One batched window ships one merged delta.
        let merged = d1.merge(d2).unwrap().merge(d3).unwrap();
        assert_eq!(merged.from_version, 0);
        assert_eq!(merged.to_version, 3);
        member_crl.apply(&merged).unwrap();
        // Token-by-token and batched application land on the identical
        // state.
        assert_eq!(authority_crl, member_crl);
    }

    #[test]
    fn non_consecutive_merge_rejected() {
        let (mut gm, keys) = fixtures::group_with_members_mut(2);
        let mut crl = Crl::new();
        let d1 = crl.push(gm.revoke(keys[0].id).unwrap());
        let _skip = crl.push(gm.revoke(keys[1].id).unwrap());
        let d3 = CrlDelta {
            from_version: 5,
            to_version: 6,
            new_tokens: Vec::new(),
        };
        assert!(d1.merge(d3).is_err());
    }

    #[test]
    fn delta_whose_span_is_not_its_token_count_rejected() {
        let token = |id| RevocationToken {
            id: MemberId(id),
            x: Ubig::from_u64(3),
        };
        let mut crl = Crl::new();
        // A delta that claims no version step for its one token would
        // apply again and again at version 0.
        let stuck = CrlDelta {
            from_version: 0,
            to_version: 0,
            new_tokens: vec![token(1)],
        };
        assert_eq!(
            crl.apply(&stuck),
            Err(VersionMismatch {
                have: 1,
                expected: 0
            })
        );
        // One that claims more steps than tokens would skip versions.
        let skipping = CrlDelta {
            to_version: 5,
            ..stuck.clone()
        };
        assert!(crl.apply(&skipping).is_err());
        assert_eq!(
            crl,
            Crl::new(),
            "a rejected delta leaves the list as it was"
        );
        crl.push(token(1));
        crl.push(token(2));
        // One that steps back would rewind the version.
        let rewind = CrlDelta {
            from_version: 2,
            to_version: 1,
            new_tokens: Vec::new(),
        };
        assert!(crl.apply(&rewind).is_err());
        assert_eq!((crl.version, crl.len()), (2, 2));
    }
}
