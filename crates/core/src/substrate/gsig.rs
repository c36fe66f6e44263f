//! GSIG substrate: the group-signature contract the compiler consumes.
//!
//! Two traits split the primitive along the trust boundary of the
//! paper's §4 interface: [`Gsig`] is the group manager's end
//! (`Setup`/`Join`/`Open`/`Revoke`, held by the [`crate::GroupAuthority`])
//! and [`GsigCredential`] is the member's end (`Sign`/`Verify`, carried
//! inside [`crate::Member`] and exercised during Phase III).
//!
//! The serialized-signature byte format is part of the contract: `sign`
//! produces and `verify`/`open` consume the fixed-width encodings of
//! [`crate::codec`], so a credential's [`GsigCredential::sig_len`] is a
//! public constant of the group — decoy traffic depends on it.

use crate::codec;
use crate::transcript::TraceError;
use rand::RngCore;
use shs_bigint::Ubig;
use shs_groups::rsa::{RsaGroup, RsaSecret};
use shs_gsig::crl::Crl;
use shs_gsig::ky::{MemberId, RevocationToken};
use shs_gsig::params::GsigParams;
use shs_gsig::{acjt, ky, GsigError};
use std::sync::Arc;

/// The authority end of a group-signature scheme
/// (`GSIG.{Setup, Join, Open, Revoke}`).
///
/// Implementations are constructed exclusively by
/// [`crate::factory::gsig_authority`].
pub trait Gsig: Send + Sync {
    /// The interval parameters of the group.
    fn params(&self) -> GsigParams;

    /// `GSIG.Join`: runs both ends of the interactive join over the
    /// (simulated) private authenticated channel and returns the new
    /// member's credential.
    ///
    /// # Errors
    ///
    /// [`GsigError`] when the join protocol rejects.
    fn admit(&mut self, rng: &mut dyn RngCore) -> Result<Box<dyn GsigCredential>, GsigError>;

    /// `GSIG.Revoke`: revokes a member, returning the VLR revocation
    /// token when the scheme has one (`None` for registry-only
    /// revocation à la classic ACJT — the §3 trade-off).
    ///
    /// # Errors
    ///
    /// [`GsigError`] for unknown or already-revoked members.
    fn revoke(&mut self, id: MemberId) -> Result<Option<RevocationToken>, GsigError>;

    /// `GSIG.Open`: decodes a serialized signature and traces it to the
    /// signing member.
    ///
    /// # Errors
    ///
    /// [`TraceError::MalformedSignature`] when the bytes do not decode,
    /// [`TraceError::OpenFailed`] when opening rejects.
    fn open(&self, message: &[u8], sig_bytes: &[u8]) -> Result<MemberId, TraceError>;
}

/// The member end of a group-signature scheme (`GSIG.{Sign, Verify}`),
/// plus the self-distinction hooks of the paper's scheme 2.
pub trait GsigCredential: Send + Sync {
    /// The member's pseudonymous identity.
    fn id(&self) -> MemberId;

    /// The interval parameters of the credential's group.
    fn params(&self) -> &GsigParams;

    /// Serialized length of a signature in this group (a public
    /// constant; decoy payloads must match it).
    fn sig_len(&self) -> usize;

    /// `GSIG.Sign`: signs `message`, serialized with [`crate::codec`].
    ///
    /// When `basis` is `Some`, schemes supporting self-distinction
    /// derive the linkability base from it (KY `SignBasis::Common`);
    /// otherwise a random base is used. The second component is the
    /// scheme's linkability tag for the produced signature (`T6` for
    /// KY; `None` for schemes without one).
    fn sign(
        &self,
        message: &[u8],
        basis: Option<&[u8]>,
        rng: &mut dyn RngCore,
    ) -> (Vec<u8>, Option<Ubig>);

    /// `GSIG.Verify`: decodes and verifies a serialized signature
    /// against the member's `crl` (memoized revocation check);
    /// `expected_t7` pins the linkability base (self-distinction
    /// check).
    ///
    /// Returns `None` on any failure (malformed, invalid, revoked,
    /// wrong base); on success, the signature's linkability tag as in
    /// [`GsigCredential::sign`].
    fn verify(
        &self,
        message: &[u8],
        sig_bytes: &[u8],
        expected_t7: Option<&Ubig>,
        crl: &Crl,
    ) -> Option<Option<Ubig>>;

    /// Batch `GSIG.Verify`: verifies many serialized `(message,
    /// signature)` pairs in one call. Outcome-equivalent to calling
    /// [`GsigCredential::verify`] on every pair, but schemes with a
    /// random-linear-combination batch equation amortize the group
    /// exponentiations across the whole batch. The default
    /// implementation is the per-pair fallback.
    fn verify_batch(
        &self,
        items: &[(&[u8], &[u8])],
        expected_t7: Option<&Ubig>,
        crl: &Crl,
    ) -> Vec<Option<Option<Ubig>>> {
        items
            .iter()
            .map(|(message, sig)| self.verify(message, sig, expected_t7, crl))
            .collect()
    }

    /// The common linkability base `T7 = g^{H(basis)}` for
    /// self-distinction, when the scheme supports it.
    fn common_t7(&self, basis: &[u8]) -> Option<Ubig>;

    /// Clones the credential behind the trait object.
    fn clone_box(&self) -> Box<dyn GsigCredential>;
}

impl Clone for Box<dyn GsigCredential> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Kiayias–Yung authority (schemes 1 and 2).
pub(crate) struct KyAuthority {
    gm: ky::GroupManager,
    pk: Arc<ky::GroupPublicKey>,
}

impl KyAuthority {
    /// `GSIG.Setup` with a pre-generated safe-RSA setting.
    pub(crate) fn setup(
        params: GsigParams,
        rsa: RsaGroup,
        rsa_secret: RsaSecret,
        rng: &mut dyn RngCore,
    ) -> KyAuthority {
        let gm = ky::GroupManager::setup_with_rsa(params, rsa, rsa_secret, rng);
        let pk = Arc::new(gm.public_key().clone());
        KyAuthority { gm, pk }
    }
}

impl Gsig for KyAuthority {
    fn params(&self) -> GsigParams {
        self.pk.params
    }

    fn admit(&mut self, rng: &mut dyn RngCore) -> Result<Box<dyn GsigCredential>, GsigError> {
        let (secret, req) = ky::start_join(&self.pk, rng);
        let resp = self.gm.admit(&req, rng)?;
        let key = ky::finish_join(&self.pk, secret, &resp)?;
        Ok(Box::new(KyCredential {
            pk: Arc::clone(&self.pk),
            key,
        }))
    }

    fn revoke(&mut self, id: MemberId) -> Result<Option<RevocationToken>, GsigError> {
        Ok(Some(self.gm.revoke(id)?))
    }

    fn open(&self, message: &[u8], sig_bytes: &[u8]) -> Result<MemberId, TraceError> {
        let sig = codec::decode_ky_sig(&self.pk.params, sig_bytes)
            .map_err(|_| TraceError::MalformedSignature)?;
        let opening = self
            .gm
            .open(message, &sig)
            .map_err(|_| TraceError::OpenFailed)?;
        Ok(opening.id)
    }
}

/// Kiayias–Yung member credential (schemes 1 and 2).
pub(crate) struct KyCredential {
    pk: Arc<ky::GroupPublicKey>,
    key: ky::MemberKey,
}

impl std::fmt::Debug for KyCredential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "KyCredential({})", self.key.id)
    }
}

impl GsigCredential for KyCredential {
    fn id(&self) -> MemberId {
        self.key.id
    }

    fn params(&self) -> &GsigParams {
        &self.pk.params
    }

    fn sig_len(&self) -> usize {
        codec::ky_sig_len(&self.pk.params)
    }

    fn sign(
        &self,
        message: &[u8],
        basis: Option<&[u8]>,
        rng: &mut dyn RngCore,
    ) -> (Vec<u8>, Option<Ubig>) {
        let sign_basis = match basis {
            Some(b) => ky::SignBasis::Common(b),
            None => ky::SignBasis::Random,
        };
        let sig = ky::sign(&self.pk, &self.key, message, sign_basis, rng);
        let t6 = sig.tags.t6.clone();
        (codec::encode_ky_sig(&self.pk.params, &sig), Some(t6))
    }

    fn verify(
        &self,
        message: &[u8],
        sig_bytes: &[u8],
        expected_t7: Option<&Ubig>,
        crl: &Crl,
    ) -> Option<Option<Ubig>> {
        let sig = codec::decode_ky_sig(&self.pk.params, sig_bytes).ok()?;
        ky::verify_with_crl(&self.pk, message, &sig, expected_t7, crl).ok()?;
        Some(Some(sig.tags.t6))
    }

    fn verify_batch(
        &self,
        items: &[(&[u8], &[u8])],
        expected_t7: Option<&Ubig>,
        crl: &Crl,
    ) -> Vec<Option<Option<Ubig>>> {
        // Decode individually (failures stay per-item), combine the
        // group equations across the batch, then scan the CRL per
        // surviving signature — revocation is signature-local and does
        // not batch.
        let decoded: Vec<Option<ky::Signature>> = items
            .iter()
            .map(|(_, sig_bytes)| codec::decode_ky_sig(&self.pk.params, sig_bytes).ok())
            .collect();
        let batch: Vec<(&[u8], &ky::Signature)> = items
            .iter()
            .zip(&decoded)
            .filter_map(|((message, _), sig)| sig.as_ref().map(|s| (*message, s)))
            .collect();
        let outcome = ky::verify_batch(&self.pk, &batch, expected_t7);
        let mut pos = 0usize;
        decoded
            .into_iter()
            .map(|sig| {
                let sig = sig?;
                let valid = outcome.is_valid(pos);
                pos += 1;
                if !valid || crl.is_revoked(&self.pk, &sig) {
                    return None;
                }
                Some(Some(sig.tags.t6))
            })
            .collect()
    }

    fn common_t7(&self, basis: &[u8]) -> Option<Ubig> {
        Some(self.pk.common_t7(basis))
    }

    fn clone_box(&self) -> Box<dyn GsigCredential> {
        Box::new(KyCredential {
            pk: Arc::clone(&self.pk),
            key: self.key.clone(),
        })
    }
}

/// Classic ACJT authority (scheme 1-classic; registry-only revocation).
pub(crate) struct AcjtAuthority {
    gm: acjt::GroupManager,
    pk: Arc<acjt::GroupPublicKey>,
}

impl AcjtAuthority {
    /// `GSIG.Setup` with a pre-generated safe-RSA setting.
    pub(crate) fn setup(
        params: GsigParams,
        rsa: RsaGroup,
        rsa_secret: RsaSecret,
        rng: &mut dyn RngCore,
    ) -> AcjtAuthority {
        let gm = acjt::GroupManager::setup_with_rsa(params, rsa, rsa_secret, rng);
        let pk = Arc::new(gm.public_key().clone());
        AcjtAuthority { gm, pk }
    }
}

impl Gsig for AcjtAuthority {
    fn params(&self) -> GsigParams {
        self.pk.params
    }

    fn admit(&mut self, rng: &mut dyn RngCore) -> Result<Box<dyn GsigCredential>, GsigError> {
        let (secret, req) = acjt::start_join(&self.pk, rng);
        let resp = self.gm.admit(&req, rng)?;
        let key = acjt::finish_join(&self.pk, secret, &resp)?;
        Ok(Box::new(AcjtCredential {
            pk: Arc::clone(&self.pk),
            key,
        }))
    }

    fn revoke(&mut self, id: MemberId) -> Result<Option<RevocationToken>, GsigError> {
        // ACJT has no VLR token: revocation is registry-only and the
        // framework depends entirely on the CGKD rekey — the §3
        // trade-off experiment E7b demonstrates.
        self.gm.revoke(id)?;
        Ok(None)
    }

    fn open(&self, message: &[u8], sig_bytes: &[u8]) -> Result<MemberId, TraceError> {
        let sig = codec::decode_acjt_sig(&self.pk.params, sig_bytes)
            .map_err(|_| TraceError::MalformedSignature)?;
        self.gm
            .open(message, &sig)
            .map_err(|_| TraceError::OpenFailed)
    }
}

/// Classic ACJT member credential (scheme 1-classic).
pub(crate) struct AcjtCredential {
    pk: Arc<acjt::GroupPublicKey>,
    key: acjt::MemberKey,
}

impl std::fmt::Debug for AcjtCredential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AcjtCredential({})", self.key.id)
    }
}

impl GsigCredential for AcjtCredential {
    fn id(&self) -> MemberId {
        self.key.id
    }

    fn params(&self) -> &GsigParams {
        &self.pk.params
    }

    fn sig_len(&self) -> usize {
        codec::acjt_sig_len(&self.pk.params)
    }

    fn sign(
        &self,
        message: &[u8],
        _basis: Option<&[u8]>,
        rng: &mut dyn RngCore,
    ) -> (Vec<u8>, Option<Ubig>) {
        let sig = acjt::sign(&self.pk, &self.key, message, rng);
        (codec::encode_acjt_sig(&self.pk.params, &sig), None)
    }

    fn verify(
        &self,
        message: &[u8],
        sig_bytes: &[u8],
        expected_t7: Option<&Ubig>,
        _crl: &Crl,
    ) -> Option<Option<Ubig>> {
        // ACJT signatures carry no linkability base to pin.
        if expected_t7.is_some() {
            return None;
        }
        let sig = codec::decode_acjt_sig(&self.pk.params, sig_bytes).ok()?;
        acjt::verify(&self.pk, message, &sig).ok()?;
        Some(None)
    }

    fn verify_batch(
        &self,
        items: &[(&[u8], &[u8])],
        expected_t7: Option<&Ubig>,
        _crl: &Crl,
    ) -> Vec<Option<Option<Ubig>>> {
        // ACJT signatures carry no linkability base to pin.
        if expected_t7.is_some() {
            return vec![None; items.len()];
        }
        let decoded: Vec<Option<acjt::Signature>> = items
            .iter()
            .map(|(_, sig_bytes)| codec::decode_acjt_sig(&self.pk.params, sig_bytes).ok())
            .collect();
        let batch: Vec<(&[u8], &acjt::Signature)> = items
            .iter()
            .zip(&decoded)
            .filter_map(|((message, _), sig)| sig.as_ref().map(|s| (*message, s)))
            .collect();
        let outcome = acjt::verify_batch(&self.pk, &batch);
        let mut pos = 0usize;
        decoded
            .into_iter()
            .map(|sig| {
                sig?;
                let valid = outcome.is_valid(pos);
                pos += 1;
                valid.then_some(None)
            })
            .collect()
    }

    fn common_t7(&self, _basis: &[u8]) -> Option<Ubig> {
        None
    }

    fn clone_box(&self) -> Box<dyn GsigCredential> {
        Box::new(AcjtCredential {
            pk: Arc::clone(&self.pk),
            key: self.key.clone(),
        })
    }
}
