//! The member side of a group: credential, CGKD state, CRL copy, and the
//! `SHS.Update` operation — all held behind the substrate trait layer,
//! so a `Member` is backend-agnostic.

use crate::config::{GroupConfig, SchemeKind};
use crate::substrate::{CgkdSlot, GsigCredential};
use crate::{codec, CoreError};
use shs_crypto::{aead, Key};
use shs_groups::cs;
use shs_groups::schnorr::SchnorrGroup;
use shs_gsig::crl::Crl;
use shs_gsig::ky::MemberId;
use shs_gsig::params::GsigParams;

pub use crate::substrate::EpochBroadcast;

/// An encrypted group-state update posted on the bulletin board
/// (`GCD.AdmitMember` / `GCD.RemoveUser` / `GCD.ApplyEpoch` output;
/// consumed by `GCD.Update`). One update covers one churn window — a
/// single join or leave, or a whole batched epoch.
#[derive(Debug, Clone)]
pub struct GroupUpdate {
    /// The CGKD rekey record for the window.
    pub rekey: EpochBroadcast,
    /// GSIG state update (CRL delta), AEAD-encrypted under the **new**
    /// group key so revoked members cannot read it.
    pub payload_ct: Vec<u8>,
}

/// Content of the encrypted update payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct UpdatePayload {
    pub crl_delta: Option<shs_gsig::crl::CrlDelta>,
}

pub(crate) fn encode_update_payload(params: &GsigParams, p: &UpdatePayload) -> Vec<u8> {
    let mut w = crate::wire::Writer::new();
    match &p.crl_delta {
        None => w.put_u8(0),
        Some(d) => {
            w.put_u8(1);
            w.put_bytes(&codec::encode_crl_delta(params, d));
        }
    }
    w.into_bytes()
}

pub(crate) fn decode_update_payload(
    params: &GsigParams,
    bytes: &[u8],
) -> Result<UpdatePayload, CoreError> {
    let mut r = crate::wire::Reader::new(bytes);
    let tag = r.take_u8()?;
    let payload = match tag {
        0 => UpdatePayload { crl_delta: None },
        1 => {
            let inner = r.take_bytes()?;
            UpdatePayload {
                crl_delta: Some(codec::decode_crl_delta(params, &inner)?),
            }
        }
        _ => return Err(CoreError::Wire(crate::wire::WireError::BadTag)),
    };
    r.finish()?;
    Ok(payload)
}

pub(crate) fn update_aad(epoch: u64) -> Vec<u8> {
    format!("gcd-update:{epoch}").into_bytes()
}

/// A group member: everything `U_i` holds (Fig. 1 of the paper).
pub struct Member {
    pub(crate) config: GroupConfig,
    pub(crate) cred: Box<dyn GsigCredential>,
    pub(crate) cgkd: Box<dyn CgkdSlot>,
    pub(crate) crl: Crl,
    pub(crate) tracing_group: &'static SchnorrGroup,
    pub(crate) tracing_pk: cs::PublicKey,
}

impl std::fmt::Debug for Member {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Member {{ id: {}, scheme: {:?}, epoch: {} }}",
            self.cred.id(),
            self.config.scheme,
            self.cgkd.epoch()
        )
    }
}

impl Member {
    /// The member's pseudonymous identity (known to the GA; never revealed
    /// during handshakes).
    pub fn id(&self) -> MemberId {
        self.cred.id()
    }

    /// The scheme this member's group runs.
    pub fn scheme(&self) -> SchemeKind {
        self.config.scheme
    }

    /// The member's current CGKD group key `k_i`.
    pub fn group_key(&self) -> &Key {
        self.cgkd.group_key()
    }

    /// The member's current CRL version.
    pub fn crl_version(&self) -> u64 {
        self.crl.version
    }

    /// The member's view of the CGKD epoch.
    pub fn epoch(&self) -> u64 {
        self.cgkd.epoch()
    }

    /// The credential (used by the handshake driver).
    pub fn credential(&self) -> &dyn GsigCredential {
        self.cred.as_ref()
    }

    /// `SHS.Update`: processes a bulletin-board update — runs
    /// `CGKD.Rekey`, then decrypts the GSIG state update with the *new*
    /// group key and applies the CRL delta.
    ///
    /// # Errors
    ///
    /// [`CoreError::Cgkd`] when the rekey cannot be processed (revoked
    /// members land here), [`CoreError::UpdateRejected`] when the payload
    /// fails authentication or ordering.
    pub fn apply_update(&mut self, update: &GroupUpdate) -> Result<(), CoreError> {
        if !update.rekey.is_empty() {
            self.cgkd.process(&update.rekey).map_err(CoreError::Cgkd)?;
        }
        let aad = update_aad(update.rekey.epoch());
        let pt = aead::open(self.cgkd.group_key(), &update.payload_ct, &aad)
            .map_err(|_| CoreError::UpdateRejected)?;
        let payload = decode_update_payload(self.cred.params(), &pt)?;
        if let Some(delta) = payload.crl_delta {
            self.crl
                .apply(&delta)
                .map_err(|_| CoreError::UpdateRejected)?;
        }
        Ok(())
    }

    /// Leaks this member's current group key — **test/experiment API**
    /// modelling the §3 attack where an unrevoked member hands the CGKD
    /// key to a revoked one (experiment E7b).
    pub fn leak_group_key(&self) -> Key {
        self.cgkd.group_key().clone()
    }

    /// Overwrites this member's group key with a leaked one —
    /// the receiving side of the E7b attack.
    pub fn adopt_leaked_key(&mut self, key: Key, epoch: u64) {
        self.cgkd.force_group_key(key, epoch);
    }
}
