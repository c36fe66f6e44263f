//! The group authority `GA`: group manager (GSIG) + group controller
//! (CGKD) + tracing keyholder, exactly the triple role `GCD.CreateGroup`
//! assigns it (§7).
//!
//! Both primitives are held behind the substrate trait layer
//! ([`crate::substrate`]) and instantiated through [`crate::factory`],
//! so this module is identical for every cell of the instantiation
//! matrix.

use crate::config::GroupConfig;
use crate::member::{encode_update_payload, EpochBroadcast, GroupUpdate, Member, UpdatePayload};
use crate::substrate::{Cgkd, CgkdSlot, Gsig, GsigCredential};
use crate::transcript::{HandshakeTranscript, TraceError, TraceOutcome};
use crate::{codec, factory, CoreError};
use rand::RngCore;
use shs_cgkd::UserId;
use shs_crypto::{aead, Key};
use shs_groups::cs;
use shs_groups::rsa::{RsaGroup, RsaSecret};
use shs_groups::schnorr::SchnorrGroup;
use shs_gsig::crl::Crl;
use shs_gsig::ky::MemberId;
use shs_gsig::params::GsigParams;
use std::collections::{HashMap, HashSet};

/// The group authority of one group.
pub struct GroupAuthority {
    config: GroupConfig,
    gsig: Box<dyn Gsig>,
    cgkd: Box<dyn Cgkd>,
    crl: Crl,
    tracing_group: &'static SchnorrGroup,
    tracing_pk: cs::PublicKey,
    tracing_sk: cs::SecretKey,
    uid_of: HashMap<MemberId, UserId>,
}

impl std::fmt::Debug for GroupAuthority {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "GroupAuthority {{ scheme: {:?}, members: {}, crl: v{} }}",
            self.config.scheme,
            self.uid_of.len(),
            self.crl.version
        )
    }
}

impl GroupAuthority {
    /// `GCD.CreateGroup`: sets up GSIG, CGKD and the IND-CCA2 tracing
    /// keypair. Generates a fresh safe-RSA modulus (slow for large
    /// presets; see [`GroupAuthority::create_with_rsa`]).
    pub fn create(config: GroupConfig, rng: &mut impl RngCore) -> GroupAuthority {
        let params = GsigParams::preset(config.gsig_preset);
        let (rsa, secret) = RsaGroup::generate(params.modulus_bits, rng);
        Self::create_with_rsa(config, rsa, secret, rng)
    }

    /// `GCD.CreateGroup` reusing a pre-generated RSA setting (tests,
    /// benchmarks, deterministic fixtures).
    pub fn create_with_rsa(
        config: GroupConfig,
        rsa: RsaGroup,
        rsa_secret: RsaSecret,
        rng: &mut impl RngCore,
    ) -> GroupAuthority {
        let rng: &mut dyn RngCore = rng;
        let params = GsigParams::preset(config.gsig_preset);
        let gsig = factory::gsig_authority(config.scheme, params, rsa, rsa_secret, rng);
        let tracing_group = SchnorrGroup::system_wide(config.schnorr_preset);
        let (tracing_pk, tracing_sk) = cs::keygen(tracing_group, rng);
        let cgkd = factory::cgkd_controller(config.cgkd, config.capacity, rng);
        GroupAuthority {
            config,
            gsig,
            cgkd,
            crl: Crl::new(),
            tracing_group,
            tracing_pk,
            tracing_sk,
            uid_of: HashMap::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &GroupConfig {
        &self.config
    }

    /// The tracing public key `pk_T` (part of the public cryptographic
    /// context).
    pub fn tracing_public_key(&self) -> &cs::PublicKey {
        &self.tracing_pk
    }

    /// Current member count.
    pub fn member_count(&self) -> usize {
        self.uid_of.len()
    }

    /// Current CGKD group key (GC side).
    pub fn group_key(&self) -> &Key {
        self.cgkd.group_key()
    }

    /// Current CGKD epoch (bumped once per rekey or batched window).
    pub fn epoch(&self) -> u64 {
        self.cgkd.epoch()
    }

    /// Current CRL version (one per revocation token ever issued).
    pub fn crl_version(&self) -> u64 {
        self.crl.version
    }

    /// `GCD.AdmitMember`: runs the interactive `GSIG.Join` (both ends of
    /// the private authenticated channel are simulated here) and
    /// `CGKD.Join` as a one-join window, then wraps the GSIG state
    /// update in an encrypted bulletin-board update.
    ///
    /// Returns the new [`Member`] (already up to date) and the
    /// [`GroupUpdate`] every *existing* member must apply.
    ///
    /// # Errors
    ///
    /// [`CoreError::Cgkd`] when capacity is exhausted, checked before
    /// the join so a refused admit draws no randomness and spends no
    /// member id; [`CoreError::Gsig`] when the join protocol fails.
    pub fn admit(&mut self, rng: &mut impl RngCore) -> Result<(Member, GroupUpdate), CoreError> {
        let rng: &mut dyn RngCore = rng;
        self.cgkd.check_window(1, &[]).map_err(CoreError::Cgkd)?;
        let cred = self.gsig.admit(rng).map_err(CoreError::Gsig)?;
        let mut outcome = self
            .cgkd
            .apply_epoch(1, &[], rng)
            .map_err(CoreError::Cgkd)?;
        let (uid, slot) = outcome
            .joined
            .pop()
            .expect("a one-join window admits one member");
        self.uid_of.insert(cred.id(), uid);
        let payload = UpdatePayload { crl_delta: None };
        let update = self.seal_update(outcome.broadcast, &payload, rng);
        Ok((self.member(cred, slot), update))
    }

    /// `GCD.RemoveUser`: `CGKD.Leave` as a one-leave window +
    /// `GSIG.Revoke`, with the CRL delta encrypted under the **new**
    /// group key so the revoked member cannot read it (§7).
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownMember`] for ids never admitted or already
    /// removed.
    pub fn remove(
        &mut self,
        id: MemberId,
        rng: &mut impl RngCore,
    ) -> Result<GroupUpdate, CoreError> {
        let (_, update) = self.apply_epoch(0, &[id], rng)?;
        Ok(update)
    }

    /// `GCD.ApplyEpoch`: batches a whole churn window — revoking
    /// `leave_ids` and admitting `joins` new members — into **one**
    /// bulletin-board update carrying one CGKD epoch record and one
    /// merged CRL delta.
    ///
    /// Returns the admitted [`Member`]s (already synced past the window,
    /// CRL included) and the [`GroupUpdate`] every *existing* member
    /// must apply. An empty window produces an update with an empty
    /// rekey record that up-to-date members skip.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownMember`] for unknown or duplicated leaver ids
    /// (checked before any state changes); [`CoreError::Cgkd`] when the
    /// roster would exceed capacity (the CGKD window is atomic);
    /// [`CoreError::Gsig`] if a join or revocation fails mid-window,
    /// after which authority state may have partially advanced.
    pub fn apply_epoch(
        &mut self,
        joins: usize,
        leave_ids: &[MemberId],
        rng: &mut impl RngCore,
    ) -> Result<(Vec<Member>, GroupUpdate), CoreError> {
        let rng: &mut dyn RngCore = rng;
        let mut uids = Vec::with_capacity(leave_ids.len());
        let mut seen = HashSet::new();
        for id in leave_ids {
            let uid = *self.uid_of.get(id).ok_or(CoreError::UnknownMember)?;
            if !seen.insert(*id) {
                return Err(CoreError::UnknownMember);
            }
            uids.push(uid);
        }
        // The CGKD window first: it validates atomically, so a Full
        // error leaves the authority untouched.
        let outcome = self
            .cgkd
            .apply_epoch(joins, &uids, rng)
            .map_err(CoreError::Cgkd)?;
        let mut crl_delta: Option<shs_gsig::crl::CrlDelta> = None;
        for id in leave_ids {
            self.uid_of.remove(id);
            if let Some(token) = self.gsig.revoke(*id).map_err(CoreError::Gsig)? {
                let delta = self.crl.push(token);
                crl_delta = Some(match crl_delta {
                    None => delta,
                    // Consecutive pushes always merge cleanly.
                    Some(acc) => acc.merge(delta).map_err(|_| CoreError::UpdateRejected)?,
                });
            }
        }
        let mut members = Vec::with_capacity(outcome.joined.len());
        for (uid, slot) in outcome.joined {
            let cred = self.gsig.admit(rng).map_err(CoreError::Gsig)?;
            self.uid_of.insert(cred.id(), uid);
            members.push(self.member(cred, slot));
        }
        let payload = UpdatePayload { crl_delta };
        let update = self.seal_update(outcome.broadcast, &payload, rng);
        Ok((members, update))
    }

    /// A joiner holding `cred` and a CGKD slot already synced past its
    /// window. The CRL clone is current, so it has no update left to
    /// apply.
    fn member(&self, cred: Box<dyn GsigCredential>, slot: Box<dyn CgkdSlot>) -> Member {
        Member {
            config: self.config,
            cred,
            cgkd: slot,
            crl: self.crl.clone(),
            tracing_group: self.tracing_group,
            tracing_pk: self.tracing_pk.clone(),
        }
    }

    fn seal_update(
        &self,
        rekey: EpochBroadcast,
        payload: &UpdatePayload,
        rng: &mut dyn RngCore,
    ) -> GroupUpdate {
        let params = self.params();
        let pt = encode_update_payload(&params, payload);
        let aad = crate::member::update_aad(rekey.epoch());
        let payload_ct = aead::seal(self.cgkd.group_key(), &pt, &aad, rng);
        GroupUpdate { rekey, payload_ct }
    }

    fn params(&self) -> GsigParams {
        self.gsig.params()
    }

    /// `GCD.TraceUser`: decrypts every `δ_i` of the transcript with
    /// `sk_T`, recovers `k'_i`, opens `θ_i`, and runs `GSIG.Open` on the
    /// recovered signature.
    ///
    /// Per-slot failures (decoy payloads from failed handshakes, or
    /// members of other groups) are reported as [`TraceError`]s, not
    /// hard errors — the paper's traceability is deliberately best-effort
    /// against dishonest last movers (§2 remark).
    pub fn trace(&self, transcript: &HandshakeTranscript) -> Vec<TraceOutcome> {
        transcript
            .entries
            .iter()
            .enumerate()
            .map(|(slot, entry)| {
                let result = self.trace_slot(transcript, &entry.theta, &entry.delta);
                TraceOutcome { slot, result }
            })
            .collect()
    }

    fn trace_slot(
        &self,
        transcript: &HandshakeTranscript,
        theta: &[u8],
        delta_bytes: &[u8],
    ) -> Result<MemberId, TraceError> {
        let delta = codec::decode_delta(self.tracing_group, delta_bytes)
            .map_err(|_| TraceError::MalformedDelta)?;
        let k_prime_bytes = cs::decrypt(self.tracing_group, &self.tracing_sk, &delta)
            .map_err(|_| TraceError::UndecryptableDelta)?;
        if k_prime_bytes.len() != 32 {
            return Err(TraceError::UndecryptableDelta);
        }
        let mut kb = [0u8; 32];
        kb.copy_from_slice(&k_prime_bytes);
        let k_prime = Key::from_bytes(kb);
        let sig_bytes = aead::open(&k_prime, theta, &transcript.sid)
            .map_err(|_| TraceError::UndecryptableTheta)?;
        // The signed message is δ ‖ sid (as in Phase III).
        let mut msg = delta_bytes.to_vec();
        msg.extend_from_slice(&transcript.sid);
        self.gsig.open(&msg, &sig_bytes)
    }
}
