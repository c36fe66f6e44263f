//! The Katz–Yung compiler \[21\]: turns the unauthenticated
//! Burmester–Desmedt protocol into an *authenticated* group key agreement
//! by (1) prepending a nonce round and (2) signing every protocol message
//! over the session context (roster, nonces, round, sender).
//!
//! The GCD framework deliberately uses the **raw** protocol (Fig. 5 of the
//! paper defines DGKA as unauthenticated, with man-in-the-middle handled
//! by the CGKD-keyed MACs of Phase II) — this module exists because the
//! paper names Katz–Yung as the efficient BD variant of choice \[21\], and
//! the E3 ablation compares the two: authentication costs two signatures
//! and `2(m-1)` verifications per party, in exchange for rejecting MITM
//! *inside* Phase I instead of at Phase II.

use crate::{bd, sig, DgkaError, SessionOutput};
use rand::RngCore;
use shs_crypto::sha256::Sha256;
use shs_groups::schnorr::SchnorrGroup;

/// A signed protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignedMsg {
    /// Sender position.
    pub sender: usize,
    /// Round number (0 = nonces, 1/2 = BD rounds).
    pub round: u8,
    /// Serialized round body.
    pub body: Vec<u8>,
    /// Schnorr signature over the session context and body.
    pub sig: sig::Signature,
}

/// An authenticated-BD party.
pub struct Party<'g> {
    group: &'g SchnorrGroup,
    m: usize,
    index: usize,
    sk: sig::SigningKey,
    roster: Vec<sig::VerifyKey>,
    nonce: [u8; 32],
    nonces: Option<Vec<[u8; 32]>>,
    inner: Option<bd::Party<'g>>,
}

impl std::fmt::Debug for Party<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ake::Party {{ index: {}/{}, secrets: **** }}",
            self.index, self.m
        )
    }
}

fn roster_hash(group: &SchnorrGroup, roster: &[sig::VerifyKey]) -> [u8; 32] {
    let pw = (group.p().bits() as usize).div_ceil(8);
    let mut h = Sha256::new();
    h.update(b"ake-roster");
    for vk in roster {
        h.update(&vk.y.to_bytes_be_padded(pw));
    }
    h.finalize()
}

fn context(
    group: &SchnorrGroup,
    roster: &[sig::VerifyKey],
    nonces: Option<&[[u8; 32]]>,
    round: u8,
    sender: usize,
    body: &[u8],
) -> Vec<u8> {
    let mut ctx = b"shs-ake-v1".to_vec();
    ctx.extend_from_slice(&roster_hash(group, roster));
    if let Some(nonces) = nonces {
        for n in nonces {
            ctx.extend_from_slice(n);
        }
    }
    ctx.push(round);
    ctx.extend_from_slice(&(sender as u64).to_be_bytes());
    ctx.extend_from_slice(&(body.len() as u64).to_be_bytes());
    ctx.extend_from_slice(body);
    ctx
}

impl<'g> Party<'g> {
    /// Starts an authenticated instance: returns the signed nonce
    /// broadcast (round 0).
    ///
    /// # Errors
    ///
    /// [`DgkaError::BadParameters`] when the roster size or index is
    /// inconsistent.
    pub fn start(
        group: &'g SchnorrGroup,
        index: usize,
        sk: sig::SigningKey,
        roster: Vec<sig::VerifyKey>,
        rng: &mut (impl RngCore + ?Sized),
    ) -> Result<(Party<'g>, SignedMsg), DgkaError> {
        let m = roster.len();
        if m < 2 || index >= m {
            return Err(DgkaError::BadParameters);
        }
        let mut nonce = [0u8; 32];
        rng.fill_bytes(&mut nonce);
        let party = Party {
            group,
            m,
            index,
            sk,
            roster,
            nonce,
            nonces: None,
            inner: None,
        };
        let body = nonce.to_vec();
        let ctx = context(group, &party.roster, None, 0, index, &body);
        let sig = sig::sign(group, &party.sk, &party.roster[index], &ctx, rng);
        Ok((
            party,
            SignedMsg {
                sender: index,
                round: 0,
                body,
                sig,
            },
        ))
    }

    fn check(&self, msg: &SignedMsg, round: u8) -> Result<(), DgkaError> {
        if msg.round != round || msg.sender >= self.m {
            return Err(DgkaError::ProtocolViolation);
        }
        let nonces = if round == 0 {
            None
        } else {
            self.nonces.as_deref()
        };
        let ctx = context(
            self.group,
            &self.roster,
            nonces,
            round,
            msg.sender,
            &msg.body,
        );
        if !sig::verify(self.group, &self.roster[msg.sender], &ctx, &msg.sig) {
            return Err(DgkaError::BadElement);
        }
        Ok(())
    }

    fn collect<'a>(
        &self,
        msgs: &'a [SignedMsg],
        round: u8,
    ) -> Result<Vec<&'a SignedMsg>, DgkaError> {
        let mut by_sender: Vec<Option<&SignedMsg>> = vec![None; self.m];
        for msg in msgs {
            self.check(msg, round)?;
            if by_sender[msg.sender].is_some() {
                return Err(DgkaError::ProtocolViolation);
            }
            by_sender[msg.sender] = Some(msg);
        }
        by_sender
            .into_iter()
            .collect::<Option<Vec<_>>>()
            .ok_or(DgkaError::MissingMessage)
    }

    /// Consumes the nonce round and emits the signed BD round-1 message.
    ///
    /// # Errors
    ///
    /// Signature failures surface as [`DgkaError::BadElement`]; ordering
    /// violations as [`DgkaError::ProtocolViolation`].
    pub fn on_nonces(
        &mut self,
        msgs: &[SignedMsg],
        rng: &mut (impl RngCore + ?Sized),
    ) -> Result<SignedMsg, DgkaError> {
        if self.nonces.is_some() {
            return Err(DgkaError::ProtocolViolation);
        }
        let collected = self.collect(msgs, 0)?;
        let mut nonces = Vec::with_capacity(self.m);
        for msg in collected {
            let n: [u8; 32] = msg
                .body
                .as_slice()
                .try_into()
                .map_err(|_| DgkaError::BadElement)?;
            nonces.push(n);
        }
        if nonces[self.index] != self.nonce {
            return Err(DgkaError::BadElement); // our own nonce was replaced
        }
        self.nonces = Some(nonces);
        let (inner, r1) = bd::Party::start(self.group, self.m, self.index, rng)?;
        self.inner = Some(inner);
        let body = r1.z.to_bytes_be();
        let ctx = context(
            self.group,
            &self.roster,
            self.nonces.as_deref(),
            1,
            self.index,
            &body,
        );
        let sig = sig::sign(self.group, &self.sk, &self.roster[self.index], &ctx, rng);
        Ok(SignedMsg {
            sender: self.index,
            round: 1,
            body,
            sig,
        })
    }

    /// Consumes round 1 and emits the signed round-2 message.
    ///
    /// # Errors
    ///
    /// As [`Party::on_nonces`].
    pub fn on_round1(
        &mut self,
        msgs: &[SignedMsg],
        rng: &mut (impl RngCore + ?Sized),
    ) -> Result<SignedMsg, DgkaError> {
        let collected = self.collect(msgs, 1)?;
        let round1: Vec<bd::Round1> = collected
            .iter()
            .map(|m| bd::Round1 {
                sender: m.sender,
                z: shs_bigint::Ubig::from_bytes_be(&m.body),
            })
            .collect();
        let inner = self.inner.as_mut().ok_or(DgkaError::ProtocolViolation)?;
        let r2 = inner.round2(&round1)?;
        let body = r2.x.to_bytes_be();
        let ctx = context(
            self.group,
            &self.roster,
            self.nonces.as_deref(),
            2,
            self.index,
            &body,
        );
        let sig = sig::sign(self.group, &self.sk, &self.roster[self.index], &ctx, rng);
        Ok(SignedMsg {
            sender: self.index,
            round: 2,
            body,
            sig,
        })
    }

    /// Verifies one signed message against this party's session context
    /// without consuming it.
    ///
    /// Returns `None` when the verdict cannot be decided yet: rounds 1
    /// and 2 are signed over the session nonces, which this party only
    /// learns by consuming round 0. Receivers use this to filter
    /// retransmissions before feeding a round set to the consuming
    /// methods.
    pub fn verify_msg(&self, msg: &SignedMsg) -> Option<bool> {
        if msg.round > 0 && self.nonces.is_none() {
            return None;
        }
        Some(self.check(msg, msg.round).is_ok())
    }

    /// Consumes round 2 and outputs the authenticated session key.
    ///
    /// # Errors
    ///
    /// As [`Party::on_nonces`].
    pub fn finish(&self, msgs: &[SignedMsg]) -> Result<SessionOutput, DgkaError> {
        let collected = self.collect(msgs, 2)?;
        let round2: Vec<bd::Round2> = collected
            .iter()
            .map(|m| bd::Round2 {
                sender: m.sender,
                x: shs_bigint::Ubig::from_bytes_be(&m.body),
            })
            .collect();
        let inner = self.inner.as_ref().ok_or(DgkaError::ProtocolViolation)?;
        inner.finish(&round2)
    }
}

/// Runs a complete authenticated `m`-party instance in memory.
///
/// # Errors
///
/// Propagates protocol errors (none occur for honest inputs).
pub fn run(
    group: &SchnorrGroup,
    m: usize,
    rng: &mut (impl RngCore + ?Sized),
) -> Result<Vec<SessionOutput>, DgkaError> {
    let mut keys = Vec::with_capacity(m);
    let mut roster = Vec::with_capacity(m);
    for _ in 0..m {
        let (sk, vk) = sig::keygen(group, rng);
        keys.push(sk);
        roster.push(vk);
    }
    let mut parties = Vec::with_capacity(m);
    let mut nonces = Vec::with_capacity(m);
    for (i, sk) in keys.into_iter().enumerate() {
        let (p, msg) = Party::start(group, i, sk, roster.clone(), rng)?;
        parties.push(p);
        nonces.push(msg);
    }
    let r1: Vec<SignedMsg> = parties
        .iter_mut()
        .map(|p| p.on_nonces(&nonces, rng))
        .collect::<Result<_, _>>()?;
    let r2: Vec<SignedMsg> = parties
        .iter_mut()
        .map(|p| p.on_round1(&r1, rng))
        .collect::<Result<_, _>>()?;
    parties.iter().map(|p| p.finish(&r2)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use shs_groups::schnorr::SchnorrPreset;

    fn group() -> &'static SchnorrGroup {
        SchnorrGroup::system_wide(SchnorrPreset::Test)
    }

    #[test]
    fn all_parties_agree() {
        let mut r = rand::rngs::StdRng::seed_from_u64(100);
        for m in [2usize, 3, 5] {
            let outputs = run(group(), m, &mut r).unwrap();
            for o in &outputs[1..] {
                assert_eq!(o.key, outputs[0].key, "m = {m}");
            }
        }
    }

    #[test]
    fn mitm_substitution_now_rejected() {
        // Contrast with bd::tests::mitm_changes_keys: with the Katz–Yung
        // compiler, substitution is caught immediately as a signature
        // failure.
        let mut r = rand::rngs::StdRng::seed_from_u64(101);
        let m = 3;
        let mut keys = Vec::new();
        let mut roster = Vec::new();
        for _ in 0..m {
            let (sk, vk) = sig::keygen(group(), &mut r);
            keys.push(sk);
            roster.push(vk);
        }
        let mut parties = Vec::new();
        let mut nonces = Vec::new();
        for (i, sk) in keys.into_iter().enumerate() {
            let (p, msg) = Party::start(group(), i, sk, roster.clone(), &mut r).unwrap();
            parties.push(p);
            nonces.push(msg);
        }
        let r1: Vec<SignedMsg> = parties
            .iter_mut()
            .map(|p| p.on_nonces(&nonces, &mut r))
            .collect::<Result<_, _>>()
            .unwrap();
        // Adversary substitutes party 1's z towards party 0.
        let mut tampered = r1.clone();
        tampered[1].body = group().random_element(&mut r).to_bytes_be();
        assert_eq!(
            parties[0].on_round1(&tampered, &mut r).err(),
            Some(DgkaError::BadElement),
            "signature check catches the substitution"
        );
        // The untampered set still works.
        parties[0].on_round1(&r1, &mut r).unwrap();
    }

    #[test]
    fn nonce_replacement_rejected() {
        let mut r = rand::rngs::StdRng::seed_from_u64(102);
        let (sk0, vk0) = sig::keygen(group(), &mut r);
        let (sk1, vk1) = sig::keygen(group(), &mut r);
        let roster = vec![vk0, vk1];
        let (mut p0, n0) = Party::start(group(), 0, sk0, roster.clone(), &mut r).unwrap();
        let (_p1, n1) = Party::start(group(), 1, sk1, roster, &mut r).unwrap();
        // Replay attack: feed p0 two copies of the peer's nonce message.
        let mut fake = n1.clone();
        fake.sender = 0;
        assert!(p0.on_nonces(&[fake, n1.clone()], &mut r).is_err());
        // Honest set works.
        p0.on_nonces(&[n0, n1], &mut r).unwrap();
    }

    #[test]
    fn cross_session_replay_rejected() {
        // A signed round-1 message from one session cannot be replayed in
        // another: the signature binds the session nonces.
        let mut r = rand::rngs::StdRng::seed_from_u64(103);
        let m = 2;
        let mk = |r: &mut rand::rngs::StdRng| {
            let mut keys = Vec::new();
            let mut roster = Vec::new();
            for _ in 0..m {
                let (sk, vk) = sig::keygen(group(), r);
                keys.push(sk);
                roster.push(vk);
            }
            (keys, roster)
        };
        let (keys, roster) = mk(&mut r);
        // Session A.
        let mut parties_a = Vec::new();
        let mut nonces_a = Vec::new();
        for (i, sk) in keys.iter().cloned().enumerate() {
            let (p, msg) = Party::start(group(), i, sk, roster.clone(), &mut r).unwrap();
            parties_a.push(p);
            nonces_a.push(msg);
        }
        let r1_a: Vec<SignedMsg> = parties_a
            .iter_mut()
            .map(|p| p.on_nonces(&nonces_a, &mut r))
            .collect::<Result<_, _>>()
            .unwrap();
        // Session B with the same long-term keys but fresh nonces.
        let mut parties_b = Vec::new();
        let mut nonces_b = Vec::new();
        for (i, sk) in keys.iter().cloned().enumerate() {
            let (p, msg) = Party::start(group(), i, sk, roster.clone(), &mut r).unwrap();
            parties_b.push(p);
            nonces_b.push(msg);
        }
        let _r1_b0 = parties_b[0].on_nonces(&nonces_b, &mut r).unwrap();
        let r1_b1 = parties_b[1].on_nonces(&nonces_b, &mut r).unwrap();
        // Replaying session A's round-1 message from party 1 into session
        // B fails (different nonces in the signed context).
        assert_eq!(
            parties_b[0]
                .on_round1(&[_r1_b0.clone(), r1_a[1].clone()], &mut r)
                .err(),
            Some(DgkaError::BadElement)
        );
        // The genuine message works.
        parties_b[0].on_round1(&[_r1_b0, r1_b1], &mut r).unwrap();
    }
}
