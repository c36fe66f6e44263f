//! The Burmester–Desmedt group key agreement protocol \[11\].
//!
//! Two broadcast rounds over a Schnorr group:
//!
//! 1. each party `i` broadcasts `z_i = g^{r_i}`;
//! 2. each party broadcasts `X_i = (z_{i+1}/z_{i-1})^{r_i}` (indices
//!    cyclic);
//!
//! after which every party computes the common
//! `K = z_{i-1}^{m·r_i} · X_i^{m-1} · X_{i+1}^{m-2} ⋯ X_{i+m-2}`,
//! which equals `g^{r_1r_2 + r_2r_3 + … + r_mr_1}`.
//!
//! Each party performs a **constant** number of exponentiations plus the
//! `O(m)` multiplications of the key assembly — the efficiency highlighted
//! in Appendix D of the paper and measured by experiment E3.

use crate::{DgkaError, SessionOutput};
use rand::RngCore;
use serde::{Deserialize, Serialize};
use shs_bigint::Ubig;
use shs_crypto::sha256::Sha256;
use shs_groups::schnorr::SchnorrGroup;

/// Round-1 broadcast: `z_i = g^{r_i}`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Round1 {
    /// Sender's position `i ∈ [0, m)`.
    pub sender: usize,
    /// `g^{r_i}`.
    pub z: Ubig,
}

/// Round-2 broadcast: `X_i = (z_{i+1}/z_{i-1})^{r_i}`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Round2 {
    /// Sender's position.
    pub sender: usize,
    /// `(z_{i+1}/z_{i-1})^{r_i}`.
    pub x: Ubig,
}

/// A party's protocol instance (`Π_U^i` of the paper's Fig. 5).
pub struct Party<'g> {
    group: &'g SchnorrGroup,
    m: usize,
    index: usize,
    r: Ubig,
    /// The `z_i` this party broadcast in round 1.
    z: Ubig,
    /// The `X_i` this party broadcast in round 2, once it has.
    x: Option<Ubig>,
    z_all: Option<Vec<Ubig>>,
}

impl std::fmt::Debug for Party<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "bd::Party {{ index: {}/{}, secrets: **** }}",
            self.index, self.m
        )
    }
}

impl<'g> Party<'g> {
    /// Starts an instance for party `index` of `m`; returns the round-1
    /// broadcast.
    ///
    /// # Errors
    ///
    /// [`DgkaError::BadParameters`] when `m < 2` or `index >= m`.
    pub fn start(
        group: &'g SchnorrGroup,
        m: usize,
        index: usize,
        rng: &mut (impl RngCore + ?Sized),
    ) -> Result<(Party<'g>, Round1), DgkaError> {
        if m < 2 || index >= m {
            return Err(DgkaError::BadParameters);
        }
        let r = group.random_exponent(rng);
        let z = group.exp_g(&r);
        Ok((
            Party {
                group,
                m,
                index,
                r,
                z: z.clone(),
                x: None,
                z_all: None,
            },
            Round1 { sender: index, z },
        ))
    }

    /// Consumes the full set of round-1 broadcasts and produces this
    /// party's round-2 broadcast.
    ///
    /// # Errors
    ///
    /// [`DgkaError::MissingMessage`] unless exactly one message per party
    /// is supplied; [`DgkaError::BadElement`] for non-group values, or
    /// when this party's own `z_i` comes back changed;
    /// [`DgkaError::ProtocolViolation`] on duplicate round processing.
    pub fn round2(&mut self, round1: &[Round1]) -> Result<Round2, DgkaError> {
        if self.z_all.is_some() {
            return Err(DgkaError::ProtocolViolation);
        }
        let z_all = collect_by_sender(round1, self.m, |msg| &msg.z)?;
        self.check_elements(&z_all, &self.z)?;
        let prev = &z_all[(self.index + self.m - 1) % self.m];
        let next = &z_all[(self.index + 1) % self.m];
        let ratio = self
            .group
            .div(next, prev)
            .map_err(|_| DgkaError::BadElement)?;
        let x = self.group.exp(&ratio, &self.r);
        self.z_all = Some(z_all);
        self.x = Some(x.clone());
        Ok(Round2 {
            sender: self.index,
            x,
        })
    }

    /// Consumes the full set of round-2 broadcasts and outputs the session
    /// key.
    ///
    /// # Errors
    ///
    /// [`DgkaError::ProtocolViolation`] if round 2 was not yet processed;
    /// otherwise as [`Party::round2`].
    pub fn finish(&self, round2: &[Round2]) -> Result<SessionOutput, DgkaError> {
        let (z_all, own_x) = self
            .z_all
            .as_ref()
            .zip(self.x.as_ref())
            .ok_or(DgkaError::ProtocolViolation)?;
        let x_all = collect_by_sender(round2, self.m, |msg| &msg.x)?;
        self.check_elements(&x_all, own_x)?;
        let m = self.m;
        let prev = &z_all[(self.index + m - 1) % m];
        // K = prev^{m·r_i} · Π_{t=0}^{m-2} X_{i+t}^{m-1-t}
        let m_big = Ubig::from_u64(m as u64);
        let mut key_elem = self.group.exp(prev, &self.r.mulm(&m_big, self.group.q()));
        for t in 0..m - 1 {
            let exp = Ubig::from_u64((m - 1 - t) as u64);
            let xi = &x_all[(self.index + t) % m];
            key_elem = self.group.mul(&key_elem, &self.group.exp(xi, &exp));
        }
        let sid = transcript_hash(z_all, &x_all);
        let mut key_input =
            key_elem.to_bytes_be_padded((self.group.p().bits() as usize).div_ceil(8));
        key_input.extend_from_slice(&sid);
        let key = shs_crypto::Key::derive(&key_input, "bd-session-key");
        Ok(SessionOutput {
            key,
            sid,
            participants: m,
        })
    }

    /// This party's position.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Checks one round's values: this party's own must be exactly the
    /// `own` it sent (stricter than membership, and no exponentiation),
    /// every other one a member of the order-`q` subgroup.
    fn check_elements(&self, all: &[Ubig], own: &Ubig) -> Result<(), DgkaError> {
        let ok = all.iter().enumerate().all(|(j, v)| {
            if j == self.index {
                v == own
            } else {
                self.group.is_member(v)
            }
        });
        if ok {
            Ok(())
        } else {
            Err(DgkaError::BadElement)
        }
    }
}

fn collect_by_sender<'a, M, F>(msgs: &'a [M], m: usize, value: F) -> Result<Vec<Ubig>, DgkaError>
where
    F: Fn(&'a M) -> &'a Ubig,
    M: Sender,
{
    let mut out: Vec<Option<Ubig>> = vec![None; m];
    for msg in msgs {
        let s = msg.sender();
        if s >= m || out[s].is_some() {
            return Err(DgkaError::ProtocolViolation);
        }
        out[s] = Some(value(msg).clone());
    }
    out.into_iter()
        .collect::<Option<Vec<_>>>()
        .ok_or(DgkaError::MissingMessage)
}

/// Internal trait unifying the two message types for collection.
trait Sender {
    fn sender(&self) -> usize;
}

impl Sender for Round1 {
    fn sender(&self) -> usize {
        self.sender
    }
}

impl Sender for Round2 {
    fn sender(&self) -> usize {
        self.sender
    }
}

fn transcript_hash(z_all: &[Ubig], x_all: &[Ubig]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(b"bd-transcript");
    for z in z_all {
        let b = z.to_bytes_be();
        h.update(&(b.len() as u64).to_be_bytes());
        h.update(&b);
    }
    for x in x_all {
        let b = x.to_bytes_be();
        h.update(&(b.len() as u64).to_be_bytes());
        h.update(&b);
    }
    h.finalize()
}

/// Runs a complete `m`-party BD instance in memory (tests, benches,
/// simple callers).
///
/// # Errors
///
/// Propagates any protocol error (none occur for honest inputs).
pub fn run(
    group: &SchnorrGroup,
    m: usize,
    rng: &mut (impl RngCore + ?Sized),
) -> Result<Vec<SessionOutput>, DgkaError> {
    let mut parties = Vec::with_capacity(m);
    let mut round1 = Vec::with_capacity(m);
    for i in 0..m {
        let (p, msg) = Party::start(group, m, i, rng)?;
        parties.push(p);
        round1.push(msg);
    }
    let round2: Vec<Round2> = parties
        .iter_mut()
        .map(|p| p.round2(&round1))
        .collect::<Result<_, _>>()?;
    parties.iter().map(|p| p.finish(&round2)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use shs_groups::schnorr::SchnorrPreset;

    fn group() -> &'static SchnorrGroup {
        SchnorrGroup::system_wide(SchnorrPreset::Test)
    }

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(80)
    }

    #[test]
    fn all_parties_agree() {
        let mut r = rng();
        for m in [2usize, 3, 5, 8] {
            let outputs = run(group(), m, &mut r).unwrap();
            for o in &outputs[1..] {
                assert_eq!(o.key, outputs[0].key, "m = {m}");
                assert_eq!(o.sid, outputs[0].sid);
            }
            assert_eq!(outputs[0].participants, m);
        }
    }

    #[test]
    fn different_sessions_different_keys() {
        let mut r = rng();
        let a = run(group(), 3, &mut r).unwrap();
        let b = run(group(), 3, &mut r).unwrap();
        assert_ne!(a[0].key, b[0].key);
        assert_ne!(a[0].sid, b[0].sid);
    }

    #[test]
    fn degenerate_parameters_rejected() {
        let mut r = rng();
        assert!(Party::start(group(), 1, 0, &mut r).is_err());
        assert!(Party::start(group(), 3, 3, &mut r).is_err());
    }

    #[test]
    fn missing_and_duplicate_messages_rejected() {
        let mut r = rng();
        let (mut p0, m0) = Party::start(group(), 3, 0, &mut r).unwrap();
        let (mut p1, m1) = Party::start(group(), 3, 1, &mut r).unwrap();
        let (_p2, m2) = Party::start(group(), 3, 2, &mut r).unwrap();
        // Missing message.
        assert_eq!(
            p0.round2(&[m0.clone(), m1.clone()]).err(),
            Some(DgkaError::MissingMessage)
        );
        // Duplicate sender.
        assert_eq!(
            p1.round2(&[m0.clone(), m0.clone(), m2.clone()]).err(),
            Some(DgkaError::ProtocolViolation)
        );
        // Correct set works.
        p0.round2(&[m0, m1, m2]).unwrap();
    }

    #[test]
    fn non_group_elements_rejected() {
        let mut r = rng();
        let (mut p0, m0) = Party::start(group(), 2, 0, &mut r).unwrap();
        let bad = Round1 {
            sender: 1,
            z: Ubig::from_u64(1234567),
        };
        if !group().is_member(&bad.z) {
            assert_eq!(p0.round2(&[m0, bad]).err(), Some(DgkaError::BadElement));
        }
    }

    #[test]
    fn own_echoed_values_must_come_back_unchanged() {
        // Swapping a party's own echoed z, or its own X, for another valid
        // subgroup element is caught by comparing with what it sent.
        let m = 3;
        let mut r = rng();
        let mut parties = Vec::new();
        let mut round1 = Vec::new();
        for i in 0..m {
            let (p, msg) = Party::start(group(), m, i, &mut r).unwrap();
            parties.push(p);
            round1.push(msg);
        }
        let mut swapped = round1.clone();
        swapped[0].z = group().random_element(&mut r);
        assert!(group().is_member(&swapped[0].z));
        assert_eq!(
            parties[0].round2(&swapped).err(),
            Some(DgkaError::BadElement)
        );

        let round2: Vec<Round2> = parties
            .iter_mut()
            .map(|p| p.round2(&round1).unwrap())
            .collect();
        let mut swapped = round2.clone();
        swapped[0].x = group().random_element(&mut r);
        assert!(group().is_member(&swapped[0].x));
        assert_eq!(
            parties[0].finish(&swapped).err(),
            Some(DgkaError::BadElement)
        );
        // The same values unchanged still agree.
        let keys: Vec<_> = parties
            .iter()
            .map(|p| p.finish(&round2).unwrap().key)
            .collect();
        assert!(keys.iter().all(|k| *k == keys[0]));
    }

    #[test]
    fn finish_before_round2_rejected() {
        let mut r = rng();
        let (p0, _m0) = Party::start(group(), 2, 0, &mut r).unwrap();
        assert_eq!(p0.finish(&[]).err(), Some(DgkaError::ProtocolViolation));
    }

    #[test]
    fn mitm_changes_keys() {
        // An active adversary substituting z values splits the group key:
        // parties no longer agree (detected later by Phase-II MACs).
        let mut r = rng();
        let m = 3;
        let mut parties = Vec::new();
        let mut round1 = Vec::new();
        for i in 0..m {
            let (p, msg) = Party::start(group(), m, i, &mut r).unwrap();
            parties.push(p);
            round1.push(msg);
        }
        // Adversary replaces party 1's z towards party 0 only.
        let mut tampered = round1.clone();
        tampered[1].z = group().random_element(&mut r);
        let x0 = parties[0].round2(&tampered).unwrap();
        let x1 = parties[1].round2(&round1).unwrap();
        let x2 = parties[2].round2(&round1).unwrap();
        let o0 = parties[0]
            .finish(&[x0.clone(), x1.clone(), x2.clone()])
            .unwrap();
        let o1 = parties[1].finish(&[x0, x1, x2]).unwrap();
        assert_ne!(o0.key, o1.key, "MITM must desynchronize the key");
    }

    #[test]
    fn constant_exponentiations_per_party() {
        let mut r = rng();
        // Count modexps for one party in an 8-party run: start (1) +
        // round2 (1) + finish (m key-assembly exps, small exponents).
        let m = 8;
        let mut others = Vec::new();
        let mut round1 = Vec::new();
        for i in 1..m {
            let (p, msg) = Party::start(group(), m, i, &mut r).unwrap();
            others.push(p);
            round1.push(msg);
        }
        let (counts, (mut me, my_msg)) =
            shs_bigint::counters::measure(|| Party::start(group(), m, 0, &mut r).unwrap());
        assert_eq!(counts.modexp, 1, "round 1 is one exponentiation");
        round1.insert(0, my_msg);
        let (counts, my_x) = shs_bigint::counters::measure(|| me.round2(&round1));
        let my_x = my_x.unwrap();
        // 1 real exponentiation + m membership checks (modpow by q).
        assert!(
            counts.modexp as usize <= m + 2,
            "round 2: {}",
            counts.modexp
        );
        let mut round2 = vec![my_x];
        for p in others.iter_mut() {
            round2.push(p.round2(&round1).unwrap());
        }
        let (counts, out) = shs_bigint::counters::measure(|| me.finish(&round2));
        out.unwrap();
        assert!(
            counts.modexp as usize <= 2 * m + 2,
            "finish: {}",
            counts.modexp
        );
    }
}
