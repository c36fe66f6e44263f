//! GDH.2 — group Diffie–Hellman key agreement in dynamic peer groups
//! (Steiner–Tsudik–Waidner \[30\]).
//!
//! An upflow chain of `m-1` unicast messages accumulates partial
//! exponentiations; the last party broadcasts, for each participant `j`,
//! the value `g^{∏_{l≠j} r_l}`, from which `j` derives
//! `K = g^{∏ r_l}` with one exponentiation.
//!
//! Work per party grows with its position in the chain (the last party
//! performs `m` exponentiations) — contrasted with Burmester–Desmedt's
//! constant per-party cost in experiment E3.

use crate::{DgkaError, SessionOutput};
use rand::RngCore;
use shs_bigint::Ubig;
use shs_crypto::sha256::Sha256;
use shs_groups::schnorr::SchnorrGroup;

/// Upflow message passed from party `i` to party `i+1`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Upflow {
    /// How many parties have contributed (the sender's position + 1).
    pub contributors: usize,
    /// `partials[j] = g^{∏_{l ≤ i, l ≠ j} r_l}` for each prior party `j`.
    pub partials: Vec<Ubig>,
    /// `g^{∏_{l ≤ i} r_l}`.
    pub cumulative: Ubig,
}

/// Final broadcast from the last party.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Broadcast {
    /// `values[j] = g^{∏_{l ≠ j} r_l}` for every party `j` (the last
    /// party's own slot carries the value it already consumed, kept for
    /// uniform indexing).
    pub values: Vec<Ubig>,
}

/// A GDH.2 party instance.
pub struct Party<'g> {
    group: &'g SchnorrGroup,
    m: usize,
    index: usize,
    r: Ubig,
}

impl std::fmt::Debug for Party<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "gdh::Party {{ index: {}/{}, secrets: **** }}",
            self.index, self.m
        )
    }
}

/// What a party emits after its turn in the chain.
#[derive(Debug)]
pub enum Step {
    /// Unicast to the next party in the chain.
    Upflow(Upflow),
    /// Final broadcast (emitted by the last party).
    Broadcast(Broadcast),
}

impl<'g> Party<'g> {
    /// Creates party `index` of `m`.
    ///
    /// # Errors
    ///
    /// [`DgkaError::BadParameters`] when `m < 2` or `index >= m`.
    pub fn new(
        group: &'g SchnorrGroup,
        m: usize,
        index: usize,
        rng: &mut (impl RngCore + ?Sized),
    ) -> Result<Party<'g>, DgkaError> {
        if m < 2 || index >= m {
            return Err(DgkaError::BadParameters);
        }
        let r = group.random_exponent(rng);
        Ok(Party { group, m, index, r })
    }

    /// Party 0 initiates the chain.
    ///
    /// # Errors
    ///
    /// [`DgkaError::ProtocolViolation`] if called by a non-initiator.
    pub fn initiate(&self) -> Result<Upflow, DgkaError> {
        if self.index != 0 {
            return Err(DgkaError::ProtocolViolation);
        }
        Ok(Upflow {
            contributors: 1,
            partials: vec![self.group.g().clone()],
            cumulative: self.group.exp_g(&self.r),
        })
    }

    /// Parties `1..m-1` process the upflow from their predecessor.
    ///
    /// # Errors
    ///
    /// [`DgkaError::ProtocolViolation`] for out-of-position messages,
    /// [`DgkaError::BadElement`] for non-group values.
    pub fn advance(&self, upflow: &Upflow) -> Result<Step, DgkaError> {
        if upflow.contributors != self.index || upflow.partials.len() != self.index {
            return Err(DgkaError::ProtocolViolation);
        }
        for v in upflow.partials.iter().chain([&upflow.cumulative]) {
            if !self.group.is_member(v) {
                return Err(DgkaError::BadElement);
            }
        }
        // Raise every partial (each missing one prior party) by r_i, and
        // append the old cumulative as the partial missing *us*.
        let mut partials: Vec<Ubig> = upflow
            .partials
            .iter()
            .map(|p| self.group.exp(p, &self.r))
            .collect();
        partials.push(upflow.cumulative.clone());
        if self.index == self.m - 1 {
            Ok(Step::Broadcast(Broadcast { values: partials }))
        } else {
            Ok(Step::Upflow(Upflow {
                contributors: self.index + 1,
                partials,
                cumulative: self.group.exp(&upflow.cumulative, &self.r),
            }))
        }
    }

    /// Every party derives the session key from the final broadcast.
    ///
    /// # Errors
    ///
    /// [`DgkaError::MissingMessage`] for wrong-length broadcasts,
    /// [`DgkaError::BadElement`] for non-group values.
    pub fn finish(&self, broadcast: &Broadcast) -> Result<SessionOutput, DgkaError> {
        if broadcast.values.len() != self.m {
            return Err(DgkaError::MissingMessage);
        }
        let mine = &broadcast.values[self.index];
        if !self.group.is_member(mine) {
            return Err(DgkaError::BadElement);
        }
        let key_elem = self.group.exp(mine, &self.r);
        let sid = transcript_hash(&broadcast.values);
        let mut key_input =
            key_elem.to_bytes_be_padded((self.group.p().bits() as usize).div_ceil(8));
        key_input.extend_from_slice(&sid);
        let key = shs_crypto::Key::derive(&key_input, "gdh-session-key");
        Ok(SessionOutput {
            key,
            sid,
            participants: self.m,
        })
    }
}

fn transcript_hash(values: &[Ubig]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(b"gdh-transcript");
    for v in values {
        let b = v.to_bytes_be();
        h.update(&(b.len() as u64).to_be_bytes());
        h.update(&b);
    }
    h.finalize()
}

/// Runs a complete `m`-party GDH.2 instance in memory.
///
/// # Errors
///
/// Propagates protocol errors (none occur for honest inputs).
pub fn run(
    group: &SchnorrGroup,
    m: usize,
    rng: &mut (impl RngCore + ?Sized),
) -> Result<Vec<SessionOutput>, DgkaError> {
    let parties: Vec<Party<'_>> = (0..m)
        .map(|i| Party::new(group, m, i, rng))
        .collect::<Result<_, _>>()?;
    let mut upflow = parties[0].initiate()?;
    let mut broadcast = None;
    for p in &parties[1..] {
        match p.advance(&upflow)? {
            Step::Upflow(next) => upflow = next,
            Step::Broadcast(b) => {
                broadcast = Some(b);
                break;
            }
        }
    }
    let broadcast = broadcast.ok_or(DgkaError::ProtocolViolation)?;
    parties.iter().map(|p| p.finish(&broadcast)).collect()
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
        rand::rngs::StdRng::seed_from_u64(81)
    }

    #[test]
    fn all_parties_agree() {
        let mut r = rng();
        for m in [2usize, 3, 6] {
            let outputs = run(group(), m, &mut r).unwrap();
            for o in &outputs[1..] {
                assert_eq!(o.key, outputs[0].key, "m = {m}");
            }
        }
    }

    #[test]
    fn gdh_and_bd_derive_distinct_keys() {
        // Same group, same rng stream — the protocols are domain-separated
        // by their KDF labels.
        let mut r = rng();
        let a = run(group(), 3, &mut r).unwrap();
        let b = crate::bd::run(group(), 3, &mut r).unwrap();
        assert_ne!(a[0].key, b[0].key);
    }

    #[test]
    fn out_of_position_rejected() {
        let mut r = rng();
        let p1 = Party::new(group(), 3, 1, &mut r).unwrap();
        let p2 = Party::new(group(), 3, 2, &mut r).unwrap();
        assert!(p1.initiate().is_err());
        let p0 = Party::new(group(), 3, 0, &mut r).unwrap();
        let up = p0.initiate().unwrap();
        // Party 2 cannot consume the initiator's message (wrong position).
        assert_eq!(p2.advance(&up).err(), Some(DgkaError::ProtocolViolation));
        // Party 1 can.
        p1.advance(&up).unwrap();
    }

    #[test]
    fn tampered_upflow_rejected() {
        let mut r = rng();
        let p0 = Party::new(group(), 2, 0, &mut r).unwrap();
        let p1 = Party::new(group(), 2, 1, &mut r).unwrap();
        let mut up = p0.initiate().unwrap();
        up.cumulative = Ubig::from_u64(5);
        if !group().is_member(&up.cumulative) {
            assert_eq!(p1.advance(&up).err(), Some(DgkaError::BadElement));
        }
    }

    #[test]
    fn short_broadcast_rejected() {
        let mut r = rng();
        let p0 = Party::new(group(), 3, 0, &mut r).unwrap();
        let b = Broadcast {
            values: vec![group().g().clone()],
        };
        assert_eq!(p0.finish(&b).err(), Some(DgkaError::MissingMessage));
    }

    #[test]
    fn work_grows_with_position() {
        let mut r = rng();
        let m = 8;
        let parties: Vec<Party<'_>> = (0..m)
            .map(|i| Party::new(group(), m, i, &mut r).unwrap())
            .collect();
        let mut upflow = parties[0].initiate().unwrap();
        let mut costs = Vec::new();
        for p in &parties[1..] {
            let (counts, step) = shs_bigint::counters::measure(|| p.advance(&upflow));
            costs.push(counts.modexp);
            match step.unwrap() {
                Step::Upflow(next) => upflow = next,
                Step::Broadcast(_) => break,
            }
        }
        // Later parties exponentiate more (membership checks + partials).
        assert!(costs.last().unwrap() > costs.first().unwrap(), "{costs:?}");
    }
}
