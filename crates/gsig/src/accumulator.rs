//! A Camenisch–Lysyanskaya dynamic accumulator over `QR(n)`.
//!
//! This is the revocation substrate the paper references when it notes
//! that GSIG revocation "is quite expensive, usually based on dynamic
//! accumulators \[12\]" (§3). The framework itself uses the cheaper
//! verifier-local revocation (DESIGN.md §2.2), but the accumulator is
//! implemented in full — add, trapdoor remove, witness updates, batched
//! catch-up — and the E9 revocation ablation benchmarks it against VLR and
//! CGKD-only revocation, reproducing the cost comparison behind the
//! paper's design choice.
//!
//! Values accumulated are the members' certificate primes `e_i ∈ Γ`
//! (pairwise distinct, coprime to `φ(n)`), exactly as in CL02 / ACJT
//! revocation.

use rand::RngCore;
use shs_bigint::{gcd, Ubig};
use shs_groups::rsa::{RsaGroup, RsaSecret};

/// The public accumulator value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Accumulator {
    /// The base `u` the accumulator started from.
    pub base: Ubig,
    /// The current value `v = u^{∏ e_i}`.
    pub value: Ubig,
}

/// A member's witness: `w` with `w^e = v`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Witness {
    /// The witness value.
    pub w: Ubig,
    /// The accumulated prime it certifies.
    pub e: Ubig,
}

/// An update event members replay to refresh their witnesses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateEvent {
    /// A prime was added; members raise their witness to it.
    Added(Ubig),
    /// A prime was removed; carries the *new* accumulator value so
    /// remaining members can re-derive their witness via Bézout.
    Removed {
        /// The removed prime.
        e: Ubig,
        /// Accumulator value after removal.
        new_value: Ubig,
    },
}

/// Errors from accumulator operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccumulatorError {
    /// The value to accumulate must be odd, > 2 and coprime to the order.
    BadValue,
    /// A witness update was attempted for the removed value itself.
    WitnessRevoked,
    /// Internal arithmetic failure (non-invertible where invertible
    /// expected).
    Arithmetic,
}

impl std::fmt::Display for AccumulatorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AccumulatorError::BadValue => write!(f, "value cannot be accumulated"),
            AccumulatorError::WitnessRevoked => write!(f, "witness belongs to the removed value"),
            AccumulatorError::Arithmetic => write!(f, "accumulator arithmetic failed"),
        }
    }
}

impl std::error::Error for AccumulatorError {}

impl Accumulator {
    /// Creates a fresh accumulator from a random `QR(n)` base.
    pub fn new(group: &RsaGroup, rng: &mut (impl RngCore + ?Sized)) -> Accumulator {
        let base = group.random_qr(rng);
        Accumulator {
            value: base.clone(),
            base,
        }
    }

    /// Adds a prime `e`: `v ← v^e`. Returns the witness for the *newly
    /// added* value (the pre-update accumulator) plus the event for other
    /// members.
    ///
    /// # Errors
    ///
    /// [`AccumulatorError::BadValue`] for even or tiny values.
    pub fn add(
        &mut self,
        group: &RsaGroup,
        e: &Ubig,
    ) -> Result<(Witness, UpdateEvent), AccumulatorError> {
        if e.is_even() || *e <= Ubig::from_u64(2) {
            return Err(AccumulatorError::BadValue);
        }
        let witness = Witness {
            w: self.value.clone(),
            e: e.clone(),
        };
        self.value = group.exp(&self.value, e);
        Ok((witness, UpdateEvent::Added(e.clone())))
    }

    /// Removes a prime using the manager trapdoor: `v ← v^{e^{-1} mod
    /// p'q'}`.
    ///
    /// # Errors
    ///
    /// [`AccumulatorError::Arithmetic`] when `gcd(e, p'q') != 1` (cannot
    /// happen for honest `e ∈ Γ`).
    pub fn remove(
        &mut self,
        group: &RsaGroup,
        secret: &RsaSecret,
        e: &Ubig,
    ) -> Result<UpdateEvent, AccumulatorError> {
        let d = e
            .modinv(&secret.qr_order())
            .map_err(|_| AccumulatorError::Arithmetic)?;
        self.value = group.exp(&self.value, &d);
        Ok(UpdateEvent::Removed {
            e: e.clone(),
            new_value: self.value.clone(),
        })
    }

    /// Verifies a witness against the current accumulator value.
    pub fn verify(&self, group: &RsaGroup, witness: &Witness) -> bool {
        group.exp(&witness.w, &witness.e) == self.value
    }

    /// Adds a whole batch of primes in one pass, returning each new
    /// member's witness against the **post-batch** value plus the event
    /// stream for existing members.
    ///
    /// Witness `i` is `v^{∏_{j≠i} e_j}`, computed as the prefix chain
    /// (`v` raised to all earlier primes one at a time) raised to the
    /// *product* of all later primes — one multi-bit exponentiation per
    /// member instead of the `O(k²)` single-prime updates sequential
    /// admission would replay.
    ///
    /// # Errors
    ///
    /// [`AccumulatorError::BadValue`] if any prime is even or tiny
    /// (checked up front; the accumulator is unchanged on error).
    pub fn add_batch(
        &mut self,
        group: &RsaGroup,
        es: &[Ubig],
    ) -> Result<(Vec<Witness>, Vec<UpdateEvent>), AccumulatorError> {
        for e in es {
            if e.is_even() || *e <= Ubig::from_u64(2) {
                return Err(AccumulatorError::BadValue);
            }
        }
        // suffix[i] = ∏_{j ≥ i} e_j  (suffix[len] = 1).
        let mut suffix = vec![Ubig::one(); es.len() + 1];
        for i in (0..es.len()).rev() {
            suffix[i] = es[i].mul(&suffix[i + 1]);
        }
        let mut witnesses = Vec::with_capacity(es.len());
        let mut prefix = self.value.clone();
        for (i, e) in es.iter().enumerate() {
            let w = if suffix[i + 1].is_one() {
                prefix.clone()
            } else {
                group.exp(&prefix, &suffix[i + 1])
            };
            witnesses.push(Witness { w, e: e.clone() });
            prefix = group.exp(&prefix, e);
        }
        self.value = prefix;
        Ok((
            witnesses,
            es.iter().map(|e| UpdateEvent::Added(e.clone())).collect(),
        ))
    }
}

impl Witness {
    /// Replays one update event on a member's witness.
    ///
    /// * `Added(e')`: `w ← w^{e'}`.
    /// * `Removed{e', v'}`: with Bézout `a·e + b·e' = 1`,
    ///   `w ← w^b · v'^a`.
    ///
    /// # Errors
    ///
    /// [`AccumulatorError::WitnessRevoked`] when replaying one's own
    /// removal; [`AccumulatorError::Arithmetic`] when the Bézout identity
    /// fails (non-coprime values).
    pub fn apply(&mut self, group: &RsaGroup, event: &UpdateEvent) -> Result<(), AccumulatorError> {
        match event {
            UpdateEvent::Added(e_new) => {
                self.w = group.exp(&self.w, e_new);
                Ok(())
            }
            UpdateEvent::Removed { e: e_rm, new_value } => {
                if e_rm == &self.e {
                    return Err(AccumulatorError::WitnessRevoked);
                }
                let (g, a, b) = gcd::ext_gcd(&self.e, e_rm);
                if !g.is_one() {
                    return Err(AccumulatorError::Arithmetic);
                }
                // w' = v'^a · w^b  satisfies  w'^e = v'^{ae} w^{be}
                //   = v'^{ae} (v')^{e_rm·b... }   — standard CL02 identity.
                let part1 = group.exp_signed(new_value, &a);
                let part2 = group.exp_signed(&self.w, &b);
                self.w = group.mul(&part1, &part2);
                Ok(())
            }
        }
    }

    /// Replays a whole event stream, folding every run of consecutive
    /// `Added` events into a single exponentiation by the product of
    /// the added primes — a member catching up on `k` additions pays
    /// one multi-bit exponentiation instead of `k` full-size ones.
    /// `Removed` events still apply one at a time (each needs its own
    /// Bézout identity against the then-current value).
    ///
    /// # Errors
    ///
    /// As [`Witness::apply`], at the first failing event; the witness
    /// state reflects every event before it.
    pub fn catch_up(
        &mut self,
        group: &RsaGroup,
        events: &[UpdateEvent],
    ) -> Result<(), AccumulatorError> {
        let mut pending: Option<Ubig> = None;
        for event in events {
            match event {
                UpdateEvent::Added(e_new) => {
                    pending = Some(match pending {
                        None => e_new.clone(),
                        Some(acc) => acc.mul(e_new),
                    });
                }
                UpdateEvent::Removed { .. } => {
                    if let Some(exp) = pending.take() {
                        self.w = group.exp(&self.w, &exp);
                    }
                    self.apply(group, event)?;
                }
            }
        }
        if let Some(exp) = pending {
            self.w = group.exp(&self.w, &exp);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use crate::params::{GsigParams, GsigPreset};
    use shs_crypto::drbg::HmacDrbg;

    fn setup() -> (&'static RsaGroup, &'static RsaSecret, Vec<Ubig>, HmacDrbg) {
        let (group, secret) = fixtures::test_rsa_setting();
        let params = GsigParams::preset(GsigPreset::Test);
        let rng = HmacDrbg::from_seed(b"acc-test");
        // Small distinct odd primes in Γ are expensive; use modest primes
        // coprime to everything instead (the algebra is identical).
        let primes: Vec<Ubig> = [65537u64, 65539, 65543, 65551, 65557]
            .iter()
            .map(|&p| Ubig::from_u64(p))
            .collect();
        let _ = params;
        (group, secret, primes, rng)
    }

    #[test]
    fn add_and_verify() {
        let (group, _secret, primes, mut rng) = setup();
        let mut acc = Accumulator::new(group, &mut rng);
        let (mut w0, _) = acc.add(group, &primes[0]).unwrap();
        assert!(acc.verify(group, &w0));
        // Adding another value invalidates w0 until updated.
        let (w1, ev) = acc.add(group, &primes[1]).unwrap();
        assert!(!acc.verify(group, &w0));
        w0.apply(group, &ev).unwrap();
        assert!(acc.verify(group, &w0));
        assert!(acc.verify(group, &w1));
    }

    #[test]
    fn remove_updates_witnesses() {
        let (group, secret, primes, mut rng) = setup();
        let mut acc = Accumulator::new(group, &mut rng);
        let (mut w0, _) = acc.add(group, &primes[0]).unwrap();
        let (mut w1, ev1) = acc.add(group, &primes[1]).unwrap();
        w0.apply(group, &ev1).unwrap();
        let (w2, ev2) = acc.add(group, &primes[2]).unwrap();
        w0.apply(group, &ev2).unwrap();
        w1.apply(group, &ev2).unwrap();
        // Remove member 2.
        let ev_rm = acc.remove(group, secret, &primes[2]).unwrap();
        w0.apply(group, &ev_rm).unwrap();
        w1.apply(group, &ev_rm).unwrap();
        assert!(acc.verify(group, &w0));
        assert!(acc.verify(group, &w1));
        // The removed member's witness no longer verifies and cannot be
        // updated past its own removal.
        let mut w2_stale = w2.clone();
        assert!(!acc.verify(group, &w2_stale));
        assert_eq!(
            w2_stale.apply(group, &ev_rm),
            Err(AccumulatorError::WitnessRevoked)
        );
    }

    #[test]
    fn long_churn_sequence() {
        let (group, secret, primes, mut rng) = setup();
        let mut acc = Accumulator::new(group, &mut rng);
        let mut witnesses: Vec<Witness> = Vec::new();
        // Add all five.
        for p in &primes {
            let (w, ev) = acc.add(group, p).unwrap();
            for old in witnesses.iter_mut() {
                old.apply(group, &ev).unwrap();
            }
            witnesses.push(w);
        }
        for w in &witnesses {
            assert!(acc.verify(group, w));
        }
        // Remove 0 and 3.
        for victim in [0usize, 3] {
            let ev = acc.remove(group, secret, &primes[victim]).unwrap();
            for w in witnesses.iter_mut() {
                // Victims' own applications error (WitnessRevoked); other
                // stale witnesses update but stay invalid.
                let _ = w.apply(group, &ev);
            }
        }
        // Survivors verify.
        for i in [1usize, 2, 4] {
            assert!(acc.verify(group, &witnesses[i]), "witness {i}");
        }
        assert!(!acc.verify(group, &witnesses[0]));
        assert!(!acc.verify(group, &witnesses[3]));
    }

    #[test]
    fn batch_add_matches_sequential() {
        let (group, _secret, primes, mut rng) = setup();
        // Sequential world.
        let mut acc_seq = Accumulator::new(group, &mut rng);
        let mut w_seq: Vec<Witness> = Vec::new();
        for p in &primes {
            let (w, ev) = acc_seq.add(group, p).unwrap();
            for old in w_seq.iter_mut() {
                old.apply(group, &ev).unwrap();
            }
            w_seq.push(w);
        }
        // Batched world, same base.
        let mut acc_batch = Accumulator {
            base: acc_seq.base.clone(),
            value: acc_seq.base.clone(),
        };
        let (w_batch, events) = acc_batch.add_batch(group, &primes).unwrap();
        assert_eq!(acc_seq.value, acc_batch.value);
        assert_eq!(events.len(), primes.len());
        for (i, (ws, wb)) in w_seq.iter().zip(&w_batch).enumerate() {
            assert_eq!(ws, wb, "witness {i}");
            assert!(acc_batch.verify(group, wb));
        }
    }

    #[test]
    fn catch_up_aggregates_added_runs() {
        let (group, secret, primes, mut rng) = setup();
        let mut acc = Accumulator::new(group, &mut rng);
        let (mut w0_step, mut events) = {
            let (w, ev) = acc.add(group, &primes[0]).unwrap();
            (w, vec![ev])
        };
        let mut w0_batch = w0_step.clone();
        // Churn: three additions, one removal, one more addition.
        for p in &primes[1..4] {
            let (_, ev) = acc.add(group, p).unwrap();
            events.push(ev);
        }
        events.push(acc.remove(group, secret, &primes[2]).unwrap());
        let (_, ev) = acc.add(group, &primes[4]).unwrap();
        events.push(ev);
        // Step-by-step vs catch-up: identical witness, both verify.
        for ev in &events[1..] {
            w0_step.apply(group, ev).unwrap();
        }
        w0_batch.catch_up(group, &events[1..]).unwrap();
        assert_eq!(w0_step, w0_batch);
        assert!(acc.verify(group, &w0_batch));
        // The removed member cannot catch up past its own removal.
        let mut w2 = Witness {
            w: Ubig::one(),
            e: primes[2].clone(),
        };
        assert_eq!(
            w2.catch_up(group, &events[1..]),
            Err(AccumulatorError::WitnessRevoked)
        );
    }

    #[test]
    fn rejects_even_values() {
        let (group, _secret, _primes, mut rng) = setup();
        let mut acc = Accumulator::new(group, &mut rng);
        assert_eq!(
            acc.add(group, &Ubig::from_u64(10)).err(),
            Some(AccumulatorError::BadValue)
        );
    }
}
