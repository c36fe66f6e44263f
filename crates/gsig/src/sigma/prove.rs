//! The prover of every GSIG relation. Its exponents are secret (witnesses,
//! blinds and their products), so it runs on the constant-trace kernels
//! only: key bases and known-log elements through the masked fixed-base
//! tables at the public width of each term's bound, direct elements
//! through `RsaGroup::exp_signed`.

use super::{Base, Relation};
use crate::params::pow2;
use rand::RngCore;
use shs_bigint::{rng as brng, Int, Sign, Ubig};

/// Proves knowledge of `secrets` (one per witness) for `rel`: blinds drawn
/// in witness order, commitments, challenge, then `s = ρ − c·(v − o)`
/// over `Z`. Returns the `M` commitments (one per equation), the
/// challenge and one response per witness. `negate` is the hook behind
/// the schemes' `sign_negated`: commitment `j` becomes `n − B_j` before
/// the challenge.
///
/// # Panics
///
/// Panics if the relation declares other than `M` equations or `W`
/// witnesses.
pub(crate) fn prove<const M: usize, const W: usize>(
    rel: &Relation<'_>,
    secrets: [&Ubig; W],
    negate: Option<usize>,
    rng: &mut (impl RngCore + ?Sized),
) -> ([Ubig; M], Ubig, [Int; W]) {
    let blinds: Vec<Int> = rel
        .witnesses
        .iter()
        .map(|w| sample_blind(w.1, rng))
        .collect();
    let pow = |(base, w, neg): &(Base<'_>, usize, bool)| {
        let e = if *neg {
            blinds[*w].neg()
        } else {
            blinds[*w].clone()
        };
        let bits = rel.witnesses[*w].1;
        match *base {
            Base::Key(key) => key.pow(&e, bits),
            Base::Logged(_, key, (log, log_bits)) => {
                key.pow(&Int::from_ubig(log.clone()).mul(&e), log_bits + bits)
            }
            Base::Direct(v) => rel.rsa.exp_signed(v, &e),
        }
    };
    let mut commitments: Vec<Ubig> = rel
        .eqs
        .iter()
        .map(|eq| eq.0.iter().map(pow).reduce(|acc, v| rel.rsa.mul(&acc, &v)))
        .map(|b| b.unwrap_or_else(Ubig::one))
        .collect();
    if let Some(j) = negate {
        commitments[j] = rel.rsa.n().sub(&commitments[j]);
    }
    let c = rel.transcript(&commitments).challenge(rel.k);
    let responses: Vec<Int> = blinds
        .iter()
        .zip(secrets)
        .zip(&rel.witnesses)
        .map(|((rho, v), w)| {
            let v_hat = Int::from_ubig(v.clone()).sub(&w.centre());
            rho.sub(&Int::from_ubig(c.clone()).mul(&v_hat))
        })
        .collect();
    (array(commitments), c, array(responses))
}

/// Samples a blind uniformly from `±[0, 2^bits)`.
fn sample_blind(bits: u32, rng: &mut (impl RngCore + ?Sized)) -> Int {
    let mag = brng::below(rng, &pow2(bits));
    let sign = if rng.next_u32() & 1 == 1 {
        Sign::Minus
    } else {
        Sign::Plus
    };
    Int::new(sign, mag)
}

/// Moves a vector the relation sized into an array.
fn array<T, const N: usize>(v: Vec<T>) -> [T; N] {
    v.try_into()
        .unwrap_or_else(|_| panic!("the relation declares {N} items"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn blind_sampling_range() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(51);
        let mut saw_negative = false;
        for _ in 0..50 {
            let b = sample_blind(64, &mut rng);
            assert!(b.magnitude().bits() <= 64);
            saw_negative |= b.is_negative();
        }
        assert!(saw_negative, "sign bit should vary");
    }
}
