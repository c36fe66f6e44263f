//! Schnorr signatures over a Schnorr group — the long-term-key signature
//! primitive used by the Katz–Yung authenticated-key-agreement compiler
//! ([`crate::ake`]).

use rand::RngCore;
use shs_bigint::Ubig;
use shs_crypto::sha256::Sha256;
use shs_groups::schnorr::SchnorrGroup;

/// A long-term signing key `x ∈ Z_q`.
#[derive(Clone)]
pub struct SigningKey {
    x: Ubig,
}

impl std::fmt::Debug for SigningKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sig::SigningKey(****)")
    }
}

/// The matching verification key `y = g^x`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct VerifyKey {
    /// `g^x mod p`.
    pub y: Ubig,
}

/// A Schnorr signature `(R, s)` with `g^s = R · y^{H(R‖y‖m)}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signature {
    /// Commitment `g^r`.
    pub big_r: Ubig,
    /// Response `s = r + e·x mod q`.
    pub s: Ubig,
}

/// Generates a keypair.
pub fn keygen(group: &SchnorrGroup, rng: &mut (impl RngCore + ?Sized)) -> (SigningKey, VerifyKey) {
    let x = group.random_exponent(rng);
    let y = group.exp_g(&x);
    (SigningKey { x }, VerifyKey { y })
}

fn challenge(group: &SchnorrGroup, big_r: &Ubig, y: &Ubig, msg: &[u8]) -> Ubig {
    let pw = (group.p().bits() as usize).div_ceil(8);
    let digest = Sha256::new()
        .chain(b"shs-schnorr-sig")
        .chain(&big_r.to_bytes_be_padded(pw))
        .chain(&y.to_bytes_be_padded(pw))
        .chain(&(msg.len() as u64).to_be_bytes())
        .chain(msg)
        .finalize();
    Ubig::from_bytes_be(&digest).rem(group.q())
}

/// Signs a message.
pub fn sign(
    group: &SchnorrGroup,
    sk: &SigningKey,
    vk: &VerifyKey,
    msg: &[u8],
    rng: &mut (impl RngCore + ?Sized),
) -> Signature {
    let r = group.random_exponent(rng);
    let big_r = group.exp_g(&r);
    let e = challenge(group, &big_r, &vk.y, msg);
    let s = r.addm(&e.mulm(&sk.x, group.q()), group.q());
    Signature { big_r, s }
}

/// Verifies a signature.
pub fn verify(group: &SchnorrGroup, vk: &VerifyKey, msg: &[u8], sig: &Signature) -> bool {
    if !group.is_member(&sig.big_r) || sig.s >= *group.q() {
        return false;
    }
    let e = challenge(group, &sig.big_r, &vk.y, msg);
    // g^s == R · y^e
    group.exp_g(&sig.s) == group.mul(&sig.big_r, &group.exp(&vk.y, &e))
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
    fn sign_verify_roundtrip() {
        let mut r = rand::rngs::StdRng::seed_from_u64(90);
        let (sk, vk) = keygen(group(), &mut r);
        let sig = sign(group(), &sk, &vk, b"hello", &mut r);
        assert!(verify(group(), &vk, b"hello", &sig));
        assert!(!verify(group(), &vk, b"hullo", &sig));
    }

    #[test]
    fn wrong_key_rejected() {
        let mut r = rand::rngs::StdRng::seed_from_u64(91);
        let (sk, vk) = keygen(group(), &mut r);
        let (_, vk2) = keygen(group(), &mut r);
        let sig = sign(group(), &sk, &vk, b"m", &mut r);
        assert!(!verify(group(), &vk2, b"m", &sig));
    }

    #[test]
    fn malleated_signature_rejected() {
        let mut r = rand::rngs::StdRng::seed_from_u64(92);
        let (sk, vk) = keygen(group(), &mut r);
        let sig = sign(group(), &sk, &vk, b"m", &mut r);
        let bad_s = Signature {
            big_r: sig.big_r.clone(),
            s: sig.s.add_u64(1).rem(group().q()),
        };
        assert!(!verify(group(), &vk, b"m", &bad_s));
        let bad_r = Signature {
            big_r: group().random_element(&mut r),
            s: sig.s,
        };
        assert!(!verify(group(), &vk, b"m", &bad_r));
    }

    #[test]
    fn signatures_are_randomized() {
        let mut r = rand::rngs::StdRng::seed_from_u64(93);
        let (sk, vk) = keygen(group(), &mut r);
        let s1 = sign(group(), &sk, &vk, b"m", &mut r);
        let s2 = sign(group(), &sk, &vk, b"m", &mut r);
        assert_ne!(s1, s2);
    }

    #[test]
    fn out_of_range_s_rejected() {
        let mut r = rand::rngs::StdRng::seed_from_u64(94);
        let (sk, vk) = keygen(group(), &mut r);
        let sig = sign(group(), &sk, &vk, b"m", &mut r);
        let bad = Signature {
            big_r: sig.big_r,
            s: sig.s.add(group().q()),
        };
        assert!(!verify(group(), &vk, b"m", &bad));
    }
}
