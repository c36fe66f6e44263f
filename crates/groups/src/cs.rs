//! Cramer–Shoup hybrid encryption (IND-CCA2 in the standard model).
//!
//! `GCD.CreateGroup` (§7) requires the group authority to hold a keypair
//! "with respect to an IND-CCA2 secure public key cryptosystem" — the
//! *tracing key* `(pk_T, sk_T)`. Handshake participants publish
//! `δ_i = ENC(pk_T, k'_i)`, and `GCD.TraceUser` decrypts these to recover
//! the session keys and open the group signatures.
//!
//! The construction is the classic Cramer–Shoup '98 scheme used as a KEM:
//! the CS "message" slot carries `h^r`, a symmetric key is derived from it,
//! and an AEAD (DEM) carries the arbitrary-length payload. The hash `α`
//! binding `(u1, u2, e)` makes the DEM ciphertext non-malleable together
//! with the CS validity tag `v`.

use crate::schnorr::SchnorrGroup;
use crate::GroupError;
use rand::RngCore;
use serde::{Deserialize, Serialize};
use shs_bigint::Ubig;
use shs_crypto::{aead, sha256};

/// A Cramer–Shoup public key.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PublicKey {
    /// Second generator (random subgroup element).
    pub g2: Ubig,
    /// `c = g1^{x1} g2^{x2}`.
    pub c: Ubig,
    /// `d = g1^{y1} g2^{y2}`.
    pub d: Ubig,
    /// `h = g1^z` — the KEM element.
    pub h: Ubig,
}

/// A Cramer–Shoup secret key.
#[derive(Clone, Serialize, Deserialize)]
pub struct SecretKey {
    x1: Ubig,
    x2: Ubig,
    y1: Ubig,
    y2: Ubig,
    z: Ubig,
}

impl std::fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cs::SecretKey(****)")
    }
}

/// A hybrid Cramer–Shoup ciphertext.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Ciphertext {
    /// `g1^r`.
    pub u1: Ubig,
    /// `g2^r`.
    pub u2: Ubig,
    /// AEAD encryption of the payload under the KEM key.
    pub dem: Vec<u8>,
    /// Validity tag `v = c^r d^{rα}`.
    pub v: Ubig,
}

impl Ciphertext {
    /// Total serialized payload length in bytes (used by the handshake to
    /// produce shape-identical decoys).
    pub fn dem_len(&self) -> usize {
        self.dem.len()
    }
}

/// Generates a Cramer–Shoup keypair over the given Schnorr group.
pub fn keygen(group: &SchnorrGroup, rng: &mut (impl RngCore + ?Sized)) -> (PublicKey, SecretKey) {
    let g2 = loop {
        let candidate = group.random_element(rng);
        if !candidate.is_one() {
            break candidate;
        }
    };
    let x1 = group.random_exponent(rng);
    let x2 = group.random_exponent(rng);
    let y1 = group.random_exponent(rng);
    let y2 = group.random_exponent(rng);
    let z = group.random_exponent(rng);
    let c = group.mul(&group.exp_g(&x1), &group.exp(&g2, &x2));
    let d = group.mul(&group.exp_g(&y1), &group.exp(&g2, &y2));
    let h = group.exp_g(&z);
    (PublicKey { g2, c, d, h }, SecretKey { x1, x2, y1, y2, z })
}

/// Hashes `(u1, u2, e)` to an exponent `α ∈ Z_q`.
fn alpha(group: &SchnorrGroup, u1: &Ubig, u2: &Ubig, dem: &[u8]) -> Ubig {
    let len = (group.p().bits() as usize).div_ceil(8);
    let digest = sha256::Sha256::new()
        .chain(b"shs-cs-alpha")
        .chain(&u1.to_bytes_be_padded(len))
        .chain(&u2.to_bytes_be_padded(len))
        .chain(&(dem.len() as u64).to_be_bytes())
        .chain(dem)
        .finalize();
    Ubig::from_bytes_be(&digest).rem(group.q())
}

/// Encrypts an arbitrary byte payload.
pub fn encrypt(
    group: &SchnorrGroup,
    pk: &PublicKey,
    payload: &[u8],
    rng: &mut (impl RngCore + ?Sized),
) -> Ciphertext {
    // Every base is the generator or a tracing-key component: fixed-base
    // tables.
    let r = group.random_exponent(rng);
    let u1 = group.exp_g(&r);
    let u2 = group.exp_fixed(&pk.g2, &r);
    let kem = group.exp_fixed(&pk.h, &r);
    let key = group.element_to_key(&kem, "cs-dem");
    let dem = aead::seal(&key, payload, b"cs-hybrid-v1", rng);
    let a = alpha(group, &u1, &u2, &dem);
    let v = group.mul(
        &group.exp_fixed(&pk.c, &r),
        &group.exp_fixed(&pk.d, &r.mulm(&a, group.q())),
    );
    Ciphertext { u1, u2, dem, v }
}

/// Decrypts and checks validity.
///
/// # Errors
///
/// [`GroupError::DecryptionFailed`] when the validity tag or the DEM
/// authentication fails; [`GroupError::NotInGroup`] when `u1`/`u2` are not
/// subgroup members.
pub fn decrypt(
    group: &SchnorrGroup,
    sk: &SecretKey,
    ct: &Ciphertext,
) -> Result<Vec<u8>, GroupError> {
    if !group.is_member(&ct.u1) || !group.is_member(&ct.u2) || !group.is_member(&ct.v) {
        return Err(GroupError::NotInGroup);
    }
    let a = alpha(group, &ct.u1, &ct.u2, &ct.dem);
    // v ?= u1^{x1 + y1 α} · u2^{x2 + y2 α}
    let e1 = sk.x1.addm(&sk.y1.mulm(&a, group.q()), group.q());
    let e2 = sk.x2.addm(&sk.y2.mulm(&a, group.q()), group.q());
    let check = group.mul(&group.exp(&ct.u1, &e1), &group.exp(&ct.u2, &e2));
    if check != ct.v {
        return Err(GroupError::DecryptionFailed);
    }
    let kem = group.exp(&ct.u1, &sk.z);
    let key = group.element_to_key(&kem, "cs-dem");
    aead::open(&key, &ct.dem, b"cs-hybrid-v1").map_err(|_| GroupError::DecryptionFailed)
}

/// Produces a *decoy* ciphertext: random group elements and a random DEM
/// blob of the right length.
///
/// Used by Phase III CASE 2 of the handshake — after a failed preliminary
/// handshake each party publishes `(θ_i, δ_i)` "randomly selected from the
/// ciphertext spaces" (§7), and this is the `δ_i` part.
pub fn random_ciphertext(
    group: &SchnorrGroup,
    payload_len: usize,
    rng: &mut (impl RngCore + ?Sized),
) -> Ciphertext {
    Ciphertext {
        u1: group.random_element(rng),
        u2: group.random_element(rng),
        dem: aead::random_ciphertext(payload_len, rng),
        v: group.random_element(rng),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schnorr::SchnorrPreset;
    use rand::SeedableRng;

    fn group() -> &'static SchnorrGroup {
        SchnorrGroup::system_wide(SchnorrPreset::Test)
    }

    #[test]
    fn roundtrip() {
        let g = group();
        let mut rng = rand::rngs::StdRng::seed_from_u64(20);
        let (pk, sk) = keygen(g, &mut rng);
        for payload in [b"".as_slice(), b"k", &[7u8; 100]] {
            let ct = encrypt(g, &pk, payload, &mut rng);
            assert_eq!(decrypt(g, &sk, &ct).unwrap(), payload);
        }
    }

    #[test]
    fn tampered_dem_rejected() {
        let g = group();
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let (pk, sk) = keygen(g, &mut rng);
        let mut ct = encrypt(g, &pk, b"secret session key", &mut rng);
        ct.dem[0] ^= 1;
        assert!(decrypt(g, &sk, &ct).is_err());
    }

    #[test]
    fn swapped_u1_rejected() {
        // CCA-style malleation: replace u1 by a fresh group element.
        let g = group();
        let mut rng = rand::rngs::StdRng::seed_from_u64(22);
        let (pk, sk) = keygen(g, &mut rng);
        let mut ct = encrypt(g, &pk, b"payload", &mut rng);
        ct.u1 = g.random_element(&mut rng);
        assert!(decrypt(g, &sk, &ct).is_err());
    }

    #[test]
    fn reencrypt_tag_mismatch() {
        // Mixing (u1,u2,v) of one ciphertext with the DEM of another fails.
        let g = group();
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let (pk, sk) = keygen(g, &mut rng);
        let a = encrypt(g, &pk, b"aaaaaaa", &mut rng);
        let b = encrypt(g, &pk, b"bbbbbbb", &mut rng);
        let mixed = Ciphertext {
            u1: a.u1,
            u2: a.u2,
            dem: b.dem,
            v: a.v,
        };
        assert!(decrypt(g, &sk, &mixed).is_err());
    }

    #[test]
    fn decoy_has_right_shape() {
        let g = group();
        let mut rng = rand::rngs::StdRng::seed_from_u64(24);
        let (pk, sk) = keygen(g, &mut rng);
        let real = encrypt(g, &pk, &[0u8; 32], &mut rng);
        let fake = random_ciphertext(g, 32, &mut rng);
        assert_eq!(real.dem.len(), fake.dem.len());
        // Decoys decrypt to an error, not a panic.
        assert!(decrypt(g, &sk, &fake).is_err());
    }

    #[test]
    fn non_member_elements_rejected() {
        let g = group();
        let mut rng = rand::rngs::StdRng::seed_from_u64(25);
        let (pk, sk) = keygen(g, &mut rng);
        let mut ct = encrypt(g, &pk, b"x", &mut rng);
        ct.u2 = Ubig::from_u64(2); // almost surely not in the subgroup
        if !g.is_member(&ct.u2) {
            assert_eq!(decrypt(g, &sk, &ct), Err(GroupError::NotInGroup));
        }
    }
}
