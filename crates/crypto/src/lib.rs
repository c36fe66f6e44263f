//! From-scratch symmetric cryptography for the `secret-handshakes`
//! workspace.
//!
//! The GCD framework needs, besides public-key machinery, a small symmetric
//! toolbox: a hash for Fiat–Shamir challenges, a MAC for Phase II of the
//! handshake, a symmetric cipher for `SENC`/`SDEC` of Phase III and for
//! CGKD rekey messages, a KDF to turn group elements into keys, and a
//! deterministic DRBG for reproducible tests. All of it is implemented here
//! with no external crypto dependencies:
//!
//! * [`sha256`] — SHA-256 (FIPS 180-4).
//! * [`hmac`] — HMAC-SHA-256 (RFC 2104).
//! * [`hkdf`] — HKDF (RFC 5869).
//! * [`chacha20`] — the ChaCha20 stream cipher (RFC 8439).
//! * [`aead`] — encrypt-then-MAC authenticated encryption built from
//!   ChaCha20 + HMAC-SHA-256.
//! * [`drbg`] — HMAC-DRBG (NIST SP 800-90A) implementing
//!   [`rand::RngCore`].
//! * [`ct`] — constant-time comparison.
//! * [`wipe`] — best-effort zeroization of secret buffers.
//!
//! # Example
//!
//! ```rust
//! use shs_crypto::{aead, Key};
//!
//! let key = Key::from_bytes([7u8; 32]);
//! let mut rng = rand::thread_rng();
//! let ct = aead::seal(&key, b"attack at dawn", b"header", &mut rng);
//! let pt = aead::open(&key, &ct, b"header").expect("authentic");
//! assert_eq!(pt, b"attack at dawn");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aead;
pub mod chacha20;
pub mod ct;
pub mod drbg;
pub mod hkdf;
pub mod hmac;
pub mod sha256;
pub mod wipe;

/// A 256-bit symmetric key.
///
/// Used for group keys (CGKD), session keys (DGKA), the blinded keys
/// `k' = k* ⊕ k` of the handshake, and all MAC/cipher keys derived from
/// them.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Key([u8; 32]);

impl Key {
    /// Byte length of a key.
    pub const LEN: usize = 32;

    /// Wraps raw bytes as a key.
    pub fn from_bytes(bytes: [u8; 32]) -> Key {
        Key(bytes)
    }

    /// Borrows the raw bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// A fresh uniformly random key.
    pub fn random(rng: &mut (impl rand::RngCore + ?Sized)) -> Key {
        let mut b = [0u8; 32];
        rng.fill_bytes(&mut b);
        Key(b)
    }

    /// Bitwise XOR of two keys — used to blind the DGKA session key with
    /// the CGKD group key (`k' = k* ⊕ k`, §7 Phase I).
    pub fn xor(&self, other: &Key) -> Key {
        let mut out = [0u8; 32];
        for (o, (a, b)) in out.iter_mut().zip(self.0.iter().zip(other.0.iter())) {
            *o = a ^ b;
        }
        Key(out)
    }

    /// Derives a key from arbitrary input keying material with a labelled
    /// HKDF invocation.
    pub fn derive(ikm: &[u8], label: &str) -> Key {
        let okm = hkdf::hkdf(&[], ikm, label.as_bytes(), 32);
        let mut b = [0u8; 32];
        b.copy_from_slice(&okm);
        Key(b)
    }

    /// Constant-time equality check.
    pub fn ct_eq(&self, other: &Key) -> bool {
        ct::eq(&self.0, &other.0)
    }

    /// Zeroizes the key material in place. Called automatically on drop.
    fn wipe_in_place(&mut self) {
        wipe::wipe(&mut self.0);
    }
}

impl Drop for Key {
    fn drop(&mut self) {
        self.wipe_in_place();
    }
}

impl std::fmt::Debug for Key {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        write!(f, "Key(****)")
    }
}

impl AsRef<[u8]> for Key {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; 32]> for Key {
    fn from(b: [u8; 32]) -> Key {
        Key(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xor_is_involutive() {
        let a = Key::from_bytes([0xAA; 32]);
        let b = Key::from_bytes([0x55; 32]);
        assert_eq!(a.xor(&b).xor(&b), a);
        assert_eq!(a.xor(&b).as_bytes(), &[0xFF; 32]);
    }

    #[test]
    fn derive_is_deterministic_and_label_separated() {
        let k1 = Key::derive(b"material", "label-a");
        let k2 = Key::derive(b"material", "label-a");
        let k3 = Key::derive(b"material", "label-b");
        assert_eq!(k1, k2);
        assert_ne!(k1, k3);
    }

    #[test]
    fn debug_hides_contents() {
        let k = Key::from_bytes([1; 32]);
        assert_eq!(format!("{k:?}"), "Key(****)");
    }

    #[test]
    fn drop_path_clears_key_bytes() {
        // `Drop` cannot be observed after the fact in safe code, so the
        // test exercises the exact routine `drop` runs.
        let mut k = Key::from_bytes([0xAB; 32]);
        k.wipe_in_place();
        assert_eq!(k.as_bytes(), &[0u8; 32]);
    }
}
