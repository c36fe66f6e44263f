//! HMAC-SHA-256 (RFC 2104 / FIPS 198-1).
//!
//! This is the MAC used in Phase II of the handshake protocol (§7: each
//! party publishes `MAC(k'_i, s‖i)`), and the PRF inside HKDF and
//! HMAC-DRBG.

use crate::sha256::{self, Sha256};

/// Output length of HMAC-SHA-256 in bytes.
pub const TAG_LEN: usize = 32;

/// Incremental HMAC-SHA-256.
///
/// Both keyed hashes are kept: the inner one with `K ⊕ ipad` absorbed and
/// the outer one with `K ⊕ opad` absorbed. A clone of a fresh instance is
/// therefore a keyed MAC that costs two SHA-256 compressions for a short
/// message instead of four, which is how HMAC-DRBG and HKDF-Expand reuse
/// one key across blocks.
#[derive(Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    outer: Sha256,
}

impl HmacSha256 {
    /// Starts a MAC computation under `key` (any length).
    pub fn new(key: &[u8]) -> HmacSha256 {
        let mut k = [0u8; 64];
        if key.len() > 64 {
            k[..32].copy_from_slice(&sha256::digest(key));
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let mut pad = [0u8; 64];
        for (p, &b) in pad.iter_mut().zip(&k) {
            *p = b ^ 0x36;
        }
        let inner = Sha256::new().chain(&pad);
        for (p, &b) in pad.iter_mut().zip(&k) {
            *p = b ^ 0x5c;
        }
        let outer = Sha256::new().chain(&pad);
        crate::wipe::wipe(&mut k);
        crate::wipe::wipe(&mut pad);
        HmacSha256 { inner, outer }
    }

    /// Absorbs message data.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Builder-style update.
    pub fn chain(mut self, data: &[u8]) -> HmacSha256 {
        self.update(data);
        self
    }

    /// Finishes and returns the tag.
    pub fn finalize(self) -> [u8; TAG_LEN] {
        let inner_digest = self.inner.finalize();
        self.outer.chain(&inner_digest).finalize()
    }

    /// Zeroizes both keyed hashes in place. Before it is finalized, an
    /// instance is as good as the key: anyone holding it can MAC under
    /// that key.
    pub(crate) fn wipe(&mut self) {
        self.inner.wipe();
        self.outer.wipe();
    }

    /// Whether both keyed hashes are wiped.
    #[cfg(test)]
    pub(crate) fn is_wiped(&self) -> bool {
        self.inner.is_wiped() && self.outer.is_wiped()
    }
}

/// One-shot HMAC-SHA-256.
pub fn mac(key: &[u8], data: &[u8]) -> [u8; TAG_LEN] {
    HmacSha256::new(key).chain(data).finalize()
}

/// Constant-time tag verification.
pub fn verify(key: &[u8], data: &[u8], tag: &[u8]) -> bool {
    crate::ct::eq(&mac(key, data), tag)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn rfc4231_case1() {
        let key = [0x0b; 20];
        let tag = mac(&key, b"Hi There");
        assert_eq!(
            hex(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case2() {
        let tag = mac(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case3() {
        let key = [0xaa; 20];
        let data = [0xdd; 50];
        let tag = mac(&key, &data);
        assert_eq!(
            hex(&tag),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case6_long_key() {
        let key = [0xaa; 131];
        let tag = mac(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex(&tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn verify_accepts_and_rejects() {
        let tag = mac(b"key", b"message");
        assert!(verify(b"key", b"message", &tag));
        assert!(!verify(b"key", b"massage", &tag));
        assert!(!verify(b"kay", b"message", &tag));
        let mut bad = tag;
        bad[0] ^= 1;
        assert!(!verify(b"key", b"message", &bad));
        // Truncated tags are rejected.
        assert!(!verify(b"key", b"message", &tag[..16]));
    }

    #[test]
    fn incremental_matches_oneshot() {
        let mut h = HmacSha256::new(b"secret");
        h.update(b"part one ");
        h.update(b"part two");
        assert_eq!(h.finalize(), mac(b"secret", b"part one part two"));
    }
}
