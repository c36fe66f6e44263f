//! HKDF (RFC 5869) on HMAC-SHA-256.
//!
//! Used throughout the workspace to derive symmetric keys from group
//! elements (DGKA session keys), from CGKD key material, and to expand hash
//! outputs for hash-to-group constructions.

use crate::hmac;

/// HKDF-Extract: compresses input keying material into a pseudorandom key.
pub fn extract(salt: &[u8], ikm: &[u8]) -> [u8; 32] {
    hmac::mac(salt, ikm)
}

/// HKDF-Expand: stretches a pseudorandom key to `len` output bytes.
///
/// # Panics
///
/// Panics if `len > 255 * 32` (the RFC 5869 limit).
pub fn expand(prk: &[u8; 32], info: &[u8], len: usize) -> Vec<u8> {
    assert!(len <= 255 * 32, "HKDF-Expand output too long");
    let mut out = Vec::with_capacity(len);
    // One keyed state for every block: each block clones it instead of
    // hashing the key pads again.
    let keyed = hmac::HmacSha256::new(prk);
    let mut t: &[u8] = &[];
    let mut counter = 1u8;
    while out.len() < len {
        let block = keyed
            .clone()
            .chain(t)
            .chain(info)
            .chain(&[counter])
            .finalize();
        let take = (len - out.len()).min(32);
        out.extend_from_slice(&block[..take]);
        t = &out[out.len() - take..];
        counter = counter.saturating_add(1);
    }
    out
}

/// One-shot HKDF (extract then expand).
pub fn hkdf(salt: &[u8], ikm: &[u8], info: &[u8], len: usize) -> Vec<u8> {
    expand(&extract(salt, ikm), info, len)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn rfc5869_case1() {
        let ikm = [0x0b; 22];
        let salt: Vec<u8> = (0x00..=0x0c).collect();
        let info: Vec<u8> = (0xf0..=0xf9).collect();
        let prk = extract(&salt, &ikm);
        assert_eq!(
            hex(&prk),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
        );
        let okm = expand(&prk, &info, 42);
        assert_eq!(
            hex(&okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
        );
    }

    #[test]
    fn rfc5869_case3_empty_salt_info() {
        let ikm = [0x0b; 22];
        let okm = hkdf(&[], &ikm, &[], 42);
        assert_eq!(
            hex(&okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d9d201395faa4b61a96c8"
        );
    }

    #[test]
    fn long_output() {
        let okm = hkdf(b"salt", b"ikm", b"info", 100);
        assert_eq!(okm.len(), 100);
        // First 32 bytes match a single-block expansion.
        let prk = extract(b"salt", b"ikm");
        assert_eq!(&okm[..32], &expand(&prk, b"info", 32)[..]);
    }

    #[test]
    fn different_info_different_output() {
        assert_ne!(hkdf(b"s", b"k", b"a", 32), hkdf(b"s", b"k", b"b", 32));
    }
}
