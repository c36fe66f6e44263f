//! Fixed-width encodings of the cryptographic objects that travel during
//! a handshake: group signatures (`σ`), tracing ciphertexts (`δ`) and CRL
//! deltas. All widths are functions of the public parameters only, so
//! every real payload has the exact length of its decoy.
//!
//! These layouts are versioned by the transport's wire version
//! (`shs_net::tcp::frame::VERSION`): signatures transmit their PoK
//! commitment vectors `B` since v2, which changed every σ width, so
//! changing a layout here requires bumping that constant (v1 peers are
//! then refused at the framing handshake instead of mis-decoding).

use crate::wire::{Reader, WireError, Writer};
use shs_bigint::Ubig;
use shs_groups::cs;
use shs_groups::schnorr::SchnorrGroup;
use shs_gsig::crl::CrlDelta;
use shs_gsig::ky::{MemberId, RevocationToken, Tags};
use shs_gsig::params::GsigParams;
use shs_gsig::{acjt, ky};

/// Byte width of the RSA modulus.
pub fn n_width(params: &GsigParams) -> usize {
    (params.modulus_bits as usize).div_ceil(8)
}

/// Byte width of a Fiat–Shamir response with the given blind size.
fn s_width(blind_bits: u32) -> usize {
    ((blind_bits + 2) as usize).div_ceil(8)
}

/// Width of the challenge field.
const C_WIDTH: usize = 32;

/// Widths of the five KY responses.
fn ky_widths(p: &GsigParams) -> [usize; 5] {
    [
        s_width(p.blind_bits(p.lambda2)),  // s_x
        s_width(p.blind_bits(p.lambda2)),  // s_xp
        s_width(p.blind_bits(p.gamma2)),   // s_e
        s_width(p.blind_bits(p.r_bits())), // s_r
        s_width(p.blind_bits(p.h_bits())), // s_h
    ]
}

/// Serialized length of a KY signature under these parameters: seven
/// tags plus the six transmitted commitments `B1..B6`, challenge and
/// responses.
pub fn ky_sig_len(p: &GsigParams) -> usize {
    13 * n_width(p) + C_WIDTH + ky_widths(p).iter().map(|w| w + 1).sum::<usize>()
}

/// Encodes a KY signature at fixed width.
pub fn encode_ky_sig(p: &GsigParams, sig: &ky::Signature) -> Vec<u8> {
    let nw = n_width(p);
    let [w_sx, w_sxp, w_se, w_sr, w_sh] = ky_widths(p);
    let mut w = Writer::new();
    for tag in [
        &sig.tags.t1,
        &sig.tags.t2,
        &sig.tags.t3,
        &sig.tags.t4,
        &sig.tags.t5,
        &sig.tags.t6,
        &sig.tags.t7,
    ] {
        w.put_ubig_fixed(tag, nw);
    }
    for bi in &sig.b {
        w.put_ubig_fixed(bi, nw);
    }
    w.put_ubig_fixed(&sig.c, C_WIDTH);
    w.put_int_fixed(&sig.s_x, w_sx);
    w.put_int_fixed(&sig.s_xp, w_sxp);
    w.put_int_fixed(&sig.s_e, w_se);
    w.put_int_fixed(&sig.s_r, w_sr);
    w.put_int_fixed(&sig.s_h, w_sh);
    debug_assert_eq!(w.len(), ky_sig_len(p));
    w.into_bytes()
}

/// Decodes a KY signature.
///
/// # Errors
///
/// [`WireError`] on truncation or malformed fields.
pub fn decode_ky_sig(p: &GsigParams, bytes: &[u8]) -> Result<ky::Signature, WireError> {
    let nw = n_width(p);
    let [w_sx, w_sxp, w_se, w_sr, w_sh] = ky_widths(p);
    let mut r = Reader::new(bytes);
    let t1 = r.take_ubig_fixed(nw)?;
    let t2 = r.take_ubig_fixed(nw)?;
    let t3 = r.take_ubig_fixed(nw)?;
    let t4 = r.take_ubig_fixed(nw)?;
    let t5 = r.take_ubig_fixed(nw)?;
    let t6 = r.take_ubig_fixed(nw)?;
    let t7 = r.take_ubig_fixed(nw)?;
    let mut b: [Ubig; 6] = Default::default();
    for bi in &mut b {
        *bi = r.take_ubig_fixed(nw)?;
    }
    let c = r.take_ubig_fixed(C_WIDTH)?;
    let s_x = r.take_int_fixed(w_sx)?;
    let s_xp = r.take_int_fixed(w_sxp)?;
    let s_e = r.take_int_fixed(w_se)?;
    let s_r = r.take_int_fixed(w_sr)?;
    let s_h = r.take_int_fixed(w_sh)?;
    r.finish()?;
    Ok(ky::Signature {
        tags: Tags {
            t1,
            t2,
            t3,
            t4,
            t5,
            t6,
            t7,
        },
        b,
        c,
        s_x,
        s_xp,
        s_e,
        s_r,
        s_h,
    })
}

/// Widths of the four ACJT responses.
fn acjt_widths(p: &GsigParams) -> [usize; 4] {
    [
        s_width(p.blind_bits(p.lambda2)),
        s_width(p.blind_bits(p.gamma2)),
        s_width(p.blind_bits(p.r_bits())),
        s_width(p.blind_bits(p.h_bits())),
    ]
}

/// Serialized length of an ACJT signature: three tags plus the four
/// transmitted commitments `B1..B4`, challenge and responses.
pub fn acjt_sig_len(p: &GsigParams) -> usize {
    7 * n_width(p) + C_WIDTH + acjt_widths(p).iter().map(|w| w + 1).sum::<usize>()
}

/// Encodes an ACJT signature at fixed width.
pub fn encode_acjt_sig(p: &GsigParams, sig: &acjt::Signature) -> Vec<u8> {
    let nw = n_width(p);
    let [w_sx, w_se, w_sw, w_sh] = acjt_widths(p);
    let mut w = Writer::new();
    w.put_ubig_fixed(&sig.t1, nw);
    w.put_ubig_fixed(&sig.t2, nw);
    w.put_ubig_fixed(&sig.t3, nw);
    for bi in &sig.b {
        w.put_ubig_fixed(bi, nw);
    }
    w.put_ubig_fixed(&sig.c, C_WIDTH);
    w.put_int_fixed(&sig.s_x, w_sx);
    w.put_int_fixed(&sig.s_e, w_se);
    w.put_int_fixed(&sig.s_w, w_sw);
    w.put_int_fixed(&sig.s_h, w_sh);
    debug_assert_eq!(w.len(), acjt_sig_len(p));
    w.into_bytes()
}

/// Decodes an ACJT signature.
///
/// # Errors
///
/// [`WireError`] on truncation or malformed fields.
pub fn decode_acjt_sig(p: &GsigParams, bytes: &[u8]) -> Result<acjt::Signature, WireError> {
    let nw = n_width(p);
    let [w_sx, w_se, w_sw, w_sh] = acjt_widths(p);
    let mut r = Reader::new(bytes);
    let t1 = r.take_ubig_fixed(nw)?;
    let t2 = r.take_ubig_fixed(nw)?;
    let t3 = r.take_ubig_fixed(nw)?;
    let mut b: [Ubig; 4] = Default::default();
    for bi in &mut b {
        *bi = r.take_ubig_fixed(nw)?;
    }
    let c = r.take_ubig_fixed(C_WIDTH)?;
    let s_x = r.take_int_fixed(w_sx)?;
    let s_e = r.take_int_fixed(w_se)?;
    let s_w = r.take_int_fixed(w_sw)?;
    let s_h = r.take_int_fixed(w_sh)?;
    r.finish()?;
    Ok(acjt::Signature {
        t1,
        t2,
        t3,
        b,
        c,
        s_x,
        s_e,
        s_w,
        s_h,
    })
}

/// Byte width of a Schnorr-group element.
pub fn p_width(group: &SchnorrGroup) -> usize {
    (group.p().bits() as usize).div_ceil(8)
}

/// Byte width of a Schnorr-group exponent (mod `q`).
pub fn q_width(group: &SchnorrGroup) -> usize {
    (group.q().bits() as usize).div_ceil(8)
}

/// Serialized length of a tracing ciphertext `δ` for a `payload_len`-byte
/// plaintext.
pub fn delta_len(group: &SchnorrGroup, payload_len: usize) -> usize {
    3 * p_width(group) + 4 + payload_len + shs_crypto::aead::OVERHEAD
}

/// Encodes a Cramer–Shoup ciphertext at fixed width.
pub fn encode_delta(group: &SchnorrGroup, ct: &cs::Ciphertext) -> Vec<u8> {
    let pw = p_width(group);
    let mut w = Writer::new();
    w.put_ubig_fixed(&ct.u1, pw);
    w.put_ubig_fixed(&ct.u2, pw);
    w.put_ubig_fixed(&ct.v, pw);
    w.put_bytes(&ct.dem);
    w.into_bytes()
}

/// Decodes a Cramer–Shoup ciphertext.
///
/// # Errors
///
/// [`WireError`] on truncation.
pub fn decode_delta(group: &SchnorrGroup, bytes: &[u8]) -> Result<cs::Ciphertext, WireError> {
    let pw = p_width(group);
    let mut r = Reader::new(bytes);
    let u1 = r.take_ubig_fixed(pw)?;
    let u2 = r.take_ubig_fixed(pw)?;
    let v = r.take_ubig_fixed(pw)?;
    let dem = r.take_bytes()?;
    r.finish()?;
    Ok(cs::Ciphertext { u1, u2, dem, v })
}

/// Width used for CRL revocation-token trapdoors (`x < 2^{λ1+1}`).
fn token_width(p: &GsigParams) -> usize {
    ((p.lambda1 + 2) as usize).div_ceil(8)
}

/// Encodes a CRL delta for inclusion in an encrypted group update.
pub fn encode_crl_delta(p: &GsigParams, delta: &CrlDelta) -> Vec<u8> {
    let tw = token_width(p);
    let mut w = Writer::new();
    w.put_u64(delta.from_version);
    w.put_u64(delta.to_version);
    w.put_u32(delta.new_tokens.len() as u32);
    for t in &delta.new_tokens {
        w.put_u64(t.id.0);
        w.put_ubig_fixed(&t.x, tw);
    }
    w.into_bytes()
}

/// Decodes a CRL delta.
///
/// # Errors
///
/// [`WireError`] on truncation, or [`WireError::BadLength`] for a token
/// count the remaining bytes cannot hold (checked before anything is
/// reserved for it).
pub fn decode_crl_delta(p: &GsigParams, bytes: &[u8]) -> Result<CrlDelta, WireError> {
    let tw = token_width(p);
    let mut r = Reader::new(bytes);
    let from_version = r.take_u64()?;
    let to_version = r.take_u64()?;
    let count = r.take_u32()? as usize;
    if count > r.remaining() / (8 + tw) {
        return Err(WireError::BadLength);
    }
    let mut new_tokens = Vec::with_capacity(count);
    for _ in 0..count {
        let id = MemberId(r.take_u64()?);
        let x = r.take_ubig_fixed(tw)?;
        new_tokens.push(RevocationToken { id, x });
    }
    r.finish()?;
    Ok(CrlDelta {
        from_version,
        to_version,
        new_tokens,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use shs_crypto::drbg::HmacDrbg;
    use shs_groups::schnorr::{SchnorrGroup, SchnorrPreset};
    use shs_gsig::fixtures;
    use shs_gsig::ky::SignBasis;

    #[test]
    fn ky_signature_roundtrip_and_fixed_len() {
        let (gm, keys) = fixtures::group_with_members(2);
        let pk = gm.public_key();
        let mut rng = HmacDrbg::from_seed(b"codec-ky");
        let s1 = ky::sign(pk, &keys[0], b"m1", SignBasis::Random, &mut rng);
        let s2 = ky::sign(pk, &keys[1], b"m2", SignBasis::Random, &mut rng);
        let b1 = encode_ky_sig(&pk.params, &s1);
        let b2 = encode_ky_sig(&pk.params, &s2);
        assert_eq!(b1.len(), ky_sig_len(&pk.params));
        assert_eq!(b1.len(), b2.len(), "all signatures serialize to one length");
        assert_eq!(decode_ky_sig(&pk.params, &b1).unwrap(), s1);
        assert!(decode_ky_sig(&pk.params, &b1[..b1.len() - 1]).is_err());
    }

    #[test]
    fn acjt_signature_roundtrip() {
        let (rsa, rsa_secret) = fixtures::test_rsa_setting().clone();
        let params = shs_gsig::params::GsigParams::preset(shs_gsig::params::GsigPreset::Test);
        let mut rng = HmacDrbg::from_seed(b"codec-acjt");
        let mut gm = acjt::GroupManager::setup_with_rsa(params, rsa, rsa_secret, &mut rng);
        let (sec, req) = acjt::start_join(gm.public_key(), &mut rng);
        let resp = gm.admit(&req, &mut rng).unwrap();
        let key = acjt::finish_join(gm.public_key(), sec, &resp).unwrap();
        let sig = acjt::sign(gm.public_key(), &key, b"m", &mut rng);
        let bytes = encode_acjt_sig(&params, &sig);
        assert_eq!(bytes.len(), acjt_sig_len(&params));
        assert_eq!(decode_acjt_sig(&params, &bytes).unwrap(), sig);
    }

    #[test]
    fn delta_roundtrip_and_decoy_shape() {
        let g = SchnorrGroup::system_wide(SchnorrPreset::Test);
        let mut rng = HmacDrbg::from_seed(b"codec-delta");
        let (pk, _sk) = cs::keygen(g, &mut rng);
        let real = cs::encrypt(g, &pk, &[9u8; 32], &mut rng);
        let fake = cs::random_ciphertext(g, 32, &mut rng);
        let rb = encode_delta(g, &real);
        let fb = encode_delta(g, &fake);
        assert_eq!(rb.len(), delta_len(g, 32));
        assert_eq!(rb.len(), fb.len(), "decoy δ matches real δ length");
        assert_eq!(decode_delta(g, &rb).unwrap(), real);
    }

    #[test]
    fn crl_delta_roundtrip() {
        let params = shs_gsig::params::GsigParams::preset(shs_gsig::params::GsigPreset::Test);
        let delta = CrlDelta {
            from_version: 3,
            to_version: 4,
            new_tokens: vec![RevocationToken {
                id: MemberId(17),
                x: params.lambda_lo().add_u64(12345),
            }],
        };
        let bytes = encode_crl_delta(&params, &delta);
        assert_eq!(decode_crl_delta(&params, &bytes).unwrap(), delta);
        // Empty delta works too.
        let empty = CrlDelta {
            from_version: 0,
            to_version: 1,
            new_tokens: vec![],
        };
        let bytes = encode_crl_delta(&params, &empty);
        assert_eq!(decode_crl_delta(&params, &bytes).unwrap(), empty);
    }

    #[test]
    fn crl_delta_count_beyond_the_input_rejected_before_reserving() {
        let params = shs_gsig::params::GsigParams::preset(shs_gsig::params::GsigPreset::Test);
        // A bare 20-byte header promising 2^20 tokens: reserving for them
        // first would take 32 MiB.
        let mut w = Writer::new();
        w.put_u64(0);
        w.put_u64(1 << 20);
        w.put_u32(1 << 20);
        let header = w.into_bytes();
        assert_eq!(header.len(), 20);
        assert_eq!(
            decode_crl_delta(&params, &header),
            Err(WireError::BadLength)
        );
    }
}
