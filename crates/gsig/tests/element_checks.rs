//! Every proof verifier rejects statement elements outside `[1, n)`
//! before it exponentiates anything.
//!
//! A join request whose commitment is `0` (or `n ≡ 0`) makes every
//! recomputed commitment `0` too, so a challenge hashed over `C = 0,
//! B = 0` with response `0` satisfies the join proof with no knowledge
//! of any secret, and the manager would sign the certificate `A = 0`.
//! A zero `T7` (claim) or `T2` (opening) under a negative exponent asks
//! the multi-exponentiation to invert `0`. Each case must end in the
//! scheme's structured error instead. A signature's tags go through the
//! same check, singly and in batches. (A transmitted commitment outside
//! `[1, n)` re-hashes to another challenge, which a forger cannot answer
//! without the secrets; the engine's own unit test plants a signer's
//! non-canonical `B + n`.)

use rand::RngCore;
use shs_bigint::{Int, Ubig};
use shs_crypto::drbg::HmacDrbg;
use shs_crypto::sha256::Sha256;
use shs_gsig::params::{GsigParams, GsigPreset};
use shs_gsig::{acjt, fixtures, ky, GsigError};

/// The schemes' Fiat–Shamir challenge over labelled items (big integers
/// as big-endian bytes), computed from the outside: a forger needs
/// nothing but public data to build it.
fn challenge(domain: &str, items: &[(&str, Vec<u8>)], k: u32) -> Ubig {
    let mut h = Sha256::new();
    h.update(b"shs-fs-v1");
    h.update(&(domain.len() as u64).to_be_bytes());
    h.update(domain.as_bytes());
    for (label, data) in items {
        h.update(&(label.len() as u64).to_be_bytes());
        h.update(label.as_bytes());
        h.update(&(data.len() as u64).to_be_bytes());
        h.update(data);
    }
    Ubig::from_bytes_be(&h.finalize()).shr(256 - k)
}

/// Labelled big integers as [`challenge`] items.
fn ubigs<'a>(
    items: impl IntoIterator<Item = (&'static str, &'a Ubig)>,
) -> Vec<(&'static str, Vec<u8>)> {
    items
        .into_iter()
        .map(|(label, v)| (label, v.to_bytes_be()))
        .collect()
}

/// A signature's challenge: `n`, the key bases, the message, the tags,
/// then the transmitted commitments.
fn signature_challenge<'a>(
    domain: &str,
    k: u32,
    n: &'a Ubig,
    keys: impl IntoIterator<Item = (&'static str, &'a Ubig)>,
    m: &[u8],
    tags: &'a [&'a Ubig],
    b: &'a [Ubig],
) -> Ubig {
    let mut items = ubigs([("n", n)].into_iter().chain(keys));
    items.push(("m", m.to_vec()));
    let labels = ["T1", "T2", "T3", "T4", "T5", "T6", "T7"];
    items.extend(ubigs(labels.into_iter().zip(tags.iter().copied())));
    items.extend(ubigs(
        ["B1", "B2", "B3", "B4", "B5", "B6"].into_iter().zip(b),
    ));
    challenge(domain, &items, k)
}

fn ky_challenge(pk: &ky::GroupPublicKey, m: &[u8], sig: &ky::Signature) -> Ubig {
    let keys = [
        ("a", &pk.a),
        ("a0", &pk.a0),
        ("b", &pk.b),
        ("g", &pk.g),
        ("h", &pk.h),
        ("y", &pk.y),
    ];
    let t = &sig.tags;
    let tags = [&t.t1, &t.t2, &t.t3, &t.t4, &t.t5, &t.t6, &t.t7];
    let n = pk.rsa().n();
    signature_challenge("shs-gsig-ky", pk.params.k, n, keys, m, &tags, &sig.b)
}

fn acjt_challenge(pk: &acjt::GroupPublicKey, m: &[u8], sig: &acjt::Signature) -> Ubig {
    let keys = [
        ("a", &pk.a),
        ("a0", &pk.a0),
        ("g", &pk.g),
        ("h", &pk.h),
        ("y", &pk.y),
    ];
    let tags = [&sig.t1, &sig.t2, &sig.t3];
    let n = pk.rsa().n();
    signature_challenge("shs-gsig-acjt", pk.params.k, n, keys, m, &tags, &sig.b)
}

/// An RNG that counts the words it hands out.
struct Counting {
    inner: HmacDrbg,
    draws: usize,
}

impl RngCore for Counting {
    fn next_u32(&mut self) -> u32 {
        self.draws += 1;
        self.inner.next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        self.inner.next_u64()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.draws += 1;
        self.inner.fill_bytes(dest);
    }
}

fn counting() -> Counting {
    Counting {
        inner: HmacDrbg::from_seed(b"element-checks"),
        draws: 0,
    }
}

/// Commitments a forger can answer without a secret: `0` and `n`.
fn zero_commitments(n: &Ubig) -> [Ubig; 2] {
    [Ubig::zero(), n.clone()]
}

#[test]
fn ky_admit_rejects_a_zero_commitment_before_drawing() {
    let (mut gm, _) = fixtures::group_with_members_mut(1);
    let pk = gm.public_key().clone();
    let n = pk.rsa().n().clone();
    for commitment in zero_commitments(&n) {
        let items = ubigs([
            ("n", &n),
            ("b", &pk.b),
            ("C", &commitment),
            ("B", &Ubig::zero()),
        ]);
        let req = ky::JoinRequest {
            pok_c: challenge("shs-gsig-join", &items, pk.params.k),
            commitment,
            pok_s: Int::zero(),
        };
        let mut rng = counting();
        assert_eq!(
            gm.admit(&req, &mut rng).err(),
            Some(GsigError::JoinRejected)
        );
        assert_eq!(rng.draws, 0, "rejected before any draw");
        assert_eq!(gm.members().len(), 1, "nothing registered");
    }
}

#[test]
fn acjt_admit_rejects_a_zero_commitment_before_drawing() {
    let (rsa, rsa_secret) = fixtures::test_rsa_setting().clone();
    let params = GsigParams::preset(GsigPreset::Test);
    let mut rng = HmacDrbg::from_seed(b"element-checks-acjt");
    let mut gm = acjt::GroupManager::setup_with_rsa(params, rsa, rsa_secret, &mut rng);
    let pk = gm.public_key().clone();
    let n = pk.rsa().n().clone();
    for commitment in zero_commitments(&n) {
        let items = ubigs([
            ("n", &n),
            ("a", &pk.a),
            ("C", &commitment),
            ("B", &Ubig::zero()),
        ]);
        let req = acjt::JoinRequest {
            pok_c: challenge("shs-gsig-acjt-join", &items, pk.params.k),
            commitment,
            pok_s: Int::zero(),
        };
        let mut rng = counting();
        assert_eq!(
            gm.admit(&req, &mut rng).err(),
            Some(GsigError::JoinRejected)
        );
        assert_eq!(rng.draws, 0, "rejected before any draw");
        assert!(gm.members().is_empty(), "nothing registered");
    }
}

#[test]
fn claim_on_a_zero_t7_is_an_invalid_proof() {
    let (gm, keys) = fixtures::group_with_members(1);
    let pk = gm.public_key();
    let mut rng = HmacDrbg::from_seed(b"element-checks-claim");
    let sig = ky::sign(pk, &keys[0], b"m", ky::SignBasis::Random, &mut rng);
    let claim = ky::claim(pk, &keys[0], &sig);
    ky::verify_claim(pk, &sig, &claim).expect("honest claim");
    let mut bad = sig;
    bad.tags.t7 = Ubig::zero();
    assert_eq!(
        ky::verify_claim(pk, &bad, &claim),
        Err(GsigError::InvalidProof)
    );
}

#[test]
fn opening_on_a_zero_t2_is_an_invalid_proof() {
    let (gm, keys) = fixtures::group_with_members(1);
    let pk = gm.public_key();
    let mut rng = HmacDrbg::from_seed(b"element-checks-open");
    let sig = ky::sign(pk, &keys[0], b"m", ky::SignBasis::Random, &mut rng);
    let mut opening = gm.open(b"m", &sig).expect("open");
    ky::verify_opening(pk, &sig, &opening).expect("honest opening");
    let mut bad = sig;
    bad.tags.t2 = Ubig::zero();
    opening.proof.s = Int::from_i64(-1);
    assert_eq!(
        ky::verify_opening(pk, &bad, &opening),
        Err(GsigError::InvalidProof)
    );
}

/// A tag planted outside `[1, n)`, with the challenge re-hashed over it
/// so that the transcript binding holds: only the element-range check
/// stands between the verifier and a multi-exponentiation that would
/// invert the zero class under the tag's negative exponent.
#[test]
fn signatures_with_an_element_outside_the_group_are_invalid_singly_and_in_batches() {
    let (gm, keys) = fixtures::group_with_members(2);
    let pk = gm.public_key();
    let n = pk.rsa().n().clone();
    let mut rng = HmacDrbg::from_seed(b"element-checks-sig");
    let good = ky::sign(pk, &keys[1], b"ok", ky::SignBasis::Random, &mut rng);
    let mut bad = ky::sign(pk, &keys[0], b"m", ky::SignBasis::Random, &mut rng);
    assert_eq!(
        ky_challenge(pk, b"m", &bad),
        bad.c,
        "the transcript as signed"
    );
    bad.tags.t5 = Ubig::zero();
    bad.c = ky_challenge(pk, b"m", &bad);
    assert_eq!(
        ky::verify(pk, b"m", &bad, None),
        Err(GsigError::InvalidSignature)
    );
    let items: Vec<(&[u8], &ky::Signature)> = vec![(b"ok", &good), (b"m", &bad)];
    assert_eq!(ky::verify_batch(pk, &items, None).invalid(), &[1]);

    let (rsa, rsa_secret) = fixtures::test_rsa_setting().clone();
    let params = GsigParams::preset(GsigPreset::Test);
    let mut gm = acjt::GroupManager::setup_with_rsa(params, rsa, rsa_secret, &mut rng);
    let (secret, req) = acjt::start_join(gm.public_key(), &mut rng);
    let resp = gm.admit(&req, &mut rng).expect("admit");
    let key = acjt::finish_join(gm.public_key(), secret, &resp).expect("join");
    let pk = gm.public_key();
    let good = acjt::sign(pk, &key, b"ok", &mut rng);
    let mut bad = acjt::sign(pk, &key, b"m", &mut rng);
    assert_eq!(
        acjt_challenge(pk, b"m", &bad),
        bad.c,
        "the transcript as signed"
    );
    bad.t2 = n;
    bad.c = acjt_challenge(pk, b"m", &bad);
    assert_eq!(
        acjt::verify(pk, b"m", &bad),
        Err(GsigError::InvalidSignature)
    );
    let items: Vec<(&[u8], &acjt::Signature)> = vec![(b"ok", &good), (b"m", &bad)];
    assert_eq!(acjt::verify_batch(pk, &items).invalid(), &[1]);
}
