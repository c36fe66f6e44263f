//! The verifier-local revocation scan, `Crl::is_revoked`, against an
//! independent reference, and its limb-operation trace.
//!
//! The reference raises `T5` to each token on its own,
//! `RsaGroup::exp(T5, x) == T4`, the definition of a revoked signer. The
//! scan must agree with it on every CRL, charge exactly one counted
//! exponentiation per token, and run the same limb operations whichever
//! tokens the list holds and wherever one matches: the tokens are
//! member-only secrets.
//!
//! A signature here is a genuine KY signature whose `T4` is replaced by
//! `T5^v` for a chosen token value `v`. The scan reads only `T4` and
//! `T5`, so this plants a match on any value, the edges of `Λ` included.
//! Four tokens outside `Λ` match the genuine signature itself: the
//! revoked member's `x` moved down or up by a multiple of the order of
//! `QR(n)`, which `T5` lies in.

use shs_bigint::{counters, trace, Ubig};
use shs_crypto::drbg::HmacDrbg;
use shs_gsig::crl::Crl;
use shs_gsig::fixtures;
use shs_gsig::ky::{self, GroupPublicKey, MemberId, RevocationToken, SignBasis, Signature};
use shs_gsig::params::GsigParams;

/// `2^bits`.
fn pow2(bits: u32) -> Ubig {
    let mut u = Ubig::zero();
    u.set_bit(bits);
    u
}

fn token(id: u64, x: Ubig) -> RevocationToken {
    RevocationToken {
        id: MemberId(id),
        x,
    }
}

/// A genuine signature, the revoked signer's token and the group.
struct Setting {
    pk: GroupPublicKey,
    sig: Signature,
    revoked: RevocationToken,
}

fn setting() -> Setting {
    let (mut gm, keys) = fixtures::group_with_members_mut(2);
    let pk = gm.public_key().clone();
    let mut rng = HmacDrbg::from_seed(b"crl-scan-signature");
    let sig = ky::sign(&pk, &keys[0], b"crl scan", SignBasis::Random, &mut rng);
    let revoked = gm.revoke(keys[0].id).expect("member 0 is registered");
    Setting { pk, sig, revoked }
}

/// The reference verdict: does any token raise `T5` to `T4`?
fn reference(pk: &GroupPublicKey, crl: &Crl, sig: &Signature) -> bool {
    crl.tokens
        .iter()
        .any(|t| pk.rsa().exp(&sig.tags.t5, &t.x) == sig.tags.t4)
}

/// `sig` with `T4` replaced by `T5^x`: a signature that `x` revokes.
fn planted(pk: &GroupPublicKey, sig: &Signature, x: &Ubig) -> Signature {
    let mut out = sig.clone();
    out.tags.t4 = pk.rsa().exp(&sig.tags.t5, x);
    out
}

/// `r` tokens drawn from `Λ`, with `special` at `pos` when given.
fn crl_of(
    p: &GsigParams,
    rng: &mut HmacDrbg,
    r: usize,
    special: Option<(usize, &RevocationToken)>,
) -> Crl {
    let mut crl = Crl::new();
    for i in 0..r {
        match special {
            Some((pos, t)) if pos == i => crl.push(t.clone()),
            _ => crl.push(token(1_000 + i as u64, p.sample_lambda(rng))),
        };
    }
    crl
}

/// Checks the scan against the reference on `crl`: the verdict, and
/// exactly one counted exponentiation per token.
fn check(pk: &GroupPublicKey, crl: &Crl, sig: &Signature, what: &str) -> bool {
    let (ops, verdict) = counters::measure(|| crl.is_revoked(pk, sig));
    assert_eq!(verdict, reference(pk, crl, sig), "{what}: verdict");
    assert_eq!(ops.modexp, crl.len() as u64, "{what}: modexp count");
    verdict
}

#[test]
fn scan_agrees_with_per_token_reference() {
    let Setting { pk, sig, revoked } = setting();
    let p = pk.params;
    let in_lambda = [
        p.lambda_lo().add_u64(1),
        p.lambda_hi().sub_u64(1),
        pow2(p.lambda1).sub_u64(1),
        pow2(p.lambda1).add_u64(1),
    ];
    for x in &in_lambda {
        assert!(p.in_lambda(x));
    }
    // The revoked member's token moved by a multiple of the order of
    // QR(n), just past the sphere's radius 2^λ2 and well past it, down
    // and up: each leaves Λ and still matches the genuine signature.
    let order = fixtures::test_rsa_setting().1.qr_order();
    let mut outside = Vec::new();
    for scale in [p.lambda2 + 2, p.lambda2 + 5] {
        let shift = order.mul(&pow2(scale - order.bits()));
        outside.push(revoked.x.sub(&shift));
        outside.push(revoked.x.add(&shift));
    }
    for x in &outside {
        assert!(!p.in_lambda(x), "the moved token must leave Λ");
        assert_eq!(pk.rsa().exp(&sig.tags.t5, x), sig.tags.t4);
    }

    // Each special token with a signature it revokes: planted ones for
    // the edges of Λ, the genuine signature for the member's own token
    // and the four outside Λ.
    let mut cases: Vec<(RevocationToken, Signature)> = in_lambda
        .iter()
        .enumerate()
        .map(|(i, x)| (token(i as u64, x.clone()), planted(&pk, &sig, x)))
        .collect();
    cases.push((revoked.clone(), sig.clone()));
    for (i, x) in outside.into_iter().enumerate() {
        cases.push((token(90 + i as u64, x), sig.clone()));
    }

    let mut rng = HmacDrbg::from_seed(b"crl-scan-fillers");
    let empty = Crl::new();
    assert!(!check(&pk, &empty, &sig, "empty CRL"));
    for r in [1usize, 7, 48] {
        // No match: the special tokens but the member's own among
        // fillers, against a signature none of them revokes.
        let mut crl = crl_of(&p, &mut rng, r, None);
        for (t, _) in cases.iter().filter(|(t, _)| t.x != revoked.x) {
            crl.push(t.clone());
        }
        let unrelated = planted(&pk, &sig, &p.sample_lambda(&mut rng));
        assert!(!check(&pk, &crl, &unrelated, &format!("r {r}, no match")));
        for (t, s) in &cases {
            for pos in [0, r / 2, r - 1] {
                let crl = crl_of(&p, &mut rng, r, Some((pos, t)));
                let what = format!("r {r}, token {}, position {pos}", t.id.0);
                assert!(check(&pk, &crl, s, &what), "{what}: must match");
            }
        }
    }
}

#[test]
fn scan_trace_is_independent_of_the_tokens() {
    // 32 CRLs of 8 tokens over one signature: random Λ tokens on both
    // sides of 2^λ1, the revoked member's token at each position in
    // eight of them, and no match in the rest. The tokens are secret, so
    // the scan's limb operations may depend only on the list's length.
    let Setting { pk, sig, revoked } = setting();
    let p = pk.params;
    let mut rng = HmacDrbg::from_seed(b"crl-scan-trace");
    let pivot = pow2(p.lambda1);
    let mut sides = [0usize; 2];
    let mut traces = Vec::new();
    for i in 0..32 {
        let special = (i < 8).then_some((i, &revoked));
        let mut crl = crl_of(&p, &mut rng, 8, special);
        // Force one token below and one above 2^λ1 into every list.
        crl.tokens[(i + 3) % 8] = token(7, pivot.sub(&Ubig::from_u64(3 + i as u64)));
        crl.tokens[(i + 5) % 8] = token(8, pivot.add(&Ubig::from_u64(5 + i as u64)));
        for t in &crl.tokens {
            sides[usize::from(t.x >= pivot)] += 1;
        }
        let (ops, verdict) = trace::capture(|| crl.is_revoked(&pk, &sig));
        assert_eq!(verdict, i < 8, "CRL {i}");
        assert!(
            ops.limb_mul > 0,
            "CRL {i}: nothing traced (needs shs-bigint/trace-ops)"
        );
        traces.push(ops);
    }
    assert!(
        sides[0] >= 32 && sides[1] >= 32,
        "tokens on both sides of 2^λ1"
    );
    for (i, t) in traces.iter().enumerate() {
        assert_eq!(*t, traces[0], "CRL {i}: the trace depends on the tokens");
    }
}
