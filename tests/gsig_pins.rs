//! Byte-for-byte pins of the group-signature proofs.
//!
//! Every proof the two GSIG schemes produce is folded into a SHA-256
//! digest and compared with a committed constant: KY `sign` on the random
//! and on the common basis, ACJT `sign`, `sign_negated` for every
//! commitment index of both schemes, both schemes' join requests, KY's
//! `Opening` and KY's `claim`. The inputs are fixed DRBG seeds on the
//! `shs_gsig::fixtures` groups, so any change to the random draws, the
//! Fiat–Shamir domains and labels, or the tag and commitment values
//! moves a digest. The file also pins the invalid-index vector of a batch
//! with planted bad responses and the modular exponentiations each call
//! records, batch verification at k = 1, 2 and 5 included. Session-level
//! pins (`driver_digests`) see whole handshakes only, so they cannot see
//! openings, claims or batch costs at other k.
//!
//! A deliberate change to what a scheme computes re-captures the tables;
//! the failure message prints them.

use rand::RngCore;
use shs_bigint::counters;
use shs_bigint::{Int, Ubig};
use shs_crypto::drbg::HmacDrbg;
use shs_crypto::sha256::Sha256;
use shs_gsig::params::{GsigParams, GsigPreset};
use shs_gsig::{acjt, fixtures, ky};
use std::sync::OnceLock;

/// A length-prefixed SHA-256 fold over a proof's fields.
struct Digest(Sha256);

impl Digest {
    fn new(what: &str) -> Digest {
        let mut d = Digest(Sha256::new());
        d.bytes(what.as_bytes());
        d
    }

    fn bytes(&mut self, b: &[u8]) {
        self.0.update(&(b.len() as u64).to_be_bytes());
        self.0.update(b);
    }

    fn ubig(&mut self, v: &Ubig) {
        self.bytes(&v.to_bytes_be());
    }

    fn int(&mut self, v: &Int) {
        self.0.update(if v.is_negative() { b"-" } else { b"+" });
        self.ubig(v.magnitude());
    }

    fn hex(self) -> String {
        self.0
            .finalize()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect()
    }
}

fn ky_sig_digest(what: &str, sig: &ky::Signature) -> String {
    let mut d = Digest::new(what);
    let t = &sig.tags;
    for v in [&t.t1, &t.t2, &t.t3, &t.t4, &t.t5, &t.t6, &t.t7] {
        d.ubig(v);
    }
    for b in &sig.b {
        d.ubig(b);
    }
    d.ubig(&sig.c);
    for s in [&sig.s_x, &sig.s_xp, &sig.s_e, &sig.s_r, &sig.s_h] {
        d.int(s);
    }
    d.hex()
}

fn acjt_sig_digest(what: &str, sig: &acjt::Signature) -> String {
    let mut d = Digest::new(what);
    for v in [&sig.t1, &sig.t2, &sig.t3] {
        d.ubig(v);
    }
    for b in &sig.b {
        d.ubig(b);
    }
    d.ubig(&sig.c);
    for s in [&sig.s_x, &sig.s_e, &sig.s_w, &sig.s_h] {
        d.int(s);
    }
    d.hex()
}

fn join_digest(what: &str, commitment: &Ubig, c: &Ubig, s: &Int) -> String {
    let mut d = Digest::new(what);
    d.ubig(commitment);
    d.ubig(c);
    d.int(s);
    d.hex()
}

/// The ACJT group of these pins: the fixtures' Test RSA setting, a
/// fixed set-up seed and two joined members.
fn acjt_group() -> &'static (acjt::GroupManager, Vec<acjt::MemberKey>) {
    static GROUP: OnceLock<(acjt::GroupManager, Vec<acjt::MemberKey>)> = OnceLock::new();
    GROUP.get_or_init(|| {
        let (rsa, rsa_secret) = fixtures::test_rsa_setting().clone();
        let params = GsigParams::preset(GsigPreset::Test);
        let mut rng = HmacDrbg::from_seed(b"gsig-pins-acjt");
        let mut gm = acjt::GroupManager::setup_with_rsa(params, rsa, rsa_secret, &mut rng);
        let mut keys = Vec::new();
        for _ in 0..2 {
            let (secret, req) = acjt::start_join(gm.public_key(), &mut rng);
            let resp = gm.admit(&req, &mut rng).expect("acjt join");
            keys.push(acjt::finish_join(gm.public_key(), secret, &resp).expect("acjt finish"));
        }
        (gm, keys)
    })
}

/// Closes a digest table with the DRBG's next draw, so a change in how
/// many bytes a call consumes moves the pin even when its output stays.
fn next_draw(rng: &mut HmacDrbg) -> String {
    let mut d = Digest::new("next-draw");
    d.0.update(&rng.next_u64().to_be_bytes());
    d.hex()
}

/// `(name, digest)` rows for every pinned proof.
fn proof_digests() -> Vec<(String, String)> {
    let mut rows: Vec<(String, String)> = Vec::new();
    let mut row = |name: &str, digest: String| rows.push((name.to_string(), digest));

    let (kgm, kkeys) = fixtures::group_with_members(2);
    let kpk = kgm.public_key();
    let mut rng = HmacDrbg::from_seed(b"gsig-pins-ky-sign");
    let random = ky::sign(
        kpk,
        &kkeys[0],
        b"pin message",
        ky::SignBasis::Random,
        &mut rng,
    );
    row("ky.sign.random", ky_sig_digest("ky", &random));
    let common = ky::sign(
        kpk,
        &kkeys[1],
        b"pin message",
        ky::SignBasis::Common(b"pin basis"),
        &mut rng,
    );
    row("ky.sign.common", ky_sig_digest("ky", &common));
    for j in 0..6 {
        let sig = ky::sign_negated(
            kpk,
            &kkeys[0],
            b"negated",
            ky::SignBasis::Random,
            j,
            &mut rng,
        );
        row(&format!("ky.sign_negated.{j}"), ky_sig_digest("ky", &sig));
    }
    let (_secret, req) = ky::start_join(kpk, &mut rng);
    row(
        "ky.start_join",
        join_digest("ky-join", &req.commitment, &req.pok_c, &req.pok_s),
    );
    row("ky.rng.next", next_draw(&mut rng));

    let opening = kgm.open(b"pin message", &random).expect("open");
    let mut d = Digest::new("ky-open");
    d.0.update(&opening.id.0.to_be_bytes());
    d.ubig(&opening.a_cert);
    d.ubig(&opening.proof.c);
    d.int(&opening.proof.s);
    row("ky.open", d.hex());

    let claim = ky::claim(kpk, &kkeys[0], &random);
    let mut d = Digest::new("ky-claim");
    d.ubig(&claim.c);
    d.int(&claim.s);
    row("ky.claim", d.hex());

    let (agm, akeys) = acjt_group();
    let apk = agm.public_key();
    let mut rng = HmacDrbg::from_seed(b"gsig-pins-acjt-sign");
    let sig = acjt::sign(apk, &akeys[0], b"pin message", &mut rng);
    row("acjt.sign", acjt_sig_digest("acjt", &sig));
    for j in 0..4 {
        let sig = acjt::sign_negated(apk, &akeys[1], b"negated", j, &mut rng);
        row(
            &format!("acjt.sign_negated.{j}"),
            acjt_sig_digest("acjt", &sig),
        );
    }
    let (_secret, req) = acjt::start_join(apk, &mut rng);
    row(
        "acjt.start_join",
        join_digest("acjt-join", &req.commitment, &req.pok_c, &req.pok_s),
    );
    row("acjt.rng.next", next_draw(&mut rng));
    rows
}

const PROOF_PINS: &[(&str, &str)] = &[
    (
        "ky.sign.random",
        "12a91567f02dbf4e353195f9d10ddd3cff56eb7cf1939f27e687ddac6e948ab9",
    ),
    (
        "ky.sign.common",
        "69f4b4e8d05a18721276e144f8e9ffc315c1400ff9ca659c1b64f18ecc69ec95",
    ),
    (
        "ky.sign_negated.0",
        "93e2ca8ae185f49b5482123fcba930589081b2d604ce8d251a33cddc9ea1377f",
    ),
    (
        "ky.sign_negated.1",
        "349425663958a0162242f854c0d512fea34244be1a7c394d26990cd5f543f853",
    ),
    (
        "ky.sign_negated.2",
        "82b55a2695940d994bd9d4f45466f3f679ffe019237b7362fe3821385b5eaa18",
    ),
    (
        "ky.sign_negated.3",
        "4ca08b87918e757ebe267a82b5b0654e2a052275919ac0b0250d96d2263b75ce",
    ),
    (
        "ky.sign_negated.4",
        "282236d0e5cc1ebf43189b42eba10df81168243be0620dfb566e57fea695474c",
    ),
    (
        "ky.sign_negated.5",
        "d89e122fd1a971676240aec82686a12e235dd07d6d8e7a63af78130ac7cf269c",
    ),
    (
        "ky.start_join",
        "2ade1f46869106ea3ccf78017201a41efd7ba01e4a2e84d807a49b7b6fa65cbb",
    ),
    (
        "ky.rng.next",
        "8159cf8915a8f1bf0afdf0f8c503419652a32d1089d819e50c3dfe51ff1ac2ca",
    ),
    (
        "ky.open",
        "3f9c1a8c2e600a406f1cff377fd8fdd7448c7719f1f3cc661fe2f820b6348e41",
    ),
    (
        "ky.claim",
        "d0f466890082d47b299922fa7a2a019ce03c7471c9e535026b6a526c3aaaff2f",
    ),
    (
        "acjt.sign",
        "ea560c8a4775ec4b088c8a6467c261da6fbfbe4d080c3cf8f775a7c198c1379a",
    ),
    (
        "acjt.sign_negated.0",
        "8cbf7ab383f3086d50d2999c94cd76e996ecf0023e217a72eea5c06bace8d98a",
    ),
    (
        "acjt.sign_negated.1",
        "e3fb0e94cdcfc2188d60885159c5f4d38f2fe8db8bb8aad43347c90f581da4ee",
    ),
    (
        "acjt.sign_negated.2",
        "7bfd8fac89a3dcf309a372557608305e630829448c4431edb2fca2c1758e398d",
    ),
    (
        "acjt.sign_negated.3",
        "83a43075d46d995878223efc4797c8754bf5b5fa79ff2ee988954a871d317bc6",
    ),
    (
        "acjt.start_join",
        "c1b15a8bfa9c6088e530cc12911fd5f09fc199dc5cb87a34ad44196238577f84",
    ),
    (
        "acjt.rng.next",
        "731e14fa18fffacf59321aa865a905acc8563c1b275b593a9055446e46b77d8a",
    ),
];

/// Fails with the recomputed table when a row moved.
fn check_table<G: PartialEq<P> + std::fmt::Debug, P>(
    what: &str,
    got: &[(String, G)],
    pins: &[(&str, P)],
) {
    let same = got.len() == pins.len()
        && got
            .iter()
            .zip(pins)
            .all(|((gn, gv), (pn, pv))| gn == pn && gv == pv);
    if !same {
        let table: String = got
            .iter()
            .map(|(n, v)| format!("    (\"{n}\", {v:?}),\n"))
            .collect();
        panic!("{what} moved; recomputed table:\n{table}");
    }
}

#[test]
fn proofs_match_their_pins() {
    check_table("proof digests", &proof_digests(), PROOF_PINS);
}

/// Signs `k` KY messages; the entries at `bad` get a bumped `s_r`, which
/// keeps the challenge binding and so reaches the combined equations.
fn ky_batch(k: usize, bad: &[usize]) -> (Vec<Vec<u8>>, Vec<ky::Signature>) {
    let (gm, keys) = fixtures::group_with_members(3);
    let pk = gm.public_key();
    let mut rng = HmacDrbg::from_seed(format!("gsig-pins-ky-batch-{k}").as_bytes());
    let msgs: Vec<Vec<u8>> = (0..k)
        .map(|i| format!("ky batch {i}").into_bytes())
        .collect();
    let sigs = msgs
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let mut sig = ky::sign(pk, &keys[i % 3], m, ky::SignBasis::Random, &mut rng);
            if bad.contains(&i) {
                sig.s_r = sig.s_r.add(&Int::from_i64(1));
            }
            sig
        })
        .collect();
    (msgs, sigs)
}

/// The ACJT twin of [`ky_batch`], bumping `s_w`.
fn acjt_batch(k: usize, bad: &[usize]) -> (Vec<Vec<u8>>, Vec<acjt::Signature>) {
    let (gm, keys) = acjt_group();
    let pk = gm.public_key();
    let mut rng = HmacDrbg::from_seed(format!("gsig-pins-acjt-batch-{k}").as_bytes());
    let msgs: Vec<Vec<u8>> = (0..k)
        .map(|i| format!("acjt batch {i}").into_bytes())
        .collect();
    let sigs = msgs
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let mut sig = acjt::sign(pk, &keys[i % 2], m, &mut rng);
            if bad.contains(&i) {
                sig.s_w = sig.s_w.add(&Int::from_i64(1));
            }
            sig
        })
        .collect();
    (msgs, sigs)
}

#[test]
fn batch_invalid_indices_match_their_pins() {
    let (kpk, apk) = (
        fixtures::group_with_members(1).0.public_key(),
        acjt_group().0.public_key(),
    );
    let (msgs, sigs) = ky_batch(7, &[1, 4, 5]);
    let items: Vec<(&[u8], &ky::Signature)> =
        msgs.iter().map(Vec::as_slice).zip(sigs.iter()).collect();
    let (ops, outcome) = counters::measure(|| ky::verify_batch(kpk, &items, None));
    assert_eq!(outcome.invalid(), &[1, 4, 5]);
    assert_eq!(ops.modexp, 429, "KY bisection cost");

    let (msgs, sigs) = acjt_batch(7, &[0, 6]);
    let items: Vec<(&[u8], &acjt::Signature)> =
        msgs.iter().map(Vec::as_slice).zip(sigs.iter()).collect();
    let (ops, outcome) = counters::measure(|| acjt::verify_batch(apk, &items));
    assert_eq!(outcome.invalid(), &[0, 6]);
    assert_eq!(ops.modexp, 206, "ACJT bisection cost");
}

/// `(call, modexp count)` rows for every pinned call.
fn modexp_counts() -> Vec<(String, u64)> {
    let mut rows: Vec<(String, u64)> = Vec::new();
    let mut row = |name: &str, n: u64| rows.push((name.to_string(), n));

    let (kgm, kkeys) = fixtures::group_with_members(2);
    let kpk = kgm.public_key();
    let mut rng = HmacDrbg::from_seed(b"gsig-pins-ky-counts");
    let (ops, sig) =
        counters::measure(|| ky::sign(kpk, &kkeys[0], b"m", ky::SignBasis::Random, &mut rng));
    row("ky.sign.random", ops.modexp);
    let (ops, common) = counters::measure(|| {
        ky::sign(
            kpk,
            &kkeys[0],
            b"m",
            ky::SignBasis::Common(b"basis"),
            &mut rng,
        )
    });
    row("ky.sign.common", ops.modexp);
    let (ops, ok) = counters::measure(|| ky::verify(kpk, b"m", &sig, None).is_ok());
    assert!(ok);
    row("ky.verify", ops.modexp);
    let t7 = kpk.common_t7(b"basis");
    let (ops, ok) = counters::measure(|| ky::verify(kpk, b"m", &common, Some(&t7)).is_ok());
    assert!(ok);
    row("ky.verify.common", ops.modexp);
    for k in [1, 2, 5] {
        let (msgs, sigs) = ky_batch(k, &[]);
        let items: Vec<(&[u8], &ky::Signature)> =
            msgs.iter().map(Vec::as_slice).zip(sigs.iter()).collect();
        let (ops, outcome) = counters::measure(|| ky::verify_batch(kpk, &items, None));
        assert!(outcome.all_valid());
        row(&format!("ky.verify_batch.{k}"), ops.modexp);
    }
    let (ops, _) = counters::measure(|| ky::start_join(kpk, &mut rng));
    row("ky.start_join", ops.modexp);
    let (ops, claim) = counters::measure(|| ky::claim(kpk, &kkeys[0], &sig));
    row("ky.claim", ops.modexp);
    let (ops, ok) = counters::measure(|| ky::verify_claim(kpk, &sig, &claim).is_ok());
    assert!(ok);
    row("ky.verify_claim", ops.modexp);
    let opening = kgm.open(b"m", &sig).expect("open");
    let (ops, ok) = counters::measure(|| ky::verify_opening(kpk, &sig, &opening).is_ok());
    assert!(ok);
    row("ky.verify_opening", ops.modexp);

    let (agm, akeys) = acjt_group();
    let apk = agm.public_key();
    let (ops, sig) = counters::measure(|| acjt::sign(apk, &akeys[0], b"m", &mut rng));
    row("acjt.sign", ops.modexp);
    let (ops, ok) = counters::measure(|| acjt::verify(apk, b"m", &sig).is_ok());
    assert!(ok);
    row("acjt.verify", ops.modexp);
    for k in [1, 2, 5] {
        let (msgs, sigs) = acjt_batch(k, &[]);
        let items: Vec<(&[u8], &acjt::Signature)> =
            msgs.iter().map(Vec::as_slice).zip(sigs.iter()).collect();
        let (ops, outcome) = counters::measure(|| acjt::verify_batch(apk, &items));
        assert!(outcome.all_valid());
        row(&format!("acjt.verify_batch.{k}"), ops.modexp);
    }
    let (ops, _) = counters::measure(|| acjt::start_join(apk, &mut rng));
    row("acjt.start_join", ops.modexp);
    rows
}

/// Modular exponentiations per call: KY `verify_batch` records 13k + 6
/// and ACJT's 7k + 5, one per term of the pooled equations.
const MODEXP_PINS: &[(&str, u64)] = &[
    ("ky.sign.random", 19),
    ("ky.sign.common", 18),
    ("ky.verify", 16),
    ("ky.verify.common", 16),
    ("ky.verify_batch.1", 19),
    ("ky.verify_batch.2", 32),
    ("ky.verify_batch.5", 71),
    ("ky.start_join", 2),
    ("ky.claim", 1),
    ("ky.verify_claim", 2),
    ("ky.verify_opening", 4),
    ("acjt.sign", 12),
    ("acjt.verify", 11),
    ("acjt.verify_batch.1", 12),
    ("acjt.verify_batch.2", 19),
    ("acjt.verify_batch.5", 40),
    ("acjt.start_join", 2),
];

#[test]
fn modexp_counts_match_their_pins() {
    check_table("modexp counts", &modexp_counts(), MODEXP_PINS);
}
