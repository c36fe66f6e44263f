//! One Σ-protocol engine for every GSIG proof: each proof is *declared*
//! once as a [`Relation`] — a conjunction of discrete-log equations over
//! `QR(n)` — and proved by [`prove`], bound by [`Relation::transcript`]
//! and verified (singly or in batches) by [`verify`].
//!
//! An equation reads `Π base_i^{±w_i} = image^{±1}`. The prover commits
//! to `B = Π base_i^{±ρ_i}`; the verifier recomputes
//! `Π base_i^{±(s_i − c·o_i)} · image^{±c}` for the witnesses' sphere
//! centres `o_i` (`2^{λ1}`, `2^{γ1}`, or none).

use crate::params::pow2;
pub(crate) use crate::tables::{key_bases, KeyBase};
use shs_bigint::{Int, Ubig};
use shs_crypto::sha256::Sha256;
use shs_groups::rsa::RsaGroup;

pub(crate) mod prove;
pub mod verify;

/// A Fiat–Shamir transcript: every absorbed item is length- and
/// label-prefixed so distinct structures can never collide.
pub(crate) struct Transcript {
    hasher: Sha256,
}

impl Transcript {
    /// Starts a transcript under a protocol domain label.
    pub(crate) fn new(domain: &str) -> Transcript {
        let mut hasher = Sha256::new();
        hasher.update(b"shs-fs-v1");
        hasher.update(&(domain.len() as u64).to_be_bytes());
        hasher.update(domain.as_bytes());
        Transcript { hasher }
    }

    /// Absorbs labelled bytes.
    pub(crate) fn append(&mut self, label: &str, data: &[u8]) {
        self.hasher.update(&(label.len() as u64).to_be_bytes());
        self.hasher.update(label.as_bytes());
        self.hasher.update(&(data.len() as u64).to_be_bytes());
        self.hasher.update(data);
    }

    /// Absorbs a labelled big integer.
    pub(crate) fn append_ubig(&mut self, label: &str, v: &Ubig) {
        self.append(label, &v.to_bytes_be());
    }

    /// Absorbs a labelled signed integer.
    pub(crate) fn append_int(&mut self, label: &str, v: &Int) {
        let sign: &[u8] = if v.is_negative() { b"-" } else { b"+" };
        self.hasher.update(sign);
        self.append(label, &v.magnitude().to_bytes_be());
    }

    /// Produces a `k_bits`-bit challenge (consuming the transcript).
    ///
    /// # Panics
    ///
    /// Panics if `k_bits > 256` (one SHA-256 output).
    pub(crate) fn challenge(self, k_bits: u32) -> Ubig {
        assert!(k_bits <= 256, "challenge longer than one hash output");
        Ubig::from_bytes_be(&self.hasher.finalize()).shr(256 - k_bits)
    }
}

/// The base of a term, or the image of an equation.
#[derive(Clone, Copy)]
pub(crate) enum Base<'a> {
    /// A public-key base, raised through its fixed-base table.
    Key(KeyBase<'a>),
    /// A per-proof element whose log to a table base the prover knows
    /// (`T2 = g^r`), with the log's public bit bound: the prover raises
    /// that table to `log·ρ`.
    Logged(&'a Ubig, KeyBase<'a>, (&'a Ubig, u32)),
    /// A per-proof element raised directly (`T1`, a hashed `T7`).
    Direct(&'a Ubig),
}

impl<'a> Base<'a> {
    /// A per-proof element, [`Base::Logged`] when its log to `key` (below
    /// `2^bits`) is known, which it never is to a verifier.
    pub(crate) fn elem(
        value: &'a Ubig,
        key: KeyBase<'a>,
        log: Option<(&'a Ubig, u32)>,
    ) -> Base<'a> {
        log.map_or(Base::Direct(value), |log| Base::Logged(value, key, log))
    }

    fn value(&self) -> &'a Ubig {
        match *self {
            Base::Key(k) => k.value,
            Base::Logged(v, ..) | Base::Direct(v) => v,
        }
    }
}

/// A statement item, bound after `n` in declaration order.
pub(crate) enum Bind<'a> {
    /// A trusted public value: a key base, or a challenge the proof binds.
    Public(&'static str, &'a Ubig),
    /// A per-proof element, which the verifier requires in `[1, n)`.
    Elem(&'static str, &'a Ubig),
    /// Public bytes (the signed message).
    Bytes(&'static str, &'a [u8]),
}

impl<'a> Bind<'a> {
    /// A signature's statement: the key bases, the message `m`, then the
    /// tags `T1, T2, …`.
    pub(crate) fn signature(keys: &[KeyBase<'a>], m: &'a [u8], tags: &[&'a Ubig]) -> Vec<Bind<'a>> {
        let labels = ["T1", "T2", "T3", "T4", "T5", "T6", "T7"];
        let keys = keys.iter().map(|k| Bind::Public(k.label, k.value));
        let tags = labels.into_iter().zip(tags).map(|(l, &v)| Bind::Elem(l, v));
        keys.chain([Bind::Bytes("m", m)]).chain(tags).collect()
    }
}

/// A secret: `(response label, blind bits, sphere centre 2^o)`.
pub(crate) struct Witness(
    pub(crate) &'static str,
    pub(crate) u32,
    pub(crate) Option<u32>,
);

impl Witness {
    /// The sphere centre `2^o`, or zero.
    fn centre(&self) -> Int {
        Int::from_ubig(self.2.map_or_else(Ubig::zero, pow2))
    }
}

/// The sign of a term's witness, or of an image's `c`.
pub(crate) const PLUS: bool = false;
/// See [`PLUS`].
pub(crate) const MINUS: bool = true;

/// One equation: `(base, witness, sign)` terms and the image, if not 1.
pub(crate) struct Equation<'a>(
    pub(crate) Vec<(Base<'a>, usize, bool)>,
    pub(crate) Option<(Base<'a>, bool)>,
);

/// A proof's statement and equations.
pub(crate) struct Relation<'a> {
    /// Fiat–Shamir domain, which also keys the batch coefficients.
    pub(crate) domain: &'static str,
    pub(crate) rsa: &'a RsaGroup,
    /// Challenge length in bits.
    pub(crate) k: u32,
    pub(crate) bind: Vec<Bind<'a>>,
    pub(crate) witnesses: Vec<Witness>,
    pub(crate) eqs: Vec<Equation<'a>>,
    /// One transcript label per equation's commitment.
    pub(crate) commitments: &'static [&'static str],
}

impl Relation<'_> {
    /// The one binder: `n`, the statement, then the commitments.
    pub(crate) fn transcript(&self, commitments: &[Ubig]) -> Transcript {
        let mut t = Transcript::new(self.domain);
        t.append_ubig("n", self.rsa.n());
        self.bind_into(&mut t, true, commitments);
        t
    }

    /// Absorbs the statement (its public values only if `public`), then
    /// the commitments.
    fn bind_into(&self, t: &mut Transcript, public: bool, commitments: &[Ubig]) {
        for item in &self.bind {
            match *item {
                Bind::Public(label, v) if public => t.append_ubig(label, v),
                Bind::Public(..) => {}
                Bind::Elem(label, v) => t.append_ubig(label, v),
                Bind::Bytes(label, data) => t.append(label, data),
            }
        }
        for (label, b) in self.commitments.iter().zip(commitments) {
            t.append_ubig(label, b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::verify::{BatchOutcome, Proof};
    use super::*;
    use crate::fixtures;
    use crate::params::Exponent::Signed;
    use crate::tables;
    use shs_crypto::drbg::HmacDrbg;

    /// A relation neither scheme uses, the DLEQ `g^x = X ∧ h^x = Y` over
    /// the Test RSA group, declared with transmitted commitments and
    /// `bits`-bit blinds.
    fn dleq<'a>(
        rsa: &'a RsaGroup,
        keys: [KeyBase<'a>; 2],
        images: &'a [Ubig; 2],
        bits: u32,
    ) -> Relation<'a> {
        let [g, h] = keys.map(Base::Key);
        let [x, y] = [&images[0], &images[1]].map(Base::Direct);
        Relation {
            domain: "test-dleq",
            rsa,
            k: 80,
            bind: vec![
                Bind::Public("g", keys[0].value),
                Bind::Public("h", keys[1].value),
                Bind::Elem("X", &images[0]),
                Bind::Elem("Y", &images[1]),
            ],
            witnesses: vec![Witness("s", bits, None)],
            eqs: vec![
                Equation(vec![(g, 0, PLUS)], Some((x, PLUS))),
                Equation(vec![(h, 0, PLUS)], Some((y, PLUS))),
            ],
            commitments: &["B1", "B2"],
        }
    }

    type Proved = ([Ubig; 2], Ubig, [Int; 1]);

    fn proof((b, c, s): &Proved, transmitted: bool) -> Proof<'_> {
        Proof(transmitted.then_some(&b[..]), c, s.iter().collect())
    }

    #[test]
    fn a_dleq_declaration_proves_and_verifies_singly_and_in_batches() {
        let (rsa, _) = fixtures::test_rsa_setting();
        let mut rng = HmacDrbg::from_seed(b"engine-dleq");
        let (g, h) = (rsa.random_qr(&mut rng), rsa.random_qr(&mut rng));
        // Tables built as setup builds a key's: from the list of every
        // prover term, here the 300- and 302-bit blinds on both bases.
        let terms = [("g", Signed(300)), ("g", Signed(302))];
        let terms = [terms, terms.map(|(_, e)| ("h", e))].concat();
        let tables = tables::build(rsa, ["g", "h"], [&g, &h], &terms);
        let keys = key_bases(rsa, ["g", "h"], [&g, &h], &tables);
        let secrets: Vec<Ubig> = (0..5)
            .map(|_| rsa.random_exponent(&mut rng).shr(56))
            .collect();
        let images: Vec<[Ubig; 2]> = secrets
            .iter()
            .map(|x| [rsa.exp(&g, x), rsa.exp(&h, x)])
            .collect();
        // Proof 0 is honest, 1 has a bumped response and 2 a negated
        // second commitment. Proof 3 is proved with blinds two bits wider
        // than the declared 300, so its response leaves the sphere
        // `|s| < 2^301`. Proof 4 commits to `B1 + n`, the same class
        // modulo `n` as `B1`, with its challenge and response re-derived
        // over it: its group equations hold, and only the element-range
        // check can tell it from an honest proof.
        let widths = [300, 300, 300, 302, 300];
        let mut provers: Vec<Relation<'_>> = images
            .iter()
            .zip(widths)
            .map(|(images, bits)| dleq(rsa, keys, images, bits))
            .collect();
        let mut proved: Vec<Proved> = provers
            .iter()
            .zip(&secrets)
            .zip([None, None, Some(1), None, None])
            .map(|((rel, x), negate)| prove::prove(rel, [x], negate, &mut rng))
            .collect();
        proved[1].2[0] = proved[1].2[0].add(&Int::one());
        assert!(
            proved[3].2[0].magnitude().bits() > 301,
            "oversized response"
        );
        let x = Int::from_ubig(secrets[4].clone());
        let (b, c, s) = &mut proved[4];
        let rho = s[0].add(&Int::from_ubig(c.clone()).mul(&x));
        b[0] = b[0].add(rsa.n());
        *c = provers[4].transcript(&b[..]).challenge(80);
        s[0] = rho.sub(&Int::from_ubig(c.clone()).mul(&x));

        let items: Vec<(Relation<'_>, Proof<'_>)> = images
            .iter()
            .zip(&proved)
            .map(|(images, p)| (dleq(rsa, keys, images, 300), proof(p, true)))
            .collect();
        let singles: Vec<bool> = items
            .iter()
            .map(|(rel, proof)| verify::single(rel, proof))
            .collect();
        assert_eq!(singles, [true, false, true, false, false]);
        assert_eq!(
            verify::batch(&items, |_| true),
            BatchOutcome::Invalid(vec![1, 3, 4])
        );
        assert_eq!(
            verify::batch(&items[2..3], |_| true),
            BatchOutcome::AllValid,
            "the negated commitment gets the single check's verdict"
        );
        // Declared with the wider blinds it was proved with, proof 3
        // passes both checks: only the sphere bound rejected it.
        let wide = [(provers.swap_remove(3), proof(&proved[3], true))];
        assert!(verify::single(&wide[0].0, &wide[0].1));
        assert_eq!(verify::batch(&wide, |_| true), BatchOutcome::AllValid);
        // Without transmitted commitments the verifier recomputes and
        // re-hashes them instead.
        assert!(verify::single(&provers[0], &proof(&proved[0], false)));
        assert!(!verify::single(&provers[1], &proof(&proved[1], false)));
    }

    #[test]
    fn transcript_is_deterministic_and_labelled() {
        let mut a = Transcript::new("test");
        a.append("x", b"123");
        let mut b = Transcript::new("test");
        b.append("x", b"123");
        assert_eq!(a.challenge(128), b.challenge(128));

        // Different label, same data -> different challenge.
        let mut c = Transcript::new("test");
        c.append("y", b"123");
        let mut d = Transcript::new("test");
        d.append("x", b"123");
        assert_ne!(c.challenge(128), d.challenge(128));

        // Data moved across boundary -> different challenge.
        let mut e = Transcript::new("test");
        e.append("x", b"12");
        e.append("x", b"3");
        let mut f = Transcript::new("test");
        f.append("x", b"123");
        f.append("x", b"");
        assert_ne!(e.challenge(128), f.challenge(128));
    }

    #[test]
    fn challenge_has_bounded_bits() {
        let mut t = Transcript::new("bits");
        t.append("a", b"b");
        let c = t.challenge(80);
        assert!(c.bits() <= 80);
    }

    #[test]
    fn signed_ints_distinguished() {
        let mut a = Transcript::new("int");
        a.append_int("v", &Int::from_i64(-5));
        let mut b = Transcript::new("int");
        b.append_int("v", &Int::from_i64(5));
        assert_ne!(a.challenge(128), b.challenge(128));
    }
}
