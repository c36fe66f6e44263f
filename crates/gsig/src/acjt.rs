//! The ACJT2000 group signature scheme (Ateniese–Camenisch–Joye–Tsudik),
//! the basis the paper cites for instantiation §8.1.
//!
//! Member key: `(A, e, x)` with `A^e = a0·a^x mod n`, `x ∈ Λ` known *only*
//! to the member, `e ∈ Γ` prime. Signature tags:
//! `T1 = A·y^w, T2 = g^w, T3 = g^e·h^w` plus a Fiat–Shamir proof of
//! knowledge of `(x, e, w, h'=e·w)`.
//!
//! Compared to [`crate::ky`], this scheme offers **full-anonymity**
//! (there is no GM-known per-member trapdoor at all, hence no user
//! tracing and no VLR revocation): the framework instantiated over it
//! achieves *full-unlinkability* (Theorem 1) but relies entirely on CGKD
//! revocation — the exact trade-off §3 of the paper discusses, and the
//! subject of the E7(b)/E9 experiments.

use crate::batch::BatchOutcome;
use crate::join::Join;
use crate::params::{GsigParams, Scheme};
use crate::sigma::prove::prove;
use crate::sigma::verify::{self as verifier, Proof};
use crate::sigma::{key_bases, Base, Bind, Equation, KeyBase, Relation, Witness, MINUS, PLUS};
use crate::tables::{self, KeyTables};
use crate::GsigError;
use rand::RngCore;
use shs_bigint::{rng as brng, Int, Ubig};
use shs_groups::rsa::{RsaGroup, RsaSecret};

pub use crate::join::{JoinRequest, JoinSecret};
pub use crate::ky::MemberId;

/// The ACJT group public key `(n, a, a0, g, h, y)`.
#[derive(Debug, Clone)]
pub struct GroupPublicKey {
    /// Interval parameters.
    pub params: GsigParams,
    rsa: RsaGroup,
    /// Base for the membership secret `x`.
    pub a: Ubig,
    /// Constant of the certificate equation.
    pub a0: Ubig,
    /// Blinding base.
    pub g: Ubig,
    /// Second blinding base.
    pub h: Ubig,
    /// Opening key `y = g^θ`.
    pub y: Ubig,
    /// Fixed-base tables of `a, a0, g, h, y`, in that order, built at
    /// setup and shared by every clone (`a0` has none: no prover raises
    /// it).
    tables: KeyTables<5>,
}

/// The labels of the public-key bases, in [`GroupPublicKey::keys`] order.
const LABELS: [&str; 5] = ["a", "a0", "g", "h", "y"];

impl GroupPublicKey {
    /// The RSA group.
    pub fn rsa(&self) -> &RsaGroup {
        &self.rsa
    }

    /// The public-key bases `a, a0, g, h, y`, each with its table.
    fn keys(&self) -> [KeyBase<'_>; 5] {
        let values = [&self.a, &self.a0, &self.g, &self.h, &self.y];
        key_bases(&self.rsa, LABELS, values, &self.tables)
    }

    /// The join statement: members commit under `a`.
    fn join(&self) -> Join<'_> {
        Join("shs-gsig-acjt-join", &self.params, self.keys()[0])
    }
}

/// Witness order of the signature proof: `x, e, w, h' = e·w`.
const X: usize = 0;
const E: usize = 1;
const W: usize = 2;
const H: usize = 3;

/// The signature relation over the tags `T1..T3`, for a signer who knows
/// `w = log_g T2` (`None` for a verifier):
///
/// ```text
/// g^w = T2   g^e·h^w = T3   T2^e·g^{−h'} = 1   a^x·y^{h'}·T1^{−e} = a0^{−1}
/// ```
fn relation<'a>(
    pk: &'a GroupPublicKey,
    m: &'a [u8],
    t: [&'a Ubig; 3],
    w: Option<&'a Ubig>,
) -> Relation<'a> {
    let (p, keys) = (&pk.params, pk.keys());
    let [a, a0, g, h, y] = keys.map(Base::Key);
    let [t1, _, t3] = t.map(Base::Direct);
    let t2 = Base::elem(t[1], keys[2], w.map(|w| (w, p.r_bits())));
    Relation {
        domain: "shs-gsig-acjt",
        rsa: &pk.rsa,
        k: p.k,
        bind: Bind::signature(&keys, m, &t),
        witnesses: vec![
            Witness("s_x", p.blind_bits(p.lambda2), Some(p.lambda1)),
            Witness("s_e", p.blind_bits(p.gamma2), Some(p.gamma1)),
            Witness("s_w", p.blind_bits(p.r_bits()), None),
            Witness("s_h", p.blind_bits(p.h_bits()), None),
        ],
        eqs: vec![
            Equation(vec![(g, W, PLUS)], Some((t2, PLUS))),
            Equation(vec![(g, E, PLUS), (h, W, PLUS)], Some((t3, PLUS))),
            Equation(vec![(t2, E, PLUS), (g, H, MINUS)], None),
            Equation(
                vec![(a, X, PLUS), (y, H, PLUS), (t1, E, MINUS)],
                Some((a0, MINUS)),
            ),
        ],
        commitments: &["B1", "B2", "B3", "B4"],
    }
}

/// An ACJT signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signature {
    /// `A·y^w`.
    pub t1: Ubig,
    /// `g^w`.
    pub t2: Ubig,
    /// `g^e·h^w`.
    pub t3: Ubig,
    /// Fiat–Shamir commitments `B1..B4`, transmitted (and bound through
    /// the challenge hash) so the verifier can check the group equations
    /// directly — the form batch verification combines.
    pub b: [Ubig; 4],
    /// Fiat–Shamir challenge.
    pub c: Ubig,
    /// Response for `x`.
    pub s_x: Int,
    /// Response for `e`.
    pub s_e: Int,
    /// Response for `w`.
    pub s_w: Int,
    /// Response for `h' = e·w`.
    pub s_h: Int,
}

/// A member's signing key: `(A, e, x)` with `x` known only to the member.
#[derive(Clone)]
pub struct MemberKey {
    /// Pseudonymous identity.
    pub id: MemberId,
    a_cert: Ubig,
    e: Ubig,
    x: Ubig,
}

impl MemberKey {
    /// The certificate `A` (tests only).
    pub fn certificate(&self) -> &Ubig {
        &self.a_cert
    }
}

impl std::fmt::Debug for MemberKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "acjt::MemberKey {{ id: {}, secrets: **** }}", self.id)
    }
}

/// GM-side member record: note there is **no** tracing trapdoor — only the
/// certificate, preserving full-anonymity.
#[derive(Debug, Clone)]
pub struct MemberRecord {
    /// Member identity.
    pub id: MemberId,
    /// Certificate `A`.
    pub a_cert: Ubig,
    /// Certificate prime `e`.
    pub e: Ubig,
    /// Revocation flag (effective only via the registry / CGKD — ACJT has
    /// no VLR mechanism; see crate docs).
    pub revoked: bool,
}

/// The ACJT group manager.
pub struct GroupManager {
    pk: GroupPublicKey,
    rsa_secret: RsaSecret,
    theta: Ubig,
    members: Vec<MemberRecord>,
    next_id: u64,
}

impl std::fmt::Debug for GroupManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "acjt::GroupManager {{ members: {}, secrets: **** }}",
            self.members.len()
        )
    }
}

/// GM's join reply.
#[derive(Debug, Clone)]
pub struct JoinResponse {
    /// Assigned identity.
    pub id: MemberId,
    /// `A = (a0·C)^{1/e}`.
    pub a_cert: Ubig,
    /// Certificate prime.
    pub e: Ubig,
}

impl GroupManager {
    /// `Setup` with a fresh RSA modulus.
    pub fn setup(params: GsigParams, rng: &mut (impl RngCore + ?Sized)) -> GroupManager {
        let (rsa, rsa_secret) = RsaGroup::generate(params.modulus_bits, rng);
        Self::setup_with_rsa(params, rsa, rsa_secret, rng)
    }

    /// `Setup` reusing an existing RSA setting.
    pub fn setup_with_rsa(
        params: GsigParams,
        rsa: RsaGroup,
        rsa_secret: RsaSecret,
        rng: &mut (impl RngCore + ?Sized),
    ) -> GroupManager {
        let a = rsa_secret.qr_generator(&rsa, rng);
        let a0 = rsa_secret.qr_generator(&rsa, rng);
        let g = rsa_secret.qr_generator(&rsa, rng);
        let h = rsa_secret.qr_generator(&rsa, rng);
        let theta = brng::below(rng, &rsa.n().shr(2));
        let y = rsa.exp(&g, &theta);
        let values = [&a, &a0, &g, &h, &y];
        let exponents = params.prover_exponents(Scheme::Acjt);
        let tables = tables::build(&rsa, LABELS, values, &exponents);
        let pk = GroupPublicKey {
            params,
            rsa,
            a,
            a0,
            g,
            h,
            y,
            tables,
        };
        GroupManager {
            pk,
            rsa_secret,
            theta,
            members: Vec::new(),
            next_id: 0,
        }
    }

    /// The group public key.
    pub fn public_key(&self) -> &GroupPublicKey {
        &self.pk
    }

    /// The member registry.
    pub fn members(&self) -> &[MemberRecord] {
        &self.members
    }

    /// GM side of `Join`.
    ///
    /// # Errors
    ///
    /// [`GsigError::JoinRejected`] when the PoK fails.
    pub fn admit(
        &mut self,
        req: &JoinRequest,
        rng: &mut (impl RngCore + ?Sized),
    ) -> Result<JoinResponse, GsigError> {
        self.pk.join().check(req)?;
        let e = self.pk.params.sample_gamma_prime(rng);
        let base = self.pk.rsa.mul(&self.pk.a0, &req.commitment);
        let a_cert = self
            .rsa_secret
            .root(&self.pk.rsa, &base, &e)
            .map_err(|_| GsigError::JoinRejected)?;
        let id = MemberId(self.next_id);
        self.next_id += 1;
        self.members.push(MemberRecord {
            id,
            a_cert: a_cert.clone(),
            e: e.clone(),
            revoked: false,
        });
        Ok(JoinResponse { id, a_cert, e })
    }

    /// Marks a member revoked in the registry. ACJT offers no VLR; this
    /// only affects the registry (and the framework's CGKD layer).
    ///
    /// # Errors
    ///
    /// [`GsigError::UnknownSigner`] for unknown ids.
    pub fn revoke(&mut self, id: MemberId) -> Result<(), GsigError> {
        let rec = self
            .members
            .iter_mut()
            .find(|m| m.id == id)
            .ok_or(GsigError::UnknownSigner)?;
        rec.revoked = true;
        Ok(())
    }

    /// `Open`: recovers `A = T1/T2^θ` and looks up the signer.
    ///
    /// # Errors
    ///
    /// [`GsigError::InvalidSignature`] for invalid signatures,
    /// [`GsigError::UnknownSigner`] when no member matches.
    pub fn open(&self, message: &[u8], sig: &Signature) -> Result<MemberId, GsigError> {
        verify(&self.pk, message, sig)?;
        let shield = self.pk.rsa.exp(&sig.t2, &self.theta);
        let a_cert = self
            .pk
            .rsa
            .div(&sig.t1, &shield)
            .map_err(|_| GsigError::InvalidSignature)?;
        self.members
            .iter()
            .find(|m| m.a_cert == a_cert)
            .map(|m| m.id)
            .ok_or(GsigError::UnknownSigner)
    }
}

/// Member side of `Join`, step 1.
pub fn start_join(
    pk: &GroupPublicKey,
    rng: &mut (impl RngCore + ?Sized),
) -> (JoinSecret, JoinRequest) {
    pk.join().start(rng)
}

/// Member side of `Join`, step 2.
///
/// # Errors
///
/// [`GsigError::JoinRejected`] when the certificate equation fails.
pub fn finish_join(
    pk: &GroupPublicKey,
    secret: JoinSecret,
    resp: &JoinResponse,
) -> Result<MemberKey, GsigError> {
    let params = &pk.params;
    if !params.in_gamma(&resp.e) {
        return Err(GsigError::JoinRejected);
    }
    let lhs = pk.rsa.exp(&resp.a_cert, &resp.e);
    let rhs = pk.rsa.mul(&pk.a0, &pk.keys()[0].pow_u(&secret.x));
    if lhs != rhs {
        return Err(GsigError::JoinRejected);
    }
    Ok(MemberKey {
        id: resp.id,
        a_cert: resp.a_cert.clone(),
        e: resp.e.clone(),
        x: secret.take(),
    })
}

/// `Sign`.
pub fn sign(
    pk: &GroupPublicKey,
    key: &MemberKey,
    message: &[u8],
    rng: &mut (impl RngCore + ?Sized),
) -> Signature {
    sign_inner(pk, key, message, None, rng)
}

/// Adversarial test hook: signs honestly but negates commitment
/// `B_{j+1}` (`B ← n − B`) before the challenge, then derives `c` and
/// the responses against the negated vector. The group equations of the
/// result hold only up to sign — the canonical order-2 probe for
/// single/batch verifier agreement. Both verifiers compare in `QR(n)`
/// and accept (benign signer-only malleability); before the squared
/// comparison, the batch RLC accepted this for half of all coefficient
/// draws while per-signature `verify` rejected it.
#[doc(hidden)]
pub fn sign_negated(
    pk: &GroupPublicKey,
    key: &MemberKey,
    message: &[u8],
    j: usize,
    rng: &mut (impl RngCore + ?Sized),
) -> Signature {
    sign_inner(pk, key, message, Some(j), rng)
}

fn sign_inner(
    pk: &GroupPublicKey,
    key: &MemberKey,
    message: &[u8],
    negate: Option<usize>,
    rng: &mut (impl RngCore + ?Sized),
) -> Signature {
    let rsa = &pk.rsa;
    let w = pk.params.sample_r(rng);
    // Fixed public bases with secret exponents: precomputed constant-trace
    // tables. The signer knows T2 = g^w, so the relation raises T2 through
    // g's table too (the product is on the list g's table is built from;
    // the params tests check it). Only T1 stays on the plain kernel.
    let [_, _, g, h, y] = pk.keys();
    let t1 = rsa.mul(&key.a_cert, &y.pow_u(&w));
    let t2 = g.pow_u(&w);
    let t3 = rsa.mul(&g.pow_u(&key.e), &h.pow_u(&w));
    let rel = relation(pk, message, [&t1, &t2, &t3], Some(&w));
    let (b, c, [s_x, s_e, s_w, s_h]) =
        prove(&rel, [&key.x, &key.e, &w, &key.e.mul(&w)], negate, rng);
    Signature {
        t1,
        t2,
        t3,
        b,
        c,
        s_x,
        s_e,
        s_w,
        s_h,
    }
}

impl Signature {
    /// This signature as the verifier sees it: the relation over its tags
    /// and the transmitted proof.
    fn statement<'a>(&'a self, pk: &'a GroupPublicKey, m: &'a [u8]) -> (Relation<'a>, Proof<'a>) {
        let s = vec![&self.s_x, &self.s_e, &self.s_w, &self.s_h];
        let t = [&self.t1, &self.t2, &self.t3];
        (relation(pk, m, t, None), Proof(Some(&self.b), &self.c, s))
    }
}

/// `Verify`.
///
/// # Errors
///
/// [`GsigError::InvalidSignature`] on any failed check.
pub fn verify(pk: &GroupPublicKey, message: &[u8], sig: &Signature) -> Result<(), GsigError> {
    let (rel, proof) = sig.statement(pk, message);
    GsigError::InvalidSignature.unless(verifier::single(&rel, &proof))
}

/// Batch `Verify`: checks `k` `(message, signature)` pairs with one
/// random-linear-combination check over the pooled group equations (see
/// [`crate::batch`]). Per-signature cheap checks still run individually;
/// only the group equations are combined, and a failed combination is
/// bisected to isolate the offending indices. Both paths compare the
/// equations in `QR(n)` (squared sides / doubled coefficients), so this
/// agrees with calling [`verify`] on every pair — including order-2
/// sign-malleated commitments, which both accept — up to the 2⁻¹²⁸ RLC
/// soundness bound.
pub fn verify_batch(pk: &GroupPublicKey, items: &[(&[u8], &Signature)]) -> BatchOutcome {
    let statements: Vec<_> = items.iter().map(|(m, sig)| sig.statement(pk, m)).collect();
    verifier::batch(&statements, |_| true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use crate::params::GsigPreset;
    use shs_crypto::drbg::HmacDrbg;
    use std::sync::LazyLock;

    fn acjt_group() -> &'static (GroupManager, Vec<MemberKey>) {
        static GROUP: LazyLock<(GroupManager, Vec<MemberKey>)> = LazyLock::new(|| {
            let (rsa, rsa_secret) = fixtures::test_rsa_setting().clone();
            let params = GsigParams::preset(GsigPreset::Test);
            let mut rng = HmacDrbg::from_seed(b"acjt-fixture");
            let mut gm = GroupManager::setup_with_rsa(params, rsa, rsa_secret, &mut rng);
            let mut keys = Vec::new();
            for _ in 0..3 {
                let (secret, req) = start_join(gm.public_key(), &mut rng);
                let resp = gm.admit(&req, &mut rng).unwrap();
                keys.push(finish_join(gm.public_key(), secret, &resp).unwrap());
            }
            (gm, keys)
        });
        &GROUP
    }

    #[test]
    fn sign_verify_roundtrip() {
        let (gm, keys) = acjt_group();
        let mut rng = HmacDrbg::from_seed(b"t1");
        let sig = sign(gm.public_key(), &keys[0], b"hello acjt", &mut rng);
        verify(gm.public_key(), b"hello acjt", &sig).unwrap();
    }

    #[test]
    fn wrong_message_rejected() {
        let (gm, keys) = acjt_group();
        let mut rng = HmacDrbg::from_seed(b"t2");
        let sig = sign(gm.public_key(), &keys[0], b"msg-a", &mut rng);
        assert!(verify(gm.public_key(), b"msg-b", &sig).is_err());
    }

    #[test]
    fn open_identifies_each_signer() {
        let (gm, keys) = acjt_group();
        let mut rng = HmacDrbg::from_seed(b"t3");
        for key in keys {
            let sig = sign(gm.public_key(), key, b"open me", &mut rng);
            assert_eq!(gm.open(b"open me", &sig).unwrap(), key.id);
        }
    }

    #[test]
    fn forged_tags_rejected() {
        let (gm, keys) = acjt_group();
        let mut rng = HmacDrbg::from_seed(b"t4");
        let mut sig = sign(gm.public_key(), &keys[0], b"m", &mut rng);
        sig.t1 = gm.public_key().rsa().random_qr(&mut rng);
        assert!(verify(gm.public_key(), b"m", &sig).is_err());
    }

    #[test]
    fn no_tracing_tags_exist() {
        // Structural full-anonymity argument: an ACJT signature contains
        // only the three ElGamal-style tags, nothing keyed to the member.
        let (gm, keys) = acjt_group();
        let mut rng = HmacDrbg::from_seed(b"t5");
        let s1 = sign(gm.public_key(), &keys[0], b"m", &mut rng);
        let s2 = sign(gm.public_key(), &keys[0], b"m", &mut rng);
        assert_ne!(s1.t1, s2.t1);
        assert_ne!(s1.t2, s2.t2);
        assert_ne!(s1.t3, s2.t3);
    }

    #[test]
    fn revocation_is_registry_only() {
        let (rsa, rsa_secret) = fixtures::test_rsa_setting().clone();
        let params = GsigParams::preset(GsigPreset::Test);
        let mut rng = HmacDrbg::from_seed(b"t6");
        let mut gm = GroupManager::setup_with_rsa(params, rsa, rsa_secret, &mut rng);
        let (secret, req) = start_join(gm.public_key(), &mut rng);
        let resp = gm.admit(&req, &mut rng).unwrap();
        let key = finish_join(gm.public_key(), secret, &resp).unwrap();
        gm.revoke(key.id).unwrap();
        // The paper's §3 point: the revoked member's signature STILL
        // verifies — ACJT alone cannot stop it; the framework must layer
        // CGKD revocation on top (see E7b attack test in shs-core).
        let sig = sign(gm.public_key(), &key, b"still signs", &mut rng);
        verify(gm.public_key(), b"still signs", &sig).unwrap();
        assert!(gm.members()[0].revoked);
    }
}
