//! The Kiayias–Yung traceable group signature scheme (paper Appendix H),
//! extended with the self-distinction mechanism of §8.2.
//!
//! # Structure
//!
//! Setting: `QR(n)` for a safe-RSA modulus, generators
//! `a, a0, b, g, h ∈ QR(n)`, group-manager tracing key `y = g^θ`.
//! A member's key is `(A, e, x, x')` with `A^e = a0 · a^x · b^{x'} mod n`,
//! where `e ∈ Γ` is prime, `x ∈ Λ` is known to the GM (the *user-tracing*
//! trapdoor that powers verifier-local revocation), and `x' ∈ Λ` is known
//! *only* to the member (protecting against misattribution).
//!
//! A signature publishes
//!
//! ```text
//! T1 = A·y^r   T2 = g^r   T3 = g^e·h^r        (opening: A = T1/T2^θ)
//! T4 = T5^x    T5 = g^k                        (user tracing / VLR)
//! T6 = T7^{x'} T7 = g^{k'}  or  H→QR(basis)    (claiming / self-distinction)
//! ```
//!
//! plus a Fiat–Shamir proof of knowledge of `(x, x', e, r, h'=e·r)` tying
//! the tags together. For **self-distinction** (§8.2) all handshake
//! participants are forced to use the *same* `T7` (a hash of the session
//! transcript), which makes `T6 = T7^{x'}` a deterministic function of the
//! member — two roles played by one member yield identical `T6` values and
//! are detected, while distinct members remain unlinkable across sessions
//! because `T7` changes per session.

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

/// An opaque member identity assigned by the group manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MemberId(pub u64);

impl std::fmt::Display for MemberId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "member#{}", self.0)
    }
}

/// The group public key (the paper's `Y = (n, a, a0, b, g, h, y)`).
#[derive(Debug, Clone)]
pub struct GroupPublicKey {
    /// Interval parameters.
    pub params: GsigParams,
    rsa: RsaGroup,
    /// Base for `x`.
    pub a: Ubig,
    /// Constant term of the certificate equation.
    pub a0: Ubig,
    /// Base for `x'`.
    pub b: Ubig,
    /// Base for blinding / tags.
    pub g: Ubig,
    /// Second blinding base.
    pub h: Ubig,
    /// GM tracing key `y = g^θ`.
    pub y: Ubig,
    /// Fixed-base tables of `a, a0, b, g, h, y`, in that order, built at
    /// setup and shared by every clone (`a0` has none: no prover raises
    /// it).
    tables: KeyTables<6>,
}

/// The labels of the public-key bases, in [`GroupPublicKey::keys`] order.
const LABELS: [&str; 6] = ["a", "a0", "b", "g", "h", "y"];

impl GroupPublicKey {
    /// The RSA group (for callers needing raw `QR(n)` operations).
    pub fn rsa(&self) -> &RsaGroup {
        &self.rsa
    }

    /// The public-key bases `a, a0, b, g, h, y`, each with its table.
    fn keys(&self) -> [KeyBase<'_>; 6] {
        let values = [&self.a, &self.a0, &self.b, &self.g, &self.h, &self.y];
        key_bases(&self.rsa, LABELS, values, &self.tables)
    }

    /// The join statement: members commit to `x'` under `b`.
    fn join(&self) -> Join<'_> {
        Join("shs-gsig-join", &self.params, self.keys()[2])
    }

    /// Derives the common self-distinction base `T7` from session-unique
    /// bytes (§8.2: an idealized hash of the concatenation of all messages
    /// sent by the handshake participants).
    pub fn common_t7(&self, basis: &[u8]) -> Ubig {
        self.rsa.hash_to_qr(basis)
    }
}

/// Witness order of the signature proof: `x, x', e, r, h' = e·r`.
const X: usize = 0;
const XP: usize = 1;
const E: usize = 2;
const R: usize = 3;
const H: usize = 4;

/// The signature relation over the tags, for a signer who knows the logs
/// `[r, k1, k2]` of `T2, T5, T7` to `g` (`None` where it does not: a
/// verifier, or a hashed common `T7`):
///
/// ```text
/// g^r = T2   g^e·h^r = T3   T2^e·g^{−h'} = 1   T5^x = T4   T7^{x'} = T6
/// a^x·b^{x'}·y^{h'}·T1^{−e} = a0^{−1}
/// ```
fn relation<'a>(
    pk: &'a GroupPublicKey,
    m: &'a [u8],
    tags: &'a Tags,
    logs: [Option<&'a Ubig>; 3],
) -> Relation<'a> {
    let t = [
        &tags.t1, &tags.t2, &tags.t3, &tags.t4, &tags.t5, &tags.t6, &tags.t7,
    ];
    let (p, keys) = (&pk.params, pk.keys());
    let [a, a0, b, g, h, y] = keys.map(Base::Key);
    let [t1, _, t3, t4, _, t6, _] = t.map(Base::Direct);
    let [t2, t5, t7] = [(t[1], logs[0]), (t[4], logs[1]), (t[6], logs[2])]
        .map(|(tag, log)| Base::elem(tag, keys[3], log.map(|l| (l, p.r_bits()))));
    Relation {
        domain: "shs-gsig-ky",
        rsa: &pk.rsa,
        k: p.k,
        bind: Bind::signature(&keys, m, &t),
        witnesses: vec![
            Witness("s_x", p.blind_bits(p.lambda2), Some(p.lambda1)),
            Witness("s_xp", p.blind_bits(p.lambda2), Some(p.lambda1)),
            Witness("s_e", p.blind_bits(p.gamma2), Some(p.gamma1)),
            Witness("s_r", p.blind_bits(p.r_bits()), None),
            Witness("s_h", p.blind_bits(p.h_bits()), None),
        ],
        eqs: vec![
            Equation(vec![(g, R, PLUS)], Some((t2, PLUS))),
            Equation(vec![(g, E, PLUS), (h, R, PLUS)], Some((t3, PLUS))),
            Equation(vec![(t2, E, PLUS), (g, H, MINUS)], None),
            Equation(vec![(t5, X, PLUS)], Some((t4, PLUS))),
            Equation(vec![(t7, XP, PLUS)], Some((t6, PLUS))),
            Equation(
                vec![(a, X, PLUS), (b, XP, PLUS), (y, H, PLUS), (t1, E, MINUS)],
                Some((a0, MINUS)),
            ),
        ],
        commitments: &["B1", "B2", "B3", "B4", "B5", "B6"],
    }
}

/// The opening proof (Chaum–Pedersen): `g^θ = y ∧ T2^θ = T1/A`, where the
/// shield `T1/A` is the image only; the transcript binds `T1, T2, A`.
fn opening_relation<'a>(
    pk: &'a GroupPublicKey,
    sig: &'a Signature,
    a_cert: &'a Ubig,
    shield: &'a Ubig,
) -> Relation<'a> {
    let (p, [.., g, _, y]) = (&pk.params, pk.keys());
    let (t1, t2) = (&sig.tags.t1, &sig.tags.t2);
    Relation {
        domain: "shs-gsig-open",
        rsa: &pk.rsa,
        k: p.k,
        bind: vec![
            Bind::Public("g", g.value),
            Bind::Public("y", y.value),
            Bind::Elem("T1", t1),
            Bind::Elem("T2", t2),
            Bind::Elem("A", a_cert),
        ],
        witnesses: vec![Witness("s", p.blind_bits(p.r_bits() + 2), None)],
        eqs: vec![
            Equation(vec![(Base::Key(g), 0, PLUS)], Some((Base::Key(y), PLUS))),
            Equation(
                vec![(Base::Direct(t2), 0, PLUS)],
                Some((Base::Direct(shield), PLUS)),
            ),
        ],
        commitments: &["U1", "U2"],
    }
}

/// The claim: `T7^{x'} = T6` with `x' ∈ Λ`, bound to the signature's
/// challenge.
fn claim_relation<'a>(pk: &'a GroupPublicKey, sig: &'a Signature) -> Relation<'a> {
    let (p, t6, t7) = (&pk.params, &sig.tags.t6, &sig.tags.t7);
    Relation {
        domain: "shs-gsig-claim",
        rsa: &pk.rsa,
        k: p.k,
        bind: vec![
            Bind::Elem("T6", t6),
            Bind::Elem("T7", t7),
            Bind::Public("c", &sig.c),
        ],
        witnesses: vec![Witness("s", p.blind_bits(p.lambda2), Some(p.lambda1))],
        eqs: vec![Equation(
            vec![(Base::Direct(t7), 0, PLUS)],
            Some((Base::Direct(t6), PLUS)),
        )],
        commitments: &["B"],
    }
}

/// The seven tags of a KY signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tags {
    /// `A·y^r`.
    pub t1: Ubig,
    /// `g^r`.
    pub t2: Ubig,
    /// `g^e·h^r`.
    pub t3: Ubig,
    /// `T5^x`.
    pub t4: Ubig,
    /// `g^k`.
    pub t5: Ubig,
    /// `T7^{x'}`.
    pub t6: Ubig,
    /// `g^{k'}` or the common hashed base.
    pub t7: Ubig,
}

/// A KY group signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signature {
    /// The tags `T1..T7`.
    pub tags: Tags,
    /// Fiat–Shamir commitments `B1..B6`, transmitted (and bound through
    /// the challenge hash) so the verifier can check the group equations
    /// directly — the form batch verification combines.
    pub b: [Ubig; 6],
    /// Fiat–Shamir challenge.
    pub c: Ubig,
    /// Response for `x`.
    pub s_x: Int,
    /// Response for `x'`.
    pub s_xp: Int,
    /// Response for `e`.
    pub s_e: Int,
    /// Response for `r`.
    pub s_r: Int,
    /// Response for `h' = e·r`.
    pub s_h: Int,
}

/// How `T7` is chosen when signing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SignBasis<'a> {
    /// Fresh random `T7 = g^{k'}` — standard KY signature.
    Random,
    /// Common base derived from session bytes — the self-distinction mode
    /// of §8.2. All participants of one handshake must use the same bytes.
    Common(&'a [u8]),
}

/// A member's signing key.
#[derive(Clone)]
pub struct MemberKey {
    /// The member's pseudonymous identity.
    pub id: MemberId,
    a_cert: Ubig,
    e: Ubig,
    x: Ubig,
    x_prime: Ubig,
}

impl MemberKey {
    /// The certificate value `A` (needed only for debugging / tests).
    pub fn certificate(&self) -> &Ubig {
        &self.a_cert
    }

    /// The claiming secret `x'` — exposed for tests that validate
    /// self-distinction; handle with care.
    pub fn x_prime(&self) -> &Ubig {
        &self.x_prime
    }
}

impl std::fmt::Debug for MemberKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MemberKey {{ id: {}, secrets: **** }}", self.id)
    }
}

/// A registry entry kept by the group manager.
#[derive(Debug, Clone)]
pub struct MemberRecord {
    /// Member identity.
    pub id: MemberId,
    /// Certificate `A`.
    pub a_cert: Ubig,
    /// Certificate prime `e`.
    pub e: Ubig,
    /// The GM-known tracing trapdoor `x` (the VLR revocation token).
    pub x: Ubig,
    /// Whether this member has been revoked.
    pub revoked: bool,
}

/// A verifier-local revocation token: the revoked member's tracing
/// trapdoor. Distributed to members inside encrypted CGKD updates (the
/// paper's member-only CRL).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RevocationToken {
    /// Identity being revoked (informational).
    pub id: MemberId,
    /// The trapdoor `x` such that `T5^x = T4` for this member's
    /// signatures.
    pub x: Ubig,
}

/// The group manager: holds the RSA trapdoor, the opening key `θ` and the
/// member registry.
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
            "GroupManager {{ members: {}, secrets: **** }}",
            self.members.len()
        )
    }
}

/// The GM's reply: the certificate.
#[derive(Debug, Clone)]
pub struct JoinResponse {
    /// Assigned identity.
    pub id: MemberId,
    /// Certificate value `A = (a0·a^x·C)^{1/e}`.
    pub a_cert: Ubig,
    /// Certificate prime.
    pub e: Ubig,
    /// GM-chosen tracing secret.
    pub x: Ubig,
}

/// Output of [`GroupManager::open`]: the signer plus a Chaum–Pedersen
/// proof that the opening is correct (the "incontestable evidence" of the
/// paper's `Open`).
#[derive(Debug, Clone)]
pub struct Opening {
    /// The identified signer.
    pub id: MemberId,
    /// The recovered certificate `A`.
    pub a_cert: Ubig,
    /// Proof that `log_g y = log_{T2}(T1/A)`.
    pub proof: OpeningProof,
}

/// Chaum–Pedersen discrete-log-equality proof for openings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpeningProof {
    /// Fiat–Shamir challenge.
    pub c: Ubig,
    /// Response.
    pub s: Int,
}

impl GroupManager {
    /// `GSIG.Setup`: generates the RSA setting, generators and tracing key.
    pub fn setup(params: GsigParams, rng: &mut (impl RngCore + ?Sized)) -> GroupManager {
        let (rsa, rsa_secret) = RsaGroup::generate(params.modulus_bits, rng);
        Self::setup_with_rsa(params, rsa, rsa_secret, rng)
    }

    /// Setup reusing a pre-generated RSA setting (tests / benchmarks).
    pub fn setup_with_rsa(
        params: GsigParams,
        rsa: RsaGroup,
        rsa_secret: RsaSecret,
        rng: &mut (impl RngCore + ?Sized),
    ) -> GroupManager {
        let a = rsa_secret.qr_generator(&rsa, rng);
        let a0 = rsa_secret.qr_generator(&rsa, rng);
        let b = rsa_secret.qr_generator(&rsa, rng);
        let g = rsa_secret.qr_generator(&rsa, rng);
        let h = rsa_secret.qr_generator(&rsa, rng);
        let theta = brng::below(rng, &rsa.n().shr(2));
        let y = rsa.exp(&g, &theta);
        let values = [&a, &a0, &b, &g, &h, &y];
        let exponents = params.prover_exponents(Scheme::Ky);
        let tables = tables::build(&rsa, LABELS, values, &exponents);
        let pk = GroupPublicKey {
            params,
            rsa,
            a,
            a0,
            b,
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

    /// Member registry (GM-private).
    pub fn members(&self) -> &[MemberRecord] {
        &self.members
    }

    /// `GSIG.Join`, GM side: verifies the member's proof of knowledge of
    /// `x'` and issues a certificate.
    ///
    /// # Errors
    ///
    /// [`GsigError::JoinRejected`] when the proof of knowledge fails.
    pub fn admit(
        &mut self,
        req: &JoinRequest,
        rng: &mut (impl RngCore + ?Sized),
    ) -> Result<JoinResponse, GsigError> {
        let (pk, rsa) = (&self.pk, &self.pk.rsa);
        pk.join().check(req)?;
        let x = pk.params.sample_lambda(rng);
        let e = pk.params.sample_gamma_prime(rng);
        // A = (a0 · a^x · C)^{1/e}
        let base = rsa.mul(&rsa.mul(&pk.a0, &rsa.exp(&pk.a, &x)), &req.commitment);
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
            x: x.clone(),
            revoked: false,
        });
        Ok(JoinResponse { id, a_cert, e, x })
    }

    /// `GSIG.Revoke`: marks the member revoked and returns the VLR token
    /// to publish on the (member-only) CRL.
    ///
    /// # Errors
    ///
    /// [`GsigError::UnknownSigner`] for ids never admitted.
    pub fn revoke(&mut self, id: MemberId) -> Result<RevocationToken, GsigError> {
        let rec = self
            .members
            .iter_mut()
            .find(|m| m.id == id)
            .ok_or(GsigError::UnknownSigner)?;
        rec.revoked = true;
        Ok(RevocationToken {
            id,
            x: rec.x.clone(),
        })
    }

    /// `GSIG.Open`: identifies the signer of a valid signature and produces
    /// the opening proof.
    ///
    /// # Errors
    ///
    /// [`GsigError::InvalidSignature`] when the signature does not verify;
    /// [`GsigError::UnknownSigner`] when the recovered `A` matches no
    /// member.
    pub fn open(&self, message: &[u8], sig: &Signature) -> Result<Opening, GsigError> {
        verify(&self.pk, message, sig, None)?;
        let rsa = &self.pk.rsa;
        // A = T1 / T2^θ.
        let shield = rsa.exp(&sig.tags.t2, &self.theta);
        let a_cert = rsa
            .div(&sig.tags.t1, &shield)
            .map_err(|_| GsigError::InvalidSignature)?;
        let rec = self
            .members
            .iter()
            .find(|m| m.a_cert == a_cert)
            .ok_or(GsigError::UnknownSigner)?;
        // Chaum–Pedersen proof that `log_g y = log_{T2}(T1/A) = θ`, blinded
        // by a DRBG keyed on the secret and the statement: RNG-free without
        // risking nonce reuse.
        let mut seed = b"shs-open-proof".to_vec();
        seed.extend_from_slice(&self.theta.to_bytes_be());
        seed.extend_from_slice(&sig.tags.t1.to_bytes_be());
        seed.extend_from_slice(&sig.tags.t2.to_bytes_be());
        let mut drbg = shs_crypto::drbg::HmacDrbg::from_seed(&seed);
        let rel = opening_relation(&self.pk, sig, &a_cert, &shield);
        let ([_, _], c, [s]) = prove(&rel, [&self.theta], None, &mut drbg);
        Ok(Opening {
            id: rec.id,
            proof: OpeningProof { c, s },
            a_cert,
        })
    }
}

/// Verifies an [`Opening`] against a signature: checks the Chaum–Pedersen
/// relation `g^s·y^c = U1 ∧ T2^s·(T1/A)^c = U2` by recomputing the
/// challenge.
///
/// # Errors
///
/// [`GsigError::InvalidProof`] when the opening does not verify.
pub fn verify_opening(
    pk: &GroupPublicKey,
    sig: &Signature,
    opening: &Opening,
) -> Result<(), GsigError> {
    let shield = pk.rsa.div(&sig.tags.t1, &opening.a_cert);
    let shield = shield.map_err(|_| GsigError::InvalidProof)?;
    let proof = Proof(None, &opening.proof.c, vec![&opening.proof.s]);
    let rel = opening_relation(pk, sig, &opening.a_cert, &shield);
    GsigError::InvalidProof.unless(verifier::single(&rel, &proof))
}

/// `GSIG.Join`, member side, step 1: choose `x' ∈ Λ`, commit and prove.
pub fn start_join(
    pk: &GroupPublicKey,
    rng: &mut (impl RngCore + ?Sized),
) -> (JoinSecret, JoinRequest) {
    pk.join().start(rng)
}

/// `GSIG.Join`, member side, step 2: check the certificate equation
/// `A^e = a0·a^x·b^{x'}` and assemble the member key.
///
/// # Errors
///
/// [`GsigError::JoinRejected`] when the certificate is inconsistent or the
/// issued values fall outside their spheres.
pub fn finish_join(
    pk: &GroupPublicKey,
    secret: JoinSecret,
    resp: &JoinResponse,
) -> Result<MemberKey, GsigError> {
    let params = &pk.params;
    if !params.in_lambda(&resp.x) || !params.in_gamma(&resp.e) {
        return Err(GsigError::JoinRejected);
    }
    let rsa = &pk.rsa;
    let lhs = rsa.exp(&resp.a_cert, &resp.e);
    let rhs = rsa.mul(
        &rsa.mul(&pk.a0, &rsa.exp(&pk.a, &resp.x)),
        &rsa.exp(&pk.b, &secret.x),
    );
    if lhs != rhs {
        return Err(GsigError::JoinRejected);
    }
    Ok(MemberKey {
        id: resp.id,
        a_cert: resp.a_cert.clone(),
        e: resp.e.clone(),
        x: resp.x.clone(),
        x_prime: secret.take(),
    })
}

/// `GSIG.Sign`: produces a signature on `message`.
pub fn sign(
    pk: &GroupPublicKey,
    key: &MemberKey,
    message: &[u8],
    basis: SignBasis<'_>,
    rng: &mut (impl RngCore + ?Sized),
) -> Signature {
    sign_inner(pk, key, message, basis, None, rng)
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
    basis: SignBasis<'_>,
    j: usize,
    rng: &mut (impl RngCore + ?Sized),
) -> Signature {
    sign_inner(pk, key, message, basis, Some(j), rng)
}

fn sign_inner(
    pk: &GroupPublicKey,
    key: &MemberKey,
    message: &[u8],
    basis: SignBasis<'_>,
    negate: Option<usize>,
    rng: &mut (impl RngCore + ?Sized),
) -> Signature {
    let (params, rsa) = (&pk.params, &pk.rsa);
    // Fixed public bases with secret exponents go through the precomputed
    // constant-trace tables. The signer knows the discrete logs of T2 = g^r,
    // T5 = g^{k1} and a random T7 = g^{k2}, so their powers are powers of g
    // as well: T5^x = g^{k1·x} and so on. Every such exponent is on the
    // list `GsigParams::prover_exponents` builds g's table from (the params
    // tests check it). Only T1 and a hashed common T7 stay on the plain
    // Montgomery kernel.
    let [_, _, _, g, h, y] = pk.keys();
    let (r, k1) = (params.sample_r(rng), params.sample_r(rng));
    let (t7, k2) = match basis {
        SignBasis::Random => {
            let k2 = params.sample_r(rng);
            (g.pow_u(&k2), Some(k2))
        }
        SignBasis::Common(bytes) => (pk.common_t7(bytes), None),
    };
    let tags = Tags {
        t1: rsa.mul(&key.a_cert, &y.pow_u(&r)),
        t2: g.pow_u(&r),
        t3: rsa.mul(&g.pow_u(&key.e), &h.pow_u(&r)),
        t4: g.pow_u(&k1.mul(&key.x)),
        t5: g.pow_u(&k1),
        t6: match &k2 {
            Some(k2) => g.pow_u(&k2.mul(&key.x_prime)),
            None => rsa.exp(&t7, &key.x_prime),
        },
        t7,
    };
    let rel = relation(pk, message, &tags, [Some(&r), Some(&k1), k2.as_ref()]);
    let secrets = [&key.x, &key.x_prime, &key.e, &r, &key.e.mul(&r)];
    let (b, c, [s_x, s_xp, s_e, s_r, s_h]) = prove(&rel, secrets, negate, rng);
    Signature {
        tags,
        b,
        c,
        s_x,
        s_xp,
        s_e,
        s_r,
        s_h,
    }
}

impl Signature {
    /// This signature as the verifier sees it: the relation over its tags
    /// and the transmitted proof.
    fn statement<'a>(&'a self, pk: &'a GroupPublicKey, m: &'a [u8]) -> (Relation<'a>, Proof<'a>) {
        let s = vec![&self.s_x, &self.s_xp, &self.s_e, &self.s_r, &self.s_h];
        (
            relation(pk, m, &self.tags, [None; 3]),
            Proof(Some(&self.b), &self.c, s),
        )
    }
}

/// `GSIG.Verify`: checks a signature; when `expected_t7` is provided
/// (self-distinction mode), additionally requires the signature's `T7` to
/// equal it.
///
/// # Errors
///
/// [`GsigError::InvalidSignature`] on any failed check.
pub fn verify(
    pk: &GroupPublicKey,
    message: &[u8],
    sig: &Signature,
    expected_t7: Option<&Ubig>,
) -> Result<(), GsigError> {
    let (rel, proof) = sig.statement(pk, message);
    let pinned = expected_t7.is_none_or(|t7| &sig.tags.t7 == t7);
    GsigError::InvalidSignature.unless(pinned && verifier::single(&rel, &proof))
}

/// Batch `Verify`: checks `k` `(message, signature)` pairs with one
/// random-linear-combination check over the pooled group equations (see
/// [`crate::batch`]). The `expected_t7` pin (self-distinction mode)
/// applies to every signature and runs in the individual cheap checks;
/// only the group equations are combined, and a failed combination is
/// bisected to isolate the offending indices. Both paths compare the
/// equations in `QR(n)` (squared sides / doubled coefficients), so this
/// agrees with calling [`verify`] on every pair — including order-2
/// sign-malleated commitments, which both accept — up to the 2⁻¹²⁸ RLC
/// soundness bound.
///
/// Revocation is *not* checked here — pair with
/// [`crate::crl::Crl::is_revoked`] per surviving signature (the scan is
/// signature-local, so it does not batch).
pub fn verify_batch(
    pk: &GroupPublicKey,
    items: &[(&[u8], &Signature)],
    expected_t7: Option<&Ubig>,
) -> BatchOutcome {
    let statements: Vec<_> = items.iter().map(|(m, sig)| sig.statement(pk, m)).collect();
    let pinned = |(_, sig): &(&[u8], &Signature)| expected_t7.is_none_or(|t7| &sig.tags.t7 == t7);
    verifier::batch(&statements, |i| items.get(i).is_some_and(pinned))
}

/// Verifies a signature against a [`crate::crl::Crl`]: the signature must
/// be valid *and* match no revoked member's token
/// ([`crate::crl::Crl::is_revoked`], one exponentiation per token).
///
/// # Errors
///
/// [`GsigError::InvalidSignature`] for invalid proofs,
/// [`GsigError::RevokedMember`] when a token matches.
pub fn verify_with_crl(
    pk: &GroupPublicKey,
    message: &[u8],
    sig: &Signature,
    expected_t7: Option<&Ubig>,
    crl: &crate::crl::Crl,
) -> Result<(), GsigError> {
    verify(pk, message, sig, expected_t7)?;
    if crl.is_revoked(pk, sig) {
        return Err(GsigError::RevokedMember);
    }
    Ok(())
}

/// A *claim*: a Schnorr proof of knowledge of `x'` with `T6 = T7^{x'}`,
/// by which a member proves — without help from the GM and without
/// revealing `x'` — that a given signature is its own. This is the
/// claiming feature of the Kiayias–Yung scheme the paper's Appendix H
/// points out ("(T6, T7) allows one to claim its signatures").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Claim {
    /// Fiat–Shamir challenge.
    pub c: Ubig,
    /// Response for `x'`.
    pub s: Int,
}

/// Produces a claim on a signature this member created.
///
/// The blinding is derived deterministically from `(x', signature)` via
/// DRBG, so claiming is RNG-free and never reuses a nonce across distinct
/// statements.
pub fn claim(pk: &GroupPublicKey, key: &MemberKey, sig: &Signature) -> Claim {
    let mut seed = b"shs-claim-blind".to_vec();
    seed.extend_from_slice(&key.x_prime.to_bytes_be());
    seed.extend_from_slice(&sig.tags.t6.to_bytes_be());
    seed.extend_from_slice(&sig.tags.t7.to_bytes_be());
    let mut drbg = shs_crypto::drbg::HmacDrbg::from_seed(&seed);
    let ([_], c, [s]) = prove(&claim_relation(pk, sig), [&key.x_prime], None, &mut drbg);
    Claim { c, s }
}

/// Verifies a claim against a signature.
///
/// # Errors
///
/// [`GsigError::InvalidProof`] when the claim does not verify.
pub fn verify_claim(pk: &GroupPublicKey, sig: &Signature, claim: &Claim) -> Result<(), GsigError> {
    let proof = Proof(None, &claim.c, vec![&claim.s]);
    GsigError::InvalidProof.unless(verifier::single(&claim_relation(pk, sig), &proof))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crl::Crl;
    use crate::fixtures as test_support;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(60)
    }

    #[test]
    fn setup_builds_the_tables_every_clone_shares() {
        let (gm, _) = test_support::group_with_members(1);
        let pk = gm.public_key();
        assert!(std::sync::Arc::ptr_eq(&pk.tables, &pk.clone().tables));
        let built = pk.tables.iter().map(Option::is_some);
        let want = LABELS.map(|label| label != "a0");
        assert!(built.eq(want), "one table per base a prover raises");
    }

    #[test]
    fn join_sign_verify_roundtrip() {
        let (gm, keys) = test_support::group_with_members(2);
        let pk = gm.public_key();
        let mut r = rng();
        let sig = sign(pk, &keys[0], b"hello", SignBasis::Random, &mut r);
        verify(pk, b"hello", &sig, None).expect("valid signature");
    }

    #[test]
    fn wrong_message_rejected() {
        let (gm, keys) = test_support::group_with_members(1);
        let pk = gm.public_key();
        let mut r = rng();
        let sig = sign(pk, &keys[0], b"hello", SignBasis::Random, &mut r);
        assert_eq!(
            verify(pk, b"goodbye", &sig, None),
            Err(GsigError::InvalidSignature)
        );
    }

    #[test]
    fn tampered_tags_rejected() {
        let (gm, keys) = test_support::group_with_members(1);
        let pk = gm.public_key();
        let mut r = rng();
        let mut sig = sign(pk, &keys[0], b"m", SignBasis::Random, &mut r);
        sig.tags.t4 = pk.rsa().random_qr(&mut r);
        assert!(verify(pk, b"m", &sig, None).is_err());
    }

    #[test]
    fn open_identifies_signer_with_proof() {
        let (gm, keys) = test_support::group_with_members(3);
        let pk = gm.public_key();
        let mut r = rng();
        for key in &keys {
            let sig = sign(pk, key, b"trace me", SignBasis::Random, &mut r);
            let opening = gm.open(b"trace me", &sig).expect("open");
            assert_eq!(opening.id, key.id);
            verify_opening(pk, &sig, &opening).expect("opening proof verifies");
        }
    }

    #[test]
    fn opening_proof_does_not_transfer() {
        let (gm, keys) = test_support::group_with_members(2);
        let pk = gm.public_key();
        let mut r = rng();
        let sig_a = sign(pk, &keys[0], b"m", SignBasis::Random, &mut r);
        let sig_b = sign(pk, &keys[1], b"m", SignBasis::Random, &mut r);
        let open_a = gm.open(b"m", &sig_a).unwrap();
        // The proof for sig_a must not verify against sig_b.
        assert!(verify_opening(pk, &sig_b, &open_a).is_err());
    }

    #[test]
    fn vlr_revocation_blocks_member() {
        let (mut gm, keys) = test_support::group_with_members_mut(2);
        let pk = gm.public_key().clone();
        let mut r = rng();
        let sig0 = sign(&pk, &keys[0], b"m", SignBasis::Random, &mut r);
        let sig1 = sign(&pk, &keys[1], b"m", SignBasis::Random, &mut r);
        let mut crl = Crl::new();
        crl.push(gm.revoke(keys[0].id).unwrap());
        // Revoked member's signature is rejected; the other's passes.
        assert_eq!(
            verify_with_crl(&pk, b"m", &sig0, None, &crl),
            Err(GsigError::RevokedMember)
        );
        verify_with_crl(&pk, b"m", &sig1, None, &crl).expect("not revoked");
        // Fresh signatures from the revoked key are also caught (VLR works
        // on future signatures, not just past ones).
        let sig0b = sign(&pk, &keys[0], b"m2", SignBasis::Random, &mut r);
        assert_eq!(
            verify_with_crl(&pk, b"m2", &sig0b, None, &crl),
            Err(GsigError::RevokedMember)
        );
    }

    #[test]
    fn self_distinction_same_member_same_t6() {
        let (gm, keys) = test_support::group_with_members(2);
        let pk = gm.public_key();
        let mut r = rng();
        let basis = b"session-transcript-bytes";
        let s1 = sign(pk, &keys[0], b"m1", SignBasis::Common(basis), &mut r);
        let s2 = sign(pk, &keys[0], b"m2", SignBasis::Common(basis), &mut r);
        let s3 = sign(pk, &keys[1], b"m3", SignBasis::Common(basis), &mut r);
        // Same member, same basis => same T6 (duplicate detected).
        assert_eq!(s1.tags.t6, s2.tags.t6);
        // Distinct members => distinct T6.
        assert_ne!(s1.tags.t6, s3.tags.t6);
        // All verify against the common T7.
        let t7 = pk.common_t7(basis);
        verify(pk, b"m1", &s1, Some(&t7)).unwrap();
        verify(pk, b"m3", &s3, Some(&t7)).unwrap();
        // A random-basis signature fails the common-T7 check.
        let s4 = sign(pk, &keys[0], b"m4", SignBasis::Random, &mut r);
        assert!(verify(pk, b"m4", &s4, Some(&t7)).is_err());
    }

    #[test]
    fn self_distinction_unlinkable_across_sessions() {
        let (gm, keys) = test_support::group_with_members(1);
        let pk = gm.public_key();
        let mut r = rng();
        let s1 = sign(pk, &keys[0], b"m", SignBasis::Common(b"session-1"), &mut r);
        let s2 = sign(pk, &keys[0], b"m", SignBasis::Common(b"session-2"), &mut r);
        // Different sessions use different T7, so T6 differs too.
        assert_ne!(s1.tags.t6, s2.tags.t6);
    }

    #[test]
    fn signatures_are_randomized() {
        let (gm, keys) = test_support::group_with_members(1);
        let pk = gm.public_key();
        let mut r = rng();
        let s1 = sign(pk, &keys[0], b"m", SignBasis::Random, &mut r);
        let s2 = sign(pk, &keys[0], b"m", SignBasis::Random, &mut r);
        assert_ne!(s1.tags.t1, s2.tags.t1, "T1 blinding must differ");
        assert_ne!(
            s1.tags.t4, s2.tags.t4,
            "T4 tag must differ across signatures"
        );
    }

    #[test]
    fn bad_join_pok_rejected() {
        let (mut gm, _keys) = test_support::group_with_members_mut(1);
        let pk = gm.public_key().clone();
        let mut r = rng();
        let (_secret, mut req) = start_join(&pk, &mut r);
        req.commitment = pk.rsa().random_qr(&mut r); // break the proof
        assert_eq!(gm.admit(&req, &mut r).err(), Some(GsigError::JoinRejected));
    }

    #[test]
    fn claims_verify_for_the_signer_only() {
        let (gm, keys) = test_support::group_with_members(2);
        let pk = gm.public_key();
        let mut r = rng();
        let sig = sign(pk, &keys[0], b"claimable", SignBasis::Random, &mut r);
        // The signer can claim it.
        let claim_0 = claim(pk, &keys[0], &sig);
        verify_claim(pk, &sig, &claim_0).expect("signer's claim verifies");
        // Another member's claim on the same signature fails.
        let claim_1 = claim(pk, &keys[1], &sig);
        assert_eq!(
            verify_claim(pk, &sig, &claim_1),
            Err(GsigError::InvalidProof)
        );
    }

    #[test]
    fn claims_do_not_transfer_between_signatures() {
        let (gm, keys) = test_support::group_with_members(1);
        let pk = gm.public_key();
        let mut r = rng();
        let sig_a = sign(pk, &keys[0], b"a", SignBasis::Random, &mut r);
        let sig_b = sign(pk, &keys[0], b"b", SignBasis::Random, &mut r);
        let claim_a = claim(pk, &keys[0], &sig_a);
        verify_claim(pk, &sig_a, &claim_a).unwrap();
        // The same claim replayed against a different signature (different
        // T6/T7 pair) fails.
        assert!(verify_claim(pk, &sig_b, &claim_a).is_err());
    }

    #[test]
    fn tampered_claim_rejected() {
        let (gm, keys) = test_support::group_with_members(1);
        let pk = gm.public_key();
        let mut r = rng();
        let sig = sign(pk, &keys[0], b"m", SignBasis::Random, &mut r);
        let mut cl = claim(pk, &keys[0], &sig);
        cl.s = cl.s.add(&Int::from_i64(1));
        assert!(verify_claim(pk, &sig, &cl).is_err());
    }
}
