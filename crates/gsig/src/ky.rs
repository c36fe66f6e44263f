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

use crate::batch::{self, BatchOutcome};
use crate::params::GsigParams;
use crate::proofs::{self, Transcript};
use crate::tables::FixedBasePair;
use crate::GsigError;
use rand::RngCore;
use serde::{Deserialize, Serialize};
use shs_bigint::{rng as brng, Int, Ubig};
use shs_groups::rsa::{RsaGroup, RsaParams, RsaSecret};

/// An opaque member identity assigned by the group manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
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
    tables: SignTables,
}

/// Fixed-base tables for the five bases signing exponentiates with secret
/// exponents; built on first use, shared by clones of the key.
#[derive(Debug, Clone, Default)]
struct SignTables {
    a: FixedBasePair,
    b: FixedBasePair,
    g: FixedBasePair,
    h: FixedBasePair,
    y: FixedBasePair,
}

/// Serializable form of [`GroupPublicKey`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GroupPublicKeyParams {
    /// Interval parameters.
    pub params: GsigParams,
    /// RSA modulus.
    pub rsa: RsaParams,
    /// Generators and tracing key.
    pub a: Ubig,
    /// See [`GroupPublicKey::a0`].
    pub a0: Ubig,
    /// See [`GroupPublicKey::b`].
    pub b: Ubig,
    /// See [`GroupPublicKey::g`].
    pub g: Ubig,
    /// See [`GroupPublicKey::h`].
    pub h: Ubig,
    /// See [`GroupPublicKey::y`].
    pub y: Ubig,
}

impl GroupPublicKey {
    /// Serializable parameters.
    pub fn to_params(&self) -> GroupPublicKeyParams {
        GroupPublicKeyParams {
            params: self.params,
            rsa: self.rsa.params(),
            a: self.a.clone(),
            a0: self.a0.clone(),
            b: self.b.clone(),
            g: self.g.clone(),
            h: self.h.clone(),
            y: self.y.clone(),
        }
    }

    /// Rebuilds from parameters.
    pub fn from_params(p: GroupPublicKeyParams) -> GroupPublicKey {
        GroupPublicKey {
            params: p.params,
            rsa: RsaGroup::from_params(p.rsa),
            a: p.a,
            a0: p.a0,
            b: p.b,
            g: p.g,
            h: p.h,
            y: p.y,
            tables: SignTables::default(),
        }
    }

    /// The RSA group (for callers needing raw `QR(n)` operations).
    pub fn rsa(&self) -> &RsaGroup {
        &self.rsa
    }

    /// `a^e` via the precomputed table (constant-trace).
    fn pow_a(&self, e: &Int) -> Ubig {
        self.tables
            .a
            .pow_signed(&self.rsa, &self.a, e, self.params.table_bits())
    }

    /// `b^e` via the precomputed table (constant-trace).
    fn pow_b(&self, e: &Int) -> Ubig {
        self.tables
            .b
            .pow_signed(&self.rsa, &self.b, e, self.params.table_bits())
    }

    /// `g^e` via the precomputed table (constant-trace).
    fn pow_g(&self, e: &Int) -> Ubig {
        self.tables
            .g
            .pow_signed(&self.rsa, &self.g, e, self.params.table_bits())
    }

    /// `h^e` via the precomputed table (constant-trace).
    fn pow_h(&self, e: &Int) -> Ubig {
        self.tables
            .h
            .pow_signed(&self.rsa, &self.h, e, self.params.table_bits())
    }

    /// `y^e` via the precomputed table (constant-trace).
    fn pow_y(&self, e: &Int) -> Ubig {
        self.tables
            .y
            .pow_signed(&self.rsa, &self.y, e, self.params.table_bits())
    }

    /// Unsigned-exponent table variants.
    fn pow_b_u(&self, e: &Ubig) -> Ubig {
        self.tables
            .b
            .pow(&self.rsa, &self.b, e, self.params.table_bits())
    }

    fn pow_g_u(&self, e: &Ubig) -> Ubig {
        self.tables
            .g
            .pow(&self.rsa, &self.g, e, self.params.table_bits())
    }

    fn pow_h_u(&self, e: &Ubig) -> Ubig {
        self.tables
            .h
            .pow(&self.rsa, &self.h, e, self.params.table_bits())
    }

    fn pow_y_u(&self, e: &Ubig) -> Ubig {
        self.tables
            .y
            .pow(&self.rsa, &self.y, e, self.params.table_bits())
    }

    /// Derives the common self-distinction base `T7` from session-unique
    /// bytes (§8.2: an idealized hash of the concatenation of all messages
    /// sent by the handshake participants).
    pub fn common_t7(&self, basis: &[u8]) -> Ubig {
        self.rsa.hash_to_qr(basis)
    }

    fn transcript_for(&self, message: &[u8], tags: &Tags, b: &[Ubig; 6]) -> Transcript {
        let mut t = Transcript::new("shs-gsig-ky");
        t.append_ubig("n", self.rsa.n());
        t.append_ubig("a", &self.a);
        t.append_ubig("a0", &self.a0);
        t.append_ubig("b", &self.b);
        t.append_ubig("g", &self.g);
        t.append_ubig("h", &self.h);
        t.append_ubig("y", &self.y);
        t.append("m", message);
        for (i, tag) in tags.as_array().iter().enumerate() {
            t.append_ubig(&format!("T{}", i + 1), tag);
        }
        for (i, bi) in b.iter().enumerate() {
            t.append_ubig(&format!("B{}", i + 1), bi);
        }
        t
    }
}

/// The seven tags of a KY signature.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
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

impl Tags {
    fn as_array(&self) -> [&Ubig; 7] {
        [
            &self.t1, &self.t2, &self.t3, &self.t4, &self.t5, &self.t6, &self.t7,
        ]
    }
}

/// A KY group signature.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
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
#[derive(Clone, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RevocationToken {
    /// Identity being revoked (informational).
    pub id: MemberId,
    /// The trapdoor `x` such that `T5^x = T4` for this member's
    /// signatures.
    pub x: Ubig,
}

impl RevocationToken {
    /// Does `sig` belong to the member this token revokes?
    pub fn matches(&self, pk: &GroupPublicKey, sig: &Signature) -> bool {
        pk.rsa().exp(&sig.tags.t5, &self.x) == sig.tags.t4
    }
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

/// First message of the interactive join: the member commits to its
/// claiming secret `C = b^{x'}` and proves knowledge of `x' ∈ Λ`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JoinRequest {
    /// `C = b^{x'}`.
    pub commitment: Ubig,
    /// Challenge of the Schnorr proof of knowledge of `x'`.
    pub pok_c: Ubig,
    /// Response of the proof.
    pub pok_s: Int,
}

/// The member's private state between the two join messages.
pub struct JoinSecret {
    x_prime: Ubig,
}

impl std::fmt::Debug for JoinSecret {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JoinSecret(****)")
    }
}

impl JoinSecret {
    /// Zeroizes the private exponent in place. Called automatically on
    /// drop.
    fn wipe_in_place(&mut self) {
        self.x_prime.wipe();
    }
}

impl Drop for JoinSecret {
    fn drop(&mut self) {
        self.wipe_in_place();
    }
}

/// The GM's reply: the certificate.
#[derive(Debug, Clone, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Opening {
    /// The identified signer.
    pub id: MemberId,
    /// The recovered certificate `A`.
    pub a_cert: Ubig,
    /// Proof that `log_g y = log_{T2}(T1/A)`.
    pub proof: OpeningProof,
}

/// Chaum–Pedersen discrete-log-equality proof for openings.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
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
        let pk = GroupPublicKey {
            params,
            rsa,
            a,
            a0,
            b,
            g,
            h,
            y,
            tables: SignTables::default(),
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
        if !verify_join_pok(&self.pk, req) {
            return Err(GsigError::JoinRejected);
        }
        let params = &self.pk.params;
        let x = params.sample_lambda(rng);
        let e = params.sample_gamma_prime(rng);
        // A = (a0 · a^x · C)^{1/e}
        let base = self.pk.rsa.mul(
            &self
                .pk
                .rsa
                .mul(&self.pk.a0, &self.pk.rsa.exp(&self.pk.a, &x)),
            &req.commitment,
        );
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
        let proof = self.prove_opening(sig, &a_cert);
        Ok(Opening {
            id: rec.id,
            a_cert,
            proof,
        })
    }

    /// Chaum–Pedersen proof that `log_g y = log_{T2}(T1/A) = θ`.
    fn prove_opening(&self, sig: &Signature, a_cert: &Ubig) -> OpeningProof {
        let rsa = &self.pk.rsa;
        let params = &self.pk.params;
        // Deterministic blinding via DRBG keyed on the secret & statement
        // keeps this function RNG-free without risking nonce reuse.
        let mut seed = b"shs-open-proof".to_vec();
        seed.extend_from_slice(&self.theta.to_bytes_be());
        seed.extend_from_slice(&sig.tags.t1.to_bytes_be());
        seed.extend_from_slice(&sig.tags.t2.to_bytes_be());
        let mut drbg = shs_crypto::drbg::HmacDrbg::from_seed(&seed);
        let rho = proofs::sample_blind(params.blind_bits(params.r_bits() + 2), &mut drbg);
        let u1 = rsa.exp_signed(&self.pk.g, &rho);
        let u2 = rsa.exp_signed(&sig.tags.t2, &rho);
        let c = opening_transcript(&self.pk, sig, a_cert, &u1, &u2).challenge(params.k);
        let s = proofs::response(&rho, &c, &self.theta, &Ubig::zero());
        OpeningProof { c, s }
    }
}

fn opening_transcript(
    pk: &GroupPublicKey,
    sig: &Signature,
    a_cert: &Ubig,
    u1: &Ubig,
    u2: &Ubig,
) -> Transcript {
    let mut t = Transcript::new("shs-gsig-open");
    t.append_ubig("n", pk.rsa.n());
    t.append_ubig("g", &pk.g);
    t.append_ubig("y", &pk.y);
    t.append_ubig("T1", &sig.tags.t1);
    t.append_ubig("T2", &sig.tags.t2);
    t.append_ubig("A", a_cert);
    t.append_ubig("U1", u1);
    t.append_ubig("U2", u2);
    t
}

/// Verifies an [`Opening`] against a signature: checks the Chaum–Pedersen
/// relation `g^s·y^c = U1 ∧ T2^s·(T1/A)^c = U2` by recomputing the
/// challenge.
pub fn verify_opening(
    pk: &GroupPublicKey,
    sig: &Signature,
    opening: &Opening,
) -> Result<(), GsigError> {
    let rsa = &pk.rsa;
    let params = &pk.params;
    if !proofs::response_in_range(&opening.proof.s, params.blind_bits(params.r_bits() + 2)) {
        return Err(GsigError::InvalidProof);
    }
    let shield = rsa
        .div(&sig.tags.t1, &opening.a_cert)
        .map_err(|_| GsigError::InvalidProof)?;
    let c_int = Int::from_ubig(opening.proof.c.clone());
    let u1 = rsa.multi_exp_vartime(&[(&pk.g, &opening.proof.s), (&pk.y, &c_int)]);
    let u2 = rsa.multi_exp_vartime(&[(&sig.tags.t2, &opening.proof.s), (&shield, &c_int)]);
    let c = opening_transcript(pk, sig, &opening.a_cert, &u1, &u2).challenge(params.k);
    if c == opening.proof.c {
        Ok(())
    } else {
        Err(GsigError::InvalidProof)
    }
}

/// `GSIG.Join`, member side, step 1: choose `x' ∈ Λ`, commit and prove.
pub fn start_join(
    pk: &GroupPublicKey,
    rng: &mut (impl RngCore + ?Sized),
) -> (JoinSecret, JoinRequest) {
    let params = &pk.params;
    let x_prime = params.sample_lambda(rng);
    let commitment = pk.pow_b_u(&x_prime);
    // Schnorr PoK of x' in Λ on base b.
    let rho = proofs::sample_blind(params.blind_bits(params.lambda2), rng);
    let big_b = pk.pow_b(&rho);
    let mut t = Transcript::new("shs-gsig-join");
    t.append_ubig("n", pk.rsa.n());
    t.append_ubig("b", &pk.b);
    t.append_ubig("C", &commitment);
    t.append_ubig("B", &big_b);
    let c = t.challenge(params.k);
    let s = proofs::response(&rho, &c, &x_prime, &pow2(params.lambda1));
    (
        JoinSecret { x_prime },
        JoinRequest {
            commitment,
            pok_c: c,
            pok_s: s,
        },
    )
}

fn verify_join_pok(pk: &GroupPublicKey, req: &JoinRequest) -> bool {
    let params = &pk.params;
    if !proofs::response_in_range(&req.pok_s, params.blind_bits(params.lambda2)) {
        return false;
    }
    // B' = b^{s - c·2^{λ1}} · C^c — public join-request data: one vartime
    // multi-exp.
    let exp = proofs::shifted(&req.pok_s, &req.pok_c, params.lambda1);
    let big_b = pk.rsa.multi_exp_vartime(&[
        (&pk.b, &exp),
        (&req.commitment, &Int::from_ubig(req.pok_c.clone())),
    ]);
    let mut t = Transcript::new("shs-gsig-join");
    t.append_ubig("n", pk.rsa.n());
    t.append_ubig("b", &pk.b);
    t.append_ubig("C", &req.commitment);
    t.append_ubig("B", &big_b);
    t.challenge(params.k) == req.pok_c
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
    mut secret: JoinSecret,
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
        &rsa.exp(&pk.b, &secret.x_prime),
    );
    if lhs != rhs {
        return Err(GsigError::JoinRejected);
    }
    // `JoinSecret: Drop`, so `x_prime` cannot be moved out; swap it for
    // zero and let the drop wipe the (now empty) remainder.
    let x_prime = std::mem::replace(&mut secret.x_prime, Ubig::zero());
    Ok(MemberKey {
        id: resp.id,
        a_cert: resp.a_cert.clone(),
        e: resp.e.clone(),
        x: resp.x.clone(),
        x_prime,
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
    let params = &pk.params;
    let rsa = &pk.rsa;
    let two = |bits: u32| -> Ubig { pow2(bits) };

    // Fixed public bases with secret exponents go through the precomputed
    // constant-trace tables. The signer knows the discrete logs of T2 = g^r,
    // T5 = g^{k1} and a random T7 = g^{k2}, so their powers are powers of g
    // as well: T5^x = g^{k1·x} and so on. By the parameter formulas every
    // such product fits under `table_bits` (the params tests check it).
    // Only T1 and a hashed common T7 stay on the plain Montgomery kernel.
    let r = brng::below(rng, &two(params.r_bits()));
    let k1 = brng::below(rng, &two(params.r_bits()));
    let t5 = pk.pow_g_u(&k1);
    let t4 = pk.pow_g_u(&k1.mul(&key.x));
    let (t7, k2) = match basis {
        SignBasis::Random => {
            let k2 = brng::below(rng, &two(params.r_bits()));
            (pk.pow_g_u(&k2), Some(k2))
        }
        SignBasis::Common(bytes) => (pk.common_t7(bytes), None),
    };
    let t6 = match &k2 {
        Some(k2) => pk.pow_g_u(&k2.mul(&key.x_prime)),
        None => rsa.exp(&t7, &key.x_prime),
    };
    let t1 = rsa.mul(&key.a_cert, &pk.pow_y_u(&r));
    let t2 = pk.pow_g_u(&r);
    let t3 = rsa.mul(&pk.pow_g_u(&key.e), &pk.pow_h_u(&r));
    let h_prime = key.e.mul(&r);
    let tags = Tags {
        t1,
        t2,
        t3,
        t4,
        t5,
        t6,
        t7,
    };

    // Blinds.
    let rho_x = proofs::sample_blind(params.blind_bits(params.lambda2), rng);
    let rho_xp = proofs::sample_blind(params.blind_bits(params.lambda2), rng);
    let rho_e = proofs::sample_blind(params.blind_bits(params.gamma2), rng);
    let rho_r = proofs::sample_blind(params.blind_bits(params.r_bits()), rng);
    let rho_h = proofs::sample_blind(params.blind_bits(params.h_bits()), rng);

    // Commitments B1..B6.
    let b1 = pk.pow_g(&rho_r);
    let b2 = rsa.mul(&pk.pow_g(&rho_e), &pk.pow_h(&rho_r));
    let b3 = rsa.mul(&pk.pow_g(&times(&r, &rho_e)), &pk.pow_g(&rho_h.neg()));
    let b4 = pk.pow_g(&times(&k1, &rho_x));
    let b5 = match &k2 {
        Some(k2) => pk.pow_g(&times(k2, &rho_xp)),
        None => rsa.exp_signed(&tags.t7, &rho_xp),
    };
    let b6 = rsa.mul(
        &rsa.mul(
            &rsa.mul(&pk.pow_a(&rho_x), &pk.pow_b(&rho_xp)),
            &pk.pow_y(&rho_h),
        ),
        &rsa.exp_signed(&tags.t1, &rho_e.neg()),
    );

    let mut b = [b1, b2, b3, b4, b5, b6];
    if let Some(j) = negate {
        b[j] = rsa.n().sub(&b[j]);
    }
    let c = pk.transcript_for(message, &tags, &b).challenge(params.k);

    let s_x = proofs::response(&rho_x, &c, &key.x, &two(params.lambda1));
    let s_xp = proofs::response(&rho_xp, &c, &key.x_prime, &two(params.lambda1));
    let s_e = proofs::response(&rho_e, &c, &key.e, &two(params.gamma1));
    let s_r = proofs::response(&rho_r, &c, &r, &Ubig::zero());
    let s_h = proofs::response(&rho_h, &c, &h_prime, &Ubig::zero());

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

/// `log · ρ` over `Z`: the exponent of `(g^log)^ρ` as a power of `g`.
fn times(log: &Ubig, rho: &Int) -> Int {
    Int::from_ubig(log.clone()).mul(rho)
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
    precheck(pk, message, sig, expected_t7)?;
    if equations_hold(pk, sig) {
        Ok(())
    } else {
        Err(GsigError::InvalidSignature)
    }
}

/// The cheap per-signature checks batch verification must also run
/// individually: the `T7` pin, element ranges, response spheres and the
/// Fiat–Shamir challenge binding `(m, T, B)`. No exponentiations.
fn precheck(
    pk: &GroupPublicKey,
    message: &[u8],
    sig: &Signature,
    expected_t7: Option<&Ubig>,
) -> Result<(), GsigError> {
    let params = &pk.params;
    let rsa = &pk.rsa;

    if let Some(t7) = expected_t7 {
        if &sig.tags.t7 != t7 {
            return Err(GsigError::InvalidSignature);
        }
    }
    for tag in sig.tags.as_array().into_iter().chain(sig.b.iter()) {
        if tag.is_zero() || *tag >= *rsa.n() {
            return Err(GsigError::InvalidSignature);
        }
    }

    // Range checks on the responses.
    let ok = proofs::response_in_range(&sig.s_x, params.blind_bits(params.lambda2))
        && proofs::response_in_range(&sig.s_xp, params.blind_bits(params.lambda2))
        && proofs::response_in_range(&sig.s_e, params.blind_bits(params.gamma2))
        && proofs::response_in_range(&sig.s_r, params.blind_bits(params.r_bits()))
        && proofs::response_in_range(&sig.s_h, params.blind_bits(params.h_bits()));
    if !ok {
        return Err(GsigError::InvalidSignature);
    }
    let c_prime = pk
        .transcript_for(message, &sig.tags, &sig.b)
        .challenge(params.k);
    if c_prime == sig.c {
        Ok(())
    } else {
        Err(GsigError::InvalidSignature)
    }
}

/// The six group equations against the transmitted commitments,
/// compared in `QR(n)`: both sides are squared, so equality is up to a
/// square root of 1 — and `±1` is the only one computable without
/// factoring `n`, making this the same quotient the batch RLC combines
/// in (see `crate::batch`). Every operand is broadcast data, so each B
/// product is one vartime Straus multi-exp (shared squaring chain
/// across the bases).
fn equations_hold(pk: &GroupPublicKey, sig: &Signature) -> bool {
    let params = &pk.params;
    let rsa = &pk.rsa;
    let e_e = proofs::shifted(&sig.s_e, &sig.c, params.gamma1);
    let e_x = proofs::shifted(&sig.s_x, &sig.c, params.lambda1);
    let e_xp = proofs::shifted(&sig.s_xp, &sig.c, params.lambda1);

    let c_int = Int::from_ubig(sig.c.clone());
    // B1 = g^{s_r} · T2^c
    let b1 = rsa.multi_exp_vartime(&[(&pk.g, &sig.s_r), (&sig.tags.t2, &c_int)]);
    // B2 = g^{E_e} · h^{s_r} · T3^c
    let b2 = rsa.multi_exp_vartime(&[(&pk.g, &e_e), (&pk.h, &sig.s_r), (&sig.tags.t3, &c_int)]);
    // B3 = T2^{E_e} · g^{-s_h}
    let b3 = rsa.multi_exp_vartime(&[(&sig.tags.t2, &e_e), (&pk.g, &sig.s_h.neg())]);
    // B4 = T5^{E_x} · T4^c
    let b4 = rsa.multi_exp_vartime(&[(&sig.tags.t5, &e_x), (&sig.tags.t4, &c_int)]);
    // B5 = T7^{E_xp} · T6^c
    let b5 = rsa.multi_exp_vartime(&[(&sig.tags.t7, &e_xp), (&sig.tags.t6, &c_int)]);
    // B6 = a^{E_x} · b^{E_xp} · y^{s_h} · T1^{-E_e} · a0^{-c}
    let b6 = rsa.multi_exp_vartime(&[
        (&pk.a, &e_x),
        (&pk.b, &e_xp),
        (&pk.y, &sig.s_h),
        (&sig.tags.t1, &e_e.neg()),
        (&pk.a0, &c_int.neg()),
    ]);
    [b1, b2, b3, b4, b5, b6]
        .iter()
        .zip(sig.b.iter())
        .all(|(rhs, b)| rsa.mul(rhs, rhs) == rsa.mul(b, b))
}

/// Batch `Verify`: checks `k` `(message, signature)` pairs with one
/// random-linear-combination check over the pooled group equations (see
/// [`crate::batch`]). The `expected_t7` pin (self-distinction mode)
/// applies to every signature and runs in the individual precheck; only
/// the group equations are combined, and a failed combination is
/// bisected to isolate the offending indices. Both paths compare the
/// equations in `QR(n)` (squared sides / doubled coefficients), so this
/// agrees with calling [`verify`] on every pair — including order-2
/// sign-malleated commitments, which both accept — up to the 2⁻¹²⁸ RLC
/// soundness bound.
///
/// Revocation is *not* checked here — pair with
/// [`crate::crl::Crl::is_revoked`] per surviving signature (the check is
/// memoized and signature-local, so it does not batch).
pub fn verify_batch(
    pk: &GroupPublicKey,
    items: &[(&[u8], &Signature)],
    expected_t7: Option<&Ubig>,
) -> BatchOutcome {
    let mut bad = Vec::new();
    let mut survivors = Vec::new();
    for (i, (message, sig)) in items.iter().enumerate() {
        if precheck(pk, message, sig, expected_t7).is_ok() {
            survivors.push(i);
        } else {
            bad.push(i);
        }
    }
    if !survivors.is_empty() {
        let digest = batch_digest(pk, items);
        let mut rlc = |subset: &[usize]| rlc_holds(pk, items, subset, &digest);
        batch::isolate_invalid(&survivors, &mut rlc, &mut bad);
    }
    BatchOutcome::from_invalid(bad)
}

/// Binds the coefficient DRBG to the entire batch content, so the
/// combination coefficients are fixed only after every signature is.
fn batch_digest(pk: &GroupPublicKey, items: &[(&[u8], &Signature)]) -> Vec<u8> {
    let mut tr = Transcript::new("shs-gsig-ky-batch");
    tr.append_ubig("n", pk.rsa.n());
    for (message, sig) in items {
        tr.append("m", message);
        for (i, tag) in sig.tags.as_array().iter().enumerate() {
            tr.append_ubig(&format!("T{}", i + 1), tag);
        }
        for (i, bi) in sig.b.iter().enumerate() {
            tr.append_ubig(&format!("B{}", i + 1), bi);
        }
        tr.append_ubig("c", &sig.c);
        tr.append_int("s_x", &sig.s_x);
        tr.append_int("s_xp", &sig.s_xp);
        tr.append_int("s_e", &sig.s_e);
        tr.append_int("s_r", &sig.s_r);
        tr.append_int("s_h", &sig.s_h);
    }
    tr.challenge(256).to_bytes_be()
}

/// The combined group equation over `subset`:
/// `Π B_{i,j}^{2·z_{i,j}} == Π RHS_{i,j}^{2·z_{i,j}}`, two multi-exps.
/// Doubling every coefficient squares both sides, i.e. compares in
/// `QR(n)` exactly like the per-signature [`equations_hold`] — an
/// order-2 deviation (`±1`, the only small-order element computable
/// without factoring `n`) cancels on *every* draw instead of slipping
/// through even coefficients (see `crate::batch`). Exponents of the
/// shared bases `g, h, a, b, y, a0` accumulate across the subset, so
/// their ladder cost is paid once per batch.
fn rlc_holds(
    pk: &GroupPublicKey,
    items: &[(&[u8], &Signature)],
    subset: &[usize],
    digest: &[u8],
) -> bool {
    let params = &pk.params;
    let rsa = &pk.rsa;
    let two = Int::from_i64(2);
    let mut coeffs = batch::CoeffStream::new("shs-gsig-ky", digest, subset);
    let mut e_g = Int::zero();
    let mut e_h = Int::zero();
    let mut e_a = Int::zero();
    let mut e_b = Int::zero();
    let mut e_y = Int::zero();
    let mut e_a0 = Int::zero();
    let mut lhs: Vec<(&Ubig, Int)> = Vec::with_capacity(6 * subset.len());
    let mut per_sig: Vec<(&Ubig, Int)> = Vec::with_capacity(6 * subset.len());
    for &i in subset {
        let sig = items[i].1;
        let tags = &sig.tags;
        let c = Int::from_ubig(sig.c.clone());
        let e_e = proofs::shifted(&sig.s_e, &sig.c, params.gamma1);
        let e_x = proofs::shifted(&sig.s_x, &sig.c, params.lambda1);
        let e_xp = proofs::shifted(&sig.s_xp, &sig.c, params.lambda1);
        let z1 = coeffs.next_coeff().mul(&two);
        let z2 = coeffs.next_coeff().mul(&two);
        let z3 = coeffs.next_coeff().mul(&two);
        let z4 = coeffs.next_coeff().mul(&two);
        let z5 = coeffs.next_coeff().mul(&two);
        let z6 = coeffs.next_coeff().mul(&two);
        // B1 = g^{s_r} T2^c and B3 = T2^{E_e} g^{-s_h} share base T2.
        e_g = e_g.add(&z1.mul(&sig.s_r)).sub(&z3.mul(&sig.s_h));
        per_sig.push((&tags.t2, z1.mul(&c).add(&z3.mul(&e_e))));
        // B2 = g^{E_e} h^{s_r} T3^c.
        e_g = e_g.add(&z2.mul(&e_e));
        e_h = e_h.add(&z2.mul(&sig.s_r));
        per_sig.push((&tags.t3, z2.mul(&c)));
        // B4 = T5^{E_x} T4^c.
        per_sig.push((&tags.t5, z4.mul(&e_x)));
        per_sig.push((&tags.t4, z4.mul(&c)));
        // B5 = T7^{E_xp} T6^c.
        per_sig.push((&tags.t7, z5.mul(&e_xp)));
        per_sig.push((&tags.t6, z5.mul(&c)));
        // B6 = a^{E_x} b^{E_xp} y^{s_h} T1^{-E_e} a0^{-c}.
        e_a = e_a.add(&z6.mul(&e_x));
        e_b = e_b.add(&z6.mul(&e_xp));
        e_y = e_y.add(&z6.mul(&sig.s_h));
        e_a0 = e_a0.sub(&z6.mul(&c));
        per_sig.push((&tags.t1, z6.mul(&e_e).neg()));
        for (bi, z) in sig.b.iter().zip([z1, z2, z3, z4, z5, z6]) {
            lhs.push((bi, z));
        }
    }
    let mut rhs_terms: Vec<(&Ubig, &Int)> = vec![
        (&pk.g, &e_g),
        (&pk.h, &e_h),
        (&pk.a, &e_a),
        (&pk.b, &e_b),
        (&pk.y, &e_y),
        (&pk.a0, &e_a0),
    ];
    rhs_terms.extend(per_sig.iter().map(|(base, e)| (*base, e)));
    let lhs_terms: Vec<(&Ubig, &Int)> = lhs.iter().map(|(base, e)| (*base, e)).collect();
    rsa.multi_exp_vartime(&lhs_terms) == rsa.multi_exp_vartime(&rhs_terms)
}

/// Verifies a signature against a CRL of VLR tokens: the signature must be
/// valid *and* not match any revoked member's trapdoor.
///
/// # Errors
///
/// [`GsigError::InvalidSignature`] for invalid proofs,
/// [`GsigError::RevokedMember`] when a token matches.
pub fn verify_with_tokens(
    pk: &GroupPublicKey,
    message: &[u8],
    sig: &Signature,
    expected_t7: Option<&Ubig>,
    tokens: &[RevocationToken],
) -> Result<(), GsigError> {
    verify(pk, message, sig, expected_t7)?;
    for token in tokens {
        if token.matches(pk, sig) {
            return Err(GsigError::RevokedMember);
        }
    }
    Ok(())
}

/// Verifies a signature against a [`crate::crl::Crl`]: like
/// [`verify_with_tokens`], but routed through the CRL's memoized
/// revocation check so repeated checks of the same signature against the
/// same CRL state cost `O(1)`.
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
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Claim {
    /// Fiat–Shamir challenge.
    pub c: Ubig,
    /// Response for `x'`.
    pub s: Int,
}

fn claim_transcript(
    pk: &GroupPublicKey,
    sig: &Signature,
    big_b: &Ubig,
) -> crate::proofs::Transcript {
    let mut t = Transcript::new("shs-gsig-claim");
    t.append_ubig("n", pk.rsa.n());
    t.append_ubig("T6", &sig.tags.t6);
    t.append_ubig("T7", &sig.tags.t7);
    t.append_ubig("c", &sig.c);
    t.append_ubig("B", big_b);
    t
}

/// Produces a claim on a signature this member created.
///
/// The blinding is derived deterministically from `(x', signature)` via
/// DRBG, so claiming is RNG-free and never reuses a nonce across distinct
/// statements.
pub fn claim(pk: &GroupPublicKey, key: &MemberKey, sig: &Signature) -> Claim {
    let params = &pk.params;
    let mut seed = b"shs-claim-blind".to_vec();
    seed.extend_from_slice(&key.x_prime.to_bytes_be());
    seed.extend_from_slice(&sig.tags.t6.to_bytes_be());
    seed.extend_from_slice(&sig.tags.t7.to_bytes_be());
    let mut drbg = shs_crypto::drbg::HmacDrbg::from_seed(&seed);
    let rho = proofs::sample_blind(params.blind_bits(params.lambda2), &mut drbg);
    let big_b = pk.rsa.exp_signed(&sig.tags.t7, &rho);
    let c = claim_transcript(pk, sig, &big_b).challenge(params.k);
    let s = proofs::response(&rho, &c, &key.x_prime, &pow2(params.lambda1));
    Claim { c, s }
}

/// Verifies a claim against a signature.
///
/// # Errors
///
/// [`GsigError::InvalidProof`] when the claim does not verify.
pub fn verify_claim(pk: &GroupPublicKey, sig: &Signature, claim: &Claim) -> Result<(), GsigError> {
    let params = &pk.params;
    if !proofs::response_in_range(&claim.s, params.blind_bits(params.lambda2)) {
        return Err(GsigError::InvalidProof);
    }
    // B' = T7^{s - c·2^{λ1}} · T6^c — public claim data: one vartime
    // multi-exp.
    let exp = proofs::shifted(&claim.s, &claim.c, params.lambda1);
    let big_b = pk.rsa.multi_exp_vartime(&[
        (&sig.tags.t7, &exp),
        (&sig.tags.t6, &Int::from_ubig(claim.c.clone())),
    ]);
    if claim_transcript(pk, sig, &big_b).challenge(params.k) == claim.c {
        Ok(())
    } else {
        Err(GsigError::InvalidProof)
    }
}

fn pow2(bits: u32) -> Ubig {
    let mut u = Ubig::zero();
    u.set_bit(bits);
    u
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures as test_support;
    use rand::SeedableRng;

    #[test]
    fn join_secret_drop_path_wipes_exponent() {
        // Exercises the exact routine `drop` runs; post-drop memory cannot
        // be inspected from safe code.
        let mut s = JoinSecret {
            x_prime: Ubig::from_u64(0xdead_beef),
        };
        s.wipe_in_place();
        assert!(s.x_prime.is_zero());
    }

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(60)
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
        let pk_params = gm.public_key().to_params();
        let pk = GroupPublicKey::from_params(pk_params);
        let mut r = rng();
        let sig0 = sign(&pk, &keys[0], b"m", SignBasis::Random, &mut r);
        let sig1 = sign(&pk, &keys[1], b"m", SignBasis::Random, &mut r);
        let token = gm.revoke(keys[0].id).unwrap();
        // Revoked member's signature is rejected; the other's passes.
        assert_eq!(
            verify_with_tokens(&pk, b"m", &sig0, None, std::slice::from_ref(&token)),
            Err(GsigError::RevokedMember)
        );
        verify_with_tokens(&pk, b"m", &sig1, None, std::slice::from_ref(&token))
            .expect("not revoked");
        // Fresh signatures from the revoked key are also caught (VLR works
        // on future signatures, not just past ones).
        let sig0b = sign(&pk, &keys[0], b"m2", SignBasis::Random, &mut r);
        assert_eq!(
            verify_with_tokens(&pk, b"m2", &sig0b, None, &[token]),
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
        let pk_params = gm.public_key().to_params();
        let pk = GroupPublicKey::from_params(pk_params);
        let mut r = rng();
        let (_secret, mut req) = start_join(&pk, &mut r);
        req.commitment = pk.rsa().random_qr(&mut r); // break the proof
        assert_eq!(gm.admit(&req, &mut r).err(), Some(GsigError::JoinRejected));
    }

    #[test]
    fn serde_roundtrip() {
        let (gm, keys) = test_support::group_with_members(1);
        let pk = gm.public_key();
        let mut r = rng();
        let sig = sign(pk, &keys[0], b"serialize", SignBasis::Random, &mut r);
        let json = serde_json_like(&sig);
        assert!(!json.is_empty());
        // Public key params roundtrip.
        let params = pk.to_params();
        let rebuilt = GroupPublicKey::from_params(params.clone());
        assert_eq!(rebuilt.to_params(), params);
        verify(&rebuilt, b"serialize", &sig, None).unwrap();
    }

    /// Minimal serialization smoke check without pulling in serde_json.
    fn serde_json_like(sig: &Signature) -> Vec<u8> {
        // bincode-style: use serde's Debug-ish surrogate via postcard?
        // Neither is a dependency; a Debug format suffices as a smoke test
        // that all fields are reachable.
        format!("{sig:?}").into_bytes()
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

    #[test]
    fn per_member_tracing_token_finds_only_that_member() {
        // The user-tracing feature of KY (App. H): whoever holds a
        // member's trapdoor x can test signatures for that member —
        // without being able to open anyone else's.
        let (mut gm, keys) = test_support::group_with_members_mut(2);
        let pk = GroupPublicKey::from_params(gm.public_key().to_params());
        let mut r = rng();
        let sig_0 = sign(&pk, &keys[0], b"m", SignBasis::Random, &mut r);
        let sig_1 = sign(&pk, &keys[1], b"m", SignBasis::Random, &mut r);
        // GM delegates tracing of member 0 by releasing its token.
        let token = gm.revoke(keys[0].id).unwrap();
        assert!(token.matches(&pk, &sig_0));
        assert!(!token.matches(&pk, &sig_1));
    }
}
