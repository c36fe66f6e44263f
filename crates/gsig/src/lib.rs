//! Group signatures for the GCD secret-handshake framework.
//!
//! This crate implements the paper's GSIG building block (§4) from scratch:
//!
//! * [`ky`] — the Kiayias–Yung traceable-signature scheme sketched in the
//!   paper's Appendix H (`T1..T7` tags), including the **self-distinction**
//!   variant of §8.2 (common hashed `T7`) and verifier-local revocation via
//!   the member-only CRL.
//! * [`acjt`] — the classic ACJT2000 coalition-resistant group signature
//!   (the basis cited for instantiation §8.1), with full-anonymity but no
//!   signature-level revocation (see DESIGN.md §2.2 for the trade-off this
//!   reproduces).
//! * [`batch`] — random-linear-combination batch verification shared by
//!   both schemes (`verify_batch` + bisection fallback), amortizing the
//!   public-data verify equations across k signatures.
//! * [`crl`] — the versioned certificate-revocation list distributed to
//!   members inside encrypted CGKD updates.
//! * [`accumulator`] — a Camenisch–Lysyanskaya dynamic accumulator, the
//!   revocation substrate the paper cites as "quite expensive" \[12\];
//!   benchmarked in the revocation ablation.
//! * [`params`] — interval parameters shared by the schemes.
//! * `sigma` — the one Σ-protocol engine that proves, binds and verifies
//!   the six relations (ACJT and KY signatures and join proofs, KY's
//!   opening proof and claim): one prover (`sigma/prove.rs`), one single
//!   and batch verifier (`sigma/verify.rs`, re-exported as [`batch`]).
//! * `join` — the first join message, the same in both schemes: the
//!   member's commitment to a fresh secret and its proof, declared once
//!   for both bases. Its [`acjt::JoinRequest`] and [`acjt::JoinSecret`]
//!   are re-exported by both scheme modules.
//! * [`fixtures`] — deterministic test/bench fixtures (cached RSA
//!   settings and pre-admitted members).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accumulator;
pub mod acjt;
pub mod crl;
pub mod fixtures;
mod join;
pub mod ky;
pub mod params;
mod sigma;
mod tables;

pub use sigma::verify as batch;

/// Errors produced by the group-signature schemes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GsigError {
    /// A signature failed verification.
    InvalidSignature,
    /// A zero-knowledge proof (join PoK, opening proof) failed.
    InvalidProof,
    /// A valid signature was produced by a revoked member (VLR check).
    RevokedMember,
    /// `Open` recovered a certificate matching no registered member.
    UnknownSigner,
    /// The interactive join protocol was aborted.
    JoinRejected,
}

impl std::fmt::Display for GsigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GsigError::InvalidSignature => write!(f, "group signature failed verification"),
            GsigError::InvalidProof => write!(f, "zero-knowledge proof failed verification"),
            GsigError::RevokedMember => write!(f, "signature matches a revoked member's token"),
            GsigError::UnknownSigner => write!(f, "opened certificate matches no member"),
            GsigError::JoinRejected => write!(f, "join protocol rejected"),
        }
    }
}

impl std::error::Error for GsigError {}

impl GsigError {
    /// `Ok(())` when `ok` holds, this error otherwise.
    pub(crate) fn unless(self, ok: bool) -> Result<(), GsigError> {
        ok.then_some(()).ok_or(self)
    }
}
