//! Algebraic settings for the `secret-handshakes` cryptography.
//!
//! Two families of groups underpin everything in this workspace:
//!
//! * [`schnorr::SchnorrGroup`] — a prime-order-`q` subgroup of `Z_p^*`,
//!   the setting of the Burmester–Desmedt and GDH key-agreement protocols
//!   (`shs-dgka`) and of the Cramer–Shoup tracing encryption.
//! * [`rsa::RsaGroup`] — `QR(n)` for a safe-RSA modulus `n = pq`
//!   (`p = 2p'+1`, `q = 2q'+1`), the hidden-order setting of the
//!   ACJT / Kiayias–Yung group signatures (`shs-gsig`).
//!
//! On top of these the crate provides:
//!
//! * [`cs`] — Cramer–Shoup hybrid encryption (IND-CCA2), the paper's
//!   tracing encryption `ENC(pk_T, ·)` of §7.
//!
//! All exponentiation flows through `shs-bigint`'s instrumented `modpow`,
//! so protocol-level experiments can count modular exponentiations exactly
//! as the paper does.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cs;
pub mod rsa;
pub mod schnorr;

/// Errors produced by group operations and encryption schemes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GroupError {
    /// A value was not a member of the expected group / subgroup.
    NotInGroup,
    /// Parameters failed validation (wrong order, composite where prime
    /// expected, generator of the wrong order, ...).
    BadParameters,
    /// A ciphertext failed its validity check (Cramer–Shoup tag, AEAD tag).
    DecryptionFailed,
    /// An element had no inverse (shares a factor with the modulus).
    NotInvertible,
}

impl std::fmt::Display for GroupError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GroupError::NotInGroup => write!(f, "value is not in the expected group"),
            GroupError::BadParameters => write!(f, "group parameters failed validation"),
            GroupError::DecryptionFailed => write!(f, "ciphertext failed validity check"),
            GroupError::NotInvertible => write!(f, "element is not invertible"),
        }
    }
}

impl std::error::Error for GroupError {}
