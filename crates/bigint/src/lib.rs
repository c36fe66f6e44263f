//! Arbitrary-precision integer arithmetic for the `secret-handshakes`
//! workspace.
//!
//! Every cryptographic substrate in this repository (Schnorr groups, safe-RSA
//! moduli, ACJT/Kiayias–Yung group signatures, Burmester–Desmedt and GDH key
//! agreement, Cramer–Shoup encryption) is built on this crate; no external
//! bignum library is used.
//!
//! The central type is [`Ubig`], an arbitrary-precision natural number stored
//! as little-endian 64-bit limbs, together with a signed companion [`Int`]
//! used by the extended Euclidean algorithm and by Fiat–Shamir proofs whose
//! responses are integers (possibly negative) rather than residues.
//!
//! # Highlights
//!
//! * Schoolbook and Karatsuba multiplication ([`Ubig::mul`]).
//! * Knuth Algorithm D division ([`Ubig::divrem`]).
//! * Montgomery modular exponentiation with a fixed 4-bit window
//!   ([`Ubig::modpow`], [`mont::MontCtx`]) and an acceleration layer:
//!   fixed-base precomputation tables ([`fixed_base::FixedBase`]),
//!   Straus/Shamir simultaneous multi-exponentiation for the verifier
//!   ([`mont::MontCtx::multi_exp_vartime`]) and CRT-split exponentiation
//!   for known factorizations ([`crt::CrtCtx`]). Constant-trace kernels
//!   for secret exponents; the one variable-time kernel, for public data,
//!   is policed by the shs-lint `vartime-usage` rule.
//! * Miller–Rabin primality testing and (safe-)prime generation
//!   ([`prime`]).
//! * Binary and extended GCD, binary modular inverse, Jacobi symbol
//!   ([`gcd`], [`jacobi`]).
//! * Instrumentation counters ([`counters`]) so experiments can report the
//!   *number* of modular exponentiations a protocol performs — the unit in
//!   which the paper states its complexity claims.
//! * Limb-level operation traces ([`trace`], behind the `trace-ops`
//!   feature) asserting that the Montgomery kernels do *secret-independent*
//!   work: same-width exponents produce identical traces.
//!
//! # Example
//!
//! ```rust
//! use shs_bigint::Ubig;
//!
//! let p = Ubig::from_u64(101);
//! let g = Ubig::from_u64(7);
//! // 7^100 mod 101 == 1 by Fermat's little theorem.
//! assert_eq!(g.modpow(&Ubig::from_u64(100), &p), Ubig::one());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod div;
mod fmt;
mod int;
mod mul;
mod ubig;

pub mod counters;
pub mod crt;
pub mod fixed_base;
pub mod gcd;
pub mod jacobi;
pub mod mont;
pub mod prime;
pub mod rng;
pub mod trace;

pub use crt::CrtCtx;
pub use fixed_base::{FixedBase, MontFactor};
pub use int::{Int, Sign};
pub use ubig::Ubig;

/// Errors produced by fallible bigint operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BigintError {
    /// Division or reduction by zero was attempted.
    DivisionByZero,
    /// A modular inverse was requested for a non-invertible element.
    NotInvertible,
    /// A string could not be parsed as a number in the requested radix.
    ParseError,
    /// The CRT moduli of a [`CrtCtx`] were not coprime.
    NotCoprime,
}

impl std::fmt::Display for BigintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BigintError::DivisionByZero => write!(f, "division by zero"),
            BigintError::NotInvertible => {
                write!(f, "element is not invertible modulo the given modulus")
            }
            BigintError::ParseError => write!(f, "invalid digit for the requested radix"),
            BigintError::NotCoprime => write!(f, "CRT moduli are not pairwise coprime"),
        }
    }
}

impl std::error::Error for BigintError {}
