//! **secret-handshakes** — multi-party anonymous and unobservable
//! authentication: the GCD secret-handshake framework of Tsudik & Xu
//! (PODC 2005), with every substrate implemented from scratch.
//!
//! This meta-crate re-exports the workspace so downstream users can depend
//! on a single crate:
//!
//! * [`core`] — the GCD framework (`GroupAuthority`, `Member`,
//!   `run_handshake`, tracing, roles).
//! * [`gsig`] — Kiayias–Yung and ACJT group signatures, CRL, accumulator.
//! * [`cgkd`] — LKH / Subset-Difference / star key distribution.
//! * [`dgka`] — Burmester–Desmedt, GDH.2, and the Katz–Yung
//!   authenticated compiler.
//! * [`groups`] — Schnorr groups, `QR(n)`, Cramer–Shoup.
//! * [`crypto`] — SHA-256 / HMAC / HKDF / ChaCha20 / AEAD / HMAC-DRBG.
//! * [`bigint`] — the arbitrary-precision arithmetic everything rests on.
//! * [`net`] — the anonymous-channel network simulator.
//!
//! # Example
//!
//! ```rust
//! use secret_handshakes::prelude::*;
//!
//! # fn main() -> Result<(), secret_handshakes::core::CoreError> {
//! let mut rng = secret_handshakes::crypto::drbg::HmacDrbg::from_seed(b"facade-doc");
//! let mut ga = secret_handshakes::core::fixtures::test_authority(SchemeKind::Scheme1, &mut rng);
//! let (mut alice, _) = ga.admit(&mut rng)?;
//! let (bob, update) = ga.admit(&mut rng)?;
//! alice.apply_update(&update)?;
//! let result = run_handshake(
//!     &[Actor::Member(&alice), Actor::Member(&bob)],
//!     &HandshakeOptions::default(),
//!     &mut rng,
//! )?;
//! assert!(result.outcomes.iter().all(|o| o.accepted));
//! # Ok(())
//! # }
//! ```
//!
//! See `README.md` for the architecture, `DESIGN.md` for the system
//! inventory and `EXPERIMENTS.md` for the paper-vs-measured record.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use shs_bigint as bigint;
pub use shs_cgkd as cgkd;
pub use shs_core as core;
pub use shs_crypto as crypto;
pub use shs_dgka as dgka;
pub use shs_groups as groups;
pub use shs_gsig as gsig;
pub use shs_net as net;

/// The most common imports for running secret handshakes.
pub mod prelude {
    pub use shs_core::handshake::run_handshake;
    pub use shs_core::{
        Actor, BulletinBoard, CoreError, GroupAuthority, GroupConfig, HandshakeOptions, Member,
        SchemeKind, TracePolicy,
    };
    pub use shs_crypto::Key;
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_resolve() {
        // Smoke-check that the re-export paths stay wired.
        let _ = crate::core::GroupConfig::default();
        let _ = crate::crypto::Key::from_bytes([0; 32]);
        let _ = crate::bigint::Ubig::one();
    }
}
