//! The substrate contract layer: trait definitions the GCD compiler
//! plugs its three building blocks into (DESIGN.md §10).
//!
//! The paper's §5 flexibility claim — "any centralized group key
//! distribution scheme satisfying the functionality and security
//! requirements … can be integrated", with matching language for GSIG
//! and DGKA — is enforced structurally here: the framework only ever
//! talks to
//!
//! * [`Gsig`] / [`GsigCredential`] — group-signature authority and
//!   member credential (`GSIG.{Setup, Join, Sign, Verify, Open,
//!   Revoke}`),
//! * [`Cgkd`] / [`CgkdSlot`] — centralized key-distribution controller
//!   and member state (`CGKD.{Create, Join, Leave, Rekey}`),
//! * [`DgkaSlot`] — one party of the distributed key agreement that
//!   runs Phase I of the handshake (`DGKA.{Contribute, Derive}`),
//!
//! and every concrete implementation is constructed in exactly one
//! place, [`crate::factory`]. No other module matches on
//! [`crate::config::SchemeKind`], [`crate::config::CgkdChoice`] or
//! [`crate::config::DgkaChoice`] — a rule the `shs-lint`
//! `factory-dispatch` rule enforces in CI.

pub mod cgkd;
pub mod dgka;
pub mod gsig;

pub use cgkd::{Cgkd, CgkdSlot, EpochBroadcast, EpochOutcome};
pub use dgka::{DgkaSlot, Phase1Slot};
pub use gsig::{Gsig, GsigCredential};
