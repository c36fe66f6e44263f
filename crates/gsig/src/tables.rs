//! Lazily-built fixed-base exponentiation tables for the schemes'
//! long-lived public bases (`a, a0, b, g, h, y`).
//!
//! Signing exponentiates these bases with *secret* exponents dozens of
//! times per session; a [`FixedBase`] table removes every squaring from
//! those calls while keeping the masked constant-trace scan. Tables live
//! inside the public key (built on first use, shared by clones) and come
//! from the process-wide [`FixedBase::shared`] cache, so a public key
//! rebuilt through `from_params` (the service admits every session with
//! a fresh deserialization) reuses the tables instead of paying the
//! precompute again.

use shs_bigint::{FixedBase, Int, Ubig};
use shs_groups::rsa::RsaGroup;
use std::sync::{Arc, OnceLock};

/// A pair of fixed-base tables for one public base: one for the base
/// itself and one for its inverse (signed blinds exponentiate both ways).
/// Each side is built on first use, shared by clones of the holder, and
/// interned in [`FixedBase::shared`] so rebuilt keys do not repay the
/// precompute.
#[derive(Debug, Clone, Default)]
pub(crate) struct FixedBasePair {
    fwd: OnceLock<Arc<FixedBase>>,
    inv: OnceLock<Arc<FixedBase>>,
}

impl FixedBasePair {
    /// `base^e mod n` for a non-negative exponent, through the table.
    /// Counts one modular exponentiation (parity with [`RsaGroup::exp`]).
    pub(crate) fn pow(&self, rsa: &RsaGroup, base: &Ubig, e: &Ubig, max_bits: u32) -> Ubig {
        shs_bigint::counters::record_modexp();
        self.fwd(rsa, base, max_bits).pow(e)
    }

    /// `base^e mod n` for a signed exponent: negative exponents go through
    /// the inverse-base table, mirroring [`RsaGroup::exp_signed`]. Counts
    /// one modular exponentiation.
    ///
    /// # Panics
    ///
    /// Panics if the base is not invertible (probability `~ 1/p'` —
    /// finding such a base factors `n`).
    pub(crate) fn pow_signed(&self, rsa: &RsaGroup, base: &Ubig, e: &Int, max_bits: u32) -> Ubig {
        shs_bigint::counters::record_modexp();
        if e.is_negative() {
            let fb = self.inv.get_or_init(|| {
                let inv = base
                    .modinv(rsa.n())
                    .expect("non-invertible base would factor n");
                FixedBase::shared(rsa.ctx(), &inv, max_bits)
            });
            fb.pow(e.magnitude())
        } else {
            self.fwd(rsa, base, max_bits).pow(e.magnitude())
        }
    }

    fn fwd(&self, rsa: &RsaGroup, base: &Ubig, max_bits: u32) -> &Arc<FixedBase> {
        self.fwd
            .get_or_init(|| FixedBase::shared(rsa.ctx(), base, max_bits))
    }
}
