//! Lazily-built fixed-base exponentiation tables for the schemes'
//! long-lived public bases (`a, a0, b, g, h, y`).
//!
//! Signing exponentiates these bases with *secret* exponents dozens of
//! times per session; a [`FixedBase`] table removes every squaring from
//! those calls while keeping the masked constant-trace scan. Tables live
//! inside the public key that owns them: built on first use and shared by
//! clones taken after it. Every credential holds an `Arc` of one key, so
//! sessions share its tables.

use shs_bigint::{FixedBase, Int, Ubig};
use shs_groups::rsa::RsaGroup;
use std::sync::{Arc, OnceLock};

/// A pair of fixed-base tables for one public base: one for the base
/// itself and one for its inverse (signed blinds exponentiate both ways).
/// Each side is built on first use and shared by clones of the holder
/// taken after it.
#[derive(Debug, Clone, Default)]
pub(crate) struct FixedBasePair {
    fwd: OnceLock<Arc<FixedBase>>,
    inv: OnceLock<Arc<FixedBase>>,
}

/// A public-key base: its transcript label, value, tables, and the
/// exponent width the tables cover.
#[derive(Clone, Copy)]
pub(crate) struct KeyBase<'a> {
    pub(crate) rsa: &'a RsaGroup,
    pub(crate) label: &'static str,
    pub(crate) value: &'a Ubig,
    pub(crate) tables: &'a FixedBasePair,
    pub(crate) bits: u32,
}

/// The key bases of one public key, in `labels` order, with tables
/// covering `bits`-bit exponents.
pub(crate) fn key_bases<'a, const N: usize>(
    rsa: &'a RsaGroup,
    bits: u32,
    labels: [&'static str; N],
    values: [&'a Ubig; N],
    tables: &'a [FixedBasePair; N],
) -> [KeyBase<'a>; N] {
    std::array::from_fn(|i| KeyBase {
        rsa,
        label: labels[i],
        value: values[i],
        tables: &tables[i],
        bits,
    })
}

impl KeyBase<'_> {
    /// `base^e mod n` through the table; negative exponents go through
    /// the inverse-base table, mirroring [`RsaGroup::exp_signed`]. Counts
    /// one modular exponentiation.
    ///
    /// # Panics
    ///
    /// Panics if the base is not invertible (probability `~ 1/p'` —
    /// finding such a base factors `n`).
    pub(crate) fn pow(&self, e: &Int) -> Ubig {
        shs_bigint::counters::record_modexp();
        let build =
            |base: &Ubig| Arc::new(FixedBase::new(Arc::clone(self.rsa.ctx()), base, self.bits));
        let fb = if e.is_negative() {
            self.tables.inv.get_or_init(|| {
                let inv = self.value.modinv(self.rsa.n());
                build(&inv.expect("non-invertible base would factor n"))
            })
        } else {
            self.tables.fwd.get_or_init(|| build(self.value))
        };
        fb.pow(e.magnitude())
    }

    /// [`KeyBase::pow`] for a non-negative exponent.
    pub(crate) fn pow_u(&self, e: &Ubig) -> Ubig {
        self.pow(&Int::from_ubig(e.clone()))
    }
}
