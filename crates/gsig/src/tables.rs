//! Fixed-base exponentiation tables for the schemes' long-lived public
//! bases (`a, b, g, h, y`).
//!
//! Signing exponentiates these bases with *secret* exponents dozens of
//! times per session; a [`FixedBase`] table removes every squaring from
//! those calls while keeping the masked constant-trace scan. Setup builds
//! one table per base a prover raises, as wide as the widest exponent
//! [`GsigParams::prover_exponents`](crate::params::GsigParams::prover_exponents)
//! lists for it, into the public key, and every clone of the key shares
//! them through one `Arc`. Every credential holds an `Arc` of one key, so
//! sessions share its tables.
//!
//! A signed exponent `e` with `|e| < 2^w` (a blind, or a known log times
//! one) runs as the non-negative `e + 2^w` over the `⌈(w+1)/4⌉` windows of
//! its public width, from the public start `base^{−2^w}` that setup keeps
//! in Montgomery form: one table serves both signs, and the work is the
//! same whatever the sign and size of `e`.

use crate::params::{pow2, Exponent};
use shs_bigint::{counters, FixedBase, Int, MontFactor, Ubig};
use shs_groups::rsa::RsaGroup;
use std::sync::Arc;

/// One key base's table and the start of each signed width raised on it.
#[derive(Debug)]
pub(crate) struct KeyTable {
    table: FixedBase,
    /// `(w, base^{−2^w})` for every signed width `w`, in Montgomery form.
    starts: Vec<(u32, MontFactor)>,
}

/// The tables of one public key's bases, in the key's base order: `None`
/// for a base no prover raises (`a0`).
pub(crate) type KeyTables<const N: usize> = Arc<[Option<KeyTable>; N]>;

/// Builds the tables of the bases `values`, named by `labels`, for the
/// provers' `exponents`: one table per base the list names, as wide as
/// its widest exponent, and one start per signed width.
///
/// # Panics
///
/// Panics if a base is not invertible (probability `~ 1/p'` — finding
/// such a base factors `n`).
pub(crate) fn build<const N: usize>(
    rsa: &RsaGroup,
    labels: [&'static str; N],
    values: [&Ubig; N],
    exponents: &[(&'static str, Exponent)],
) -> KeyTables<N> {
    Arc::new(std::array::from_fn(|i| {
        let raised = exponents.iter().filter(|(l, _)| *l == labels[i]);
        let width = raised.clone().map(|(_, e)| e.width()).max()?;
        let table = FixedBase::new(Arc::clone(rsa.ctx()), values[i], width);
        let mut signed: Vec<u32> = raised
            .filter_map(|(_, e)| match *e {
                Exponent::Signed(w) => Some(w),
                Exponent::Unsigned(_) => None,
            })
            .collect();
        signed.sort_unstable();
        signed.dedup();
        let starts = signed
            .into_iter()
            .map(|w| {
                let inv = rsa.inv(&table.squared(w));
                let inv = inv.expect("non-invertible base would factor n");
                (w, table.factor(&inv))
            })
            .collect();
        Some(KeyTable { table, starts })
    }))
}

/// A public-key base: its transcript label, value and table.
#[derive(Clone, Copy)]
pub(crate) struct KeyBase<'a> {
    pub(crate) rsa: &'a RsaGroup,
    pub(crate) label: &'static str,
    pub(crate) value: &'a Ubig,
    table: Option<&'a KeyTable>,
}

/// The key bases of one public key, in `labels` order, over its `tables`.
pub(crate) fn key_bases<'a, const N: usize>(
    rsa: &'a RsaGroup,
    labels: [&'static str; N],
    values: [&'a Ubig; N],
    tables: &'a [Option<KeyTable>; N],
) -> [KeyBase<'a>; N] {
    std::array::from_fn(|i| KeyBase {
        rsa,
        label: labels[i],
        value: values[i],
        table: tables[i].as_ref(),
    })
}

impl KeyBase<'_> {
    fn table(&self) -> &KeyTable {
        self.table
            .unwrap_or_else(|| panic!("no prover raises `{}`", self.label))
    }

    /// `base^e mod n` for a signed `e` with `|e| < 2^bits`: the table
    /// raises `e + 2^bits` over the `⌈(bits+1)/4⌉` windows of its public
    /// width, from the start `base^{−2^bits}`. Counts one modular
    /// exponentiation.
    ///
    /// # Panics
    ///
    /// Panics if setup built no start for `bits` on this base (the
    /// exponent list in `params.rs` misses a prover's term) or `e` lies
    /// outside `[−2^bits, 2^bits)`.
    pub(crate) fn pow(&self, e: &Int, bits: u32) -> Ubig {
        counters::record_modexp();
        let KeyTable { table, starts } = self.table();
        let (_, start) = starts
            .iter()
            .find(|(w, _)| *w == bits)
            .unwrap_or_else(|| panic!("no {bits}-bit signed exponent on `{}`", self.label));
        let shifted = e.add(&Int::from_ubig(pow2(bits)));
        assert!(
            !shifted.is_negative(),
            "a signed exponent exceeds its bound"
        );
        table.pow_times(shifted.magnitude(), bits + 1, start)
    }

    /// `base^e mod n` for a non-negative `e` within the table's width,
    /// over the windows of `e`'s width. Counts one modular
    /// exponentiation.
    pub(crate) fn pow_u(&self, e: &Ubig) -> Ubig {
        counters::record_modexp();
        self.table().table.pow(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use crate::params::Exponent::Signed;
    use shs_bigint::{rng as brng, trace};
    use shs_crypto::drbg::HmacDrbg;

    #[test]
    fn a_signed_exponent_runs_one_trace_whatever_its_sign_from_the_first_use() {
        // Blinds are secret, their sign included: `e` and `−e` under one
        // bound must run the same limb operations, on the first use of a
        // fresh key too, whatever the magnitude below the bound.
        let (rsa, _) = fixtures::test_rsa_setting();
        let mut rng = HmacDrbg::from_seed(b"tables-signed-trace");
        let g = rsa.random_qr(&mut rng);
        let bits = 300;
        let tables = build(rsa, ["g"], [&g], &[("g", Signed(bits))]);
        let [key] = key_bases(rsa, ["g"], [&g], &tables);
        let magnitudes = [
            brng::below(&mut rng, &pow2(bits)),
            Ubig::one(),
            brng::below(&mut rng, &pow2(64)),
            pow2(bits).sub(&Ubig::one()),
        ];
        let mut traces = Vec::new();
        for m in magnitudes {
            let e = Int::from_ubig(m.clone());
            let (plus, power) = trace::capture(|| key.pow(&e, bits));
            let (minus, inverse) = trace::capture(|| key.pow(&e.neg(), bits));
            assert_eq!(power, rsa.exp(&g, &m));
            assert!(rsa.mul(&power, &inverse).is_one(), "g^e · g^−e = 1");
            traces.extend([plus, minus]);
        }
        assert!(traces[0].limb_mul > 0, "nothing traced (needs trace-ops)");
        for (i, t) in traces.iter().enumerate() {
            assert_eq!(*t, traces[0], "power {i} shows its exponent");
        }
    }

    #[test]
    fn each_listed_base_gets_one_table_as_wide_as_its_widest_term() {
        use crate::params::Exponent::Unsigned;
        let (rsa, _) = fixtures::test_rsa_setting();
        let values = [Ubig::from_u64(4), Ubig::from_u64(9), Ubig::from_u64(25)];
        let terms = [
            ("g", Signed(40)),
            ("g", Unsigned(77)),
            ("g", Signed(12)),
            ("g", Signed(40)),
            ("h", Unsigned(9)),
        ];
        let tables = build(rsa, ["g", "a0", "h"], values.each_ref(), &terms);
        let [g, a0, h] = &*tables;
        let g = g.as_ref().expect("g is raised");
        assert_eq!(
            format!("{:?}", g.table),
            "FixedBase { max_bits: 77, windows: 20, .. }"
        );
        let widths: Vec<u32> = g.starts.iter().map(|(w, _)| *w).collect();
        assert_eq!(widths, [12, 40], "one start per signed width");
        assert!(a0.is_none(), "no table for a base no term names");
        assert!(h.as_ref().is_some_and(|h| h.starts.is_empty()));
    }
}
