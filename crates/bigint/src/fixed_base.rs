//! Fixed-base exponentiation with a precomputed window table.
//!
//! For a long-lived public base `g` (scheme generators `a, b, g, h, y` in
//! the ACJT/KY group signatures), all squarings of the square-and-multiply
//! ladder can be paid once at table-build time: store
//! `g^(d · 2^{w·i})` for every window position `i` and digit `d`, and an
//! exponentiation becomes one masked table scan plus one Montgomery
//! multiplication per window — no squarings at all.

use crate::mont::{window_chunk, MontCtx, WINDOW};
use crate::Ubig;
use std::sync::Arc;

/// A precomputed fixed-base exponentiation table over a shared
/// [`MontCtx`].
///
/// Row `i` holds `base^(d · 2^{WINDOW·i}) mod n` in Montgomery form for
/// every digit `d < 2^WINDOW`, one flat buffer per window position
/// `i < ⌈max_bits/WINDOW⌉`.
/// [`FixedBase::pow`] is safe for secret exponents (masked scans,
/// always-multiply); [`FixedBase::pow_vartime`] is the public-data fast
/// path.
pub struct FixedBase {
    ctx: Arc<MontCtx>,
    base: Ubig,
    max_bits: u32,
    /// `table[i]` = the flat window table of base^(2^{WINDOW·i}).
    table: Vec<Vec<u64>>,
}

impl FixedBase {
    /// Builds a table covering exponents up to `max_bits` bits.
    ///
    /// Cost: `⌈max_bits/WINDOW⌉ · (2^WINDOW − 2)` Montgomery
    /// multiplications, paid once per (base, modulus) pair.
    ///
    /// # Panics
    ///
    /// Panics if `max_bits` is zero.
    pub fn new(ctx: Arc<MontCtx>, base: &Ubig, max_bits: u32) -> FixedBase {
        assert!(max_bits > 0, "fixed-base table needs a nonzero width");
        let table = ctx.fixed_base_rows(base, max_bits.div_ceil(WINDOW));
        FixedBase {
            ctx,
            base: base.clone(),
            max_bits,
            table,
        }
    }

    /// The widest exponent (in bits) the table covers.
    pub fn max_bits(&self) -> u32 {
        self.max_bits
    }

    /// The modulus context this table was built over.
    pub fn ctx(&self) -> &Arc<MontCtx> {
        &self.ctx
    }

    /// `base^exp mod n`, constant-trace for secret exponents.
    ///
    /// Every covered window is processed — a masked scan over its table row
    /// followed by one multiplication (digit 0 multiplies by one in
    /// Montgomery form) — so the trace depends only on the public width
    /// class `⌈exp.bits()/WINDOW⌉`, exactly like [`MontCtx::modpow`], but
    /// with zero squarings. Exponents wider than `max_bits` fall back to
    /// `modpow` (the width is public, so the branch is too).
    pub fn pow(&self, exp: &Ubig) -> Ubig {
        if exp.bits() > self.max_bits {
            return self.ctx.modpow(&self.base, exp);
        }
        if exp.is_zero() {
            return Ubig::one().rem(self.ctx.modulus());
        }
        let bits = exp.bits();
        let windows = bits.div_ceil(WINDOW);
        let mut s = self.ctx.scratch();
        for (w, row) in (0..windows).zip(&self.table) {
            let chunk = window_chunk(exp, bits, w);
            self.ctx.mul_selected(&mut s, row, chunk);
        }
        self.ctx.from_mont(s)
    }

    /// `base^exp mod n` by direct table indexing, zero digits skipped.
    ///
    /// For **public** exponents only; the shs-lint `vartime-usage` rule
    /// pins down the allowed call sites.
    pub fn pow_vartime(&self, exp: &Ubig) -> Ubig {
        if exp.bits() > self.max_bits {
            return self.ctx.modpow_vartime(&self.base, exp);
        }
        if exp.is_zero() {
            return Ubig::one().rem(self.ctx.modulus());
        }
        let bits = exp.bits();
        let windows = bits.div_ceil(WINDOW);
        let mut s = self.ctx.scratch();
        for (w, row) in (0..windows).zip(&self.table) {
            let chunk = window_chunk(exp, bits, w);
            if chunk != 0 {
                self.ctx.mul_indexed(&mut s, row, chunk);
            }
        }
        self.ctx.from_mont(s)
    }
}

impl std::fmt::Debug for FixedBase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FixedBase")
            .field("max_bits", &self.max_bits)
            .field("windows", &self.table.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_modpow_across_widths() {
        let n = Ubig::from_hex("f123456789abcdef123456789abcdef1").unwrap();
        let ctx = MontCtx::shared(&n);
        let g = Ubig::from_u64(31337);
        let fb = FixedBase::new(Arc::clone(&ctx), &g, 192);
        for e in [
            Ubig::zero(),
            Ubig::one(),
            Ubig::from_u64(2),
            Ubig::from_u64(0xffff_ffff_ffff_fffe),
            Ubig::from_hex("123456789abcdef0fedcba9876543210").unwrap(),
        ] {
            assert_eq!(fb.pow(&e), ctx.modpow(&g, &e));
            assert_eq!(fb.pow_vartime(&e), ctx.modpow(&g, &e));
        }
    }

    #[test]
    fn oversized_exponent_falls_back() {
        let n = Ubig::from_u64(1_000_000_007);
        let ctx = MontCtx::shared(&n);
        let g = Ubig::from_u64(5);
        let fb = FixedBase::new(Arc::clone(&ctx), &g, 8);
        let e = Ubig::from_u64(1 << 20);
        assert_eq!(fb.pow(&e), ctx.modpow(&g, &e));
        assert_eq!(fb.pow_vartime(&e), ctx.modpow(&g, &e));
    }
}
