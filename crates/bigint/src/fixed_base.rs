//! Fixed-base exponentiation with a precomputed window table.
//!
//! For a long-lived public base `g` (scheme generators `a, b, g, h, y` in
//! the ACJT/KY group signatures, the Schnorr generator and the
//! Cramer–Shoup tracing key), all squarings of the square-and-multiply
//! ladder can be paid once at table-build time: store
//! `g^(d · 2^{w·i})` for every window position `i` and digit `d`, and an
//! exponentiation becomes one masked table scan plus one Montgomery
//! multiplication per window — no squarings at all.
//!
//! Each table has one owner, the key whose base it serves: the Schnorr
//! group holds its generator's, the Cramer–Shoup public key those of its
//! four components, and the ACJT/KY public keys build theirs on first use
//! (`shs-groups`, `shs-gsig`). Clones of the owner share the table.

use crate::mont::{window_chunk, MontCtx, Scratch, WINDOW};
use crate::Ubig;
use std::sync::Arc;

/// A precomputed fixed-base exponentiation table over the [`MontCtx`] of
/// its modulus.
///
/// Row `i` holds `base^(d · 2^{WINDOW·i}) mod n` in Montgomery form for
/// every digit `d < 2^WINDOW`, one flat buffer per window position
/// `i < ⌈max_bits/WINDOW⌉`.
/// [`FixedBase::pow`] is safe for secret exponents (masked scans,
/// always-multiply).
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
        let mut s = self.ctx.scratch();
        self.mul_windows(&mut s, exp);
        self.ctx.from_mont(s)
    }

    /// `factor · base^exp mod n`, constant-trace for secret exponents: the
    /// windows of [`FixedBase::pow`], run on an accumulator that starts at
    /// the public `factor` instead of one, so the product costs no
    /// multiplication of its own. Exponents wider than `max_bits` fall back
    /// to `modpow` and one modular multiplication.
    pub fn pow_times(&self, exp: &Ubig, factor: &Ubig) -> Ubig {
        if exp.bits() > self.max_bits {
            return self.ctx.modmul(&self.ctx.modpow(&self.base, exp), factor);
        }
        let mut s = self.ctx.scratch_at(factor);
        self.mul_windows(&mut s, exp);
        self.ctx.from_mont(s)
    }

    /// `acc ← acc · base^exp` for an exponent the table covers: one masked
    /// scan and one multiplication per window of `exp`'s public width.
    fn mul_windows(&self, s: &mut Scratch, exp: &Ubig) {
        let bits = exp.bits();
        let windows = bits.div_ceil(WINDOW);
        for (w, row) in (0..windows).zip(&self.table) {
            let chunk = window_chunk(exp, bits, w);
            self.ctx.mul_selected(s, row, chunk);
        }
    }

    /// `base^(2^j) mod n`, a power of the public base with a public
    /// exponent, read off the table build's squaring chain: row
    /// `⌊j/WINDOW⌋` holds it at digit `2^(j mod WINDOW)`, and past the last
    /// row the chain goes on from that row's base by squarings alone.
    pub fn squared(&self, j: u32) -> Ubig {
        let row = ((j / WINDOW) as usize).min(self.table.len() - 1);
        let k = self.table[row].len() >> WINDOW;
        let (digit, squarings) = match j - row as u32 * WINDOW {
            left if left < WINDOW => (1 << left, 0),
            left => (1, left),
        };
        self.ctx
            .square_repeatedly(&self.table[row][digit * k..], squarings)
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
        let ctx = Arc::new(MontCtx::new(n));
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
        }
    }

    #[test]
    fn oversized_exponent_falls_back() {
        let n = Ubig::from_u64(1_000_000_007);
        let ctx = Arc::new(MontCtx::new(n));
        let g = Ubig::from_u64(5);
        let fb = FixedBase::new(Arc::clone(&ctx), &g, 8);
        let e = Ubig::from_u64(1 << 20);
        assert_eq!(fb.pow(&e), ctx.modpow(&g, &e));
    }
}
