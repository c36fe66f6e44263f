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
//! four components, and the ACJT/KY group managers build theirs into the
//! public key at setup (`shs-groups`, `shs-gsig`). Clones of the owner
//! share the table.

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
        self.mul_windows(&mut s, exp, exp.bits());
        self.ctx.from_mont(s)
    }

    /// `factor · base^exp mod n` for an exponent below `2^bits`,
    /// constant-trace for secret exponents: the windows of
    /// [`FixedBase::pow`], but exactly `⌈bits/WINDOW⌉` of them whatever
    /// `exp`'s own width, run on an accumulator that starts at the public
    /// `factor`, already in Montgomery form ([`FixedBase::factor`]), so the
    /// product costs no multiplication and no conversion of its own. The
    /// trace depends on `bits` alone.
    ///
    /// # Panics
    ///
    /// Panics if `exp` is `2^bits` or more, or `bits` exceeds the table's
    /// width.
    pub fn pow_times(&self, exp: &Ubig, bits: u32, factor: &MontFactor) -> Ubig {
        assert!(
            exp.bits() <= bits && bits <= self.max_bits,
            "the exponent and its width must fit the table"
        );
        let mut s = self.ctx.scratch_from(&factor.0);
        self.mul_windows(&mut s, exp, bits);
        self.ctx.from_mont(s)
    }

    /// `x` in the Montgomery form of this table's modulus: a public
    /// constant for [`FixedBase::pow_times`] to start from.
    pub fn factor(&self, x: &Ubig) -> MontFactor {
        MontFactor(self.ctx.mont_form(x))
    }

    /// `acc ← acc · base^exp` for an exponent below `2^bits` the table
    /// covers: one masked scan and one multiplication per window of the
    /// public width `bits`.
    fn mul_windows(&self, s: &mut Scratch, exp: &Ubig, bits: u32) {
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

/// A public constant held in the Montgomery form `x·R mod n` of one
/// [`FixedBase`]'s modulus ([`FixedBase::factor`]), the starting
/// accumulator of [`FixedBase::pow_times`].
#[derive(Clone)]
pub struct MontFactor(Vec<u64>);

impl std::fmt::Debug for MontFactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MontFactor")
            .field("limbs", &self.0.len())
            .finish_non_exhaustive()
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
    fn pow_times_starts_from_its_factor() {
        let n = Ubig::from_hex("f123456789abcdef123456789abcdef1").unwrap();
        let ctx = Arc::new(MontCtx::new(n));
        let g = Ubig::from_u64(31337);
        let fb = FixedBase::new(Arc::clone(&ctx), &g, 192);
        let f = Ubig::from_u64(0xfeed);
        let factor = fb.factor(&f);
        for e in [
            Ubig::zero(),
            Ubig::one(),
            Ubig::from_u64(0xffff_ffff_ffff_fffe),
            Ubig::from_hex("123456789abcdef0fedcba98765432").unwrap(),
        ] {
            let want = ctx.modmul(&ctx.modpow(&g, &e), &f);
            assert_eq!(fb.pow_times(&e, 125, &factor), want);
        }
    }

    #[test]
    #[should_panic(expected = "must fit the table")]
    fn pow_times_refuses_an_exponent_wider_than_its_width() {
        let ctx = Arc::new(MontCtx::new(Ubig::from_u64(1_000_000_007)));
        let fb = FixedBase::new(ctx, &Ubig::from_u64(5), 64);
        fb.pow_times(&Ubig::from_u64(1 << 20), 20, &fb.factor(&Ubig::one()));
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
