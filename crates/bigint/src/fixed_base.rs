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
//! [`FixedBase::shared`] interns tables process-wide by
//! `(modulus, base, max_bits)`, so a key rebuilt from its parameters (the
//! service admits every session with a fresh deserialization) reuses the
//! tables instead of paying the precompute again.
//!
//! Lock order: the cache mutex is a leaf lock — no other lock is ever
//! taken while it is held, and table construction happens outside the
//! guard (the `lock-order` lint rule watches this file).

use crate::mont::{window_chunk, MontCtx, WINDOW};
use crate::Ubig;
use std::sync::{Arc, Mutex, OnceLock};

/// Upper bound on interned tables. A table is tens to a few hundred KiB,
/// and a long-lived service only ever sees a handful of groups, so the
/// bound exists purely to keep many-group workloads (tests, fuzzing) from
/// accumulating tables without limit.
const SHARED_CACHE_CAP: usize = 64;

/// The process-wide [`FixedBase::shared`] cache, most recently used last.
fn shared_cache() -> &'static Mutex<Vec<Arc<FixedBase>>> {
    static CACHE: OnceLock<Mutex<Vec<Arc<FixedBase>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(Vec::new()))
}

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

    /// Returns the interned table for `base` over `ctx`'s modulus covering
    /// exponents up to `max_bits` bits, building it on the first request.
    ///
    /// For **public** bases only: the cache is process-wide. The least
    /// recently used table is evicted past a bound of 64. A table is built
    /// outside the cache lock: a precompute is expensive at production
    /// widths, and holding the lock across it would stall every other
    /// thread's lookup. Two threads racing on the same key cost one
    /// redundant precompute; the first insert wins and the loser adopts
    /// it, so every caller shares one table.
    ///
    /// # Panics
    ///
    /// Panics if `max_bits` is zero.
    pub fn shared(ctx: &Arc<MontCtx>, base: &Ubig, max_bits: u32) -> Arc<FixedBase> {
        if let Some(table) = Self::lookup(ctx, base, max_bits) {
            return table;
        }
        let table = Arc::new(FixedBase::new(Arc::clone(ctx), base, max_bits));
        let mut cache = shared_cache().lock().unwrap_or_else(|e| e.into_inner());
        if let Some(existing) = cache.iter().find(|t| t.is(ctx, base, max_bits)) {
            return Arc::clone(existing);
        }
        if cache.len() >= SHARED_CACHE_CAP {
            cache.remove(0);
        }
        cache.push(Arc::clone(&table));
        table
    }

    /// The interned table for the key, moved to the most recently used end.
    fn lookup(ctx: &MontCtx, base: &Ubig, max_bits: u32) -> Option<Arc<FixedBase>> {
        let mut cache = shared_cache().lock().unwrap_or_else(|e| e.into_inner());
        let pos = cache.iter().position(|t| t.is(ctx, base, max_bits))?;
        let table = cache.remove(pos);
        cache.push(Arc::clone(&table));
        Some(table)
    }

    /// Is this the table for `base` over `ctx`'s modulus at width `max_bits`?
    fn is(&self, ctx: &MontCtx, base: &Ubig, max_bits: u32) -> bool {
        self.max_bits == max_bits && self.base == *base && self.ctx.modulus() == ctx.modulus()
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
    fn rebuilt_pairs_share_one_interned_table() {
        let n = Ubig::from_hex("f123456789abcdef123456789abcdef1").unwrap();
        let base = Ubig::from_u64(0x1234_5678);
        let e = Ubig::from_u64(0xdead_beef);
        // Two contexts for one modulus: a key rebuilt from its parameters.
        let a = FixedBase::shared(&Arc::new(MontCtx::new(n.clone())), &base, 64);
        let b = FixedBase::shared(&MontCtx::shared(&n), &base, 64);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.pow(&e), MontCtx::shared(&n).modpow(&base, &e));
        // Another width or base is another table.
        assert!(!Arc::ptr_eq(&a, &FixedBase::shared(a.ctx(), &base, 72)));
        assert!(!Arc::ptr_eq(&a, &FixedBase::shared(a.ctx(), &e, 64)));
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
