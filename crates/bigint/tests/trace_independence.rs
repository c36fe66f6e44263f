//! Secret-independence harness: the Montgomery kernels must perform an
//! *identical* sequence of limb operations for any two secrets of the same
//! public width. A trace mismatch means secret-dependent control flow —
//! precisely the class of side channel `shs-lint`'s token-level rules
//! cannot see.
//!
//! The `trace-ops` feature is switched on for these builds by the
//! self-dev-dependency in Cargo.toml, so this suite runs under plain
//! `cargo test` (tier-1).

use shs_bigint::mont::MontCtx;
use shs_bigint::{trace, FixedBase, Ubig};
use std::sync::Arc;

/// Deterministic xorshift64* limb source.
struct Xs(u64);

impl Xs {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn limbs(&mut self, k: usize) -> Vec<u64> {
        (0..k).map(|_| self.next()).collect()
    }

    /// A random odd k-limb modulus with the top bit set.
    fn modulus(&mut self, k: usize) -> Ubig {
        let mut v = self.limbs(k);
        v[0] |= 1;
        v[k - 1] |= 1 << 63;
        Ubig::from_limbs(v)
    }

    /// A random value with exactly `bits` bits (top bit forced).
    fn exact_bits(&mut self, bits: u32) -> Ubig {
        let k = (bits as usize).div_ceil(64);
        let mut v = self.limbs(k);
        let top = (bits - 1) % 64;
        v[k - 1] &= (1u64 << top) | ((1u64 << top) - 1);
        v[k - 1] |= 1 << top;
        let out = Ubig::from_limbs(v);
        assert_eq!(out.bits(), bits);
        out
    }

    /// A uniformly random value below `n` (rejection sampling).
    fn below(&mut self, n: &Ubig) -> Ubig {
        let k = n.limbs().len();
        loop {
            let x = Ubig::from_limbs(self.limbs(k));
            if x < *n {
                return x;
            }
        }
    }
}

/// Panics unless the counters actually record — i.e. the
/// self-dev-dependency switched `trace-ops` on for this build. Guards the
/// equality tests against passing vacuously on zero traces.
fn assert_harness_live() {
    let (t, _) = trace::capture(|| trace::limb_add(1));
    assert_eq!(t.limb_add, 1, "trace-ops feature is off in test builds");
}

#[test]
fn harness_is_compiled_in() {
    assert_harness_live();
}

#[test]
fn modpow_trace_is_exponent_independent() {
    let mut xs = Xs(0x5eed_5eed_5eed_5eed);
    // ≥ 8 pairs across several widths; each pair shares an exact bit-width
    // and must produce byte-identical operation traces.
    for (i, bits) in [192u32, 256, 256, 320, 384, 512, 512, 768, 1024, 2048]
        .into_iter()
        .enumerate()
    {
        let n = xs.modulus((bits as usize).div_ceil(64));
        let ctx = MontCtx::new(n.clone());
        let base = xs.below(&n);
        let e1 = xs.exact_bits(bits);
        let e2 = xs.exact_bits(bits);
        let (t1, r1) = trace::capture(|| ctx.modpow(&base, &e1));
        let (t2, r2) = trace::capture(|| ctx.modpow(&base, &e2));
        assert!(t1.total() > 0, "instrumentation recorded nothing");
        assert_eq!(
            t1, t2,
            "pair {i}: modpow trace depends on the {bits}-bit exponent value"
        );
        // Sanity: the traced runs are still correct.
        assert_eq!(r1, base.modpow(&e1, &n));
        assert_eq!(r2, base.modpow(&e2, &n));
    }
}

#[test]
fn ladder_limb_counts_match_the_kernel_closed_form() {
    // Each squaring runs the squaring kernel, (3k² + k)/2 limb
    // multiplications; every other product runs the CIOS multiply, 2k².
    // Both record 2k limb additions for the final subtraction. Bases are
    // reduced, so no division runs. A ladder that squares through the
    // multiply kernel, or gains or loses a product, fails here.
    assert_harness_live();
    let mut xs = Xs(0xc105_ed0f_c105_ed0f);
    // Two widths with their own kernel instance, one on the fallback.
    for k in [8usize, 9, 7] {
        let n = xs.modulus(k);
        let ctx = Arc::new(MontCtx::new(n.clone()));
        let kk = k as u64;
        let cost = |squarings: u64, multiplies: u64| trace::OpTrace {
            limb_add: (squarings + multiplies) * 2 * kk,
            limb_mul: squarings * (3 * kk * kk + kk) / 2 + multiplies * 2 * kk * kk,
            limb_div: 0,
            branch: 0,
        };
        let bits = 64 * k as u32;
        let windows = u64::from(bits.div_ceil(4));
        let (b1, b2) = (xs.below(&n), xs.below(&n));
        let (e1, e2) = (xs.exact_bits(bits), xs.exact_bits(bits));

        // modpow: into Montgomery form, 14 table entries, 4 squarings and
        // one multiply per window, out of Montgomery form.
        let (t, _) = trace::capture(|| ctx.modpow(&b1, &e1));
        assert_eq!(t, cost(4 * windows, 16 + windows), "modpow, k = {k}");

        // Two-term multi_exp_vartime on exponents with no zero window: per
        // term, into Montgomery form and 14 table entries; the top window
        // multiplies once per term, every later one shares a chain of 4
        // squarings and multiplies once per term; then out of Montgomery
        // form.
        let dense = |e: &Ubig| {
            let limbs = e.limbs().iter().map(|l| l | 0x1111_1111_1111_1111);
            Ubig::from_limbs(limbs.collect())
        };
        let (d1, d2) = (dense(&e1), dense(&e2));
        let (t, _) = trace::capture(|| ctx.multi_exp_vartime(&[(&b1, &d1), (&b2, &d2)]));
        assert_eq!(
            t,
            cost(4 * (windows - 1), 2 * 15 + 2 * windows + 1),
            "multi_exp_vartime, k = {k}"
        );

        // FixedBase::new: into Montgomery form, then per row 14 table
        // entries and the 4 squarings that advance to the next row.
        let (t, _) = trace::capture(|| FixedBase::new(Arc::clone(&ctx), &b1, bits));
        assert_eq!(
            t,
            cost(4 * windows, 1 + 14 * windows),
            "FixedBase::new, k = {k}"
        );
    }
}

#[test]
fn modpow_trace_tracks_public_width_only() {
    // The trace is *supposed* to vary with the public bit-width — if it
    // didn't, the equality above would be vacuous.
    let mut xs = Xs(0x0123_4567_89ab_cdef);
    let n = xs.modulus(8);
    let ctx = MontCtx::new(n.clone());
    let base = xs.below(&n);
    let (t_short, _) = trace::capture(|| ctx.modpow(&base, &xs.exact_bits(128)));
    let (t_long, _) = trace::capture(|| ctx.modpow(&base, &xs.exact_bits(256)));
    assert_ne!(t_short, t_long, "width change must be visible in the trace");
}

#[test]
fn montgomery_modmul_trace_is_operand_independent() {
    let mut xs = Xs(0xfeed_f00d_feed_f00d);
    let n = xs.modulus(8);
    let ctx = MontCtx::new(n.clone());
    let mut reference = None;
    for i in 0..8 {
        let a = xs.below(&n);
        let b = xs.below(&n);
        let (t, r) = trace::capture(|| ctx.modmul(&a, &b));
        assert!(t.total() > 0);
        assert_eq!(r, a.mul(&b).rem(&n));
        let first = *reference.get_or_insert(t);
        assert_eq!(first, t, "pair {i}: modmul trace depends on operand values");
    }
}

#[test]
fn mulm_arithmetic_trace_is_operand_independent() {
    // `Ubig::mulm` goes through Knuth Algorithm D, whose rare qhat
    // corrections are value-dependent `branch` events by design (that is
    // exactly what the counter documents). The *arithmetic* work —
    // multiplications, quotient estimates, additions — must still be a
    // function of operand widths alone.
    let mut xs = Xs(0xabcd_abcd_abcd_abcd);
    let n = xs.modulus(8);
    let mut reference = None;
    for i in 0..8 {
        let a = xs.exact_bits(512);
        let b = xs.exact_bits(512);
        let (t, r) = trace::capture(|| a.mulm(&b, &n));
        assert_eq!(r, a.mul(&b).rem(&n));
        let shape = (t.limb_mul, t.limb_div, t.limb_add);
        let first = *reference.get_or_insert(shape);
        assert_eq!(
            first, shape,
            "pair {i}: mulm arithmetic trace depends on operand values"
        );
    }
}

#[test]
fn fixed_base_pow_trace_is_exponent_independent() {
    let mut xs = Xs(0x7ab1_e5ca_7ab1_e5ca);
    // The table is built once *outside* the captures: only the per-call
    // masked scan + multiply chain is on trial.
    for (i, bits) in [128u32, 192, 256, 256, 320, 512].into_iter().enumerate() {
        let n = xs.modulus(8);
        let ctx = Arc::new(MontCtx::new(n.clone()));
        let base = xs.below(&n);
        let fb = FixedBase::new(ctx, &base, 512);
        let e1 = xs.exact_bits(bits);
        let e2 = xs.exact_bits(bits);
        let (t1, r1) = trace::capture(|| fb.pow(&e1));
        let (t2, r2) = trace::capture(|| fb.pow(&e2));
        assert!(t1.total() > 0, "instrumentation recorded nothing");
        assert_eq!(
            t1, t2,
            "pair {i}: FixedBase::pow trace depends on the {bits}-bit exponent value"
        );
        assert_eq!(r1, base.modpow(&e1, &n));
        assert_eq!(r2, base.modpow(&e2, &n));
    }
}

#[test]
fn fixed_base_pow_times_trace_depends_on_its_width_only() {
    // Under one explicit width, exponents of every own width (one, a
    // 64-bit value, the full width) run the same windows from the same
    // Montgomery-form factor.
    let mut xs = Xs(0x0ff5_e7ab_0ff5_e7ab);
    let n = xs.modulus(8);
    let ctx = Arc::new(MontCtx::new(n.clone()));
    let base = xs.below(&n);
    let fb = FixedBase::new(ctx, &base, 512);
    let f = xs.below(&n);
    let factor = fb.factor(&f);
    let mut traces = Vec::new();
    for e in [Ubig::one(), xs.exact_bits(64), xs.exact_bits(301)] {
        let (t, r) = trace::capture(|| fb.pow_times(&e, 301, &factor));
        assert_eq!(r, base.modpow(&e, &n).mulm(&f, &n));
        traces.push(t);
    }
    assert!(traces[0].total() > 0, "instrumentation recorded nothing");
    assert!(
        traces.iter().all(|t| *t == traces[0]),
        "pow_times trace shows the exponent's own width: {traces:?}"
    );
}

#[test]
fn fixed_base_pow_trace_tracks_public_width_only() {
    let mut xs = Xs(0x0f1b_a5e5_0f1b_a5e5);
    let n = xs.modulus(8);
    let ctx = Arc::new(MontCtx::new(n.clone()));
    let base = xs.below(&n);
    let fb = FixedBase::new(ctx, &base, 512);
    let (t_short, _) = trace::capture(|| fb.pow(&xs.exact_bits(128)));
    let (t_long, _) = trace::capture(|| fb.pow(&xs.exact_bits(256)));
    assert_ne!(t_short, t_long, "width change must be visible in the trace");
}

/// A knowingly-leaky square-and-multiply kernel: multiplies only on set
/// exponent bits, so its operation count is a function of the secret's
/// Hamming weight.
fn leaky_modpow(ctx: &MontCtx, base: &Ubig, exp: &Ubig) -> Ubig {
    let n = ctx.modulus();
    let mut acc = Ubig::one();
    let mut b = base.rem(n);
    for i in 0..exp.bits() {
        if exp.bit(i) {
            acc = ctx.modmul(&acc, &b); // the leak: skipped on zero bits
        }
        b = ctx.modmul(&b, &b);
    }
    acc
}

#[test]
#[should_panic(expected = "leaky kernel")]
fn canary_catches_a_leaky_kernel() {
    // Two same-width exponents with extreme Hamming weights. The harness
    // must flag the reference kernel; if this test ever stops panicking,
    // the trace counters have gone blind.
    assert_harness_live();
    let mut xs = Xs(0x1bad_b002_1bad_b002);
    let n = xs.modulus(4);
    let ctx = MontCtx::new(n.clone());
    let base = xs.below(&n);
    let sparse = Ubig::one().shl(255); // weight 1, 256 bits
    let dense = Ubig::one().shl(256).sub_u64(1); // weight 256, 256 bits
    let (t1, r1) = trace::capture(|| leaky_modpow(&ctx, &base, &sparse));
    let (t2, r2) = trace::capture(|| leaky_modpow(&ctx, &base, &dense));
    // The leaky kernel is functionally correct...
    assert_eq!(r1, base.modpow(&sparse, &n));
    assert_eq!(r2, base.modpow(&dense, &n));
    // ...but its trace betrays the secret.
    assert_eq!(t1, t2, "leaky kernel");
}
