//! Montgomery modular arithmetic (CIOS reduction, Koç et al.) and
//! fixed-window exponentiation, plus the verifier's variable-time
//! Straus/Shamir simultaneous multi-exponentiation.
//!
//! Every ladder runs on two allocation-free kernels, one CIOS multiply and
//! one squaring, each written once and compiled per modulus width, over a
//! per-call scratch (accumulator, its double buffer, kernel accumulator,
//! selected table entry) that is wiped when the call returns. Window
//! tables are flat buffers of `2^WINDOW` k-limb entries.

use crate::Ubig;

/// Window width (bits) for fixed-window exponentiation.
pub(crate) const WINDOW: u32 = 4;

/// A reusable Montgomery context for an odd modulus.
///
/// Construction costs one division; every subsequent multiplication is
/// division-free. A context has one owner: the group whose modulus it
/// serves (`shs-groups` builds one per group and shares it with that
/// group's fixed-base tables), a [`CrtCtx`](crate::crt::CrtCtx) half, a
/// Miller–Rabin candidate, or one [`Ubig::modpow`] call.
#[derive(Debug, Clone)]
pub struct MontCtx {
    n: Ubig,
    n_limbs: Vec<u64>,
    /// `-n^{-1} mod 2^64`.
    n0inv: u64,
    /// `R^2 mod n` where `R = 2^{64k}`.
    rr: Vec<u64>,
    /// `R mod n` (the Montgomery form of one).
    r1: Vec<u64>,
    k: usize,
}

impl MontCtx {
    /// Creates a context for the given odd modulus.
    ///
    /// # Panics
    ///
    /// Panics if `n` is even or < 3.
    pub fn new(n: Ubig) -> MontCtx {
        assert!(n.is_odd(), "Montgomery modulus must be odd");
        assert!(n > Ubig::one(), "Montgomery modulus must be >= 3");
        let k = n.limbs().len();
        let mut n_limbs = n.limbs().to_vec();
        n_limbs.resize(k, 0);

        let n0inv = neg_inv_limb(n_limbs[0]);

        let r = Ubig::one().shl(64 * k as u32).rem(&n);
        let rr_big = r.mul(&r).rem(&n);
        let rr = pad(rr_big.limbs(), k);
        let r1 = pad(r.limbs(), k);

        MontCtx {
            n,
            n_limbs,
            n0inv,
            rr,
            r1,
            k,
        }
    }

    /// Zeroizes the context in place, as [`Ubig::wipe`] does: the modulus,
    /// its limbs and both Montgomery constants, each of which determines
    /// the modulus. For an owned context over a modulus that may become a
    /// secret, such as a Miller–Rabin candidate.
    pub(crate) fn wipe(&mut self) {
        self.n.wipe();
        for buf in [&mut self.n_limbs, &mut self.rr, &mut self.r1] {
            buf.fill(0);
            std::hint::black_box(buf);
        }
        self.n0inv = 0;
    }

    /// The modulus.
    pub fn modulus(&self) -> &Ubig {
        &self.n
    }

    /// A fresh per-call scratch with the accumulator set to one (`R mod n`).
    pub(crate) fn scratch(&self) -> Scratch {
        Scratch {
            acc: self.r1.clone(),
            tmp: vec![0; self.k],
            t: vec![0; (2 * self.k).max(self.k + 2)],
            entry: vec![0; self.k],
        }
    }

    /// A fresh per-call scratch with the accumulator set to a k-limb
    /// Montgomery-form value, copied without a conversion.
    pub(crate) fn scratch_from(&self, x: &[u64]) -> Scratch {
        let mut s = self.scratch();
        s.acc.copy_from_slice(&x[..self.k]);
        s
    }

    /// `x·R mod n`, the Montgomery form of `x`, as k limbs.
    pub(crate) fn mont_form(&self, x: &Ubig) -> Vec<u64> {
        let mut s = self.scratch();
        self.to_mont(x, &mut s);
        s.entry.clone()
    }

    /// `x^(2^squarings) mod n` for a k-limb Montgomery-form `x`, out of
    /// Montgomery form.
    pub(crate) fn square_repeatedly(&self, x: &[u64], squarings: u32) -> Ubig {
        let mut s = self.scratch_from(x);
        for _ in 0..squarings {
            self.square(&mut s);
        }
        self.from_mont(s)
    }

    /// Montgomery multiplication `out = a·b·R⁻¹ mod n` of two k-limb
    /// Montgomery-form values, with `t` as the accumulator. Allocation-free.
    ///
    /// Dispatches to the one CIOS body, [`MontCtx::cios_mul`], with the
    /// width as a literal for the moduli the presets use (Test: 4-limb RSA
    /// `n`, 8-limb Schnorr `p`, 9-limb certificate primes under
    /// Miller–Rabin; Small: 12 and 16; Paper: 32), so each of those widths
    /// gets its own unrolled instance. Other widths run the same body with
    /// the runtime `k`.
    fn mont_mul_into(&self, a: &[u64], b: &[u64], out: &mut [u64], t: &mut [u64]) {
        let k = self.k as u64;
        // 2k² limb multiplications: k per a·b[i] pass, k per reduction pass.
        crate::trace::limb_mul(2 * k * k);
        match self.k {
            4 => self.cios_mul(4, a, b, out, t),
            8 => self.cios_mul(8, a, b, out, t),
            9 => self.cios_mul(9, a, b, out, t),
            12 => self.cios_mul(12, a, b, out, t),
            16 => self.cios_mul(16, a, b, out, t),
            32 => self.cios_mul(32, a, b, out, t),
            k => self.cios_mul(k, a, b, out, t),
        }
    }

    /// Montgomery squaring `out = a²·R⁻¹ mod n`, with `z` (2k limbs) as the
    /// accumulator: the same value as `mont_mul_into(a, a, ..)` for
    /// (3k² + k)/2 limb multiplications instead of 2k². Dispatched per
    /// width like [`MontCtx::mont_mul_into`].
    fn mont_sqr_into(&self, a: &[u64], out: &mut [u64], z: &mut [u64]) {
        let k = self.k as u64;
        // k(k − 1)/2 cross products, k diagonal squares, k² reduction.
        crate::trace::limb_mul((3 * k * k + k) / 2);
        match self.k {
            4 => self.sos_sqr(4, a, out, z),
            8 => self.sos_sqr(8, a, out, z),
            9 => self.sos_sqr(9, a, out, z),
            12 => self.sos_sqr(12, a, out, z),
            16 => self.sos_sqr(16, a, out, z),
            32 => self.sos_sqr(32, a, out, z),
            k => self.sos_sqr(k, a, out, z),
        }
    }

    /// The CIOS body (Koç et al.), the crate's only Montgomery multiply;
    /// `k` is a literal at every specialised call site. `t` holds k + 2
    /// limbs.
    ///
    /// Constant-trace: the limb-operation sequence depends only on `k`,
    /// never on the values of `a` or `b` (see [`final_sub`]).
    #[inline(always)]
    #[allow(clippy::needless_range_loop)] // textbook CIOS index arithmetic
    fn cios_mul(&self, k: usize, a: &[u64], b: &[u64], out: &mut [u64], t: &mut [u64]) {
        let n = &self.n_limbs[..k];
        let (a, b, t) = (&a[..k], &b[..k], &mut t[..k + 2]);
        t.fill(0);
        for i in 0..k {
            let bi = b[i];
            // t += a * b[i]
            let mut carry = 0u128;
            for j in 0..k {
                let s = t[j] as u128 + (a[j] as u128) * (bi as u128) + carry;
                t[j] = s as u64;
                carry = s >> 64;
            }
            let s = t[k] as u128 + carry;
            t[k] = s as u64;
            t[k + 1] = (s >> 64) as u64;

            // Reduce one limb: t = (t + m*n) / 2^64.
            let m = t[0].wrapping_mul(self.n0inv);
            let s = t[0] as u128 + (m as u128) * (n[0] as u128);
            let mut carry = s >> 64;
            for j in 1..k {
                let s = t[j] as u128 + (m as u128) * (n[j] as u128) + carry;
                t[j - 1] = s as u64;
                carry = s >> 64;
            }
            let s = t[k] as u128 + carry;
            t[k - 1] = s as u64;
            t[k] = t[k + 1].wrapping_add((s >> 64) as u64);
        }
        let (low, top) = t.split_at(k);
        final_sub(n, low, top[0], &mut out[..k]);
    }

    /// The squaring body: the full 2k-limb square in `z` (each cross
    /// product `a[i]·a[j]`, i < j, once, then doubled, then the diagonal
    /// `a[i]²` added), followed by k Montgomery reduction rows over `z`
    /// (separated operand scanning). `k` is a literal at every specialised
    /// call site. Constant-trace like [`MontCtx::cios_mul`].
    #[inline(always)]
    #[allow(clippy::needless_range_loop)] // textbook SOS index arithmetic
    fn sos_sqr(&self, k: usize, a: &[u64], out: &mut [u64], z: &mut [u64]) {
        let n = &self.n_limbs[..k];
        let (a, z) = (&a[..k], &mut z[..2 * k]);
        z.fill(0);
        // Cross products: row i adds a[i]·a[i+1..k] at z[2i+1..] and its
        // carry lands in z[i+k], which no earlier row has written.
        for i in 0..k {
            let ai = a[i];
            let mut carry = 0u128;
            for j in i + 1..k {
                let s = z[i + j] as u128 + (ai as u128) * (a[j] as u128) + carry;
                z[i + j] = s as u64;
                carry = s >> 64;
            }
            z[i + k] = carry as u64;
        }
        // Double. The cross sum is below a²/2 < 2^{128k−1}, so no bit is
        // shifted out.
        let mut high_bit = 0u64;
        for limb in z.iter_mut() {
            let next = *limb >> 63;
            *limb = (*limb << 1) | high_bit;
            high_bit = next;
        }
        // Add the diagonal; the sum is a² < 2^{128k}, so the last carry is 0.
        let mut carry = 0u128;
        for i in 0..k {
            let sq = (a[i] as u128) * (a[i] as u128);
            let s = z[2 * i] as u128 + (sq as u64) as u128 + carry;
            z[2 * i] = s as u64;
            let s = z[2 * i + 1] as u128 + (sq >> 64) + (s >> 64);
            z[2 * i + 1] = s as u64;
            carry = s >> 64;
        }
        // Reduce one limb per row: z += m·n·2^{64i} clears z[i]. A row's
        // carry out of z[i+k] waits in `top` for the next row, where it
        // belongs one limb higher; after the last row it is the overflow
        // bit of z[k..2k].
        let mut top = 0u64;
        for i in 0..k {
            let m = z[i].wrapping_mul(self.n0inv);
            let mut carry = 0u128;
            for j in 0..k {
                let s = z[i + j] as u128 + (m as u128) * (n[j] as u128) + carry;
                z[i + j] = s as u64;
                carry = s >> 64;
            }
            let s = z[i + k] as u128 + carry + top as u128;
            z[i + k] = s as u64;
            top = (s >> 64) as u64;
        }
        final_sub(n, &z[k..], top, &mut out[..k]);
    }

    /// `acc ← acc²`.
    fn square(&self, s: &mut Scratch) {
        self.mont_sqr_into(&s.acc, &mut s.tmp, &mut s.t);
        std::mem::swap(&mut s.acc, &mut s.tmp);
    }

    /// `acc ← acc · entry`.
    fn mul_entry(&self, s: &mut Scratch) {
        self.mont_mul_into(&s.acc, &s.entry, &mut s.tmp, &mut s.t);
        std::mem::swap(&mut s.acc, &mut s.tmp);
    }

    /// `acc ← acc · table[idx]` for a flat window table, the entry fetched
    /// by a masked scan into `entry`: every entry is read and only the
    /// selected one kept, so neither the branch predictor nor the data
    /// cache sees which window value the secret exponent produced.
    ///
    /// Each entry's mask passes through `black_box`, as in [`final_sub`]:
    /// when the compiler can see it is all-zeros or all-ones, it skips
    /// every entry but the selected one on a compare against `idx` and
    /// loads only that entry (DESIGN.md §9). Never inlined, so every
    /// ladder shares one compiled scan, the one `ci/check_select_asm.py`
    /// reads. Dispatched per width like [`MontCtx::mont_mul_into`] to one
    /// body, [`select_entry`]; other widths run the same scan over the
    /// runtime `k` straight into `entry`.
    #[inline(never)]
    pub(crate) fn mul_selected(&self, s: &mut Scratch, table: &[u64], idx: usize) {
        match self.k {
            4 => select_entry::<4>(table, idx, &mut s.entry),
            8 => select_entry::<8>(table, idx, &mut s.entry),
            9 => select_entry::<9>(table, idx, &mut s.entry),
            12 => select_entry::<12>(table, idx, &mut s.entry),
            16 => select_entry::<16>(table, idx, &mut s.entry),
            32 => select_entry::<32>(table, idx, &mut s.entry),
            k => {
                s.entry.fill(0);
                let mut left = idx;
                for e in table.chunks_exact(k) {
                    let mask = std::hint::black_box(0u64.wrapping_sub(u64::from(left == 0)));
                    for (o, &v) in s.entry.iter_mut().zip(e) {
                        *o |= v & mask;
                    }
                    left = left.wrapping_sub(1);
                }
            }
        }
        self.mul_entry(s);
    }

    /// `acc ← acc · table[idx]` by direct index: the variable-time fetch of
    /// [`MontCtx::multi_exp_vartime`], for public exponents only.
    pub(crate) fn mul_indexed(&self, s: &mut Scratch, table: &[u64], idx: usize) {
        let k = self.k;
        self.mont_mul_into(&s.acc, &table[idx * k..][..k], &mut s.tmp, &mut s.t);
        std::mem::swap(&mut s.acc, &mut s.tmp);
    }

    /// `entry ← x·R mod n`, the Montgomery form of `x`.
    fn to_mont(&self, x: &Ubig, s: &mut Scratch) {
        let reduced = x.rem(&self.n);
        let limbs = reduced.limbs();
        s.tmp.fill(0);
        s.tmp[..limbs.len()].copy_from_slice(limbs);
        self.mont_mul_into(&s.tmp, &self.rr, &mut s.entry, &mut s.t);
    }

    /// The accumulator out of Montgomery form, `acc·R⁻¹ mod n`; consumes
    /// (and so wipes) the scratch.
    #[allow(clippy::wrong_self_convention)] // Montgomery-form terminology
    pub(crate) fn from_mont(&self, mut s: Scratch) -> Ubig {
        s.entry.fill(0);
        s.entry[0] = 1;
        self.mont_mul_into(&s.acc, &s.entry, &mut s.tmp, &mut s.t);
        Ubig::from_limbs(std::mem::take(&mut s.tmp))
    }

    /// Modular multiplication `a*b mod n` via Montgomery form.
    pub fn modmul(&self, a: &Ubig, b: &Ubig) -> Ubig {
        crate::counters::record_modmul();
        let mut s = self.scratch();
        self.to_mont(a, &mut s);
        std::mem::swap(&mut s.acc, &mut s.entry);
        self.to_mont(b, &mut s);
        self.mul_entry(&mut s);
        self.from_mont(s)
    }

    /// Modular exponentiation `base^exp mod n` with a fixed 4-bit window.
    ///
    /// Secret-independent for a fixed public bit-width: every window
    /// performs exactly `WINDOW` squarings and one multiplication (a zero
    /// window multiplies by `table[0] = 1` in Montgomery form, which has
    /// the same operation trace as any other entry), and the table entry
    /// is fetched with a masked scan over the whole table rather than an
    /// index. Only `exp.bits()` — the public width — shapes the operation
    /// sequence; the bigint `trace-ops` tests pin this down.
    pub fn modpow(&self, base: &Ubig, exp: &Ubig) -> Ubig {
        if exp.is_zero() {
            return Ubig::one().rem(&self.n);
        }
        let mut s = self.scratch();
        self.to_mont(base, &mut s);
        let table = self.pow_table(&s.entry, &mut s.t);
        let bits = exp.bits();
        let windows = bits.div_ceil(WINDOW);
        for w in (0..windows).rev() {
            for _ in 0..WINDOW {
                self.square(&mut s);
            }
            self.mul_selected(&mut s, &table, window_chunk(exp, bits, w));
        }
        self.from_mont(s)
    }

    /// Variable-time Straus multi-exponentiation for **public** data:
    /// `∏ baseᵢ^expᵢ mod n` on one squaring chain shared by every term,
    /// with direct table indexing and zero digits skipped. The workhorse
    /// of signature/ZK-proof verification, where every operand arrived on
    /// the broadcast channel. The shs-lint `vartime-usage` rule pins down
    /// the allowed call sites.
    pub fn multi_exp_vartime(&self, pairs: &[(&Ubig, &Ubig)]) -> Ubig {
        // Zero-exponent terms contribute a factor of one: drop them.
        let live: Vec<&(&Ubig, &Ubig)> = pairs.iter().filter(|(_, e)| !e.is_zero()).collect();
        let Some(bits) = live.iter().map(|(_, e)| e.bits()).max() else {
            return Ubig::one().rem(&self.n);
        };
        let mut s = self.scratch();
        let tables = self.pow_tables(live.iter().map(|(b, _)| *b), &mut s);
        let windows = bits.div_ceil(WINDOW);
        let mut started = false;
        for w in (0..windows).rev() {
            if started {
                for _ in 0..WINDOW {
                    self.square(&mut s);
                }
            }
            for (table, (_, exp)) in tables.iter().zip(&live) {
                let chunk = window_chunk(exp, bits, w);
                if chunk != 0 {
                    self.mul_indexed(&mut s, table, chunk);
                    started = true;
                }
            }
        }
        self.from_mont(s)
    }

    /// Precomputes `base^0 .. base^{2^WINDOW - 1}` in Montgomery form as one
    /// flat buffer: entry `d` is limbs `d·k .. (d+1)·k`.
    fn pow_table(&self, base_m: &[u64], t: &mut [u64]) -> Vec<u64> {
        let k = self.k;
        let mut table = vec![0u64; k << WINDOW];
        table[..k].copy_from_slice(&self.r1);
        table[k..2 * k].copy_from_slice(base_m);
        for d in 2..1usize << WINDOW {
            let (done, rest) = table.split_at_mut(d * k);
            self.mont_mul_into(&done[(d - 1) * k..], base_m, rest, t);
        }
        table
    }

    /// One [`MontCtx::pow_table`] per base, for the Straus ladder.
    fn pow_tables<'a>(
        &self,
        bases: impl Iterator<Item = &'a Ubig>,
        s: &mut Scratch,
    ) -> Vec<Vec<u64>> {
        bases
            .map(|b| {
                self.to_mont(b, s);
                self.pow_table(&s.entry, &mut s.t)
            })
            .collect()
    }

    /// The rows of a [`crate::FixedBase`] table: row `w` is the window
    /// table of `base^(2^{WINDOW·w})`, for `windows` window positions.
    pub(crate) fn fixed_base_rows(&self, base: &Ubig, windows: u32) -> Vec<Vec<u64>> {
        let mut s = self.scratch();
        self.to_mont(base, &mut s);
        // acc = base^(2^{WINDOW·w}), advanced by WINDOW squarings per row.
        std::mem::swap(&mut s.acc, &mut s.entry);
        (0..windows)
            .map(|_| {
                let row = self.pow_table(&s.acc, &mut s.t);
                for _ in 0..WINDOW {
                    self.square(&mut s);
                }
                row
            })
            .collect()
    }
}

/// The working buffers of one exponentiation call: the accumulator `acc`,
/// its double buffer `tmp`, the kernel accumulator `t` (k + 2 limbs for a
/// multiply, 2k for a squaring) and the masked-scan output `entry`.
/// Allocated once per call; every multiply or squaring writes `tmp` and
/// swaps it with `acc`.
///
/// Dropping it wipes all four, so a secret-exponent ladder leaves neither
/// its intermediate powers nor its selected digits in freed heap memory
/// (DESIGN.md §9).
pub(crate) struct Scratch {
    acc: Vec<u64>,
    tmp: Vec<u64>,
    t: Vec<u64>,
    entry: Vec<u64>,
}

impl Drop for Scratch {
    fn drop(&mut self) {
        // Same best-effort erasure as `Ubig::wipe`: overwrite every limb,
        // then route the buffer through `black_box` so the stores count as
        // observed and are not elided as dead writes.
        for buf in [&mut self.acc, &mut self.tmp, &mut self.t, &mut self.entry] {
            buf.fill(0);
            std::hint::black_box(buf);
        }
    }
}

/// The Montgomery final subtraction, shared by both kernel bodies:
/// `out ← v − n` if `v ≥ n`, else `out ← v`, for the k-limb value
/// `v = low + overflow·2^{64k}` (below 2n).
///
/// Branch-free: `v − n` is always written to `out`, then kept or replaced
/// by `low` through a mask, which removes the classic value-dependent
/// timing leak of the "sometimes subtract" step. The mask passes through
/// `black_box`: when the compiler can see it is all-zeros or all-ones, it
/// turns the select back into a conditional copy of `low` (a branch) or a
/// select between the two buffers' addresses (DESIGN.md §9).
#[inline(always)]
fn final_sub(n: &[u64], low: &[u64], overflow: u64, out: &mut [u64]) {
    crate::trace::limb_add(2 * n.len() as u64);
    let mut borrow = 0u64;
    for ((o, &l), &m) in out.iter_mut().zip(low).zip(n) {
        let (d, b1) = l.overflowing_sub(m);
        let (d, b2) = d.overflowing_sub(borrow);
        *o = d;
        borrow = u64::from(b1) | u64::from(b2);
    }
    // Subtract when `v` overflowed R or when low >= n (the trial
    // subtraction did not borrow). With the overflow limb, the borrow
    // cancels against the hidden 2^{64k}.
    let need_sub = (overflow != 0) | (borrow == 0);
    let mask = std::hint::black_box(0u64.wrapping_sub(u64::from(need_sub)));
    for (o, &l) in out.iter_mut().zip(low) {
        *o = (*o & mask) | (l & !mask);
    }
}

/// The masked scan of [`MontCtx::mul_selected`] at a width `K` known at
/// compile time: `entry ← table[idx]` for a flat table of `2^WINDOW`
/// K-limb entries, every entry read.
///
/// The kept entry gathers in a local array, which the compiler keeps in
/// registers: the barrier on each mask may read or write any memory whose
/// address has escaped, so an accumulator in `entry`'s heap buffer would be
/// stored and reloaded around every entry. The digit counts down to zero,
/// which marks the kept entry, and both slices are bounds-checked before
/// the first barrier, so no panic path sits among the masks.
#[inline(always)]
fn select_entry<const K: usize>(table: &[u64], idx: usize, entry: &mut [u64]) {
    let (table, entry) = (&table[..K << WINDOW], &mut entry[..K]);
    let mut acc = [0u64; K];
    let mut left = idx;
    for e in table.chunks_exact(K) {
        let mask = std::hint::black_box(0u64.wrapping_sub(u64::from(left == 0)));
        for (a, &v) in acc.iter_mut().zip(e) {
            *a |= v & mask;
        }
        left = left.wrapping_sub(1);
    }
    entry.copy_from_slice(&acc);
}

/// Extracts the 4-bit window `w` of `exp` (bits past `bits` read as zero).
pub(crate) fn window_chunk(exp: &Ubig, bits: u32, w: u32) -> usize {
    let mut chunk = 0usize;
    for b in (0..WINDOW).rev() {
        let bit_idx = w * WINDOW + b;
        let bit = bit_idx < bits && exp.bit(bit_idx);
        chunk = (chunk << 1) | usize::from(bit);
    }
    chunk
}

/// `−n0⁻¹ mod 2^64` for an odd limb `n0`: the Montgomery constant of a
/// modulus whose low limb is `n0`, also the quotient seed of the binary
/// inverse's halving step (`gcd::modinv`).
pub(crate) fn neg_inv_limb(n0: u64) -> u64 {
    // Newton iteration for n0^{-1} mod 2^64 (converges in 6 steps).
    let mut inv: u64 = n0;
    for _ in 0..6 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(inv)));
    }
    debug_assert_eq!(n0.wrapping_mul(inv), 1);
    inv.wrapping_neg()
}

fn pad(limbs: &[u64], k: usize) -> Vec<u64> {
    let mut v = limbs.to_vec();
    v.resize(k, 0);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FixedBase;

    /// Slow reference modpow by square-and-multiply with full (Knuth)
    /// divisions: no Montgomery code.
    fn slow_modpow(base: &Ubig, exp: &Ubig, m: &Ubig) -> Ubig {
        let mut acc = Ubig::one().rem(m);
        let mut b = base.rem(m);
        for i in 0..exp.bits() {
            if exp.bit(i) {
                acc = acc.mul(&b).rem(m);
            }
            b = b.mul(&b).rem(m);
        }
        acc
    }

    #[test]
    fn matches_slow_modpow_small() {
        let m = Ubig::from_u64(1_000_000_007);
        let ctx = MontCtx::new(m.clone());
        for (b, e) in [(2u64, 10u64), (31337, 65537), (999999999, 123456789)] {
            let b = Ubig::from_u64(b);
            let e = Ubig::from_u64(e);
            assert_eq!(ctx.modpow(&b, &e), slow_modpow(&b, &e, &m));
        }
    }

    /// Deterministic xorshift64 limb source.
    fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    #[test]
    fn matches_slow_modpow_multilimb() {
        // Every ladder against the division-based reference, one fixed
        // case per width up to the Paper preset's 2048-bit (32-limb)
        // modulus, with full-width exponents: each specialised instance
        // and three fallback widths (2, 3 and 7 limbs).
        let mut next = xorshift(0xdeadbeefcafef00d);
        for limbs in [2usize, 3, 4, 7, 8, 9, 12, 16, 32] {
            let mut mv: Vec<u64> = (0..limbs).map(|_| next()).collect();
            mv[0] |= 1; // odd
            let m = Ubig::from_limbs(mv);
            let ctx = std::sync::Arc::new(MontCtx::new(m.clone()));
            let b = Ubig::from_limbs((0..limbs + 1).map(|_| next()).collect());
            let c = Ubig::from_limbs((0..limbs).map(|_| next()).collect());
            let e = Ubig::from_limbs((0..limbs).map(|_| next()).collect());
            let f = Ubig::from_limbs((0..2).map(|_| next()).collect());
            let want = slow_modpow(&b, &e, &m);
            assert_eq!(ctx.modpow(&b, &e), want, "limbs {limbs}");
            let fb = FixedBase::new(std::sync::Arc::clone(&ctx), &b, 64 * limbs as u32);
            assert_eq!(fb.pow(&e), want, "limbs {limbs}");
            let product = want.mul(&slow_modpow(&c, &f, &m)).rem(&m);
            let pairs = [(&b, &e), (&c, &f)];
            assert_eq!(ctx.multi_exp_vartime(&pairs), product, "limbs {limbs}");
            assert_eq!(ctx.modmul(&b, &c), b.mul(&c).rem(&m), "limbs {limbs}");
        }
    }

    #[test]
    fn squaring_kernel_edge_operands() {
        // The squaring kernel against the multiply kernel on the same
        // operand, and against a division-based check of a²·R⁻¹ mod n, at
        // every width. Operands: 0, 1, n − 1, R mod n and all-ones limbs
        // (R − 1, not reduced: the longest carry chains through the
        // doubling and reduction passes). Moduli: a random odd one with
        // the top bit set, and R − 1 itself (all-ones limbs, n0⁻¹ = −1).
        // Widths: every specialised instance and four on the fallback.
        let mut next = xorshift(0x5a5a_0f0f_3c3c_9696);
        for k in [1usize, 2, 3, 4, 7, 8, 9, 12, 16, 32] {
            let mut random: Vec<u64> = (0..k).map(|_| next()).collect();
            random[0] |= 1;
            random[k - 1] |= 1 << 63;
            let all_ones = vec![u64::MAX; k];
            for n_limbs in [random, all_ones.clone()] {
                let n = Ubig::from_limbs(n_limbs);
                let ctx = MontCtx::new(n.clone());
                let operands = [
                    vec![0; k],
                    pad(&[1], k),
                    pad(n.sub_u64(1).limbs(), k),
                    ctx.r1.clone(),
                    all_ones.clone(),
                ];
                for a in operands {
                    let (mut sqr, mut mul) = (vec![0; k], vec![0; k]);
                    let mut s = ctx.scratch();
                    ctx.mont_sqr_into(&a, &mut sqr, &mut s.t);
                    ctx.mont_mul_into(&a, &a, &mut mul, &mut s.t);
                    assert_eq!(sqr, mul, "k {k}, n {n:?}, a {a:?}");
                    let (a, sqr) = (Ubig::from_limbs(a), Ubig::from_limbs(sqr));
                    assert_eq!(
                        sqr.shl(64 * k as u32).rem(&n),
                        a.mul(&a).rem(&n),
                        "k {k}, n {n:?}, a {a:?}"
                    );
                    if a < n {
                        assert!(sqr < n, "k {k}: reduced operand, unreduced square");
                    }
                }
            }
        }
    }

    #[test]
    fn modmul_matches_naive() {
        let m = Ubig::from_hex("f123456789abcdef123456789abcdef1").unwrap();
        let ctx = MontCtx::new(m.clone());
        let a = Ubig::from_hex("123456789abcdef").unwrap();
        let b = Ubig::from_hex("fedcba9876543210fedcba").unwrap();
        assert_eq!(ctx.modmul(&a, &b), a.mul(&b).rem(&m));
    }

    #[test]
    fn exponent_edge_cases() {
        let m = Ubig::from_u64(101);
        let ctx = MontCtx::new(m.clone());
        assert_eq!(ctx.modpow(&Ubig::from_u64(7), &Ubig::zero()), Ubig::one());
        assert_eq!(
            ctx.modpow(&Ubig::from_u64(7), &Ubig::one()),
            Ubig::from_u64(7)
        );
        assert_eq!(ctx.modpow(&Ubig::zero(), &Ubig::from_u64(5)), Ubig::zero());
        // Base larger than the modulus gets reduced.
        assert_eq!(
            ctx.modpow(&Ubig::from_u64(108), &Ubig::from_u64(2)),
            Ubig::from_u64(49)
        );
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_modulus_rejected() {
        let _ = MontCtx::new(Ubig::from_u64(100));
    }

    #[test]
    fn multi_exp_matches_product_of_modpows() {
        let m = Ubig::from_hex("f123456789abcdef123456789abcdef1").unwrap();
        let ctx = MontCtx::new(m.clone());
        let bases = [
            Ubig::from_u64(2),
            Ubig::from_u64(31337),
            Ubig::from_hex("deadbeefcafef00d1234").unwrap(),
        ];
        let exps = [
            Ubig::from_u64(65537),
            Ubig::zero(),
            Ubig::from_hex("fedcba9876543210fedcba9876543210ff").unwrap(),
        ];
        let pairs: Vec<(&Ubig, &Ubig)> = bases.iter().zip(exps.iter()).collect();
        let naive = bases
            .iter()
            .zip(&exps)
            .fold(Ubig::one(), |acc, (b, e)| acc.mulm(&ctx.modpow(b, e), &m));
        assert_eq!(ctx.multi_exp_vartime(&pairs), naive);
        // Empty product is one.
        assert_eq!(ctx.multi_exp_vartime(&[]), Ubig::one());
    }
}
