//! Greatest common divisors, extended Euclid and modular inverses. (The
//! CRT the protocols run is [`crate::CrtCtx`].)

use crate::{BigintError, Int, Ubig};
use std::cmp::Ordering;

/// Binary GCD of two naturals.
pub fn gcd(a: &Ubig, b: &Ubig) -> Ubig {
    if a.is_zero() {
        return b.clone();
    }
    if b.is_zero() {
        return a.clone();
    }
    let az = a.trailing_zeros().unwrap();
    let bz = b.trailing_zeros().unwrap();
    let shift = az.min(bz);
    let mut u = a.shr(az);
    let mut v = b.shr(bz);
    loop {
        if u > v {
            std::mem::swap(&mut u, &mut v);
        }
        v = v.sub(&u);
        if v.is_zero() {
            return u.shl(shift);
        }
        v = v.shr(v.trailing_zeros().unwrap());
    }
}

/// Extended Euclid: returns `(g, x, y)` with `a*x + b*y = g = gcd(a, b)`.
pub fn ext_gcd(a: &Ubig, b: &Ubig) -> (Ubig, Int, Int) {
    let mut r0 = Int::from_ubig(a.clone());
    let mut r1 = Int::from_ubig(b.clone());
    let mut s0 = Int::one();
    let mut s1 = Int::zero();
    let mut t0 = Int::zero();
    let mut t1 = Int::one();
    while !r1.is_zero() {
        // Iteration count is input-dependent (Euclid); recorded so the
        // trace harness can see it.
        crate::trace::branch();
        let (q, r) = r0.divrem(&r1);
        let s = s0.sub(&q.mul(&s1));
        let t = t0.sub(&q.mul(&t1));
        r0 = r1;
        r1 = r;
        s0 = s1;
        s1 = s;
        t0 = t1;
        t1 = t;
    }
    (r0.into_magnitude(), s0, t0)
}

/// Modular inverse: `a^{-1} mod m`, canonical in `[0, m)`.
///
/// Odd moduli — every modulus the protocols invert under: RSA `n`,
/// Schnorr `p`, the issuer's `p′q′`, the CRT primes — take the
/// allocation-free binary inverse; even moduli fall back to [`ext_gcd`].
/// Both are **variable-time**: the step count and every branch depend on
/// the values of `a` and `m`, and each step records one
/// [`crate::trace::branch`] event.
///
/// # Errors
///
/// [`BigintError::DivisionByZero`] when `m` is zero,
/// [`BigintError::NotInvertible`] when `gcd(a, m) != 1`.
pub fn modinv(a: &Ubig, m: &Ubig) -> Result<Ubig, BigintError> {
    if m.is_zero() {
        return Err(BigintError::DivisionByZero);
    }
    if m.is_one() {
        return Ok(Ubig::zero());
    }
    if m.is_odd() {
        return binary_inverse(a, m);
    }
    let a = a.rem(m);
    let (g, x, _) = ext_gcd(&a, m);
    if !g.is_one() {
        return Err(BigintError::NotInvertible);
    }
    Ok(x.mod_ubig(m))
}

/// Right-shift binary inverse of `a` modulo an odd `m ≥ 3`, over four
/// k-limb buffers: `u = a mod m`, `v = m` and cofactors `x1`, `x2` in
/// `[0, m)` with `x1·a ≡ u` and `x2·a ≡ v (mod m)`. Each step strips the
/// trailing zeros of `u` or `v`, halving its cofactor as often mod `m`,
/// then subtracts the smaller of `u`, `v` from the larger (and its
/// cofactor from the other's). The step that leaves `u` or `v` at one
/// has that side's cofactor as the inverse; `u` reaching zero means
/// `gcd(a, m) = v > 1`.
fn binary_inverse(a: &Ubig, modulus: &Ubig) -> Result<Ubig, BigintError> {
    let m = modulus.limbs();
    let k = m.len();
    let n0inv = crate::mont::neg_inv_limb(m[0]);
    let mut scratch = InvScratch(vec![0; 4 * k]);
    let (u, rest) = scratch.0.split_at_mut(k);
    let (v, rest) = rest.split_at_mut(k);
    let (x1, x2) = rest.split_at_mut(k);
    let mut reduced = a.rem(modulus);
    u[..reduced.limbs().len()].copy_from_slice(reduced.limbs());
    reduced.wipe();
    v.copy_from_slice(m);
    x1[0] = 1;
    if is_zero(u) {
        return Err(BigintError::NotInvertible);
    }
    strip(u, x1, m, n0inv);
    loop {
        if is_one(u) {
            return Ok(Ubig::from_limbs(x1.to_vec()));
        }
        if is_one(v) {
            return Ok(Ubig::from_limbs(x2.to_vec()));
        }
        crate::trace::branch();
        if cmp(u, v) == Ordering::Less {
            sub_assign(v, u);
            sub_mod(x2, x1, m);
            strip(v, x2, m, n0inv);
        } else {
            sub_assign(u, v);
            if is_zero(u) {
                return Err(BigintError::NotInvertible);
            }
            sub_mod(x1, x2, m);
            strip(u, x1, m, n0inv);
        }
    }
}

/// The working buffers of [`binary_inverse`] (`u`, `v`, `x1`, `x2`) in
/// one allocation, wiped on drop like the Montgomery ladders' scratch
/// (DESIGN.md §9): the authority inverts under secret moduli
/// (`e⁻¹ mod p′q′`, the CRT coefficient `q⁻¹ mod p`), and the residues
/// and cofactors would otherwise stay in freed memory.
struct InvScratch(Vec<u64>);

impl Drop for InvScratch {
    fn drop(&mut self) {
        self.0.fill(0);
        std::hint::black_box(&mut self.0);
    }
}

fn is_zero(x: &[u64]) -> bool {
    x.iter().all(|&l| l == 0)
}

fn is_one(x: &[u64]) -> bool {
    x[0] == 1 && is_zero(&x[1..])
}

/// Compares two equal-length little-endian limb slices.
fn cmp(x: &[u64], y: &[u64]) -> Ordering {
    x.iter().rev().cmp(y.iter().rev())
}

/// `x ← x − y` over `x.len()` limbs; returns the borrow out of the top.
fn sub_assign(x: &mut [u64], y: &[u64]) -> bool {
    let mut borrow = false;
    for (xi, &yi) in x.iter_mut().zip(y) {
        let (d, b1) = xi.overflowing_sub(yi);
        let (d, b2) = d.overflowing_sub(u64::from(borrow));
        *xi = d;
        borrow = b1 | b2;
    }
    borrow
}

/// `x ← (x − y) mod m` for `x, y ∈ [0, m)`.
fn sub_mod(x: &mut [u64], y: &[u64], m: &[u64]) {
    if sub_assign(x, y) {
        let mut carry = false;
        for (xi, &mi) in x.iter_mut().zip(m) {
            let (s, c1) = xi.overflowing_add(mi);
            let (s, c2) = s.overflowing_add(u64::from(carry));
            *xi = s;
            carry = c1 | c2;
        }
    }
}

/// Shifts the non-zero `w` right until it is odd, at most 63 bits per
/// pass, and divides its cofactor `x` by the same power of two mod `m`.
fn strip(w: &mut [u64], x: &mut [u64], m: &[u64], n0inv: u64) {
    while w[0] & 1 == 0 {
        let s = if w[0] == 0 { 63 } else { w[0].trailing_zeros() };
        for i in 1..w.len() {
            w[i - 1] = (w[i - 1] >> s) | (w[i] << (64 - s));
        }
        let top = w.len() - 1;
        w[top] >>= s;
        halve_mod(x, s, m, n0inv);
    }
}

/// `x ← x / 2^s mod m` for `x ∈ [0, m)`, odd `m` and `1 ≤ s ≤ 63`, in
/// one pass: add `q·m` with `q = −x·m⁻¹ mod 2^s`, so `2^s` divides the
/// sum, and shift right by `s` as the limbs come out. No reduction
/// follows: `x + q·m < m + (2^s − 1)·m`, so the quotient is below `m`.
/// `n0inv` is `−m⁻¹ mod 2^64`.
fn halve_mod(x: &mut [u64], s: u32, m: &[u64], n0inv: u64) {
    let q = u128::from(x[0].wrapping_mul(n0inv) & ((1u64 << s) - 1));
    let t = u128::from(x[0]) + q * u128::from(m[0]);
    let mut prev = t as u64;
    let mut carry = (t >> 64) as u64;
    for i in 1..x.len() {
        let t = u128::from(x[i]) + q * u128::from(m[i]) + u128::from(carry);
        x[i - 1] = (prev >> s) | ((t as u64) << (64 - s));
        prev = t as u64;
        carry = (t >> 64) as u64;
    }
    let top = x.len() - 1;
    x[top] = (prev >> s) | (carry << (64 - s));
    debug_assert!(carry >> s == 0 && cmp(x, m) == Ordering::Less);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcd_basics() {
        assert_eq!(
            gcd(&Ubig::from_u64(12), &Ubig::from_u64(18)),
            Ubig::from_u64(6)
        );
        assert_eq!(gcd(&Ubig::zero(), &Ubig::from_u64(5)), Ubig::from_u64(5));
        assert_eq!(gcd(&Ubig::from_u64(5), &Ubig::zero()), Ubig::from_u64(5));
        assert_eq!(gcd(&Ubig::from_u64(17), &Ubig::from_u64(13)), Ubig::one());
        assert_eq!(
            gcd(&Ubig::from_u64(1 << 20), &Ubig::from_u64(1 << 12)),
            Ubig::from_u64(1 << 12)
        );
    }

    #[test]
    fn ext_gcd_bezout() {
        let a = Ubig::from_u64(240);
        let b = Ubig::from_u64(46);
        let (g, x, y) = ext_gcd(&a, &b);
        assert_eq!(g, Ubig::from_u64(2));
        let lhs = Int::from_ubig(a).mul(&x).add(&Int::from_ubig(b).mul(&y));
        assert_eq!(lhs, Int::from_ubig(g));
    }

    /// The Euclid inverse: `ext_gcd` then `mod_ubig`.
    fn euclid_inverse(a: &Ubig, m: &Ubig) -> Result<Ubig, BigintError> {
        let (g, x, _) = ext_gcd(&a.rem(m), m);
        if g.is_one() {
            Ok(x.mod_ubig(m))
        } else {
            Err(BigintError::NotInvertible)
        }
    }

    /// A deterministic `limbs`-limb number with its top limb non-zero.
    fn wide(limbs: usize, seed: u64) -> Ubig {
        let mut state = seed;
        let mut v: Vec<u64> = (0..limbs)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            })
            .collect();
        v[limbs - 1] |= 1 << 63;
        Ubig::from_limbs(v)
    }

    #[test]
    fn modinv_works() {
        let m = Ubig::from_u64(97);
        for a in [1u64, 2, 50, 96] {
            let inv = modinv(&Ubig::from_u64(a), &m).unwrap();
            assert_eq!(Ubig::from_u64(a).mulm(&inv, &m), Ubig::one());
        }
        // Modulo one everything inverts to zero; three is the smallest
        // modulus the binary inverse sees.
        for a in [0u64, 1, 2, 7] {
            assert_eq!(modinv(&Ubig::from_u64(a), &Ubig::one()), Ok(Ubig::zero()));
        }
        let three = Ubig::from_u64(3);
        for (a, inv) in [(1u64, 1u64), (2, 2), (5, 2)] {
            assert_eq!(modinv(&Ubig::from_u64(a), &three), Ok(Ubig::from_u64(inv)));
        }
        // Odd composite moduli that share a factor with `a`.
        let p = Ubig::from_u128(0xffffffffffffffffffffffffffffff61); // prime
        for (a, m) in [
            (Ubig::from_u64(6), Ubig::from_u64(9)),
            (three.clone(), three),
            (p.mul(&wide(2, 22)), p.mul(&wide(3, 21).shl(1).add_u64(1))),
        ] {
            assert_eq!(modinv(&a, &m), Err(BigintError::NotInvertible));
        }
        assert_eq!(
            modinv(&Ubig::one(), &Ubig::zero()),
            Err(BigintError::DivisionByZero)
        );
    }

    #[test]
    fn modinv_edge_inputs() {
        // Odd moduli take the binary inverse, even ones the Euclid.
        for m in [
            Ubig::from_u64(97),
            Ubig::from_u64(96),
            wide(4, 11).shl(1),
            wide(5, 12).shl(1).add_u64(1),
        ] {
            for a in [Ubig::zero(), m.clone(), m.shl(1)] {
                assert_eq!(modinv(&a, &m), Err(BigintError::NotInvertible));
            }
            assert_eq!(modinv(&Ubig::one(), &m), Ok(Ubig::one()));
            let minus_one = m.sub_u64(1);
            assert_eq!(modinv(&minus_one, &m), Ok(minus_one.clone()));
            // A multi-limb input above the modulus reduces first.
            let a = (13..)
                .map(|seed| wide(m.limbs().len() + 1, seed))
                .find(|a| gcd(a, &m).is_one())
                .unwrap();
            let inv = modinv(&a, &m);
            assert_eq!(inv, euclid_inverse(&a, &m));
            assert!(inv.is_ok_and(|inv| inv < m && a.mulm(&inv, &m).is_one()));
        }
    }

    #[test]
    fn modinv_large() {
        // Inverse modulo a 128-bit prime.
        let p = Ubig::from_u128(0xffffffffffffffffffffffffffffff61); // 2^128 - 159 is prime
        let a = Ubig::from_u128(0x123456789abcdef0fedcba9876543210);
        let inv = modinv(&a, &p).unwrap();
        assert_eq!(a.mulm(&inv, &p), Ubig::one());
        // The Paper preset's 2048-bit width, including inputs whose
        // residues and differences carry long runs of trailing zeros.
        let mut m = wide(32, 31);
        m.set_bit(0);
        for a in [
            wide(32, 32),
            wide(33, 33),
            Ubig::one().shl(1500),
            wide(20, 34).shl(700),
            m.sub(&m.shr(300).shl(300)), // m − a is a multiple of 2^300
        ] {
            let inv = modinv(&a, &m);
            assert_eq!(inv, euclid_inverse(&a, &m));
            assert!(inv.is_ok_and(|inv| inv < m && a.mulm(&inv, &m).is_one()));
        }
    }
}
