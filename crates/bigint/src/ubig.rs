//! The [`Ubig`] arbitrary-precision natural number.

use crate::BigintError;

/// An arbitrary-precision natural number (unsigned big integer).
///
/// Stored as little-endian `u64` limbs with the invariant that the most
/// significant limb is non-zero (zero is represented by an empty limb
/// vector).
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Ubig {
    pub(crate) limbs: Vec<u64>,
}

impl Ubig {
    /// The number zero.
    #[inline]
    pub fn zero() -> Self {
        Ubig { limbs: Vec::new() }
    }

    /// The number one.
    #[inline]
    pub fn one() -> Self {
        Ubig { limbs: vec![1] }
    }

    /// Builds a `Ubig` from a single `u64`.
    #[inline]
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Ubig::zero()
        } else {
            Ubig { limbs: vec![v] }
        }
    }

    /// Builds a `Ubig` from a `u128`.
    pub fn from_u128(v: u128) -> Self {
        let lo = v as u64;
        let hi = (v >> 64) as u64;
        let mut n = Ubig {
            limbs: vec![lo, hi],
        };
        n.normalize();
        n
    }

    /// Builds a `Ubig` from little-endian limbs (trailing zeros allowed).
    pub fn from_limbs(limbs: Vec<u64>) -> Self {
        let mut n = Ubig { limbs };
        n.normalize();
        n
    }

    /// Read-only view of the little-endian limbs.
    #[inline]
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// Best-effort zeroization: overwrites every limb, routes the buffer
    /// through [`std::hint::black_box`] so the stores count as observed and
    /// cannot be elided as dead writes, then resets to the canonical zero.
    ///
    /// The workspace forbids `unsafe`, so a true volatile wipe is not
    /// available; this is the strongest erasure safe stable Rust offers.
    /// Capacity freed by earlier reallocations is not recoverable.
    pub fn wipe(&mut self) {
        for limb in self.limbs.iter_mut() {
            *limb = 0;
        }
        std::hint::black_box(&mut self.limbs);
        self.limbs.clear();
    }

    /// Is this number zero?
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Is this number one?
    #[inline]
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// Is this number even?
    #[inline]
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Is this number odd?
    #[inline]
    pub fn is_odd(&self) -> bool {
        !self.is_even()
    }

    /// Strips high zero limbs to restore the representation invariant.
    #[inline]
    pub(crate) fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// Number of significant bits (0 for zero).
    pub fn bits(&self) -> u32 {
        match self.limbs.last() {
            None => 0,
            Some(&hi) => (self.limbs.len() as u32 - 1) * 64 + (64 - hi.leading_zeros()),
        }
    }

    /// Returns bit `i` (little-endian bit order) as a bool.
    pub fn bit(&self, i: u32) -> bool {
        let limb = (i / 64) as usize;
        if limb >= self.limbs.len() {
            return false;
        }
        (self.limbs[limb] >> (i % 64)) & 1 == 1
    }

    /// Sets bit `i` to one, growing the number if needed.
    pub fn set_bit(&mut self, i: u32) {
        let limb = (i / 64) as usize;
        if limb >= self.limbs.len() {
            self.limbs.resize(limb + 1, 0);
        }
        self.limbs[limb] |= 1u64 << (i % 64);
    }

    /// Converts to `u64`, returning `None` on overflow.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0]),
            _ => None,
        }
    }

    /// Low 64 bits (wrapping conversion).
    pub fn low_u64(&self) -> u64 {
        self.limbs.first().copied().unwrap_or(0)
    }

    /// Comparison helper; `Ord` is implemented in terms of this.
    pub(crate) fn cmp_mag(&self, other: &Ubig) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {}
            o => return o,
        }
        for i in (0..self.limbs.len()).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => continue,
                o => return o,
            }
        }
        Ordering::Equal
    }

    /// Addition: `self + other`.
    pub fn add(&self, other: &Ubig) -> Ubig {
        let (big, small) = if self.limbs.len() >= other.limbs.len() {
            (self, other)
        } else {
            (other, self)
        };
        let mut out = Vec::with_capacity(big.limbs.len() + 1);
        let mut carry = 0u64;
        for i in 0..big.limbs.len() {
            let b = big.limbs[i];
            let s = small.limbs.get(i).copied().unwrap_or(0);
            let (t, c1) = b.overflowing_add(s);
            let (t, c2) = t.overflowing_add(carry);
            carry = (c1 as u64) + (c2 as u64);
            out.push(t);
        }
        if carry != 0 {
            out.push(carry);
        }
        Ubig::from_limbs(out)
    }

    /// In-place addition of a `u64`.
    pub fn add_u64(&self, v: u64) -> Ubig {
        self.add(&Ubig::from_u64(v))
    }

    /// Subtraction: `self - other`.
    ///
    /// # Panics
    ///
    /// Panics if `other > self` (naturals cannot go negative); use
    /// [`crate::Int`] for signed arithmetic.
    pub fn sub(&self, other: &Ubig) -> Ubig {
        assert!(
            self.cmp_mag(other) != std::cmp::Ordering::Less,
            "Ubig::sub underflow"
        );
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let a = self.limbs[i];
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (t, b1) = a.overflowing_sub(b);
            let (t, b2) = t.overflowing_sub(borrow);
            borrow = (b1 as u64) + (b2 as u64);
            out.push(t);
        }
        debug_assert_eq!(borrow, 0);
        Ubig::from_limbs(out)
    }

    /// Wrapping subtraction of a `u64`; panics on underflow.
    pub fn sub_u64(&self, v: u64) -> Ubig {
        self.sub(&Ubig::from_u64(v))
    }

    /// Left shift by `bits`.
    pub fn shl(&self, bits: u32) -> Ubig {
        if self.is_zero() || bits == 0 {
            if bits == 0 {
                return self.clone();
            }
            return self.clone();
        }
        let limb_shift = (bits / 64) as usize;
        let bit_shift = bits % 64;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        Ubig::from_limbs(out)
    }

    /// Right shift by `bits`.
    pub fn shr(&self, bits: u32) -> Ubig {
        let limb_shift = (bits / 64) as usize;
        if limb_shift >= self.limbs.len() {
            return Ubig::zero();
        }
        let bit_shift = bits % 64;
        let src = &self.limbs[limb_shift..];
        let mut out = Vec::with_capacity(src.len());
        if bit_shift == 0 {
            out.extend_from_slice(src);
        } else {
            for i in 0..src.len() {
                let lo = src[i] >> bit_shift;
                let hi = if i + 1 < src.len() {
                    src[i + 1] << (64 - bit_shift)
                } else {
                    0
                };
                out.push(lo | hi);
            }
        }
        Ubig::from_limbs(out)
    }

    /// Number of trailing zero bits (`None` for zero).
    pub fn trailing_zeros(&self) -> Option<u32> {
        for (i, &l) in self.limbs.iter().enumerate() {
            if l != 0 {
                return Some(i as u32 * 64 + l.trailing_zeros());
            }
        }
        None
    }

    /// Big-endian byte encoding without leading zero bytes (empty for zero).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for &l in self.limbs.iter().rev() {
            out.extend_from_slice(&l.to_be_bytes());
        }
        let first_nonzero = out.iter().position(|&b| b != 0).unwrap_or(out.len());
        out.drain(..first_nonzero);
        out
    }

    /// Big-endian byte encoding left-padded with zeros to exactly `len`
    /// bytes.
    ///
    /// # Panics
    ///
    /// Panics if the value does not fit in `len` bytes.
    pub fn to_bytes_be_padded(&self, len: usize) -> Vec<u8> {
        let raw = self.to_bytes_be();
        assert!(raw.len() <= len, "value does not fit in {len} bytes");
        let mut out = vec![0u8; len - raw.len()];
        out.extend_from_slice(&raw);
        out
    }

    /// Parses a big-endian byte string.
    pub fn from_bytes_be(bytes: &[u8]) -> Ubig {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        let mut iter = bytes.rchunks(8);
        for chunk in &mut iter {
            let mut buf = [0u8; 8];
            buf[8 - chunk.len()..].copy_from_slice(chunk);
            limbs.push(u64::from_be_bytes(buf));
        }
        Ubig::from_limbs(limbs)
    }

    /// `self mod m`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn rem(&self, m: &Ubig) -> Ubig {
        self.divrem(m).expect("modulus must be non-zero").1
    }

    /// `self / d` (integer division).
    ///
    /// # Panics
    ///
    /// Panics if `d` is zero.
    pub fn div(&self, d: &Ubig) -> Ubig {
        self.divrem(d).expect("divisor must be non-zero").0
    }

    /// Modular addition: `(self + b) mod m`; inputs must be reduced.
    pub fn addm(&self, b: &Ubig, m: &Ubig) -> Ubig {
        let s = self.add(b);
        if s.cmp_mag(m) != std::cmp::Ordering::Less {
            s.sub(m)
        } else {
            s
        }
    }

    /// Modular subtraction: `(self - b) mod m`; inputs must be reduced.
    pub fn subm(&self, b: &Ubig, m: &Ubig) -> Ubig {
        if self.cmp_mag(b) != std::cmp::Ordering::Less {
            self.sub(b)
        } else {
            self.add(m).sub(b)
        }
    }

    /// Modular multiplication: `(self * b) mod m`.
    pub fn mulm(&self, b: &Ubig, m: &Ubig) -> Ubig {
        crate::counters::record_modmul();
        self.mul(b).rem(m)
    }

    /// Modular squaring.
    pub fn sqm(&self, m: &Ubig) -> Ubig {
        self.mulm(self, m)
    }

    /// Modular exponentiation `self^exp mod m`.
    ///
    /// Uses Montgomery arithmetic with a fixed 4-bit window for odd moduli
    /// and falls back to binary square-and-multiply for even moduli.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn modpow(&self, exp: &Ubig, m: &Ubig) -> Ubig {
        assert!(!m.is_zero(), "modulus must be non-zero");
        crate::counters::record_modexp();
        if m.is_one() {
            return Ubig::zero();
        }
        if m.is_odd() {
            // A one-off context: callers that exponentiate repeatedly
            // under one modulus keep their own `MontCtx`.
            return crate::mont::MontCtx::new(m.clone()).modpow(self, exp);
        }
        // Even modulus: plain square-and-multiply. Rare in this workspace
        // (all crypto moduli are odd) but kept for completeness.
        let mut base = self.rem(m);
        let mut acc = Ubig::one();
        for i in 0..exp.bits() {
            if exp.bit(i) {
                acc = acc.mulm(&base, m);
            }
            base = base.sqm(m);
        }
        acc
    }

    /// Modular inverse `self^{-1} mod m`.
    ///
    /// # Errors
    ///
    /// Returns [`BigintError::NotInvertible`] when `gcd(self, m) != 1` and
    /// [`BigintError::DivisionByZero`] when `m` is zero.
    pub fn modinv(&self, m: &Ubig) -> Result<Ubig, BigintError> {
        crate::gcd::modinv(self, m)
    }
}

impl Ord for Ubig {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.cmp_mag(other)
    }
}

impl PartialOrd for Ubig {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl From<u64> for Ubig {
    fn from(v: u64) -> Self {
        Ubig::from_u64(v)
    }
}

impl From<u32> for Ubig {
    fn from(v: u32) -> Self {
        Ubig::from_u64(v as u64)
    }
}

impl From<u128> for Ubig {
    fn from(v: u128) -> Self {
        Ubig::from_u128(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wipe_clears_limbs() {
        let mut x = Ubig::from_u128(0xdead_beef_dead_beef_dead_beef_dead_beef);
        x.wipe();
        assert!(x.is_zero());
        assert!(x.limbs().is_empty());
        // Wiped values are back to canonical zero and fully usable.
        assert_eq!(x.add_u64(3), Ubig::from_u64(3));
    }

    #[test]
    fn zero_and_one() {
        assert!(Ubig::zero().is_zero());
        assert!(Ubig::one().is_one());
        assert_eq!(Ubig::zero().bits(), 0);
        assert_eq!(Ubig::one().bits(), 1);
        assert!(Ubig::zero().is_even());
        assert!(Ubig::one().is_odd());
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = Ubig::from_u128(0xFFFF_FFFF_FFFF_FFFF_FFFF_FFFF_u128);
        let b = Ubig::from_u64(12345);
        assert_eq!(a.add(&b).sub(&b), a);
        assert_eq!(a.add(&b).sub(&a), b);
    }

    #[test]
    fn add_carries_across_limbs() {
        let a = Ubig::from_u64(u64::MAX);
        let b = Ubig::one();
        let s = a.add(&b);
        assert_eq!(s.limbs(), &[0, 1]);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = Ubig::one().sub(&Ubig::from_u64(2));
    }

    #[test]
    fn shifts() {
        let a = Ubig::from_u64(0b1011);
        assert_eq!(a.shl(3).to_u64(), Some(0b1011000));
        assert_eq!(a.shl(64).limbs(), &[0, 0b1011]);
        assert_eq!(a.shl(64).shr(64), a);
        assert_eq!(a.shr(2).to_u64(), Some(0b10));
        assert_eq!(a.shr(100), Ubig::zero());
        let b = Ubig::from_u128(0x1234_5678_9abc_def0_1122_3344_5566_7788);
        assert_eq!(b.shl(17).shr(17), b);
    }

    #[test]
    fn bit_access() {
        let mut a = Ubig::zero();
        a.set_bit(0);
        a.set_bit(70);
        assert!(a.bit(0));
        assert!(a.bit(70));
        assert!(!a.bit(1));
        assert!(!a.bit(200));
        assert_eq!(a.bits(), 71);
        assert_eq!(a.trailing_zeros(), Some(0));
        assert_eq!(Ubig::from_u64(8).trailing_zeros(), Some(3));
        assert_eq!(Ubig::zero().trailing_zeros(), None);
    }

    #[test]
    fn byte_roundtrip() {
        let a = Ubig::from_u128(0x0102_0304_0506_0708_090a_0b0c_0d0e_0f10);
        let bytes = a.to_bytes_be();
        assert_eq!(bytes[0], 0x01);
        assert_eq!(Ubig::from_bytes_be(&bytes), a);
        assert_eq!(Ubig::from_bytes_be(&[]), Ubig::zero());
        let padded = a.to_bytes_be_padded(20);
        assert_eq!(padded.len(), 20);
        assert_eq!(Ubig::from_bytes_be(&padded), a);
    }

    #[test]
    fn modpow_small_cases() {
        let m = Ubig::from_u64(1000000007);
        assert_eq!(
            Ubig::from_u64(2).modpow(&Ubig::from_u64(10), &m),
            Ubig::from_u64(1024)
        );
        // Fermat: a^(p-1) = 1 mod p.
        assert_eq!(
            Ubig::from_u64(31337).modpow(&Ubig::from_u64(1000000006), &m),
            Ubig::one()
        );
        // Anything mod 1 is 0.
        assert_eq!(
            Ubig::from_u64(5).modpow(&Ubig::from_u64(5), &Ubig::one()),
            Ubig::zero()
        );
        // Exponent zero gives 1.
        assert_eq!(Ubig::from_u64(5).modpow(&Ubig::zero(), &m), Ubig::one());
    }

    #[test]
    fn modpow_even_modulus() {
        let m = Ubig::from_u64(100);
        assert_eq!(
            Ubig::from_u64(7).modpow(&Ubig::from_u64(3), &m),
            Ubig::from_u64(343 % 100)
        );
    }

    #[test]
    fn modular_add_sub() {
        let m = Ubig::from_u64(97);
        let a = Ubig::from_u64(90);
        let b = Ubig::from_u64(20);
        assert_eq!(a.addm(&b, &m), Ubig::from_u64(13));
        assert_eq!(b.subm(&a, &m), Ubig::from_u64(27));
    }
}
