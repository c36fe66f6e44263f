//! Signed arbitrary-precision integers.
//!
//! [`Int`] is a thin sign-magnitude wrapper around [`Ubig`]. It exists for
//! two purposes: the extended Euclidean algorithm, and Fiat–Shamir proof
//! responses of the form `s = ρ − c·x`, which are integers over `Z` (not
//! residues) and may be negative. Group exponentiation by an `Int` exponent
//! is provided by `shs-groups`.

use crate::Ubig;
use std::cmp::Ordering;
use std::fmt;

/// Sign of an [`Int`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sign {
    /// Negative (magnitude is non-zero).
    Minus,
    /// Zero or positive.
    Plus,
}

/// A signed arbitrary-precision integer in sign-magnitude form.
///
/// Invariant: zero always has sign [`Sign::Plus`].
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Int {
    sign: Sign,
    mag: Ubig,
}

impl Int {
    /// Zero.
    pub fn zero() -> Int {
        Int {
            sign: Sign::Plus,
            mag: Ubig::zero(),
        }
    }

    /// One.
    pub fn one() -> Int {
        Int {
            sign: Sign::Plus,
            mag: Ubig::one(),
        }
    }

    /// A non-negative integer from a [`Ubig`].
    pub fn from_ubig(mag: Ubig) -> Int {
        Int {
            sign: Sign::Plus,
            mag,
        }
    }

    /// Builds from a sign and a magnitude, normalizing `-0` to `+0`.
    pub fn new(sign: Sign, mag: Ubig) -> Int {
        if mag.is_zero() {
            Int::zero()
        } else {
            Int { sign, mag }
        }
    }

    /// From a machine integer.
    pub fn from_i64(v: i64) -> Int {
        if v < 0 {
            Int::new(Sign::Minus, Ubig::from_u64(v.unsigned_abs()))
        } else {
            Int::from_ubig(Ubig::from_u64(v as u64))
        }
    }

    /// The sign.
    pub fn sign(&self) -> Sign {
        self.sign
    }

    /// The magnitude.
    pub fn magnitude(&self) -> &Ubig {
        &self.mag
    }

    /// Consumes the integer and returns its magnitude.
    pub fn into_magnitude(self) -> Ubig {
        self.mag
    }

    /// Is this zero?
    pub fn is_zero(&self) -> bool {
        self.mag.is_zero()
    }

    /// Is this strictly negative?
    pub fn is_negative(&self) -> bool {
        self.sign == Sign::Minus
    }

    /// Number of significant bits of the magnitude.
    pub fn bits(&self) -> u32 {
        self.mag.bits()
    }

    /// Negation.
    pub fn neg(&self) -> Int {
        Int::new(
            match self.sign {
                Sign::Plus => Sign::Minus,
                Sign::Minus => Sign::Plus,
            },
            self.mag.clone(),
        )
    }

    /// Addition.
    pub fn add(&self, other: &Int) -> Int {
        if self.sign == other.sign {
            return Int::new(self.sign, self.mag.add(&other.mag));
        }
        match self.mag.cmp(&other.mag) {
            Ordering::Equal => Int::zero(),
            Ordering::Greater => Int::new(self.sign, self.mag.sub(&other.mag)),
            Ordering::Less => Int::new(other.sign, other.mag.sub(&self.mag)),
        }
    }

    /// Subtraction.
    pub fn sub(&self, other: &Int) -> Int {
        self.add(&other.neg())
    }

    /// Multiplication.
    pub fn mul(&self, other: &Int) -> Int {
        let sign = if self.sign == other.sign {
            Sign::Plus
        } else {
            Sign::Minus
        };
        Int::new(sign, self.mag.mul(&other.mag))
    }

    /// Reduces into the canonical residue range `[0, m)`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn mod_ubig(&self, m: &Ubig) -> Ubig {
        let r = self.mag.rem(m);
        match self.sign {
            Sign::Plus => r,
            Sign::Minus => {
                if r.is_zero() {
                    r
                } else {
                    m.sub(&r)
                }
            }
        }
    }

    /// Truncated division with remainder (`self = q*d + r`, `|r| < |d|`,
    /// `r` has the sign of `self`).
    ///
    /// # Panics
    ///
    /// Panics if `d` is zero.
    pub fn divrem(&self, d: &Int) -> (Int, Int) {
        let (q, r) = self.mag.divrem(&d.mag).expect("divisor must be non-zero");
        let qs = if self.sign == d.sign {
            Sign::Plus
        } else {
            Sign::Minus
        };
        (Int::new(qs, q), Int::new(self.sign, r))
    }

    /// Comparison against another `Int`.
    pub fn cmp_int(&self, other: &Int) -> Ordering {
        match (self.sign, other.sign) {
            (Sign::Plus, Sign::Minus) => {
                if self.is_zero() && other.is_zero() {
                    Ordering::Equal
                } else {
                    Ordering::Greater
                }
            }
            (Sign::Minus, Sign::Plus) => Ordering::Less,
            (Sign::Plus, Sign::Plus) => self.mag.cmp(&other.mag),
            (Sign::Minus, Sign::Minus) => other.mag.cmp(&self.mag),
        }
    }
}

impl Ord for Int {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_int(other)
    }
}

impl PartialOrd for Int {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for Int {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.sign == Sign::Minus {
            write!(f, "-")?;
        }
        write!(f, "{}", self.mag)
    }
}

impl fmt::Debug for Int {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.sign == Sign::Minus {
            write!(f, "Int(-{:?})", self.mag)
        } else {
            write!(f, "Int({:?})", self.mag)
        }
    }
}

impl From<Ubig> for Int {
    fn from(v: Ubig) -> Int {
        Int::from_ubig(v)
    }
}

impl From<i64> for Int {
    fn from(v: i64) -> Int {
        Int::from_i64(v)
    }
}

impl Default for Int {
    fn default() -> Self {
        Int::zero()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signed_addition() {
        let a = Int::from_i64(10);
        let b = Int::from_i64(-4);
        assert_eq!(a.add(&b), Int::from_i64(6));
        assert_eq!(b.add(&a), Int::from_i64(6));
        assert_eq!(a.add(&a.neg()), Int::zero());
        assert_eq!(
            Int::from_i64(-10).add(&Int::from_i64(-5)),
            Int::from_i64(-15)
        );
    }

    #[test]
    fn signed_multiplication() {
        assert_eq!(Int::from_i64(-3).mul(&Int::from_i64(7)), Int::from_i64(-21));
        assert_eq!(Int::from_i64(-3).mul(&Int::from_i64(-7)), Int::from_i64(21));
        assert_eq!(Int::from_i64(-3).mul(&Int::zero()), Int::zero());
        assert!(!Int::from_i64(-3).mul(&Int::zero()).is_negative());
    }

    #[test]
    fn mod_reduces_to_range() {
        let m = Ubig::from_u64(7);
        assert_eq!(Int::from_i64(-1).mod_ubig(&m), Ubig::from_u64(6));
        assert_eq!(Int::from_i64(-15).mod_ubig(&m), Ubig::from_u64(6));
        assert_eq!(Int::from_i64(14).mod_ubig(&m), Ubig::zero());
        assert_eq!(Int::from_i64(-14).mod_ubig(&m), Ubig::zero());
    }

    #[test]
    fn ordering() {
        assert!(Int::from_i64(-5) < Int::from_i64(-4));
        assert!(Int::from_i64(-1) < Int::zero());
        assert!(Int::from_i64(1) > Int::from_i64(-100));
    }

    #[test]
    fn divrem_signs() {
        let (q, r) = Int::from_i64(-7).divrem(&Int::from_i64(2));
        assert_eq!(q, Int::from_i64(-3));
        assert_eq!(r, Int::from_i64(-1));
        let (q, r) = Int::from_i64(7).divrem(&Int::from_i64(-2));
        assert_eq!(q, Int::from_i64(-3));
        assert_eq!(r, Int::from_i64(1));
    }

    #[test]
    fn display() {
        assert_eq!(Int::from_i64(-42).to_string(), "-42");
        assert_eq!(Int::zero().to_string(), "0");
    }
}
