//! CRT-accelerated exponentiation for callers that know the factorization
//! `n = p·q` (the authority side of the RSA-based group signatures).
//!
//! Splitting `x^e mod pq` into `x^{e mod p−1} mod p` and `x^{e mod q−1}
//! mod q` plus a Garner recombination replaces one full-width
//! exponentiation with two half-width, quarter-length ones — the classic
//! ~4× RSA private-key speedup.

use crate::mont::MontCtx;
use crate::{BigintError, Ubig};

/// A reusable CRT exponentiation context for a known factorization
/// `n = p·q` with `p`, `q` **odd primes**.
///
/// Holds Montgomery contexts for both halves plus the Garner constant
/// `q^{-1} mod p`, so each [`CrtCtx::modpow`] costs only the two
/// half-width exponentiations.
///
/// The exponent reduction `e mod (p−1)` relies on Fermat's little
/// theorem, so the result is only correct when `p` and `q` really are
/// prime — which the authority generating them guarantees.
///
/// The factorization is a trapdoor, so the context owns both halves'
/// Montgomery contexts, and `Debug` prints no field.
pub struct CrtCtx {
    p_ctx: MontCtx,
    q_ctx: MontCtx,
    /// `p − 1` and `q − 1` (Fermat exponent moduli).
    p1: Ubig,
    q1: Ubig,
    /// `q^{-1} mod p` (Garner recombination constant).
    qinv_p: Ubig,
    /// `n = p·q`.
    n: Ubig,
}

impl CrtCtx {
    /// Builds a context for the factorization `n = p·q`.
    ///
    /// # Errors
    ///
    /// Returns [`BigintError::NotCoprime`] when `gcd(p, q) != 1` (the
    /// Garner constant does not exist).
    ///
    /// # Panics
    ///
    /// Panics if `p` or `q` is even or < 3 (Montgomery preconditions).
    pub fn new(p: &Ubig, q: &Ubig) -> Result<CrtCtx, BigintError> {
        let qinv_p = crate::gcd::modinv(&q.rem(p), p).map_err(|_| BigintError::NotCoprime)?;
        Ok(CrtCtx {
            p_ctx: MontCtx::new(p.clone()),
            q_ctx: MontCtx::new(q.clone()),
            p1: p.sub_u64(1),
            q1: q.sub_u64(1),
            qinv_p,
            n: p.mul(q),
        })
    }

    /// The recombined modulus `n = p·q`.
    pub fn modulus(&self) -> &Ubig {
        &self.n
    }

    /// `base^exp mod p·q` via two half-width exponentiations and a Garner
    /// recombination.
    ///
    /// Exponents are reduced mod `p−1` / `q−1` (Fermat), so the per-half
    /// cost scales with the *reduced* exponent width. Correct for any
    /// `base` (multiples of `p` or `q` are handled explicitly).
    pub fn modpow(&self, base: &Ubig, exp: &Ubig) -> Ubig {
        crate::counters::record_modexp();
        if exp.is_zero() {
            return Ubig::one().rem(&self.n);
        }
        let rp = self.half_pow(&self.p_ctx, &self.p1, base, exp);
        let rq = self.half_pow(&self.q_ctx, &self.q1, base, exp);
        // Garner: x = rq + q·((rp − rq)·q⁻¹ mod p)  —  x ≡ rp (p), rq (q).
        let p = self.p_ctx.modulus();
        let q = self.q_ctx.modulus();
        let t = rp.subm(&rq.rem(p), p).mulm(&self.qinv_p, p);
        rq.add(&q.mul(&t))
    }

    /// `base^exp mod h` for one half `h`, with the exponent reduced mod
    /// `h − 1` (valid because `h` is prime).
    fn half_pow(&self, ctx: &MontCtx, h1: &Ubig, base: &Ubig, exp: &Ubig) -> Ubig {
        let b = base.rem(ctx.modulus());
        if b.is_zero() {
            // base ≡ 0 (mod h): the power is 0 for every exp > 0, a case
            // Fermat reduction would get wrong when exp ≡ 0 (mod h−1).
            return Ubig::zero();
        }
        let e = exp.rem(h1);
        if e.is_zero() {
            // exp > 0 and exp ≡ 0 (mod h−1): b^{h−1} ≡ 1 by Fermat.
            return Ubig::one();
        }
        ctx.modpow(&b, &e)
    }
}

impl std::fmt::Debug for CrtCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CrtCtx {{ p: ****, q: **** }}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_plain_modpow() {
        let p = Ubig::from_u64(0xffff_fffb); // 2^32 − 5, prime
        let q = Ubig::from_u64(0xffff_ffef); // 2^32 − 17, prime
        let n = p.mul(&q);
        let ctx = CrtCtx::new(&p, &q).unwrap();
        for (b, e) in [
            (Ubig::from_u64(2), Ubig::from_u64(10)),
            (
                Ubig::from_u64(31337),
                Ubig::from_hex("123456789abcdef0").unwrap(),
            ),
            (n.add_u64(5), Ubig::from_u64(3)), // base > n
            (Ubig::zero(), Ubig::from_u64(7)),
            (Ubig::from_u64(7), Ubig::zero()),
            (p.clone(), Ubig::from_u64(9)), // base ≡ 0 mod p
        ] {
            assert_eq!(ctx.modpow(&b, &e), b.modpow(&e, &n), "b={b:?} e={e:?}");
        }
    }

    #[test]
    fn exponent_multiple_of_order() {
        let p = Ubig::from_u64(101);
        let q = Ubig::from_u64(103);
        let n = p.mul(&q);
        let ctx = CrtCtx::new(&p, &q).unwrap();
        // exp ≡ 0 mod p−1 (and mod q−1): Fermat edge case.
        let e = Ubig::from_u64(100 * 102);
        let b = Ubig::from_u64(7);
        assert_eq!(ctx.modpow(&b, &e), b.modpow(&e, &n));
    }

    #[test]
    fn non_coprime_halves_rejected() {
        let p = Ubig::from_u64(15);
        let q = Ubig::from_u64(25);
        assert!(matches!(CrtCtx::new(&p, &q), Err(BigintError::NotCoprime)));
    }
}
