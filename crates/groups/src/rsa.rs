//! Safe-RSA moduli and the hidden-order group `QR(n)`.
//!
//! The ACJT and Kiayias–Yung group signatures (Appendix H of the paper)
//! live in `QR(n)` for `n = pq` with `p = 2p'+1`, `q = 2q'+1` safe primes:
//! `QR(n)` is then cyclic of order `p'q'`, and computing e-th roots requires
//! knowledge of the factorization — the group manager's trapdoor.

use crate::GroupError;
use rand::RngCore;
use shs_bigint::{crt::CrtCtx, gcd, mont::MontCtx, prime, rng as brng, Int, Ubig};
use shs_crypto::hkdf;
use std::sync::Arc;

/// The public side of a safe-RSA setting: the modulus `n`.
#[derive(Debug, Clone)]
pub struct RsaGroup {
    n: Ubig,
    ctx: Arc<MontCtx>,
}

/// The factorization trapdoor held by the group manager.
#[derive(Clone)]
pub struct RsaSecret {
    /// Safe prime `p = 2p' + 1`.
    pub p: Ubig,
    /// Safe prime `q = 2q' + 1`.
    pub q: Ubig,
    /// Sophie Germain prime `p'`.
    pub p1: Ubig,
    /// Sophie Germain prime `q'`.
    pub q1: Ubig,
    /// CRT context over `(p, q)` for [`RsaSecret::root`], built once with
    /// the trapdoor and shared by its clones.
    crt: Arc<CrtCtx>,
}

impl std::fmt::Debug for RsaSecret {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RsaSecret {{ p: ****, q: **** }}")
    }
}

impl RsaGroup {
    /// Generates a safe-RSA modulus of exactly `modulus_bits` bits.
    ///
    /// # Panics
    ///
    /// Panics if `modulus_bits < 32`.
    pub fn generate(modulus_bits: u32, rng: &mut (impl RngCore + ?Sized)) -> (RsaGroup, RsaSecret) {
        assert!(modulus_bits >= 32, "modulus too small");
        let half = modulus_bits / 2;
        loop {
            let (p, p1) = prime::gen_safe_prime(half, rng);
            let (q, q1) = prime::gen_safe_prime(modulus_bits - half, rng);
            if p == q {
                continue;
            }
            let n = p.mul(&q);
            if n.bits() != modulus_bits {
                continue;
            }
            let crt = CrtCtx::new(&p, &q).expect("distinct primes are coprime");
            let group = RsaGroup {
                ctx: Arc::new(MontCtx::new(n.clone())),
                n,
            };
            let secret = RsaSecret {
                p,
                q,
                p1,
                q1,
                crt: Arc::new(crt),
            };
            return (group, secret);
        }
    }

    /// Deterministic generation from a seed (HMAC-DRBG) — used by tests and
    /// benchmarks so every process sees the same modulus without paying
    /// safe-prime search repeatedly.
    pub fn generate_deterministic(modulus_bits: u32, seed: &[u8]) -> (RsaGroup, RsaSecret) {
        let mut drbg = shs_crypto::drbg::HmacDrbg::from_seed(seed);
        RsaGroup::generate(modulus_bits, &mut drbg)
    }

    /// The modulus.
    pub fn n(&self) -> &Ubig {
        &self.n
    }

    /// `base^e mod n` (counts as one modular exponentiation).
    pub fn exp(&self, base: &Ubig, e: &Ubig) -> Ubig {
        shs_bigint::counters::record_modexp();
        self.ctx.modpow(base, e)
    }

    /// The group's Montgomery context for `n`, built once in
    /// [`RsaGroup::generate`] and shared by its clones — handed to
    /// fixed-base table builders so precomputation lives alongside the
    /// group.
    pub fn ctx(&self) -> &Arc<MontCtx> {
        &self.ctx
    }

    /// Variable-time multi-exponentiation `∏ baseᵢ^{eᵢ} mod n` with signed
    /// exponents, for **public** verification equations. Negative
    /// exponents invert their base first (same contract as
    /// [`RsaGroup::exp_signed`]), all of them with one modular inverse.
    /// Counts one modular exponentiation per term, so cost tables match
    /// the naive product it replaces.
    ///
    /// # Panics
    ///
    /// Panics if a base with a negative exponent is not invertible
    /// (probability `~ 1/p'` — finding such a base factors `n`).
    pub fn multi_exp_vartime(&self, terms: &[(&Ubig, &Int)]) -> Ubig {
        for _ in terms {
            shs_bigint::counters::record_modexp();
        }
        let negative: Vec<&Ubig> = terms
            .iter()
            .filter(|(_, e)| e.is_negative())
            .map(|(b, _)| *b)
            .collect();
        let mut inverses = self.batch_inverse(&negative).into_iter();
        let bases: Vec<Ubig> = terms
            .iter()
            .map(|(b, e)| {
                if e.is_negative() {
                    inverses.next().expect("one inverse per negative exponent")
                } else {
                    (*b).clone()
                }
            })
            .collect();
        let pairs: Vec<(&Ubig, &Ubig)> = bases
            .iter()
            .zip(terms)
            .map(|(b, (_, e))| (b, e.magnitude()))
            .collect();
        self.ctx.multi_exp_vartime(&pairs)
    }

    /// `bᵢ⁻¹ mod n` for every base, with one modular inverse (Montgomery's
    /// trick): invert the product `b₀⋯b_{t−1}`, then peel one base off per
    /// step from the top, `bᵢ⁻¹ = (b₀⋯bᵢ)⁻¹ · (b₀⋯b_{i−1})` and
    /// `(b₀⋯b_{i−1})⁻¹ = (b₀⋯bᵢ)⁻¹ · bᵢ`. Costs one inverse and 3(t − 1)
    /// multiplications instead of t inverses.
    ///
    /// # Panics
    ///
    /// Panics if a base is not invertible: then neither is the product.
    fn batch_inverse(&self, bases: &[&Ubig]) -> Vec<Ubig> {
        // prefix[i] = b₀⋯bᵢ mod n.
        let mut prefix: Vec<Ubig> = Vec::with_capacity(bases.len());
        for b in bases {
            let next = match prefix.last() {
                Some(p) => self.ctx.modmul(p, b),
                None => b.rem(&self.n),
            };
            prefix.push(next);
        }
        let Some(product) = prefix.last() else {
            return Vec::new();
        };
        let mut inv = product
            .modinv(&self.n)
            .expect("non-invertible base would factor n");
        let mut out = vec![Ubig::zero(); bases.len()];
        for i in (1..bases.len()).rev() {
            out[i] = self.ctx.modmul(&inv, &prefix[i - 1]);
            inv = self.ctx.modmul(&inv, bases[i]);
        }
        out[0] = inv;
        out
    }

    /// Exponentiation with a signed exponent: `base^{-|e|}` is
    /// `(base^{-1})^{|e|}`.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not invertible (probability `~ 1/p'` — finding
    /// such a base factors `n`).
    pub fn exp_signed(&self, base: &Ubig, e: &Int) -> Ubig {
        if e.is_negative() {
            let inv = base
                .modinv(&self.n)
                .expect("non-invertible base would factor n");
            self.exp(&inv, e.magnitude())
        } else {
            self.exp(base, e.magnitude())
        }
    }

    /// Group operation `a*b mod n`.
    pub fn mul(&self, a: &Ubig, b: &Ubig) -> Ubig {
        a.mulm(b, &self.n)
    }

    /// Multiplicative inverse mod `n`.
    ///
    /// # Errors
    ///
    /// [`GroupError::NotInvertible`] when `gcd(a, n) != 1`.
    pub fn inv(&self, a: &Ubig) -> Result<Ubig, GroupError> {
        a.modinv(&self.n).map_err(|_| GroupError::NotInvertible)
    }

    /// `a / b mod n`.
    ///
    /// # Errors
    ///
    /// Propagates [`GroupError::NotInvertible`] from the inversion of `b`.
    pub fn div(&self, a: &Ubig, b: &Ubig) -> Result<Ubig, GroupError> {
        Ok(self.mul(a, &self.inv(b)?))
    }

    /// A random element of `QR(n)` (a random square).
    pub fn random_qr(&self, rng: &mut (impl RngCore + ?Sized)) -> Ubig {
        loop {
            let x = brng::range(rng, &Ubig::from_u64(2), &self.n);
            if gcd::gcd(&x, &self.n).is_one() {
                return self.mul(&x, &x);
            }
        }
    }

    /// A random exponent suitable for blinding in `QR(n)`: uniform in
    /// `[0, n/4)`, statistically close to uniform modulo the (unknown)
    /// group order `p'q' ≈ n/4`.
    pub fn random_exponent(&self, rng: &mut (impl RngCore + ?Sized)) -> Ubig {
        brng::below(rng, &self.n.shr(2))
    }

    /// Deterministically hashes bytes into `QR(n)` by hashing to `Z_n` and
    /// squaring — used for the common self-distinction base `T7` (§8.2).
    pub fn hash_to_qr(&self, data: &[u8]) -> Ubig {
        let byte_len = (self.n.bits() as usize).div_ceil(8) + 16;
        let mut counter = 0u32;
        loop {
            let mut info = b"shs-hash-to-qr".to_vec();
            info.extend_from_slice(&counter.to_be_bytes());
            let bytes = hkdf::hkdf(&[], data, &info, byte_len);
            let x = Ubig::from_bytes_be(&bytes).rem(&self.n);
            if !x.is_zero() && gcd::gcd(&x, &self.n).is_one() {
                let sq = self.mul(&x, &x);
                if !sq.is_one() {
                    return sq;
                }
            }
            counter += 1;
        }
    }
}

impl RsaSecret {
    /// The order of `QR(n)`, namely `p'q'`.
    pub fn qr_order(&self) -> Ubig {
        self.p1.mul(&self.q1)
    }

    /// Computes the `e`-th root of `x` in `QR(n)`: `x^{e^{-1} mod p'q'}`.
    ///
    /// This is the group manager trapdoor operation used by `GSIG.Join` to
    /// issue membership certificates `A = (a^x a_0)^{1/e}`.
    ///
    /// # Errors
    ///
    /// [`GroupError::NotInvertible`] when `gcd(e, p'q') != 1`.
    pub fn root(&self, group: &RsaGroup, x: &Ubig, e: &Ubig) -> Result<Ubig, GroupError> {
        let d = e
            .modinv(&self.qr_order())
            .map_err(|_| GroupError::NotInvertible)?;
        // Authority-side: the factorization is in hand, so the full-width
        // exponentiation splits into two half-width ones (CRT). Counts one
        // modexp, exactly like the `group.exp` call it replaces.
        debug_assert_eq!(self.crt.modulus(), group.n());
        Ok(self.crt.modpow(x, &d))
    }

    /// Samples a generator of the cyclic group `QR(n)`.
    ///
    /// A random square generates `QR(n)` unless its order divides `p'` or
    /// `q'`; both are checked exactly using the factorization.
    pub fn qr_generator(&self, group: &RsaGroup, rng: &mut (impl RngCore + ?Sized)) -> Ubig {
        loop {
            let candidate = group.random_qr(rng);
            if candidate.is_one() {
                continue;
            }
            if group.exp(&candidate, &self.p1).is_one() {
                continue;
            }
            if group.exp(&candidate, &self.q1).is_one() {
                continue;
            }
            return candidate;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shs_bigint::jacobi;
    use shs_crypto::drbg::HmacDrbg;
    use std::sync::OnceLock;

    /// Is `x` a quadratic residue mod `n`? (Requires the factorization:
    /// QR mod both primes.)
    fn is_qr(s: &RsaSecret, x: &Ubig) -> bool {
        jacobi::is_qr_mod_prime(x, &s.p) && jacobi::is_qr_mod_prime(x, &s.q)
    }

    /// A shared small RSA setting so tests don't each pay safe-prime
    /// generation.
    pub(crate) fn test_setting() -> &'static (RsaGroup, RsaSecret) {
        static SETTING: OnceLock<(RsaGroup, RsaSecret)> = OnceLock::new();
        SETTING.get_or_init(|| {
            let mut rng = HmacDrbg::from_seed(b"rsa-test-setting");
            RsaGroup::generate(256, &mut rng)
        })
    }

    #[test]
    fn modulus_structure() {
        let (g, s) = test_setting();
        assert_eq!(g.n().bits(), 256);
        assert_eq!(&s.p.mul(&s.q), g.n());
        assert_eq!(s.p, s.p1.shl(1).add_u64(1));
        assert_eq!(s.q, s.q1.shl(1).add_u64(1));
    }

    #[test]
    fn qr_elements_are_squares() {
        let (g, s) = test_setting();
        let mut rng = HmacDrbg::from_seed(b"t1");
        for _ in 0..5 {
            let x = g.random_qr(&mut rng);
            assert!(is_qr(s, &x));
        }
    }

    #[test]
    fn euler_on_qr_group() {
        // x^{p'q'} == 1 for x in QR(n).
        let (g, s) = test_setting();
        let mut rng = HmacDrbg::from_seed(b"t2");
        let x = g.random_qr(&mut rng);
        assert!(g.exp(&x, &s.qr_order()).is_one());
    }

    #[test]
    fn root_inverts_exp() {
        let (g, s) = test_setting();
        let mut rng = HmacDrbg::from_seed(b"t3");
        let x = g.random_qr(&mut rng);
        let e = Ubig::from_u64(65537);
        let r = s.root(g, &x, &e).unwrap();
        assert_eq!(g.exp(&r, &e), x);
        // Root with even e (shares factor 2 with 4p'q'? No: with p'q' it's
        // coprime unless e hits p' or q'). gcd(2, p'q') = 1, so 2 works:
        let r2 = s.root(g, &x, &Ubig::from_u64(2)).unwrap();
        assert_eq!(g.exp(&r2, &Ubig::from_u64(2)), x);
    }

    #[test]
    fn generator_has_full_order() {
        let (g, s) = test_setting();
        let mut rng = HmacDrbg::from_seed(b"t4");
        let gen = s.qr_generator(g, &mut rng);
        assert!(!g.exp(&gen, &s.p1).is_one());
        assert!(!g.exp(&gen, &s.q1).is_one());
        assert!(g.exp(&gen, &s.qr_order()).is_one());
    }

    #[test]
    fn signed_exponentiation() {
        let (g, _s) = test_setting();
        let mut rng = HmacDrbg::from_seed(b"t5");
        let x = g.random_qr(&mut rng);
        let e = Int::from_i64(5);
        let pos = g.exp_signed(&x, &e);
        let neg = g.exp_signed(&x, &e.neg());
        assert!(g.mul(&pos, &neg).is_one());
    }

    #[test]
    fn hash_to_qr_is_deterministic_square() {
        let (g, s) = test_setting();
        let a = g.hash_to_qr(b"transcript-1");
        let b = g.hash_to_qr(b"transcript-1");
        let c = g.hash_to_qr(b"transcript-2");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(is_qr(s, &a));
    }

    #[test]
    fn vartime_kernels_match_ct() {
        let (g, _s) = test_setting();
        let mut rng = HmacDrbg::from_seed(b"t7");
        let x = g.random_qr(&mut rng);
        let y = g.random_qr(&mut rng);
        let e1 = g.random_exponent(&mut rng);
        let e2 = Int::from_i64(-12345);
        let naive = g.mul(
            &g.exp_signed(&x, &Int::from_ubig(e1.clone())),
            &g.exp_signed(&y, &e2),
        );
        assert_eq!(
            g.multi_exp_vartime(&[(&x, &Int::from_ubig(e1)), (&y, &e2)]),
            naive
        );

        // The batched inverse against per-term `exp_signed`: no, one and
        // every exponent negative, zero exponents, and a base repeated with
        // both signs.
        let bases: Vec<Ubig> = (0..4).map(|_| g.random_qr(&mut rng)).collect();
        let e = |v: i64| Int::from_i64(v);
        let cases: [[(&Ubig, Int); 4]; 5] = [
            [
                (&bases[0], e(3)),
                (&bases[1], e(70_001)),
                (&bases[2], e(5)),
                (&bases[3], e(1)),
            ],
            [
                (&bases[0], e(3)),
                (&bases[1], e(-70_001)),
                (&bases[2], e(5)),
                (&bases[3], e(1)),
            ],
            [
                (&bases[0], e(-3)),
                (&bases[1], e(-70_001)),
                (&bases[2], e(-5)),
                (&bases[3], e(-1)),
            ],
            [
                (&bases[0], e(0)),
                (&bases[1], e(-9)),
                (&bases[2], e(0)),
                (&bases[3], e(-2)),
            ],
            [
                (&bases[0], e(-7)),
                (&bases[0], e(11)),
                (&bases[0], e(-13)),
                (&bases[1], e(-7)),
            ],
        ];
        for (i, case) in cases.iter().enumerate() {
            let per_term = case
                .iter()
                .fold(Ubig::one(), |acc, (b, e)| g.mul(&acc, &g.exp_signed(b, e)));
            let terms: Vec<(&Ubig, &Int)> = case.iter().map(|(b, e)| (*b, e)).collect();
            assert_eq!(g.multi_exp_vartime(&terms), per_term, "case {i}");
        }
        assert!(g.multi_exp_vartime(&[]).is_one());
    }

    #[test]
    #[should_panic(expected = "non-invertible base would factor n")]
    fn vartime_multi_exp_rejects_a_non_invertible_base() {
        let (g, s) = test_setting();
        let x = g.random_qr(&mut HmacDrbg::from_seed(b"t9"));
        let _ = g.multi_exp_vartime(&[(&x, &Int::from_i64(-3)), (&s.p, &Int::from_i64(-1))]);
    }

    #[test]
    fn crt_root_matches_plain_exp() {
        let (g, s) = test_setting();
        let mut rng = HmacDrbg::from_seed(b"t8");
        let x = g.random_qr(&mut rng);
        let e = Ubig::from_u64(65537);
        let d = e.modinv(&s.qr_order()).unwrap();
        assert_eq!(s.root(g, &x, &e).unwrap(), g.exp(&x, &d));
    }

    #[test]
    fn inversion() {
        let (g, _s) = test_setting();
        let mut rng = HmacDrbg::from_seed(b"t6");
        let x = g.random_qr(&mut rng);
        let xi = g.inv(&x).unwrap();
        assert!(g.mul(&x, &xi).is_one());
    }
}
