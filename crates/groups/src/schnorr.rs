//! Schnorr groups: the prime-order-`q` subgroup of `Z_p^*` with `q | p-1`.
//!
//! These are the groups in which the Burmester–Desmedt and GDH.2 key
//! agreement protocols run, and the setting of the Cramer–Shoup tracing
//! encryption. The paper's DGKA building block assumes "system-wide (not
//! group-specific) cryptographic parameters" (§7, `GCD.CreateGroup`); the
//! deterministic [`SchnorrGroup::system_wide`] presets play exactly that
//! role.

use crate::GroupError;
use rand::RngCore;
use serde::{Deserialize, Serialize};
use shs_bigint::{mont::MontCtx, prime, rng as brng, FixedBase, Int, Sign, Ubig};
use shs_crypto::{drbg::HmacDrbg, hkdf};
use std::sync::{Arc, OnceLock};

/// Serializable Schnorr group parameters `(p, q, g)`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchnorrParams {
    /// The field prime `p`.
    pub p: Ubig,
    /// The subgroup order `q` (prime, `q | p-1`).
    pub q: Ubig,
    /// A generator of the order-`q` subgroup.
    pub g: Ubig,
}

/// A validated Schnorr group with a cached Montgomery context.
#[derive(Debug, Clone)]
pub struct SchnorrGroup {
    params: SchnorrParams,
    ctx: Arc<MontCtx>,
    /// `(p-1)/q`, the cofactor.
    cofactor: Ubig,
}

/// Size presets for the system-wide DGKA parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SchnorrPreset {
    /// 512-bit `p`, 160-bit `q` — fast, for tests and CI.
    Test,
    /// 1024-bit `p`, 160-bit `q` — the sizes contemporary with the paper.
    Small,
    /// 2048-bit `p`, 256-bit `q` — modern sizes.
    Paper,
}

impl SchnorrPreset {
    /// `(p_bits, q_bits)` for the preset.
    pub fn sizes(self) -> (u32, u32) {
        match self {
            SchnorrPreset::Test => (512, 160),
            SchnorrPreset::Small => (1024, 160),
            SchnorrPreset::Paper => (2048, 256),
        }
    }
}

impl SchnorrGroup {
    /// Generates a fresh random group with `p_bits`-bit `p` and `q_bits`-bit
    /// `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q_bits + 2 > p_bits` or sizes are degenerate (< 16 bits).
    pub fn generate(p_bits: u32, q_bits: u32, rng: &mut (impl RngCore + ?Sized)) -> SchnorrGroup {
        assert!(
            p_bits >= q_bits + 2 && q_bits >= 16,
            "degenerate Schnorr sizes"
        );
        let q = prime::gen_prime(q_bits, rng);
        loop {
            // p = q*r + 1 with r even and sized so p has exactly p_bits bits.
            let mut r = brng::random_bits(rng, p_bits - q_bits);
            if r.is_odd() {
                r = r.add_u64(1);
            }
            let p = q.mul(&r).add_u64(1);
            if p.bits() != p_bits {
                continue;
            }
            if !prime::is_prime(&p, rng) {
                continue;
            }
            // Find a generator of the order-q subgroup: h^((p-1)/q) != 1.
            let cofactor = r;
            loop {
                let h = brng::range(rng, &Ubig::from_u64(2), &p.sub_u64(1));
                let g = h.modpow(&cofactor, &p);
                if !g.is_one() {
                    let params = SchnorrParams {
                        p: p.clone(),
                        q: q.clone(),
                        g,
                    };
                    return SchnorrGroup::from_params(params)
                        .expect("freshly generated params are valid");
                }
            }
        }
    }

    /// The deterministic *system-wide* parameters for a preset
    /// (§7: all groups share the same global DGKA parameters).
    ///
    /// Parameters are derived from a fixed nothing-up-my-sleeve seed via
    /// HMAC-DRBG, generated once per process and cached.
    pub fn system_wide(preset: SchnorrPreset) -> &'static SchnorrGroup {
        static TEST: OnceLock<SchnorrGroup> = OnceLock::new();
        static SMALL: OnceLock<SchnorrGroup> = OnceLock::new();
        static PAPER: OnceLock<SchnorrGroup> = OnceLock::new();
        let (cell, label) = match preset {
            SchnorrPreset::Test => (&TEST, "shs-system-wide-test"),
            SchnorrPreset::Small => (&SMALL, "shs-system-wide-small"),
            SchnorrPreset::Paper => (&PAPER, "shs-system-wide-paper"),
        };
        cell.get_or_init(|| {
            let (p_bits, q_bits) = preset.sizes();
            let mut drbg = HmacDrbg::from_seed(label.as_bytes());
            SchnorrGroup::generate(p_bits, q_bits, &mut drbg)
        })
    }

    /// Validates parameters and builds a group.
    ///
    /// # Errors
    ///
    /// [`GroupError::BadParameters`] when `q ∤ p-1`, `p` or `q` is
    /// composite, or `g` does not have order exactly `q`.
    pub fn from_params(params: SchnorrParams) -> Result<SchnorrGroup, GroupError> {
        let SchnorrParams { p, q, g } = &params;
        let mut rng = HmacDrbg::from_seed(b"schnorr-validate");
        if p.is_even() || !prime::is_prime(p, &mut rng) || !prime::is_prime(q, &mut rng) {
            return Err(GroupError::BadParameters);
        }
        let p_minus_1 = p.sub_u64(1);
        let (cofactor, rem) = p_minus_1.divrem(q).map_err(|_| GroupError::BadParameters)?;
        if !rem.is_zero() {
            return Err(GroupError::BadParameters);
        }
        if g.is_zero() || g.is_one() || g >= p {
            return Err(GroupError::BadParameters);
        }
        let ctx = MontCtx::new(p.clone());
        if !ctx.modpow(g, q).is_one() {
            return Err(GroupError::BadParameters);
        }
        Ok(SchnorrGroup {
            params,
            ctx: Arc::new(ctx),
            cofactor,
        })
    }

    /// The parameters (for serialization / transmission).
    pub fn params(&self) -> &SchnorrParams {
        &self.params
    }

    /// The field prime `p`.
    pub fn p(&self) -> &Ubig {
        &self.params.p
    }

    /// The subgroup order `q`.
    pub fn q(&self) -> &Ubig {
        &self.params.q
    }

    /// The generator `g`.
    pub fn g(&self) -> &Ubig {
        &self.params.g
    }

    /// `g^e mod p`, through `g`'s fixed-base table
    /// ([`SchnorrGroup::exp_fixed`]).
    pub fn exp_g(&self, e: &Ubig) -> Ubig {
        self.exp_fixed(&self.params.g, e)
    }

    /// `base^e mod p` for a **public** base fixed before the call — the
    /// generator or a public-key component, never a value received in the
    /// session — through the process-wide [`FixedBase::shared`] table
    /// covering exponents below `q`. The same value as
    /// [`SchnorrGroup::exp`], with the exponent reduced mod `q` first, and
    /// constant-trace like it, but with no squarings. Counts as one
    /// modular exponentiation.
    pub fn exp_fixed(&self, base: &Ubig, e: &Ubig) -> Ubig {
        shs_bigint::counters::record_modexp();
        FixedBase::shared(&self.ctx, base, self.params.q.bits()).pow(&e.rem(&self.params.q))
    }

    /// `base^e mod p` (counts as one modular exponentiation).
    pub fn exp(&self, base: &Ubig, e: &Ubig) -> Ubig {
        shs_bigint::counters::record_modexp();
        self.ctx.modpow(base, &e.rem(&self.params.q))
    }

    /// Exponentiation by a possibly negative integer exponent.
    pub fn exp_signed(&self, base: &Ubig, e: &Int) -> Ubig {
        let reduced = e.mod_ubig(&self.params.q);
        self.exp(base, &reduced)
    }

    /// Group operation: `a*b mod p`.
    pub fn mul(&self, a: &Ubig, b: &Ubig) -> Ubig {
        a.mulm(b, &self.params.p)
    }

    /// Multiplicative inverse in `Z_p^*`.
    ///
    /// # Errors
    ///
    /// [`GroupError::NotInvertible`] for zero (cannot occur for subgroup
    /// members).
    pub fn inv(&self, a: &Ubig) -> Result<Ubig, GroupError> {
        a.modinv(&self.params.p)
            .map_err(|_| GroupError::NotInvertible)
    }

    /// `a / b mod p`.
    ///
    /// # Errors
    ///
    /// Propagates [`GroupError::NotInvertible`] from the inversion of `b`.
    pub fn div(&self, a: &Ubig, b: &Ubig) -> Result<Ubig, GroupError> {
        Ok(self.mul(a, &self.inv(b)?))
    }

    /// Is `x` a member of the order-`q` subgroup?
    pub fn is_member(&self, x: &Ubig) -> bool {
        !x.is_zero() && x < &self.params.p && self.ctx.modpow(x, &self.params.q).is_one()
    }

    /// A uniformly random exponent in `[1, q)`.
    pub fn random_exponent(&self, rng: &mut (impl RngCore + ?Sized)) -> Ubig {
        brng::range(rng, &Ubig::one(), &self.params.q)
    }

    /// A uniformly random subgroup member (with its discrete log discarded).
    pub fn random_element(&self, rng: &mut (impl RngCore + ?Sized)) -> Ubig {
        let e = self.random_exponent(rng);
        self.exp_g(&e)
    }

    /// Hashes arbitrary bytes onto the order-`q` subgroup
    /// (`H(x)^{(p-1)/q}`, rejecting the identity).
    pub fn hash_to_group(&self, data: &[u8]) -> Ubig {
        let byte_len = (self.params.p.bits() as usize).div_ceil(8) + 16;
        let mut counter = 0u32;
        loop {
            let mut info = b"shs-hash-to-schnorr".to_vec();
            info.extend_from_slice(&counter.to_be_bytes());
            let bytes = hkdf::hkdf(&[], data, &info, byte_len);
            let x = Ubig::from_bytes_be(&bytes).rem(&self.params.p);
            if !x.is_zero() {
                let y = self.ctx.modpow(&x, &self.cofactor);
                if !y.is_one() {
                    return y;
                }
            }
            counter += 1;
        }
    }

    /// Derives a symmetric key from a group element (session-key
    /// extraction for DGKA).
    pub fn element_to_key(&self, elem: &Ubig, label: &str) -> shs_crypto::Key {
        let bytes = elem.to_bytes_be_padded((self.params.p.bits() as usize).div_ceil(8));
        let mut ikm = label.as_bytes().to_vec();
        ikm.extend_from_slice(&bytes);
        shs_crypto::Key::derive(&ikm, "schnorr-element-to-key")
    }
}

/// Computes a signed "exponent sphere" check used by Fiat–Shamir range
/// arguments: is `|v| < 2^bits`?
pub fn in_sphere(v: &Int, bits: u32) -> bool {
    v.magnitude().bits() <= bits
}

/// Builds the signed integer `2^bits` (helper for sphere centers).
pub fn pow2(bits: u32) -> Int {
    let mut u = Ubig::zero();
    u.set_bit(bits);
    Int::new(Sign::Plus, u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn group() -> &'static SchnorrGroup {
        SchnorrGroup::system_wide(SchnorrPreset::Test)
    }

    #[test]
    fn generated_group_is_valid() {
        let g = group();
        assert_eq!(g.p().bits(), 512);
        assert_eq!(g.q().bits(), 160);
        assert!(g.is_member(g.g()));
        // Generator has order exactly q (q prime, g != 1).
        assert!(!g.g().is_one());
    }

    #[test]
    fn system_wide_is_deterministic() {
        let a = SchnorrGroup::system_wide(SchnorrPreset::Test);
        let b = SchnorrGroup::system_wide(SchnorrPreset::Test);
        assert_eq!(a.params(), b.params());
    }

    #[test]
    fn exp_laws() {
        let g = group();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let a = g.random_exponent(&mut rng);
        let b = g.random_exponent(&mut rng);
        // g^a * g^b == g^(a+b)
        let lhs = g.mul(&g.exp_g(&a), &g.exp_g(&b));
        let rhs = g.exp_g(&a.add(&b));
        assert_eq!(lhs, rhs);
        // (g^a)^b == (g^b)^a
        assert_eq!(g.exp(&g.exp_g(&a), &b), g.exp(&g.exp_g(&b), &a));
    }

    #[test]
    fn signed_exponents() {
        let g = group();
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let a = g.random_exponent(&mut rng);
        let pos = Int::from_ubig(a.clone());
        let neg = pos.neg();
        // g^a * g^(-a) == 1
        let prod = g.mul(&g.exp_signed(g.g(), &pos), &g.exp_signed(g.g(), &neg));
        assert!(prod.is_one());
    }

    #[test]
    fn membership() {
        let g = group();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let x = g.random_element(&mut rng);
        assert!(g.is_member(&x));
        assert!(!g.is_member(&Ubig::zero()));
        assert!(!g.is_member(g.p()));
        // A random non-subgroup element of Z_p^* is (w.h.p.) rejected.
        let outsider = Ubig::from_u64(2);
        if !g.is_member(&outsider) {
            // expected for our parameters
        }
    }

    #[test]
    fn inverse_and_div() {
        let g = group();
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let x = g.random_element(&mut rng);
        let xi = g.inv(&x).unwrap();
        assert!(g.mul(&x, &xi).is_one());
        let y = g.random_element(&mut rng);
        assert_eq!(g.mul(&g.div(&y, &x).unwrap(), &x), y);
    }

    #[test]
    fn hash_to_group_lands_in_subgroup() {
        let g = group();
        for data in [b"a".as_slice(), b"b", b"hello world", &[0u8; 100]] {
            let h = g.hash_to_group(data);
            assert!(g.is_member(&h), "hash output must be a subgroup member");
            assert!(!h.is_one());
        }
        // Deterministic.
        assert_eq!(g.hash_to_group(b"x"), g.hash_to_group(b"x"));
        assert_ne!(g.hash_to_group(b"x"), g.hash_to_group(b"y"));
    }

    #[test]
    fn element_to_key_deterministic() {
        let g = group();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let x = g.random_element(&mut rng);
        assert_eq!(g.element_to_key(&x, "l"), g.element_to_key(&x, "l"));
        assert_ne!(g.element_to_key(&x, "l"), g.element_to_key(&x, "m"));
    }

    #[test]
    fn bad_parameters_rejected() {
        let good = group().params().clone();
        // Composite p.
        let bad = SchnorrParams {
            p: good.p.add_u64(1),
            ..good.clone()
        };
        assert!(SchnorrGroup::from_params(bad).is_err());
        // Generator outside the subgroup (order 2 element p-1).
        let bad_g = SchnorrParams {
            g: good.p.sub_u64(1),
            ..good.clone()
        };
        assert!(SchnorrGroup::from_params(bad_g).is_err());
        // g = 1.
        let bad_one = SchnorrParams {
            g: Ubig::one(),
            ..good
        };
        assert!(SchnorrGroup::from_params(bad_one).is_err());
    }

    #[test]
    fn sphere_check() {
        assert!(in_sphere(&Int::from_i64(-100), 7));
        assert!(!in_sphere(&Int::from_i64(-300), 8));
        assert!(in_sphere(&Int::from_i64(255), 8));
        assert!(in_sphere(&Int::zero(), 1));
    }
}
