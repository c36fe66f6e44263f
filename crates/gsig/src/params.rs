//! Interval parameters for the ACJT / Kiayias–Yung signature proofs.
//!
//! Both schemes prove knowledge of secrets lying in "spheres":
//! `Λ = (2^{λ1} − 2^{λ2}, 2^{λ1} + 2^{λ2})` for membership secrets and
//! `Γ = (2^{γ1} − 2^{γ2}, 2^{γ1} + 2^{γ2})` for the certificate primes,
//! with the ACJT constraint system
//!
//! ```text
//! λ1 > ε(λ2 + k) + 2,   λ2 > 4ℓp,   γ1 > ε(γ2 + k) + 2,   γ2 > λ1 + 2
//! ```
//!
//! where `ℓp` is the bit-length of the Sophie Germain primes `p', q'`, `k`
//! the challenge length and `ε > 1` the knowledge-error slack (here the
//! rational `9/8`). The `Test` preset relaxes `λ2 > 4ℓp` to `λ2 > 2ℓp`
//! (documented in DESIGN.md §2.3) to keep CI fast; `Small` and `Paper` are
//! strict.

use rand::RngCore;
use shs_bigint::{prime, rng as brng, Ubig};

/// The `ε` slack as a rational: `ceil(bits * 9 / 8)`.
fn eps(bits: u32) -> u32 {
    (bits * 9).div_ceil(8)
}

/// Derived interval parameters for one signature setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GsigParams {
    /// Bit length of the RSA modulus `n`.
    pub modulus_bits: u32,
    /// Bit length of the Sophie Germain primes `p'`, `q'`.
    pub lp: u32,
    /// Challenge length in bits.
    pub k: u32,
    /// Sphere center exponent for membership secrets (`Λ`).
    pub lambda1: u32,
    /// Sphere radius exponent for membership secrets.
    pub lambda2: u32,
    /// Sphere center exponent for certificate primes (`Γ`).
    pub gamma1: u32,
    /// Sphere radius exponent for certificate primes.
    pub gamma2: u32,
}

/// Size presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GsigPreset {
    /// 256-bit modulus, 80-bit challenges, relaxed `λ2` — for tests.
    Test,
    /// 768-bit modulus, 128-bit challenges, strict constraints.
    Small,
    /// 2048-bit modulus, 160-bit challenges, strict constraints — the
    /// sizes the ACJT/KY papers recommend.
    Paper,
}

impl GsigParams {
    /// Builds the parameter set for a preset.
    pub fn preset(preset: GsigPreset) -> GsigParams {
        match preset {
            GsigPreset::Test => GsigParams::derive(256, 80, false),
            GsigPreset::Small => GsigParams::derive(768, 128, true),
            GsigPreset::Paper => GsigParams::derive(2048, 160, true),
        }
    }

    /// Derives a consistent parameter set from the modulus size and
    /// challenge length. `strict` selects the full ACJT constraint
    /// `λ2 > 4ℓp` (vs. the relaxed `λ2 > 2ℓp` for tests).
    pub fn derive(modulus_bits: u32, k: u32, strict: bool) -> GsigParams {
        let lp = modulus_bits / 2 - 1;
        let lambda2 = if strict { 4 * lp + 4 } else { 2 * lp + 16 };
        let lambda1 = eps(lambda2 + k) + 4;
        let gamma2 = lambda1 + 4;
        let gamma1 = eps(gamma2 + k) + 4;
        let p = GsigParams {
            modulus_bits,
            lp,
            k,
            lambda1,
            lambda2,
            gamma1,
            gamma2,
        };
        debug_assert!(p.validate(), "derived parameters must satisfy constraints");
        p
    }

    /// Checks the ACJT constraint system (with the relaxed `λ2` bound).
    pub fn validate(&self) -> bool {
        self.lambda1 > eps(self.lambda2 + self.k) + 2
            && self.lambda2 > 2 * self.lp
            && self.gamma1 > eps(self.gamma2 + self.k) + 2
            && self.gamma2 > self.lambda1 + 2
            && self.k >= 32
    }

    /// Lower bound of the membership-secret sphere `Λ`.
    pub fn lambda_lo(&self) -> Ubig {
        pow2(self.lambda1).sub(&pow2(self.lambda2))
    }

    /// Upper bound (exclusive) of `Λ`.
    pub fn lambda_hi(&self) -> Ubig {
        pow2(self.lambda1).add(&pow2(self.lambda2))
    }

    /// Lower bound of the certificate-prime sphere `Γ`.
    pub fn gamma_lo(&self) -> Ubig {
        pow2(self.gamma1).sub(&pow2(self.gamma2))
    }

    /// Upper bound (exclusive) of `Γ`.
    pub fn gamma_hi(&self) -> Ubig {
        pow2(self.gamma1).add(&pow2(self.gamma2))
    }

    /// Samples a membership secret `x ∈ Λ`.
    pub fn sample_lambda(&self, rng: &mut (impl RngCore + ?Sized)) -> Ubig {
        brng::range(rng, &self.lambda_lo(), &self.lambda_hi())
    }

    /// Samples a certificate prime `e ∈ Γ`.
    pub fn sample_gamma_prime(&self, rng: &mut (impl RngCore + ?Sized)) -> Ubig {
        prime::gen_prime_in_range(&self.gamma_lo(), &self.gamma_hi(), rng)
    }

    /// Is `x ∈ Λ`?
    pub fn in_lambda(&self, x: &Ubig) -> bool {
        *x > self.lambda_lo() && *x < self.lambda_hi()
    }

    /// Is `e ∈ Γ`?
    pub fn in_gamma(&self, e: &Ubig) -> bool {
        *e > self.gamma_lo() && *e < self.gamma_hi()
    }

    /// Bit size of the blinding exponents `r` used in `T1 = A y^r` etc.
    /// (`2ℓp`, matching the order `p'q' ≈ 2^{2ℓp}`).
    pub fn r_bits(&self) -> u32 {
        2 * self.lp
    }

    /// Samples a blinding exponent `r < 2^{r_bits}`.
    pub(crate) fn sample_r(&self, rng: &mut (impl RngCore + ?Sized)) -> Ubig {
        brng::below(rng, &pow2(self.r_bits()))
    }

    /// Bit bound for the product secret `h' = e·r`
    /// (`e < 2^{γ1+1}`, `r < 2^{2ℓp}`).
    pub fn h_bits(&self) -> u32 {
        self.gamma1 + 1 + self.r_bits()
    }

    /// Blind size (bits) for a secret of `secret_bits` effective width.
    pub fn blind_bits(&self, secret_bits: u32) -> u32 {
        eps(secret_bits + self.k)
    }

    /// Width bound for the signers' fixed-base tables: the widest secret
    /// exponent a signer raises a fixed base to is the `h'`-blind. The
    /// products the signers run through `g`'s table (`k1·x`, `r·ρ_e`, …)
    /// are narrower, so no signing exponent reaches `FixedBase::pow`'s
    /// width-dependent fallback.
    pub(crate) fn table_bits(&self) -> u32 {
        self.blind_bits(self.h_bits())
    }
}

/// `2^bits`.
pub(crate) fn pow2(bits: u32) -> Ubig {
    let mut u = Ubig::zero();
    u.set_bit(bits);
    u
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn presets_validate() {
        for preset in [GsigPreset::Test, GsigPreset::Small, GsigPreset::Paper] {
            let p = GsigParams::preset(preset);
            assert!(p.validate(), "{preset:?}");
        }
    }

    #[test]
    fn strict_presets_satisfy_full_acjt_bound() {
        for preset in [GsigPreset::Small, GsigPreset::Paper] {
            let p = GsigParams::preset(preset);
            assert!(p.lambda2 > 4 * p.lp, "{preset:?}");
        }
    }

    #[test]
    fn signer_exponents_fit_the_tables() {
        // Bit bounds of every exponent KY and ACJT `sign` send through a
        // fixed-base table. Each random log (r, w, k1, k2) is below
        // 2^{r_bits}, x and x' below 2^{λ1+1}, e below 2^{γ1+1}, and a
        // blind of b bits has magnitude below 2^b.
        for preset in [GsigPreset::Test, GsigPreset::Small, GsigPreset::Paper] {
            let p = GsigParams::preset(preset);
            let (log, x, e) = (p.r_bits(), p.lambda1 + 1, p.gamma1 + 1);
            let exponents = [
                ("r, w, k1, k2", log),
                ("e", e),
                ("ρ_r, ρ_w", p.blind_bits(p.r_bits())),
                ("ρ_e", p.blind_bits(p.gamma2)),
                ("ρ_x, ρ_x'", p.blind_bits(p.lambda2)),
                ("ρ_h", p.blind_bits(p.h_bits())),
                ("T4 = g^{k1·x}, T6 = g^{k2·x'}", log + x),
                ("T5^{ρ_x}, T7^{ρ_x'}", log + p.blind_bits(p.lambda2)),
                ("T2^{ρ_e}", log + p.blind_bits(p.gamma2)),
            ];
            for (what, bits) in exponents {
                assert!(
                    bits <= p.table_bits(),
                    "{preset:?}: {what} needs {bits} bits, the tables cover {}",
                    p.table_bits()
                );
            }
        }
    }

    #[test]
    fn sphere_ordering() {
        let p = GsigParams::preset(GsigPreset::Test);
        assert!(p.lambda_lo() < p.lambda_hi());
        assert!(p.gamma_lo() < p.gamma_hi());
        // Γ sits strictly above Λ: e > x always.
        assert!(p.gamma_lo() > p.lambda_hi());
    }

    #[test]
    fn sampling_lands_in_spheres() {
        let p = GsigParams::preset(GsigPreset::Test);
        let mut rng = rand::rngs::StdRng::seed_from_u64(40);
        for _ in 0..10 {
            let x = p.sample_lambda(&mut rng);
            assert!(p.in_lambda(&x));
        }
        let e = p.sample_gamma_prime(&mut rng);
        assert!(p.in_gamma(&e));
        assert!(e.is_odd());
    }

    #[test]
    fn membership_checks_reject_outsiders() {
        let p = GsigParams::preset(GsigPreset::Test);
        assert!(!p.in_lambda(&Ubig::one()));
        assert!(!p.in_lambda(&p.lambda_hi()));
        assert!(!p.in_gamma(&p.lambda_lo()));
    }
}
