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

    /// Every exponent the sign, join and opening provers of `scheme` raise
    /// a public-key base to, by the base's label, with its bit bound:
    /// setup builds each listed base's table as wide as its widest entry
    /// (and the start of each signed width), and a base the list does not
    /// name gets none (`a0`). The logs the signers know (ACJT's `w`, KY's
    /// `r, k1, k2`) lie below `2^{r_bits}`, so `T2 = g^r` raised to a
    /// blind `ρ` is `g^{r·ρ}`, a signed exponent `r_bits` wider than `ρ`.
    pub(crate) fn prover_exponents(&self, scheme: Scheme) -> Vec<(&'static str, Exponent)> {
        use Exponent::{Signed, Unsigned};
        let (log, x, e) = (self.r_bits(), self.lambda1 + 1, self.gamma1 + 1);
        let [rho_x, rho_e, rho_r, rho_h] =
            [self.lambda2, self.gamma2, log, self.h_bits()].map(|b| self.blind_bits(b));
        let join = match scheme {
            Scheme::Acjt => "a",
            Scheme::Ky => "b",
        };
        let mut list = vec![
            // Both signatures: T1 = A·y^r, T2 = g^r, T3 = g^e·h^r ...
            ("y", Unsigned(log)),
            ("g", Unsigned(log)),
            ("g", Unsigned(e)),
            ("h", Unsigned(log)),
            // ... and the proof's blinds: g^{ρ_r}, g^{ρ_e}·h^{ρ_r},
            // T2^{ρ_e}·g^{−ρ_h}, a^{ρ_x}·y^{ρ_h}.
            ("g", Signed(rho_r)),
            ("g", Signed(rho_e)),
            ("h", Signed(rho_r)),
            ("g", Signed(log + rho_e)),
            ("g", Signed(rho_h)),
            ("a", Signed(rho_x)),
            ("y", Signed(rho_h)),
            // The join commitment base^x, x ∈ Λ, and its proof's blind
            // (ACJT's `finish_join` raises a^x too).
            (join, Unsigned(x)),
            (join, Signed(rho_x)),
        ];
        if scheme == Scheme::Ky {
            list.extend([
                // T4 = g^{k1·x}, T6 = g^{k2·x'} (T5 = g^{k1}, T7 = g^{k2}
                // are `log` wide), and T5^{ρ_x}, T7^{ρ_x'} through g.
                ("g", Unsigned(log + x)),
                ("g", Signed(log + rho_x)),
                ("b", Signed(rho_x)),
                // The opening proof's g^ρ (its witness θ is declared
                // r_bits + 2 bits wide).
                ("g", Signed(self.blind_bits(log + 2))),
            ]);
        }
        list
    }
}

/// The two group-signature schemes, for the lists that differ between them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Scheme {
    /// ACJT2000 ([`crate::acjt`]).
    Acjt,
    /// Kiayias–Yung ([`crate::ky`]).
    Ky,
}

/// An exponent a prover raises a key base to, by its bit bound `b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Exponent {
    /// A non-negative secret below `2^b`: a tag's log, a join secret.
    Unsigned(u32),
    /// A signed exponent of magnitude below `2^b`: a blind, or a known log
    /// times one. The table runs it shifted by the public `2^b`, one bit
    /// wider.
    Signed(u32),
}

impl Exponent {
    /// The table width the exponent needs, its offset bit included.
    pub(crate) fn width(self) -> u32 {
        match self {
            Exponent::Unsigned(b) => b,
            Exponent::Signed(b) => b + 1,
        }
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

    /// The width of the table setup builds for `base` from `list`.
    fn table_width(list: &[(&str, Exponent)], base: &str) -> Option<u32> {
        let terms = list.iter().filter(|(l, _)| *l == base);
        terms.map(|(_, e)| e.width()).max()
    }

    #[test]
    fn every_prover_term_fits_its_base_table() {
        // Every term the sign, join and opening provers raise a key base
        // to, by base, from the scheme formulas: each random log (r, w,
        // k1, k2) is below 2^{r_bits}, x and x' below 2^{λ1+1}, e below
        // 2^{γ1+1}, and a blind of b bits has magnitude below 2^b, which
        // the table runs shifted by 2^b, one bit wider.
        use Exponent::{Signed, Unsigned};
        for preset in [GsigPreset::Test, GsigPreset::Small, GsigPreset::Paper] {
            let p = GsigParams::preset(preset);
            let (log, x, e) = (p.r_bits(), p.lambda1 + 1, p.gamma1 + 1);
            let blind = |bits| p.blind_bits(bits);
            let (rho_x, rho_e) = (blind(p.lambda2), blind(p.gamma2));
            let signature = [
                ("T1 = A·y^r", "y", Unsigned(log)),
                ("T2 = g^r", "g", Unsigned(log)),
                ("T3 = g^e·h^r", "g", Unsigned(e)),
                ("T3 = g^e·h^r", "h", Unsigned(log)),
                ("g^{ρ_r}", "g", Signed(blind(log))),
                ("g^{ρ_e}", "g", Signed(rho_e)),
                ("h^{ρ_r}", "h", Signed(blind(log))),
                ("T2^{ρ_e} = g^{r·ρ_e}", "g", Signed(log + rho_e)),
                ("g^{−ρ_h}", "g", Signed(blind(p.h_bits()))),
                ("a^{ρ_x}", "a", Signed(rho_x)),
                ("y^{ρ_h}", "y", Signed(blind(p.h_bits()))),
            ];
            let join = |base| {
                [
                    ("join commitment base^x", base, Unsigned(x)),
                    ("join proof base^ρ", base, Signed(rho_x)),
                ]
            };
            let ky = [
                ("T4 = g^{k1·x}, T6 = g^{k2·x'}", "g", Unsigned(log + x)),
                ("T5 = g^{k1}, T7 = g^{k2}", "g", Unsigned(log)),
                ("T5^{ρ_x}, T7^{ρ_x'} through g", "g", Signed(log + rho_x)),
                ("b^{ρ_x'}", "b", Signed(rho_x)),
                ("opening g^ρ", "g", Signed(blind(log + 2))),
            ];
            let terms = [
                (Scheme::Acjt, [&signature[..], &join("a")].concat()),
                (Scheme::Ky, [&signature[..], &join("b"), &ky].concat()),
            ];
            for (scheme, terms) in terms {
                let list = p.prover_exponents(scheme);
                let table = |base| table_width(&list, base);
                for (what, base, exp) in terms {
                    let at = format!("{preset:?} {scheme:?}: {what} on `{base}`");
                    let width = table(base).unwrap_or_else(|| panic!("{at}: no table"));
                    assert!(
                        exp.width() <= width,
                        "{at} needs {} bits, the table covers {width}",
                        exp.width()
                    );
                    if let Signed(_) = exp {
                        assert!(list.contains(&(base, exp)), "{at}: no start");
                    }
                }
                assert_eq!(table("a0"), None, "{preset:?} {scheme:?}: a0");
            }
        }
    }

    #[test]
    fn tables_are_as_wide_as_their_widest_term_at_every_preset() {
        // (a, b, g = y, h) for KY; ACJT has no b, and its a carries the
        // join commitment's λ1 + 1 bits, KY's b width.
        for (preset, [a, b, g, h]) in [
            (GsigPreset::Test, [395, 399, 994, 377]),
            (GsigPreset::Small, [1_873, 1_877, 3_554, 1_007]),
            (GsigPreset::Paper, [4_789, 4_793, 8_762, 2_483]),
        ] {
            let p = GsigParams::preset(preset);
            let ky = [("a", a), ("b", b), ("g", g), ("h", h), ("y", g)];
            let acjt = [("a", b), ("g", g), ("h", h), ("y", g)];
            for (scheme, want) in [(Scheme::Ky, &ky[..]), (Scheme::Acjt, &acjt[..])] {
                let list = p.prover_exponents(scheme);
                for &(base, bits) in want {
                    let width = table_width(&list, base);
                    assert_eq!(width, Some(bits), "{preset:?} {scheme:?} `{base}`");
                }
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
