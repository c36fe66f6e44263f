//! Property-based tests of the algebraic settings.

use proptest::prelude::*;
use rand::SeedableRng;
use shs_bigint::{mont::MontCtx, rng as brng, Ubig};
use shs_groups::cs;
use shs_groups::schnorr::{SchnorrGroup, SchnorrPreset};

fn group() -> &'static SchnorrGroup {
    SchnorrGroup::system_wide(SchnorrPreset::Test)
}

/// `exp_g` and the Cramer–Shoup encryption bases (`g2`, `h`, `c`, `d`) run
/// on fixed-base tables covering exponents below `q` (the group's own table
/// of `g`; `table` and `exp_table` for the key's bases). Each must equal
/// the plain ladder on the unreduced exponent: at the edges of the
/// reduction and on random exponents twice as wide as `q`.
#[test]
fn fixed_base_powers_match_the_plain_ladder() {
    for preset in [SchnorrPreset::Test, SchnorrPreset::Small] {
        let g = SchnorrGroup::system_wide(preset);
        let ctx = MontCtx::new(g.p().clone());
        let mut rng = rand::rngs::StdRng::seed_from_u64(61);
        let (pk, _) = cs::keygen(g, &mut rng);
        let q = g.q();
        let mut exps = vec![
            Ubig::zero(),
            Ubig::one(),
            q.sub_u64(1),
            q.clone(),
            q.add_u64(1),
        ];
        exps.extend((0..6).map(|_| brng::random_bits(&mut rng, 2 * q.bits())));
        let tables = [&pk.g2, &pk.h, &pk.c, &pk.d].map(|base| (base, g.table(base)));
        for e in &exps {
            assert_eq!(g.exp_g(e), ctx.modpow(g.g(), e), "{preset:?}: g^{e:?}");
            for (base, table) in &tables {
                assert_eq!(
                    g.exp_table(table, e),
                    ctx.modpow(base, e),
                    "{preset:?}: {base:?}^{e:?}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn exponent_arithmetic_respects_group_order(seed in any::<u64>()) {
        let g = group();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = g.random_exponent(&mut rng);
        let b = g.random_exponent(&mut rng);
        // (g^a)^b == g^{ab mod q}
        let lhs = g.exp(&g.exp_g(&a), &b);
        let rhs = g.exp_g(&a.mulm(&b, g.q()));
        prop_assert_eq!(lhs, rhs);
        // Random elements are subgroup members with inverses.
        let x = g.random_element(&mut rng);
        prop_assert!(g.is_member(&x));
        let xi = g.inv(&x).unwrap();
        prop_assert!(g.mul(&x, &xi).is_one());
    }

    #[test]
    fn cramer_shoup_roundtrip_arbitrary_payloads(
        payload in prop::collection::vec(any::<u8>(), 0..120),
        seed in any::<u64>(),
    ) {
        let g = group();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (pk, sk) = cs::keygen(g, &mut rng);
        let ct = cs::encrypt(g, &pk, &payload, &mut rng);
        prop_assert_eq!(cs::decrypt(g, &sk, &ct).unwrap(), payload);
    }

    #[test]
    fn cramer_shoup_rejects_any_dem_bitflip(
        payload in prop::collection::vec(any::<u8>(), 1..60),
        idx in any::<prop::sample::Index>(),
        seed in any::<u64>(),
    ) {
        let g = group();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (pk, sk) = cs::keygen(g, &mut rng);
        let mut ct = cs::encrypt(g, &pk, &payload, &mut rng);
        let i = idx.index(ct.dem.len());
        ct.dem[i] ^= 0x40;
        prop_assert!(cs::decrypt(g, &sk, &ct).is_err());
    }
}
