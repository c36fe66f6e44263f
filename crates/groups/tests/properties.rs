//! Property-based tests of the algebraic settings.

use proptest::prelude::*;
use rand::SeedableRng;
use shs_bigint::{mont::MontCtx, rng as brng, Ubig};
use shs_groups::schnorr::{SchnorrGroup, SchnorrPreset};
use shs_groups::{cs, elgamal, pedersen};

fn group() -> &'static SchnorrGroup {
    SchnorrGroup::system_wide(SchnorrPreset::Test)
}

/// `exp_g` and the Cramer–Shoup encryption bases (`g2`, `h`, `c`, `d`) run
/// on fixed-base tables covering exponents below `q`. Each must equal the
/// plain ladder on the unreduced exponent: at the edges of the reduction
/// and on random exponents twice as wide as `q`.
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
        for e in &exps {
            assert_eq!(g.exp_g(e), ctx.modpow(g.g(), e), "{preset:?}: g^{e:?}");
            for base in [g.g(), &pk.g2, &pk.h, &pk.c, &pk.d] {
                assert_eq!(
                    g.exp_fixed(base, e),
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
    fn elgamal_roundtrip_random_messages(seed in any::<u64>()) {
        let g = group();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (pk, sk) = elgamal::keygen(g, &mut rng);
        let m = g.random_element(&mut rng);
        let ct = elgamal::encrypt(g, &pk, &m, &mut rng).unwrap();
        prop_assert_eq!(elgamal::decrypt(g, &sk, &ct).unwrap(), m);
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

    #[test]
    fn pedersen_binding_under_random_openings(seed in any::<u64>()) {
        let g = group();
        let params = pedersen::CommitParams::derive(g);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let m1 = g.random_exponent(&mut rng);
        let m2 = g.random_exponent(&mut rng);
        let (c1, o1) = params.commit(g, &m1, &mut rng);
        prop_assert!(params.verify(g, &c1, &o1));
        if m1 != m2 {
            let bad = pedersen::Opening { m: m2, r: o1.r.clone() };
            prop_assert!(!params.verify(g, &c1, &bad));
        }
    }

    #[test]
    fn hash_to_group_always_lands_in_subgroup(data in prop::collection::vec(any::<u8>(), 0..64)) {
        let g = group();
        let h = g.hash_to_group(&data);
        prop_assert!(g.is_member(&h));
        prop_assert!(!h.is_one());
    }
}
