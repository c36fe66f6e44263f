//! Property-based tests of the arithmetic laws every protocol in this
//! workspace silently relies on.

use proptest::prelude::*;
use shs_bigint::mont::MontCtx;
use shs_bigint::{gcd, jacobi, BigintError, CrtCtx, FixedBase, Int, Ubig};

/// Odd primes of assorted widths (single-limb through three-limb) for the
/// CRT agreement property; `CrtCtx` requires genuinely prime halves.
const TEST_PRIMES: &[&str] = &[
    "65",                                               // 101
    "fffffffb",                                         // 2^32 − 5
    "1fffffffffffffff",                                 // 2^61 − 1 (Mersenne)
    "48995b1ff16287e4e9c349e03602f8ad",                 // 127-bit
    "8a368ce7dc570131f8e1daa7cbceabdf",                 // 128-bit
    "94a0bccb8a476a87e49d681d51d87c6455fa1ab8458f1f19", // 192-bit
];

/// Square-and-multiply on `mulm` (schoolbook/Karatsuba product, Knuth
/// division): an exponentiation reference that shares no code with the
/// Montgomery kernels it checks.
fn reference_modpow(base: &Ubig, exp: &Ubig, m: &Ubig) -> Ubig {
    let mut acc = Ubig::one().rem(m);
    let mut b = base.rem(m);
    for i in 0..exp.bits() {
        if exp.bit(i) {
            acc = acc.mulm(&b, m);
        }
        b = b.sqm(m);
    }
    acc
}

/// Strategy: an exponent whose 4-bit windows, from the lowest, run
/// through every digit 0–15 once (an odd stride from a random start),
/// then up to eight random digits and a nonzero top digit, so that every
/// digit sits below the exponent's top window.
fn every_digit_exponent() -> impl Strategy<Value = Ubig> {
    (
        0u64..16,
        0u64..8,
        prop::collection::vec(0u64..16, 0..=8),
        1u64..16,
    )
        .prop_map(|(start, half_stride, tail, top)| {
            let stride = 2 * half_stride + 1;
            let digits = (0..16).map(|i| (start + i * stride) % 16).chain(tail);
            let mut e = Ubig::zero();
            for (i, d) in digits.chain([top]).enumerate() {
                for b in 0..4 {
                    if (d >> b) & 1 == 1 {
                        e.set_bit(4 * i as u32 + b);
                    }
                }
            }
            e
        })
}

/// Strategy: a Ubig of up to `limbs` limbs.
fn ubig(limbs: usize) -> impl Strategy<Value = Ubig> {
    prop::collection::vec(any::<u64>(), 0..=limbs).prop_map(Ubig::from_limbs)
}

/// Strategy: a non-zero Ubig.
fn ubig_nz(limbs: usize) -> impl Strategy<Value = Ubig> {
    ubig(limbs).prop_map(|u| if u.is_zero() { Ubig::one() } else { u })
}

/// Strategy: an odd modulus ≥ 3.
fn odd_modulus(limbs: usize) -> impl Strategy<Value = Ubig> {
    ubig_nz(limbs).prop_map(|mut u| {
        u.set_bit(0);
        u.set_bit(1);
        u
    })
}

/// Strategy: a modulus of 1–`limbs` limbs, odd or even, an input of up
/// to one limb more than the modulus, and a shift `z` below the input's
/// width.
fn inverse_case(limbs: usize) -> impl Strategy<Value = (Ubig, Ubig, u32)> {
    (
        prop::collection::vec(any::<u64>(), 1..=limbs),
        prop::collection::vec(any::<u64>(), limbs + 1),
        any::<u64>(),
        any::<u32>(),
    )
        .prop_map(|(mut m, mut a, a_len, z)| {
            let k = m.len();
            m[k - 1] = m[k - 1].max(1);
            a.truncate((a_len % (k as u64 + 2)) as usize);
            let z = z % (64 * (k as u32 + 1));
            (Ubig::from_limbs(m), Ubig::from_limbs(a), z)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn add_commutes(a in ubig(6), b in ubig(6)) {
        prop_assert_eq!(a.add(&b), b.add(&a));
    }

    #[test]
    fn add_associates(a in ubig(5), b in ubig(5), c in ubig(5)) {
        prop_assert_eq!(a.add(&b).add(&c), a.add(&b.add(&c)));
    }

    #[test]
    fn sub_inverts_add(a in ubig(6), b in ubig(6)) {
        prop_assert_eq!(a.add(&b).sub(&b), a);
    }

    #[test]
    fn mul_commutes(a in ubig(5), b in ubig(5)) {
        prop_assert_eq!(a.mul(&b), b.mul(&a));
    }

    #[test]
    fn mul_associates(a in ubig(4), b in ubig(4), c in ubig(4)) {
        prop_assert_eq!(a.mul(&b).mul(&c), a.mul(&b.mul(&c)));
    }

    #[test]
    fn mul_distributes(a in ubig(4), b in ubig(4), c in ubig(4)) {
        prop_assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
    }

    #[test]
    fn mul_u64_matches_general(a in ubig(6), v in any::<u64>()) {
        prop_assert_eq!(a.mul_u64(v), a.mul(&Ubig::from_u64(v)));
    }

    #[test]
    fn division_reconstructs(a in ubig(8), d in ubig_nz(4)) {
        let (q, r) = a.divrem(&d).unwrap();
        prop_assert!(r < d);
        prop_assert_eq!(q.mul(&d).add(&r), a);
    }

    #[test]
    fn divrem_u64_matches_general(a in ubig(8), d in 1u64..) {
        let (q1, r1) = a.divrem_u64(d);
        let (q2, r2) = a.divrem(&Ubig::from_u64(d)).unwrap();
        prop_assert_eq!(q1, q2);
        prop_assert_eq!(Ubig::from_u64(r1), r2);
    }

    #[test]
    fn shift_roundtrip(a in ubig(6), s in 0u32..200) {
        prop_assert_eq!(a.shl(s).shr(s), a);
    }

    #[test]
    fn shl_is_mul_by_power_of_two(a in ubig(5), s in 0u32..100) {
        let mut p = Ubig::zero();
        p.set_bit(s);
        prop_assert_eq!(a.shl(s), a.mul(&p));
    }

    #[test]
    fn byte_roundtrip(a in ubig(8)) {
        prop_assert_eq!(Ubig::from_bytes_be(&a.to_bytes_be()), a.clone());
        let padded = a.to_bytes_be_padded(8 * 8 + 3);
        prop_assert_eq!(Ubig::from_bytes_be(&padded), a);
    }

    #[test]
    fn string_roundtrips(a in ubig(5)) {
        prop_assert_eq!(Ubig::from_dec(&a.to_dec()).unwrap(), a.clone());
        prop_assert_eq!(Ubig::from_hex(&a.to_hex()).unwrap(), a);
    }

    #[test]
    fn ordering_consistent_with_subtraction(a in ubig(5), b in ubig(5)) {
        if a >= b {
            let d = a.sub(&b);
            prop_assert_eq!(b.add(&d), a);
        } else {
            prop_assert!(b > a);
        }
    }

    #[test]
    fn modpow_is_homomorphic_in_exponent(
        base in ubig(3), e1 in ubig(2), e2 in ubig(2), m in odd_modulus(3)
    ) {
        // base^(e1+e2) == base^e1 · base^e2 (mod m)
        let lhs = base.modpow(&e1.add(&e2), &m);
        let rhs = base.modpow(&e1, &m).mulm(&base.modpow(&e2, &m), &m);
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn modpow_is_homomorphic_in_base(
        a in ubig(3), b in ubig(3), e in ubig(2), m in odd_modulus(3)
    ) {
        // (a·b)^e == a^e · b^e (mod m)
        let lhs = a.mul(&b).modpow(&e, &m);
        let rhs = a.modpow(&e, &m).mulm(&b.modpow(&e, &m), &m);
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn modpow_matches_iterated_multiplication(
        base in ubig(8), e in 0u32..50, m in odd_modulus(8)
    ) {
        let mut acc = Ubig::one().rem(&m);
        for _ in 0..e {
            acc = acc.mulm(&base, &m);
        }
        prop_assert_eq!(base.modpow(&Ubig::from_u64(e as u64), &m), acc);
    }

    #[test]
    fn gcd_divides_both(a in ubig_nz(4), b in ubig_nz(4)) {
        let g = gcd::gcd(&a, &b);
        prop_assert!(a.rem(&g).is_zero());
        prop_assert!(b.rem(&g).is_zero());
    }

    #[test]
    fn bezout_identity(a in ubig_nz(4), b in ubig_nz(4)) {
        let (g, x, y) = gcd::ext_gcd(&a, &b);
        let lhs = Int::from_ubig(a.clone()).mul(&x).add(&Int::from_ubig(b.clone()).mul(&y));
        prop_assert_eq!(lhs, Int::from_ubig(g));
    }

    #[test]
    fn modinv_produces_inverses((m, a, z) in inverse_case(32)) {
        // Odd moduli take the binary inverse, even ones the Euclid. `2^z`
        // and the low `z` bits of `m` (so `m − a` is a multiple of 2^z)
        // push long runs of trailing zeros through `u` and `v`.
        for a in [a, Ubig::one().shl(z), m.sub(&m.shr(z).shl(z))] {
            // The reference: the Euclid's Bezout cofactor, reduced.
            let (g, x, _) = gcd::ext_gcd(&a.rem(&m), &m);
            match gcd::modinv(&a, &m) {
                Ok(inv) => {
                    prop_assert!(g.is_one());
                    prop_assert!(inv < m);
                    prop_assert_eq!(a.mulm(&inv, &m), Ubig::one().rem(&m));
                    prop_assert_eq!(inv, x.mod_ubig(&m));
                }
                Err(err) => {
                    prop_assert_eq!(err, BigintError::NotInvertible);
                    prop_assert!(!g.is_one());
                }
            }
        }
    }

    #[test]
    fn jacobi_is_multiplicative(a in ubig(2), b in ubig(2), m in odd_modulus(2)) {
        let ja = jacobi::jacobi(&a, &m);
        let jb = jacobi::jacobi(&b, &m);
        let jab = jacobi::jacobi(&a.mul(&b), &m);
        prop_assert_eq!(jab, ja * jb);
    }

    #[test]
    fn int_add_sub_roundtrip(a in any::<i64>(), b in any::<i64>()) {
        let ia = Int::from_i64(a);
        let ib = Int::from_i64(b);
        prop_assert_eq!(ia.add(&ib).sub(&ib), ia);
    }

    #[test]
    fn int_mod_in_range(a in any::<i64>(), m in 1u64..) {
        let mu = Ubig::from_u64(m);
        let r = Int::from_i64(a).mod_ubig(&mu);
        prop_assert!(r < mu);
        // Congruence: r ≡ a (mod m) checked via i128 arithmetic.
        let expected = (a as i128).rem_euclid(m as i128) as u64;
        prop_assert_eq!(r, Ubig::from_u64(expected));
    }

    #[test]
    fn int_divrem_reconstructs(a in any::<i64>(), d in any::<i64>()) {
        prop_assume!(d != 0);
        let ia = Int::from_i64(a);
        let id = Int::from_i64(d);
        let (q, r) = ia.divrem(&id);
        prop_assert_eq!(q.mul(&id).add(&r), ia);
        prop_assert!(r.magnitude() < id.magnitude() || r.is_zero());
    }

    #[test]
    fn montgomery_matches_plain_reduction(a in ubig(8), b in ubig(8), m in odd_modulus(8)) {
        let ctx = shs_bigint::mont::MontCtx::new(m.clone());
        prop_assert_eq!(ctx.modmul(&a, &b), a.mul(&b).rem(&m));
    }

    // ---- every Montgomery ladder agrees with the mulm reference -------
    //
    // Moduli of 1–8 limbs (the Test preset's 256-bit RSA and 512-bit
    // Schnorr moduli are 4 and 8 limbs); `mont.rs`'s unit tests add fixed
    // 16- and 32-limb cases.

    #[test]
    fn modpow_matches_the_reference(base in ubig(9), e in ubig(9), m in odd_modulus(8)) {
        // Base and exponent up to 9 limbs against ≤ 8-limb moduli: both
        // exceeding the modulus is routinely exercised.
        let ctx = MontCtx::new(m.clone());
        prop_assert_eq!(ctx.modpow(&base, &e), reference_modpow(&base, &e, &m));
    }

    #[test]
    fn multi_exp_matches_modpow_product(
        b1 in ubig(8), b2 in ubig(8), b3 in ubig(8),
        e1 in ubig(9), e2 in ubig(1), e3 in ubig(3),
        m in odd_modulus(8),
    ) {
        // Deliberately mixed exponent widths (including frequent zeros from
        // the empty-limb case) so term padding to the longest width is hit.
        let ctx = MontCtx::new(m.clone());
        let pairs = [(&b1, &e1), (&b2, &e2), (&b3, &e3)];
        let naive = reference_modpow(&b1, &e1, &m)
            .mulm(&reference_modpow(&b2, &e2, &m), &m)
            .mulm(&reference_modpow(&b3, &e3, &m), &m);
        prop_assert_eq!(ctx.multi_exp_vartime(&pairs), naive);
    }

    #[test]
    fn fixed_base_matches_modpow(base in ubig(8), e in ubig(8), m in odd_modulus(8)) {
        // Table sized for 6 limbs: 7- and 8-limb exponents exercise the
        // (public width-class) fallback, smaller ones the table path; zero
        // and one come from the empty-limb strategy case.
        let fb = FixedBase::new(std::sync::Arc::new(MontCtx::new(m.clone())), &base, 384);
        prop_assert_eq!(fb.pow(&e), reference_modpow(&base, &e, &m));
    }

    #[test]
    fn every_scan_arm_matches_the_reference(
        limbs in prop::collection::vec(any::<u64>(), 2 * 33),
        e in every_digit_exponent(),
    ) {
        // Each constant-trace ladder at every width with its own compiled
        // table scan and kernels, and at one width on the runtime-k
        // fallback (5 limbs). Every digit 0–15 selects its table entry in
        // the exponent, so a scan arm that keeps another entry than the
        // digit names, or a width that dispatches to the wrong arm, gives
        // a wrong power.
        let (n, b) = limbs.split_at(33);
        for k in [4usize, 5, 8, 9, 12, 16, 32] {
            let mut m = n[..k].to_vec();
            m[0] |= 1;
            m[k - 1] |= 1 << 63;
            let m = Ubig::from_limbs(m);
            let b = Ubig::from_limbs(b[..=k].to_vec());
            let ctx = std::sync::Arc::new(MontCtx::new(m.clone()));
            let want = reference_modpow(&b, &e, &m);
            prop_assert_eq!(ctx.modpow(&b, &e), want.clone(), "modpow, {} limbs", k);
            let fb = FixedBase::new(std::sync::Arc::clone(&ctx), &b, e.bits());
            prop_assert_eq!(fb.pow(&e), want, "FixedBase::pow, {} limbs", k);
        }
    }

    #[test]
    fn crt_modpow_matches_plain(
        pi in 0usize..6, qi in 0usize..6, base in ubig(7), e in ubig(7),
    ) {
        prop_assume!(pi != qi);
        let p = Ubig::from_hex(TEST_PRIMES[pi]).unwrap();
        let q = Ubig::from_hex(TEST_PRIMES[qi]).unwrap();
        let n = p.mul(&q);
        let ctx = CrtCtx::new(&p, &q).unwrap();
        // base and e up to 7 limbs: both overflow every modulus in the list.
        prop_assert_eq!(ctx.modpow(&base, &e), base.modpow(&e, &n));
        // Edge exponents.
        prop_assert_eq!(ctx.modpow(&base, &Ubig::zero()), Ubig::one().rem(&n));
        prop_assert_eq!(ctx.modpow(&base, &Ubig::one()), base.rem(&n));
    }

    #[test]
    fn crt_ctx_handles_prime_multiples(k in 1u64..500, e in ubig(2)) {
        // base ≡ 0 (mod p): the Fermat shortcut must not misfire.
        let p = Ubig::from_hex(TEST_PRIMES[1]).unwrap();
        let q = Ubig::from_hex(TEST_PRIMES[2]).unwrap();
        let n = p.mul(&q);
        let base = p.mul(&Ubig::from_u64(k));
        let ctx = CrtCtx::new(&p, &q).unwrap();
        prop_assert_eq!(ctx.modpow(&base, &e), base.modpow(&e, &n));
    }
}
