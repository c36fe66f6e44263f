//! Output-identity pins of the prime search.
//!
//! Every certificate prime, RSA factor and Schnorr modulus in the
//! workspace comes out of `shs_bigint::prime`, so a change to how that
//! module filters or tests candidates must leave every candidate, every
//! verdict and every RNG draw as it was: otherwise keys, transcripts and
//! wire bytes all move. Each test folds what the search returns, plus the
//! seeded RNG's next output (which pins how many draws the search made),
//! into an FNV-1a digest and compares it with a committed constant. The
//! failure message prints the recomputed digest.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use shs_bigint::prime::{gen_prime, gen_prime_in_range, gen_safe_prime, is_probable_prime};
use shs_bigint::Ubig;

/// FNV-1a (64-bit) over length-prefixed items.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, data: &[u8]) {
        for &b in (data.len() as u64).to_le_bytes().iter().chain(data) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn ubig(&mut self, n: &Ubig) {
        self.bytes(&n.to_bytes_be());
    }

    /// Closes the digest with the RNG's next draw.
    fn finish(mut self, rng: &mut StdRng) -> u64 {
        self.bytes(&rng.next_u64().to_le_bytes());
        self.0
    }
}

fn pow2(bits: u32) -> Ubig {
    Ubig::one().shl(bits)
}

#[track_caller]
fn check(what: &str, got: u64, want: u64) {
    assert_eq!(got, want, "{what}: digest is now {got:#018x}");
}

#[test]
fn certificate_primes_at_the_test_gamma() {
    // The Test preset's Γ = (2^547 − 2^402, 2^547 + 2^402): the 548-bit
    // draw of every Kiayias–Yung join.
    let lo = pow2(547).sub(&pow2(402));
    let hi = pow2(547).add(&pow2(402));
    let mut rng = StdRng::seed_from_u64(0x1f_2003);
    let mut d = Digest::new();
    for _ in 0..4 {
        let e = gen_prime_in_range(&lo, &hi, &mut rng);
        assert!(e > lo && e < hi);
        d.ubig(&e);
    }
    check(
        "gen_prime_in_range",
        d.finish(&mut rng),
        0xc405_9882_305a_011f,
    );
}

#[test]
fn incremental_and_safe_prime_searches() {
    let mut rng = StdRng::seed_from_u64(0x5afe);
    let mut d = Digest::new();
    // Widths up to 27 bits end in the exhaustive small-n path, where a
    // candidate may be a table prime itself.
    for bits in [3u32, 4, 5, 8, 13, 14, 20, 27, 40, 160, 160] {
        let p = gen_prime(bits, &mut rng);
        assert_eq!(p.bits(), bits);
        d.ubig(&p);
    }
    for _ in 0..2 {
        let (p, q) = gen_safe_prime(128, &mut rng);
        assert_eq!(p, q.shl(1).add_u64(1));
        d.ubig(&p);
    }
    check(
        "gen_prime / gen_safe_prime",
        d.finish(&mut rng),
        0x94f2_cf3f_aecd_4825,
    );
}

#[test]
fn primality_verdicts() {
    let mut rng = StdRng::seed_from_u64(0xfe7d1c7);
    let mut inputs: Vec<Ubig> = (0..2_000u64).map(Ubig::from_u64).collect();
    // Around the exhaustive small-n bound 8192² and the table's end.
    for centre in [8_192u64 * 8_192, 8_191 * 8_191, 8_209 * 8_209] {
        inputs.extend((centre - 40..centre + 40).map(Ubig::from_u64));
    }
    // Products of two primes above the table, at one to four limbs.
    let above = [8_209u64, 8_219, 65_537, 4_294_967_311];
    for &p in &above {
        for &q in &above {
            inputs.push(Ubig::from_u64(p).mul(&Ubig::from_u64(q)));
        }
    }
    inputs.push(Ubig::from_u64(4_294_967_311).mul(&pow2(127).sub_u64(1)));
    // Carmichael numbers, Mersenne numbers, and random odd values.
    for c in [561u64, 41_041, 825_265, 321_197_185, 5_394_826_801] {
        inputs.push(Ubig::from_u64(c));
    }
    for e in [61u32, 89, 107, 127, 128, 521] {
        inputs.push(pow2(e).sub_u64(1));
    }
    for limbs in 1..=9u32 {
        for _ in 0..40 {
            inputs.push(shs_bigint::rng::random_odd_bits(&mut rng, 64 * limbs - 3));
        }
    }
    let mut d = Digest::new();
    let mut primes = 0;
    for n in &inputs {
        let verdict = is_probable_prime(n, 8, &mut rng);
        primes += usize::from(verdict);
        d.ubig(n);
        d.bytes(&[u8::from(verdict)]);
    }
    assert!(primes > 300, "{primes} primes");
    check(
        "is_probable_prime",
        d.finish(&mut rng),
        0x6e67_7640_8715_5961,
    );
}
