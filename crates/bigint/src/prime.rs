//! Primality testing (Miller–Rabin) and prime generation, including the
//! safe primes (`p = 2p' + 1`) required by the ACJT / Kiayias–Yung group
//! signature setting and by Schnorr groups.

use crate::mont::MontCtx;
use crate::{rng, Ubig};
use rand::RngCore;
use std::sync::OnceLock;

/// Number of Miller–Rabin rounds used by default (error < 4^-64 plus the
/// much stronger average-case bounds for random candidates).
pub const DEFAULT_MR_ROUNDS: u32 = 32;

/// Small primes used for trial-division prefiltering.
fn small_primes() -> &'static [u64] {
    static PRIMES: OnceLock<Vec<u64>> = OnceLock::new();
    PRIMES.get_or_init(|| {
        const LIMIT: usize = 8192;
        let mut sieve = vec![true; LIMIT];
        sieve[0] = false;
        sieve[1] = false;
        for i in 2..LIMIT {
            if sieve[i] {
                let mut j = i * i;
                while j < LIMIT {
                    sieve[j] = false;
                    j += i;
                }
            }
        }
        (2..LIMIT as u64).filter(|&i| sieve[i as usize]).collect()
    })
}

/// Trial division against the small-prime table. Returns `false` if a small
/// factor is found (and the number is not that prime itself).
fn passes_trial_division(n: &Ubig) -> bool {
    for &p in small_primes() {
        let (q, r) = n.divrem_u64(p);
        if r == 0 {
            // n is divisible by p; n is prime only if n == p.
            return n.to_u64() == Some(p);
        }
        if q < Ubig::from_u64(p) {
            // p^2 > n and no divisor found: definitely prime.
            return true;
        }
    }
    true
}

/// One Miller–Rabin round with the given base, under the candidate's own
/// Montgomery context.
fn mr_round(ctx: &MontCtx, base: &Ubig, d: &Ubig, s: u32) -> bool {
    let n = ctx.modulus();
    let n_minus_1 = n.sub_u64(1);
    // `MontCtx::modpow` counts nothing; each round is one modexp.
    crate::counters::record_modexp();
    let mut x = ctx.modpow(base, d);
    if x.is_one() || x == n_minus_1 {
        crate::trace::branch();
        return true;
    }
    for _ in 1..s {
        // The witness loop exits early on ±1 — inherently value-dependent,
        // recorded so the trace harness can see how far each round ran.
        crate::trace::branch();
        x = x.sqm(n);
        if x == n_minus_1 {
            return true;
        }
        if x.is_one() {
            return false;
        }
    }
    false
}

/// Probabilistic primality test: trial division followed by `rounds`
/// Miller–Rabin rounds with random bases (plus base 2).
pub fn is_probable_prime(n: &Ubig, rounds: u32, rng: &mut (impl RngCore + ?Sized)) -> bool {
    if let Some(v) = n.to_u64() {
        if v < 2 {
            return false;
        }
        if v == 2 || v == 3 {
            return true;
        }
    }
    if n.is_even() {
        return false;
    }
    if !passes_trial_division(n) {
        return false;
    }
    if n.to_u64().is_some_and(|v| (v as u128) < 8192 * 8192) {
        // Trial division was exhaustive for such small numbers.
        return true;
    }

    // n-1 = d * 2^s with d odd.
    let n_minus_1 = n.sub_u64(1);
    let s = n_minus_1
        .trailing_zeros()
        .expect("n-1 of odd n>2 is nonzero");
    let d = n_minus_1.shr(s);

    // One owned context for every round: a candidate is usually discarded,
    // so it stays out of the shared cache that live moduli use.
    let ctx = MontCtx::new(n.clone());
    if !mr_round(&ctx, &Ubig::from_u64(2), &d, s) {
        return false;
    }
    let two = Ubig::from_u64(2);
    let hi = n_minus_1.clone();
    for _ in 0..rounds {
        let base = rng::range(rng, &two, &hi);
        if !mr_round(&ctx, &base, &d, s) {
            return false;
        }
    }
    true
}

/// Convenience wrapper using [`DEFAULT_MR_ROUNDS`].
pub fn is_prime(n: &Ubig, rng: &mut (impl RngCore + ?Sized)) -> bool {
    is_probable_prime(n, DEFAULT_MR_ROUNDS, rng)
}

/// Generates a random prime with exactly `bits` bits.
///
/// Uses an incremental search: a random odd starting point, residues against
/// the small-prime table maintained incrementally, Miller–Rabin on
/// survivors.
///
/// # Panics
///
/// Panics if `bits < 3`.
pub fn gen_prime(bits: u32, rng: &mut (impl RngCore + ?Sized)) -> Ubig {
    assert!(bits >= 3, "primes below 3 bits are not useful here");
    loop {
        let start = rng::random_odd_bits(rng, bits);
        if let Some(p) = search_from(
            &start,
            bits,
            8192,
            |c, r| is_probable_prime(c, DEFAULT_MR_ROUNDS, r),
            rng,
        ) {
            return p;
        }
    }
}

/// Incremental prime search: steps `start, start+2, start+4, ...` for up to
/// `max_steps` candidates, keeping residues modulo the small primes
/// incrementally so that most composites are rejected without any bignum
/// work. Candidates are also required to keep the requested bit-length.
fn search_from<R: RngCore + ?Sized>(
    start: &Ubig,
    bits: u32,
    max_steps: u64,
    test: impl Fn(&Ubig, &mut R) -> bool,
    rng: &mut R,
) -> Option<Ubig> {
    let primes = small_primes();
    // residues[i] = start mod primes[i]
    let residues: Vec<u64> = primes.iter().map(|&p| start.divrem_u64(p).1).collect();
    let mut offset = 0u64;
    while offset < max_steps * 2 {
        let divisible = primes.iter().zip(&residues).any(|(&p, &r)| {
            (r + offset).is_multiple_of(p) && !(offset == 0 && start.to_u64() == Some(p))
        });
        if !divisible {
            let candidate = start.add_u64(offset);
            if candidate.bits() != bits {
                return None; // walked out of the bit range; caller restarts
            }
            if test(&candidate, rng) {
                return Some(candidate);
            }
        }
        offset += 2;
    }
    None
}

/// Generates a *safe prime* `p = 2q + 1` (with `q` also prime) of exactly
/// `bits` bits, returning `(p, q)`.
///
/// # Panics
///
/// Panics if `bits < 5`.
pub fn gen_safe_prime(bits: u32, rng: &mut (impl RngCore + ?Sized)) -> (Ubig, Ubig) {
    assert!(bits >= 5, "safe primes below 5 bits are not useful here");
    let primes = small_primes();
    loop {
        // Search on q of (bits-1) bits; p = 2q+1 must avoid small factors
        // too, so both are filtered against the small-prime table
        // incrementally.
        let q = rng::random_odd_bits(rng, bits - 1);
        let mut steps = 0u32;
        let residues: Vec<u64> = primes.iter().map(|&p| q.divrem_u64(p).1).collect();
        let mut offset = 0u64;
        'search: while steps < 4096 {
            let bad = primes.iter().zip(&residues).any(|(&p, &r)| {
                let rq = (r + offset) % p;
                // q divisible by p, or p_candidate = 2q+1 divisible by p
                rq == 0 || (2 * rq + 1).is_multiple_of(p)
            });
            if !bad {
                let qc = q.add_u64(offset);
                if qc.bits() != bits - 1 {
                    break 'search;
                }
                if is_probable_prime(&qc, DEFAULT_MR_ROUNDS, rng) {
                    let pc = qc.shl(1).add_u64(1);
                    if pc.bits() == bits && is_probable_prime(&pc, DEFAULT_MR_ROUNDS, rng) {
                        return (pc, qc);
                    }
                }
                steps += 1;
            }
            offset += 2;
            if offset > 1 << 22 {
                break 'search;
            }
        }
        // Fall through: restart the outer loop with a fresh random q.
    }
}

/// Generates a random prime in the half-open interval `[lo, hi)`.
///
/// Used by ACJT to draw the per-member prime `e ∈ Γ`.
///
/// # Panics
///
/// Panics if the interval is empty.
pub fn gen_prime_in_range(lo: &Ubig, hi: &Ubig, rng: &mut (impl RngCore + ?Sized)) -> Ubig {
    assert!(lo < hi, "empty interval");
    loop {
        let mut candidate = rng::range(rng, lo, hi);
        candidate.set_bit(0); // make odd (may equal lo-1+1; still in range since hi-lo > 1 in practice)
        if candidate >= *hi {
            continue;
        }
        if candidate < *lo {
            continue;
        }
        if is_probable_prime(&candidate, DEFAULT_MR_ROUNDS, rng) {
            return candidate;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(7)
    }

    #[test]
    fn small_prime_classification() {
        let mut r = rng();
        let primes = [2u64, 3, 5, 7, 11, 101, 997, 65537, 1_000_000_007];
        let composites = [
            0u64,
            1,
            4,
            9,
            100,
            561, /* Carmichael */
            65535,
            1_000_000_005,
        ];
        for p in primes {
            assert!(is_prime(&Ubig::from_u64(p), &mut r), "{p} should be prime");
        }
        for c in composites {
            assert!(
                !is_prime(&Ubig::from_u64(c), &mut r),
                "{c} should be composite"
            );
        }
    }

    #[test]
    fn known_large_prime() {
        let mut r = rng();
        // 2^127 - 1 is a Mersenne prime.
        let m127 = Ubig::one().shl(127).sub_u64(1);
        assert!(is_prime(&m127, &mut r));
        // 2^128 - 159 is prime; 2^128 - 1 is not.
        let p = Ubig::one().shl(128).sub_u64(159);
        assert!(is_prime(&p, &mut r));
        let np = Ubig::one().shl(128).sub_u64(1);
        assert!(!is_prime(&np, &mut r));
    }

    #[test]
    fn generated_primes_have_right_size() {
        let mut r = rng();
        for bits in [32u32, 64, 128, 256] {
            let p = gen_prime(bits, &mut r);
            assert_eq!(p.bits(), bits);
            assert!(is_prime(&p, &mut r));
        }
    }

    #[test]
    fn safe_prime_structure() {
        let mut r = rng();
        let (p, q) = gen_safe_prime(96, &mut r);
        assert_eq!(p.bits(), 96);
        assert_eq!(p, q.shl(1).add_u64(1));
        assert!(is_prime(&p, &mut r));
        assert!(is_prime(&q, &mut r));
    }

    #[test]
    fn prime_in_range() {
        let mut r = rng();
        let lo = Ubig::from_u64(1 << 20);
        let hi = Ubig::from_u64(1 << 21);
        for _ in 0..5 {
            let p = gen_prime_in_range(&lo, &hi, &mut r);
            assert!(p >= lo && p < hi);
            assert!(is_prime(&p, &mut r));
        }
    }
}
