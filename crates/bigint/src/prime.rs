//! Primality testing (Miller–Rabin) and prime generation, including the
//! safe primes (`p = 2p' + 1`) required by the ACJT / Kiayias–Yung group
//! signature setting and by Schnorr groups.

use crate::mont::MontCtx;
use crate::{rng, Ubig};
use rand::RngCore;
use std::ops::Range;
use std::sync::OnceLock;

/// Number of Miller–Rabin rounds used by default (error < 4^-64 plus the
/// much stronger average-case bounds for random candidates).
pub const DEFAULT_MR_ROUNDS: u32 = 32;

/// The trial-division table holds every prime below this bound (1,028 of
/// them), so a number below its square that no table prime divides is
/// prime.
const TABLE_BOUND: u64 = 8192;

/// Group products stay below `2^GROUP_BITS`. A block's fold adds
/// `2·BLOCK_LIMBS` products of a 32-bit half-limb and a weight below the
/// product, plus the carried remainder times a weight: below
/// 2^63 + 2^52, so it runs in `u64` with one hardware division per block.
const GROUP_BITS: u32 = 26;

/// Limbs folded per division.
const BLOCK_LIMBS: usize = 16;

/// A table prime and its division-free divisibility test.
struct TablePrime {
    p: u64,
    /// `⌈2^64 / p⌉`: for `x < 2^32`, `p` divides `x` exactly when
    /// `x·c mod 2^64 < c` (Lemire, Kaser and Kurz, 2019).
    c: u64,
}

impl TablePrime {
    fn divides(&self, x: u64) -> bool {
        debug_assert!(x < 1 << 32);
        x.wrapping_mul(self.c) < self.c
    }
}

/// Consecutive table primes whose product `m` is below `2^GROUP_BITS`:
/// one remainder modulo `m` serves every prime in the group.
struct Group {
    m: u64,
    /// The group's primes, as a range of [`Table::primes`].
    primes: Range<usize>,
    /// `weights[j] = 2^{32j} mod m`: limb `i` of a block contributes its
    /// low and high halves times weights `2i` and `2i + 1`, and a block of
    /// `t` limbs shifts the remainder of the limbs above it by weight `2t`.
    weights: [u32; 2 * BLOCK_LIMBS + 1],
}

impl Group {
    /// `n mod m` from `n`'s limbs, without allocating: a dot product with
    /// the weights per block of up to `BLOCK_LIMBS` limbs, then one
    /// 64-bit division.
    fn rem(&self, limbs: &[u64]) -> u64 {
        crate::trace::limb_mul(2 * limbs.len() as u64);
        crate::trace::limb_div(limbs.len().div_ceil(BLOCK_LIMBS) as u64);
        let mut r = 0u64;
        for block in limbs.rchunks(BLOCK_LIMBS) {
            let mut acc = r * u64::from(self.weights[2 * block.len()]);
            for (&limb, w) in block.iter().zip(self.weights.chunks_exact(2)) {
                acc += (limb & 0xffff_ffff) * u64::from(w[0]) + (limb >> 32) * u64::from(w[1]);
            }
            r = acc % self.m;
        }
        r
    }
}

/// The trial-division table: the primes below [`TABLE_BOUND`] in
/// ascending order, cut into [`Group`]s.
struct Table {
    primes: Vec<TablePrime>,
    groups: Vec<Group>,
}

fn table() -> &'static Table {
    static TABLE: OnceLock<Table> = OnceLock::new();
    TABLE.get_or_init(|| {
        let limit = TABLE_BOUND as usize;
        let mut sieve = vec![true; limit];
        sieve[0] = false;
        sieve[1] = false;
        for i in 2..limit {
            if sieve[i] {
                let mut j = i * i;
                while j < limit {
                    sieve[j] = false;
                    j += i;
                }
            }
        }
        let primes: Vec<TablePrime> = (2..TABLE_BOUND)
            .filter(|&p| sieve[p as usize])
            .map(|p| TablePrime {
                p,
                c: u64::MAX / p + 1,
            })
            .collect();
        let mut groups = Vec::new();
        let mut start = 0;
        while start < primes.len() {
            let (mut end, mut m) = (start, 1u64);
            while end < primes.len() && m * primes[end].p < 1 << GROUP_BITS {
                m *= primes[end].p;
                end += 1;
            }
            let mut weights = [0u32; 2 * BLOCK_LIMBS + 1];
            let mut w = 1 % m;
            for slot in &mut weights {
                *slot = w as u32;
                w = (w << 32) % m;
            }
            groups.push(Group {
                m,
                primes: start..end,
                weights,
            });
            start = end;
        }
        Table { primes, groups }
    })
}

/// `n mod p` for every table prime, in table order: the starting residues
/// of an incremental search.
fn table_residues(n: &Ubig) -> Vec<u64> {
    let t = table();
    t.groups
        .iter()
        .flat_map(|g| {
            let r = g.rem(n.limbs());
            t.primes[g.primes.clone()].iter().map(move |p| r % p.p)
        })
        .collect()
}

/// Trial division against the table. Returns `false` if a table prime
/// divides `n` and `n` is not that prime itself.
fn passes_trial_division(n: &Ubig) -> bool {
    let t = table();
    for g in &t.groups {
        let r = g.rem(n.limbs());
        if let Some(p) = t.primes[g.primes.clone()].iter().find(|p| p.divides(r)) {
            // The smallest prime factor: n is prime only if n == p.
            return n.to_u64() == Some(p.p);
        }
    }
    true
}

/// One Miller–Rabin round with the given base, under the candidate's own
/// Montgomery context.
fn mr_round(ctx: &MontCtx, n_minus_1: &Ubig, base: &Ubig, d: &Ubig, s: u32) -> bool {
    let n = ctx.modulus();
    // `MontCtx::modpow` counts nothing; each round is one modexp.
    crate::counters::record_modexp();
    let mut x = ctx.modpow(base, d);
    if x.is_one() || x == *n_minus_1 {
        crate::trace::branch();
        return true;
    }
    for _ in 1..s {
        // The witness loop exits early on ±1 — inherently value-dependent,
        // recorded so the trace harness can see how far each round ran.
        crate::trace::branch();
        x = x.sqm(n);
        if x == *n_minus_1 {
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
    passes_trial_division(n) && miller_rabin(n, rounds, rng)
}

/// The rest of [`is_probable_prime`] for an odd `n > 3` that no table
/// prime divides unless `n` is that prime: what every candidate that
/// survives a search's sieve is, so the sieve stands in for trial
/// division.
///
/// Every value derived here determines `n`, which may become a secret
/// (a certificate prime `e`, an RSA factor): `n − 1`, `d`, the base range
/// and the owned Montgomery context are wiped before returning.
fn miller_rabin(n: &Ubig, rounds: u32, rng: &mut (impl RngCore + ?Sized)) -> bool {
    if n.to_u64().is_some_and(|v| v < TABLE_BOUND * TABLE_BOUND) {
        // Trial division was exhaustive for such small numbers.
        return true;
    }

    // n-1 = d * 2^s with d odd.
    let mut n_minus_1 = n.sub_u64(1);
    let s = n_minus_1
        .trailing_zeros()
        .expect("n-1 of odd n>2 is nonzero");
    let mut d = n_minus_1.shr(s);

    // One owned context for every round, wiped with the candidate.
    let mut ctx = MontCtx::new(n.clone());
    // Base 2, then `rounds` bases drawn from [2, n − 1) as `rng::range`
    // draws them, with the range's width computed once.
    let two = Ubig::from_u64(2);
    let mut width = n.sub_u64(3);
    let verdict = mr_round(&ctx, &n_minus_1, &two, &d, s)
        && (0..rounds).all(|_| {
            let base = two.add(&rng::below(rng, &width));
            mr_round(&ctx, &n_minus_1, &base, &d, s)
        });
    n_minus_1.wipe();
    d.wipe();
    width.wipe();
    ctx.wipe();
    verdict
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
        if let Some(p) = search_from(&start, bits, 8192, rng) {
            return p;
        }
    }
}

/// Incremental prime search: steps `start, start+2, start+4, ...` for up to
/// `max_steps` candidates, keeping residues modulo the small primes
/// incrementally so that most composites are rejected without any bignum
/// work. Candidates are also required to keep the requested bit-length.
fn search_from(
    start: &Ubig,
    bits: u32,
    max_steps: u64,
    rng: &mut (impl RngCore + ?Sized),
) -> Option<Ubig> {
    let primes = &table().primes;
    // residues[i] = start mod primes[i]
    let residues = table_residues(start);
    let mut offset = 0u64;
    while offset < max_steps * 2 {
        let divisible = primes
            .iter()
            .zip(&residues)
            .any(|(p, &r)| p.divides(r + offset) && !(offset == 0 && start.to_u64() == Some(p.p)));
        if !divisible {
            let candidate = start.add_u64(offset);
            if candidate.bits() != bits {
                return None; // walked out of the bit range; caller restarts
            }
            if miller_rabin(&candidate, DEFAULT_MR_ROUNDS, rng) {
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
    let primes = &table().primes;
    loop {
        // Search on q of (bits-1) bits; p = 2q+1 must avoid small factors
        // too, so both are filtered against the small-prime table
        // incrementally.
        let q = rng::random_odd_bits(rng, bits - 1);
        let mut steps = 0u32;
        let residues = table_residues(&q);
        let mut offset = 0u64;
        'search: while steps < 4096 {
            let bad = primes.iter().zip(&residues).any(|(p, &r)| {
                // q divisible by p, or p_candidate = 2q+1 divisible by p
                p.divides(r + offset) || p.divides(2 * (r + offset) + 1)
            });
            if !bad {
                let qc = q.add_u64(offset);
                if qc.bits() != bits - 1 {
                    break 'search;
                }
                if miller_rabin(&qc, DEFAULT_MR_ROUNDS, rng) {
                    let pc = qc.shl(1).add_u64(1);
                    if pc.bits() == bits && miller_rabin(&pc, DEFAULT_MR_ROUNDS, rng) {
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

    /// The trial division this module used before the grouped table: one
    /// `divrem_u64` per table prime, stopping at the first divisor or once
    /// `p² > n`. The reference the grouped path must agree with.
    fn per_prime_trial_division(n: &Ubig) -> bool {
        for p in &table().primes {
            let (q, r) = n.divrem_u64(p.p);
            if r == 0 {
                return n.to_u64() == Some(p.p);
            }
            if q < Ubig::from_u64(p.p) {
                return true;
            }
        }
        true
    }

    #[track_caller]
    fn agrees_with_per_prime_division(n: &Ubig) {
        let want: Vec<u64> = table().primes.iter().map(|p| n.divrem_u64(p.p).1).collect();
        assert_eq!(table_residues(n), want, "residues of {n:?}");
        assert_eq!(
            passes_trial_division(n),
            per_prime_trial_division(n),
            "verdict on {n:?}"
        );
    }

    #[test]
    fn table_covers_every_prime_below_the_bound() {
        let t = table();
        assert_eq!(t.primes.len(), 1028);
        assert_eq!((t.primes[0].p, t.primes[1027].p), (2, 8191));
        let mut next = 0;
        for g in &t.groups {
            assert_eq!(g.primes.start, next);
            assert!(g.m < 1 << GROUP_BITS);
            assert_eq!(
                g.m,
                t.primes[g.primes.clone()].iter().map(|p| p.p).product()
            );
            next = g.primes.end;
        }
        assert_eq!(next, t.primes.len());
    }

    #[test]
    fn divisibility_test_matches_the_remainder() {
        // The test holds for x < 2^32: probe both ends of that range.
        let top = u64::from(u32::MAX);
        for p in &table().primes {
            let near_top = (top / p.p) * p.p;
            let xs = [0, 1, p.p - 1, p.p, p.p + 1, 2 * p.p, near_top - 1, near_top];
            for x in xs
                .into_iter()
                .chain([near_top + 1, top])
                .map(|x| x.min(top))
            {
                assert_eq!(p.divides(x), x % p.p == 0, "{x} mod {}", p.p);
            }
        }
    }

    #[test]
    fn grouped_trial_division_matches_per_prime_division() {
        let mut r = rng();
        // Random values of 1 to 90 limbs: several fold blocks, and a short
        // top block at every length.
        for limbs in 1..=90u32 {
            agrees_with_per_prime_division(&rng::random_bits(&mut r, 64 * limbs));
            agrees_with_per_prime_division(&rng::random_odd_bits(&mut r, 64 * limbs - 5));
        }
        // Every table prime, alone and times a random 9-limb cofactor.
        let cofactor = rng::random_bits(&mut r, 9 * 64);
        for p in &table().primes {
            let p = Ubig::from_u64(p.p);
            agrees_with_per_prime_division(&p);
            agrees_with_per_prime_division(&p.mul(&cofactor));
        }
        // Products of two primes above the table: no table prime divides
        // them, so only the remainders tell the paths apart.
        let above = [8_209u64, 8_219, 65_537, 4_294_967_311, (1 << 61) - 1];
        for &p in &above {
            for &q in &above {
                agrees_with_per_prime_division(&Ubig::from_u64(p).mul(&Ubig::from_u64(q)));
            }
        }
        // The small-n path: everything up to 20,000 and around 8192².
        for n in (0..20_000u64).chain(8_192 * 8_192 - 500..8_192 * 8_192 + 500) {
            agrees_with_per_prime_division(&Ubig::from_u64(n));
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
