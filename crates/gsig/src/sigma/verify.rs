//! The verifier of every GSIG relation: one single check and one batch
//! check. Everything it exponentiates is transmitted or public data, so
//! it runs on the vartime Straus multi-exponentiation — the only GSIG
//! file allowed to (`lint-policy.toml`, `vartime-usage`). It checks
//! attacker-supplied proofs, so it must fail by verdict, never by panic.
//!
//! Before any exponentiation both checks reject every statement element
//! and every transmitted commitment outside `[1, n)`, and every response
//! outside its sphere; the single check then binds the challenge.
//!
//! # Batch verification: the small-exponent trick
//!
//! For relations that transmit their commitments `B_j` (the signatures),
//! each equation has the shape `B = Π base^exp` over public data. For a
//! batch of `k` proofs the verifier draws a random 128-bit coefficient
//! `z_{i,j}` per (proof, equation) pair and checks the single
//! accumulated equation
//!
//! ```text
//! Π_{i,j} B_{i,j}^{z_{i,j}}  ==  Π_{i,j} RHS_{i,j}^{z_{i,j}}
//! ```
//!
//! with two Straus multi-exponentiations. Terms pool by base identity:
//! a public-key base (`g, h, a, a0, b, y`) takes one term for the whole
//! batch, so its ladder cost is paid once, and a per-proof element
//! (`T2` is an image of `B1` and a base of `B3`) one term per proof.
//! KY records `13k + 6` modular exponentiations, ACJT `7k + 5`.
//!
//! # Soundness: comparing in `QR(n)`
//!
//! The small-exponent argument needs a group with no small-order
//! elements, and `Z_n^*` is *not* one: it contains the publicly
//! computable order-2 element `n − 1`. Combined naively in `Z_n^*`, a
//! signer could negate one transmitted commitment (`B' = n − B`) and
//! recompute `c` and the responses; the combined equation would then
//! deviate by exactly `(−1)^z` — passing whenever `z` is even, i.e.
//! half of all draws (and per bisection subset, singletons included).
//! Both checks therefore compare the group equations in `QR(n)`: the
//! single check squares both sides, the batch check doubles every
//! combination coefficient (the same squaring, distributed into the
//! exponents). Each equation's deviation `D = B'/RHS` is thereby
//! squared, and `D²` has odd order `∈ {1, p', q', p'q'}` with
//! `p', q' ≫ 2^128`: if some `D² ≠ 1`, the combination survives only
//! when the adversary predicts `z` — probability `2^-128` per
//! coefficient, which are drawn from a DRBG seeded Fiat–Shamir-style
//! from the *entire batch content*, so they are fixed only after every
//! proof is. If instead every `D² = 1`, then `D = ±1` — any other
//! square root of 1 exhibits a nontrivial root pair and thereby factors
//! `n` — and every squared single equation holds, i.e. the single check
//! accepts too.
//!
//! The flip side of the quotient: a commitment negated by its *own*
//! signer (who must re-derive `c` and the responses, so only a key
//! holder can do it) is accepted by both checks — benign
//! sign-malleability with cofactored semantics, the same resolution
//! batch Ed25519 verifiers adopt for their order-8 subgroup. What
//! matters is that both paths agree on every input;
//! `crates/gsig/tests/batch_equiv.rs` plants exactly this corruption.
//!
//! Soundness also requires the cheap checks (element ranges, response
//! spheres, challenge hash) to run per proof before the combination:
//! only the group equations are ever merged. On failure the batch is
//! bisected to isolate the offending indices, with fresh coefficients
//! per subset.

use super::{Base, Bind, Equation, Relation, Transcript, Witness};
use rand::RngCore;
use shs_bigint::{Int, Ubig};
use shs_crypto::drbg::HmacDrbg;
use shs_crypto::sha256::Sha256;

/// A proof as received: `(transmitted commitments, challenge, responses)`.
/// Without transmitted commitments the verifier recomputes and re-hashes
/// them; with them it compares in `QR(n)`.
pub(crate) struct Proof<'a>(
    pub(crate) Option<&'a [Ubig]>,
    pub(crate) &'a Ubig,
    pub(crate) Vec<&'a Int>,
);

/// Outcome of a batch verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchOutcome {
    /// Every signature in the batch verified.
    AllValid,
    /// At least one signature failed; the sorted indices of the invalid
    /// ones (into the caller's batch slice).
    Invalid(Vec<usize>),
}

impl BatchOutcome {
    /// Collapses a list of bad indices into an outcome.
    fn from_invalid(mut bad: Vec<usize>) -> BatchOutcome {
        if bad.is_empty() {
            BatchOutcome::AllValid
        } else {
            bad.sort_unstable();
            bad.dedup();
            BatchOutcome::Invalid(bad)
        }
    }

    /// Did every signature verify?
    pub fn all_valid(&self) -> bool {
        matches!(self, BatchOutcome::AllValid)
    }

    /// The invalid indices (empty when all valid).
    pub fn invalid(&self) -> &[usize] {
        match self {
            BatchOutcome::AllValid => &[],
            BatchOutcome::Invalid(v) => v,
        }
    }

    /// Is index `i` valid under this outcome?
    pub fn is_valid(&self, i: usize) -> bool {
        !self.invalid().contains(&i)
    }
}

/// The single check: every equation's right-hand side, then either the
/// comparison in `QR(n)` or the re-hash.
pub(crate) fn single(rel: &Relation<'_>, proof: &Proof<'_>) -> bool {
    if !cheap_checks_hold(rel, proof) {
        return false;
    }
    let sides = right_sides(rel, proof);
    let rhs: Vec<Ubig> = sides.iter().map(|terms| multi_exp(rel, terms)).collect();
    let square = |v: &Ubig| rel.rsa.mul(v, v);
    match proof.0 {
        Some(b) => rhs.iter().zip(b).all(|(r, b)| square(r) == square(b)),
        None => rel.transcript(&rhs).challenge(rel.k) == *proof.1,
    }
}

/// Element ranges, response spheres and, for transmitted commitments,
/// the challenge binding. No exponentiations.
fn cheap_checks_hold(rel: &Relation<'_>, Proof(commitments, c, responses): &Proof<'_>) -> bool {
    let bound = rel.bind.iter().filter_map(|item| match *item {
        Bind::Elem(_, v) => Some(v),
        Bind::Public(..) | Bind::Bytes(..) => None,
    });
    let bases = rel
        .eqs
        .iter()
        .flat_map(|eq| eq.0.iter().map(|t| t.0).chain(eq.1.map(|i| i.0)));
    let elements = bases
        .filter(|b| !matches!(b, Base::Key(_)))
        .map(|b| b.value());
    let n = rel.rsa.n();
    let mut all = bound
        .chain(elements)
        .chain(commitments.iter().copied().flatten());
    let mut spheres = rel.witnesses.iter().zip(responses);
    all.all(|v| !v.is_zero() && v < n)
        && responses.len() == rel.witnesses.len()
        && spheres.all(|(w, s)| s.magnitude().bits() <= w.1 + 1)
        && commitments
            .is_none_or(|b| b.len() == rel.eqs.len() && rel.transcript(b).challenge(rel.k) == **c)
}

/// Every equation's right-hand side as `(base, exponent)` terms:
/// `base^{±(s − c·o)}` per term, then `image^{±c}`. Each witness's
/// exponent `s − c·o` is computed once.
fn right_sides<'a>(rel: &Relation<'a>, Proof(_, c, s): &Proof<'_>) -> Vec<Vec<(Base<'a>, Int)>> {
    let c = Int::from_ubig((*c).clone());
    let exps: Vec<Int> = rel
        .witnesses
        .iter()
        .zip(s)
        .map(|(w, s)| s.sub(&c.mul(&w.centre())))
        .collect();
    let signed = |e: &Int, neg: bool| if neg { e.neg() } else { e.clone() };
    let side = |eq: &Equation<'a>| {
        let terms = eq
            .0
            .iter()
            .map(|&(base, w, neg)| (base, exps.get(w).map_or_else(Int::zero, |e| signed(e, neg))));
        terms
            .chain(eq.1.map(|(image, neg)| (image, signed(&c, neg))))
            .collect()
    };
    rel.eqs.iter().map(side).collect()
}

/// `Π base^e`: one vartime multi-exp, one modular exponentiation per term.
fn multi_exp(rel: &Relation<'_>, terms: &[(Base<'_>, Int)]) -> Ubig {
    let refs: Vec<(&Ubig, &Int)> = terms.iter().map(|(b, e)| (b.value(), e)).collect();
    rel.rsa.multi_exp_vartime(&refs)
}

/// The batch check over `(relation, proof)` pairs of one scheme with
/// transmitted commitments. `admit(i)` is the scheme's own check (KY's
/// `T7` pin); a proof failing it or the cheap checks is invalid without
/// entering the combination. Agrees with [`single`] on every item up to
/// the 2⁻¹²⁸ combination soundness bound.
pub(crate) fn batch(
    items: &[(Relation<'_>, Proof<'_>)],
    admit: impl Fn(usize) -> bool,
) -> BatchOutcome {
    let checks_hold = |(rel, proof): &(Relation<'_>, Proof<'_>)| {
        proof.0.is_some() && cheap_checks_hold(rel, proof)
    };
    let (survivors, mut bad): (Vec<usize>, Vec<usize>) =
        (0..items.len()).partition(|&i| admit(i) && items.get(i).is_some_and(checks_hold));
    if let (Some((first, _)), false) = (items.first(), survivors.is_empty()) {
        let digest = batch_digest(first, items);
        let mut rlc = |subset: &[usize]| combination_holds(first, items, subset, &digest);
        isolate_invalid(&survivors, &mut rlc, &mut bad);
    }
    BatchOutcome::from_invalid(bad)
}

/// Binds the coefficient DRBG to the entire batch content — each item's
/// statement without its public values, then its commitments, challenge
/// and responses — so the coefficients are fixed only after every proof.
fn batch_digest(first: &Relation<'_>, items: &[(Relation<'_>, Proof<'_>)]) -> Vec<u8> {
    let mut tr = Transcript::new(&format!("{}-batch", first.domain));
    tr.append_ubig("n", first.rsa.n());
    for (rel, Proof(commitments, c, responses)) in items {
        rel.bind_into(&mut tr, false, commitments.unwrap_or_default());
        tr.append_ubig("c", c);
        for (&Witness(label, ..), s) in rel.witnesses.iter().zip(responses) {
            tr.append_int(label, s);
        }
    }
    tr.challenge(256).to_bytes_be()
}

/// The combined group equation over `subset`:
/// `Π B_{i,j}^{2·z_{i,j}} == Π RHS_{i,j}^{2·z_{i,j}}`, two multi-exps.
/// Doubling every coefficient squares both sides, i.e. compares in
/// `QR(n)` exactly like the single check. Right-hand terms pool by base
/// identity: a key field across the subset, a proof's element within it.
fn combination_holds(
    first: &Relation<'_>,
    items: &[(Relation<'_>, Proof<'_>)],
    subset: &[usize],
    digest: &[u8],
) -> bool {
    let mut coeff = coefficients(first.domain, digest, subset);
    let (mut lhs, mut rhs) = (Vec::new(), Vec::new());
    for (rel, proof) in subset.iter().filter_map(|&i| items.get(i)) {
        for (terms, b) in right_sides(rel, proof)
            .into_iter()
            .zip(proof.0.unwrap_or_default())
        {
            let z = coeff().mul(&Int::from_i64(2));
            for (base, e) in terms {
                pool_term(&mut rhs, base, z.mul(&e));
            }
            lhs.push((Base::Direct(b), z));
        }
    }
    multi_exp(first, &lhs) == multi_exp(first, &rhs)
}

/// Adds `e` to the exponent of the term whose base is `base` itself (the
/// same value in memory), or opens a term.
fn pool_term<'a>(pool: &mut Vec<(Base<'a>, Int)>, base: Base<'a>, e: Int) {
    match pool
        .iter_mut()
        .find(|(b, _)| std::ptr::eq(b.value(), base.value()))
    {
        Some((_, acc)) => *acc = acc.add(&e),
        None => pool.push((base, e)),
    }
}

/// A deterministic stream of nonzero 128-bit combination coefficients,
/// seeded from the batch digest and the subset under test (so bisection
/// re-draws fresh coefficients for every subset). Each is uniform in
/// `[1, 2^128)`: zero would void one equation's contribution, so it is
/// remapped.
fn coefficients(domain: &str, digest: &[u8], subset: &[usize]) -> impl FnMut() -> Int {
    let mut h = Sha256::new();
    h.update(b"shs-gsig-batch-coeffs");
    h.update(&(domain.len() as u64).to_be_bytes());
    h.update(domain.as_bytes());
    h.update(digest);
    h.update(&(subset.len() as u64).to_be_bytes());
    for &i in subset {
        h.update(&(i as u64).to_be_bytes());
    }
    let mut drbg = HmacDrbg::from_seed(&h.finalize());
    move || {
        let mut bytes = [0u8; 16];
        drbg.fill_bytes(&mut bytes);
        let z = Ubig::from_bytes_be(&bytes);
        if z.is_zero() {
            Int::one()
        } else {
            Int::from_ubig(z)
        }
    }
}

/// Bisection fallback: narrows a failed combined check down to the
/// individual proofs violating their equations. Subsets that pass are
/// accepted wholesale, failing subsets are split until singletons remain
/// (a singleton's check is its own exact equation set under fresh
/// coefficients).
fn isolate_invalid(subset: &[usize], rlc: &mut dyn FnMut(&[usize]) -> bool, bad: &mut Vec<usize>) {
    if subset.is_empty() || rlc(subset) {
        return;
    }
    if let [only] = subset {
        bad.push(*only);
        return;
    }
    let (left, right) = subset.split_at(subset.len() / 2);
    isolate_invalid(left, rlc, bad);
    isolate_invalid(right, rlc, bad);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_sorts_and_dedups() {
        assert_eq!(BatchOutcome::from_invalid(vec![]), BatchOutcome::AllValid);
        let o = BatchOutcome::from_invalid(vec![3, 1, 3]);
        assert_eq!(o, BatchOutcome::Invalid(vec![1, 3]));
        assert!(!o.is_valid(1));
        assert!(o.is_valid(0));
    }

    #[test]
    fn coeffs_are_deterministic_per_subset() {
        let a = coefficients("t", b"digest", &[0, 1])();
        let b = coefficients("t", b"digest", &[0, 1])();
        assert_eq!(a, b);
        let c = coefficients("t", b"digest", &[0])();
        assert_ne!(a, c, "subset is part of the seed");
    }

    #[test]
    fn bisection_finds_planted_indices() {
        let bad_set = [2usize, 7];
        let all: Vec<usize> = (0..10).collect();
        let mut calls = 0usize;
        let mut rlc = |s: &[usize]| {
            calls += 1;
            !s.iter().any(|i| bad_set.contains(i))
        };
        let mut bad = Vec::new();
        isolate_invalid(&all, &mut rlc, &mut bad);
        bad.sort_unstable();
        assert_eq!(bad, vec![2, 7]);
        assert!(calls < 20, "logarithmic, not linear: {calls}");
    }
}
