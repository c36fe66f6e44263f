//! The first join message, the same in both schemes: the member draws a
//! secret `x ∈ Λ`, commits to `C = base^x` and proves knowledge of `x`.
//! ACJT commits under `a`, KY under `b` (to its claiming secret `x'`).

use crate::params::GsigParams;
use crate::sigma::prove::prove;
use crate::sigma::verify::{self as verifier, Proof};
use crate::sigma::{Base, Bind, Equation, KeyBase, Relation, Witness, PLUS};
use crate::GsigError;
use rand::RngCore;
use shs_bigint::{Int, Ubig};

/// A member's first join message: the commitment `C = base^x` to its
/// secret plus a proof of knowledge of `x ∈ Λ`.
#[derive(Debug, Clone)]
pub struct JoinRequest {
    /// `C = a^x` in ACJT, `C = b^{x'}` in KY.
    pub commitment: Ubig,
    /// Challenge of the proof of knowledge.
    pub pok_c: Ubig,
    /// Response of the proof.
    pub pok_s: Int,
}

/// The member's private state between the two join messages: its secret
/// exponent, wiped on drop.
pub struct JoinSecret {
    pub(crate) x: Ubig,
}

impl std::fmt::Debug for JoinSecret {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JoinSecret(****)")
    }
}

impl JoinSecret {
    /// Zeroizes the private exponent in place. Called automatically on
    /// drop.
    fn wipe_in_place(&mut self) {
        self.x.wipe();
    }

    /// Moves the exponent out, leaving zero for the drop to wipe.
    pub(crate) fn take(mut self) -> Ubig {
        std::mem::take(&mut self.x)
    }
}

impl Drop for JoinSecret {
    fn drop(&mut self) {
        self.wipe_in_place();
    }
}

/// A scheme's join statement: `(Fiat–Shamir domain, parameters, the key
/// base members commit under)`.
#[derive(Clone, Copy)]
pub(crate) struct Join<'a>(
    pub(crate) &'static str,
    pub(crate) &'a GsigParams,
    pub(crate) KeyBase<'a>,
);

impl Join<'_> {
    /// The join proof: `base^x = C` with `x ∈ Λ`.
    fn relation<'b>(&'b self, commitment: &'b Ubig) -> Relation<'b> {
        let Join(domain, p, base) = *self;
        let image = Base::Direct(commitment);
        Relation {
            domain,
            rsa: base.rsa,
            k: p.k,
            bind: vec![
                Bind::Public(base.label, base.value),
                Bind::Elem("C", commitment),
            ],
            witnesses: vec![Witness("s", p.blind_bits(p.lambda2), Some(p.lambda1))],
            eqs: vec![Equation(
                vec![(Base::Key(base), 0, PLUS)],
                Some((image, PLUS)),
            )],
            commitments: &["B"],
        }
    }

    /// Member side, step 1: draws `x ∈ Λ`, commits and proves.
    pub(crate) fn start(&self, rng: &mut (impl RngCore + ?Sized)) -> (JoinSecret, JoinRequest) {
        let join_secret = self.1.sample_lambda(rng);
        let commitment = self.2.pow_u(&join_secret);
        let rel = self.relation(&commitment);
        let ([_], pok_c, [pok_s]) = prove(&rel, [&join_secret], None, rng);
        let request = JoinRequest {
            commitment,
            pok_c,
            pok_s,
        };
        (JoinSecret { x: join_secret }, request)
    }

    /// Manager side: checks the request's proof, drawing nothing.
    ///
    /// # Errors
    ///
    /// [`GsigError::JoinRejected`] when the proof fails.
    pub(crate) fn check(&self, req: &JoinRequest) -> Result<(), GsigError> {
        let pok = Proof(None, &req.pok_c, vec![&req.pok_s]);
        let ok = verifier::single(&self.relation(&req.commitment), &pok);
        GsigError::JoinRejected.unless(ok)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_secret_drop_path_wipes_exponent() {
        // Exercises the exact routine `drop` runs; post-drop memory cannot
        // be inspected from safe code.
        let mut s = JoinSecret {
            x: Ubig::from_u64(0xdead_beef),
        };
        s.wipe_in_place();
        assert!(s.x.is_zero());
    }
}
