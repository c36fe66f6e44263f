//! Phase II (Preliminary handshake): CGKD-keyed MAC tags and the
//! co-member set `Δ`.

use crate::handshake::engine::{note_send, Exchanger};
use crate::handshake::{SlotCosts, SlotState};
use crate::CoreError;
use shs_crypto::{hmac, Key};

/// `MAC(k'_i, sid ‖ s_i ‖ i)` where `s_i` is the party's Phase-I
/// contribution.
fn phase2_tag(k_prime: &Key, sid: &[u8], contribution: &[u8], slot: usize) -> Vec<u8> {
    hmac::HmacSha256::new(k_prime.as_bytes())
        .chain(b"gcd-phase2")
        .chain(sid)
        .chain(&(contribution.len() as u64).to_be_bytes())
        .chain(contribution)
        .chain(&(slot as u64).to_be_bytes())
        .finalize()
        .to_vec()
}

/// Broadcasts every driven slot's tag and computes its `Δ` — the set
/// of slots whose tags verify under this slot's `k'` (membership in the
/// same group, via the same CGKD epoch key).
///
/// # Errors
///
/// Network errors from the exchange are propagated.
pub(crate) fn run(
    slots: &mut [SlotState<'_>],
    ex: &mut Exchanger<'_>,
    costs: &mut [SlotCosts],
) -> Result<(), CoreError> {
    let mut out_tags = Vec::with_capacity(slots.len());
    let mut tag_len = 0;
    for (slot, cost) in slots.iter().zip(costs.iter_mut()) {
        let own = contribution(slot, slot.index);
        let tag = phase2_tag(&slot.k_prime, &slot.sid, own, slot.index);
        note_send(cost, &tag);
        tag_len = tag.len();
        out_tags.push(tag);
    }
    // A tag of the wrong size was tampered in transit and worth a
    // retransmission; a right-sized tag that fails to verify is
    // indistinguishable from a non-member's and must NOT be retried.
    let views = ex.round("phase2-mac", &out_tags, &mut |_, _, p| p.len() == tag_len)?;
    for (slot, view) in slots.iter_mut().zip(views) {
        let seen: Vec<Vec<u8>> = view.into_iter().map(Option::unwrap_or_default).collect();
        let mut delta = Vec::new();
        for (j, seen_j) in seen.iter().enumerate() {
            if j == slot.index {
                delta.push(j);
                continue;
            }
            let expected = phase2_tag(&slot.k_prime, &slot.sid, contribution(slot, j), j);
            if shs_crypto::ct::eq(&expected, seen_j) {
                delta.push(j);
            }
        }
        slot.seen_tags = seen;
        slot.delta_set = delta;
    }
    Ok(())
}

/// Slot `j`'s Phase-I contribution as `slot` received it.
fn contribution<'s>(slot: &'s SlotState<'_>, j: usize) -> &'s [u8] {
    slot.contributions.get(j).map_or(&[], Vec::as_slice)
}
