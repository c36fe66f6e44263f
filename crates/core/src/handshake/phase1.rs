//! Phase I (Preparation): distributed group key agreement, then the
//! CGKD blinding `k'_i = k* ⊕ k_i`.

use crate::config::DgkaChoice;
use crate::handshake::engine::{meter, note_send, Exchanger};
use crate::handshake::{AbortReason, Actor, SlotCosts, SlotState};
use crate::substrate::dgka::Phase1Slot;
use crate::CoreError;
use rand::RngCore;
use shs_crypto::Key;
use shs_groups::schnorr::SchnorrGroup;

/// Runs the configured key agreement for session slots
/// `first..first + costs.len()`: builds one
/// [`crate::substrate::DgkaSlot`] per slot through the factory and
/// drives them through their broadcast rounds. Each round, every slot
/// emits (metered, send-accounted), one budgeted exchange runs with the
/// slots' own `validate` as the acceptance test, and every slot absorbs
/// its view (metered; an incomplete view carries the engine's abort
/// reason). Finally every slot derives its Phase-I output (metered).
/// The protocol-specific logic lives entirely in the slots.
///
/// # Errors
///
/// Parameter rejections surface as [`CoreError::Dgka`]; network errors
/// are propagated.
pub(crate) fn run(
    dgka: DgkaChoice,
    group: &'static SchnorrGroup,
    first: usize,
    ex: &mut Exchanger<'_>,
    costs: &mut [SlotCosts],
    rng: &mut dyn RngCore,
) -> Result<Vec<(Phase1Slot, Option<AbortReason>)>, CoreError> {
    let m = ex.slots();
    let mut slots = Vec::with_capacity(costs.len());
    for i in first..first + costs.len() {
        slots.push(crate::factory::dgka_slot(dgka, group, m, i, rng)?);
    }
    let rounds = slots.first().map_or(0, |s| s.rounds());
    for t in 0..rounds {
        let mut outgoing = Vec::with_capacity(slots.len());
        for (slot, cost) in slots.iter_mut().zip(costs.iter_mut()) {
            let payload = meter(cost, || slot.emit(t, rng));
            note_send(cost, &payload);
            outgoing.push(payload);
        }
        let label = slots.first().map_or(String::new(), |s| s.round_label(t));
        let views = ex.round(&label, &outgoing, &mut |k, from, p| {
            slots.get(k).is_some_and(|s| s.validate(t, from, p))
        })?;
        for ((slot, cost), view) in slots.iter_mut().zip(costs.iter_mut()).zip(&views) {
            let incomplete = view.iter().any(Option::is_none).then(|| ex.abort_reason());
            meter(cost, || slot.absorb(t, view, incomplete, rng));
        }
    }
    let mut out = Vec::with_capacity(slots.len());
    for (slot, cost) in slots.iter_mut().zip(costs.iter_mut()) {
        out.push(meter(cost, || slot.finish(rng)));
    }
    Ok(out)
}

/// `k'_i = k* ⊕ k_i` for session slots `first..`. A slot that aborted
/// in Phase I holds a random `k*`, so its `k'` is uniform — exactly an
/// outsider's distribution (outsiders hold a random "group key" for the
/// same reason).
pub(crate) fn bind_group_keys<'a>(
    actors: &'a [Actor<'a>],
    first: usize,
    phase1: Vec<(Phase1Slot, Option<AbortReason>)>,
    rng: &mut dyn RngCore,
) -> Vec<SlotState<'a>> {
    let mut slots = Vec::with_capacity(actors.len());
    for (k, (actor, (p1, _))) in actors.iter().zip(phase1).enumerate() {
        let k_i = match actor {
            Actor::Member(member) => member.group_key().clone(),
            Actor::Outsider => Key::random(rng),
        };
        let k_prime = p1.k_star.xor(&k_i);
        slots.push(SlotState {
            actor,
            index: first + k,
            sid: p1.sid,
            k_prime,
            contributions: p1.contributions,
            seen_tags: Vec::new(),
            delta_set: Vec::new(),
            own_t6: None,
        });
    }
    slots
}
