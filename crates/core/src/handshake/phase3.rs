//! Phase III (Full handshake): the `(θ, δ)` broadcast, signature
//! verification against the CRL, self-distinction, and session-key
//! derivation.

use crate::config::HandshakeOptions;
use crate::handshake::decoy::phase3_decoy;
use crate::handshake::engine::{meter, note_send, Exchanger};
use crate::handshake::{AbortReason, Actor, SlotCosts, SlotParams, SlotState};
use crate::transcript::{HandshakeTranscript, TranscriptEntry};
use crate::{codec, CoreError};
use rand::RngCore;
use shs_bigint::Ubig;
use shs_crypto::{aead, Key};
use shs_groups::cs;
use shs_groups::schnorr::SchnorrGroup;

/// Runs Phase III for the driven slots: each broadcasts a real or
/// decoy `(θ, δ)` frame, members verify their co-members' signatures,
/// and scheme 2 flags duplicate `T6` values. Returns the driven slots'
/// transcript entries plus their `verified` and `duplicate` sets.
///
/// # Errors
///
/// Network and codec errors are propagated.
#[allow(clippy::too_many_arguments, clippy::type_complexity)]
pub(crate) fn run(
    slots: &mut [SlotState<'_>],
    aborts: &[Option<AbortReason>],
    group: &'static SchnorrGroup,
    mimic: &SlotParams,
    opts: &HandshakeOptions,
    ex: &mut Exchanger<'_>,
    costs: &mut [SlotCosts],
    rng: &mut dyn RngCore,
) -> Result<(HandshakeTranscript, Vec<Vec<usize>>, Vec<Vec<usize>>), CoreError> {
    let m = ex.slots();
    let n = slots.len();
    let mut transcript = HandshakeTranscript::default();
    let mut verified: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut duplicates: Vec<Vec<usize>> = vec![Vec::new(); n];

    let mut out_p3 = Vec::with_capacity(n);
    for ((slot, cost), abort) in slots.iter_mut().zip(costs.iter_mut()).zip(aborts) {
        // Aborted slots publish decoys: on the wire they look exactly
        // like a member whose handshake merely failed.
        let publish_real = abort.is_none()
            && match slot.actor {
                Actor::Member(_) => {
                    slot.delta_set.len() == m || (opts.partial_success && slot.delta_set.len() >= 2)
                }
                Actor::Outsider => false,
            };
        let payload = meter(cost, || {
            phase3_payload(slot, group, mimic, publish_real, rng)
        })?;
        note_send(cost, &payload);
        out_p3.push(payload);
    }
    // An undecodable (θ, δ) frame was tampered in transit: retry. A
    // decodable frame that fails to decrypt/verify is an ordinary
    // non-member signal and is not retried.
    let views = ex.round("phase3-full", &out_p3, &mut |_, _, p| decode_p3(p).is_ok())?;

    // Build the public transcript (slot order) from the broadcast.
    if let Some(slot) = slots.first() {
        transcript.sid = slot.sid.clone();
    }
    for payload in &out_p3 {
        let (theta, delta) = decode_p3(payload)?;
        transcript.entries.push(TranscriptEntry { theta, delta });
    }

    // Verification (aborted slots are decoy senders; they verify
    // nothing). Each active member slot verifies its m−1 peer frames
    // independently of every other slot, so the slots fan out onto the
    // worker pool; results and modexp counts come back in slot order and
    // the outcome is byte-identical to a sequential run.
    let slots = &*slots;
    let workers = crate::pool::verify_workers(n, opts.parallel_verify);
    let per_slot = crate::pool::run_indexed(n, workers, |k| {
        let slot = &slots[k];
        let Actor::Member(member) = slot.actor else {
            return None;
        };
        if aborts[k].is_some() {
            return None;
        }
        // The op counters are thread-local: measure on the worker and
        // carry the delta home in the result.
        let (counts, outcome) =
            shs_bigint::counters::measure(|| verify_slot(slot, member, &views[k]));
        Some((outcome, counts.modexp))
    });
    for (k, result) in per_slot.into_iter().enumerate() {
        let Some(((v, d), modexp)) = result else {
            continue;
        };
        verified[k] = v;
        duplicates[k] = d;
        costs[k].modexp += modexp;
    }
    Ok((transcript, verified, duplicates))
}

/// One slot's Phase-III verification: checks every co-member frame in
/// this slot's view and flags duplicate `T6` values (self-distinction).
/// Returns `(verified, duplicates)` for the slot.
fn verify_slot(
    slot: &SlotState<'_>,
    member: &crate::member::Member,
    view: &[Option<Vec<u8>>],
) -> (Vec<usize>, Vec<usize>) {
    let i = slot.index;
    let mut verified = Vec::new();
    let mut duplicates = Vec::new();
    let expected_t7 = member
        .scheme()
        .self_distinct()
        .then(|| member.credential().common_t7(&sd_basis(slot)))
        .flatten();
    let mut t6_seen: Vec<(usize, Ubig)> = Vec::new();
    if let Some(t6) = &slot.own_t6 {
        t6_seen.push((i, t6.clone()));
    }
    // Gather every decryptable peer frame first, then verify the whole
    // set in one batch call: the scheme combines the m−1 public-data
    // verify equations into a single multi-exp pass (outcome-identical
    // to per-frame verification; frames that fail to decode or decrypt
    // never reach the batch, exactly as they never reached `verify`).
    let mut pending: Vec<(usize, Vec<u8>, Vec<u8>)> = Vec::new();
    for (j, payload) in view.iter().enumerate() {
        if j == i || !slot.delta_set.contains(&j) {
            continue;
        }
        let Some(payload) = payload else {
            continue;
        };
        let Ok((theta, delta_bytes)) = decode_p3(payload) else {
            continue;
        };
        let Ok(sig_bytes) = aead::open(&slot.k_prime, &theta, &slot.sid) else {
            continue;
        };
        let mut msg = delta_bytes;
        msg.extend_from_slice(&slot.sid);
        pending.push((j, msg, sig_bytes));
    }
    let items: Vec<(&[u8], &[u8])> = pending
        .iter()
        .map(|(_, msg, sig)| (msg.as_slice(), sig.as_slice()))
        .collect();
    let outcomes = member
        .credential()
        .verify_batch(&items, expected_t7.as_ref(), &member.crl);
    for ((j, _, _), ok) in pending.iter().zip(outcomes) {
        if let Some(t6) = ok {
            verified.push(*j);
            if let Some(t6) = t6 {
                t6_seen.push((*j, t6));
            }
        }
    }
    // Self-distinction: flag every slot whose T6 collides.
    for (a_idx, (slot_a, t6_a)) in t6_seen.iter().enumerate() {
        for (slot_b, t6_b) in t6_seen.iter().skip(a_idx + 1) {
            if t6_a == t6_b {
                if !duplicates.contains(slot_a) {
                    duplicates.push(*slot_a);
                }
                if !duplicates.contains(slot_b) {
                    duplicates.push(*slot_b);
                }
            }
        }
    }
    duplicates.sort_unstable();
    (verified, duplicates)
}

/// Self-distinction basis: the concatenation of everything sent in Phases
/// I and II, as this slot saw it (§8.2: "the concatenation of all messages
/// sent by the handshake participants").
fn sd_basis(slot: &SlotState<'_>) -> Vec<u8> {
    let mut basis = b"gcd-sd-basis".to_vec();
    basis.extend_from_slice(&slot.sid);
    for part in slot.contributions.iter().chain(&slot.seen_tags) {
        basis.extend_from_slice(&(part.len() as u64).to_be_bytes());
        basis.extend_from_slice(part);
    }
    basis
}

fn phase3_payload(
    slot: &mut SlotState<'_>,
    group: &'static SchnorrGroup,
    mimic: &SlotParams,
    publish_real: bool,
    rng: &mut dyn RngCore,
) -> Result<Vec<u8>, CoreError> {
    // `publish_real` is only ever set for members (outsiders have nothing
    // to publish); an outsider slot falls through to the decoy arm rather
    // than panicking.
    let (theta, delta_bytes) = if let (true, Actor::Member(member)) = (publish_real, slot.actor) {
        let delta = cs::encrypt(group, &member.tracing_pk, slot.k_prime.as_bytes(), rng);
        let delta_bytes = codec::encode_delta(group, &delta);
        let mut msg = delta_bytes.clone();
        msg.extend_from_slice(&slot.sid);
        let basis = member.scheme().self_distinct().then(|| sd_basis(slot));
        let (sig_bytes, t6) = member.credential().sign(&msg, basis.as_deref(), rng);
        slot.own_t6 = t6;
        let theta = aead::seal(&slot.k_prime, &sig_bytes, &slot.sid, rng);
        (theta, delta_bytes)
    } else {
        // CASE 2: decoys drawn from the same ciphertext spaces (§7).
        phase3_decoy(slot.actor, group, mimic, rng)
    };
    let mut w = crate::wire::Writer::new();
    w.put_bytes(&theta);
    w.put_bytes(&delta_bytes);
    Ok(w.into_bytes())
}

fn decode_p3(bytes: &[u8]) -> Result<(Vec<u8>, Vec<u8>), CoreError> {
    let mut r = crate::wire::Reader::new(bytes);
    let theta = r.take_bytes()?;
    let delta = r.take_bytes()?;
    r.finish()?;
    Ok((theta, delta))
}

/// The established session key: derived from `k'`, the session id and
/// the accepted co-member set.
pub(crate) fn derive_session_key(k_prime: &Key, sid: &[u8], delta: &[usize]) -> Key {
    let mut ikm = k_prime.as_bytes().to_vec();
    ikm.extend_from_slice(sid);
    for &s in delta {
        ikm.extend_from_slice(&(s as u64).to_be_bytes());
    }
    Key::derive(&ikm, "gcd-session-key")
}
