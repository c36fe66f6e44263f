//! `GCD.Handshake` — the three-phase multi-party secret handshake of §7,
//! executed over the anonymous broadcast medium of `shs-net`.
//!
//! * **Phase I (Preparation)** — distributed group key agreement
//!   (Burmester–Desmedt by default; GDH.2 and the Katz–Yung
//!   authenticated variant selectable) yields `k*`; each party blinds it
//!   with its CGKD group key: `k'_i = k* ⊕ k_i`.
//! * **Phase II (Preliminary handshake)** — each party publishes
//!   `MAC(k'_i, s_i ‖ i)`; a tag verifies under `k'_j` iff the two parties
//!   hold the same group key. Each party thereby learns its co-member set
//!   `Δ` (the partially-successful-handshake extension).
//! * **Phase III (Full handshake)** — parties in a big-enough `Δ` publish
//!   `(θ_i, δ_i)` where `δ_i = ENC(pk_T, k'_i)` and
//!   `θ_i = SENC(k'_i, GSIG.Sign(δ_i ‖ sid))`; everyone else publishes
//!   decoys drawn uniformly from the same ciphertext spaces, so failures
//!   are indistinguishable from successes on the wire. Scheme 2
//!   additionally forces the common `T7 = H→QR(transcript)` and flags
//!   duplicate `T6` values (self-distinction).
//!
//! # Module structure
//!
//! This module is the orchestrator: it owns the public session types and
//! the phase sequence, written once (`run_slots`) for both drivers. The
//! lockstep driver ([`run_handshake_with_net`]) runs every slot of a
//! session over a [`Medium`]; the per-party driver ([`party::run_party`])
//! runs one slot over a [`shs_net::PartyLink`]. Both are thin wrappers
//! that validate the session and package the result. The moving parts
//! live in focused submodules — `engine` (the budgeted exchange engine,
//! the only retry loop, over either transport),
//! `phase1`/`phase2`/`phase3` (one file per protocol phase; Phase I
//! drives the [`crate::substrate::DgkaSlot`] state machines), and
//! `decoy` (every decoy/chaff construction in one place, since abort
//! indistinguishability depends on their shapes).
//!
//! # Hardened runtime
//!
//! The driver tolerates a lossy, malicious medium (see `shs-net`'s
//! fault injection): every broadcast exchange is retried within the
//! session's [`crate::config::SessionBudget`] when expected messages are
//! missing or undecodable, and a slot that still cannot proceed
//! **aborts structurally** — [`Outcome::abort`] carries an
//! [`AbortReason`] instead of the session hanging or returning a global
//! error. Crucially for unobservability, an aborting slot keeps
//! participating as a *decoy sender*: it transmits chaff and decoy
//! payloads of exactly the shapes an ordinary failed handshake would
//! produce, so an eavesdropper cannot tell a fault-induced abort from a
//! run-of-the-mill membership mismatch.

pub(crate) mod decoy;
pub(crate) mod engine;
pub mod party;
mod phase1;
mod phase2;
mod phase3;

use crate::config::{HandshakeOptions, SchemeKind, TracePolicy};
use crate::member::Member;
use crate::transcript::HandshakeTranscript;
use crate::CoreError;
use rand::RngCore;
use shs_bigint::Ubig;
use shs_crypto::Key;
use shs_groups::schnorr::{SchnorrGroup, SchnorrPreset};
use shs_gsig::params::{GsigParams, GsigPreset};
use shs_net::observe::TrafficLog;
use shs_net::sync::BroadcastNet;
use shs_net::Medium;

/// A participant slot in a handshake session.
pub enum Actor<'a> {
    /// A group member with real credentials.
    Member(&'a Member),
    /// An adversary without credentials for any relevant group: it runs
    /// the public DGKA protocol honestly but holds a random "group key"
    /// and publishes decoys in Phase III. Passing several `Outsider`
    /// slots models an adversary playing multiple roles
    /// (the "A plays the roles of multiple participants" clauses of
    /// Fig. 2).
    Outsider,
}

impl std::fmt::Debug for Actor<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Actor::Member(m) => write!(f, "Actor::Member({})", m.id()),
            Actor::Outsider => write!(f, "Actor::Outsider"),
        }
    }
}

/// Why a slot abandoned a session instead of completing it.
///
/// Aborting is *quiet*: the slot keeps transmitting decoy traffic of the
/// ordinary failed-handshake shape, so the reason is visible only in its
/// local [`Outcome`], never on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortReason {
    /// Phase I key agreement never completed: contributions stayed
    /// missing or undecodable after the retry budget.
    KeyAgreement,
    /// The session's exchange budget ran out while messages were still
    /// missing.
    BudgetExhausted,
    /// The slot itself crash-stopped (fault injection): the medium
    /// suppressed its sends mid-session.
    Crashed,
}

impl std::fmt::Display for AbortReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AbortReason::KeyAgreement => write!(f, "phase I key agreement incomplete"),
            AbortReason::BudgetExhausted => write!(f, "session exchange budget exhausted"),
            AbortReason::Crashed => write!(f, "slot crash-stopped"),
        }
    }
}

/// Per-slot result of a handshake.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// This party's slot.
    pub slot: usize,
    /// Did the *full* handshake succeed (all parties same group, all
    /// signatures valid, no duplicate participants)? This is the paper's
    /// binary `Handshake(∆) = 1`.
    pub accepted: bool,
    /// The co-member set `Δ` this party observed (slots whose Phase-II
    /// tags verified, including itself).
    pub same_group_slots: Vec<usize>,
    /// Slots of `Δ` whose Phase-III group signature verified.
    pub verified_slots: Vec<usize>,
    /// Slots flagged by self-distinction (duplicate `T6`), scheme 2 only.
    pub duplicate_slots: Vec<usize>,
    /// Session key established with the accepted partners (present when
    /// this party completed a full or partial handshake).
    pub session_key: Option<Key>,
    /// Why this slot abandoned the session, if it did. `None` for every
    /// slot that ran the protocol to completion — including ordinary
    /// failed handshakes (wrong group, bad signatures), which are
    /// *completions*, not aborts.
    pub abort: Option<AbortReason>,
}

impl Outcome {
    /// Did this party complete at least a *partial* handshake
    /// (`|Δ| ≥ 2` with all of `Δ` verified)?
    pub fn partial_accepted(&self) -> bool {
        self.session_key.is_some()
    }
}

/// Per-slot cost accounting for the complexity experiments (E1/E2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlotCosts {
    /// Modular exponentiations performed by this slot.
    pub modexp: u64,
    /// Messages this slot broadcast.
    pub messages_sent: u64,
    /// Bytes this slot broadcast.
    pub bytes_sent: u64,
}

/// Session-level accounting of the hardened runtime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Broadcast exchanges performed (base rounds + retransmissions).
    pub exchanges: u32,
    /// Retransmission exchanges among those.
    pub retries: u32,
    /// Did the session hit
    /// [`crate::config::SessionBudget::max_exchanges`] with messages
    /// still missing?
    pub budget_exhausted: bool,
    /// Frames the medium shed because a receiver stopped draining
    /// (previously absorbed silently by the transport; surfaced here so
    /// operators can see backpressure loss per session).
    pub backpressure_dropped: u64,
    /// Successful transport re-attachments after lost connections
    /// (always zero on in-process media).
    pub reconnects: u64,
    /// Read/write deadlines that expired on live transport connections.
    pub deadline_timeouts: u64,
}

/// Everything a handshake session produced.
#[derive(Debug)]
pub struct SessionResult {
    /// Per-slot outcomes.
    pub outcomes: Vec<Outcome>,
    /// The `{(θ_i, δ_i)}` transcript for `GCD.TraceUser` (empty under
    /// [`TracePolicy::PreliminaryOnly`]).
    pub transcript: HandshakeTranscript,
    /// The eavesdropper's traffic log.
    pub traffic: TrafficLog,
    /// Per-slot cost accounting.
    pub costs: Vec<SlotCosts>,
    /// Exchange/retry accounting (the cost of surviving a lossy medium).
    pub stats: SessionStats,
}

/// Per-slot session state threaded through Phases II and III.
pub(crate) struct SlotState<'a> {
    pub(crate) actor: &'a Actor<'a>,
    /// The session slot this state belongs to.
    pub(crate) index: usize,
    pub(crate) sid: Vec<u8>,
    pub(crate) k_prime: Key,
    pub(crate) contributions: Vec<Vec<u8>>,
    /// Phase-II payloads as received, per sender.
    pub(crate) seen_tags: Vec<Vec<u8>>,
    pub(crate) delta_set: Vec<usize>,
    /// Own Phase-III signature's T6 (scheme 2).
    pub(crate) own_t6: Option<Ubig>,
}

/// Effective parameter view for one slot (outsiders mimic the session's
/// dominant configuration).
#[derive(Clone, Copy)]
pub(crate) struct SlotParams {
    pub(crate) scheme: SchemeKind,
    pub(crate) params: GsigParams,
}

/// Runs a handshake session among `actors` on a fresh anonymous broadcast
/// medium configured per `opts`.
///
/// # Errors
///
/// [`CoreError::BadSession`] for fewer than two actors; network and codec
/// errors are propagated.
pub fn run_handshake(
    actors: &[Actor<'_>],
    opts: &HandshakeOptions,
    rng: &mut (impl RngCore + ?Sized),
) -> Result<SessionResult, CoreError> {
    let mut net = BroadcastNet::new(actors.len(), opts.delivery);
    run_handshake_with_net(actors, opts, &mut net, rng)
}

/// [`run_handshake`] over a caller-provided medium (so tests can install
/// man-in-the-middle interceptors or inspect traffic mid-run).
///
/// # Errors
///
/// See [`run_handshake`].
pub fn run_handshake_with_net(
    actors: &[Actor<'_>],
    opts: &HandshakeOptions,
    net: &mut dyn Medium,
    rng: &mut (impl RngCore + ?Sized),
) -> Result<SessionResult, CoreError> {
    let mut rng = rng;
    if actors.len() < 2 || net.slots() != actors.len() {
        return Err(CoreError::BadSession);
    }
    let mut ex = engine::Exchanger::over_medium(net, opts.budget);
    let mut result = run_slots(actors, 0, opts, &mut ex, &mut rng)?;
    result.traffic = net.traffic_snapshot();
    result.stats.backpressure_dropped = result.traffic.faults().backpressure_dropped;
    Ok(result)
}

/// The phase sequence of `GCD.Handshake`, shared by both drivers: runs
/// session slots `first..first + actors.len()` through Phases I–III
/// over `ex` and resolves their outcomes, costs and stats. The lockstep
/// driver passes every slot; the per-party driver
/// ([`party::run_party`]) passes only its own. The result's traffic log
/// is left empty (the medium's snapshot is the caller's to take), and
/// so is its transcript under [`TracePolicy::PreliminaryOnly`].
///
/// # Errors
///
/// Parameter rejections, network and codec errors are propagated.
fn run_slots(
    actors: &[Actor<'_>],
    first: usize,
    opts: &HandshakeOptions,
    ex: &mut engine::Exchanger<'_>,
    rng: &mut dyn RngCore,
) -> Result<SessionResult, CoreError> {
    let n = actors.len();
    let group = session_group(actors);
    let mimic = mimic_params(actors);
    let mut costs = vec![SlotCosts::default(); n];

    // ---- Phase I: distributed group key agreement -----------------------
    let phase1 = phase1::run(opts.dgka, group, first, ex, &mut costs, rng)?;
    let mut aborts: Vec<Option<AbortReason>> = phase1.iter().map(|(_, a)| *a).collect();
    let mut slots = phase1::bind_group_keys(actors, first, phase1, rng);

    // ---- Phase II: MAC tags ---------------------------------------------
    phase2::run(&mut slots, ex, &mut costs)?;

    // ---- Phase III (unless preliminary-only) ----------------------------
    let mut transcript = HandshakeTranscript::default();
    let mut verified: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut duplicates: Vec<Vec<usize>> = vec![Vec::new(); n];
    if opts.policy == TracePolicy::Full {
        (transcript, verified, duplicates) = phase3::run(
            &mut slots, &aborts, group, &mimic, opts, ex, &mut costs, rng,
        )?;
    }

    // ---- Outcomes -------------------------------------------------------
    // A crash-stopped slot never finished the session regardless of what
    // the local simulation computed for it: mark it aborted. The medium
    // reports both injected crash-stops and real dead connections.
    for crashed in ex.crashed_slots() {
        if let Some(abort) = crashed.checked_sub(first).and_then(|k| aborts.get_mut(k)) {
            *abort = Some(AbortReason::Crashed);
        }
    }
    let m = ex.slots();
    let outcomes = slots
        .iter()
        .zip(aborts)
        .zip(verified.iter().zip(&duplicates))
        .map(|((slot, abort), (v, d))| resolve_outcome(slot, abort, v, d, opts, m))
        .collect();
    Ok(SessionResult {
        outcomes,
        transcript,
        traffic: TrafficLog::new(),
        costs,
        stats: ex.stats(),
    })
}

/// Folds one slot's phase results into its [`Outcome`] — the acceptance
/// logic of `Handshake(∆)` plus the partial-success extension.
fn resolve_outcome(
    slot: &SlotState<'_>,
    abort: Option<AbortReason>,
    verified_base: &[usize],
    duplicates_i: &[usize],
    opts: &HandshakeOptions,
    m: usize,
) -> Outcome {
    let i = slot.index;
    let ok = abort.is_none();
    let is_member = ok && matches!(slot.actor, Actor::Member(_));
    let delta = slot.delta_set.clone();
    let mut verified_i = verified_base.to_vec();
    if is_member {
        verified_i.push(i); // own signature trivially verified
    }
    verified_i.sort_unstable();
    let all_delta_verified =
        opts.policy == TracePolicy::PreliminaryOnly || delta.iter().all(|j| verified_i.contains(j));
    let clean = duplicates_i.is_empty();
    let accepted = is_member && delta.len() == m && all_delta_verified && clean;
    let partial_ok =
        is_member && opts.partial_success && delta.len() >= 2 && all_delta_verified && clean;
    let session_key = if accepted || partial_ok {
        Some(phase3::derive_session_key(&slot.k_prime, &slot.sid, &delta))
    } else {
        None
    };
    Outcome {
        slot: i,
        accepted,
        same_group_slots: delta,
        verified_slots: verified_i,
        duplicate_slots: duplicates_i.to_vec(),
        session_key,
        abort,
    }
}

fn session_group(actors: &[Actor<'_>]) -> &'static SchnorrGroup {
    for a in actors {
        if let Actor::Member(member) = a {
            return member.tracing_group;
        }
    }
    SchnorrGroup::system_wide(SchnorrPreset::Test)
}

fn mimic_params(actors: &[Actor<'_>]) -> SlotParams {
    for a in actors {
        if let Actor::Member(member) = a {
            return SlotParams {
                scheme: member.scheme(),
                params: *member.credential().params(),
            };
        }
    }
    SlotParams {
        scheme: SchemeKind::Scheme1,
        params: GsigParams::preset(GsigPreset::Test),
    }
}
