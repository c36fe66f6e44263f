//! The per-party handshake driver: one slot of the GCD handshake run
//! from its own thread or OS process over a [`PartyLink`].
//!
//! [`super::run_handshake_with_net`] is the *lockstep* driver — it owns
//! every slot and performs whole exchanges on a [`shs_net::Medium`].
//! This module is its distributed counterpart: [`run_party`] drives
//! exactly one slot, broadcasting through a [`PartyLink`] (`shs-sim`'s
//! virtual-time `SimLink` in tests, a framed TCP connection to a relay
//! in the `shs-node` daemon) and collecting its co-parties' payloads
//! with a deadline.
//!
//! Both drivers run the same phase sequence (`run_slots`) over the same
//! budgeted exchange engine, so they cannot drift apart on what a
//! handshake accepts: here the engine retries a round while this
//! party's *own* view is missing valid payloads, re-broadcasting its
//! unchanged payload each attempt within the same
//! [`crate::config::SessionBudget`].
//!
//! Quiet-abort cover is preserved: an aborting party keeps emitting
//! chaff and decoys of ordinary-failure shape through every remaining
//! round (the `DgkaSlot` chaff arms and the Phase-III decoy arm), so on
//! the wire an abort is indistinguishable from a failed handshake.

use crate::config::HandshakeOptions;
use crate::handshake::engine::Exchanger;
use crate::handshake::{run_slots, Actor, Outcome, SessionStats, SlotCosts};
use crate::CoreError;
use rand::RngCore;
use shs_net::PartyLink;
use std::time::Duration;

/// Everything one party's handshake run produced.
#[derive(Debug)]
pub struct PartyOutcome {
    /// This party's outcome (same acceptance logic as the lockstep
    /// driver, including partial success and quiet aborts).
    pub outcome: Outcome,
    /// This party's cost accounting.
    pub costs: SlotCosts,
    /// Exchange/retry accounting plus transport robustness counters
    /// (reconnects, deadline timeouts) from the link.
    pub stats: SessionStats,
}

/// Runs one party of a handshake session over `link`, as the slot the
/// link was attached to. `collect_timeout` bounds how long each round
/// waits for the co-parties before spending a retransmission.
///
/// # Errors
///
/// [`CoreError::BadSession`] for sessions of fewer than two slots;
/// transport errors ([`CoreError::Net`]) when the link dies beyond its
/// reconnect budget.
pub fn run_party(
    actor: &Actor<'_>,
    opts: &HandshakeOptions,
    link: &mut dyn PartyLink,
    collect_timeout: Duration,
    rng: &mut (impl RngCore + ?Sized),
) -> Result<PartyOutcome, CoreError> {
    let mut rng = rng;
    let i = link.slot();
    if link.slots() < 2 || i >= link.slots() {
        return Err(CoreError::BadSession);
    }
    let mut ex = Exchanger::over_link(link, collect_timeout, opts.budget);
    let result = run_slots(std::slice::from_ref(actor), i, opts, &mut ex, &mut rng)?;
    let (Some(outcome), Some(costs)) = (result.outcomes.into_iter().next(), result.costs.first())
    else {
        return Err(CoreError::BadSession);
    };
    Ok(PartyOutcome {
        outcome,
        costs: *costs,
        stats: result.stats,
    })
}
