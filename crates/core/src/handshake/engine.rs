//! The budgeted exchange engine: the only retry loop of the handshake.
//!
//! [`Exchanger`] owns the session's retry budget and performs logical
//! broadcast rounds for the slots a driver runs, retransmitting while
//! some of those slots still lack a valid copy of some sender's
//! message. It runs over either transport a driver holds:
//!
//! * a lockstep [`Medium`] carrying every slot — one exchange per
//!   attempt, folding every inbox (all slots retransmit together, which
//!   keeps the per-slot wire shape uniform);
//! * one party's [`PartyLink`] — one broadcast and one deadline-bounded
//!   collect per attempt, folding this party's own view. It
//!   re-broadcasts its unchanged payload each attempt, which over the
//!   TCP relay's cached retransmission keeps the per-slot wire shape
//!   uniform in the same way.

use crate::config::SessionBudget;
use crate::handshake::{AbortReason, SessionStats, SlotCosts};
use crate::CoreError;
use shs_bigint::counters;
use shs_net::{Medium, PartyLink};
use std::time::Duration;

/// Meters `f`'s modular-exponentiation count into `costs`.
pub(crate) fn meter<T>(costs: &mut SlotCosts, f: impl FnOnce() -> T) -> T {
    let (c, out) = counters::measure(f);
    costs.modexp += c.modexp;
    out
}

/// Accounts one broadcast send of `payload`.
pub(crate) fn note_send(costs: &mut SlotCosts, payload: &[u8]) {
    costs.messages_sent += 1;
    costs.bytes_sent += payload.len() as u64;
}

/// Where an [`Exchanger`]'s attempts go.
enum Transport<'n> {
    /// A lockstep medium carrying every slot of the session.
    Medium(&'n mut dyn Medium),
    /// One party's endpoint, with the window each collect waits.
    Link(&'n mut dyn PartyLink, Duration),
}

/// The budgeted exchange engine: performs one logical round for the
/// driver's slots, retrying while some of them still lack a *valid*
/// copy of some sender's message and budget remains.
pub(crate) struct Exchanger<'n> {
    transport: Transport<'n>,
    budget: SessionBudget,
    exchanges: u32,
    retries: u32,
    exhausted: bool,
}

impl<'n> Exchanger<'n> {
    /// An engine over a lockstep medium: the driver runs every slot.
    pub(crate) fn over_medium(net: &'n mut dyn Medium, budget: SessionBudget) -> Exchanger<'n> {
        Exchanger::new(Transport::Medium(net), budget)
    }

    /// An engine over one party's link: the driver runs the link's slot.
    pub(crate) fn over_link(
        link: &'n mut dyn PartyLink,
        collect_timeout: Duration,
        budget: SessionBudget,
    ) -> Exchanger<'n> {
        Exchanger::new(Transport::Link(link, collect_timeout), budget)
    }

    fn new(transport: Transport<'n>, budget: SessionBudget) -> Exchanger<'n> {
        Exchanger {
            transport,
            budget,
            exchanges: 0,
            retries: 0,
            exhausted: false,
        }
    }

    /// Number of slots in the session.
    pub(crate) fn slots(&self) -> usize {
        match &self.transport {
            Transport::Medium(net) => net.slots(),
            Transport::Link(link, _) => link.slots(),
        }
    }

    /// Broadcasts `outgoing` (one payload per driven slot) under
    /// `label`, returning each driven slot's best copy per sender
    /// (`None` where nothing valid ever arrived). `valid(k, from, p)`
    /// decides whether a payload counts as received by driven slot `k`
    /// — the first valid copy wins, which also discards injected
    /// duplicates.
    pub(crate) fn round(
        &mut self,
        label: &str,
        outgoing: &[Vec<u8>],
        valid: &mut dyn FnMut(usize, usize, &[u8]) -> bool,
    ) -> Result<Vec<Vec<Option<Vec<u8>>>>, CoreError> {
        let mut views: Vec<Vec<Option<Vec<u8>>>> = vec![vec![None; self.slots()]; outgoing.len()];
        let mut attempt = 0u32;
        loop {
            self.exchanges += 1;
            if attempt > 0 {
                self.retries += 1;
            }
            self.attempt(label, outgoing, &mut views, valid)?;
            let complete = views.iter().all(|row| row.iter().all(Option::is_some));
            if complete || attempt >= self.budget.retries_per_round {
                break;
            }
            if self.exchanges >= self.budget.max_exchanges {
                self.exhausted = true;
                break;
            }
            attempt += 1;
        }
        Ok(views)
    }

    /// One attempt of a round: sends `outgoing` and folds what arrived
    /// into the still-empty cells of `views`.
    fn attempt(
        &mut self,
        label: &str,
        outgoing: &[Vec<u8>],
        views: &mut [Vec<Option<Vec<u8>>>],
        valid: &mut dyn FnMut(usize, usize, &[u8]) -> bool,
    ) -> Result<(), CoreError> {
        match &mut self.transport {
            Transport::Medium(net) => {
                let inboxes = net.exchange(label, outgoing.to_vec())?;
                for (to, (inbox, view)) in inboxes.iter().zip(views.iter_mut()).enumerate() {
                    for rcv in inbox {
                        if view.get(rcv.from_slot).is_some_and(Option::is_none)
                            && valid(to, rcv.from_slot, &rcv.payload)
                        {
                            view[rcv.from_slot] = Some(rcv.payload.clone());
                        }
                    }
                }
            }
            Transport::Link(link, collect_timeout) => {
                let (Some(payload), Some(view)) = (outgoing.first(), views.first_mut()) else {
                    return Ok(());
                };
                link.broadcast(label, payload.clone())?;
                let got =
                    link.collect(label, *collect_timeout, &mut |from, p| valid(0, from, p))?;
                for (cell, incoming) in view.iter_mut().zip(got) {
                    if cell.is_none() {
                        *cell = incoming;
                    }
                }
            }
        }
        Ok(())
    }

    /// The abort reason matching how the last incomplete round ended.
    pub(crate) fn abort_reason(&self) -> AbortReason {
        if self.exhausted {
            AbortReason::BudgetExhausted
        } else {
            AbortReason::KeyAgreement
        }
    }

    /// Slots the medium knows to have crash-stopped. A party link
    /// reports none: one party cannot tell a dead peer from a lossy one.
    pub(crate) fn crashed_slots(&self) -> Vec<usize> {
        match &self.transport {
            Transport::Medium(net) => net.crashed_slots(),
            Transport::Link(..) => Vec::new(),
        }
    }

    /// The exchange accounting so far plus the transport's robustness
    /// counters. Backpressure loss is relay-side and left zero here;
    /// the lockstep driver fills it in from the medium's traffic log.
    pub(crate) fn stats(&self) -> SessionStats {
        let transport = match &self.transport {
            Transport::Medium(net) => net.transport_counters(),
            Transport::Link(link, _) => link.transport_counters(),
        };
        SessionStats {
            exchanges: self.exchanges,
            retries: self.retries,
            budget_exhausted: self.exhausted,
            backpressure_dropped: 0,
            reconnects: transport.reconnects,
            deadline_timeouts: transport.deadline_timeouts,
        }
    }
}
