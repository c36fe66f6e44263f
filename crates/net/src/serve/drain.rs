//! Graceful-shutdown accounting.
//!
//! Shutdown is a *drain*, not a kill: queued sessions that no worker has
//! picked up are classified [`super::registry::TerminalClass::Drained`] immediately, and
//! running sessions get a grace period to finish their current attempt.
//! The drain is the running entries' own
//! [`super::registry::SessionState::Draining`], which forbids further
//! re-formation retries: a session whose attempt aborts, or that is
//! backing off, is classified drained without another attempt, so every
//! running session reaches a terminal state within one attempt. The
//! [`DrainReport`] records what happened, so operators (and the chaos
//! soak) can assert that nothing was left dangling.

use std::time::Duration;

/// What a graceful shutdown accomplished.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DrainReport {
    /// Queued sessions classified [`super::registry::TerminalClass::Drained`] without
    /// ever running.
    pub swept_from_queue: u64,
    /// Sessions that were mid-attempt when the drain began and still
    /// reached a terminal state within the grace period.
    pub finished_in_grace: u64,
    /// Sessions still non-terminal when the grace period expired
    /// (registry leaks — the chaos soak asserts this is zero).
    pub leaked: u64,
    /// Messages lost to backpressure across every attempt the registry
    /// recorded over the service's lifetime — so an operator reading the
    /// shutdown report sees load shedding, not just lifecycle counts.
    pub backpressure_dropped: u64,
    /// How long the drain took.
    pub elapsed: Duration,
}

impl DrainReport {
    /// Did the drain leave the registry fully terminal?
    pub fn clean(&self) -> bool {
        self.leaked == 0
    }
}
