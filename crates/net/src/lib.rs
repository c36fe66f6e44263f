//! Anonymous-channel network simulation for the handshake protocols.
//!
//! The paper's system model (§2) assumes *anonymous channels*: an outside
//! observer sees that messages flow (their sizes, their round structure,
//! which anonymous *slot* of the session emitted them) but not who the
//! parties are; §9 argues wireless broadcast provides this naturally. This
//! crate simulates exactly that medium:
//!
//! * [`sync::BroadcastNet`] — a deterministic round-based broadcast
//!   medium with pluggable delivery order ([`DeliveryPolicy`]), an
//!   eavesdropper-facing traffic log ([`observe`]) and a
//!   man-in-the-middle interception hook.
//! * [`tcp`] — a framed TCP transport: [`tcp::TcpParty`] is one party's
//!   wall-clock [`PartyLink`] to a broadcast relay ([`tcp::RelayHandle`]).
//!   Its in-process, virtual-time counterpart is `shs-sim`'s `SimLink`.
//! * [`route::Router`] — the routing step every medium shares (the TCP
//!   relay and `shs-sim`'s media too): exchanges, retransmission
//!   stand-ins, fault injection and the eavesdropper's log.
//! * [`serve::Service`] — a long-lived multi-session service on top:
//!   session lifecycle registry, bounded-queue admission control with
//!   decoy-traffic load shedding, survivor re-formation after aborts,
//!   and graceful draining shutdown.
//!
//! Payloads are opaque bytes: everything a protocol puts on the wire goes
//! through here, so the observer API sees precisely what a real
//! eavesdropper would.
//!
//! # Failure model
//!
//! By default every medium guarantees delivery, matching the paper's
//! system model. Installing a [`fault::FaultPlan`] (via
//! [`sync::BroadcastNet::set_fault_plan`] or the relay's
//! [`tcp::RelayHandle::bind`]) weakens the medium to a lossy,
//! malicious network: deliveries may be dropped, duplicated, corrupted,
//! truncated, delayed to a later retransmission, cut by a partition, or
//! silenced entirely by a crash-stopped sender. Two invariants hold
//! regardless of the plan, on every medium:
//!
//! * **The eavesdropper log records what senders put on the wire.**
//!   Per-receiver faults (drop/corrupt/truncate/delay/partition) never
//!   change the observed [`observe::TrafficLog`] shape; only a
//!   crash-stop does, because a dead sender truly transmits nothing.
//! * **Every fault that fires is counted** in
//!   [`observe::FaultCounters`], exposed via
//!   [`observe::TrafficLog::faults`].
//!
//! Recovering from injected faults (retransmission, abort with decoy
//! traffic) is the protocol driver's job — see `shs-core`'s session
//! budget and abort semantics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod fault;
pub mod observe;
pub mod route;
pub mod serve;
pub mod sync;
pub mod tcp;

use std::time::Duration;

/// Delivery-order policy of the medium.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryPolicy {
    /// Messages of a round are delivered in slot order (synchronous
    /// model).
    Synchronous,
    /// Messages of a round are delivered in an adversarially chosen
    /// (seeded pseudo-random, per-receiver) order — the asynchronous model
    /// with guaranteed delivery.
    AdversarialReorder {
        /// Seed of the adversary's permutation choices.
        seed: u64,
    },
}

/// Errors produced by the network layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetError {
    /// A slot index was out of range.
    BadSlot,
    /// The per-round message set was incomplete.
    IncompleteRound,
    /// A blocking receive exceeded its deadline (lossy medium; the
    /// expected message may have been dropped or its sender crashed).
    Timeout,
    /// The peer side of a channel disappeared mid-session.
    Disconnected,
    /// A wire frame failed to decode (see [`tcp::frame::FrameError`]).
    /// Fires before any allocation for the offending frame body.
    Frame(tcp::frame::FrameError),
    /// The connection supervisor exhausted its reconnect attempt budget.
    ConnectFailed,
    /// The remote end refused the attachment (slot taken, session full,
    /// or a protocol-version mismatch during the hello exchange).
    Refused,
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::BadSlot => write!(f, "slot index out of range"),
            NetError::IncompleteRound => write!(f, "round message set incomplete"),
            NetError::Timeout => write!(f, "receive deadline exceeded"),
            NetError::Disconnected => write!(f, "peer channel disconnected"),
            NetError::Frame(e) => write!(f, "wire frame: {e}"),
            NetError::ConnectFailed => write!(f, "reconnect attempt budget exhausted"),
            NetError::Refused => write!(f, "remote refused attachment"),
        }
    }
}

impl std::error::Error for NetError {}

/// Transport-level robustness counters a medium accumulates alongside
/// the fault tallies in [`observe::FaultCounters`]. In-process media
/// report zeros; the TCP transport counts real socket events so the
/// hardened runtime's session accounting
/// (`shs-core`'s `SessionStats`) can surface them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportCounters {
    /// Successful re-attachments after a lost connection (each one cost
    /// at least one backoff sleep).
    pub reconnects: u64,
    /// Read or write deadlines that expired on a live connection.
    pub deadline_timeouts: u64,
    /// Heartbeat frames sent to keep an idle connection observable.
    pub heartbeats: u64,
}

impl TransportCounters {
    /// Component-wise sum.
    pub fn merge(&mut self, other: &TransportCounters) {
        self.reconnects += other.reconnects;
        self.deadline_timeouts += other.deadline_timeouts;
        self.heartbeats += other.heartbeats;
    }
}

/// A lockstep broadcast medium the handshake engine can drive: all
/// slots' payloads go in together, all inboxes come back together.
///
/// [`sync::BroadcastNet`] implements this in-process;
/// [`tcp::TcpSession`] implements it over real sockets through a frame
/// relay. The engine only sees this trait, so the session budget, decoy
/// machinery and retransmission logic are byte-identical on both.
pub trait Medium {
    /// Number of party slots.
    fn slots(&self) -> usize;

    /// Performs one broadcast exchange under `round`: `outgoing[i]` is
    /// slot `i`'s payload, the result's entry `i` is slot `i`'s inbox
    /// (own echo included, as on a radio medium).
    ///
    /// # Errors
    ///
    /// [`NetError::IncompleteRound`] unless exactly one payload per slot
    /// is supplied; transports add their I/O error classes.
    fn exchange(
        &mut self,
        round: &str,
        outgoing: Vec<Vec<u8>>,
    ) -> Result<Vec<Vec<sync::Received>>, NetError>;

    /// A snapshot of the eavesdropper's traffic log so far.
    fn traffic_snapshot(&self) -> observe::TrafficLog;

    /// Slots known to have crash-stopped (fault injection or a real
    /// dead connection) as of now.
    fn crashed_slots(&self) -> Vec<usize>;

    /// Transport robustness counters (zero for in-process media).
    fn transport_counters(&self) -> TransportCounters {
        TransportCounters::default()
    }
}

/// One party's endpoint on a broadcast medium, for drivers where each
/// party runs in its own thread or OS process (the distributed
/// counterpart of [`Medium`], which holds all slots in one place).
///
/// `shs-sim`'s `SimLink` implements this in process under virtual time
/// (the test seam); [`tcp::TcpParty`] implements it over a framed TCP
/// connection to a relay.
pub trait PartyLink {
    /// This party's anonymous slot.
    fn slot(&self) -> usize;

    /// Number of slots in the session.
    fn slots(&self) -> usize;

    /// Broadcasts `payload` under `round` to every slot.
    ///
    /// # Errors
    ///
    /// Transport errors ([`NetError::Disconnected`] after the reconnect
    /// budget, write timeouts) are propagated.
    fn broadcast(&mut self, round: &str, payload: Vec<u8>) -> Result<(), NetError>;

    /// Collects one exchange of `round`: entry `j` is the first copy of
    /// slot `j`'s payload that satisfied `valid` (`None` where nothing
    /// valid arrived before the deadline). Later and invalid copies are
    /// discarded (the lockstep engine's first-valid-copy-wins rule);
    /// in-process links hold other rounds' arrivals for later collects.
    ///
    /// # Errors
    ///
    /// [`NetError::Disconnected`] when the medium is gone for good; a
    /// mere quiet deadline returns an incomplete view instead.
    fn collect(
        &mut self,
        round: &str,
        timeout: Duration,
        valid: &mut dyn FnMut(usize, &[u8]) -> bool,
    ) -> Result<Vec<Option<Vec<u8>>>, NetError>;

    /// Transport robustness counters (zero for in-process links).
    fn transport_counters(&self) -> TransportCounters {
        TransportCounters::default()
    }
}
