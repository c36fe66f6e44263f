//! The eavesdropper's view: a traffic log of everything that crossed the
//! medium.
//!
//! The *indistinguishability to eavesdroppers* experiments (Fig. 2, E7a)
//! compare two [`TrafficLog`]s — one from a successful handshake, one from
//! a failed or simulated one — and check that nothing but the payload
//! randomness differs: same rounds, same slots, same sizes.

use std::collections::HashSet;
use std::sync::Arc;

/// One observed transmission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrafficRecord {
    /// Protocol-phase label (e.g. `"dgka-round1"`, `"phase2-mac"`).
    pub round: String,
    /// Anonymous sender slot within the session.
    pub from_slot: usize,
    /// The raw bytes on the wire (the eavesdropper sees ciphertext).
    pub payload: Vec<u8>,
}

/// Per-fault-kind tallies of injected faults (see [`crate::fault`]).
///
/// Exposed through [`TrafficLog::faults`] so tests and benches can assert
/// exactly which faults fired during a session.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Deliveries silently discarded.
    pub dropped: u64,
    /// Extra copies injected.
    pub duplicated: u64,
    /// Payload copies with flipped bits.
    pub corrupted: u64,
    /// Payload copies cut short.
    pub truncated: u64,
    /// Deliveries held back for a later matching exchange.
    pub delayed: u64,
    /// Held-back deliveries that eventually arrived.
    pub redelivered: u64,
    /// Broadcasts suppressed because the sender crash-stopped.
    pub crash_silenced: u64,
    /// Deliveries cut by a network partition.
    pub partitioned: u64,
    /// Deliveries the TCP relay shed because a receiver stopped draining
    /// its socket past the write deadline (flow control, not an injected
    /// fault — but still a loss the runtime must absorb).
    pub backpressure_dropped: u64,
}

impl FaultCounters {
    /// Total faults that fired (redeliveries are recoveries, not faults).
    pub fn total(&self) -> u64 {
        self.dropped
            + self.duplicated
            + self.corrupted
            + self.truncated
            + self.delayed
            + self.crash_silenced
            + self.partitioned
            + self.backpressure_dropped
    }
}

/// Field-wise sum: tallies of several sessions (or attempts) add up.
impl std::ops::AddAssign<&FaultCounters> for FaultCounters {
    fn add_assign(&mut self, other: &FaultCounters) {
        self.dropped += other.dropped;
        self.duplicated += other.duplicated;
        self.corrupted += other.corrupted;
        self.truncated += other.truncated;
        self.delayed += other.delayed;
        self.redelivered += other.redelivered;
        self.crash_silenced += other.crash_silenced;
        self.partitioned += other.partitioned;
        self.backpressure_dropped += other.backpressure_dropped;
    }
}

/// An ordered log of observed transmissions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrafficLog {
    records: Vec<TrafficRecord>,
    faults: FaultCounters,
}

/// The *shape* of a log: everything an eavesdropper can compare across
/// sessions except payload bits — round labels, slots, sizes, order.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TrafficShape {
    /// `(round, from_slot, payload_len)` per record, in order.
    pub entries: Vec<(String, usize, usize)>,
}

/// What a [`TrafficLog`] leaves behind once its payloads are dropped:
/// the [`TrafficShape`] and the [`FaultCounters`]. Sizes, counts and
/// fault tallies read exactly as on the log it was built from; no
/// payload byte survives. The shape sits behind an [`Arc`], so summaries
/// of equal shape can share one allocation (the service registry keeps
/// one per distinct shape).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrafficSummary {
    shape: Arc<TrafficShape>,
    faults: FaultCounters,
}

impl TrafficSummary {
    /// A summary of `shape` with the given fault tallies.
    pub(crate) fn new(shape: Arc<TrafficShape>, faults: FaultCounters) -> TrafficSummary {
        TrafficSummary { shape, faults }
    }

    /// The metadata shape of the summarised log.
    pub fn shape(&self) -> &TrafficShape {
        &self.shape
    }

    /// The shape's allocation, which equal summaries may share.
    pub(crate) fn shared_shape(&self) -> &Arc<TrafficShape> {
        &self.shape
    }

    /// Interns the shape in `shapes`: an equal shape already there
    /// replaces this summary's copy, which is freed; a new one joins the
    /// set.
    pub(crate) fn intern(&mut self, shapes: &mut HashSet<Arc<TrafficShape>>) {
        match shapes.get(&*self.shape) {
            Some(known) => self.shape = Arc::clone(known),
            None => {
                shapes.insert(Arc::clone(&self.shape));
            }
        }
    }

    /// Total bytes observed.
    pub fn total_bytes(&self) -> usize {
        self.shape.entries.iter().map(|(_, _, len)| len).sum()
    }

    /// Number of transmissions attributed to `slot`.
    pub fn messages_from(&self, slot: usize) -> usize {
        self.shape
            .entries
            .iter()
            .filter(|(_, from, _)| *from == slot)
            .count()
    }

    /// Tallies of faults the medium injected while producing the log.
    pub fn faults(&self) -> &FaultCounters {
        &self.faults
    }
}

impl TrafficLog {
    /// An empty log.
    pub fn new() -> TrafficLog {
        TrafficLog::default()
    }

    /// Records one transmission.
    pub fn record(&mut self, round: &str, from_slot: usize, payload: &[u8]) {
        self.records.push(TrafficRecord {
            round: round.to_string(),
            from_slot,
            payload: payload.to_vec(),
        });
    }

    /// All records, in observation order.
    pub fn records(&self) -> &[TrafficRecord] {
        &self.records
    }

    /// Total bytes observed.
    pub fn total_bytes(&self) -> usize {
        self.records.iter().map(|r| r.payload.len()).sum()
    }

    /// Number of transmissions observed.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Is the log empty?
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of transmissions attributed to `slot`.
    pub fn messages_from(&self, slot: usize) -> usize {
        self.records.iter().filter(|r| r.from_slot == slot).count()
    }

    /// Tallies of faults the medium injected while producing this log.
    pub fn faults(&self) -> &FaultCounters {
        &self.faults
    }

    /// Overwrites the fault tallies (called by the media — including
    /// out-of-crate ones like the `shs-sim` simulated medium — after
    /// each exchange; the plan owns the authoritative counts).
    pub fn set_faults(&mut self, faults: FaultCounters) {
        self.faults = faults;
    }

    /// The metadata shape (see [`TrafficShape`]).
    pub fn shape(&self) -> TrafficShape {
        TrafficShape {
            entries: self
                .records
                .iter()
                .map(|r| (r.round.clone(), r.from_slot, r.payload.len()))
                .collect(),
        }
    }

    /// Drops every payload and keeps the rest (see [`TrafficSummary`]):
    /// the labels move into the shape, the payloads are freed.
    pub fn into_summary(self) -> TrafficSummary {
        TrafficSummary {
            shape: Arc::new(TrafficShape {
                entries: self
                    .records
                    .into_iter()
                    .map(|r| (r.round, r.from_slot, r.payload.len()))
                    .collect(),
            }),
            faults: self.faults,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate() {
        let mut log = TrafficLog::new();
        assert!(log.is_empty());
        log.record("r1", 0, b"abc");
        log.record("r1", 1, b"defg");
        log.record("r2", 0, b"x");
        assert_eq!(log.len(), 3);
        assert_eq!(log.total_bytes(), 8);
        assert_eq!(log.messages_from(0), 2);
        assert_eq!(log.messages_from(1), 1);
        assert_eq!(log.messages_from(2), 0);
    }

    #[test]
    fn shape_ignores_payload_bits() {
        let mut a = TrafficLog::new();
        a.record("r1", 0, b"aaaa");
        let mut b = TrafficLog::new();
        b.record("r1", 0, b"zzzz");
        assert_ne!(a, b);
        assert_eq!(a.shape(), b.shape());
        // Different size breaks the shape.
        let mut c = TrafficLog::new();
        c.record("r1", 0, b"aaa");
        assert_ne!(a.shape(), c.shape());
    }

    #[test]
    fn summary_keeps_everything_but_the_payloads() {
        let mut log = TrafficLog::new();
        log.record("r1", 0, b"abc");
        log.record("r1", 1, b"defg");
        log.record("r2", 0, b"x");
        log.set_faults(FaultCounters {
            dropped: 2,
            backpressure_dropped: 1,
            ..FaultCounters::default()
        });
        let summary = log.clone().into_summary();
        assert_eq!(*summary.shape(), log.shape());
        assert_eq!(summary.total_bytes(), log.total_bytes());
        assert_eq!(summary.faults(), log.faults());
        for slot in 0..3 {
            assert_eq!(summary.messages_from(slot), log.messages_from(slot));
        }
    }
}
