//! Load shedding that outsiders cannot observe, plus retry backoff.
//!
//! When the service is saturated, admission control must refuse work —
//! but a refusal that *looks different on the wire* from a failed
//! handshake would tell an eavesdropper the service is under load, and
//! would tell a prober which submissions even reached a roster. So a
//! shed session is answered with **decoy traffic**: a synthetic
//! [`TrafficLog`] with the same rounds, slots and payload sizes as a
//! real handshake of that roster size, filled with fresh pseudorandom
//! bytes. Shape-wise (the eavesdropper's whole view, see
//! [`TrafficShape`]) a shed session and a failed session are identical;
//! only the registry — an insider — knows the difference.
//!
//! The [`ShapeBook`] learns wire shapes from real fault-free attempts as
//! they complete, one template per roster size; it is taught a shape,
//! never payload bytes, and holds the registry's interned copy of it.
//! Until a template exists the service cannot shed indistinguishably,
//! so early submissions are queued rather than shed (the queue is empty
//! at startup anyway).

use crate::observe::{FaultCounters, TrafficLog, TrafficShape, TrafficSummary};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// A learned wire shape for one roster size: the template decoys copy.
#[derive(Debug, Clone)]
pub struct DecoyShape {
    roster_len: usize,
    shape: Arc<TrafficShape>,
}

impl DecoyShape {
    /// A template from the wire shape of a real session's traffic.
    pub fn new(roster_len: usize, shape: Arc<TrafficShape>) -> DecoyShape {
        DecoyShape { roster_len, shape }
    }

    /// The roster size this template imitates.
    pub fn roster_len(&self) -> usize {
        self.roster_len
    }

    /// What a registry keeps of every decoy this template synthesizes:
    /// the template's shape, shared rather than copied, and zero fault
    /// counters (no medium carried the decoy).
    pub(crate) fn summary(&self) -> TrafficSummary {
        TrafficSummary::new(Arc::clone(&self.shape), FaultCounters::default())
    }

    /// Synthesizes a decoy log: the template's shape, fresh payload
    /// bits. `seed` keeps the decoy deterministic per session.
    pub fn synthesize(&self, seed: u64) -> TrafficLog {
        let mut log = TrafficLog::new();
        let mut state = seed ^ 0xdecc_0f17_5eed_0bad;
        for (round, slot, len) in &self.shape.entries {
            let mut payload = Vec::with_capacity(*len);
            while payload.len() < *len {
                state = splitmix64(state);
                payload.extend_from_slice(&state.to_le_bytes());
            }
            payload.truncate(*len);
            log.record(round, *slot, &payload);
        }
        log
    }
}

/// Per-roster-size shape templates, learned from live traffic.
#[derive(Debug, Default)]
pub struct ShapeBook {
    shapes: BTreeMap<usize, DecoyShape>,
}

impl ShapeBook {
    /// An empty book.
    pub fn new() -> ShapeBook {
        ShapeBook::default()
    }

    /// Learns the wire shape of a **fault-free** attempt; the caller
    /// vouches that no fault fired (faulty traffic would bake an
    /// injected anomaly into every future decoy, see [`super::drive`]).
    /// First template per roster size wins; shapes are deterministic
    /// per size, so later sessions would teach the same thing.
    pub fn learn(&mut self, roster_len: usize, shape: Arc<TrafficShape>) {
        self.shapes
            .entry(roster_len)
            .or_insert_with(|| DecoyShape::new(roster_len, shape));
    }

    /// The template for a roster size, if one has been learned.
    pub fn template(&self, roster_len: usize) -> Option<&DecoyShape> {
        self.shapes.get(&roster_len)
    }

    /// Roster sizes with templates.
    pub fn known_sizes(&self) -> Vec<usize> {
        self.shapes.keys().copied().collect()
    }
}

/// Jittered exponential backoff: `base * 2^(attempt-1)` clipped to
/// `cap`, then jittered to 50–100 % of that value so simultaneous
/// re-formations don't retry in lockstep. Deterministic in `seed`.
pub fn backoff_delay(attempt: u32, base: Duration, cap: Duration, seed: u64) -> Duration {
    let shift = attempt.saturating_sub(1).min(16);
    let nominal = base.saturating_mul(1u32 << shift).min(cap);
    let jitter = splitmix64(seed.wrapping_add(u64::from(attempt)));
    // Map jitter into [1/2, 1] of nominal.
    let half = nominal / 2;
    half + Duration::from_nanos(jitter % (half.as_nanos().max(1) as u64 + 1))
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> TrafficLog {
        let mut log = TrafficLog::new();
        log.record("p1", 0, b"aaaa");
        log.record("p1", 1, b"bbbb");
        log.record("p2", 0, b"cc");
        log.record("p2", 1, b"dd");
        log
    }

    #[test]
    fn decoy_matches_shape_not_bits() {
        let real = sample_log();
        let decoy = DecoyShape::new(2, Arc::new(real.shape())).synthesize(7);
        assert_eq!(decoy.shape(), real.shape());
        assert_ne!(decoy, real, "payload bits must be fresh");
    }

    #[test]
    fn decoys_differ_across_sessions() {
        let real = sample_log();
        let shape = DecoyShape::new(2, Arc::new(real.shape()));
        assert_ne!(shape.synthesize(1), shape.synthesize(2));
        assert_eq!(shape.synthesize(1).shape(), shape.synthesize(2).shape());
    }

    #[test]
    fn book_keeps_the_first_template_per_size() {
        let mut book = ShapeBook::new();
        assert!(book.template(2).is_none());
        let first = sample_log().shape();
        book.learn(2, Arc::new(first.clone()));
        let mut other = TrafficLog::new();
        other.record("p1", 0, b"z");
        book.learn(2, Arc::new(other.shape()));
        book.learn(3, Arc::new(other.shape()));
        let template = book.template(2).expect("size 2 learned");
        assert_eq!(template.roster_len(), 2);
        assert_eq!(template.synthesize(1).shape(), first);
        assert_eq!(template.summary(), template.synthesize(1).into_summary());
        assert_eq!(book.known_sizes(), vec![2, 3]);
    }

    #[test]
    fn backoff_grows_caps_and_jitters() {
        let base = Duration::from_millis(4);
        let cap = Duration::from_millis(20);
        let d1 = backoff_delay(1, base, cap, 9);
        let d4 = backoff_delay(4, base, cap, 9);
        assert!(d1 >= base / 2 && d1 <= base, "{d1:?}");
        assert!(d4 >= cap / 2 && d4 <= cap, "{d4:?}");
        // Different seeds → (almost surely) different jitter.
        assert_ne!(
            backoff_delay(3, base, cap, 1),
            backoff_delay(3, base, cap, 2)
        );
    }
}
