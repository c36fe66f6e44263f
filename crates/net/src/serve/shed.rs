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
//! The template a decoy copies is the wire shape of a real fault-free
//! first attempt, one per roster size, which the
//! [`super::registry::SessionRegistry`] learns as it records attempts:
//! a shape, never payload bytes. Until a template exists a shed session
//! has no decoy to emit, so early submissions are queued rather than
//! shed (the queue is empty at startup anyway).

use crate::observe::{TrafficLog, TrafficShape};
use std::time::Duration;

/// Synthesizes a decoy log: `shape`'s rounds, slots and sizes, fresh
/// payload bits. `seed` keeps the decoy deterministic per session.
pub(crate) fn synthesize(shape: &TrafficShape, seed: u64) -> TrafficLog {
    let mut log = TrafficLog::new();
    let mut state = seed ^ 0xdecc_0f17_5eed_0bad;
    for (round, slot, len) in &shape.entries {
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
        let decoy = synthesize(&real.shape(), 7);
        assert_eq!(decoy.shape(), real.shape());
        assert_ne!(decoy, real, "payload bits must be fresh");
    }

    #[test]
    fn decoys_differ_across_sessions() {
        let shape = sample_log().shape();
        assert_ne!(synthesize(&shape, 1), synthesize(&shape, 2));
        assert_eq!(synthesize(&shape, 1).shape(), synthesize(&shape, 2).shape());
    }

    /// FNV-1a over every record's round, sender slot and payload: the
    /// bytes a decoy puts on the wire, in order.
    fn wire_digest(log: &TrafficLog) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for r in log.records() {
            let bytes = r.round.bytes().chain(r.from_slot.to_le_bytes());
            for b in bytes.chain(r.payload.iter().copied()) {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    /// Shed decoys stay byte-identical: the digest was taken from the
    /// generator before it became a free function.
    #[test]
    fn decoy_bytes_are_pinned() {
        let mut real = TrafficLog::new();
        let records = [
            ("p1", 0, 0),
            ("p1", 1, 5),
            ("p2", 0, 8),
            ("p2", 1, 13),
            ("p3", 2, 70),
        ];
        for (round, slot, len) in records {
            real.record(round, slot, &vec![0xaa; len]);
        }
        let decoy = synthesize(&real.shape(), 0x5e5510);
        assert_eq!(decoy.shape(), real.shape());
        assert_eq!(wire_digest(&decoy), 0xf62b_0279_faf6_9003);
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
