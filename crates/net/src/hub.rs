//! A threaded asynchronous broadcast hub.
//!
//! Each party runs on its own OS thread and talks to the hub through
//! channels; the hub relays every message to every other party, delaying
//! and interleaving deliveries pseudo-randomly. This is the "asynchronous
//! communication model (with guaranteed delivery)" in which the paper
//! claims the framework still works (§1.1 flexibility) — exercised by the
//! E10 experiment.
//!
//! [`run_session_with_faults`] weakens the guarantee: the hub relays every
//! message through the shared routing step ([`Router`]), which applies a
//! [`FaultPlan`], so deliveries may be lost, duplicated, mangled,
//! delayed, or cut by a partition, and crash-stopped parties go silent
//! after their `after_round`-th send. Party bodies that must
//! survive such a medium should use the deadline-based receives
//! ([`PartyHandle::recv_timeout`], [`PartyLink::collect`]) instead of
//! the blocking ones — a blocking [`PartyHandle::recv`] on a lossy
//! medium can sit out its full (generous) deadline.
//!
//! # Flow control
//!
//! All channels are **bounded**, sized by [`HubConfig`]: a flooding
//! sender blocks once the hub's inbox is at capacity (backpressure)
//! instead of growing an unbounded buffer, and the hub's reorder buffer
//! is capped at the same size. Deliveries to a party whose inbox stays
//! full past [`HubConfig::delivery_patience`] are dropped and tallied in
//! [`crate::observe::FaultCounters::backpressure_dropped`] — the hub
//! never blocks forever on a stalled receiver, so a slow party cannot
//! deadlock the medium. With the default capacities a protocol-shaped
//! session (every party sends once per round and drains its inbox) never
//! triggers either mechanism.

use crate::fault::FaultPlan;
use crate::observe::TrafficLog;
use crate::route::Router;
use crate::{NetError, PartyLink};
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TrySendError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::thread;
use std::time::{Duration, Instant};

/// Flow-control configuration of the threaded hub.
///
/// The defaults are sized so that the bounded channels are invisible to
/// well-behaved protocol sessions: a session of `m` parties and `r`
/// rounds keeps at most `m` messages per inbox in flight per round, far
/// under [`HubConfig::channel_capacity`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HubConfig {
    /// Capacity of every channel, of the hub's reorder buffer and of each
    /// party's held arrivals for later rounds. A sender whose channel is
    /// full blocks until the consumer drains — backpressure, not
    /// buffering without limit.
    pub channel_capacity: usize,
    /// How long the hub keeps retrying delivery into a full party inbox
    /// before dropping the message (tallied as `backpressure_dropped`).
    /// This bounds the damage of a stalled receiver; the retry-based
    /// session runtime recovers dropped deliveries like any other loss.
    pub delivery_patience: Duration,
    /// Deadline of the *blocking* [`PartyHandle::recv`]: generous enough
    /// that it never fires on a guaranteed-delivery medium, but a party
    /// stranded by a dead hub gets an error instead of hanging forever.
    pub recv_deadline: Duration,
}

impl Default for HubConfig {
    fn default() -> Self {
        HubConfig {
            channel_capacity: 1024,
            delivery_patience: Duration::from_millis(500),
            recv_deadline: Duration::from_secs(30),
        }
    }
}

/// A message in flight.
#[derive(Debug, Clone)]
struct Wire {
    from_slot: usize,
    round: String,
    payload: Vec<u8>,
}

/// A party's endpoint: broadcast and blocking receive.
pub struct PartyHandle {
    slot: usize,
    slots: usize,
    recv_deadline: Duration,
    to_hub: Sender<Wire>,
    from_hub: Receiver<Wire>,
    /// Arrivals for later rounds, oldest first, at most `capacity`.
    held: RefCell<VecDeque<Wire>>,
    capacity: usize,
}

impl std::fmt::Debug for PartyHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PartyHandle {{ slot: {}/{} }}", self.slot, self.slots)
    }
}

impl PartyHandle {
    /// This party's anonymous slot.
    pub fn slot(&self) -> usize {
        self.slot
    }

    /// Number of slots in the session.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Broadcasts a payload under a round label. Blocks while the hub's
    /// bounded inbox is at capacity (backpressure); a send to a hub that
    /// already shut down is silently discarded, matching radio semantics.
    pub fn broadcast(&self, round: &str, payload: Vec<u8>) {
        let _ = self.to_hub.send(Wire {
            from_slot: self.slot,
            round: round.to_string(),
            payload,
        });
    }

    /// Blocks for the next delivery `(from_slot, round, payload)`, up to
    /// the configured [`HubConfig::recv_deadline`].
    ///
    /// # Errors
    ///
    /// [`NetError::Disconnected`] if the hub is gone,
    /// [`NetError::Timeout`] if nothing arrived within the (generous)
    /// deadline — on a lossy medium prefer the explicitly-budgeted
    /// [`PartyHandle::recv_timeout`].
    pub fn recv(&self) -> Result<(usize, String, Vec<u8>), NetError> {
        self.recv_timeout(self.recv_deadline)
    }

    /// Blocks for the next delivery up to `timeout`; arrivals a
    /// collect held back for a later round come first.
    ///
    /// # Errors
    ///
    /// [`NetError::Timeout`] if nothing arrived in time,
    /// [`NetError::Disconnected`] if the hub is gone.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<(usize, String, Vec<u8>), NetError> {
        let held = self.held.borrow_mut().pop_front();
        let w = held.map_or_else(|| self.next_arrival(timeout), Ok)?;
        Ok((w.from_slot, w.round, w.payload))
    }

    /// The next message off the hub channel, up to `timeout`.
    fn next_arrival(&self, timeout: Duration) -> Result<Wire, NetError> {
        match self.from_hub.recv_timeout(timeout) {
            Ok(w) => Ok(w),
            Err(RecvTimeoutError::Timeout) => Err(NetError::Timeout),
            Err(RecvTimeoutError::Disconnected) => Err(NetError::Disconnected),
        }
    }

    /// Collects one message per slot for the given round. Arrivals for
    /// other rounds are held for a later collect.
    ///
    /// # Errors
    ///
    /// [`NetError::Timeout`] if some slot's message is still missing at
    /// the (generous) [`HubConfig::recv_deadline`] — a guaranteed-delivery
    /// medium never produces it while the hub lives — and
    /// [`NetError::Disconnected`] if the hub is gone.
    pub fn collect_round(&self, round: &str) -> Result<Vec<(usize, Vec<u8>)>, NetError> {
        let got = self.collect_within(round, self.recv_deadline, &mut |_, _| true)?;
        if got.iter().any(Option::is_none) {
            return Err(NetError::Timeout);
        }
        Ok(got
            .into_iter()
            .enumerate()
            .filter_map(|(slot, p)| p.map(|payload| (slot, payload)))
            .collect())
    }

    /// The receive loop behind [`PartyHandle::collect_round`] and
    /// [`PartyLink::collect`]: up to one copy per slot of `round`, the
    /// first one that satisfies `valid` (so a corrupted copy cannot
    /// displace a later valid retransmission), gathered until the view
    /// is complete or `timeout` (an overall deadline) passes. Entry `i`
    /// is `None` if no valid copy of slot `i`'s message arrived —
    /// dropped, corrupted, partitioned, or its sender crashed. Other
    /// rounds' arrivals are held: a co-party's next-round broadcast that
    /// lands during a retry must not be lost.
    fn collect_within(
        &self,
        round: &str,
        timeout: Duration,
        valid: &mut dyn FnMut(usize, &[u8]) -> bool,
    ) -> Result<Vec<Option<Vec<u8>>>, NetError> {
        let deadline = Instant::now() + timeout;
        let mut got: Vec<Option<Vec<u8>>> = vec![None; self.slots];
        let mut take = |w: Wire, got: &mut Vec<Option<Vec<u8>>>| {
            if let Some(cell @ None) = got.get_mut(w.from_slot) {
                if valid(w.from_slot, &w.payload) {
                    *cell = Some(w.payload);
                }
            }
        };
        let earlier = std::mem::take(&mut *self.held.borrow_mut());
        for w in earlier {
            if w.round == round {
                take(w, &mut got);
            } else {
                self.hold(w);
            }
        }
        while got.iter().any(Option::is_none) {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            match self.next_arrival(left) {
                Ok(w) if w.round == round => take(w, &mut got),
                Ok(w) => self.hold(w),
                Err(NetError::Timeout) => break,
                Err(e) => return Err(e),
            }
        }
        Ok(got)
    }

    /// Keeps an arrival for a later round, shedding the oldest held one
    /// at capacity.
    fn hold(&self, w: Wire) {
        let mut held = self.held.borrow_mut();
        if held.len() >= self.capacity {
            held.pop_front();
        }
        held.push_back(w);
    }
}

impl PartyLink for PartyHandle {
    fn slot(&self) -> usize {
        PartyHandle::slot(self)
    }

    fn slots(&self) -> usize {
        PartyHandle::slots(self)
    }

    fn broadcast(&mut self, round: &str, payload: Vec<u8>) -> Result<(), NetError> {
        PartyHandle::broadcast(self, round, payload);
        Ok(())
    }

    fn collect(
        &mut self,
        round: &str,
        timeout: Duration,
        valid: &mut dyn FnMut(usize, &[u8]) -> bool,
    ) -> Result<Vec<Option<Vec<u8>>>, NetError> {
        self.collect_within(round, timeout, valid)
    }
}

/// Runs `m` party bodies on threads connected through an asynchronous
/// reordering hub with guaranteed delivery; returns their outputs plus
/// the eavesdropper log.
///
/// Every broadcast is delivered to **all** slots, including the sender
/// (radio-medium echo semantics, matching [`crate::sync::BroadcastNet`]).
///
/// # Panics
///
/// Panics if a party thread panics.
pub fn run_session<T, F>(m: usize, seed: u64, bodies: Vec<F>) -> (Vec<T>, TrafficLog)
where
    T: Send + 'static,
    F: FnOnce(PartyHandle) -> T + Send + 'static,
{
    run_session_with_faults(m, seed, FaultPlan::new(seed), bodies)
}

/// [`run_session`] over a faulty medium with default flow control.
///
/// # Panics
///
/// Panics if a party thread panics.
pub fn run_session_with_faults<T, F>(
    m: usize,
    seed: u64,
    plan: FaultPlan,
    bodies: Vec<F>,
) -> (Vec<T>, TrafficLog)
where
    T: Send + 'static,
    F: FnOnce(PartyHandle) -> T + Send + 'static,
{
    run_session_with_config(m, seed, plan, HubConfig::default(), bodies)
}

/// [`run_session`] over a faulty medium with explicit [`HubConfig`] flow
/// control: the hub routes every message it picks through a [`Router`]
/// holding `plan`, so exchanges, stand-ins and both fault clocks work as
/// on every other medium (see [`crate::route`]). The final
/// [`TrafficLog`] carries the plan's fault counters.
///
/// # Panics
///
/// Panics if a party thread panics.
pub fn run_session_with_config<T, F>(
    m: usize,
    seed: u64,
    plan: FaultPlan,
    config: HubConfig,
    bodies: Vec<F>,
) -> (Vec<T>, TrafficLog)
where
    T: Send + 'static,
    F: FnOnce(PartyHandle) -> T + Send + 'static,
{
    // lint:allow(panic-path) reason="public API precondition documented under # Panics; harness configuration, not wire data"
    assert_eq!(bodies.len(), m, "one body per slot");
    let (to_hub, hub_in) = bounded::<Wire>(config.channel_capacity);
    let mut party_txs = Vec::with_capacity(m);
    let mut handles = Vec::with_capacity(m);
    for slot in 0..m {
        let (tx, rx) = bounded::<Wire>(config.channel_capacity);
        party_txs.push(tx);
        handles.push(PartyHandle {
            slot,
            slots: m,
            recv_deadline: config.recv_deadline,
            to_hub: to_hub.clone(),
            from_hub: rx,
            held: RefCell::new(VecDeque::new()),
            capacity: config.channel_capacity,
        });
    }
    drop(to_hub);

    let hub = thread::spawn(move || {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut router = Router::new(m, Some(plan));
        let mut pending: Vec<Wire> = Vec::new();
        let mut bp_dropped: u64 = 0;
        // Push one delivery into a party inbox, waiting out transient
        // fullness up to the configured patience; a stubbornly full (or
        // disconnected) inbox loses the message instead of wedging the
        // hub.
        let deliver = |tx: &Sender<Wire>, mut w: Wire, bp_dropped: &mut u64| {
            let deadline = Instant::now() + config.delivery_patience;
            loop {
                match tx.try_send(w) {
                    Ok(()) => return,
                    Err(TrySendError::Disconnected(_)) => return,
                    Err(TrySendError::Full(back)) => {
                        if Instant::now() >= deadline {
                            *bp_dropped += 1;
                            return;
                        }
                        w = back;
                        thread::sleep(Duration::from_micros(100));
                    }
                }
            }
        };
        let relay = |w: Wire, router: &mut Router, bp_dropped: &mut u64| {
            let inboxes = router
                .route(&w.round, [(w.from_slot, w.payload)], None, None)
                .unwrap_or_default();
            for (tx, inbox) in party_txs.iter().zip(inboxes) {
                for r in inbox {
                    deliver(
                        tx,
                        Wire {
                            from_slot: r.from_slot,
                            round: w.round.clone(),
                            payload: r.payload,
                        },
                        bp_dropped,
                    );
                }
            }
        };
        loop {
            // Drain what's available; block for at least one if the
            // buffer is empty. The reorder buffer is capped so that a
            // flood blocks at the bounded channel (backpressure) instead
            // of ballooning the buffer.
            if pending.is_empty() {
                match hub_in.recv() {
                    Ok(w) => pending.push(w),
                    Err(_) => break,
                }
            }
            while pending.len() < config.channel_capacity {
                match hub_in.try_recv() {
                    Ok(w) => pending.push(w),
                    Err(_) => break,
                }
            }
            // Relay a random pending message (in adversarial order
            // relative to other messages).
            let idx = rng.gen_range(0..pending.len());
            let w = pending.swap_remove(idx);
            relay(w, &mut router, &mut bp_dropped);
        }
        // Flush anything left after senders disconnected.
        while let Some(w) = pending.pop() {
            relay(w, &mut router, &mut bp_dropped);
        }
        router.count_backpressure_drops(bp_dropped);
        router.traffic().clone()
    });

    let threads: Vec<thread::JoinHandle<T>> = handles
        .into_iter()
        .zip(bodies)
        .map(|(handle, body)| thread::spawn(move || body(handle)))
        .collect();
    let outputs: Vec<T> = threads
        .into_iter()
        // lint:allow(panic-path) reason="propagates a party-thread panic to the harness caller, documented under # Panics"
        .map(|t| t.join().expect("party thread"))
        .collect();
    // lint:allow(panic-path) reason="propagates a hub-thread panic to the harness caller, documented under # Panics"
    let log = hub.join().expect("hub thread");
    (outputs, log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultRule;

    #[test]
    fn echo_round_collects_everyone() {
        let m = 4;
        let bodies: Vec<_> = (0..m)
            .map(|_| {
                move |h: PartyHandle| {
                    h.broadcast("hello", vec![h.slot() as u8]);
                    let round = h.collect_round("hello").expect("guaranteed delivery");
                    round.iter().map(|(s, p)| (*s, p[0])).collect::<Vec<_>>()
                }
            })
            .collect();
        let (outputs, log) = run_session(m, 42, bodies);
        for out in outputs {
            assert_eq!(out, vec![(0, 0u8), (1, 1), (2, 2), (3, 3)]);
        }
        assert_eq!(log.len(), m);
        assert_eq!(log.faults().total(), 0, "plain run injects nothing");
    }

    #[test]
    fn multi_round_sessions_complete() {
        let m = 3;
        let bodies: Vec<_> = (0..m)
            .map(|_| {
                move |h: PartyHandle| {
                    h.broadcast("r1", vec![h.slot() as u8]);
                    let r1 = h.collect_round("r1").expect("guaranteed delivery");
                    let sum: u8 = r1.iter().map(|(_, p)| p[0]).sum();
                    h.broadcast("r2", vec![sum]);
                    let r2 = h.collect_round("r2").expect("guaranteed delivery");
                    r2.iter().map(|(_, p)| p[0]).collect::<Vec<u8>>()
                }
            })
            .collect();
        let (outputs, log) = run_session(m, 1, bodies);
        for out in outputs {
            assert_eq!(out, vec![3u8, 3, 3]);
        }
        assert_eq!(log.len(), 2 * m);
    }

    #[test]
    fn different_seeds_reorder_differently_but_agree() {
        // The point of E10 in miniature: outcomes are delivery-order
        // independent.
        for seed in [1u64, 2, 3] {
            let m = 3;
            let bodies: Vec<_> = (0..m)
                .map(|_| {
                    move |h: PartyHandle| {
                        h.broadcast("x", vec![h.slot() as u8 + 10]);
                        let mut vals: Vec<u8> = h
                            .collect_round("x")
                            .expect("guaranteed delivery")
                            .iter()
                            .map(|(_, p)| p[0])
                            .collect();
                        vals.sort();
                        vals
                    }
                })
                .collect();
            let (outputs, _) = run_session(m, seed, bodies);
            for out in outputs {
                assert_eq!(out, vec![10, 11, 12], "seed {seed}");
            }
        }
    }

    #[test]
    fn lossy_round_times_out_instead_of_hanging() {
        let m = 3;
        // Slot 2's broadcasts never reach slot 0.
        let plan = FaultPlan::new(9).with(FaultRule::drop().from(2).to(0));
        let bodies: Vec<_> = (0..m)
            .map(|_| {
                move |mut h: PartyHandle| {
                    h.broadcast("r", vec![h.slot() as u8]);
                    h.collect("r", Duration::from_millis(300), &mut |_, _| true)
                        .expect("hub alive")
                        .iter()
                        .map(|p| p.is_some())
                        .collect::<Vec<_>>()
                }
            })
            .collect();
        let (outputs, log) = run_session_with_faults(m, 5, plan, bodies);
        assert_eq!(outputs[0], vec![true, true, false], "slot 0 misses slot 2");
        assert_eq!(outputs[1], vec![true, true, true]);
        assert_eq!(outputs[2], vec![true, true, true]);
        assert!(log.faults().dropped >= 1);
        assert_eq!(log.len(), m, "eavesdropper still saw every broadcast");
    }

    #[test]
    fn crashed_party_goes_silent_after_budget() {
        let m = 3;
        // Slot 1 participates in round r1, then dies.
        let plan = FaultPlan::new(3).with(FaultRule::crash_stop(1, 1));
        let bodies: Vec<_> = (0..m)
            .map(|_| {
                move |mut h: PartyHandle| {
                    let window = Duration::from_millis(300);
                    h.broadcast("r1", vec![1]);
                    let r1 = h
                        .collect("r1", window, &mut |_, _| true)
                        .expect("hub alive");
                    h.broadcast("r2", vec![2]);
                    let r2 = h
                        .collect("r2", window, &mut |_, _| true)
                        .expect("hub alive");
                    (
                        r1.iter().filter(|p| p.is_some()).count(),
                        r2.iter().filter(|p| p.is_some()).count(),
                    )
                }
            })
            .collect();
        let (outputs, log) = run_session_with_faults(m, 7, plan, bodies);
        for (r1_got, r2_got) in outputs {
            assert_eq!(r1_got, m, "everyone alive in r1");
            assert_eq!(r2_got, m - 1, "slot 1 silent in r2");
        }
        assert_eq!(log.faults().crash_silenced, 1);
        assert_eq!(log.len(), 2 * m - 1, "dead sender logs nothing");
    }

    #[test]
    fn duplicates_are_deduplicated_by_collect() {
        let m = 2;
        let plan = FaultPlan::new(4).with(FaultRule::duplicate());
        let bodies: Vec<_> = (0..m)
            .map(|_| {
                move |mut h: PartyHandle| {
                    h.broadcast("r", vec![h.slot() as u8]);
                    h.collect("r", Duration::from_millis(300), &mut |_, _| true)
                        .expect("hub alive")
                        .iter()
                        .filter(|p| p.is_some())
                        .count()
                }
            })
            .collect();
        let (outputs, log) = run_session_with_faults(m, 2, plan, bodies);
        assert_eq!(outputs, vec![m, m], "first copy wins, extras discarded");
        assert!(log.faults().duplicated >= 1);
    }

    #[test]
    fn collect_holds_next_round_arrivals_for_later() {
        // Slot 0 is a round ahead: its r2 lands while slot 1 still
        // collects r1, and must wait for slot 1's collect of r2.
        let m = 2;
        let bodies: Vec<_> = (0..m)
            .map(|slot: usize| {
                move |mut h: PartyHandle| {
                    if slot == 0 {
                        h.broadcast("r2", vec![2]);
                        return None;
                    }
                    let window = Duration::from_millis(300);
                    let r1 = h
                        .collect("r1", window, &mut |_, _| true)
                        .expect("hub alive");
                    assert!(r1.iter().all(Option::is_none), "nobody sent r1");
                    let r2 = h
                        .collect("r2", window, &mut |_, _| true)
                        .expect("hub alive");
                    r2[0].clone()
                }
            })
            .collect();
        let (outputs, _) = run_session(m, 3, bodies);
        assert_eq!(outputs[1], Some(vec![2]), "slot 0's r2 was held, not lost");
    }

    #[test]
    fn recv_reports_disconnected_hub_instead_of_panicking() {
        // A party whose recv outlives the hub gets a structured error.
        let m = 2;
        let bodies: Vec<_> = (0..m)
            .map(|_| {
                move |h: PartyHandle| {
                    // No broadcasts at all: nothing will ever arrive, and
                    // the deadline-based receive reports that structurally
                    // instead of blocking forever or panicking.
                    h.recv_timeout(Duration::from_millis(200))
                }
            })
            .collect();
        let (outputs, _) = run_session(m, 8, bodies);
        for out in outputs {
            assert!(matches!(
                out,
                Err(NetError::Timeout) | Err(NetError::Disconnected)
            ));
        }
    }

    #[test]
    fn tiny_capacity_applies_backpressure_without_deadlock() {
        // Capacity 1 with a slow reader: the hub must neither wedge nor
        // buffer without limit; anything it sheds is tallied.
        let config = HubConfig {
            channel_capacity: 1,
            delivery_patience: Duration::from_millis(50),
            recv_deadline: Duration::from_secs(5),
        };
        let m = 2;
        let burst = 64usize;
        let bodies: Vec<_> = (0..m)
            .map(|slot: usize| {
                move |h: PartyHandle| {
                    if slot == 0 {
                        for i in 0..burst {
                            h.broadcast("flood", vec![i as u8]);
                        }
                        0usize
                    } else {
                        // Slow consumer: drain with pauses.
                        let mut got = 0usize;
                        while let Ok(_msg) = h.recv_timeout(Duration::from_millis(300)) {
                            got += 1;
                            thread::sleep(Duration::from_millis(1));
                        }
                        got
                    }
                }
            })
            .collect();
        let (outputs, log) = run_session_with_config(m, 6, FaultPlan::new(6), config, bodies);
        // Every flooded message was either delivered or accounted as a
        // backpressure drop — none vanished silently.
        let delivered = outputs[1];
        let dropped = log.faults().backpressure_dropped as usize;
        // Slot 0 also receives its own echoes, which nobody drains; those
        // echoes are the main source of backpressure drops here.
        assert!(delivered + dropped >= burst, "{delivered} + {dropped}");
        assert_eq!(log.len(), burst, "the wire saw every broadcast");
    }
}
