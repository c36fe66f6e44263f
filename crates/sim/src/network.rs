//! The simulated media: [`SimMedium`] (lockstep, implements
//! [`Medium`]) and [`run_session`]'s `SimLink` (per-party, implements
//! [`PartyLink`]) — the two seams through which the *unmodified*
//! handshake engine and per-party driver run under virtual time.
//!
//! [`SimMedium`] *is* the production lockstep medium: it wraps a
//! synchronous [`shs_net::sync::BroadcastNet`], which delivers, injects
//! faults and logs, and only adds time — a seeded latency draw per
//! delivered copy and a patience charge when a live sender's copy is
//! missing. The per-party `SimLink` hands every broadcast to the routing
//! step every medium shares ([`Router`]: the [`FaultPlan`], both fault
//! clocks, the eavesdropper log and the stand-ins) and adds only
//! staging, latency draws and the event queue, under a coordinator that
//! measures collect windows on the virtual clock. Neither medium ever
//! calls `thread::sleep`. `SimLink` is the one in-process `PartyLink`;
//! `shs_net::tcp::TcpParty` is its wall-clock counterpart.
//!
//! # Determinism
//!
//! The per-party session runs real threads (party bodies block in
//! `collect` exactly as they do over TCP), so raw thread interleaving
//! must not be allowed to leak into the trace. Five rules prevent it:
//!
//! 1. **Staged broadcasts.** A `broadcast` only *stages* the message.
//!    Staged messages are processed (logged, faulted, scheduled) in
//!    canonical `(sender-sequence, slot)` order at the next advance
//!    point — when every unfinished party is blocked — so the
//!    [`FaultPlan`]'s seeded coins are always consumed in the same
//!    order no matter which thread ran first.
//! 2. **Stateless latency draws.** Transit times are pure functions of
//!    `(seed, round, from, to, sequence, copy)`, never of draw order.
//! 3. **Identity-keyed event queue.** Simultaneous events pop in
//!    `(time, sender, receiver, …)` order, not insertion order.
//! 4. **Acknowledged deliveries.** The clock never advances while a
//!    blocked party has mail it has not drained: a just-delivered
//!    final copy may complete that party's view, and jumping to a
//!    deadline before its thread gets scheduled would fabricate a
//!    timeout (and a spurious retransmission) out of host scheduling
//!    noise.
//! 5. **Observed deadlines.** The session never advances while a
//!    blocked party's deadline has expired unobserved. Parties that
//!    enter a round together share a deadline; if the first thread to
//!    wake could advance, its retransmission would be processed alone
//!    and the others' in later batches, consuming the [`FaultPlan`]'s
//!    coins in host-scheduling order. A ready state therefore always
//!    has a waiting deadline ahead of the clock, and every advance
//!    step makes progress.

use crate::core::{nanos, EventQueue, LatencyModel, Nanos, TraceFingerprint};
use shs_net::fault::FaultPlan;
use shs_net::observe::TrafficLog;
use shs_net::route::Router;
use shs_net::sync::{BroadcastNet, Received};
use shs_net::{DeliveryPolicy, Medium, NetError, PartyLink};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// How long a lockstep exchange waits (in virtual time) for deliveries
/// that never arrive before handing the engine an incomplete view —
/// the simulated analogue of a per-round collect deadline.
pub const DEFAULT_EXCHANGE_PATIENCE: Duration = Duration::from_millis(20);

// ---------------------------------------------------------------------------
// SimMedium: the lockstep medium under virtual time
// ---------------------------------------------------------------------------

/// The lockstep medium under virtual time: a synchronous
/// [`BroadcastNet`], which does all delivery, fault injection and
/// eavesdropper logging, plus a latency accountant that charges each
/// exchange what it would have cost on a real network. Every delivered
/// copy gets a seeded latency draw; the exchange costs the latest
/// arrival when every live sender reached every receiver, or the full
/// patience window when some live sender's copy is missing and the
/// engine would have waited out its collect window.
pub struct SimMedium {
    net: BroadcastNet<'static>,
    latency: LatencyModel,
    now: Nanos,
    exchange_seq: u64,
    deliveries: u64,
    fingerprint: TraceFingerprint,
}

impl SimMedium {
    /// A fault-free simulated medium connecting `slots` parties.
    pub fn new(slots: usize, latency: LatencyModel) -> SimMedium {
        SimMedium {
            net: BroadcastNet::new(slots, DeliveryPolicy::Synchronous),
            latency,
            now: 0,
            exchange_seq: 0,
            deliveries: 0,
            fingerprint: TraceFingerprint::new(),
        }
    }

    /// Installs a fault schedule; delivery is no longer guaranteed.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.net.set_fault_plan(plan);
    }

    /// Virtual time elapsed on this medium.
    pub fn elapsed(&self) -> Duration {
        Duration::from_nanos(self.now)
    }

    /// Exchanges performed.
    pub fn exchanges(&self) -> u64 {
        self.exchange_seq
    }

    /// Delivery copies that arrived.
    pub fn deliveries(&self) -> u64 {
        self.deliveries
    }

    /// The event-trace fingerprint accumulated so far.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint.value()
    }
}

impl Medium for SimMedium {
    fn slots(&self) -> usize {
        self.net.slots()
    }

    fn exchange(
        &mut self,
        round: &str,
        outgoing: Vec<Vec<u8>>,
    ) -> Result<Vec<Vec<Received>>, NetError> {
        let inboxes = self.net.exchange(round, outgoing)?;
        self.exchange_seq += 1;
        let round_key = crate::core::fnv1a(round.as_bytes());
        let crashed = Medium::crashed_slots(&self.net);
        let mut max_arrival: Nanos = 0;
        let mut complete = true;
        for (to_slot, inbox) in inboxes.iter().enumerate() {
            // Copies per sender so far: the copy index of the next draw.
            let mut copies = vec![0u64; inboxes.len()];
            for r in inbox {
                let copy = &mut copies[r.from_slot];
                let lat = self
                    .latency
                    .draw(round, r.from_slot, to_slot, self.exchange_seq, *copy);
                *copy += 1;
                max_arrival = max_arrival.max(lat);
                self.deliveries += 1;
                self.fingerprint.fold(&[
                    round_key,
                    r.from_slot as u64,
                    to_slot as u64,
                    r.payload.len() as u64,
                    lat,
                ]);
            }
            // A live sender's message that never reached this receiver
            // leaves its view short: the collect waits out the window.
            complete &= copies
                .iter()
                .enumerate()
                .all(|(from, n)| *n > 0 || crashed.contains(&from));
        }
        let cost = if complete {
            max_arrival
        } else {
            nanos(DEFAULT_EXCHANGE_PATIENCE).max(max_arrival)
        };
        self.now = self.now.saturating_add(cost);
        self.fingerprint
            .fold(&[round_key, self.exchange_seq, cost, u64::from(complete)]);
        Ok(inboxes)
    }

    fn traffic_snapshot(&self) -> TrafficLog {
        self.net.traffic().clone()
    }

    fn crashed_slots(&self) -> Vec<usize> {
        Medium::crashed_slots(&self.net)
    }
}

// ---------------------------------------------------------------------------
// SimSession: per-party driver under virtual time
// ---------------------------------------------------------------------------

/// One staged (not yet processed) broadcast.
struct Staged {
    /// The sender's broadcast sequence number (its own program order).
    seq: u64,
    slot: usize,
    round: String,
    payload: Vec<u8>,
}

/// A delivery in flight: scheduled on the event queue, lands in the
/// receiver's mailbox at its arrival time.
struct Delivery {
    to: usize,
    from: usize,
    round: String,
    payload: Vec<u8>,
}

struct SessionCore {
    m: usize,
    now: Nanos,
    /// Unfinished parties (a finished party's link was dropped).
    active: usize,
    /// Per-slot collect deadline while the party is blocked in collect.
    waiting: Vec<Option<Nanos>>,
    staged: Vec<Staged>,
    queue: EventQueue<Delivery>,
    /// Per-party received-but-unconsumed messages. Out-of-round
    /// arrivals are *buffered*, as on a `TcpParty`: under virtual
    /// latency a fast party's next-round broadcast can overtake a slow
    /// delivery, and dropping it would turn a guaranteed-delivery run
    /// lossy.
    mailbox: Vec<Vec<(String, usize, Vec<u8>)>>,
    /// Slots with mail delivered since their last mailbox drain. A
    /// blocked party with fresh mail may already hold a completable
    /// view its thread simply has not been scheduled to consume, so
    /// advancing the clock past its deadline would fabricate a timeout
    /// (and a retransmission) out of host scheduling noise.
    fresh_mail: Vec<bool>,
    /// The routing step: fault plan, clocks, eavesdropper log.
    router: Router,
    /// All broadcast attempts per sender (canonical processing order).
    seq: Vec<u64>,
    latency: LatencyModel,
    fingerprint: TraceFingerprint,
    /// Monotone event id, assigned in canonical processing order; the
    /// queue tiebreak for events sharing a timestamp.
    eid: u64,
}

impl SessionCore {
    /// Are all unfinished parties blocked in collect, with every
    /// delivery they have received already drained and every deadline
    /// still ahead? Only then may the simulation advance (conservative
    /// synchronization: no party could still produce an earlier event,
    /// and none is sitting on unread mail or an expired deadline that
    /// would change what it does next).
    fn ready_to_advance(&self) -> bool {
        self.active > 0
            && self.waiting.iter().filter(|w| w.is_some()).count() == self.active
            && self
                .waiting
                .iter()
                .zip(&self.fresh_mail)
                .all(|(w, fresh)| w.is_none_or(|d| !fresh && d > self.now))
    }

    /// Processes one staged broadcast: routes it, folds what went on the
    /// wire into the fingerprint and schedules every copy, each drawing
    /// its latency with the broadcast's sequence number and its index
    /// among the copies from the same sender to the same receiver.
    fn process_broadcast(&mut self, s: Staged) {
        let logged = self.router.traffic().len();
        let inboxes = self
            .router
            .route(&s.round, [(s.slot, s.payload)], None, None)
            .unwrap_or_default();
        let round_key = crate::core::fnv1a(s.round.as_bytes());
        let sent = self.router.traffic().records().get(logged..).unwrap_or(&[]);
        for r in sent {
            self.fingerprint
                .fold(&[round_key, r.from_slot as u64, s.seq, r.payload.len() as u64]);
        }
        for (to, inbox) in inboxes.into_iter().enumerate() {
            let mut copies = vec![0u64; self.m];
            for r in inbox {
                let copy = copies[r.from_slot];
                copies[r.from_slot] += 1;
                let lat = self.latency.draw(&s.round, r.from_slot, to, s.seq, copy);
                let at = self.now.saturating_add(lat);
                self.eid += 1;
                self.queue.push(
                    at,
                    self.eid,
                    Delivery {
                        to,
                        from: r.from_slot,
                        round: s.round.clone(),
                        payload: r.payload,
                    },
                );
            }
        }
    }

    /// One advance step, called from a ready state
    /// ([`SessionCore::ready_to_advance`]): first flush staged
    /// broadcasts (no time passes), otherwise deliver the next arrival
    /// or move time forward to the earliest deadline. A ready state
    /// has a waiting deadline later than `now`, so every step makes
    /// progress.
    fn advance(&mut self) {
        if !self.staged.is_empty() {
            let mut staged = std::mem::take(&mut self.staged);
            staged.sort_by_key(|s| (s.seq, s.slot));
            for s in staged {
                self.process_broadcast(s);
            }
            return;
        }
        let deadline = self.waiting.iter().flatten().copied().min();
        match (self.queue.peek_time(), deadline) {
            (Some(t), Some(d)) if t > d => self.now = self.now.max(d),
            (Some(_), _) => self.pop_delivery(),
            (None, Some(d)) => self.now = self.now.max(d),
            (None, None) => {}
        }
    }

    fn pop_delivery(&mut self) {
        if let Some((t, d)) = self.queue.pop() {
            self.now = self.now.max(t);
            self.fingerprint
                .fold(&[t, d.from as u64, d.to as u64, d.payload.len() as u64]);
            self.mailbox[d.to].push((d.round, d.from, d.payload));
            self.fresh_mail[d.to] = true;
        }
    }
}

struct Shared {
    core: Mutex<SessionCore>,
    cv: Condvar,
}

impl Shared {
    fn locked(&self) -> MutexGuard<'_, SessionCore> {
        self.core
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// One party's endpoint on the simulated session: implements
/// [`PartyLink`] with the collect timeout measured in **virtual** time.
/// Dropping the link marks the party finished (the simulation stops
/// waiting for it before advancing).
pub struct SimLink {
    slot: usize,
    slots: usize,
    shared: Arc<Shared>,
}

impl SimLink {
    /// This party's slot.
    pub fn slot(&self) -> usize {
        self.slot
    }

    /// Session width.
    pub fn slots(&self) -> usize {
        self.slots
    }
}

impl PartyLink for SimLink {
    fn slot(&self) -> usize {
        self.slot
    }

    fn slots(&self) -> usize {
        self.slots
    }

    fn broadcast(&mut self, round: &str, payload: Vec<u8>) -> Result<(), NetError> {
        let mut core = self.shared.locked();
        let seq = core.seq[self.slot];
        core.seq[self.slot] += 1;
        core.staged.push(Staged {
            seq,
            slot: self.slot,
            round: round.to_string(),
            payload,
        });
        Ok(())
    }

    fn collect(
        &mut self,
        round: &str,
        timeout: Duration,
        valid: &mut dyn FnMut(usize, &[u8]) -> bool,
    ) -> Result<Vec<Option<Vec<u8>>>, NetError> {
        let me = self.slot;
        let mut core = self.shared.locked();
        let deadline = core.now.saturating_add(nanos(timeout));
        core.waiting[me] = Some(deadline);
        let mut view: Vec<Option<Vec<u8>>> = vec![None; self.slots];
        loop {
            // Consume matching arrivals (first valid copy per sender
            // wins); keep everything else buffered for later rounds.
            let mail = std::mem::take(&mut core.mailbox[me]);
            let mut keep = Vec::with_capacity(mail.len());
            for (r, from, payload) in mail {
                if r == round {
                    if from < self.slots && view[from].is_none() && valid(from, &payload) {
                        view[from] = Some(payload);
                    }
                    // Matching but invalid/duplicate copies are spent.
                } else {
                    keep.push((r, from, payload));
                }
            }
            core.mailbox[me] = keep;
            core.fresh_mail[me] = false;
            if view.iter().all(Option::is_some) || core.now >= deadline {
                break;
            }
            if core.ready_to_advance() {
                core.advance();
                self.shared.cv.notify_all();
            } else {
                // Some party is still running, or holds fresh mail or an
                // expired deadline it has not yet observed: it will
                // advance or notify once it blocks again.
                core = self
                    .shared
                    .cv
                    .wait(core)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        }
        core.waiting[me] = None;
        Ok(view)
    }
}

impl Drop for SimLink {
    fn drop(&mut self) {
        let mut core = self.shared.locked();
        if core.active > 0 {
            core.active -= 1;
        }
        core.waiting[self.slot] = None;
        // The remaining parties may now satisfy the advance condition.
        self.shared.cv.notify_all();
    }
}

/// Everything a simulated per-party session produced.
#[derive(Debug)]
pub struct SimSessionReport<T> {
    /// Per-slot body outputs.
    pub outputs: Vec<T>,
    /// The eavesdropper's log (canonical order; carries fault tallies).
    pub traffic: TrafficLog,
    /// Virtual time the session spanned.
    pub elapsed: Duration,
    /// The deterministic event-trace fingerprint.
    pub fingerprint: u64,
}

/// Runs `m` party bodies, each on its own thread, over the simulated
/// medium: guaranteed delivery under an empty plan, the shared fault
/// vocabulary under a non-empty one. Collect timeouts are virtual, and
/// the whole session performs zero wall-clock sleeps.
///
/// # Panics
///
/// Panics if a party thread panics.
pub fn run_session<T, F>(
    m: usize,
    plan: FaultPlan,
    latency: LatencyModel,
    bodies: Vec<F>,
) -> SimSessionReport<T>
where
    T: Send + 'static,
    F: FnOnce(SimLink) -> T + Send + 'static,
{
    // lint:allow(panic-path) reason="public API precondition documented under # Panics; harness configuration, not wire data"
    assert_eq!(bodies.len(), m, "one body per slot");
    let shared = Arc::new(Shared {
        core: Mutex::new(SessionCore {
            m,
            now: 0,
            active: m,
            waiting: vec![None; m],
            staged: Vec::new(),
            queue: EventQueue::new(),
            mailbox: vec![Vec::new(); m],
            fresh_mail: vec![false; m],
            router: Router::new(m, Some(plan)),
            seq: vec![0; m],
            latency,
            fingerprint: TraceFingerprint::new(),
            eid: 0,
        }),
        cv: Condvar::new(),
    });
    let threads: Vec<std::thread::JoinHandle<T>> = bodies
        .into_iter()
        .enumerate()
        .map(|(slot, body)| {
            let link = SimLink {
                slot,
                slots: m,
                shared: Arc::clone(&shared),
            };
            std::thread::spawn(move || body(link))
        })
        .collect();
    let outputs: Vec<T> = threads
        .into_iter()
        // lint:allow(panic-path) reason="propagates a party-thread panic to the harness caller, documented under # Panics"
        .map(|t| t.join().expect("party thread"))
        .collect();
    let core = shared.locked();
    SimSessionReport {
        outputs,
        traffic: core.router.traffic().clone(),
        elapsed: Duration::from_nanos(core.now),
        fingerprint: core.fingerprint.value(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shs_net::fault::FaultRule;

    fn echo_bodies(m: usize) -> Vec<impl FnOnce(SimLink) -> Vec<Option<Vec<u8>>> + Send> {
        (0..m)
            .map(|_| {
                move |mut link: SimLink| {
                    let me = PartyLink::slot(&link) as u8;
                    link.broadcast("hello", vec![me]).unwrap();
                    link.collect("hello", Duration::from_millis(50), &mut |_, _| true)
                        .unwrap()
                }
            })
            .collect()
    }

    #[test]
    fn echo_round_reaches_everyone_in_virtual_time() {
        let started = std::time::Instant::now();
        let report = run_session(4, FaultPlan::new(1), LatencyModel::lan(2), echo_bodies(4));
        for (slot, view) in report.outputs.iter().enumerate() {
            assert_eq!(view.len(), 4);
            for (from, v) in view.iter().enumerate() {
                assert_eq!(v.as_deref(), Some(&[from as u8][..]), "slot {slot}");
            }
        }
        assert_eq!(report.traffic.len(), 4);
        assert!(
            report.elapsed >= Duration::from_micros(200),
            "latency charged"
        );
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "virtual waiting, not wall waiting"
        );
    }

    /// One party's view of each round it ran.
    type RoundViews = Vec<Vec<Option<Vec<u8>>>>;

    /// Parties that run `rounds` rounds, retransmitting up to 3 times
    /// while their view of a round is incomplete.
    fn retransmitting_bodies(
        m: usize,
        rounds: &'static [&'static str],
    ) -> Vec<impl FnOnce(SimLink) -> RoundViews + Send> {
        (0..m)
            .map(move |_| {
                move |mut link: SimLink| {
                    let me = PartyLink::slot(&link) as u8;
                    let mut views = Vec::new();
                    for (t, round) in rounds.iter().enumerate() {
                        let mut view = vec![None; PartyLink::slots(&link)];
                        for _attempt in 0..4 {
                            link.broadcast(round, vec![me, t as u8]).unwrap();
                            let got = link
                                .collect(round, Duration::from_millis(10), &mut |_, _| true)
                                .unwrap();
                            for (cell, copy) in view.iter_mut().zip(got) {
                                if cell.is_none() {
                                    *cell = copy;
                                }
                            }
                            if view.iter().all(Option::is_some) {
                                break;
                            }
                        }
                        views.push(view);
                    }
                    views
                }
            })
            .collect()
    }

    /// Same seed, same trace — including retransmissions. Parties that
    /// entered a round together share a collect deadline; when it
    /// expires, every one of them must stage its retransmission before
    /// the session advances, or the fault plan's coins are consumed in
    /// host-scheduling order.
    #[test]
    fn same_seed_same_trace() {
        let run = || {
            let report = run_session(
                3,
                FaultPlan::new(9).with(FaultRule::drop().with_probability(0.4)),
                LatencyModel::lan(5),
                retransmitting_bodies(3, &["r1", "r2", "r3", "r4"]),
            );
            (
                report.fingerprint,
                report.elapsed,
                report.traffic,
                report.outputs,
            )
        };
        let first = run();
        assert!(
            first.2.len() > 3 * 4,
            "the plan forces retransmissions: {} broadcasts",
            first.2.len()
        );
        for replay in 1..30 {
            let again = run();
            assert_eq!(first.0, again.0, "fingerprint, replay {replay}");
            assert_eq!(first.1, again.1, "elapsed, replay {replay}");
            assert_eq!(first.2, again.2, "traffic log, replay {replay}");
            assert_eq!(first.3, again.3, "outputs, replay {replay}");
        }
    }

    #[test]
    fn dropped_delivery_times_out_the_collector() {
        let report = run_session(
            2,
            FaultPlan::new(3).with(FaultRule::drop().from(1).to(0)),
            LatencyModel::lan(4),
            echo_bodies(2),
        );
        assert!(report.outputs[0][1].is_none(), "slot 0 lost slot 1's hello");
        assert!(report.outputs[1][0].is_some());
        assert_eq!(report.traffic.faults().dropped, 1);
    }

    /// Every copy duplicated: collect keeps one copy per sender, the
    /// first to arrive; the extra copy is never even offered to the
    /// validity filter.
    #[test]
    fn duplicated_copies_are_collected_once_first_copy_wins() {
        let m = 3;
        let bodies: Vec<_> = (0..m)
            .map(|_| {
                move |mut link: SimLink| {
                    let me = PartyLink::slot(&link) as u8;
                    link.broadcast("r", vec![me]).unwrap();
                    let mut offered = vec![0; m];
                    let view = link
                        .collect("r", Duration::from_millis(50), &mut |from, _| {
                            offered[from] += 1;
                            true
                        })
                        .unwrap();
                    (view, offered)
                }
            })
            .collect();
        let report = run_session(
            m,
            FaultPlan::new(4).with(FaultRule::duplicate()),
            LatencyModel::lan(2),
            bodies,
        );
        for (slot, (view, offered)) in report.outputs.iter().enumerate() {
            for (from, v) in view.iter().enumerate() {
                assert_eq!(v.as_deref(), Some(&[from as u8][..]), "slot {slot}");
            }
            assert_eq!(offered, &vec![1; m], "slot {slot}: one copy per sender");
        }
        assert_eq!(report.traffic.faults().duplicated, (m * m) as u64);
        assert_eq!(report.traffic.len(), m, "the wire saw one send each");
    }

    /// Slot 0 is a round ahead: its `r2` lands while slot 1 still
    /// collects `r1`, and must wait for slot 1's collect of `r2`.
    #[test]
    fn collect_holds_next_round_arrivals_for_later() {
        let bodies: Vec<_> = (0..2)
            .map(|slot| {
                move |mut link: SimLink| {
                    if slot == 0 {
                        link.broadcast("r2", vec![2]).unwrap();
                        return None;
                    }
                    let window = Duration::from_millis(30);
                    let r1 = link.collect("r1", window, &mut |_, _| true).unwrap();
                    assert!(r1.iter().all(Option::is_none), "nobody sent r1");
                    let r2 = link.collect("r2", window, &mut |_, _| true).unwrap();
                    r2[0].clone()
                }
            })
            .collect();
        let report = run_session(2, FaultPlan::new(3), LatencyModel::lan(3), bodies);
        assert_eq!(report.outputs[1], Some(vec![2]), "slot 0's r2 was held");
    }

    #[test]
    fn crash_stop_silences_the_sender_after_its_budget() {
        let m = 3;
        let bodies: Vec<_> = (0..m)
            .map(|_| {
                move |mut link: SimLink| {
                    let me = PartyLink::slot(&link) as u8;
                    let mut views = Vec::new();
                    for round in ["r1", "r2"] {
                        link.broadcast(round, vec![me]).unwrap();
                        let v = link
                            .collect(round, Duration::from_millis(30), &mut |_, _| true)
                            .unwrap();
                        views.push(v.iter().filter(|x| x.is_some()).count());
                    }
                    views
                }
            })
            .collect();
        let report = run_session(
            m,
            FaultPlan::new(6).with(FaultRule::crash_stop(2, 1)),
            LatencyModel::lan(7),
            bodies,
        );
        for views in &report.outputs {
            assert_eq!(views[0], 3, "everyone alive in round 1");
            assert_eq!(views[1], 2, "slot 2 dead in round 2");
        }
        assert!(report.traffic.faults().crash_silenced >= 1);
    }

    /// The wrapped medium decides every delivery: the simulated one
    /// returns what a bare `BroadcastNet` returns under the same plan.
    #[test]
    fn sim_medium_matches_broadcast_net_on_the_same_plan() {
        use shs_net::sync::BroadcastNet;
        use shs_net::DeliveryPolicy;
        let payloads: Vec<Vec<u8>> = (0..3u8).map(|i| vec![i; 8]).collect();
        let plan = || {
            FaultPlan::new(11)
                .with(FaultRule::drop().with_probability(0.5))
                .with(FaultRule::duplicate().in_round("r2"))
        };
        let mut real = BroadcastNet::new(3, DeliveryPolicy::Synchronous);
        real.set_fault_plan(plan());
        let mut sim = SimMedium::new(3, LatencyModel::lan(1));
        sim.set_fault_plan(plan());
        for round in ["r1", "r2", "r1"] {
            let a = real.exchange(round, payloads.clone()).unwrap();
            let b = Medium::exchange(&mut sim, round, payloads.clone()).unwrap();
            assert_eq!(a, b, "round {round}");
        }
        assert_eq!(
            real.traffic_snapshot(),
            sim.traffic_snapshot(),
            "same log, same fault tallies"
        );
        assert!(sim.elapsed() > Duration::ZERO);
    }

    #[test]
    fn sim_medium_charges_patience_only_for_missing_live_senders() {
        let payloads: Vec<Vec<u8>> = (0..3u8).map(|i| vec![i; 8]).collect();
        let elapsed_under = |plan: FaultPlan| {
            let mut sim = SimMedium::new(3, LatencyModel::lan(2));
            sim.set_fault_plan(plan);
            Medium::exchange(&mut sim, "r1", payloads.clone()).unwrap();
            sim.elapsed()
        };
        // A crashed sender's silence is expected: only latency is charged.
        let crashed = elapsed_under(FaultPlan::new(2).with(FaultRule::crash_stop(2, 0)));
        assert!(crashed < Duration::from_millis(1), "{crashed:?}");
        // A live sender's lost copy leaves a view short: patience.
        let lossy = elapsed_under(FaultPlan::new(2).with(FaultRule::drop().from(1).to(0)));
        assert_eq!(lossy, DEFAULT_EXCHANGE_PATIENCE);
    }
}
