//! The round-based anonymous broadcast medium.
//!
//! Protocol drivers hand a full round of per-slot broadcast payloads to
//! [`BroadcastNet::exchange`]; the medium routes them as one exchange
//! through the shared [`Router`] — which logs them for the eavesdropper,
//! lets an optional man-in-the-middle rewrite what each receiver sees,
//! and applies the fault plan — and returns every receiver's inbox in
//! policy order. Delivery is guaranteed (the paper's asynchronous model
//! assumes guaranteed delivery; Fig. 5) *unless* a [`FaultPlan`] is
//! installed, in which case deliveries may be dropped, duplicated,
//! corrupted, truncated, delayed or partitioned, and crash-stopped
//! senders go silent — see [`crate::fault`].

use crate::fault::FaultPlan;
use crate::observe::TrafficLog;
use crate::route::Router;
use crate::{DeliveryPolicy, Medium, NetError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A received message: the sender's anonymous slot and the payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Received {
    /// Sender slot.
    pub from_slot: usize,
    /// Payload bytes (possibly rewritten by the interceptor).
    pub payload: Vec<u8>,
}

/// Context handed to the man-in-the-middle hook for each (sender,
/// receiver) delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InterceptCtx<'a> {
    /// Round label.
    pub round: &'a str,
    /// Sender slot.
    pub from_slot: usize,
    /// Receiver slot.
    pub to_slot: usize,
}

/// The interception hook type: may rewrite the payload a specific receiver
/// sees (active attack). Delivery itself cannot be suppressed.
pub type Interceptor<'a> = Box<dyn FnMut(InterceptCtx<'_>, &mut Vec<u8>) + 'a>;

/// A deterministic round-based broadcast medium between `slots` anonymous
/// parties.
pub struct BroadcastNet<'a> {
    policy: DeliveryPolicy,
    router: Router,
    interceptor: Option<Interceptor<'a>>,
    reorder_rng: Option<StdRng>,
}

impl std::fmt::Debug for BroadcastNet<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "BroadcastNet {{ slots: {}, policy: {:?}, observed: {} msgs }}",
            self.slots(),
            self.policy,
            self.router.traffic().len()
        )
    }
}

impl<'a> BroadcastNet<'a> {
    /// Creates a medium connecting `slots` parties.
    pub fn new(slots: usize, policy: DeliveryPolicy) -> BroadcastNet<'a> {
        let reorder_rng = match policy {
            DeliveryPolicy::Synchronous => None,
            DeliveryPolicy::AdversarialReorder { seed } => Some(StdRng::seed_from_u64(seed)),
        };
        BroadcastNet {
            policy,
            router: Router::new(slots, None),
            interceptor: None,
            reorder_rng,
        }
    }

    /// Installs a man-in-the-middle hook.
    pub fn set_interceptor(&mut self, interceptor: Interceptor<'a>) {
        self.interceptor = Some(interceptor);
    }

    /// Installs a fault schedule; delivery is no longer guaranteed.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.router.plan = Some(plan);
    }

    /// The installed fault schedule, if any (e.g. to query
    /// [`FaultPlan::crashed_slots`] or inspect counters mid-session).
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.router.plan.as_ref()
    }

    /// Number of party slots.
    pub fn slots(&self) -> usize {
        self.router.slots
    }

    /// The eavesdropper's log so far.
    pub fn traffic(&self) -> &TrafficLog {
        self.router.traffic()
    }

    /// Performs one broadcast round: `outgoing[i]` is slot `i`'s broadcast
    /// payload; the result's entry `i` is slot `i`'s inbox containing all
    /// `slots` messages (including its own echo, as on a radio medium) in
    /// delivery order.
    ///
    /// # Errors
    ///
    /// [`NetError::IncompleteRound`] unless exactly one payload per slot is
    /// supplied.
    pub fn exchange(
        &mut self,
        round: &str,
        outgoing: Vec<Vec<u8>>,
    ) -> Result<Vec<Vec<Received>>, NetError> {
        if outgoing.len() != self.slots() {
            return Err(NetError::IncompleteRound);
        }
        let batch = outgoing.into_iter().enumerate();
        let mut inboxes = self
            .router
            .route(round, batch, None, self.interceptor.as_mut())
            .unwrap_or_else(|| vec![Vec::new(); self.slots()]);
        if let Some(rng) = self.reorder_rng.as_mut() {
            // Fisher–Yates with the adversary's coins, per receiver.
            for inbox in &mut inboxes {
                for i in (1..inbox.len()).rev() {
                    let j = rng.gen_range(0..=i);
                    inbox.swap(i, j);
                }
            }
        }
        Ok(inboxes)
    }
}

impl Medium for BroadcastNet<'_> {
    fn slots(&self) -> usize {
        BroadcastNet::slots(self)
    }

    fn exchange(
        &mut self,
        round: &str,
        outgoing: Vec<Vec<u8>>,
    ) -> Result<Vec<Vec<Received>>, NetError> {
        BroadcastNet::exchange(self, round, outgoing)
    }

    fn traffic_snapshot(&self) -> TrafficLog {
        self.router.traffic().clone()
    }

    fn crashed_slots(&self) -> Vec<usize> {
        self.router.crashed_slots()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payloads(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| vec![i as u8; i + 1]).collect()
    }

    #[test]
    fn synchronous_delivery_in_slot_order() {
        let mut net = BroadcastNet::new(3, DeliveryPolicy::Synchronous);
        let inboxes = net.exchange("r1", payloads(3)).unwrap();
        for inbox in &inboxes {
            let order: Vec<usize> = inbox.iter().map(|r| r.from_slot).collect();
            assert_eq!(order, vec![0, 1, 2]);
        }
        assert_eq!(net.traffic().len(), 3);
    }

    #[test]
    fn reordering_preserves_content() {
        let mut net = BroadcastNet::new(5, DeliveryPolicy::AdversarialReorder { seed: 7 });
        let inboxes = net.exchange("r1", payloads(5)).unwrap();
        let mut any_reordered = false;
        for inbox in &inboxes {
            assert_eq!(inbox.len(), 5, "guaranteed delivery");
            let mut slots: Vec<usize> = inbox.iter().map(|r| r.from_slot).collect();
            if slots != vec![0, 1, 2, 3, 4] {
                any_reordered = true;
            }
            slots.sort();
            assert_eq!(slots, vec![0, 1, 2, 3, 4], "nothing lost or duplicated");
        }
        assert!(any_reordered, "adversary should actually reorder");
    }

    #[test]
    fn incomplete_round_rejected() {
        let mut net = BroadcastNet::new(3, DeliveryPolicy::Synchronous);
        assert_eq!(
            net.exchange("r1", payloads(2)).err(),
            Some(NetError::IncompleteRound)
        );
    }

    #[test]
    fn interceptor_rewrites_for_specific_receiver() {
        let mut net = BroadcastNet::new(3, DeliveryPolicy::Synchronous);
        net.set_interceptor(Box::new(|ctx, payload| {
            if ctx.from_slot == 1 && ctx.to_slot == 0 {
                payload.clear();
                payload.extend_from_slice(b"evil");
            }
        }));
        let inboxes = net.exchange("r1", payloads(3)).unwrap();
        assert_eq!(inboxes[0][1].payload, b"evil");
        // Other receivers see the genuine payload.
        assert_eq!(inboxes[2][1].payload, vec![1u8, 1]);
    }

    #[test]
    fn dropped_delivery_vanishes_from_inbox_not_from_log() {
        use crate::fault::{FaultPlan, FaultRule};
        let mut net = BroadcastNet::new(3, DeliveryPolicy::Synchronous);
        net.set_fault_plan(FaultPlan::new(1).with(FaultRule::drop().from(1).to(0)));
        let inboxes = net.exchange("r1", payloads(3)).unwrap();
        let senders: Vec<usize> = inboxes[0].iter().map(|r| r.from_slot).collect();
        assert_eq!(senders, vec![0, 2], "slot 0 lost slot 1's message");
        assert_eq!(inboxes[2].len(), 3, "other receivers unaffected");
        // The eavesdropper still saw the broadcast.
        assert_eq!(net.traffic().len(), 3);
        assert_eq!(net.traffic().faults().dropped, 1);
    }

    #[test]
    fn crashed_sender_disappears_from_wire_and_log() {
        use crate::fault::{FaultPlan, FaultRule};
        let mut net = BroadcastNet::new(3, DeliveryPolicy::Synchronous);
        net.set_fault_plan(FaultPlan::new(1).with(FaultRule::crash_stop(2, 1)));
        let first = net.exchange("r1", payloads(3)).unwrap();
        assert_eq!(first[0].len(), 3, "alive in its first exchange");
        let second = net.exchange("r2", payloads(3)).unwrap();
        assert!(second.iter().all(|inbox| inbox.len() == 2));
        assert_eq!(net.traffic().len(), 3 + 2, "dead sender logs nothing");
        assert_eq!(net.traffic().faults().crash_silenced, 1);
        assert_eq!(net.fault_plan().unwrap().crashed_slots(3), vec![2]);
    }

    #[test]
    fn delayed_delivery_arrives_on_retransmission() {
        use crate::fault::{FaultPlan, FaultRule};
        let mut net = BroadcastNet::new(2, DeliveryPolicy::Synchronous);
        net.set_fault_plan(FaultPlan::new(1).with(FaultRule::delay(1).from(1).to(0).at_most(1)));
        let first = net.exchange("r1", payloads(2)).unwrap();
        assert_eq!(first[0].len(), 1, "delayed copy missing");
        // The driver retransmits the round; the stale copy arrives too.
        let second = net.exchange("r1", payloads(2)).unwrap();
        assert_eq!(second[0].len(), 3, "retransmission plus released copy");
        assert_eq!(net.traffic().faults().redelivered, 1);
    }

    #[test]
    fn eavesdropper_sees_original_traffic() {
        // The observer logs what senders put on the wire, before MITM
        // rewriting (the attacker is between sender and receiver, not
        // inside the sender).
        let mut net = BroadcastNet::new(2, DeliveryPolicy::Synchronous);
        net.set_interceptor(Box::new(|_, p| p.clear()));
        net.exchange("r1", payloads(2)).unwrap();
        assert_eq!(net.traffic().total_bytes(), 1 + 2);
    }
}
