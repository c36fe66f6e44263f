//! The routing step: everything between "slot `s` sent payload `p` under
//! label `L`" and "these copies reach these receivers", written once.
//! `BroadcastNet`, the TCP relay and `shs-sim`'s `SimLink` hand their
//! broadcasts to a [`Router`] and keep only their transport; it owns the
//! [`FaultPlan`] with its crash and delay clocks, the eavesdropper's
//! [`TrafficLog`] and each slot's last payload per label. Slot `s`'s
//! k-th broadcast of `L` belongs to `L`'s k-th exchange; the copy that
//! opens exchange k ≥ 2 brings a stand-in (the cached payload) for every
//! other attached slot that has sent `L`, a copy already stood in for is
//! absorbed, and a slot's first copy after later exchanges opened
//! without it fills those too. DESIGN.md §4 has the full model.

use crate::fault::FaultPlan;
use crate::observe::TrafficLog;
use crate::sync::{InterceptCtx, Interceptor, Received};

/// One slot's state under one round label.
#[derive(Debug, Default, Clone)]
struct SlotState {
    /// Broadcasts of the label it made.
    sent: u32,
    /// It is a member of the label's exchanges `1..=covered`.
    covered: u32,
    /// Its last routed payload: its stand-in.
    last: Option<Vec<u8>>,
}

/// Exchange state of one round label.
#[derive(Debug)]
struct LabelState {
    /// The label: its byte range in the router's `names`.
    name: std::ops::Range<usize>,
    /// Exchanges of the label opened so far.
    opened: u32,
}

/// One send of a routing call: the sending slot, its payload and the
/// number of exchanges it fills with a logged copy.
type Send = (usize, Vec<u8>, u32);

/// Labels whose state a router reserves room for up front: a session's
/// two key-agreement rounds and Phases II and III.
const RESERVED_LABELS: usize = 4;

/// The routing step every broadcast medium runs its traffic through
/// (see the module docs).
#[derive(Debug)]
pub struct Router {
    pub(crate) slots: usize,
    pub(crate) plan: Option<FaultPlan>,
    log: TrafficLog,
    /// Per round label, in first-use order (a session has a handful).
    labels: Vec<LabelState>,
    /// Every label's name, back to back.
    names: String,
    /// Every label's slot states, `slots` per label in `labels` order.
    states: Vec<SlotState>,
    /// The sends of a routing call: one buffer, emptied by every call.
    sends: Vec<Send>,
    backpressure_dropped: u64,
}

impl Router {
    /// A router for a session of `slots` parties under `plan`
    /// (guaranteed delivery without one).
    pub fn new(slots: usize, plan: Option<FaultPlan>) -> Router {
        Router {
            slots,
            plan,
            log: TrafficLog::new(),
            labels: Vec::with_capacity(RESERVED_LABELS),
            names: String::with_capacity(16 * RESERVED_LABELS),
            states: Vec::with_capacity(slots * RESERVED_LABELS),
            sends: Vec::with_capacity(slots),
            backpressure_dropped: 0,
        }
    }

    /// The position of `label` in first-use order, if it has been routed.
    fn label_index(&self, label: &str) -> Option<usize> {
        let names = self.names.as_bytes();
        self.labels
            .iter()
            .rposition(|st| names.get(st.name.clone()) == Some(label.as_bytes()))
    }

    /// The eavesdropper's log so far, with the fault tallies.
    pub fn traffic(&self) -> &TrafficLog {
        &self.log
    }

    /// Slots the crash clock has silenced at least once.
    pub fn crashed_slots(&self) -> Vec<usize> {
        self.plan
            .as_ref()
            .map_or_else(Vec::new, |p| p.crashed_slots(self.slots))
    }

    /// Has `slot` sent `label`, so a retransmission can stand in for it?
    pub(crate) fn has_sent(&self, label: &str, slot: usize) -> bool {
        self.label_index(label)
            .filter(|_| slot < self.slots)
            .and_then(|i| self.states.get(i * self.slots + slot))
            .is_some_and(|s| s.last.is_some())
    }

    /// Tallies `n` deliveries the transport shed because a receiver
    /// stopped draining (flow control, not an injected fault).
    pub(crate) fn count_backpressure_drops(&mut self, n: u64) {
        self.backpressure_dropped += n;
        self.sync_faults();
    }

    /// Routes `batch` (copies under `label` that reached the medium
    /// together, at most one per slot) and returns each receiver's inbox:
    /// routed copies in sender order, then released delayed copies, or
    /// `None` if every copy was absorbed. `attached` (all when `None`)
    /// limits who receives and who can be stood in; `intercept` may
    /// rewrite what each receiver sees, after the log, before the plan.
    pub fn route(
        &mut self,
        label: &str,
        batch: impl IntoIterator<Item = (usize, Vec<u8>)>,
        attached: Option<&[bool]>,
        mut intercept: Option<&mut Interceptor<'_>>,
    ) -> Option<Vec<Vec<Received>>> {
        let m = self.slots;
        let is_attached = |s: usize| attached.is_none_or(|a| a.get(s) == Some(&true));
        let index = self.label_index(label).unwrap_or_else(|| {
            let start = self.names.len();
            self.names.push_str(label);
            self.labels.push(LabelState {
                name: start..self.names.len(),
                opened: 0,
            });
            self.states
                .resize(self.states.len() + m, SlotState::default());
            self.labels.len() - 1
        });
        let st = self.labels.get_mut(index)?;
        let slots = self.states.get_mut(index * m..(index + 1) * m)?;
        // Copy k of a slot joins exchange k; one stood in for is absorbed.
        let mut sends = std::mem::take(&mut self.sends);
        let mut opened = st.opened;
        for (s, payload) in batch.into_iter().filter(|(s, _)| *s < m) {
            let slot = &mut slots[s];
            slot.sent += 1;
            if slot.sent > slot.covered {
                opened = opened.max(slot.sent);
                sends.push((s, payload, 0));
            }
        }
        if sends.is_empty() {
            self.sends = sends;
            return None;
        }
        let mut due = Vec::new();
        if opened > st.opened {
            if let Some(plan) = self.plan.as_mut() {
                (st.opened..opened).for_each(|_| due.extend(plan.begin_exchange(label)));
            }
            // A retransmission stands in for the slots that did not
            // re-send; a full batch leaves none out.
            if opened >= 2 && sends.len() < m {
                for (j, slot) in slots.iter_mut().enumerate() {
                    let missing = slot.covered < opened && !sends.iter().any(|(s, ..)| *s == j);
                    if missing && is_attached(j) {
                        sends.extend(slot.last.take().map(|p| (j, p, 0)));
                    }
                }
            }
            if !sends.is_sorted_by_key(|(s, ..)| *s) {
                sends.sort_unstable_by_key(|(s, ..)| *s);
            }
            st.opened = opened;
        }
        // Each send fills every exchange its slot is missing from; each
        // fill ticks the crash clock and, unless silenced, is logged: the
        // observer sits at the sender, before per-receiver faults.
        for (s, payload, live) in &mut sends {
            let fills = opened - std::mem::replace(&mut slots[*s].covered, opened);
            for _ in 0..fills {
                if !self.plan.as_mut().is_some_and(|p| p.suppress_send(*s)) {
                    self.log.record(label, *s, payload);
                    *live += 1;
                }
            }
        }
        let push = |inbox: &mut Vec<Received>, from_slot, payload| {
            inbox.push(Received { from_slot, payload });
        };
        let mut inboxes: Vec<Vec<Received>> = (0..m).map(|_| Vec::with_capacity(m)).collect();
        for (to_slot, inbox) in inboxes.iter_mut().enumerate() {
            if !is_attached(to_slot) {
                continue;
            }
            for (from_slot, payload, live) in &sends {
                for _ in 0..*live {
                    let mut copy = payload.clone();
                    if let Some(hook) = intercept.as_mut() {
                        hook(
                            InterceptCtx {
                                round: label,
                                from_slot: *from_slot,
                                to_slot,
                            },
                            &mut copy,
                        );
                    }
                    match self.plan.as_mut() {
                        Some(plan) => plan
                            .deliver(label, *from_slot, to_slot, copy)
                            .into_iter()
                            .for_each(|c| push(inbox, *from_slot, c)),
                        None => push(inbox, *from_slot, copy),
                    }
                }
            }
        }
        for r in due.into_iter().filter(|r| is_attached(r.to_slot)) {
            if let Some(inbox) = inboxes.get_mut(r.to_slot) {
                push(inbox, r.from_slot, r.payload);
            }
        }
        for (s, payload, _) in sends.drain(..) {
            slots[s].last = Some(payload);
        }
        self.sends = sends;
        // Without a plan the tallies change only through
        // `count_backpressure_drops`, which copies them itself.
        if self.plan.is_some() {
            self.sync_faults();
        }
        Some(inboxes)
    }

    /// Copies the tallies into the log.
    fn sync_faults(&mut self) {
        let mut faults = self
            .plan
            .as_ref()
            .map(|p| p.counters().clone())
            .unwrap_or_default();
        faults.backpressure_dropped = self.backpressure_dropped;
        self.log.set_faults(faults);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultRule;

    fn senders(inbox: &[Received]) -> Vec<usize> {
        inbox.iter().map(|r| r.from_slot).collect()
    }

    #[test]
    fn a_retransmission_brings_stand_ins_and_absorbs_their_copies() {
        let mut router = Router::new(3, None);
        let first: Vec<_> = (0..3).map(|s| (s, vec![s as u8])).collect();
        router.route("r", first, None, None);
        // Slot 0 alone retransmits: slots 1 and 2 are stood in.
        let inboxes = router.route("r", vec![(0, vec![0])], None, None).unwrap();
        assert!(inboxes.iter().all(|inbox| senders(inbox) == vec![0, 1, 2]));
        assert_eq!(inboxes[1][2].payload, vec![2], "the cached payload");
        // Their own second copies belong to that exchange: not routed.
        assert!(router.route("r", vec![(1, vec![1])], None, None).is_none());
        assert_eq!(router.traffic().len(), 6);
    }

    #[test]
    fn a_late_first_copy_fills_every_exchange_it_missed() {
        let mut router = Router::new(2, None);
        router.route("r", vec![(0, vec![0])], None, None);
        router.route("r", vec![(0, vec![0])], None, None);
        // Slot 1's first copy joins exchange 1 and catches up on 2.
        let inboxes = router.route("r", vec![(1, vec![1])], None, None).unwrap();
        assert_eq!(senders(&inboxes[0]), vec![1, 1]);
        assert_eq!(router.traffic().messages_from(1), 2);
        assert!(router.route("r", vec![(1, vec![1])], None, None).is_none());
    }

    #[test]
    fn detached_slots_neither_receive_nor_get_stood_in() {
        let mut router = Router::new(2, None);
        router.route("r", vec![(0, vec![0]), (1, vec![1])], None, None);
        let attached = [true, false];
        let inboxes = router.route("r", vec![(0, vec![0])], Some(&attached), None);
        let inboxes = inboxes.unwrap();
        assert_eq!(senders(&inboxes[0]), vec![0], "no stand-in for slot 1");
        assert!(inboxes[1].is_empty(), "slot 1 receives nothing");
    }

    #[test]
    fn a_delayed_copy_waits_for_the_labels_next_exchange() {
        let plan = FaultPlan::new(1).with(FaultRule::delay(1).from(1).to(0).at_most(1));
        let mut router = Router::new(2, Some(plan));
        router.route("r", vec![(1, vec![1])], None, None);
        // Slot 0's first copy joins exchange 1: nothing is released.
        let inboxes = router.route("r", vec![(0, vec![0])], None, None).unwrap();
        assert_eq!(senders(&inboxes[0]), vec![0]);
        // Its retransmission opens exchange 2, which releases the copy
        // after the stand-in.
        let inboxes = router.route("r", vec![(0, vec![0])], None, None).unwrap();
        assert_eq!(senders(&inboxes[0]), vec![0, 1, 1]);
        assert_eq!(router.traffic().faults().redelivered, 1);
    }

    #[test]
    fn crash_clock_counts_stand_ins_as_sends() {
        let plan = FaultPlan::new(1).with(FaultRule::crash_stop(1, 1));
        let mut router = Router::new(2, Some(plan));
        router.route("r", vec![(0, vec![0]), (1, vec![1])], None, None);
        assert!(router.crashed_slots().is_empty());
        // Slot 1's stand-in is its second send: silenced, not logged.
        let inboxes = router.route("r", vec![(0, vec![0])], None, None).unwrap();
        assert_eq!(senders(&inboxes[0]), vec![0]);
        assert_eq!(router.crashed_slots(), vec![1]);
        assert_eq!(router.traffic().faults().crash_silenced, 1);
    }
}
