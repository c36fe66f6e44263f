//! Seeded, composable fault injection for the anonymous media.
//!
//! The paper's system model (§2) assumes guaranteed delivery; this module
//! deliberately breaks that assumption so the handshake runtime's failure
//! half can be exercised: messages can be dropped, duplicated, corrupted,
//! truncated or delayed, parties can crash-stop mid-session, and the
//! medium can partition. A [`FaultPlan`] is a deterministic (seeded)
//! schedule of [`FaultRule`]s, with the per-sender crash clock and the
//! per-label delay clock they run on, consulted on every delivery by the
//! routing step every medium shares ([`crate::route::Router`]); every
//! fault that fires is tallied in [`FaultCounters`], exposed through
//! [`crate::observe::TrafficLog::faults`] so tests and benches can assert
//! exactly which faults fired.
//!
//! Fault *scope* composes: a rule can be limited to a round-label prefix,
//! a sender slot, a receiver slot, a per-delivery probability and a
//! maximum fire count, and multiple rules apply in order to the same
//! delivery (e.g. duplicate-then-corrupt yields one good and one mangled
//! copy... or two mangled ones, depending on rule order).

use crate::observe::FaultCounters;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// One kind of injectable fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The delivery never arrives.
    Drop,
    /// The receiver gets two copies.
    Duplicate,
    /// `bit_flips` uniformly chosen bits of the payload are flipped.
    Corrupt {
        /// Number of bit positions to flip (re-draws may coincide).
        bit_flips: u32,
    },
    /// The payload is cut at a uniformly chosen point.
    Truncate,
    /// The delivery is held back and re-delivered on a *later* exchange
    /// carrying the same round label (i.e. a retransmission round).
    Delay {
        /// How many exchanges of the label to sit out.
        rounds: u32,
    },
    /// `slot` makes `after_round` sends, then goes permanently silent
    /// (fail-stop party). On a lockstep medium, where every slot sends
    /// once per exchange, that is its first `after_round` exchanges.
    CrashStop {
        /// The crashing sender slot.
        slot: usize,
        /// Number of sends the slot makes before dying.
        after_round: u32,
    },
    /// Slots `< boundary` and slots `>= boundary` can no longer hear
    /// each other; intra-side delivery is unaffected.
    Partition {
        /// First slot of the second side.
        boundary: usize,
    },
}

/// A scoped fault: what happens, where, how often.
#[derive(Debug, Clone)]
pub struct FaultRule {
    kind: FaultKind,
    probability: f64,
    round_prefix: Option<String>,
    from_slot: Option<usize>,
    to_slot: Option<usize>,
    max_fires: u64,
    fired: u64,
}

impl FaultRule {
    /// A rule firing on every matching delivery (probability 1).
    pub fn new(kind: FaultKind) -> FaultRule {
        FaultRule {
            kind,
            probability: 1.0,
            round_prefix: None,
            from_slot: None,
            to_slot: None,
            max_fires: u64::MAX,
            fired: 0,
        }
    }

    /// Shorthand for [`FaultKind::Drop`].
    pub fn drop() -> FaultRule {
        FaultRule::new(FaultKind::Drop)
    }

    /// Shorthand for [`FaultKind::Duplicate`].
    pub fn duplicate() -> FaultRule {
        FaultRule::new(FaultKind::Duplicate)
    }

    /// Shorthand for [`FaultKind::Corrupt`].
    pub fn corrupt(bit_flips: u32) -> FaultRule {
        FaultRule::new(FaultKind::Corrupt { bit_flips })
    }

    /// Shorthand for [`FaultKind::Truncate`].
    pub fn truncate() -> FaultRule {
        FaultRule::new(FaultKind::Truncate)
    }

    /// Shorthand for [`FaultKind::Delay`].
    pub fn delay(rounds: u32) -> FaultRule {
        FaultRule::new(FaultKind::Delay { rounds })
    }

    /// Shorthand for [`FaultKind::CrashStop`].
    pub fn crash_stop(slot: usize, after_round: u32) -> FaultRule {
        FaultRule::new(FaultKind::CrashStop { slot, after_round })
    }

    /// Shorthand for [`FaultKind::Partition`].
    pub fn partition(boundary: usize) -> FaultRule {
        FaultRule::new(FaultKind::Partition { boundary })
    }

    /// Fires with probability `p` per matching delivery.
    pub fn with_probability(mut self, p: f64) -> FaultRule {
        assert!((0.0..=1.0).contains(&p), "probability in [0, 1]");
        self.probability = p;
        self
    }

    /// Restricts to round labels starting with `prefix`.
    pub fn in_round(mut self, prefix: &str) -> FaultRule {
        self.round_prefix = Some(prefix.to_string());
        self
    }

    /// Restricts to deliveries from `slot`.
    pub fn from(mut self, slot: usize) -> FaultRule {
        self.from_slot = Some(slot);
        self
    }

    /// Restricts to deliveries to `slot`.
    pub fn to(mut self, slot: usize) -> FaultRule {
        self.to_slot = Some(slot);
        self
    }

    /// Fires at most `n` times in total.
    pub fn at_most(mut self, n: u64) -> FaultRule {
        self.max_fires = n;
        self
    }

    fn matches(&self, round: &str, from: usize, to: usize) -> bool {
        if self.fired >= self.max_fires {
            return false;
        }
        if let Some(p) = &self.round_prefix {
            if !round.starts_with(p.as_str()) {
                return false;
            }
        }
        if let Some(f) = self.from_slot {
            if f != from {
                return false;
            }
        }
        if let Some(t) = self.to_slot {
            if t != to {
                return false;
            }
        }
        true
    }
}

/// A delivery held back by a [`FaultKind::Delay`] rule, released when
/// a later exchange of its label opens.
#[derive(Debug, Clone)]
pub(crate) struct DelayedDelivery {
    round: String,
    /// Original sender slot.
    pub(crate) from_slot: usize,
    /// Receiver slot.
    pub(crate) to_slot: usize,
    /// Original (possibly already-tampered) payload.
    pub(crate) payload: Vec<u8>,
    /// Exchanges of the label left to sit out.
    remaining: u32,
}

/// A deterministic, composable schedule of faults.
#[derive(Debug)]
pub struct FaultPlan {
    rng: StdRng,
    rules: Vec<FaultRule>,
    delayed: Vec<DelayedDelivery>,
    /// The crash clock: per slot, sends that reached the wire, and
    /// whether a send was ever silenced.
    sends: Vec<(u32, bool)>,
    counters: FaultCounters,
}

impl FaultPlan {
    /// An empty plan (injects nothing) with the given decision seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            rng: StdRng::seed_from_u64(seed),
            rules: Vec::new(),
            delayed: Vec::new(),
            sends: Vec::new(),
            counters: FaultCounters::default(),
        }
    }

    /// Adds a rule (builder-style).
    pub fn with(mut self, rule: FaultRule) -> FaultPlan {
        self.rules.push(rule);
        self
    }

    /// The per-fault tallies so far.
    pub fn counters(&self) -> &FaultCounters {
        &self.counters
    }

    /// Every slot below `slots` that has crash-stopped: the crash clock
    /// silenced at least one of its sends.
    pub fn crashed_slots(&self, slots: usize) -> Vec<usize> {
        let silenced = |s: &usize| self.sends.get(*s).is_some_and(|&(_, x)| x);
        (0..slots).filter(silenced).collect()
    }

    /// Marks the opening of an exchange under `round`, returning the
    /// delayed deliveries that come due on it: the delay clock of
    /// `round` ticks once.
    pub(crate) fn begin_exchange(&mut self, round: &str) -> Vec<DelayedDelivery> {
        let mut due = Vec::new();
        let mut kept = Vec::new();
        for mut d in self.delayed.drain(..) {
            if d.round == round {
                if d.remaining <= 1 {
                    self.counters.redelivered += 1;
                    due.push(d);
                    continue;
                }
                d.remaining -= 1;
            }
            kept.push(d);
        }
        self.delayed = kept;
        due
    }

    /// Ticks `slot`'s crash clock for one send: `true` (counted as
    /// crash-silenced) once the slot has spent the tightest
    /// `after_round` of the rules naming it, otherwise the send counts
    /// against that budget.
    pub(crate) fn suppress_send(&mut self, slot: usize) -> bool {
        let budget = self
            .rules
            .iter()
            .filter_map(|r| match r.kind {
                FaultKind::CrashStop {
                    slot: s,
                    after_round,
                } if s == slot => Some(after_round),
                _ => None,
            })
            .min();
        if self.sends.len() <= slot {
            self.sends.resize(slot + 1, (0, false));
        }
        let (sent, silenced) = &mut self.sends[slot];
        if budget.is_some_and(|b| *sent >= b) {
            *silenced = true;
            self.counters.crash_silenced += 1;
            return true;
        }
        *sent += 1;
        false
    }

    /// Runs the schedule for one delivery, returning the payload copies
    /// that actually arrive now (empty = dropped / delayed / partitioned;
    /// two entries = duplicated).
    pub(crate) fn deliver(
        &mut self,
        round: &str,
        from_slot: usize,
        to_slot: usize,
        payload: Vec<u8>,
    ) -> Vec<Vec<u8>> {
        let mut copies = vec![payload];
        for i in 0..self.rules.len() {
            if copies.is_empty() {
                break;
            }
            if !self.rules[i].matches(round, from_slot, to_slot) {
                continue;
            }
            // Crash-stop is a sender property handled by `suppress_send`,
            // not a per-delivery transformation.
            if matches!(self.rules[i].kind, FaultKind::CrashStop { .. }) {
                continue;
            }
            let p = self.rules[i].probability;
            if p < 1.0 && !self.coin(p) {
                continue;
            }
            let kind = self.rules[i].kind;
            match kind {
                FaultKind::Drop => {
                    self.counters.dropped += copies.len() as u64;
                    copies.clear();
                }
                FaultKind::Duplicate => {
                    self.counters.duplicated += copies.len() as u64;
                    let dup: Vec<Vec<u8>> = copies.clone();
                    copies.extend(dup);
                }
                FaultKind::Corrupt { bit_flips } => {
                    for c in &mut copies {
                        if c.is_empty() {
                            continue;
                        }
                        for _ in 0..bit_flips {
                            let bit = self.rng.next_u64() as usize % (c.len() * 8);
                            c[bit / 8] ^= 1 << (bit % 8);
                        }
                    }
                    self.counters.corrupted += copies.len() as u64;
                }
                FaultKind::Truncate => {
                    for c in &mut copies {
                        let cut = if c.is_empty() {
                            0
                        } else {
                            self.rng.next_u64() as usize % c.len()
                        };
                        c.truncate(cut);
                    }
                    self.counters.truncated += copies.len() as u64;
                }
                FaultKind::Delay { rounds } => {
                    self.counters.delayed += copies.len() as u64;
                    for c in copies.drain(..) {
                        self.delayed.push(DelayedDelivery {
                            round: round.to_string(),
                            from_slot,
                            to_slot,
                            payload: c,
                            remaining: rounds.max(1),
                        });
                    }
                }
                FaultKind::CrashStop { .. } => unreachable!("handled above"),
                FaultKind::Partition { boundary } => {
                    if (from_slot < boundary) != (to_slot < boundary) {
                        self.counters.partitioned += copies.len() as u64;
                        copies.clear();
                    }
                }
            }
            self.rules[i].fired += 1;
        }
        copies
    }

    fn coin(&mut self, p: f64) -> bool {
        (self.rng.next_u64() as f64 / u64::MAX as f64) < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_transparent() {
        let mut plan = FaultPlan::new(1);
        assert!(plan.begin_exchange("r").is_empty());
        assert_eq!(plan.deliver("r", 0, 1, vec![1, 2, 3]), vec![vec![1, 2, 3]]);
        assert!(!plan.suppress_send(0));
        assert_eq!(plan.counters(), &FaultCounters::default());
    }

    #[test]
    fn drop_fires_only_in_scope() {
        let mut plan = FaultPlan::new(2).with(FaultRule::drop().in_round("phase2").from(1));
        plan.begin_exchange("phase2-mac");
        assert!(plan.deliver("phase2-mac", 1, 0, vec![9]).is_empty());
        assert_eq!(plan.deliver("phase2-mac", 0, 1, vec![9]), vec![vec![9]]);
        assert_eq!(plan.deliver("phase3-full", 1, 0, vec![9]), vec![vec![9]]);
        assert_eq!(plan.counters().dropped, 1);
    }

    #[test]
    fn duplicate_and_corrupt_compose_in_order() {
        let mut plan = FaultPlan::new(3)
            .with(FaultRule::duplicate())
            .with(FaultRule::corrupt(1));
        plan.begin_exchange("r");
        let copies = plan.deliver("r", 0, 1, vec![0u8; 8]);
        assert_eq!(copies.len(), 2);
        // Both copies were corrupted after duplication.
        assert!(copies.iter().all(|c| c.iter().any(|&b| b != 0)));
        assert_eq!(plan.counters().duplicated, 1);
        assert_eq!(plan.counters().corrupted, 2);
    }

    #[test]
    fn truncate_shortens() {
        let mut plan = FaultPlan::new(4).with(FaultRule::truncate());
        plan.begin_exchange("r");
        let copies = plan.deliver("r", 0, 1, vec![7u8; 64]);
        assert_eq!(copies.len(), 1);
        assert!(copies[0].len() < 64);
        assert_eq!(plan.counters().truncated, 1);
    }

    #[test]
    fn delay_redelivers_on_matching_retransmission() {
        let mut plan = FaultPlan::new(5).with(FaultRule::delay(1).at_most(1));
        plan.begin_exchange("r1");
        assert!(plan.deliver("r1", 0, 1, vec![42]).is_empty());
        // A different round label does not release it.
        assert!(plan.begin_exchange("r2").is_empty());
        // The matching retransmission does.
        let due = plan.begin_exchange("r1");
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].payload, vec![42]);
        assert_eq!((due[0].from_slot, due[0].to_slot), (0, 1));
        assert_eq!(plan.counters().delayed, 1);
        assert_eq!(plan.counters().redelivered, 1);
    }

    #[test]
    fn crash_stop_silences_after_round() {
        let mut plan = FaultPlan::new(6).with(FaultRule::crash_stop(2, 1));
        plan.begin_exchange("r1");
        assert!(!plan.suppress_send(2), "alive in its first exchange");
        plan.begin_exchange("r2");
        assert!(plan.suppress_send(2), "dead from the second on");
        assert!(!plan.suppress_send(0));
        assert_eq!(plan.crashed_slots(4), vec![2]);
        assert_eq!(plan.counters().crash_silenced, 1);
    }

    #[test]
    fn partition_cuts_cross_side_delivery_only() {
        let mut plan = FaultPlan::new(7).with(FaultRule::partition(2));
        plan.begin_exchange("r");
        assert!(plan.deliver("r", 0, 2, vec![1]).is_empty());
        assert!(plan.deliver("r", 3, 1, vec![1]).is_empty());
        assert_eq!(plan.deliver("r", 0, 1, vec![1]), vec![vec![1]]);
        assert_eq!(plan.deliver("r", 2, 3, vec![1]), vec![vec![1]]);
        assert_eq!(plan.counters().partitioned, 2);
    }

    #[test]
    fn probability_and_budget_bound_firing() {
        let mut plan = FaultPlan::new(8).with(FaultRule::drop().with_probability(0.5));
        plan.begin_exchange("r");
        let mut dropped = 0;
        for _ in 0..400 {
            if plan.deliver("r", 0, 1, vec![1]).is_empty() {
                dropped += 1;
            }
        }
        assert!(
            (100..300).contains(&dropped),
            "~50% drop rate, got {dropped}"
        );

        let mut plan = FaultPlan::new(9).with(FaultRule::drop().at_most(3));
        plan.begin_exchange("r");
        let mut dropped = 0;
        for _ in 0..10 {
            if plan.deliver("r", 0, 1, vec![1]).is_empty() {
                dropped += 1;
            }
        }
        assert_eq!(dropped, 3, "budget caps fires");
    }

    #[test]
    fn same_seed_same_decisions() {
        let run = |seed| {
            let mut plan = FaultPlan::new(seed).with(FaultRule::drop().with_probability(0.3));
            plan.begin_exchange("r");
            (0..64)
                .map(|i| plan.deliver("r", 0, i % 4, vec![1]).is_empty())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }
}
