//! Byte-for-byte pins of both handshake drivers' outputs.
//!
//! Each configuration runs through the lockstep driver
//! (`run_handshake_with_net` over `BroadcastNet`, and again over
//! `TcpSession` on loopback, which must reproduce the same pins) and
//! through the per-party driver (`run_party` over `shs-sim`'s
//! deterministic `SimLink`). Everything a driver reports is folded into a SHA-256
//! digest: outcomes with session-key bytes, per-slot costs, session
//! stats, the Phase-III transcript (lockstep), virtual time and the
//! event-trace fingerprint (per-party), and the eavesdropper's traffic
//! log with payload bytes and fault counters. Each digest is compared
//! with a committed constant, so a refactor of either driver must leave
//! every one unchanged. A deliberate change to what a driver computes
//! re-captures the tables; the failure message prints them. A session
//! whose CRL holds revoked members' tokens has pins of its own, in both
//! lockstep verify modes and per party. Per party over `TcpParty` on
//! loopback, most configurations must report what they report over
//! `SimLink`, up to the order in which the relay logs frames.

mod common;

use std::time::Duration;

use common::{rng, run_tcp_parties};
use shs_core::config::DgkaChoice;
use shs_core::fixtures;
use shs_core::handshake::party::{run_party, PartyOutcome};
use shs_core::handshake::run_handshake_with_net;
use shs_core::{
    AbortReason, Actor, HandshakeOptions, Member, Outcome, SchemeKind, SessionBudget,
    SessionResult, SessionStats, SlotCosts, TracePolicy,
};
use shs_crypto::sha256::Sha256;
use shs_net::fault::{FaultPlan, FaultRule};
use shs_net::observe::{TrafficLog, TrafficRecord};
use shs_net::sync::BroadcastNet;
use shs_net::tcp::{RelayConfig, TcpParty, TcpSession};
use shs_net::{DeliveryPolicy, Medium};
use shs_sim::core::LatencyModel;
use shs_sim::network::{run_session, SimLink, SimSessionReport};

/// Per-round collect window of the per-party runs (virtual time).
const COLLECT: Duration = Duration::from_millis(50);

/// Per-round collect window of the per-party runs over TCP (wall clock).
const TCP_COLLECT: Duration = Duration::from_secs(5);

/// Per-party configurations whose outputs over TCP differ from
/// `SimLink`'s (delay-phase3 only in some runs): each has the parties
/// recover from lost, mangled or late frames, and the two media do not
/// recover alike.
const MEDIUM_DEPENDENT: [&str; 5] = [
    "drop-one-phase2",
    "drop-35pct",
    "corrupt-30pct",
    "delay-phase3",
    "budget-exhausted",
];

/// One seat of a roster: a member of group 0 or 1, or an outsider.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Seat {
    G0,
    G1,
    Out,
}

struct Case {
    name: &'static str,
    scheme: SchemeKind,
    roster: &'static [Seat],
    opts: HandshakeOptions,
    plan: fn() -> FaultPlan,
    /// Does the per-party driver read the option this case varies?
    per_party: bool,
    /// Members of group 0 revoked before the session, so its members'
    /// CRL holds this many tokens.
    revoked: usize,
}

fn case(name: &'static str, opts: HandshakeOptions, plan: fn() -> FaultPlan) -> Case {
    Case {
        name,
        scheme: SchemeKind::Scheme1,
        roster: &[Seat::G0, Seat::G0, Seat::G0],
        opts,
        plan,
        per_party: true,
        revoked: 0,
    }
}

fn clean() -> FaultPlan {
    FaultPlan::new(1)
}

fn cases() -> Vec<Case> {
    let default = HandshakeOptions::default();
    let plain = |name| case(name, default, clean);
    vec![
        plain("scheme1"),
        Case {
            scheme: SchemeKind::Scheme2SelfDistinct,
            ..plain("scheme2")
        },
        Case {
            scheme: SchemeKind::Scheme1Classic,
            ..plain("scheme1-classic")
        },
        Case {
            roster: &[Seat::G0, Seat::G0, Seat::Out],
            ..plain("outsider")
        },
        Case {
            roster: &[Seat::G0, Seat::Out, Seat::Out],
            ..plain("lone-member")
        },
        Case {
            roster: &[Seat::G0, Seat::G0, Seat::G1, Seat::G1],
            ..plain("mixed-groups")
        },
        Case {
            roster: &[Seat::G0; 4],
            ..case(
                "gdh2-m4",
                HandshakeOptions::with_dgka(DgkaChoice::Gdh2),
                clean,
            )
        },
        case(
            "authenticated-bd",
            HandshakeOptions::with_dgka(DgkaChoice::AuthenticatedBd),
            clean,
        ),
        case(
            "preliminary-only",
            HandshakeOptions {
                policy: TracePolicy::PreliminaryOnly,
                ..default
            },
            clean,
        ),
        Case {
            // The per-party driver verifies its one slot on its own
            // thread either way.
            per_party: false,
            ..case(
                "sequential-verify",
                HandshakeOptions {
                    parallel_verify: false,
                    ..default
                },
                clean,
            )
        },
        case(
            "adversarial-reorder",
            HandshakeOptions {
                delivery: DeliveryPolicy::AdversarialReorder { seed: 77 },
                ..default
            },
            clean,
        ),
        case("crash-stop", default, || {
            FaultPlan::new(12).with(FaultRule::crash_stop(2, 1))
        }),
        case("drop-one-phase2", default, || {
            FaultPlan::new(13).with(
                FaultRule::drop()
                    .in_round("phase2-mac")
                    .from(1)
                    .to(0)
                    .at_most(1),
            )
        }),
        case("drop-35pct", default, || {
            FaultPlan::new(14).with(FaultRule::drop().with_probability(0.35))
        }),
        case("corrupt-30pct", default, || {
            FaultPlan::new(15).with(FaultRule::corrupt(2).with_probability(0.3))
        }),
        case("delay-phase3", default, || {
            FaultPlan::new(16).with(
                FaultRule::delay(1)
                    .in_round("phase3-full")
                    .from(1)
                    .to(0)
                    .at_most(1),
            )
        }),
        case(
            "budget-exhausted",
            HandshakeOptions {
                budget: SessionBudget {
                    max_exchanges: 5,
                    retries_per_round: 3,
                },
                ..default
            },
            || FaultPlan::new(17).with(FaultRule::drop().from(1).to(0)),
        ),
    ]
}

/// A Scheme-1 session of three members whose CRL holds 8 tokens, in
/// either verify mode. Both modes share the case's name and so its
/// seeds.
fn crl8(parallel_verify: bool) -> Case {
    let opts = HandshakeOptions {
        parallel_verify,
        ..HandshakeOptions::default()
    };
    Case {
        revoked: 8,
        ..case("crl8", opts, clean)
    }
}

/// Modexps each slot of a [`crl8`] session pays: E1's 14m + 19 at
/// m = 3, plus one per token for each of the two co-members' signatures.
const CRL8_SLOT_MODEXPS: u64 = 14 * 3 + 19 + 2 * 8;

/// The case's roster: `Some(member)` per member seat, `None` per
/// outsider. Each group is rebuilt from the case's seed, so every run
/// of a case sees the same credentials.
fn seats(case: &Case) -> Vec<Option<Member>> {
    let mut r = rng(&format!("driver-digest-{}", case.name));
    let mut members: Vec<std::vec::IntoIter<Member>> = Vec::new();
    for g in [Seat::G0, Seat::G1] {
        let n = case.roster.iter().filter(|s| **s == g).count();
        let built = if n == 0 {
            Vec::new()
        } else {
            let revoked = if g == Seat::G0 { case.revoked } else { 0 };
            fixtures::group_with_revoked(case.scheme, n, revoked, &mut r)
                .expect("group fixture")
                .1
        };
        members.push(built.into_iter());
    }
    case.roster
        .iter()
        .map(|seat| match seat {
            Seat::G0 => members[0].next(),
            Seat::G1 => members[1].next(),
            Seat::Out => None,
        })
        .collect()
}

fn actor(seat: &Option<Member>) -> Actor<'_> {
    seat.as_ref().map_or(Actor::Outsider, Actor::Member)
}

/// A SHA-256 over a length-prefixed encoding of driver outputs.
struct Digest(Sha256);

impl Digest {
    fn new(label: &str) -> Digest {
        let mut d = Digest(Sha256::new());
        d.bytes(label.as_bytes());
        d
    }

    fn num(&mut self, v: u64) {
        self.0.update(&v.to_be_bytes());
    }

    fn bytes(&mut self, b: &[u8]) {
        self.num(b.len() as u64);
        self.0.update(b);
    }

    fn slots(&mut self, s: &[usize]) {
        self.num(s.len() as u64);
        for &x in s {
            self.num(x as u64);
        }
    }

    fn outcome(&mut self, o: &Outcome) {
        self.num(o.slot as u64);
        self.num(u64::from(o.accepted));
        self.slots(&o.same_group_slots);
        self.slots(&o.verified_slots);
        self.slots(&o.duplicate_slots);
        match &o.session_key {
            Some(key) => self.bytes(key.as_bytes()),
            None => self.num(u64::MAX),
        }
        self.num(match o.abort {
            None => 0,
            Some(AbortReason::KeyAgreement) => 1,
            Some(AbortReason::BudgetExhausted) => 2,
            Some(AbortReason::Crashed) => 3,
        });
    }

    fn costs(&mut self, c: &SlotCosts) {
        self.num(c.modexp);
        self.num(c.messages_sent);
        self.num(c.bytes_sent);
    }

    fn stats(&mut self, s: &SessionStats) {
        self.num(u64::from(s.exchanges));
        self.num(u64::from(s.retries));
        self.num(u64::from(s.budget_exhausted));
        self.num(s.backpressure_dropped);
        self.num(s.reconnects);
        self.num(s.deadline_timeouts);
    }

    fn traffic(&mut self, t: &TrafficLog) {
        self.records(t.records());
        self.faults(t);
    }

    /// The traffic log up to record order: a relay logs frames in the
    /// order they cross the sockets.
    fn traffic_unordered(&mut self, t: &TrafficLog) {
        let mut records = t.records().to_vec();
        records.sort_by(|a, b| {
            (&a.round, a.from_slot, &a.payload).cmp(&(&b.round, b.from_slot, &b.payload))
        });
        self.records(&records);
        self.faults(t);
    }

    fn records(&mut self, records: &[TrafficRecord]) {
        self.num(records.len() as u64);
        for r in records {
            self.bytes(r.round.as_bytes());
            self.num(r.from_slot as u64);
            self.bytes(&r.payload);
        }
    }

    fn faults(&mut self, t: &TrafficLog) {
        let f = t.faults();
        for n in [
            f.dropped,
            f.duplicated,
            f.corrupted,
            f.truncated,
            f.delayed,
            f.redelivered,
            f.crash_silenced,
            f.partitioned,
            f.backpressure_dropped,
        ] {
            self.num(n);
        }
    }

    fn hex(self) -> String {
        self.0.finalize()[..16]
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect()
    }
}

fn lockstep_digest(case: &Case) -> String {
    let mut net = BroadcastNet::new(case.roster.len(), case.opts.delivery);
    net.set_fault_plan((case.plan)());
    lockstep_digest_over(case, &mut net)
}

/// The lockstep digest with every byte through the loopback relay.
fn tcp_lockstep_digest(case: &Case) -> String {
    let mut net =
        TcpSession::over_loopback(case.roster.len(), Some((case.plan)())).expect("loopback relay");
    let digest = lockstep_digest_over(case, &mut net);
    net.finish();
    digest
}

fn lockstep_run(case: &Case, net: &mut dyn Medium) -> SessionResult {
    let seats = seats(case);
    let actors: Vec<Actor<'_>> = seats.iter().map(actor).collect();
    let mut r = rng(&format!("driver-digest-{}-lockstep", case.name));
    run_handshake_with_net(&actors, &case.opts, net, &mut r)
        .expect("lockstep session yields a structured result")
}

fn lockstep_digest_over(case: &Case, net: &mut dyn Medium) -> String {
    let result = lockstep_run(case, net);
    let mut d = Digest::new("lockstep");
    for (outcome, costs) in result.outcomes.iter().zip(&result.costs) {
        d.outcome(outcome);
        d.costs(costs);
    }
    d.stats(&result.stats);
    d.bytes(&result.transcript.sid);
    for entry in &result.transcript.entries {
        d.bytes(&entry.theta);
        d.bytes(&entry.delta);
    }
    d.traffic(&result.traffic);
    d.hex()
}

fn per_party_run(case: &Case) -> SimSessionReport<PartyOutcome> {
    let seats = seats(case);
    let m = seats.len();
    let opts = case.opts;
    let name = case.name;
    let bodies: Vec<_> = seats
        .into_iter()
        .enumerate()
        .map(|(i, seat)| {
            move |mut link: SimLink| {
                let mut r = rng(&format!("driver-digest-{name}-party-{i}"));
                run_party(&actor(&seat), &opts, &mut link, COLLECT, &mut r)
                    .expect("party yields a structured result")
            }
        })
        .collect();
    run_session(m, (case.plan)(), LatencyModel::lan(m as u64), bodies)
}

/// `run_party` over `TcpParty` through a loopback relay holding the
/// case's fault plan, with the seats and per-party seeds of
/// [`per_party_run`].
fn tcp_per_party_run(case: &Case) -> (Vec<PartyOutcome>, TrafficLog) {
    let seats = seats(case);
    let m = seats.len();
    let opts = case.opts;
    let name = case.name;
    let bodies: Vec<_> = seats
        .into_iter()
        .enumerate()
        .map(|(i, seat)| {
            move |link: &mut TcpParty| {
                let mut r = rng(&format!("driver-digest-{name}-party-{i}"));
                run_party(&actor(&seat), &opts, link, TCP_COLLECT, &mut r)
                    .expect("party yields a structured result")
            }
        })
        .collect();
    let config = RelayConfig {
        gather_deadline: Duration::from_secs(10),
        round_deadline: Duration::from_secs(5),
        ..RelayConfig::new(m)
    };
    run_tcp_parties(config, Some((case.plan)()), bodies)
}

/// What the per-party driver reports on any medium: outcomes with key
/// bytes, costs, stats, and the traffic log up to record order. Virtual
/// time and the event fingerprint are `SimLink`'s own.
fn medium_digest(outputs: &[PartyOutcome], traffic: &TrafficLog) -> String {
    let mut d = Digest::new("per-party-medium");
    for party in outputs {
        d.outcome(&party.outcome);
        d.costs(&party.costs);
        d.stats(&party.stats);
    }
    d.traffic_unordered(traffic);
    d.hex()
}

fn per_party_digest(case: &Case) -> String {
    let report = per_party_run(case);
    let mut d = Digest::new("per-party");
    for party in &report.outputs {
        d.outcome(&party.outcome);
        d.costs(&party.costs);
        d.stats(&party.stats);
    }
    d.num(report.elapsed.as_nanos() as u64);
    d.num(report.fingerprint);
    d.traffic(&report.traffic);
    d.hex()
}

/// Compares every computed digest with its pin and, on any mismatch,
/// fails with the full table of computed values.
fn check(pins: &[(&str, &str)], computed: Vec<(&'static str, String)>) {
    let table: String = computed
        .iter()
        .map(|(name, digest)| format!("    (\"{name}\", \"{digest}\"),\n"))
        .collect();
    let names: Vec<&str> = computed.iter().map(|(name, _)| *name).collect();
    let pinned: Vec<&str> = pins.iter().map(|(name, _)| *name).collect();
    assert_eq!(names, pinned, "pinned configurations\n{table}");
    let changed: Vec<&str> = computed
        .iter()
        .zip(pins)
        .filter(|((_, digest), (_, pin))| digest != pin)
        .map(|((name, _), _)| *name)
        .collect();
    assert!(changed.is_empty(), "digests changed: {changed:?}\n{table}");
}

const LOCKSTEP_PINS: &[(&str, &str)] = &[
    ("scheme1", "df79324b974bbaf30db29a7e3a0f6807"),
    ("scheme2", "7d2d4600dec95c9f0a83cf60d790f1fc"),
    ("scheme1-classic", "bcf94b77b7b27ba8051485c5cb2be4a5"),
    ("outsider", "a37f98ad215aa63a613e5b5d62ff1b90"),
    ("lone-member", "f00134cda6dfd4eb2fa4a18ac39d8013"),
    ("mixed-groups", "2accf63d3f2d1a9dee080eefe1377c26"),
    ("gdh2-m4", "91b3e846ce65cf92a1799d7ea6050cbd"),
    ("authenticated-bd", "7f1513321412721ac34ed8e980736e98"),
    ("preliminary-only", "1dff59d14c6cc7a1c9dbd63a4cf095b9"),
    ("sequential-verify", "e9648e7c1344d8adf4547b3eab3b76ed"),
    ("adversarial-reorder", "4b42bfd746c64a301ee1353170948042"),
    ("crash-stop", "cba43080389c9096edd21568bb71780f"),
    ("drop-one-phase2", "b272bbe4f68e0afa3bcf45ca98f5715d"),
    ("drop-35pct", "86183e63649c44941090c842f3941910"),
    ("corrupt-30pct", "fcb4acc43a393fd62d8c188e34770a50"),
    ("delay-phase3", "6262a7da24fac1704f8550cae8b6c33c"),
    ("budget-exhausted", "5ea4b462425c422c911f5832136836f7"),
];

const PER_PARTY_PINS: &[(&str, &str)] = &[
    ("scheme1", "d527b8ad0410710af2845736d481f1b6"),
    ("scheme2", "634a8261c7e91a902a23ce96694c73cc"),
    ("scheme1-classic", "8fb3839f4280d69d238c2cab80df4041"),
    ("outsider", "381f82c639c9d5678903dd120e7f995d"),
    ("lone-member", "e87ea4bf9694b6b9c79ea0aade32d552"),
    ("mixed-groups", "f98eb23e475fc44539cfc10753fe54a3"),
    ("gdh2-m4", "f647ce5251a1c7707e2009896f7acc22"),
    ("authenticated-bd", "235c40ea3f8172026d09bb10c9f3f76b"),
    ("preliminary-only", "80421902c5c198cc0b89c1fec5f39ebc"),
    ("adversarial-reorder", "69b5c5d337df9a05a0b429ee62542848"),
    ("crash-stop", "411e32e9e308e2f034841032a7e95846"),
    ("drop-one-phase2", "965e1ae24185b3836ae4099880bfd8c7"),
    ("drop-35pct", "595ad6b04e27a37630c882dfacb93663"),
    ("corrupt-30pct", "b8bdb1a3fd4d0bfa660aab7370c0acc8"),
    ("delay-phase3", "8efcaf58bb38d475203954ede35d802a"),
    ("budget-exhausted", "afff98dc1f80d4a62082e68faf162ab9"),
];

/// `run_handshake_with_net` over `BroadcastNet`, 17 configurations.
#[test]
fn lockstep_driver_outputs_match_their_pins() {
    let computed = cases()
        .iter()
        .map(|c| (c.name, lockstep_digest(c)))
        .collect();
    check(LOCKSTEP_PINS, computed);
}

/// `run_handshake_with_net` over `TcpSession`: the relay routes through
/// the same step as `BroadcastNet`, so the same 17 pins hold.
#[test]
fn lockstep_driver_over_tcp_reproduces_the_pins() {
    let computed = cases()
        .iter()
        .map(|c| (c.name, tcp_lockstep_digest(c)))
        .collect();
    check(LOCKSTEP_PINS, computed);
}

/// `run_party` over `SimLink`, every configuration whose option the
/// per-party driver reads (16).
#[test]
fn per_party_driver_outputs_match_their_pins() {
    let computed = cases()
        .iter()
        .filter(|c| c.per_party)
        .map(|c| (c.name, per_party_digest(c)))
        .collect();
    check(PER_PARTY_PINS, computed);
}

/// `run_party` over `TcpParty` reports what it reports over `SimLink`
/// on every per-party configuration but the [`MEDIUM_DEPENDENT`] ones,
/// and on the CRL session (12).
#[test]
fn per_party_driver_over_tcp_matches_sim_link() {
    let compared: Vec<Case> = cases()
        .into_iter()
        .filter(|c| c.per_party && !MEDIUM_DEPENDENT.contains(&c.name))
        .chain([crl8(true)])
        .collect();
    assert_eq!(compared.len(), 12);
    let differing: Vec<&str> = compared
        .iter()
        .filter(|case| {
            let sim = per_party_run(case);
            let (outputs, traffic) = tcp_per_party_run(case);
            medium_digest(&outputs, &traffic) != medium_digest(&sim.outputs, &sim.traffic)
        })
        .map(|case| case.name)
        .collect();
    assert!(
        differing.is_empty(),
        "per-party outputs over TCP differ from SimLink's: {differing:?}"
    );
}

const CRL_LOCKSTEP_PINS: &[(&str, &str)] = &[
    ("crl8", "3707200ed3a2713fb1b8e804881f2855"),
    ("crl8-sequential-verify", "3707200ed3a2713fb1b8e804881f2855"),
];

const CRL_PER_PARTY_PINS: &[(&str, &str)] = &[("crl8", "0ac5b2d7c744372ec11b607c03d7891a")];

/// Sessions whose CRL holds 8 tokens, through the lockstep driver in
/// both verify modes and through `run_party` over `SimLink`. Costs are
/// part of each digest, and the two lockstep pins are equal: every slot
/// pays its own revocation scan whichever thread verifies it.
#[test]
fn crl_sessions_match_their_pins() {
    let lockstep = vec![
        ("crl8", lockstep_digest(&crl8(true))),
        ("crl8-sequential-verify", lockstep_digest(&crl8(false))),
    ];
    check(CRL_LOCKSTEP_PINS, lockstep);
    check(
        CRL_PER_PARTY_PINS,
        vec![("crl8", per_party_digest(&crl8(true)))],
    );
}

/// A seeded session run again in the same process pays its revocation
/// scans again: nothing one party verified is charged to another, or to
/// a later session.
#[test]
fn repeated_crl_session_pays_every_slot_its_own_scan() {
    for run in 0..2 {
        for parallel in [true, false] {
            let case = crl8(parallel);
            let mut net = BroadcastNet::new(case.roster.len(), case.opts.delivery);
            let costs: Vec<u64> = lockstep_run(&case, &mut net)
                .costs
                .iter()
                .map(|c| c.modexp)
                .collect();
            assert_eq!(
                costs, [CRL8_SLOT_MODEXPS; 3],
                "lockstep, parallel_verify = {parallel}, run {run}"
            );
        }
        let costs: Vec<u64> = per_party_run(&crl8(true))
            .outputs
            .iter()
            .map(|p| p.costs.modexp)
            .collect();
        assert_eq!(costs, [CRL8_SLOT_MODEXPS; 3], "per party, run {run}");
    }
}
