//! Model-agnosticism (§1.1 flexibility, experiment E10): the framework
//! inherits the communication model of its building blocks — under the
//! asynchronous guaranteed-delivery model with adversarial reordering,
//! every outcome is identical to the synchronous run.

mod common;

use common::{actors, group, rng};
use shs_core::handshake::run_handshake;
use shs_core::{Actor, HandshakeOptions, SchemeKind};
use shs_net::DeliveryPolicy;

#[test]
fn reordered_delivery_preserves_success() {
    for seed in [1u64, 7, 42] {
        let mut r = rng("ma-success");
        let (_, members) = group(SchemeKind::Scheme1, 4, &mut r);
        let opts = HandshakeOptions {
            delivery: DeliveryPolicy::AdversarialReorder { seed },
            ..Default::default()
        };
        let result = run_handshake(&actors(&members), &opts, &mut r).unwrap();
        assert!(result.outcomes.iter().all(|o| o.accepted), "seed {seed}");
        let key0 = result.outcomes[0].session_key.clone().unwrap();
        assert!(result
            .outcomes
            .iter()
            .all(|o| o.session_key.as_ref() == Some(&key0)));
    }
}

#[test]
fn reordered_delivery_preserves_partial_success_structure() {
    let mut r = rng("ma-partial");
    let (_, a_members) = group(SchemeKind::Scheme1, 2, &mut r);
    let (_, b_members) = group(SchemeKind::Scheme1, 3, &mut r);
    let session = [
        Actor::Member(&a_members[0]),
        Actor::Member(&b_members[0]),
        Actor::Member(&a_members[1]),
        Actor::Member(&b_members[1]),
        Actor::Member(&b_members[2]),
    ];
    // Run synchronously and asynchronously; ∆ sets must agree.
    let sync = run_handshake(&session, &HandshakeOptions::default(), &mut r).unwrap();
    let opts = HandshakeOptions {
        delivery: DeliveryPolicy::AdversarialReorder { seed: 99 },
        ..Default::default()
    };
    let async_run = run_handshake(&session, &opts, &mut r).unwrap();
    for (s, a) in sync.outcomes.iter().zip(&async_run.outcomes) {
        assert_eq!(s.same_group_slots, a.same_group_slots);
        assert_eq!(s.accepted, a.accepted);
        assert_eq!(s.partial_accepted(), a.partial_accepted());
    }
}

#[test]
fn reordered_delivery_preserves_self_distinction() {
    let mut r = rng("ma-sd");
    let (_, members) = group(SchemeKind::Scheme2SelfDistinct, 2, &mut r);
    let session = [
        Actor::Member(&members[0]),
        Actor::Member(&members[1]),
        Actor::Member(&members[0]),
    ];
    let opts = HandshakeOptions {
        delivery: DeliveryPolicy::AdversarialReorder { seed: 5 },
        ..Default::default()
    };
    let result = run_handshake(&session, &opts, &mut r).unwrap();
    assert_eq!(result.outcomes[1].duplicate_slots, vec![0, 2]);
    assert!(!result.outcomes[1].accepted);
}

#[test]
fn per_party_bd_reaches_agreement_under_jittered_delivery() {
    // Each party runs on its own thread behind a `SimLink` whose seeded
    // latency (100 µs base, up to 5 ms jitter) lets a fast party's
    // second-round message overtake a slow first-round one: a
    // Burmester–Desmedt agreement still completes — the DGKA building
    // block really is model-agnostic, not just round-shuffled. Virtual
    // time makes each seed's interleaving replay exactly.
    use shs_dgka::bd;
    use shs_groups::schnorr::{SchnorrGroup, SchnorrPreset};
    use shs_net::fault::FaultPlan;
    use shs_net::PartyLink;
    use shs_sim::core::LatencyModel;
    use shs_sim::network::{run_session, SimLink};
    use std::time::Duration;

    let m = 4usize;
    let run = |seed: u64| {
        let bodies: Vec<_> = (0..m)
            .map(|i| {
                move |mut link: SimLink| {
                    let group = SchnorrGroup::system_wide(SchnorrPreset::Test);
                    let mut rng =
                        shs_crypto::drbg::HmacDrbg::from_seed(format!("bd-{seed}-{i}").as_bytes());
                    let (mut party, r1) = bd::Party::start(group, m, i, &mut rng).unwrap();
                    link.broadcast("bd-r1", encode(&r1.sender, &r1.z)).unwrap();
                    let round1: Vec<bd::Round1> = collect_all(&mut link, "bd-r1")
                        .iter()
                        .map(|p| decode_r1(p))
                        .collect();
                    let r2 = party.round2(&round1).unwrap();
                    link.broadcast("bd-r2", encode(&r2.sender, &r2.x)).unwrap();
                    let round2: Vec<bd::Round2> = collect_all(&mut link, "bd-r2")
                        .iter()
                        .map(|p| decode_r2(p))
                        .collect();
                    party.finish(&round2).unwrap().key
                }
            })
            .collect();
        let latency = LatencyModel {
            base: Duration::from_micros(100),
            jitter: Duration::from_millis(5),
            seed,
        };
        run_session(m, FaultPlan::new(seed), latency, bodies)
    };
    for seed in [1u64, 2, 3] {
        let report = run(seed);
        for k in &report.outputs[1..] {
            assert_eq!(k, &report.outputs[0], "seed {seed}: all parties agree");
        }
        assert_eq!(report.traffic.len(), 2 * m, "seed {seed}: one send each");
    }
    let (a, b) = (run(1), run(1));
    assert_eq!(a.fingerprint, b.fingerprint, "seed 1 replays");
    assert_eq!(a.outputs, b.outputs);

    /// Every slot's payload of `round`; guaranteed delivery means the
    /// view is complete long before the (virtual) deadline.
    fn collect_all(link: &mut SimLink, round: &str) -> Vec<Vec<u8>> {
        link.collect(round, Duration::from_secs(1), &mut |_, _| true)
            .unwrap()
            .into_iter()
            .map(|p| p.expect("guaranteed delivery"))
            .collect()
    }
    fn encode(sender: &usize, v: &shs_bigint::Ubig) -> Vec<u8> {
        let mut out = (*sender as u32).to_be_bytes().to_vec();
        out.extend_from_slice(&v.to_bytes_be());
        out
    }
    fn decode_r1(p: &[u8]) -> bd::Round1 {
        bd::Round1 {
            sender: u32::from_be_bytes(p[..4].try_into().unwrap()) as usize,
            z: shs_bigint::Ubig::from_bytes_be(&p[4..]),
        }
    }
    fn decode_r2(p: &[u8]) -> bd::Round2 {
        bd::Round2 {
            sender: u32::from_be_bytes(p[..4].try_into().unwrap()) as usize,
            x: shs_bigint::Ubig::from_bytes_be(&p[4..]),
        }
    }
}
