//! Shared helpers for the integration tests.
#![allow(dead_code)] // not every test binary uses every helper

pub mod conformance;

use std::time::Duration;

use rand::RngCore;
use shs_core::fixtures;
use shs_core::{Actor, GroupAuthority, Member, SchemeKind};
use shs_crypto::drbg::HmacDrbg;
use shs_net::fault::FaultPlan;
use shs_net::observe::TrafficLog;
use shs_net::tcp::{RelayConfig, RelayHandle, SupervisorConfig, TcpParty};

/// Deterministic RNG for a test.
pub fn rng(label: &str) -> HmacDrbg {
    HmacDrbg::from_seed(label.as_bytes())
}

/// A group with `n` fully-updated members.
pub fn group(
    scheme: SchemeKind,
    n: usize,
    rng: &mut impl RngCore,
) -> (GroupAuthority, Vec<Member>) {
    fixtures::group_with_members(scheme, n, rng).expect("group fixture")
}

/// Borrows members as handshake actors.
pub fn actors(members: &[Member]) -> Vec<Actor<'_>> {
    members.iter().map(Actor::Member).collect()
}

/// Runs one body per seat over real loopback TCP, the wall-clock
/// counterpart of `shs_sim::network::run_session`: each body runs on its
/// own thread with a `TcpParty` attached to its seat of a relay holding
/// `plan`. Returns the outputs and the relay's eavesdropper log, read
/// once the relay has drained.
pub fn run_tcp_parties<T, F>(
    config: RelayConfig,
    plan: Option<FaultPlan>,
    bodies: Vec<F>,
) -> (Vec<T>, TrafficLog)
where
    T: Send + 'static,
    F: FnOnce(&mut TcpParty) -> T + Send + 'static,
{
    let relay = RelayHandle::bind("127.0.0.1:0", config, plan).expect("bind relay");
    let addr = relay.addr();
    let workers: Vec<_> = bodies
        .into_iter()
        .enumerate()
        .map(|(i, body)| {
            std::thread::spawn(move || {
                let sup = SupervisorConfig {
                    seed: i as u64,
                    ..SupervisorConfig::default()
                };
                let mut link = TcpParty::attach(addr, sup, Some(i)).expect("attach");
                let out = body(&mut link);
                link.finish();
                out
            })
        })
        .collect();
    let outputs = workers
        .into_iter()
        .map(|w| w.join().expect("party thread"))
        .collect();
    assert!(relay.wait_done(Duration::from_secs(5)), "relay drained");
    let log = relay.traffic();
    relay.shutdown();
    (outputs, log)
}
