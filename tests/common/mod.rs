//! Shared helpers for the integration tests.
#![allow(dead_code)] // not every test binary uses every helper

pub mod conformance;

use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use rand::RngCore;
use shs_core::fixtures;
use shs_core::{Actor, GroupAuthority, Member, SchemeKind};
use shs_crypto::drbg::HmacDrbg;
use shs_net::fault::FaultPlan;
use shs_net::observe::TrafficLog;
use shs_net::serve::{AttemptContext, AttemptOutcome, SessionJob};
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

/// One attempt as a [`KeepLogs`] job saw it: the context the service
/// passed and the full log the attempt produced.
#[derive(Debug, Clone)]
pub struct KeptAttempt {
    pub ctx: AttemptContext,
    pub traffic: TrafficLog,
}

/// The attempts a [`KeepLogs`] job ran, in order.
pub type KeptAttempts = Arc<Mutex<Vec<KeptAttempt>>>;

/// A session job that runs `inner` and keeps every attempt's full
/// traffic log, payloads included. The service registry keeps only a
/// summary of each log, so tests that read payload bytes take them
/// from here.
pub struct KeepLogs<J> {
    inner: J,
    kept: KeptAttempts,
}

impl<J: SessionJob> KeepLogs<J> {
    /// Wraps `inner`; the handle fills as the service runs attempts.
    pub fn new(inner: J) -> (KeepLogs<J>, KeptAttempts) {
        let kept = KeptAttempts::default();
        let job = KeepLogs {
            inner,
            kept: Arc::clone(&kept),
        };
        (job, kept)
    }
}

impl<J: SessionJob> SessionJob for KeepLogs<J> {
    fn roster_len(&self) -> usize {
        self.inner.roster_len()
    }

    fn run_attempt(&mut self, ctx: &AttemptContext) -> AttemptOutcome {
        let outcome = self.inner.run_attempt(ctx);
        self.kept
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(KeptAttempt {
                ctx: ctx.clone(),
                traffic: outcome.traffic.clone(),
            });
        outcome
    }
}

/// The attempts kept so far.
pub fn kept(handle: &KeptAttempts) -> Vec<KeptAttempt> {
    handle
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone()
}
