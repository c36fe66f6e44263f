//! `hs_small_m8`: the lockstep engine (`run_handshake_with_net` over
//! `BroadcastNet`) at the Small presets with m = 8, fault-free, closed
//! loop with one client and default options. Bound by modexp; never
//! touches the service.

use crate::probe;
use crate::stats::{lateness, Canary, Window};
use crate::trace::{LayerTrace, PhaseSplit, TimingMedium};
use crate::Report;
use rand::RngCore;
use shs_core::config::CgkdChoice;
use shs_core::handshake::run_handshake_with_net;
use shs_core::{Actor, GroupAuthority, GroupConfig, HandshakeOptions, Member, SchemeKind};
use shs_crypto::drbg::HmacDrbg;
use shs_groups::rsa::RsaGroup;
use shs_groups::schnorr::SchnorrPreset;
use shs_gsig::params::{GsigParams, GsigPreset};
use shs_net::sync::BroadcastNet;
use std::time::Instant;

const M: usize = 8;
/// Sessions per second of `--seconds` the run performs: a session takes
/// 0.25–0.4 s depending on the host's speed phase.
const PLANNED_PER_S: f64 = 3.0;

/// The exact per-session quantities every session must reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Exact {
    wire_bytes: usize,
    modexp: u64,
    exchanges: u32,
    retries: u32,
}

pub struct Fixture {
    members: Vec<Member>,
    opts: HandshakeOptions,
    exact: Exact,
}

struct SessionOut {
    exact: Exact,
    /// Every slot accepted with the same session key.
    agreed: bool,
    wall_ms: f64,
    split: Option<PhaseSplit>,
}

fn session(
    fx_members: &[Member],
    order: &[usize],
    opts: &HandshakeOptions,
    label: &str,
    traced: bool,
) -> SessionOut {
    let actors: Vec<Actor<'_>> = order
        .iter()
        .map(|&i| Actor::Member(&fx_members[i]))
        .collect();
    let mut rng = HmacDrbg::from_seed(label.as_bytes());
    let start = Instant::now();
    let mut net = BroadcastNet::new(M, opts.delivery);
    let (result, split) = if traced {
        let mut timed = TimingMedium::new(&mut net);
        let r = run_handshake_with_net(&actors, opts, &mut timed, &mut rng);
        (r, Some(timed.finish()))
    } else {
        (
            run_handshake_with_net(&actors, opts, &mut net, &mut rng),
            None,
        )
    };
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let Ok(r) = result else {
        return SessionOut {
            exact: Exact::default(),
            agreed: false,
            wall_ms,
            split,
        };
    };
    let first = r.outcomes.first().and_then(|o| o.session_key.as_ref());
    let agreed = r.outcomes.iter().all(|o| {
        o.accepted && matches!((first, o.session_key.as_ref()), (Some(a), Some(b)) if a.ct_eq(b))
    });
    SessionOut {
        exact: Exact {
            wire_bytes: r.traffic.total_bytes(),
            modexp: r.costs.iter().map(|c| c.modexp).sum(),
            exchanges: r.stats.exchanges,
            retries: r.stats.retries,
        },
        agreed,
        wall_ms,
        split,
    }
}

/// Builds the group from fixed labels (the same work for every seed)
/// and runs one reference session that warms the caches and fixes the
/// exact per-session values.
pub fn setup() -> Result<Fixture, String> {
    let params = GsigParams::preset(GsigPreset::Small);
    let (rsa, secret) =
        RsaGroup::generate_deterministic(params.modulus_bits, b"perfbench/hs_small_m8/rsa");
    let config = GroupConfig {
        gsig_preset: GsigPreset::Small,
        schnorr_preset: SchnorrPreset::Small,
        scheme: SchemeKind::Scheme1,
        cgkd: CgkdChoice::Lkh,
        capacity: M as u32,
    };
    let mut rng = HmacDrbg::from_seed(b"perfbench/hs_small_m8/group");
    let mut ga = GroupAuthority::create_with_rsa(config, rsa, secret, &mut rng);
    let (members, _) = ga
        .apply_epoch(M, &[], &mut rng)
        .map_err(|e| format!("admitting members: {e}"))?;
    let opts = HandshakeOptions::default();
    let order: Vec<usize> = (0..M).collect();
    let reference = session(
        &members,
        &order,
        &opts,
        "perfbench/hs_small_m8/reference",
        false,
    );
    if !reference.agreed {
        return Err("reference session did not accept".into());
    }
    Ok(Fixture {
        members,
        opts,
        exact: reference.exact,
    })
}

/// A seeded slot assignment of the eight members.
fn seeded_order(rng: &mut HmacDrbg) -> Vec<usize> {
    let mut order: Vec<usize> = (0..M).collect();
    for i in (1..M).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

pub fn run(fx: &Fixture, seed: u64, seconds: f64, trace: bool, canary: &mut Canary) -> Report {
    let mut inputs = HmacDrbg::from_seed(format!("perfbench/hs_small_m8/inputs/{seed}").as_bytes());
    let mut report = Report::default();
    let mut layer = LayerTrace::default();
    let mut window = Window::default();
    let mut lateness_ms = Vec::new();
    let sessions = crate::planned(seconds, PLANNED_PER_S);
    let mut paused = 0.0;
    let start = Instant::now();
    let mut prev_end = start;
    for i in 0..sessions {
        let order = seeded_order(&mut inputs);
        let traced = crate::trace::traced(trace, i);
        lateness_ms.push(prev_end.elapsed().as_secs_f64() * 1e3);
        let label = format!("perfbench/hs_small_m8/{seed}/{i}");
        let out = session(&fx.members, &order, &fx.opts, &label, traced);
        prev_end = Instant::now();
        report.attempted += 1;
        if !out.agreed || out.exact != fx.exact {
            report.failed += 1;
        } else {
            window.ok_in_window += 1;
        }
        window.latency_ms.push(out.wall_ms);
        window.wire_bytes.push(out.exact.wire_bytes as f64);
        if let Some(split) = out.split {
            layer.attempts.push(split);
            layer.sessions += 1;
            layer.modexp += out.exact.modexp;
            layer.retries += u64::from(out.exact.retries);
            layer.traced_ms.push(out.wall_ms);
        } else {
            layer.untraced_attempt_ms.push(out.wall_ms);
            layer.untraced_ms.push(out.wall_ms);
        }
        if canary.mid_due(start, seconds) {
            // Between sessions no engine thread is busy.
            paused += canary.sample();
            prev_end = Instant::now();
        }
    }
    window.seconds = start.elapsed().as_secs_f64() - paused;
    report.window = window;
    report.deterministic = format!(
        "{{\"sessions\": {sessions}, \"modexp_per_session\": {}, \"wire_bytes_per_session\": {}, \
         \"exchanges_per_session\": {}, \"retries_per_session\": {}}}",
        fx.exact.modexp, fx.exact.wire_bytes, fx.exact.exchanges, fx.exact.retries
    );
    if trace {
        let out = &mut report.layers;
        layer.engine_metrics(out, &mut report.notes);
        probe::bigint(out);
        let others: Vec<&Member> = fx.members[1..].iter().collect();
        if !probe::gsig(out, &fx.members[0], &others, 5) {
            report.failed += 1;
        }
        lateness(out, &lateness_ms);
    }
    report
}
