//! `churn_m3`: writes beside reads. Three-member sessions among the live
//! members run closed-loop through a one-worker service while a writer
//! thread applies `apply_epoch` windows of joins and leaves on a fixed
//! schedule, so the KY CRL grows during the run.

use crate::stats::{lateness, mean, median, Canary, Window};
use crate::svc::Done;
use crate::trace::{LayerTrace, TimingMedium};
use crate::Report;
use rand::RngCore;
use shs_bigint::counters;
use shs_core::config::CgkdChoice;
use shs_core::handshake::run_handshake_with_net;
use shs_core::{
    fixtures, Actor, BulletinBoard, GroupAuthority, GroupConfig, HandshakeOptions, Member,
    SchemeKind,
};
use shs_crypto::drbg::HmacDrbg;
use shs_gsig::ky::MemberId;
use shs_net::serve::{
    AttemptContext, AttemptOutcome, AttemptVerdict, Service, ServiceConfig, SessionId, SessionJob,
    SessionSpec, TerminalClass,
};
use shs_net::sync::BroadcastNet;
use shs_net::{DeliveryPolicy, Medium};
use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// Members admitted at set-up.
const GROUP: usize = 256;
/// Leaves of the LKH tree: rekey paths are as deep as a 2048-member group's.
const CAPACITY: u32 = 2048;
/// Members that take part in sessions; the rest are offline.
const LIVE: usize = 16;
const M: usize = 3;
/// Sessions in flight: one running and one queued, so the worker never
/// waits for the generator. When sessions arrived open-loop the worker
/// idled about two thirds of the time, and on the reference host the
/// latency of back-to-back runs moved by up to 1.5 × within minutes.
const IN_FLIGHT: usize = 2;
/// Sessions per second of `--seconds` the run performs: a session costs
/// 25–50 ms of the worker on the reference host, plus one modexp per CRL
/// entry for each of its three fresh signatures.
const PLANNED_PER_S: f64 = 30.0;
/// One churn window every 75 sessions (about three seconds): two joins
/// (one replaces a live member) and three leaves (that live member and
/// two offline ones), applied by the writer beside the sessions. Tying
/// the windows to the session count keeps the CRL each session checks
/// the same on every run, whatever the host's speed.
const EPOCH_EVERY: u64 = 75;
const EPOCH_OFFSET: u64 = 37;
const JOINS: usize = 2;
const OFFLINE_LEAVES: usize = 2;
const STUCK: Duration = Duration::from_secs(60);

type Live = Arc<RwLock<Vec<Member>>>;

/// A session among three live members, by index into the live set. The
/// members are read at attempt time, so a replaced slot is served by its
/// successor.
struct ChurnJob {
    live: Live,
    picks: [usize; M],
    label: String,
    traced: bool,
    done: Option<Sender<Done>>,
    rec: Done,
}

impl SessionJob for ChurnJob {
    fn roster_len(&self) -> usize {
        M
    }

    fn run_attempt(&mut self, ctx: &AttemptContext) -> AttemptOutcome {
        let start = Instant::now();
        let members = self
            .live
            .read()
            .expect("the generator never panics holding the live set");
        let actors: Vec<Actor<'_>> = ctx
            .roster
            .iter()
            .map(|&o| Actor::Member(&members[self.picks[o]]))
            .collect();
        let opts = options();
        let mut rng = HmacDrbg::from_seed(
            format!("{}/a{}/{:016x}", self.label, ctx.attempt, ctx.seed).as_bytes(),
        );
        let mut net = BroadcastNet::new(ctx.roster.len(), DeliveryPolicy::Synchronous);
        let (counts, result) = if self.traced {
            let mut timed = TimingMedium::new(&mut net);
            let r =
                counters::measure(|| run_handshake_with_net(&actors, &opts, &mut timed, &mut rng));
            self.rec.splits.push(timed.finish());
            r
        } else {
            counters::measure(|| run_handshake_with_net(&actors, &opts, &mut net, &mut rng))
        };
        drop(members);
        self.rec.modexp += counts.modexp;
        self.rec
            .attempt_ms
            .push(start.elapsed().as_secs_f64() * 1e3);
        match result {
            Ok(r) => {
                let first = r.outcomes.first().and_then(|o| o.session_key.as_ref());
                let agreed = r.outcomes.iter().all(|o| {
                    o.accepted
                        && matches!((first, o.session_key.as_ref()), (Some(a), Some(b)) if a.ct_eq(b))
                });
                let verdict = if r.outcomes.iter().any(|o| o.abort.is_some()) {
                    AttemptVerdict::Abort
                } else if agreed {
                    AttemptVerdict::Success
                } else {
                    AttemptVerdict::Failure
                };
                AttemptOutcome {
                    verdict,
                    traffic: r.traffic,
                }
            }
            Err(_) => AttemptOutcome {
                verdict: AttemptVerdict::Abort,
                traffic: net.traffic_snapshot(),
            },
        }
    }
}

impl Drop for ChurnJob {
    fn drop(&mut self) {
        if let Some(tx) = self.done.take() {
            let _ = tx.send(std::mem::take(&mut self.rec));
        }
    }
}

fn options() -> HandshakeOptions {
    HandshakeOptions {
        parallel_verify: false,
        ..HandshakeOptions::default()
    }
}

/// The group's writer side: the authority, its bulletin board, and the
/// members it can revoke.
struct Writer {
    ga: GroupAuthority,
    board: BulletinBoard,
    live: Live,
    offline: Vec<MemberId>,
}

pub struct Fixture {
    writer: Writer,
    live: Live,
    svc: Service,
    done_tx: Sender<Done>,
    done_rx: Receiver<Done>,
    wire_bytes: usize,
}

/// Builds the group from fixed labels, keeps the first [`LIVE`]
/// members, starts the one-worker service, and runs one reference
/// session that warms the caches and fixes the exact wire size.
pub fn setup() -> Result<Fixture, String> {
    let mut rng = HmacDrbg::from_seed(b"perfbench/churn_m3/group");
    let config = GroupConfig {
        capacity: CAPACITY,
        ..GroupConfig::test_with_cgkd(SchemeKind::Scheme1, CgkdChoice::Lkh)
    };
    let mut ga = fixtures::test_authority_with(config, &mut rng);
    let (mut members, _) = ga
        .apply_epoch(GROUP, &[], &mut rng)
        .map_err(|e| format!("admitting members: {e}"))?;
    let offline: Vec<MemberId> = members.drain(LIVE..).map(|m| m.id()).collect();
    let live: Live = Arc::new(RwLock::new(members));
    let svc = Service::start(ServiceConfig {
        workers: 1,
        queue_capacity: 256,
        default_deadline: Duration::from_secs(30),
        default_max_attempts: 4,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(8),
        seed: 0xc4_0e11,
    });
    let (done_tx, done_rx) = channel();
    let job = ChurnJob {
        live: Arc::clone(&live),
        picks: [0, 1, 2],
        label: "reference".into(),
        traced: false,
        done: Some(done_tx.clone()),
        rec: Done::default(),
    };
    let id = svc.submit(SessionSpec::new(Box::new(job))).id();
    done_rx
        .recv_timeout(STUCK)
        .map_err(|_| "reference session never finished".to_string())?;
    let entry = svc.entry(id).ok_or("reference entry missing")?;
    if entry.class != Some(TerminalClass::Accepted) {
        return Err(format!("reference session ended {:?}", entry.class));
    }
    let wire_bytes = entry.attempts.iter().map(|a| a.traffic.total_bytes()).sum();
    Ok(Fixture {
        writer: Writer {
            ga,
            board: BulletinBoard::new(),
            live: Arc::clone(&live),
            offline,
        },
        live,
        svc,
        done_tx,
        done_rx,
        wire_bytes,
    })
}

/// Completions and their bookkeeping.
#[derive(Default)]
struct Tally {
    inflight: HashMap<u64, (SessionId, Instant)>,
    window: Window,
    layer: LayerTrace,
    attempted: u64,
    failed: u64,
    attempts: u64,
    queue_ms: Vec<f64>,
    attempt_ms: Vec<f64>,
}

impl Tally {
    /// Records one completion; returns when its session finished.
    fn handle(&mut self, done: Done, svc: &Service, wire_bytes: usize) -> Option<Instant> {
        let (id, submitted) = self.inflight.remove(&done.index)?;
        self.attempted += 1;
        let Some(entry) = svc.entry(id) else {
            self.failed += 1;
            return None;
        };
        let bytes: usize = entry.attempts.iter().map(|a| a.traffic.total_bytes()).sum();
        let ok = entry.class == Some(TerminalClass::Accepted)
            && entry.attempts.len() == 1
            && bytes == wire_bytes;
        if ok {
            self.window.ok_in_window += 1;
        } else {
            self.failed += 1;
        }
        self.attempts += entry.attempts.len() as u64;
        self.window.wire_bytes.push(bytes as f64);
        let latency_ms = entry
            .finished_at
            .map(|f| f.saturating_duration_since(submitted).as_secs_f64() * 1e3);
        if let Some(l) = latency_ms {
            self.window.latency_ms.push(l);
        }
        if let Some(s) = entry.started_at {
            self.queue_ms
                .push(s.duration_since(entry.queued_at).as_secs_f64() * 1e3);
        }
        self.attempt_ms.extend_from_slice(&done.attempt_ms);
        let traced = !done.splits.is_empty();
        if traced {
            self.layer.sessions += 1;
            self.layer.modexp += done.modexp;
            for split in &done.splits {
                self.layer.retries += u64::from(split.exchanges.saturating_sub(4));
            }
            self.layer.attempts.extend_from_slice(&done.splits);
        } else {
            self.layer
                .untraced_attempt_ms
                .extend_from_slice(&done.attempt_ms);
        }
        if let Some(l) = latency_ms {
            if traced {
                self.layer.traced_ms.push(l);
            } else {
                self.layer.untraced_ms.push(l);
            }
        }
        entry.finished_at
    }
}

/// One churn window's measurements.
struct Epoch {
    apply_ms: f64,
    sync_us: Vec<f64>,
    items: usize,
    bytes: usize,
}

pub fn run(fx: Fixture, seed: u64, seconds: f64, trace: bool, canary: &mut Canary) -> Report {
    let Fixture {
        mut writer,
        live,
        svc,
        done_tx,
        done_rx,
        wire_bytes,
    } = fx;
    let mut inputs = HmacDrbg::from_seed(format!("perfbench/churn_m3/inputs/{seed}").as_bytes());
    let sessions = crate::planned(seconds, PLANNED_PER_S);
    let mut lateness_ms = Vec::new();
    let mut tally = Tally::default();
    let (epoch_tx, epoch_rx) = channel::<u64>();
    let mut paused = 0.0;
    let start = Instant::now();
    let applied = std::thread::scope(|scope| {
        // The writer applies each churn window on a thread of its own, so
        // epochs run beside the sessions and contend with them for the
        // live set's lock and the CPU.
        let writer = scope.spawn(move || {
            let mut picks =
                HmacDrbg::from_seed(format!("perfbench/churn_m3/churn/{seed}").as_bytes());
            epoch_rx
                .iter()
                .map(|j| churn(&mut writer, &mut picks, seed, j))
                .collect::<Vec<_>>()
        });
        // Completion times of the sessions whose places in flight are free.
        let mut freed: Vec<Instant> = Vec::new();
        let mut next = 0u64;
        loop {
            if canary.mid_due(start, seconds) && tally.inflight.is_empty() {
                // The generator stopped submitting when the sample fell due
                // and waited for the sessions in flight: the worker is idle.
                paused += canary.sample();
                freed.clear();
            }
            while next < sessions
                && tally.inflight.len() < IN_FLIGHT
                && !canary.mid_due(start, seconds)
            {
                let k = next;
                next += 1;
                if k % EPOCH_EVERY == EPOCH_OFFSET {
                    let _ = epoch_tx.send(k / EPOCH_EVERY);
                }
                let mut picks = [0usize; M];
                let mut pool: Vec<usize> = (0..LIVE).collect();
                for p in picks.iter_mut() {
                    *p = pool.swap_remove((inputs.next_u64() % pool.len() as u64) as usize);
                }
                let job = ChurnJob {
                    live: Arc::clone(&live),
                    picks,
                    label: format!("{seed}/{k}"),
                    traced: crate::trace::traced(trace, k),
                    done: Some(done_tx.clone()),
                    rec: Done {
                        index: k,
                        ..Done::default()
                    },
                };
                let submitted = Instant::now();
                let id = svc.submit(SessionSpec::new(Box::new(job))).id();
                tally.inflight.insert(k, (id, submitted));
                if let Some(f) = freed.pop() {
                    lateness_ms.push(submitted.duration_since(f).as_secs_f64() * 1e3);
                }
            }
            if tally.inflight.is_empty() {
                break;
            }
            match done_rx.recv_timeout(STUCK) {
                Ok(done) => {
                    if let Some(f) = tally.handle(done, &svc, wire_bytes) {
                        freed.push(f);
                    }
                }
                Err(_) => {
                    tally.attempted += tally.inflight.len() as u64;
                    tally.failed += tally.inflight.len() as u64;
                    break;
                }
            }
        }
        tally.window.seconds = start.elapsed().as_secs_f64() - paused;
        drop(epoch_tx);
        writer
            .join()
            .unwrap_or_else(|_| vec![Err("the writer panicked".to_string())])
    });
    let windows = applied.len() as u64;
    let mut epochs: Vec<Epoch> = Vec::new();
    for window in applied {
        match window {
            Ok(e) => epochs.push(e),
            Err(_) => tally.failed += 1,
        }
    }
    let stats = svc.stats();
    let crl_len = live
        .read()
        .map_or(0, |l| l.first().map_or(0, Member::crl_version));
    let mut report = Report {
        attempted: tally.attempted + windows,
        failed: tally.failed,
        ..Report::default()
    };
    if stats.illegal_transitions != 0 || !svc.leaks().is_empty() {
        report.failed += 1;
    }
    if !svc.shutdown(Duration::from_secs(30)).clean() {
        report.failed += 1;
    }
    let list = |f: &dyn Fn(&Epoch) -> usize| {
        epochs
            .iter()
            .map(|e| f(e).to_string())
            .collect::<Vec<_>>()
            .join(", ")
    };
    report.deterministic = format!(
        "{{\"sessions\": {}, \"wire_bytes_per_session\": {}, \"attempts\": {}, \"epochs\": {}, \
         \"rekey_bytes\": [{}], \"rekey_items\": [{}], \"crl_len_end\": {}}}",
        tally.attempted,
        wire_bytes,
        tally.attempts,
        epochs.len(),
        list(&|e| e.bytes),
        list(&|e| e.items),
        crl_len
    );
    let epoch_ms: Vec<f64> = epochs
        .iter()
        .map(|e| e.apply_ms + e.sync_us.iter().sum::<f64>() / 1e3)
        .collect();
    report.notes.push(format!(
        "epochs: {} windows, p50 epoch latency {:.3} ms (apply_epoch + every live member's \
         update), {:.0} rekey bytes per epoch, CRL length at the end {}",
        epochs.len(),
        median(&epoch_ms),
        mean(&epochs.iter().map(|e| e.bytes as f64).collect::<Vec<_>>()),
        crl_len
    ));
    if trace {
        let out = &mut report.layers;
        tally.layer.engine_metrics(out, &mut report.notes);
        crate::probe::bigint(out);
        {
            let live = live
                .read()
                .expect("no session panicked holding the live set");
            let others: Vec<&Member> = live[1..M].iter().collect();
            if !crate::probe::gsig(out, &live[0], &others, 40) {
                report.failed += 1;
            }
        }
        let n = tally.attempted.max(1) as f64;
        out.put("serve.queue_wait_ms", mean(&tally.queue_ms), "ms");
        out.put("serve.attempt_ms", mean(&tally.attempt_ms), "ms");
        out.put(
            "serve.attempts_per_session",
            tally.attempts as f64 / n,
            "count",
        );
        out.put(
            "serve.useful_ratio",
            tally.window.ok_in_window as f64 / tally.attempts.max(1) as f64,
            "ratio",
        );
        out.put("serve.shed", stats.shed as f64, "count");
        out.put("cgkd.epoch_latency_ms", median(&epoch_ms), "ms");
        out.put(
            "cgkd.rekey_bytes_per_epoch",
            mean(&epochs.iter().map(|e| e.bytes as f64).collect::<Vec<_>>()),
            "bytes",
        );
        out.put(
            "cgkd.apply_epoch_ms",
            median(&epochs.iter().map(|e| e.apply_ms).collect::<Vec<_>>()),
            "ms",
        );
        out.put(
            "cgkd.member_sync_us",
            median(
                &epochs
                    .iter()
                    .flat_map(|e| e.sync_us.iter().copied())
                    .collect::<Vec<_>>(),
            ),
            "us",
        );
        out.put(
            "cgkd.rekey_items_per_epoch",
            mean(&epochs.iter().map(|e| e.items as f64).collect::<Vec<_>>()),
            "count",
        );
        out.put("gsig.crl_len_end", crl_len as f64, "count");
        lateness(out, &lateness_ms);
    }
    report.window = tally.window;
    report
}

/// One churn window: one live member is replaced by a joiner, another
/// joiner stays offline, and two offline members leave. Every live
/// member then applies the window's update.
fn churn(w: &mut Writer, picks: &mut HmacDrbg, seed: u64, j: u64) -> Result<Epoch, String> {
    let replaced = (picks.next_u64() % LIVE as u64) as usize;
    let mut leaves = vec![w.live.read().map_err(|_| "poisoned")?[replaced].id()];
    for _ in 0..OFFLINE_LEAVES {
        let at = (picks.next_u64() % w.offline.len() as u64) as usize;
        leaves.push(w.offline.swap_remove(at));
    }
    let mut coins = HmacDrbg::from_seed(format!("perfbench/churn_m3/epoch/{seed}/{j}").as_bytes());
    let t = Instant::now();
    let (mut joined, update) =
        w.ga.apply_epoch(JOINS, &leaves, &mut coins)
            .map_err(|e| format!("epoch {j}: {e}"))?;
    let apply_ms = t.elapsed().as_secs_f64() * 1e3;
    let stats = update.rekey.stats();
    let bytes = stats.bytes + update.payload_ct.len();
    w.board.post(update);
    let successor = joined.remove(0);
    w.offline.extend(joined.iter().map(Member::id));
    let mut live = w.live.write().map_err(|_| "poisoned")?;
    live[replaced] = successor;
    let mut sync_us = Vec::with_capacity(LIVE);
    for (i, member) in live.iter_mut().enumerate() {
        if i == replaced {
            continue;
        }
        let t = Instant::now();
        let applied = w.board.sync(member).map_err(|e| format!("sync: {e}"))?;
        sync_us.push(t.elapsed().as_secs_f64() * 1e6);
        if applied != 1 {
            return Err(format!("member applied {applied} updates"));
        }
    }
    Ok(Epoch {
        apply_ms,
        sync_us,
        items: stats.items,
        bytes,
    })
}
