//! **Membership-scale benchmark** — drives each CGKD backend to large
//! group sizes through the batched `apply_epoch` path and records a
//! persistent baseline in `BENCH_scale.json` at the repository root
//! (experiment E18 in `EXPERIMENTS.md`).
//!
//! Per backend and group size `n`, three numbers:
//!
//! * `build_s` — wall clock from an empty controller to `n` members
//!   (one join window for LKH and Star, chunked join windows for SD).
//! * `epoch_ms` — a mixed churn window at full size: evict one member
//!   and admit one replacement, a single epoch broadcast on every
//!   backend. Each row times seven such windows back to back and
//!   reports the median, which one slow window cannot move. Each
//!   window's leaver is drawn uniformly from the row's DRBG among the
//!   members other than the probe, and its joiner takes its place, so
//!   the size stays `n` and each window rekeys a random member's path
//!   rather than the leaf the previous window freed (at large `n`, a
//!   cold path). Items/bytes of the first window's broadcast ride along.
//! * `first_epoch_ms` — the first of those windows on its own. It pays
//!   the allocator's deferred release of what the build freed, so at
//!   large `n` it can read a hundred times the median, which leaves it
//!   out; `--check` gates the median only.
//! * `sync_ms` — a single member processing a window's broadcast: the
//!   stale-member catch-up cost for one missed epoch, the median over
//!   the same seven windows.
//!
//! LKH sweeps to a million members; SD stops at 100k (provisioning a
//! joiner is O(log² n) GGM labels and SD leaves are never reused); the
//! flat Star backend stops at 2048 (every epoch is O(n) by design —
//! included as the baseline the tree schemes beat).
//!
//! ```sh
//! cargo run --release -p shs-bench --bin bench_scale [-- --smoke] [-- --check]
//! ```
//!
//! `--smoke` shrinks the sweep for CI; `--check` exits non-zero if the
//! largest LKH size does not keep both `epoch_ms` and `sync_ms` under
//! 100 ms (the headline acceptance: million-member churn in bounded
//! time).

use rand::RngCore;
use shs_bench::{rng, timed};
use shs_cgkd::lkh::LkhController;
use shs_cgkd::sd::SdController;
use shs_cgkd::star::StarController;
use shs_cgkd::{BroadcastStats, Controller, MemberState, UserId};

/// One (backend, size) measurement.
struct Row {
    backend: &'static str,
    n: usize,
    build_s: f64,
    churn: Churn,
}

/// What [`churn`] measured on a built group.
struct Churn {
    /// Median window time.
    epoch_ms: f64,
    /// The first window's time.
    first_epoch_ms: f64,
    /// Median time the probe took to process a window's broadcast.
    sync_ms: f64,
    /// The first window's broadcast.
    stats: BroadcastStats,
}

/// `--check` ceiling for the churn-window and sync costs, milliseconds.
const CHECK_CEILING_MS: f64 = 100.0;

/// Churn windows timed per row; the row reports their medians.
const WINDOWS: usize = 7;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let check = args.iter().any(|a| a == "--check");
    if let Some(bad) = args
        .iter()
        .find(|a| *a != "--smoke" && *a != "--check" && *a != "--")
    {
        eprintln!("bench_scale: unknown flag `{bad}` (use --smoke / --check)");
        std::process::exit(2);
    }

    let lkh_sizes: &[usize] = if smoke {
        &[1_000, 10_000]
    } else {
        &[1_000, 10_000, 100_000, 1_000_000]
    };
    let sd_sizes: &[usize] = if smoke {
        &[1_000]
    } else {
        &[1_000, 10_000, 100_000]
    };
    let star_sizes: &[usize] = if smoke { &[256] } else { &[512, 2_048] };

    let mut rows: Vec<Row> = Vec::new();
    for &n in lkh_sizes {
        rows.push(one_window_row("lkh", n, LkhController::new));
        eprintln!("bench_scale: lkh n={n} done");
    }
    for &n in sd_sizes {
        rows.push(sd_row(n));
        eprintln!("bench_scale: sd n={n} done");
    }
    for &n in star_sizes {
        rows.push(one_window_row("star", n, StarController::new));
        eprintln!("bench_scale: star n={n} done");
    }

    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = render_json(&rows, smoke, workers);
    println!("{json}");
    let out_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scale.json");
    if let Err(err) = std::fs::write(out_path, format!("{json}\n")) {
        eprintln!("bench_scale: could not write {out_path}: {err}");
        std::process::exit(2);
    }

    if check {
        // The acceptance gate rides on the largest LKH size in the sweep;
        // the smaller rows get the same ceiling for free.
        let mut failed = false;
        for r in &rows {
            for (what, ms) in [("epoch", r.churn.epoch_ms), ("sync", r.churn.sync_ms)] {
                if ms >= CHECK_CEILING_MS {
                    eprintln!(
                        "bench_scale: CHECK FAILED: {} n={} {what} {ms:.2} ms \
                         at or above the {CHECK_CEILING_MS:.0} ms ceiling",
                        r.backend, r.n
                    );
                    failed = true;
                }
            }
        }
        if failed {
            std::process::exit(1);
        }
        eprintln!(
            "bench_scale: all {} rows under the {CHECK_CEILING_MS:.0} ms churn/sync ceiling",
            rows.len()
        );
    }
}

/// LKH and Star: one build window to `n`, then [`WINDOWS`]
/// one-evict-one-join windows at full size. The probe member joins in
/// the build window and processes every later broadcast like a real
/// receiver.
fn one_window_row<C: Controller>(
    backend: &'static str,
    n: usize,
    new: fn(u32, &mut dyn RngCore) -> C,
) -> Row {
    let mut r = rng(&format!("bench-scale-{backend}-{n}"));
    let mut ctrl = new(n as u32, &mut r);
    let (build_s, (mut probe, roster)) = timed(|| {
        let (welcomes, broadcast) = ctrl
            .apply_epoch(n, &[], &mut r)
            .expect("build window within capacity");
        let roster: Vec<UserId> = welcomes.iter().map(|(uid, _)| *uid).collect();
        let (_, first) = welcomes.into_iter().next().expect("n >= 1 joiners");
        let mut probe = ctrl.member_from_welcome(first);
        probe
            .process(&broadcast)
            .expect("probe processes its own build window");
        (probe, roster)
    });
    Row {
        backend,
        n,
        build_s,
        churn: churn(&mut ctrl, &mut probe, roster, &mut r),
    }
}

/// SD: chunked build windows (each joiner's welcome is an O(log² n)
/// label arena, so welcomes are dropped per chunk to bound memory),
/// then the same one-evict-one-join windows. SD never reuses a leaf,
/// so the capacity leaves headroom for the churn windows' joiners: `n +
/// 8` rounds up to a power of two of at least `n + WINDOWS` leaves.
fn sd_row(n: usize) -> Row {
    let mut r = rng(&format!("bench-scale-sd-{n}"));
    let mut ctrl = SdController::new(n as u32 + 8, &mut r);
    let chunk = 8_192;
    let (build_s, (mut probe, roster)) = timed(|| {
        let mut probe = None;
        let mut roster = Vec::with_capacity(n);
        let mut remaining = n;
        while remaining > 0 {
            let joins = remaining.min(chunk);
            let (welcomes, broadcast) = ctrl
                .apply_epoch(joins, &[], &mut r)
                .expect("build chunk within capacity");
            if probe.is_none() {
                let (_, first) = welcomes.first().cloned().expect("joins >= 1");
                probe = Some(ctrl.member_from_welcome(first));
            }
            roster.extend(welcomes.iter().map(|(uid, _)| *uid));
            if let Some(p) = probe.as_mut() {
                p.process(&broadcast).expect("probe follows each chunk");
            }
            remaining -= joins;
        }
        (probe.expect("n >= 1"), roster)
    });
    Row {
        backend: "sd",
        n,
        build_s,
        churn: churn(&mut ctrl, &mut probe, roster, &mut r),
    }
}

/// Times [`WINDOWS`] churn windows on a built group. `roster` holds
/// every member's id, the probe's first. Each window evicts a member
/// drawn uniformly from `r` among the others and admits one joiner in
/// its place, and the probe processes every broadcast.
fn churn<C: Controller>(
    ctrl: &mut C,
    probe: &mut C::Member,
    mut roster: Vec<UserId>,
    r: &mut dyn RngCore,
) -> Churn {
    let mut epoch_ms = Vec::with_capacity(WINDOWS);
    let mut sync_ms = Vec::with_capacity(WINDOWS);
    let mut first = None;
    for _ in 0..WINDOWS {
        let in_sync = probe.group_key().ct_eq(Controller::group_key(ctrl));
        assert!(in_sync, "probe out of sync with the controller");
        let slot = 1 + (r.next_u64() % (roster.len() as u64 - 1)) as usize;
        let (epoch_s, (joined, broadcast)) = timed(|| {
            ctrl.apply_epoch(1, &[roster[slot]], r)
                .expect("churn window at full size")
        });
        roster[slot] = joined.first().map(|(uid, _)| *uid).expect("one joiner");
        first.get_or_insert(C::stats(&broadcast));
        let (sync_s, _) = timed(|| {
            probe
                .process(&broadcast)
                .expect("probe survives the churn window");
        });
        epoch_ms.push(epoch_s * 1e3);
        sync_ms.push(sync_s * 1e3);
    }
    let in_sync = probe.group_key().ct_eq(Controller::group_key(ctrl));
    assert!(in_sync, "probe out of sync with the controller");
    // Fields are evaluated in order: the first window is read before
    // the median sorts the sample.
    Churn {
        first_epoch_ms: epoch_ms[0],
        epoch_ms: median(&mut epoch_ms),
        sync_ms: median(&mut sync_ms),
        stats: first.expect("WINDOWS >= 1"),
    }
}

/// The middle value of an odd-length sample.
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Hand-rolled JSON: the offline build has no serde_json.
fn render_json(rows: &[Row], smoke: bool, workers: usize) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"benchmark\": \"scale\",\n");
    s.push_str(&format!("  \"smoke\": {smoke},\n"));
    s.push_str(&format!("  \"check_ceiling_ms\": {CHECK_CEILING_MS:.1},\n"));
    s.push_str(&format!("  \"host\": {},\n", shs_bench::host_json(workers)));
    s.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let c = &r.churn;
        s.push_str(&format!(
            "    {{ \"backend\": \"{}\", \"n\": {}, \"build_s\": {:.4}, \
             \"epoch_ms\": {:.4}, \"first_epoch_ms\": {:.4}, \"epoch_items\": {}, \
             \"epoch_bytes\": {}, \"sync_ms\": {:.4} }}{}\n",
            r.backend,
            r.n,
            r.build_s,
            c.epoch_ms,
            c.first_epoch_ms,
            c.stats.items,
            c.stats.bytes,
            c.sync_ms,
            comma
        ));
    }
    s.push_str("  ]\n");
    s.push('}');
    s
}
