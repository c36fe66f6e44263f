//! **Hot-path kernel benchmark** — measures the exponentiation
//! acceleration layer against the naive kernels it replaces and records a
//! persistent baseline in `BENCH_hot_paths.json` at the repository root
//! (experiment E15 in `EXPERIMENTS.md`).
//!
//! Metrics (accelerated vs naive, same inputs):
//!
//! * `fixed_base_vs_modpow` — `FixedBase::pow` vs windowed `modpow` on a
//!   long-lived base (the signing-path shape: secret exponents, so both
//!   sides are constant-trace).
//! * `multi_exp_vs_naive` — one Straus `multi_exp_vartime` vs a product
//!   of independent `RsaGroup::exp` calls (the ACJT/KY verify-equation
//!   shape: public data).
//! * `crt_root_vs_plain` — issuance-style `e`-th root via the CRT context
//!   vs a full-width `modpow`.
//! * `modinv_vs_ext_gcd` — `Ubig::modinv` (the binary inverse) vs the
//!   extended Euclid plus reduction it replaced, on units mod the RSA `n`
//!   (the KY signing and batch-verify shape: negative exponents invert
//!   their bases).
//! * `batch_verify_vs_sequential` — `ky::verify_batch` over `k = 16`
//!   signatures vs 16 independent `ky::verify` calls (the phase-III
//!   multi-party shape: one random-linear-combination multi-exp pass
//!   replaces `k` full equation sets).
//! * `handshake_parallel_vs_sequential` — an `m = 8` full handshake with
//!   the phase-III worker pool on vs off (wall-clock only; bounded by the
//!   machine's core count, ~1.0 on a single-core runner).
//!
//! ```sh
//! cargo run --release -p shs-bench --bin bench_hot_paths [-- --smoke] [-- --check]
//! ```
//!
//! `--smoke` shrinks sizes/iterations for CI; `--check` exits non-zero if
//! any accelerated kernel is slower than its naive counterpart (the
//! parallel-handshake metric gets a single-core tolerance). Every side of
//! every row runs for at least 10 ms at smoke size, in passes that
//! alternate between the two sides; each side's time is its median pass
//! times the pass count. So neither timer noise nor a burst of load on
//! the host decides a floor.

use shs_bench::{group, rng, timed};
use shs_bigint::{FixedBase, Int, Ubig};
use shs_core::{Actor, HandshakeOptions, SchemeKind};
use shs_groups::rsa::RsaGroup;
use std::sync::Arc;

struct Metric {
    name: &'static str,
    naive_s: f64,
    accel_s: f64,
    iters: u32,
    /// `--check` floor for naive_s / accel_s.
    floor: f64,
}

impl Metric {
    fn speedup(&self) -> f64 {
        if self.accel_s > 0.0 {
            self.naive_s / self.accel_s
        } else {
            f64::INFINITY
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let check = args.iter().any(|a| a == "--check");
    if let Some(bad) = args
        .iter()
        .find(|a| *a != "--smoke" && *a != "--check" && *a != "--")
    {
        eprintln!("bench_hot_paths: unknown flag `{bad}` (use --smoke / --check)");
        std::process::exit(2);
    }

    let modulus_bits: u32 = if smoke { 512 } else { 1024 };
    let kernel_iters: u32 = if smoke { 15 } else { 150 };
    // Passes over the kernel inputs: at smoke size one pass of the
    // fastest side takes 0.3–2 ms, so each row repeats enough passes to
    // lift both sides past 10 ms.
    let passes = |smoke_passes: u32| if smoke { smoke_passes } else { 1 };
    let handshake_runs: u32 = if smoke { 6 } else { 3 };

    let mut r = rng("bench-hot-paths");
    let (rsa, secret) = RsaGroup::generate_deterministic(modulus_bits, b"bench-hot-paths-modulus");
    let base = rsa.random_qr(&mut r);
    let exps: Vec<Ubig> = (0..kernel_iters)
        .map(|_| rsa.random_exponent(&mut r))
        .collect();
    let exp_bits = exps.iter().map(Ubig::bits).max().unwrap_or(1);

    let mut metrics: Vec<Metric> = Vec::new();

    // --- fixed-base table vs plain modpow (signing shape) ---------------
    let fb = FixedBase::new(Arc::clone(rsa.ctx()), &base, exp_bits);
    let reps = passes(50);
    let (naive_s, accel_s) = alternate(reps, |accel| {
        for e in &exps {
            std::hint::black_box(if accel {
                fb.pow(e)
            } else {
                rsa.ctx().modpow(&base, e)
            });
        }
    });
    metrics.push(Metric {
        name: "fixed_base_vs_modpow",
        naive_s,
        accel_s,
        iters: reps * kernel_iters,
        floor: 1.0,
    });

    // --- Straus multi-exp vs product of exponentiations (verify shape) --
    let bases: Vec<Ubig> = (0..4).map(|_| rsa.random_qr(&mut r)).collect();
    let term_exps: Vec<Vec<Int>> = (0..kernel_iters)
        .map(|_| {
            (0..4)
                .map(|_| Int::from_ubig(rsa.random_exponent(&mut r)))
                .collect()
        })
        .collect();
    let reps = passes(10);
    let (naive_s, accel_s) = alternate(reps, |accel| {
        for es in &term_exps {
            if accel {
                let terms: Vec<(&Ubig, &Int)> = bases.iter().zip(es).collect();
                std::hint::black_box(rsa.multi_exp_vartime(&terms));
            } else {
                let mut acc = Ubig::one();
                for (b, e) in bases.iter().zip(es) {
                    acc = rsa.mul(&acc, &rsa.exp(b, e.magnitude()));
                }
                std::hint::black_box(acc);
            }
        }
    });
    metrics.push(Metric {
        name: "multi_exp_vs_naive",
        naive_s,
        accel_s,
        iters: reps * kernel_iters,
        floor: 1.0,
    });

    // --- CRT e-th root vs full-width modpow (issuance shape) ------------
    let e_pub = Ubig::from_u64(65537);
    let d = e_pub
        .modinv(&secret.qr_order())
        .expect("65537 is coprime to the QR group order");
    let roots: Vec<Ubig> = (0..kernel_iters).map(|_| rsa.random_qr(&mut r)).collect();
    let reps = passes(25);
    let (naive_s, accel_s) = alternate(reps, |accel| {
        for x in &roots {
            std::hint::black_box(if accel {
                secret
                    .root(&rsa, x, &e_pub)
                    .expect("QR elements have e-th roots")
            } else {
                rsa.ctx().modpow(x, &d)
            });
        }
    });
    metrics.push(Metric {
        name: "crt_root_vs_plain",
        naive_s,
        accel_s,
        iters: reps * kernel_iters,
        floor: 1.0,
    });

    // --- binary modular inverse vs the Euclid (sign / verify shape) -----
    // KY signing and batch verification invert bases mod n.
    let inv_units: u32 = if smoke { 60 } else { 100 };
    let units: Vec<Ubig> = (0..inv_units).map(|_| rsa.random_qr(&mut r)).collect();
    let (naive_s, accel_s) = alternate(10, |accel| {
        for x in &units {
            std::hint::black_box(if accel {
                x.modinv(rsa.n()).expect("QR elements are units")
            } else {
                shs_bigint::gcd::ext_gcd(x, rsa.n()).1.mod_ubig(rsa.n())
            });
        }
    });
    metrics.push(Metric {
        name: "modinv_vs_ext_gcd",
        naive_s,
        accel_s,
        iters: 10 * inv_units,
        // Measured 4.7–7.5x at 512–1024 bits; a collapse below 2x means
        // the binary kernel has regressed toward the Euclid.
        floor: 2.0,
    });

    // --- k=16 batch verification vs sequential verify (KY) --------------
    let batch_k = 16usize;
    let batch_iters: u32 = if smoke { 8 } else { 5 };
    let (gm, keys) = shs_gsig::fixtures::group_with_members(4);
    let pk = gm.public_key();
    let mut br = rng("bench-hot-paths-batch");
    let batch_msgs: Vec<Vec<u8>> = (0..batch_k)
        .map(|i| format!("bench-batch-{i}").into_bytes())
        .collect();
    let batch_sigs: Vec<shs_gsig::ky::Signature> = batch_msgs
        .iter()
        .enumerate()
        .map(|(i, m)| {
            shs_gsig::ky::sign(
                pk,
                &keys[i % keys.len()],
                m,
                shs_gsig::ky::SignBasis::Random,
                &mut br,
            )
        })
        .collect();
    let items: Vec<(&[u8], &shs_gsig::ky::Signature)> = batch_msgs
        .iter()
        .map(Vec::as_slice)
        .zip(batch_sigs.iter())
        .collect();
    let (naive_s, accel_s) = alternate(batch_iters, |accel| {
        if accel {
            assert!(
                shs_gsig::ky::verify_batch(pk, &items, None).all_valid(),
                "bench batch verifies"
            );
        } else {
            for (m, sig) in &items {
                shs_gsig::ky::verify(pk, m, sig, None).expect("bench signature verifies");
            }
        }
    });
    metrics.push(Metric {
        name: "batch_verify_vs_sequential",
        naive_s,
        accel_s,
        iters: batch_iters,
        // Full runs measure a median of 2.6x at k = 16 on a 2-core shared
        // host, under the original >= 3x target: the squaring kernel
        // speeds up the sequential side, which squares more, more than
        // the batch. The CI smoke floor leaves headroom for noisy shared
        // runners.
        floor: 2.0,
    });

    // --- m=8 handshake: parallel vs sequential phase-III verification ---
    let m = 8;
    let mut hr = rng("bench-hot-paths-handshake");
    let (_, members) = group(SchemeKind::Scheme1, m, &mut hr);
    let acts: Vec<Actor<'_>> = members.iter().map(Actor::Member).collect();
    let (naive_s, accel_s) = alternate(handshake_runs, |parallel| {
        let opts = HandshakeOptions {
            parallel_verify: parallel,
            ..Default::default()
        };
        let result = shs_core::handshake::run_handshake(&acts, &opts, &mut hr)
            .expect("bench handshake completes");
        assert!(
            result.outcomes.iter().all(|o| o.accepted),
            "bench handshake must fully succeed"
        );
    });
    metrics.push(Metric {
        name: "handshake_parallel_vs_sequential",
        naive_s,
        accel_s,
        iters: handshake_runs,
        // Pure wall-clock metric: on a single-core runner the pool only
        // adds scheduling overhead, so allow slightly below parity.
        floor: 0.85,
    });

    // --- report ----------------------------------------------------------
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = render_json(&metrics, modulus_bits, smoke, workers);
    println!("{json}");
    let out_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hot_paths.json");
    if let Err(err) = std::fs::write(out_path, format!("{json}\n")) {
        eprintln!("bench_hot_paths: could not write {out_path}: {err}");
        std::process::exit(2);
    }

    if check {
        let mut failed = false;
        for m in &metrics {
            if m.speedup() < m.floor {
                eprintln!(
                    "bench_hot_paths: CHECK FAILED: {} speedup {:.2}x below floor {:.2}x",
                    m.name,
                    m.speedup(),
                    m.floor
                );
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
        eprintln!(
            "bench_hot_paths: all {} metrics at or above their floors",
            metrics.len()
        );
    }
}

/// Seconds for `passes` passes of the naive side (`side(false)`) and of
/// the accelerated side (`side(true)`), taken in turn so that drift in
/// the host's load lands on both. Each side counts as its median pass
/// times `passes`, so a burst of load during a few passes does not decide
/// a floor.
fn alternate(passes: u32, mut side: impl FnMut(bool)) -> (f64, f64) {
    let (mut naive, mut accel) = (Vec::new(), Vec::new());
    for _ in 0..passes {
        naive.push(timed(|| side(false)).0);
        accel.push(timed(|| side(true)).0);
    }
    let total = |mut xs: Vec<f64>| {
        xs.sort_by(f64::total_cmp);
        xs[xs.len() / 2] * f64::from(passes)
    };
    (total(naive), total(accel))
}

/// Hand-rolled JSON: the offline build has no serde_json.
fn render_json(metrics: &[Metric], modulus_bits: u32, smoke: bool, workers: usize) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"benchmark\": \"hot_paths\",\n");
    s.push_str(&format!("  \"smoke\": {smoke},\n"));
    s.push_str(&format!("  \"modulus_bits\": {modulus_bits},\n"));
    s.push_str(&format!("  \"available_parallelism\": {workers},\n"));
    s.push_str(&format!("  \"host\": {},\n", shs_bench::host_json(workers)));
    s.push_str("  \"metrics\": [\n");
    for (i, m) in metrics.iter().enumerate() {
        let comma = if i + 1 < metrics.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{ \"name\": \"{}\", \"iters\": {}, \"naive_s\": {:.6}, \
             \"accel_s\": {:.6}, \"speedup\": {:.3}, \"check_floor\": {:.2} }}{}\n",
            m.name,
            m.iters,
            m.naive_s,
            m.accel_s,
            m.speedup(),
            m.floor,
            comma
        ));
    }
    s.push_str("  ]\n");
    s.push('}');
    s
}
