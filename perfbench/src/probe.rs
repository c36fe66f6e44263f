//! Single-layer probes the traced run adds beside the workload: one
//! modexp per operand width, and GSIG sign / batch verify through
//! `Member::credential()`.

use crate::stats::{median, modexp_us, Metrics};
use shs_bigint::counters;
use shs_core::Member;
use shs_crypto::drbg::HmacDrbg;
use shs_gsig::crl::Crl;
use std::time::Instant;

/// `bigint.modexp_us.{256,512,768,1024}`.
pub fn bigint(out: &mut Metrics) {
    for (bits, reps) in [(256, 400), (512, 200), (768, 100), (1024, 60)] {
        out.put(
            &format!("bigint.modexp_us.{bits}"),
            modexp_us(bits, reps),
            "us",
        );
    }
}

/// `gsig.*`: `signer` signs, then batch-verifies one signature from each
/// of `others` (k = m - 1). Returns `false` if any signature is rejected.
pub fn gsig(out: &mut Metrics, signer: &Member, others: &[&Member], reps: usize) -> bool {
    let mut rng = HmacDrbg::from_seed(b"perfbench/gsig-probe");
    let cred = signer.credential();
    let mut sign_ms = Vec::new();
    let mut sign_modexp = 0;
    for i in 0..reps {
        let msg = format!("probe/{i}");
        let t = Instant::now();
        let (c, _) = counters::measure(|| cred.sign(msg.as_bytes(), None, &mut rng));
        sign_ms.push(t.elapsed().as_secs_f64() * 1e3);
        sign_modexp = c.modexp;
    }
    let msgs: Vec<String> = (0..others.len())
        .map(|j| format!("probe/batch/{j}"))
        .collect();
    let sigs: Vec<Vec<u8>> = others
        .iter()
        .zip(&msgs)
        .map(|(m, msg)| m.credential().sign(msg.as_bytes(), None, &mut rng).0)
        .collect();
    let items: Vec<(&[u8], &[u8])> = msgs
        .iter()
        .zip(&sigs)
        .map(|(m, s)| (m.as_bytes(), s.as_slice()))
        .collect();
    let crl = Crl::new();
    let mut verify_ms = Vec::new();
    let mut verify_modexp = 0;
    let mut all_valid = true;
    for _ in 0..reps {
        let t = Instant::now();
        let (c, verdicts) = counters::measure(|| cred.verify_batch(&items, None, &crl));
        verify_ms.push(t.elapsed().as_secs_f64() * 1e3);
        verify_modexp = c.modexp;
        all_valid &= verdicts.iter().all(Option::is_some);
    }
    out.put("gsig.sign_ms", median(&sign_ms), "ms");
    out.put("gsig.verify_batch_ms", median(&verify_ms), "ms");
    out.put("gsig.sign_modexp", sign_modexp as f64, "count");
    out.put("gsig.verify_batch_modexp", verify_modexp as f64, "count");
    all_valid
}
