//! The paper's deterministic claims, held to their closed forms (E1–E14
//! of EXPERIMENTS.md).
//!
//! Every table here comes from the same `shs_bench::paper` function the
//! `paper_tables` binary prints, run at smaller sweeps, so the printed
//! tables and these checks cannot drift apart. Each test also renders
//! its tables through the one formatter.
//!
//! Left out on purpose:
//! - Wall-clock columns.
//! - The outcomes of E6, E7, E8, E10, E12 and E14. `partial_success`,
//!   `attacks`, `tracing`, `model_agnostic`, `cgkd_backend` and
//!   `instantiation_matrix` assert them; here those sections are only
//!   rendered.
//! - E13's completion rates: seeded samples, not claims.

use shs_bench::paper;
use shs_bench::table::{Cell, Table};
use shs_core::codec;
use shs_core::config::DgkaChoice;
use shs_core::SchemeKind;
use shs_gsig::params::{GsigParams, GsigPreset};

/// Renders `table` and hands it back for its assertions.
fn rendered(table: Table) -> Table {
    let text = table.render();
    assert!(text.contains(&table.title) && text.contains(table.claim));
    table
}

fn log2(n: u64) -> u64 {
    assert!(n.is_power_of_two());
    u64::from(n.trailing_zeros())
}

#[test]
fn e1_e2_every_party_pays_linear_exponentiations_and_messages() {
    let sweep = [2usize, 3, 4, 8, 16];
    // (scheme, modexps per party = a·m + b + v·(m − 1)·r, bytes sent per
    // party); v = 1 under verifier-local revocation, where every party
    // scans the CRL once per co-member's signature, and 0 under
    // registry-only revocation.
    for (scheme, a, b, v, bytes) in [
        (SchemeKind::Scheme1, 14, 19, 1, 1287),
        (SchemeKind::Scheme2SelfDistinct, 14, 18, 1, 1287),
        (SchemeKind::Scheme1Classic, 8, 17, 0, 1044),
    ] {
        for r in [0u64, 8] {
            let t = rendered(paper::handshake_costs(
                scheme,
                DgkaChoice::BurmesterDesmedt,
                r as usize,
                &sweep,
            ));
            let ms: Vec<u64> = sweep.iter().map(|&m| m as u64).collect();
            assert_eq!(t.ints("m"), ms);
            assert_eq!(t.ints("r"), vec![r; sweep.len()]);
            // `ints` fails on a per-slot column whose slots disagree, so
            // each count below holds for every slot.
            assert_eq!(
                t.ints("exp/party"),
                ms.iter()
                    .map(|m| a * m + b + v * (m - 1) * r)
                    .collect::<Vec<_>>(),
                "{scheme:?}, r = {r}"
            );
            assert_eq!(t.ints("msgs sent"), vec![4; sweep.len()], "{scheme:?}");
            assert_eq!(
                t.ints("msgs rcvd"),
                ms.iter().map(|m| 4 * (m - 1)).collect::<Vec<_>>(),
                "{scheme:?}"
            );
            assert_eq!(t.ints("bytes sent"), vec![bytes; sweep.len()], "{scheme:?}");
            assert_eq!(t.ints("dgka rounds"), vec![2; sweep.len()], "{scheme:?}");
        }
    }
}

#[test]
fn e3_bd_runs_in_two_rounds_and_gdh_in_m() {
    let sweep = [2usize, 3, 4, 8];
    let t = rendered(paper::dgka_comparison(&sweep));
    let ms: Vec<u64> = sweep.iter().map(|&m| m as u64).collect();
    let bd: Vec<Cell> = ms.iter().map(|m| Cell::Real((m + 2) as f64, 1)).collect();
    assert_eq!(t.column("bd exp/pty"), bd, "BD: total modexps / m = m + 2");
    assert_eq!(t.ints("bd rounds"), vec![2; sweep.len()]);
    assert_eq!(
        t.ints("gdh max/pty"),
        ms,
        "GDH.2: the last party in the chain pays m"
    );
    assert_eq!(t.ints("gdh rounds"), ms);
}

#[test]
fn e4_rekey_items_and_sd_covers_match_their_bounds() {
    let sizes = [16u32, 64, 256];
    let t = rendered(paper::cgkd_rekey(&sizes));
    let ns: Vec<u64> = sizes.iter().map(|&n| u64::from(n)).collect();
    let lkh: Vec<u64> = ns.iter().map(|&n| 2 * log2(n) - 1).collect();
    let star: Vec<u64> = ns.iter().map(|n| n - 1).collect();
    assert_eq!(t.ints("lkh items"), lkh);
    assert_eq!(t.ints("star items"), star);
    assert_eq!(
        t.ints("sd items"),
        vec![1; sizes.len()],
        "nothing revoked yet"
    );
    for scheme in ["lkh", "star", "sd"] {
        let items = t.ints(&format!("{scheme} items"));
        let bytes = t.ints(&format!("{scheme} bytes"));
        assert!(
            items.iter().zip(&bytes).all(|(i, b)| *b == 84 * i),
            "{scheme}: 84 bytes per item"
        );
    }
    let labels: Vec<u64> = ns.iter().map(|&n| log2(n) * (log2(n) + 1) / 2).collect();
    assert_eq!(
        t.ints("sd labels"),
        labels,
        "L(L + 1)/2 labels per member, L = log2 n"
    );

    let revocations = [1usize, 2, 4, 8, 16, 32, 64, 128];
    let cover = rendered(paper::sd_cover(1024, &revocations));
    let sizes = cover.ints("cover size");
    assert_eq!(sizes, [1, 3, 5, 9, 17, 36, 74, 144]);
    let bounds = cover.ints("bound 2r-1");
    assert_eq!(bounds, revocations.map(|r| 2 * r as u64 - 1));
    assert!(sizes.iter().zip(&bounds).all(|(c, b)| c <= b));
}

#[test]
fn e5_sign_and_verify_exponentiations_per_scheme() {
    let t = rendered(paper::gsig_costs(&[GsigPreset::Test]));
    let schemes: Vec<Cell> = SchemeKind::ALL
        .iter()
        .map(|s| format!("{s:?}").into())
        .collect();
    assert_eq!(t.column("scheme"), schemes);
    // KY, KY on the common basis, ACJT
    assert_eq!(t.ints("sign exp"), [19, 18, 12]);
    assert_eq!(t.ints("verify exp"), [16, 16, 11]);
    let params = GsigParams::preset(GsigPreset::Test);
    let (ky, acjt) = (
        codec::ky_sig_len(&params) as u64,
        codec::acjt_sig_len(&params) as u64,
    );
    assert_eq!(t.ints("sig bytes"), [ky, ky, acjt]);
}

#[test]
fn e9_vlr_verification_costs_one_exponentiation_per_token() {
    let crl = [0usize, 1, 4, 16];
    let t = rendered(paper::vlr_cost(&crl));
    assert_eq!(
        t.ints("verify exp"),
        crl.iter().map(|&r| 16 + r as u64).collect::<Vec<_>>()
    );
}

#[test]
fn e11_authenticated_bd_costs_and_dgka_rounds() {
    let sweep = [2usize, 4, 8];
    let ms: Vec<u64> = sweep.iter().map(|&m| m as u64).collect();
    let gdh = rendered(paper::handshake_costs(
        SchemeKind::Scheme1,
        DgkaChoice::Gdh2,
        0,
        &sweep,
    ));
    assert_eq!(gdh.ints("dgka rounds"), ms);
    let ake = DgkaChoice::AuthenticatedBd;
    let ake = rendered(paper::handshake_costs(SchemeKind::Scheme1, ake, 0, &sweep));
    assert_eq!(ake.ints("dgka rounds"), vec![4; sweep.len()]);
    let per_party: Vec<u64> = ms.iter().map(|m| 20 * m + 23).collect();
    assert_eq!(
        ake.ints("exp/party"),
        per_party,
        "authenticated BD: 20m + 23"
    );
}

#[test]
fn remaining_sections_render() {
    for table in [
        paper::partial_success(&["AABBB"]),
        paper::attacks(),
        paper::trace(&[2]),
        paper::accumulator_cost(&[8]),
        paper::cgkd_ablation(4),
        paper::fault_tolerance(1, &[0.0, 0.5]),
        paper::instantiation_matrix(2),
    ] {
        rendered(table);
    }
}
