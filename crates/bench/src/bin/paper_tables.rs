//! **The paper's tables** (EXPERIMENTS.md E1–E14): prints the named
//! sections, or all of them, each table under the one-line paper claim
//! it reproduces.
//!
//! ```sh
//! cargo run --release -p shs-bench --bin paper_tables [-- [SECTION...] [--paper]]
//! ```
//!
//! Sections: `e1` (E1/E2), `e3`, `e4`, `e5`, `e6`, `e7`, `e8`, `e9`,
//! `e11` (E11/E12/E14) and `e13`; a covered id such as `e2` or `e14`
//! selects its section. `--paper` adds the 2048-bit `Paper` preset to
//! `e5` in place of `Small` (slow: fresh safe-prime generation).

use shs_bench::paper;
use shs_bench::table::Table;
use shs_core::config::DgkaChoice;
use shs_core::SchemeKind;
use shs_gsig::params::GsigPreset;

/// A section: the ids that select it, then its tables at full size
/// (the flag is `--paper`).
type Section = (&'static [&'static str], fn(bool) -> Vec<Table>);

const SECTIONS: [Section; 10] = [
    (&["e1", "e2"], |_| {
        let sweep = [2, 3, 4, 6, 8, 12, 16];
        let bd = DgkaChoice::BurmesterDesmedt;
        SchemeKind::ALL
            .iter()
            .flat_map(|&s| [0, 8].map(|revoked| paper::handshake_costs(s, bd, revoked, &sweep)))
            .collect()
    }),
    (&["e3"], |_| {
        vec![paper::dgka_comparison(&[2, 3, 4, 6, 8, 12, 16, 24, 32])]
    }),
    (&["e4"], |_| {
        vec![
            paper::cgkd_rekey(&[16, 64, 256, 1024, 4096]),
            paper::sd_cover(1024, &[1, 2, 4, 8, 16, 32, 64, 128]),
        ]
    }),
    (&["e5"], |paper| {
        let extra = if paper {
            GsigPreset::Paper
        } else {
            GsigPreset::Small
        };
        vec![paper::gsig_costs(&[GsigPreset::Test, extra])]
    }),
    (&["e6"], |_| {
        vec![paper::partial_success(&[
            "AAAAA", "AABBB", "ABABA", "AABBC", "ABCAB", "ABCBC",
        ])]
    }),
    (&["e7"], |_| vec![paper::attacks()]),
    (&["e8"], |_| vec![paper::trace(&[2, 4, 8, 12])]),
    (&["e9"], |_| {
        vec![
            paper::vlr_cost(&[0, 4, 16, 64, 256]),
            paper::accumulator_cost(&[8, 32, 128]),
        ]
    }),
    (&["e11", "e12", "e14"], |_| {
        let mut tables: Vec<Table> = DgkaChoice::ALL
            .map(|d| paper::handshake_costs(SchemeKind::Scheme1, d, 0, &[2, 4, 8]))
            .into();
        tables.extend([paper::cgkd_ablation(8), paper::instantiation_matrix(3)]);
        tables
    }),
    (&["e13"], |_| {
        vec![paper::fault_tolerance(25, &[0.0, 0.05, 0.1, 0.2, 0.3, 0.5])]
    }),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).filter(|a| a != "--").collect();
    let paper_preset = args.iter().any(|a| a == "--paper");
    let wanted: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| *a != "--paper")
        .collect();
    if let Some(bad) = wanted
        .iter()
        .find(|w| !SECTIONS.iter().any(|(ids, _)| ids.contains(w)))
    {
        eprintln!("paper_tables: unknown section `{bad}` (use e1, e3, e4, e5, e6, e7, e8, e9, e11, e13 or --paper)");
        std::process::exit(2);
    }
    for (ids, run) in SECTIONS {
        if wanted.is_empty() || ids.iter().any(|id| wanted.contains(id)) {
            for table in run(paper_preset) {
                println!("{}", table.render());
            }
        }
    }
}
