//! The paper's experiments, one function per table.
//!
//! Each function runs one experiment (EXPERIMENTS.md E1–E14) over the
//! sweep it is given and returns its table. The `paper_tables` binary
//! passes the full sweeps and prints the result; `tests/paper_claims.rs`
//! passes small ones and holds the exact columns to their closed forms,
//! so what is printed and what is checked come from the same code.

use crate::table::{Cell, Table};
use crate::{group, mean, rng, timed};
use shs_bigint::{counters, Ubig};
use shs_cgkd::{
    lkh::LkhController, sd::SdController, star::StarController, BroadcastStats, Controller, Joined,
};
use shs_core::config::{CgkdChoice, DgkaChoice};
use shs_core::factory;
use shs_core::fixtures::{group_with_config, group_with_revoked};
use shs_core::handshake::{run_handshake, run_handshake_with_net};
use shs_core::{
    Actor, GroupConfig, HandshakeOptions, Member, SchemeKind, SessionResult, SlotCosts,
};
use shs_crypto::drbg::HmacDrbg;
use shs_crypto::{ct, hmac};
use shs_groups::rsa::RsaGroup;
use shs_groups::schnorr::{SchnorrGroup, SchnorrPreset};
use shs_gsig::accumulator::{Accumulator, Witness};
use shs_gsig::crl::Crl;
use shs_gsig::params::{GsigParams, GsigPreset};
use shs_gsig::{fixtures, ky};
use shs_net::fault::{FaultPlan, FaultRule};
use shs_net::observe::TrafficLog;
use shs_net::sync::BroadcastNet;
use shs_net::DeliveryPolicy;
use std::collections::BTreeSet;

/// Distinct DGKA round labels in a traffic log.
fn dgka_rounds(log: &TrafficLog) -> usize {
    let labels: BTreeSet<&str> = log
        .records()
        .iter()
        .map(|rec| rec.round.as_str())
        .filter(|round| round.starts_with("dgka"))
        .collect();
    labels.len()
}

/// Messages each slot received: the log's records from other senders.
fn received(log: &TrafficLog, m: usize) -> Vec<u64> {
    (0..m)
        .map(|i| {
            log.records()
                .iter()
                .filter(|rec| rec.from_slot != i)
                .count() as u64
        })
        .collect()
}

/// One lockstep handshake among `members`, in slot order.
fn handshake<'a>(
    members: impl IntoIterator<Item = &'a Member>,
    opts: &HandshakeOptions,
    r: &mut HmacDrbg,
) -> SessionResult {
    let actors: Vec<Actor<'_>> = members.into_iter().map(Actor::Member).collect();
    run_handshake(&actors, opts, r).expect("a lockstep handshake returns a result")
}

fn all_accepted(result: &SessionResult) -> bool {
    result.outcomes.iter().all(|o| o.accepted)
}

/// **E1/E2, E11**: per-party cost of a clean lockstep handshake under
/// `scheme` with `dgka` as Phase I, after `revoked` members have left
/// the group, one row per session size in `sweep`. Under verifier-local
/// revocation (Schemes 1 and 2) every party scans the CRL once per
/// co-member's signature, (m − 1)·r exponentiations on top.
pub fn handshake_costs(
    scheme: SchemeKind,
    dgka: DgkaChoice,
    revoked: usize,
    sweep: &[usize],
) -> Table {
    let mut table = Table::new(
        format!("E1/E2, E11: {scheme:?} over {dgka:?}, r = {revoked} revoked, per-party handshake cost vs m"),
        "each party computes O(m) modular exponentiations, plus (m - 1)r for a CRL of r tokens under VLR (§3), and sends and receives O(m) messages (§8.1, §8.2), under any DGKA (§6)",
        &["m", "r", "exp/party", "exp/m", "msgs sent", "msgs rcvd", "bytes sent", "dgka rounds"],
        &["wall s"],
    );
    let mut r = rng("table-e1");
    let size = sweep.iter().copied().max().unwrap_or(0);
    let (_, members) = group_with_revoked(scheme, size, revoked, &mut r).expect("bench fixture");
    let opts = HandshakeOptions::with_dgka(dgka);
    for &m in sweep {
        let (secs, result) = timed(|| handshake(&members[..m], &opts, &mut r));
        assert!(all_accepted(&result), "{scheme:?} over {dgka:?}, m = {m}");
        let per_slot =
            |f: fn(&SlotCosts) -> u64| -> Vec<u64> { result.costs.iter().map(f).collect() };
        let exps = per_slot(|c| c.modexp);
        table.push(
            vec![
                m.into(),
                revoked.into(),
                Cell::per_slot(&exps),
                Cell::Real(mean(&exps) / m as f64, 2),
                Cell::per_slot(&per_slot(|c| c.messages_sent)),
                Cell::per_slot(&received(&result.traffic, m)),
                Cell::per_slot(&per_slot(|c| c.bytes_sent)),
                dgka_rounds(&result.traffic).into(),
            ],
            vec![Cell::secs(secs)],
        );
    }
    table
}

/// **E3**: Burmester–Desmedt against GDH.2, each run alone through its
/// Phase-I state machines over a lockstep broadcast medium.
pub fn dgka_comparison(sweep: &[usize]) -> Table {
    let mut table = Table::new(
        "E3: Burmester-Desmedt vs GDH.2 (Steiner-Tsudik-Waidner)",
        "BD costs each party a constant number of exponentiations in 2 rounds; GDH needs m rounds (App. D)",
        &["m", "bd exp/pty", "bd rounds", "gdh exp/pty", "gdh max/pty", "gdh rounds"],
        &["bd wall s", "gdh wall s"],
    );
    let mut r = rng("table-e3");
    for &m in sweep {
        let (bd_s, (bd, bd_rounds)) = timed(|| dgka_alone(DgkaChoice::BurmesterDesmedt, m, &mut r));
        let (gdh_s, (gdh, gdh_rounds)) = timed(|| dgka_alone(DgkaChoice::Gdh2, m, &mut r));
        table.push(
            vec![
                m.into(),
                Cell::Real(mean(&bd), 1),
                bd_rounds.into(),
                Cell::Real(mean(&gdh), 1),
                gdh.iter().copied().max().unwrap_or(0).into(),
                gdh_rounds.into(),
            ],
            vec![Cell::secs(bd_s), Cell::secs(gdh_s)],
        );
    }
    table
}

/// Runs one DGKA without the rest of the handshake; returns each
/// party's modexp count and the number of rounds on the wire.
fn dgka_alone(choice: DgkaChoice, m: usize, r: &mut HmacDrbg) -> (Vec<u64>, usize) {
    let group = SchnorrGroup::system_wide(SchnorrPreset::Test);
    let mut slots = factory::dgka_slots(choice, group, m, r).expect("m >= 2");
    let mut net = BroadcastNet::new(m, DeliveryPolicy::Synchronous);
    let mut exps = vec![0u64; m];
    for t in 0..slots[0].rounds() {
        let mut outgoing = Vec::with_capacity(m);
        for (slot, exp) in slots.iter_mut().zip(&mut exps) {
            let (c, payload) = counters::measure(|| slot.emit(t, r));
            *exp += c.modexp;
            outgoing.push(payload);
        }
        let label = slots[0].round_label(t);
        let inboxes = net
            .exchange(&label, outgoing)
            .expect("one payload per slot");
        for ((slot, exp), inbox) in slots.iter_mut().zip(&mut exps).zip(inboxes) {
            let mut view = vec![None; m];
            for rec in inbox {
                view[rec.from_slot] = Some(rec.payload);
            }
            *exp += counters::measure(|| slot.absorb(t, &view, None, r))
                .0
                .modexp;
        }
    }
    let mut keys = Vec::with_capacity(m);
    for (slot, exp) in slots.iter_mut().zip(&mut exps) {
        let (c, (out, abort)) = counters::measure(|| slot.finish(r));
        *exp += c.modexp;
        assert!(
            abort.is_none(),
            "{choice:?}, m = {m}: an honest run aborted"
        );
        keys.push(out.k_star);
    }
    assert!(
        keys.iter().all(|k| *k == keys[0]),
        "{choice:?}, m = {m}: keys differ"
    );
    (exps, dgka_rounds(net.traffic()))
}

/// **E4**: the rekey broadcast after one LEAVE from a full group of each
/// size in `sizes`, for LKH, star and Subset-Difference.
pub fn cgkd_rekey(sizes: &[u32]) -> Table {
    let mut table = Table::new(
        "E4: rekey broadcast per LEAVE at group size n",
        "tree rekeying costs O(log n) per membership change against the flat scheme's O(n) (§3, §5)",
        &["n", "lkh items", "lkh bytes", "star items", "star bytes", "sd items", "sd bytes", "sd labels"],
        &[],
    );
    let mut r = rng("table-e4");
    for &n in sizes {
        let lkh = LkhController::new(n, &mut r);
        let star = StarController::new(n, &mut r);
        let sd = SdController::new(n, &mut r);
        let (_, l) = leave_from_full(lkh, n, &mut r);
        let (_, s) = leave_from_full(star, n, &mut r);
        let (welcomes, d) = leave_from_full(sd, n, &mut r);
        let sd_labels = welcomes[(n / 2) as usize].1.labels.len();
        let mut cells = vec![Cell::from(n as u64)];
        for stats in [l, s, d] {
            cells.extend([stats.items.into(), stats.bytes.into()]);
        }
        cells.push(sd_labels.into());
        table.push(cells, vec![]);
    }
    table
}

/// Fills `gc` with `n` members in one window, then removes the middle
/// one in a one-leave window. Returns the joiners' welcomes and the
/// size of the leave broadcast.
fn leave_from_full<C: Controller>(
    mut gc: C,
    n: u32,
    r: &mut HmacDrbg,
) -> (Joined<C::Welcome>, BroadcastStats) {
    let (welcomes, _) = gc.apply_epoch(n as usize, &[], r).expect("capacity n");
    let victim = welcomes[(n / 2) as usize].0;
    let (_, leave) = gc.apply_epoch(0, &[victim], r).expect("member");
    (welcomes, C::stats(&leave))
}

/// **E4**: the Subset-Difference cover of an `n`-member group after each
/// count of scattered revocations in `revocations` (ascending).
pub fn sd_cover(n: u32, revocations: &[usize]) -> Table {
    let mut table = Table::new(
        format!("E4: SD cover size vs revocations (n = {n})"),
        "a Subset-Difference cover of r revoked members has at most 2r - 1 subsets (§5, NNL)",
        &["revoked r", "cover size", "bound 2r-1"],
        &[],
    );
    let mut r = rng("table-e4");
    let mut sd = SdController::new(n, &mut r);
    let (welcomes, _) = sd.apply_epoch(n as usize, &[], &mut r).expect("capacity n");
    let mut alive: Vec<_> = welcomes.into_iter().map(|(id, _)| id).collect();
    let mut revoked = 0usize;
    for &target in revocations {
        while revoked < target {
            let victim = alive.swap_remove((revoked * 37 + 11) % alive.len());
            sd.apply_epoch(0, &[victim], &mut r).expect("member");
            revoked += 1;
        }
        table.push(
            vec![
                revoked.into(),
                sd.cover_size().into(),
                (2 * revoked - 1).into(),
            ],
            vec![],
        );
    }
    table
}

/// **E5**: sign, verify and open under each scheme at each preset in
/// `presets`, through the same GSIG substrate the handshake uses.
pub fn gsig_costs(presets: &[GsigPreset]) -> Table {
    let mut table = Table::new(
        "E5: group-signature cost per operation",
        "group signatures dominate; Phase III verifies m - 1 of them, the O(m) of E1/E2 (§4, §8)",
        &["scheme", "preset", "sign exp", "verify exp", "sig bytes"],
        &["sign s", "verify s", "open s"],
    );
    for &preset in presets {
        let params = GsigParams::preset(preset);
        let (rsa, secret) = match preset {
            GsigPreset::Test => fixtures::test_rsa_setting().clone(),
            _ => RsaGroup::generate_deterministic(
                params.modulus_bits,
                format!("bench-rsa-{preset:?}").as_bytes(),
            ),
        };
        for scheme in SchemeKind::ALL {
            let mut r = rng("table-e5");
            let mut gm =
                factory::gsig_authority(scheme, params, rsa.clone(), secret.clone(), &mut r);
            let key = gm.admit(&mut r).expect("admit");
            let msg = b"bench message";
            let basis = scheme.self_distinct().then_some(b"session".as_slice());
            let (sign_c, (sign_s, (sig, _))) =
                counters::measure(|| timed(|| key.sign(msg, basis, &mut r)));
            let t7 = basis.and_then(|b| key.common_t7(b));
            let (verify_c, (verify_s, verdict)) =
                counters::measure(|| timed(|| key.verify(msg, &sig, t7.as_ref(), &Crl::new())));
            assert!(
                verdict.is_some(),
                "{scheme:?} at {preset:?}: signature rejected"
            );
            let (open_s, opened) = timed(|| gm.open(msg, &sig));
            assert_eq!(
                opened.ok(),
                Some(key.id()),
                "{scheme:?} at {preset:?}: open"
            );
            table.push(
                vec![
                    format!("{scheme:?}").into(),
                    format!("{preset:?}").into(),
                    sign_c.modexp.into(),
                    verify_c.modexp.into(),
                    sig.len().into(),
                ],
                vec![Cell::secs(sign_s), Cell::secs(verify_s), Cell::secs(open_s)],
            );
        }
    }
    table
}

/// **E6**: one session per composition, a string over `A`, `B`, `C`
/// naming each slot's group; one row per slot.
pub fn partial_success(compositions: &[&str]) -> Table {
    let mut table = Table::new(
        "E6: partially-successful handshakes",
        "with 2 parties of group A and 3 of group B, each sub-group completes and learns its size (§7)",
        &["composition", "slot", "group", "Δ", "|Δ|", "outcome"],
        &[],
    );
    let mut r = rng("fig-e6");
    let longest = compositions.iter().map(|c| c.len()).max().unwrap_or(0);
    let pools: Vec<_> = (0..3)
        .map(|_| group(SchemeKind::Scheme1, longest, &mut r).1)
        .collect();
    for comp in compositions {
        let mut used = [0usize; 3];
        let slots = comp.bytes().map(|b| {
            let g = usize::from(b - b'A');
            used[g] += 1;
            &pools[g][used[g] - 1]
        });
        let result = handshake(slots, &HandshakeOptions::default(), &mut r);
        for o in &result.outcomes {
            let outcome = match (o.accepted, o.partial_accepted()) {
                (true, _) => "full handshake",
                (false, true) => "partial handshake",
                (false, false) => "no handshake",
            };
            table.push(
                vec![
                    (*comp).into(),
                    o.slot.into(),
                    comp[o.slot..=o.slot].into(),
                    format!("{:?}", o.same_group_slots).into(),
                    o.same_group_slots.len().into(),
                    outcome.into(),
                ],
                vec![],
            );
        }
    }
    table
}

/// **E7**: the three §3 design-space attacks, each against the naive
/// design and against GCD.
pub fn attacks() -> Table {
    let mut table = Table::new(
        "E7: the §3 design-space attacks, run live",
        "GCD resists what the naive designs admit: both revocation components and self-distinction are needed (§3, §1.1)",
        &["attack", "design", "succeeds", "flagged slots"],
        &[],
    );
    let mut row = |attack: &str, design: &str, succeeds: bool, flagged: String| {
        table.push(
            vec![
                attack.into(),
                design.into(),
                succeeds.into(),
                flagged.into(),
            ],
            vec![],
        );
    };
    let opts = HandshakeOptions::default();

    // (a) An insider who sat out a session holds the long-lived group
    // key; it recognises a MAC under that key, not one under k' = k* ⊕ k.
    let mut r = rng("fig-e7a");
    let (_, members) = group(SchemeKind::Scheme1, 3, &mut r);
    let nonce = b"naive-session";
    let insider_tag = hmac::mac(members[2].group_key().as_bytes(), nonce);
    let naive_tag = hmac::mac(members[0].group_key().as_bytes(), nonce);
    let result = handshake(&members[..2], &opts, &mut r);
    let observed = result
        .traffic
        .records()
        .iter()
        .find(|rec| rec.round == "phase2-mac");
    let observed = &observed.expect("a Phase-II record").payload;
    let insider = "(a) passive insider detects the handshake";
    row(
        insider,
        "CGKD-only MAC",
        ct::eq(&naive_tag, &insider_tag),
        "-".into(),
    );
    row(insider, "GCD", ct::eq(observed, &insider_tag), "-".into());

    // (b) A revoked member adopts an accomplice's fresh group key.
    for (scheme, design) in [
        (SchemeKind::Scheme1Classic, "ACJT, no GSIG revocation"),
        (SchemeKind::Scheme1, "KY, verifier-local revocation"),
    ] {
        let mut r = rng("fig-e7b");
        let (mut ga, mut members) = group(scheme, 3, &mut r);
        let mut victim = members.pop().expect("3 members");
        let update = ga.remove(victim.id(), &mut r).expect("member");
        for member in &mut members {
            member.apply_update(&update).expect("fresh update");
        }
        victim.adopt_leaked_key(members[1].leak_group_key(), members[1].epoch());
        let result = handshake([&members[0], &members[1], &victim], &opts, &mut r);
        let attack = "(b) revoked member with a leaked key fools an honest one";
        row(attack, design, result.outcomes[0].accepted, "-".into());
    }

    // (c) One insider plays two of three slots.
    for scheme in [SchemeKind::Scheme1, SchemeKind::Scheme2SelfDistinct] {
        let mut r = rng("fig-e7c");
        let (_, members) = group(scheme, 2, &mut r);
        let result = handshake([&members[0], &members[1], &members[0]], &opts, &mut r);
        let honest = &result.outcomes[1];
        let attack = "(c) honest member accepts 3 'distinct' peers";
        let flagged = format!("{:?}", honest.duplicate_slots);
        row(attack, &format!("{scheme:?}"), honest.accepted, flagged);
    }
    table
}

/// **E8**: `GCD.TraceUser` over one accepted session of each size in
/// `sweep`.
pub fn trace(sweep: &[usize]) -> Table {
    let mut table = Table::new(
        "E8: GCD.TraceUser vs participants",
        "the group authority traces every participant of a successful handshake (Fig. 2)",
        &["m", "traced"],
        &["trace s", "s/slot"],
    );
    let mut r = rng("table-e8");
    let n = sweep.iter().copied().max().unwrap_or(0);
    let (ga, members) = group(SchemeKind::Scheme1, n, &mut r);
    for &m in sweep {
        let result = handshake(&members[..m], &HandshakeOptions::default(), &mut r);
        assert!(all_accepted(&result), "m = {m}");
        let (secs, traced) = timed(|| ga.trace(&result.transcript));
        let ok = traced.iter().filter(|t| t.result.is_ok()).count();
        table.push(
            vec![m.into(), format!("{ok}/{m}").into()],
            vec![Cell::secs(secs), Cell::secs(secs / m as f64)],
        );
    }
    table
}

/// **E9**: one KY verification against each CRL size in `crl_sizes`
/// (ascending; tokens of members that never signed), through the same
/// revocation scan the handshake runs.
pub fn vlr_cost(crl_sizes: &[usize]) -> Table {
    let mut table = Table::new(
        "E9: VLR signature verification vs CRL size",
        "GSIG revocation is 'quite expensive' (§3); VLR charges one exponentiation per CRL token at verification",
        &["crl size", "verify exp"],
        &["verify s", "vs empty"],
    );
    let mut r = rng("table-e9-vlr");
    let (gm, keys) = fixtures::group_with_members(1);
    let pk = gm.public_key();
    let sig = ky::sign(pk, &keys[0], b"m", ky::SignBasis::Random, &mut r);
    let params = GsigParams::preset(GsigPreset::Test);
    let mut crl = Crl::new();
    let mut empty_s = None;
    for &size in crl_sizes {
        while crl.len() < size {
            crl.push(ky::RevocationToken {
                id: ky::MemberId(1000 + crl.len() as u64),
                x: params.sample_lambda(&mut r),
            });
        }
        let (c, (secs, verdict)) =
            counters::measure(|| timed(|| ky::verify_with_crl(pk, b"m", &sig, None, &crl)));
        assert!(verdict.is_ok(), "crl size {size}: signature rejected");
        let base = *empty_s.get_or_insert(secs);
        table.push(
            vec![size.into(), c.modexp.into()],
            vec![Cell::secs(secs), Cell::Real(secs / base, 1)],
        );
    }
    table
}

/// **E9**: CL dynamic-accumulator witness maintenance for each group
/// size in `sizes`: the last join's update wave, one removal's wave, and
/// one witness check.
pub fn accumulator_cost(sizes: &[usize]) -> Table {
    let mut table = Table::new(
        "E9: CL dynamic accumulator, witness maintenance under churn",
        "accumulator revocation makes every member update its witness on every membership change (§3)",
        &["members"],
        &["add: wit-upd s", "remove: wit-upd s", "verify s"],
    );
    let (group, secret) = fixtures::test_rsa_setting();
    let mut r = rng("table-e9-acc");
    for &n in sizes {
        let mut acc = Accumulator::new(group, &mut r);
        // Small primes stand in for the certificate primes (same algebra).
        let primes: Vec<Ubig> = (65537u64..)
            .step_by(2)
            .map(Ubig::from_u64)
            .filter(|c| shs_bigint::prime::is_prime(c, &mut r))
            .take(n)
            .collect();
        let mut witnesses: Vec<Witness> = Vec::new();
        let mut add_s = 0.0;
        for p in &primes {
            let (w, ev) = acc.add(group, p).expect("fresh prime");
            add_s = timed(|| {
                for old in &mut witnesses {
                    old.apply(group, &ev).expect("witness update");
                }
            })
            .0;
            witnesses.push(w);
        }
        let ev = acc.remove(group, secret, &primes[n / 2]).expect("member");
        let (remove_s, _) = timed(|| {
            for (i, w) in witnesses.iter_mut().enumerate() {
                if i != n / 2 {
                    w.apply(group, &ev).expect("witness update");
                }
            }
        });
        let (verify_s, ok) = timed(|| acc.verify(group, &witnesses[0]));
        assert!(ok, "n = {n}: witness rejected");
        table.push(
            vec![n.into()],
            vec![
                Cell::secs(add_s),
                Cell::secs(remove_s),
                Cell::Real(verify_s, 5),
            ],
        );
    }
    table
}

/// **E12**: a group authority of `n` members on each CGKD backend: one
/// removal, a handshake, and a member that skips an update.
pub fn cgkd_ablation(n: usize) -> Table {
    let mut table = Table::new(
        "E12: group authority with swapped CGKD backend",
        "any CGKD fits the compiler; only SD receivers may skip updates (§5)",
        &["backend", "members", "hs ok", "stateless?"],
        &["admit s", "remove s"],
    );
    let mut r = rng("table-e12");
    for backend in CgkdChoice::ALL {
        let config = GroupConfig::test_with_cgkd(SchemeKind::Scheme1, backend);
        let (admit_s, (mut ga, mut members)) =
            timed(|| group_with_config(config, n, &mut r).expect("group"));
        let victim = members.pop().expect("n >= 3");
        let (remove_s, update) = timed(|| ga.remove(victim.id(), &mut r).expect("member"));
        for member in &mut members {
            member.apply_update(&update).expect("fresh update");
        }
        let result = handshake(members.iter().take(4), &HandshakeOptions::default(), &mut r);
        // A sleeper that misses one admission receives only the next.
        ga.admit(&mut r).expect("capacity");
        let (_, next) = ga.admit(&mut r).expect("capacity");
        let stateless = members[0].apply_update(&next).is_ok();
        table.push(
            vec![
                format!("{backend:?}").into(),
                n.into(),
                all_accepted(&result).into(),
                stateless.into(),
            ],
            vec![Cell::secs(admit_s), Cell::secs(remove_s)],
        );
    }
    table
}

/// **E13**: `trials` 3-party sessions per drop and per corruption rate
/// in `rates`, over a faulty lockstep medium. Seeded samples, not
/// claims: the rates describe this seed set.
pub fn fault_tolerance(trials: u32, rates: &[f64]) -> Table {
    const SLOTS: usize = 3;
    let opts = HandshakeOptions::default();
    let mut table = Table::new(
        format!(
            "E13: completion under random faults ({SLOTS} parties, {trials} trials per point, \
             budget {} exchanges, {} retries per round)",
            opts.budget.max_exchanges, opts.budget.retries_per_round
        ),
        "beyond the paper, which assumes guaranteed delivery (§1.1): every run ends in a structured outcome",
        &["fault", "rate", "completion", "mean retries", "mean exchanges", "aborted slots", "budget hit"],
        &[],
    );
    let mut r = rng("fig-fault-tolerance");
    let (_, members) = group(SchemeKind::Scheme1, SLOTS, &mut r);
    let actors: Vec<Actor<'_>> = members.iter().map(Actor::Member).collect();
    for (fault, rule) in [
        ("drop", FaultRule::drop()),
        ("corrupt", FaultRule::corrupt(2)),
    ] {
        for &rate in rates {
            let (mut completed, mut aborted, mut retries, mut exchanges, mut exhausted) =
                (0u32, 0usize, 0u32, 0u32, 0u32);
            for trial in 0..trials {
                let seed = 1000 * (rate * 100.0) as u64 + u64::from(trial);
                let mut net = BroadcastNet::new(SLOTS, DeliveryPolicy::Synchronous);
                net.set_fault_plan(FaultPlan::new(seed).with(rule.clone().with_probability(rate)));
                let result = run_handshake_with_net(&actors, &opts, &mut net, &mut r)
                    .expect("a faulty medium still yields a structured result");
                completed += u32::from(all_accepted(&result));
                aborted += result.outcomes.iter().filter(|o| o.abort.is_some()).count();
                retries += result.stats.retries;
                exchanges += result.stats.exchanges;
                exhausted += u32::from(result.stats.budget_exhausted);
            }
            let per_trial = |x: u32| f64::from(x) / f64::from(trials.max(1));
            table.push(
                vec![
                    fault.into(),
                    Cell::Real(rate, 2),
                    Cell::Real(per_trial(completed), 3),
                    Cell::Real(per_trial(retries), 2),
                    Cell::Real(per_trial(exchanges), 2),
                    aborted.into(),
                    u64::from(exhausted).into(),
                ],
                vec![],
            );
        }
    }
    table
}

/// **E14**: every GSIG × CGKD × DGKA cell, built through the factory,
/// running one `m`-party handshake.
pub fn instantiation_matrix(m: usize) -> Table {
    let mut table = Table::new(
        "E14: GSIG x CGKD x DGKA instantiation matrix",
        "GCD is a compiler: any GSIG, CGKD and DGKA compose (§5, §6)",
        &["gsig", "cgkd", "dgka", "accepted", "key agree"],
        &["wall s"],
    );
    let mut r = rng("table-e14");
    for scheme in SchemeKind::ALL {
        for cgkd in CgkdChoice::ALL {
            let config = GroupConfig::test_with_cgkd(scheme, cgkd);
            let (_, members) = group_with_config(config, m, &mut r).expect("group");
            for dgka in DgkaChoice::ALL {
                let opts = HandshakeOptions::with_dgka(dgka);
                let (secs, result) = timed(|| handshake(&members, &opts, &mut r));
                let key0 = result.outcomes[0].session_key.as_ref();
                let agree = key0.is_some_and(|k0| {
                    result
                        .outcomes
                        .iter()
                        .all(|o| o.session_key.as_ref().is_some_and(|k| k.ct_eq(k0)))
                });
                table.push(
                    vec![
                        format!("{scheme:?}").into(),
                        format!("{cgkd:?}").into(),
                        format!("{dgka:?}").into(),
                        all_accepted(&result).into(),
                        agree.into(),
                    ],
                    vec![Cell::secs(secs)],
                );
            }
        }
    }
    table
}
