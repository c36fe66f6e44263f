//! Lock-order and channel-deadlock analysis (rules `lock-order`,
//! `send-under-lock`).
//!
//! Scope is the policy's `[rules.lock-order] paths` list — the
//! concurrency layers (`shs_net::{serve,tcp,sync}`, `shs_core::pool`).
//! Within each function the analysis replays mutex/channel events in
//! token order, tracking live guards via the syntax layer's approximated
//! release points, and:
//!
//! * records an **acquisition edge** `a → b` whenever lock class `b` is
//!   acquired (directly or through a resolved callee) while a guard of
//!   class `a` is live, then flags every cycle in the global acquisition
//!   graph — the classic inconsistent-order deadlock;
//! * flags **recursive acquisition** of the same class while its guard is
//!   live (the workspace mutexes are not reentrant);
//! * flags a **blocking channel op under a lock** — a bare `send` on the
//!   workspace's bounded channels, or a bare `recv`, while any guard is
//!   held, including transitively through callees. Backpressure then
//!   deadlocks against the lock. `try_send`/`recv_timeout` are bounded
//!   and exempt.
//!
//! Lock classes are receiver-chain names (`self.registry.lock()` →
//! `registry`), so two mutexes that happen to share a field name merge —
//! a deliberate over-approximation; see DESIGN.md §14. Calls *on a
//! guard* (`reg.snapshot()`, `self.registry.lock().stats()`) are methods
//! of the guarded inner data and are excluded from callee-effect replay:
//! name-based resolution would otherwise land them on same-named
//! service-layer methods that re-lock.

use crate::graph::{CallGraph, FnId};
use crate::policy::{Policy, Rule};
use crate::report::Finding;
use crate::syntax::{Call, FileSyntax, FnDef, SyncOp, UNWRAPS_GUARD};
use std::collections::{BTreeMap, BTreeSet};

/// Names bound directly to lock guards (`let reg = self.registry.lock();`,
/// with or without an `.unwrap()`, `.expect(…)` or `.unwrap_or_else(…)`
/// in between).
fn guard_bound_names(def: &FnDef) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for b in &def.bindings {
        let Some(pc) = b.primary_call else { continue };
        let c = &def.calls[pc];
        let is_lock = c.callee == "lock"
            || (UNWRAPS_GUARD.contains(&c.callee.as_str())
                && c.recv
                    .call_ids
                    .iter()
                    .any(|&i| def.calls[i].callee == "lock"));
        if is_lock {
            out.extend(b.names.iter().cloned());
        }
    }
    out
}

/// Is this call a method *on a guard* — `reg.snapshot()` where `reg` is a
/// guard binding, or a direct chain `self.registry.lock().stats()`? Such
/// calls run on the guarded inner data, which by construction does not
/// hold the mutex; resolving them by bare name routinely lands on a
/// same-named method of the outer service (which *does* lock), so their
/// callee effects are not replayed.
fn is_guard_method(def: &FnDef, call: &Call, guards: &BTreeSet<String>) -> bool {
    call.recv
        .call_ids
        .iter()
        .any(|&i| def.calls[i].callee == "lock")
        || call.recv.idents.iter().any(|id| guards.contains(id))
}

/// Lock-analysis self-stats for the JSON report.
#[derive(Debug, Clone, Copy, Default)]
pub struct LockStats {
    /// Files inside the policy's lock scope.
    pub files_in_scope: usize,
    /// Mutex/channel events replayed.
    pub sync_events: usize,
    /// Distinct lock classes seen.
    pub lock_classes: usize,
    /// Acquisition edges in the global graph.
    pub edges: usize,
    /// Distinct cycles flagged.
    pub cycles: usize,
}

/// Per-function effect summary, computed to fixpoint over the call graph.
#[derive(Debug, Clone, Default, PartialEq)]
struct FnEffects {
    /// Lock classes this fn (or a callee) may acquire.
    acquires: BTreeSet<String>,
    /// Description of a blocking channel op this fn (or a callee) may
    /// perform, e.g. "blocking `send` on `to_hub`".
    blocks: Option<String>,
}

/// First-seen site of an acquisition edge.
#[derive(Debug, Clone)]
struct EdgeSite {
    file: String,
    line: u32,
    col: u32,
    held_line: u32,
}

/// Runs the analysis; returns findings plus self-stats.
pub fn analyze(
    files: &[FileSyntax],
    graph: &CallGraph,
    policy: &Policy,
) -> (Vec<Finding>, LockStats) {
    let mut stats = LockStats::default();
    let in_scope: Vec<bool> = files
        .iter()
        .map(|f| policy.lock_rule_applies(&f.rel))
        .collect();
    stats.files_in_scope = in_scope.iter().filter(|b| **b).count();
    if stats.files_in_scope == 0 {
        return (Vec::new(), stats);
    }

    let mut ids: Vec<FnId> = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        if !in_scope[fi] {
            continue;
        }
        for (ni, f) in file.fns.iter().enumerate() {
            if !f.in_test {
                ids.push((fi, ni));
            }
        }
    }

    // Fixpoint on per-fn effect summaries.
    let mut effects: BTreeMap<FnId, FnEffects> =
        ids.iter().map(|id| (*id, FnEffects::default())).collect();
    loop {
        let mut changed = false;
        for &id in &ids {
            let def = crate::graph::fn_def(files, id);
            let mut e = effects[&id].clone();
            for ev in &def.sync_events {
                match ev.op {
                    SyncOp::Lock => {
                        e.acquires.insert(ev.class.clone());
                    }
                    SyncOp::Send => {
                        e.blocks
                            .get_or_insert_with(|| format!("blocking `send` on `{}`", ev.class));
                    }
                    SyncOp::Recv => {
                        e.blocks
                            .get_or_insert_with(|| format!("blocking `recv` on `{}`", ev.class));
                    }
                    SyncOp::TrySend | SyncOp::RecvTimeout => {}
                }
            }
            let guards = guard_bound_names(def);
            for ci in 0..def.calls.len() {
                if is_guard_method(def, &def.calls[ci], &guards) {
                    continue;
                }
                let Some(tgt) = graph.target(id, ci) else {
                    continue;
                };
                let Some(te) = effects.get(&tgt) else {
                    continue;
                };
                let (acq, blk) = (te.acquires.clone(), te.blocks.clone());
                e.acquires.extend(acq);
                if e.blocks.is_none() {
                    if let Some(b) = blk {
                        e.blocks = Some(format!("{b} via `{}`", def.calls[ci].callee));
                    }
                }
            }
            if e != effects[&id] {
                effects.insert(id, e);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Detailed per-fn replay: findings + acquisition edges.
    let mut findings = Vec::new();
    let mut edges: BTreeMap<(String, String), EdgeSite> = BTreeMap::new();
    let mut classes: BTreeSet<String> = BTreeSet::new();
    for &id in &ids {
        let def = crate::graph::fn_def(files, id);
        let rel = &files[id.0].rel;
        stats.sync_events += def.sync_events.len();
        for ev in &def.sync_events {
            if ev.op == SyncOp::Lock {
                classes.insert(ev.class.clone());
            }
        }
        replay_fn(files, id, graph, &effects, rel, &mut edges, &mut findings);
    }
    stats.lock_classes = classes.len();
    stats.edges = edges.len();

    // Cycle detection over the acquisition graph.
    let cycles = find_cycles(&edges);
    stats.cycles = cycles.len();
    for cyc in cycles {
        let first = &edges[&(cyc[0].clone(), cyc[1 % cyc.len()].clone())];
        let chain: Vec<&str> = cyc.iter().map(String::as_str).collect();
        let mut legs = String::new();
        for i in 0..cyc.len() {
            let a = &cyc[i];
            let b = &cyc[(i + 1) % cyc.len()];
            let site = &edges[&(a.clone(), b.clone())];
            if i > 0 {
                legs.push_str(", ");
            }
            legs.push_str(&format!(
                "`{a}` (held since line {}) →`{b}` at {}:{}",
                site.held_line, site.file, site.line
            ));
        }
        findings.push(Finding::new(
            &first.file,
            first.line,
            first.col,
            Rule::LockOrder,
            format!(
                "lock-order cycle `{}`→`{}`: {legs} — inconsistent acquisition \
                 order can deadlock; impose a single global order",
                chain.join("`→`"),
                chain[0],
            ),
        ));
    }

    findings.sort_by(|a, b| (&a.file, a.line, a.col).cmp(&(&b.file, b.line, b.col)));
    (findings, stats)
}

/// Replays one fn's events in token order against the live-guard set.
fn replay_fn(
    files: &[FileSyntax],
    id: FnId,
    graph: &CallGraph,
    effects: &BTreeMap<FnId, FnEffects>,
    rel: &str,
    edges: &mut BTreeMap<(String, String), EdgeSite>,
    findings: &mut Vec<Finding>,
) {
    let def = crate::graph::fn_def(files, id);
    // (tok_idx, event): sync events and resolved calls, token order.
    enum Ev {
        Sync(usize),
        Call(usize),
    }
    let guards = guard_bound_names(def);
    let mut evs: Vec<(usize, Ev)> = def
        .sync_events
        .iter()
        .enumerate()
        .map(|(i, e)| (e.tok_idx, Ev::Sync(i)))
        .chain(
            def.calls
                .iter()
                .enumerate()
                .filter(|(ci, c)| {
                    graph.target(id, *ci).is_some() && !is_guard_method(def, c, &guards)
                })
                .map(|(ci, c)| (c.tok_idx, Ev::Call(ci))),
        )
        .collect();
    evs.sort_by_key(|(t, _)| *t);

    // Live guards: (class, release_idx, acquire line).
    let mut held: Vec<(String, usize, u32)> = Vec::new();
    for (tok, ev) in evs {
        held.retain(|(_, release, _)| *release > tok);
        match ev {
            Ev::Sync(i) => {
                let e = &def.sync_events[i];
                match e.op {
                    SyncOp::Lock => {
                        for (h, _, hline) in &held {
                            if h == &e.class {
                                findings.push(Finding::new(
                                    rel,
                                    e.line,
                                    e.col,
                                    Rule::LockOrder,
                                    format!(
                                        "`{}` locked while a `{}` guard is \
                                         still live (acquired line {hline}); \
                                         the workspace mutexes are not \
                                         reentrant — this self-deadlocks",
                                        e.class, e.class
                                    ),
                                ));
                            } else {
                                edges
                                    .entry((h.clone(), e.class.clone()))
                                    .or_insert(EdgeSite {
                                        file: rel.to_string(),
                                        line: e.line,
                                        col: e.col,
                                        held_line: *hline,
                                    });
                            }
                        }
                        held.push((e.class.clone(), e.release_idx, e.line));
                    }
                    SyncOp::Send | SyncOp::Recv => {
                        if let Some((h, _, hline)) = held.first() {
                            let what = if e.op == SyncOp::Send {
                                format!("blocking `send` on bounded channel `{}`", e.class)
                            } else {
                                format!("blocking `recv` on `{}`", e.class)
                            };
                            findings.push(Finding::new(
                                rel,
                                e.line,
                                e.col,
                                Rule::SendUnderLock,
                                format!(
                                    "{what} while holding lock `{h}` (acquired \
                                     line {hline}); backpressure can deadlock \
                                     against the lock — drop the guard first or \
                                     use a non-blocking variant",
                                ),
                            ));
                        }
                    }
                    SyncOp::TrySend | SyncOp::RecvTimeout => {}
                }
            }
            Ev::Call(ci) => {
                if held.is_empty() {
                    continue;
                }
                let call = &def.calls[ci];
                let Some(tgt) = graph.target(id, ci) else {
                    continue;
                };
                let Some(te) = effects.get(&tgt) else {
                    continue;
                };
                for (h, _, hline) in &held {
                    for acq in &te.acquires {
                        if acq == h {
                            findings.push(Finding::new(
                                rel,
                                call.line,
                                call.col,
                                Rule::LockOrder,
                                format!(
                                    "call to `{}` (which may lock `{acq}`) while \
                                     a `{h}` guard is live (acquired line \
                                     {hline}) — non-reentrant re-acquisition",
                                    call.callee
                                ),
                            ));
                        } else {
                            edges.entry((h.clone(), acq.clone())).or_insert(EdgeSite {
                                file: rel.to_string(),
                                line: call.line,
                                col: call.col,
                                held_line: *hline,
                            });
                        }
                    }
                }
                if let Some(b) = &te.blocks {
                    let (h, _, hline) = &held[0];
                    findings.push(Finding::new(
                        rel,
                        call.line,
                        call.col,
                        Rule::SendUnderLock,
                        format!(
                            "call to `{}` ({b}) while holding lock `{h}` \
                             (acquired line {hline}); the channel op can block \
                             against the lock",
                            call.callee
                        ),
                    ));
                }
            }
        }
    }
}

/// Finds distinct simple cycles in the acquisition graph, each returned
/// as its node list rotated to start at the lexicographically smallest
/// class (deduplicated on that canonical form).
fn find_cycles(edges: &BTreeMap<(String, String), EdgeSite>) -> Vec<Vec<String>> {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (a, b) in edges.keys() {
        adj.entry(a).or_default().push(b);
    }
    let mut seen: BTreeSet<Vec<String>> = BTreeSet::new();
    let mut out = Vec::new();
    let starts: Vec<&str> = adj.keys().copied().collect();
    for start in starts {
        let mut path: Vec<&str> = vec![start];
        let mut on_path: BTreeSet<&str> = [start].into();
        dfs(
            start,
            start,
            &adj,
            &mut path,
            &mut on_path,
            &mut seen,
            &mut out,
        );
    }
    out
}

fn dfs<'a>(
    node: &'a str,
    start: &'a str,
    adj: &BTreeMap<&'a str, Vec<&'a str>>,
    path: &mut Vec<&'a str>,
    on_path: &mut BTreeSet<&'a str>,
    seen: &mut BTreeSet<Vec<String>>,
    out: &mut Vec<Vec<String>>,
) {
    let Some(nexts) = adj.get(node) else { return };
    for &next in nexts {
        if next == start {
            let cyc = canonical(path);
            if seen.insert(cyc.clone()) {
                out.push(cyc);
            }
            continue;
        }
        // Only expand from the canonical start to avoid re-finding each
        // cycle once per member node.
        if next < start || on_path.contains(next) {
            continue;
        }
        path.push(next);
        on_path.insert(next);
        dfs(next, start, adj, path, on_path, seen, out);
        on_path.remove(next);
        path.pop();
    }
}

/// Rotates the cycle to start at the smallest class name.
fn canonical(path: &[&str]) -> Vec<String> {
    let min = path
        .iter()
        .enumerate()
        .min_by_key(|(_, s)| **s)
        .map(|(i, _)| i)
        .unwrap_or(0);
    path.iter()
        .cycle()
        .skip(min)
        .take(path.len())
        .map(|s| s.to_string())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::syntax::parse_file;

    fn policy() -> Policy {
        Policy::parse(
            r#"
[secret]
types = ["Key"]
idents = ["k_prime"]
[sinks]
macros = ["format"]
[rules.lock-order]
paths = ["*.rs"]
"#,
        )
        .unwrap()
    }

    fn run(sources: &[(&str, &str)]) -> Vec<Finding> {
        let files: Vec<FileSyntax> = sources
            .iter()
            .map(|(rel, src)| parse_file(rel, &lex(src)))
            .collect();
        let graph = CallGraph::build(&files);
        analyze(&files, &graph, &policy()).0
    }

    #[test]
    fn two_fn_opposite_order_is_a_cycle() {
        let src = "fn a(&self) { let g = self.reg.lock(); let h = self.shapes.lock(); }\n\
                   fn b(&self) { let g = self.shapes.lock(); let h = self.reg.lock(); }";
        let f = run(&[("a.rs", src)]);
        let cycles: Vec<_> = f.iter().filter(|f| f.rule == Rule::LockOrder).collect();
        assert_eq!(cycles.len(), 1, "{f:?}");
        assert!(
            cycles[0].message.contains("`reg`→`shapes`"),
            "{}",
            cycles[0].message
        );
    }

    #[test]
    fn consistent_order_is_clean() {
        let src = "fn a(&self) { let g = self.reg.lock(); let h = self.shapes.lock(); }\n\
                   fn b(&self) { let g = self.reg.lock(); let h = self.shapes.lock(); }";
        assert!(run(&[("a.rs", src)]).is_empty());
    }

    #[test]
    fn cross_fn_cycle_via_callee() {
        let src = "fn inner(&self) { let g = self.b.lock(); }\n\
                   fn outer(&self) { let g = self.a.lock(); self.inner(); }\n\
                   fn other(&self) { let g = self.b.lock(); let h = self.a.lock(); }";
        let f = run(&[("a.rs", src)]);
        assert!(
            f.iter()
                .any(|f| f.rule == Rule::LockOrder && f.message.contains("cycle")),
            "{f:?}"
        );
    }

    #[test]
    fn send_while_holding_lock_flagged() {
        let src = "fn f(&self) { let g = self.reg.lock(); self.to_hub.send(m); }";
        let f = run(&[("a.rs", src)]);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::SendUnderLock);
        assert!(f[0].message.contains("`to_hub`"), "{}", f[0].message);
    }

    #[test]
    fn poison_tolerant_guard_is_held_in_either_argument_form() {
        // `unwrap_or_else` unwraps the `LockResult` into the guard, by a
        // path to `PoisonError::into_inner` or by a closure calling it.
        let src = "fn f(&self) { let g = self.reg.lock().unwrap_or_else(PoisonError::into_inner); \
                   self.to_hub.send(m); }\n\
                   fn g(&self) { let g = self.reg.lock().unwrap_or_else(|e| e.into_inner()); \
                   self.to_hub.send(m); }\n\
                   fn h(&self) { let n = self.reg.lock().unwrap_or_else(|e| e.into_inner()).len(); \
                   self.to_hub.send(m); }";
        let f = run(&[("a.rs", src)]);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|f| f.rule == Rule::SendUnderLock), "{f:?}");
        assert_eq!((f[0].line, f[1].line), (1, 2), "{f:?}");
    }

    #[test]
    fn send_after_guard_drop_is_clean() {
        let src = "fn f(&self) { { let g = self.reg.lock(); } self.to_hub.send(m); }\n\
                   fn g(&self) { let g = self.reg.lock(); drop(g); self.to_hub.send(m); }";
        assert!(run(&[("a.rs", src)]).is_empty());
    }

    #[test]
    fn try_send_and_recv_timeout_are_exempt() {
        let src = "fn f(&self) { let g = self.reg.lock(); self.tx.try_send(m); }\n\
                   fn g(&self) { let m = self.rx.lock().recv_timeout(d); }";
        assert!(run(&[("a.rs", src)]).is_empty());
    }

    #[test]
    fn transitive_send_under_lock_flagged() {
        let src = "fn notify(&self) { self.tx.send(m); }\n\
                   fn f(&self) { let g = self.reg.lock(); self.notify(); }";
        let f = run(&[("a.rs", src)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::SendUnderLock);
        assert!(f[0].message.contains("notify"), "{}", f[0].message);
    }

    #[test]
    fn recursive_acquisition_flagged() {
        let src = "fn f(&self) { let g = self.reg.lock(); let h = self.reg.lock(); }";
        let f = run(&[("a.rs", src)]);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::LockOrder);
        assert!(f[0].message.contains("not"), "{}", f[0].message);
    }

    #[test]
    fn out_of_scope_files_ignored() {
        let p = Policy::parse(
            r#"
[secret]
types = ["Key"]
idents = ["k_prime"]
[sinks]
macros = ["format"]
[rules.lock-order]
paths = ["net/*.rs"]
"#,
        )
        .unwrap();
        let src = "fn f(&self) { let g = self.reg.lock(); self.tx.send(m); }";
        let files = vec![parse_file("core/pool.rs", &lex(src))];
        let graph = CallGraph::build(&files);
        let (f, stats) = analyze(&files, &graph, &p);
        assert!(f.is_empty());
        assert_eq!(stats.files_in_scope, 0);
    }
}
