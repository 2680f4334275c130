//! The four site families, reported at every depth (DESIGN.md §10):
//! at the site itself where the file's rules deny it (depth 0), and —
//! by fixed-point propagation over the call graph — at every call in
//! such a file whose callee chain reaches a site anywhere in the
//! workspace (depth ≥ 1). One rule id per family:
//!
//! - **panic-reach** — unwrap/expect/`panic!`-family on a panic-free
//!   path;
//! - **det-taint** — a nondeterministic source (`HashMap`/`HashSet`,
//!   `SystemTime`/`Instant`, `std::env`, `thread::current`) on a
//!   replay-contract path;
//! - **lock-across-call** — blocking I/O while a lock is held, or a
//!   call made under a lock that reaches blocking I/O or re-acquires a
//!   lock already held;
//! - **alloc-in-hot-loop** — an allocation-shaped construct inside a
//!   loop of a hot-path file.
//!
//! The lattice per function is four booleans (one per [`SiteKind`])
//! plus the set of lock names transitively acquired; all five facts
//! only ever grow, so the sweep converges. An audited
//! `// mb-lint: allow(<rule>) -- why` both silences the finding on its
//! line and is a **propagation boundary**: at a site it stops the fact
//! from entering the function, at a call it stops the callee's fact
//! from flowing into the caller — so one audit at the right boundary
//! clears every transitive caller, instead of each caller
//! re-suppressing.
//!
//! A depth-≥1 finding sits at the *call site* in the protected file,
//! with a witness path (capped) showing one concrete route to the
//! offending site, and the callee name as the excerpt so spans slice
//! exactly.

use crate::analyzer::RuleSet;
use crate::findings::Finding;
use crate::graph::{DefId, Graph};
use crate::items::{CallSite, FileSummary, Site, SiteKind};
use std::collections::BTreeSet;

/// Transitive facts for one function.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Facts {
    /// Indexed by `SiteKind as usize`: a site of that kind is reachable.
    reaches: [bool; SiteKind::ALL.len()],
    /// Qualified lock names this function (transitively) acquires.
    acquires: BTreeSet<String>,
}

/// Witness-path length cap (hops shown in a finding message).
const WITNESS_CAP: usize = 6;

/// The rule id a site kind is reported under — and so the id whose
/// `allow` silences it and stops it from seeding or propagating.
fn site_rule(kind: SiteKind) -> &'static str {
    match kind {
        SiteKind::Panic => "panic-reach",
        SiteKind::Nondet => "det-taint",
        SiteKind::Io => "lock-across-call",
        SiteKind::Alloc => "alloc-in-hot-loop",
    }
}

/// Whether rule set `r` denies `kind` at a site or call standing in
/// this loop and lock context.
fn denied(kind: SiteKind, r: RuleSet, in_loop: bool, held: &[String]) -> bool {
    match kind {
        SiteKind::Panic => r.panic_free,
        SiteKind::Nondet => r.determinism,
        SiteKind::Io => r.lock_discipline && !held.is_empty(),
        SiteKind::Alloc => r.alloc_hot_loop && in_loop,
    }
}

/// What is wrong at a denied site in function `scope` (`None`: a
/// file-level site).
fn site_message(site: &Site, scope: Option<&str>) -> String {
    let what = &site.what;
    let place = scope.map_or("at file scope".to_string(), |name| format!("in `{name}`"));
    match site.kind {
        SiteKind::Panic => format!(
            "`{what}` can panic on this panic-free path ({place}); return a typed error or \
             recover"
        ),
        SiteKind::Nondet => format!(
            "`{what}` makes results depend on per-process state — hash iteration order, the \
             clock, the environment, the thread — and breaks replay-by-seed ({place}); use an \
             ordered structure (`BTreeMap`, sort before iterating) or thread the value through \
             as an explicit parameter"
        ),
        SiteKind::Io => format!(
            "blocking I/O call `{what}` while holding lock(s) {} ({place}); release the lock \
             before doing I/O",
            site.held.join(", ")
        ),
        SiteKind::Alloc => format!(
            "`{what}` allocates on every iteration of a hot-path loop ({place}); hoist the \
             allocation out of the loop or reuse a buffer"
        ),
    }
}

/// What is wrong at a denied call in `caller` whose callee chain
/// reaches a site of `kind` along `route`.
fn call_message(kind: SiteKind, call: &CallSite, caller: &str, route: &str) -> String {
    let name = &call.name;
    match kind {
        SiteKind::Panic => format!(
            "call to `{name}` (in `{caller}`) can reach a panic: {route}; make the callee chain \
             return a typed error, or audit the boundary with an allow"
        ),
        SiteKind::Nondet => format!(
            "call to `{name}` (in `{caller}`) reaches a nondeterministic source: {route}; \
             replay-contract paths must stay bit-identical — thread the value through or use \
             an ordered structure"
        ),
        SiteKind::Io => format!(
            "call to `{name}` while holding lock(s) {} (in `{caller}`) reaches blocking I/O: \
             {route}; release the lock before the call",
            call.held.join(", ")
        ),
        SiteKind::Alloc => format!(
            "call to `{name}` inside a loop of this hot path allocates: {route}; hoist the \
             allocation out of the loop or reuse a buffer"
        ),
    }
}

/// Run the four families over the summarized workspace. `files` must be
/// in sorted-file order; `rules[i]` is the rule set of `files[i]`.
/// Returned findings are unsorted (the caller merges and sorts them
/// with the site-local ones); within a file the depth-0 findings come
/// first.
pub fn run(files: &[(String, FileSummary)], rules: &[RuleSet], graph: &Graph) -> Vec<Finding> {
    let mut facts: Vec<Vec<Facts>> =
        files.iter().map(|(_, s)| vec![Facts::default(); s.fns.len()]).collect();

    // Seed local facts, honouring allow boundaries at the site line.
    for (fi, (_, summary)) in files.iter().enumerate() {
        for (di, item) in summary.fns.iter().enumerate() {
            let f = &mut facts[fi][di];
            for site in &item.sites {
                if !summary.allows(site_rule(site.kind), site.line) {
                    f.reaches[site.kind as usize] = true;
                }
            }
            f.acquires.extend(item.acquires.iter().cloned());
        }
    }

    // Fixed point: propagate callee facts into callers until stable.
    // Facts only grow, so this terminates; the workspace graph is
    // small enough that whole-sweep iteration beats worklist overhead.
    loop {
        let mut changed = false;
        for (fi, (_, summary)) in files.iter().enumerate() {
            for (di, item) in summary.fns.iter().enumerate() {
                for (ci, call) in item.calls.iter().enumerate() {
                    let Some(callee) = graph.resolved[fi][di][ci] else { continue };
                    let from = facts[callee.0][callee.1].clone();
                    let f = &mut facts[fi][di];
                    for kind in SiteKind::ALL {
                        if summary.allows(site_rule(kind), call.line) {
                            continue;
                        }
                        if from.reaches[kind as usize] && !f.reaches[kind as usize] {
                            f.reaches[kind as usize] = true;
                            changed = true;
                        }
                        if kind == SiteKind::Io {
                            for lock in &from.acquires {
                                changed |= f.acquires.insert(lock.clone());
                            }
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // A deterministic witness route for `kind` starting at `start`:
    // prefer the first local site of the right kind, else descend into
    // the first tainted resolved call edge.
    let witness = |start: DefId, kind: SiteKind| -> String {
        let mut path = Vec::new();
        let mut seen = BTreeSet::new();
        let mut at = start;
        while seen.insert(at) && path.len() < WITNESS_CAP {
            let (file, summary) = &files[at.0];
            let item = &summary.fns[at.1];
            if let Some(site) = item
                .sites
                .iter()
                .find(|s| s.kind == kind && !summary.allows(site_rule(kind), s.line))
            {
                path.push(format!("`{}` ({}:{})", item.name, file, item.line));
                path.push(format!("`{}` at {}:{}", site.what, file, site.line));
                return path.join(" -> ");
            }
            let next = item.calls.iter().enumerate().find_map(|(ci, call)| {
                let callee = graph.resolved[at.0][at.1][ci]?;
                let ok = facts[callee.0][callee.1].reaches[kind as usize]
                    && !summary.allows(site_rule(kind), call.line);
                ok.then_some(callee)
            });
            path.push(format!("`{}` ({}:{})", item.name, file, item.line));
            match next {
                Some(n) => at = n,
                None => break,
            }
        }
        path.push("…".to_string());
        path.join(" -> ")
    };

    let mut findings = Vec::new();
    for (fi, (file, summary)) in files.iter().enumerate() {
        let r = rules[fi];
        let mut emit = |kind: SiteKind, line: usize, col: usize, excerpt: &str, message: String| {
            if !summary.allows(site_rule(kind), line) {
                let (rule, file, excerpt) = (site_rule(kind), file.clone(), excerpt.to_string());
                findings.push(Finding { rule, file, line, col, message, excerpt });
            }
        };

        // Depth 0: the site itself is the violation.
        let file_scope = summary.file_sites.iter().map(|s| (s, None));
        let in_fns = summary
            .fns
            .iter()
            .flat_map(|item| item.sites.iter().map(|s| (s, Some(item.name.as_str()))));
        for (site, scope) in file_scope.chain(in_fns) {
            if denied(site.kind, r, site.in_loop, &site.held) {
                emit(site.kind, site.line, site.col, &site.what, site_message(site, scope));
            }
        }

        // Depth ≥ 1: a call whose callee chain reaches a site.
        for (di, item) in summary.fns.iter().enumerate() {
            for (ci, call) in item.calls.iter().enumerate() {
                let Some(callee) = graph.resolved[fi][di][ci] else { continue };
                let cf = &facts[callee.0][callee.1];
                for kind in SiteKind::ALL {
                    if !denied(kind, r, call.in_loop, &call.held) {
                        continue;
                    }
                    let message = if cf.reaches[kind as usize] {
                        call_message(kind, call, &item.name, &witness(callee, kind))
                    } else if kind == SiteKind::Io {
                        let Some(lock) = cf.acquires.iter().find(|l| call.held.contains(l)) else {
                            continue;
                        };
                        format!(
                            "call to `{}` while holding `{lock}` (in `{}`) re-acquires `{lock}` \
                             in a callee — self-deadlock; release the lock before the call or \
                             pass the guard down",
                            call.name, item.name
                        )
                    } else {
                        continue;
                    };
                    emit(kind, call.line, call.col, &call.name, message);
                }
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lint `files` with `protected` rule flags on the first file and
    /// nothing on the rest.
    fn lint(files: &[(&str, &str)], protected: RuleSet) -> Vec<Finding> {
        let sources: Vec<(String, String)> =
            files.iter().map(|(p, s)| (p.to_string(), s.to_string())).collect();
        let first = files[0].0;
        crate::lint_sources(&sources, |p| if p == first { protected } else { RuleSet::none() })
    }

    fn panic_reach() -> RuleSet {
        RuleSet { panic_free: true, ..RuleSet::default() }
    }

    #[test]
    fn panic_two_hops_deep_is_reached() {
        let f = lint(
            &[
                ("crates/serve/src/worker.rs", "fn work() { outer(); }"),
                (
                    "crates/core/src/helper.rs",
                    "pub fn outer() { inner(); }\nfn inner(x: Option<u32>) { x.unwrap(); }",
                ),
            ],
            panic_reach(),
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "panic-reach");
        assert_eq!(f[0].excerpt, "outer");
        assert!(f[0].message.contains("unwrap"), "{}", f[0].message);
        assert!(f[0].message.contains("crates/core/src/helper.rs"), "{}", f[0].message);
    }

    #[test]
    fn allow_at_the_boundary_stops_propagation() {
        let f = lint(
            &[
                ("crates/serve/src/worker.rs", "fn work() { outer(); }"),
                (
                    "crates/core/src/helper.rs",
                    "pub fn outer() {\n    // mb-lint: allow(panic-reach) -- input validated by caller\n    inner();\n}\nfn inner(x: Option<u32>) { x.unwrap(); }",
                ),
            ],
            panic_reach(),
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn allow_at_the_call_site_silences_but_keeps_others() {
        let f = lint(
            &[
                (
                    "crates/serve/src/worker.rs",
                    "fn a() {\n    // mb-lint: allow(panic-reach) -- audited: spawn-time only\n    outer();\n}\nfn b() { outer(); }",
                ),
                ("crates/core/src/helper.rs", "pub fn outer(x: Option<u32>) { x.unwrap(); }"),
            ],
            panic_reach(),
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 5);
    }

    #[test]
    fn det_taint_sees_hash_through_a_call() {
        let f = lint(
            &[
                ("crates/core/src/reweight.rs", "fn step() { tally(); }"),
                ("crates/common/src/util.rs", "pub fn tally() { let m = HashMap::new(); }"),
            ],
            RuleSet { determinism: true, ..RuleSet::default() },
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "det-taint");
        assert!(f[0].message.contains("HashMap"));
    }

    #[test]
    fn lock_across_call_reaches_io_in_a_callee() {
        let f = lint(
            &[
                (
                    "crates/serve/src/server.rs",
                    "impl S { fn f(&self) {\n    let g = self.state.lock().unwrap_or_else(|e| e.into_inner());\n    flush_all();\n} }",
                ),
                (
                    "crates/serve/src/io.rs",
                    "pub fn flush_all(w: &mut W) { w.flush(); }",
                ),
            ],
            RuleSet { lock_discipline: true, ..RuleSet::default() },
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "lock-across-call");
        assert!(f[0].message.contains("S.state"), "{}", f[0].message);
        assert!(f[0].message.contains("blocking I/O"), "{}", f[0].message);
    }

    #[test]
    fn lock_across_call_catches_reacquire() {
        let src = "impl S {\n    fn f(&self) {\n        let g = self.state.lock().unwrap_or_else(|e| e.into_inner());\n        self.g();\n    }\n    fn g(&self) {\n        let h = self.state.lock().unwrap_or_else(|e| e.into_inner());\n    }\n}";
        let f = lint(
            &[("crates/serve/src/server.rs", src)],
            RuleSet { lock_discipline: true, ..RuleSet::default() },
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("re-acquires"), "{}", f[0].message);
    }

    #[test]
    fn calls_without_held_locks_are_clean() {
        let f = lint(
            &[
                ("crates/serve/src/server.rs", "fn f(w: &mut W) { flush_all(w); }"),
                ("crates/serve/src/io.rs", "pub fn flush_all(w: &mut W) { w.flush(); }"),
            ],
            RuleSet { lock_discipline: true, ..RuleSet::default() },
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn alloc_in_hot_loop_fires_locally_and_through_calls() {
        let f = lint(
            &[
                (
                    "crates/tensor/src/kernels.rs",
                    "fn k(n: usize) {\n    for i in 0..n {\n        let v = vec![0; i];\n        helper();\n    }\n}",
                ),
                ("crates/tensor/src/util.rs", "pub fn helper() -> String { x.to_string() }"),
            ],
            RuleSet { alloc_hot_loop: true, ..RuleSet::default() },
        );
        let rules: Vec<&str> = f.iter().map(|x| x.rule).collect();
        assert_eq!(rules, vec!["alloc-in-hot-loop", "alloc-in-hot-loop"], "{f:?}");
        assert!(f.iter().any(|x| x.excerpt == "vec"));
        assert!(f.iter().any(|x| x.excerpt == "helper"));
    }

    #[test]
    fn alloc_outside_the_loop_is_fine() {
        let f = lint(
            &[(
                "crates/tensor/src/kernels.rs",
                "fn k(n: usize) {\n    let mut v = vec![0; n];\n    for i in 0..n { v.fill(i as f32); }\n}",
            )],
            RuleSet { alloc_hot_loop: true, ..RuleSet::default() },
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn recursion_terminates() {
        let f = lint(
            &[(
                "crates/serve/src/worker.rs",
                "fn a(n: u32) { b(n); }\nfn b(n: u32) { a(n); x.unwrap(); }",
            )],
            panic_reach(),
        );
        // Both calls on the cycle, and the site they reach.
        let spans: Vec<(usize, &str)> = f.iter().map(|x| (x.line, x.excerpt.as_str())).collect();
        assert_eq!(spans, vec![(1, "b"), (2, "a"), (2, "unwrap")], "{f:?}");
        assert!(f.iter().all(|x| x.rule == "panic-reach"));
    }

    #[test]
    fn one_allow_silences_the_site_and_stops_its_taint() {
        let helper = "pub fn outer(x: Option<u32>) -> u32 {\n    // mb-lint: allow(panic-reach) -- validated by the caller\n    x.unwrap()\n}";
        let f = lint(
            &[
                ("crates/serve/src/helper.rs", helper),
                ("crates/serve/src/worker.rs", "fn work() { outer(None); }"),
            ],
            panic_reach(),
        );
        assert!(f.is_empty(), "depth 0 silenced: {f:?}");
        let f = lint(
            &[
                ("crates/serve/src/worker.rs", "fn work() { outer(None); }"),
                ("crates/serve/src/helper.rs", helper),
            ],
            panic_reach(),
        );
        assert!(f.is_empty(), "depth 1 never seeded: {f:?}");
    }
}
