//! Lock discipline: the shared pieces of the lock model and the
//! crate-wide lock-order graph.
//!
//! The model itself is applied by the one function-body walker
//! ([`crate::items`]); it is token-level and deliberately conservative:
//!
//! - an acquisition is any `<receiver>.lock()` call; the receiver path
//!   (`self.state`, `shared.cache`, …) names the lock;
//! - a guard bound with `let g = <recv>.lock()…;` is held until the
//!   enclosing brace closes or an explicit `drop(g)`;
//! - an unbound (temporary) guard is held to the end of its statement;
//! - `Condvar::wait(guard)` keeps the guard held (it is reacquired
//!   before returning).
//!
//! The walker yields, per function, the locks held at every call and
//! I/O site (**lock-across-call**, reported by [`crate::taint`]) and the
//! directed held→acquired edges; `LockGraph` aggregates the edges
//! across the crate and reports every edge on a cycle — a potential
//! deadlock — as **lock-order**.

use crate::analyzer::Sig;
use crate::findings::Finding;
use std::collections::{BTreeMap, BTreeSet};

/// Blocking I/O methods we recognise on the serving path.
pub(crate) const IO_METHODS: &[&str] = &[
    "write",
    "write_all",
    "write_fmt",
    "flush",
    "read",
    "read_exact",
    "read_to_end",
    "read_to_string",
    "read_line",
    "accept",
    "connect",
    "connect_timeout",
    "bind",
    "sync_all",
    "sync_data",
    "rename",
    "copy",
    "create",
    "create_dir_all",
    "open",
    "remove_file",
    "set_read_timeout",
    "set_write_timeout",
];

/// One `held → acquired` observation at the acquisition site, as the
/// walker records it on the acquiring function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockEdge {
    /// Receiver path of the lock already held.
    pub held: String,
    /// Receiver path of the lock being acquired.
    pub acquired: String,
    /// 1-based line of the acquisition.
    pub line: usize,
    /// 1-based column of the acquisition.
    pub col: usize,
}

/// Crate-wide lock-order graph, fed file by file, analysed by
/// [`LockGraph::finish`].
#[derive(Debug, Default)]
pub(crate) struct LockGraph {
    /// `(held, acquired)` → the finding to report at the edge's first
    /// site, should the edge turn out to lie on a cycle.
    edges: BTreeMap<(String, String), Finding>,
}

impl LockGraph {
    /// Feed one edge observed in `function` of `file`; the first site
    /// wins, so insertion order must be deterministic (sorted-file order).
    pub fn insert(&mut self, file: &str, function: &str, edge: &LockEdge) {
        let LockEdge { held, acquired, line, col } = edge;
        self.edges.entry((held.clone(), acquired.clone())).or_insert_with(|| Finding {
            rule: "lock-order",
            file: file.to_string(),
            line: *line,
            col: *col,
            message: format!(
                "acquiring `{acquired}` while holding `{held}` (in `{function}`) forms a \
                 lock-order cycle — potential deadlock; fix a global acquisition order"
            ),
            excerpt: format!("{held} -> {acquired}"),
        });
    }

    /// Emit `lock-order` findings: every edge that participates in a
    /// cycle of the aggregated graph, reported at its first site.
    pub fn finish(&self) -> Vec<Finding> {
        // Successor sets over lock names.
        let mut succ: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for (held, acquired) in self.edges.keys() {
            succ.entry(held).or_default().insert(acquired);
        }
        // `a → b` is cyclic iff b reaches a.
        let reaches = |from: &str, to: &str| -> bool {
            let mut seen = BTreeSet::new();
            let mut stack = vec![from];
            while let Some(n) = stack.pop() {
                if n == to {
                    return true;
                }
                if !seen.insert(n) {
                    continue;
                }
                if let Some(next) = succ.get(n) {
                    stack.extend(next.iter().copied());
                }
            }
            false
        };
        self.edges
            .iter()
            .filter(|((held, acquired), _)| reaches(acquired, held))
            .map(|(_, finding)| finding.clone())
            .collect()
    }
}

/// Index of the `{` opening the body of the `fn` at `sig[at]`, skipping
/// the parameter list; `None` for trait methods without a body.
pub(crate) fn body_open(sig: &[Sig<'_>], at: usize) -> Option<usize> {
    let mut j = at + 1;
    let mut paren = 0usize;
    loop {
        match sig.get(j).map(|s| s.text) {
            None | Some(";") if paren == 0 => return None,
            None => return None,
            Some("(") => paren += 1,
            Some(")") => paren = paren.saturating_sub(1),
            Some("{") if paren == 0 => return Some(j),
            _ => {}
        }
        j += 1;
    }
}

/// The dotted receiver path ending just before `sig[dot]` (the `.` in
/// front of `lock`): collects `ident (. ident)*` right-to-left.
pub(crate) fn receiver_path(sig: &[Sig<'_>], dot: usize) -> Option<(String, usize)> {
    let mut parts: Vec<&str> = Vec::new();
    let mut k = dot; // index of the `.` before `lock`
    loop {
        let id = k.checked_sub(1)?;
        if sig[id].text == ")" || sig[id].text == "]" {
            return None; // computed receiver: give up on naming it
        }
        parts.push(sig[id].text);
        match sig.get(id.wrapping_sub(1)).map(|s| s.text) {
            Some(".") if id >= 1 => k = id - 1,
            _ => {
                parts.reverse();
                return Some((parts.join("."), id));
            }
        }
    }
}

/// For an acquisition whose receiver starts at `sig[recv_start]`, find
/// a `let [mut] <g> =` immediately before it and return `<g>`.
pub(crate) fn guard_binding(sig: &[Sig<'_>], recv_start: usize) -> Option<String> {
    let eq = recv_start.checked_sub(1)?;
    if sig[eq].text != "=" {
        return None;
    }
    let name = eq.checked_sub(1)?;
    let kw = name.checked_sub(1)?;
    let is_let = sig[kw].text == "let"
        || (sig[kw].text == "mut" && kw.checked_sub(1).is_some_and(|k| sig[k].text == "let"));
    is_let.then(|| sig[name].text.to_string())
}

#[cfg(test)]
mod tests {
    use crate::analyzer::RuleSet;
    use crate::findings::Finding;

    /// One file through the whole pipeline with only the lock family on.
    fn lint(src: &str) -> Vec<Finding> {
        let rules = RuleSet { lock_discipline: true, ..RuleSet::default() };
        crate::lint_sources(&[("t.rs".to_string(), src.to_string())], |_| rules)
    }

    #[test]
    fn io_under_lock_is_flagged() {
        let f = lint(
            "fn f(&self, out: &mut W) {
    let g = self.state.lock().unwrap_or_else(|e| e.into_inner());
    out.write_all(b\"x\");
}",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "lock-across-call");
        assert!(f[0].message.contains("self.state"));
    }

    #[test]
    fn io_after_the_guard_is_released_is_clean() {
        // …by its scope closing,
        let scoped = lint(
            "fn f(&self, out: &mut W) {
    {
        let g = self.state.lock().unwrap_or_else(|e| e.into_inner());
        g.touch();
    }
    out.write_all(b\"x\");
}",
        );
        assert!(scoped.is_empty(), "{scoped:?}");
        // …by an explicit drop,
        let dropped = lint(
            "fn f(&self, out: &mut W) {
    let g = self.state.lock().unwrap_or_else(|e| e.into_inner());
    drop(g);
    out.write_all(b\"x\");
}",
        );
        assert!(dropped.is_empty(), "{dropped:?}");
        // …or, for an unbound temporary, by its statement ending.
        let temporary = lint(
            "fn f(&self, out: &mut W) {
    self.state.lock().unwrap_or_else(|e| e.into_inner()).closed = true;
    out.write_all(b\"x\");
}",
        );
        assert!(temporary.is_empty(), "{temporary:?}");
    }

    #[test]
    fn opposite_acquisition_orders_form_a_cycle() {
        let cycle = lint(
            "fn a(&self) {
    let g = self.first.lock().unwrap_or_else(|e| e.into_inner());
    let h = self.second.lock().unwrap_or_else(|e| e.into_inner());
}
fn b(&self) {
    let h = self.second.lock().unwrap_or_else(|e| e.into_inner());
    let g = self.first.lock().unwrap_or_else(|e| e.into_inner());
}",
        );
        assert_eq!(cycle.len(), 2, "{cycle:?}");
        assert!(cycle.iter().all(|f| f.rule == "lock-order"));
    }

    #[test]
    fn consistent_order_is_clean() {
        let f = lint(
            "fn a(&self) {
    let g = self.first.lock().unwrap_or_else(|e| e.into_inner());
    let h = self.second.lock().unwrap_or_else(|e| e.into_inner());
}
fn b(&self) {
    let g = self.first.lock().unwrap_or_else(|e| e.into_inner());
    let h = self.second.lock().unwrap_or_else(|e| e.into_inner());
}",
        );
        assert!(f.is_empty(), "{f:?}");
    }
}
