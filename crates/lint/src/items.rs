//! Item-level parsing — the one function-body walker: `fn` items,
//! impl/trait context, call edges, taint-relevant sites and lock-order
//! edges, extracted from the total lexer's token stream.
//!
//! This is the per-file half of the analysis ([`crate::graph`] resolves
//! the call edges, [`crate::taint`] reports the sites where they are
//! denied and propagates them to callers). Extraction is token-level
//! and deliberately conservative:
//!
//! - a **function item** is a non-`#[cfg(test)]` `fn` with a body; its
//!   impl/trait type (the first type name of the enclosing `impl`/
//!   `trait` header, the `for` type for trait impls) is recorded as the
//!   qualifier;
//! - a **call edge** is an identifier followed by `(` — classified as a
//!   free call, a `.method(…)` call (with `self.` receivers kept
//!   distinct), or a `path::segment(…)` qualified call. Macros
//!   (`name!(…)`) are not call edges;
//! - **sites** are the local facts every taint family starts from —
//!   panicking constructs, nondeterministic sources, allocation-shaped
//!   calls, and blocking I/O ([`site_kind`] is the only place their
//!   token patterns are written) — each with its loop depth and the
//!   locks held there. A site outside every function body (a `use`
//!   line, a struct field, a signature, a `static` initialiser) is a
//!   **file-level site**: reportable where it stands, seeding nothing;
//! - **held locks** follow the model of [`crate::locks`] (`let`-bound
//!   guards to scope end or `drop`, temporaries to statement end), with
//!   `self.…` receiver paths qualified by the impl type so acquisitions
//!   compare meaningfully across functions; each acquisition under a
//!   held lock is a **lock-order edge**.

use crate::analyzer::{in_ranges, Sig, KEYWORDS};
use crate::lexer::{LineMap, TokenKind};
use crate::locks::{self, LockEdge};
use crate::suppress::Suppressions;
use std::collections::BTreeSet;

/// Everything the cross-file passes need from one file: the function
/// items with their call edges and sites, the file-level sites, and the
/// audited `allow` lines.
#[derive(Debug, Default)]
pub struct FileSummary {
    /// Non-test function items defined in this file.
    pub fns: Vec<FnItem>,
    /// Non-test sites outside every function body, in token order.
    pub file_sites: Vec<Site>,
    /// The file's `mb-lint: allow(…)` lines.
    pub suppressions: Suppressions,
}

impl FileSummary {
    /// True if an `allow(rule)` covers `line`.
    pub(crate) fn allows(&self, rule: &str, line: usize) -> bool {
        self.suppressions.allows(rule, line)
    }
}

/// One function item and its locally-extracted facts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnItem {
    /// Simple function name.
    pub name: String,
    /// Impl/trait type context (`impl Server` → `Server`), if any.
    pub qual: Option<String>,
    /// 1-based line of the name token.
    pub line: usize,
    /// Taint-relevant local sites, in token order.
    pub sites: Vec<Site>,
    /// Outgoing call edges, in token order.
    pub calls: Vec<CallSite>,
    /// Lock receiver paths this function acquires (self-qualified).
    pub acquires: Vec<String>,
    /// Acquisitions made while another lock was held, in token order.
    pub lock_edges: Vec<LockEdge>,
}

/// What kind of local fact a [`Site`] is. The discriminant indexes the
/// per-function fact table of [`crate::taint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteKind {
    /// `.unwrap()`, `.expect(…)`, `panic!`-family macro.
    Panic,
    /// `HashMap`/`HashSet`, `SystemTime`/`Instant`, `std::env`,
    /// `thread::current` — per-process or environment-dependent state.
    Nondet,
    /// Allocation-shaped construct: `vec!`/`format!`,
    /// `with_capacity`/`to_vec`/`to_string`/`to_owned`/`collect`,
    /// `Box::new`/`String::from`.
    Alloc,
    /// A blocking I/O method call ([`locks::IO_METHODS`]).
    Io,
}

impl SiteKind {
    /// Every kind, in discriminant order.
    pub const ALL: [SiteKind; 4] =
        [SiteKind::Panic, SiteKind::Nondet, SiteKind::Alloc, SiteKind::Io];
}

/// One taint-relevant local fact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Site {
    /// The fact kind.
    pub kind: SiteKind,
    /// The matched source token (`unwrap`, `HashMap`, `vec`, …).
    pub what: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// True when the site sits inside a `for`/`while`/`loop` body.
    pub in_loop: bool,
    /// Lock receiver paths held at this site (self-qualified).
    pub held: Vec<String>,
}

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallKind {
    /// `name(…)` — a free function call.
    Free,
    /// `recv.name(…)` — a method call on a non-`self` receiver.
    Method,
    /// `self.name(…)` — a method call on `self`.
    SelfMethod,
    /// `seg::name(…)` — the immediately-preceding path segment.
    Qualified(String),
}

/// One outgoing call edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// Callee naming form.
    pub kind: CallKind,
    /// Callee simple name.
    pub name: String,
    /// 1-based line of the callee name token.
    pub line: usize,
    /// 1-based column of the callee name token.
    pub col: usize,
    /// True when the call sits inside a `for`/`while`/`loop` body.
    pub in_loop: bool,
    /// Lock receiver paths held at this call site (self-qualified).
    pub held: Vec<String>,
}

/// Alloc-shaped method/associated calls (`.to_vec()`,
/// `Vec::with_capacity(…)`): each allocates on every evaluation.
const ALLOC_METHODS: &[&str] = &["with_capacity", "to_vec", "to_string", "to_owned", "collect"];

/// Types whose `from`/`new` associated constructors allocate.
const ALLOC_TYPES: &[&str] = &["Box", "String", "Vec"];

/// One file's token stream, as the walker sees it.
struct Walk<'a> {
    src: &'a str,
    sig: &'a [Sig<'a>],
    map: &'a LineMap,
    test_ranges: &'a [(usize, usize)],
}

/// A lock held at some point of a function body.
struct HeldLock {
    lock: String,
    /// Brace depth at acquisition; released when the depth drops below.
    depth: usize,
    /// `let` binding name; an unbound temporary is released at the end
    /// of its statement.
    guard: Option<String>,
}

fn lock_names(held: &[HeldLock]) -> Vec<String> {
    held.iter().map(|h| h.lock.clone()).collect()
}

/// Extract the function items and file-level sites of one file. `sig`
/// must be the significant-token stream of `src`; `#[cfg(test)]` code
/// is skipped entirely (tests may panic, hash, and allocate freely, and
/// nothing reachable from a serving entrypoint lives under
/// `#[cfg(test)]`).
pub(crate) fn collect(
    src: &str,
    sig: &[Sig<'_>],
    map: &LineMap,
    test_ranges: &[(usize, usize)],
) -> (Vec<FnItem>, Vec<Site>) {
    let walk = Walk { src, sig, map, test_ranges };
    let mut fns = Vec::new();
    let mut file_sites = Vec::new();
    let mut ctx: Vec<(usize, String)> = Vec::new(); // (body depth, qual)
    let mut depth = 0usize;
    let mut i = 0;
    while i < sig.len() {
        let s = sig[i];
        // Where the walk resumes; every token stepped over on the way
        // is outside any function body.
        let mut next = i + 1;
        match s.text {
            "{" => depth += 1,
            "}" => {
                depth = depth.saturating_sub(1);
                ctx.retain(|&(d, _)| d <= depth);
            }
            "impl" | "trait" if s.tok.kind == TokenKind::Ident => {
                if let Some((qual, open)) = impl_header(sig, i) {
                    depth += 1;
                    if let Some(q) = qual {
                        ctx.push((depth, q));
                    }
                    next = open + 1;
                }
            }
            "fn" if s.tok.kind == TokenKind::Ident && !in_ranges(test_ranges, s.tok.start) => {
                if let Some(open) = locks::body_open(sig, i) {
                    file_sites.extend((i..open).filter_map(|j| walk.site(j, false, &[])));
                    let (item, end) = walk.scan_fn(i, open, ctx.last().map(|(_, q)| q.clone()));
                    fns.push(item);
                    i = end;
                    continue;
                }
            }
            _ => {}
        }
        file_sites.extend((i..next).filter_map(|j| walk.site(j, false, &[])));
        i = next;
    }
    (fns, file_sites)
}

/// Parse an `impl`/`trait` header starting at `sig[at]`: the qualifier
/// type (the `for` type when present) and the index of the body `{`.
/// `None` when the header has no body (`impl Trait for T;` is not
/// valid Rust, but stay total).
fn impl_header(sig: &[Sig<'_>], at: usize) -> Option<(Option<String>, usize)> {
    let mut angle = 0i32;
    let mut qual: Option<String> = None;
    let mut j = at + 1;
    while j < sig.len() {
        let t = sig[j];
        match t.text {
            "<" => angle += 1,
            // `->` in an `impl Fn() -> T` bound must not unbalance.
            ">" if sig.get(j.wrapping_sub(1)).map(|p| p.text) != Some("-") => angle -= 1,
            "{" if angle <= 0 => return Some((qual, j)),
            ";" if angle <= 0 => return None,
            "for" if angle <= 0 => qual = None, // the `for` type wins
            _ if angle <= 0
                && qual.is_none()
                && t.tok.kind == TokenKind::Ident
                && !KEYWORDS.contains(&t.text) =>
            {
                qual = Some(t.text.to_string());
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// Names bound by the parameter list between the fn name and the body
/// `{`: idents immediately followed by `:` at parameter-list depth,
/// outside generics. A call to one of these names invokes a
/// caller-supplied closure, not a workspace function, so it must not
/// become a call edge.
fn param_names(sig: &[Sig<'_>], after_name: usize, open: usize) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    let mut angle = 0i32;
    let mut paren = 0i32;
    let mut j = after_name;
    while j < open {
        let t = sig[j];
        match t.text {
            "<" => angle += 1,
            // `->` in an `impl Fn() -> T` bound must not unbalance.
            ">" if sig.get(j.wrapping_sub(1)).map(|p| p.text) != Some("-") => angle -= 1,
            "(" => paren += 1,
            ")" => {
                paren -= 1;
                if paren == 0 && angle <= 0 {
                    break; // end of the parameter list
                }
            }
            _ if paren == 1
                && angle <= 0
                && t.tok.kind == TokenKind::Ident
                && t.text != "self"
                && !KEYWORDS.contains(&t.text)
                && sig.get(j + 1).map(|n| n.text) == Some(":") =>
            {
                names.insert(t.text.to_string());
            }
            _ => {}
        }
        j += 1;
    }
    names
}

/// Rewrite a `self.…` receiver path with the impl qualifier so lock
/// names compare meaningfully across functions of the same type.
fn qualify_lock(path: &str, qual: Option<&str>) -> String {
    match (path.strip_prefix("self"), qual) {
        (Some(rest), Some(q)) => format!("{q}{rest}"),
        _ => path.to_string(),
    }
}

impl Walk<'_> {
    /// The site at `sig[i]`, if it is one outside `#[cfg(test)]`.
    fn site(&self, i: usize, in_loop: bool, held: &[HeldLock]) -> Option<Site> {
        let s = self.sig[i];
        if s.tok.kind != TokenKind::Ident || in_ranges(self.test_ranges, s.tok.start) {
            return None;
        }
        let kind = site_kind(self.sig, i)?;
        let (line, col) = self.map.line_col(self.src, s.tok.start);
        Some(Site { kind, what: s.text.to_string(), line, col, in_loop, held: lock_names(held) })
    }

    /// Walk the body of the `fn` at `sig[at]` from its `{` at
    /// `sig[open]`; returns the item and the index one past the closing
    /// brace.
    fn scan_fn(&self, at: usize, open: usize, qual: Option<String>) -> (FnItem, usize) {
        let sig = self.sig;
        let name = sig[at + 1];
        let line = self.map.line(name.tok.start);
        let params = param_names(sig, at + 1, open);
        let mut sites = Vec::new();
        let mut calls = Vec::new();
        let mut lock_edges = Vec::new();
        let mut acquires: BTreeSet<String> = BTreeSet::new();
        let mut held: Vec<HeldLock> = Vec::new();
        let mut loop_bodies: Vec<usize> = Vec::new();
        let mut pending_loop: Option<i32> = None;
        let mut depth = 0usize;
        let mut paren = 0i32;
        let mut end = sig.len();
        let mut i = open;
        while i < sig.len() {
            let s = sig[i];
            match s.text {
                "{" => {
                    depth += 1;
                    if pending_loop == Some(paren) {
                        loop_bodies.push(depth);
                        pending_loop = None;
                    }
                }
                "}" => {
                    depth = depth.saturating_sub(1);
                    held.retain(|h| h.depth <= depth);
                    while loop_bodies.last().is_some_and(|&d| d > depth) {
                        loop_bodies.pop();
                    }
                    if depth == 0 {
                        end = i + 1;
                        break;
                    }
                }
                "(" => paren += 1,
                ")" => paren -= 1,
                ";" => held.retain(|h| h.guard.is_some() || h.depth != depth),
                "for" | "while" | "loop" if s.tok.kind == TokenKind::Ident => {
                    pending_loop = Some(paren);
                }
                _ => {}
            }
            // `drop(g)` releases a bound guard early.
            if s.text == "drop"
                && sig.get(i + 1).map(|n| n.text) == Some("(")
                && sig.get(i + 3).map(|n| n.text) == Some(")")
            {
                if let Some(g) = sig.get(i + 2) {
                    held.retain(|h| h.guard.as_deref() != Some(g.text));
                }
            }
            // `<recv>.lock()` acquisition.
            if s.text == "lock"
                && i >= 1
                && sig[i - 1].text == "."
                && sig.get(i + 1).map(|n| n.text) == Some("(")
                && sig.get(i + 2).map(|n| n.text) == Some(")")
            {
                if let Some((path, recv_start)) = locks::receiver_path(sig, i - 1) {
                    let lock = qualify_lock(&path, qual.as_deref());
                    let (line, col) = self.map.line_col(self.src, s.tok.start);
                    for h in held.iter().filter(|h| h.lock != lock) {
                        let (held, acquired) = (h.lock.clone(), lock.clone());
                        lock_edges.push(LockEdge { held, acquired, line, col });
                    }
                    acquires.insert(lock.clone());
                    if !held.iter().any(|h| h.lock == lock) {
                        // `let [mut] g = <recv>.lock()…` binds the guard.
                        let guard = locks::guard_binding(sig, recv_start);
                        held.push(HeldLock { lock, depth, guard });
                    }
                }
            }
            let in_loop = !loop_bodies.is_empty();
            if let Some(site) = self.site(i, in_loop, &held) {
                // I/O-named methods may also resolve to a workspace
                // function (`Storage::read`), so they stay call edges;
                // panic/alloc-shaped names are std-only.
                let std_only = site.kind != SiteKind::Io;
                sites.push(site);
                if std_only {
                    i += 1;
                    continue;
                }
            }
            if s.tok.kind == TokenKind::Ident {
                // `f(x)` where `f` is a parameter invokes a
                // caller-supplied closure: never a workspace edge.
                let kind = call_kind(sig, i)
                    .filter(|k| !(matches!(k, CallKind::Free) && params.contains(s.text)));
                if let Some(kind) = kind {
                    let (line, col) = self.map.line_col(self.src, s.tok.start);
                    let name = s.text.to_string();
                    calls.push(CallSite {
                        kind,
                        name,
                        line,
                        col,
                        in_loop,
                        held: lock_names(&held),
                    });
                }
            }
            i += 1;
        }
        let item = FnItem {
            name: name.text.to_string(),
            qual,
            line,
            sites,
            calls,
            acquires: acquires.into_iter().collect(),
            lock_edges,
        };
        (item, end)
    }
}

/// Classify `sig[i]` as a taint site, if it is one.
fn site_kind(sig: &[Sig<'_>], i: usize) -> Option<SiteKind> {
    let s = sig[i];
    let text_at = |j: usize| sig.get(j).map(|t| t.text);
    let prev = i.checked_sub(1).and_then(text_at);
    let next = text_at(i + 1);
    let method_like = (prev == Some(".") || prev == Some(":")) && next == Some("(");
    match s.text {
        "unwrap" | "expect" if prev == Some(".") && next == Some("(") => Some(SiteKind::Panic),
        "panic" | "unreachable" | "todo" | "unimplemented" if next == Some("!") => {
            Some(SiteKind::Panic)
        }
        "HashMap" | "HashSet" | "SystemTime" | "Instant" => Some(SiteKind::Nondet),
        "env" => {
            let double_colon =
                |a: usize, b: usize| text_at(a) == Some(":") && text_at(b) == Some(":");
            let adjacent = (i >= 2 && double_colon(i - 2, i - 1)) || double_colon(i + 1, i + 2);
            adjacent.then_some(SiteKind::Nondet)
        }
        "current"
            if prev == Some(":")
                && i >= 3
                && text_at(i - 2) == Some(":")
                && text_at(i - 3) == Some("thread") =>
        {
            Some(SiteKind::Nondet)
        }
        "vec" | "format" if next == Some("!") => Some(SiteKind::Alloc),
        m if ALLOC_METHODS.contains(&m) && method_like => Some(SiteKind::Alloc),
        "new" | "from"
            if method_like
                && prev == Some(":")
                && i >= 3
                && text_at(i - 2) == Some(":")
                && sig.get(i - 3).is_some_and(|t| ALLOC_TYPES.contains(&t.text)) =>
        {
            Some(SiteKind::Alloc)
        }
        m if locks::IO_METHODS.contains(&m) && method_like => Some(SiteKind::Io),
        _ => None,
    }
}

/// Classify `sig[i]` as a call edge, if it is one.
fn call_kind(sig: &[Sig<'_>], i: usize) -> Option<CallKind> {
    let s = sig[i];
    if sig.get(i + 1).map(|t| t.text) != Some("(") || KEYWORDS.contains(&s.text) {
        return None;
    }
    let prev = i.checked_sub(1).map(|j| sig[j]);
    match prev.map(|p| p.text) {
        Some("fn") => None, // a nested definition, not a call
        Some(".") => {
            let receiver = i.checked_sub(2).map(|j| sig[j]);
            let self_recv = receiver.is_some_and(|r| r.text == "self")
                && i.checked_sub(3).map(|j| sig[j].text) != Some(".");
            Some(if self_recv { CallKind::SelfMethod } else { CallKind::Method })
        }
        Some(":") if i >= 2 && sig[i - 2].text == ":" => {
            let seg =
                i.checked_sub(3).map(|j| sig[j]).filter(|t| t.tok.kind == TokenKind::Ident)?;
            Some(CallKind::Qualified(seg.text.to_string()))
        }
        _ => Some(CallKind::Free),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::{cfg_test_ranges, significant};
    use crate::lexer::{lex, LineMap};

    fn walk(src: &str) -> (Vec<FnItem>, Vec<Site>) {
        let tokens = lex(src);
        let sig = significant(&tokens, src);
        let ranges = cfg_test_ranges(&sig);
        collect(src, &sig, &LineMap::new(src), &ranges)
    }

    fn items(src: &str) -> Vec<FnItem> {
        walk(src).0
    }

    #[test]
    fn free_method_and_qualified_calls_are_classified() {
        let fns = items("fn f(x: u32) { helper(x); self.step(); obj.run(); util::go(); }");
        assert_eq!(fns.len(), 1);
        let kinds: Vec<(&str, &CallKind)> =
            fns[0].calls.iter().map(|c| (c.name.as_str(), &c.kind)).collect();
        assert_eq!(
            kinds,
            vec![
                ("helper", &CallKind::Free),
                ("step", &CallKind::SelfMethod),
                ("run", &CallKind::Method),
                ("go", &CallKind::Qualified("util".to_string())),
            ]
        );
    }

    #[test]
    fn macros_and_definitions_are_not_calls() {
        let fns = items("fn f() { println!(\"x\"); fn g() {} }");
        assert!(fns[0].calls.is_empty(), "{:?}", fns[0].calls);
    }

    #[test]
    fn closure_parameter_invocations_are_not_calls() {
        let fns = items(
            "fn drain<F: Fn(usize) -> bool>(n: usize, mut shed: F, keep: impl Fn(u32)) {\n    shed(n);\n    keep(0);\n    other(n);\n}",
        );
        let names: Vec<&str> = fns[0].calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["other"], "param-bound closures must not become edges");
        // …but a method call that merely shares a parameter's name still is one.
        let fns = items("fn f(shed: u32, q: &Q) { q.shed(); }");
        assert_eq!(fns[0].calls.len(), 1);
    }

    #[test]
    fn impl_context_becomes_the_qualifier() {
        let fns = items("impl Server { fn start(&self) {} }\nimpl Drop for Pool { fn drop(&mut self) {} }\nfn free() {}");
        let quals: Vec<(&str, Option<&str>)> =
            fns.iter().map(|f| (f.name.as_str(), f.qual.as_deref())).collect();
        assert_eq!(quals, vec![("start", Some("Server")), ("drop", Some("Pool")), ("free", None)]);
    }

    #[test]
    fn generic_impl_headers_resolve_the_type() {
        let fns = items("impl<T: Clone> Wrap<T> { fn get(&self) {} }");
        assert_eq!(fns[0].qual.as_deref(), Some("Wrap"));
    }

    #[test]
    fn panic_nondet_and_alloc_sites_are_collected() {
        let fns = items(
            "fn f(x: Option<u32>) {\n    x.unwrap();\n    let m = HashMap::new();\n    let v = vec![1];\n    let s = n.to_string();\n}",
        );
        let kinds: Vec<(SiteKind, &str)> =
            fns[0].sites.iter().map(|s| (s.kind, s.what.as_str())).collect();
        assert_eq!(
            kinds,
            vec![
                (SiteKind::Panic, "unwrap"),
                (SiteKind::Nondet, "HashMap"),
                (SiteKind::Alloc, "vec"),
                (SiteKind::Alloc, "to_string"),
            ]
        );
    }

    #[test]
    fn sites_outside_every_fn_body_are_file_level() {
        let (fns, file_sites) = walk(
            "use std::collections::HashMap;\nstruct S { m: HashSet<u32> }\nimpl From<Instant> for S {\n    fn from(t: SystemTime) -> S { let v = x.unwrap(); }\n}\n#[cfg(test)]\nmod tests { use std::collections::HashMap; }",
        );
        let whats: Vec<(&str, usize)> =
            file_sites.iter().map(|s| (s.what.as_str(), s.line)).collect();
        assert_eq!(
            whats,
            vec![("HashMap", 1), ("HashSet", 2), ("Instant", 3), ("SystemTime", 4)],
            "use lines, fields, impl headers and signatures; never #[cfg(test)]"
        );
        assert!(file_sites.iter().all(|s| !s.in_loop && s.held.is_empty()));
        assert_eq!(fns[0].sites.len(), 1, "the body's own site stays on the fn");
    }

    #[test]
    fn acquisitions_under_a_held_lock_are_lock_order_edges() {
        let src = "impl S {\n    fn f(&self, o: &O) {\n        let a = self.first.lock();\n        let b = o.second.lock();\n        out.write_all(b);\n    }\n}";
        let f = &items(src)[0];
        let edges: Vec<(&str, &str, usize)> =
            f.lock_edges.iter().map(|e| (e.held.as_str(), e.acquired.as_str(), e.line)).collect();
        assert_eq!(edges, vec![("S.first", "o.second", 4)]);
        let io = f.sites.iter().find(|s| s.kind == SiteKind::Io).unwrap();
        assert_eq!(io.held, vec!["S.first".to_string(), "o.second".to_string()]);
    }

    #[test]
    fn loop_depth_marks_sites_and_calls() {
        let fns = items(
            "fn f(n: usize) {\n    let v = vec![0];\n    for i in 0..n {\n        let w = vec![i];\n        helper(i);\n    }\n    tail();\n}",
        );
        let f = &fns[0];
        assert_eq!(f.sites.iter().map(|s| s.in_loop).collect::<Vec<_>>(), vec![false, true]);
        let by_name: Vec<(&str, bool)> =
            f.calls.iter().map(|c| (c.name.as_str(), c.in_loop)).collect();
        assert_eq!(by_name, vec![("helper", true), ("tail", false)]);
    }

    #[test]
    fn while_let_bodies_count_as_loops() {
        let fns = items("fn f(q: &Q) { while let Some(j) = q.pop() { handle(j); } }");
        let call = fns[0].calls.iter().find(|c| c.name == "handle").unwrap();
        assert!(call.in_loop);
        let pop = fns[0].calls.iter().find(|c| c.name == "pop").unwrap();
        assert!(!pop.in_loop, "the loop condition is evaluated before the body");
    }

    #[test]
    fn held_locks_are_qualified_and_scoped() {
        let src = "impl S {\n    fn f(&self) {\n        let g = self.state.lock().unwrap_or_else(|e| e.into_inner());\n        helper();\n        drop(g);\n        tail();\n    }\n}";
        let fns = items(src);
        let f = &fns[0];
        assert_eq!(f.acquires, vec!["S.state".to_string()]);
        let helper = f.calls.iter().find(|c| c.name == "helper").unwrap();
        assert_eq!(helper.held, vec!["S.state".to_string()]);
        let tail = f.calls.iter().find(|c| c.name == "tail").unwrap();
        assert!(tail.held.is_empty(), "drop(g) releases before tail()");
    }

    #[test]
    fn cfg_test_functions_are_excluded() {
        let fns =
            items("fn real() {}\n#[cfg(test)]\nmod tests {\n    fn fake() { x.unwrap(); }\n}");
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "real");
    }

    #[test]
    fn io_methods_are_both_sites_and_edges() {
        let fns = items("fn f(w: &mut W) { w.write_all(b\"x\").ok(); }");
        assert_eq!(fns[0].sites.iter().filter(|s| s.kind == SiteKind::Io).count(), 1);
        assert!(fns[0].calls.iter().any(|c| c.name == "write_all"));
    }
}
