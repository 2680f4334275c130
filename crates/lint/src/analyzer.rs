//! Site-local rule analysis for one file.
//!
//! The analyzer walks the significant (non-whitespace, non-comment)
//! token stream once and applies the rules whose verdict needs nothing
//! beyond the tokens around the site, as enabled for the file's path
//! (see [`crate::workspace`] for the per-crate map): `indexing`,
//! `unsafe-gate`, `float-total-order`, `tape-free`, `bounded-queue`,
//! `as-truncation` and `unbounded-read` (each documented on its
//! function below and in [`crate::explain`]). The same pass hands the
//! stream to the function-body walker ([`crate::items`]), whose sites
//! and call edges carry the panic, determinism, lock and allocation
//! families ([`crate::taint`]).
//!
//! Code under `#[cfg(test)]` is exempt from every rule (tests may
//! unwrap and may hash) but the unsafe gate.

use crate::findings::Finding;
use crate::items::FileSummary;
use crate::lexer::{lex, LineMap, Token, TokenKind};
use crate::suppress;

/// Which rule families apply to a file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuleSet {
    /// `panic-reach`: deny panicking constructs here and in every
    /// transitive callee of a call made here ([`crate::taint`]).
    pub panic_free: bool,
    /// `indexing`: deny direct slice indexing.
    pub indexing: bool,
    /// `det-taint`: deny nondeterministic sources (hash order, time,
    /// env, thread id) here and in every transitive callee.
    pub determinism: bool,
    /// `lock-order` + `lock-across-call`: feed the cross-file
    /// lock-acquisition graph, and deny blocking I/O (or a re-acquire)
    /// under a held lock, here and in every transitive callee.
    pub lock_discipline: bool,
    /// Deny `unsafe` anywhere in the file, tests included.
    pub unsafe_gate: bool,
    /// Deny float comparators built on `partial_cmp` inside sort/extremum
    /// calls; they order NaN arbitrarily, so output depends on input
    /// permutation. Use `total_cmp`.
    pub float_total_order: bool,
    /// Deny gradient tapes and parameter copies on the serving path:
    /// `Tape`, `.inject(`, and `…params` clones must not appear where
    /// every forward is meant to ride one shared `FrozenParams`
    /// snapshot.
    pub tape_free: bool,
    /// Deny unbounded growth of work-buffering collections on the
    /// serving path: every `.push_back(`/`.push_front(` (and `.push(`
    /// on a queue-like receiver) must sit in a function that visibly
    /// enforces a bound.
    pub bounded_queue: bool,
    /// Deny `as` narrowing of identifier ids to sub-`usize` integer
    /// types — a wrapped id silently aliases another entity.
    pub as_truncation: bool,
    /// Deny whole-file reads (`read_to_end`, `read_to_string`,
    /// `fs::read`) on store/shard load paths: those paths promise
    /// bounded-RAM section streaming, and one convenience read of a
    /// multi-gigabyte shard silently breaks the promise.
    pub unbounded_read: bool,
    /// `alloc-in-hot-loop`: deny allocation-shaped constructs, direct
    /// or via any transitive callee, inside loops of this hot-path file.
    pub alloc_hot_loop: bool,
}

impl RuleSet {
    /// Nothing enabled (still collects suppression diagnostics).
    pub fn none() -> Self {
        RuleSet::default()
    }

    /// Every family enabled — what the seeded golden fixtures use.
    pub fn all() -> Self {
        RuleSet {
            panic_free: true,
            indexing: true,
            determinism: true,
            lock_discipline: true,
            unsafe_gate: true,
            float_total_order: true,
            tape_free: true,
            bounded_queue: true,
            as_truncation: true,
            unbounded_read: true,
            alloc_hot_loop: true,
        }
    }
}

/// Keywords that can legitimately precede `[` without it being an
/// indexing expression (slice patterns, `for … in xs[..]` never parses
/// that way, etc.).
pub(crate) const KEYWORDS: &[&str] = &[
    "as", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern", "fn", "for",
    "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref", "return",
    "static", "struct", "super", "trait", "type", "unsafe", "use", "where", "while",
];

/// A significant token: index into the full stream plus its slice.
#[derive(Clone, Copy)]
pub(crate) struct Sig<'s> {
    pub(crate) tok: Token,
    pub(crate) text: &'s str,
}

/// The significant (non-whitespace, non-comment) tokens of `src`.
pub(crate) fn significant<'s>(tokens: &[Token], src: &'s str) -> Vec<Sig<'s>> {
    tokens
        .iter()
        .filter(|t| {
            !matches!(
                t.kind,
                TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
            )
        })
        .map(|&tok| Sig { tok, text: tok.text(src) })
        .collect()
}

/// Byte ranges covered by `#[cfg(test)]` items.
pub(crate) fn cfg_test_ranges(sig: &[Sig<'_>]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i + 6 < sig.len() {
        let is_attr = sig[i].text == "#"
            && sig[i + 1].text == "["
            && sig[i + 2].text == "cfg"
            && sig[i + 3].text == "("
            && sig[i + 4].text == "test"
            && sig[i + 5].text == ")"
            && sig[i + 6].text == "]";
        if !is_attr {
            i += 1;
            continue;
        }
        // The attribute governs the next item; skip to its body brace.
        // A `;` before any `{` means a braceless item — nothing to skip.
        let mut j = i + 7;
        let mut body = None;
        while j < sig.len() {
            match sig[j].text {
                ";" => break,
                "{" => {
                    body = Some(j);
                    break;
                }
                _ => j += 1,
            }
        }
        if let Some(open) = body {
            let mut depth = 0usize;
            let mut k = open;
            while k < sig.len() {
                match sig[k].text {
                    "{" => depth += 1,
                    "}" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            let end = sig.get(k).map_or(usize::MAX, |s| s.tok.end);
            ranges.push((sig[i].tok.start, end));
            i = k.min(sig.len());
        }
        i += 1;
    }
    ranges
}

pub(crate) fn in_ranges(ranges: &[(usize, usize)], offset: usize) -> bool {
    ranges.iter().any(|&(s, e)| offset >= s && offset < e)
}

/// Analyze one file: its site-local findings (suppression hygiene
/// included; allow-filtered, sorted), and the summary the cross-file
/// passes consume — function items with call edges, sites and
/// lock-order edges, file-level sites, and the allow lines.
pub(crate) fn summarize_file(file: &str, src: &str, rules: RuleSet) -> (FileSummary, Vec<Finding>) {
    let tokens = lex(src);
    let map = LineMap::new(src);
    let (suppressions, mut findings) = suppress::collect(file, src, &tokens, &map);
    let sig = significant(&tokens, src);
    let test_ranges = cfg_test_ranges(&sig);

    let mut emit = |rule: &'static str, tok: Token, message: String| {
        let (line, col) = map.line_col(src, tok.start);
        if suppressions.allows(rule, line) {
            return;
        }
        findings.push(Finding {
            rule,
            file: file.to_string(),
            line,
            col,
            message,
            excerpt: tok.text(src).to_string(),
        });
    };

    for (i, s) in sig.iter().enumerate() {
        if rules.unsafe_gate && s.tok.kind == TokenKind::Ident && s.text == "unsafe" {
            emit(
                "unsafe-gate",
                s.tok,
                "`unsafe` is denied workspace-wide; find a safe formulation".to_string(),
            );
        }
        if in_ranges(&test_ranges, s.tok.start) {
            continue;
        }
        if rules.indexing {
            indexing_rule(&sig, i, &mut emit);
        }
        if rules.float_total_order {
            float_order_rules(&sig, i, &mut emit);
        }
        if rules.tape_free {
            tape_free_rules(&sig, i, &mut emit);
        }
        if rules.bounded_queue {
            bounded_queue_rules(&sig, i, &mut emit);
        }
        if rules.as_truncation {
            as_truncation_rules(&sig, i, &mut emit);
        }
        if rules.unbounded_read {
            unbounded_read_rules(&sig, i, &mut emit);
        }
    }
    findings.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    let (fns, file_sites) = crate::items::collect(src, &sig, &map, &test_ranges);
    (FileSummary { fns, file_sites, suppressions }, findings)
}

/// Direct indexing: `expr[…]` where expr ends in an identifier (not a
/// keyword), `)`, or `]`. Type positions (`: [u8; 4]`), attributes
/// (`#[…]`), macros (`vec![…]`), and patterns (`let [a, b]`) all have a
/// different preceding token and are not matched.
fn indexing_rule(sig: &[Sig<'_>], i: usize, emit: &mut impl FnMut(&'static str, Token, String)) {
    let s = &sig[i];
    if s.text != "[" || s.tok.kind != TokenKind::Punct {
        return;
    }
    let indexable = i.checked_sub(1).map(|j| sig[j]).is_some_and(|p| {
        (p.tok.kind == TokenKind::Ident && !KEYWORDS.contains(&p.text))
            || p.text == ")"
            || p.text == "]"
    });
    if indexable {
        emit(
            "indexing",
            s.tok,
            "direct indexing can panic out-of-bounds; use `.get(…)` or prove the bound".to_string(),
        );
    }
}

/// Sorting/extremum methods whose comparator closure we inspect for
/// `partial_cmp`.
const ORDERED_BY: &[&str] = &["sort_by", "sort_unstable_by", "max_by", "min_by"];

fn float_order_rules(
    sig: &[Sig<'_>],
    i: usize,
    emit: &mut impl FnMut(&'static str, Token, String),
) {
    let s = &sig[i];
    // `.sort_by(` — a method call, not a bare identifier or definition.
    if s.tok.kind != TokenKind::Ident
        || !ORDERED_BY.contains(&s.text)
        || i == 0
        || sig[i - 1].text != "."
        || sig.get(i + 1).map(|t| t.text) != Some("(")
    {
        return;
    }
    // Scan the balanced argument span for `partial_cmp`.
    let mut depth = 0usize;
    for t in &sig[i + 1..] {
        match t.text {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            "partial_cmp" if t.tok.kind == TokenKind::Ident => {
                emit(
                    "float-total-order",
                    s.tok,
                    format!(
                        "`{}` comparator uses `partial_cmp`, which orders NaN arbitrarily and \
                         makes the result depend on input permutation; use `f64::total_cmp`",
                        s.text
                    ),
                );
                return;
            }
            _ => {}
        }
    }
}

/// Tape-free serving: the serving path shares one immutable
/// `FrozenParams` snapshot, so a gradient tape there records a node
/// per op for a backward that never runs, and a parameter copy is the
/// per-forward cost the frozen forward exists to remove. Flags the
/// `Tape` type, `.inject(` (which registers every parameter as a leaf
/// of a tape — it borrows them, but what it starts is a training
/// graph), `.clone()` whose receiver is an identifier ending in
/// `params`, and explicit `Params::clone(`.
fn tape_free_rules(sig: &[Sig<'_>], i: usize, emit: &mut impl FnMut(&'static str, Token, String)) {
    let s = &sig[i];
    if s.tok.kind != TokenKind::Ident {
        return;
    }
    let text_at = |j: usize| sig.get(j).map(|t| t.text);
    let prev = i.checked_sub(1).and_then(text_at);
    let next = text_at(i + 1);
    match s.text {
        "Tape" => emit(
            "tape-free",
            s.tok,
            "`Tape` allocation on the tape-free serving path; use the frozen forward \
             (`FrozenParams` + `mb_tensor::frozen`) instead"
                .to_string(),
        ),
        "inject" if prev == Some(".") && next == Some("(") => emit(
            "tape-free",
            s.tok,
            "`.inject()` starts a training graph (every parameter a tape leaf, every op a \
             recorded node); freeze the parameters once and run the frozen forward over the \
             `FrozenParams` snapshot"
                .to_string(),
        ),
        "clone" if prev == Some(".") && next == Some("(") => {
            let receiver_is_params = i
                .checked_sub(2)
                .map(|j| sig[j])
                .is_some_and(|r| r.tok.kind == TokenKind::Ident && r.text.ends_with("params"));
            if receiver_is_params {
                emit(
                    "tape-free",
                    s.tok,
                    "parameter clone on the tape-free serving path; share one `FrozenParams` \
                     snapshot instead of copying tensors"
                        .to_string(),
                );
            }
        }
        // `::` lexes as two `:` puncts.
        "Params"
            if next == Some(":")
                && text_at(i + 2) == Some(":")
                && text_at(i + 3) == Some("clone") =>
        {
            emit(
                "tape-free",
                s.tok,
                "`Params::clone` on the tape-free serving path; share one `FrozenParams` \
                 snapshot instead of copying tensors"
                    .to_string(),
            );
        }
        _ => {}
    }
}

/// Receiver identifiers that name work-buffering collections on the
/// serving path; a bare `.push(` on one of these is queue growth.
const QUEUE_RECEIVERS: &[&str] = &["queue", "pending", "backlog", "jobs", "inflight", "batch"];

/// Whether the function enclosing token `i` visibly enforces a bound:
/// any identifier between the nearest `fn` tokens mentions `capacity`
/// (`with_capacity`, `queue_capacity`, a `capacity` field check),
/// `truncate`, or `max_batch`.
fn fn_window_has_bound(sig: &[Sig<'_>], i: usize) -> bool {
    let start = sig[..i].iter().rposition(|t| t.text == "fn").unwrap_or(0);
    let end =
        sig[i + 1..].iter().position(|t| t.text == "fn").map(|p| i + 1 + p).unwrap_or(sig.len());
    sig[start..end].iter().any(|t| {
        t.tok.kind == TokenKind::Ident
            && (t.text.contains("capacity")
                || t.text.contains("truncate")
                || t.text.contains("max_batch"))
    })
}

/// Bounded-queue discipline: an unbounded `push_back`/`push_front`
/// (or `push` onto a queue-like receiver) on the serving path grows
/// without limit under overload — exactly the buffer bloat the
/// admission gate and the bounded `BatchQueue` in mb-serve exist to
/// prevent. The enclosing function must show its bound.
fn bounded_queue_rules(
    sig: &[Sig<'_>],
    i: usize,
    emit: &mut impl FnMut(&'static str, Token, String),
) {
    let s = &sig[i];
    if s.tok.kind != TokenKind::Ident
        || i == 0
        || sig[i - 1].text != "."
        || sig.get(i + 1).map(|t| t.text) != Some("(")
    {
        return;
    }
    let unbounded = match s.text {
        "push_back" | "push_front" => true,
        "push" => i
            .checked_sub(2)
            .map(|j| sig[j])
            .is_some_and(|r| r.tok.kind == TokenKind::Ident && QUEUE_RECEIVERS.contains(&r.text)),
        _ => false,
    };
    if unbounded && !fn_window_has_bound(sig, i) {
        emit(
            "bounded-queue",
            s.tok,
            format!(
                "`.{}()` grows a work buffer without a visible bound; check a capacity (or \
                 truncate) in this function, or shed instead of queueing",
                s.text
            ),
        );
    }
}

/// Integer types an id must not be `as`-cast into: every id in the
/// workspace is `usize`-like, and a narrowing cast wraps silently once
/// the entity space outgrows the target (aliasing another id).
const NARROW_INTS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

fn as_truncation_rules(
    sig: &[Sig<'_>],
    i: usize,
    emit: &mut impl FnMut(&'static str, Token, String),
) {
    let s = &sig[i];
    if s.tok.kind != TokenKind::Ident || s.text != "as" {
        return;
    }
    let Some(ty) = sig.get(i + 1) else { return };
    if !NARROW_INTS.contains(&ty.text) {
        return;
    }
    // The cast source must be an id-flavoured identifier — `id`,
    // `entity_id`, `…Id` — or the `.0` field of one (newtype ids).
    let id_like = |t: Sig<'_>| {
        t.tok.kind == TokenKind::Ident
            && (t.text == "id" || t.text.ends_with("_id") || t.text.ends_with("Id"))
    };
    let Some(prev) = i.checked_sub(1).map(|j| sig[j]) else { return };
    let truncates_id = id_like(prev)
        || (prev.text == "0" && i >= 3 && sig[i - 2].text == "." && id_like(sig[i - 3]));
    if truncates_id {
        emit(
            "as-truncation",
            s.tok,
            format!(
                "`as {}` silently wraps an id once the space outgrows {}; use `TryFrom` (reject) \
                 or keep the id wide",
                ty.text, ty.text
            ),
        );
    }
}

/// Whole-file reads on a bounded-RAM load path. Flags
/// `.read_to_end(`/`.read_to_string(` method calls and `fs::read(` /
/// `fs::read_to_string(` free calls: shard and manifest loads must
/// verify sections in fixed-size chunks and seek per record, never
/// materialize a file.
fn unbounded_read_rules(
    sig: &[Sig<'_>],
    i: usize,
    emit: &mut impl FnMut(&'static str, Token, String),
) {
    let s = &sig[i];
    if s.tok.kind != TokenKind::Ident || sig.get(i + 1).map(|t| t.text) != Some("(") {
        return;
    }
    let prev = i.checked_sub(1).map(|j| sig[j].text);
    let method_read = prev == Some(".") && matches!(s.text, "read_to_end" | "read_to_string");
    // `::` lexes as two `:` puncts, so `fs::read(` is `fs : : read (`.
    let fs_read = matches!(s.text, "read" | "read_to_string")
        && prev == Some(":")
        && i.checked_sub(2).map(|j| sig[j].text) == Some(":")
        && i.checked_sub(3)
            .map(|j| sig[j])
            .is_some_and(|r| r.tok.kind == TokenKind::Ident && r.text == "fs");
    if method_read || fs_read {
        emit(
            "unbounded-read",
            s.tok,
            format!(
                "`{}` materializes a whole file on a bounded-RAM load path; stream the \
                 section in fixed-size chunks (or seek + `read_exact` a known length)",
                s.text
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole single-file pipeline with every family on, so the
    /// site-local rules are seen beside the taint families' depth-0
    /// findings.
    fn run(src: &str) -> Vec<Finding> {
        crate::lint_sources(&[("t.rs".to_string(), src.to_string())], |_| RuleSet::all())
    }

    fn rules_of(src: &str) -> Vec<&'static str> {
        run(src).into_iter().map(|f| f.rule).collect()
    }

    #[test]
    fn unwrap_expect_and_macros_fire() {
        assert_eq!(rules_of("fn f() { x.unwrap(); }"), vec!["panic-reach"]);
        assert_eq!(rules_of("fn f() { x.expect(\"m\"); }"), vec!["panic-reach"]);
        assert_eq!(rules_of("fn f() { panic!(\"m\"); }"), vec!["panic-reach"]);
        assert_eq!(rules_of("fn f() { unreachable!(); }"), vec!["panic-reach"]);
        // Outside any fn body too: a `static` initialiser runs on first use.
        assert_eq!(rules_of("static X: u32 = parse(\"1\").unwrap();"), vec!["panic-reach"]);
    }

    #[test]
    fn expect_as_a_field_or_fn_name_does_not_fire() {
        assert!(rules_of("fn expect() {}").is_empty());
        assert!(rules_of("let expect = 3; let y = expect + 1;").is_empty());
        assert!(rules_of("s.unwrap_or_else(|e| e.into_inner())").is_empty());
    }

    #[test]
    fn indexing_heuristic() {
        assert_eq!(rules_of("fn f() { let y = xs[0]; }"), vec!["indexing"]);
        assert_eq!(rules_of("fn f() { g()[1] }"), vec!["indexing"]);
        assert_eq!(rules_of("fn f() { m[0][1] }"), vec!["indexing", "indexing"]);
        assert!(rules_of("#[derive(Debug)] struct S;").is_empty());
        assert!(rules_of("fn f() { let v = vec![1, 2]; }").is_empty());
        assert!(rules_of("fn f(x: [u8; 4]) -> [u8; 4] { x }").is_empty());
        assert!(rules_of("fn f() { let [a, b] = pair; }").is_empty());
    }

    #[test]
    fn determinism_idents_fire_outside_strings() {
        assert_eq!(rules_of("use std::collections::HashMap;"), vec!["det-taint"]);
        assert_eq!(rules_of("struct S { seen: HashSet<u32> }"), vec!["det-taint"]);
        assert_eq!(rules_of("fn f(m: &HashMap<u32, u32>) {}"), vec!["det-taint"]);
        assert_eq!(rules_of("let t = Instant::now();"), vec!["det-taint"]);
        assert_eq!(rules_of("let p = std::env::temp_dir();"), vec!["det-taint"]);
        assert!(rules_of("let s = \"HashMap Instant std::env\";").is_empty());
        assert!(rules_of("// HashMap in a comment\n").is_empty());
        assert!(rules_of("fn f(env: u32) -> u32 { env }").is_empty());
    }

    #[test]
    fn float_total_order_fires_on_partial_cmp_comparators() {
        assert_eq!(
            rules_of("fn f() { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }"),
            vec!["float-total-order", "panic-reach"]
        );
        assert_eq!(
            rules_of("fn f() { v.sort_unstable_by(|a, b| b.1.partial_cmp(&a.1).expect(\"m\")); }"),
            vec!["float-total-order", "panic-reach"]
        );
        assert_eq!(
            rules_of("fn f() { let m = v.iter().max_by(|a, b| a.partial_cmp(b).unwrap()); }"),
            vec!["float-total-order", "panic-reach"]
        );
        // total_cmp comparators and partial_cmp outside a sort are clean.
        assert!(rules_of("fn f() { v.sort_by(|a, b| a.total_cmp(b)); }").is_empty());
        assert!(rules_of("fn f() { let o = a.partial_cmp(&b); }").is_empty());
        // `sort_by` as a definition or bare identifier is not a call site.
        assert!(rules_of("fn sort_by() { partial_cmp(); }").is_empty());
    }

    #[test]
    fn tape_free_flags_tape_inject_and_params_clones() {
        assert_eq!(rules_of("fn f() { let mut t = Tape::new(); }"), vec!["tape-free"]);
        assert_eq!(rules_of("fn f() { let h = tape.inject(&params); }"), vec!["tape-free"]);
        assert_eq!(rules_of("fn f() { let p = params.clone(); }"), vec!["tape-free"]);
        assert_eq!(rules_of("fn f() { let p = bi_params.clone(); }"), vec!["tape-free"]);
        assert_eq!(rules_of("fn f() { let p = Params::clone(ps); }"), vec!["tape-free"]);
    }

    #[test]
    fn tape_free_leaves_legitimate_code_alone() {
        // Cloning a frozen handle is an Arc bump, not a tensor copy.
        assert!(rules_of("fn f() { let b = frozen_bi.clone(); }").is_empty());
        // `FrozenParams` is one identifier token, not `Params`.
        assert!(rules_of("fn f(p: &FrozenParams) { let q = FrozenParams::freeze(ps); }").is_empty());
        // A type mention of `Params` without `::clone` is fine.
        assert!(rules_of("fn f(p: &Params) -> usize { p.len() }").is_empty());
        // Strings and comments never fire.
        assert!(rules_of("fn f() { let s = \"Tape params.clone()\"; }").is_empty());
        assert!(rules_of("// Tape and params.clone() in prose\n").is_empty());
        // Tests may build tapes to pin the frozen forward against.
        let src = "#[cfg(test)]\nmod tests {\n    fn f() { let t = Tape::new(); }\n}\n";
        assert!(rules_of(src).is_empty());
    }

    #[test]
    fn bounded_queue_flags_unbounded_growth() {
        assert_eq!(rules_of("fn f() { q.items.push_back(item); }"), vec!["bounded-queue"]);
        assert_eq!(rules_of("fn f() { deque.push_front(item); }"), vec!["bounded-queue"]);
        assert_eq!(rules_of("fn f() { self.pending.push(job); }"), vec!["bounded-queue"]);
        assert_eq!(rules_of("fn f() { queue.push(job); }"), vec!["bounded-queue"]);
    }

    #[test]
    fn bounded_queue_accepts_visible_bounds_and_plain_vecs() {
        // A capacity check in the same function is the bound.
        assert!(rules_of(
            "fn f(&self) { if s.items.len() >= self.capacity { return; } s.items.push_back(it); }"
        )
        .is_empty());
        assert!(rules_of("fn f() { jobs.push(j); jobs.truncate(max); }").is_empty());
        assert!(rules_of("fn f(max_batch: usize) { batch.push(job); }").is_empty());
        // Non-queue receivers may push freely (string building etc.).
        assert!(rules_of("fn f() { out.push('x'); headers.push(h); }").is_empty());
        // The bound must be in the same function, not a neighbour.
        assert_eq!(
            rules_of("fn a(capacity: usize) {}\nfn b() { queue.push(job); }"),
            vec!["bounded-queue"]
        );
    }

    #[test]
    fn as_truncation_flags_narrowing_id_casts() {
        assert_eq!(rules_of("fn f() { let x = id as u32; }"), vec!["as-truncation"]);
        assert_eq!(rules_of("fn f() { let x = entity_id as u16; }"), vec!["as-truncation"]);
        assert_eq!(rules_of("fn f() { buf.write(mention_id as u8) }"), vec!["as-truncation"]);
        // Newtype ids cast through their `.0` field.
        assert_eq!(rules_of("fn f(e: EntityId) { let x = entity_id.0 as u32; }"), {
            vec!["as-truncation"]
        });
    }

    #[test]
    fn as_truncation_leaves_widening_and_non_ids_alone() {
        // Widening or same-width targets are safe.
        assert!(rules_of("fn f() { let x = id as u64; let y = id as usize; }").is_empty());
        // Non-id identifiers (including ones merely containing "id").
        assert!(rules_of("fn f() { let x = count as u32; let v = valid as u8; }").is_empty());
        assert!(rules_of("fn f() { let w = width as u16; }").is_empty());
        // `as` in paths/imports does not match.
        assert!(rules_of("use std::io::Error as IoError;").is_empty());
    }

    #[test]
    fn unbounded_read_flags_whole_file_loads() {
        assert_eq!(rules_of("fn f() { file.read_to_end(&mut buf)?; }"), vec!["unbounded-read"]);
        assert_eq!(rules_of("fn f() { file.read_to_string(&mut s)?; }"), vec!["unbounded-read"]);
        assert_eq!(rules_of("fn f() { let b = std::fs::read(path)?; }"), vec!["unbounded-read"]);
        assert_eq!(
            rules_of("fn f() { let s = fs::read_to_string(path)?; }"),
            vec!["unbounded-read"]
        );
    }

    #[test]
    fn unbounded_read_leaves_streaming_reads_alone() {
        assert!(rules_of("fn f() { file.read_exact(&mut chunk)?; }").is_empty());
        assert!(rules_of("fn f() { let n = file.read(&mut chunk)?; }").is_empty());
        // `read` not rooted at an `fs` path segment is not a whole-file load.
        assert!(rules_of("fn f() { let v = Reader::read(x); }").is_empty());
    }

    #[test]
    fn cfg_test_is_exempt_except_unsafe() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f() { x.unwrap(); }\n}\n";
        assert!(rules_of(src).is_empty());
        let src = "#[cfg(test)]\nmod tests {\n    fn f() { unsafe { g() } }\n}\n";
        assert_eq!(rules_of(src), vec!["unsafe-gate"]);
    }

    #[test]
    fn suppression_silences_exactly_its_rule() {
        let src = "fn f() { x.unwrap(); } // mb-lint: allow(panic-reach) -- bootstrapping only\n";
        assert!(rules_of(src).is_empty());
        let src = "fn f() { x.unwrap(); } // mb-lint: allow(indexing) -- wrong rule\n";
        assert_eq!(rules_of(src), vec!["panic-reach"]);
    }

    #[test]
    fn findings_are_sorted_and_located() {
        let f = run("fn f() {\n    x.unwrap();\n}\n");
        assert_eq!(f.len(), 1);
        assert_eq!((f[0].line, f[0].col), (2, 7));
        assert_eq!(f[0].excerpt, "unwrap");
    }
}
