//! Property test of the taint families' spans: every finding's
//! `(line, col, excerpt)` slices its source file exactly — witness
//! anchors must point at the real site, call or allocation token, or
//! editors and reviewers land in the wrong place.

use mb_check::gen;
use mb_check::prop_assert_eq;
use mb_lint::{lint_sources, RuleSet};

/// Pool of mini-workspace files: violating, audited, and clean
/// variants across all four interprocedural rules, plus cross-file
/// chains. Paths are distinct so any subset forms a valid workspace.
const POOL: &[(&str, &str)] = &[
    (
        "crates/serve/src/entry.rs",
        "pub fn handle(x: Option<u32>) -> u32 { step(x) }\nfn step(x: Option<u32>) -> u32 { x.unwrap() }\n",
    ),
    (
        "crates/serve/src/relay.rs",
        "pub fn relay(x: Option<u32>) -> u32 { helper_far(x) }\n",
    ),
    (
        "crates/core/src/helpers.rs",
        "pub fn helper_far(x: Option<u32>) -> u32 { x.expect(\"far\") }\n",
    ),
    (
        "crates/core/src/replay.rs",
        "pub fn reweight() -> usize { stats() }\nfn stats() -> usize { std::collections::HashMap::<u32, u32>::new().len() }\n",
    ),
    (
        "crates/tensor/src/kernels.rs",
        "pub fn gemm(n: usize) -> usize {\n    let mut t = 0;\n    for i in 0..n {\n        let s = format!(\"{i}\");\n        t += s.len();\n    }\n    t\n}\n",
    ),
    (
        "crates/serve/src/locked.rs",
        "use std::io::Write;\nuse std::sync::Mutex;\npub struct S { state: Mutex<u32> }\nimpl S {\n    pub fn go(&self, w: &mut impl Write) {\n        let g = self.state.lock();\n        self.out(w);\n        drop(g);\n    }\n    fn out(&self, w: &mut impl Write) { let _ = w.write_all(b\"x\"); }\n}\n",
    ),
    (
        "crates/serve/src/audited.rs",
        "pub fn ok(x: Option<u32>) -> u32 {\n    // mb-lint: allow(panic-reach) -- property fixture boundary\n    step_a(x)\n}\nfn step_a(x: Option<u32>) -> u32 { x.unwrap() }\n",
    ),
    (
        "crates/serve/src/clean.rs",
        "pub fn fine(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n",
    ),
    (
        "crates/core/src/ordered.rs",
        "pub fn fine() -> usize { std::collections::BTreeMap::<u32, u32>::new().len() }\n",
    ),
];

/// The four taint families on, the site-local rules off.
fn taint_rules() -> RuleSet {
    RuleSet {
        panic_free: true,
        determinism: true,
        lock_discipline: true,
        alloc_hot_loop: true,
        ..RuleSet::none()
    }
}

/// The pool subset named by `idxs` (deduplicated, sorted-path order
/// like a real run).
fn build_subset(idxs: &[usize]) -> Vec<(String, String)> {
    let mut picked: Vec<usize> = idxs.iter().map(|&i| i % POOL.len()).collect();
    picked.sort_unstable();
    picked.dedup();
    let mut files: Vec<(String, String)> =
        picked.into_iter().map(|i| (POOL[i].0.to_string(), POOL[i].1.to_string())).collect();
    files.sort();
    files
}

mb_check::check! {
    #![config(cases = 128)]

    fn interproc_spans_slice_source_exactly(
        idxs in gen::vec_of(gen::usize_in(0..9), 1..9),
    ) {
        let findings = lint_sources(&build_subset(&idxs), |_| taint_rules());
        for f in &findings {
            let (_, src) = POOL
                .iter()
                .find(|(p, _)| *p == f.file)
                .unwrap_or_else(|| panic!("finding in unknown file {}", f.file));
            let line = src
                .lines()
                .nth(f.line - 1)
                .unwrap_or_else(|| panic!("{}:{} out of range", f.file, f.line));
            let got: String =
                line.chars().skip(f.col - 1).take(f.excerpt.chars().count()).collect();
            prop_assert_eq!(
                &got,
                &f.excerpt,
                "{}:{}:{} does not slice to the excerpt",
                f.file,
                f.line,
                f.col
            );
        }
    }
}
