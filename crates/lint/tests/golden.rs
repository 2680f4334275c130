//! Golden-file tests: seeded fixtures per rule family, asserting the
//! exact findings (rule, line, column) the full pipeline produces —
//! positives fire at the site and through calls, justified suppressions
//! silence, clean code and `#[cfg(test)]` bodies stay quiet — plus the
//! JSON report shape and end-to-end runs of the `mb-lint` binary
//! against seeded-violation and clean miniature workspaces.

use mb_lint::findings::to_json;
use mb_lint::{lint_sources, Finding, RuleSet};

/// Lint one fixture as if it were a protected `src/` file with `rules`
/// enabled.
fn golden(name: &str, rules: RuleSet) -> Vec<Finding> {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    lint_sources(&[(format!("crates/x/src/{name}"), src)], |_| rules)
}

fn spans(findings: &[Finding]) -> Vec<(&'static str, usize, usize)> {
    findings.iter().map(|f| (f.rule, f.line, f.col)).collect()
}

#[test]
fn panic_freedom_golden() {
    let rules = RuleSet { panic_free: true, indexing: true, ..RuleSet::none() };
    assert_eq!(
        spans(&golden("panic.rs", rules)),
        vec![
            ("panic-reach", 3, 23),
            ("panic-reach", 4, 23),
            ("panic-reach", 5, 17),
            ("indexing", 6, 14)
        ],
        "suppressed (line 12), clean (line 16), and #[cfg(test)] uses must stay silent"
    );
    let rules = RuleSet { panic_free: true, ..RuleSet::none() };
    let found = golden("interproc_panic.rs", rules);
    assert_eq!(
        spans(&found),
        vec![("panic-reach", 5, 5), ("panic-reach", 9, 5), ("panic-reach", 13, 7)],
        "two calls and the site they reach; audited (line 18) and fixed (line 22) stay silent"
    );
    assert!(found[0].message.contains("unwrap"), "witness path: {}", found[0].message);
    assert!(found[0].message.contains("deep"), "witness path: {}", found[0].message);
}

#[test]
fn determinism_golden() {
    let rules = RuleSet { determinism: true, ..RuleSet::none() };
    assert_eq!(
        spans(&golden("determinism.rs", rules)),
        vec![
            ("det-taint", 3, 23),
            ("det-taint", 6, 12),
            ("det-taint", 6, 32),
            ("det-taint", 7, 25),
            ("det-taint", 8, 25),
            ("det-taint", 9, 19),
        ],
        "the suppressed HashSet (line 14) and BTreeMap (line 19) must stay silent"
    );
    let found = golden("interproc_det.rs", rules);
    assert_eq!(
        spans(&found),
        vec![("det-taint", 5, 5), ("det-taint", 9, 31)],
        "the call and the HashMap it reaches; audited (line 15) and BTreeMap-backed (line 19) \
         stay silent"
    );
    assert!(found[0].message.contains("HashMap"), "witness path: {}", found[0].message);
}

#[test]
fn lock_discipline_golden() {
    let rules = RuleSet { lock_discipline: true, ..RuleSet::none() };
    let found = golden("locks.rs", rules);
    assert_eq!(
        spans(&found),
        vec![("lock-across-call", 12, 7), ("lock-order", 18, 17), ("lock-order", 25, 17)],
        "clean_scoped must not contribute an edge (its locks never overlap)"
    );
    let cycle: Vec<&str> = found[1..].iter().map(|f| f.excerpt.as_str()).collect();
    assert_eq!(cycle, vec!["s.a -> s.b", "s.b -> s.a"]);
    let found = golden("interproc_lock.rs", rules);
    assert_eq!(
        spans(&found),
        vec![("lock-across-call", 15, 14), ("lock-across-call", 25, 14)],
        "audited (line 35) and release-first (line 42) variants must stay silent"
    );
    assert!(found[0].message.contains("I/O"), "{}", found[0].message);
    assert!(found[1].message.contains("re-acquires"), "{}", found[1].message);
}

#[test]
fn alloc_in_hot_loop_golden() {
    let rules = RuleSet { alloc_hot_loop: true, ..RuleSet::none() };
    let found = golden("interproc_alloc.rs", rules);
    assert_eq!(
        spans(&found),
        vec![("alloc-in-hot-loop", 8, 20), ("alloc-in-hot-loop", 20, 17)],
        "audited (line 30) and hoisted (line 36) variants must stay silent"
    );
    assert!(found[0].message.contains("vec"), "witness path: {}", found[0].message);
}

#[test]
fn unsafe_gate_golden() {
    let found = golden("unsafe.rs", RuleSet { unsafe_gate: true, ..RuleSet::none() });
    assert_eq!(spans(&found), vec![("unsafe-gate", 3, 5)], "the justified unsafe must be silent");
}

#[test]
fn suppression_hygiene_golden() {
    // Suppression hygiene is checked regardless of enabled families.
    let found = golden("suppression.rs", RuleSet::none());
    assert_eq!(
        spans(&found),
        vec![
            ("suppression", 3, 5),
            ("suppression", 4, 5),
            ("suppression", 5, 5),
            ("suppression", 6, 5),
        ]
    );
    assert!(found[0].message.contains("justification"), "{}", found[0].message);
    assert!(found[1].message.contains("empty"), "{}", found[1].message);
    assert!(found[2].message.contains("no-such-rule"), "{}", found[2].message);
    assert!(found[3].message.contains("allow"), "{}", found[3].message);
}

#[test]
fn float_total_order_golden() {
    let found = golden("float_order.rs", RuleSet { float_total_order: true, ..RuleSet::none() });
    assert_eq!(
        spans(&found),
        vec![
            ("float-total-order", 4, 7),
            ("float-total-order", 5, 11),
            ("float-total-order", 6, 22),
            ("float-total-order", 7, 22),
        ],
        "suppressed (line 12), total_cmp (line 17), bare partial_cmp (line 18), \
         and #[cfg(test)] uses must stay silent"
    );
    assert!(found[0].message.contains("total_cmp"), "{}", found[0].message);
}

#[test]
fn tape_free_golden() {
    let found = golden("tape_free.rs", RuleSet { tape_free: true, ..RuleSet::none() });
    assert_eq!(
        spans(&found),
        vec![
            ("tape-free", 3, 25),
            ("tape-free", 4, 17),
            ("tape-free", 5, 18),
            ("tape-free", 6, 20),
            ("tape-free", 7, 23),
            ("tape-free", 8, 13),
        ],
        "suppressed (line 13), frozen-handle clones (lines 17-19), and #[cfg(test)] \
         tape uses must stay silent"
    );
    assert!(found[0].message.contains("FrozenParams"), "{}", found[0].message);
}

#[test]
fn bounded_queue_golden() {
    let found = golden("bounded_queue.rs", RuleSet { bounded_queue: true, ..RuleSet::none() });
    assert_eq!(
        spans(&found),
        vec![
            ("bounded-queue", 4, 13),
            ("bounded-queue", 5, 11),
            ("bounded-queue", 6, 18),
            ("bounded-queue", 7, 10),
        ],
        "suppressed (line 12), capacity-checked (line 19), truncating (line 24), \
         max_batch (line 28), non-queue pushes (lines 32-33), and #[cfg(test)] \
         pushes must stay silent"
    );
    assert!(found[0].message.contains("bound"), "{}", found[0].message);
}

#[test]
fn as_truncation_golden() {
    let found = golden("as_truncation.rs", RuleSet { as_truncation: true, ..RuleSet::none() });
    assert_eq!(
        spans(&found),
        vec![("as-truncation", 4, 16), ("as-truncation", 5, 23), ("as-truncation", 6, 21)],
        "suppressed (line 11), widening/native casts (lines 15-16), non-id sources \
         (lines 17-18), and #[cfg(test)] casts must stay silent"
    );
    assert!(found[0].message.contains("TryFrom"), "{}", found[0].message);
}

#[test]
fn json_report_shape() {
    let found = golden("panic.rs", RuleSet { panic_free: true, indexing: true, ..RuleSet::none() });
    let json = to_json(&found);
    assert!(json.starts_with("{\"version\":2,\"total\":4,\"findings\":["));
    assert!(json.contains(
        "{\"rule\":\"panic-reach\",\"file\":\"crates/x/src/panic.rs\",\"line\":3,\"col\":23,"
    ));
    assert!(json.contains("\"excerpt\":\"[\"}"));
    assert!(!json.contains("\"new\""), "version 2 has no per-finding `new` flag: {json}");
    assert!(json.ends_with("]}"));
    // Balanced and quote-escaped: a JSON-hostile excerpt must not
    // break the document.
    assert_eq!(json.matches('{').count(), json.matches('}').count());
}

// --- End-to-end binary runs over miniature workspaces -----------------

struct TempWs {
    root: std::path::PathBuf,
}

impl TempWs {
    /// A miniature workspace under the target temp dir; `files` are
    /// `(relative path, contents)`.
    fn new(tag: &str, files: &[(&str, &str)]) -> TempWs {
        let root = std::env::temp_dir().join(format!("mb-lint-e2e-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap();
        std::fs::write(root.join("Cargo.toml"), "[workspace]\nmembers = []\n").unwrap();
        for (rel, contents) in files {
            let path = root.join(rel);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(path, contents).unwrap();
        }
        TempWs { root }
    }

    fn lint_json(&self) -> (i32, String) {
        let out = mb_lint_json(&self.root);
        (out.status.code().unwrap_or(-1), String::from_utf8_lossy(&out.stdout).into_owned())
    }
}

/// Run the built binary as `mb-lint --root <root> --json`.
fn mb_lint_json(root: &std::path::Path) -> std::process::Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_mb-lint"))
        .args(["--root", root.to_str().unwrap(), "--json"])
        .output()
        .expect("spawn mb-lint")
}

impl Drop for TempWs {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// A helper crate under no rule family: what the depth ≥ 1 cases reach.
const UNPROTECTED_HELPERS: &str = "\
pub fn helper_panics(x: Option<u32>) -> u32 { x.unwrap() }
pub fn helper_clock() -> u128 { std::time::Instant::now().elapsed().as_nanos() }
pub fn helper_flushes(w: &mut impl std::io::Write) { w.flush().ok(); }
";

#[test]
fn binary_fails_on_seeded_violations_of_every_rule() {
    let ws = TempWs::new(
        "seeded",
        &[
            ("crates/common/src/helpers.rs", UNPROTECTED_HELPERS),
            // panic-freedom, lock-discipline, tape-free and
            // bounded-queue territory.
            (
                "crates/serve/src/bad.rs",
                "use std::io::Write;\nuse std::sync::Mutex;\n\
                 fn f(v: &[u32], m: &Mutex<u32>, w: &mut impl Write) -> u32 {\n\
                 let g = m.lock().unwrap();\n\
                 w.write_all(b\"x\").ok();\n\
                 helper_flushes(w);\n\
                 drop(g);\n\
                 v[0] + helper_panics(None)\n}\n\
                 fn ab(s: &S) { let a = s.a.lock(); let b = s.b.lock(); }\n\
                 fn ba(s: &S) { let b = s.b.lock(); let a = s.a.lock(); }\n\
                 fn t(q: &mut Q, job: Job) { let t = Tape::new(); q.pending.push(job); }\n\
                 // mb-lint: allow(panic-unwrap) -- an id retired with the v1 rules\n",
            ),
            // determinism territory: the core crate and the encoders'
            // epoch driver.
            (
                "crates/core/src/bad.rs",
                "use std::collections::HashMap;\n\
                 fn f() -> usize { HashMap::<u32, u32>::new().len() }\n\
                 fn g() -> u128 { helper_clock() }\n",
            ),
            ("crates/encoders/src/train.rs", "fn epoch() { let t = std::time::Instant::now(); }\n"),
            // The workspace-wide site-local rules.
            (
                "crates/other/src/bad.rs",
                "fn f(p: *const u32) -> u32 { unsafe { *p } }\n\
                 fn s(v: &mut [f64]) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n\
                 fn n(entity_id: usize) -> u32 { entity_id as u32 }\n",
            ),
            ("crates/store/src/bad.rs", "fn f(p: &Path) { let b = std::fs::read(p); }\n"),
            (
                "crates/tensor/src/kernels.rs",
                "fn k(n: usize) { for i in 0..n { let v = vec![0; i]; } }\n",
            ),
        ],
    );
    let (code, json) = ws.lint_json();
    assert_eq!(code, 1, "seeded violations must fail the lint\n{json}");
    let serve = "crates/serve/src/bad.rs";
    for (rule, file, line) in [
        ("panic-reach", serve, 4), // depth 0: `.unwrap()`
        ("panic-reach", serve, 8), // depth 1: helper_panics -> unwrap
        ("indexing", serve, 8),
        ("lock-across-call", serve, 5), // depth 0: write_all under `m`
        ("lock-across-call", serve, 6), // depth 1: helper_flushes -> flush
        ("lock-order", serve, 10),
        ("lock-order", serve, 11),
        ("tape-free", serve, 12),
        ("bounded-queue", serve, 12),
        ("suppression", serve, 13),                 // allow(<retired id>)
        ("det-taint", "crates/core/src/bad.rs", 1), // depth 0, file level
        ("det-taint", "crates/core/src/bad.rs", 2), // depth 0, in a body
        ("det-taint", "crates/core/src/bad.rs", 3), // depth 1: helper_clock -> Instant
        ("det-taint", "crates/encoders/src/train.rs", 1),
        ("unsafe-gate", "crates/other/src/bad.rs", 1),
        ("float-total-order", "crates/other/src/bad.rs", 2),
        ("as-truncation", "crates/other/src/bad.rs", 3),
        ("unbounded-read", "crates/store/src/bad.rs", 1),
        ("alloc-in-hot-loop", "crates/tensor/src/kernels.rs", 1),
    ] {
        let row = format!("{{\"rule\":\"{rule}\",\"file\":\"{file}\",\"line\":{line},");
        assert!(json.contains(&row), "missing {rule} at {file}:{line} in\n{json}");
    }
    let caught: std::collections::BTreeSet<&str> = mb_lint::RULE_IDS
        .iter()
        .copied()
        .filter(|r| json.contains(&format!("\"rule\":\"{r}\"")))
        .collect();
    assert_eq!(caught.len(), mb_lint::RULE_IDS.len(), "every surviving id is seeded: {caught:?}");
    assert!(json.contains("panic-unwrap"), "the retired id is named in the finding\n{json}");
    assert!(!json.contains("crates/common/src/helpers.rs\",\"line"), "helpers are unprotected");
}

#[test]
fn binary_exits_2_when_a_workspace_file_cannot_be_parsed() {
    let ws = TempWs::new("unreadable", &[("crates/serve/src/good.rs", "fn f() -> u32 { 0 }\n")]);
    // A workspace .rs file that is not UTF-8 cannot be analyzed; the
    // run must fail loudly (exit 2) rather than silently skip it.
    std::fs::write(ws.root.join("crates/serve/src/bad.rs"), [0x66, 0x6e, 0xff, 0xfe]).unwrap();
    let out = mb_lint_json(&ws.root);
    assert_eq!(out.status.code(), Some(2), "unreadable file must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bad.rs"), "stderr must name the file:\n{stderr}");
    assert!(out.stdout.is_empty(), "no report on a failed parse");
}

#[test]
fn binary_exits_2_when_the_root_or_a_directory_cannot_be_read() {
    let ws = TempWs::new("badroot", &[("notes.txt", "no rust here\n")]);
    // Every directory — the root first — goes through the same
    // `read_dir`, so a root that fails it stands for any that does:
    // one that does not exist, and one that is not a directory.
    let missing = ws.root.join("mistyped");
    let not_a_dir = ws.root.join("notes.txt");
    // A readable root with no `.rs` file under it lints nothing, which
    // must not read as "clean".
    for root in [&missing, &not_a_dir, &ws.root] {
        let out = mb_lint_json(root);
        assert_eq!(out.status.code(), Some(2), "{} must exit 2", root.display());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(root.to_str().unwrap()), "stderr must name the path:\n{stderr}");
        assert!(out.stdout.is_empty(), "no report (least of all `clean`) on a failed walk");
    }
}

#[test]
fn binary_fails_on_any_finding_even_one_a_baseline_file_lists() {
    // A file listing the finding's `rule|file|line` key excuses
    // nothing: no file can turn a finding into a pass.
    let ws = TempWs::new(
        "listed",
        &[
            ("crates/serve/src/bad.rs", "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n"),
            ("lint-baseline.txt", "panic-reach|crates/serve/src/bad.rs|1\n"),
        ],
    );
    let (code, json) = ws.lint_json();
    assert_eq!(code, 1, "any finding must fail the lint\n{json}");
    assert!(json.contains("\"total\":1,"), "{json}");
    assert!(
        json.contains("{\"rule\":\"panic-reach\",\"file\":\"crates/serve/src/bad.rs\",\"line\":1,"),
        "{json}"
    );
}

#[test]
fn binary_passes_on_a_clean_workspace() {
    let ws = TempWs::new(
        "clean",
        &[
            (
                "crates/serve/src/good.rs",
                "fn f(v: &[u32]) -> u32 { v.first().copied().unwrap_or(0) }\n",
            ),
            (
                "crates/core/src/good.rs",
                "use std::collections::BTreeMap;\n\
                 fn f() -> usize { BTreeMap::<u32, u32>::new().len() }\n",
            ),
        ],
    );
    let (code, json) = ws.lint_json();
    assert_eq!(code, 0, "clean workspace must pass\n{json}");
    assert!(json.contains("\"total\":0"), "{json}");
}
