//! Workspace walking, the per-crate rule map, and the full lint run
//! (site-local pass, lock-order graph, call graph, taint families).
//!
//! The map (`rules_for`) encodes which guarantees each part of the
//! workspace has signed up for (DESIGN.md §10): panic-freedom on the
//! serving path and the checkpoint / store load paths, determinism in
//! every crate covered by the bit-identical replay guarantee, lock
//! discipline across `crates/serve/src`, and the site-local rules where
//! their constants below say.

use crate::analyzer::{self, RuleSet};
use crate::findings::Finding;
use crate::graph::Graph;
use crate::items::FileSummary;
use crate::locks::LockGraph;
use crate::taint;
use std::fmt;
use std::path::{Path, PathBuf};

/// Crates whose `src/` falls under the determinism family: everything
/// a replayed run executes between the seed and the reported number.
const DETERMINISM_CRATES: &[&str] =
    &["tensor", "core", "encoders", "datagen", "nlg", "kb", "eval", "par", "store"];

/// Files (beyond `crates/serve/src`) on the panic-free path: the one
/// container walker behind checkpoints, shards, manifests and IVF
/// files, the `mb-params` load/save, the kb store, and the file that
/// decides whether a loaded training checkpoint describes the run
/// resuming from it. Corrupt bytes must become typed errors here, so
/// direct indexing is denied as well.
const PANIC_FREE_FILES: &[&str] = &[
    "crates/common/src/storage.rs",
    "crates/tensor/src/checkpoint.rs",
    "crates/tensor/src/serialize.rs",
    "crates/kb/src/store.rs",
    "crates/core/src/checkpoint.rs",
];

/// Files (beyond `crates/serve/src`) on the tape-free forward path:
/// the forward kernels, the quantized tables they score with, each
/// encoder's inference forward, retrieval and the linker must never
/// allocate a tape or copy parameters.
const TAPE_FREE_FILES: &[&str] = &[
    "crates/tensor/src/frozen.rs",
    "crates/tensor/src/quant.rs",
    "crates/encoders/src/frozen.rs",
    "crates/encoders/src/retrieval.rs",
    "crates/core/src/linker.rs",
];

/// Paths protected by `panic-reach` but not by `indexing`: the store
/// load paths keep serving under churn, and the loadgen driver's panics
/// abort a whole measurement run.
const PANIC_REACH_EXTRA: &[&str] = &["crates/store/src/", "crates/bench/src/bin/loadgen.rs"];

/// Hot-path files protected by `alloc-in-hot-loop`: the kernel inner
/// loops, the frozen forwards, and the serve batch drain.
const HOT_LOOP_FILES: &[&str] = &[
    "crates/tensor/src/kernels.rs",
    "crates/tensor/src/frozen.rs",
    "crates/encoders/src/frozen.rs",
    "crates/serve/src/queue.rs",
];

/// The rule families enforced for a workspace-relative path
/// (`/`-separated). The unsafe gate, float total order and
/// as-truncation apply everywhere.
pub(crate) fn rules_for(rel_path: &str) -> RuleSet {
    let serve = rel_path.starts_with("crates/serve/src/");
    let panic_free = serve || PANIC_FREE_FILES.contains(&rel_path);
    RuleSet {
        panic_free: panic_free || PANIC_REACH_EXTRA.iter().any(|p| rel_path.starts_with(p)),
        indexing: panic_free,
        determinism: DETERMINISM_CRATES
            .iter()
            .any(|c| rel_path.starts_with(&format!("crates/{c}/src/"))),
        lock_discipline: serve,
        unsafe_gate: true,
        float_total_order: true,
        tape_free: serve || TAPE_FREE_FILES.contains(&rel_path),
        bounded_queue: serve,
        as_truncation: true,
        unbounded_read: rel_path.starts_with("crates/store/src/"),
        alloc_hot_loop: HOT_LOOP_FILES.contains(&rel_path),
    }
}

/// Directory names never descended into.
fn skipped_dir(name: &str) -> bool {
    name == "target" || name == ".git" || name == "fixtures"
}

/// All `.rs` files under `root`, workspace-relative with `/`
/// separators, sorted — the scan order (and so the report) is
/// deterministic. `fixtures` directories are skipped: they hold the
/// linter's own seeded-violation golden files. A directory or entry
/// that cannot be read is an error, and so is a root with no `.rs` file
/// under it (a mistyped `--root` must not pass the gate).
pub fn rust_files(root: &Path) -> Result<Vec<String>, RunError> {
    let mut out = Vec::new();
    let mut unreadable = Vec::new();
    let mut stack = vec![PathBuf::new()];
    while let Some(rel) = stack.pop() {
        let dir = root.join(&rel);
        let mut fail =
            |e: std::io::Error| unreadable.push((dir.display().to_string(), e.to_string()));
        let entries = match std::fs::read_dir(&dir) {
            Ok(entries) => entries,
            Err(e) => {
                fail(e);
                continue;
            }
        };
        for entry in entries {
            let (entry, kind) = match entry.and_then(|e| e.file_type().map(|k| (e, k))) {
                Ok(read) => read,
                Err(e) => {
                    fail(e);
                    continue;
                }
            };
            let name = entry.file_name().to_string_lossy().into_owned();
            let sub = rel.join(&name);
            if kind.is_dir() {
                if !skipped_dir(&name) {
                    stack.push(sub);
                }
            } else if name.ends_with(".rs") {
                out.push(sub.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    if unreadable.is_empty() && out.is_empty() {
        unreadable.push((root.display().to_string(), "no .rs file under this root".to_string()));
    }
    if !unreadable.is_empty() {
        return Err(RunError::Unreadable(unreadable));
    }
    out.sort();
    Ok(out)
}

/// A lint run that could not produce a trustworthy report.
#[derive(Debug)]
pub enum RunError {
    /// Workspace paths that could not be read (missing, permission,
    /// non-UTF-8, an empty root) with the reason for each. A silently
    /// skipped file or directory would silently skip its violations, so
    /// this is fatal.
    Unreadable(Vec<(String, String)>),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let RunError::Unreadable(paths) = self;
        writeln!(f, "cannot analyze {} workspace path(s):", paths.len())?;
        for (path, err) in paths {
            writeln!(f, "  {path}: {err}")?;
        }
        write!(f, "a skipped path would skip its violations; fix or remove it")
    }
}

/// Lint the whole workspace rooted at `root`. Findings are sorted by
/// (file, line, col, rule).
pub fn run(root: &Path) -> Result<Vec<Finding>, RunError> {
    let mut sources: Vec<(String, String)> = Vec::new();
    let mut unreadable: Vec<(String, String)> = Vec::new();
    for rel in rust_files(root)? {
        match std::fs::read_to_string(root.join(&rel)) {
            Ok(src) => sources.push((rel, src)),
            Err(e) => unreadable.push((rel, e.to_string())),
        }
    }
    if !unreadable.is_empty() {
        return Err(RunError::Unreadable(unreadable));
    }
    Ok(lint_sources(&sources, rules_for))
}

/// Lint `(workspace-relative path, source)` pairs given in sorted-path
/// order, each under `rules_for(path)`: site-local rules per file, then
/// the lock-order graph, the call graph and the taint families across
/// all of them. Findings are sorted by (file, line, col, rule).
pub fn lint_sources(
    sources: &[(String, String)],
    rules_for: impl Fn(&str) -> RuleSet,
) -> Vec<Finding> {
    let rules: Vec<RuleSet> = sources.iter().map(|(rel, _)| rules_for(rel)).collect();
    let mut findings: Vec<Finding> = Vec::new();
    let mut summaries: Vec<(String, FileSummary)> = Vec::new();
    let mut lock_graph = LockGraph::default();
    for ((rel, src), r) in sources.iter().zip(&rules) {
        let (summary, local) = analyzer::summarize_file(rel, src, *r);
        findings.extend(local);
        if r.lock_discipline {
            for item in &summary.fns {
                for edge in &item.lock_edges {
                    lock_graph.insert(rel, &item.name, edge);
                }
            }
        }
        summaries.push((rel.clone(), summary));
    }
    findings.extend(lock_graph.finish());
    findings.extend(taint::run(&summaries, &rules, &Graph::build(&summaries)));
    // Stable, so where an I/O-named method is both a denied site and a
    // denied call, the depth-0 finding is the one kept.
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });
    findings.dedup_by(|b, a| (&a.file, a.line, a.col, a.rule) == (&b.file, b.line, b.col, b.rule));
    findings
}

/// Locate the workspace root: the nearest ancestor of `start` whose
/// `Cargo.toml` declares `[workspace]`.
pub(crate) fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every path (or path prefix) of a rule list names something in
    /// this workspace: a stale entry would protect nothing, silently.
    fn assert_listed_paths_exist(paths: &[&str]) {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for p in paths {
            assert!(root.join(p).exists(), "listed path {p} is not in the workspace");
        }
    }

    #[test]
    fn serve_gets_panic_lock_tape_free_and_bounded_queue_rules() {
        let r = rules_for("crates/serve/src/queue.rs");
        assert!(r.panic_free && r.indexing && r.lock_discipline && r.unsafe_gate && r.tape_free);
        assert!(r.bounded_queue);
        assert!(!r.determinism);
        // The queue and lock disciplines are serving-path guarantees.
        let linker = rules_for("crates/core/src/linker.rs");
        assert!(!linker.bounded_queue && !linker.lock_discipline);
        assert!(!rules_for("crates/serve/tests/chaos.rs").bounded_queue);
    }

    #[test]
    fn site_local_rules_that_apply_workspace_wide() {
        for f in ["crates/serve/src/server.rs", "crates/kb/src/index.rs", "src/bin/metablink.rs"] {
            let r = rules_for(f);
            assert!(r.as_truncation && r.float_total_order && r.unsafe_gate, "{f}");
        }
    }

    #[test]
    fn frozen_forward_files_get_the_tape_free_rule() {
        assert_listed_paths_exist(TAPE_FREE_FILES);
        for f in TAPE_FREE_FILES {
            assert!(rules_for(f).tape_free, "{f}");
        }
        // The tape itself and training code may of course build tapes
        // (the encoder files hold the training graphs).
        assert!(!rules_for("crates/tensor/src/tape.rs").tape_free);
        assert!(!rules_for("crates/encoders/src/train.rs").tape_free);
        assert!(!rules_for("crates/encoders/src/biencoder.rs").tape_free);
    }

    #[test]
    fn panic_freedom_covers_serve_checkpoints_store_and_loadgen() {
        assert_listed_paths_exist(PANIC_FREE_FILES);
        assert_listed_paths_exist(PANIC_REACH_EXTRA);
        for f in PANIC_FREE_FILES {
            assert!(rules_for(f).panic_free && rules_for(f).indexing, "{f}");
        }
        // The one file that interprets a loaded training checkpoint is
        // panic-free — not the trainers that consume what it validated,
        // nor the container walker's neighbours in mb-common.
        assert!(rules_for("crates/core/src/checkpoint.rs").determinism);
        for f in [
            "crates/core/src/reweight.rs",
            "crates/common/src/lru.rs",
            "crates/tensor/src/tensor.rs",
            "crates/encoders/src/train.rs",
            "crates/serve/tests/chaos.rs",
        ] {
            assert!(!rules_for(f).panic_free && !rules_for(f).indexing, "{f}");
        }
        // Store load paths and the loadgen driver: no panic at any
        // depth, but proven-bound indexing is theirs to keep.
        for f in ["crates/store/src/shard.rs", "crates/bench/src/bin/loadgen.rs"] {
            assert!(rules_for(f).panic_free && !rules_for(f).indexing, "{f}");
        }
    }

    #[test]
    fn replayed_crates_get_determinism() {
        assert!(rules_for("crates/core/src/reweight.rs").determinism);
        assert!(rules_for("crates/kb/src/index.rs").determinism);
        assert!(rules_for("crates/par/src/lib.rs").determinism);
        assert!(rules_for("crates/store/src/shard.rs").determinism);
        // Both models and the epoch driver (seed → shuffle → step).
        assert!(rules_for("crates/encoders/src/train.rs").determinism);
        assert!(!rules_for("crates/serve/src/server.rs").determinism);
        assert!(!rules_for("crates/common/src/lru.rs").determinism);
        // Tests and benches are outside every family but the
        // workspace-wide site-local rules.
        let r = rules_for("crates/core/tests/thread_determinism.rs");
        assert!(!r.determinism && !r.panic_free && r.unsafe_gate);
    }

    #[test]
    fn store_load_paths_get_the_unbounded_read_rule() {
        assert!(rules_for("crates/store/src/shard.rs").unbounded_read);
        assert!(rules_for("crates/store/src/store.rs").unbounded_read);
        assert!(rules_for("crates/store/src/ivf.rs").unbounded_read);
        // Everything else may still slurp small config files.
        assert!(!rules_for("crates/store/tests/proptest_store.rs").unbounded_read);
        assert!(!rules_for("crates/tensor/src/checkpoint.rs").unbounded_read);
        assert!(!rules_for("crates/serve/src/server.rs").unbounded_read);
    }

    #[test]
    fn hot_loop_files_get_the_alloc_rule() {
        assert_listed_paths_exist(HOT_LOOP_FILES);
        for f in HOT_LOOP_FILES {
            assert!(rules_for(f).alloc_hot_loop, "{f}");
        }
        assert!(!rules_for("crates/tensor/src/optim.rs").alloc_hot_loop);
        assert!(!rules_for("crates/serve/src/server.rs").alloc_hot_loop);
    }
}
