//! Workspace walking, the per-crate rule map, and the full lint run
//! (token-level pass + interprocedural taint + incremental cache).
//!
//! The map encodes which guarantees each part of the workspace has
//! signed up for (DESIGN.md §10):
//!
//! - **panic-freedom** on the serving path (`crates/serve/src`) and the
//!   checkpoint request/load paths (`crates/common/src/storage.rs` —
//!   the one container walker behind checkpoints, shards, manifests and
//!   IVF files — `crates/tensor/src/checkpoint.rs`,
//!   `crates/tensor/src/serialize.rs`, `crates/kb/src/store.rs`, and
//!   `crates/core/src/checkpoint.rs`, which decides whether a loaded
//!   training checkpoint describes the run resuming from it);
//! - **determinism** in every crate covered by the bit-identical
//!   resume guarantee (`tensor`, `core`, `datagen`, `nlg`, `kb`,
//!   `eval`, `par`, `store`);
//! - **lock discipline** across `crates/serve/src`;
//! - the **unsafe gate** workspace-wide;
//! - **float total order** workspace-wide (tests exempt): a
//!   `partial_cmp` comparator orders NaN arbitrarily, which silently
//!   breaks replay-by-seed wherever a float sort feeds results;
//! - **tape-free** on the serving path (`crates/serve/src`) and the
//!   frozen forward itself (`crates/tensor/src/frozen.rs`,
//!   `crates/tensor/src/quant.rs`, `crates/encoders/src/frozen.rs`):
//!   no gradient-tape allocation and no parameter copies — every
//!   serving forward rides one shared `FrozenParams` snapshot;
//! - **bounded-queue** on the serving path (`crates/serve/src`): a
//!   work buffer that grows without a visible bound is how overload
//!   turns into memory growth and minute-long queueing delays instead
//!   of fast 503 shedding;
//! - **as-truncation** workspace-wide (tests exempt): `id as u32`
//!   narrowing silently wraps once an id space outgrows the target
//!   type, aliasing two entities;
//! - **unbounded-read** on the sharded-store load paths
//!   (`crates/store/src`): shard and manifest opens promise
//!   bounded-RAM streaming verification, so `read_to_end`-style
//!   whole-file loads there silently break the promise at
//!   million-entity scale.
//!
//! The interprocedural families ([`crate::taint`], DESIGN.md §15):
//!
//! - **panic-reach** everywhere panic-freedom applies, plus the store
//!   load paths and the loadgen driver (a panicking helper two calls
//!   below a serve worker is just as fatal as an inline `unwrap`);
//! - **det-taint** in every determinism crate (a nondeterministic
//!   helper called from a replay path breaks replay just as surely);
//! - **lock-across-call** wherever lock discipline applies;
//! - **alloc-in-hot-loop** in the hot kernel/batch-drain files.

use crate::analyzer::{self, RuleSet};
use crate::cache::{self, Cache};
use crate::findings::Finding;
use crate::graph::Graph;
use crate::items::FileSummary;
use crate::locks::LockGraph;
use crate::taint;
use std::collections::BTreeSet;
use std::fmt;
use std::path::{Path, PathBuf};

/// Crates whose `src/` falls under the determinism family.
const DETERMINISM_CRATES: &[&str] =
    &["tensor", "core", "datagen", "nlg", "kb", "eval", "par", "store"];

/// Files (beyond `crates/serve/src`) on the panic-free path.
const PANIC_FREE_FILES: &[&str] = &[
    "crates/common/src/storage.rs",
    "crates/tensor/src/checkpoint.rs",
    "crates/tensor/src/serialize.rs",
    "crates/kb/src/store.rs",
    "crates/core/src/checkpoint.rs",
];

/// Files (beyond `crates/serve/src`) on the tape-free forward path:
/// the forward kernels, the quantized tables they score with, each
/// encoder's inference forward, retrieval, and everything that answers
/// through the linker must never allocate a tape or copy parameters.
const TAPE_FREE_FILES: &[&str] = &[
    "crates/tensor/src/frozen.rs",
    "crates/tensor/src/quant.rs",
    "crates/encoders/src/frozen.rs",
    "crates/encoders/src/retrieval.rs",
    "crates/core/src/linker.rs",
    "crates/core/src/nil.rs",
    "crates/core/src/coherence.rs",
];

/// Paths (beyond the panic-freedom set) protected by `panic-reach`:
/// the store load paths keep serving under churn, and the loadgen
/// driver's panics abort a whole measurement run.
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
/// (`/`-separated).
pub fn rules_for(rel_path: &str) -> RuleSet {
    let mut rules = RuleSet {
        unsafe_gate: true,
        float_total_order: true,
        as_truncation: true,
        ..RuleSet::default()
    };
    if rel_path.starts_with("crates/serve/src/") {
        rules.panic_freedom = true;
        rules.lock_discipline = true;
        rules.tape_free = true;
        rules.bounded_queue = true;
    }
    if PANIC_FREE_FILES.contains(&rel_path) {
        rules.panic_freedom = true;
    }
    if TAPE_FREE_FILES.contains(&rel_path) {
        rules.tape_free = true;
    }
    if DETERMINISM_CRATES.iter().any(|c| rel_path.starts_with(&format!("crates/{c}/src/"))) {
        rules.determinism = true;
    }
    if rel_path.starts_with("crates/store/src/") {
        rules.unbounded_read = true;
    }
    rules.panic_reach = rules.panic_freedom
        || PANIC_REACH_EXTRA
            .iter()
            .any(|p| rel_path.starts_with(p) || rel_path == p.trim_end_matches('/'));
    rules.det_taint = rules.determinism;
    rules.lock_across_call = rules.lock_discipline;
    rules.alloc_hot_loop = HOT_LOOP_FILES.contains(&rel_path);
    rules
}

/// Directory names never descended into.
fn skipped_dir(name: &str) -> bool {
    name == "target" || name == ".git" || name == "fixtures"
}

/// All `.rs` files under `root`, workspace-relative with `/`
/// separators, sorted — the scan order (and so the report) is
/// deterministic. `fixtures` directories are skipped: they hold the
/// linter's own seeded-violation golden files.
pub fn rust_files(root: &Path) -> Vec<String> {
    let mut out = Vec::new();
    let mut stack = vec![PathBuf::new()];
    while let Some(rel) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(root.join(&rel)) else { continue };
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            let sub = rel.join(&name);
            let is_dir = entry.file_type().map(|t| t.is_dir()).unwrap_or(false);
            if is_dir {
                if !skipped_dir(&name) {
                    stack.push(sub);
                }
            } else if name.ends_with(".rs") {
                out.push(sub.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    out.sort();
    out
}

/// Knobs for a full lint run.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Worker threads for per-file analysis (`0`/`1` → sequential).
    /// Output is byte-identical at any thread count: files are
    /// assigned round-robin and merged back by index.
    pub threads: usize,
    /// Incremental cache file; `None` disables caching entirely.
    pub cache_path: Option<PathBuf>,
}

/// What a run did, for `--timing` and the CI cache check.
#[derive(Debug, Clone, Copy)]
pub struct RunStats {
    /// Files analyzed (cached + cold).
    pub files: usize,
    /// Files served from the cache.
    pub cached: usize,
    /// Wall-clock of the whole run, milliseconds.
    pub analysis_ms: u128,
}

/// A lint run that could not produce a trustworthy report.
#[derive(Debug)]
pub enum RunError {
    /// Workspace files that could not be read (missing, permission,
    /// non-UTF-8). A silently skipped file would silently skip its
    /// violations, so this is fatal.
    Unreadable(Vec<(String, String)>),
    /// The cache file could not be persisted.
    Cache(String, String),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Unreadable(files) => {
                writeln!(f, "cannot analyze {} workspace file(s):", files.len())?;
                for (file, err) in files {
                    writeln!(f, "  {file}: {err}")?;
                }
                write!(f, "a skipped file would skip its violations; fix or remove the file(s)")
            }
            RunError::Cache(path, err) => write!(f, "cannot write lint cache {path}: {err}"),
        }
    }
}

/// Lint the whole workspace rooted at `root` with default options (no
/// cache, sequential). Findings are sorted by (file, line, col, rule).
pub fn run(root: &Path) -> Result<Vec<Finding>, RunError> {
    run_with(root, &RunOptions::default()).map(|(findings, _)| findings)
}

/// Lint the whole workspace rooted at `root`.
pub fn run_with(root: &Path, opts: &RunOptions) -> Result<(Vec<Finding>, RunStats), RunError> {
    let start = std::time::Instant::now();
    let mut sources: Vec<(String, String)> = Vec::new();
    let mut unreadable: Vec<(String, String)> = Vec::new();
    for rel in rust_files(root) {
        match std::fs::read_to_string(root.join(&rel)) {
            Ok(src) => sources.push((rel, src)),
            Err(e) => unreadable.push((rel, e.to_string())),
        }
    }
    if !unreadable.is_empty() {
        return Err(RunError::Unreadable(unreadable));
    }

    let mut cache = match &opts.cache_path {
        Some(path) => Cache::load(path),
        None => Cache::empty(),
    };
    let hashes: Vec<u64> = sources.iter().map(|(_, src)| cache::fnv64(src.as_bytes())).collect();
    let mut slots: Vec<Option<FileSummary>> = vec![None; sources.len()];
    let mut misses: Vec<usize> = Vec::new();
    let mut cached = 0usize;
    for (i, (rel, _)) in sources.iter().enumerate() {
        match cache.get(rel, hashes[i]) {
            Some(hit) => {
                slots[i] = Some(hit.clone());
                cached += 1;
            }
            None => misses.push(i),
        }
    }

    let threads = opts.threads.max(1).min(misses.len().max(1));
    if threads == 1 {
        for &i in &misses {
            let (rel, src) = &sources[i];
            slots[i] = Some(analyzer::summarize_file(rel, src, rules_for(rel)));
        }
    } else {
        // Round-robin assignment, merged back by index: the result is
        // byte-identical to the sequential pass at any thread count.
        let computed: Vec<Vec<(usize, FileSummary)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let misses = &misses;
                    let sources = &sources;
                    scope.spawn(move || {
                        misses
                            .iter()
                            .enumerate()
                            .filter(|(k, _)| k % threads == t)
                            .map(|(_, &i)| {
                                let (rel, src) = &sources[i];
                                (i, analyzer::summarize_file(rel, src, rules_for(rel)))
                            })
                            .collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for chunk in computed {
            for (i, summary) in chunk {
                slots[i] = Some(summary);
            }
        }
    }
    let summaries: Vec<(String, FileSummary)> =
        sources.iter().zip(slots).map(|((rel, _), slot)| (rel.clone(), slot.unwrap())).collect();

    let mut findings: Vec<Finding> = Vec::new();
    let mut lock_graph = LockGraph::new();
    for (rel, summary) in &summaries {
        findings.extend(summary.findings.iter().cloned());
        for edge in &summary.lock_edges {
            lock_graph.insert(rel, edge);
        }
    }
    findings.extend(lock_graph.finish());
    let rulesets: Vec<RuleSet> = summaries.iter().map(|(rel, _)| rules_for(rel)).collect();
    let call_graph = Graph::build(&summaries);
    findings.extend(taint::run(&summaries, &rulesets, &call_graph));
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });

    if let Some(path) = &opts.cache_path {
        let keep: BTreeSet<String> = summaries.iter().map(|(rel, _)| rel.clone()).collect();
        for (i, (rel, summary)) in summaries.iter().enumerate() {
            cache.put(rel.clone(), hashes[i], summary.clone());
        }
        cache.retain_files(&keep);
        if let Err(e) = cache.save(path) {
            return Err(RunError::Cache(path.display().to_string(), e.to_string()));
        }
    }

    let stats =
        RunStats { files: summaries.len(), cached, analysis_ms: start.elapsed().as_millis() };
    Ok((findings, stats))
}

/// Locate the workspace root: the nearest ancestor of `start` whose
/// `Cargo.toml` declares `[workspace]`.
pub fn find_root(start: &Path) -> Option<PathBuf> {
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

    #[test]
    fn serve_gets_panic_lock_tape_free_and_bounded_queue_rules() {
        let r = rules_for("crates/serve/src/queue.rs");
        assert!(r.panic_freedom && r.lock_discipline && r.unsafe_gate && r.tape_free);
        assert!(r.bounded_queue);
        assert!(!r.determinism);
        // The queue discipline is a serving-path guarantee, not global.
        assert!(!rules_for("crates/core/src/linker.rs").bounded_queue);
        assert!(!rules_for("crates/serve/tests/chaos.rs").bounded_queue);
    }

    #[test]
    fn as_truncation_applies_workspace_wide() {
        assert!(rules_for("crates/serve/src/server.rs").as_truncation);
        assert!(rules_for("crates/kb/src/index.rs").as_truncation);
        assert!(rules_for("src/bin/metablink.rs").as_truncation);
    }

    #[test]
    fn frozen_forward_files_get_the_tape_free_rule() {
        for f in TAPE_FREE_FILES {
            assert!(rules_for(f).tape_free, "{f}");
        }
        assert!(rules_for("crates/core/src/linker.rs").tape_free);
        // The tape itself and training code may of course build tapes
        // (the encoder files hold the training graphs).
        assert!(!rules_for("crates/tensor/src/tape.rs").tape_free);
        assert!(!rules_for("crates/encoders/src/train.rs").tape_free);
        assert!(!rules_for("crates/encoders/src/biencoder.rs").tape_free);
    }

    #[test]
    fn checkpoint_paths_get_panic_rules() {
        for f in PANIC_FREE_FILES {
            assert!(rules_for(f).panic_freedom, "{f}");
        }
        // The container walker is the single place corrupt bytes must
        // become typed errors; its neighbours in mb-common are not.
        let walker = rules_for("crates/common/src/storage.rs");
        assert!(walker.panic_freedom && walker.panic_reach);
        // Likewise the one file that interprets a loaded training
        // checkpoint (cursors, stats, mid-stage state) — not the
        // trainers that consume what it validated.
        let resume = rules_for("crates/core/src/checkpoint.rs");
        assert!(resume.panic_freedom && resume.panic_reach && resume.determinism);
        assert!(!rules_for("crates/core/src/reweight.rs").panic_freedom);
        assert!(!rules_for("crates/common/src/lru.rs").panic_freedom);
        assert!(!rules_for("crates/tensor/src/tensor.rs").panic_freedom);
    }

    #[test]
    fn resume_covered_crates_get_determinism() {
        assert!(rules_for("crates/core/src/reweight.rs").determinism);
        assert!(rules_for("crates/kb/src/index.rs").determinism);
        assert!(rules_for("crates/par/src/lib.rs").determinism);
        assert!(rules_for("crates/store/src/shard.rs").determinism);
        assert!(!rules_for("crates/serve/src/server.rs").determinism);
        assert!(!rules_for("crates/common/src/lru.rs").determinism);
        // Tests and benches are outside every family but the unsafe
        // gate and float total order.
        let r = rules_for("crates/core/tests/determinism.rs");
        assert!(!r.determinism && !r.panic_freedom && r.unsafe_gate);
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
    fn float_total_order_applies_workspace_wide() {
        assert!(rules_for("crates/serve/src/server.rs").float_total_order);
        assert!(rules_for("crates/common/src/util.rs").float_total_order);
        assert!(rules_for("src/bin/metablink.rs").float_total_order);
    }

    #[test]
    fn panic_reach_covers_serve_store_checkpoints_and_loadgen() {
        assert!(rules_for("crates/serve/src/worker.rs").panic_reach);
        assert!(rules_for("crates/store/src/shard.rs").panic_reach);
        assert!(rules_for("crates/tensor/src/checkpoint.rs").panic_reach);
        assert!(rules_for("crates/bench/src/bin/loadgen.rs").panic_reach);
        assert!(!rules_for("crates/encoders/src/train.rs").panic_reach);
        assert!(!rules_for("crates/serve/tests/chaos.rs").panic_reach);
    }

    #[test]
    fn det_taint_follows_the_determinism_family() {
        assert!(rules_for("crates/core/src/reweight.rs").det_taint);
        assert!(rules_for("crates/store/src/shard.rs").det_taint);
        assert!(!rules_for("crates/serve/src/server.rs").det_taint);
        assert!(!rules_for("crates/common/src/lru.rs").det_taint);
    }

    #[test]
    fn lock_across_call_follows_lock_discipline() {
        assert!(rules_for("crates/serve/src/server.rs").lock_across_call);
        assert!(!rules_for("crates/core/src/linker.rs").lock_across_call);
    }

    #[test]
    fn hot_loop_files_get_the_alloc_rule() {
        for f in HOT_LOOP_FILES {
            assert!(rules_for(f).alloc_hot_loop, "{f}");
        }
        assert!(!rules_for("crates/tensor/src/optim.rs").alloc_hot_loop);
        assert!(!rules_for("crates/serve/src/server.rs").alloc_hot_loop);
    }
}
