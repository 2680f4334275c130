//! Crash-safe checkpoint management for the training pipeline.
//!
//! The [`CheckpointManager`] owns the storage backend, the crash-
//! injection [`StepBudget`], and a rolling window of checkpoint
//! *generations* (`ckpt-000001.mbc`, `ckpt-000002.mbc`, …) inside one
//! directory. The pipeline saves a full snapshot at every stage
//! boundary and a patched snapshot every
//! [`CheckpointConfig::every_n_steps`] meta steps; on restart,
//! [`CheckpointManager::begin`] loads the newest generation that passes
//! the `mb-params v2` integrity checks, transparently falling back over
//! corrupted or unreadable generations.
//!
//! Recovery policy, by error class:
//!
//! * [`Error::Io`] — treated as transient; retried up to
//!   [`CheckpointConfig::max_retries`] times with linear backoff before
//!   giving up.
//! * [`Error::Checkpoint`] / [`Error::Parse`] on load — the generation
//!   is corrupt (torn write, bit flip); fall back to the previous
//!   generation and count it in the manager's `fallbacks` counter.
//!   If *every* present generation is corrupt, `begin` returns
//!   [`Error::Checkpoint`] rather than silently retraining from
//!   scratch — losing all checkpoints at once is not a state this
//!   code should paper over.
//! * [`Error::Aborted`] — an injected kill; always propagated.
//!
//! This is also the one file that interprets a *loaded* checkpoint:
//! passing its CRCs says the bytes are the bytes that were written,
//! not that they describe this run. `stage_cursor`,
//! `stats_from_checkpoint` and [`MetaResume::restore`] turn a
//! cursor outside the pipeline's stages, statistics that cannot be
//! those of the run being resumed, or missing mid-stage state into
//! [`Error::Checkpoint`] — never into a panic, and never into a
//! quietly untrained model (the file is on `mb-lint`'s panic-free
//! list).

use mb_common::storage::{StepBudget, Storage};
use mb_common::{Error, Result, Rng};
use mb_tensor::checkpoint::Checkpoint;
use mb_tensor::optim::Adam;
use mb_tensor::Params;
use std::ops::RangeInclusive;
use std::path::PathBuf;

use crate::reweight::MetaStats;

/// Checkpointing policy.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Directory holding the checkpoint generations.
    pub dir: PathBuf,
    /// Save a mid-stage checkpoint every this many meta steps
    /// (0 disables mid-stage saves; stage boundaries always save).
    pub every_n_steps: usize,
    /// Number of newest generations to retain (older ones are pruned
    /// best-effort after each save). Keep at least 2 so corruption of
    /// the newest generation can fall back.
    pub keep: usize,
    /// How many times a transiently failing storage operation is
    /// retried before the error propagates.
    pub max_retries: u32,
    /// Base backoff between retries, in milliseconds (attempt `k`
    /// sleeps `k * backoff_ms`). 0 disables sleeping (tests).
    pub backoff_ms: u64,
}

impl CheckpointConfig {
    /// Defaults (save every 10 meta steps, keep 3 generations, 3
    /// retries with 20 ms backoff) in `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CheckpointConfig {
            dir: dir.into(),
            every_n_steps: 10,
            keep: 3,
            max_retries: 3,
            backoff_ms: 20,
        }
    }
}

/// Owns checkpoint persistence for one training run. See the module
/// docs for the recovery policy.
pub struct CheckpointManager {
    cfg: CheckpointConfig,
    storage: Box<dyn Storage>,
    budget: Box<dyn StepBudget>,
    /// Last stage-boundary snapshot; mid-stage saves patch a clone of
    /// this so every generation on disk is a *complete* snapshot.
    base: Checkpoint,
    next_gen: u64,
    /// How many corrupt/unreadable generations [`Self::begin`] skipped.
    fallbacks: u64,
    saves: u64,
}

impl CheckpointManager {
    /// A manager over explicit storage and budget implementations —
    /// the constructor fault-injection tests use.
    pub fn with_parts(
        cfg: CheckpointConfig,
        storage: Box<dyn Storage>,
        budget: Box<dyn StepBudget>,
    ) -> Self {
        CheckpointManager {
            cfg,
            storage,
            budget,
            base: Checkpoint::new(),
            next_gen: 1,
            fallbacks: 0,
            saves: 0,
        }
    }

    /// The configured mid-stage save cadence.
    pub fn every_n_steps(&self) -> usize {
        self.cfg.every_n_steps
    }

    /// How many checkpoints this manager has written.
    pub fn saves(&self) -> u64 {
        self.saves
    }

    /// The crash-injection seam, for threading into trainers.
    pub(crate) fn budget_mut(&mut self) -> &mut dyn StepBudget {
        self.budget.as_mut()
    }

    /// Account one unit of training progress.
    ///
    /// # Errors
    /// Whatever the budget returns — conventionally [`Error::Aborted`]
    /// on an injected kill.
    pub fn tick(&mut self) -> Result<()> {
        self.budget.tick()
    }

    fn gen_path(&self, generation: u64) -> PathBuf {
        self.cfg.dir.join(format!("ckpt-{generation:06}.mbc"))
    }

    fn parse_gen(name: &str) -> Option<u64> {
        let rest = name.strip_prefix("ckpt-")?.strip_suffix(".mbc")?;
        if rest.len() != 6 || !rest.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        rest.parse().ok()
    }

    /// Run a storage operation, retrying [`Error::Io`] with bounded
    /// linear backoff.
    fn with_retry<T>(&mut self, mut op: impl FnMut(&mut dyn Storage) -> Result<T>) -> Result<T> {
        let mut attempt: u32 = 0;
        loop {
            match op(self.storage.as_mut()) {
                Err(Error::Io(_)) if attempt < self.cfg.max_retries => {
                    attempt += 1;
                    if self.cfg.backoff_ms > 0 {
                        std::thread::sleep(std::time::Duration::from_millis(
                            self.cfg.backoff_ms * attempt as u64,
                        ));
                    }
                }
                other => return other,
            }
        }
    }

    /// Scan the checkpoint directory and load the newest generation
    /// that passes integrity checks, falling back over corrupt ones.
    /// Returns `None` when no generation exists (fresh run). Also
    /// primes the base mid-stage saves patch with the loaded snapshot.
    ///
    /// # Errors
    /// [`Error::Checkpoint`] if generations exist but every one is
    /// corrupt; [`Error::Io`] if the directory itself is unreadable
    /// after retries.
    pub fn begin(&mut self) -> Result<Option<Checkpoint>> {
        let dir = self.cfg.dir.clone();
        let names = self.with_retry(|s| s.list(&dir))?;
        let mut gens: Vec<u64> = names.iter().filter_map(|n| Self::parse_gen(n)).collect();
        gens.sort_unstable();
        self.next_gen = gens.last().map_or(1, |g| g + 1);
        for &g in gens.iter().rev() {
            let path = self.gen_path(g);
            let loaded =
                self.with_retry(|s| s.read(&path)).and_then(|b| Checkpoint::from_bytes(&b));
            match loaded {
                Ok(ck) => {
                    self.base = ck.clone();
                    return Ok(Some(ck));
                }
                Err(Error::Aborted(msg)) => return Err(Error::Aborted(msg)),
                Err(_) => self.fallbacks += 1, // corrupt or unreadable: fall back
            }
        }
        if !gens.is_empty() {
            return Err(Error::Checkpoint(format!(
                "all {} checkpoint generation(s) in {} are corrupt",
                gens.len(),
                dir.display()
            )));
        }
        Ok(None)
    }

    /// Save a stage-boundary snapshot: records it as the new base (the
    /// template mid-stage saves patch) and writes a generation.
    ///
    /// # Errors
    /// Serialization errors, or [`Error::Io`] after retries.
    pub(crate) fn save_boundary(&mut self, ck: Checkpoint) -> Result<()> {
        self.base = ck.clone();
        self.save(ck)
    }

    /// Write `ck` as the next generation and prune old generations
    /// (best-effort) down to [`CheckpointConfig::keep`].
    ///
    /// # Errors
    /// Serialization errors, or [`Error::Io`] after retries.
    pub fn save(&mut self, ck: Checkpoint) -> Result<()> {
        let bytes = ck.to_bytes()?;
        let path = self.gen_path(self.next_gen);
        self.with_retry(|s| s.write_atomic(&path, &bytes))?;
        self.next_gen += 1;
        self.saves += 1;
        self.prune();
        Ok(())
    }

    /// Remove generations beyond the retention window. Best-effort: a
    /// failed removal never fails training, it just leaves extra files.
    fn prune(&mut self) {
        let dir = self.cfg.dir.clone();
        let Ok(names) = self.storage.list(&dir) else { return };
        let mut gens: Vec<u64> = names.iter().filter_map(|n| Self::parse_gen(n)).collect();
        gens.sort_unstable();
        let keep = self.cfg.keep.max(1);
        for &g in gens.iter().take(gens.len().saturating_sub(keep)) {
            let path = self.gen_path(g);
            let _ = self.storage.remove(&path);
        }
    }
}

/// Store a [`MetaStats`] into checkpoint vectors under `prefix`.
pub(crate) fn stats_to_checkpoint(prefix: &str, stats: &MetaStats, ck: &mut Checkpoint) {
    ck.vectors
        .insert(format!("{prefix}_sampled"), stats.sampled.iter().map(|&x| x as f64).collect());
    ck.vectors
        .insert(format!("{prefix}_selected"), stats.selected.iter().map(|&x| x as f64).collect());
    ck.vectors.insert(format!("{prefix}_step_losses"), stats.step_losses.clone());
    ck.meta.insert(format!("{prefix}_zero_weight_steps"), stats.zero_weight_steps.to_string());
}

/// Recover the [`MetaStats`] stored by [`stats_to_checkpoint`] under
/// `prefix` (`None` when the checkpoint has none), checked against the
/// run that is about to carry them: a pool of `pool` synthetic
/// examples and `steps` finished meta steps.
///
/// # Errors
/// [`Error::Checkpoint`] unless both count vectors hold `pool`
/// non-negative integers with `selected[i] ≤ sampled[i]`, there is one
/// loss per finished step, and the δ-guard counter is at most `steps`.
pub(crate) fn stats_from_checkpoint(
    prefix: &str,
    ck: &Checkpoint,
    pool: usize,
    steps: usize,
) -> Result<Option<MetaStats>> {
    let vector = |name: &str| ck.vectors.get(&format!("{prefix}_{name}"));
    let (Some(sampled), Some(selected), Some(step_losses)) =
        (vector("sampled"), vector("selected"), vector("step_losses"))
    else {
        return Ok(None);
    };
    let bad = |what: String| Error::Checkpoint(format!("{prefix} meta stats: {what}"));
    let counts = |name: &str, xs: &[f64]| -> Result<Vec<usize>> {
        if xs.len() != pool {
            return Err(bad(format!("{name} covers {} examples, the pool has {pool}", xs.len())));
        }
        xs.iter()
            .map(|&x| {
                // Exactly the values `count as f64` can have produced.
                let is_count = x >= 0.0 && x.fract() == 0.0 && x < 2f64.powi(53);
                is_count.then_some(x as usize).ok_or_else(|| bad(format!("{name} holds {x}")))
            })
            .collect()
    };
    let (sampled, selected) = (counts("sampled", sampled)?, counts("selected", selected)?);
    if selected.iter().zip(&sampled).any(|(sel, sam)| sel > sam) {
        return Err(bad("an example was selected more often than sampled".to_string()));
    }
    if step_losses.len() != steps {
        let n = step_losses.len();
        return Err(bad(format!("{n} step losses for {steps} finished steps")));
    }
    let zero_weight_steps = ck
        .meta
        .get(&format!("{prefix}_zero_weight_steps"))
        .and_then(|s| s.parse().ok())
        .filter(|&z: &usize| z <= steps)
        .ok_or_else(|| bad(format!("no zero-weight step count within {steps} steps")))?;
    Ok(Some(MetaStats { sampled, selected, step_losses: step_losses.clone(), zero_weight_steps }))
}

/// The stage-cursor key in checkpoint metadata: the next pipeline
/// stage to execute (see `pipeline::train_resumable` for the stage
/// numbering).
pub(crate) const STAGE_KEY: &str = "stage";

/// The in-stage meta-step key: how many meta steps of the stage named
/// by [`STAGE_KEY`] had completed when the checkpoint was taken.
pub(crate) const STEP_KEY: &str = "step";

/// The values a stage cursor can take: the pipeline's six stages, and
/// one past them for a finished run.
pub(crate) const STAGES: RangeInclusive<u64> = 1..=7;

/// The stage cursor of a loaded checkpoint.
///
/// # Errors
/// [`Error::Checkpoint`] when it is absent, not a number, or outside
/// [`STAGES`] — a cursor no stage guard matches would otherwise skip
/// every stage and return the freshly initialised models.
pub(crate) fn stage_cursor(ck: &Checkpoint) -> Result<u64> {
    let stage = ck
        .meta
        .get(STAGE_KEY)
        .ok_or_else(|| Error::Checkpoint("checkpoint lacks a stage cursor".to_string()))?;
    stage
        .parse()
        .ok()
        .filter(|cursor| STAGES.contains(cursor))
        .ok_or_else(|| Error::Checkpoint(format!("bad stage cursor {stage:?}: not in {STAGES:?}")))
}

/// Checkpointing context of one meta phase ([`crate::reweight::train_meta`]):
/// the manager, which pipeline stage the phase occupies, the key its
/// model state saves under, and (when restarting) the checkpoint being
/// resumed.
pub struct MetaResume<'a> {
    /// Manager owning storage, budget, and the stage-boundary base.
    pub mgr: &'a mut CheckpointManager,
    /// Stage-cursor value identifying this phase's pipeline stage.
    pub stage: u64,
    /// Key under which this model's params/optimizer/RNG state is
    /// saved in checkpoints (`"bi"` or `"cross"`).
    pub model_key: &'a str,
    /// Checkpoint to resume from. Only honoured when it carries a
    /// mid-stage step cursor; a stage-boundary checkpoint starts the
    /// stage from the beginning.
    pub resume: Option<&'a Checkpoint>,
}

impl MetaResume<'_> {
    /// Restore mid-stage state (optimizer, RNG, stats) into the
    /// trainer's locals. Returns the step to resume from: 0 when there
    /// is nothing to resume or the checkpoint is a stage boundary.
    ///
    /// # Errors
    /// [`Error::Checkpoint`] when the step cursor is not a number in
    /// `0..=steps`, when the optimizer state, RNG state or stats are
    /// missing, and when the stats are not those of `start` steps over
    /// a pool of `pool` (see `stats_from_checkpoint`).
    pub fn restore(
        &self,
        pool: usize,
        steps: usize,
        opt: &mut Adam,
        rng: &mut Rng,
        stats: &mut MetaStats,
    ) -> Result<usize> {
        let Some(ck) = self.resume else { return Ok(0) };
        let Some(step) = ck.meta.get(STEP_KEY) else { return Ok(0) };
        let start = step.parse().ok().filter(|&s: &usize| s <= steps).ok_or_else(|| {
            Error::Checkpoint(format!("bad step cursor {step:?}: the stage has {steps} steps"))
        })?;
        let key = self.model_key;
        let lacks = |what| Error::Checkpoint(format!("mid-stage checkpoint lacks {what} {key:?}"));
        opt.restore(ck.optim.get(key).ok_or_else(|| lacks("optimizer state"))?.clone());
        *rng = Rng::from_state(*ck.rng.get(key).ok_or_else(|| lacks("RNG state"))?);
        *stats = stats_from_checkpoint(key, ck, pool, start)?.ok_or_else(|| lacks("stats"))?;
        Ok(start)
    }

    /// Save a mid-stage checkpoint after `done` steps: the
    /// stage-boundary base patched with the live model/optimizer/RNG
    /// state and the accumulated stats.
    ///
    /// # Errors
    /// Serialization errors, or [`Error::Io`] after retries.
    pub fn save(
        &mut self,
        params: &Params,
        opt: &Adam,
        rng: &Rng,
        stats: &MetaStats,
        done: usize,
    ) -> Result<()> {
        let mut ck = self.mgr.base.clone();
        ck.params.insert(self.model_key.to_string(), params.clone());
        ck.optim.insert(self.model_key.to_string(), opt.state());
        ck.rng.insert(self.model_key.to_string(), rng.state());
        stats_to_checkpoint(self.model_key, stats, &mut ck);
        ck.meta.insert(STAGE_KEY.to_string(), self.stage.to_string());
        ck.meta.insert(STEP_KEY.to_string(), done.to_string());
        self.mgr.save(ck)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mb_common::storage::{MemStorage, NoBudget};
    use std::path::Path;

    fn ck_with(tag: &str) -> Checkpoint {
        let mut ck = Checkpoint::new();
        ck.meta.insert("tag".into(), tag.into());
        ck
    }

    fn mem_manager(mem: &MemStorage, keep: usize) -> CheckpointManager {
        let cfg = CheckpointConfig {
            every_n_steps: 5,
            keep,
            backoff_ms: 0,
            ..CheckpointConfig::new("ckpts")
        };
        CheckpointManager::with_parts(cfg, Box::new(mem.clone()), Box::new(NoBudget))
    }

    #[test]
    fn fresh_directory_begins_empty_and_saves_generations() {
        let mem = MemStorage::new();
        let mut mgr = mem_manager(&mem, 3);
        assert!(mgr.begin().unwrap().is_none());
        mgr.save_boundary(ck_with("a")).unwrap();
        mgr.save(ck_with("b")).unwrap();
        assert_eq!(mgr.saves(), 2);
        // A restarted manager resumes from the newest generation.
        let mut mgr2 = mem_manager(&mem, 3);
        let resumed = mgr2.begin().unwrap().expect("resume");
        assert_eq!(resumed.meta["tag"], "b");
        assert_eq!(mgr2.fallbacks, 0);
        // base primed from the resumed checkpoint.
        assert_eq!(mgr2.base.meta["tag"], "b");
    }

    #[test]
    fn pruning_keeps_the_newest_generations() {
        let mem = MemStorage::new();
        let mut mgr = mem_manager(&mem, 2);
        for tag in ["a", "b", "c", "d"] {
            mgr.save(ck_with(tag)).unwrap();
        }
        let mut store = mem.clone();
        let names = store.list(Path::new("ckpts")).unwrap();
        assert_eq!(names, vec!["ckpt-000003.mbc".to_string(), "ckpt-000004.mbc".to_string()]);
    }

    #[test]
    fn corrupt_newest_generation_falls_back() {
        let mem = MemStorage::new();
        let mut mgr = mem_manager(&mem, 3);
        mgr.save(ck_with("good")).unwrap();
        mgr.save(ck_with("newer")).unwrap();
        // Corrupt the newest generation behind the manager's back.
        let newest = Path::new("ckpts").join("ckpt-000002.mbc");
        let mut bytes = mem.peek(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        mem.poke(&newest, bytes);
        let mut mgr2 = mem_manager(&mem, 3);
        let resumed = mgr2.begin().unwrap().expect("fallback resume");
        assert_eq!(resumed.meta["tag"], "good");
        assert_eq!(mgr2.fallbacks, 1);
        // New saves do not overwrite the corrupted generation's slot.
        mgr2.save(ck_with("after")).unwrap();
        assert!(mem.peek(&Path::new("ckpts").join("ckpt-000003.mbc")).is_some());
    }

    #[test]
    fn all_generations_corrupt_is_an_error() {
        let mem = MemStorage::new();
        let mut mgr = mem_manager(&mem, 3);
        mgr.save(ck_with("only")).unwrap();
        let p = Path::new("ckpts").join("ckpt-000001.mbc");
        mem.poke(&p, b"garbage".to_vec());
        let mut mgr2 = mem_manager(&mem, 3);
        let err = mgr2.begin().unwrap_err();
        assert!(matches!(err, Error::Checkpoint(_)), "got {err:?}");
        assert_eq!(mgr2.fallbacks, 1);
    }

    #[test]
    fn stats_round_trip_through_checkpoint() {
        let stats = MetaStats {
            sampled: vec![3, 0, 7],
            selected: vec![1, 0, 7],
            step_losses: vec![0.5, 1.0 / 3.0],
            zero_weight_steps: 2,
        };
        let mut ck = Checkpoint::new();
        stats_to_checkpoint("bi", &stats, &mut ck);
        let ck = Checkpoint::from_bytes(&ck.to_bytes().unwrap()).unwrap();
        let back = stats_from_checkpoint("bi", &ck, 3, 2).unwrap().unwrap();
        assert_eq!(back.sampled, stats.sampled);
        assert_eq!(back.selected, stats.selected);
        assert_eq!(back.step_losses, stats.step_losses);
        assert_eq!(back.zero_weight_steps, 2);
        assert!(stats_from_checkpoint("cross", &ck, 3, 2).unwrap().is_none());
    }

    #[test]
    fn transient_io_is_retried() {
        // A storage that fails the first two writes with Error::Io.
        struct Flaky {
            inner: MemStorage,
            fails_left: u32,
        }
        impl Storage for Flaky {
            fn read(&mut self, path: &Path) -> Result<Vec<u8>> {
                self.inner.read(path)
            }
            fn write_atomic(&mut self, path: &Path, data: &[u8]) -> Result<()> {
                if self.fails_left > 0 {
                    self.fails_left -= 1;
                    return Err(Error::Io("flaky".into()));
                }
                self.inner.write_atomic(path, data)
            }
            fn exists(&mut self, path: &Path) -> bool {
                self.inner.exists(path)
            }
            fn remove(&mut self, path: &Path) -> Result<()> {
                self.inner.remove(path)
            }
            fn list(&mut self, dir: &Path) -> Result<Vec<String>> {
                self.inner.list(dir)
            }
        }
        let mem = MemStorage::new();
        let cfg =
            CheckpointConfig { backoff_ms: 0, max_retries: 3, ..CheckpointConfig::new("ckpts") };
        let mut mgr = CheckpointManager::with_parts(
            cfg.clone(),
            Box::new(Flaky { inner: mem.clone(), fails_left: 2 }),
            Box::new(NoBudget),
        );
        mgr.save(ck_with("x")).unwrap();
        assert!(mem.peek(&Path::new("ckpts").join("ckpt-000001.mbc")).is_some());
        // More failures than retries: the error propagates.
        let mut mgr2 = CheckpointManager::with_parts(
            cfg,
            Box::new(Flaky { inner: MemStorage::new(), fails_left: 10 }),
            Box::new(NoBudget),
        );
        assert!(matches!(mgr2.save(ck_with("y")), Err(Error::Io(_))));
    }
}
