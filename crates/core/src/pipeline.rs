//! MetaBLINK training framework (Algorithm 2) and the BLINK / DL4EL
//! training paths, parameterised by data source so every row of
//! Tables V–IX is one call.
//!
//! Step 1 (exact matching) and step 2 (rewriting) of Algorithm 2 live
//! in `mb-nlg`; this module consumes their output and runs step 3 —
//! training the two-stage linker, with or without the meta-learning
//! reweighting of Algorithm 1.
//!
//! [`train`] and [`train_resumable`] are one function (`train_impl`)
//! with and without a [`CheckpointManager`]: six stages behind a
//! resume cursor, the same three phases on each encoder (plain pass,
//! [`train_meta`], seed mix). Algorithm 1 itself is
//! `reweight::train_meta`, called once per encoder; what a resumed
//! checkpoint must satisfy before any stage trusts it is
//! `checkpoint::{stage_cursor, stats_from_checkpoint}` (DESIGN.md §8
//! "Recovery semantics").

use crate::baselines::{train_biencoder_dl4el, Dl4elConfig};
use crate::checkpoint::{
    stage_cursor, stats_from_checkpoint, stats_to_checkpoint, CheckpointManager, MetaResume,
    STAGE_KEY,
};
use crate::linker::{LinkMetrics, LinkerConfig, TwoStageLinker};
use crate::reweight::{train_meta, MetaConfig, MetaStats};
use mb_common::storage::{NoBudget, StepBudget};
use mb_common::{Error, Result, Rng};
use mb_datagen::world::{DomainInfo, World};
use mb_datagen::LinkedMention;
use mb_encoders::biencoder::{BiEncoder, BiEncoderConfig};
use mb_encoders::crossencoder::{CandidateSet, CrossEncoder, CrossEncoderConfig};
use mb_encoders::input::TrainPair;
use mb_encoders::train::{try_train_biencoder, try_train_crossencoder, TrainConfig};
use mb_nlg::SynDataset;
use mb_tensor::checkpoint::Checkpoint;
use mb_tensor::optim::Adam;
use mb_text::Vocab;

/// Checkpoint key for the bi-encoder's state.
pub const BI_KEY: &str = "bi";
/// Checkpoint key for the cross-encoder's state.
pub const CROSS_KEY: &str = "cross";

/// Which labeled data trains the linker — one per table row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataSource {
    /// Seed only.
    Seed,
    /// Exact-match synthetic data only (Table X row 1).
    ExactMatch,
    /// Rewritten synthetic data (syn).
    Syn,
    /// Rewritten synthetic data from the adapted rewriter (syn*).
    SynStar,
    /// syn + seed.
    SynSeed,
    /// syn* + seed.
    SynStarSeed,
    /// General-domain (source) data only — the zero-shot BLINK
    /// baseline of Table VII.
    General,
    /// General-domain (source) data + seed (Table IX).
    GeneralSeed,
    /// General + syn + seed (Table IX).
    GeneralSynSeed,
    /// General + syn* + seed (Table IX).
    GeneralSynStarSeed,
}

impl DataSource {
    /// Human-readable label matching the paper's "Data" column.
    pub fn label(self) -> &'static str {
        match self {
            DataSource::Seed => "Seed",
            DataSource::ExactMatch => "Exact Match",
            DataSource::Syn => "Syn",
            DataSource::SynStar => "Syn*",
            DataSource::SynSeed => "Syn+Seed",
            DataSource::SynStarSeed => "Syn*+Seed",
            DataSource::General => "General",
            DataSource::GeneralSeed => "General+Seed",
            DataSource::GeneralSynSeed => "General+Syn+Seed",
            DataSource::GeneralSynStarSeed => "General+Syn*+Seed",
        }
    }

    fn uses_seed(self) -> bool {
        !matches!(
            self,
            DataSource::ExactMatch | DataSource::Syn | DataSource::SynStar | DataSource::General
        )
    }

    fn uses_general(self) -> bool {
        matches!(
            self,
            DataSource::General
                | DataSource::GeneralSeed
                | DataSource::GeneralSynSeed
                | DataSource::GeneralSynStarSeed
        )
    }

    fn synthetic_kind(self) -> Option<SynKind> {
        match self {
            DataSource::ExactMatch => Some(SynKind::Exact),
            DataSource::Syn | DataSource::SynSeed | DataSource::GeneralSynSeed => {
                Some(SynKind::Syn)
            }
            DataSource::SynStar | DataSource::SynStarSeed | DataSource::GeneralSynStarSeed => {
                Some(SynKind::SynStar)
            }
            DataSource::Seed | DataSource::General | DataSource::GeneralSeed => None,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SynKind {
    Exact,
    Syn,
    SynStar,
}

/// Training method — one per table row group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Plain two-stage training (Wu et al.).
    Blink,
    /// DL4EL in-batch denoising on the bi-encoder (Le & Titov).
    Dl4el,
    /// Meta-learning reweighting (this paper).
    MetaBlink,
}

impl Method {
    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            Method::Blink => "BLINK",
            Method::Dl4el => "DL4EL",
            Method::MetaBlink => "MetaBLINK",
        }
    }
}

/// Everything needed to train/evaluate on one target domain.
pub struct TargetTask<'a> {
    /// The world.
    pub world: &'a World,
    /// Shared vocabulary.
    pub vocab: &'a Vocab,
    /// The target domain.
    pub domain: &'a DomainInfo,
    /// Synthetic data from the source-trained rewriter (syn) — also
    /// carries the exact-match pairs.
    pub syn: &'a SynDataset,
    /// Synthetic data from the target-adapted rewriter (syn*).
    pub syn_star: &'a SynDataset,
    /// The seed set (few-shot split or zero-shot mined).
    pub seed: &'a [LinkedMention],
    /// Pooled source-domain gold mentions ("General").
    pub general: &'a [LinkedMention],
}

/// Full configuration for one training run.
#[derive(Debug, Clone, Copy)]
pub struct MetaBlinkConfig {
    /// Linker/eval settings (k, truncation).
    pub linker: LinkerConfig,
    /// Bi-encoder architecture.
    pub bi: BiEncoderConfig,
    /// Cross-encoder architecture.
    pub cross: CrossEncoderConfig,
    /// Plain bi-encoder training settings.
    pub bi_train: TrainConfig,
    /// Plain cross-encoder training settings.
    pub cross_train: TrainConfig,
    /// Meta-training settings for the bi-encoder.
    pub bi_meta: MetaConfig,
    /// Meta-training settings for the cross-encoder.
    pub cross_meta: MetaConfig,
    /// DL4EL settings (noise ratio etc.).
    pub dl4el: Dl4elConfig,
    /// Candidates per set when building cross-encoder training data
    /// (the paper uses the bi-encoder's 64; smaller is cheaper).
    pub k_train_candidates: usize,
    /// Cap on cross-encoder training sets (cost control).
    pub cross_train_cap: usize,
    /// Fraction of meta steps that also take a plain gradient step on
    /// the seed batch (the seed is labeled data, not only
    /// meta-supervision). 0 disables.
    pub seed_supervision_mix: f64,
    /// Warm-start MetaBLINK with plain BLINK training before the
    /// meta-reweighted phase (see the ablation bench).
    pub warm_start: bool,
    /// Master seed for model init and sampling.
    pub seed: u64,
}

impl Default for MetaBlinkConfig {
    fn default() -> Self {
        MetaBlinkConfig {
            linker: LinkerConfig::default(),
            bi: BiEncoderConfig::default(),
            cross: CrossEncoderConfig::default(),
            bi_train: TrainConfig { epochs: 8, batch_size: 32, lr: 5e-3, seed: 1 },
            cross_train: TrainConfig { epochs: 2, batch_size: 1, lr: 5e-3, seed: 2 },
            bi_meta: MetaConfig {
                steps: 400,
                syn_batch: 24,
                seed_batch: 16,
                lr: 1e-3,
                seed: 3,
                ..Default::default()
            },
            cross_meta: MetaConfig {
                steps: 250,
                syn_batch: 8,
                seed_batch: 6,
                lr: 1e-3,
                seed: 4,
                ..Default::default()
            },
            dl4el: Dl4elConfig::default(),
            k_train_candidates: 16,
            cross_train_cap: 600,
            seed_supervision_mix: 0.3,
            warm_start: true,
            seed: 0,
        }
    }
}

impl MetaBlinkConfig {
    /// Set the worker-thread count on every parallel stage at once
    /// (linker inference, bi-encoder meta-training, cross-encoder
    /// meta-training). Thread counts never change results — every
    /// parallel path partitions by data, not by worker count — so this
    /// is purely a throughput knob, plumbed from the binary edge (CLI
    /// flag / `MB_THREADS`) rather than read ambiently in the library.
    pub fn set_threads(&mut self, threads: mb_par::Threads) {
        self.linker.threads = threads;
        self.bi_meta.threads = threads;
        self.cross_meta.threads = threads;
    }

    /// A fast, small configuration for tests.
    pub fn fast_test() -> Self {
        MetaBlinkConfig {
            bi: BiEncoderConfig { emb_dim: 16, hidden: 16, out_dim: 16, ..Default::default() },
            cross: CrossEncoderConfig { emb_dim: 16, hidden: 16, ..Default::default() },
            bi_train: TrainConfig { epochs: 4, batch_size: 16, lr: 0.01, seed: 1 },
            cross_train: TrainConfig { epochs: 1, batch_size: 1, lr: 0.01, seed: 2 },
            bi_meta: MetaConfig {
                steps: 60,
                syn_batch: 12,
                seed_batch: 8,
                lr: 0.01,
                seed: 3,
                ..Default::default()
            },
            cross_meta: MetaConfig {
                steps: 40,
                syn_batch: 6,
                seed_batch: 4,
                lr: 0.01,
                seed: 4,
                ..Default::default()
            },
            k_train_candidates: 8,
            cross_train_cap: 120,
            linker: LinkerConfig { k: 16, ..LinkerConfig::default() },
            ..Default::default()
        }
    }
}

/// A trained two-stage model plus meta-training diagnostics.
pub struct TrainedLinker {
    /// The trained bi-encoder.
    pub bi: BiEncoder,
    /// The trained cross-encoder.
    pub cross: CrossEncoder,
    /// Linker configuration used in training (and default for eval).
    pub linker_cfg: LinkerConfig,
    /// Bi-encoder meta statistics (meta method only).
    pub bi_meta_stats: Option<MetaStats>,
    /// Cross-encoder meta statistics (meta method only).
    pub cross_meta_stats: Option<MetaStats>,
    /// Indices into the synthetic slice used for meta stats (aligned
    /// with `bi_meta_stats.sampled`).
    pub syn_len: usize,
}

impl TrainedLinker {
    /// Evaluate on mentions against the target dictionary.
    pub fn evaluate(&self, task: &TargetTask<'_>, mentions: &[LinkedMention]) -> LinkMetrics {
        let dict = task.world.kb().domain_entities(task.domain.id);
        let linker = TwoStageLinker::new(
            &self.bi,
            &self.cross,
            task.vocab,
            task.world.kb(),
            dict,
            self.linker_cfg,
        );
        linker.evaluate(mentions)
    }
}

/// Collect the synthetic mentions of the configured kind.
fn synthetic_mentions<'t>(task: &'t TargetTask<'_>, kind: SynKind) -> Vec<&'t LinkedMention> {
    match kind {
        SynKind::Exact => task.syn.exact.iter().map(|p| &p.mention).collect(),
        SynKind::Syn => task.syn.rewritten.iter().map(|p| &p.mention).collect(),
        SynKind::SynStar => task.syn_star.rewritten.iter().map(|p| &p.mention).collect(),
    }
}

fn featurize(
    task: &TargetTask<'_>,
    cfg: &MetaBlinkConfig,
    mentions: &[&LinkedMention],
) -> Vec<TrainPair> {
    mentions
        .iter()
        .map(|m| TrainPair::from_mention(task.vocab, &cfg.linker.input, task.world.kb(), m))
        .collect()
}

/// Train a linker with the given method and data source (Algorithm 2
/// step 3 and the baseline equivalents).
pub fn train(
    task: &TargetTask<'_>,
    method: Method,
    source: DataSource,
    cfg: &MetaBlinkConfig,
) -> TrainedLinker {
    train_impl(task, method, source, cfg, None)
        .expect("training without a checkpoint manager is infallible")
}

/// [`train`] with crash-safe checkpointing through `mgr`.
///
/// A fresh run saves a checkpoint at every stage boundary (bi-encoder
/// warm-up / meta phase / seed mix, cross-encoder warm-up / meta phase
/// / seed mix) and every `every_n_steps` meta steps. On restart over
/// the same checkpoint directory, [`CheckpointManager::begin`] finds
/// the newest intact checkpoint, training fast-forwards past finished
/// stages, and the result is bit-identical to an uninterrupted run:
/// mid-stage checkpoints capture the optimizer moments and the RNG
/// stream, and everything between two checkpoints is deterministic
/// replay from the seed.
///
/// # Errors
/// [`Error::Aborted`] when the manager's step budget kills the run,
/// [`Error::Io`] when storage keeps failing past the retry budget, and
/// [`Error::Checkpoint`] when no stored generation is usable.
pub fn train_resumable(
    task: &TargetTask<'_>,
    method: Method,
    source: DataSource,
    cfg: &MetaBlinkConfig,
    mgr: &mut CheckpointManager,
) -> Result<TrainedLinker> {
    train_impl(task, method, source, cfg, Some(mgr))
}

/// Pick the step budget: the manager's (fault-injectable) or none.
fn budget_of<'a>(
    mgr: &'a mut Option<&mut CheckpointManager>,
    none: &'a mut NoBudget,
) -> &'a mut dyn StepBudget {
    match mgr {
        Some(m) => m.budget_mut(),
        None => none,
    }
}

/// Save a stage-boundary checkpoint: both models' params, any meta
/// stats so far, and `next_stage` as the cursor. No-op without a
/// manager.
fn save_boundary(
    mgr: &mut Option<&mut CheckpointManager>,
    next_stage: u64,
    bi: &BiEncoder,
    cross: &CrossEncoder,
    bi_stats: &Option<MetaStats>,
    cross_stats: &Option<MetaStats>,
) -> Result<()> {
    let Some(m) = mgr.as_deref_mut() else { return Ok(()) };
    let mut ck = Checkpoint::new();
    ck.params.insert(BI_KEY.to_string(), bi.params().clone());
    ck.params.insert(CROSS_KEY.to_string(), cross.params().clone());
    for (key, stats) in [(BI_KEY, bi_stats), (CROSS_KEY, cross_stats)] {
        if let Some(s) = stats {
            stats_to_checkpoint(key, s, &mut ck);
        }
    }
    ck.meta.insert(STAGE_KEY.to_string(), next_stage.to_string());
    m.save_boundary(ck)
}

/// The training pipeline, staged behind a resume cursor. Stage `N`
/// runs only when the cursor (the next stage to execute, 1-based) is
/// `<= N`; each boundary checkpoint stores `N + 1`. Stage 7 means the
/// run finished — resuming it rebuilds the result without training.
///
/// Stages 1–3 and 4–6 are the same three phases on the two encoders:
/// a plain pass over all the data (the whole of a baseline's
/// training; MetaBLINK's warm start), Algorithm 1
/// ([`train_meta`], MetaBLINK only), and a few plain epochs on the
/// seed. What differs is stated where it differs: DL4EL replaces the
/// bi-encoder's plain pass, and the seed mix lasts a fraction of the
/// bi-encoder's epochs but one cross-encoder epoch.
fn train_impl(
    task: &TargetTask<'_>,
    method: Method,
    source: DataSource,
    cfg: &MetaBlinkConfig,
    mut mgr: Option<&mut CheckpointManager>,
) -> Result<TrainedLinker> {
    let rng = Rng::seed_from_u64(cfg.seed);
    let mut bi = BiEncoder::new(task.vocab, cfg.bi, &mut rng.split(1));
    let mut cross = CrossEncoder::new(task.vocab, cfg.cross, &mut rng.split(2));

    // ---------------- Assemble data ----------------
    // For meta methods: the reweighted pool is synthetic (+ general,
    // which the meta mechanism may also weight); the seed is the
    // meta-supervision. For plain methods everything is concatenated.
    let mut pool_mentions: Vec<&LinkedMention> =
        source.synthetic_kind().map(|k| synthetic_mentions(task, k)).unwrap_or_default();
    if source.uses_general() {
        pool_mentions.extend(task.general);
    }
    let seed_mentions: Vec<&LinkedMention> =
        if source.uses_seed() { task.seed.iter().collect() } else { Vec::new() };
    let weighted_pool = featurize(task, cfg, &pool_mentions);
    let seed_pairs = featurize(task, cfg, &seed_mentions);
    let concat = [weighted_pool.as_slice(), &seed_pairs].concat();

    let use_meta =
        method == Method::MetaBlink && !seed_pairs.is_empty() && weighted_pool.len() >= 2;

    // ---------------- Resume ----------------
    // A checkpoint that passed its CRCs is still only trusted as far
    // as it describes this run (DESIGN.md §8): the cursor names a
    // stage, every later stage finds both models, and carried stats
    // are those of a finished meta phase over this run's pool.
    let mut cursor: u64 = 1;
    let mut resume_ck: Option<Checkpoint> = None;
    let mut bi_meta_stats: Option<MetaStats> = None;
    let mut cross_meta_stats: Option<MetaStats> = None;
    if let Some(ck) = mgr.as_deref_mut().map(CheckpointManager::begin).transpose()?.flatten() {
        cursor = stage_cursor(&ck)?;
        if cursor > 1 {
            let params = |key: &str| {
                ck.params.get(key).cloned().ok_or_else(|| {
                    Error::Checkpoint(format!("stage-{cursor} checkpoint lacks {key:?} parameters"))
                })
            };
            bi.set_params(params(BI_KEY)?)?;
            cross.set_params(params(CROSS_KEY)?)?;
        }
        if cursor > 2 {
            bi_meta_stats =
                stats_from_checkpoint(BI_KEY, &ck, weighted_pool.len(), cfg.bi_meta.steps)?;
        }
        resume_ck = Some(ck);
    }
    // Mid-stage state in the resumed checkpoint only applies to the
    // stage the run died in; later visits to the same guard (and other
    // stages) must start from scratch.
    let resume_stage = cursor;
    let resume_at = |stage: u64| resume_ck.as_ref().filter(|_| resume_stage == stage);
    // The plain pass is skipped only by a meta run told not to warm
    // start; the seed mix is a meta run's, when configured.
    let plain_pass = |meta: bool| !meta || cfg.warm_start;
    let seed_mix = |meta: bool| meta && cfg.seed_supervision_mix > 0.0;
    let mut no_budget = NoBudget;

    // ---------------- Stage 1: bi-encoder plain pass ----------------
    // For MetaBLINK this is the plain BLINK warm start (the paper
    // builds MetaBLINK on BLINK and keeps its hyper-parameters); for
    // the baselines it is their entire bi-encoder training.
    if cursor <= 1 {
        let budget = budget_of(&mut mgr, &mut no_budget);
        if method == Method::Dl4el {
            // No epoch seam inside DL4EL: the whole baseline is one
            // unit of work for kill-injection purposes.
            budget.tick()?;
            train_biencoder_dl4el(&mut bi, &concat, &cfg.dl4el);
        } else if plain_pass(use_meta) {
            try_train_biencoder(&mut bi, &concat, &cfg.bi_train, budget)?;
        }
        save_boundary(&mut mgr, 2, &bi, &cross, &bi_meta_stats, &cross_meta_stats)?;
        cursor = 2;
    }

    // ---------------- Stage 2: bi-encoder meta phase ----------------
    // Algorithm 1: downweight the noisy synthetic pairs against the
    // seed's meta-gradient.
    if cursor <= 2 {
        if use_meta {
            let mut ctl = mgr.as_deref_mut().map(|mgr| MetaResume {
                mgr,
                stage: 2,
                model_key: BI_KEY,
                resume: resume_at(2),
            });
            let mut opt = Adam::new(cfg.bi_meta.lr);
            bi_meta_stats = Some(train_meta(
                &mut bi,
                &weighted_pool,
                &seed_pairs,
                &mut opt,
                &cfg.bi_meta,
                ctl.as_mut(),
            )?);
        }
        save_boundary(&mut mgr, 3, &bi, &cross, &bi_meta_stats, &cross_meta_stats)?;
        cursor = 3;
    }

    // ---------------- Stage 3: bi-encoder seed mix ----------------
    // A few plain epochs on the seed (it is labeled data, not only
    // meta-supervision).
    if cursor <= 3 {
        if seed_mix(use_meta) {
            let epochs = ((cfg.bi_train.epochs as f64) * cfg.seed_supervision_mix).ceil() as usize;
            let tc = TrainConfig { epochs, ..cfg.bi_train };
            try_train_biencoder(&mut bi, &seed_pairs, &tc, budget_of(&mut mgr, &mut no_budget))?;
        }
        save_boundary(&mut mgr, 4, &bi, &cross, &bi_meta_stats, &cross_meta_stats)?;
        cursor = 4;
    }

    // ---------------- Candidate sets ----------------
    // Candidate sets come from the *trained* bi-encoder, retrieved from
    // each mention's own domain dictionary: the target dictionary for
    // synthetic/seed mentions, the source dictionaries for general
    // mentions — matching the paper, where the cross-encoder trains on
    // the candidate sets of whatever labeled data it is given.
    //
    // Retrieval reads only the frozen bi-encoder, so on resume the
    // rebuilt sets are identical to the original run's — they are
    // recomputed, not checkpointed (a finished run rebuilds them too:
    // their count is what its cross-encoder stats are checked against).
    let build_sets = |mentions: &[&LinkedMention]| -> Vec<CandidateSet> {
        use std::collections::BTreeMap;
        let mut linkers: BTreeMap<mb_kb::DomainId, TwoStageLinker<'_>> = BTreeMap::new();
        let mut out = Vec::new();
        for m in mentions.iter().take(cfg.cross_train_cap) {
            let domain = task.world.kb().entity(m.entity).domain;
            let linker = linkers.entry(domain).or_insert_with(|| {
                TwoStageLinker::new(
                    &bi,
                    &cross,
                    task.vocab,
                    task.world.kb(),
                    task.world.kb().domain_entities(domain),
                    LinkerConfig { k: cfg.k_train_candidates, ..cfg.linker },
                )
            });
            let retrieved = linker.candidates(m);
            let set = linker.candidate_set(m, &retrieved);
            if set.gold_index.is_some() {
                out.push(set);
            }
        }
        out
    };
    let syn_sets = build_sets(&pool_mentions);
    let seed_sets = build_sets(&seed_mentions);
    let cross_meta = use_meta && !syn_sets.is_empty() && !seed_sets.is_empty();
    if let Some(ck) = resume_ck.as_ref().filter(|_| cursor > 5) {
        cross_meta_stats =
            stats_from_checkpoint(CROSS_KEY, ck, syn_sets.len(), cfg.cross_meta.steps)?;
    }

    // ---------------- Stage 4: cross-encoder plain pass ----------------
    // For MetaBLINK: warm start like BLINK. For the baselines: their
    // entire cross-encoder training.
    if cursor <= 4 {
        if plain_pass(cross_meta) {
            let mut all_sets = syn_sets.clone();
            all_sets.extend(seed_sets.iter().cloned());
            try_train_crossencoder(
                &mut cross,
                &all_sets,
                &cfg.cross_train,
                budget_of(&mut mgr, &mut no_budget),
            )?;
        }
        save_boundary(&mut mgr, 5, &bi, &cross, &bi_meta_stats, &cross_meta_stats)?;
        cursor = 5;
    }

    // ---------------- Stage 5: cross-encoder meta phase ----------------
    if cursor <= 5 {
        if cross_meta {
            let mut ctl = mgr.as_deref_mut().map(|mgr| MetaResume {
                mgr,
                stage: 5,
                model_key: CROSS_KEY,
                resume: resume_at(5),
            });
            let mut opt = Adam::new(cfg.cross_meta.lr);
            cross_meta_stats = Some(train_meta(
                &mut cross,
                &syn_sets,
                &seed_sets,
                &mut opt,
                &cfg.cross_meta,
                ctl.as_mut(),
            )?);
        }
        save_boundary(&mut mgr, 6, &bi, &cross, &bi_meta_stats, &cross_meta_stats)?;
        cursor = 6;
    }

    // ---------------- Stage 6: cross-encoder seed mix ----------------
    if cursor <= 6 {
        if seed_mix(cross_meta) {
            let tc = TrainConfig { epochs: 1, ..cfg.cross_train };
            try_train_crossencoder(
                &mut cross,
                &seed_sets,
                &tc,
                budget_of(&mut mgr, &mut no_budget),
            )?;
        }
        save_boundary(&mut mgr, 7, &bi, &cross, &bi_meta_stats, &cross_meta_stats)?;
    }

    Ok(TrainedLinker {
        bi,
        cross,
        linker_cfg: cfg.linker,
        bi_meta_stats,
        cross_meta_stats,
        syn_len: weighted_pool.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mb_datagen::world::DomainRole;
    use mb_datagen::{Dataset, DatasetConfig};
    use mb_encoders::input::build_vocab;
    use mb_nlg::generate::{generate_syn, train_source_rewriter};
    use mb_nlg::rewriter::RewriterConfig;

    struct Fixture {
        ds: Dataset,
        vocab: Vocab,
        syn: SynDataset,
        syn_star: SynDataset,
        general: Vec<LinkedMention>,
    }

    fn fixture() -> Fixture {
        let ds = Dataset::generate(DatasetConfig::tiny(59));
        let vocab = build_vocab(ds.world().kb(), [], 1);
        let mut rng = Rng::seed_from_u64(7);
        let source_mentions: Vec<(String, Vec<LinkedMention>)> = ds
            .world()
            .domains_with_role(DomainRole::Train)
            .iter()
            .map(|d| (d.name.clone(), ds.mentions(&d.name).mentions.clone()))
            .collect();
        let rw = train_source_rewriter(
            ds.world(),
            &source_mentions,
            RewriterConfig::default(),
            &mut rng,
        );
        let domain = ds.world().domain("TargetX").clone();
        let docs = mb_datagen::corpus::unlabeled_documents(ds.world(), &domain, 100, &mut rng);
        let rw_star = rw.adapt(docs.iter().map(String::as_str));
        let syn = generate_syn(ds.world(), &domain, &rw, 350, &mut Rng::seed_from_u64(8));
        let syn_star = generate_syn(ds.world(), &domain, &rw_star, 350, &mut Rng::seed_from_u64(8));
        let general: Vec<LinkedMention> =
            source_mentions.iter().flat_map(|(_, ms)| ms.iter().cloned()).collect();
        Fixture { ds, vocab, syn, syn_star, general }
    }

    fn task<'a>(f: &'a Fixture) -> TargetTask<'a> {
        TargetTask {
            world: f.ds.world(),
            vocab: &f.vocab,
            domain: f.ds.world().domain("TargetX"),
            syn: &f.syn,
            syn_star: &f.syn_star,
            seed: &f.ds.split("TargetX").seed,
            general: &f.general,
        }
    }

    #[test]
    fn blink_trains_on_each_source_without_panicking() {
        let f = fixture();
        let t = task(&f);
        let cfg = MetaBlinkConfig::fast_test();
        for source in [DataSource::Seed, DataSource::Syn, DataSource::SynSeed] {
            let model = train(&t, Method::Blink, source, &cfg);
            let m = model.evaluate(&t, &f.ds.split("TargetX").test[..30]);
            assert!(m.recall_at_k >= 0.0 && m.recall_at_k <= 100.0);
            assert!(!model.bi.params().has_non_finite());
        }
    }

    #[test]
    fn metablink_produces_meta_stats_and_beats_nothing_burning() {
        let f = fixture();
        let t = task(&f);
        let cfg = MetaBlinkConfig::fast_test();
        let model = train(&t, Method::MetaBlink, DataSource::SynSeed, &cfg);
        let stats = model.bi_meta_stats.as_ref().expect("meta stats");
        assert!(!stats.step_losses.is_empty());
        assert_eq!(stats.sampled.len(), model.syn_len);
        let m = model.evaluate(&t, &f.ds.split("TargetX").test[..30]);
        assert!(m.unnormalized_acc >= 0.0);
    }

    #[test]
    fn dl4el_trains() {
        let f = fixture();
        let t = task(&f);
        let cfg = MetaBlinkConfig::fast_test();
        let model = train(&t, Method::Dl4el, DataSource::SynSeed, &cfg);
        assert!(model.bi_meta_stats.is_none());
        assert!(!model.bi.params().has_non_finite());
    }

    #[test]
    fn general_source_includes_out_of_domain_pairs() {
        let f = fixture();
        let t = task(&f);
        let cfg = MetaBlinkConfig::fast_test();
        let model = train(&t, Method::MetaBlink, DataSource::GeneralSynSeed, &cfg);
        assert!(model.syn_len > f.syn.rewritten.len(), "general pairs missing from pool");
    }

    #[test]
    fn source_labels_cover_paper_rows() {
        assert_eq!(DataSource::SynStarSeed.label(), "Syn*+Seed");
        assert_eq!(Method::MetaBlink.label(), "MetaBLINK");
        assert!(DataSource::Seed.uses_seed());
        assert!(!DataSource::Syn.uses_seed());
        assert!(DataSource::GeneralSynSeed.uses_general());
    }
}
