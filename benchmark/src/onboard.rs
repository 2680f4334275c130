//! `onboard_domain`: what `metablink train` costs for a new domain —
//! Algorithm 1 (`ExperimentContext::build_with_world`: exact match +
//! mention rewriting for every test domain) followed by Algorithm 2
//! (`pipeline::train`, meta-reweighted) and evaluation, per domain.
//! The traced pass restates both algorithms stage by stage from their
//! public functions, with the seeds `pipeline::train` uses, so each
//! stage is a span and the sum can be held against the real call.

use crate::fixture::SYSTEM_SEED;
use crate::stats::{self, Fnv};
use crate::trace::Tracer;
use crate::{Metric, Outcome, Run};
use mb_common::util::mean;
use mb_common::Rng;
use mb_core::linker::{LinkMetrics, LinkerConfig, TwoStageLinker};
use mb_core::pipeline::{train, DataSource, MetaBlinkConfig, Method, TargetTask, TrainedLinker};
use mb_core::reweight::{
    biencoder_meta_step, crossencoder_meta_step, meta_example_weights, MetaConfig,
};
use mb_datagen::corpus::unlabeled_documents;
use mb_datagen::world::DomainRole;
use mb_datagen::{Dataset, DatasetConfig, LinkedMention, WorldConfig};
use mb_encoders::biencoder::{BiEncoder, BiEncoderConfig};
use mb_encoders::crossencoder::{CandidateSet, CrossEncoder, CrossEncoderConfig};
use mb_encoders::input::{build_vocab, TrainPair};
use mb_encoders::train::{train_biencoder, train_crossencoder, TrainConfig};
use mb_eval::{ContextConfig, ExperimentContext};
use mb_nlg::generate::{rewrite_pairs, train_source_rewriter};
use mb_nlg::rewriter::RewriterConfig;
use mb_nlg::{exact_match_pairs, SynDataset};
use mb_tensor::optim::Adam;
use mb_tensor::params::GradVec;
use std::time::Instant;

/// The two far-from-general test domains of Tables V/VI.
const DOMAINS: [&str; 2] = ["Lego", "YuGiOh"];
/// Quality floors (mean over [`DOMAINS`], percent): far below what the
/// method reaches on any seed, far above an untrained linker.
const MIN_RECALL: f64 = 40.0;
const MIN_U_ACC: f64 = 10.0;

/// Algorithm 1's settings; `seed` drives its sampling (rewriter
/// training, scanned occurrences), not the world.
fn context_config(run: &Run, seed: u64) -> ContextConfig {
    if run.smoke {
        ContextConfig::small(seed)
    } else {
        ContextConfig::bench_default(seed)
    }
}

/// The table harnesses' model (`mb_bench::bench_model_config`,
/// re-stated) at half its epochs, meta steps and cross-encoder set cap:
/// two domains then fit the run length the driver allows.
fn model_config(run: &Run, seed: u64) -> MetaBlinkConfig {
    let (bi_epochs, cross_epochs, bi_steps, cross_steps, cap) =
        if run.smoke { (1, 1, 4, 4, 24) } else { (5, 2, 200, 125, 250) };
    MetaBlinkConfig {
        linker: LinkerConfig { k: if run.smoke { 16 } else { 64 }, ..LinkerConfig::default() },
        bi: BiEncoderConfig { emb_dim: 32, hidden: 32, out_dim: 32, ..Default::default() },
        cross: CrossEncoderConfig { emb_dim: 32, hidden: 32, ..Default::default() },
        bi_train: TrainConfig { epochs: bi_epochs, batch_size: 32, lr: 5e-3, seed: seed ^ 1 },
        cross_train: TrainConfig { epochs: cross_epochs, batch_size: 1, lr: 5e-3, seed: seed ^ 2 },
        bi_meta: MetaConfig {
            steps: bi_steps,
            syn_batch: 24,
            seed_batch: 16,
            lr: 1e-3,
            seed: seed ^ 3,
            ..Default::default()
        },
        cross_meta: MetaConfig {
            steps: cross_steps,
            syn_batch: 8,
            seed_batch: 6,
            lr: 1e-3,
            seed: seed ^ 4,
            ..Default::default()
        },
        k_train_candidates: 16,
        cross_train_cap: cap,
        seed,
        ..Default::default()
    }
}

/// The world every run onboards into (see [`SYSTEM_SEED`]).
fn world_config(cfg: &ContextConfig) -> WorldConfig {
    WorldConfig::zeshel_like(
        SYSTEM_SEED,
        cfg.entity_scale,
        cfg.test_entity_scale,
        cfg.mention_scale,
    )
}

/// The untraced pass. One round is Algorithm 1 once
/// (`ExperimentContext::build_with_world`) plus Algorithm 2 and
/// evaluation for each of [`DOMAINS`]; rounds repeat with fresh seeds
/// until `run.seconds` have passed. Quality comes from round 0
/// only, so it is a function of `--seed` and not of the machine.
pub fn run(run: &Run) -> Result<Outcome, String> {
    // Set-up: the generated benchmark (KB dump, mentions, few-shot
    // splits) a domain owner has before onboarding starts.
    let cfg0 = context_config(run, run.seed);
    let mut setups = Vec::new();
    let mut dataset = None;
    // One generation takes ~0.15 s, too short for a median of three to
    // be steady on a shared box, so this set-up repeats three times as
    // often as the link fixture's.
    for _ in 0..3 * crate::SETUP_REPEATS {
        let t = Instant::now();
        dataset = Some(Dataset::generate(DatasetConfig::new(world_config(&cfg0))));
        setups.push(t.elapsed().as_secs_f64());
    }
    let dataset = dataset.expect("at least one set-up");

    let started = Instant::now();
    let mut latencies = Vec::new();
    let mut quality: Vec<LinkMetrics> = Vec::new();
    let mut failed = 0u64;
    let mut round = 0u64;
    while round == 0 || started.elapsed().as_secs_f64() < run.seconds {
        let seed = run.seed ^ (round << 32);
        let t = Instant::now();
        let cfg = context_config(run, seed);
        let ctx = ExperimentContext::build_with_world(cfg, world_config(&cfg));
        let weaksup_share = t.elapsed().as_secs_f64() / DOMAINS.len() as f64;
        for domain in DOMAINS {
            let t = Instant::now();
            let task = ctx.task(domain);
            let test = &ctx.dataset.split(domain).test;
            let model =
                train(&task, Method::MetaBlink, DataSource::SynStarSeed, &model_config(run, seed));
            let metrics = model.evaluate(&task, test);
            latencies.push(weaksup_share + t.elapsed().as_secs_f64());
            if round == 0 {
                // The product regenerates its inputs from the seed;
                // they must be the ones set-up produced.
                if test != &dataset.split(domain).test {
                    eprintln!(
                        "onboard_domain: {domain} test split differs from the set-up dataset"
                    );
                    failed += 1;
                }
                quality.push(metrics);
            }
        }
        round += 1;
    }
    let wall_s = started.elapsed().as_secs_f64();

    let recall = mean(&quality.iter().map(|m| m.recall_at_k).collect::<Vec<_>>());
    let u_acc = mean(&quality.iter().map(|m| m.unnormalized_acc).collect::<Vec<_>>());
    if !run.smoke && (recall < MIN_RECALL || u_acc < MIN_U_ACC) {
        eprintln!("onboard_domain: recall@64 {recall:.2}% / U.Acc {u_acc:.2}% below the floor");
        failed += 1;
    }
    let mut sum = Fnv::new();
    for m in &quality {
        sum.f64(m.recall_at_k);
        sum.f64(m.normalized_acc);
        sum.f64(m.unnormalized_acc);
        sum.u64(m.count as u64);
    }

    let sorted = stats::sorted(latencies.clone());
    let mut outcome = Outcome::new(latencies.len() as u64, failed, sum.0);
    outcome.notes.push(format!(
        "latency_tail_ms is the slowest of {} domain onboardings, not a percentile; test U.Acc {u_acc:.2}%",
        sorted.len()
    ));
    outcome.metrics.extend([
        Metric::new("setup_s", stats::median(&setups), "s"),
        Metric::new("latency_p50_ms", stats::median(&latencies) * 1e3, "ms"),
        Metric::new("latency_tail_ms", stats::quantile(&sorted, 1.0) * 1e3, "ms"),
        Metric::new("throughput_per_s", latencies.len() as f64 / wall_s, "1/s"),
        Metric::new("recall_at_64", recall / 100.0, "ratio"),
        Metric::new("peak_rss_mb", crate::peak_rss_mb(), "MB"),
    ]);
    Ok(outcome)
}

/// The traced pass: both algorithms stage by stage for `DOMAINS[0]`,
/// then the real `pipeline::train` on the same task for reconciliation.
pub fn layers(run: &Run, tr: &mut Tracer) -> Vec<Metric> {
    let seed = run.seed;
    let cfg = context_config(run, seed);
    let root = tr.begin("onboard", 0);

    // ---- Algorithm 1, as `ExperimentContext::build_with_world` runs it.
    let weaksup = tr.begin("weaksup", root);
    let dataset = tr.span("datagen.dataset", weaksup, || {
        Dataset::generate(DatasetConfig::new(world_config(&cfg)))
    });
    let world = dataset.world();
    let mut rng = Rng::seed_from_u64(cfg.seed ^ 0xE9A1);
    let extra_docs: Vec<String> = tr.span("datagen.corpus", weaksup, || {
        let mut docs = Vec::new();
        for d in world.domains() {
            let mut doc_rng = rng.split(0xD0C5 + u64::from(d.id.0));
            docs.extend(unlabeled_documents(world, d, 50, &mut doc_rng));
        }
        docs
    });
    let vocab = tr.span("encoders.vocab", weaksup, || {
        build_vocab(world.kb(), extra_docs.iter().map(String::as_str), 1)
    });
    let source_mentions: Vec<(String, Vec<LinkedMention>)> = world
        .domains_with_role(DomainRole::Train)
        .iter()
        .map(|d| (d.name.clone(), dataset.mentions(&d.name).mentions.clone()))
        .collect();
    let rewriter = tr.span("nlg.rewriter_train", weaksup, || {
        train_source_rewriter(world, &source_mentions, RewriterConfig::default(), &mut rng)
    });
    let mut syn = Vec::new();
    let mut syn_star = Vec::new();
    for d in world.domains_with_role(DomainRole::Test) {
        let entities = world.kb().domain_entities(d.id).len();
        let volume = (entities as f64 * cfg.syn_volume_factor).round() as usize;
        let gen_rng = rng.split(0x0515 + u64::from(d.id.0));
        let docs = tr.span("datagen.corpus", weaksup, || {
            unlabeled_documents(world, d, cfg.adapt_docs, &mut gen_rng.split(1))
        });
        let adapted =
            tr.span("nlg.adapt", weaksup, || rewriter.adapt(docs.iter().map(String::as_str)));
        // syn and syn* scan the same occurrence stream; only the
        // rewriter differs.
        for (rw, out) in [(&rewriter, &mut syn), (&adapted, &mut syn_star)] {
            let mut stream = gen_rng.split(0);
            let exact = tr.span("nlg.exact_match", weaksup, || {
                exact_match_pairs(world, d, volume, &mut stream)
            });
            let rewritten =
                tr.span("nlg.rewrite", weaksup, || rewrite_pairs(world, &exact, rw, &mut stream));
            out.push(SynDataset { domain: d.name.clone(), exact, rewritten });
        }
    }
    let mut general: Vec<LinkedMention> =
        source_mentions.iter().flat_map(|(_, ms)| ms.iter().cloned()).collect();
    rng.split(0x6E6E).shuffle(&mut general);
    general.truncate(cfg.general_cap);
    tr.end(weaksup);

    let exact_pairs: usize = syn_star.iter().map(|s| s.exact.len()).sum();
    let noise = mean(&syn_star.iter().map(SynDataset::noise_rate).collect::<Vec<_>>());

    // ---- Algorithm 2 for one domain, as `pipeline::train` stages it.
    let domain = DOMAINS[0];
    let of =
        |sets: &[SynDataset]| sets.iter().position(|s| s.domain == domain).expect("a test domain");
    let task = TargetTask {
        world,
        vocab: &vocab,
        domain: world.domain(domain),
        syn: &syn[of(&syn)],
        syn_star: &syn_star[of(&syn_star)],
        seed: &dataset.split(domain).seed,
        general: &general,
    };
    let mcfg = model_config(run, seed);
    let test = &dataset.split(domain).test;
    let staged = tr.begin("train.staged", root);
    let (model, meta) = staged_train(tr, staged, &task, &mcfg);
    let metrics = tr.span("core.evaluate", staged, || model.evaluate(&task, test));
    tr.end(staged);

    // The real call on the same task: the staged sum must explain it.
    let real = tr.begin("train.real", root);
    let product = train(&task, Method::MetaBlink, DataSource::SynStarSeed, &mcfg);
    let product_metrics = product.evaluate(&task, test);
    tr.end(real);
    tr.end(root);
    if product_metrics != metrics {
        eprintln!(
            "onboard_domain: the staged pipeline no longer reproduces pipeline::train \
             ({metrics:?} vs {product_metrics:?}); its spans are unresolved"
        );
    }

    // ---- Pieces of one meta step, on the trained models.
    let pairs: Vec<TrainPair> = task
        .syn_star
        .rewritten
        .iter()
        .take(24)
        .map(|p| TrainPair::from_mention(&vocab, &mcfg.linker.input, world.kb(), &p.mention))
        .collect();
    for _ in 0..20 {
        tr.span("encoders.bi_batch_loss", root, || model.bi.batch_loss(&pairs));
        tr.span("encoders.bi_batch_grad", root, || model.bi.batch_grad(&pairs));
    }
    let mut grads: Vec<GradVec> = Vec::new();
    for set in meta.sets.iter().cycle().take(24.min(meta.sets.len() * 24)) {
        grads
            .push(tr.span("encoders.cross_example_grad", root, || model.cross.example_grad(set)).1);
    }
    if let Some(seed_grad) = grads.first().cloned() {
        for _ in 0..50 {
            tr.span("core.meta_weights", root, || meta_example_weights(&grads, &seed_grad));
        }
    }

    let per = |name: &str, scale: f64| tr.total_s(name) / tr.count(name).max(1) as f64 * scale;
    let staged_s = tr.total_s("train.staged");
    let real_s = tr.total_s("train.real");
    let stage_sum: f64 = [
        "core.featurize",
        "encoders.bi_warmup",
        "core.bi_meta_step",
        "encoders.bi_seed_mix",
        "core.linker_build",
        "core.trainset_build",
        "encoders.cross_warmup",
        "core.cross_meta_step",
        "encoders.cross_seed_mix",
        "core.evaluate",
    ]
    .iter()
    .map(|n| tr.total_s(n))
    .sum();
    let residual = (real_s - stage_sum) / real_s;
    if residual.abs() > 0.15 {
        eprintln!(
            "onboard_domain: staged stages sum to {stage_sum:.3}s against {real_s:.3}s for \
             pipeline::train + evaluate (staged wall {staged_s:.3}s): unresolved"
        );
    }
    vec![
        Metric::new("datagen.dataset_s", tr.total_s("datagen.dataset"), "s"),
        Metric::new("encoders.vocab_s", tr.total_s("encoders.vocab"), "s"),
        Metric::new("nlg.rewriter_train_s", tr.total_s("nlg.rewriter_train"), "s"),
        Metric::new("nlg.exact_match_s", tr.total_s("nlg.exact_match"), "s"),
        Metric::new("nlg.rewrite_s", tr.total_s("nlg.rewrite"), "s"),
        Metric::new("nlg.adapt_s", tr.total_s("nlg.adapt"), "s"),
        Metric::new("nlg.exact_pairs", exact_pairs as f64, "count"),
        Metric::new("nlg.noise_rate", noise, "ratio"),
        Metric::new("core.weaksup_s", tr.total_s("weaksup"), "s"),
        Metric::new("encoders.bi_warmup_s", tr.total_s("encoders.bi_warmup"), "s"),
        Metric::new("encoders.cross_warmup_s", tr.total_s("encoders.cross_warmup"), "s"),
        Metric::new("core.bi_meta_step_ms", per("core.bi_meta_step", 1e3), "ms"),
        Metric::new("core.cross_meta_step_ms", per("core.cross_meta_step", 1e3), "ms"),
        Metric::new("encoders.bi_batch_loss_ms", per("encoders.bi_batch_loss", 1e3), "ms"),
        Metric::new("encoders.bi_batch_grad_ms", per("encoders.bi_batch_grad", 1e3), "ms"),
        Metric::new(
            "encoders.cross_example_grad_ms",
            per("encoders.cross_example_grad", 1e3),
            "ms",
        ),
        Metric::new("core.meta_weights_us", per("core.meta_weights", 1e6), "us"),
        Metric::new(
            "core.meta_zero_weight_ratio",
            meta.zero_weights as f64 / meta.weights.max(1) as f64,
            "ratio",
        ),
        Metric::new("core.linker_build_s", tr.total_s("core.linker_build"), "s"),
        Metric::new("core.trainset_build_s", tr.total_s("core.trainset_build"), "s"),
        Metric::new("core.evaluate_s", tr.total_s("core.evaluate"), "s"),
        Metric::new("core.train_s", real_s, "s"),
        Metric::new("core.train_residual_ratio", residual, "ratio"),
        Metric::new("core.test_recall_at_64", product_metrics.recall_at_k / 100.0, "ratio"),
        Metric::new("core.test_u_acc", product_metrics.unnormalized_acc / 100.0, "ratio"),
    ]
}

/// What the staged run saw besides the model.
struct MetaSeen {
    /// Weights returned by all meta steps, and how many were zero.
    weights: usize,
    zero_weights: usize,
    /// A few cross-encoder training sets, for the gradient probes.
    sets: Vec<CandidateSet>,
}

/// `pipeline::train(task, MetaBlink, SynStarSeed, cfg)` restated from
/// its public parts, one span per stage under `parent`.
fn staged_train(
    tr: &mut Tracer,
    parent: u32,
    task: &TargetTask<'_>,
    cfg: &MetaBlinkConfig,
) -> (TrainedLinker, MetaSeen) {
    let kb = task.world.kb();
    let rng = Rng::seed_from_u64(cfg.seed);
    let mut bi = BiEncoder::new(task.vocab, cfg.bi, &mut rng.split(1));
    let mut cross = CrossEncoder::new(task.vocab, cfg.cross, &mut rng.split(2));
    let mut seen = MetaSeen { weights: 0, zero_weights: 0, sets: Vec::new() };

    let syn_mentions: Vec<&LinkedMention> =
        task.syn_star.rewritten.iter().map(|p| &p.mention).collect();
    let seed_mentions: Vec<&LinkedMention> = task.seed.iter().collect();
    let featurize = |ms: &[&LinkedMention]| -> Vec<TrainPair> {
        ms.iter().map(|m| TrainPair::from_mention(task.vocab, &cfg.linker.input, kb, m)).collect()
    };
    let (syn_pairs, seed_pairs) =
        tr.span("core.featurize", parent, || (featurize(&syn_mentions), featurize(&seed_mentions)));
    let mut concat = syn_pairs.clone();
    concat.extend(seed_pairs.iter().cloned());

    tr.span("encoders.bi_warmup", parent, || train_biencoder(&mut bi, &concat, &cfg.bi_train));
    let mut opt = Adam::new(cfg.bi_meta.lr);
    let mut meta_rng = Rng::seed_from_u64(cfg.bi_meta.seed);
    for _ in 0..cfg.bi_meta.steps {
        let m = &cfg.bi_meta;
        let (weights, _, _) = tr.span("core.bi_meta_step", parent, || {
            biencoder_meta_step(
                &mut bi,
                &syn_pairs,
                &seed_pairs,
                &mut opt,
                m.syn_batch,
                m.seed_batch,
                m.seed_mix,
                m.normalize_example_grads,
                m.shared_params_only,
                m.threads,
                &mut meta_rng,
            )
        });
        seen.weights += weights.len();
        seen.zero_weights += weights.iter().filter(|&&w| w == 0.0).count();
    }
    let mix_epochs = (cfg.bi_train.epochs as f64 * cfg.seed_supervision_mix).ceil() as usize;
    tr.span("encoders.bi_seed_mix", parent, || {
        train_biencoder(&mut bi, &seed_pairs, &TrainConfig { epochs: mix_epochs, ..cfg.bi_train })
    });

    // Candidate sets from the trained bi-encoder over the target
    // dictionary (synthetic and seed mentions are all in-domain).
    let linker = tr.span("core.linker_build", parent, || {
        TwoStageLinker::new(
            &bi,
            &cross,
            task.vocab,
            kb,
            kb.domain_entities(task.domain.id),
            LinkerConfig { k: cfg.k_train_candidates, ..cfg.linker },
        )
    });
    let build_sets = |mentions: &[&LinkedMention]| -> Vec<CandidateSet> {
        mentions
            .iter()
            .take(cfg.cross_train_cap)
            .map(|m| linker.candidate_set(m, &linker.candidates(m)))
            .filter(|set| set.gold_index.is_some())
            .collect()
    };
    let (syn_sets, seed_sets) = tr.span("core.trainset_build", parent, || {
        (build_sets(&syn_mentions), build_sets(&seed_mentions))
    });
    drop(linker);
    seen.sets = syn_sets.iter().take(24).cloned().collect();

    let mut warm = syn_sets.clone();
    warm.extend(seed_sets.iter().cloned());
    tr.span("encoders.cross_warmup", parent, || {
        train_crossencoder(&mut cross, &warm, &cfg.cross_train)
    });
    let mut opt = Adam::new(cfg.cross_meta.lr);
    let mut meta_rng = Rng::seed_from_u64(cfg.cross_meta.seed);
    for _ in 0..cfg.cross_meta.steps {
        let m = &cfg.cross_meta;
        let (weights, _, _) = tr.span("core.cross_meta_step", parent, || {
            crossencoder_meta_step(
                &mut cross,
                &syn_sets,
                &seed_sets,
                &mut opt,
                m.syn_batch,
                m.seed_batch,
                m.seed_mix,
                m.normalize_example_grads,
                m.shared_params_only,
                m.threads,
                &mut meta_rng,
            )
        });
        seen.weights += weights.len();
        seen.zero_weights += weights.iter().filter(|&&w| w == 0.0).count();
    }
    tr.span("encoders.cross_seed_mix", parent, || {
        train_crossencoder(&mut cross, &seed_sets, &TrainConfig { epochs: 1, ..cfg.cross_train })
    });

    let model = TrainedLinker {
        bi,
        cross,
        linker_cfg: cfg.linker,
        bi_meta_stats: None,
        cross_meta_stats: None,
        syn_len: syn_pairs.len(),
    };
    (model, seen)
}
