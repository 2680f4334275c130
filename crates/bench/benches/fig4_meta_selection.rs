//! Figure 4 — effectiveness of meta-learning: inject bad training
//! pairs (mentions relinked to random entities) into the synthetic data
//! and measure the selection ratio (fraction of sampled appearances
//! with above-threshold weight) of normal vs bad data during
//! meta-training of the bi-encoder on YuGiOh.
//!
//! Paper shape: normal data selected ≈ 50% of the time, bad data ≈ 20%.

use mb_common::Rng;
use mb_core::reweight::{train_meta, MetaConfig};
use mb_datagen::noise::inject_bad_pairs;
use mb_encoders::biencoder::BiEncoder;
use mb_encoders::input::TrainPair;
use mb_encoders::train::{train_biencoder, TrainConfig};
use mb_eval::{ExperimentContext, Table};
use mb_tensor::optim::Adam;

fn main() {
    let ctx = ExperimentContext::build(mb_bench::bench_context_config(42));
    let domain = "YuGiOh";
    let world = ctx.dataset.world();
    let dom = world.domain(domain);
    let syn = ctx.syn_of(domain);
    let seed_mentions = &ctx.dataset.split(domain).seed;

    // Tag + corrupt: add 50% bad pairs on top of the syn data.
    let mentions: Vec<_> = syn.rewritten.iter().map(|p| p.mention.clone()).collect();
    let pool = world.kb().domain_entities(dom.id).to_vec();
    let mut rng = Rng::seed_from_u64(0xF4);
    let tagged = inject_bad_pairs(&mentions, &pool, mentions.len() / 2, &mut rng);

    let icfg = mb_bench::bench_model_config(42);
    let featurize = |m: &mb_datagen::LinkedMention| {
        TrainPair::from_mention(&ctx.vocab, &icfg.linker.input, world.kb(), m)
    };
    let pairs: Vec<TrainPair> = tagged.iter().map(|t| featurize(&t.mention)).collect();
    let seed_pairs: Vec<TrainPair> = seed_mentions.iter().map(featurize).collect();

    // Warm start on the noisy mixture (as the pipeline warm-starts on
    // its training data), keeping the seed unseen so its gradient stays
    // informative; then meta-train and record selection statistics.
    let env_u = |k: &str, d: usize| std::env::var(k).ok().and_then(|v| v.parse().ok()).unwrap_or(d);
    let env_f = |k: &str, d: f64| std::env::var(k).ok().and_then(|v| v.parse().ok()).unwrap_or(d);
    let mut model = BiEncoder::new(&ctx.vocab, icfg.bi, &mut Rng::seed_from_u64(1));
    match env_u("WARM_MODE", 0) {
        0 => {}
        1 => {
            train_biencoder(
                &mut model,
                &pairs,
                &TrainConfig { epochs: 6, batch_size: 32, lr: 5e-3, seed: 2 },
            );
        }
        _ => {
            train_biencoder(
                &mut model,
                &pairs,
                &TrainConfig {
                    epochs: env_u("WARM_MIX_EPOCHS", 6),
                    batch_size: 32,
                    lr: 5e-3,
                    seed: 2,
                },
            );
            train_biencoder(
                &mut model,
                &seed_pairs,
                &TrainConfig {
                    epochs: env_u("WARM_SEED_EPOCHS", 10),
                    batch_size: 16,
                    lr: 5e-3,
                    seed: 3,
                },
            );
        }
    }
    let meta_cfg = MetaConfig {
        steps: env_u("META_STEPS", 800),
        syn_batch: env_u("SYN_BATCH", 16),
        seed_batch: env_u("SEED_BATCH", 50),
        lr: env_f("META_LR", 2e-3),
        seed: 3,
        select_threshold_factor: env_f("THRESH", 1.0),
        seed_mix: env_f("SEED_MIX", 0.1),
        normalize_example_grads: env_u("NORMALIZE", 1) == 1,
        shared_params_only: env_u("SHARED_ONLY", 1) == 1,
        threads: mb_par::Threads::new(env_u("THREADS", 1)),
    };
    let mut opt = Adam::new(meta_cfg.lr);
    // Burn-in phase: let the anchored meta-training learn the domain
    // structure first; selection is then measured on the second phase,
    // where the weights reflect data quality rather than random init.
    let burn = env_u("BURN_STEPS", 0);
    if burn > 0 {
        let burn_cfg = MetaConfig { steps: burn, ..meta_cfg };
        train_meta(&mut model, &pairs, &seed_pairs, &mut opt, &burn_cfg, None)
            .expect("no checkpoint manager, nothing to fail");
    }
    let stats = train_meta(&mut model, &pairs, &seed_pairs, &mut opt, &meta_cfg, None)
        .expect("no checkpoint manager, nothing to fail");

    let normal_idx: Vec<usize> = (0..tagged.len()).filter(|&i| !tagged[i].is_bad).collect();
    let bad_idx: Vec<usize> = (0..tagged.len()).filter(|&i| tagged[i].is_bad).collect();
    let normal = stats.mean_selection_ratio(normal_idx.iter().copied());
    let bad = stats.mean_selection_ratio(bad_idx.iter().copied());

    let mut t = Table::new(
        "Figure 4 — meta-learning selection ratio of normal vs injected bad data (bi-encoder, YuGiOh)",
        &["Data source", "#pairs", "Mean selection ratio"],
    );
    t.row(&["normal (syn)".into(), normal_idx.len().to_string(), format!("{:.3}", normal)]);
    t.row(&["bad (random entity)".into(), bad_idx.len().to_string(), format!("{:.3}", bad)]);
    t.note(&format!(
        "paper shape: normal > bad (paper: ~0.5 vs ~0.2). Observed gap {:+.3} (ratio {:.2}x); \
         the direction reproduces, the magnitude is attenuated on this substrate — see EXPERIMENTS.md. \
         zero-weight (delta-guard) steps: {}",
        normal - bad,
        normal / bad.max(1e-9),
        stats.zero_weight_steps
    ));
    mb_bench::harness::emit_table(&t, "fig4_meta_selection");
}
