//! Serving-path inference benchmark: the frozen tape-free forward and
//! its int8 quantized variant at the serving batch size, and the
//! rerank as `link_batch` runs it (each mention's retrieved candidates
//! scored from the entity feature table, at the link shape). Measures
//! the embedding-table memory shrink and computes quantized top-1
//! agreement on a trained tiny-world eval set. (There is no tape-built
//! inference path left to compare against; bit-identity of the frozen
//! forward with the training graph is pinned by the `mb-encoders`
//! tests and `tests/one_forward.rs`.) Writes
//! `target/experiments/BENCH_inference.{txt,json}`; the JSON carries a
//! `summary` object with the acceptance metrics, and the bench-regression
//! CI gate (`scripts/bench_gate.sh`) pairs its medians against the
//! merge-base's.

use mb_bench::harness::Harness;
use mb_common::Rng;
use mb_core::linker::{LinkerConfig, TwoStageLinker};
use mb_datagen::mentions::generate_mentions;
use mb_datagen::{World, WorldConfig};
use mb_encoders::biencoder::{BiEncoder, BiEncoderConfig};
use mb_encoders::crossencoder::{CandidateSet, CrossEncoder, CrossEncoderConfig};
use mb_encoders::input::{
    build_vocab, mention_bag, surface_bag, EntityFeatures, InputConfig, TrainPair,
};
use mb_encoders::train::{train_biencoder, train_crossencoder, TrainConfig};
use mb_tensor::QuantMode;
use std::hint::black_box;
use std::sync::Arc;

/// The serving batch size the acceptance criterion is pinned at.
const BATCH: usize = 8;
/// Retrieved candidates each mention reranks, as in a served link
/// (`LinkerConfig::default().k`).
const K: usize = 64;

fn main() {
    // --- Throughput: production-scale vocabulary (32k tokens,
    // BERT-sized), untrained weights (timings do not depend on
    // training). The padded vocab makes the embedding tables the bulk
    // of the model, as in a real deployment.
    let world = World::generate(WorldConfig::tiny(17));
    let filler: Vec<String> = (0..32768).map(|i| format!("tok{i}")).collect();
    let extra = filler.join(" ");
    let vocab = build_vocab(world.kb(), [extra.as_str()], 1);
    let domain = world.domain("TargetX").clone();
    let mut rng = Rng::seed_from_u64(7);
    let mentions = generate_mentions(&world, &domain, 64, &mut rng).mentions;
    let bi = BiEncoder::new(
        &vocab,
        BiEncoderConfig { emb_dim: 64, hidden: 64, out_dim: 64, ..Default::default() },
        &mut Rng::seed_from_u64(1),
    );
    // The link shape: the default (served) cross-encoder width.
    let cross =
        CrossEncoder::new(&vocab, CrossEncoderConfig::default(), &mut Rng::seed_from_u64(2));
    let icfg = InputConfig::default();
    let batch = &mentions[..BATCH];
    let bags: Vec<Vec<u32>> = batch.iter().map(|m| mention_bag(&vocab, &icfg, m)).collect();
    let surfaces: Vec<Vec<u32>> = batch.iter().map(|m| surface_bag(&vocab, m)).collect();
    let dict = world.kb().domain_entities(domain.id);
    let retrieved: Vec<Vec<_>> = (0..BATCH)
        .map(|i| {
            let mut r = Rng::seed_from_u64(100 + i as u64);
            (0..K).map(|_| (*r.choose(dict), 0.0)).collect()
        })
        .collect();
    let features = EntityFeatures::try_build(&vocab, &icfg, world.kb(), dict)
        .expect("the domain dictionary is inside its kb");

    let frozen_bi = bi.freeze(QuantMode::Exact);
    let frozen_cross = cross.freeze(QuantMode::Exact).with_features(Arc::new(features));
    let i8_bi = bi.freeze(QuantMode::Int8);

    let mut h = Harness::new();
    h.bench_units(&format!("inference/embed/frozen/batch{BATCH}"), BATCH as f64, "mention", || {
        black_box(frozen_bi.embed_mentions_batch(black_box(&bags)));
    });
    h.bench_units(&format!("inference/embed/int8/batch{BATCH}"), BATCH as f64, "mention", || {
        black_box(i8_bi.embed_mentions_batch(black_box(&bags)));
    });
    h.bench_units(&format!("inference/rerank/table/k{K}"), BATCH as f64, "set", || {
        for ((bag, surface), retrieved) in bags.iter().zip(&surfaces).zip(&retrieved) {
            black_box(frozen_cross.score_retrieved(bag, surface, black_box(retrieved)));
        }
    });

    // Embedding-table residency across modes (bi + cross tables; the
    // tables dominate model size at production vocab scale).
    let bytes_f64 = frozen_bi.table_bytes() + frozen_cross.table_bytes();
    let bytes_i8 = i8_bi.table_bytes() + cross.freeze(QuantMode::Int8).table_bytes();

    // --- Quantized top-1 agreement on a *trained* model: near-tie
    // decisions only mean something once the scores carry signal.
    let (agree_i8, n_eval) = quantized_agreement();

    let summary = format!(
        "{{\"batch\":{BATCH},\"k\":{K},\
         \"table_bytes_f64\":{bytes_f64},\
         \"table_bytes_int8\":{bytes_i8},\
         \"memory_shrink_int8\":{:.2},\
         \"top1_agreement_int8\":{agree_i8:.2},\
         \"agreement_eval_mentions\":{n_eval}}}",
        bytes_f64 as f64 / bytes_i8 as f64,
    );
    h.report_with_summary(
        "Serving-path inference: frozen f64 vs quantized",
        "BENCH_inference",
        &summary,
    );

    println!("\nacceptance metrics (batch {BATCH}):");
    println!(
        "  table memory: f64 {bytes_f64} B, int8 {bytes_i8} B ({:.2}x)",
        bytes_f64 as f64 / bytes_i8 as f64,
    );
    println!("  top-1 agreement over {n_eval} mentions: int8 {agree_i8:.2}%");
}

/// Train the tiny-world fixture (the same recipe as mb-core's linker
/// tests) and measure how often the int8 linker reproduces the
/// exact linker's top-1 prediction on held-out mentions.
fn quantized_agreement() -> (f64, usize) {
    let world = World::generate(WorldConfig::tiny(43));
    let vocab = build_vocab(world.kb(), [], 1);
    let domain = world.domain("TargetX").clone();
    let mut rng = Rng::seed_from_u64(8);
    let ms = generate_mentions(&world, &domain, 520, &mut rng);
    let (train, test) = ms.mentions.split_at(150);
    let icfg = InputConfig::default();
    let pairs: Vec<TrainPair> =
        train.iter().map(|m| TrainPair::from_mention(&vocab, &icfg, world.kb(), m)).collect();
    let mut bi = BiEncoder::new(
        &vocab,
        BiEncoderConfig { emb_dim: 16, hidden: 16, out_dim: 16, ..Default::default() },
        &mut Rng::seed_from_u64(1),
    );
    train_biencoder(
        &mut bi,
        &pairs,
        &TrainConfig { epochs: 10, batch_size: 24, lr: 0.01, seed: 2 },
    );
    let mut cross = CrossEncoder::new(
        &vocab,
        CrossEncoderConfig { emb_dim: 16, hidden: 16, ..Default::default() },
        &mut Rng::seed_from_u64(3),
    );
    let dict = world.kb().domain_entities(domain.id);
    let base = LinkerConfig { k: 16, input: icfg, ..LinkerConfig::default() };
    {
        let linker = TwoStageLinker::new(&bi, &cross, &vocab, world.kb(), dict, base);
        let sets: Vec<CandidateSet> = train
            .iter()
            .filter_map(|m| {
                let retrieved = linker.candidates(m);
                let set = linker.candidate_set(m, &retrieved);
                set.gold_index.map(|_| set)
            })
            .collect();
        let mut c2 = cross.clone();
        train_crossencoder(
            &mut c2,
            &sets,
            &TrainConfig { epochs: 4, batch_size: 1, lr: 0.01, seed: 4 },
        );
        cross = c2;
    }
    let exact = TwoStageLinker::new(&bi, &cross, &vocab, world.kb(), dict, base);
    let want: Vec<_> =
        exact.link_batch(test).expect("link").into_iter().map(|r| r.predicted).collect();
    let cfg = LinkerConfig { quant: QuantMode::Int8, ..base };
    let linker = TwoStageLinker::new(&bi, &cross, &vocab, world.kb(), dict, cfg);
    let got: Vec<_> =
        linker.link_batch(test).expect("link").into_iter().map(|r| r.predicted).collect();
    let agree = want.iter().zip(&got).filter(|(a, b)| a == b).count();
    (100.0 * agree as f64 / want.len().max(1) as f64, test.len())
}
