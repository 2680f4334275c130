//! Micro-benchmarks of the substrate hot paths: tokenizer throughput,
//! encoder forward/training steps, exact top-k retrieval (the IVF is
//! timed by `bench_retrieval`), one meta-reweight step vs a plain
//! training step, and world generation. Runs on the in-repo timing
//! harness (`mb_bench::harness`) and writes
//! `target/experiments/micro.{txt,json}`.

use mb_bench::harness::Harness;
use mb_common::Rng;
use mb_core::reweight::biencoder_meta_step;
use mb_datagen::mentions::generate_mentions;
use mb_datagen::{World, WorldConfig};
use mb_encoders::biencoder::{BiEncoder, BiEncoderConfig};
use mb_encoders::input::{build_vocab, InputConfig, TrainPair};
use mb_encoders::retrieval::{CandidateSource, DenseIndex};
use mb_tensor::optim::{Adam, Sgd};
use mb_tensor::Tensor;
use mb_text::tokenize;

fn fixture() -> (World, mb_text::Vocab, Vec<TrainPair>) {
    let world = World::generate(WorldConfig::tiny(7));
    let vocab = build_vocab(world.kb(), [], 1);
    let domain = world.domain("TargetX").clone();
    let mut rng = Rng::seed_from_u64(3);
    let ms = generate_mentions(&world, &domain, 256, &mut rng);
    let cfg = InputConfig::default();
    let pairs =
        ms.mentions.iter().map(|m| TrainPair::from_mention(&vocab, &cfg, world.kb(), m)).collect();
    (world, vocab, pairs)
}

fn bench_tokenizer(h: &mut Harness) {
    let text = "The Curse of the Golden Master is the fourth episode of the third season, \
                which was aired on April 16 and featured the strongest duel of the year."
        .repeat(8);
    h.bench_units("tokenizer/tokenize_1KB", text.len() as f64, "B", || {
        std::hint::black_box(tokenize(std::hint::black_box(&text)));
    });
}

fn bench_encoder(h: &mut Harness) {
    let (_, vocab, pairs) = fixture();
    let model = BiEncoder::new(&vocab, BiEncoderConfig::default(), &mut Rng::seed_from_u64(1));
    let batch: Vec<TrainPair> = pairs[..32].to_vec();
    h.bench_units("biencoder/forward_loss_batch32", 32.0, "pair", || {
        std::hint::black_box(model.batch_loss(std::hint::black_box(&batch)));
    });
    {
        let mut m = model.clone();
        let mut opt = Adam::new(1e-3);
        h.bench_units("biencoder/train_step_batch32", 32.0, "pair", || {
            std::hint::black_box(m.train_step(std::hint::black_box(&batch), &mut opt));
        });
    }
    let bags: Vec<Vec<u32>> = pairs[..64].iter().map(|p| p.entity.clone()).collect();
    h.bench_units("biencoder/embed_entities_batch64", 64.0, "entity", || {
        std::hint::black_box(model.embed_entities(std::hint::black_box(&bags)));
    });
}

fn bench_meta_step(h: &mut Harness) {
    let (_, vocab, pairs) = fixture();
    // Plain step vs one meta-reweight step at the same batch size: the
    // overhead factor is the headline cost of Algorithm 1 (the paper
    // reports 2× memory; we measure time).
    for n in [8usize, 16, 24] {
        {
            let mut m =
                BiEncoder::new(&vocab, BiEncoderConfig::default(), &mut Rng::seed_from_u64(1));
            let mut opt = Sgd::new(1e-3);
            let batch: Vec<TrainPair> = pairs[..n].to_vec();
            h.bench(&format!("meta/plain_step/{n}"), || {
                std::hint::black_box(m.train_step(std::hint::black_box(&batch), &mut opt));
            });
        }
        {
            let mut m =
                BiEncoder::new(&vocab, BiEncoderConfig::default(), &mut Rng::seed_from_u64(1));
            let mut opt = Sgd::new(1e-3);
            let mut rng = Rng::seed_from_u64(5);
            h.bench(&format!("meta/meta_step/{n}"), || {
                std::hint::black_box(biencoder_meta_step(
                    &mut m,
                    &pairs[..128],
                    &pairs[128..160],
                    &mut opt,
                    n,
                    16,
                    0.3,
                    true,
                    true,
                    mb_par::Threads::single(),
                    &mut rng,
                ));
            });
        }
    }
}

fn bench_retrieval(h: &mut Harness) {
    for &n in &[1_000usize, 10_000, 50_000] {
        let mut rng = Rng::seed_from_u64(9);
        let mut vectors = Tensor::randn(vec![n, 32], 0.0, 1.0, &mut rng);
        for i in 0..n {
            let norm: f64 = vectors.row(i).iter().map(|v| v * v).sum::<f64>().sqrt();
            for v in vectors.row_mut(i) {
                *v /= norm;
            }
        }
        let ids: Vec<mb_kb::EntityId> = (0..n as u32).map(mb_kb::EntityId).collect();
        let exact = DenseIndex::try_from_vectors(vectors, ids)
            .expect("unit-norm bench vectors are well-formed");
        let query: Vec<f64> = (0..32).map(|_| rng.gaussian()).collect();
        h.bench_units(&format!("retrieval_top64/exact/{n}"), n as f64, "vec", || {
            std::hint::black_box(exact.top_k(std::hint::black_box(&query), 64));
        });
    }
}

fn bench_worldgen(h: &mut Harness) {
    h.bench("datagen/world_tiny_250_entities", || {
        std::hint::black_box(World::generate(std::hint::black_box(WorldConfig::tiny(11))));
    });
}

fn main() {
    let mut h = Harness::new();
    bench_tokenizer(&mut h);
    bench_encoder(&mut h);
    bench_meta_step(&mut h);
    bench_retrieval(&mut h);
    bench_worldgen(&mut h);
    h.report("Micro-benchmarks — substrate hot paths", "micro");
}
