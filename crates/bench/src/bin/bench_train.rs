//! Training-throughput benchmark at the `onboard_domain` scale: the
//! Zeshel-like benchmark world's vocabulary (≥ 4k tokens, so the
//! embedding table is ≈ 97 % of either model), its batch sizes (24
//! synthetic / 16 seed pairs per bi-encoder step, 8 / 6 candidate sets
//! per cross-encoder step), `dim` 32.
//!
//! * A hundred meta steps of Algorithm 1 for each encoder, alternating
//!   with the same steps restated from their public parts — per-example
//!   gradients, seed gradient, weights (Eqs. 12–14), weighted sum,
//!   optimizer — each part timed in place, so the report says where a
//!   step's time goes; the parts' sum over the step is in the summary
//!   (within 5 % when nothing is missing).
//! * One bi-encoder meta-epoch (a fixed number of steps) at 1/2/4
//!   worker threads, asserting that the learned parameters are
//!   bit-identical across thread counts.
//!
//! Writes `target/experiments/BENCH_train.{txt,json}`; the JSON is
//! committed at the repository root.

use mb_bench::harness::{BenchConfig, Harness};
use mb_common::Rng;
use mb_core::reweight::{meta_example_weights_masked, meta_step, MetaConfig, MetaModel};
use mb_datagen::mentions::generate_mentions;
use mb_datagen::{World, WorldConfig};
use mb_encoders::biencoder::{BiEncoder, BiEncoderConfig};
use mb_encoders::crossencoder::{CandidateSet, CrossEncoder, CrossEncoderConfig};
use mb_encoders::input::{build_vocab, entity_bag, title_bag, InputConfig, TrainPair};
use mb_par::Threads;
use mb_tensor::optim::Adam;
use mb_tensor::params::GradVec;
use std::time::{Duration, Instant};

/// Meta-steps per timed "epoch".
const STEPS: usize = 8;
/// Synthetic examples in the pool; the rest of the mentions are seeds.
const SYN: usize = 160;
/// Candidates per cross-encoder training set (`k_train_candidates`).
const CANDIDATES: usize = 16;
/// Meta steps timed for the step split, per encoder.
const SPLIT_STEPS: usize = 100;

struct Fixture {
    vocab: mb_text::Vocab,
    pairs: Vec<TrainPair>,
    sets: Vec<CandidateSet>,
}

fn fixture() -> Fixture {
    let world = World::generate(WorldConfig::zeshel_default(7));
    let vocab = build_vocab(world.kb(), [], 1);
    assert!(vocab.len() >= 4_000, "fixture vocabulary shrank to {} tokens", vocab.len());
    let domain = world.domain("Lego").clone();
    let mut rng = Rng::seed_from_u64(3);
    let ms = generate_mentions(&world, &domain, 192, &mut rng);
    let cfg = InputConfig::default();
    let pairs: Vec<TrainPair> =
        ms.mentions.iter().map(|m| TrainPair::from_mention(&vocab, &cfg, world.kb(), m)).collect();
    let ids = world.kb().domain_entities(domain.id);
    let sets = pairs
        .iter()
        .map(|p| {
            let mut cands = vec![p.gold];
            while cands.len() < CANDIDATES {
                let c = *rng.choose(ids);
                if !cands.contains(&c) {
                    cands.push(c);
                }
            }
            let bags = |id: &mb_kb::EntityId| {
                let e = world.kb().entity(*id);
                (entity_bag(&vocab, &cfg, e), title_bag(&vocab, e))
            };
            CandidateSet::new(p, cands.iter().map(bags).collect(), Some(0))
        })
        .collect();
    Fixture { vocab, pairs, sets }
}

/// `onboard_domain`'s batch sizes: 24 synthetic / 16 seed pairs per
/// bi-encoder step, 8 / 6 candidate sets per cross-encoder step.
const BI_BATCHES: (usize, usize) = (24, 16);
const CROSS_BATCHES: (usize, usize) = (8, 6);

fn meta_config((syn_batch, seed_batch): (usize, usize), threads: Threads) -> MetaConfig {
    MetaConfig { syn_batch, seed_batch, threads, ..MetaConfig::default() }
}

/// One meta-epoch from a fresh model; returns the trained parameters
/// flattened for the cross-thread bit-identity check.
fn meta_epoch(f: &Fixture, threads: Threads) -> Vec<u64> {
    let mut m = BiEncoder::new(&f.vocab, BiEncoderConfig::default(), &mut Rng::seed_from_u64(1));
    let cfg = meta_config(BI_BATCHES, threads);
    let mut opt = Adam::new(cfg.lr);
    let mut rng = Rng::seed_from_u64(5);
    for _ in 0..STEPS {
        meta_step(&mut m, &f.pairs[..SYN], &f.pairs[SYN..], &mut opt, &cfg, &mut rng);
    }
    param_bits(m.params())
}

/// The parts a meta step is split into, in the order they run.
const PARTS: [&str; 5] = ["example_grads", "seed_grad", "weights", "weighted_sum", "optimizer"];

/// [`meta_step`] restated from its public parts, each part timed where
/// it runs (caches as cold as the real step finds them). `split_steps`
/// holds it to the real step: same parameters, bit for bit.
fn timed_step<M: MetaModel>(
    model: &mut M,
    syn: &[M::Example],
    seed_set: &[M::Example],
    opt: &mut Adam,
    cfg: &MetaConfig,
    rng: &mut Rng,
) -> [Duration; 5] {
    let syn_idx = rng.sample_indices(syn.len(), cfg.syn_batch);
    let seed_idx = rng.sample_indices(seed_set.len(), cfg.seed_batch);
    let syn_batch: Vec<&M::Example> = syn_idx.iter().map(|&i| &syn[i]).collect();
    let seed_batch: Vec<&M::Example> = seed_idx.iter().map(|&i| &seed_set[i]).collect();
    let emb = model.embedding_param_index();
    let keep = |i: usize| !cfg.shared_params_only || i != emb;

    let mut marks = [Instant::now(); 6];
    let example = model.example_grads(&syn_batch, cfg.threads);
    marks[1] = Instant::now();
    let seed_grad = model.seed_grad(&seed_batch, cfg.threads);
    marks[2] = Instant::now();
    let grads = example.iter().map(|(_, g)| g);
    let weights =
        meta_example_weights_masked(grads, &seed_grad, cfg.normalize_example_grads, &keep);
    marks[3] = Instant::now();
    let mut update = GradVec::zeros_like(model.params());
    for ((_, gj), &wj) in example.iter().zip(&weights) {
        if wj > 0.0 {
            update.axpy(wj, gj);
        }
    }
    update.axpy(cfg.seed_mix, &seed_grad);
    marks[4] = Instant::now();
    opt.step(model.params_mut(), &update);
    marks[5] = Instant::now();
    std::array::from_fn(|i| marks[i + 1] - marks[i])
}

fn param_bits(params: &mb_tensor::Params) -> Vec<u64> {
    params.iter().flat_map(|(_, t)| t.data().iter().map(|v| v.to_bits())).collect()
}

/// Run `SPLIT_STEPS` single-threaded meta steps of `model` twice, real
/// and restated alternately, and record the step and its parts;
/// returns the parts' summed medians over the step's median.
fn split_steps<M: MetaModel + Clone>(
    h: &mut Harness,
    name: &str,
    model: &M,
    pool: &[M::Example],
    batches: (usize, usize),
) -> f64 {
    let cfg = meta_config(batches, Threads::single());
    let (syn, seed_set) = pool.split_at(SYN);
    let (mut real, mut restated) = (model.clone(), model.clone());
    let (mut real_opt, mut restated_opt) = (Adam::new(cfg.lr), Adam::new(cfg.lr));
    let (mut real_rng, mut restated_rng) = (Rng::seed_from_u64(5), Rng::seed_from_u64(5));
    let mut step_ns = Vec::with_capacity(SPLIT_STEPS);
    let mut part_ns: [Vec<f64>; 5] = Default::default();
    for _ in 0..SPLIT_STEPS {
        let t = Instant::now();
        std::hint::black_box(meta_step(
            &mut real,
            syn,
            seed_set,
            &mut real_opt,
            &cfg,
            &mut real_rng,
        ));
        step_ns.push(t.elapsed().as_nanos() as f64);
        let parts =
            timed_step(&mut restated, syn, seed_set, &mut restated_opt, &cfg, &mut restated_rng);
        for (samples, d) in part_ns.iter_mut().zip(parts) {
            samples.push(d.as_nanos() as f64);
        }
    }
    assert_eq!(
        param_bits(real.params()),
        param_bits(restated.params()),
        "{name}: the restated step is no longer meta_step"
    );
    let step = h.record(&format!("{name}/step"), None, 1, step_ns).median_ns;
    let mut parts = 0.0;
    for (part, samples) in PARTS.iter().zip(part_ns) {
        parts += h.record(&format!("{name}/{part}"), None, 1, samples).median_ns;
    }
    parts / step
}

fn main() {
    let f = fixture();
    let mut h = Harness::with_config(BenchConfig {
        warmup: Duration::from_millis(100),
        samples: 15,
        min_sample_time: Duration::from_millis(20),
    });
    let bi = BiEncoder::new(&f.vocab, BiEncoderConfig::default(), &mut Rng::seed_from_u64(1));
    let cross =
        CrossEncoder::new(&f.vocab, CrossEncoderConfig::default(), &mut Rng::seed_from_u64(2));
    let bi_ratio = split_steps(&mut h, "bi_meta", &bi, &f.pairs, BI_BATCHES);
    let cross_ratio = split_steps(&mut h, "cross_meta", &cross, &f.sets, CROSS_BATCHES);

    let baseline = meta_epoch(&f, Threads::single());
    for threads in [1usize, 2, 4] {
        let t = Threads::new(threads);
        assert_eq!(
            baseline,
            meta_epoch(&f, t),
            "meta-epoch parameters diverged at {threads} threads"
        );
        h.bench_units(&format!("meta_epoch/threads={threads}"), STEPS as f64, "step", || {
            std::hint::black_box(meta_epoch(&f, t));
        });
    }
    let summary = format!(
        "{{\"vocab\":{},\"params\":{},\"bi_parts_over_step\":{bi_ratio:.4},\
         \"cross_parts_over_step\":{cross_ratio:.4}}}",
        f.vocab.len(),
        bi.params().numel(),
    );
    h.report_with_summary(
        "One meta step, split; meta-epoch by worker threads",
        "BENCH_train",
        &summary,
    );
    println!("\nparts / step: bi-encoder {bi_ratio:.3}, cross-encoder {cross_ratio:.3}");
    let median = |name: &str| h.results().iter().find(|m| m.name == name).map(|m| m.median_ns);
    if let (Some(t1), Some(t4)) = (median("meta_epoch/threads=1"), median("meta_epoch/threads=4")) {
        println!("speedup at 4 threads vs 1: {:.2}x", t1 / t4);
    }
}
