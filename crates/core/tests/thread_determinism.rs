//! Cross-thread-count determinism suite: every parallel path added by
//! mb-par must produce **bit-identical** results for threads 1, 2, and
//! 4 — linker outputs, meta-learned example weights, and trained
//! parameters. Partitioning is always by data (fixed chunk sizes, MC
//! row bands), never by worker count, so a thread count can change
//! wall-clock time but nothing observable.

use mb_common::Rng;
use mb_core::linker::{LinkerConfig, TwoStageLinker};
use mb_core::reweight::{biencoder_meta_step, crossencoder_meta_step};
use mb_datagen::{LinkedMention, World, WorldConfig};
use mb_encoders::biencoder::{BiEncoder, BiEncoderConfig};
use mb_encoders::crossencoder::{CandidateSet, CrossEncoder, CrossEncoderConfig};
use mb_encoders::input::{build_vocab, InputConfig, TrainPair};
use mb_par::Threads;
use mb_tensor::optim::Adam;

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

struct Fixture {
    world: World,
    vocab: mb_text::Vocab,
    bi: BiEncoder,
    cross: CrossEncoder,
    mentions: Vec<LinkedMention>,
    pairs: Vec<TrainPair>,
}

fn fixture() -> Fixture {
    let world = World::generate(WorldConfig::tiny(23));
    let vocab = build_vocab(world.kb(), [], 1);
    let domain = world.domain("TargetX").clone();
    let mut rng = Rng::seed_from_u64(11);
    let ms = mb_datagen::mentions::generate_mentions(&world, &domain, 96, &mut rng);
    let icfg = InputConfig::default();
    let pairs: Vec<TrainPair> =
        ms.mentions.iter().map(|m| TrainPair::from_mention(&vocab, &icfg, world.kb(), m)).collect();
    let bi = BiEncoder::new(
        &vocab,
        BiEncoderConfig { emb_dim: 16, hidden: 16, out_dim: 16, ..Default::default() },
        &mut Rng::seed_from_u64(1),
    );
    let cross = CrossEncoder::new(
        &vocab,
        CrossEncoderConfig { emb_dim: 16, hidden: 16, ..Default::default() },
        &mut Rng::seed_from_u64(2),
    );
    Fixture { world, vocab, bi, cross, mentions: ms.mentions, pairs }
}

fn param_bits(params: &mb_tensor::Params) -> Vec<u64> {
    params.iter().flat_map(|(_, t)| t.data().iter().map(|v| v.to_bits())).collect()
}

fn f64_bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|v| v.to_bits()).collect()
}

/// Full two-stage linker outputs (retrieval scores, rerank scores,
/// predictions) rendered to bit patterns.
fn link_outputs(f: &Fixture, threads: Threads) -> Vec<(Option<u32>, Vec<u64>, Vec<u64>)> {
    let domain = f.world.domain("TargetX");
    let linker = TwoStageLinker::new(
        &f.bi,
        &f.cross,
        &f.vocab,
        f.world.kb(),
        f.world.kb().domain_entities(domain.id),
        LinkerConfig { k: 8, threads, ..LinkerConfig::default() },
    );
    linker
        .link_batch(&f.mentions)
        .expect("link")
        .into_iter()
        .map(|r| {
            let retrieved: Vec<u64> = r.retrieved.iter().map(|(_, s)| s.to_bits()).collect();
            (r.predicted.map(|id| id.0), retrieved, f64_bits(&r.rerank_scores))
        })
        .collect()
}

#[test]
fn linker_outputs_are_bit_identical_across_thread_counts() {
    let f = fixture();
    let baseline = link_outputs(&f, Threads::single());
    for t in THREAD_COUNTS {
        assert_eq!(baseline, link_outputs(&f, Threads::new(t)), "threads={t}");
    }
}

#[test]
fn evaluation_metrics_are_bit_identical_across_thread_counts() {
    let f = fixture();
    let domain = f.world.domain("TargetX");
    let linker = TwoStageLinker::new(
        &f.bi,
        &f.cross,
        &f.vocab,
        f.world.kb(),
        f.world.kb().domain_entities(domain.id),
        LinkerConfig { k: 8, ..LinkerConfig::default() },
    );
    let serial = linker.evaluate(&f.mentions);
    for t in THREAD_COUNTS {
        let par = linker.evaluate_parallel(&f.mentions, Threads::new(t)).expect("no panics");
        assert_eq!(serial.recall_at_k.to_bits(), par.recall_at_k.to_bits(), "threads={t}");
        assert_eq!(serial.normalized_acc.to_bits(), par.normalized_acc.to_bits(), "threads={t}");
        assert_eq!(
            serial.unnormalized_acc.to_bits(),
            par.unnormalized_acc.to_bits(),
            "threads={t}"
        );
        assert_eq!(serial.count, par.count, "threads={t}");
    }
}

/// One bi-encoder meta step from a fresh model; returns (example
/// weights, selected indices, meta loss, trained parameter bits).
fn bi_meta(f: &Fixture, threads: Threads) -> (Vec<u64>, Vec<usize>, u64, Vec<u64>) {
    let mut m = f.bi.clone();
    let mut opt = Adam::new(1e-3);
    let mut rng = Rng::seed_from_u64(7);
    let (w, idx, loss) = biencoder_meta_step(
        &mut m,
        &f.pairs[..64],
        &f.pairs[64..96],
        &mut opt,
        16,
        8,
        0.3,
        true,
        true,
        threads,
        &mut rng,
    );
    (f64_bits(&w), idx, loss.to_bits(), param_bits(m.params()))
}

#[test]
fn biencoder_meta_step_is_bit_identical_across_thread_counts() {
    let f = fixture();
    let baseline = bi_meta(&f, Threads::single());
    for t in THREAD_COUNTS {
        assert_eq!(baseline, bi_meta(&f, Threads::new(t)), "threads={t}");
    }
}

/// One cross-encoder meta step from a fresh model over real candidate
/// sets produced by the linker.
fn cross_meta(f: &Fixture, sets: &[CandidateSet], threads: Threads) -> (Vec<u64>, u64, Vec<u64>) {
    let mut m = f.cross.clone();
    let mut opt = Adam::new(1e-3);
    let mut rng = Rng::seed_from_u64(9);
    let (w, _, loss) = crossencoder_meta_step(
        &mut m,
        &sets[..12],
        &sets[12..18],
        &mut opt,
        6,
        4,
        0.3,
        true,
        true,
        threads,
        &mut rng,
    );
    (f64_bits(&w), loss.to_bits(), param_bits(m.params()))
}

#[test]
fn crossencoder_meta_step_is_bit_identical_across_thread_counts() {
    let f = fixture();
    let domain = f.world.domain("TargetX");
    let linker = TwoStageLinker::new(
        &f.bi,
        &f.cross,
        &f.vocab,
        f.world.kb(),
        f.world.kb().domain_entities(domain.id),
        LinkerConfig { k: 8, ..LinkerConfig::default() },
    );
    // Training requires gold to be retrieved; keep only such sets.
    let sets: Vec<CandidateSet> = f
        .mentions
        .iter()
        .map(|m| {
            let retrieved = linker.candidates(m);
            linker.candidate_set(m, &retrieved)
        })
        .filter(|s| s.gold_index.is_some())
        .take(18)
        .collect();
    assert!(sets.len() >= 18, "fixture retrieved gold for only {} mentions", sets.len());
    let baseline = cross_meta(&f, &sets, Threads::single());
    for t in THREAD_COUNTS {
        assert_eq!(baseline, cross_meta(&f, &sets, Threads::new(t)), "threads={t}");
    }
}

/// Several consecutive meta steps: parameter trajectories (not just one
/// step) must agree, so thread-dependent state cannot creep in through
/// the optimizer or the sampler.
#[test]
fn trained_parameters_are_bit_identical_across_thread_counts() {
    let f = fixture();
    let train = |threads: Threads| {
        let mut m = f.bi.clone();
        let mut opt = Adam::new(1e-3);
        let mut rng = Rng::seed_from_u64(13);
        for _ in 0..4 {
            biencoder_meta_step(
                &mut m,
                &f.pairs[..64],
                &f.pairs[64..96],
                &mut opt,
                12,
                8,
                0.3,
                true,
                true,
                threads,
                &mut rng,
            );
        }
        param_bits(m.params())
    };
    let baseline = train(Threads::single());
    for t in THREAD_COUNTS {
        assert_eq!(baseline, train(Threads::new(t)), "threads={t}");
    }
}
