//! Tier-1 slice of the one-forward contract (DESIGN.md §12; the full
//! versions live in `crates/encoders/src/frozen.rs`): each encoder's op
//! chain is stated twice — as a training graph and as a tape-free
//! sequence — and the graph's value, the model's own inference methods
//! and the frozen handle must agree bit for bit at every thread count,
//! past the chunking thresholds, with empty bags and empty sets.

use metablink::common::Rng;
use metablink::core::{LinkerConfig, TwoStageLinker};
use metablink::datagen::mentions::generate_mentions;
use metablink::datagen::{World, WorldConfig};
use metablink::encoders::biencoder::{BiEncoderConfig, EMBED_CHUNK};
use metablink::encoders::crossencoder::{CandidateSet, CrossEncoderConfig, SCORE_CHUNK};
use metablink::encoders::input::{build_vocab, InputConfig, TrainPair};
use metablink::encoders::{BiEncoder, CrossEncoder};
use metablink::par::Threads;
use metablink::tensor::{QuantMode, Tape, Tensor};

fn bits(t: &Tensor) -> Vec<u64> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn training_graph_model_and_frozen_forwards_agree_bit_for_bit() {
    let world = World::generate(WorldConfig::tiny(63));
    let kb = world.kb();
    let vocab = build_vocab(kb, [], 1);
    let domain = world.domain("TargetX").clone();
    let mentions = generate_mentions(&world, &domain, 40, &mut Rng::seed_from_u64(3)).mentions;
    let bi_cfg = BiEncoderConfig { emb_dim: 12, hidden: 12, out_dim: 12, ..Default::default() };
    let cross_cfg = CrossEncoderConfig { emb_dim: 12, hidden: 12, ..Default::default() };
    let bi = BiEncoder::new(&vocab, bi_cfg, &mut Rng::seed_from_u64(1));
    let cross = CrossEncoder::new(&vocab, cross_cfg, &mut Rng::seed_from_u64(2));

    let icfg = InputConfig::default();
    let mut pairs: Vec<TrainPair> =
        mentions.iter().map(|m| TrainPair::from_mention(&vocab, &icfg, kb, m)).collect();
    pairs[5].mention.clear();
    pairs[6].entity.clear();
    assert!(pairs.len() > EMBED_CHUNK);
    let linker_cfg = LinkerConfig { k: 5, ..LinkerConfig::default() };
    let linker =
        TwoStageLinker::new(&bi, &cross, &vocab, kb, kb.domain_entities(domain.id), linker_cfg);
    let mut sets: Vec<CandidateSet> =
        mentions.iter().map(|m| linker.candidate_set(m, &linker.candidates(m))).collect();
    sets[2].entities.clear();
    sets[2].titles.clear();
    sets[3].surface.clear();
    assert!(sets.len() > SCORE_CHUNK);

    let m_bags: Vec<Vec<u32>> = pairs.iter().map(|p| p.mention.clone()).collect();
    let e_bags: Vec<Vec<u32>> = pairs.iter().map(|p| p.entity.clone()).collect();
    let (want_m, want_e) = (bits(&bi.embed_mentions(&m_bags)), bits(&bi.embed_entities(&e_bags)));
    let score_bits = |scores: Vec<Vec<f64>>| -> Vec<Vec<u64>> {
        scores.iter().map(|s| s.iter().map(|x| x.to_bits()).collect()).collect()
    };
    let want_scores = score_bits(cross.score_batch(&sets));
    assert!(want_scores[2].is_empty() && want_scores[3].len() == 5);

    let (frozen_bi, frozen_cross) = (bi.freeze(QuantMode::Exact), cross.freeze(QuantMode::Exact));
    assert_eq!(bits(&frozen_bi.embed_mentions_batch(&m_bags)), want_m);
    assert_eq!(score_bits(frozen_cross.score_batch(&sets)), want_scores);
    for t in 1..=4 {
        let threads = Threads::new(t);
        let mut tape = Tape::with_threads(threads);
        let graph = bi.forward_losses(&mut tape, &pairs);
        assert_eq!(bits(tape.value(graph.mentions)), want_m, "threads={t}");
        assert_eq!(bits(tape.value(graph.entities)), want_e, "threads={t}");
        assert_eq!(bits(&frozen_bi.embed_mentions_batch_with(&m_bags, threads)), want_m);
        assert_eq!(bits(&frozen_bi.embed_entities_batch_with(&e_bags, threads)), want_e);
        assert_eq!(score_bits(frozen_cross.score_batch_with(&sets, threads)), want_scores);
        for (set, want) in sets.iter().zip(&want_scores).filter(|(s, _)| !s.is_empty()) {
            let mut tape = Tape::with_threads(threads);
            let (_, logits) = cross.forward_logits(&mut tape, set);
            assert_eq!(&bits(tape.value(logits)), want, "threads={t}");
        }
    }
}
