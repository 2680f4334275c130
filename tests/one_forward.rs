//! Tier-1 slice of the one-forward contract (DESIGN.md §12; the full
//! versions live in `crates/encoders/src/frozen.rs`): each encoder's op
//! chain is stated twice — as a training graph and as a tape-free
//! sequence — and the graph's value, the model's own inference methods,
//! the frozen handle and `link_batch`'s rerank must agree bit for bit
//! (the last two at every thread count), past the chunking threshold,
//! with empty bags and empty sets. `link_batch`'s whole output is also pinned by digest
//! for both stage-one scans: the exact index, and the int8
//! `QuantizedIndex` a store-backed generation serves beside the same
//! exact encoders.

use metablink::common::Rng;
use metablink::core::linker::LinkResult;
use metablink::core::{LinkerConfig, TwoStageLinker};
use metablink::datagen::mentions::generate_mentions;
use metablink::datagen::{LinkedMention, World, WorldConfig};
use metablink::encoders::biencoder::{BiEncoderConfig, EMBED_CHUNK};
use metablink::encoders::crossencoder::{CandidateSet, CrossEncoderConfig};
use metablink::encoders::input::{build_vocab, InputConfig, TrainPair};
use metablink::encoders::retrieval::QuantizedIndex;
use metablink::encoders::{BiEncoder, CrossEncoder};
use metablink::par::Threads;
use metablink::tensor::{Params, QuantMode, Tape, Tensor};
use metablink::text::Vocab;
use std::sync::Arc;

fn bits(t: &Tensor) -> Vec<u64> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Gaussian noise on every parameter: a fresh model's biases are zero,
/// which would hide where each `+ b` sits in its fold.
fn perturb(params: &mut Params, seed: u64) {
    let mut rng = Rng::seed_from_u64(seed);
    let names: Vec<String> = params.iter().map(|(name, _)| name.to_string()).collect();
    for name in names {
        let id = params.id_of(&name).expect("a name the model registered");
        params.get_mut(id).data_mut().iter_mut().for_each(|v| *v += rng.normal(0.0, 0.1));
    }
}

/// Both encoders of the tiny world, seeded and perturbed.
fn encoders(vocab: &Vocab) -> (BiEncoder, CrossEncoder) {
    let bi_cfg = BiEncoderConfig { emb_dim: 12, hidden: 12, out_dim: 12, ..Default::default() };
    let cross_cfg = CrossEncoderConfig { emb_dim: 12, hidden: 12, ..Default::default() };
    let mut bi = BiEncoder::new(vocab, bi_cfg, &mut Rng::seed_from_u64(1));
    let mut cross = CrossEncoder::new(vocab, cross_cfg, &mut Rng::seed_from_u64(2));
    perturb(bi.params_mut(), 3);
    perturb(cross.params_mut(), 4);
    (bi, cross)
}

#[test]
fn training_graph_model_and_frozen_forwards_agree_bit_for_bit() {
    let world = World::generate(WorldConfig::tiny(63));
    let kb = world.kb();
    let vocab = build_vocab(kb, [], 1);
    let domain = world.domain("TargetX").clone();
    let mentions = generate_mentions(&world, &domain, 40, &mut Rng::seed_from_u64(3)).mentions;
    let (bi, cross) = encoders(&vocab);

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
    // `link_batch` scores the same bags from the table, unedited.
    let linked = cross.score_batch(&sets);
    sets[2].entities.clear();
    sets[2].titles.clear();
    sets[3].surface.clear();

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
    assert_eq!(bits(&frozen_bi.embed_entities_batch(&e_bags)), want_e);
    assert_eq!(score_bits(frozen_cross.score_batch(&sets)), want_scores);
    let linked = score_bits(linked);
    let mut tape = Tape::new();
    let graph = bi.forward_losses(&mut tape, &pairs);
    assert_eq!(bits(tape.value(graph.mentions)), want_m);
    assert_eq!(bits(tape.value(graph.entities)), want_e);
    for (set, want) in sets.iter().zip(&want_scores).filter(|(s, _)| !s.is_empty()) {
        let mut tape = Tape::new();
        let (_, logits) = cross.forward_logits(&mut tape, set);
        assert_eq!(&bits(tape.value(logits)), want);
    }
    for t in 1..=4 {
        let threads = Threads::new(t);
        assert_eq!(bits(&frozen_bi.embed_mentions_batch_with(&m_bags, threads)), want_m);
        let cfg = LinkerConfig { threads, ..linker_cfg };
        let peer = TwoStageLinker::new(&bi, &cross, &vocab, kb, kb.domain_entities(domain.id), cfg);
        let results = peer.link_batch(&mentions).expect("valid linker");
        let reranked: Vec<Vec<f64>> = results.into_iter().map(|r| r.rerank_scores).collect();
        assert_eq!(score_bits(reranked), linked, "threads={t}");
    }
}

/// FNV-1a over every field of a batch's results: ids, stage-one bits,
/// rerank bits and the prediction.
fn link_digest(results: &[LinkResult]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |word: u64| {
        for b in word.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for r in results {
        eat(r.retrieved.len() as u64);
        for &(id, score) in &r.retrieved {
            eat(u64::from(id.0));
            eat(score.to_bits());
        }
        r.rerank_scores.iter().for_each(|s| eat(s.to_bits()));
        eat(r.predicted.map_or(u64::MAX, |id| u64::from(id.0)));
    }
    h
}

#[test]
fn link_batch_outputs_match_the_pinned_digests() {
    let world = World::generate(WorldConfig::tiny(63));
    let kb = world.kb();
    let vocab = build_vocab(kb, [], 1);
    let domain = world.domain("TargetX").clone();
    let mut mentions = generate_mentions(&world, &domain, 40, &mut Rng::seed_from_u64(3)).mentions;
    mentions[4].surface.clear();
    mentions[7] = LinkedMention {
        left: String::new(),
        surface: String::new(),
        right: String::new(),
        ..mentions[7].clone()
    };
    let (bi, cross) = encoders(&vocab);
    for t in 1..=4 {
        let cfg = LinkerConfig { k: 16, threads: Threads::new(t), ..LinkerConfig::default() };
        let exact =
            TwoStageLinker::new(&bi, &cross, &vocab, kb, kb.domain_entities(domain.id), cfg);
        let qindex = QuantizedIndex::from_dense(exact.index()).expect("narrow index");
        let int8 = TwoStageLinker::with_frozen(
            &bi,
            &cross,
            &vocab,
            kb,
            cfg,
            exact.index_shared(),
            Some(Arc::new(qindex)),
            exact.frozen_bi().clone(),
            exact.frozen_cross().clone(),
        )
        .expect("the exact linker's own state");
        for (scan, linker, want) in
            [("exact", &exact, 0x367a_0d2f_6a05_c774), ("int8", &int8, 0xa574_26a5_1a02_1dc0)]
        {
            let got = link_digest(&linker.link_batch(&mentions).expect("valid linker"));
            assert_eq!(got, want, "{scan} index, threads={t}: {got:#018x}");
        }
    }
}
