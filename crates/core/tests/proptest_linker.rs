//! Property tests of the batched inference path: for ANY multiset of
//! mentions (repeats included), ANY chunking, ANY thread count, both
//! stage-one scans (the exact index, and the int8 `QuantizedIndex` a
//! store-backed generation serves) and every `k` up to past the
//! dictionary size,
//! `link_batch` must equal a naive reference linker that links each
//! mention on its own, bit for bit — empty mention and surface bags and
//! titles that tokenise to nothing included. This is the contract
//! `mb-serve` relies on — micro-batching must never change model
//! outputs.

#[path = "../../encoders/tests/support/mod.rs"]
mod support;

use mb_check::{gen, prop_assert, prop_assert_eq};
use mb_common::Rng;
use mb_core::linker::{LinkResult, LinkerConfig, TwoStageLinker};
use mb_core::pipeline::{train, DataSource, MetaBlinkConfig, Method};
use mb_datagen::LinkedMention;
use mb_datagen::{World, WorldConfig};
use mb_encoders::biencoder::BiEncoder;
use mb_encoders::crossencoder::{CandidateSet, CrossEncoder};
use mb_encoders::input::{build_vocab, entity_bag, mention_bag, surface_bag, title_bag};
use mb_encoders::retrieval::{CandidateSource, QuantizedIndex};
use mb_kb::{EntityId, KbBuilder, KnowledgeBase};
use mb_tensor::quant::QuantI8;
use mb_tensor::{Tape, Tensor};
use mb_text::Vocab;
use std::sync::{Arc, OnceLock};
use support::{reference_top_k, Table};

struct Fixture {
    world: World,
    /// The world's KB with an empty title at ids ≡ 0 (mod 7) and a
    /// punctuation-only one at ids ≡ 1 (mod 7): both tokenise to
    /// nothing.
    kb: KnowledgeBase,
    vocab: Vocab,
    bi: BiEncoder,
    cross: CrossEncoder,
    mentions: Vec<LinkedMention>,
}

/// Built once for the whole suite; randomly initialized encoders are
/// enough — the identity property holds for any parameters. Every
/// parameter gets noise on top, so that no bias is zero.
fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let world = World::generate(WorldConfig::tiny(17));
        let mut builder = KbBuilder::new();
        for d in world.domains() {
            assert_eq!(builder.domain(&d.name).expect("few domains"), d.id);
        }
        for e in world.kb().entities() {
            let title = match e.id.0 % 7 {
                0 => "",
                1 => "(-)",
                _ => &e.title,
            };
            builder.add_entity(title, &e.description, e.domain).expect("few entities");
        }
        let kb = builder.build();
        let vocab = build_vocab(&kb, [], 1);
        let domain = world.domain("TargetX").clone();
        let mut rng = Rng::seed_from_u64(5);
        let mut ms = mb_datagen::mentions::generate_mentions(&world, &domain, 48, &mut rng);
        // An empty mention bag (and surface bag), then an empty
        // surface bag alone.
        for (i, m) in ms.mentions.iter_mut().take(2).enumerate() {
            m.surface.clear();
            if i == 0 {
                m.left.clear();
                m.right.clear();
            }
        }
        let mut bi = BiEncoder::new(
            &vocab,
            mb_encoders::biencoder::BiEncoderConfig {
                emb_dim: 12,
                hidden: 12,
                out_dim: 12,
                ..Default::default()
            },
            &mut Rng::seed_from_u64(1),
        );
        let mut cross = CrossEncoder::new(
            &vocab,
            mb_encoders::crossencoder::CrossEncoderConfig {
                emb_dim: 12,
                hidden: 12,
                ..Default::default()
            },
            &mut Rng::seed_from_u64(2),
        );
        for (params, seed) in [(bi.params_mut(), 3), (cross.params_mut(), 4)] {
            let mut rng = Rng::seed_from_u64(seed);
            let names: Vec<String> = params.iter().map(|(name, _)| name.to_string()).collect();
            for name in names {
                let id = params.id_of(&name).expect("a name the model registered");
                params.get_mut(id).data_mut().iter_mut().for_each(|v| *v += rng.normal(0.0, 0.1));
            }
        }
        Fixture { world, kb, vocab, bi, cross, mentions: ms.mentions }
    })
}

/// The linker a generation serves over `dict`, with exact encoders:
/// stage one scans the exact index, or with `int8` the int8
/// [`QuantizedIndex`] a store-backed generation carries.
fn served_linker(
    f: &'static Fixture,
    dict: &[EntityId],
    cfg: LinkerConfig,
    int8: bool,
) -> TwoStageLinker<'static> {
    let exact = TwoStageLinker::new(&f.bi, &f.cross, &f.vocab, &f.kb, dict, cfg);
    if !int8 {
        return exact;
    }
    let qindex = QuantizedIndex::from_dense(exact.index()).expect("narrow index");
    TwoStageLinker::with_frozen(
        &f.bi,
        &f.cross,
        &f.vocab,
        &f.kb,
        cfg,
        exact.index_shared(),
        Some(Arc::new(qindex)),
        exact.frozen_bi().clone(),
        exact.frozen_cross().clone(),
    )
    .expect("the exact linker's own state")
}

/// The entity table of a linker's stage one, rebuilt the plain way:
/// every dictionary entity's feature-table bag through the training
/// graph's encoder, stored as the linker's scan stores it.
enum Stored {
    F64(Tensor),
    Int8(QuantI8),
}

/// The naive reference linker: each mention on its own, every stage in
/// its plainest form — a one-row embedding, every entity scored and
/// fully sorted, a rerank through the cross-encoder's training graph
/// over bags tokenised from the KB text, argmax. It shares only the
/// models (and stage one's entity bags) with `link_batch`: no
/// batching, no query blocks, no selectors, no threads; its rerank
/// reads no feature table and runs no tape-free forward.
struct Reference<'l, 'a> {
    linker: &'l TwoStageLinker<'a>,
    table: Stored,
}

impl<'l, 'a> Reference<'l, 'a> {
    fn new(linker: &'l TwoStageLinker<'a>) -> Self {
        let features = linker.features();
        let bags: Vec<Vec<u32>> = linker
            .index()
            .ids()
            .iter()
            .map(|&id| features.entity(id).expect("the table covers the dictionary").to_vec())
            .collect();
        let vectors = linker.bi.embed_entities(&bags);
        let table = match linker.quantized_index() {
            None => Stored::F64(vectors),
            Some(_) => Stored::Int8(QuantI8::from_tensor(&vectors)),
        };
        Reference { linker, table }
    }

    fn link(&self, mention: &LinkedMention) -> LinkResult {
        let l = self.linker;
        let bag = mention_bag(l.vocab, &l.cfg.input, mention);
        let query = l.frozen_bi().embed_mentions_batch(&[bag]);
        let table = match &self.table {
            Stored::F64(t) => Table::F64(t),
            Stored::Int8(t) => Table::Int8(t),
        };
        let ids = l.index().ids();
        let retrieved: Vec<(EntityId, f64)> = reference_top_k(table, query.row(0), l.cfg.k)
            .into_iter()
            .map(|(row, score)| (ids[row as usize], f64::from_bits(score)))
            .collect();
        let rerank_scores = self.rerank(mention, &retrieved);
        let predicted = mb_common::util::argmax(&rerank_scores).map(|i| retrieved[i].0);
        LinkResult { retrieved, rerank_scores, predicted }
    }

    /// `CrossEncoder::forward_logits` on a tape over the candidates'
    /// bags as the KB text tokenises.
    fn rerank(&self, mention: &LinkedMention, retrieved: &[(EntityId, f64)]) -> Vec<f64> {
        if retrieved.is_empty() {
            return Vec::new();
        }
        let (l, kb) = (self.linker, &fixture().kb);
        let set = CandidateSet {
            mention: mention_bag(l.vocab, &l.cfg.input, mention),
            surface: surface_bag(l.vocab, mention),
            entities: retrieved
                .iter()
                .map(|&(id, _)| entity_bag(l.vocab, &l.cfg.input, kb.entity(id)))
                .collect(),
            titles: retrieved.iter().map(|&(id, _)| title_bag(l.vocab, kb.entity(id))).collect(),
            gold_index: None,
        };
        let mut tape = Tape::new();
        let (_, logits) = l.cross.forward_logits(&mut tape, &set);
        tape.value(logits).data().to_vec()
    }
}

/// Everything each `LinkResult` says, flattened, with scores as bit
/// patterns.
fn bits(results: &[LinkResult]) -> Vec<Vec<u64>> {
    results
        .iter()
        .map(|r| {
            let predicted = r.predicted.map_or(u64::MAX, |id| u64::from(id.0));
            let ids = r.retrieved.iter().map(|(id, _)| u64::from(id.0));
            let stage_one = r.retrieved.iter().map(|(_, s)| s.to_bits());
            let stage_two = r.rerank_scores.iter().map(|s| s.to_bits());
            std::iter::once(predicted).chain(ids).chain(stage_one).chain(stage_two).collect()
        })
        .collect()
}

mb_check::check! {
    #![config(cases = 16)]

    fn linkers_sharing_one_feature_table_agree_at_any_thread_count(
        n in gen::usize_in(8..250),
        k in gen::usize_in(1..10),
        picks in gen::vec_of(gen::usize_in(0..48), 1..14),
    ) {
        let f = fixture();
        let batch: Vec<LinkedMention> =
            picks.iter().map(|&i| f.mentions[i].clone()).collect();
        // The last `n` ids: dictionaries need not start at id 0.
        let len = f.kb.len() as u32;
        let dict: Vec<EntityId> = (len - n as u32..len).map(EntityId).collect();
        let mut reference = None;
        for threads in 1..=4 {
            let cfg = LinkerConfig { k, threads: mb_par::Threads::new(threads), ..LinkerConfig::default() };
            let owner = TwoStageLinker::try_new(&f.bi, &f.cross, &f.vocab, &f.kb, &dict, cfg)
                .expect("dictionary inside kb");
            let peer = || {
                TwoStageLinker::with_frozen(
                    &f.bi,
                    &f.cross,
                    &f.vocab,
                    &f.kb,
                    cfg,
                    owner.index_shared(),
                    owner.quantized_index(),
                    owner.frozen_bi().clone(),
                    owner.frozen_cross().clone(),
                )
                .expect("shared state is consistent")
            };
            let flat = peer();
            let ann = peer()
                .with_ann(Arc::new(owner.index().clone()) as Arc<dyn CandidateSource>)
                .expect("the table covers its own dictionary");
            prop_assert!(Arc::ptr_eq(flat.features(), owner.features()), "one table, not a rebuild");
            prop_assert!(Arc::ptr_eq(ann.features(), owner.features()), "one table, not a rebuild");
            let want = bits(&owner.link_batch(&batch).expect("link"));
            prop_assert_eq!(&bits(&flat.link_batch(&batch).expect("link")), &want);
            prop_assert_eq!(&bits(&ann.link_batch(&batch).expect("link")), &want);
            prop_assert_eq!(reference.get_or_insert_with(|| want.clone()), &want);
        }
    }

    fn link_batch_matches_the_reference_linker(
        picks in gen::vec_of(gen::usize_in(0..16), 1..24),
        chunk in gen::usize_in(1..15),
        k_pick in gen::usize_in(0..4),
    ) {
        let f = fixture();
        // 16 mentions to draw from (the first two with empty bags), and
        // the first drawn again last: every batch repeats a mention.
        let batch: Vec<LinkedMention> =
            picks.iter().chain(&picks[..1]).map(|&i| f.mentions[i].clone()).collect();
        // 40 of the domain's entities, so that `k` can pass them.
        let dict = &f.kb.domain_entities(f.world.domain("TargetX").id)[..40];
        let k = [1, dict.len() - 1, dict.len(), 64][k_pick];
        for int8 in [false, true] {
            let mut want = None;
            for threads in 1..=4 {
                let threads = mb_par::Threads::new(threads);
                let cfg = LinkerConfig { k, threads, ..LinkerConfig::default() };
                let l = served_linker(f, dict, cfg, int8);
                let want = want.get_or_insert_with(|| {
                    let reference = Reference::new(&l);
                    bits(&batch.iter().map(|m| reference.link(m)).collect::<Vec<_>>())
                });
                let mut chunked = Vec::new();
                for c in batch.chunks(chunk) {
                    chunked.extend(l.link_batch(c).expect("link"));
                }
                prop_assert_eq!(&bits(&chunked), want, "int8 {int8} at {threads:?}, k {k}");
            }
        }
    }
}

/// An empty retrieval is an empty ranking (the CLI's `link` prints
/// `retrieved` zipped with `rerank_scores`).
#[test]
fn an_empty_dictionary_links_to_an_empty_ranking() {
    let f = fixture();
    let cfg = LinkerConfig { k: 6, ..LinkerConfig::default() };
    for int8 in [false, true] {
        let empty = served_linker(f, &[], cfg, int8);
        let linked = empty.link(&f.mentions[0]).expect("link");
        assert!(linked.retrieved.is_empty() && linked.rerank_scores.is_empty());
        assert_eq!(linked.predicted, None);
    }
}

/// The end-to-end anchor: a *trained* model evaluated through the
/// batched path produces the same metrics as before the refactor
/// (evaluate() now iterates link_batch internally; this pins the
/// trained path too, not just random parameters).
#[test]
fn trained_model_evaluation_is_stable_under_batching() {
    let world = World::generate(WorldConfig::tiny(29));
    let vocab = build_vocab(world.kb(), [], 1);
    let domain = world.domain("TargetX").clone();
    let mut rng = Rng::seed_from_u64(11);
    let ms = mb_datagen::mentions::generate_mentions(&world, &domain, 120, &mut rng);
    let (seed, test) = ms.mentions.split_at(60);
    let syn = mb_nlg::SynDataset {
        domain: domain.name.clone(),
        exact: Vec::new(),
        rewritten: Vec::new(),
    };
    let task = mb_core::pipeline::TargetTask {
        world: &world,
        vocab: &vocab,
        domain: &domain,
        syn: &syn,
        syn_star: &syn,
        seed,
        general: &[],
    };
    let model = train(&task, Method::Blink, DataSource::Seed, &MetaBlinkConfig::fast_test());
    let linker = TwoStageLinker::new(
        &model.bi,
        &model.cross,
        &vocab,
        world.kb(),
        world.kb().domain_entities(domain.id),
        model.linker_cfg,
    );
    let via_eval = linker.evaluate(test);
    // Recompute the same metrics one mention at a time.
    let mut recalled = 0usize;
    let mut correct = 0usize;
    for m in test {
        let r = linker.link(m).expect("link");
        if r.retrieved.iter().any(|(id, _)| *id == m.entity) {
            recalled += 1;
        }
        if r.predicted == Some(m.entity) {
            correct += 1;
        }
    }
    let n = test.len() as f64;
    assert!((via_eval.recall_at_k - 100.0 * recalled as f64 / n).abs() < 1e-12);
    assert!((via_eval.unnormalized_acc - 100.0 * correct as f64 / n).abs() < 1e-12);
}
