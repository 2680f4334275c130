//! Property tests of the batched inference path: for ANY multiset of
//! mentions (repeats included), ANY chunking, ANY thread count and
//! every `QuantMode`, `link_batch` must equal a naive reference linker
//! that links each mention on its own, bit for bit. This is the
//! contract `mb-serve` relies on — micro-batching must never change
//! model outputs.

#[path = "../../encoders/tests/support/mod.rs"]
mod support;

use mb_check::{gen, prop_assert, prop_assert_eq};
use mb_common::Rng;
use mb_core::linker::{LinkResult, LinkerConfig, TwoStageLinker};
use mb_core::pipeline::{train, DataSource, MetaBlinkConfig, Method};
use mb_datagen::LinkedMention;
use mb_datagen::{World, WorldConfig};
use mb_encoders::biencoder::BiEncoder;
use mb_encoders::crossencoder::CrossEncoder;
use mb_encoders::input::{build_vocab, mention_bag};
use mb_encoders::retrieval::CandidateSource;
use mb_kb::EntityId;
use mb_tensor::quant::QuantI8;
use mb_tensor::{QuantMode, Tensor};
use mb_text::Vocab;
use std::sync::{Arc, OnceLock};
use support::{reference_top_k, Table};

struct Fixture {
    world: World,
    vocab: Vocab,
    bi: BiEncoder,
    cross: CrossEncoder,
    mentions: Vec<LinkedMention>,
}

/// Built once for the whole suite; randomly initialized encoders are
/// enough — the identity property holds for any parameters.
fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let world = World::generate(WorldConfig::tiny(17));
        let vocab = build_vocab(world.kb(), [], 1);
        let domain = world.domain("TargetX").clone();
        let mut rng = Rng::seed_from_u64(5);
        let ms = mb_datagen::mentions::generate_mentions(&world, &domain, 48, &mut rng);
        let bi = BiEncoder::new(
            &vocab,
            mb_encoders::biencoder::BiEncoderConfig {
                emb_dim: 12,
                hidden: 12,
                out_dim: 12,
                ..Default::default()
            },
            &mut Rng::seed_from_u64(1),
        );
        let cross = CrossEncoder::new(
            &vocab,
            mb_encoders::crossencoder::CrossEncoderConfig {
                emb_dim: 12,
                hidden: 12,
                ..Default::default()
            },
            &mut Rng::seed_from_u64(2),
        );
        Fixture { vocab, bi, cross, mentions: ms.mentions, world }
    })
}

/// The entity table of a linker's stage one, rebuilt the plain way:
/// every dictionary entity's feature-table bag through the training
/// graph's encoder, stored as `quant` stores it.
enum Stored {
    F64(Tensor),
    Int8(QuantI8),
}

/// The naive reference linker: each mention on its own, every stage in
/// its plainest form — a one-row embedding, every entity scored and
/// fully sorted, a one-set rerank, argmax. It shares only the models
/// and the candidate-set assembly with `link_batch`: no batching, no
/// query blocks, no selectors, no threads.
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
        let table = match linker.cfg.quant {
            QuantMode::Exact => Stored::F64(vectors),
            QuantMode::Int8 => Stored::Int8(QuantI8::from_tensor(&vectors)),
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
        let set = l.candidate_set(mention, &retrieved);
        let rerank_scores = l.frozen_cross().score_batch(&[set]).pop().expect("one set");
        let predicted = mb_common::util::argmax(&rerank_scores).map(|i| retrieved[i].0);
        LinkResult { retrieved, rerank_scores, predicted }
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
        let len = f.world.kb().len() as u32;
        let dict: Vec<EntityId> = (len - n as u32..len).map(EntityId).collect();
        let mut reference = None;
        for threads in 1..=4 {
            let cfg = LinkerConfig { k, threads: mb_par::Threads::new(threads), ..LinkerConfig::default() };
            let owner = TwoStageLinker::try_new(&f.bi, &f.cross, &f.vocab, f.world.kb(), &dict, cfg)
                .expect("dictionary inside kb");
            let peer = || {
                TwoStageLinker::with_frozen(
                    &f.bi,
                    &f.cross,
                    &f.vocab,
                    f.world.kb(),
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
    ) {
        let f = fixture();
        // 16 mentions to draw from, and the first drawn again last:
        // every batch repeats a mention.
        let batch: Vec<LinkedMention> =
            picks.iter().chain(&picks[..1]).map(|&i| f.mentions[i].clone()).collect();
        let dict = f.world.kb().domain_entities(f.world.domain("TargetX").id);
        for quant in [QuantMode::Exact, QuantMode::Int8] {
            let mut want = None;
            for threads in 1..=4 {
                let threads = mb_par::Threads::new(threads);
                let cfg = LinkerConfig { k: 6, quant, threads, ..LinkerConfig::default() };
                let l = TwoStageLinker::new(&f.bi, &f.cross, &f.vocab, f.world.kb(), dict, cfg);
                let want = want.get_or_insert_with(|| {
                    let reference = Reference::new(&l);
                    bits(&batch.iter().map(|m| reference.link(m)).collect::<Vec<_>>())
                });
                let mut chunked = Vec::new();
                for c in batch.chunks(chunk) {
                    chunked.extend(l.link_batch(c).expect("link"));
                }
                prop_assert_eq!(&bits(&chunked), want, "{quant:?} at {threads:?}");
            }
        }
    }
}

/// An empty retrieval is an empty ranking (the CLI's `link` prints
/// `retrieved` zipped with `rerank_scores`).
#[test]
fn an_empty_dictionary_links_to_an_empty_ranking() {
    let f = fixture();
    let cfg = LinkerConfig { k: 6, quant: QuantMode::Int8, ..LinkerConfig::default() };
    let empty = TwoStageLinker::new(&f.bi, &f.cross, &f.vocab, f.world.kb(), &[], cfg);
    let linked = empty.link(&f.mentions[0]).expect("link");
    assert!(linked.retrieved.is_empty() && linked.rerank_scores.is_empty());
    assert_eq!(linked.predicted, None);
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
