//! Property tests of the batched inference path: for ANY subset of
//! mentions, ANY chunking, and ANY cache state, `link_batch` must be
//! element-wise bit-identical to sequential `link` calls. This is the
//! contract `mb-serve` relies on — micro-batching must never change
//! model outputs.

use mb_check::{gen, prop_assert, prop_assert_eq};
use mb_common::Rng;
use mb_core::coherence::{link_document, CoherenceConfig};
use mb_core::linker::{EmbedCache, LinkResult, LinkerConfig, TwoStageLinker};
use mb_core::nil::{NilAwareLinker, NilDecision};
use mb_core::pipeline::{train, DataSource, MetaBlinkConfig, Method};
use mb_datagen::LinkedMention;
use mb_datagen::{World, WorldConfig};
use mb_encoders::biencoder::BiEncoder;
use mb_encoders::crossencoder::CrossEncoder;
use mb_encoders::input::build_vocab;
use mb_encoders::retrieval::CandidateSource;
use mb_kb::EntityId;
use mb_tensor::QuantMode;
use mb_text::Vocab;
use std::sync::{Arc, OnceLock};

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

fn linker(f: &Fixture) -> TwoStageLinker<'_> {
    let domain = f.world.domain("TargetX");
    TwoStageLinker::new(
        &f.bi,
        &f.cross,
        &f.vocab,
        f.world.kb(),
        f.world.kb().domain_entities(domain.id),
        LinkerConfig { k: 6, ..LinkerConfig::default() },
    )
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

    fn link_batch_matches_sequential_for_any_batch(
        picks in gen::vec_of(gen::usize_in(0..48), 1..14),
        chunk in gen::usize_in(1..15),
    ) {
        let f = fixture();
        let l = linker(f);
        let batch: Vec<LinkedMention> =
            picks.iter().map(|&i| f.mentions[i].clone()).collect();
        let sequential: Vec<LinkResult> =
            batch.iter().map(|m| l.link(m).expect("link")).collect();
        let mut chunked = Vec::new();
        for c in batch.chunks(chunk) {
            chunked.extend(l.link_batch(c).expect("link"));
        }
        // PartialEq on LinkResult compares every f64 exactly: batching
        // and chunking must be bit-transparent.
        prop_assert_eq!(chunked, sequential);
    }

    fn cache_state_never_changes_results(
        picks in gen::vec_of(gen::usize_in(0..48), 1..12),
        capacity in gen::usize_in(1..10),
    ) {
        let f = fixture();
        let l = linker(f);
        let batch: Vec<LinkedMention> =
            picks.iter().map(|&i| f.mentions[i].clone()).collect();
        let uncached = l.link_batch(&batch).expect("link");
        // A tiny capacity forces evictions mid-batch across repeats.
        let mut cache = EmbedCache::new(capacity);
        for _ in 0..3 {
            let cached = l.link_batch_cached(&batch, Some(&mut cache)).expect("link");
            prop_assert_eq!(&cached, &uncached);
        }
    }
}

/// One model per linker: the NIL threshold and the coherence pass read
/// the scores `link` returns, so under `quant: Int8` they judge the
/// int8 scorer's output, not a second (exact) scoring of the same
/// candidates.
#[test]
fn nil_and_coherence_answer_with_the_model_link_answers_with() {
    let f = fixture();
    // An outlier column makes int8 blind to everything else in a row
    // (scale 1000/127 rounds the rest to 0), so every candidate ties
    // under int8 while the exact scorer still ranks by the fine
    // elements: the two models disagree on top-1 by construction.
    let mut cross = f.cross.clone();
    let table = cross.params().id_of("emb").expect("embedding table");
    let table = cross.params_mut().get_mut(table);
    for i in 0..table.rows() {
        table.row_mut(i)[0] = 1000.0;
    }
    let dict = f.world.kb().domain_entities(f.world.domain("TargetX").id);
    let build = |dict: &[EntityId], quant| {
        let cfg = LinkerConfig { k: 6, quant, ..LinkerConfig::default() };
        TwoStageLinker::new(&f.bi, &cross, &f.vocab, f.world.kb(), dict, cfg)
    };
    let (exact, int8) = (build(dict, QuantMode::Exact), build(dict, QuantMode::Int8));
    let never_nil = NilAwareLinker::with_threshold(&int8, f64::NEG_INFINITY);
    let local_only = CoherenceConfig { rounds: 0, ..CoherenceConfig::default() };
    let joint = link_document(&int8, &f.mentions, &local_only);
    let mut models_disagree = 0;
    for (m, joint) in f.mentions.iter().zip(joint) {
        let linked = int8.link(m).expect("link");
        let best = linked.rerank_scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let NilDecision::Linked(id, score) = never_nil.predict(m) else {
            panic!("a -inf threshold never predicts NIL");
        };
        assert_eq!((Some(id), score.to_bits()), (linked.predicted, best.to_bits()));
        assert_eq!(joint, linked.predicted);
        models_disagree += usize::from(exact.link(m).expect("link").predicted != linked.predicted);
    }
    assert!(models_disagree > 0, "the fixture must tell the int8 scorer from the exact one");

    // An empty retrieval is an empty ranking on every path (the CLI's
    // `link` prints `retrieved` zipped with `rerank_scores`).
    let empty = build(&[], QuantMode::Int8);
    let m = &f.mentions[0];
    let linked = empty.link(m).expect("link");
    assert!(linked.retrieved.is_empty() && linked.rerank_scores.is_empty());
    assert_eq!(
        NilAwareLinker::with_threshold(&empty, f64::NEG_INFINITY).predict(m),
        NilDecision::Nil
    );
    assert_eq!(link_document(&empty, std::slice::from_ref(m), &local_only), [None]);
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
