//! Tier-1 slice of the entity-feature-table contract (the full
//! property suites live in `crates/encoders/tests/proptest_features.rs`
//! and `crates/core/tests/proptest_linker.rs`): the table equals the
//! per-entity bag functions at every truncation, and linkers that share
//! one table through the frozen cross-encoder handle produce
//! bit-identical results at every thread count.

use metablink::common::Rng;
use metablink::core::{LinkerConfig, TwoStageLinker};
use metablink::datagen::mentions::generate_mentions;
use metablink::datagen::{World, WorldConfig};
use metablink::encoders::biencoder::BiEncoderConfig;
use metablink::encoders::crossencoder::CrossEncoderConfig;
use metablink::encoders::input::{build_vocab, entity_bag, title_bag, EntityFeatures, InputConfig};
use metablink::encoders::retrieval::CandidateSource;
use metablink::encoders::{BiEncoder, CrossEncoder};
use metablink::kb::EntityId;
use metablink::par::Threads;
use std::sync::Arc;

#[test]
fn feature_table_equals_the_bag_functions_at_every_truncation() {
    let world = World::generate(WorldConfig::tiny(61));
    let kb = world.kb();
    let vocab = build_vocab(kb, [], 2);
    let ids: Vec<EntityId> = kb.entities().iter().map(|e| e.id).collect();
    for max_description in [0, 1, 5, 24, 1000] {
        let cfg = InputConfig { max_context: 12, max_description };
        let table = EntityFeatures::try_build(&vocab, &cfg, kb, &ids).expect("ids inside kb");
        for e in kb.entities() {
            assert_eq!(table.entity(e.id), Some(entity_bag(&vocab, &cfg, e).as_slice()));
            assert_eq!(table.title(e.id), Some(title_bag(&vocab, e).as_slice()));
        }
    }
}

#[test]
fn linkers_sharing_one_table_link_bit_identically_at_any_thread_count() {
    let world = World::generate(WorldConfig::tiny(62));
    let kb = world.kb();
    let vocab = build_vocab(kb, [], 1);
    let bi_cfg = BiEncoderConfig { emb_dim: 12, hidden: 12, out_dim: 12, ..Default::default() };
    let cross_cfg = CrossEncoderConfig { emb_dim: 12, hidden: 12, ..Default::default() };
    let bi = BiEncoder::new(&vocab, bi_cfg, &mut Rng::seed_from_u64(1));
    let cross = CrossEncoder::new(&vocab, cross_cfg, &mut Rng::seed_from_u64(2));
    let domain = world.domain("TargetX").clone();
    let mentions = generate_mentions(&world, &domain, 40, &mut Rng::seed_from_u64(3)).mentions;
    let dict = kb.domain_entities(domain.id);

    let mut reference: Option<Vec<Vec<u64>>> = None;
    for threads in 1..=4 {
        let cfg = LinkerConfig { k: 8, threads: Threads::new(threads), ..LinkerConfig::default() };
        let owner = TwoStageLinker::try_new(&bi, &cross, &vocab, kb, dict, cfg).expect("linker");
        let peer = TwoStageLinker::with_frozen(
            &bi,
            &cross,
            &vocab,
            kb,
            cfg,
            owner.index_shared(),
            owner.quantized_index(),
            owner.frozen_bi().clone(),
            owner.frozen_cross().clone(),
        )
        .expect("shared state is consistent")
        .with_ann(Arc::new(owner.index().clone()) as Arc<dyn CandidateSource>)
        .expect("the table covers its own dictionary");
        assert!(Arc::ptr_eq(peer.features(), owner.features()), "one table, not a rebuild");

        let bits = |linker: &TwoStageLinker<'_>| -> Vec<Vec<u64>> {
            linker
                .link_batch(&mentions)
                .expect("link")
                .iter()
                .map(|r| {
                    let ids = r.retrieved.iter().map(|(id, _)| u64::from(id.0));
                    let stage_one = r.retrieved.iter().map(|(_, s)| s.to_bits());
                    ids.chain(stage_one)
                        .chain(r.rerank_scores.iter().map(|s| s.to_bits()))
                        .collect()
                })
                .collect()
        };
        let want = bits(&owner);
        assert_eq!(bits(&peer), want, "{threads} threads");
        assert_eq!(reference.get_or_insert_with(|| want.clone()), &want, "{threads} threads");
    }
}
