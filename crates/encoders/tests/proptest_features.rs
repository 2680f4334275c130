//! Property tests of the entity feature table: for ANY world, ANY
//! truncation limits and ANY covered subset, `EntityFeatures` must
//! answer exactly what `entity_bag` / `title_bag` compute from the KB
//! text, and must say so when it does not cover an id. The link path
//! reads candidates from the table instead of tokenising them, so this
//! equality is what keeps linking outputs unchanged.

use mb_check::{gen, prop_assert, prop_assert_eq};
use mb_datagen::{World, WorldConfig};
use mb_encoders::input::{build_vocab, entity_bag, title_bag, EntityFeatures, InputConfig};
use mb_kb::EntityId;

mb_check::check! {
    #![config(cases = 12)]

    fn table_equals_the_bag_functions_for_every_entity(
        world_seed in gen::u64_in(0..10_000),
        max_description in gen::usize_in(0..40),
        min_count in gen::u64_in(1..4),
        picks in gen::vec_of(gen::usize_in(0..250), 0..120),
    ) {
        let world = World::generate(WorldConfig::tiny(world_seed));
        let kb = world.kb();
        // min_count > 1 leaves rare tokens out of vocabulary (UNK ids).
        let vocab = build_vocab(kb, [], min_count);
        let cfg = InputConfig { max_context: 12, max_description };

        // Full coverage, ids given in reverse.
        let all: Vec<EntityId> = kb.entities().iter().rev().map(|e| e.id).collect();
        let full = EntityFeatures::try_build(&vocab, &cfg, kb, &all).expect("ids inside kb");
        prop_assert_eq!(full.len(), kb.len());
        for e in kb.entities() {
            prop_assert_eq!(full.entity(e.id).map(<[u32]>::to_vec), Some(entity_bag(&vocab, &cfg, e)));
            prop_assert_eq!(full.title(e.id).map(<[u32]>::to_vec), Some(title_bag(&vocab, e)));
        }
        prop_assert!(full.entity(EntityId(kb.len() as u32)).is_none());

        // An arbitrary subset (unordered, with repeats): covered ids
        // agree with the full table, every other id is reported absent.
        let subset: Vec<EntityId> = picks.iter().map(|&i| EntityId(i as u32)).collect();
        let part = EntityFeatures::try_build(&vocab, &cfg, kb, &subset).expect("ids inside kb");
        for e in kb.entities() {
            prop_assert_eq!(part.covers(e.id), subset.contains(&e.id));
            if part.covers(e.id) {
                prop_assert_eq!(part.entity(e.id), full.entity(e.id));
                prop_assert_eq!(part.title(e.id), full.title(e.id));
            } else {
                prop_assert!(part.entity(e.id).is_none() && part.title(e.id).is_none());
            }
        }
        let distinct: std::collections::BTreeSet<EntityId> = subset.iter().copied().collect();
        prop_assert_eq!(part.len(), distinct.len());
    }
}

#[test]
fn ids_outside_the_kb_are_a_typed_error() {
    let world = World::generate(WorldConfig::tiny(3));
    let vocab = build_vocab(world.kb(), [], 1);
    let outside = EntityId(world.kb().len() as u32);
    let err = EntityFeatures::try_build(
        &vocab,
        &InputConfig::default(),
        world.kb(),
        &[EntityId(0), outside],
    );
    assert!(matches!(err, Err(mb_common::Error::NotFound(_))), "got {err:?}");
}
