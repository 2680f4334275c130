//! Replay-by-seed regression tests pinning the determinism sweep.
//!
//! The mb-lint `det-taint` rule bans `HashMap`/`HashSet` from the
//! modelling crates because their iteration order is randomized per
//! instance. The concrete bug class it guards against lived in
//! `TwoStageLinker::link_batch_cached`: the distinct-miss slot map was
//! iterated to fill the embedding LRU, so two identical runs produced
//! identical *results* but different cache recency order — and from
//! there, different eviction decisions, different hit/miss counters,
//! and a non-replayable serving cache. These tests run the same batch
//! stream twice from scratch and require the full observable state —
//! results, cache keys in recency order, hit/miss counters — to be
//! bit-identical.

use mb_common::Rng;
use mb_core::linker::{EmbedCache, LinkerConfig, TwoStageLinker};
use mb_datagen::{LinkedMention, World, WorldConfig};
use mb_encoders::biencoder::{BiEncoder, BiEncoderConfig};
use mb_encoders::crossencoder::{CrossEncoder, CrossEncoderConfig};
use mb_encoders::input::build_vocab;

struct Fixture {
    world: World,
    vocab: mb_text::Vocab,
    bi: BiEncoder,
    cross: CrossEncoder,
    mentions: Vec<LinkedMention>,
}

/// An untrained (randomly initialized) model: replayability does not
/// depend on training, and skipping it keeps the test fast.
fn fixture() -> Fixture {
    let world = World::generate(WorldConfig::tiny(91));
    let vocab = build_vocab(world.kb(), [], 1);
    let domain = world.domain("TargetX").clone();
    let mut rng = Rng::seed_from_u64(4);
    let ms = mb_datagen::mentions::generate_mentions(&world, &domain, 48, &mut rng);
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
    Fixture { world, vocab, bi, cross, mentions: ms.mentions }
}

/// Run the mention stream through `link_batch_cached` in chunks with a
/// fresh small cache, returning everything an observer could see.
fn replay(f: &Fixture, cache_capacity: usize) -> (Vec<String>, Vec<Vec<u32>>, u64, u64) {
    let domain = f.world.domain("TargetX");
    let dict = f.world.kb().domain_entities(domain.id);
    let linker = TwoStageLinker::new(
        &f.bi,
        &f.cross,
        &f.vocab,
        f.world.kb(),
        dict,
        LinkerConfig { k: 8, ..LinkerConfig::default() },
    );
    let mut cache = EmbedCache::new(cache_capacity);
    let mut rendered = Vec::new();
    for chunk in f.mentions.chunks(12) {
        for r in linker.link_batch_cached(chunk, Some(&mut cache)).expect("link") {
            rendered.push(format!("{:?}", (r.predicted, r.retrieved, r.rerank_scores)));
        }
    }
    let keys: Vec<Vec<u32>> = cache.keys_by_recency().into_iter().cloned().collect();
    (rendered, keys, cache.hits(), cache.misses())
}

#[test]
fn two_runs_are_bit_identical_including_cache_state() {
    let f = fixture();
    // Capacity below the distinct-mention count so eviction order is
    // exercised, not just insertion order.
    let a = replay(&f, 16);
    let b = replay(&f, 16);
    assert_eq!(a.0, b.0, "link results must replay bit-identically");
    assert_eq!(a.1, b.1, "cache recency order must replay identically");
    assert_eq!((a.2, a.3), (b.2, b.3), "hit/miss counters must replay identically");
    // Sanity: the run actually exercised the cache.
    assert!(a.3 > 0, "expected cache misses");
    assert_eq!(a.1.len(), 16, "cache should be full (evictions happened)");
}

#[test]
fn cached_and_uncached_results_agree() {
    let f = fixture();
    let cached = replay(&f, 16).0;
    let uncached = replay(&f, 0).0;
    assert_eq!(cached, uncached, "the cache must never change results");
}
