//! What a per-example gradient holds must scale with the tokens the
//! example mentions, not with the vocabulary. One domain's mentions on
//! a table that also carries 50,000 tokens of other lexicons (97 % of
//! either model's parameters): every `example_grads` entry, and the
//! batch gradient behind the bi-encoder's seed gradient, keeps only the
//! rows it touched. With a dense embedding gradient each of them is
//! 100 % of `params().numel()`.

use mb_common::Rng;
use mb_core::reweight::MetaModel;
use mb_datagen::{World, WorldConfig};
use mb_encoders::biencoder::{BiEncoder, BiEncoderConfig};
use mb_encoders::crossencoder::{CandidateSet, CrossEncoder, CrossEncoderConfig};
use mb_encoders::input::{build_vocab, entity_bag, title_bag, InputConfig, TrainPair};
use mb_par::Threads;
use mb_text::Vocab;

/// A tiny world's vocabulary plus 50,000 tokens no mention of it uses,
/// and 24 featurized mentions of its target domain.
fn fixture() -> (World, Vocab, Vec<TrainPair>) {
    let world = World::generate(WorldConfig::tiny(41));
    let other_lexicons: String = (0..50_000).map(|i| format!("lex{i} ")).collect();
    let vocab = build_vocab(world.kb(), [other_lexicons.as_str()], 1);
    assert!(vocab.len() >= 50_000);
    let domain = world.domain("TargetX").clone();
    let ms =
        mb_datagen::mentions::generate_mentions(&world, &domain, 24, &mut Rng::seed_from_u64(3));
    let cfg = InputConfig::default();
    let pairs =
        ms.mentions.iter().map(|m| TrainPair::from_mention(&vocab, &cfg, world.kb(), m)).collect();
    (world, vocab, pairs)
}

fn assert_small(held: usize, total: usize, what: &str) {
    assert!(held * 50 < total, "{what} holds {held} of {total} elements (≥ 2 %)");
}

#[test]
fn biencoder_gradients_hold_under_two_percent_of_the_parameters() {
    let (_, vocab, pairs) = fixture();
    let model = BiEncoder::new(&vocab, BiEncoderConfig::default(), &mut Rng::seed_from_u64(7));
    let refs: Vec<&TrainPair> = pairs.iter().collect();
    let total = model.params().numel();
    for (j, (_, g)) in model.example_grads(&refs, Threads::single()).iter().enumerate() {
        assert_small(g.stored_len(), total, &format!("example gradient {j}"));
    }
    assert_small(model.seed_grad(&refs, Threads::single()).stored_len(), total, "seed gradient");
}

#[test]
fn crossencoder_gradients_hold_under_two_percent_of_the_parameters() {
    let (world, vocab, pairs) = fixture();
    let model =
        CrossEncoder::new(&vocab, CrossEncoderConfig::default(), &mut Rng::seed_from_u64(8));
    let cfg = InputConfig::default();
    let ids = world.kb().domain_entities(world.domain("TargetX").id);
    // Each mention against its gold and the domain's first 15 others.
    let sets: Vec<CandidateSet> = pairs
        .iter()
        .map(|p| {
            let others = ids.iter().filter(|&&id| id != p.gold).take(15);
            let candidates = std::iter::once(&p.gold).chain(others).map(|&id| {
                let e = world.kb().entity(id);
                (entity_bag(&vocab, &cfg, e), title_bag(&vocab, e))
            });
            CandidateSet::new(p, candidates.collect(), Some(0))
        })
        .collect();
    let refs: Vec<&CandidateSet> = sets.iter().collect();
    let total = model.params().numel();
    assert_small(model.example_grad(&sets[0]).1.stored_len(), total, "example_grad");
    for (j, (_, g)) in model.example_grads(&refs, Threads::single()).iter().enumerate() {
        assert_small(g.stored_len(), total, &format!("example gradient {j}"));
    }
}
