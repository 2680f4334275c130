//! Featurization: mentions and entities → token-id bags.
//!
//! The bi-encoder's `ENCODER_m(mᵢ, context(mᵢ))` takes the mention
//! surface plus a truncated context window; `ENCODER_e(eᵢ, desp(eᵢ))`
//! takes the title plus a truncated description (Eqs. 3–4). Both sides
//! share one vocabulary.
//!
//! The vocabulary is built over *all* domains' raw text (descriptions
//! and unlabeled corpora), not just labeled source data: the paper's
//! BERT wordpiece vocabulary likewise covers target-domain strings even
//! though no target-domain *labels* exist. Only labels are few-shot.

use mb_datagen::LinkedMention;
use mb_kb::{Entity, EntityId, KnowledgeBase};
use mb_text::tokenizer::for_each_token;
use mb_text::vocab::VocabBuilder;
use mb_text::Vocab;

/// Truncation limits for encoder inputs.
#[derive(Debug, Clone, Copy)]
pub struct InputConfig {
    /// Max context tokens kept on each side of the mention.
    pub max_context: usize,
    /// Max description tokens kept for an entity.
    pub max_description: usize,
}

impl Default for InputConfig {
    fn default() -> Self {
        InputConfig { max_context: 12, max_description: 24 }
    }
}

/// Token bag for a mention: surface tokens + the last `max_context`
/// tokens of the left context + the first `max_context` of the right.
pub fn mention_bag(vocab: &Vocab, cfg: &InputConfig, mention: &LinkedMention) -> Vec<u32> {
    let mut bag = vocab.encode(&mention.surface);
    let surface_len = bag.len();
    vocab.encode_into(&mention.left, usize::MAX, &mut bag);
    let skip = (bag.len() - surface_len).saturating_sub(cfg.max_context);
    bag.drain(surface_len..surface_len + skip);
    vocab.encode_into(&mention.right, cfg.max_context, &mut bag);
    bag
}

/// Append an entity's token run — title tokens, then the first
/// `max_description` description tokens — to `out`; returns the title
/// length. The one definition of the entity side of Eqs. 3–4:
/// [`entity_bag`] and [`EntityFeatures`] are views of it, and
/// [`title_bag`] is its title prefix.
fn push_entity_run(vocab: &Vocab, cfg: &InputConfig, entity: &Entity, out: &mut Vec<u32>) -> usize {
    let start = out.len();
    vocab.encode_into(&entity.title, usize::MAX, out);
    let title_len = out.len() - start;
    vocab.encode_into(&entity.description, cfg.max_description, out);
    title_len
}

/// Token bag for an entity: title tokens + truncated description.
pub fn entity_bag(vocab: &Vocab, cfg: &InputConfig, entity: &Entity) -> Vec<u32> {
    let mut bag = Vec::new();
    push_entity_run(vocab, cfg, entity, &mut bag);
    bag
}

/// Token bag of just the mention surface (cross-encoder interaction
/// feature).
pub fn surface_bag(vocab: &Vocab, mention: &LinkedMention) -> Vec<u32> {
    vocab.encode(&mention.surface)
}

/// Token bag of just the entity title (cross-encoder interaction
/// feature). By construction a prefix of [`entity_bag`].
pub fn title_bag(vocab: &Vocab, entity: &Entity) -> Vec<u32> {
    vocab.encode(&entity.title)
}

/// Title length marking an id the table does not cover.
const UNCOVERED: u32 = u32::MAX;

/// The entity side of every encoder input, featurised once: an
/// immutable CSR table holding one token run per covered entity
/// (`title tokens ++ truncated description`, i.e. [`entity_bag`]) plus
/// the title length (the [`title_bag`] is the run's prefix).
///
/// A pure function of (KB text, vocab, [`InputConfig`], covered ids):
/// it is built once per linker dictionary / served generation, shared
/// by `Arc`, and read on the link path instead of re-tokenising
/// retrieved entities per mention. Derived state — never serialized
/// (DESIGN.md § "Entity feature table").
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EntityFeatures {
    /// Token runs of the covered entities, in ascending entity id.
    tokens: Vec<u32>,
    /// CSR offsets by entity id: id `i` owns
    /// `tokens[starts[i]..starts[i + 1]]` (empty for uncovered ids).
    starts: Vec<u32>,
    /// Title-token count by entity id; [`UNCOVERED`] for ids outside
    /// the table.
    titles: Vec<u32>,
    /// Number of covered ids.
    covered: usize,
    /// The description truncation the runs were cut at.
    max_description: usize,
    /// [`Vocab::fingerprint`] of the vocabulary the runs are ids of.
    vocab: u64,
}

impl EntityFeatures {
    /// Featurise `ids` (any order, duplicates allowed) from `kb`.
    ///
    /// # Errors
    /// [`mb_common::Error::NotFound`] when an id is outside `kb`;
    /// [`mb_common::Error::InvalidConfig`] when the table would exceed
    /// `u32` token offsets.
    pub fn try_build(
        vocab: &Vocab,
        cfg: &InputConfig,
        kb: &KnowledgeBase,
        ids: &[EntityId],
    ) -> mb_common::Result<Self> {
        let mut order = ids.to_vec();
        order.sort_unstable();
        order.dedup();
        let slots = order.last().map_or(0, |id| id.0 as usize + 1);
        let mut table = EntityFeatures {
            tokens: Vec::new(),
            starts: Vec::with_capacity(slots + 1),
            titles: vec![UNCOVERED; slots],
            covered: order.len(),
            max_description: cfg.max_description,
            vocab: vocab.fingerprint(),
        };
        // One allocation for the runs, trimmed below: growth by doubling
        // would strand up to half the buffer and, at a store-backed
        // reload, overshoot the heap the IVF build has just freed. Titles
        // are short, so they are counted exactly; a description
        // contributes its truncation limit or a byte bound (n tokens
        // span at least 2n - 1 bytes), whichever is smaller.
        let count = |text: &str| {
            let mut n = 0;
            for_each_token(text, usize::MAX, |_| n += 1);
            n
        };
        table.tokens.reserve_exact(
            order
                .iter()
                .filter_map(|id| kb.entities().get(id.0 as usize))
                .map(|e| count(&e.title) + cfg.max_description.min(e.description.len().div_ceil(2)))
                .sum(),
        );
        for id in order {
            let slot = id.0 as usize;
            let (Some(entity), Some(title)) = (kb.entities().get(slot), table.titles.get_mut(slot))
            else {
                return Err(mb_common::Error::NotFound(format!(
                    "dictionary entity {} outside knowledge base of {} entities",
                    id.0,
                    kb.len()
                )));
            };
            // Ids skipped since the last covered one own empty runs.
            table.starts.resize(slot + 1, Self::offset(table.tokens.len())?);
            *title = Self::offset(push_entity_run(vocab, cfg, entity, &mut table.tokens))?;
        }
        table.starts.push(Self::offset(table.tokens.len())?);
        table.tokens.shrink_to_fit();
        Ok(table)
    }

    /// A token count as a table entry; [`UNCOVERED`] itself is not a
    /// representable count.
    fn offset(n: usize) -> mb_common::Result<u32> {
        u32::try_from(n).ok().filter(|&n| n != UNCOVERED).ok_or_else(|| {
            mb_common::Error::InvalidConfig(format!(
                "entity feature table of {n} tokens exceeds u32 offsets"
            ))
        })
    }

    /// `(entity bag, title bag)` of `id` from one lookup, `None` when
    /// the table does not cover it.
    pub(crate) fn bags(&self, id: EntityId) -> Option<(&[u32], &[u32])> {
        let slot = id.0 as usize;
        let title = *self.titles.get(slot).filter(|&&t| t != UNCOVERED)? as usize;
        let (start, end) = (*self.starts.get(slot)? as usize, *self.starts.get(slot + 1)? as usize);
        self.tokens.get(start..end).and_then(|run| Some((run, run.get(..title)?)))
    }

    /// The [`entity_bag`] of `id`, `None` when the table does not
    /// cover it.
    pub fn entity(&self, id: EntityId) -> Option<&[u32]> {
        self.bags(id).map(|(run, _)| run)
    }

    /// The [`title_bag`] of `id`, `None` when the table does not cover
    /// it.
    pub fn title(&self, id: EntityId) -> Option<&[u32]> {
        self.bags(id).map(|(_, title)| title)
    }

    /// True when the table holds the features of `id`.
    pub fn covers(&self, id: EntityId) -> bool {
        self.titles.get(id.0 as usize).is_some_and(|&t| t != UNCOVERED)
    }

    /// Number of covered entities.
    pub fn len(&self) -> usize {
        self.covered
    }

    /// True when no entity is covered (the [`Default`] table).
    pub fn is_empty(&self) -> bool {
        self.covered == 0
    }

    /// Check that the table was built with `vocab` and `cfg`'s
    /// description truncation, i.e. that its runs are what
    /// [`entity_bag`] would return under them.
    ///
    /// # Errors
    /// [`mb_common::Error::InvalidConfig`] naming the input that
    /// differs.
    pub fn check_inputs(&self, vocab: &Vocab, cfg: &InputConfig) -> mb_common::Result<()> {
        if self.max_description != cfg.max_description {
            return Err(mb_common::Error::InvalidConfig(format!(
                "entity feature table built with max_description {}, linker configured with {}",
                self.max_description, cfg.max_description
            )));
        }
        if self.vocab != vocab.fingerprint() {
            return Err(mb_common::Error::InvalidConfig(
                "entity feature table built with a different vocabulary".to_string(),
            ));
        }
        Ok(())
    }
}

/// A featurized training pair `(mᵢ, eᵢ)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrainPair {
    /// Mention-side bag (surface + context).
    pub mention: Vec<u32>,
    /// Surface-only bag.
    pub surface: Vec<u32>,
    /// Entity-side bag (title + description).
    pub entity: Vec<u32>,
    /// Title-only bag.
    pub title: Vec<u32>,
    /// The gold entity id.
    pub gold: EntityId,
}

impl TrainPair {
    /// Featurize a labeled mention against its gold entity.
    pub fn from_mention(
        vocab: &Vocab,
        cfg: &InputConfig,
        kb: &KnowledgeBase,
        mention: &LinkedMention,
    ) -> TrainPair {
        let entity = kb.entity(mention.entity);
        TrainPair {
            mention: mention_bag(vocab, cfg, mention),
            surface: surface_bag(vocab, mention),
            entity: entity_bag(vocab, cfg, entity),
            title: title_bag(vocab, entity),
            gold: mention.entity,
        }
    }
}

/// Build a vocabulary over the whole knowledge base plus any extra raw
/// documents (e.g. unlabeled target corpora), with a minimum count.
pub fn build_vocab<'a>(
    kb: &KnowledgeBase,
    extra_docs: impl IntoIterator<Item = &'a str>,
    min_count: u64,
) -> Vocab {
    let mut b = VocabBuilder::new();
    for e in kb.entities() {
        b.add_text(&e.title);
        b.add_text(&e.description);
    }
    for d in extra_docs {
        b.add_text(d);
    }
    b.build(min_count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mb_datagen::{World, WorldConfig};
    use mb_text::tokenize;

    fn setup() -> (mb_datagen::World, Vocab) {
        let world = World::generate(WorldConfig::tiny(13));
        let vocab = build_vocab(world.kb(), [], 1);
        (world, vocab)
    }

    #[test]
    fn vocab_covers_all_domains() {
        let (world, vocab) = setup();
        // Spot-check a few description tokens from the target domain.
        let target = world.domain("TargetX");
        let id = world.kb().domain_entities(target.id)[0];
        let desc = &world.kb().entity(id).description;
        assert!(vocab.oov_rate(desc) < 0.01, "target description is OOV");
    }

    #[test]
    fn mention_bag_truncates_context() {
        let (_, vocab) = setup();
        let cfg = InputConfig { max_context: 2, max_description: 4 };
        let m = LinkedMention {
            left: "a b c d e ".into(),
            surface: "target name".into(),
            right: " v w x y z".into(),
            entity: EntityId(0),
            category: mb_text::OverlapCategory::LowOverlap,
        };
        let bag = mention_bag(&vocab, &cfg, &m);
        // 2 surface + last-2 of left + first-2 of right.
        assert_eq!(bag.len(), 6);
    }

    #[test]
    fn entity_bag_includes_title_and_truncated_description() {
        let (world, vocab) = setup();
        let cfg = InputConfig { max_context: 4, max_description: 3 };
        let e = &world.kb().entities()[0];
        let bag = entity_bag(&vocab, &cfg, e);
        let title_len = tokenize(&e.title).len();
        assert_eq!(bag.len(), title_len + 3.min(tokenize(&e.description).len()));
    }

    #[test]
    fn feature_table_matches_the_bag_functions_and_reports_coverage() {
        let (world, vocab) = setup();
        let cfg = InputConfig { max_context: 4, max_description: 3 };
        let kb = world.kb();
        let target = kb.domain_entities(world.domain("TargetX").id);
        // Reversed with a duplicate: build order must not matter.
        let mut ids: Vec<EntityId> = target.iter().rev().copied().collect();
        ids.push(target[0]);
        let table = EntityFeatures::try_build(&vocab, &cfg, kb, &ids).expect("ids inside kb");
        assert_eq!(table.len(), target.len());
        for e in kb.entities() {
            if target.contains(&e.id) {
                assert_eq!(table.entity(e.id), Some(entity_bag(&vocab, &cfg, e).as_slice()));
                assert_eq!(table.title(e.id), Some(title_bag(&vocab, e).as_slice()));
            } else {
                assert_eq!(table.entity(e.id), None, "entity {} is outside the table", e.id.0);
                assert_eq!(table.title(e.id), None);
            }
        }
        assert!(table.covers(target[0]) && !table.covers(EntityId(kb.len() as u32)));
        let outside = EntityFeatures::try_build(&vocab, &cfg, kb, &[EntityId(kb.len() as u32)]);
        assert!(matches!(outside, Err(mb_common::Error::NotFound(_))), "got {outside:?}");
        let empty = EntityFeatures::try_build(&vocab, &cfg, kb, &[]).expect("empty table");
        assert!(empty.is_empty() && empty.entity(EntityId(0)).is_none());
        assert!(EntityFeatures::default().is_empty());
    }

    #[test]
    fn feature_table_remembers_its_vocab_and_truncation() {
        let (world, vocab) = setup();
        let cfg = InputConfig { max_context: 4, max_description: 3 };
        let kb = world.kb();
        let ids = kb.domain_entities(world.domain("TargetX").id);
        let table = EntityFeatures::try_build(&vocab, &cfg, kb, ids).expect("ids inside kb");
        table.check_inputs(&vocab, &cfg).expect("its own inputs");
        // The mention-side limit is not an input of the table.
        table.check_inputs(&vocab, &InputConfig { max_context: 9, ..cfg }).expect("entity side");
        let longer = InputConfig { max_description: 4, ..cfg };
        let err = table.check_inputs(&vocab, &longer);
        assert!(matches!(err, Err(mb_common::Error::InvalidConfig(_))), "got {err:?}");
        let err = table.check_inputs(&build_vocab(kb, [], 2), &cfg);
        assert!(matches!(err, Err(mb_common::Error::InvalidConfig(_))), "got {err:?}");
    }

    #[test]
    fn train_pair_links_gold() {
        let (world, vocab) = setup();
        let cfg = InputConfig::default();
        let domain = world.domain("TargetX").clone();
        let mut rng = mb_common::Rng::seed_from_u64(1);
        let ms = mb_datagen::mentions::generate_mentions(&world, &domain, 5, &mut rng);
        for m in &ms.mentions {
            let p = TrainPair::from_mention(&vocab, &cfg, world.kb(), m);
            assert_eq!(p.gold, m.entity);
            assert!(!p.mention.is_empty());
            assert!(!p.entity.is_empty());
        }
    }

    #[test]
    fn min_count_shrinks_vocab() {
        let (world, _) = setup();
        let v1 = build_vocab(world.kb(), [], 1);
        let v3 = build_vocab(world.kb(), [], 3);
        assert!(v3.len() < v1.len());
    }
}
