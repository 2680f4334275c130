//! Seed-set construction.
//!
//! Under the **few-shot** setting the seed is simply the 50 labeled
//! in-domain samples split off the dataset (Table IV). Under the
//! **zero-shot** setting no labels exist, so the paper mines a seed
//! heuristically (Section VI-C): (1) filtering the synthetic data by
//! quality rules, and (2) *self-match* — for entities whose title
//! carries a disambiguation phrase, finding the base name inside the
//! entity's own description and using that occurrence as a labeled
//! mention.

use mb_datagen::LinkedMention;
use mb_kb::KnowledgeBase;
use mb_nlg::{SynPair, SynSource};
use mb_text::overlap::{classify, title_base};
use mb_text::tokenizer::tokenize;
use mb_text::{OverlapCategory, Vocab};

/// Quality rules for filtering synthetic pairs into seed candidates.
#[derive(Debug, Clone, Copy)]
pub struct SeedFilterConfig {
    /// Maximum out-of-vocabulary rate of the mention surface
    /// ("correct spelling" analogue).
    pub max_oov: f64,
    /// Minimum surface token count (very short mentions are
    /// uninformative).
    pub min_tokens: usize,
    /// Require no overlap between mention and entity title (avoids
    /// reinforcing the surface shortcut).
    pub require_low_overlap: bool,
}

impl Default for SeedFilterConfig {
    fn default() -> Self {
        SeedFilterConfig { max_oov: 0.0, min_tokens: 2, require_low_overlap: true }
    }
}

/// Strategy 1: filter synthetic pairs by quality rules.
pub(crate) fn filter_seed_candidates(
    kb: &KnowledgeBase,
    vocab: &Vocab,
    syn: &[SynPair],
    cfg: &SeedFilterConfig,
) -> Vec<LinkedMention> {
    syn.iter()
        .filter(|p| p.source == SynSource::Rewritten)
        .filter(|p| {
            let m = &p.mention;
            let toks = tokenize(&m.surface);
            if toks.len() < cfg.min_tokens {
                return false;
            }
            if vocab.oov_rate(&m.surface) > cfg.max_oov {
                return false;
            }
            if cfg.require_low_overlap {
                let title = &kb.entity(m.entity).title;
                if classify(&m.surface, title) != OverlapCategory::LowOverlap {
                    return false;
                }
            }
            true
        })
        .map(|p| p.mention.clone())
        .collect()
}

/// Strategy 2: self-match. For every entity whose title has a
/// disambiguation phrase, look for the base name inside the entity's
/// own description; the surrounding sentence becomes a labeled mention
/// of the Multiple Categories type (which is common in the real data
/// but rare in synthetic data — the vacancy this strategy fills).
pub fn self_match_seeds(kb: &KnowledgeBase, entities: &[mb_kb::EntityId]) -> Vec<LinkedMention> {
    let mut out = Vec::new();
    for &id in entities {
        let e = kb.entity(id);
        let Some(base) = title_base(&e.title) else { continue };
        let base_tokens = tokenize(base);
        if base_tokens.is_empty() {
            continue;
        }
        // Find the base token sequence in the description (canonical
        // token space), then recover a char span in the raw text by
        // locating the base case-insensitively.
        let desc = &e.description;
        let lower = desc.to_lowercase();
        let needle = base.to_lowercase();
        if let Some(pos) = lower.find(&needle) {
            let left = desc[..pos].to_string();
            let surface = desc[pos..pos + needle.len()].to_string();
            let right = desc[pos + needle.len()..].to_string();
            let category = classify(&surface, &e.title);
            out.push(LinkedMention { left, surface, right, entity: id, category });
        }
    }
    out
}

/// Assemble a zero-shot seed set of (up to) `size` mentions: self-match
/// seeds first (they are exact by construction), then filtered
/// synthetic pairs.
pub fn mine_zero_shot_seed(
    kb: &KnowledgeBase,
    vocab: &Vocab,
    entities: &[mb_kb::EntityId],
    syn: &[SynPair],
    cfg: &SeedFilterConfig,
    size: usize,
) -> Vec<LinkedMention> {
    let mut seed = self_match_seeds(kb, entities);
    seed.truncate(size);
    if seed.len() < size {
        let mut filtered = filter_seed_candidates(kb, vocab, syn, cfg);
        filtered.truncate(size - seed.len());
        seed.extend(filtered);
    }
    seed
}

#[cfg(test)]
mod tests {
    use super::*;
    use mb_common::Rng;
    use mb_datagen::mentions::generate_mentions;
    use mb_datagen::world::DomainRole;
    use mb_datagen::{World, WorldConfig};
    use mb_encoders::input::build_vocab;
    use mb_nlg::generate::{generate_syn, train_source_rewriter};
    use mb_nlg::rewriter::RewriterConfig;

    fn setup() -> (World, Vocab, Vec<SynPair>) {
        let world = World::generate(WorldConfig::tiny(53));
        let vocab = build_vocab(world.kb(), [], 1);
        let mut rng = Rng::seed_from_u64(3);
        let source_mentions: Vec<(String, Vec<LinkedMention>)> = world
            .domains_with_role(DomainRole::Train)
            .iter()
            .map(|d| {
                let ms = generate_mentions(&world, d, 100, &mut rng);
                (d.name.clone(), ms.mentions)
            })
            .collect();
        let rw =
            train_source_rewriter(&world, &source_mentions, RewriterConfig::default(), &mut rng);
        let domain = world.domain("TargetX").clone();
        let syn = generate_syn(&world, &domain, &rw, 400, &mut rng);
        (world, vocab, syn.rewritten)
    }

    #[test]
    fn filtered_candidates_obey_rules() {
        let (world, vocab, syn) = setup();
        let cfg = SeedFilterConfig::default();
        let seeds = filter_seed_candidates(world.kb(), &vocab, &syn, &cfg);
        for s in &seeds {
            assert!(tokenize(&s.surface).len() >= 2);
            assert_eq!(vocab.oov_rate(&s.surface), 0.0);
            let title = &world.kb().entity(s.entity).title;
            assert_eq!(classify(&s.surface, title), OverlapCategory::LowOverlap);
        }
    }

    #[test]
    fn self_match_yields_multiple_categories_mentions() {
        let (world, _, _) = setup();
        let domain = world.domain("TargetX");
        let ids = world.kb().domain_entities(domain.id);
        let seeds = self_match_seeds(world.kb(), ids);
        assert!(!seeds.is_empty(), "no self-match seeds found");
        for s in &seeds {
            // Surface is the title base, so against the disambiguated
            // title it classifies as Multiple Categories.
            assert_eq!(s.category, OverlapCategory::MultipleCategories);
            // The reconstructed context must splice back together.
            let full = s.text();
            assert_eq!(full, world.kb().entity(s.entity).description);
        }
    }

    #[test]
    fn mined_seed_respects_size_and_prefers_self_match() {
        let (world, vocab, syn) = setup();
        let domain = world.domain("TargetX");
        let ids = world.kb().domain_entities(domain.id);
        let seed =
            mine_zero_shot_seed(world.kb(), &vocab, ids, &syn, &SeedFilterConfig::default(), 25);
        assert!(seed.len() <= 25);
        assert!(!seed.is_empty());
        // All labels must be in-domain.
        for s in &seed {
            assert_eq!(world.kb().entity(s.entity).domain, domain.id);
        }
    }

    #[test]
    fn mined_seed_is_mostly_correctly_labeled() {
        // The point of the heuristics: mined labels should be far
        // cleaner than raw synthetic data.
        let (world, vocab, syn) = setup();
        let domain = world.domain("TargetX");
        let ids = world.kb().domain_entities(domain.id);
        let seed =
            mine_zero_shot_seed(world.kb(), &vocab, ids, &syn, &SeedFilterConfig::default(), 40);
        // Self-match seeds are correct by construction; filtered ones
        // inherit syn noise. Overall correctness must be high. We can
        // check self-match portion exactly.
        let self_matched =
            seed.iter().filter(|s| s.category == OverlapCategory::MultipleCategories).count();
        assert!(self_matched > 0);
    }
}
