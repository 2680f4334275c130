//! Gold mention generation.
//!
//! A [`LinkedMention`] is a context with a marked mention span plus the
//! gold entity. Surfaces are sampled over the paper's four overlap
//! categories, skewed towards Low Overlap (the paper reports Low
//! Overlap as the majority type, which is why Name Matching fails).
//! Contexts always carry some of the entity's salient keywords — the
//! learnable semantic signal — and occasionally a *distractor* keyword
//! from a related entity, which creates Table II-style confusions.

use crate::world::{substring_span, title_base_text, DomainInfo, World};
use mb_common::Rng;
use mb_kb::EntityId;
use mb_text::{overlap, OverlapCategory};

/// A gold labeled mention: `context = left ⧺ surface ⧺ right`.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkedMention {
    /// Context text before the mention span.
    pub left: String,
    /// The mention surface form.
    pub surface: String,
    /// Context text after the mention span.
    pub right: String,
    /// The gold entity.
    pub entity: EntityId,
    /// Overlap category of (surface, gold title).
    pub category: OverlapCategory,
}

impl LinkedMention {
    /// The full context with the surface inlined.
    pub fn text(&self) -> String {
        format!("{}{}{}", self.left, self.surface, self.right)
    }

    /// Replace the surface form (mention rewriting, Figure 3): the new
    /// surface is spliced into the same context and the category is
    /// re-derived against the gold title.
    pub fn with_surface(&self, surface: String, gold_title: &str) -> LinkedMention {
        let category = overlap::classify(&surface, gold_title);
        LinkedMention {
            left: self.left.clone(),
            surface,
            right: self.right.clone(),
            entity: self.entity,
            category,
        }
    }
}

/// All gold mentions of one domain.
#[derive(Debug, Clone)]
pub struct MentionSet {
    /// Domain name these mentions belong to.
    pub domain: String,
    /// The mentions, in generation order.
    pub mentions: Vec<LinkedMention>,
}

impl MentionSet {
    /// Number of mentions.
    pub fn len(&self) -> usize {
        self.mentions.len()
    }

    /// True if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.mentions.is_empty()
    }

    /// Count per overlap category, in [`OverlapCategory::all`] order.
    pub fn category_counts(&self) -> [usize; 4] {
        let mut counts = [0usize; 4];
        for m in &self.mentions {
            let idx = OverlapCategory::all()
                .iter()
                .position(|c| *c == m.category)
                .expect("category in all()");
            counts[idx] += 1;
        }
        counts
    }
}

/// Default category sampling weights: [High, Multiple, Ambiguous, Low].
/// Low Overlap is the majority, as in the Zeshel test domains.
pub(crate) const CATEGORY_WEIGHTS: [f64; 4] = [0.18, 0.10, 0.15, 0.57];

/// Generate `count` gold mentions for a domain.
///
/// Entities are sampled by popularity; the surface category is sampled
/// from `CATEGORY_WEIGHTS` restricted to what the entity's title
/// permits (e.g. Multiple Categories needs a disambiguation phrase).
pub fn generate_mentions(
    world: &World,
    domain: &DomainInfo,
    count: usize,
    rng: &mut Rng,
) -> MentionSet {
    let ids = world.kb().domain_entities(domain.id);
    assert!(!ids.is_empty(), "cannot generate mentions for empty domain {}", domain.name);
    let popularity: Vec<f64> = ids.iter().map(|&id| world.meta(id).popularity).collect();
    let mut mentions = Vec::with_capacity(count);
    for _ in 0..count {
        let id = ids[rng.choose_weighted(&popularity)];
        mentions.push(generate_one(world, domain, id, rng));
    }
    MentionSet { domain: domain.name.clone(), mentions }
}

/// Generate one mention for a specific entity.
pub fn generate_one(
    world: &World,
    domain: &DomainInfo,
    id: EntityId,
    rng: &mut Rng,
) -> LinkedMention {
    let entity = world.kb().entity(id);
    let meta = world.meta(id);
    let title = &entity.title;
    let has_disambig = overlap::title_base(title).is_some();
    let base = title_base_text(title);
    let multi_token_base = mb_text::tokenize(&base).len() >= 2;

    // Feasible categories with their weights.
    let mut weights = CATEGORY_WEIGHTS;
    if has_disambig {
        weights[0] = 0.0; // High Overlap: full title with "(type)" never appears in text
    } else {
        weights[1] = 0.0; // Multiple Categories needs a disambiguation phrase
    }
    if !multi_token_base {
        weights[2] = 0.0; // Ambiguous Substring needs a multi-token base
    }
    let category = OverlapCategory::all()[rng.choose_weighted(&weights)];

    let surface = match category {
        OverlapCategory::HighOverlap => base.clone(),
        OverlapCategory::MultipleCategories => base.clone(),
        OverlapCategory::AmbiguousSubstring => {
            substring_span(title, rng).unwrap_or_else(|| base.clone())
        }
        OverlapCategory::LowOverlap => rng.choose(&meta.aliases).clone(),
    };
    // Re-derive the category from the actual strings: a substring span
    // can coincide with the base of a disambiguated title, etc.
    let category = overlap::classify(&surface, title);

    let (left, right) = compose_context(world, domain, id, rng);
    LinkedMention { left, surface, right, entity: id, category }
}

/// Compose the left/right context around a mention slot.
fn compose_context(
    world: &World,
    domain: &DomainInfo,
    id: EntityId,
    rng: &mut Rng,
) -> (String, String) {
    let meta = world.meta(id);
    let lex = &domain.lexicon;
    let kw1 = rng.choose(&meta.keywords).clone();
    let kw2 = rng.choose(&meta.keywords).clone();
    let filler1 = lex.content_word(rng).to_string();
    let filler2 = lex.content_word(rng).to_string();
    // Occasionally name-drop a related entity or one of its keywords —
    // this is the confusable signal behind Table II error cases.
    let distractor = if !meta.related.is_empty() && rng.chance(0.35) {
        let rel = *rng.choose(&meta.related);
        if rng.chance(0.5) {
            title_base_text(&world.kb().entity(rel).title).to_lowercase()
        } else {
            rng.choose(&world.meta(rel).keywords).clone()
        }
    } else {
        lex.content_word(rng).to_string()
    };
    match rng.below(4) {
        0 => (
            format!("the {kw1} {filler1} turned on "),
            format!(" when the {kw2} of {distractor} appeared"),
        ),
        1 => (
            format!("after the {kw1} {filler1}, "),
            format!(" faced the {distractor} in the {kw2} {filler2}"),
        ),
        2 => (
            format!("{distractor} remembered that "),
            format!(" held the {kw1} during the {kw2} {filler2}"),
        ),
        _ => (
            format!("in the {filler1} of {kw1}, "),
            format!(" was seen near the {kw2} {distractor}"),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{World, WorldConfig};

    fn setup() -> (World, MentionSet) {
        let world = World::generate(WorldConfig::tiny(11));
        let domain = world.domain("TargetX").clone();
        let mut rng = Rng::seed_from_u64(5);
        let ms = generate_mentions(&world, &domain, 300, &mut rng);
        (world, ms)
    }

    #[test]
    fn generates_requested_count_with_valid_entities() {
        let (world, ms) = setup();
        assert_eq!(ms.len(), 300);
        let target = world.domain("TargetX");
        for m in &ms.mentions {
            assert_eq!(world.kb().entity(m.entity).domain, target.id);
            assert!(!m.surface.is_empty());
        }
    }

    #[test]
    fn low_overlap_is_majority() {
        let (_, ms) = setup();
        let counts = ms.category_counts();
        let total: usize = counts.iter().sum();
        // counts order: [High, Multiple, Ambiguous, Low]
        assert!(counts[3] * 2 > total, "Low Overlap not majority: {counts:?}");
        assert!(counts[0] > 0, "no High Overlap mentions: {counts:?}");
    }

    #[test]
    fn stored_category_matches_reclassification() {
        let (world, ms) = setup();
        for m in &ms.mentions {
            let title = &world.kb().entity(m.entity).title;
            assert_eq!(m.category, overlap::classify(&m.surface, title));
        }
    }

    #[test]
    fn contexts_carry_entity_keywords() {
        let (world, ms) = setup();
        let mut with_kw = 0;
        for m in &ms.mentions {
            let ctx = format!("{} {}", m.left, m.right).to_lowercase();
            let kws = &world.meta(m.entity).keywords;
            if kws.iter().any(|k| ctx.contains(k.as_str())) {
                with_kw += 1;
            }
        }
        assert!(
            with_kw as f64 / ms.len() as f64 > 0.95,
            "only {with_kw}/{} contexts contain a keyword",
            ms.len()
        );
    }

    #[test]
    fn text_splices_surface() {
        let (_, ms) = setup();
        let m = &ms.mentions[0];
        assert!(m.text().contains(&m.surface));
        assert!(m.text().starts_with(&m.left));
        assert!(m.text().ends_with(&m.right));
    }

    #[test]
    fn with_surface_reclassifies() {
        let (world, ms) = setup();
        let m = &ms.mentions[0];
        let title = &world.kb().entity(m.entity).title;
        let rewritten = m.with_surface(title_base_text(title), title);
        assert!(matches!(
            rewritten.category,
            OverlapCategory::HighOverlap | OverlapCategory::MultipleCategories
        ));
        assert_eq!(rewritten.left, m.left);
        assert_eq!(rewritten.entity, m.entity);
    }

    #[test]
    fn popularity_biases_sampling() {
        let (world, ms) = setup();
        use std::collections::HashMap;
        let mut counts: HashMap<EntityId, usize> = HashMap::new();
        for m in &ms.mentions {
            *counts.entry(m.entity).or_insert(0) += 1;
        }
        // The most-mentioned entity should be sampled clearly above the
        // uniform rate (300 / 90 = 3.3).
        let max = counts.values().max().copied().unwrap();
        assert!(max >= 7, "max mention count {max} suggests no popularity skew");
        let target = world.domain("TargetX");
        let _ = target;
    }

    #[test]
    fn deterministic_given_seed() {
        let world = World::generate(WorldConfig::tiny(11));
        let domain = world.domain("TargetX").clone();
        let a = generate_mentions(&world, &domain, 50, &mut Rng::seed_from_u64(9));
        let b = generate_mentions(&world, &domain, 50, &mut Rng::seed_from_u64(9));
        assert_eq!(a.mentions, b.mentions);
    }
}
