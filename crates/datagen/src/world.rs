//! World generation: domains, entities, descriptions, aliases.
//!
//! A [`World`] is the static part of the benchmark — the knowledge base
//! plus per-entity metadata (salient keywords, aliases, popularity)
//! that the mention generator and the supervision pipelines build on.
//!
//! The generative model, in brief: every entity has 3 *salient
//! keywords* drawn from its domain lexicon. Those keywords appear both
//! in the entity's description and in the contexts of mentions linking
//! to it — they are the semantic signal that makes context–description
//! linking learnable beyond surface forms, standing in for the
//! distributional signal BERT exploits in the paper. Titles may carry
//! parenthesised disambiguation phrases, and deliberate *ambiguity
//! groups* share a base name across entities so that pure name matching
//! is ambiguous or wrong (Table II's failure cases).

use crate::lexicon::{Lexicon, TYPE_WORDS};
use mb_common::{Error, Result, Rng};
use mb_kb::{DomainId, EntityId, KbBuilder, KnowledgeBase};
use mb_text::tokenizer::tokenize;
use std::collections::BTreeSet;

/// Where a domain sits in the benchmark split.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DomainRole {
    /// Source domain with rich labeled data (the "general domain").
    Train,
    /// Validation domain.
    Dev,
    /// Few-shot / zero-shot target domain.
    Test,
}

/// Configuration of one generated domain.
#[derive(Debug, Clone)]
pub struct DomainSpec {
    /// Human-readable domain name (themed stems exist for the 16
    /// Zeshel names).
    pub name: String,
    /// Benchmark role.
    pub role: DomainRole,
    /// Number of entities to generate.
    pub entities: usize,
    /// Number of gold mentions to generate.
    pub mentions: usize,
    /// Domain-gap parameter in `[0, 1]`: probability that a content
    /// word is domain jargon rather than shared vocabulary.
    pub gap: f64,
    /// Size of the domain-specific word pool.
    pub specific_vocab: usize,
}

impl DomainSpec {
    /// Convenience constructor with a vocabulary sized to the entity
    /// count.
    pub fn new(name: &str, role: DomainRole, entities: usize, mentions: usize, gap: f64) -> Self {
        DomainSpec {
            name: name.to_string(),
            role,
            entities,
            mentions,
            gap,
            specific_vocab: (entities / 4).clamp(40, 400),
        }
    }
}

/// Configuration of a whole world.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Master seed; everything derives from it.
    pub seed: u64,
    /// Size of the shared general vocabulary.
    pub general_vocab: usize,
    /// Fraction of entities that join an ambiguity group (share a base
    /// name with other entities).
    pub ambiguity_rate: f64,
    /// The domains to generate.
    pub domains: Vec<DomainSpec>,
}

/// Paper entity counts per domain (Table III), used for scaled configs.
pub const ZESHEL_DOMAINS: &[(&str, DomainRole, usize)] = &[
    ("American Football", DomainRole::Train, 31_929),
    ("Doctor Who", DomainRole::Train, 40_821),
    ("Fallout", DomainRole::Train, 16_992),
    ("Final Fantasy", DomainRole::Train, 14_044),
    ("Military", DomainRole::Train, 104_520),
    ("Pro Wrestling", DomainRole::Train, 10_133),
    ("StarWars", DomainRole::Train, 87_056),
    ("World of Warcraft", DomainRole::Train, 27_677),
    ("Coronation Street", DomainRole::Dev, 17_809),
    ("Muppets", DomainRole::Dev, 21_344),
    ("Ice Hockey", DomainRole::Dev, 28_684),
    ("Elder Scrolls", DomainRole::Dev, 21_712),
    ("Forgotten Realms", DomainRole::Test, 15_603),
    ("Lego", DomainRole::Test, 10_076),
    ("Star Trek", DomainRole::Test, 34_430),
    ("YuGiOh", DomainRole::Test, 10_031),
];

/// Paper mention counts for the four test domains (Table IV totals:
/// 50 train + 50 dev + test).
pub(crate) const ZESHEL_TEST_MENTIONS: &[(&str, usize)] =
    &[("Forgotten Realms", 1_200), ("Lego", 1_199), ("Star Trek", 4_227), ("YuGiOh", 3_374)];

/// Domain-gap parameters chosen so the generated benchmark reproduces
/// Table VIII's ordering: Forgotten Realms / Star Trek close to the
/// general distribution, Lego / YuGiOh far from it.
fn zeshel_gap(name: &str) -> f64 {
    match name {
        "Forgotten Realms" => 0.30,
        "Star Trek" => 0.28,
        "Lego" => 0.62,
        "YuGiOh" => 0.68,
        _ => 0.40,
    }
}

impl WorldConfig {
    /// The full 16-domain Zeshel-like benchmark, with entity counts
    /// scaled down by `entity_scale` for train/dev domains and
    /// `test_entity_scale` for test domains, and test-domain mention
    /// counts scaled by `mention_scale`.
    pub fn zeshel_like(
        seed: u64,
        entity_scale: usize,
        test_entity_scale: usize,
        mention_scale: usize,
    ) -> Self {
        assert!(entity_scale > 0 && test_entity_scale > 0 && mention_scale > 0);
        let mut domains = Vec::new();
        for &(name, role, paper_entities) in ZESHEL_DOMAINS {
            let scale = if role == DomainRole::Test { test_entity_scale } else { entity_scale };
            let entities = (paper_entities / scale).max(50);
            let mentions = match role {
                DomainRole::Test => {
                    let paper = ZESHEL_TEST_MENTIONS
                        .iter()
                        .find(|(n, _)| *n == name)
                        .map_or(1_000, |(_, m)| *m);
                    (paper / mention_scale).max(150)
                }
                // Source/dev domains carry labeled data proportional to
                // their size, capped to keep training tractable.
                _ => (entities / 2).clamp(100, 1_500),
            };
            domains.push(DomainSpec::new(name, role, entities, mentions, zeshel_gap(name)));
        }
        WorldConfig { seed, general_vocab: 600, ambiguity_rate: 0.12, domains }
    }

    /// Default benchmark scale used by the experiment harnesses:
    /// train/dev entities ÷40, test entities ÷10, test mentions ÷4.
    pub fn zeshel_default(seed: u64) -> Self {
        Self::zeshel_like(seed, 40, 10, 4)
    }

    /// A tiny two-train / one-test world for unit tests.
    pub fn tiny(seed: u64) -> Self {
        WorldConfig {
            seed,
            general_vocab: 120,
            ambiguity_rate: 0.15,
            domains: vec![
                DomainSpec::new("SrcA", DomainRole::Train, 80, 120, 0.4),
                DomainSpec::new("SrcB", DomainRole::Train, 80, 120, 0.4),
                DomainSpec::new("TargetX", DomainRole::Test, 90, 140, 0.6),
            ],
        }
    }
}

/// Per-entity generation metadata, aligned with KB entity ids.
#[derive(Debug, Clone)]
pub struct EntityMeta {
    /// Salient content words tying contexts to the description.
    pub keywords: Vec<String>,
    /// Alternative surface forms (used for Low Overlap mentions).
    pub aliases: Vec<String>,
    /// The entity's type word (also its disambiguation phrase if any).
    pub type_word: String,
    /// Related same-domain entities referenced by the description.
    pub related: Vec<EntityId>,
    /// Zipf-style popularity weight for mention sampling.
    pub popularity: f64,
}

/// Per-domain generation products.
#[derive(Debug, Clone)]
pub struct DomainInfo {
    /// KB domain id.
    pub id: DomainId,
    /// Domain name.
    pub name: String,
    /// Benchmark role.
    pub role: DomainRole,
    /// The domain's lexicon (needed by mention/corpus generation).
    pub lexicon: Lexicon,
}

/// A fully generated static world.
#[derive(Debug, Clone)]
pub struct World {
    kb: KnowledgeBase,
    meta: Vec<EntityMeta>,
    domains: Vec<DomainInfo>,
    config: WorldConfig,
}

/// Locally staged entity before KB insertion.
struct StagedEntity {
    title: String,
    type_word: String,
    keywords: Vec<String>,
    aliases: Vec<String>,
    related: Vec<usize>,
    description: String,
}

impl World {
    /// Generate a world from a configuration. Deterministic in
    /// `config.seed`.
    pub fn generate(config: WorldConfig) -> Self {
        let root = Rng::seed_from_u64(config.seed);
        let general = Lexicon::general_pool(&root, config.general_vocab);
        let mut builder = KbBuilder::new();
        // Generated worlds are bounded by WorldConfig, far below the KB
        // id-space limits, so capacity errors here are unreachable.
        let mut meta: Vec<EntityMeta> = Vec::new();
        let mut domains = Vec::new();

        for (di, spec) in config.domains.iter().enumerate() {
            let domain_rng = root.split(0x0D00_0000 + di as u64);
            let lexicon = Lexicon::build(
                &spec.name,
                &domain_rng,
                general.clone(),
                spec.specific_vocab,
                spec.gap,
            );
            let domain_id = builder.domain(&spec.name).expect("domain id space");
            let staged = stage_domain(spec, &lexicon, config.ambiguity_rate, &domain_rng);

            // Insert into the KB, then wire meta.
            let ids: Vec<EntityId> = staged
                .iter()
                .map(|s| {
                    builder
                        .add_entity(&s.title, &s.description, domain_id)
                        .expect("entity id space")
                })
                .collect();
            let n = staged.len() as f64;
            for (k, s) in staged.into_iter().enumerate() {
                let related: Vec<EntityId> = s.related.iter().map(|&r| ids[r]).collect();
                // Zipf-ish popularity by generation rank.
                let popularity = 1.0 / (1.0 + k as f64).powf(0.8) * n;
                meta.push(EntityMeta {
                    keywords: s.keywords,
                    aliases: s.aliases,
                    type_word: s.type_word,
                    related,
                    popularity,
                });
            }
            domains.push(DomainInfo {
                id: domain_id,
                name: spec.name.clone(),
                role: spec.role,
                lexicon,
            });
        }

        let kb = builder.build();
        World { kb, meta, domains, config }
    }

    /// The knowledge base.
    pub fn kb(&self) -> &KnowledgeBase {
        &self.kb
    }

    /// Generation metadata of one entity.
    pub fn meta(&self, id: EntityId) -> &EntityMeta {
        &self.meta[id.0 as usize]
    }

    /// Per-domain info in generation order.
    pub fn domains(&self) -> &[DomainInfo] {
        &self.domains
    }

    /// Find a domain by name.
    ///
    /// # Panics
    /// Panics if the domain does not exist. Use this when the name is
    /// hard-coded (worlds are static; a wrong literal is a programming
    /// bug); for names that arrive from external input — CLI flags,
    /// model manifests — use [`World::domain_checked`] instead.
    pub fn domain(&self, name: &str) -> &DomainInfo {
        self.domain_checked(name).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Find a domain by name, surfacing unknown names as an error.
    ///
    /// # Errors
    /// Returns [`Error::NotFound`] when no domain has this name — the
    /// recoverable form of [`World::domain`] for load paths.
    pub fn domain_checked(&self, name: &str) -> Result<&DomainInfo> {
        self.domains
            .iter()
            .find(|d| d.name == name)
            .ok_or_else(|| Error::NotFound(format!("domain {name:?} not in world")))
    }

    /// All domains with a given role.
    pub fn domains_with_role(&self, role: DomainRole) -> Vec<&DomainInfo> {
        self.domains.iter().filter(|d| d.role == role).collect()
    }

    /// The spec used for a domain.
    ///
    /// # Panics
    /// Panics on unknown names; see [`World::spec_checked`] for the
    /// recoverable form.
    pub(crate) fn spec(&self, name: &str) -> &DomainSpec {
        self.spec_checked(name).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The spec used for a domain, surfacing unknown names as an error.
    ///
    /// # Errors
    /// Returns [`Error::NotFound`] when the config has no spec with
    /// this name.
    pub(crate) fn spec_checked(&self, name: &str) -> Result<&DomainSpec> {
        self.config
            .domains
            .iter()
            .find(|s| s.name == name)
            .ok_or_else(|| Error::NotFound(format!("domain spec {name:?} not in config")))
    }
}

/// Generate all entities of one domain locally.
fn stage_domain(
    spec: &DomainSpec,
    lexicon: &Lexicon,
    ambiguity_rate: f64,
    domain_rng: &Rng,
) -> Vec<StagedEntity> {
    let mut rng = domain_rng.split(10);
    let mut taken: BTreeSet<String> = BTreeSet::new();
    let mut staged: Vec<StagedEntity> = Vec::with_capacity(spec.entities);
    let mut attempts = 0usize;
    let max_attempts = spec.entities.saturating_mul(200).max(10_000);

    while staged.len() < spec.entities {
        attempts += 1;
        if attempts > max_attempts {
            // Name space exhausted (tiny lexicon): fall back to
            // guaranteed-unique numbered titles.
            let k = staged.len();
            let base = lexicon.name(&mut rng, 2);
            let type_word = rng.choose(TYPE_WORDS).to_string();
            let title = format!("{base} {k}");
            if let Some(e) = try_stage(&title, &type_word, lexicon, &mut taken, &mut rng) {
                staged.push(e);
            }
            continue;
        }
        let remaining = spec.entities - staged.len();
        let group = if remaining >= 3 && rng.chance(ambiguity_rate) {
            rng.range(2, 4) // ambiguity group of 2–3 sharing a base name
        } else {
            1
        };
        let name_len = rng.length(1, 3, 0.45);
        let base = lexicon.name(&mut rng, name_len);
        if group == 1 {
            // Possibly give a lone entity a disambiguation phrase too.
            let type_word = rng.choose(TYPE_WORDS).to_string();
            let title =
                if rng.chance(0.15) { format!("{base} ({type_word})") } else { base.clone() };
            if let Some(e) = try_stage(&title, &type_word, lexicon, &mut taken, &mut rng) {
                staged.push(e);
            }
        } else {
            // Ambiguity group: distinct disambiguation phrases, plus
            // possibly the bare base as its own entity.
            let mut types: Vec<&str> = TYPE_WORDS.to_vec();
            rng.shuffle(&mut types);
            let bare_first = rng.chance(0.5);
            for g in 0..group {
                let type_word = types[g % types.len()].to_string();
                let title = if g == 0 && bare_first {
                    base.clone()
                } else {
                    format!("{base} ({type_word})")
                };
                if staged.len() < spec.entities {
                    if let Some(e) = try_stage(&title, &type_word, lexicon, &mut taken, &mut rng) {
                        staged.push(e);
                    }
                }
            }
        }
    }

    // Related wiring (indices within the domain).
    let n = staged.len();
    let mut rel_rng = domain_rng.split(11);
    for i in 0..n {
        let n_rel = rel_rng.range(1, 3);
        let mut related = Vec::with_capacity(n_rel);
        for _ in 0..n_rel {
            let other = rel_rng.below(n);
            if other != i && !related.contains(&other) {
                related.push(other);
            }
        }
        staged[i].related = related;
    }

    // Descriptions last (they reference related titles).
    let titles: Vec<String> = staged.iter().map(|s| s.title.clone()).collect();
    let mut desc_rng = domain_rng.split(12);
    for s in &mut staged {
        let related_titles: Vec<&str> = s.related.iter().map(|&r| titles[r].as_str()).collect();
        s.description = compose_description(
            &s.title,
            &s.type_word,
            &s.keywords,
            &related_titles,
            lexicon,
            &mut desc_rng,
        );
    }
    staged
}

/// Stage one entity if its canonical title is still free in the domain.
fn try_stage(
    title: &str,
    type_word: &str,
    lexicon: &Lexicon,
    taken: &mut BTreeSet<String>,
    rng: &mut Rng,
) -> Option<StagedEntity> {
    let key = mb_kb::index::canonical(title);
    if !taken.insert(key) {
        return None;
    }
    // Three salient keywords: two in-domain, one gap-mixed.
    let keywords = vec![
        lexicon.specific_word(rng).to_string(),
        lexicon.specific_word(rng).to_string(),
        lexicon.content_word(rng).to_string(),
    ];
    // Aliases are keyword-based epithets built from the entity's
    // *salient* words (how domain text actually paraphrases an entity).
    // They share no tokens with the title, which keeps them in the Low
    // Overlap category with overwhelming probability.
    let mut aliases = vec![format!("the {} {}", keywords[0], keywords[1])];
    if rng.chance(0.6) {
        aliases.push(format!("the {} of {}", keywords[1], keywords[0]));
    }
    Some(StagedEntity {
        title: title.to_string(),
        type_word: type_word.to_string(),
        keywords,
        aliases,
        related: Vec::new(),
        description: String::new(),
    })
}

/// Compose a 2–3 sentence description exposing the entity's keywords
/// and (usually) one related entity's title.
fn compose_description(
    title: &str,
    type_word: &str,
    keywords: &[String],
    related_titles: &[&str],
    lexicon: &Lexicon,
    rng: &mut Rng,
) -> String {
    let base = title_base_text(title);
    let kw = keywords;
    let filler1 = lexicon.content_word(rng).to_string();
    let filler2 = lexicon.content_word(rng).to_string();
    let mut sentences = Vec::with_capacity(3);
    sentences.push(match rng.below(3) {
        0 => format!("{base} is a {} {type_word} of the {} {filler1}.", kw[0], kw[1]),
        1 => format!("{base} is the {type_word} known for the {} {}.", kw[0], kw[1]),
        _ => format!("The {type_word} {base} belongs to the {} {filler1}.", kw[0]),
    });
    if let Some(rt) = related_titles.first() {
        let rbase = title_base_text(rt);
        sentences.push(match rng.below(3) {
            0 => format!("It appeared in the {} {filler2} with {rbase}.", kw[2]),
            1 => format!("Together with {rbase} it shaped the {} {filler2}.", kw[2]),
            _ => format!("{rbase} first encountered it during the {} {filler2}.", kw[2]),
        });
    } else {
        sentences.push(format!("It is remembered for the {} {filler2}.", kw[2]));
    }
    if rng.chance(0.7) {
        let filler3 = lexicon.content_word(rng).to_string();
        sentences.push(format!("The {type_word} is associated with {} and {filler3}.", kw[0]));
    }
    sentences.join(" ")
}

/// The title's base text (before any disambiguation phrase).
pub(crate) fn title_base_text(title: &str) -> String {
    match mb_text::overlap::title_base(title) {
        Some(base) => base.to_string(),
        None => title.to_string(),
    }
}

/// A contiguous proper token sub-span of a multi-token base title, for
/// Ambiguous Substring mentions. Returns `None` for single-token bases.
pub(crate) fn substring_span(title: &str, rng: &mut Rng) -> Option<String> {
    let base = title_base_text(title);
    let toks = tokenize(&base);
    if toks.len() < 2 {
        return None;
    }
    let len = rng.range(1, toks.len());
    let start = rng.range(0, toks.len() - len + 1);
    Some(toks[start..start + len].join(" "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn tiny_world() -> World {
        World::generate(WorldConfig::tiny(42))
    }

    #[test]
    fn generates_requested_counts() {
        let w = tiny_world();
        assert_eq!(w.domains().len(), 3);
        let target = w.domain("TargetX");
        assert_eq!(w.kb().domain_entities(target.id).len(), 90);
        let src = w.domain("SrcA");
        assert_eq!(w.kb().domain_entities(src.id).len(), 80);
    }

    #[test]
    fn deterministic_generation() {
        let a = tiny_world();
        let b = tiny_world();
        assert_eq!(a.kb().len(), b.kb().len());
        for (ea, eb) in a.kb().entities().iter().zip(b.kb().entities()) {
            assert_eq!(ea.title, eb.title);
            assert_eq!(ea.description, eb.description);
        }
        for id in 0..a.kb().len() as u32 {
            let id = EntityId(id);
            assert_eq!(a.meta(id).keywords, b.meta(id).keywords);
            assert_eq!(a.meta(id).aliases, b.meta(id).aliases);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = World::generate(WorldConfig::tiny(1));
        let b = World::generate(WorldConfig::tiny(2));
        let same = a
            .kb()
            .entities()
            .iter()
            .zip(b.kb().entities())
            .filter(|(x, y)| x.title == y.title)
            .count();
        assert!(same < a.kb().len() / 4, "{same} identical titles");
    }

    #[test]
    fn titles_unique_within_domain() {
        let w = tiny_world();
        for d in w.domains() {
            let mut seen = HashSet::new();
            for &id in w.kb().domain_entities(d.id) {
                let key = mb_kb::index::canonical(&w.kb().entity(id).title);
                assert!(seen.insert(key), "duplicate title in domain {}", d.name);
            }
        }
    }

    #[test]
    fn descriptions_contain_keywords() {
        let w = tiny_world();
        let mut hits = 0;
        let mut total = 0;
        for e in w.kb().entities() {
            let m = w.meta(e.id);
            let desc = e.description.to_lowercase();
            total += m.keywords.len();
            hits += m.keywords.iter().filter(|k| desc.contains(k.as_str())).count();
        }
        // The first keyword always appears; the others usually do.
        assert!(hits as f64 / total as f64 > 0.85, "{hits}/{total}");
    }

    #[test]
    fn ambiguity_groups_exist() {
        let w = tiny_world();
        let mut with_disambig = 0;
        for e in w.kb().entities() {
            if mb_text::overlap::title_base(&e.title).is_some() {
                with_disambig += 1;
            }
        }
        assert!(with_disambig > 5, "only {with_disambig} disambiguated titles");
    }

    #[test]
    fn aliases_are_low_overlap() {
        let w = tiny_world();
        let mut low = 0;
        let mut total = 0;
        for e in w.kb().entities() {
            for alias in &w.meta(e.id).aliases {
                total += 1;
                if mb_text::overlap::classify(alias, &e.title)
                    == mb_text::OverlapCategory::LowOverlap
                {
                    low += 1;
                }
            }
        }
        assert!(low as f64 / total as f64 > 0.95, "{low}/{total} aliases low-overlap");
    }

    #[test]
    fn popularity_is_positive_and_decreasing_overall() {
        let w = tiny_world();
        let d = w.domain("TargetX");
        let ids = w.kb().domain_entities(d.id);
        assert!(ids.iter().all(|&id| w.meta(id).popularity > 0.0));
        assert!(w.meta(ids[0]).popularity > w.meta(*ids.last().unwrap()).popularity);
    }

    #[test]
    fn zeshel_config_counts_scale() {
        let cfg = WorldConfig::zeshel_like(1, 40, 10, 4);
        assert_eq!(cfg.domains.len(), 16);
        let lego = cfg.domains.iter().find(|d| d.name == "Lego").unwrap();
        assert_eq!(lego.entities, 10_076 / 10);
        assert_eq!(lego.mentions, 1_199 / 4);
        assert_eq!(lego.role, DomainRole::Test);
        let military = cfg.domains.iter().find(|d| d.name == "Military").unwrap();
        assert_eq!(military.entities, 104_520 / 40);
        assert_eq!(military.role, DomainRole::Train);
    }

    #[test]
    fn substring_span_is_contained() {
        let mut rng = Rng::seed_from_u64(3);
        for _ in 0..50 {
            let span = substring_span("Golden Master Crown (item)", &mut rng).unwrap();
            let toks = tokenize(&span);
            let base = tokenize("golden master crown");
            assert!(toks.len() < base.len(), "span must be proper: {span:?}");
            assert!(base.windows(toks.len()).any(|w| w == toks.as_slice()));
        }
        assert!(substring_span("Solo", &mut rng).is_none());
        assert!(substring_span("Solo (item)", &mut rng).is_none());
    }

    #[test]
    fn related_entities_stay_in_domain() {
        let w = tiny_world();
        for e in w.kb().entities() {
            for &r in &w.meta(e.id).related {
                assert_eq!(w.kb().entity(r).domain, e.domain);
                assert_ne!(r, e.id);
            }
        }
    }
}
