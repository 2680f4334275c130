//! Document-level global coherence — another of the paper's named
//! future-work extensions (Section VIII): when several mentions occur
//! in one document, their linked entities should be mutually related.
//!
//! Implementation: a light joint re-scoring pass. Each mention keeps
//! its top-k re-ranked candidates; candidates then receive a coherence
//! bonus proportional to their relatedness (KB triples + same-domain
//! keyword overlap) with the *current* best candidates of the other
//! mentions, iterated a few rounds (a mean-field / ICA-style update,
//! the standard recipe from Ratinov et al.'s global linkers).

use crate::linker::TwoStageLinker;
use mb_datagen::LinkedMention;
use mb_kb::{EntityId, KnowledgeBase};
use std::collections::BTreeSet;

/// Configuration of the coherence pass.
#[derive(Debug, Clone, Copy)]
pub struct CoherenceConfig {
    /// Candidates kept per mention after re-ranking.
    pub top_k: usize,
    /// Weight of the coherence bonus relative to the cross-encoder
    /// score (which is softmax-normalised per mention first).
    pub lambda: f64,
    /// Mean-field iterations.
    pub rounds: usize,
}

impl Default for CoherenceConfig {
    fn default() -> Self {
        CoherenceConfig { top_k: 8, lambda: 0.5, rounds: 2 }
    }
}

/// Pairwise entity relatedness in `[0, 1]`: 1 for a KB triple between
/// the entities (either direction), otherwise a keyword-free structural
/// fallback of shared title tokens, else 0.
pub fn relatedness(kb: &KnowledgeBase, a: EntityId, b: EntityId) -> f64 {
    if a == b {
        return 1.0;
    }
    if kb.neighbors(a).iter().any(|(_, t)| *t == b) || kb.neighbors(b).iter().any(|(_, t)| *t == a)
    {
        return 1.0;
    }
    // Weak signal: shared non-trivial title tokens.
    let ta: BTreeSet<String> = mb_text::tokenize(&kb.entity(a).title).into_iter().collect();
    let tb: BTreeSet<String> = mb_text::tokenize(&kb.entity(b).title).into_iter().collect();
    let inter = ta.intersection(&tb).count();
    if inter > 0 {
        0.3
    } else {
        0.0
    }
}

/// Jointly link all mentions of one document.
///
/// Returns one predicted entity per mention (same order). Mentions with
/// empty candidate sets yield `None`.
pub fn link_document(
    linker: &TwoStageLinker<'_>,
    mentions: &[LinkedMention],
    cfg: &CoherenceConfig,
) -> Vec<Option<EntityId>> {
    // Stage 1+2 per mention, through the linker's own inference path:
    // top-k candidates with normalised scores (none when retrieval is
    // empty or fails).
    let mut candidates: Vec<Vec<(EntityId, f64)>> = Vec::with_capacity(mentions.len());
    for m in mentions {
        let (retrieved, scores) =
            linker.link(m).map(|r| (r.retrieved, r.rerank_scores)).unwrap_or_default();
        let probs = mb_common::util::softmax(&scores);
        let mut scored: Vec<(EntityId, f64)> =
            retrieved.iter().map(|(id, _)| *id).zip(probs).collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1));
        scored.truncate(cfg.top_k);
        candidates.push(scored);
    }

    // Initialise with the local best.
    let mut current: Vec<Option<EntityId>> =
        candidates.iter().map(|c| c.first().map(|(id, _)| *id)).collect();

    // Mean-field refinement.
    for _ in 0..cfg.rounds {
        for i in 0..mentions.len() {
            if candidates[i].is_empty() {
                continue;
            }
            let mut best = (None, f64::NEG_INFINITY);
            for &(cand, local) in &candidates[i] {
                let mut bonus = 0.0;
                let mut others = 0usize;
                for (j, cur) in current.iter().enumerate() {
                    if i == j {
                        continue;
                    }
                    if let Some(other) = cur {
                        bonus += relatedness(linker.kb, cand, *other);
                        others += 1;
                    }
                }
                let coherence = if others > 0 { bonus / others as f64 } else { 0.0 };
                let total = local + cfg.lambda * coherence;
                if total > best.1 {
                    best = (Some(cand), total);
                }
            }
            current[i] = best.0;
        }
    }
    current
}

/// Accuracy of joint linking vs independent linking on grouped
/// documents (each group is a document's mention list). Returns
/// `(independent_correct, coherent_correct, total)`.
pub fn compare_on_documents(
    linker: &TwoStageLinker<'_>,
    documents: &[Vec<LinkedMention>],
    cfg: &CoherenceConfig,
) -> (usize, usize, usize) {
    let mut independent = 0;
    let mut coherent = 0;
    let mut total = 0;
    for doc in documents {
        let joint = link_document(linker, doc, cfg);
        for (m, j) in doc.iter().zip(joint) {
            total += 1;
            if linker.predict(m) == Some(m.entity) {
                independent += 1;
            }
            if j == Some(m.entity) {
                coherent += 1;
            }
        }
    }
    (independent, coherent, total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linker::LinkerConfig;
    use crate::pipeline::{train, DataSource, MetaBlinkConfig, Method, TargetTask};
    use mb_common::Rng;
    use mb_datagen::mentions::{generate_mentions, generate_one};
    use mb_datagen::{World, WorldConfig};
    use mb_encoders::input::build_vocab;

    fn fixture() -> (World, mb_text::Vocab, crate::pipeline::TrainedLinker) {
        let world = World::generate(WorldConfig::tiny(73));
        let vocab = build_vocab(world.kb(), [], 1);
        let domain = world.domain("TargetX").clone();
        let mut rng = Rng::seed_from_u64(5);
        let ms = generate_mentions(&world, &domain, 150, &mut rng);
        let empty =
            mb_nlg::SynDataset { domain: domain.name.clone(), exact: vec![], rewritten: vec![] };
        let task = TargetTask {
            world: &world,
            vocab: &vocab,
            domain: world.domain("TargetX"),
            syn: &empty,
            syn_star: &empty,
            seed: &ms.mentions,
            general: &[],
        };
        let model = train(&task, Method::Blink, DataSource::Seed, &MetaBlinkConfig::fast_test());
        (world.clone(), vocab, model)
    }

    #[test]
    fn relatedness_is_reflexive_and_uses_triples() {
        let world = World::generate(WorldConfig::tiny(73));
        let kb = world.kb();
        let domain = world.domain("TargetX");
        let ids = kb.domain_entities(domain.id);
        let a = ids[0];
        assert_eq!(relatedness(kb, a, a), 1.0);
        // Related entities from metadata are triple-linked.
        if let Some(&rel) = world.meta(a).related.first() {
            assert_eq!(relatedness(kb, a, rel), 1.0);
        }
    }

    #[test]
    fn coherence_never_crashes_and_respects_candidates() {
        let (world, vocab, model) = fixture();
        let domain = world.domain("TargetX");
        let dict = world.kb().domain_entities(domain.id);
        let linker = TwoStageLinker::new(
            &model.bi,
            &model.cross,
            &vocab,
            world.kb(),
            dict,
            LinkerConfig { k: 12, ..model.linker_cfg },
        );
        // A "document": several mentions of related entities.
        let mut rng = Rng::seed_from_u64(9);
        let anchor = dict[3];
        let mut doc = vec![generate_one(&world, domain, anchor, &mut rng)];
        for &rel in &world.meta(anchor).related {
            doc.push(generate_one(&world, domain, rel, &mut rng));
        }
        let out = link_document(&linker, &doc, &CoherenceConfig::default());
        assert_eq!(out.len(), doc.len());
        for o in out.into_iter().flatten() {
            assert!(dict.contains(&o));
        }
        // Empty documents are fine.
        assert!(link_document(&linker, &[], &CoherenceConfig::default()).is_empty());
    }

    #[test]
    fn coherence_does_not_hurt_on_related_documents() {
        let (world, vocab, model) = fixture();
        let domain = world.domain("TargetX");
        let linker = TwoStageLinker::new(
            &model.bi,
            &model.cross,
            &vocab,
            world.kb(),
            world.kb().domain_entities(domain.id),
            LinkerConfig { k: 12, ..model.linker_cfg },
        );
        // Documents of mentions about an entity and its relations.
        let mut rng = Rng::seed_from_u64(11);
        let dict = world.kb().domain_entities(domain.id);
        let documents: Vec<Vec<LinkedMention>> = (0..15)
            .map(|k| {
                let anchor = dict[k * 3 % dict.len()];
                let mut doc = vec![generate_one(&world, domain, anchor, &mut rng)];
                for &rel in &world.meta(anchor).related {
                    doc.push(generate_one(&world, domain, rel, &mut rng));
                }
                doc
            })
            .collect();
        let (indep, coh, total) =
            compare_on_documents(&linker, &documents, &CoherenceConfig::default());
        assert!(total > 15);
        // Coherence must not lose more than a whisker vs independent.
        assert!(
            coh + 2 >= indep,
            "coherence {coh}/{total} much worse than independent {indep}/{total}"
        );
    }
}
