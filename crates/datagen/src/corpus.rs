//! Unlabeled in-domain text.
//!
//! The paper's syn → syn* upgrade fine-tunes T5 on *unlabeled* target
//! text with a denoising objective. Our rewriter substitute adapts its
//! domain statistics on the same kind of resource: a bag of raw
//! documents from the target domain, generated here without labels
//! (descriptions plus label-free context sentences).

use crate::world::{DomainInfo, World};
use mb_common::Rng;

/// Generate `count` unlabeled documents from a domain.
///
/// Roughly half are entity descriptions (what a wiki dump would
/// contain) and half are free-text sentences built from the domain
/// lexicon.
pub fn unlabeled_documents(
    world: &World,
    domain: &DomainInfo,
    count: usize,
    rng: &mut Rng,
) -> Vec<String> {
    let ids = world.kb().domain_entities(domain.id);
    let lex = &domain.lexicon;
    let mut docs = Vec::with_capacity(count);
    for _ in 0..count {
        if rng.chance(0.5) && !ids.is_empty() {
            let id = *rng.choose(ids);
            docs.push(world.kb().entity(id).description.clone());
        } else {
            let n = rng.range(6, 14);
            let mut words = Vec::with_capacity(n);
            for k in 0..n {
                if k % 3 == 2 {
                    words.push("the".to_string());
                } else {
                    words.push(lex.content_word(rng).to_string());
                }
            }
            docs.push(words.join(" "));
        }
    }
    docs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{World, WorldConfig};

    #[test]
    fn generates_nonempty_documents() {
        let world = World::generate(WorldConfig::tiny(5));
        let domain = world.domain("TargetX").clone();
        let docs = unlabeled_documents(&world, &domain, 40, &mut Rng::seed_from_u64(1));
        assert_eq!(docs.len(), 40);
        assert!(docs.iter().all(|d| !d.is_empty()));
    }

    #[test]
    fn documents_reflect_domain_vocabulary() {
        let world = World::generate(WorldConfig::tiny(5));
        let domain = world.domain("TargetX").clone();
        let docs = unlabeled_documents(&world, &domain, 60, &mut Rng::seed_from_u64(2));
        let text = docs.join(" ").to_lowercase();
        // Draws from the domain pool stand in for the pool itself.
        let mut rng = Rng::seed_from_u64(4);
        let pool: std::collections::BTreeSet<&str> =
            (0..500).map(|_| domain.lexicon.specific_word(&mut rng)).collect();
        let hits = pool.iter().filter(|w| text.contains(*w)).count();
        assert!(hits > 5, "only {hits} domain words appear in the corpus");
    }

    #[test]
    fn deterministic() {
        let world = World::generate(WorldConfig::tiny(5));
        let domain = world.domain("TargetX").clone();
        let a = unlabeled_documents(&world, &domain, 10, &mut Rng::seed_from_u64(3));
        let b = unlabeled_documents(&world, &domain, 10, &mut Rng::seed_from_u64(3));
        assert_eq!(a, b);
    }
}
