//! Few-shot splits (Table IV): 50 seed / 50 dev / rest test.

use crate::mentions::{LinkedMention, MentionSet};
use mb_common::Rng;

/// A few-shot split of one target domain's gold mentions.
#[derive(Debug, Clone)]
pub struct FewShotSplit {
    /// Domain name.
    pub domain: String,
    /// The seed set — the few labeled in-domain examples MetaBLINK's
    /// meta-learning consumes (paper default: 50).
    pub seed: Vec<LinkedMention>,
    /// Development set for model selection (paper default: 50).
    pub dev: Vec<LinkedMention>,
    /// Held-out test set.
    pub test: Vec<LinkedMention>,
}

impl FewShotSplit {
    /// Randomly split a mention set into seed/dev/test.
    ///
    /// # Panics
    /// Panics if the set has fewer than `seed_n + dev_n + 1` mentions —
    /// a split without a test set is a configuration error.
    pub fn split(set: &MentionSet, seed_n: usize, dev_n: usize, rng: &mut Rng) -> Self {
        assert!(
            set.len() > seed_n + dev_n,
            "domain {}: {} mentions cannot support a {}+{} split",
            set.domain,
            set.len(),
            seed_n,
            dev_n
        );
        let mut idx: Vec<usize> = (0..set.len()).collect();
        rng.shuffle(&mut idx);
        let take = |range: std::ops::Range<usize>| -> Vec<LinkedMention> {
            idx[range].iter().map(|&i| set.mentions[i].clone()).collect()
        };
        FewShotSplit {
            domain: set.domain.clone(),
            seed: take(0..seed_n),
            dev: take(seed_n..seed_n + dev_n),
            test: take(seed_n + dev_n..set.len()),
        }
    }

    /// Total number of mentions across all three parts.
    pub fn total(&self) -> usize {
        self.seed.len() + self.dev.len() + self.test.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mentions::generate_mentions;
    use crate::world::{World, WorldConfig};

    fn mention_set() -> MentionSet {
        let world = World::generate(WorldConfig::tiny(3));
        let domain = world.domain("TargetX").clone();
        generate_mentions(&world, &domain, 140, &mut Rng::seed_from_u64(1))
    }

    #[test]
    fn sizes_are_exact_and_disjoint() {
        let set = mention_set();
        let split = FewShotSplit::split(&set, 50, 50, &mut Rng::seed_from_u64(2));
        assert_eq!(split.seed.len(), 50);
        assert_eq!(split.dev.len(), 50);
        assert_eq!(split.test.len(), 40);
        assert_eq!(split.total(), set.len());
        // Partition: counts of each distinct mention add up.
        let count_in =
            |part: &[LinkedMention], m: &LinkedMention| part.iter().filter(|x| *x == m).count();
        for m in &set.mentions {
            let total =
                count_in(&split.seed, m) + count_in(&split.dev, m) + count_in(&split.test, m);
            let orig = set.mentions.iter().filter(|x| *x == m).count();
            assert_eq!(total, orig);
        }
    }

    #[test]
    fn deterministic() {
        let set = mention_set();
        let a = FewShotSplit::split(&set, 30, 30, &mut Rng::seed_from_u64(7));
        let b = FewShotSplit::split(&set, 30, 30, &mut Rng::seed_from_u64(7));
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.test, b.test);
    }

    #[test]
    #[should_panic(expected = "cannot support")]
    fn rejects_oversized_split() {
        let set = mention_set();
        FewShotSplit::split(&set, 100, 40, &mut Rng::seed_from_u64(1));
    }
}
