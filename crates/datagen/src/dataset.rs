//! Whole-benchmark assembly: world + mentions + few-shot splits.

use crate::mentions::{generate_mentions, MentionSet};
use crate::splits::FewShotSplit;
use crate::world::{DomainRole, World, WorldConfig};
use mb_common::Rng;

/// Configuration of a full benchmark dataset.
#[derive(Debug, Clone)]
pub struct DatasetConfig {
    /// World configuration (domains, sizes, gaps).
    pub world: WorldConfig,
    /// Seed-set size per test domain (paper: 50).
    pub seed_size: usize,
    /// Dev-set size per test domain (paper: 50).
    pub dev_size: usize,
}

impl DatasetConfig {
    /// Paper-default splits over the given world.
    pub fn new(world: WorldConfig) -> Self {
        DatasetConfig { world, seed_size: 50, dev_size: 50 }
    }

    /// Tiny configuration for unit tests (smaller splits too).
    pub fn tiny(seed: u64) -> Self {
        DatasetConfig { world: WorldConfig::tiny(seed), seed_size: 25, dev_size: 25 }
    }
}

/// A generated benchmark: the world, gold mentions for every domain,
/// and few-shot splits for the test domains.
#[derive(Debug, Clone)]
pub struct Dataset {
    world: World,
    /// Mention sets aligned with `world.domains()` order.
    mentions: Vec<MentionSet>,
    /// Few-shot splits for every `Test`-role domain, in domain order.
    splits: Vec<FewShotSplit>,
}

impl Dataset {
    /// Generate the full benchmark. Deterministic in the world seed.
    pub fn generate(config: DatasetConfig) -> Self {
        let seed = config.world.seed;
        let world = World::generate(config.world);
        let root = Rng::seed_from_u64(seed ^ 0x0DA7_A5E7);
        let mut mentions = Vec::with_capacity(world.domains().len());
        let mut splits = Vec::new();
        for (di, domain) in world.domains().to_vec().iter().enumerate() {
            let mut rng = root.split(di as u64);
            let count = world.spec(&domain.name).mentions;
            let set = generate_mentions(&world, domain, count, &mut rng);
            if domain.role == DomainRole::Test {
                let mut split_rng = root.split(0x5917 + di as u64);
                splits.push(FewShotSplit::split(
                    &set,
                    config.seed_size,
                    config.dev_size,
                    &mut split_rng,
                ));
            }
            mentions.push(set);
        }
        Dataset { world, mentions, splits }
    }

    /// The underlying world.
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Gold mentions of a domain by name.
    ///
    /// # Panics
    /// Panics for unknown domain names.
    pub fn mentions(&self, domain: &str) -> &MentionSet {
        self.mentions
            .iter()
            .find(|m| m.domain == domain)
            .unwrap_or_else(|| panic!("no mentions for domain {domain:?}"))
    }

    /// Few-shot split of a test domain by name.
    ///
    /// # Panics
    /// Panics if the domain is not a test domain.
    pub fn split(&self, domain: &str) -> &FewShotSplit {
        self.splits
            .iter()
            .find(|s| s.domain == domain)
            .unwrap_or_else(|| panic!("no few-shot split for domain {domain:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Dataset {
        Dataset::generate(DatasetConfig::tiny(21))
    }

    #[test]
    fn builds_all_parts() {
        let ds = tiny();
        assert_eq!(ds.mentions.len(), 3);
        assert_eq!(ds.splits.len(), 1);
        let split = ds.split("TargetX");
        assert_eq!(split.seed.len(), 25);
        assert_eq!(split.dev.len(), 25);
        assert_eq!(split.test.len(), 140 - 50);
        assert_eq!(ds.mentions("SrcA").len(), 120);
    }

    #[test]
    fn deterministic() {
        let a = tiny();
        let b = tiny();
        assert_eq!(a.mentions("TargetX").mentions, b.mentions("TargetX").mentions);
        assert_eq!(a.split("TargetX").seed, b.split("TargetX").seed);
    }

    #[test]
    #[should_panic(expected = "no few-shot split")]
    fn split_for_train_domain_panics() {
        tiny().split("SrcA");
    }
}
