//! Streaming entity generation for million-entity stores.
//!
//! [`crate::World`] materializes every entity before returning — fine
//! at benchmark scale, hopeless at the million-entity scale the
//! sharded store targets. [`EntityStream`] instead yields entities in
//! fixed-size chunks, deriving each entity entirely from
//! `(config, global index)`:
//!
//! - per-entity RNG = `world_rng.split(STREAM_SALT).split(index)`, so
//!   the emitted world is **independent of chunk size** and of how
//!   many chunks the consumer drains — resuming at chunk `k` yields
//!   the same entities a fresh full drain would;
//! - titles embed the global index, so uniqueness holds by
//!   construction with no cross-chunk dedup state;
//! - vectors are drawn around `topics` latent unit centers
//!   (`normalize(center + noise · gauss)`), giving the cluster
//!   structure IVF retrieval exploits while keeping every vector
//!   L2-normalized like real bi-encoder embeddings.
//!
//! Peak memory is one chunk of entities plus the lexicon and topic
//! table — O(chunk + topics·dim), regardless of `entities`.

use crate::lexicon::Lexicon;
use mb_common::{Error, Result, Rng};

/// Salt separating the stream's RNG tree from other world streams.
const STREAM_SALT: u64 = 0x0057_0EA4;

/// Parameters of a streamed entity world.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    /// Total entities to emit.
    pub entities: usize,
    /// Embedding dimensionality.
    pub dim: usize,
    /// Latent topic (cluster) count for vector structure.
    pub topics: usize,
    /// Gaussian spread around a topic center before renormalization.
    pub noise: f64,
    /// Entities per yielded chunk (the RAM bound).
    pub chunk: usize,
    /// World seed.
    pub seed: u64,
}

impl StreamConfig {
    /// A small, fast configuration for tests and CI smokes.
    pub fn tiny(entities: usize, seed: u64) -> Self {
        StreamConfig { entities, dim: 16, topics: 8, noise: 0.35, chunk: 512, seed }
    }
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            entities: 1_000_000,
            dim: 32,
            topics: 256,
            noise: 0.35,
            chunk: 65_536,
            seed: 0,
        }
    }
}

/// One streamed entity: store-ready text plus its embedding.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamedEntity {
    /// Unique title (embeds the global index).
    pub title: String,
    /// Short synthetic description.
    pub description: String,
    /// L2-normalized embedding of length `cfg.dim`.
    pub vector: Vec<f64>,
}

/// Chunked iterator over a streamed world.
#[derive(Debug)]
pub struct EntityStream {
    cfg: StreamConfig,
    base: Rng,
    lexicon: Lexicon,
    /// `topics * dim`, row-major, rows unit-norm.
    topics: Vec<f64>,
    next: usize,
}

/// L2-normalize `v` in place (no-op on the zero vector).
fn normalize(v: &mut [f64]) {
    let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm > 0.0 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
}

impl EntityStream {
    /// Validate the configuration and set up the lexicon and topic
    /// centers (the only state shared across chunks).
    ///
    /// # Errors
    /// [`Error::InvalidConfig`] when any count is zero, `noise` is not
    /// finite and non-negative, or `dim < 2`.
    pub fn new(cfg: StreamConfig) -> Result<EntityStream> {
        if cfg.entities == 0 || cfg.topics == 0 || cfg.chunk == 0 {
            return Err(Error::InvalidConfig(
                "stream entities, topics and chunk must be positive".to_string(),
            ));
        }
        if cfg.dim < 2 {
            return Err(Error::InvalidConfig("stream dim must be at least 2".to_string()));
        }
        if !(cfg.noise.is_finite() && cfg.noise >= 0.0) {
            return Err(Error::InvalidConfig(format!(
                "stream noise must be finite and non-negative, got {}",
                cfg.noise
            )));
        }
        let world_rng = Rng::seed_from_u64(cfg.seed);
        let general = Lexicon::general_pool(&world_rng, 160);
        let lexicon = Lexicon::build("stream", &world_rng.split(1), general, 96, 0.6);
        let mut topic_rng = world_rng.split(2);
        let mut topics = vec![0.0f64; cfg.topics * cfg.dim];
        for t in 0..cfg.topics {
            let row = &mut topics[t * cfg.dim..(t + 1) * cfg.dim];
            for x in row.iter_mut() {
                *x = topic_rng.gaussian();
            }
            normalize(row);
        }
        Ok(EntityStream { cfg, base: world_rng.split(STREAM_SALT), lexicon, topics, next: 0 })
    }

    /// The configuration this stream was built with.
    pub fn config(&self) -> &StreamConfig {
        &self.cfg
    }

    /// Generate the entity at `index` (pure in `(config, index)`).
    fn entity(&self, index: usize) -> StreamedEntity {
        let mut rng = self.base.split(index as u64);
        let name_len = rng.length(1, 2, 0.4);
        let name = self.lexicon.name(&mut rng, name_len);
        let title = format!("{name} {index}");
        let topic = rng.below(self.cfg.topics);
        let mut vector = vec![0.0f64; self.cfg.dim];
        let center = &self.topics[topic * self.cfg.dim..(topic + 1) * self.cfg.dim];
        for (x, &c) in vector.iter_mut().zip(center) {
            *x = c + self.cfg.noise * rng.gaussian();
        }
        normalize(&mut vector);
        let kw1 = self.lexicon.specific_word(&mut rng).to_string();
        let kw2 = self.lexicon.content_word(&mut rng).to_string();
        let description =
            format!("{name} is a {kw1} of the {kw2} world, catalogued as entry {index}.");
        StreamedEntity { title, description, vector }
    }

    /// Emit the next chunk (shorter at the tail), or `None` when the
    /// world is exhausted.
    pub(crate) fn next_chunk(&mut self) -> Option<Vec<StreamedEntity>> {
        if self.next >= self.cfg.entities {
            return None;
        }
        let lo = self.next;
        let hi = (lo + self.cfg.chunk).min(self.cfg.entities);
        let mut out = Vec::with_capacity(hi - lo);
        for i in lo..hi {
            out.push(self.entity(i));
        }
        self.next = hi;
        Some(out)
    }
}

impl Iterator for EntityStream {
    type Item = Vec<StreamedEntity>;

    fn next(&mut self) -> Option<Vec<StreamedEntity>> {
        self.next_chunk()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_size_does_not_change_the_world() {
        let mut a = EntityStream::new(StreamConfig { chunk: 7, ..StreamConfig::tiny(50, 9) })
            .expect("stream");
        let mut b = EntityStream::new(StreamConfig { chunk: 50, ..StreamConfig::tiny(50, 9) })
            .expect("stream");
        let flat_a: Vec<StreamedEntity> = a.by_ref().flatten().collect();
        let flat_b: Vec<StreamedEntity> = b.by_ref().flatten().collect();
        assert_eq!(flat_a.len(), 50);
        assert_eq!(flat_a, flat_b);
    }

    #[test]
    fn titles_are_unique_and_vectors_unit_norm() {
        let stream = EntityStream::new(StreamConfig::tiny(200, 3)).expect("stream");
        let mut titles = std::collections::BTreeSet::new();
        for chunk in stream {
            for e in chunk {
                assert!(titles.insert(e.title.clone()), "duplicate title {}", e.title);
                let norm: f64 = e.vector.iter().map(|x| x * x).sum::<f64>();
                assert!((norm - 1.0).abs() < 1e-9, "norm {norm}");
                assert_eq!(e.vector.len(), 16);
            }
        }
        assert_eq!(titles.len(), 200);
    }

    #[test]
    fn rejects_degenerate_configs() {
        assert!(EntityStream::new(StreamConfig::tiny(0, 1)).is_err());
        assert!(EntityStream::new(StreamConfig { dim: 1, ..StreamConfig::tiny(10, 1) }).is_err());
        assert!(EntityStream::new(StreamConfig { noise: f64::NAN, ..StreamConfig::tiny(10, 1) })
            .is_err());
        assert!(EntityStream::new(StreamConfig { topics: 0, ..StreamConfig::tiny(10, 1) }).is_err());
    }

    #[test]
    fn tail_chunk_is_short() {
        let chunks: Vec<usize> =
            EntityStream::new(StreamConfig { chunk: 8, ..StreamConfig::tiny(20, 5) })
                .expect("stream")
                .map(|c| c.len())
                .collect();
        assert_eq!(chunks, vec![8, 8, 4]);
    }
}
