//! The servable model bundle and its checkpoint loader.
//!
//! A [`ServeModel`] freezes both encoders once, with exact tables; a
//! store-backed [`crate::Generation`] pairs them with the store's int8
//! scan for stage one.

use mb_common::{Error, Result, Rng};
use mb_core::linker::LinkerConfig;
use mb_core::pipeline::{BI_KEY, CROSS_KEY};
use mb_encoders::biencoder::{BiEncoder, BiEncoderConfig};
use mb_encoders::crossencoder::{CrossEncoder, CrossEncoderConfig};
use mb_encoders::frozen::{FrozenBiEncoder, FrozenCrossEncoder};
use mb_encoders::input::EntityFeatures;
use mb_kb::{EntityId, KnowledgeBase};
use mb_tensor::checkpoint::Checkpoint;
use mb_tensor::QuantMode;
use mb_text::Vocab;
use std::sync::Arc;

/// Everything the server owns: the trained encoders plus the world
/// they were trained against. Self-contained (no borrows), so the
/// server can move it into its worker threads.
///
/// `kb` is a [`KnowledgeBase`] handle: the caller passes a clone of the
/// world's KB, which is a refcount bump, so the start-up model, the
/// reload loader and every generation share one resident copy of the
/// entity dictionary.
///
/// Construction freezes both encoders (exact tables) exactly once;
/// every worker thread then serves from those `Arc`-shared handles — no
/// serve path, index building and reload included, allocates a tape or
/// clones a parameter tensor.
pub struct ServeModel {
    /// Shared vocabulary (featurization must match training).
    pub vocab: Vocab,
    /// The knowledge base entities are linked into.
    pub kb: KnowledgeBase,
    /// The candidate dictionary served (usually one domain's entities).
    pub dictionary: Vec<EntityId>,
    /// Trained bi-encoder (stage one). It embeds the dictionary when a
    /// [`crate::Generation`] builds its exact index — tape-free, over
    /// these parameters as trained — while requests are served by
    /// [`ServeModel::frozen_bi`].
    pub bi: BiEncoder,
    /// Trained cross-encoder (stage two; serving uses
    /// [`ServeModel::frozen_cross`]).
    pub cross: CrossEncoder,
    /// Retrieval/truncation settings used at inference time.
    pub linker: LinkerConfig,
    /// Label for logs and the `/healthz` payload.
    pub domain: String,
    frozen_bi: FrozenBiEncoder,
    frozen_cross: FrozenCrossEncoder,
}

impl ServeModel {
    /// Bundle trained encoders into a servable model, freezing both
    /// with exact tables (the model's single freeze point).
    pub fn new(
        vocab: Vocab,
        kb: KnowledgeBase,
        dictionary: Vec<EntityId>,
        bi: BiEncoder,
        cross: CrossEncoder,
        linker: LinkerConfig,
        domain: String,
    ) -> ServeModel {
        let frozen_bi = bi.freeze(QuantMode::Exact);
        let frozen_cross = cross.freeze(QuantMode::Exact);
        ServeModel { vocab, kb, dictionary, bi, cross, linker, domain, frozen_bi, frozen_cross }
    }

    /// The shared tape-free bi-encoder every worker serves with.
    pub fn frozen_bi(&self) -> &FrozenBiEncoder {
        &self.frozen_bi
    }

    /// The shared tape-free cross-encoder every worker serves with.
    /// Inside a published [`crate::Generation`] it carries that
    /// generation's [`EntityFeatures`] table, so a linker assembled
    /// from it reads candidates from the table instead of featurising
    /// them per request.
    pub fn frozen_cross(&self) -> &FrozenCrossEncoder {
        &self.frozen_cross
    }

    /// Attach the entity feature table of the ids this model serves —
    /// called once by [`crate::Generation`] while it is being built, so
    /// the table is always derived from this model's own KB and vocab.
    pub(crate) fn attach_features(&mut self, features: Arc<EntityFeatures>) {
        self.frozen_cross = self.frozen_cross.clone().with_features(features);
    }

    /// Rebuild the encoders from an `mb-params v2` [`Checkpoint`]
    /// holding parameters under the training pipeline's `"bi"` and
    /// `"cross"` keys (legacy v1 files load through
    /// [`Checkpoint::from_bytes`]'s fallback before reaching here).
    ///
    /// # Errors
    /// [`Error::Checkpoint`] when either encoder's parameters are
    /// missing from the checkpoint; [`Error::Checkpoint`] /
    /// [`Error::ShapeMismatch`] when a section was trained with another
    /// vocabulary or encoder configuration.
    #[allow(clippy::too_many_arguments)]
    pub fn from_checkpoint(
        ck: &Checkpoint,
        vocab: Vocab,
        kb: KnowledgeBase,
        dictionary: Vec<EntityId>,
        domain: String,
        bi_cfg: BiEncoderConfig,
        cross_cfg: CrossEncoderConfig,
        linker: LinkerConfig,
    ) -> Result<ServeModel> {
        let bi_params = ck.params.get(BI_KEY).ok_or_else(|| {
            Error::Checkpoint(format!("checkpoint has no {BI_KEY:?} parameter section"))
        })?;
        let cross_params = ck.params.get(CROSS_KEY).ok_or_else(|| {
            Error::Checkpoint(format!("checkpoint has no {CROSS_KEY:?} parameter section"))
        })?;
        // The init RNG is irrelevant: every tensor is overwritten.
        let mut bi = BiEncoder::new(&vocab, bi_cfg, &mut Rng::seed_from_u64(0));
        // mb-lint: allow(tape-free) -- one-time checkpoint load, not a forward path
        bi.set_params(bi_params.clone())?;
        let mut cross = CrossEncoder::new(&vocab, cross_cfg, &mut Rng::seed_from_u64(0));
        // mb-lint: allow(tape-free) -- one-time checkpoint load, not a forward path
        cross.set_params(cross_params.clone())?;
        Ok(ServeModel::new(vocab, kb, dictionary, bi, cross, linker, domain))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mb_datagen::{World, WorldConfig};
    use mb_encoders::input::build_vocab;

    #[test]
    fn from_checkpoint_requires_both_encoders() {
        let world = World::generate(WorldConfig::tiny(5));
        let vocab = build_vocab(world.kb(), [], 1);
        let bi_cfg = BiEncoderConfig { emb_dim: 8, hidden: 8, out_dim: 8, ..Default::default() };
        let cross_cfg = CrossEncoderConfig { emb_dim: 8, hidden: 8, ..Default::default() };
        let bi = BiEncoder::new(&vocab, bi_cfg, &mut Rng::seed_from_u64(1));
        let cross = CrossEncoder::new(&vocab, cross_cfg, &mut Rng::seed_from_u64(2));

        let mut ck = Checkpoint::new();
        ck.params.insert(BI_KEY.to_string(), bi.params().clone());
        let missing = ServeModel::from_checkpoint(
            &ck,
            vocab.clone(),
            world.kb().clone(),
            Vec::new(),
            "TargetX".to_string(),
            bi_cfg,
            cross_cfg,
            LinkerConfig::default(),
        );
        assert!(missing.is_err(), "cross params are missing");

        ck.params.insert(CROSS_KEY.to_string(), cross.params().clone());
        let model = ServeModel::from_checkpoint(
            &ck,
            vocab,
            world.kb().clone(),
            Vec::new(),
            "TargetX".to_string(),
            bi_cfg,
            cross_cfg,
            LinkerConfig::default(),
        )
        .expect("both sections present");
        assert_eq!(model.bi.params(), bi.params());
        assert_eq!(model.cross.params(), cross.params());
    }
}
