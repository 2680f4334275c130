//! The bi-encoder (candidate-generation stage).
//!
//! Two small encoders over a shared token-embedding table:
//!
//! ```text
//! mᵢ = normalize(W₂ᵐ tanh(W₁ᵐ · meanpool(E[tokens(mᵢ, ctx)]) + b₁ᵐ) + b₂ᵐ)   (Eq. 3)
//! eᵢ = normalize(W₂ᵉ tanh(W₁ᵉ · meanpool(E[tokens(eᵢ, desp)]) + b₁ᵉ) + b₂ᵉ)   (Eq. 4)
//! S(mᵢ, eⱼ) = τ · mᵢ · eⱼ                                                    (Eq. 5)
//! ```
//!
//! trained with the in-batch negative loss of Eq. 6. The temperature τ
//! (`score_scale`) compensates for normalised vectors; rankings are
//! unaffected.

use crate::frozen::{self, EmbTable};
use crate::input::TrainPair;
use mb_common::{Error, Result, Rng};
use mb_tensor::optim::Adam;
use mb_tensor::params::{GradVec, ParamId};
use mb_tensor::{init, Params, QuantMode, Tape, Tensor, Var};
use mb_text::Vocab;
use std::borrow::Borrow;

/// Rows per worker task in the chunked-parallel embed path. Fixed by
/// the data (never by the worker count) so chunk boundaries — and with
/// them every floating-point result — are identical at any thread
/// count.
pub const EMBED_CHUNK: usize = 32;

/// Norm floor of the output row normalisation, shared by the training
/// graph and the tape-free forward.
pub(crate) const NORM_EPS: f64 = 1e-9;

/// Bi-encoder hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct BiEncoderConfig {
    /// Token embedding dimension.
    pub emb_dim: usize,
    /// Hidden layer width.
    pub hidden: usize,
    /// Output vector dimension.
    pub out_dim: usize,
    /// Score temperature τ multiplying the cosine similarity.
    pub score_scale: f64,
    /// Use the paper's Eq. 6 (gold excluded from the denominator).
    /// `false` selects standard in-batch softmax cross-entropy — kept
    /// for the loss ablation.
    pub exclude_gold_in_loss: bool,
    /// Initialise the encoder heads near identity, so the untrained
    /// model matches mentions to entities through shared token
    /// embeddings — the substitute for BERT's transferable pretrained
    /// representations (requires `emb_dim == hidden == out_dim`).
    pub identity_init: bool,
}

impl Default for BiEncoderConfig {
    fn default() -> Self {
        BiEncoderConfig {
            emb_dim: 32,
            hidden: 32,
            out_dim: 32,
            score_scale: 8.0,
            exclude_gold_in_loss: true,
            identity_init: true,
        }
    }
}

/// Parameter handles of one encoder side.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SideIds {
    pub(crate) w1: ParamId,
    pub(crate) b1: ParamId,
    pub(crate) w2: ParamId,
    pub(crate) b2: ParamId,
}

/// Parameter handles of the bi-encoder (shared with the frozen serving
/// encoder, which resolves the same ids against a
/// [`mb_tensor::FrozenParams`] snapshot).
#[derive(Debug, Clone, Copy)]
pub(crate) struct BiIds {
    pub(crate) emb: ParamId,
    pub(crate) mention: SideIds,
    pub(crate) entity: SideIds,
}

/// The bi-encoder model.
#[derive(Debug, Clone)]
pub struct BiEncoder {
    cfg: BiEncoderConfig,
    params: Params,
    ids: BiIds,
}

impl BiEncoder {
    /// Initialise a bi-encoder for the given vocabulary.
    pub fn new(vocab: &Vocab, cfg: BiEncoderConfig, rng: &mut Rng) -> Self {
        assert!(cfg.emb_dim > 0 && cfg.hidden > 0 && cfg.out_dim > 0);
        if cfg.identity_init {
            assert!(
                cfg.emb_dim == cfg.hidden && cfg.hidden == cfg.out_dim,
                "identity_init requires emb_dim == hidden == out_dim, got {}/{}/{}",
                cfg.emb_dim,
                cfg.hidden,
                cfg.out_dim
            );
        }
        let mut params = Params::new();
        let emb = params.add("emb", init::embedding(vocab.len(), cfg.emb_dim, rng));
        let side = |prefix: &str, params: &mut Params, rng: &mut Rng| {
            let (w1, w2) = if cfg.identity_init {
                // Mild noise keeps the two sides from being exactly
                // symmetric while preserving the bag-matching behaviour.
                (
                    init::near_identity(cfg.emb_dim, 0.9, 0.02, rng),
                    init::near_identity(cfg.emb_dim, 0.9, 0.02, rng),
                )
            } else {
                (
                    init::xavier_uniform(cfg.emb_dim, cfg.hidden, rng),
                    init::xavier_uniform(cfg.hidden, cfg.out_dim, rng),
                )
            };
            SideIds {
                w1: params.add(format!("{prefix}.w1"), w1),
                b1: params.add(format!("{prefix}.b1"), init::zeros_bias(cfg.hidden)),
                w2: params.add(format!("{prefix}.w2"), w2),
                b2: params.add(format!("{prefix}.b2"), init::zeros_bias(cfg.out_dim)),
            }
        };
        let mention = side("mention", &mut params, rng);
        let entity = side("entity", &mut params, rng);
        BiEncoder { cfg, params, ids: BiIds { emb, mention, entity } }
    }

    /// The model's configuration.
    pub fn config(&self) -> &BiEncoderConfig {
        &self.cfg
    }

    /// Borrow the parameters (for checkpointing).
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// Mutably borrow the parameters (for optimizer steps).
    pub fn params_mut(&mut self) -> &mut Params {
        &mut self.params
    }

    /// Replace the parameters (e.g. restoring a checkpoint).
    ///
    /// # Errors
    /// [`Error::Checkpoint`] / [`Error::ShapeMismatch`] (naming the
    /// tensor) when `params` was not produced by a model of this
    /// vocabulary and configuration; the model is left unchanged.
    pub fn set_params(&mut self, params: Params) -> Result<()> {
        replace_params("BiEncoder::set_params", &mut self.params, params)
    }

    fn encode_side(
        &self,
        tape: &mut Tape,
        vars: &[Var],
        side: SideIds,
        bags: Vec<Vec<u32>>,
    ) -> Var {
        let pooled = tape.bag_embed(vars[self.ids.emb.index()], bags);
        let h = tape.linear(pooled, vars[side.w1.index()], vars[side.b1.index()]);
        let h = tape.tanh(h);
        let out = tape.linear(h, vars[side.w2.index()], vars[side.b2.index()]);
        tape.row_l2_normalize(out, NORM_EPS)
    }

    /// Build the forward graph for a batch of pairs, returning the
    /// injected parameter vars, the mention/entity encodings, and the
    /// per-example Eq. 6 losses.
    ///
    /// # Panics
    /// Panics on an empty batch, or a batch of one pair when the config
    /// excludes gold from the denominator (Eq. 6 needs a negative).
    pub fn forward_losses<'p, P: Borrow<TrainPair>>(
        &'p self,
        tape: &mut Tape<'p>,
        batch: &[P],
    ) -> BiForward {
        assert!(!batch.is_empty(), "forward_losses: empty batch");
        let vars = self.params.inject(tape);
        let m_bags: Vec<Vec<u32>> = batch.iter().map(|p| p.borrow().mention.clone()).collect();
        let e_bags: Vec<Vec<u32>> = batch.iter().map(|p| p.borrow().entity.clone()).collect();
        let m_enc = self.encode_side(tape, &vars, self.ids.mention, m_bags);
        let e_enc = self.encode_side(tape, &vars, self.ids.entity, e_bags);
        let raw_scores = tape.matmul_t(m_enc, e_enc);
        let scores = tape.scale(raw_scores, self.cfg.score_scale);
        let exclude = self.cfg.exclude_gold_in_loss && batch.len() >= 2;
        let losses = tape.in_batch_neg_loss(scores, exclude);
        BiForward { vars, mentions: m_enc, entities: e_enc, scores, losses }
    }

    /// Mean loss over a batch (diagnostic convenience).
    pub fn batch_loss<P: Borrow<TrainPair>>(&self, batch: &[P]) -> f64 {
        let mut tape = Tape::new();
        let fwd = self.forward_losses(&mut tape, batch);
        tape.value(fwd.losses).mean()
    }

    /// Gradient of the mean batch loss, for plain training steps.
    pub fn batch_grad<P: Borrow<TrainPair>>(&self, batch: &[P]) -> (f64, GradVec) {
        let mut tape = Tape::new();
        let fwd = self.forward_losses(&mut tape, batch);
        let mean = tape.mean_all(fwd.losses);
        let loss = tape.value(mean).item();
        let grads = tape.backward(mean);
        (loss, self.params.collect_grads(&fwd.vars, grads))
    }

    /// Apply one optimizer step on a batch; returns the mean loss.
    pub(crate) fn train_step(&mut self, batch: &[TrainPair], opt: &mut Adam) -> f64 {
        let (loss, grads) = self.batch_grad(batch);
        opt.step(&mut self.params, &grads);
        loss
    }

    /// Encode mention bags to `[bags.len(), out_dim]` vectors
    /// (inference): the tape-free forward over this model's own
    /// parameters — no tape, no parameter copy — and bit-identical to
    /// [`BiForward::mentions`] and to `freeze(QuantMode::Exact)`.
    pub fn embed_mentions(&self, bags: &[Vec<u32>]) -> Tensor {
        self.embed(self.ids.mention, bags)
    }

    /// Encode entity bags to vectors (inference); see
    /// [`BiEncoder::embed_mentions`].
    pub fn embed_entities(&self, bags: &[Vec<u32>]) -> Tensor {
        self.embed(self.ids.entity, bags)
    }

    fn embed(&self, side: SideIds, bags: &[Vec<u32>]) -> Tensor {
        frozen::encode_side(|id| self.params.get(id), &EmbTable::Exact, self.ids.emb, side, bags)
    }

    /// Freeze the encoder for tape-free serving: snapshot the
    /// parameters once into an `Arc`-shared
    /// [`crate::frozen::FrozenBiEncoder`] (quantizing the embedding
    /// table per `mode`). Under [`QuantMode::Exact`] it runs the same
    /// code as [`BiEncoder::embed_mentions`] over the snapshot.
    pub fn freeze(&self, mode: QuantMode) -> crate::frozen::FrozenBiEncoder {
        crate::frozen::FrozenBiEncoder::new(self.cfg, &self.params, self.ids, mode)
    }

    /// Vocabulary size this model was built for.
    pub fn vocab_len(&self) -> usize {
        self.params.get(self.ids.emb).rows()
    }

    /// Index (in parameter order) of the token-embedding table —
    /// the sparse parameter the meta-reweighting excludes from its
    /// gradient dot products.
    pub fn embedding_param_index(&self) -> usize {
        self.ids.emb.index()
    }
}

/// `*current = incoming` if both hold the same tensors — count, names
/// and shapes, in order — which is what makes parameters read from
/// disk safe to run a forward over.
pub(crate) fn replace_params(
    op: &'static str,
    current: &mut Params,
    incoming: Params,
) -> Result<()> {
    if incoming.len() != current.len() {
        let (got, want) = (incoming.len(), current.len());
        return Err(Error::Checkpoint(format!("{op}: {got} tensors, the model has {want}")));
    }
    for ((got_name, got), (name, want)) in incoming.iter().zip(current.iter()) {
        if got_name != name || got.shape() != want.shape() {
            let describe = |name: &str, t: &Tensor| format!("{name:?} of shape {:?}", t.shape());
            return Err(Error::shape(op, describe(name, want), describe(got_name, got)));
        }
    }
    *current = incoming;
    Ok(())
}

/// Handles produced by [`BiEncoder::forward_losses`].
pub struct BiForward {
    /// Parameter leaves in [`Params`] order.
    pub vars: Vec<Var>,
    /// `[n, out_dim]` mention encodings.
    pub mentions: Var,
    /// `[n, out_dim]` entity encodings.
    pub entities: Var,
    /// `[n, n]` scaled score matrix.
    pub scores: Var,
    /// `[n]` per-example losses (Eq. 6).
    pub losses: Var,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::{build_vocab, InputConfig, TrainPair};
    use mb_datagen::{World, WorldConfig};
    use mb_tensor::optim::Adam;

    fn setup() -> (World, Vocab, Vec<TrainPair>) {
        let world = World::generate(WorldConfig::tiny(17));
        let vocab = build_vocab(world.kb(), [], 1);
        let domain = world.domain("TargetX").clone();
        let mut rng = Rng::seed_from_u64(2);
        let ms = mb_datagen::mentions::generate_mentions(&world, &domain, 64, &mut rng);
        let cfg = InputConfig::default();
        let pairs: Vec<TrainPair> = ms
            .mentions
            .iter()
            .map(|m| TrainPair::from_mention(&vocab, &cfg, world.kb(), m))
            .collect();
        (world, vocab, pairs)
    }

    fn tiny_cfg() -> BiEncoderConfig {
        BiEncoderConfig { emb_dim: 16, hidden: 16, out_dim: 16, ..Default::default() }
    }

    #[test]
    fn encodings_are_unit_norm() {
        let (_, vocab, pairs) = setup();
        let model = BiEncoder::new(&vocab, tiny_cfg(), &mut Rng::seed_from_u64(3));
        let bags: Vec<Vec<u32>> = pairs.iter().take(8).map(|p| p.entity.clone()).collect();
        let vecs = model.embed_entities(&bags);
        for i in 0..vecs.rows() {
            let n: f64 = vecs.row(i).iter().map(|v| v * v).sum::<f64>().sqrt();
            assert!((n - 1.0).abs() < 1e-9, "row norm {n}");
        }
    }

    #[test]
    fn empty_embed_is_empty() {
        let (_, vocab, _) = setup();
        let model = BiEncoder::new(&vocab, tiny_cfg(), &mut Rng::seed_from_u64(3));
        assert_eq!(model.embed_mentions(&[]).rows(), 0);
    }

    #[test]
    fn training_reduces_loss() {
        let (_, vocab, pairs) = setup();
        let mut model = BiEncoder::new(&vocab, tiny_cfg(), &mut Rng::seed_from_u64(4));
        let batch = &pairs[..16];
        let before = model.batch_loss(batch);
        let mut opt = Adam::new(0.01);
        for _ in 0..30 {
            model.train_step(batch, &mut opt);
        }
        let after = model.batch_loss(batch);
        assert!(after < before * 0.8, "loss {before} -> {after}");
    }

    #[test]
    fn gradcheck_full_model() {
        let (_, vocab, pairs) = setup();
        let small = BiEncoderConfig { emb_dim: 4, hidden: 4, out_dim: 4, ..Default::default() };
        let model = BiEncoder::new(&vocab, small, &mut Rng::seed_from_u64(5));
        let batch: Vec<TrainPair> = pairs[..3].to_vec();
        let (_, analytic) = model.batch_grad(&batch);
        let mut f = |p: &mb_tensor::Params| {
            let mut m = model.clone();
            m.set_params(p.clone()).expect("perturbed copy of the model's own params");
            m.batch_loss(&batch)
        };
        let numeric = mb_tensor::gradcheck::numeric_grad_params(&mut f, model.params(), 1e-5);
        let err = mb_tensor::gradcheck::max_rel_error(&analytic, &numeric);
        assert!(err < 1e-5, "gradcheck failed: {err}");
    }

    #[test]
    fn singleton_batch_falls_back_to_including_gold() {
        let (_, vocab, pairs) = setup();
        let model = BiEncoder::new(&vocab, tiny_cfg(), &mut Rng::seed_from_u64(6));
        // Must not panic.
        let loss = model.batch_loss(&pairs[..1]);
        assert!(loss.is_finite());
    }

    #[test]
    fn set_params_round_trip_preserves_outputs() {
        let (_, vocab, pairs) = setup();
        let model = BiEncoder::new(&vocab, tiny_cfg(), &mut Rng::seed_from_u64(7));
        let saved = model.params().clone();
        let mut model2 = BiEncoder::new(&vocab, tiny_cfg(), &mut Rng::seed_from_u64(99));
        model2.set_params(saved).expect("same vocabulary and config");
        let bag = std::slice::from_ref(&pairs[0].entity);
        assert_eq!(model.embed_entities(bag), model2.embed_entities(bag));
    }

    #[test]
    fn set_params_rejects_another_models_layout_and_keeps_its_own() {
        let (_, vocab, _) = setup();
        let mut model = BiEncoder::new(&vocab, tiny_cfg(), &mut Rng::seed_from_u64(7));
        let before = model.params().clone();
        // Another hidden width: valid tensors, wrong shapes.
        let wider = BiEncoderConfig { emb_dim: 8, hidden: 8, out_dim: 8, ..Default::default() };
        let foreign = BiEncoder::new(&vocab, wider, &mut Rng::seed_from_u64(7)).params().clone();
        let err = model.set_params(foreign).unwrap_err();
        assert!(matches!(err, Error::ShapeMismatch { .. }), "got {err:?}");
        assert!(err.to_string().contains("\"emb\""), "the error names the tensor: {err}");
        // Another model family: wrong names, wrong count.
        let mut renamed = Params::new();
        for (name, t) in before.iter() {
            renamed.add(format!("x.{name}"), t.clone());
        }
        assert!(matches!(model.set_params(renamed), Err(Error::ShapeMismatch { .. })));
        assert!(matches!(model.set_params(Params::new()), Err(Error::Checkpoint(_))));
        assert_eq!(model.params(), &before);
    }

    #[test]
    fn batched_embed_is_bit_identical_to_single() {
        let (_, vocab, pairs) = setup();
        let model = BiEncoder::new(&vocab, tiny_cfg(), &mut Rng::seed_from_u64(11));
        let bags: Vec<Vec<u32>> = pairs.iter().take(9).map(|p| p.mention.clone()).collect();
        let batched = model.embed_mentions(&bags);
        for (i, bag) in bags.iter().enumerate() {
            let single = model.embed_mentions(std::slice::from_ref(bag));
            assert_eq!(batched.row(i), single.row(0), "row {i} differs");
        }
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn empty_batch_panics() {
        let (_, vocab, _) = setup();
        let model = BiEncoder::new(&vocab, tiny_cfg(), &mut Rng::seed_from_u64(8));
        model.batch_loss::<TrainPair>(&[]);
    }
}
