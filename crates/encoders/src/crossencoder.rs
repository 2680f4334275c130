//! The cross-encoder (candidate-ranking stage).
//!
//! The paper re-ranks the bi-encoder's 64 candidates with a BERT
//! cross-encoder over the concatenated mention and entity text. Our
//! substitute scores each (mention, candidate) pair from two learned
//! interaction channels over a shared embedding table:
//!
//! * *semantic*: pooled(mention + context) ⊙ pooled(title + description)
//! * *surface*:  pooled(surface) ⊙ pooled(title)
//!
//! followed by a two-layer MLP. Having an explicit surface channel is
//! what lets a cross-encoder trained only on exact-match data learn the
//! surface shortcut the paper describes — and what the syn data then
//! corrects (Table X).

use crate::biencoder::replace_params;
use crate::frozen::{self, EmbTable};
use crate::input::TrainPair;
use mb_common::{Result, Rng};
use mb_tensor::optim::Adam;
use mb_tensor::params::{GradVec, ParamId};
use mb_tensor::{init, Params, QuantMode, Tape, Var};
use mb_text::Vocab;

/// Cross-encoder hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct CrossEncoderConfig {
    /// Token embedding dimension.
    pub emb_dim: usize,
    /// MLP hidden width.
    pub hidden: usize,
    /// Initial weight of the raw dot-product channel
    /// `γ · (pooled mention · pooled entity)` added to the MLP score.
    /// A positive init makes the untrained cross-encoder a bag-of-words
    /// ranker — the transferable-pretrained-representation substitute
    /// (γ is learned).
    pub dot_gamma_init: f64,
}

impl Default for CrossEncoderConfig {
    fn default() -> Self {
        CrossEncoderConfig { emb_dim: 32, hidden: 32, dot_gamma_init: 4.0 }
    }
}

/// A ranking example: one mention with its candidate entities.
#[derive(Debug, Clone)]
pub struct CandidateSet {
    /// Mention-side bag (surface + context).
    pub mention: Vec<u32>,
    /// Surface-only bag.
    pub surface: Vec<u32>,
    /// Per-candidate entity bags (title + description).
    pub entities: Vec<Vec<u32>>,
    /// Per-candidate title bags.
    pub titles: Vec<Vec<u32>>,
    /// Index of the gold candidate within `entities`, if present.
    pub gold_index: Option<usize>,
}

impl CandidateSet {
    /// Build a ranking example from a featurized pair and its
    /// candidates' `(entity bag, title bag)` pairs; `gold_index` is the
    /// gold candidate's position among them, when it was retrieved.
    pub fn new(
        pair: &TrainPair,
        candidates: Vec<(Vec<u32>, Vec<u32>)>,
        gold_index: Option<usize>,
    ) -> Self {
        let (entities, titles) = candidates.into_iter().unzip();
        CandidateSet {
            mention: pair.mention.clone(),
            surface: pair.surface.clone(),
            entities,
            titles,
            gold_index,
        }
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.entities.len()
    }

    /// True if there are no candidates.
    pub fn is_empty(&self) -> bool {
        self.entities.is_empty()
    }
}

/// Parameter handles of the cross-encoder (shared with the frozen
/// serving scorer, which resolves the same ids against a
/// [`mb_tensor::FrozenParams`] snapshot).
#[derive(Debug, Clone, Copy)]
pub(crate) struct CrossIds {
    pub(crate) emb: ParamId,
    pub(crate) w_sem: ParamId,
    pub(crate) b_sem: ParamId,
    pub(crate) w_surf: ParamId,
    pub(crate) b_surf: ParamId,
    pub(crate) w_out: ParamId,
    pub(crate) b_out: ParamId,
    pub(crate) gamma: ParamId,
}

/// The cross-encoder model.
#[derive(Debug, Clone)]
pub struct CrossEncoder {
    params: Params,
    ids: CrossIds,
}

impl CrossEncoder {
    /// Initialise a cross-encoder for the given vocabulary.
    pub fn new(vocab: &Vocab, cfg: CrossEncoderConfig, rng: &mut Rng) -> Self {
        let mut params = Params::new();
        let ids = CrossIds {
            emb: params.add("emb", init::embedding(vocab.len(), cfg.emb_dim, rng)),
            w_sem: params.add("sem.w", init::xavier_uniform(cfg.emb_dim, cfg.hidden, rng)),
            b_sem: params.add("sem.b", init::zeros_bias(cfg.hidden)),
            w_surf: params.add("surf.w", init::xavier_uniform(cfg.emb_dim, cfg.hidden, rng)),
            b_surf: params.add("surf.b", init::zeros_bias(cfg.hidden)),
            w_out: params.add("out.w", init::xavier_uniform(cfg.hidden, 1, rng)),
            b_out: params.add("out.b", init::zeros_bias(1)),
            gamma: params
                .add("gamma", mb_tensor::Tensor::from_vec(vec![1, 1], vec![cfg.dot_gamma_init])),
        };
        CrossEncoder { params, ids }
    }

    /// Borrow the parameters.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// Mutably borrow the parameters.
    pub fn params_mut(&mut self) -> &mut Params {
        &mut self.params
    }

    /// Replace the parameters.
    ///
    /// # Errors
    /// [`mb_common::Error::Checkpoint`] / [`mb_common::Error::ShapeMismatch`]
    /// (naming the tensor) when `params` was not produced by a model of
    /// this vocabulary and configuration; the model is left unchanged.
    pub fn set_params(&mut self, params: Params) -> Result<()> {
        replace_params("CrossEncoder::set_params", &mut self.params, params)
    }

    /// Build the forward graph scoring every candidate of `set`: the
    /// mention and surface bags against each candidate's entity and
    /// title bags, one row per candidate.
    ///
    /// Returns the parameter vars and a `[1, k]` logits node.
    ///
    /// # Panics
    /// Panics on an empty candidate set.
    pub fn forward_logits<'p>(
        &'p self,
        tape: &mut Tape<'p>,
        set: &CandidateSet,
    ) -> (Vec<Var>, Var) {
        assert!(!set.is_empty(), "forward_logits: empty candidate set");
        let k = set.len();
        let (vars, ids) = (self.params.inject(tape), self.ids);
        let var = |id: ParamId| vars[id.index()];
        let m_pool = tape.bag_embed(var(ids.emb), vec![set.mention.clone(); k]);
        let s_pool = tape.bag_embed(var(ids.emb), vec![set.surface.clone(); k]);
        let e_pool = tape.bag_embed(var(ids.emb), set.entities.clone());
        let t_pool = tape.bag_embed(var(ids.emb), set.titles.clone());
        let sem = tape.mul_elem(m_pool, e_pool);
        let surf = tape.mul_elem(s_pool, t_pool);
        let h_sem = tape.linear(sem, var(ids.w_sem), var(ids.b_sem));
        let h_surf = tape.linear(surf, var(ids.w_surf), var(ids.b_surf));
        let h = tape.add(h_sem, h_surf);
        let h = tape.tanh(h);
        let mlp_scores = tape.linear(h, var(ids.w_out), var(ids.b_out));
        // Dot-product channel: γ · (m̄ · ē) per candidate.
        let dots = tape.rows_dot(m_pool, e_pool);
        let dots_col = tape.reshape(dots, vec![k, 1]);
        let dot_scores = tape.matmul(dots_col, var(ids.gamma));
        let scores = tape.add(mlp_scores, dot_scores);
        let logits = tape.reshape(scores, vec![1, k]);
        (vars, logits)
    }

    /// Score every candidate of every set (inference); higher is
    /// better. The tape-free forward over this model's own parameters
    /// — no tape, no parameter copy — and bit-identical to
    /// [`CrossEncoder::forward_logits`] per set and to
    /// `freeze(QuantMode::Exact)`.
    ///
    /// Empty sets are allowed and yield empty score vectors.
    pub fn score_batch(&self, sets: &[CandidateSet]) -> Vec<Vec<f64>> {
        frozen::score_each_set(|id| self.params.get(id), &EmbTable::Exact, self.ids, sets)
    }

    /// Ranking loss of one candidate set (softmax cross-entropy against
    /// the gold index).
    ///
    /// # Panics
    /// Panics if the set has no gold candidate.
    pub fn example_loss(&self, set: &CandidateSet) -> f64 {
        let mut tape = Tape::new();
        let (_, loss) = self.forward_loss(&mut tape, set);
        tape.value(loss).item()
    }

    /// Build the forward graph up to the scalar ranking loss.
    ///
    /// # Panics
    /// Panics if the set has no gold candidate.
    pub(crate) fn forward_loss<'p>(
        &'p self,
        tape: &mut Tape<'p>,
        set: &CandidateSet,
    ) -> (Vec<Var>, Var) {
        let gold = set.gold_index.expect("forward_loss: candidate set without gold");
        let (vars, logits) = self.forward_logits(tape, set);
        let losses = tape.softmax_ce_rows(logits, vec![gold]);
        let loss = tape.mean_all(losses);
        (vars, loss)
    }

    /// Gradient of one example's loss.
    pub fn example_grad(&self, set: &CandidateSet) -> (f64, GradVec) {
        let mut tape = Tape::new();
        let (vars, loss) = self.forward_loss(&mut tape, set);
        let value = tape.value(loss).item();
        let grads = tape.backward(loss);
        (value, self.params.collect_grads(&vars, grads))
    }

    /// Freeze the scorer for tape-free serving: snapshot the
    /// parameters once into an `Arc`-shared
    /// [`crate::frozen::FrozenCrossEncoder`] (quantizing the embedding
    /// table per `mode`). Under [`QuantMode::Exact`] it runs the same
    /// code as [`CrossEncoder::score_batch`] over the snapshot.
    pub fn freeze(&self, mode: QuantMode) -> crate::frozen::FrozenCrossEncoder {
        crate::frozen::FrozenCrossEncoder::new(&self.params, self.ids, mode)
    }

    /// Index (in parameter order) of the token-embedding table (see
    /// `BiEncoder::embedding_param_index`).
    pub fn embedding_param_index(&self) -> usize {
        self.ids.emb.index()
    }

    /// One optimizer step on a single example (the paper trains the
    /// cross-encoder with batch size 1); returns the loss.
    pub(crate) fn train_step(&mut self, set: &CandidateSet, opt: &mut Adam) -> f64 {
        let (loss, grads) = self.example_grad(set);
        opt.step(&mut self.params, &grads);
        loss
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::{build_vocab, entity_bag, title_bag, InputConfig, TrainPair};
    use mb_datagen::{World, WorldConfig};
    use mb_tensor::optim::Adam;

    fn setup() -> (World, Vocab, Vec<CandidateSet>) {
        let world = World::generate(WorldConfig::tiny(23));
        let vocab = build_vocab(world.kb(), [], 1);
        let domain = world.domain("TargetX").clone();
        let mut rng = Rng::seed_from_u64(2);
        let ms = mb_datagen::mentions::generate_mentions(&world, &domain, 20, &mut rng);
        let cfg = InputConfig::default();
        let ids = world.kb().domain_entities(domain.id);
        let sets: Vec<CandidateSet> = ms
            .mentions
            .iter()
            .map(|m| {
                let pair = TrainPair::from_mention(&vocab, &cfg, world.kb(), m);
                // Candidates: gold + 7 random others.
                let mut cand_ids = vec![m.entity];
                let mut r2 = Rng::seed_from_u64(m.entity.0 as u64);
                while cand_ids.len() < 8 {
                    let c = *r2.choose(ids);
                    if !cand_ids.contains(&c) {
                        cand_ids.push(c);
                    }
                }
                let candidates = cand_ids
                    .iter()
                    .map(|&id| {
                        let e = world.kb().entity(id);
                        (entity_bag(&vocab, &cfg, e), title_bag(&vocab, e))
                    })
                    .collect();
                CandidateSet::new(&pair, candidates, Some(0))
            })
            .collect();
        (world, vocab, sets)
    }

    fn tiny_cfg() -> CrossEncoderConfig {
        CrossEncoderConfig { emb_dim: 16, hidden: 16, ..Default::default() }
    }

    #[test]
    fn scores_one_per_candidate() {
        let (_, vocab, sets) = setup();
        let model = CrossEncoder::new(&vocab, tiny_cfg(), &mut Rng::seed_from_u64(1));
        let s = &model.score_batch(&sets[..1])[0];
        assert_eq!(s.len(), sets[0].len());
        assert!(s.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn training_learns_to_rank_gold_first() {
        let (_, vocab, sets) = setup();
        let mut model = CrossEncoder::new(&vocab, tiny_cfg(), &mut Rng::seed_from_u64(3));
        let mut opt = Adam::new(0.02);
        for _ in 0..15 {
            for s in &sets {
                model.train_step(s, &mut opt);
            }
        }
        let scores = model.score_batch(&sets);
        let correct = scores.iter().filter(|s| mb_common::util::argmax(s) == Some(0)).count();
        assert!(correct >= sets.len() * 3 / 4, "only {correct}/{} ranked gold first", sets.len());
    }

    #[test]
    fn gradcheck_cross_encoder() {
        let (_, vocab, sets) = setup();
        let small = CrossEncoderConfig { emb_dim: 4, hidden: 4, ..Default::default() };
        let model = CrossEncoder::new(&vocab, small, &mut Rng::seed_from_u64(5));
        let set = &sets[0];
        let (_, analytic) = model.example_grad(set);
        let mut f = |p: &mb_tensor::Params| {
            let mut m = model.clone();
            m.set_params(p.clone()).expect("perturbed copy of the model's own params");
            m.example_loss(set)
        };
        let numeric = mb_tensor::gradcheck::numeric_grad_params(&mut f, model.params(), 1e-5);
        let err = mb_tensor::gradcheck::max_rel_error(&analytic, &numeric);
        assert!(err < 1e-5, "gradcheck failed: {err}");
    }

    #[test]
    fn score_batch_allows_empty_sets() {
        let (_, vocab, sets) = setup();
        let model = CrossEncoder::new(&vocab, tiny_cfg(), &mut Rng::seed_from_u64(9));
        let mut empty = sets[0].clone();
        empty.entities.clear();
        empty.titles.clear();
        let mixed = vec![sets[0].clone(), empty.clone(), sets[1].clone()];
        let scores = model.score_batch(&mixed);
        assert_eq!(scores[0].len(), sets[0].len());
        assert!(scores[1].is_empty());
        assert_eq!(scores[2].len(), sets[1].len());
        assert_eq!(model.score_batch(&[empty])[0], Vec::<f64>::new());
        assert!(model.score_batch(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "without gold")]
    fn loss_requires_gold() {
        let (_, vocab, sets) = setup();
        let model = CrossEncoder::new(&vocab, tiny_cfg(), &mut Rng::seed_from_u64(1));
        let mut s = sets[0].clone();
        s.gold_index = None;
        model.example_loss(&s);
    }

    #[test]
    #[should_panic(expected = "empty candidate set")]
    fn empty_candidates_panic() {
        let (_, vocab, sets) = setup();
        let model = CrossEncoder::new(&vocab, tiny_cfg(), &mut Rng::seed_from_u64(1));
        let mut s = sets[0].clone();
        s.entities.clear();
        s.titles.clear();
        model.example_loss(&s);
    }
}
