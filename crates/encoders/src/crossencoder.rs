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

use crate::input::TrainPair;
use mb_common::Rng;
use mb_par::Threads;
use mb_tensor::optim::Optimizer;
use mb_tensor::params::{GradVec, ParamId};
use mb_tensor::{init, Params, QuantMode, Tape, Var};
use mb_text::Vocab;

/// Candidate sets per worker task in the chunked-parallel scoring
/// path; fixed by the data, never by the worker count (DESIGN.md §11).
pub const SCORE_CHUNK: usize = 8;

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

/// The cross-encoder model.
#[derive(Debug, Clone)]
pub struct CrossEncoder {
    cfg: CrossEncoderConfig,
    params: Params,
    emb: ParamId,
    w_sem: ParamId,
    b_sem: ParamId,
    w_surf: ParamId,
    b_surf: ParamId,
    w_out: ParamId,
    b_out: ParamId,
    gamma: ParamId,
}

impl CrossEncoder {
    /// Initialise a cross-encoder for the given vocabulary.
    pub fn new(vocab: &Vocab, cfg: CrossEncoderConfig, rng: &mut Rng) -> Self {
        let mut params = Params::new();
        let emb = params.add("emb", init::embedding(vocab.len(), cfg.emb_dim, rng));
        let w_sem = params.add("sem.w", init::xavier_uniform(cfg.emb_dim, cfg.hidden, rng));
        let b_sem = params.add("sem.b", init::zeros_bias(cfg.hidden));
        let w_surf = params.add("surf.w", init::xavier_uniform(cfg.emb_dim, cfg.hidden, rng));
        let b_surf = params.add("surf.b", init::zeros_bias(cfg.hidden));
        let w_out = params.add("out.w", init::xavier_uniform(cfg.hidden, 1, rng));
        let b_out = params.add("out.b", init::zeros_bias(1));
        let gamma =
            params.add("gamma", mb_tensor::Tensor::from_vec(vec![1, 1], vec![cfg.dot_gamma_init]));
        CrossEncoder { cfg, params, emb, w_sem, b_sem, w_surf, b_surf, w_out, b_out, gamma }
    }

    /// The model's configuration.
    pub fn config(&self) -> &CrossEncoderConfig {
        &self.cfg
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
    /// # Panics
    /// Panics on layout mismatch.
    pub fn set_params(&mut self, params: Params) {
        assert_eq!(params.len(), self.params.len(), "set_params: layout mismatch");
        self.params = params;
    }

    /// Core forward: score `n` (mention, candidate) rows, given the
    /// four bag columns row-aligned with each other. Returns the
    /// `[n, 1]` score node. Every op is row-independent, so scores are
    /// bit-identical however rows are grouped into tapes.
    fn score_rows(
        &self,
        tape: &mut Tape,
        vars: &[Var],
        m_bags: Vec<Vec<u32>>,
        s_bags: Vec<Vec<u32>>,
        e_bags: Vec<Vec<u32>>,
        t_bags: Vec<Vec<u32>>,
    ) -> Var {
        let n = m_bags.len();
        let emb = vars[self.emb.index()];
        let m_pool = tape.bag_embed(emb, m_bags);
        let s_pool = tape.bag_embed(emb, s_bags);
        let e_pool = tape.bag_embed(emb, e_bags);
        let t_pool = tape.bag_embed(emb, t_bags);
        let sem = tape.mul_elem(m_pool, e_pool);
        let surf = tape.mul_elem(s_pool, t_pool);
        let h_sem = tape.linear(sem, vars[self.w_sem.index()], vars[self.b_sem.index()]);
        let h_surf = tape.linear(surf, vars[self.w_surf.index()], vars[self.b_surf.index()]);
        let h = tape.add(h_sem, h_surf);
        let h = tape.tanh(h);
        let mlp_scores = tape.linear(h, vars[self.w_out.index()], vars[self.b_out.index()]);
        // Dot-product channel: γ · (m̄ · ē) per candidate.
        let dots = tape.rows_dot(m_pool, e_pool);
        let dots_col = tape.reshape(dots, vec![n, 1]);
        let dot_scores = tape.matmul(dots_col, vars[self.gamma.index()]);
        tape.add(mlp_scores, dot_scores)
    }

    /// Build the forward graph scoring every candidate of `set`.
    ///
    /// Returns the parameter vars and a `[1, k]` logits node.
    ///
    /// # Panics
    /// Panics on an empty candidate set.
    pub fn forward_logits(&self, tape: &mut Tape, set: &CandidateSet) -> (Vec<Var>, Var) {
        assert!(!set.is_empty(), "forward_logits: empty candidate set");
        let k = set.len();
        let vars = self.params.inject(tape);
        let m_bags: Vec<Vec<u32>> =
            std::iter::repeat_with(|| set.mention.clone()).take(k).collect();
        let s_bags: Vec<Vec<u32>> =
            std::iter::repeat_with(|| set.surface.clone()).take(k).collect();
        let scores =
            self.score_rows(tape, &vars, m_bags, s_bags, set.entities.clone(), set.titles.clone());
        let logits = tape.reshape(scores, vec![1, k]);
        (vars, logits)
    }

    /// Score all candidates (inference); higher is better.
    ///
    /// # Panics
    /// Panics on an empty candidate set.
    pub fn score(&self, set: &CandidateSet) -> Vec<f64> {
        assert!(!set.is_empty(), "score: empty candidate set");
        self.score_batch(std::slice::from_ref(set)).pop().expect("one set in, one out")
    }

    /// Batched scoring — the serving entry point.
    ///
    /// Scores every candidate of every set in **one fused forward**:
    /// one tape, one parameter injection (including the full token-
    /// embedding table), one pass through each tensor op over all
    /// `Σ len(setᵢ)` rows. Per-set results are bit-identical to
    /// [`CrossEncoder::score`] on that set alone, because every op in
    /// the scorer is row-independent.
    ///
    /// Empty sets are allowed and yield empty score vectors (a serving
    /// process must not panic on a mention with no retrieved
    /// candidates).
    pub fn score_batch(&self, sets: &[CandidateSet]) -> Vec<Vec<f64>> {
        let total: usize = sets.iter().map(|s| s.len()).sum();
        if total == 0 {
            return sets.iter().map(|_| Vec::new()).collect();
        }
        let mut m_bags = Vec::with_capacity(total);
        let mut s_bags = Vec::with_capacity(total);
        let mut e_bags = Vec::with_capacity(total);
        let mut t_bags = Vec::with_capacity(total);
        for set in sets {
            for (e, t) in set.entities.iter().zip(&set.titles) {
                m_bags.push(set.mention.clone());
                s_bags.push(set.surface.clone());
                e_bags.push(e.clone());
                t_bags.push(t.clone());
            }
        }
        let mut tape = Tape::new();
        let vars = self.params.inject(&mut tape);
        let scores = self.score_rows(&mut tape, &vars, m_bags, s_bags, e_bags, t_bags);
        let flat = tape.value(scores).data().to_vec();
        let mut out = Vec::with_capacity(sets.len());
        let mut offset = 0;
        for set in sets {
            out.push(flat[offset..offset + set.len()].to_vec());
            offset += set.len();
        }
        out
    }

    /// [`CrossEncoder::score_batch`] with fixed-size chunks of sets
    /// scored on separate workers.
    ///
    /// Because the scorer is row-independent, the chunked forward is
    /// bit-identical to the fused one, and the [`SCORE_CHUNK`]
    /// granularity depends only on the data — so results are
    /// bit-identical at every [`Threads`] value.
    pub fn score_batch_with(&self, sets: &[CandidateSet], threads: Threads) -> Vec<Vec<f64>> {
        if threads.is_single() || sets.len() <= SCORE_CHUNK {
            return self.score_batch(sets);
        }
        let chunks = mb_par::par_chunks(threads, sets, SCORE_CHUNK, |_, c| self.score_batch(c));
        chunks.into_iter().flatten().collect()
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
    pub fn forward_loss(&self, tape: &mut Tape, set: &CandidateSet) -> (Vec<Var>, Var) {
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
        (value, self.params.collect_grads(&vars, &grads))
    }

    /// Freeze the scorer for tape-free serving: snapshot the
    /// parameters once into an `Arc`-shared
    /// [`crate::frozen::FrozenCrossEncoder`] (quantizing the embedding
    /// table per `mode`). The frozen forward is bit-identical to
    /// [`CrossEncoder::score_batch`] when `mode` is
    /// [`QuantMode::Exact`].
    pub fn freeze(&self, mode: QuantMode) -> crate::frozen::FrozenCrossEncoder {
        crate::frozen::FrozenCrossEncoder::new(
            self.cfg,
            &self.params,
            crate::frozen::CrossIds {
                emb: self.emb,
                w_sem: self.w_sem,
                b_sem: self.b_sem,
                w_surf: self.w_surf,
                b_surf: self.b_surf,
                w_out: self.w_out,
                b_out: self.b_out,
                gamma: self.gamma,
            },
            mode,
        )
    }

    /// Index (in parameter order) of the token-embedding table (see
    /// `BiEncoder::embedding_param_index`).
    pub fn embedding_param_index(&self) -> usize {
        self.emb.index()
    }

    /// One optimizer step on a single example (the paper trains the
    /// cross-encoder with batch size 1); returns the loss.
    pub fn train_step(&mut self, set: &CandidateSet, opt: &mut dyn Optimizer) -> f64 {
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
        let s = model.score(&sets[0]);
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
        let mut correct = 0;
        for s in &sets {
            let scores = model.score(s);
            if mb_common::util::argmax(&scores) == Some(0) {
                correct += 1;
            }
        }
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
            m.set_params(p.clone());
            m.example_loss(set)
        };
        let numeric = mb_tensor::gradcheck::numeric_grad_params(&mut f, model.params(), 1e-5);
        let err = mb_tensor::gradcheck::max_rel_error(&analytic, &numeric);
        assert!(err < 1e-5, "gradcheck failed: {err}");
    }

    #[test]
    fn score_batch_matches_per_set_forward() {
        let (_, vocab, sets) = setup();
        let model = CrossEncoder::new(&vocab, tiny_cfg(), &mut Rng::seed_from_u64(9));
        let batched = model.score_batch(&sets[..6]);
        assert_eq!(batched.len(), 6);
        for (set, got) in sets[..6].iter().zip(&batched) {
            // Independent single-set tape through forward_logits.
            let mut tape = Tape::new();
            let (_, logits) = model.forward_logits(&mut tape, set);
            let single = tape.value(logits).data().to_vec();
            assert_eq!(got, &single, "batched scores differ from single-set forward");
        }
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
        model.score(&s);
    }
}
