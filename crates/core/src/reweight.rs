//! Learning to reweight synthetic data (Algorithm 1), stated once.
//!
//! The optimisation is the bilevel objective of Eq. 7. Following Ren et
//! al. (and the paper's Eqs. 9–14), each training step:
//!
//! 1. samples a synthetic batch of size `n` and a seed batch of size `m`;
//! 2. initialises the example weights at zero, so the meta-forward
//!    pseudo-update (Eq. 9) leaves the parameters at φ;
//! 3. computes the meta-backward derivative (Eq. 12), which at `w = 0`
//!    reduces **exactly** to per-example gradient dot products:
//!    `−∂l_g/∂w_j = α ⟨∇_φ l_g(φ̂), ∇_φ l_j(φ)⟩` — a synthetic example
//!    is upweighted iff its gradient points the same way as the seed
//!    set's gradient;
//! 4. clips negatives and normalises (Eqs. 13–14, with the δ guard for
//!    an all-zero batch);
//! 5. takes the real optimiser step on the weighted loss (Eq. 15).
//!
//! The dot-product form needs only first-order gradients, which is why
//! this reproduction does not require the second-order autodiff that
//! gates GPU frameworks (see DESIGN.md §4); `tests` verify the form
//! against finite differences of the true bilevel objective, for both
//! encoders.
//!
//! The procedure is the same for both halves of the linker, so it is
//! written once: [`meta_step`] is steps 1–5 and [`train_meta`] the
//! resumable loop around it, both over [`MetaModel`] — what a step
//! needs from a model. The two implementations at the bottom of this
//! file are everything that is stated per encoder.

use crate::checkpoint::MetaResume;
use mb_common::{Result, Rng};
use mb_encoders::biencoder::BiEncoder;
use mb_encoders::crossencoder::{CandidateSet, CrossEncoder};
use mb_encoders::input::TrainPair;
use mb_par::Threads;
use mb_tensor::optim::Adam;
use mb_tensor::params::GradVec;
use mb_tensor::{Params, Tape, Var};

/// Hyperparameters of the meta-training loop.
#[derive(Debug, Clone, Copy)]
pub struct MetaConfig {
    /// Number of meta steps (T in Algorithm 1).
    pub steps: usize,
    /// Synthetic batch size n.
    pub syn_batch: usize,
    /// Seed batch size m.
    pub seed_batch: usize,
    /// Outer learning rate.
    pub lr: f64,
    /// Sampling seed.
    pub seed: u64,
    /// Weight threshold above which an example counts as "selected"
    /// for the Figure 4 measurement (a uniform weight is `1/n`).
    pub select_threshold_factor: f64,
    /// Anchor coefficient λ: every meta step's update is
    /// `Σ wⱼ ∇lⱼ + λ ∇l_g`, mixing the (already computed) seed-batch
    /// gradient into the weighted synthetic update. The seed is labeled
    /// data, so using it as direct supervision alongside its
    /// meta-supervision role stabilises the refinement phase. 0
    /// recovers the verbatim Algorithm 1.
    pub seed_mix: f64,
    /// Normalise each example gradient to unit length before the
    /// meta-backward dot product, so a synthetic example's weight
    /// reflects the *direction* agreement with the seed gradient and
    /// not its loss magnitude. Raw Eq. 12 (false) systematically
    /// upweights high-loss — often mislabeled — examples on this
    /// substrate; the normalised form restores the intended selection
    /// behaviour (Figure 4). Ablatable.
    pub normalize_example_grads: bool,
    /// Compute the meta-backward dot products over the shared dense
    /// parameters only (excluding the token-embedding table). Embedding
    /// gradients are sparse — two examples with disjoint tokens have
    /// orthogonal embedding gradients by construction, so including
    /// them only injects noise into the weights. This is the standard
    /// "final/shared layers only" practice for gradient-similarity
    /// reweighting. Ablatable.
    pub shared_params_only: bool,
    /// Workers for the per-example gradient fan-out (the backward
    /// passes of Eq. 12 are independent given the shared forward).
    /// Results are bit-identical for any value (DESIGN.md §11).
    pub threads: mb_par::Threads,
}

impl Default for MetaConfig {
    fn default() -> Self {
        MetaConfig {
            steps: 300,
            syn_batch: 24,
            seed_batch: 16,
            lr: 5e-3,
            seed: 0,
            select_threshold_factor: 0.5,
            seed_mix: 0.3,
            normalize_example_grads: true,
            shared_params_only: true,
            threads: mb_par::Threads::single(),
        }
    }
}

/// Eqs. 12–14: meta weights from per-example and seed gradients.
///
/// `example_grads[j]` must be `∇_φ l_j(φ)`; `seed_grad` must be
/// `∇_φ l_g(φ̂)` (equal to φ at zero initial weights). Returns weights
/// that are non-negative and sum to 1, or all zeros when no example
/// aligns with the seed gradient (the δ guard).
/// # Examples
///
/// ```
/// use mb_core::meta_example_weights;
/// use mb_tensor::params::GradVec;
/// use mb_tensor::Tensor;
///
/// let g = |v: &[f64]| GradVec::from_tensors(vec![Tensor::vector(v)]);
/// let seed = g(&[1.0, 0.0]);
/// // Aligned example gets all the weight; anti-aligned is clipped to 0.
/// let w = meta_example_weights(&[g(&[2.0, 0.0]), g(&[-1.0, 0.0])], &seed);
/// assert_eq!(w, vec![1.0, 0.0]);
/// ```
pub fn meta_example_weights(example_grads: &[GradVec], seed_grad: &GradVec) -> Vec<f64> {
    meta_example_weights_masked(example_grads, seed_grad, false, &|_| true)
}

/// [`meta_example_weights`] with optional per-example gradient
/// normalisation (see [`MetaConfig::normalize_example_grads`]),
/// restricted to the parameters selected by `keep` (see
/// [`MetaConfig::shared_params_only`]).
pub fn meta_example_weights_masked<'a>(
    example_grads: impl IntoIterator<Item = &'a GradVec>,
    seed_grad: &GradVec,
    normalize: bool,
    keep: &dyn Fn(usize) -> bool,
) -> Vec<f64> {
    let clipped: Vec<f64> = example_grads
        .into_iter()
        .map(|g| {
            let dot = seed_grad.masked_dot(g, keep);
            let dot = if normalize {
                let n = g.masked_norm(keep);
                if n > 0.0 {
                    dot / n
                } else {
                    0.0
                }
            } else {
                dot
            };
            dot.max(0.0)
        })
        .collect();
    let total: f64 = clipped.iter().sum();
    if total <= 0.0 || !total.is_finite() {
        return vec![0.0; clipped.len()];
    }
    clipped.into_iter().map(|w| w / total).collect()
}

/// Selection statistics accumulated over a meta-training run, keyed by
/// the index of each synthetic example in the input slice. Used for the
/// Figure 4 selection-ratio measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct MetaStats {
    /// Per-example: how many times the example appeared in a sampled
    /// synthetic batch.
    pub sampled: Vec<usize>,
    /// Per-example: how many of those times its weight exceeded the
    /// selection threshold.
    pub selected: Vec<usize>,
    /// Mean weighted loss per step.
    pub step_losses: Vec<f64>,
    /// Number of steps where the δ guard fired (all weights zero).
    pub zero_weight_steps: usize,
}

impl MetaStats {
    fn new(n: usize) -> Self {
        MetaStats {
            sampled: vec![0; n],
            selected: vec![0; n],
            step_losses: Vec::new(),
            zero_weight_steps: 0,
        }
    }

    /// Selection ratio of one example (`NaN` if never sampled).
    pub(crate) fn selection_ratio(&self, idx: usize) -> f64 {
        if self.sampled[idx] == 0 {
            f64::NAN
        } else {
            self.selected[idx] as f64 / self.sampled[idx] as f64
        }
    }

    /// Mean selection ratio over a subset of example indices, ignoring
    /// never-sampled examples.
    pub fn mean_selection_ratio(&self, indices: impl IntoIterator<Item = usize>) -> f64 {
        let ratios: Vec<f64> =
            indices.into_iter().map(|i| self.selection_ratio(i)).filter(|r| !r.is_nan()).collect();
        mb_common::util::mean(&ratios)
    }
}

/// What one step of Algorithm 1 needs from a model: its parameters,
/// per-example gradients of a synthetic batch, and the gradient of a
/// seed batch. Everything else — sampling, Eqs. 12–15, statistics,
/// checkpointing — is [`meta_step`] and [`train_meta`].
pub trait MetaModel {
    /// One labeled example, synthetic or seed.
    type Example;

    /// Smallest synthetic batch the model's loss is defined on.
    const MIN_SYN_BATCH: usize;

    /// The parameters φ.
    fn params(&self) -> &Params;

    /// The parameters, for the optimizer step.
    fn params_mut(&mut self) -> &mut Params;

    /// Index (in parameter order) of the token-embedding table, which
    /// [`MetaConfig::shared_params_only`] leaves out of the dot
    /// products.
    fn embedding_param_index(&self) -> usize;

    /// `(l_j(φ), ∇_φ l_j(φ))` for every example of a synthetic batch,
    /// in batch order, bit-identical at any `threads`.
    fn example_grads(&self, batch: &[&Self::Example], threads: Threads) -> Vec<(f64, GradVec)>;

    /// `∇_φ l_g(φ)`: gradient of the mean loss over a seed batch,
    /// bit-identical at any `threads`.
    fn seed_grad(&self, batch: &[&Self::Example], threads: Threads) -> GradVec;
}

/// One meta step of Algorithm 1. Of `cfg` it reads the batch sizes,
/// `seed_mix`, the two dot-product switches and `threads`. Returns
/// `(weights, sampled synthetic indices, weighted loss)`.
///
/// # Panics
/// Panics if `syn` is smaller than [`MetaModel::MIN_SYN_BATCH`] or
/// `seed_set` is empty.
pub fn meta_step<M: MetaModel>(
    model: &mut M,
    syn: &[M::Example],
    seed_set: &[M::Example],
    opt: &mut Adam,
    cfg: &MetaConfig,
    rng: &mut Rng,
) -> (Vec<f64>, Vec<usize>, f64) {
    let min = M::MIN_SYN_BATCH;
    assert!(syn.len() >= min, "meta step needs at least {min} synthetic example(s)");
    assert!(!seed_set.is_empty(), "meta step needs a non-empty seed set");
    let syn_idx = rng.sample_indices(syn.len(), cfg.syn_batch.max(min));
    let seed_idx = rng.sample_indices(seed_set.len(), cfg.seed_batch.max(1));
    let syn_batch: Vec<&M::Example> = syn_idx.iter().map(|&i| &syn[i]).collect();
    let seed_batch: Vec<&M::Example> = seed_idx.iter().map(|&i| &seed_set[i]).collect();

    // Lines 4–6: w = 0 ⇒ φ̂ = φ. Per-example synthetic grads at φ.
    let example = model.example_grads(&syn_batch, cfg.threads);
    // Line 7–8: seed loss gradient at φ̂ (= φ).
    let seed_grad = model.seed_grad(&seed_batch, cfg.threads);
    // Line 9: weights.
    let emb_index = model.embedding_param_index();
    let keep = |i: usize| !cfg.shared_params_only || i != emb_index;
    let weights = meta_example_weights_masked(
        example.iter().map(|(_, g)| g),
        &seed_grad,
        cfg.normalize_example_grads,
        &keep,
    );
    // Lines 10–12: weighted update, reusing the per-example grads:
    // ∇(Σ wⱼ lⱼ) = Σ wⱼ ∇lⱼ.
    let mut update = GradVec::zeros_like(model.params());
    let mut weighted_loss = 0.0;
    for ((lj, gj), &wj) in example.iter().zip(&weights) {
        if wj > 0.0 {
            update.axpy(wj, gj);
            weighted_loss += wj * lj;
        }
    }
    if cfg.seed_mix > 0.0 {
        update.axpy(cfg.seed_mix, &seed_grad);
    }
    opt.step(model.params_mut(), &update);
    (weights, syn_idx, weighted_loss)
}

/// Fold one meta step's outputs into the accumulated stats.
fn record_step(stats: &mut MetaStats, cfg: &MetaConfig, weights: &[f64], idx: &[usize], loss: f64) {
    let threshold = cfg.select_threshold_factor / weights.len() as f64;
    if weights.iter().all(|&w| w == 0.0) {
        stats.zero_weight_steps += 1;
    }
    for (&i, &w) in idx.iter().zip(weights) {
        stats.sampled[i] += 1;
        if w > threshold {
            stats.selected[i] += 1;
        }
    }
    stats.step_losses.push(loss);
}

/// Run Algorithm 1 for `cfg.steps` steps; empty stats when `syn` or
/// `seed_set` is too small to take a step.
///
/// With `ctl`, training is crash-safe: the manager's budget is ticked
/// once per meta step, a checkpoint is saved every `every_n_steps`,
/// and a mid-stage checkpoint (step cursor + optimizer moments + RNG
/// stream + stats) resumes bit-identically. With `None` nothing can
/// fail.
///
/// # Errors
/// [`mb_common::Error::Aborted`] from an injected kill,
/// [`mb_common::Error::Io`] from storage after retries,
/// [`mb_common::Error::Checkpoint`] on unusable resume state.
pub fn train_meta<M: MetaModel>(
    model: &mut M,
    syn: &[M::Example],
    seed_set: &[M::Example],
    opt: &mut Adam,
    cfg: &MetaConfig,
    mut ctl: Option<&mut MetaResume<'_>>,
) -> Result<MetaStats> {
    let mut stats = MetaStats::new(syn.len());
    if syn.len() < M::MIN_SYN_BATCH || seed_set.is_empty() {
        return Ok(stats);
    }
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let mut start = 0;
    if let Some(c) = ctl.as_deref_mut() {
        start = c.restore(syn.len(), cfg.steps, opt, &mut rng, &mut stats)?;
    }
    for step in start..cfg.steps {
        if let Some(c) = ctl.as_deref_mut() {
            c.mgr.tick()?;
        }
        let (weights, idx, loss) = meta_step(model, syn, seed_set, opt, cfg, &mut rng);
        record_step(&mut stats, cfg, &weights, &idx, loss);
        let done = step + 1;
        if let Some(c) = ctl.as_deref_mut() {
            let every = c.mgr.every_n_steps();
            if every > 0 && done % every == 0 && done < cfg.steps {
                c.save(model.params(), opt, &rng, &stats, done)?;
            }
        }
    }
    Ok(stats)
}

/// The bi-encoder under Algorithm 1. The in-batch negatives of Eq. 6
/// couple every example's *loss* to the whole batch, so the batch
/// cannot be sharded: one forward tape, then one backward per example
/// through a `gather` on the loss vector, each yielding `∇_φ l_j(φ)`
/// with the negatives held fixed. All gather nodes are recorded up
/// front (they need `&mut Tape`); the backward sweeps (`&Tape`) then
/// fan out across workers, each producing exactly the tensors the
/// serial loop would. The seed gradient is one backward through the
/// batch mean ([`BiEncoder::batch_grad`]).
impl MetaModel for BiEncoder {
    type Example = TrainPair;
    const MIN_SYN_BATCH: usize = 2;

    fn params(&self) -> &Params {
        BiEncoder::params(self)
    }

    fn params_mut(&mut self) -> &mut Params {
        BiEncoder::params_mut(self)
    }

    fn embedding_param_index(&self) -> usize {
        BiEncoder::embedding_param_index(self)
    }

    fn example_grads(&self, batch: &[&TrainPair], threads: Threads) -> Vec<(f64, GradVec)> {
        let mut tape = Tape::new();
        let fwd = self.forward_losses(&mut tape, batch);
        let gathers: Vec<Var> = (0..batch.len()).map(|j| tape.gather(fwd.losses, j)).collect();
        mb_par::par_map(threads, &gathers, |_, &lj| {
            let value = tape.value(lj).item();
            let grads = tape.backward(lj);
            (value, BiEncoder::params(self).collect_grads(&fwd.vars, grads))
        })
    }

    fn seed_grad(&self, batch: &[&TrainPair], _threads: Threads) -> GradVec {
        self.batch_grad(batch).1
    }
}

/// The cross-encoder under Algorithm 1. Each candidate set is its own
/// tape (the paper trains the cross-encoder at batch size 1), so both
/// gradients are embarrassingly parallel. The seed gradient has no
/// batch graph to differentiate: per-example gradients fan out and
/// their mean is folded serially in sample order, so the accumulation
/// order is the serial loop's at any thread count.
impl MetaModel for CrossEncoder {
    type Example = CandidateSet;
    const MIN_SYN_BATCH: usize = 1;

    fn params(&self) -> &Params {
        CrossEncoder::params(self)
    }

    fn params_mut(&mut self) -> &mut Params {
        CrossEncoder::params_mut(self)
    }

    fn embedding_param_index(&self) -> usize {
        CrossEncoder::embedding_param_index(self)
    }

    fn example_grads(&self, batch: &[&CandidateSet], threads: Threads) -> Vec<(f64, GradVec)> {
        mb_par::par_map(threads, batch, |_, s| self.example_grad(s))
    }

    fn seed_grad(&self, batch: &[&CandidateSet], threads: Threads) -> GradVec {
        let mut mean = GradVec::zeros_like(CrossEncoder::params(self));
        let inv = 1.0 / batch.len() as f64;
        for (_, g) in &self.example_grads(batch, threads) {
            mean.axpy(inv, g);
        }
        mean
    }
}

/// [`meta_step`] on the bi-encoder under the name and argument list
/// the frozen `benchmark/` calls (ROADMAP item 1(b)).
#[allow(clippy::too_many_arguments)]
pub fn biencoder_meta_step(
    model: &mut BiEncoder,
    syn: &[TrainPair],
    seed_set: &[TrainPair],
    opt: &mut Adam,
    syn_batch: usize,
    seed_batch: usize,
    seed_mix: f64,
    normalize: bool,
    shared_only: bool,
    threads: Threads,
    rng: &mut Rng,
) -> (Vec<f64>, Vec<usize>, f64) {
    meta_step(
        model,
        syn,
        seed_set,
        opt,
        &MetaConfig {
            syn_batch,
            seed_batch,
            seed_mix,
            normalize_example_grads: normalize,
            shared_params_only: shared_only,
            threads,
            ..MetaConfig::default()
        },
        rng,
    )
}

/// [`meta_step`] on the cross-encoder; see [`biencoder_meta_step`].
#[allow(clippy::too_many_arguments)]
pub fn crossencoder_meta_step(
    model: &mut CrossEncoder,
    syn: &[CandidateSet],
    seed_set: &[CandidateSet],
    opt: &mut Adam,
    syn_batch: usize,
    seed_batch: usize,
    seed_mix: f64,
    normalize: bool,
    shared_only: bool,
    threads: Threads,
    rng: &mut Rng,
) -> (Vec<f64>, Vec<usize>, f64) {
    meta_step(
        model,
        syn,
        seed_set,
        opt,
        &MetaConfig {
            syn_batch,
            seed_batch,
            seed_mix,
            normalize_example_grads: normalize,
            shared_params_only: shared_only,
            threads,
            ..MetaConfig::default()
        },
        rng,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mb_datagen::{World, WorldConfig};
    use mb_encoders::biencoder::BiEncoderConfig;
    use mb_encoders::crossencoder::CrossEncoderConfig;
    use mb_encoders::input::{build_vocab, entity_bag, title_bag, InputConfig};
    use mb_tensor::Tensor;

    fn setup_pairs(seed: u64, n: usize) -> (BiEncoder, Vec<TrainPair>) {
        let (model, _, pairs, _) = setup(seed, n);
        (model, pairs)
    }

    /// Both encoders over one tiny world: `n` featurized mentions, and
    /// for each a candidate set of its gold plus five random others.
    fn setup(seed: u64, n: usize) -> (BiEncoder, CrossEncoder, Vec<TrainPair>, Vec<CandidateSet>) {
        let world = World::generate(WorldConfig::tiny(41));
        let vocab = build_vocab(world.kb(), [], 1);
        let domain = world.domain("TargetX").clone();
        let mut rng = Rng::seed_from_u64(seed);
        let ms = mb_datagen::mentions::generate_mentions(&world, &domain, n, &mut rng);
        let cfg = InputConfig::default();
        let pairs: Vec<TrainPair> = ms
            .mentions
            .iter()
            .map(|m| TrainPair::from_mention(&vocab, &cfg, world.kb(), m))
            .collect();
        let ids = world.kb().domain_entities(domain.id);
        let sets = pairs
            .iter()
            .map(|p| {
                let mut cands = vec![p.gold];
                while cands.len() < 6 {
                    let c = *rng.choose(ids);
                    if !cands.contains(&c) {
                        cands.push(c);
                    }
                }
                let bags = |id: &mb_kb::EntityId| {
                    let e = world.kb().entity(*id);
                    (entity_bag(&vocab, &cfg, e), title_bag(&vocab, e))
                };
                CandidateSet::new(p, cands.iter().map(bags).collect(), Some(0))
            })
            .collect();
        let bi_cfg = BiEncoderConfig { emb_dim: 8, hidden: 8, out_dim: 8, ..Default::default() };
        let bi = BiEncoder::new(&vocab, bi_cfg, &mut Rng::seed_from_u64(seed + 1));
        let cross_cfg = CrossEncoderConfig { emb_dim: 8, hidden: 8, ..Default::default() };
        let cross = CrossEncoder::new(&vocab, cross_cfg, &mut Rng::seed_from_u64(seed + 2));
        (bi, cross, pairs, sets)
    }

    fn refs<T>(xs: &[T]) -> Vec<&T> {
        xs.iter().collect()
    }

    fn train_plain<M: MetaModel>(
        model: &mut M,
        syn: &[M::Example],
        seed_set: &[M::Example],
        opt: &mut Adam,
        cfg: &MetaConfig,
    ) -> MetaStats {
        train_meta(model, syn, seed_set, opt, cfg, None).expect("nothing to fail without a manager")
    }

    #[test]
    fn weights_are_normalized_and_nonnegative() {
        let (model, pairs) = setup_pairs(1, 12);
        let grads = model.example_grads(&refs(&pairs[..6]), Threads::single());
        let gv: Vec<GradVec> = grads.into_iter().map(|(_, g)| g).collect();
        let (_, seed_grad) = model.batch_grad(&pairs[6..12]);
        let w = meta_example_weights(&gv, &seed_grad);
        assert_eq!(w.len(), 6);
        assert!(w.iter().all(|&x| x >= 0.0));
        let sum: f64 = w.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12 || sum == 0.0);
    }

    #[test]
    fn delta_guard_yields_all_zero() {
        // Seed gradient orthogonal-by-construction: zero gradient.
        let (model, pairs) = setup_pairs(2, 8);
        let grads = model.example_grads(&refs(&pairs[..4]), Threads::single());
        let gv: Vec<GradVec> = grads.into_iter().map(|(_, g)| g).collect();
        let zero = GradVec::zeros_like(model.params());
        let w = meta_example_weights(&gv, &zero);
        assert!(w.iter().all(|&x| x == 0.0));
    }

    /// `seed_grad` is the gradient of the MEAN loss, so the mean of the
    /// per-example gradients over the same batch must reproduce it.
    fn assert_example_grads_average_to_seed_grad<M: MetaModel>(model: &M, batch: &[M::Example]) {
        let batch = refs(batch);
        let per = model.example_grads(&batch, Threads::single());
        let mut diff = model.seed_grad(&batch, Threads::single());
        for (_, g) in &per {
            diff.axpy(-1.0 / batch.len() as f64, g);
        }
        assert!(diff.norm() < 1e-10, "mean of per-example grads != batch grad: {}", diff.norm());
    }

    #[test]
    fn per_example_grads_sum_to_batch_grad() {
        let (bi, cross, pairs, sets) = setup(3, 8);
        assert_example_grads_average_to_seed_grad(&bi, &pairs[..5]);
        assert_example_grads_average_to_seed_grad(&cross, &sets[..5]);
    }

    /// The central correctness test: the analytic meta-derivative
    /// (gradient dot product) must match the finite-difference
    /// derivative of the true bilevel objective
    /// `w ↦ l_g(φ − α ∇_φ Σ_j w_j l_j(φ))` at `w = 0`, where
    /// `seed_loss_at(φ̂)` evaluates `l_g` on the seed batch at `φ̂`.
    fn assert_meta_gradient_matches_finite_differences<M: MetaModel>(
        model: &M,
        syn: &[M::Example],
        seed_set: &[M::Example],
        seed_loss_at: impl Fn(Params) -> f64,
    ) {
        let alpha = 0.05;
        let per = model.example_grads(&refs(syn), Threads::single());
        let seed_grad_at_phi = model.seed_grad(&refs(seed_set), Threads::single());

        // Analytic: ∂l_g/∂w_j |_{w=0} = −α ⟨∇l_g(φ), ∇l_j(φ)⟩.
        let analytic: Vec<f64> =
            per.iter().map(|(_, g)| -alpha * seed_grad_at_phi.dot(g)).collect();

        // Numeric: perturb w_j, apply the inner SGD step, evaluate l_g.
        let eps = 1e-4;
        let bilevel = |w: &[f64]| -> f64 {
            // φ̂(w) = φ − α Σ w_j ∇l_j(φ)
            let mut phi_hat = model.params().clone();
            for (wj, (_, gj)) in w.iter().zip(&per) {
                phi_hat.axpy(-alpha * wj, gj);
            }
            seed_loss_at(phi_hat)
        };
        for j in 0..syn.len() {
            let mut wp = vec![0.0; syn.len()];
            wp[j] = eps;
            let mut wm = vec![0.0; syn.len()];
            wm[j] = -eps;
            let numeric = (bilevel(&wp) - bilevel(&wm)) / (2.0 * eps);
            let scale = 1.0_f64.max(numeric.abs()).max(analytic[j].abs());
            assert!(
                (numeric - analytic[j]).abs() / scale < 1e-3,
                "example {j}: analytic {} vs numeric {numeric}",
                analytic[j]
            );
        }
    }

    #[test]
    fn meta_gradient_matches_finite_differences_of_bilevel_objective() {
        let (bi, cross, pairs, sets) = setup(4, 12);
        assert_meta_gradient_matches_finite_differences(&bi, &pairs[..4], &pairs[4..10], |phi| {
            let mut m2 = bi.clone();
            m2.set_params(phi).expect("the model's own params, stepped");
            m2.batch_loss(&pairs[4..10])
        });
        assert_meta_gradient_matches_finite_differences(&cross, &sets[..4], &sets[4..10], |phi| {
            let mut m2 = cross.clone();
            m2.set_params(phi).expect("the model's own params, stepped");
            let losses: Vec<f64> = sets[4..10].iter().map(|s| m2.example_loss(s)).collect();
            mb_common::util::mean(&losses)
        });
    }

    #[test]
    fn meta_training_runs_and_records_stats() {
        let (mut bi, mut cross, pairs, sets) = setup(5, 40);
        let cfg =
            MetaConfig { steps: 20, syn_batch: 8, seed_batch: 6, seed: 3, ..Default::default() };
        let bi_stats =
            train_plain(&mut bi, &pairs[..30], &pairs[30..], &mut Adam::new(cfg.lr), &cfg);
        let cross_stats =
            train_plain(&mut cross, &sets[..30], &sets[30..], &mut Adam::new(cfg.lr), &cfg);
        for stats in [bi_stats, cross_stats] {
            assert_eq!(stats.step_losses.len(), 20);
            assert_eq!(stats.sampled.len(), 30);
            assert!(stats.sampled.iter().sum::<usize>() == 20 * 8);
            assert!(stats.selected.iter().sum::<usize>() <= stats.sampled.iter().sum::<usize>());
        }
        assert!(!bi.params().has_non_finite() && !cross.params().has_non_finite());
    }

    #[test]
    fn meta_downweights_mislabeled_examples() {
        let (good_ratio, bad_ratio) = discrimination_ratios(6);
        assert!(
            good_ratio > bad_ratio + 0.05,
            "good {good_ratio:.3} vs bad {bad_ratio:.3} — meta-learning failed to discriminate"
        );
    }

    /// Figure-4-shaped setup: half the synthetic pairs are relinked to
    /// rotated (wrong) entities; returns (good, bad) mean selection
    /// ratios after meta training.
    fn discrimination_ratios(seed: u64) -> (f64, f64) {
        let (mut model, pairs) = setup_pairs(seed, 120);
        let seed_set: Vec<TrainPair> = pairs[80..120].to_vec();
        let good: Vec<TrainPair> = pairs[..40].to_vec();
        let mut bad: Vec<TrainPair> = pairs[40..80].to_vec();
        let rotated: Vec<(Vec<u32>, Vec<u32>)> =
            bad.iter().map(|p| (p.entity.clone(), p.title.clone())).collect();
        for (i, p) in bad.iter_mut().enumerate() {
            let (e, t) = rotated[(i + 13) % rotated.len()].clone();
            p.entity = e;
            p.title = t;
        }
        let mut syn = good.clone();
        syn.extend(bad);
        // Pre-train on the seed set so encoder gradients carry semantic
        // signal (Algorithm 2 trains on source domains first).
        let mut pre =
            mb_encoders::train::TrainConfig { epochs: 20, batch_size: 16, lr: 0.01, seed: 5 };
        pre.epochs = 20;
        mb_encoders::train::train_biencoder(&mut model, &seed_set, &pre);
        let cfg =
            MetaConfig { steps: 250, syn_batch: 12, seed_batch: 16, seed: 9, ..Default::default() };
        let mut opt = Adam::new(cfg.lr);
        let stats = train_plain(&mut model, &syn, &seed_set, &mut opt, &cfg);
        (stats.mean_selection_ratio(0..40), stats.mean_selection_ratio(40..80))
    }

    #[test]
    fn degenerate_inputs_return_empty_stats() {
        let (mut model, pairs) = setup_pairs(7, 8);
        let cfg = MetaConfig { steps: 5, ..Default::default() };
        let mut opt = Adam::new(cfg.lr);
        let s1 = train_plain(&mut model, &pairs[..1], &pairs[4..], &mut opt, &cfg);
        assert!(s1.step_losses.is_empty());
        let s2 = train_plain(&mut model, &pairs[..4], &[], &mut opt, &cfg);
        assert!(s2.step_losses.is_empty());
    }

    #[test]
    fn weights_shapes_follow_gradvec_contract() {
        // meta_example_weights on handcrafted gradients.
        let mk = |v: &[f64]| GradVec::from_tensors(vec![Tensor::vector(v)]);
        let seed_g = mk(&[1.0, 0.0]);
        let w =
            meta_example_weights(&[mk(&[2.0, 0.0]), mk(&[-1.0, 0.0]), mk(&[2.0, 5.0])], &seed_g);
        // Dots: 2, -1→0, 2 ⇒ normalized [0.5, 0, 0.5].
        assert!((w[0] - 0.5).abs() < 1e-12);
        assert_eq!(w[1], 0.0);
        assert!((w[2] - 0.5).abs() < 1e-12);
    }
}
