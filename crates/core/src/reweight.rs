//! Learning to reweight synthetic data (Algorithm 1).
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
//! against finite differences of the true bilevel objective.

use crate::checkpoint::{
    stats_from_checkpoint, stats_to_checkpoint, CheckpointManager, STAGE_KEY, STEP_KEY,
};
use mb_common::{Error, Result, Rng};
use mb_encoders::biencoder::BiEncoder;
use mb_encoders::crossencoder::{CandidateSet, CrossEncoder};
use mb_encoders::input::TrainPair;
use mb_tensor::checkpoint::Checkpoint;
use mb_tensor::optim::Optimizer;
use mb_tensor::params::GradVec;
use mb_tensor::Tape;

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
    meta_example_weights_opts(example_grads, seed_grad, false)
}

/// [`meta_example_weights`] with optional per-example gradient
/// normalisation (see [`MetaConfig::normalize_example_grads`]).
pub fn meta_example_weights_opts(
    example_grads: &[GradVec],
    seed_grad: &GradVec,
    normalize: bool,
) -> Vec<f64> {
    meta_example_weights_masked(example_grads, seed_grad, normalize, &|_| true)
}

/// [`meta_example_weights_opts`] restricted to parameters selected by
/// `keep` (see [`MetaConfig::shared_params_only`]).
pub fn meta_example_weights_masked(
    example_grads: &[GradVec],
    seed_grad: &GradVec,
    normalize: bool,
    keep: &dyn Fn(usize) -> bool,
) -> Vec<f64> {
    let clipped: Vec<f64> = example_grads
        .iter()
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
        return vec![0.0; example_grads.len()];
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
    pub fn selection_ratio(&self, idx: usize) -> f64 {
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

/// Per-example losses and gradients of a bi-encoder synthetic batch.
///
/// One forward tape, then one backward per example through a `gather`
/// on the loss vector — each yields `∇_φ l_j(φ)` with the in-batch
/// negatives of Eq. 6 held fixed.
///
/// The in-batch negatives couple every example's *loss* to the whole
/// batch, so the batch cannot be sharded — but given the shared
/// forward, the per-example backward sweeps are independent. All
/// gather nodes are recorded up front (they need `&mut Tape`); the
/// backward passes (`&Tape`) then fan out across workers, each
/// producing exactly the tensors the serial loop would.
fn biencoder_example_grads(
    model: &BiEncoder,
    batch: &[TrainPair],
    threads: mb_par::Threads,
) -> Vec<(f64, GradVec)> {
    let mut tape = Tape::new();
    let fwd = model.forward_losses(&mut tape, batch);
    let gathers: Vec<mb_tensor::Var> =
        (0..batch.len()).map(|j| tape.gather(fwd.losses, j)).collect();
    mb_par::par_map(threads, &gathers, |_, &lj| {
        let value = tape.value(lj).item();
        let grads = tape.backward(lj);
        (value, model.params().collect_grads(&fwd.vars, &grads))
    })
}

/// One meta step of Algorithm 1 on the bi-encoder. Returns
/// `(weights, sampled synthetic indices, weighted loss)`.
#[allow(clippy::too_many_arguments)] // mirrors Algorithm 1's explicit inputs
pub fn biencoder_meta_step(
    model: &mut BiEncoder,
    syn: &[TrainPair],
    seed_set: &[TrainPair],
    opt: &mut dyn Optimizer,
    syn_batch: usize,
    seed_batch: usize,
    seed_mix: f64,
    normalize: bool,
    shared_only: bool,
    threads: mb_par::Threads,
    rng: &mut Rng,
) -> (Vec<f64>, Vec<usize>, f64) {
    assert!(syn.len() >= 2, "meta step needs at least two synthetic examples");
    assert!(!seed_set.is_empty(), "meta step needs a non-empty seed set");
    let syn_idx = rng.sample_indices(syn.len(), syn_batch.max(2));
    let seed_idx = rng.sample_indices(seed_set.len(), seed_batch.max(1));
    let syn_batch_data: Vec<TrainPair> = syn_idx.iter().map(|&i| syn[i].clone()).collect();
    let seed_batch_data: Vec<TrainPair> = seed_idx.iter().map(|&i| seed_set[i].clone()).collect();

    // Lines 4–6: w = 0 ⇒ φ̂ = φ. Per-example synthetic grads at φ.
    let example = biencoder_example_grads(model, &syn_batch_data, threads);
    // Line 7–8: seed loss gradient at φ̂ (= φ).
    let (_, seed_grad) = model.batch_grad(&seed_batch_data);
    // Line 9: weights.
    let grads_only: Vec<GradVec> = example.iter().map(|(_, g)| g.clone()).collect();
    let emb_index = model.embedding_param_index();
    let keep = move |i: usize| !shared_only || i != emb_index;
    let weights = meta_example_weights_masked(&grads_only, &seed_grad, normalize, &keep);
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
    if seed_mix > 0.0 {
        update.axpy(seed_mix, &seed_grad);
    }
    opt.step(model.params_mut(), &update);
    (weights, syn_idx, weighted_loss)
}

/// Checkpointing context for the resumable meta trainers: the manager,
/// which pipeline stage this trainer occupies, the key its model state
/// saves under, and (when restarting) the checkpoint being resumed.
pub struct MetaResume<'a> {
    /// Manager owning storage, budget, and the stage-boundary base.
    pub mgr: &'a mut CheckpointManager,
    /// Stage-cursor value identifying this trainer's pipeline stage.
    pub stage: u64,
    /// Key under which this model's params/optimizer/RNG state is
    /// saved in checkpoints (`"bi"` or `"cross"`).
    pub model_key: &'a str,
    /// Checkpoint to resume from. Only honoured when it carries a
    /// mid-stage step cursor; a stage-boundary checkpoint starts the
    /// stage from the beginning.
    pub resume: Option<&'a Checkpoint>,
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

/// Restore mid-stage state (step cursor, optimizer, RNG, stats) from a
/// checkpoint into the trainer's locals. Returns the step to resume
/// from (0 when the checkpoint is a stage boundary).
fn restore_mid_stage(
    ctl: &MetaResume<'_>,
    syn_len: usize,
    opt: &mut dyn Optimizer,
    rng: &mut Rng,
    stats: &mut MetaStats,
) -> Result<usize> {
    let Some(ck) = ctl.resume else { return Ok(0) };
    let Some(step_s) = ck.meta.get(STEP_KEY) else { return Ok(0) };
    let start: usize = step_s
        .parse()
        .map_err(|e| Error::Checkpoint(format!("bad step cursor {step_s:?}: {e}")))?;
    let key = ctl.model_key;
    let os = ck.optim.get(key).ok_or_else(|| {
        Error::Checkpoint(format!("mid-stage checkpoint lacks optimizer state {key:?}"))
    })?;
    opt.restore(os.clone())?;
    let rs = ck.rng.get(key).ok_or_else(|| {
        Error::Checkpoint(format!("mid-stage checkpoint lacks RNG state {key:?}"))
    })?;
    *rng = Rng::from_state(*rs);
    if let Some(s) = stats_from_checkpoint(key, ck) {
        if s.sampled.len() != syn_len {
            return Err(Error::Checkpoint(format!(
                "checkpoint stats cover {} synthetic examples, run has {syn_len}",
                s.sampled.len()
            )));
        }
        *stats = s;
    }
    Ok(start)
}

/// Save a mid-stage checkpoint: the stage-boundary base patched with
/// the live model/optimizer/RNG state and the accumulated stats.
fn save_mid_stage(
    ctl: &mut MetaResume<'_>,
    params: &mb_tensor::Params,
    opt: &dyn Optimizer,
    rng: &Rng,
    stats: &MetaStats,
    done: usize,
) -> Result<()> {
    let mut ck = ctl.mgr.base().clone();
    ck.params.insert(ctl.model_key.to_string(), params.clone());
    ck.optim.insert(ctl.model_key.to_string(), opt.state());
    ck.rng.insert(ctl.model_key.to_string(), rng.state());
    stats_to_checkpoint(ctl.model_key, stats, &mut ck);
    ck.meta.insert(STAGE_KEY.to_string(), ctl.stage.to_string());
    ck.meta.insert(STEP_KEY.to_string(), done.to_string());
    ctl.mgr.save(ck)
}

/// Run Algorithm 1 on the bi-encoder for `cfg.steps` steps.
pub fn train_biencoder_meta(
    model: &mut BiEncoder,
    syn: &[TrainPair],
    seed_set: &[TrainPair],
    opt: &mut dyn Optimizer,
    cfg: &MetaConfig,
) -> MetaStats {
    run_biencoder_meta(model, syn, seed_set, opt, cfg, None)
        .expect("meta training without a checkpoint manager is infallible")
}

/// [`train_biencoder_meta`] with crash-safe checkpointing: ticks the
/// manager's budget once per meta step, saves every
/// `every_n_steps`, and resumes bit-identically from a mid-stage
/// checkpoint (step cursor + optimizer moments + RNG stream + stats).
///
/// # Errors
/// [`Error::Aborted`] from an injected kill, [`Error::Io`] from
/// storage after retries, [`Error::Checkpoint`] on unusable resume
/// state.
pub fn train_biencoder_meta_resumable(
    model: &mut BiEncoder,
    syn: &[TrainPair],
    seed_set: &[TrainPair],
    opt: &mut dyn Optimizer,
    cfg: &MetaConfig,
    ctl: &mut MetaResume<'_>,
) -> Result<MetaStats> {
    run_biencoder_meta(model, syn, seed_set, opt, cfg, Some(ctl))
}

fn run_biencoder_meta(
    model: &mut BiEncoder,
    syn: &[TrainPair],
    seed_set: &[TrainPair],
    opt: &mut dyn Optimizer,
    cfg: &MetaConfig,
    mut ctl: Option<&mut MetaResume<'_>>,
) -> Result<MetaStats> {
    let mut stats = MetaStats::new(syn.len());
    if syn.len() < 2 || seed_set.is_empty() {
        return Ok(stats);
    }
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let mut start = 0;
    if let Some(c) = ctl.as_deref_mut() {
        start = restore_mid_stage(c, syn.len(), opt, &mut rng, &mut stats)?;
    }
    for step in start..cfg.steps {
        if let Some(c) = ctl.as_deref_mut() {
            c.mgr.tick()?;
        }
        let (weights, idx, loss) = biencoder_meta_step(
            model,
            syn,
            seed_set,
            opt,
            cfg.syn_batch,
            cfg.seed_batch,
            cfg.seed_mix,
            cfg.normalize_example_grads,
            cfg.shared_params_only,
            cfg.threads,
            &mut rng,
        );
        record_step(&mut stats, cfg, &weights, &idx, loss);
        let done = step + 1;
        if let Some(c) = ctl.as_deref_mut() {
            let every = c.mgr.every_n_steps();
            if every > 0 && done % every == 0 && done < cfg.steps {
                save_mid_stage(c, model.params(), opt, &rng, &stats, done)?;
            }
        }
    }
    Ok(stats)
}

/// Per-example gradients for cross-encoder candidate sets (each set is
/// its own tape; the paper trains the cross-encoder at batch size 1).
/// Embarrassingly parallel: one forward+backward tape per set, results
/// reassembled in batch order.
fn crossencoder_example_grads(
    model: &CrossEncoder,
    batch: &[&CandidateSet],
    threads: mb_par::Threads,
) -> Vec<(f64, GradVec)> {
    mb_par::par_map(threads, batch, |_, s| model.example_grad(s))
}

/// One meta step of Algorithm 1 on the cross-encoder.
#[allow(clippy::too_many_arguments)] // mirrors Algorithm 1's explicit inputs
pub fn crossencoder_meta_step(
    model: &mut CrossEncoder,
    syn: &[CandidateSet],
    seed_set: &[CandidateSet],
    opt: &mut dyn Optimizer,
    syn_batch: usize,
    seed_batch: usize,
    seed_mix: f64,
    normalize: bool,
    shared_only: bool,
    threads: mb_par::Threads,
    rng: &mut Rng,
) -> (Vec<f64>, Vec<usize>, f64) {
    assert!(!syn.is_empty(), "meta step needs synthetic examples");
    assert!(!seed_set.is_empty(), "meta step needs a non-empty seed set");
    let syn_idx = rng.sample_indices(syn.len(), syn_batch.max(1));
    let seed_idx = rng.sample_indices(seed_set.len(), seed_batch.max(1));
    let syn_refs: Vec<&CandidateSet> = syn_idx.iter().map(|&i| &syn[i]).collect();

    let example = crossencoder_example_grads(model, &syn_refs, threads);
    // Seed gradient: mean over the seed batch. Per-example grads fan
    // out; the mean is folded serially in sample order, so the
    // accumulation order matches the serial loop exactly.
    let seed_examples =
        mb_par::par_map(threads, &seed_idx, |_, &i| model.example_grad(&seed_set[i]));
    let mut seed_grad = GradVec::zeros_like(model.params());
    let inv = 1.0 / seed_idx.len() as f64;
    for (_, g) in &seed_examples {
        seed_grad.axpy(inv, g);
    }
    let grads_only: Vec<GradVec> = example.iter().map(|(_, g)| g.clone()).collect();
    let emb_index = model.embedding_param_index();
    let keep = move |i: usize| !shared_only || i != emb_index;
    let weights = meta_example_weights_masked(&grads_only, &seed_grad, normalize, &keep);
    let mut update = GradVec::zeros_like(model.params());
    let mut weighted_loss = 0.0;
    for ((lj, gj), &wj) in example.iter().zip(&weights) {
        if wj > 0.0 {
            update.axpy(wj, gj);
            weighted_loss += wj * lj;
        }
    }
    if seed_mix > 0.0 {
        update.axpy(seed_mix, &seed_grad);
    }
    opt.step(model.params_mut(), &update);
    (weights, syn_idx, weighted_loss)
}

/// Run Algorithm 1 on the cross-encoder for `cfg.steps` steps.
pub fn train_crossencoder_meta(
    model: &mut CrossEncoder,
    syn: &[CandidateSet],
    seed_set: &[CandidateSet],
    opt: &mut dyn Optimizer,
    cfg: &MetaConfig,
) -> MetaStats {
    run_crossencoder_meta(model, syn, seed_set, opt, cfg, None)
        .expect("meta training without a checkpoint manager is infallible")
}

/// [`train_crossencoder_meta`] with crash-safe checkpointing; see
/// [`train_biencoder_meta_resumable`] for the contract.
///
/// # Errors
/// [`Error::Aborted`] from an injected kill, [`Error::Io`] from
/// storage after retries, [`Error::Checkpoint`] on unusable resume
/// state.
pub fn train_crossencoder_meta_resumable(
    model: &mut CrossEncoder,
    syn: &[CandidateSet],
    seed_set: &[CandidateSet],
    opt: &mut dyn Optimizer,
    cfg: &MetaConfig,
    ctl: &mut MetaResume<'_>,
) -> Result<MetaStats> {
    run_crossencoder_meta(model, syn, seed_set, opt, cfg, Some(ctl))
}

fn run_crossencoder_meta(
    model: &mut CrossEncoder,
    syn: &[CandidateSet],
    seed_set: &[CandidateSet],
    opt: &mut dyn Optimizer,
    cfg: &MetaConfig,
    mut ctl: Option<&mut MetaResume<'_>>,
) -> Result<MetaStats> {
    let mut stats = MetaStats::new(syn.len());
    if syn.is_empty() || seed_set.is_empty() {
        return Ok(stats);
    }
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let mut start = 0;
    if let Some(c) = ctl.as_deref_mut() {
        start = restore_mid_stage(c, syn.len(), opt, &mut rng, &mut stats)?;
    }
    for step in start..cfg.steps {
        if let Some(c) = ctl.as_deref_mut() {
            c.mgr.tick()?;
        }
        let (weights, idx, loss) = crossencoder_meta_step(
            model,
            syn,
            seed_set,
            opt,
            cfg.syn_batch,
            cfg.seed_batch,
            cfg.seed_mix,
            cfg.normalize_example_grads,
            cfg.shared_params_only,
            cfg.threads,
            &mut rng,
        );
        record_step(&mut stats, cfg, &weights, &idx, loss);
        let done = step + 1;
        if let Some(c) = ctl.as_deref_mut() {
            let every = c.mgr.every_n_steps();
            if every > 0 && done % every == 0 && done < cfg.steps {
                save_mid_stage(c, model.params(), opt, &rng, &stats, done)?;
            }
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mb_datagen::{World, WorldConfig};
    use mb_encoders::biencoder::BiEncoderConfig;
    use mb_encoders::input::{build_vocab, InputConfig};
    use mb_tensor::optim::Sgd;
    use mb_tensor::Tensor;

    fn setup_pairs(seed: u64, n: usize) -> (BiEncoder, Vec<TrainPair>) {
        let world = World::generate(WorldConfig::tiny(41));
        let vocab = build_vocab(world.kb(), [], 1);
        let domain = world.domain("TargetX").clone();
        let mut rng = Rng::seed_from_u64(seed);
        let ms = mb_datagen::mentions::generate_mentions(&world, &domain, n, &mut rng);
        let cfg = InputConfig::default();
        let pairs = ms
            .mentions
            .iter()
            .map(|m| TrainPair::from_mention(&vocab, &cfg, world.kb(), m))
            .collect();
        let bi_cfg = BiEncoderConfig { emb_dim: 8, hidden: 8, out_dim: 8, ..Default::default() };
        let model = BiEncoder::new(&vocab, bi_cfg, &mut Rng::seed_from_u64(seed + 1));
        (model, pairs)
    }

    #[test]
    fn weights_are_normalized_and_nonnegative() {
        let (model, pairs) = setup_pairs(1, 12);
        let grads = biencoder_example_grads(&model, &pairs[..6], mb_par::Threads::single());
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
        let grads = biencoder_example_grads(&model, &pairs[..4], mb_par::Threads::single());
        let gv: Vec<GradVec> = grads.into_iter().map(|(_, g)| g).collect();
        let zero = GradVec::zeros_like(model.params());
        let w = meta_example_weights(&gv, &zero);
        assert!(w.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn per_example_grads_sum_to_batch_grad() {
        let (model, pairs) = setup_pairs(3, 8);
        let batch = &pairs[..5];
        let per = biencoder_example_grads(&model, batch, mb_par::Threads::single());
        let (_, batch_grad) = model.batch_grad(batch);
        // batch_grad is the gradient of the MEAN loss.
        let mut summed = GradVec::zeros_like(model.params());
        for (_, g) in &per {
            summed.axpy(1.0 / batch.len() as f64, g);
        }
        let mut diff = summed.clone();
        diff.axpy(-1.0, &batch_grad);
        assert!(diff.norm() < 1e-10, "sum of per-example grads != batch grad: {}", diff.norm());
    }

    /// The central correctness test: the analytic meta-derivative
    /// (gradient dot product) must match the finite-difference
    /// derivative of the true bilevel objective
    /// `w ↦ l_g(φ − α ∇_φ Σ_j w_j l_j(φ))` at `w = 0`.
    #[test]
    fn meta_gradient_matches_finite_differences_of_bilevel_objective() {
        let (model, pairs) = setup_pairs(4, 12);
        let syn = &pairs[..4];
        let seed_set = &pairs[4..10];
        let alpha = 0.05;

        let per = biencoder_example_grads(&model, syn, mb_par::Threads::single());
        let (_, seed_grad_at_phi) = model.batch_grad(seed_set);

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
            let mut m2 = model.clone();
            m2.set_params(phi_hat).expect("the model's own params, stepped");
            m2.batch_loss(seed_set)
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
    fn meta_training_runs_and_records_stats() {
        let (mut model, pairs) = setup_pairs(5, 40);
        let syn = &pairs[..30];
        let seed_set = &pairs[30..];
        let mut opt = Sgd::new(0.05);
        let cfg =
            MetaConfig { steps: 20, syn_batch: 8, seed_batch: 6, seed: 3, ..Default::default() };
        let stats = train_biencoder_meta(&mut model, syn, seed_set, &mut opt, &cfg);
        assert_eq!(stats.step_losses.len(), 20);
        assert_eq!(stats.sampled.len(), 30);
        assert!(stats.sampled.iter().sum::<usize>() == 20 * 8);
        assert!(stats.selected.iter().sum::<usize>() <= stats.sampled.iter().sum::<usize>());
        assert!(!model.params().has_non_finite());
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
        let mut opt = Sgd::new(0.01);
        let cfg =
            MetaConfig { steps: 250, syn_batch: 12, seed_batch: 16, seed: 9, ..Default::default() };
        let stats = train_biencoder_meta(&mut model, &syn, &seed_set, &mut opt, &cfg);
        (stats.mean_selection_ratio(0..40), stats.mean_selection_ratio(40..80))
    }

    #[test]
    fn degenerate_inputs_return_empty_stats() {
        let (mut model, pairs) = setup_pairs(7, 8);
        let mut opt = Sgd::new(0.1);
        let cfg = MetaConfig { steps: 5, ..Default::default() };
        let s1 = train_biencoder_meta(&mut model, &pairs[..1], &pairs[4..], &mut opt, &cfg);
        assert!(s1.step_losses.is_empty());
        let s2 = train_biencoder_meta(&mut model, &pairs[..4], &[], &mut opt, &cfg);
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
