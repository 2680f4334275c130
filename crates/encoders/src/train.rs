//! Plain (unweighted) trainers — the BLINK baseline path.
//!
//! MetaBLINK's reweighted training lives in `mb-core`; these trainers
//! implement standard mini-batch training used when BLINK is trained
//! directly on seed, syn, or syn+seed data. Both are one epoch driver
//! (`run_epochs`: seed → shuffle → budget tick → epoch body →
//! non-finite rollback → snapshot) around the encoder's own
//! `train_step`; the bodies differ only in how an epoch's order is cut
//! into steps (mini-batches of pairs; one candidate set at a time).

use crate::biencoder::BiEncoder;
use crate::crossencoder::{CandidateSet, CrossEncoder};
use crate::input::TrainPair;
use mb_common::storage::{NoBudget, StepBudget};
use mb_common::{Result, Rng};
use mb_tensor::optim::Adam;
use mb_tensor::Params;

/// Shared training hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// Number of passes over the data.
    pub epochs: usize,
    /// Mini-batch size (bi-encoder; the cross-encoder always uses 1, as
    /// in the paper).
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Shuffling seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig { epochs: 8, batch_size: 32, lr: 5e-3, seed: 0 }
    }
}

/// Per-epoch mean losses returned by the trainers.
#[derive(Debug, Clone, Default)]
pub struct TrainStats {
    /// Mean loss of each epoch, in order.
    pub epoch_losses: Vec<f64>,
    /// True if training stopped early because the parameters became
    /// non-finite; the model is rolled back to the last finite state.
    pub diverged: bool,
}

/// The epoch loop both trainers share: a fresh Adam and a shuffling
/// stream seeded from `cfg`; per epoch, tick `budget` (the
/// crash-injection seam — an error aborts there, as if the process had
/// died between epochs), reshuffle the `n` item indices, and let
/// `epoch` take its optimizer steps over them in that order, returning
/// their losses. An epoch that leaves non-finite parameters is rolled
/// back to the snapshot taken after the previous one and ends the run.
fn run_epochs<M>(
    model: &mut M,
    params: fn(&mut M) -> &mut Params,
    n: usize,
    cfg: &TrainConfig,
    budget: &mut dyn StepBudget,
    mut epoch: impl FnMut(&mut M, &mut Adam, &[usize]) -> Vec<f64>,
) -> Result<TrainStats> {
    let mut stats = TrainStats::default();
    if n == 0 {
        return Ok(stats);
    }
    let mut opt = Adam::new(cfg.lr);
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let mut order: Vec<usize> = (0..n).collect();
    let mut snapshot = params(model).clone();
    for _ in 0..cfg.epochs {
        budget.tick()?;
        rng.shuffle(&mut order);
        let losses = epoch(model, &mut opt, &order);
        // Failure injection guard: roll back and stop on divergence.
        if params(model).has_non_finite() {
            *params(model) = snapshot;
            stats.diverged = true;
            return Ok(stats);
        }
        snapshot = params(model).clone();
        stats.epoch_losses.push(mb_common::util::mean(&losses));
    }
    Ok(stats)
}

/// Train a bi-encoder on labeled pairs with in-batch negatives.
///
/// Batches are built from a fresh shuffle each epoch. Batches of size 1
/// are skipped when the loss excludes gold (no negatives exist).
pub fn train_biencoder(
    model: &mut BiEncoder,
    pairs: &[TrainPair],
    cfg: &TrainConfig,
) -> TrainStats {
    try_train_biencoder(model, pairs, cfg, &mut NoBudget).expect("NoBudget never aborts")
}

/// [`train_biencoder`] with a crash-injection seam: `budget` is ticked
/// once before every epoch, and an error from it aborts the run there,
/// exactly as if the process had died between epochs.
///
/// # Errors
/// Propagates the budget's error (conventionally [`mb_common::Error::Aborted`]).
pub fn try_train_biencoder(
    model: &mut BiEncoder,
    pairs: &[TrainPair],
    cfg: &TrainConfig,
    budget: &mut dyn StepBudget,
) -> Result<TrainStats> {
    run_epochs(model, BiEncoder::params_mut, pairs.len(), cfg, budget, |model, opt, order| {
        let mut losses = Vec::new();
        for chunk in order.chunks(cfg.batch_size.max(2)) {
            if chunk.len() < 2 && model.config().exclude_gold_in_loss {
                continue;
            }
            let batch: Vec<TrainPair> = chunk.iter().map(|&i| pairs[i].clone()).collect();
            losses.push(model.train_step(&batch, opt));
        }
        losses
    })
}

/// Train a cross-encoder on candidate sets (batch size 1, as in the
/// paper — the meta-learning variant doubles memory, forcing batch 1).
pub fn train_crossencoder(
    model: &mut CrossEncoder,
    sets: &[CandidateSet],
    cfg: &TrainConfig,
) -> TrainStats {
    try_train_crossencoder(model, sets, cfg, &mut NoBudget).expect("NoBudget never aborts")
}

/// [`train_crossencoder`] with a crash-injection seam; `budget` is
/// ticked once before every epoch.
///
/// # Errors
/// Propagates the budget's error (conventionally [`mb_common::Error::Aborted`]).
pub fn try_train_crossencoder(
    model: &mut CrossEncoder,
    sets: &[CandidateSet],
    cfg: &TrainConfig,
    budget: &mut dyn StepBudget,
) -> Result<TrainStats> {
    let trainable: Vec<&CandidateSet> =
        sets.iter().filter(|s| s.gold_index.is_some() && !s.is_empty()).collect();
    let n = trainable.len();
    run_epochs(model, CrossEncoder::params_mut, n, cfg, budget, |model, opt, order| {
        order.iter().map(|&i| model.train_step(trainable[i], opt)).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::biencoder::BiEncoderConfig;
    use crate::crossencoder::CrossEncoderConfig;
    use crate::input::{build_vocab, entity_bag, title_bag, InputConfig};
    use mb_datagen::{World, WorldConfig};
    use mb_text::Vocab;

    fn setup() -> (World, Vocab, Vec<TrainPair>) {
        let world = World::generate(WorldConfig::tiny(29));
        let vocab = build_vocab(world.kb(), [], 1);
        let domain = world.domain("TargetX").clone();
        let mut rng = Rng::seed_from_u64(3);
        let ms = mb_datagen::mentions::generate_mentions(&world, &domain, 80, &mut rng);
        let cfg = InputConfig::default();
        let pairs = ms
            .mentions
            .iter()
            .map(|m| TrainPair::from_mention(&vocab, &cfg, world.kb(), m))
            .collect();
        (world, vocab, pairs)
    }

    #[test]
    fn biencoder_training_improves() {
        let (_, vocab, pairs) = setup();
        let bi_cfg = BiEncoderConfig { emb_dim: 16, hidden: 16, out_dim: 16, ..Default::default() };
        let mut model = BiEncoder::new(&vocab, bi_cfg, &mut Rng::seed_from_u64(1));
        let cfg = TrainConfig { epochs: 5, batch_size: 16, lr: 0.01, seed: 7 };
        let stats = train_biencoder(&mut model, &pairs, &cfg);
        assert_eq!(stats.epoch_losses.len(), 5);
        let losses = &stats.epoch_losses;
        assert!(losses.last() < losses.first(), "losses: {losses:?}");
    }

    #[test]
    fn empty_pairs_do_nothing() {
        let (_, vocab, _) = setup();
        let bi_cfg = BiEncoderConfig { emb_dim: 8, hidden: 8, out_dim: 8, ..Default::default() };
        let mut model = BiEncoder::new(&vocab, bi_cfg, &mut Rng::seed_from_u64(1));
        let stats = train_biencoder(&mut model, &[], &TrainConfig::default());
        assert!(stats.epoch_losses.is_empty());
    }

    #[test]
    fn crossencoder_training_improves() {
        let (world, vocab, pairs) = setup();
        let icfg = InputConfig::default();
        let domain = world.domain("TargetX").clone();
        let ids = world.kb().domain_entities(domain.id);
        let sets: Vec<CandidateSet> = pairs
            .iter()
            .take(25)
            .map(|p| {
                let mut cand_ids = vec![p.gold];
                let mut r = Rng::seed_from_u64(p.gold.0 as u64 + 9);
                while cand_ids.len() < 6 {
                    let c = *r.choose(ids);
                    if !cand_ids.contains(&c) {
                        cand_ids.push(c);
                    }
                }
                let cands = cand_ids
                    .iter()
                    .map(|&id| {
                        let e = world.kb().entity(id);
                        (entity_bag(&vocab, &icfg, e), title_bag(&vocab, e))
                    })
                    .collect();
                CandidateSet::new(p, cands, Some(0))
            })
            .collect();
        let mut model = CrossEncoder::new(
            &vocab,
            CrossEncoderConfig { emb_dim: 16, hidden: 16, ..Default::default() },
            &mut Rng::seed_from_u64(2),
        );
        let cfg = TrainConfig { epochs: 6, batch_size: 1, lr: 0.01, seed: 11 };
        let stats = train_crossencoder(&mut model, &sets, &cfg);
        let losses = &stats.epoch_losses;
        assert!(losses.last() < losses.first(), "losses: {losses:?}");
    }

    #[test]
    fn crossencoder_skips_goldless_sets() {
        let (_, vocab, _) = setup();
        let mut model = CrossEncoder::new(
            &vocab,
            CrossEncoderConfig { emb_dim: 8, hidden: 8, ..Default::default() },
            &mut Rng::seed_from_u64(2),
        );
        let stats = train_crossencoder(&mut model, &[], &TrainConfig::default());
        assert!(stats.epoch_losses.is_empty());
    }

    #[test]
    fn divergence_rolls_back_to_finite_params() {
        let (_, vocab, pairs) = setup();
        let bi_cfg = BiEncoderConfig { emb_dim: 8, hidden: 8, out_dim: 8, ..Default::default() };
        let mut model = BiEncoder::new(&vocab, bi_cfg, &mut Rng::seed_from_u64(1));
        // An absurd learning rate reliably explodes tanh+Adam training.
        let cfg = TrainConfig { epochs: 6, batch_size: 8, lr: 1e6, seed: 3 };
        let stats = train_biencoder(&mut model, &pairs, &cfg);
        // Either it diverged (and was rolled back to finite params) or
        // it somehow survived — both must leave finite parameters.
        assert!(!model.params().has_non_finite());
        if stats.diverged {
            assert!(stats.epoch_losses.len() < cfg.epochs);
        }
    }

    #[test]
    fn injected_kill_aborts_between_epochs() {
        let (_, vocab, pairs) = setup();
        let bi_cfg = BiEncoderConfig { emb_dim: 8, hidden: 8, out_dim: 8, ..Default::default() };
        let cfg = TrainConfig { epochs: 5, batch_size: 16, lr: 0.01, seed: 7 };
        // Reference: uninterrupted run.
        let mut full = BiEncoder::new(&vocab, bi_cfg, &mut Rng::seed_from_u64(1));
        let full_stats = train_biencoder(&mut full, &pairs, &cfg);
        // Kill after 2 epochs: the error propagates and exactly 2 epochs ran.
        let mut model = BiEncoder::new(&vocab, bi_cfg, &mut Rng::seed_from_u64(1));
        let mut budget = mb_fault::KillAt::new(2);
        let err = try_train_biencoder(&mut model, &pairs, &cfg, &mut budget).unwrap_err();
        assert!(matches!(err, mb_common::Error::Aborted(_)));
        assert_eq!(budget.ticks(), 2);
        // A kill budget larger than the run never fires.
        let mut model2 = BiEncoder::new(&vocab, bi_cfg, &mut Rng::seed_from_u64(1));
        let mut roomy = mb_fault::KillAt::new(100);
        let stats = try_train_biencoder(&mut model2, &pairs, &cfg, &mut roomy).unwrap();
        assert_eq!(stats.epoch_losses, full_stats.epoch_losses);
        assert_eq!(model2.params(), full.params());
    }
}
