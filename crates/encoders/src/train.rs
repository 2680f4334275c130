//! Plain (unweighted) trainers — the BLINK baseline path.
//!
//! MetaBLINK's reweighted training lives in `mb-core`; these trainers
//! implement standard mini-batch training used when BLINK is trained
//! directly on seed, syn, or syn+seed data.

use crate::biencoder::BiEncoder;
use crate::crossencoder::{CandidateSet, CrossEncoder};
use crate::input::TrainPair;
use mb_common::storage::{NoBudget, StepBudget};
use mb_common::{Result, Rng};
use mb_tensor::optim::{Adam, Optimizer};

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

impl TrainStats {
    /// Loss of the final epoch (NaN if no epochs ran).
    pub fn final_loss(&self) -> f64 {
        self.epoch_losses.last().copied().unwrap_or(f64::NAN)
    }

    /// True if the last epoch improved on the first.
    pub fn improved(&self) -> bool {
        match (self.epoch_losses.first(), self.epoch_losses.last()) {
            (Some(a), Some(b)) => b < a,
            _ => false,
        }
    }
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
    let mut stats = TrainStats::default();
    if pairs.is_empty() {
        return Ok(stats);
    }
    let mut opt = Adam::new(cfg.lr);
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let mut order: Vec<usize> = (0..pairs.len()).collect();
    let mut checkpoint = model.params().clone();
    for _ in 0..cfg.epochs {
        budget.tick()?;
        rng.shuffle(&mut order);
        let mut losses = Vec::new();
        for chunk in order.chunks(cfg.batch_size.max(2)) {
            if chunk.len() < 2 && model.config().exclude_gold_in_loss {
                continue;
            }
            let batch: Vec<TrainPair> = chunk.iter().map(|&i| pairs[i].clone()).collect();
            losses.push(model.train_step(&batch, &mut opt));
        }
        // Failure injection guard: roll back and stop on divergence.
        if model.params().has_non_finite() {
            model.set_params(checkpoint).expect("the model's own snapshot");
            stats.diverged = true;
            return Ok(stats);
        }
        checkpoint = model.params().clone();
        stats.epoch_losses.push(mb_common::util::mean(&losses));
    }
    Ok(stats)
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
    let mut stats = TrainStats::default();
    let trainable: Vec<&CandidateSet> =
        sets.iter().filter(|s| s.gold_index.is_some() && !s.is_empty()).collect();
    if trainable.is_empty() {
        return Ok(stats);
    }
    let mut opt = Adam::new(cfg.lr);
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let mut order: Vec<usize> = (0..trainable.len()).collect();
    let mut checkpoint = model.params().clone();
    for _ in 0..cfg.epochs {
        budget.tick()?;
        rng.shuffle(&mut order);
        let mut losses = Vec::new();
        for &i in &order {
            losses.push(model.train_step(trainable[i], &mut opt));
        }
        if model.params().has_non_finite() {
            model.set_params(checkpoint).expect("the model's own snapshot");
            stats.diverged = true;
            return Ok(stats);
        }
        checkpoint = model.params().clone();
        stats.epoch_losses.push(mb_common::util::mean(&losses));
    }
    Ok(stats)
}

/// Exponential learning-rate decay helper for longer runs.
pub fn decay_lr(opt: &mut dyn Optimizer, factor: f64) {
    let lr = opt.learning_rate();
    opt.set_learning_rate(lr * factor);
}

/// Hard-negative mining round for the bi-encoder (the second training
/// stage of the original BLINK recipe, which the paper inherits): after
/// plain in-batch training, every batch is augmented with the
/// top-scoring *wrong* entities for its mentions, retrieved with the
/// current model, and the loss becomes softmax cross-entropy over the
/// rectangular `[n, n + negatives]` score matrix.
///
/// `pool_bags`/`pool_ids` hold the candidate dictionary. Returns
/// per-epoch losses; rolls back and flags on divergence.
pub fn train_biencoder_hard_negatives(
    model: &mut BiEncoder,
    pairs: &[TrainPair],
    pool_bags: &[Vec<u32>],
    pool_ids: &[mb_kb::EntityId],
    negatives_per_pair: usize,
    cfg: &TrainConfig,
) -> TrainStats {
    try_train_biencoder_hard_negatives(
        model,
        pairs,
        pool_bags,
        pool_ids,
        negatives_per_pair,
        cfg,
        &mut NoBudget,
    )
    .expect("NoBudget never aborts")
}

/// [`train_biencoder_hard_negatives`] with a crash-injection seam;
/// `budget` is ticked once before every epoch.
///
/// # Errors
/// Propagates the budget's error (conventionally [`mb_common::Error::Aborted`]).
#[allow(clippy::too_many_arguments)]
pub fn try_train_biencoder_hard_negatives(
    model: &mut BiEncoder,
    pairs: &[TrainPair],
    pool_bags: &[Vec<u32>],
    pool_ids: &[mb_kb::EntityId],
    negatives_per_pair: usize,
    cfg: &TrainConfig,
    budget: &mut dyn StepBudget,
) -> Result<TrainStats> {
    assert_eq!(pool_bags.len(), pool_ids.len(), "pool bags/ids misaligned");
    let mut stats = TrainStats::default();
    if pairs.is_empty() || pool_bags.is_empty() || negatives_per_pair == 0 {
        return Ok(stats);
    }
    let mut opt = Adam::new(cfg.lr);
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let mut order: Vec<usize> = (0..pairs.len()).collect();
    let mut checkpoint = model.params().clone();
    for _ in 0..cfg.epochs {
        budget.tick()?;
        // Re-embed the pool with the current model each epoch.
        let pool_vecs = model.embed_entities(pool_bags);
        rng.shuffle(&mut order);
        let mut losses = Vec::new();
        for chunk in order.chunks(cfg.batch_size.max(2)) {
            if chunk.len() < 2 {
                continue;
            }
            let batch: Vec<TrainPair> = chunk.iter().map(|&i| pairs[i].clone()).collect();
            let mention_bags: Vec<Vec<u32>> = batch.iter().map(|p| p.mention.clone()).collect();
            let queries = model.embed_mentions(&mention_bags);
            let mut extra: Vec<Vec<u32>> = Vec::new();
            for (row, pair) in batch.iter().enumerate() {
                let q = queries.row(row);
                let scores: Vec<f64> = (0..pool_vecs.rows())
                    .map(|i| pool_vecs.row(i).iter().zip(q).map(|(a, b)| a * b).sum())
                    .collect();
                let mut added = 0;
                for idx in mb_common::util::top_k_desc(&scores, negatives_per_pair + 1) {
                    if added >= negatives_per_pair {
                        break;
                    }
                    if pool_ids[idx] == pair.gold {
                        continue;
                    }
                    extra.push(pool_bags[idx].clone());
                    added += 1;
                }
            }
            losses.push(model.train_step_with_negatives(&batch, extra, &mut opt));
        }
        if model.params().has_non_finite() {
            model.set_params(checkpoint).expect("the model's own snapshot");
            stats.diverged = true;
            return Ok(stats);
        }
        checkpoint = model.params().clone();
        stats.epoch_losses.push(mb_common::util::mean(&losses));
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::biencoder::BiEncoderConfig;
    use crate::crossencoder::CrossEncoderConfig;
    use crate::input::{
        build_vocab, entity_bag, entity_bag as mb_encoders_entity_bag, title_bag, InputConfig,
    };
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
        assert!(stats.improved(), "losses: {:?}", stats.epoch_losses);
    }

    #[test]
    fn empty_pairs_do_nothing() {
        let (_, vocab, _) = setup();
        let bi_cfg = BiEncoderConfig { emb_dim: 8, hidden: 8, out_dim: 8, ..Default::default() };
        let mut model = BiEncoder::new(&vocab, bi_cfg, &mut Rng::seed_from_u64(1));
        let stats = train_biencoder(&mut model, &[], &TrainConfig::default());
        assert!(stats.epoch_losses.is_empty());
        assert!(stats.final_loss().is_nan());
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
        assert!(stats.improved(), "losses: {:?}", stats.epoch_losses);
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
    fn hard_negative_mining_improves_in_domain_ranking() {
        let (world, vocab, pairs) = setup();
        let domain = world.domain("TargetX").clone();
        let ids = world.kb().domain_entities(domain.id).to_vec();
        let icfg = InputConfig::default();
        let pool_bags: Vec<Vec<u32>> = ids
            .iter()
            .map(|&id| mb_encoders_entity_bag(&vocab, &icfg, world.kb().entity(id)))
            .collect();
        let bi_cfg = BiEncoderConfig { emb_dim: 16, hidden: 16, out_dim: 16, ..Default::default() };
        let mut model = BiEncoder::new(&vocab, bi_cfg, &mut Rng::seed_from_u64(4));
        // Plain warm-up, then a hard-negative round.
        train_biencoder(
            &mut model,
            &pairs,
            &TrainConfig { epochs: 3, batch_size: 16, lr: 0.01, seed: 1 },
        );
        let recall_before = recall_at_k(&model, &vocab, &pairs, &pool_bags, &ids, 8);
        let stats = train_biencoder_hard_negatives(
            &mut model,
            &pairs,
            &pool_bags,
            &ids,
            2,
            &TrainConfig { epochs: 3, batch_size: 8, lr: 5e-3, seed: 2 },
        );
        assert!(!stats.diverged);
        assert_eq!(stats.epoch_losses.len(), 3);
        let recall_after = recall_at_k(&model, &vocab, &pairs, &pool_bags, &ids, 8);
        assert!(
            recall_after + 0.05 >= recall_before,
            "hard negatives hurt recall: {recall_before:.3} -> {recall_after:.3}"
        );
    }

    /// Train-set recall@k of the bi-encoder alone.
    fn recall_at_k(
        model: &BiEncoder,
        _vocab: &Vocab,
        pairs: &[TrainPair],
        pool_bags: &[Vec<u32>],
        ids: &[mb_kb::EntityId],
        k: usize,
    ) -> f64 {
        let pool = model.embed_entities(pool_bags);
        let mut hits = 0;
        for p in pairs {
            let q = model.embed_mentions(std::slice::from_ref(&p.mention));
            let scores: Vec<f64> = (0..pool.rows())
                .map(|i| pool.row(i).iter().zip(q.row(0)).map(|(a, b)| a * b).sum())
                .collect();
            let top = mb_common::util::top_k_desc(&scores, k);
            if top.iter().any(|&i| ids[i] == p.gold) {
                hits += 1;
            }
        }
        hits as f64 / pairs.len() as f64
    }

    #[test]
    fn hard_negatives_degenerate_inputs() {
        let (_, vocab, pairs) = setup();
        let bi_cfg = BiEncoderConfig { emb_dim: 8, hidden: 8, out_dim: 8, ..Default::default() };
        let mut model = BiEncoder::new(&vocab, bi_cfg, &mut Rng::seed_from_u64(4));
        let s1 =
            train_biencoder_hard_negatives(&mut model, &[], &[], &[], 2, &TrainConfig::default());
        assert!(s1.epoch_losses.is_empty());
        let s2 = train_biencoder_hard_negatives(
            &mut model,
            &pairs[..4],
            &[vec![1, 2]],
            &[mb_kb::EntityId(0)],
            0,
            &TrainConfig::default(),
        );
        assert!(s2.epoch_losses.is_empty());
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

    #[test]
    fn decay_helper_scales_lr() {
        let mut opt = Adam::new(0.1);
        decay_lr(&mut opt, 0.5);
        assert!((opt.learning_rate() - 0.05).abs() < 1e-12);
    }
}
