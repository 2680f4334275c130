//! The paper's baselines: Name Matching (Riedel et al.) and DL4EL
//! (Le & Titov). BLINK is not a separate implementation — it is the
//! two-stage linker trained *without* meta-reweighting (see
//! `crate::pipeline`).

use mb_common::Rng;
use mb_datagen::LinkedMention;
use mb_encoders::biencoder::BiEncoder;
use mb_encoders::input::TrainPair;
use mb_kb::{DomainId, EntityId, KnowledgeBase};
use mb_tensor::optim::Adam;
use mb_tensor::params::GradVec;
use mb_tensor::Tape;

/// Name Matching: link a mention to the entity whose title equals its
/// surface (restricted to the target dictionary). Ambiguous matches
/// take the first hit; failures link nothing.
pub(crate) fn name_matching_predict(
    kb: &KnowledgeBase,
    domain: DomainId,
    mention: &LinkedMention,
) -> Option<EntityId> {
    kb.by_title(&mention.surface).iter().copied().find(|&id| kb.entity(id).domain == domain)
}

/// Unnormalised accuracy (%) of Name Matching over gold mentions.
pub fn name_matching_accuracy(
    kb: &KnowledgeBase,
    domain: DomainId,
    mentions: &[LinkedMention],
) -> f64 {
    if mentions.is_empty() {
        return 0.0;
    }
    let correct =
        mentions.iter().filter(|m| name_matching_predict(kb, domain, m) == Some(m.entity)).count();
    100.0 * correct as f64 / mentions.len() as f64
}

/// DL4EL-style denoising configuration.
#[derive(Debug, Clone, Copy)]
pub struct Dl4elConfig {
    /// Assumed noise ratio ρ: the fraction of each batch treated as
    /// noise and masked out.
    pub noise_ratio: f64,
    /// Training epochs.
    pub epochs: usize,
    /// Batch size.
    pub batch_size: usize,
    /// Learning rate.
    pub lr: f64,
    /// Shuffle seed.
    pub seed: u64,
}

impl Default for Dl4elConfig {
    fn default() -> Self {
        Dl4elConfig { noise_ratio: 0.15, epochs: 8, batch_size: 32, lr: 5e-3, seed: 0 }
    }
}

/// Train a bi-encoder with DL4EL-style in-batch denoising.
///
/// Le & Titov model per-example noise indicators constrained by an
/// assumed noise ratio ρ, pushing the model to keep the cleanest
/// `1 − ρ` of each batch. We implement the hard-EM reading of that
/// constraint: on every batch, the `⌈ρ·n⌉` highest-loss examples are
/// masked out and the remainder are weighted uniformly. (The paper
/// applies DL4EL to the bi-encoder only, because the cross-encoder's
/// batch size of 1 leaves nothing to select within a batch; we follow
/// that.) As the paper observes, synthetic data has no shallow "bad
/// data" signal, so this baseline tracks plain BLINK closely.
pub(crate) fn train_biencoder_dl4el(
    model: &mut BiEncoder,
    pairs: &[TrainPair],
    cfg: &Dl4elConfig,
) -> Vec<f64> {
    let mut epoch_losses = Vec::new();
    if pairs.len() < 2 {
        return epoch_losses;
    }
    let mut opt = Adam::new(cfg.lr);
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let mut order: Vec<usize> = (0..pairs.len()).collect();
    for _ in 0..cfg.epochs {
        rng.shuffle(&mut order);
        let mut losses = Vec::new();
        for chunk in order.chunks(cfg.batch_size.max(2)) {
            if chunk.len() < 2 {
                continue;
            }
            let batch: Vec<TrainPair> = chunk.iter().map(|&i| pairs[i].clone()).collect();
            let mut tape = Tape::new();
            let fwd = model.forward_losses(&mut tape, &batch);
            let per = tape.value(fwd.losses).data().to_vec();
            // Hard-EM selection: drop the ⌈ρ n⌉ worst.
            let n = per.len();
            let drop = ((cfg.noise_ratio * n as f64).ceil() as usize).min(n.saturating_sub(1));
            let order_desc = mb_common::util::argsort_desc(&per);
            let mut weights = vec![1.0 / (n - drop) as f64; n];
            for &bad in order_desc.iter().take(drop) {
                weights[bad] = 0.0;
            }
            let weighted = tape.weighted_sum(fwd.losses, weights);
            let loss_value = tape.value(weighted).item();
            let grads = tape.backward(weighted);
            let gv: GradVec = model.params().collect_grads(&fwd.vars, grads);
            opt.step(model.params_mut(), &gv);
            losses.push(loss_value);
        }
        epoch_losses.push(mb_common::util::mean(&losses));
    }
    epoch_losses
}

#[cfg(test)]
mod tests {
    use super::*;
    use mb_datagen::mentions::generate_mentions;
    use mb_datagen::{World, WorldConfig};
    use mb_encoders::biencoder::BiEncoderConfig;
    use mb_encoders::input::{build_vocab, InputConfig};
    use mb_text::OverlapCategory;

    fn setup() -> (World, Vec<LinkedMention>) {
        let world = World::generate(WorldConfig::tiny(47));
        let domain = world.domain("TargetX").clone();
        let mut rng = Rng::seed_from_u64(12);
        let ms = generate_mentions(&world, &domain, 300, &mut rng);
        (world, ms.mentions)
    }

    #[test]
    fn name_matching_wins_on_high_overlap_only() {
        let (world, mentions) = setup();
        let domain = world.domain("TargetX").id;
        let high: Vec<LinkedMention> = mentions
            .iter()
            .filter(|m| m.category == OverlapCategory::HighOverlap)
            .cloned()
            .collect();
        let low: Vec<LinkedMention> = mentions
            .iter()
            .filter(|m| m.category == OverlapCategory::LowOverlap)
            .cloned()
            .collect();
        let acc_high = name_matching_accuracy(world.kb(), domain, &high);
        let acc_low = name_matching_accuracy(world.kb(), domain, &low);
        assert!(acc_high > 90.0, "high-overlap accuracy {acc_high}");
        assert!(acc_low < 5.0, "low-overlap accuracy {acc_low}");
    }

    #[test]
    fn name_matching_overall_is_weak() {
        let (world, mentions) = setup();
        let domain = world.domain("TargetX").id;
        let acc = name_matching_accuracy(world.kb(), domain, &mentions);
        // Low Overlap is the majority category, so overall accuracy is
        // bounded well below 50 (paper: 8–20%).
        assert!(acc < 45.0, "name matching too strong: {acc}");
        assert!(acc > 3.0, "name matching implausibly weak: {acc}");
    }

    #[test]
    fn name_matching_empty_is_zero() {
        let (world, _) = setup();
        let domain = world.domain("TargetX").id;
        assert_eq!(name_matching_accuracy(world.kb(), domain, &[]), 0.0);
    }

    #[test]
    fn dl4el_trains_and_reduces_loss() {
        let (world, mentions) = setup();
        let vocab = build_vocab(world.kb(), [], 1);
        let icfg = InputConfig::default();
        let pairs: Vec<TrainPair> = mentions
            .iter()
            .take(80)
            .map(|m| TrainPair::from_mention(&vocab, &icfg, world.kb(), m))
            .collect();
        let mut model = BiEncoder::new(
            &vocab,
            BiEncoderConfig { emb_dim: 16, hidden: 16, out_dim: 16, ..Default::default() },
            &mut Rng::seed_from_u64(1),
        );
        let losses = train_biencoder_dl4el(
            &mut model,
            &pairs,
            &Dl4elConfig { epochs: 6, batch_size: 16, lr: 0.01, ..Default::default() },
        );
        assert_eq!(losses.len(), 6);
        assert!(losses.last().unwrap() < losses.first().unwrap());
        assert!(!model.params().has_non_finite());
    }

    #[test]
    fn dl4el_handles_tiny_input() {
        let (world, mentions) = setup();
        let vocab = build_vocab(world.kb(), [], 1);
        let icfg = InputConfig::default();
        let pairs: Vec<TrainPair> = mentions
            .iter()
            .take(1)
            .map(|m| TrainPair::from_mention(&vocab, &icfg, world.kb(), m))
            .collect();
        let mut model = BiEncoder::new(
            &vocab,
            BiEncoderConfig { emb_dim: 8, hidden: 8, out_dim: 8, ..Default::default() },
            &mut Rng::seed_from_u64(1),
        );
        let losses = train_biencoder_dl4el(&mut model, &pairs, &Dl4elConfig::default());
        assert!(losses.is_empty());
    }
}
