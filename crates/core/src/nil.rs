//! NIL prediction — one of the paper's named future-work extensions
//! (Section VIII): recognising mentions whose entity is *not* in the
//! knowledge base instead of force-linking them.
//!
//! The standard two-stage recipe is implemented: a mention is predicted
//! NIL when the re-ranked top score falls below a threshold calibrated
//! on held-out data. The calibration picks the threshold that maximises
//! linking F1 on a development set containing both linkable and NIL
//! mentions.

use crate::linker::TwoStageLinker;
use mb_datagen::LinkedMention;
use mb_kb::EntityId;

/// A linking decision with NIL awareness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NilDecision {
    /// Linked to an entity with the given (cross-encoder) score.
    Linked(EntityId, f64),
    /// Predicted out-of-KB.
    Nil,
}

/// A NIL-aware linker wrapping a trained two-stage linker.
pub struct NilAwareLinker<'a> {
    linker: &'a TwoStageLinker<'a>,
    threshold: f64,
}

/// Evaluation counts for NIL-aware linking.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NilMetrics {
    /// Linkable mentions correctly linked to their gold entity.
    pub correct_links: usize,
    /// Linkable mentions linked to a wrong entity.
    pub wrong_links: usize,
    /// Linkable mentions wrongly predicted NIL (missed links).
    pub missed_links: usize,
    /// NIL mentions correctly predicted NIL.
    pub correct_nil: usize,
    /// NIL mentions wrongly linked to some entity.
    pub false_links: usize,
}

impl NilMetrics {
    /// Precision of emitted links: correct / (correct + wrong + false).
    pub fn precision(&self) -> f64 {
        let emitted = self.correct_links + self.wrong_links + self.false_links;
        if emitted == 0 {
            0.0
        } else {
            self.correct_links as f64 / emitted as f64
        }
    }

    /// Recall over linkable mentions.
    pub fn recall(&self) -> f64 {
        let linkable = self.correct_links + self.wrong_links + self.missed_links;
        if linkable == 0 {
            0.0
        } else {
            self.correct_links as f64 / linkable as f64
        }
    }

    /// Harmonic mean of precision and recall.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// NIL detection accuracy (over NIL mentions only).
    pub fn nil_accuracy(&self) -> f64 {
        let nils = self.correct_nil + self.false_links;
        if nils == 0 {
            0.0
        } else {
            self.correct_nil as f64 / nils as f64
        }
    }
}

impl<'a> NilAwareLinker<'a> {
    /// Wrap a linker with a fixed score threshold.
    pub fn with_threshold(linker: &'a TwoStageLinker<'a>, threshold: f64) -> Self {
        NilAwareLinker { linker, threshold }
    }

    /// Calibrate the threshold on a development set: `dev_linkable`
    /// must have in-KB golds; `dev_nil` are mentions known to be
    /// out-of-KB (their `entity` field is ignored). Scans the observed
    /// score range for the F1-maximising threshold.
    pub fn calibrate(
        linker: &'a TwoStageLinker<'a>,
        dev_linkable: &[LinkedMention],
        dev_nil: &[LinkedMention],
        grid: usize,
    ) -> Self {
        // Collect (top score, correctness, is_nil) triples once.
        let mut observations: Vec<(f64, bool, bool)> = Vec::new();
        for (mentions, is_nil) in [(dev_linkable, false), (dev_nil, true)] {
            for m in mentions {
                if let Some((score, id)) = top_scored(linker, m) {
                    observations.push((score, !is_nil && id == m.entity, is_nil));
                }
            }
        }
        if observations.is_empty() {
            return NilAwareLinker { linker, threshold: f64::NEG_INFINITY };
        }
        let lo = observations.iter().map(|o| o.0).fold(f64::INFINITY, f64::min);
        let hi = observations.iter().map(|o| o.0).fold(f64::NEG_INFINITY, f64::max);
        let mut best = (f64::NEG_INFINITY, -1.0);
        for g in 0..=grid.max(1) {
            let t = lo + (hi - lo) * g as f64 / grid.max(1) as f64;
            let mut m = NilMetrics::default();
            for &(score, correct, is_nil) in &observations {
                let links = score >= t;
                match (links, is_nil, correct) {
                    (true, false, true) => m.correct_links += 1,
                    (true, false, false) => m.wrong_links += 1,
                    (false, false, _) => m.missed_links += 1,
                    (true, true, _) => m.false_links += 1,
                    (false, true, _) => m.correct_nil += 1,
                }
            }
            if m.f1() > best.1 {
                best = (t, m.f1());
            }
        }
        NilAwareLinker { linker, threshold: best.0 }
    }

    /// The calibrated threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// NIL-aware prediction.
    pub fn predict(&self, mention: &LinkedMention) -> NilDecision {
        match top_scored(self.linker, mention) {
            Some((score, id)) if score >= self.threshold => NilDecision::Linked(id, score),
            _ => NilDecision::Nil,
        }
    }

    /// Evaluate on a mixed test set.
    pub fn evaluate(&self, linkable: &[LinkedMention], nil: &[LinkedMention]) -> NilMetrics {
        let mut m = NilMetrics::default();
        for mention in linkable {
            match self.predict(mention) {
                NilDecision::Linked(id, _) if id == mention.entity => m.correct_links += 1,
                NilDecision::Linked(_, _) => m.wrong_links += 1,
                NilDecision::Nil => m.missed_links += 1,
            }
        }
        for mention in nil {
            match self.predict(mention) {
                NilDecision::Linked(_, _) => m.false_links += 1,
                NilDecision::Nil => m.correct_nil += 1,
            }
        }
        m
    }
}

/// Top cross-encoder score and entity for a mention, as
/// [`TwoStageLinker::link`] ranks it — the NIL threshold is applied to
/// the model that answers `link`, whatever its quantization.
fn top_scored(linker: &TwoStageLinker<'_>, mention: &LinkedMention) -> Option<(f64, EntityId)> {
    let result = linker.link(mention).ok()?;
    let best = mb_common::util::argmax(&result.rerank_scores)?;
    Some((result.rerank_scores[best], result.retrieved[best].0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linker::LinkerConfig;
    use crate::pipeline::{train, DataSource, MetaBlinkConfig, Method};
    use mb_common::Rng;
    use mb_datagen::mentions::generate_mentions;
    use mb_datagen::{World, WorldConfig};
    use mb_encoders::input::build_vocab;

    /// Build a trained linker over TargetX plus a pool of "NIL"
    /// mentions: mentions whose gold entity is in a *different* domain
    /// (so they are genuinely out of the dictionary).
    fn fixture() -> (
        World,
        mb_text::Vocab,
        crate::pipeline::TrainedLinker,
        Vec<LinkedMention>,
        Vec<LinkedMention>,
    ) {
        let world = World::generate(WorldConfig::tiny(71));
        let vocab = build_vocab(world.kb(), [], 1);
        let domain = world.domain("TargetX").clone();
        let mut rng = Rng::seed_from_u64(4);
        let ms = generate_mentions(&world, &domain, 200, &mut rng);
        // NIL pool: mentions from SrcA, evaluated against TargetX's KB.
        let src = world.domain("SrcA").clone();
        let nil = generate_mentions(&world, &src, 80, &mut rng).mentions;
        // Train quickly on half the in-domain mentions via the pipeline
        // (Seed source with a custom seed set).
        let (train_half, rest) = ms.mentions.split_at(120);
        let ctx_like_syn =
            mb_nlg::SynDataset { domain: domain.name.clone(), exact: vec![], rewritten: vec![] };
        let task = crate::pipeline::TargetTask {
            world: &world,
            vocab: &vocab,
            domain: world.domain("TargetX"),
            syn: &ctx_like_syn,
            syn_star: &ctx_like_syn,
            seed: train_half,
            general: &[],
        };
        let model = train(&task, Method::Blink, DataSource::Seed, &MetaBlinkConfig::fast_test());
        (world.clone(), vocab, model, rest.to_vec(), nil)
    }

    #[test]
    fn calibrated_linker_beats_never_nil_on_mixed_f1() {
        let (world, vocab, model, test, nil) = fixture();
        let domain = world.domain("TargetX");
        let linker = TwoStageLinker::new(
            &model.bi,
            &model.cross,
            &vocab,
            world.kb(),
            world.kb().domain_entities(domain.id),
            LinkerConfig { k: 16, ..model.linker_cfg },
        );
        let (dev_link, test_link) = test.split_at(test.len() / 2);
        let (dev_nil, test_nil) = nil.split_at(nil.len() / 2);
        let calibrated = NilAwareLinker::calibrate(&linker, dev_link, dev_nil, 40);
        let never_nil = NilAwareLinker::with_threshold(&linker, f64::NEG_INFINITY);
        let m_cal = calibrated.evaluate(test_link, test_nil);
        let m_never = never_nil.evaluate(test_link, test_nil);
        // The never-NIL policy false-links every NIL mention.
        assert_eq!(m_never.correct_nil, 0);
        assert_eq!(m_never.false_links, test_nil.len());
        assert!(
            m_cal.f1() + 1e-9 >= m_never.f1(),
            "calibrated F1 {:.3} < never-NIL F1 {:.3}",
            m_cal.f1(),
            m_never.f1()
        );
        // And it actually detects some NILs.
        assert!(m_cal.correct_nil > 0, "calibrated linker never predicts NIL");
    }

    #[test]
    fn metrics_identities() {
        let m = NilMetrics {
            correct_links: 6,
            wrong_links: 2,
            missed_links: 2,
            correct_nil: 5,
            false_links: 5,
        };
        assert!((m.precision() - 6.0 / 13.0).abs() < 1e-12);
        assert!((m.recall() - 0.6).abs() < 1e-12);
        assert!((m.nil_accuracy() - 0.5).abs() < 1e-12);
        assert!(m.f1() > 0.0 && m.f1() < 1.0);
        let zero = NilMetrics::default();
        assert_eq!(zero.f1(), 0.0);
        assert_eq!(zero.precision(), 0.0);
    }

    #[test]
    fn extreme_thresholds_behave() {
        let (world, vocab, model, test, nil) = fixture();
        let domain = world.domain("TargetX");
        let linker = TwoStageLinker::new(
            &model.bi,
            &model.cross,
            &vocab,
            world.kb(),
            world.kb().domain_entities(domain.id),
            LinkerConfig { k: 8, ..model.linker_cfg },
        );
        let always_nil = NilAwareLinker::with_threshold(&linker, f64::INFINITY);
        let m = always_nil.evaluate(&test, &nil);
        assert_eq!(m.correct_links + m.wrong_links + m.false_links, 0);
        assert_eq!(m.correct_nil, nil.len());
        assert_eq!(m.missed_links, test.len());
    }
}
