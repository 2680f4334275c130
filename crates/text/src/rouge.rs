//! ROUGE metrics.
//!
//! The paper uses ROUGE-1 F1 (Table XI) to show that T5-rewritten
//! mentions are closer to the gold mention distribution than
//! exact-match mentions. We implement ROUGE-N (n-gram
//! precision/recall/F1), with the same definitions as the `rouge`
//! metric the paper references.

use crate::ngram::{ngrams, overlap_count};
use crate::tokenizer::tokenize;

/// Precision / recall / F1 triple.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PrecisionRecallF1 {
    /// Matching units / candidate units.
    pub precision: f64,
    /// Matching units / reference units.
    pub recall: f64,
    /// Harmonic mean of precision and recall.
    pub f1: f64,
}

impl PrecisionRecallF1 {
    fn from_counts(hits: usize, candidate_total: usize, reference_total: usize) -> Self {
        let precision =
            if candidate_total == 0 { 0.0 } else { hits as f64 / candidate_total as f64 };
        let recall = if reference_total == 0 { 0.0 } else { hits as f64 / reference_total as f64 };
        let f1 = if precision + recall == 0.0 {
            0.0
        } else {
            2.0 * precision * recall / (precision + recall)
        };
        PrecisionRecallF1 { precision, recall, f1 }
    }
}

/// ROUGE-N between a candidate and a reference text.
pub(crate) fn rouge_n(candidate: &str, reference: &str, n: usize) -> PrecisionRecallF1 {
    let c = tokenize(candidate);
    let r = tokenize(reference);
    let cg = ngrams(&c, n);
    let rg = ngrams(&r, n);
    let hits = overlap_count(&rg, &cg);
    PrecisionRecallF1::from_counts(hits, cg.len(), rg.len())
}

/// ROUGE-1 (unigram overlap) — the paper's primary Table XI metric.
///
/// # Examples
///
/// ```
/// let s = mb_text::rouge::rouge_1("the cat", "the cat sat");
/// assert!((s.precision - 1.0).abs() < 1e-12);
/// assert!((s.recall - 2.0 / 3.0).abs() < 1e-12);
/// ```
pub fn rouge_1(candidate: &str, reference: &str) -> PrecisionRecallF1 {
    rouge_n(candidate, reference, 1)
}

/// Mean ROUGE-1 F1 over candidate/reference pairs — used for Table XI,
/// where each generated mention is compared against the gold mentions
/// of the *same entity* (how the domain actually refers to it). Returns
/// 0.0 for no pairs.
pub fn paired_rouge1_f1(pairs: &[(&str, &str)]) -> f64 {
    if pairs.is_empty() {
        return 0.0;
    }
    pairs.iter().map(|(c, r)| rouge_1(c, r).f1).sum::<f64>() / pairs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use mb_common::util::approx_eq;

    #[test]
    fn identical_texts_score_one() {
        let s = "the fourth episode";
        let r = rouge_1(s, s);
        assert_eq!(r.precision, 1.0);
        assert_eq!(r.recall, 1.0);
        assert_eq!(r.f1, 1.0);
    }

    #[test]
    fn disjoint_texts_score_zero() {
        let r = rouge_1("alpha beta", "gamma delta");
        assert_eq!(r.f1, 0.0);
    }

    #[test]
    fn known_partial_overlap() {
        // candidate: "the cat", reference: "the cat sat"
        // P = 2/2, R = 2/3, F1 = 2*1*(2/3)/(1+2/3) = 0.8
        let r = rouge_1("the cat", "the cat sat");
        assert!(approx_eq(r.precision, 1.0, 1e-12));
        assert!(approx_eq(r.recall, 2.0 / 3.0, 1e-12));
        assert!(approx_eq(r.f1, 0.8, 1e-12));
    }

    #[test]
    fn empty_inputs_are_zero_not_nan() {
        for (c, r) in [("", "a"), ("a", ""), ("", "")] {
            let s = rouge_1(c, r);
            assert!(s.f1.is_finite());
            assert_eq!(s.f1, 0.0);
        }
    }

    #[test]
    fn rouge_is_case_and_punct_insensitive() {
        let a = rouge_1("The CAT!", "the cat");
        assert_eq!(a.f1, 1.0);
    }

    #[test]
    fn bounds_hold() {
        for (c, r) in [("a b c d", "b d e"), ("x", "x y z w"), ("m n o p q", "p q")] {
            let s = rouge_1(c, r);
            assert!((0.0..=1.0).contains(&s.precision));
            assert!((0.0..=1.0).contains(&s.recall));
            assert!((0.0..=1.0).contains(&s.f1));
            assert!(s.f1 <= s.precision.max(s.recall) + 1e-12);
        }
    }

    #[test]
    fn paired_rouge_averages() {
        let pairs = vec![("a b", "a b"), ("x", "y")];
        assert!(approx_eq(paired_rouge1_f1(&pairs), 0.5, 1e-12));
        assert_eq!(paired_rouge1_f1(&[]), 0.0);
    }
}
