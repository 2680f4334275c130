//! Corpus-level TF-IDF statistics.
//!
//! The mention rewriter (the T5 substitute in `mb-nlg`) scores candidate
//! summary tokens by, among other features, their TF-IDF salience in the
//! entity description relative to the domain corpus. The *unsupervised
//! denoising adaptation* that upgrades `syn` data to `syn*` is exactly a
//! re-estimation of these statistics on unlabeled target-domain text.

use crate::tokenizer::tokenize;
use std::collections::HashMap;

/// Document-frequency statistics over a corpus.
#[derive(Debug, Clone, Default)]
pub struct TfIdf {
    doc_freq: HashMap<String, u64>,
    num_docs: u64,
}

impl TfIdf {
    /// Empty statistics (every idf falls back to the max).
    pub fn new() -> Self {
        TfIdf::default()
    }

    /// Fit from an iterator of documents.
    pub fn fit<'a>(docs: impl IntoIterator<Item = &'a str>) -> Self {
        let mut s = TfIdf::new();
        for d in docs {
            s.add_document(d);
        }
        s
    }

    /// Add one document's token set to the statistics.
    pub fn add_document(&mut self, doc: &str) {
        self.num_docs += 1;
        let mut seen = std::collections::BTreeSet::new();
        for t in tokenize(doc) {
            if seen.insert(t.clone()) {
                *self.doc_freq.entry(t).or_insert(0) += 1;
            }
        }
    }

    /// Merge another corpus' statistics into this one (used by the
    /// target-domain adaptation step: source stats + target stats).
    pub fn merge(&mut self, other: &TfIdf) {
        self.num_docs += other.num_docs;
        for (t, c) in &other.doc_freq {
            *self.doc_freq.entry(t.clone()).or_insert(0) += c;
        }
    }

    /// Number of documents fitted.
    pub fn num_docs(&self) -> u64 {
        self.num_docs
    }

    /// Smoothed inverse document frequency:
    /// `ln((1 + N) / (1 + df)) + 1`.
    pub fn idf(&self, token: &str) -> f64 {
        let df = self.doc_freq.get(token).copied().unwrap_or(0);
        ((1.0 + self.num_docs as f64) / (1.0 + df as f64)).ln() + 1.0
    }

    /// Document frequency of a token.
    pub fn df(&self, token: &str) -> u64 {
        self.doc_freq.get(token).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idf_decreases_with_frequency() {
        let s = TfIdf::fit(["the dragon", "the wizard", "the castle"]);
        assert!(s.idf("the") < s.idf("dragon"));
        assert!(s.idf("dragon") <= s.idf("neverseen"));
        assert_eq!(s.df("the"), 3);
        assert_eq!(s.df("dragon"), 1);
    }

    #[test]
    fn df_counts_documents_not_occurrences() {
        let s = TfIdf::fit(["dragon dragon dragon"]);
        assert_eq!(s.df("dragon"), 1);
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = TfIdf::fit(["dragon"]);
        let b = TfIdf::fit(["dragon", "wizard"]);
        a.merge(&b);
        assert_eq!(a.num_docs(), 3);
        assert_eq!(a.df("dragon"), 2);
        assert_eq!(a.df("wizard"), 1);
    }

    #[test]
    fn empty_stats_are_finite() {
        let s = TfIdf::new();
        assert!(s.idf("anything").is_finite());
    }
}
