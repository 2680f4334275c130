//! Token salience features for the extractive rewriter.

use mb_text::stopwords::is_stopword;
use mb_text::tfidf::TfIdf;
use mb_text::tokenizer::tokenize;
use std::collections::BTreeSet;

/// Number of features per candidate token.
pub(crate) const NUM_FEATURES: usize = 6;

/// A description token considered for inclusion in a rewritten mention.
#[derive(Debug, Clone)]
pub struct TokenCandidate {
    /// The token string.
    pub token: String,
    /// Index of first occurrence in the description.
    pub first_position: usize,
    /// Feature vector (length `NUM_FEATURES`).
    pub features: [f64; NUM_FEATURES],
}

/// Extract candidate tokens of a description with their features.
///
/// Stopwords and repeats are collapsed; candidates are returned in
/// first-occurrence order.
pub fn candidates(description: &str, title: &str, stats: &TfIdf) -> Vec<TokenCandidate> {
    let tokens = tokenize(description);
    if tokens.is_empty() {
        return Vec::new();
    }
    let title_tokens: BTreeSet<String> = tokenize(title).into_iter().collect();
    let n = tokens.len() as f64;
    // Term frequencies.
    let mut tf: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
    for t in &tokens {
        *tf.entry(t.as_str()).or_insert(0) += 1;
    }
    // Max TF-IDF for normalisation.
    let max_w = tokens.iter().map(|t| tf[t.as_str()] as f64 * stats.idf(t)).fold(1e-12, f64::max);

    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    for (pos, t) in tokens.iter().enumerate() {
        if is_stopword(t) || !seen.insert(t.clone()) {
            continue;
        }
        let tfidf = tf[t.as_str()] as f64 * stats.idf(t) / max_w;
        let in_title = if title_tokens.contains(t) { 1.0 } else { 0.0 };
        let early = 1.0 - pos as f64 / n;
        let repeated = if tf[t.as_str()] > 1 { 1.0 } else { 0.0 };
        // Rarity: idf relative to the maximum possible idf of this
        // corpus (a never-seen token). Corpus-frequent connective
        // jargon scores low — but only once the statistics have seen
        // the corpus, which is exactly what the target adaptation
        // (syn → syn*) contributes.
        let max_idf = ((1.0 + stats.num_docs() as f64).ln() + 1.0).max(1.0);
        let rarity = (stats.idf(t) / max_idf).min(1.0);
        let length = (t.chars().count() as f64 / 12.0).min(1.0);
        out.push(TokenCandidate {
            token: t.clone(),
            first_position: pos,
            features: [tfidf, in_title, early, repeated, rarity, length],
        });
    }
    out
}

/// Label a candidate: does it appear in the gold mention surface?
pub(crate) fn label_for(candidate: &TokenCandidate, gold_mention: &str) -> f64 {
    let gold: BTreeSet<String> = tokenize(gold_mention).into_iter().collect();
    if gold.contains(&candidate.token) {
        1.0
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> TfIdf {
        TfIdf::fit([
            "the dragon guards the dark temple",
            "the knight rode to the temple",
            "a dragon breathes fire in the mountains",
            "the village by the river",
        ])
    }

    #[test]
    fn excludes_stopwords_and_dedups() {
        let c = candidates("the dragon and the dragon temple", "Dragon King", &stats());
        let toks: Vec<&str> = c.iter().map(|x| x.token.as_str()).collect();
        assert_eq!(toks, vec!["dragon", "temple"]);
    }

    #[test]
    fn features_are_bounded() {
        let c = candidates(
            "the dragon guards a gleaming crystal near the temple ruins",
            "Crystal (item)",
            &stats(),
        );
        for cand in &c {
            for f in cand.features {
                assert!((0.0..=1.0).contains(&f), "feature {f} out of range for {:?}", cand.token);
            }
        }
        // in_title fires for "crystal".
        let crystal = c.iter().find(|x| x.token == "crystal").unwrap();
        assert_eq!(crystal.features[1], 1.0);
        let dragon = c.iter().find(|x| x.token == "dragon").unwrap();
        assert_eq!(dragon.features[1], 0.0);
    }

    #[test]
    fn repeated_tokens_flagged() {
        let c = candidates("dragon dragon temple", "x", &stats());
        let dragon = c.iter().find(|x| x.token == "dragon").unwrap();
        assert_eq!(dragon.features[3], 1.0);
        let temple = c.iter().find(|x| x.token == "temple").unwrap();
        assert_eq!(temple.features[3], 0.0);
    }

    #[test]
    fn labels_match_gold_tokens() {
        let c = candidates("the shadow crystal glows", "the shadow item", &stats());
        let shadow = c.iter().find(|x| x.token == "shadow").unwrap();
        let glows = c.iter().find(|x| x.token == "glows").unwrap();
        assert_eq!(label_for(shadow, "the shadow item"), 1.0);
        assert_eq!(label_for(glows, "the shadow item"), 0.0);
    }

    #[test]
    fn empty_description_yields_nothing() {
        assert!(candidates("", "t", &stats()).is_empty());
        assert!(candidates("the a an", "t", &stats()).is_empty());
    }
}
