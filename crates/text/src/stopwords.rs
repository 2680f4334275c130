//! A small English stopword list shared by TF-IDF and the rewriter's
//! salience features. Deterministic and compiled in; the synthetic
//! corpus uses the same function words, so the list transfers.

/// Function words and generic wiki-genre connective verbs excluded
/// from salience scoring (kept sorted for binary search).
pub(crate) const STOPWORDS: &[&str] = &[
    "a",
    "an",
    "and",
    "appeared",
    "are",
    "as",
    "associated",
    "at",
    "be",
    "been",
    "belongs",
    "but",
    "by",
    "during",
    "encountered",
    "faced",
    "first",
    "for",
    "from",
    "had",
    "has",
    "have",
    "he",
    "held",
    "her",
    "his",
    "in",
    "into",
    "is",
    "it",
    "its",
    "known",
    "near",
    "of",
    "on",
    "or",
    "remembered",
    "seen",
    "shaped",
    "she",
    "that",
    "the",
    "their",
    "them",
    "they",
    "this",
    "to",
    "together",
    "turned",
    "was",
    "were",
    "which",
    "who",
    "will",
    "with",
];

/// True if `token` (already lowercased) is a stopword.
pub fn is_stopword(token: &str) -> bool {
    STOPWORDS.binary_search(&token).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn list_is_sorted_for_binary_search() {
        let mut sorted = STOPWORDS.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, STOPWORDS, "STOPWORDS must stay sorted");
    }

    #[test]
    fn membership() {
        assert!(is_stopword("the"));
        assert!(is_stopword("with"));
        assert!(!is_stopword("dragon"));
        assert!(!is_stopword(""));
    }
}
