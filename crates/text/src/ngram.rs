//! N-gram extraction over token sequences.

/// All contiguous `n`-grams of a token slice, as joined strings.
///
/// Returns an empty vector when `n == 0` or the sequence is shorter
/// than `n`.
pub(crate) fn ngrams(tokens: &[String], n: usize) -> Vec<String> {
    if n == 0 || tokens.len() < n {
        return Vec::new();
    }
    tokens.windows(n).map(|w| w.join(" ")).collect()
}

/// Multiset intersection size of two n-gram lists — the numerator of
/// ROUGE-N.
pub(crate) fn overlap_count(a: &[String], b: &[String]) -> usize {
    use std::collections::HashMap;
    let mut counts: HashMap<&str, usize> = HashMap::new();
    for g in a {
        *counts.entry(g.as_str()).or_insert(0) += 1;
    }
    let mut hits = 0;
    for g in b {
        if let Some(c) = counts.get_mut(g.as_str()) {
            if *c > 0 {
                *c -= 1;
                hits += 1;
            }
        }
    }
    hits
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn unigrams_and_bigrams() {
        let t = toks("a b c");
        assert_eq!(ngrams(&t, 1), vec!["a", "b", "c"]);
        assert_eq!(ngrams(&t, 2), vec!["a b", "b c"]);
        assert_eq!(ngrams(&t, 3), vec!["a b c"]);
        assert!(ngrams(&t, 4).is_empty());
        assert!(ngrams(&t, 0).is_empty());
    }

    #[test]
    fn overlap_respects_multiplicity() {
        let a = toks("the the cat");
        let b = toks("the the the dog");
        assert_eq!(overlap_count(&a, &b), 2);
        assert_eq!(overlap_count(&b, &a), 2);
    }

    #[test]
    fn overlap_disjoint_is_zero() {
        assert_eq!(overlap_count(&toks("a b"), &toks("c d")), 0);
        assert_eq!(overlap_count(&[], &toks("a")), 0);
    }
}
