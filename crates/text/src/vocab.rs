//! Vocabulary interning.
//!
//! Maps tokens to dense `u32` ids for the embedding tables. Id 0 is
//! always `<unk>`; unknown tokens at encode time map there, which is how
//! the encoders behave on out-of-domain words (the paper's premise is
//! exactly that target domains contain unseen vocabulary).

use crate::tokenizer::for_each_token;
use std::collections::HashMap;

/// Reserved id for unknown tokens.
pub const UNK: u32 = 0;

/// A frozen token → id mapping built from corpus counts.
#[derive(Debug, Clone, Default)]
pub struct Vocab {
    token_to_id: HashMap<String, u32>,
    id_to_token: Vec<String>,
}

/// Incremental builder counting token frequencies before freezing.
#[derive(Debug, Clone, Default)]
pub struct VocabBuilder {
    counts: HashMap<String, u64>,
}

impl VocabBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        VocabBuilder::default()
    }

    /// Count one token occurrence.
    pub fn add(&mut self, token: &str) {
        *self.counts.entry(token.to_string()).or_insert(0) += 1;
    }

    /// Count every token of a raw text.
    pub fn add_text(&mut self, text: &str) {
        for_each_token(text, usize::MAX, |t| match self.counts.get_mut(t) {
            Some(count) => *count += 1,
            None => {
                self.counts.insert(t.to_string(), 1);
            }
        });
    }

    /// Freeze into a [`Vocab`], keeping tokens with at least `min_count`
    /// occurrences. Ordering is by descending count then lexicographic,
    /// which makes the vocabulary (and thus every downstream model)
    /// deterministic.
    pub fn build(self, min_count: u64) -> Vocab {
        let mut entries: Vec<(String, u64)> =
            self.counts.into_iter().filter(|(_, c)| *c >= min_count).collect();
        entries.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let mut vocab = Vocab {
            token_to_id: HashMap::with_capacity(entries.len() + 1),
            id_to_token: Vec::with_capacity(entries.len() + 1),
        };
        vocab.push("<unk>");
        for (token, _) in entries {
            vocab.push(&token);
        }
        vocab
    }
}

impl Vocab {
    fn push(&mut self, token: &str) {
        let id = self.id_to_token.len() as u32;
        self.id_to_token.push(token.to_string());
        self.token_to_id.insert(token.to_string(), id);
    }

    /// Vocabulary size including `<unk>`.
    pub fn len(&self) -> usize {
        self.id_to_token.len()
    }

    /// True only for a freshly-defaulted vocab with no `<unk>` entry.
    pub fn is_empty(&self) -> bool {
        self.id_to_token.is_empty()
    }

    /// The id of a token, or [`UNK`].
    pub fn id(&self, token: &str) -> u32 {
        self.token_to_id.get(token).copied().unwrap_or(UNK)
    }

    /// True if the token is in-vocabulary.
    pub fn contains(&self, token: &str) -> bool {
        self.token_to_id.contains_key(token)
    }

    /// The token string for an id.
    ///
    /// # Panics
    /// Panics on out-of-range ids.
    pub fn token(&self, id: u32) -> &str {
        &self.id_to_token[id as usize]
    }

    /// Encode a raw text into ids (unknowns map to [`UNK`]).
    pub fn encode(&self, text: &str) -> Vec<u32> {
        let mut ids = Vec::new();
        self.encode_into(text, usize::MAX, &mut ids);
        ids
    }

    /// Append the ids of the first `limit` tokens of `text` to `out`
    /// (unknowns map to [`UNK`]) — the allocation-free form of
    /// [`Vocab::encode`] followed by `truncate(limit)`.
    pub fn encode_into(&self, text: &str, limit: usize, out: &mut Vec<u32>) {
        for_each_token(text, limit, |t| out.push(self.id(t)));
    }

    /// FNV-1a hash of the tokens in id order: equal for equal
    /// vocabularies, so state derived from one (a featurised entity
    /// table) can tell when it is paired with another.
    pub fn fingerprint(&self) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for token in &self.id_to_token {
            // 0xff never occurs in UTF-8, so it delimits tokens.
            for byte in token.bytes().chain([0xff]) {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        hash
    }

    /// Fraction of tokens in `text` that are out-of-vocabulary — a cheap
    /// domain-gap proxy used by the seed filter.
    pub fn oov_rate(&self, text: &str) -> f64 {
        let ids = self.encode(text);
        if ids.is_empty() {
            return 0.0;
        }
        ids.iter().filter(|&&i| i == UNK).count() as f64 / ids.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vocab {
        let mut b = VocabBuilder::new();
        b.add_text("the cat sat on the mat the cat");
        b.build(1)
    }

    #[test]
    fn unk_is_id_zero() {
        let v = sample();
        assert_eq!(v.id("<unk>"), UNK);
        assert_eq!(v.token(UNK), "<unk>");
        assert_eq!(v.id("zebra"), UNK);
    }

    #[test]
    fn frequency_then_lexicographic_order() {
        let v = sample();
        // "the" (3) then "cat" (2) then {mat, on, sat} alphabetical.
        assert_eq!(v.token(1), "the");
        assert_eq!(v.token(2), "cat");
        assert_eq!(v.token(3), "mat");
        assert_eq!(v.token(4), "on");
        assert_eq!(v.token(5), "sat");
        assert_eq!(v.len(), 6);
    }

    #[test]
    fn min_count_filters() {
        let mut b = VocabBuilder::new();
        b.add_text("aaa aaa bbb");
        let v = b.build(2);
        assert!(v.contains("aaa"));
        assert!(!v.contains("bbb"));
    }

    #[test]
    fn encode_maps_unknowns() {
        let v = sample();
        let ids = v.encode("the dog");
        assert_eq!(ids, vec![v.id("the"), UNK]);
    }

    #[test]
    fn encode_into_appends_a_truncated_encoding() {
        let v = sample();
        let mut out = vec![7];
        v.encode_into("the cat sat on the mat", 3, &mut out);
        assert_eq!(out, vec![7, v.id("the"), v.id("cat"), v.id("sat")]);
    }

    #[test]
    fn oov_rate_bounds() {
        let v = sample();
        assert_eq!(v.oov_rate(""), 0.0);
        assert_eq!(v.oov_rate("the cat"), 0.0);
        assert_eq!(v.oov_rate("zebra quagga"), 1.0);
        let half = v.oov_rate("the zebra");
        assert!((half - 0.5).abs() < 1e-12);
    }

    #[test]
    fn deterministic_across_builds() {
        let v1 = sample();
        let v2 = sample();
        for id in 0..v1.len() as u32 {
            assert_eq!(v1.token(id), v2.token(id));
        }
        assert_eq!(v1.fingerprint(), v2.fingerprint());
    }

    #[test]
    fn fingerprint_tells_vocabularies_apart() {
        let mut b = VocabBuilder::new();
        b.add_text("the cat sat on the mat the cat sat");
        // Same tokens, different id order.
        assert_ne!(b.build(1).fingerprint(), sample().fingerprint());
        // Token boundaries count: {"ab", "c"} vs {"a", "bc"}.
        let split = |text: &str| {
            let mut b = VocabBuilder::new();
            b.add_text(text);
            b.build(1).fingerprint()
        };
        assert_ne!(split("ab ab c"), split("a a bc"));
        assert_ne!(Vocab::default().fingerprint(), sample().fingerprint());
    }
}
