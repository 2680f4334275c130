//! Lowercasing word tokenizer.
//!
//! Splits on anything that is not alphanumeric, lowercases ASCII, and
//! keeps digit runs as tokens. Parenthesised disambiguation phrases —
//! `"SORA (satellite)"` — survive as separate tokens, which the overlap
//! classifier and the self-match seed miner rely on.

/// Stream the first `limit` tokens of `text` to `f`, in order — the
/// one tokenizer implementation; everything else in the crate is a
/// view over it. Tokens are built in a single buffer reused across the
/// call (no `String` per token), and the scan stops as soon as `limit`
/// tokens have been emitted, so truncated inputs never pay for their
/// tail.
///
/// # Examples
/// ```
/// use mb_text::tokenizer::for_each_token;
/// let mut seen = Vec::new();
/// for_each_token("SORA (satellite) launch", 2, |t| seen.push(t.to_string()));
/// assert_eq!(seen, vec!["sora", "satellite"]);
/// ```
pub fn for_each_token(text: &str, limit: usize, mut f: impl FnMut(&str)) {
    if limit == 0 {
        return;
    }
    let mut emitted = 0usize;
    let mut current = String::new();
    for ch in text.chars() {
        if ch.is_ascii() {
            // Fast path: ASCII lowercasing never expands.
            if ch.is_ascii_alphanumeric() {
                current.push(ch.to_ascii_lowercase());
                continue;
            }
        } else if ch.is_alphanumeric() {
            // Lowercasing can expand to several chars, not all of them
            // alphanumeric ('İ' → "i\u{307}"); keep only those that
            // preserve the all-alphanumeric token invariant.
            for lower in ch.to_lowercase() {
                if lower.is_alphanumeric() {
                    current.push(lower);
                }
            }
            continue;
        }
        if !current.is_empty() {
            f(&current);
            current.clear();
            emitted += 1;
            if emitted == limit {
                return;
            }
        }
    }
    if !current.is_empty() {
        f(&current);
    }
}

/// Tokenize text into lowercase alphanumeric tokens.
///
/// # Examples
/// ```
/// use mb_text::tokenize;
/// assert_eq!(tokenize("The Curse-of the GOLDEN Master!"),
///            vec!["the", "curse", "of", "the", "golden", "master"]);
/// assert_eq!(tokenize("SORA (satellite)"), vec!["sora", "satellite"]);
/// ```
pub fn tokenize(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    for_each_token(text, usize::MAX, |t| tokens.push(t.to_string()));
    tokens
}

/// Join tokens back into a canonical single-space string.
pub fn detokenize(tokens: &[String]) -> String {
    tokens.join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_and_lowercases() {
        assert_eq!(tokenize("Hello, World"), vec!["hello", "world"]);
        assert_eq!(tokenize("a-b_c"), vec!["a", "b", "c"]);
    }

    #[test]
    fn keeps_digits() {
        assert_eq!(tokenize("season 3 episode 4"), vec!["season", "3", "episode", "4"]);
    }

    #[test]
    fn empty_and_punctuation_only() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("!!! --- ???").is_empty());
    }

    #[test]
    fn unicode_lowercasing() {
        assert_eq!(tokenize("Übermensch Café"), vec!["übermensch", "café"]);
    }

    #[test]
    fn lowercase_expansion_drops_combining_marks() {
        // 'İ' lowercases to "i" + U+0307 COMBINING DOT ABOVE; the
        // combining mark is not alphanumeric and must not leak into
        // the token (found by mb-check).
        assert_eq!(tokenize("İstanbul"), vec!["istanbul"]);
    }

    #[test]
    fn streaming_limit_is_a_prefix_of_the_full_tokenization() {
        let text = "The Curse-of the GOLDEN İstanbul Master!";
        let full = tokenize(text);
        for limit in 0..=full.len() + 1 {
            let mut seen = Vec::new();
            for_each_token(text, limit, |t| seen.push(t.to_string()));
            assert_eq!(seen, full[..limit.min(full.len())], "limit {limit}");
        }
    }

    #[test]
    fn detokenize_round_trip_on_canonical_text() {
        let text = "the fourth episode";
        assert_eq!(detokenize(&tokenize(text)), text);
    }
}
