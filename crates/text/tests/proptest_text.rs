//! Property-based tests of the text substrate.

use mb_check::gen::{self, StringGen, VecGen};
use mb_check::{prop_assert, prop_assert_eq};
use mb_text::overlap::{classify, OverlapCategory};
use mb_text::rouge::rouge_1;
use mb_text::tokenizer::{detokenize, for_each_token, tokenize};
use mb_text::vocab::VocabBuilder;

/// The tokenizer as it was before the streaming core (one `String`
/// per token, no early stop) — the reference `for_each_token` is
/// checked against.
fn reference_tokenize(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut current = String::new();
    for ch in text.chars() {
        if ch.is_alphanumeric() {
            for lower in ch.to_lowercase() {
                if lower.is_alphanumeric() {
                    current.push(lower);
                }
            }
        } else if !current.is_empty() {
            tokens.push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        tokens.push(current);
    }
    tokens
}

fn streamed(text: &str, limit: usize) -> Vec<String> {
    let mut seen = Vec::new();
    for_each_token(text, limit, |t| seen.push(t.to_string()));
    seen
}

fn word() -> StringGen<gen::CharIn> {
    gen::lowercase_string(1..=8)
}

fn words(max: usize) -> VecGen<StringGen<gen::CharIn>> {
    gen::vec_of(word(), 1..max)
}

mb_check::check! {
    #![config(cases = 128)]

    fn tokenize_detokenize_round_trip(ws in words(8)) {
        let text = ws.join(" ");
        let toks = tokenize(&text);
        prop_assert_eq!(&toks, &ws);
        prop_assert_eq!(tokenize(&detokenize(&toks)), toks);
    }

    fn tokenize_never_panics_and_is_lowercase(s in gen::any_string(0..=120)) {
        for t in tokenize(&s) {
            prop_assert!(!t.is_empty());
            prop_assert!(t.chars().all(|c| c.is_alphanumeric()));
            // Lowercasing is idempotent (some chars, e.g. mathematical
            // capitals, have no lowercase mapping and stay as-is).
            prop_assert_eq!(t.to_lowercase(), t);
        }
    }

    fn streaming_tokenizer_matches_the_reference_and_truncation(
        s in gen::any_string(0..=120),
        dotted in gen::usize_in(0..121),
        limit in gen::usize_in(0..24),
    ) {
        // Splice in 'İ' (lowercases to "i\u{307}": an expansion whose
        // second char must be dropped) at an arbitrary char boundary.
        let at = s.char_indices().map(|(i, _)| i).nth(dotted).unwrap_or(s.len());
        let text = format!("{}İ{}", &s[..at], &s[at..]);
        let want = reference_tokenize(&text);
        prop_assert_eq!(&streamed(&text, usize::MAX), &want);
        prop_assert_eq!(&tokenize(&text), &want);
        // Early stop ≡ tokenize-then-truncate.
        let mut truncated = want;
        truncated.truncate(limit);
        prop_assert_eq!(streamed(&text, limit), truncated);
    }

    fn vocab_encode_into_is_encode_then_truncate(
        docs in gen::vec_of(words(10), 1..6),
        limit in gen::usize_in(0..12),
    ) {
        let mut b = VocabBuilder::new();
        for d in &docs {
            b.add_text(&d.join(" "));
        }
        // min_count 2 leaves some tokens out of vocabulary (UNK).
        let v = b.build(2);
        for d in &docs {
            let text = d.join(" ");
            let mut want: Vec<u32> = tokenize(&text).iter().map(|t| v.id(t)).collect();
            prop_assert_eq!(&v.encode(&text), &want);
            want.truncate(limit);
            let mut got = vec![u32::MAX];
            v.encode_into(&text, limit, &mut got);
            prop_assert_eq!(&got[1..], &want[..]);
        }
    }

    fn rouge_scores_are_bounded_and_reflexive(a in words(6), b in words(6)) {
        let ta = a.join(" ");
        let tb = b.join(" ");
        let s = rouge_1(&ta, &tb);
        prop_assert!((0.0..=1.0).contains(&s.precision));
        prop_assert!((0.0..=1.0).contains(&s.recall));
        prop_assert!((0.0..=1.0).contains(&s.f1));
        prop_assert!((rouge_1(&ta, &ta).f1 - 1.0).abs() < 1e-12);
        // Unigram ROUGE F1 is symmetric.
        let ab = rouge_1(&ta, &tb).f1;
        let ba = rouge_1(&tb, &ta).f1;
        prop_assert!((ab - ba).abs() < 1e-12);
    }

    fn overlap_classification_is_total_and_consistent(m in words(4), t in words(4)) {
        let mention = m.join(" ");
        let title = t.join(" ");
        let cat = classify(&mention, &title);
        if tokenize(&mention) == tokenize(&title) {
            prop_assert_eq!(cat, OverlapCategory::HighOverlap);
        }
        if cat == OverlapCategory::HighOverlap {
            prop_assert_eq!(tokenize(&mention), tokenize(&title));
        }
    }

    fn vocab_encode_ids_are_in_range(docs in gen::vec_of(words(10), 1..6)) {
        let mut b = VocabBuilder::new();
        for d in &docs {
            b.add_text(&d.join(" "));
        }
        let v = b.build(1);
        for d in &docs {
            for id in v.encode(&d.join(" ")) {
                prop_assert!((id as usize) < v.len());
                // Everything was added with min_count 1, so no UNKs.
                prop_assert!(id != mb_text::vocab::UNK);
            }
        }
        // A token never seen maps to UNK.
        prop_assert_eq!(v.id("zzzneverseenzzz"), mb_text::vocab::UNK);
    }
}

/// Regression corpus converted from the retired
/// `proptest_text.proptest-regressions` file: inputs proptest once
/// shrank a failure to. mb-check reports printable seeds instead of a
/// seed file, so these live on as explicit unit tests.
mod regressions {
    use super::*;

    /// `cc a8fed…` shrank to `s = "𝓐"` (U+1D4D0 MATHEMATICAL BOLD
    /// SCRIPT CAPITAL A): an astral-plane alphanumeric character with
    /// no lowercase mapping, which once broke the "tokens are
    /// lowercase" invariant of `tokenize_never_panics_and_is_lowercase`.
    #[test]
    fn mathematical_script_capital_a_stays_intact() {
        let s = "\u{1D4D0}";
        for t in tokenize(s) {
            assert!(!t.is_empty());
            assert!(t.chars().all(|c| c.is_alphanumeric()));
            // No lowercase mapping: lowercasing must be a no-op, and
            // tokenize must not have mangled the character.
            assert_eq!(t.to_lowercase(), t);
        }
        // The character is alphanumeric, so it must survive as a token.
        assert_eq!(tokenize(s), vec!["\u{1D4D0}".to_string()]);
    }

    /// Found by mb-check while porting this suite (replay seed
    /// 0x13DD069BF4E5D380, shrunk to `"İ"`): U+0130 lowercases to
    /// `"i\u{307}"` and the combining mark used to leak into the token,
    /// breaking the all-alphanumeric invariant.
    #[test]
    fn latin_capital_i_with_dot_above_lowercases_cleanly() {
        assert_eq!(tokenize("İ"), vec!["i".to_string()]);
        for t in tokenize("İ") {
            assert!(t.chars().all(|c| c.is_alphanumeric()));
            assert_eq!(t.to_lowercase(), t);
        }
    }
}
