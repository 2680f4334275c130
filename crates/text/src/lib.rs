//! # mb-text
//!
//! Text-processing substrate for metablink-rs: tokenization, vocabulary
//! interning, n-grams, TF-IDF statistics, ROUGE metrics (used to
//! reproduce Table XI), and the paper's four mention–title overlap
//! categories (Section VI-A).

#![warn(missing_docs)]

pub(crate) mod ngram;
pub mod overlap;
pub mod rouge;
pub mod stopwords;
pub mod tfidf;
pub mod tokenizer;
pub mod vocab;

pub use overlap::OverlapCategory;
pub use tokenizer::tokenize;
pub use vocab::Vocab;
