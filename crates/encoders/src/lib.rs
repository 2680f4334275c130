//! # mb-encoders
//!
//! The BLINK-style two-stage linker on the CPU-scale substrate:
//!
//! * [`biencoder::BiEncoder`] — independent mention/entity encoders over
//!   a shared token-embedding table, trained with the paper's in-batch
//!   negative loss (Eq. 6); powers dense candidate generation.
//! * [`crossencoder::CrossEncoder`] — joint mention–entity scorer over
//!   interaction features, trained with per-mention softmax ranking
//!   loss; powers candidate re-ranking.
//! * [`frozen`] — each encoder's tape-free inference forward, written
//!   once, and the `Arc`-shared frozen handles that serve it
//!   (optionally with int8 quantized embedding tables under a
//!   bounded-error contract).
//! * [`retrieval`] — the top-k retrieval scan and the flat
//!   (f64 / int8) indices over entity embeddings built on it.
//! * [`input`] — featurization of mentions/entities into token bags and
//!   vocabulary construction.
//! * [`train`] — plain (unweighted) trainers used by the BLINK baseline;
//!   the meta-reweighted trainer lives in `mb-core`.

#![warn(missing_docs)]
#![allow(clippy::needless_range_loop)] // index loops are clearer in numeric kernels

pub mod biencoder;
pub mod crossencoder;
pub mod frozen;
pub mod input;
pub mod retrieval;
pub mod train;

pub use biencoder::{BiEncoder, BiEncoderConfig};
pub use crossencoder::{CrossEncoder, CrossEncoderConfig};
pub use frozen::{FrozenBiEncoder, FrozenCrossEncoder};
pub use input::{entity_bag, mention_bag, EntityFeatures, InputConfig, TrainPair};
pub use retrieval::{DenseIndex, QuantizedIndex};
