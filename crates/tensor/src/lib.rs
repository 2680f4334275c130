//! # mb-tensor
//!
//! A small, dependency-free dense tensor library with tape-based
//! reverse-mode automatic differentiation, written for the metablink-rs
//! reproduction of *"Effective Few-Shot Named Entity Linking by
//! Meta-Learning"* (ICDE 2022).
//!
//! The paper trains BERT-scale encoders on GPUs; this crate is the
//! CPU-scale substitute substrate. It provides exactly what the
//! reproduction needs, implemented carefully rather than generally:
//!
//! * [`Tensor`] — row-major `f64` tensors with shape checking.
//! * [`Tape`]/[`Var`] — an autodiff tape with fused operators for the
//!   paper's losses: the in-batch negative entity-linking loss (Eq. 6),
//!   per-row softmax cross-entropy (cross-encoder ranking), binary cross
//!   entropy (the rewriter's span scorer), bag-of-embedding lookup with
//!   mean pooling, and row L2-normalisation.
//! * [`optim`] — Adam, the one optimizer.
//! * [`params`] — named parameter collections with (de)serialization.
//! * [`grad`] — one tensor's gradient: dense, or row-sparse for an
//!   embedding table.
//! * [`checkpoint`] — sectioned, CRC-protected `mb-params v2` training
//!   snapshots (params + optimizer moments + RNG streams + cursor).
//! * [`gradcheck`] — central-finite-difference gradient verification,
//!   used extensively by this crate's tests and by `mb-core`'s
//!   meta-gradient tests.
//! * [`frozen`] — the forward kernels of the encoder ops (the tape ops
//!   of the same names call them) and the `Arc`-shared
//!   [`frozen::FrozenParams`] snapshot inference runs them over.
//! * [`quant`] — int8 quantized embedding tables with a
//!   bounded-error scoring contract for the serving path.
//!
//! `f64` is used throughout: the meta-learning reweighting step compares
//! tiny gradient dot products, and double precision keeps those tests
//! deterministic and tight.

#![warn(missing_docs)]
#![allow(clippy::needless_range_loop)] // index loops are clearer in numeric kernels

pub mod checkpoint;
pub mod frozen;
pub mod grad;
pub mod gradcheck;
pub mod init;
pub mod kernels;
pub mod optim;
pub mod params;
pub mod quant;
mod serialize;
pub mod tape;
pub mod tensor;

pub use frozen::FrozenParams;
pub use params::Params;
pub use quant::QuantMode;
pub use tape::{Tape, Var};
pub use tensor::Tensor;
