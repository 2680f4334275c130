//! # mb-core
//!
//! MetaBLINK itself: the meta-learning reweighting of synthetic data
//! (Algorithm 1), the full training framework (Algorithm 2), the
//! two-stage linker, seed-set construction for the few-shot and
//! zero-shot settings, and the paper's three baselines (Name Matching,
//! BLINK, DL4EL).

#![warn(missing_docs)]

pub mod baselines;
pub mod checkpoint;
pub mod linker;
pub mod pipeline;
pub mod reweight;
pub mod seed;

pub use checkpoint::{CheckpointConfig, CheckpointManager};
pub use linker::{LinkerConfig, TwoStageLinker};
pub use pipeline::{DataSource, MetaBlinkConfig, TrainedLinker};
pub use reweight::{meta_example_weights, MetaConfig, MetaStats};
