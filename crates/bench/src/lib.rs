//! # mb-bench
//!
//! The paper's evaluation as one table-driven runner ([`paper`]: every
//! figure and table, the claims over them, `paper [--check]`), plus
//! micro-benchmarks on the in-repo timing harness in [`harness`] — no
//! criterion, so the whole workspace builds with no network access.
//! Reports land in the workspace's `target/experiments/` as `.txt` +
//! `.json`.

pub mod gate;
pub mod harness;
pub mod paper;

use mb_core::pipeline::MetaBlinkConfig;
use mb_core::reweight::MetaConfig;
use mb_core::LinkerConfig;
use mb_encoders::biencoder::BiEncoderConfig;
use mb_encoders::crossencoder::CrossEncoderConfig;

use mb_encoders::train::TrainConfig;

/// The model/training configuration of the full-scale paper tables.
pub(crate) fn bench_model_config(seed: u64) -> MetaBlinkConfig {
    MetaBlinkConfig {
        linker: LinkerConfig { k: 64, ..LinkerConfig::default() },
        bi: BiEncoderConfig { emb_dim: 32, hidden: 32, out_dim: 32, ..Default::default() },
        cross: CrossEncoderConfig { emb_dim: 32, hidden: 32, ..Default::default() },
        bi_train: TrainConfig { epochs: 10, batch_size: 32, lr: 5e-3, seed: seed ^ 1 },
        cross_train: TrainConfig { epochs: 2, batch_size: 1, lr: 5e-3, seed: seed ^ 2 },
        bi_meta: MetaConfig {
            steps: 400,
            syn_batch: 24,
            seed_batch: 16,
            lr: 1e-3,
            seed: seed ^ 3,
            ..Default::default()
        },
        cross_meta: MetaConfig {
            steps: 250,
            syn_batch: 8,
            seed_batch: 6,
            lr: 1e-3,
            seed: seed ^ 4,
            ..Default::default()
        },
        k_train_candidates: 16,
        cross_train_cap: 500,
        seed,
        ..Default::default()
    }
}
