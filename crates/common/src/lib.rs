//! # mb-common
//!
//! Shared foundation for the metablink-rs workspace: a deterministic,
//! portable random number generator, error types, and small numeric
//! utilities used by every other crate.
//!
//! The RNG is implemented in-repo (SplitMix64 seeding + Xoshiro256++)
//! instead of depending on the `rand` crate so that every experiment in
//! the repository is bit-reproducible across platforms and dependency
//! versions — `rand`'s `StdRng` explicitly does not guarantee value
//! stability between releases, which would make the EXPERIMENTS.md
//! numbers unverifiable.

#![warn(missing_docs)]

pub mod error;
pub mod lru;
pub mod rng;
pub mod storage;
pub mod util;

pub use error::{Error, Result};
pub use lru::LruCache;
pub use rng::Rng;
