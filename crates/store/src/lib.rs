//! `mb-store`: million-entity scale storage and retrieval.
//!
//! The in-memory [`mb_kb::KnowledgeBase`] and
//! [`mb_encoders::retrieval::DenseIndex`] top out where RAM does. This
//! crate is the tier above them:
//!
//! - [`shard`] — an on-disk, checksummed shard format
//!   (`mb-store v1`): a fixed-width record directory and int8 vector
//!   table are loaded eagerly; the variable-length text region
//!   is CRC-verified **streamed** at open and then read per-record via
//!   seek, so a shard's text is never materialized in memory.
//! - [`store`] — [`EntityStore`]: a manifest-led directory of shards
//!   with contiguous global ids, built by the streaming
//!   [`StoreBuilder`] in bounded RAM (one shard's records at a time).
//! - [`ivf`] — [`IvfIndex`]: deterministic seeded-k-means IVF
//!   retrieval over the store's quantized tables, implementing the
//!   same [`CandidateSource`] trait as the exact indexes. Build and
//!   search are bit-identical across runs and `mb-par` worker counts.
//!
//! All three file kinds are section schemas over the workspace
//! container (`mb_common::storage`, DESIGN.md §8), so corruption
//! handling is all-or-nothing: any flipped bit, truncation or
//! out-of-range header number in a manifest, shard, or index file fails
//! the open with [`mb_common::Error::Checkpoint`] rather than serving
//! partial data.

pub mod ivf;
pub mod shard;
pub mod store;

pub use ivf::{IvfConfig, IvfIndex, IVF_FILE};
pub use shard::{Shard, StoreRecord};
pub use store::{EntityStore, StoreBuilder, StoreConfig, MANIFEST};

pub use mb_encoders::retrieval::CandidateSource;
pub use mb_par::Threads;
