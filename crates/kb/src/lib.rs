//! # mb-kb
//!
//! Knowledge-base substrate for metablink-rs.
//!
//! A [`KnowledgeBase`] stores entities (title + description) and their
//! domain partitions, and maintains the lookup
//! structures entity linking needs: an exact-title index (for the Name
//! Matching baseline and exact-match supervision) and an alias table
//! (available for *source* domains only, mirroring the paper's premise
//! that target-domain dictionaries lack such resources). Candidate
//! generation is dense retrieval over entity descriptions (`mb-encoders`),
//! not a lexical index here.
//!
//! The KB is immutable once [`KbBuilder::build`] returns, and a
//! [`KnowledgeBase`] is a handle onto those shared tables: cloning it is
//! a refcount bump, so the world, a served model and each of its reload
//! generations hold one resident copy between them.

#![warn(missing_docs)]

pub mod entity;
pub mod index;
pub mod store;

pub use entity::{DomainId, Entity, EntityId};
pub use store::{KbBuilder, KnowledgeBase};
