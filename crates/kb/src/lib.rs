//! # mb-kb
//!
//! Knowledge-base substrate for metablink-rs.
//!
//! A [`KnowledgeBase`] stores entities (title + description) and their
//! domain partitions, and one lookup structure: an exact-title index
//! (for the Name Matching baseline and exact-match supervision). As in
//! the Zeshel setting the paper follows, an entity is known only by its
//! title and description: there is no alias table, and candidate
//! generation is dense retrieval over entity descriptions
//! (`mb-encoders`), not a lexical index here.
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
