//! Lookup structures over a frozen entity set.
//!
//! All keys are the *canonical* tokenized form (lowercase, punctuation
//! stripped, single-space joined) so lookups are robust to case and
//! punctuation — the same canonicalisation `mb-text` uses everywhere.

use crate::entity::EntityId;
use mb_text::tokenizer::{detokenize, tokenize};
use std::collections::BTreeMap;

/// Canonicalise a surface string for index keys.
pub fn canonical(s: &str) -> String {
    detokenize(&tokenize(s))
}

/// Exact-title index: canonical title → entities carrying it.
///
/// Multiple entities can share a title string across domains (and even
/// within one: think disambiguation-free duplicates), so values are
/// vectors in insertion order.
#[derive(Debug, Clone, Default)]
pub(crate) struct TitleIndex {
    map: BTreeMap<String, Vec<EntityId>>,
}

impl TitleIndex {
    /// Empty index.
    pub fn new() -> Self {
        TitleIndex::default()
    }

    /// Register an entity under its title.
    pub fn insert(&mut self, title: &str, id: EntityId) {
        self.map.entry(canonical(title)).or_default().push(id);
    }

    /// Entities whose title matches `name` exactly (canonicalised).
    pub(crate) fn lookup(&self, name: &str) -> &[EntityId] {
        self.map.get(&canonical(name)).map_or(&[], Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonicalisation() {
        assert_eq!(canonical("The GOLDEN-Master!"), "the golden master");
    }

    #[test]
    fn title_index_is_case_insensitive() {
        let mut ix = TitleIndex::new();
        ix.insert("The Curse", EntityId(3));
        assert_eq!(ix.lookup("the curse"), &[EntityId(3)]);
        assert_eq!(ix.lookup("THE CURSE!"), &[EntityId(3)]);
        assert!(ix.lookup("missing").is_empty());
    }

    #[test]
    fn title_index_collects_duplicates() {
        let mut ix = TitleIndex::new();
        ix.insert("Mercury", EntityId(1));
        ix.insert("mercury", EntityId(2));
        assert_eq!(ix.lookup("Mercury"), &[EntityId(1), EntityId(2)]);
        assert_eq!(ix.map.len(), 1);
    }
}
