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

/// Alias table: alternative surface forms → entities. In the paper's
/// setting this powerful resource exists for rich source domains but is
/// *unavailable* in the few-shot target domains; `mb-datagen` only
/// populates it for training domains.
#[derive(Debug, Clone, Default)]
pub(crate) struct AliasTable {
    map: BTreeMap<String, Vec<EntityId>>,
}

impl AliasTable {
    /// Empty table.
    pub fn new() -> Self {
        AliasTable::default()
    }

    /// Register an alias for an entity.
    pub fn insert(&mut self, alias: &str, id: EntityId) {
        let key = canonical(alias);
        let ids = self.map.entry(key).or_default();
        if !ids.contains(&id) {
            ids.push(id);
        }
    }

    /// Entities known under `alias`.
    pub(crate) fn lookup(&self, alias: &str) -> &[EntityId] {
        self.map.get(&canonical(alias)).map_or(&[], Vec::as_slice)
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

    #[test]
    fn alias_table_dedups_per_alias() {
        let mut t = AliasTable::new();
        t.insert("big blue", EntityId(7));
        t.insert("Big Blue", EntityId(7));
        t.insert("big blue", EntityId(8));
        assert_eq!(t.lookup("BIG blue"), &[EntityId(7), EntityId(8)]);
        assert_eq!(t.map.len(), 1);
    }
}
