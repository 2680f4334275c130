//! Core knowledge-base value types.

/// Dense identifier of an entity within one [`crate::KnowledgeBase`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EntityId(pub u32);

/// Dense identifier of a domain (a specialised entity dictionary such
/// as "Lego" or "YuGiOh").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DomainId(pub u16);

/// A real-world object in the knowledge base: a Wikipedia-style page
/// with a title and a textual description, partitioned into a domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entity {
    /// This entity's id (equal to its index in the KB).
    pub id: EntityId,
    /// Page title, possibly carrying a parenthesised disambiguation
    /// phrase, e.g. `"SORA (satellite)"`.
    pub title: String,
    /// Free-text description of the entity.
    pub description: String,
    /// The domain this entity belongs to.
    pub domain: DomainId,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let mut s = HashSet::new();
        s.insert(EntityId(1));
        s.insert(EntityId(1));
        s.insert(EntityId(2));
        assert_eq!(s.len(), 2);
        assert!(EntityId(1) < EntityId(2));
    }
}
