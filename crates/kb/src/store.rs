//! The frozen knowledge base and its builder.

use crate::entity::{DomainId, Entity, EntityId};
use crate::index::TitleIndex;
use mb_common::{Error, Result};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Mutable builder for a [`KnowledgeBase`].
#[derive(Debug, Default)]
pub struct KbBuilder {
    domain_ids: BTreeMap<String, DomainId>,
    entities: Vec<Entity>,
}

impl KbBuilder {
    /// A fresh builder.
    pub fn new() -> Self {
        KbBuilder::default()
    }

    /// Register (or look up) a domain by name.
    ///
    /// # Errors
    /// Returns [`Error::InvalidConfig`] when the input holds more
    /// domains than the `u16` id space — oversized inputs are a data
    /// problem the loader should surface, not abort on.
    pub fn domain(&mut self, name: &str) -> Result<DomainId> {
        if let Some(&id) = self.domain_ids.get(name) {
            return Ok(id);
        }
        let id = DomainId(u16::try_from(self.domain_ids.len()).map_err(|_| {
            Error::InvalidConfig(format!("too many domains: id space is u16, adding {name:?}"))
        })?);
        self.domain_ids.insert(name.to_string(), id);
        Ok(id)
    }

    /// Add an entity, returning its id.
    ///
    /// # Errors
    /// Returns [`Error::InvalidConfig`] when `domain` is not an id this
    /// builder's [`KbBuilder::domain`] issued, or when the input holds
    /// more entities than the `u32` id space.
    pub fn add_entity(
        &mut self,
        title: &str,
        description: &str,
        domain: DomainId,
    ) -> Result<EntityId> {
        if usize::from(domain.0) >= self.domain_ids.len() {
            return Err(Error::InvalidConfig(format!(
                "entity {title:?}: domain id {} was not issued by this builder",
                domain.0
            )));
        }
        let id = EntityId(u32::try_from(self.entities.len()).map_err(|_| {
            Error::InvalidConfig(format!("too many entities: id space is u32, adding {title:?}"))
        })?);
        self.entities.push(Entity {
            id,
            title: title.to_string(),
            description: description.to_string(),
            domain,
        });
        Ok(id)
    }

    /// Freeze into an indexed [`KnowledgeBase`].
    pub fn build(self) -> KnowledgeBase {
        let mut title_index = TitleIndex::new();
        for e in &self.entities {
            title_index.insert(&e.title, e.id);
        }
        let mut by_domain: Vec<Vec<EntityId>> = vec![Vec::new(); self.domain_ids.len()];
        for e in &self.entities {
            // mb-lint: allow(indexing) -- add_entity rejects a domain id this builder did not issue
            by_domain[usize::from(e.domain.0)].push(e.id);
        }
        let tables = Tables { entities: self.entities, title_index, by_domain };
        KnowledgeBase { tables: Arc::new(tables) }
    }
}

/// A frozen, indexed knowledge base: the entity dictionary `E`.
///
/// A handle: the tables are immutable once [`KbBuilder::build`] returns
/// and sit behind one shared allocation, so a clone is a refcount bump
/// and every holder (the world, each served model generation, the
/// reload loader) reads the same resident copy.
#[derive(Debug, Clone)]
pub struct KnowledgeBase {
    tables: Arc<Tables>,
}

/// The immutable tables one [`KnowledgeBase`] and all its clones share.
#[derive(Debug)]
struct Tables {
    entities: Vec<Entity>,
    title_index: TitleIndex,
    by_domain: Vec<Vec<EntityId>>,
}

// Servers move the KB into their worker threads: keep it `Send + Sync`.
fn _assert<T: Send + Sync>() {}
const _: fn() = _assert::<KnowledgeBase>;

impl KnowledgeBase {
    /// Number of entities.
    pub fn len(&self) -> usize {
        self.tables.entities.len()
    }

    /// True if the KB has no entities.
    pub fn is_empty(&self) -> bool {
        self.tables.entities.is_empty()
    }

    /// Borrow an entity.
    ///
    /// # Panics
    /// Panics on out-of-range ids (they can only come from a different
    /// KB, which is a programming error).
    pub fn entity(&self, id: EntityId) -> &Entity {
        // mb-lint: allow(indexing) -- documented `# Panics` contract: foreign ids are a caller bug
        &self.tables.entities[id.0 as usize]
    }

    /// All entities in id order.
    pub fn entities(&self) -> &[Entity] {
        &self.tables.entities
    }

    /// Entity ids belonging to a domain, in id order.
    pub fn domain_entities(&self, domain: DomainId) -> &[EntityId] {
        // mb-lint: allow(indexing) -- by_domain has one slot per issued DomainId
        &self.tables.by_domain[domain.0 as usize]
    }

    /// Entities whose title exactly matches `name` (canonicalised).
    pub fn by_title(&self, name: &str) -> &[EntityId] {
        self.tables.title_index.lookup(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_kb() -> KnowledgeBase {
        let mut b = KbBuilder::new();
        let lego = b.domain("Lego").unwrap();
        let tv = b.domain("Doctor Who").unwrap();
        b.add_entity("Red Brick", "a red building brick", lego).unwrap();
        b.add_entity("Castle Set (2015)", "a castle-themed set", lego).unwrap();
        b.add_entity("The Doctor", "a time traveller", tv).unwrap();
        b.build()
    }

    #[test]
    fn entities_and_domains() {
        let kb = sample_kb();
        assert_eq!(kb.len(), 3);
        assert_eq!(kb.tables.by_domain.len(), 2);
        let lego = kb.entity(kb.by_title("red brick")[0]).domain;
        assert_eq!(kb.domain_entities(lego).len(), 2);
    }

    #[test]
    fn dedup_domain_registration() {
        let mut b = KbBuilder::new();
        let a = b.domain("X").unwrap();
        let a2 = b.domain("X").unwrap();
        assert_eq!(a, a2);
    }

    #[test]
    fn add_entity_rejects_a_domain_id_the_builder_did_not_issue() {
        let mut b = KbBuilder::new();
        let err = b.add_entity("a", "b", DomainId(3)).unwrap_err();
        assert!(matches!(err, Error::InvalidConfig(_)), "{err:?}");
        let x = b.domain("X").unwrap();
        assert!(b.add_entity("a", "b", DomainId(x.0 + 1)).is_err());
        b.add_entity("a", "b", x).unwrap();
        assert_eq!(b.build().domain_entities(x).len(), 1);
    }

    #[test]
    fn title_lookup() {
        let kb = sample_kb();
        let hits = kb.by_title("red brick");
        assert_eq!(hits.len(), 1);
        assert_eq!(kb.entity(hits[0]).title, "Red Brick");
        assert!(kb.by_title("unknown").is_empty());
    }

    #[test]
    fn empty_kb_is_valid() {
        let kb = KbBuilder::new().build();
        assert!(kb.is_empty());
        assert!(kb.tables.by_domain.is_empty());
    }

    #[test]
    fn a_clone_shares_the_tables() {
        let kb = sample_kb();
        let copy = kb.clone();
        assert!(std::ptr::eq(kb.entities(), copy.entities()));
        assert!(std::ptr::eq(kb.by_title("red brick"), copy.by_title("red brick")));
    }
}
