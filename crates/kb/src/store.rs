//! The frozen knowledge base and its builder.

use crate::entity::{DomainId, Entity, EntityId};
use crate::index::{AliasTable, TitleIndex};
use mb_common::{Error, Result};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Mutable builder for a [`KnowledgeBase`].
#[derive(Debug, Default)]
pub struct KbBuilder {
    domain_ids: BTreeMap<String, DomainId>,
    entities: Vec<Entity>,
    aliases: Vec<(String, EntityId)>,
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
    /// Returns [`Error::InvalidConfig`] when the input holds more
    /// entities than the `u32` id space.
    pub fn add_entity(
        &mut self,
        title: &str,
        description: &str,
        domain: DomainId,
    ) -> Result<EntityId> {
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

    /// Add an alias surface form for an entity (source domains only, by
    /// convention — the builder does not enforce it, the data generator
    /// does).
    pub fn add_alias(&mut self, alias: &str, id: EntityId) {
        self.aliases.push((alias.to_string(), id));
    }

    /// Freeze into an indexed [`KnowledgeBase`].
    ///
    /// # Errors
    /// Returns [`Error::NotFound`] if an alias references a non-existent
    /// entity.
    pub fn build(self) -> Result<KnowledgeBase> {
        let n = self.entities.len();
        let mut title_index = TitleIndex::new();
        for e in &self.entities {
            title_index.insert(&e.title, e.id);
        }
        let mut alias_table = AliasTable::new();
        for (alias, id) in &self.aliases {
            if id.0 as usize >= n {
                return Err(Error::NotFound(format!("entity id {} (kb has {n})", id.0)));
            }
            alias_table.insert(alias, *id);
        }
        let mut by_domain: Vec<Vec<EntityId>> = vec![Vec::new(); self.domain_ids.len()];
        for e in &self.entities {
            // mb-lint: allow(indexing) -- domain ids are issued by this builder, < domain_ids.len()
            by_domain[e.domain.0 as usize].push(e.id);
        }
        let tables = Tables { entities: self.entities, title_index, alias_table, by_domain };
        Ok(KnowledgeBase { tables: Arc::new(tables) })
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
    alias_table: AliasTable,
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

    /// Entities known under `alias` in the alias table.
    pub fn by_alias(&self, alias: &str) -> &[EntityId] {
        self.tables.alias_table.lookup(alias)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_kb() -> KnowledgeBase {
        let mut b = KbBuilder::new();
        let lego = b.domain("Lego").unwrap();
        let tv = b.domain("Doctor Who").unwrap();
        let brick = b.add_entity("Red Brick", "a red building brick", lego).unwrap();
        b.add_entity("Castle Set (2015)", "a castle-themed set", lego).unwrap();
        b.add_entity("The Doctor", "a time traveller", tv).unwrap();
        b.add_alias("big red", brick);
        b.build().unwrap()
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
    fn title_and_alias_lookup() {
        let kb = sample_kb();
        let hits = kb.by_title("red brick");
        assert_eq!(hits.len(), 1);
        assert_eq!(kb.entity(hits[0]).title, "Red Brick");
        assert_eq!(kb.by_alias("BIG RED").len(), 1);
        assert!(kb.by_title("unknown").is_empty());
    }

    #[test]
    fn build_rejects_dangling_references() {
        let mut b = KbBuilder::new();
        let d = b.domain("D").unwrap();
        b.add_entity("A", "a", d).unwrap();
        b.add_alias("ghost", EntityId(99));
        assert!(b.build().is_err());
    }

    #[test]
    fn empty_kb_is_valid() {
        let kb = KbBuilder::new().build().unwrap();
        assert!(kb.is_empty());
        assert!(kb.tables.by_domain.is_empty());
    }

    #[test]
    fn a_clone_shares_the_tables() {
        let kb = sample_kb();
        let copy = kb.clone();
        assert!(std::ptr::eq(kb.entities(), copy.entities()));
        assert!(std::ptr::eq(kb.by_title("red brick"), copy.by_title("red brick")));
        assert!(std::ptr::eq(kb.by_alias("big red"), copy.by_alias("big red")));
    }
}
