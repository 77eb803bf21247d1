//! String interning and bidirectional vocabularies.
//!
//! Datasets name entities and relations with strings; every other crate works
//! with dense ids. [`Interner`] provides the classic two-way mapping, and
//! [`Vocab`] bundles one interner per id space.

use crate::error::KgError;
use crate::ids::{EntityId, RelationId};
use std::collections::HashMap;

/// A dense two-way `String <-> u32` mapping.
///
/// Ids are handed out contiguously from zero in insertion order, so an
/// interner with `n` entries covers exactly the ids `0..n` — which is what
/// lets embedding matrices be indexed directly by id.
#[derive(Clone, Debug, Default)]
pub struct Interner {
    names: Vec<String>,
    index: HashMap<String, u32>,
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `name`, returning its id (existing or freshly assigned).
    pub fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_owned());
        self.index.insert(name.to_owned(), id);
        id
    }

    /// Look up an existing name without inserting.
    pub fn get(&self, name: &str) -> Option<u32> {
        self.index.get(name).copied()
    }

    /// The name for `id`, if assigned.
    pub fn name(&self, id: u32) -> Option<&str> {
        self.names.get(id as usize).map(String::as_str)
    }

    /// Number of interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// Entity and relation vocabularies for one knowledge graph (or one family of
/// graphs sharing an id space, as the inductive benchmarks do for relations).
#[derive(Clone, Debug, Default)]
pub struct Vocab {
    /// Entity name space.
    pub(crate) entities: Interner,
    /// Relation name space.
    pub relations: Interner,
}

impl Vocab {
    /// An empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern an entity name.
    pub fn entity(&mut self, name: &str) -> EntityId {
        EntityId(self.entities.intern(name))
    }

    /// Intern a relation name.
    pub fn relation(&mut self, name: &str) -> RelationId {
        RelationId(self.relations.intern(name))
    }

    /// Resolve an entity name, erroring if absent.
    pub fn entity_id(&self, name: &str) -> Result<EntityId, KgError> {
        self.entities.get(name).map(EntityId).ok_or_else(|| KgError::UnknownName(name.to_owned()))
    }

    /// Resolve a relation name, erroring if absent.
    pub fn relation_id(&self, name: &str) -> Result<RelationId, KgError> {
        self.relations
            .get(name)
            .map(RelationId)
            .ok_or_else(|| KgError::UnknownName(name.to_owned()))
    }

    /// The name of an entity id, erroring if out of range.
    pub fn entity_name(&self, id: EntityId) -> Result<&str, KgError> {
        self.entities.name(id.0).ok_or(KgError::UnknownEntity(id.0))
    }

    /// The name of a relation id, erroring if out of range.
    pub fn relation_name(&self, id: RelationId) -> Result<&str, KgError> {
        self.relations.name(id.0).ok_or(KgError::UnknownRelation(id.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("alpha");
        let b = i.intern("beta");
        assert_ne!(a, b);
        assert_eq!(i.intern("alpha"), a);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn ids_are_dense_in_insertion_order() {
        let mut i = Interner::new();
        for (k, name) in ["x", "y", "z"].iter().enumerate() {
            assert_eq!(i.intern(name), k as u32);
        }
        assert_eq!(i.name(1), Some("y"));
        assert_eq!(i.get("z"), Some(2));
        assert_eq!(i.get("w"), None);
        assert_eq!(i.name(3), None);
    }

    #[test]
    fn vocab_separates_spaces() {
        let mut v = Vocab::new();
        let e = v.entity("thing");
        let r = v.relation("thing");
        assert_eq!(e, EntityId(0));
        assert_eq!(r, RelationId(0));
        assert_eq!(v.entity_name(e).unwrap(), "thing");
        assert_eq!(v.relation_name(r).unwrap(), "thing");
    }

    #[test]
    fn vocab_lookup_errors() {
        let v = Vocab::new();
        assert!(v.entity_id("missing").is_err());
        assert!(v.relation_id("missing").is_err());
        assert!(v.entity_name(EntityId(0)).is_err());
        assert!(v.relation_name(RelationId(0)).is_err());
    }
}
