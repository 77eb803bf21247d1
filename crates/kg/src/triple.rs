//! RDF-style triples `(head, relation, tail)`.

use crate::ids::{EntityId, RelationId};
use std::fmt;

/// A single relational fact: directed edge `head --relation--> tail`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Triple {
    /// Subject entity.
    pub head: EntityId,
    /// Predicate relation.
    pub relation: RelationId,
    /// Object entity.
    pub tail: EntityId,
}

impl Triple {
    /// Construct a triple from raw ids.
    #[inline]
    pub fn new(
        head: impl Into<EntityId>,
        relation: impl Into<RelationId>,
        tail: impl Into<EntityId>,
    ) -> Self {
        Triple { head: head.into(), relation: relation.into(), tail: tail.into() }
    }

    /// The triple with head and tail swapped (the inverse fact, same label).
    #[inline]
    pub fn reversed(self) -> Self {
        Triple { head: self.tail, relation: self.relation, tail: self.head }
    }

    /// `true` when head and tail coincide.
    #[inline]
    pub fn is_self_loop(self) -> bool {
        self.head == self.tail
    }

    /// Replace the head entity.
    #[inline]
    pub fn with_head(self, head: EntityId) -> Self {
        Triple { head, ..self }
    }

    /// Replace the tail entity.
    #[inline]
    pub fn with_tail(self, tail: EntityId) -> Self {
        Triple { tail, ..self }
    }
}

impl fmt::Display for Triple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {})", self.head, self.relation, self.tail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reversed_swaps_endpoints() {
        let t = Triple::new(1u32, 2u32, 3u32);
        let r = t.reversed();
        assert_eq!(r.head, EntityId(3));
        assert_eq!(r.tail, EntityId(1));
        assert_eq!(r.relation, RelationId(2));
        assert_eq!(r.reversed(), t);
    }

    #[test]
    fn self_loop_detection() {
        assert!(Triple::new(5u32, 0u32, 5u32).is_self_loop());
        assert!(!Triple::new(5u32, 0u32, 6u32).is_self_loop());
    }

    #[test]
    fn with_replacements() {
        let t = Triple::new(1u32, 2u32, 3u32);
        assert_eq!(t.with_head(EntityId(9)).head, EntityId(9));
        assert_eq!(t.with_tail(EntityId(9)).tail, EntityId(9));
        // original untouched (Copy semantics)
        assert_eq!(t.head, EntityId(1));
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(Triple::new(0u32, 1u32, 2u32).to_string(), "(e0, r1, e2)");
    }
}
