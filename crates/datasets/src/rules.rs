//! Entity-independent logical rules planted in generated worlds.

use rmpi_kg::RelationId;

/// A horn rule over relations (entity variables implicit).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Rule {
    /// `conclusion(x, z) ← p1(x, y) ∧ p2(y, z)`.
    Composition {
        /// First premise.
        p1: RelationId,
        /// Second premise.
        p2: RelationId,
        /// Derived relation.
        conclusion: RelationId,
    },
    /// `conclusion(x, w) ← p1(x, y) ∧ mid(y, z) ∧ p3(z, w)`.
    ///
    /// Long chains are what separates multi-hop relational message passing
    /// from one-hop relation-correlation models: the `mid` relation is two
    /// hops from the target in the relation view.
    LongComposition {
        /// First premise.
        p1: RelationId,
        /// Middle premise (only visible at hop 2).
        mid: RelationId,
        /// Last premise.
        p3: RelationId,
        /// Derived relation.
        conclusion: RelationId,
    },
    /// `inverse(y, x) ← of(x, y)`.
    Inverse {
        /// The base relation.
        of: RelationId,
        /// Its inverse.
        inverse: RelationId,
    },
    /// `relation(y, x) ← relation(x, y)`.
    Symmetric {
        /// The symmetric relation.
        relation: RelationId,
    },
    /// `parent(x, y) ← child(x, y)`.
    Subsumption {
        /// The more specific relation.
        child: RelationId,
        /// The more general relation.
        parent: RelationId,
    },
}

/// The archetype of a rule group — what bundle of relations and rules it
/// instantiates.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GroupKind {
    /// One short composition rule (3 relations).
    Composition,
    /// Two confusable long chains sharing first/last premises
    /// (6 relations: p1, midA, midB, p3, conclA, conclB).
    LongPair,
    /// A relation and its inverse.
    Inverse,
    /// A single symmetric relation.
    Symmetric,
    /// A child/parent subsumption pair.
    Subsumption,
}

/// The role a relation plays inside its group — relations with the same
/// `(archetype, role)` share an abstract schema parent, which is how the
/// ontology relates unseen relations to seen ones.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Role {
    /// First premise of a (long) composition.
    First,
    /// Second premise of a short composition.
    Second,
    /// Middle premise A of a long pair.
    MidA,
    /// Middle premise B of a long pair.
    MidB,
    /// Conclusion (of a short composition, or chain A of a long pair).
    Conclusion,
    /// Conclusion of chain B of a long pair.
    ConclusionB,
    /// Base relation of an inverse pair.
    Base,
    /// Inverse relation of an inverse pair.
    Inverted,
    /// A symmetric relation.
    Sym,
    /// Child of a subsumption pair.
    Child,
    /// Parent of a subsumption pair.
    Parent,
    /// A free noise relation (no rules).
    Noise,
}

/// One instantiated rule group: its kind, its rules and its relations with
/// their roles.
#[derive(Clone, Debug)]
pub struct RuleGroup {
    /// Archetype index (groups of the same archetype share schema parents).
    pub archetype: usize,
    /// What kind of group this is.
    pub kind: GroupKind,
    /// The instantiated rules.
    pub(crate) rules: Vec<Rule>,
    /// `(relation, role)` pairs owned by this group.
    pub relations: Vec<(RelationId, Role)>,
}

impl RuleGroup {
    /// The relation ids owned by this group.
    pub fn relation_ids(&self) -> Vec<RelationId> {
        self.relations.iter().map(|(r, _)| *r).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_relation_ids() {
        let g = RuleGroup {
            archetype: 0,
            kind: GroupKind::Inverse,
            rules: vec![Rule::Inverse { of: RelationId(3), inverse: RelationId(4) }],
            relations: vec![(RelationId(3), Role::Base), (RelationId(4), Role::Inverted)],
        };
        assert_eq!(g.relation_ids(), vec![RelationId(3), RelationId(4)]);
    }
}
