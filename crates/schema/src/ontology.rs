//! Schema graph model and builder.

use rmpi_kg::{EntityId, KnowledgeGraph, RelationId, Triple};

/// Identifier of an entity class (concept) in a schema graph.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct ClassId(pub u32);

impl ClassId {
    /// The id as an array index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The four RDFS vocabularies the paper selects (§III-D.2).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SchemaVocab {
    /// `rdfs:subPropertyOf` — relation subsumption.
    SubPropertyOf,
    /// `rdfs:domain` — head entity class of a relation.
    Domain,
    /// `rdfs:range` — tail entity class of a relation.
    Range,
    /// `rdfs:subClassOf` — class subsumption.
    SubClassOf,
}

impl SchemaVocab {
    /// Dense index in `0..4`.
    pub fn index(self) -> usize {
        match self {
            SchemaVocab::SubPropertyOf => 0,
            SchemaVocab::Domain => 1,
            SchemaVocab::Range => 2,
            SchemaVocab::SubClassOf => 3,
        }
    }

    /// All four vocabularies, index order.
    pub fn all() -> [SchemaVocab; 4] {
        [
            SchemaVocab::SubPropertyOf,
            SchemaVocab::Domain,
            SchemaVocab::Range,
            SchemaVocab::SubClassOf,
        ]
    }
}

/// A schema graph over `num_kg_relations` KG relations and `num_classes`
/// classes.
///
/// Node id space of the inner graph: KG relation `r` ↦ node `r.0`; class `c`
/// ↦ node `num_kg_relations + c.0`. Edge labels are [`SchemaVocab`] indices.
#[derive(Clone, Debug)]
pub struct SchemaGraph {
    graph: KnowledgeGraph,
    num_kg_relations: usize,
    num_classes: usize,
}

impl SchemaGraph {
    /// The underlying triple graph (for training embedding models on).
    pub fn graph(&self) -> &KnowledgeGraph {
        &self.graph
    }

    /// Number of KG relations covered (seen + unseen).
    pub fn num_kg_relations(&self) -> usize {
        self.num_kg_relations
    }

    /// Total schema nodes (relations + classes).
    pub fn num_nodes(&self) -> usize {
        self.num_kg_relations + self.num_classes
    }

    /// Number of schema triples.
    pub fn num_triples(&self) -> usize {
        self.graph.num_triples()
    }

    /// The schema node id of a KG relation.
    pub fn relation_node(&self, r: RelationId) -> EntityId {
        assert!((r.index()) < self.num_kg_relations, "relation {r} outside schema coverage");
        EntityId(r.0)
    }

    /// The schema node id of a class.
    pub fn class_node(&self, c: ClassId) -> EntityId {
        assert!((c.index()) < self.num_classes, "class {c:?} outside schema coverage");
        EntityId(self.num_kg_relations as u32 + c.0)
    }
}

/// Incremental [`SchemaGraph`] construction.
#[derive(Clone, Debug)]
pub struct SchemaBuilder {
    num_kg_relations: usize,
    num_classes: usize,
    triples: Vec<Triple>,
}

impl SchemaBuilder {
    /// A builder covering the given relation and class counts.
    pub fn new(num_kg_relations: usize, num_classes: usize) -> Self {
        SchemaBuilder { num_kg_relations, num_classes, triples: Vec::new() }
    }

    fn rel_node(&self, r: RelationId) -> EntityId {
        assert!(r.index() < self.num_kg_relations, "relation {r} out of range");
        EntityId(r.0)
    }

    fn class_node(&self, c: ClassId) -> EntityId {
        assert!(c.index() < self.num_classes, "class {c:?} out of range");
        EntityId(self.num_kg_relations as u32 + c.0)
    }

    /// Assert `child rdfs:subPropertyOf parent`.
    pub fn sub_property_of(&mut self, child: RelationId, parent: RelationId) -> &mut Self {
        let t = Triple {
            head: self.rel_node(child),
            relation: RelationId(SchemaVocab::SubPropertyOf.index() as u32),
            tail: self.rel_node(parent),
        };
        self.triples.push(t);
        self
    }

    /// Assert `relation rdfs:domain class`.
    pub fn domain(&mut self, relation: RelationId, class: ClassId) -> &mut Self {
        let t = Triple {
            head: self.rel_node(relation),
            relation: RelationId(SchemaVocab::Domain.index() as u32),
            tail: self.class_node(class),
        };
        self.triples.push(t);
        self
    }

    /// Assert `relation rdfs:range class`.
    pub fn range(&mut self, relation: RelationId, class: ClassId) -> &mut Self {
        let t = Triple {
            head: self.rel_node(relation),
            relation: RelationId(SchemaVocab::Range.index() as u32),
            tail: self.class_node(class),
        };
        self.triples.push(t);
        self
    }

    /// Assert `child rdfs:subClassOf parent`.
    pub fn sub_class_of(&mut self, child: ClassId, parent: ClassId) -> &mut Self {
        let t = Triple {
            head: self.class_node(child),
            relation: RelationId(SchemaVocab::SubClassOf.index() as u32),
            tail: self.class_node(parent),
        };
        self.triples.push(t);
        self
    }

    /// Finish construction.
    pub fn build(self) -> SchemaGraph {
        let mut triples = self.triples;
        triples.sort_unstable();
        triples.dedup();
        // The embedding tables are sized from num_nodes(), not from the inner
        // graph's entity capacity, so relations/classes without assertions
        // still get (untrained) vectors.
        let graph = KnowledgeGraph::from_triples(triples);
        SchemaGraph {
            graph,
            num_kg_relations: self.num_kg_relations,
            num_classes: self.num_classes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SchemaGraph {
        // relations: 0 = husband_of, 1 = spouse_of, 2 = works_for
        // classes: 0 = Person, 1 = Organisation, 2 = Agent
        let mut b = SchemaBuilder::new(3, 3);
        b.sub_property_of(RelationId(0), RelationId(1))
            .domain(RelationId(0), ClassId(0))
            .range(RelationId(0), ClassId(0))
            .domain(RelationId(2), ClassId(0))
            .range(RelationId(2), ClassId(1))
            .sub_class_of(ClassId(0), ClassId(2))
            .sub_class_of(ClassId(1), ClassId(2));
        b.build()
    }

    #[test]
    fn node_id_spaces_do_not_collide() {
        let s = sample();
        assert_eq!(s.relation_node(RelationId(2)), EntityId(2));
        assert_eq!(s.class_node(ClassId(0)), EntityId(3));
        assert_eq!(s.num_nodes(), 6);
    }

    #[test]
    fn assertions_become_triples() {
        let s = sample();
        assert_eq!(s.num_triples(), 7);
        let g = s.graph();
        // husband_of --subPropertyOf--> spouse_of
        assert!(g.contains(&Triple::new(0u32, SchemaVocab::SubPropertyOf.index() as u32, 1u32)));
        // works_for --range--> Organisation (= node 3 + 1)
        assert!(g.contains(&Triple::new(2u32, SchemaVocab::Range.index() as u32, 4u32)));
    }

    #[test]
    fn duplicate_assertions_deduped() {
        let mut b = SchemaBuilder::new(2, 1);
        b.domain(RelationId(0), ClassId(0));
        b.domain(RelationId(0), ClassId(0));
        let s = b.build();
        assert_eq!(s.num_triples(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_relation_rejected() {
        let mut b = SchemaBuilder::new(1, 1);
        b.domain(RelationId(5), ClassId(0));
    }

    #[test]
    fn vocab_indices_are_dense() {
        let idxs: Vec<usize> = SchemaVocab::all().iter().map(|v| v.index()).collect();
        assert_eq!(idxs, vec![0, 1, 2, 3]);
    }
}
