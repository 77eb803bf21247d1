//! Indexed directed multigraph over triples.
//!
//! [`KnowledgeGraph`] is the workhorse structure: an immutable snapshot of a
//! triple set with the adjacency indexes subgraph extraction needs. Built
//! once in O(|T|), it answers out-edge / in-edge scans in O(degree) and
//! membership in O(1).

use crate::ids::{EntityId, RelationId};
use crate::triple::Triple;
use std::collections::HashSet;

/// One directed, labelled edge incident to an entity, carrying the index of
/// its triple in [`KnowledgeGraph::triples`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Edge {
    /// The entity at the far end of the edge.
    pub neighbor: EntityId,
    /// The relation labelling the edge.
    pub relation: RelationId,
    /// Index into the graph's triple list.
    pub triple_idx: usize,
}

/// Immutable indexed snapshot of a set of triples.
///
/// Entity ids and relation ids need not be dense: the graph sizes its index
/// arrays to the maximum id seen (`+1`). `num_entities`/`num_relations`
/// report that capacity; [`KnowledgeGraph::present_entities`] and
/// [`KnowledgeGraph::present_relations`] report what actually occurs. This
/// matters for inductive benchmarks, where a testing graph uses a relation id
/// space shared with (and sparser than) its training graph.
#[derive(Clone, Debug, Default)]
pub struct KnowledgeGraph {
    triples: Vec<Triple>,
    out: Vec<Vec<Edge>>,
    inc: Vec<Vec<Edge>>,
    members: HashSet<Triple>,
    num_relations: usize,
    relation_counts: Vec<usize>,
}

impl KnowledgeGraph {
    /// Build the indexed graph from a triple list. Duplicate triples are kept
    /// in the edge lists (multigraph) but counted once for membership.
    pub fn from_triples(triples: Vec<Triple>) -> Self {
        let max_e = triples.iter().map(|t| t.head.0.max(t.tail.0) as usize + 1).max().unwrap_or(0);
        let max_r = triples.iter().map(|t| t.relation.0 as usize + 1).max().unwrap_or(0);
        let mut out = vec![Vec::new(); max_e];
        let mut inc = vec![Vec::new(); max_e];
        let mut members = HashSet::with_capacity(triples.len());
        let mut relation_counts = vec![0usize; max_r];
        for (idx, t) in triples.iter().enumerate() {
            out[t.head.index()].push(Edge {
                neighbor: t.tail,
                relation: t.relation,
                triple_idx: idx,
            });
            inc[t.tail.index()].push(Edge {
                neighbor: t.head,
                relation: t.relation,
                triple_idx: idx,
            });
            members.insert(*t);
            relation_counts[t.relation.index()] += 1;
        }
        KnowledgeGraph { triples, out, inc, members, num_relations: max_r, relation_counts }
    }

    /// All triples, in insertion order.
    pub fn triples(&self) -> &[Triple] {
        &self.triples
    }

    /// The triple at `idx`.
    pub fn triple(&self, idx: usize) -> Triple {
        self.triples[idx]
    }

    /// Number of triples (including duplicates, if any were supplied).
    pub fn num_triples(&self) -> usize {
        self.triples.len()
    }

    /// Capacity of the entity id space (max id + 1).
    pub fn num_entities(&self) -> usize {
        self.out.len()
    }

    /// Capacity of the relation id space (max id + 1).
    pub fn num_relations(&self) -> usize {
        self.num_relations
    }

    /// Outgoing edges of `e` (edges where `e` is the head).
    pub fn out_edges(&self, e: EntityId) -> &[Edge] {
        self.out.get(e.index()).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Incoming edges of `e` (edges where `e` is the tail).
    pub fn in_edges(&self, e: EntityId) -> &[Edge] {
        self.inc.get(e.index()).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Out-degree plus in-degree of `e`.
    pub fn degree(&self, e: EntityId) -> usize {
        self.out_edges(e).len() + self.in_edges(e).len()
    }

    /// O(1) membership test.
    pub fn contains(&self, t: &Triple) -> bool {
        self.members.contains(t)
    }

    /// How many triples use `r`.
    pub fn relation_count(&self, r: RelationId) -> usize {
        self.relation_counts.get(r.index()).copied().unwrap_or(0)
    }

    /// Entities with at least one incident edge, ascending.
    pub fn present_entities(&self) -> Vec<EntityId> {
        (0..self.num_entities() as u32).map(EntityId).filter(|&e| self.degree(e) > 0).collect()
    }

    /// Relations used by at least one triple, ascending.
    pub fn present_relations(&self) -> Vec<RelationId> {
        (0..self.num_relations as u32)
            .map(RelationId)
            .filter(|&r| self.relation_count(r) > 0)
            .collect()
    }

    /// Number of distinct entities with at least one incident edge.
    pub fn num_present_entities(&self) -> usize {
        (0..self.num_entities() as u32).filter(|&e| self.degree(EntityId(e)) > 0).count()
    }

    /// Number of distinct relations used by at least one triple.
    pub fn num_present_relations(&self) -> usize {
        self.relation_counts.iter().filter(|&&c| c > 0).count()
    }

    /// A new graph holding this graph's triples plus `extra`.
    pub fn with_extra_triples(&self, extra: &[Triple]) -> KnowledgeGraph {
        let mut all = self.triples.clone();
        all.extend_from_slice(extra);
        KnowledgeGraph::from_triples(all)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> KnowledgeGraph {
        // 0 --r0--> 1 --r1--> 2,  2 --r0--> 0
        KnowledgeGraph::from_triples(vec![
            Triple::new(0u32, 0u32, 1u32),
            Triple::new(1u32, 1u32, 2u32),
            Triple::new(2u32, 0u32, 0u32),
        ])
    }

    #[test]
    fn sizes() {
        let g = toy();
        assert_eq!(g.num_triples(), 3);
        assert_eq!(g.num_entities(), 3);
        assert_eq!(g.num_relations(), 2);
        assert_eq!(g.num_present_entities(), 3);
        assert_eq!(g.num_present_relations(), 2);
    }

    #[test]
    fn adjacency() {
        let g = toy();
        let out0 = g.out_edges(EntityId(0));
        assert_eq!(out0.len(), 1);
        assert_eq!(out0[0].neighbor, EntityId(1));
        assert_eq!(out0[0].relation, RelationId(0));
        let in0 = g.in_edges(EntityId(0));
        assert_eq!(in0.len(), 1);
        assert_eq!(in0[0].neighbor, EntityId(2));
        assert_eq!(g.degree(EntityId(1)), 2);
    }

    #[test]
    fn membership_and_counts() {
        let g = toy();
        assert!(g.contains(&Triple::new(0u32, 0u32, 1u32)));
        assert!(!g.contains(&Triple::new(1u32, 0u32, 0u32)));
        assert_eq!(g.relation_count(RelationId(0)), 2);
        assert_eq!(g.relation_count(RelationId(1)), 1);
        assert_eq!(g.relation_count(RelationId(5)), 0);
    }

    #[test]
    fn out_of_range_queries_are_empty() {
        let g = toy();
        assert!(g.out_edges(EntityId(99)).is_empty());
        assert!(g.in_edges(EntityId(99)).is_empty());
        assert_eq!(g.degree(EntityId(99)), 0);
    }

    #[test]
    fn empty_graph() {
        let g = KnowledgeGraph::from_triples(vec![]);
        assert_eq!(g.num_triples(), 0);
        assert_eq!(g.num_entities(), 0);
        assert_eq!(g.num_relations(), 0);
        assert!(g.present_entities().is_empty());
    }

    #[test]
    fn sparse_ids_leave_holes() {
        let g = KnowledgeGraph::from_triples(vec![Triple::new(10u32, 5u32, 12u32)]);
        assert_eq!(g.num_entities(), 13);
        assert_eq!(g.num_relations(), 6);
        assert_eq!(g.num_present_entities(), 2);
        assert_eq!(g.num_present_relations(), 1);
        assert_eq!(g.present_relations(), vec![RelationId(5)]);
    }

    #[test]
    fn with_extra_triples_adds_them() {
        let g = toy();
        let g2 = g.with_extra_triples(&[Triple::new(0u32, 1u32, 2u32)]);
        assert_eq!(g2.num_triples(), 4);
        assert!(g2.contains(&Triple::new(0u32, 1u32, 2u32)));
    }

    #[test]
    fn multigraph_keeps_duplicates_in_adjacency() {
        let t = Triple::new(0u32, 0u32, 1u32);
        let g = KnowledgeGraph::from_triples(vec![t, t]);
        assert_eq!(g.num_triples(), 2);
        assert_eq!(g.out_edges(EntityId(0)).len(), 2);
        assert_eq!(g.relation_count(RelationId(0)), 2);
    }
}
