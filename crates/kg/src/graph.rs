//! Indexed directed multigraph over triples.
//!
//! [`KnowledgeGraph`] is the workhorse structure: an immutable snapshot of a
//! triple set with the adjacency indexes subgraph extraction needs. Built
//! once in O(|T|), it answers out-edge / in-edge scans in O(degree) and
//! membership in O(1).
//!
//! Adjacency is compressed sparse row (CSR): all out-edges (and separately
//! all in-edges) share one contiguous arena, and each entity owns the range
//! between two offsets. A scan is one slice, and an entity costs two `u32`
//! offsets however many edges it has.

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

/// The name `rmpi_perf` still uses for [`KnowledgeGraph`]; ROADMAP item 3
/// lists it for deletion once the benchmark stops naming it.
pub type CsrGraph = KnowledgeGraph;

/// One direction of adjacency: entity `e`'s edges are
/// `edges[off[e]..off[e + 1]]`, ascending by triple index.
#[derive(Clone, Debug, Default)]
struct Arena {
    off: Vec<u32>,
    edges: Vec<Edge>,
}

impl Arena {
    /// A counting pass sizes each entity's run, a prefix sum turns the
    /// counts into offsets, and one fill in triple-index order places every
    /// edge. `ends` maps a triple to (owning entity, far end).
    fn build(triples: &[Triple], n: usize, ends: impl Fn(&Triple) -> (EntityId, EntityId)) -> Self {
        let mut off = vec![0u32; n + 1];
        for t in triples {
            off[ends(t).0.index() + 1] += 1;
        }
        for i in 0..n {
            off[i + 1] += off[i];
        }
        let mut cursor = off.clone();
        let blank = Edge { neighbor: EntityId(0), relation: RelationId(0), triple_idx: 0 };
        let mut edges = vec![blank; triples.len()];
        for (triple_idx, t) in triples.iter().enumerate() {
            let (owner, neighbor) = ends(t);
            let slot = &mut cursor[owner.index()];
            edges[*slot as usize] = Edge { neighbor, relation: t.relation, triple_idx };
            *slot += 1;
        }
        Arena { off, edges }
    }

    fn run(&self, e: EntityId) -> &[Edge] {
        let i = e.index();
        if i + 1 >= self.off.len() {
            return &[];
        }
        &self.edges[self.off[i] as usize..self.off[i + 1] as usize]
    }
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
    out: Arena,
    inc: Arena,
    members: HashSet<Triple>,
    relation_counts: Vec<usize>,
}

impl KnowledgeGraph {
    /// Build the indexed graph from a triple list. Duplicate triples are kept
    /// in the edge lists (multigraph) but counted once for membership.
    pub fn from_triples(triples: Vec<Triple>) -> Self {
        let n = triples.iter().map(|t| t.head.0.max(t.tail.0) as usize + 1).max().unwrap_or(0);
        let max_r = triples.iter().map(|t| t.relation.0 as usize + 1).max().unwrap_or(0);
        let mut relation_counts = vec![0usize; max_r];
        for t in &triples {
            relation_counts[t.relation.index()] += 1;
        }
        let out = Arena::build(&triples, n, |t| (t.head, t.tail));
        let inc = Arena::build(&triples, n, |t| (t.tail, t.head));
        let members = triples.iter().copied().collect();
        KnowledgeGraph { triples, out, inc, members, relation_counts }
    }

    /// A fresh build from `g`'s triples. `rmpi_perf` times a graph build
    /// through it (`kg.csr_build_ms`); ROADMAP item 3 lists it for deletion.
    pub fn from_graph(g: &KnowledgeGraph) -> Self {
        Self::from_triples(g.triples.clone())
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
        self.out.off.len().saturating_sub(1)
    }

    /// Capacity of the relation id space (max id + 1).
    pub fn num_relations(&self) -> usize {
        self.relation_counts.len()
    }

    /// Outgoing edges of `e` (edges where `e` is the head), ascending by
    /// triple index, as one contiguous slice.
    pub fn out_edges(&self, e: EntityId) -> &[Edge] {
        self.out.run(e)
    }

    /// Incoming edges of `e` (edges where `e` is the tail), ascending by
    /// triple index, as one contiguous slice.
    pub fn in_edges(&self, e: EntityId) -> &[Edge] {
        self.inc.run(e)
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
        (0..self.num_relations() as u32)
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
        assert!(g.out_edges(EntityId(0)).is_empty());
        assert!(g.in_edges(EntityId(0)).is_empty());
        let default = KnowledgeGraph::default();
        assert_eq!(default.num_entities(), 0);
        assert!(default.out_edges(EntityId(0)).is_empty());
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
