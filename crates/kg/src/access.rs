//! Read-only graph access shared by the in-memory [`KnowledgeGraph`] and
//! out-of-core backends (`rmpi-store`).
//!
//! Subgraph extraction, sampling, and scoring only ever *read* adjacency:
//! out-edge / in-edge scans, triple lookups by index, and membership tests.
//! [`GraphAccess`] captures exactly that surface, so the hot paths run over
//! the in-memory graph's CSR arenas and over a store's pinned neighbourhood
//! alike. The trait is object-safe on purpose: model scoring is dispatched
//! through `&dyn ScoringModel`, which forces the graph parameter to be a
//! trait object as well.
//!
//! The trait deliberately has **no** "give me all triples as one slice"
//! method: a disk-backed graph (`rmpi_store::StoreReader`) answers every
//! query here from segment files without ever materialising the full triple
//! set in memory. Whole-graph sweeps go through [`GraphAccess::for_each_triple`],
//! which a RAM backend serves from its slice and a store backend serves by
//! streaming segments. Code that genuinely needs the slice (analysis,
//! serialisation) uses [`KnowledgeGraph::triples`].
//!
//! All implementations enumerate a given entity's edges in the same order —
//! ascending triple index — so code routed over any backend sees identical
//! iteration order, not merely identical sets.

use crate::graph::{Edge, KnowledgeGraph};
use crate::ids::EntityId;
use crate::triple::Triple;

/// Read-only adjacency and membership queries over an indexed triple set.
pub trait GraphAccess {
    /// Outgoing edges of `e` (edges where `e` is the head), ascending by
    /// triple index. Out-of-range ids yield an empty slice.
    fn out_edges(&self, e: EntityId) -> &[Edge];

    /// Incoming edges of `e` (edges where `e` is the tail), ascending by
    /// triple index. Out-of-range ids yield an empty slice.
    fn in_edges(&self, e: EntityId) -> &[Edge];

    /// The triple at `idx`.
    fn triple(&self, idx: usize) -> Triple;

    /// Visit every triple in ascending triple-index order. RAM backends walk
    /// their slice; out-of-core backends stream segments, so callers must not
    /// assume the triples ever coexist in memory.
    fn for_each_triple(&self, f: &mut dyn FnMut(Triple));

    /// Entity id-space capacity (max id + 1).
    fn num_entities(&self) -> usize;

    /// Number of triples (duplicates included).
    fn num_triples(&self) -> usize;

    /// Relation id-space capacity (max id + 1).
    fn num_relations(&self) -> usize;

    /// O(1) membership test.
    fn contains(&self, t: &Triple) -> bool;

    /// Out-degree plus in-degree of `e`.
    fn degree(&self, e: EntityId) -> usize {
        self.out_edges(e).len() + self.in_edges(e).len()
    }
}

impl GraphAccess for KnowledgeGraph {
    fn out_edges(&self, e: EntityId) -> &[Edge] {
        KnowledgeGraph::out_edges(self, e)
    }
    fn in_edges(&self, e: EntityId) -> &[Edge] {
        KnowledgeGraph::in_edges(self, e)
    }
    fn triple(&self, idx: usize) -> Triple {
        KnowledgeGraph::triple(self, idx)
    }
    fn for_each_triple(&self, f: &mut dyn FnMut(Triple)) {
        for &t in KnowledgeGraph::triples(self) {
            f(t);
        }
    }
    fn num_entities(&self) -> usize {
        KnowledgeGraph::num_entities(self)
    }
    fn num_triples(&self) -> usize {
        KnowledgeGraph::num_triples(self)
    }
    fn num_relations(&self) -> usize {
        KnowledgeGraph::num_relations(self)
    }
    fn contains(&self, t: &Triple) -> bool {
        KnowledgeGraph::contains(self, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Vec<Triple> {
        vec![
            Triple::new(0u32, 0u32, 1u32),
            Triple::new(1u32, 1u32, 2u32),
            Triple::new(2u32, 0u32, 0u32),
            Triple::new(0u32, 1u32, 2u32),
        ]
    }

    /// Exercises dynamic dispatch: the graph must answer through
    /// `&dyn GraphAccess` exactly as through its inherent methods, edge
    /// *order* included.
    #[test]
    fn trait_object_agrees_with_inherent_methods() {
        let graph = KnowledgeGraph::from_triples(toy());
        let g: &dyn GraphAccess = &graph;
        assert_eq!(g.num_triples(), 4);
        assert_eq!(g.num_entities(), 3);
        assert_eq!(g.num_relations(), 2);
        assert!(g.contains(&Triple::new(0u32, 0u32, 1u32)));
        assert!(!g.contains(&Triple::new(2u32, 1u32, 0u32)));
        let mut swept = Vec::new();
        g.for_each_triple(&mut |t| swept.push(t));
        assert_eq!(swept, toy(), "for_each_triple streams in triple-index order");
        for idx in 0..graph.num_triples() {
            assert_eq!(g.triple(idx), graph.triple(idx));
        }
        for e in 0..4u32 {
            let e = EntityId(e);
            assert_eq!(g.out_edges(e), graph.out_edges(e));
            assert_eq!(g.in_edges(e), graph.in_edges(e));
            assert_eq!(g.degree(e), graph.degree(e));
            assert!(g.out_edges(e).windows(2).all(|w| w[0].triple_idx < w[1].triple_idx));
            assert!(g.in_edges(e).windows(2).all(|w| w[0].triple_idx < w[1].triple_idx));
        }
    }
}
