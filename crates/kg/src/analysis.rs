//! Structural analysis utilities: connected components and degree
//! histograms — used by the dataset generators' validation and the
//! experiment write-ups.

use crate::graph::KnowledgeGraph;
use crate::ids::EntityId;
use std::collections::HashMap;

/// Undirected connected components over the present entities.
///
/// Returns a map entity → component id (dense, 0-based, ordered by the
/// smallest entity id in each component).
fn connected_components(g: &KnowledgeGraph) -> HashMap<EntityId, usize> {
    let mut comp: HashMap<EntityId, usize> = HashMap::new();
    let mut next = 0usize;
    for e in g.present_entities() {
        if comp.contains_key(&e) {
            continue;
        }
        let id = next;
        next += 1;
        let mut stack = vec![e];
        comp.insert(e, id);
        while let Some(cur) = stack.pop() {
            let nbs = g
                .out_edges(cur)
                .iter()
                .map(|x| x.neighbor)
                .chain(g.in_edges(cur).iter().map(|x| x.neighbor));
            for nb in nbs {
                if let std::collections::hash_map::Entry::Vacant(slot) = comp.entry(nb) {
                    slot.insert(id);
                    stack.push(nb);
                }
            }
        }
    }
    comp
}

/// Number of undirected connected components.
pub fn num_components(g: &KnowledgeGraph) -> usize {
    connected_components(g).values().copied().max().map(|m| m + 1).unwrap_or(0)
}

/// Histogram of total (in+out) degrees over present entities:
/// `histogram[d] = #entities with degree d` (index capped at `max_degree`).
pub fn degree_histogram(g: &KnowledgeGraph, max_degree: usize) -> Vec<usize> {
    let mut hist = vec![0usize; max_degree + 1];
    for e in g.present_entities() {
        hist[g.degree(e).min(max_degree)] += 1;
    }
    hist
}

/// Fraction of triples whose 2-hop enclosing neighbourhood is empty — the
/// statistic that predicts how much the NE module matters (WN18RR-like
/// graphs score high here).
pub fn empty_neighborhood_rate(g: &KnowledgeGraph, hop: usize, sample_every: usize) -> f64 {
    let triples = g.triples();
    if triples.is_empty() {
        return 0.0;
    }
    let mut checked = 0usize;
    let mut empty = 0usize;
    for t in triples.iter().step_by(sample_every.max(1)) {
        checked += 1;
        let du = crate::neighborhood::khop_distances(g, t.head, hop, None);
        let dv = crate::neighborhood::khop_distances(g, t.tail, hop, None);
        // the enclosing subgraph is empty when no third entity is near both
        // endpoints (and no parallel edge connects them)
        let has_common =
            du.keys().filter(|e| dv.contains_key(e)).any(|e| *e != t.head && *e != t.tail);
        let parallel = g
            .out_edges(t.head)
            .iter()
            .any(|x| x.neighbor == t.tail && g.triple(x.triple_idx) != *t)
            || g.out_edges(t.tail).iter().any(|x| x.neighbor == t.head);
        if !has_common && !parallel {
            empty += 1;
        }
    }
    empty as f64 / checked as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triple::Triple;

    fn two_islands() -> KnowledgeGraph {
        KnowledgeGraph::from_triples(vec![
            Triple::new(0u32, 0u32, 1u32),
            Triple::new(1u32, 0u32, 2u32),
            Triple::new(10u32, 1u32, 11u32),
        ])
    }

    #[test]
    fn components_are_separated() {
        let g = two_islands();
        let comp = connected_components(&g);
        assert_eq!(num_components(&g), 2);
        assert_eq!(comp[&EntityId(0)], comp[&EntityId(2)]);
        assert_ne!(comp[&EntityId(0)], comp[&EntityId(10)]);
    }

    #[test]
    fn empty_graph_has_zero_components() {
        assert_eq!(num_components(&KnowledgeGraph::from_triples(vec![])), 0);
    }

    #[test]
    fn degree_histogram_counts() {
        let g = two_islands();
        let hist = degree_histogram(&g, 5);
        // degrees: e0=1, e1=2, e2=1, e10=1, e11=1
        assert_eq!(hist[1], 4);
        assert_eq!(hist[2], 1);
        assert_eq!(hist.iter().sum::<usize>(), 5);
    }

    #[test]
    fn degree_histogram_caps_at_max() {
        let triples: Vec<Triple> = (1..10u32).map(|i| Triple::new(0u32, 0u32, i)).collect();
        let g = KnowledgeGraph::from_triples(triples);
        let hist = degree_histogram(&g, 3);
        assert_eq!(hist[3], 1, "hub entity degree capped into the last bucket");
    }

    #[test]
    fn empty_rate_detects_sparse_graphs() {
        // a path graph: every edge's endpoints share no common neighbour
        let path =
            KnowledgeGraph::from_triples((0..20u32).map(|i| Triple::new(i, 0u32, i + 1)).collect());
        // a triangle fan: every edge is in a triangle
        let mut tri = Vec::new();
        for i in 0..10u32 {
            let (a, b, c) = (3 * i, 3 * i + 1, 3 * i + 2);
            tri.push(Triple::new(a, 0u32, b));
            tri.push(Triple::new(b, 0u32, c));
            tri.push(Triple::new(a, 1u32, c));
        }
        let dense = KnowledgeGraph::from_triples(tri);
        let sparse_rate = empty_neighborhood_rate(&path, 1, 1);
        let dense_rate = empty_neighborhood_rate(&dense, 1, 1);
        assert!(sparse_rate > 0.8, "path rate {sparse_rate}");
        assert!(dense_rate < 0.1, "triangle rate {dense_rate}");
    }
}
