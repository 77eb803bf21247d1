//! Graph summary statistics (the columns of the paper's Table I).

use crate::graph::KnowledgeGraph;
use std::fmt;

/// `#R / #E / #T` and degree summaries for one graph.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct GraphStats {
    /// Number of distinct relations actually used.
    pub num_relations: usize,
    /// Number of distinct entities with incident edges.
    pub num_entities: usize,
    /// Number of triples.
    pub num_triples: usize,
    /// Mean (in+out) degree over present entities.
    pub avg_degree: f64,
    /// Maximum (in+out) degree.
    pub(crate) max_degree: usize,
}

impl GraphStats {
    /// Compute statistics for `g`.
    pub fn of(g: &KnowledgeGraph) -> Self {
        let entities = g.present_entities();
        let num_entities = entities.len();
        let degrees: Vec<usize> = entities.iter().map(|&e| g.degree(e)).collect();
        let max_degree = degrees.iter().copied().max().unwrap_or(0);
        let avg_degree = if num_entities == 0 {
            0.0
        } else {
            degrees.iter().sum::<usize>() as f64 / num_entities as f64
        };
        GraphStats {
            num_relations: g.num_present_relations(),
            num_entities,
            num_triples: g.num_triples(),
            avg_degree,
            max_degree,
        }
    }
}

impl fmt::Display for GraphStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "#R={} #E={} #T={} avg_deg={:.2} max_deg={}",
            self.num_relations,
            self.num_entities,
            self.num_triples,
            self.avg_degree,
            self.max_degree
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triple::Triple;

    #[test]
    fn counts_match_toy_graph() {
        let g = KnowledgeGraph::from_triples(vec![
            Triple::new(0u32, 0u32, 1u32),
            Triple::new(1u32, 1u32, 2u32),
            Triple::new(0u32, 1u32, 2u32),
        ]);
        let s = GraphStats::of(&g);
        assert_eq!(s.num_relations, 2);
        assert_eq!(s.num_entities, 3);
        assert_eq!(s.num_triples, 3);
        // degrees: e0=2, e1=2, e2=2 -> avg 2, max 2
        assert!((s.avg_degree - 2.0).abs() < 1e-12);
        assert_eq!(s.max_degree, 2);
    }

    #[test]
    fn empty_graph_stats() {
        let s = GraphStats::of(&KnowledgeGraph::from_triples(vec![]));
        assert_eq!(s.num_triples, 0);
        assert_eq!(s.avg_degree, 0.0);
        assert_eq!(s.max_degree, 0);
    }

    #[test]
    fn display_contains_counts() {
        let g = KnowledgeGraph::from_triples(vec![Triple::new(0u32, 0u32, 1u32)]);
        let text = GraphStats::of(&g).to_string();
        assert!(text.contains("#R=1"));
        assert!(text.contains("#T=1"));
    }
}
