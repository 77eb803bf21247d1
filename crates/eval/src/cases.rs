//! Case-study extraction (the paper's Fig. 4): for one target triple, the
//! relations in its neighbourhood by hop, and every model's score.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rmpi_core::ScoringModel;
use rmpi_datasets::{Benchmark, TestSet};
use rmpi_kg::{RelationId, Triple};
use rmpi_subgraph::{enclosing_subgraph, RelViewGraph};
use std::collections::BTreeSet;

/// One Fig. 4-style case study.
#[derive(Clone, Debug)]
pub struct CaseStudy {
    /// The positive target triple.
    pub target: Triple,
    /// Whether its relation is unseen w.r.t. the training graph.
    pub relation_unseen: bool,
    /// Distinct relations one hop from the target in the relation view.
    pub one_hop: Vec<RelationId>,
    /// Relations first appearing at hop two.
    pub two_hop_new: Vec<RelationId>,
    /// `(model name, score)` for each model.
    pub scores: Vec<(String, f32)>,
}

/// Pick a target whose enclosing subgraph is informative (non-empty, with
/// 2-hop structure) and whose relation seen/unseen status matches
/// `want_unseen`.
pub fn find_case(
    benchmark: &Benchmark,
    test: &TestSet,
    want_unseen: bool,
    hop: usize,
) -> Option<Triple> {
    for &t in &test.targets {
        if benchmark.is_unseen(t.relation) != want_unseen {
            continue;
        }
        let sg = enclosing_subgraph(&test.graph, t, hop);
        if sg.num_edges() < 2 {
            continue;
        }
        let (one, two) = hop_relations(&test.graph, t, hop);
        if !one.is_empty() && !two.is_empty() {
            return Some(t);
        }
    }
    None
}

/// The distinct one-hop relations and the relations newly appearing at hop
/// two, in the relation view of the enclosing subgraph.
fn hop_relations(
    graph: &rmpi_kg::KnowledgeGraph,
    target: Triple,
    hop: usize,
) -> (Vec<RelationId>, Vec<RelationId>) {
    let sg = enclosing_subgraph(graph, target, hop);
    let rv = RelViewGraph::from_subgraph(&sg);
    let one: BTreeSet<RelationId> = rv.target_neighbor_relations().into_iter().collect();
    // hop-2: incoming neighbours of the one-hop nodes
    let mut two = BTreeSet::new();
    for e in rv.incoming(rmpi_subgraph::relview::TARGET_NODE) {
        for e2 in rv.incoming(e.src) {
            let r = rv.nodes[e2.src].relation;
            if !one.contains(&r) && r != target.relation {
                two.insert(r);
            }
        }
    }
    (one.into_iter().collect(), two.into_iter().collect())
}

/// Assemble the case study: neighbourhood relations plus per-model scores.
pub fn build_case(
    benchmark: &Benchmark,
    test: &TestSet,
    target: Triple,
    models: &[&dyn ScoringModel],
    hop: usize,
) -> CaseStudy {
    let (one_hop, two_hop_new) = hop_relations(&test.graph, target, hop);
    let mut rng = StdRng::seed_from_u64(0);
    let scores =
        models.iter().map(|m| (m.name(), m.score(&test.graph, target, &mut rng))).collect();
    CaseStudy {
        target,
        relation_unseen: benchmark.is_unseen(target.relation),
        one_hop,
        two_hop_new,
        scores,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmpi_core::{RmpiConfig, RmpiModel};
    use rmpi_datasets::{build_benchmark, Scale};

    #[test]
    fn finds_unseen_case_on_fully_inductive_benchmark() {
        let b = build_benchmark("nell.v1.v3", Scale::Quick);
        let test = b.test("TE(semi)").unwrap();
        let case = find_case(&b, test, true, 2);
        assert!(
            case.is_some(),
            "a fully-inductive benchmark should contain an unseen-relation case"
        );
        let t = case.unwrap();
        assert!(b.is_unseen(t.relation));
    }

    #[test]
    fn case_study_collects_scores_from_models() {
        let b = build_benchmark("nell.v1", Scale::Quick);
        let test = b.test("TE").unwrap();
        let target = find_case(&b, test, false, 2).expect("case");
        let m1 = RmpiModel::new(RmpiConfig { dim: 8, ..Default::default() }, b.num_relations(), 0);
        let m2 = RmpiModel::new(
            RmpiConfig { dim: 8, ne: true, ..Default::default() },
            b.num_relations(),
            0,
        );
        let case = build_case(&b, test, target, &[&m1, &m2], 2);
        assert_eq!(case.scores.len(), 2);
        assert!(!case.one_hop.is_empty());
        assert!(case.scores.iter().all(|(_, s)| s.is_finite()));
        assert_ne!(case.scores[0].0, case.scores[1].0);
    }
}
