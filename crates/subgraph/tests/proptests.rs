//! Property-based tests for subgraph extraction and the relation-view
//! transform.

use proptest::prelude::*;
use rmpi_kg::{KnowledgeGraph, Triple};
use rmpi_subgraph::relview::TARGET_NODE;
use rmpi_subgraph::{
    disclosing_subgraph, double_radius_labels, enclosing_subgraph, PruningSchedule, RelEdgeType,
    RelViewGraph,
};
use std::collections::HashSet;

fn arb_graph_and_target() -> impl Strategy<Value = (KnowledgeGraph, Triple)> {
    (prop::collection::vec((0u32..20, 0u32..5, 0u32..20), 1..80), (0u32..20, 5u32..8, 0u32..20))
        .prop_map(|(edges, (h, r, t))| {
            let triples = edges.into_iter().map(|(a, rel, b)| Triple::new(a, rel, b)).collect();
            (KnowledgeGraph::from_triples(triples), Triple::new(h, r, t))
        })
}

proptest! {
    #[test]
    fn enclosing_subset_of_disclosing((g, target) in arb_graph_and_target(), k in 1usize..4) {
        let en = enclosing_subgraph(&g, target, k);
        let di = disclosing_subgraph(&g, target, k);
        let en_set: HashSet<Triple> = en.triples.iter().copied().collect();
        let di_set: HashSet<Triple> = di.triples.iter().copied().collect();
        prop_assert!(en_set.is_subset(&di_set));
        let en_e: HashSet<_> = en.entities.iter().collect();
        let di_e: HashSet<_> = di.entities.iter().collect();
        prop_assert!(en_e.is_subset(&di_e));
    }

    #[test]
    fn target_edge_never_included((g, target) in arb_graph_and_target(), k in 1usize..4) {
        let g = g.with_extra_triples(&[target]);
        for sg in [enclosing_subgraph(&g, target, k), disclosing_subgraph(&g, target, k)] {
            prop_assert!(!sg.triples.contains(&target));
            prop_assert!(sg.entities.contains(&target.head));
            prop_assert!(sg.entities.contains(&target.tail));
        }
    }

    #[test]
    fn relview_node_count_is_edges_plus_one((g, target) in arb_graph_and_target(), k in 1usize..3) {
        let sg = enclosing_subgraph(&g, target, k);
        let rv = RelViewGraph::from_subgraph(&sg);
        prop_assert_eq!(rv.num_nodes(), sg.num_edges() + 1);
        prop_assert_eq!(rv.nodes[TARGET_NODE].triple, target);
    }

    #[test]
    fn relview_edges_share_entities((g, target) in arb_graph_and_target()) {
        let sg = enclosing_subgraph(&g, target, 2);
        let rv = RelViewGraph::from_subgraph(&sg);
        for (dst, ins) in (0..rv.num_nodes()).map(|i| (i, rv.incoming(i))) {
            for e in ins {
                let a = rv.nodes[e.src].triple;
                let b = rv.nodes[dst].triple;
                prop_assert!(
                    a.head == b.head || a.head == b.tail || a.tail == b.head || a.tail == b.tail
                );
            }
        }
    }

    #[test]
    fn edge_type_classification_mirrors(
        (h1, t1, h2, t2) in (0u32..5, 0u32..5, 0u32..5, 0u32..5)
    ) {
        let a = Triple::new(h1, 0u32, t1);
        let b = Triple::new(h2, 1u32, t2);
        let ab = RelEdgeType::classify(a, b);
        let ba = RelEdgeType::classify(b, a);
        // both directions exist or neither does
        prop_assert_eq!(ab.is_empty(), ba.is_empty());
        // PARA and LOOP are symmetric
        prop_assert_eq!(ab.contains(&RelEdgeType::Para), ba.contains(&RelEdgeType::Para));
        prop_assert_eq!(ab.contains(&RelEdgeType::Loop), ba.contains(&RelEdgeType::Loop));
        // H-T mirrors to T-H
        prop_assert_eq!(ab.contains(&RelEdgeType::HT), ba.contains(&RelEdgeType::TH));
        // H-H and T-T mirror to themselves
        prop_assert_eq!(ab.contains(&RelEdgeType::HH), ba.contains(&RelEdgeType::HH));
        prop_assert_eq!(ab.contains(&RelEdgeType::TT), ba.contains(&RelEdgeType::TT));
    }

    #[test]
    fn pruning_layers_shrink((g, target) in arb_graph_and_target(), k in 1usize..4) {
        let sg = enclosing_subgraph(&g, target, 2);
        let rv = RelViewGraph::from_subgraph(&sg);
        let sched = PruningSchedule::new(&rv, k);
        let mut prev = usize::MAX;
        for layer in 1..=k {
            let n = sched.active_nodes(layer).len();
            prop_assert!(n <= prev);
            prev = n;
        }
        // last layer is exactly the target
        prop_assert_eq!(sched.active_nodes(k), vec![TARGET_NODE]);
        let (pruned, full) = sched.update_counts();
        prop_assert!(pruned <= full);
    }

    #[test]
    fn labels_respect_bounds((g, target) in arb_graph_and_target(), max_dist in 1usize..5) {
        let sg = enclosing_subgraph(&g, target, 2);
        let labels = double_radius_labels(&sg, max_dist);
        prop_assert_eq!(labels.len(), sg.entities.len());
        for l in labels.values() {
            prop_assert!(l.du <= max_dist && l.dv <= max_dist);
            let oh = l.one_hot(max_dist);
            prop_assert_eq!(oh.iter().sum::<f32>(), 2.0);
        }
    }
}

// ---------------------------------------------------------------- dense-
// scratch extraction vs the legacy HashMap/HashSet reference. The rewrite
// must be observationally identical: same retained triples, same entities,
// same (entity, dist_u, dist_v) rows, across random graphs, targets and hop
// counts. `k in 0..4` deliberately includes the hop-0 degenerate case.

/// Worlds that make the edge sweep's per-head sort do real work: a few
/// distinct triples over a small id space, each repeated up to four times,
/// in an input order shuffled by sort keys drawn alongside. Adjacency is in
/// input order, so a head's run arrives neither sorted nor free of
/// duplicates.
fn arb_shuffled_duplicate_heavy_world() -> impl Strategy<Value = (KnowledgeGraph, Triple)> {
    let copies = prop::collection::vec(any::<u32>(), 1..5);
    (
        prop::collection::vec(((0u32..10, 0u32..4, 0u32..10), copies), 1..40),
        (0u32..10, 0u32..4, 0u32..10),
    )
        .prop_map(|(edges, (h, r, t))| {
            let mut keyed: Vec<(u32, Triple)> = edges
                .into_iter()
                .flat_map(|((a, rel, b), keys)| {
                    keys.into_iter().map(move |key| (key, Triple::new(a, rel, b)))
                })
                .collect();
            keyed.sort_unstable_by_key(|&(key, _)| key);
            let triples = keyed.into_iter().map(|(_, t)| t).collect();
            (KnowledgeGraph::from_triples(triples), Triple::new(h, r, t))
        })
}

/// Both extractions of `target` at radius `k` equal the reference field for
/// field, and come out sorted.
fn assert_matches_reference(
    g: &KnowledgeGraph,
    target: Triple,
    k: usize,
) -> Result<(), TestCaseError> {
    let want_en = rmpi_subgraph::extraction::reference::enclosing_subgraph(g, target, k);
    let want_di = rmpi_subgraph::extraction::reference::disclosing_subgraph(g, target, k);
    let got_en = enclosing_subgraph(g, target, k);
    let got_di = disclosing_subgraph(g, target, k);

    prop_assert_eq!(&got_en.triples, &want_en.triples, "enclosing triples");
    prop_assert_eq!(&got_en.entities, &want_en.entities, "enclosing entities");
    prop_assert_eq!(got_en.distance_rows(), want_en.distance_rows(), "enclosing distances");
    prop_assert_eq!(&got_di.triples, &want_di.triples, "disclosing triples");
    prop_assert_eq!(&got_di.entities, &want_di.entities, "disclosing entities");
    prop_assert_eq!(got_di.distance_rows(), want_di.distance_rows(), "disclosing distances");
    for sg in [&got_en, &got_di] {
        prop_assert!(sg.triples.windows(2).all(|w| w[0] <= w[1]), "triples sorted");
        prop_assert!(sg.entities.windows(2).all(|w| w[0] < w[1]), "entities strictly ascending");
    }
    Ok(())
}

proptest! {
    #[test]
    fn dense_extraction_matches_reference(
        (g, target) in arb_graph_and_target(),
        k in 0usize..4,
        include_target in any::<bool>(),
    ) {
        let g = if include_target { g.with_extra_triples(&[target]) } else { g };
        assert_matches_reference(&g, target, k)?;
    }

    #[test]
    fn shuffled_duplicate_heavy_worlds_match_reference_and_come_out_sorted(
        (g, target) in arb_shuffled_duplicate_heavy_world(),
        k in 0usize..4,
        include_target in any::<bool>(),
    ) {
        let g = if include_target { g.with_extra_triples(&[target, target]) } else { g };
        assert_matches_reference(&g, target, k)?;
    }
}
