//! Property-based tests for the KG substrate.

use proptest::prelude::*;
use rmpi_kg::{
    io, khop_distances, split_triples, Edge, EntityId, Interner, KnowledgeGraph, RelationId,
    Triple, Vocab,
};
use std::collections::{BTreeSet, HashSet};
use std::io::Cursor;

fn arb_triples(max_e: u32, max_r: u32, max_n: usize) -> impl Strategy<Value = Vec<Triple>> {
    prop::collection::vec((0..max_e, 0..max_r, 0..max_e), 0..max_n)
        .prop_map(|v| v.into_iter().map(|(h, r, t)| Triple::new(h, r, t)).collect())
}

proptest! {
    #[test]
    fn degree_sum_equals_twice_triples(triples in arb_triples(40, 5, 120)) {
        let g = KnowledgeGraph::from_triples(triples.clone());
        let total: usize = (0..g.num_entities() as u32).map(|e| g.degree(EntityId(e))).sum();
        prop_assert_eq!(total, 2 * triples.len());
    }

    #[test]
    fn membership_matches_input(triples in arb_triples(30, 4, 80)) {
        let set: HashSet<Triple> = triples.iter().copied().collect();
        let g = KnowledgeGraph::from_triples(triples);
        for t in &set {
            prop_assert!(g.contains(t));
        }
        // a triple with an out-of-range relation can never be contained
        prop_assert!(!g.contains(&Triple::new(0u32, 99u32, 1u32)));
    }

    #[test]
    fn khop_is_monotone_in_k(triples in arb_triples(30, 4, 80), start in 0u32..30, k in 0usize..4) {
        let g = KnowledgeGraph::from_triples(triples);
        let small = khop_distances(&g, EntityId(start), k, None);
        let large = khop_distances(&g, EntityId(start), k + 1, None);
        for (e, d) in &small {
            prop_assert_eq!(large.get(e), Some(d), "distance changed when k grew");
        }
        prop_assert!(large.len() >= small.len());
    }

    #[test]
    fn khop_distances_are_bounded(triples in arb_triples(30, 4, 80), start in 0u32..30, k in 0usize..4) {
        let g = KnowledgeGraph::from_triples(triples);
        for (_, d) in khop_distances(&g, EntityId(start), k, None) {
            prop_assert!(d <= k);
        }
    }

    #[test]
    fn split_partitions_input(triples in arb_triples(50, 6, 200), seed in 0u64..1000) {
        let s = split_triples(&triples, 0.1, 0.1, seed);
        prop_assert_eq!(s.train.len() + s.valid.len() + s.test.len(), triples.len());
        let mut merged: Vec<Triple> = s.train.iter().chain(&s.valid).chain(&s.test).copied().collect();
        merged.sort();
        let mut orig = triples.clone();
        orig.sort();
        prop_assert_eq!(merged, orig);
    }

    #[test]
    fn interner_roundtrips(names in prop::collection::vec("[a-z]{1,8}", 1..30)) {
        let mut i = Interner::new();
        let ids: Vec<u32> = names.iter().map(|n| i.intern(n)).collect();
        for (name, id) in names.iter().zip(&ids) {
            prop_assert_eq!(i.get(name), Some(*id));
            prop_assert_eq!(i.name(*id), Some(name.as_str()));
        }
        prop_assert!(i.len() <= names.len());
    }

    #[test]
    fn tsv_roundtrips(pairs in prop::collection::vec(("[a-z]{1,6}", "[a-z]{1,6}", "[a-z]{1,6}"), 1..40)) {
        let mut vocab = Vocab::new();
        let triples: Vec<Triple> = pairs
            .iter()
            .map(|(h, r, t)| {
                let head = vocab.entity(h);
                let relation = vocab.relation(r);
                let tail = vocab.entity(t);
                Triple { head, relation, tail }
            })
            .collect();
        let mut buf = Vec::new();
        io::write_triples(&mut buf, &triples, &vocab).unwrap();
        let mut vocab2 = Vocab::new();
        let back = io::read_triples(Cursor::new(&buf), &mut vocab2).unwrap();
        // ids may differ but names must agree position-wise
        prop_assert_eq!(triples.len(), back.len());
        for (a, b) in triples.iter().zip(&back) {
            prop_assert_eq!(vocab.entity_name(a.head).unwrap(), vocab2.entity_name(b.head).unwrap());
            prop_assert_eq!(vocab.relation_name(a.relation).unwrap(), vocab2.relation_name(b.relation).unwrap());
            prop_assert_eq!(vocab.entity_name(a.tail).unwrap(), vocab2.entity_name(b.tail).unwrap());
        }
    }
}

proptest! {
    /// The CSR graph against a naive reference: every query recomputed by a
    /// scan of the input. Small id ranges make duplicate triples (a
    /// multigraph) and unused ids (holes) likely.
    #[test]
    fn graph_matches_naive_reference(triples in arb_triples(12, 4, 120)) {
        let g = KnowledgeGraph::from_triples(triples.clone());
        let n = triples.iter().map(|t| t.head.0.max(t.tail.0) as usize + 1).max().unwrap_or(0);
        let m = triples.iter().map(|t| t.relation.0 as usize + 1).max().unwrap_or(0);
        prop_assert_eq!(g.num_triples(), triples.len());
        prop_assert_eq!(g.num_entities(), n);
        prop_assert_eq!(g.num_relations(), m);
        for e in 0..n as u32 + 2 {
            let e = EntityId(e);
            // edges in ascending triple index, as (neighbour, relation, index)
            let out: Vec<_> = triples
                .iter()
                .enumerate()
                .filter(|(_, t)| t.head == e)
                .map(|(i, t)| (t.tail, t.relation, i))
                .collect();
            let inc: Vec<_> = triples
                .iter()
                .enumerate()
                .filter(|(_, t)| t.tail == e)
                .map(|(i, t)| (t.head, t.relation, i))
                .collect();
            let run = |edges: &[Edge]| -> Vec<_> {
                edges.iter().map(|x| (x.neighbor, x.relation, x.triple_idx)).collect()
            };
            prop_assert_eq!(run(g.out_edges(e)), out.clone(), "out_edges({})", e);
            prop_assert_eq!(run(g.in_edges(e)), inc.clone(), "in_edges({})", e);
            prop_assert_eq!(g.degree(e), out.len() + inc.len());
        }
        for r in 0..m as u32 + 2 {
            let r = RelationId(r);
            prop_assert_eq!(g.relation_count(r), triples.iter().filter(|t| t.relation == r).count());
        }
        let entities: BTreeSet<EntityId> = triples.iter().flat_map(|t| [t.head, t.tail]).collect();
        let relations: BTreeSet<RelationId> = triples.iter().map(|t| t.relation).collect();
        prop_assert_eq!(g.present_entities(), entities.iter().copied().collect::<Vec<_>>());
        prop_assert_eq!(g.present_relations(), relations.iter().copied().collect::<Vec<_>>());
        prop_assert_eq!(g.num_present_entities(), entities.len());
        prop_assert_eq!(g.num_present_relations(), relations.len());
        for t in &triples {
            prop_assert!(g.contains(t));
        }
        let absent = (0..n as u32 + 1)
            .flat_map(|h| (0..m as u32 + 1).map(move |r| Triple::new(h, r, 0u32)))
            .find(|t| !triples.contains(t))
            .expect("the id space one past the input always holds an absent triple");
        prop_assert!(!g.contains(&absent));
    }
}
