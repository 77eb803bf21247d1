//! Differential oracles for the implicit relation view.
//!
//! [`RelViewGraph`] stores no edges: `incoming()` enumerates a node's typed
//! in-neighbours run by run from the entity incidence list. Two builders the
//! library used before live on here as the obviously-correct references:
//!
//! * the sort-based construction of that list — sort the `(entity, node)`
//!   pairs, read each entity's run off the sorted list — which the counting
//!   build must reproduce entry for entry;
//! * the materialised view, which builds every typed edge, groups them by
//!   destination with a counting sort and sorts each group by `(src, etype)`.
//!
//! Every forward pass reads each edge type on its own, so what fixes every
//! score bit is each type's source order: `incoming()` is compared with the
//! materialised view per edge type, as exact sequences, and as the whole
//! multiset of edges.

use proptest::prelude::*;
use rmpi_kg::{EntityId, Triple};
use rmpi_subgraph::relview::{RelInEdge, TARGET_NODE};
use rmpi_subgraph::{PruningSchedule, RelEdgeType, RelViewGraph, Subgraph};
use std::collections::VecDeque;

/// The incidence list and each node's `[head run, tail run]`.
type Layout = (Vec<(EntityId, u32)>, Vec<[(u32, u32); 2]>);

/// The sort-based construction the counting build replaced, over the same
/// node numbering as [`RelViewGraph`] (target first, then `sg.triples` in
/// order).
fn sorted_layout(sg: &Subgraph) -> Layout {
    let mut triples = vec![sg.target];
    triples.extend_from_slice(&sg.triples);
    let mut incidence: Vec<(EntityId, u32)> = Vec::with_capacity(2 * triples.len());
    for (i, t) in triples.iter().enumerate() {
        incidence.push((t.head, i as u32));
        if t.tail != t.head {
            incidence.push((t.tail, i as u32));
        }
    }
    incidence.sort_unstable();

    let mut groups = vec![[(0, 0); 2]; triples.len()];
    let mut g0 = 0;
    while g0 < incidence.len() {
        let entity = incidence[g0].0;
        let g1 = g0 + incidence[g0..].iter().take_while(|p| p.0 == entity).count();
        for &(_, i) in &incidence[g0..g1] {
            let side = usize::from(triples[i as usize].head != entity);
            groups[i as usize][side] = (g0 as u32, g1 as u32);
        }
        g0 = g1;
    }
    (incidence, groups)
}

/// The materialised relation view: CSR incoming adjacency over the same node
/// numbering.
struct MaterialisedView {
    edges: Vec<RelInEdge>,
    offsets: Vec<usize>,
}

/// Smallest entity shared by both triples' endpoint sets (the triples are
/// known to share at least one).
fn first_shared_entity(a: Triple, b: Triple) -> EntityId {
    let mut min: Option<EntityId> = None;
    for x in [a.head, a.tail] {
        if (x == b.head || x == b.tail) && min.map_or(true, |m| x < m) {
            min = Some(x);
        }
    }
    min.expect("triples from one incidence group share an entity")
}

impl MaterialisedView {
    fn from_subgraph(sg: &Subgraph) -> Self {
        let mut triples = vec![sg.target];
        triples.extend_from_slice(&sg.triples);
        let mut flat: Vec<(u32, RelInEdge)> = Vec::new();

        let (incidence, _) = sorted_layout(sg);
        let mut g0 = 0;
        while g0 < incidence.len() {
            let entity = incidence[g0].0;
            let g1 = g0 + incidence[g0..].iter().take_while(|p| p.0 == entity).count();
            let group = &incidence[g0..g1];
            for (pos, &(_, i)) in group.iter().enumerate() {
                for &(_, j) in &group[pos + 1..] {
                    let (a, b) = ((i.min(j)) as usize, (i.max(j)) as usize);
                    let (ta, tb) = (triples[a], triples[b]);
                    // a pair sharing two entities shows up in two groups;
                    // process it only in the group of its smallest shared
                    // entity
                    if first_shared_entity(ta, tb) != entity {
                        continue;
                    }
                    for et in RelEdgeType::classify(ta, tb) {
                        flat.push((b as u32, RelInEdge { src: a, etype: et }));
                    }
                    for et in RelEdgeType::classify(tb, ta) {
                        flat.push((a as u32, RelInEdge { src: b, etype: et }));
                    }
                }
            }
            g0 = g1;
        }
        let mut offsets = vec![0usize; triples.len() + 1];
        for (dst, _) in &flat {
            offsets[*dst as usize + 1] += 1;
        }
        for i in 0..triples.len() {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        let mut edges = vec![RelInEdge { src: 0, etype: RelEdgeType::HH }; flat.len()];
        for &(dst, e) in &flat {
            edges[cursor[dst as usize]] = e;
            cursor[dst as usize] += 1;
        }
        for i in 0..triples.len() {
            edges[offsets[i]..offsets[i + 1]].sort_unstable_by_key(|e| (e.src, e.etype.index()));
        }
        MaterialisedView { edges, offsets }
    }

    fn incoming(&self, node: usize) -> &[RelInEdge] {
        &self.edges[self.offsets[node]..self.offsets[node + 1]]
    }

    /// `PruningSchedule::new`'s BFS, over the stored adjacency.
    fn dist(&self, k: usize) -> Vec<usize> {
        let mut dist = vec![usize::MAX; self.offsets.len() - 1];
        dist[TARGET_NODE] = 0;
        let mut q = VecDeque::from([TARGET_NODE]);
        while let Some(cur) = q.pop_front() {
            let d = dist[cur];
            if d == k {
                continue;
            }
            for e in self.incoming(cur) {
                if dist[e.src] == usize::MAX {
                    dist[e.src] = d + 1;
                    q.push_back(e.src);
                }
            }
        }
        dist
    }
}

/// The sources of `edges` of type `etype`, in order.
fn sources_of(edges: &[RelInEdge], etype: RelEdgeType) -> Vec<usize> {
    edges.iter().filter(|e| e.etype == etype).map(|e| e.src).collect()
}

/// A subgraph-shaped edge list over six entities and three relations: dense
/// enough that self-loops, duplicate triples, parallel and anti-parallel
/// edges all occur in most cases. `triples` is sorted like extraction output
/// but, unlike it, keeps duplicates; the target either is arbitrary or
/// duplicates one of the edges. `entities` stays empty: a build must read
/// nothing but the triples and the target.
fn arb_subgraph() -> impl Strategy<Value = Subgraph> {
    (
        prop::collection::vec((0u32..6, 0u32..3, 0u32..6), 0..40),
        (0u32..6, 0u32..4, 0u32..6),
        any::<bool>(),
        0usize..40,
    )
        .prop_map(|(edges, (h, r, t), duplicate_an_edge, pick)| {
            let mut triples: Vec<Triple> =
                edges.into_iter().map(|(a, rel, b)| Triple::new(a, rel, b)).collect();
            triples.sort_unstable();
            let target = if duplicate_an_edge && !triples.is_empty() {
                triples[pick % triples.len()]
            } else {
                Triple::new(h, r, t)
            };
            let mut sg = Subgraph::empty(target);
            sg.triples = triples;
            sg
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn the_counting_build_lays_out_what_the_sort_did(sg in arb_subgraph()) {
        let rv = RelViewGraph::from_subgraph(&sg);
        let (incidence, groups) = sorted_layout(&sg);
        let (got_incidence, got_groups) = rv.layout();
        prop_assert_eq!(got_incidence, &incidence[..]);
        prop_assert_eq!(got_groups, &groups[..]);
    }

    #[test]
    fn implicit_view_enumerates_the_materialised_edges(sg in arb_subgraph(), k in 0usize..5) {
        let rv = RelViewGraph::from_subgraph(&sg);
        let oracle = MaterialisedView::from_subgraph(&sg);
        prop_assert_eq!(rv.num_nodes(), sg.triples.len() + 1);
        for dst in 0..rv.num_nodes() {
            let got: Vec<RelInEdge> = rv.incoming(dst).collect();
            let want = oracle.incoming(dst);
            for etype in RelEdgeType::all() {
                prop_assert_eq!(
                    sources_of(&got, etype),
                    sources_of(want, etype),
                    "incoming({}), {:?} sources",
                    dst,
                    etype
                );
            }
            let mut all = got;
            all.sort_unstable_by_key(|e| (e.src, e.etype.index()));
            prop_assert_eq!(&all[..], want, "incoming({}) as a multiset", dst);
        }
        prop_assert_eq!(rv.num_edges(), oracle.edges.len());
        prop_assert_eq!(PruningSchedule::new(&rv, k).dist, oracle.dist(k));
    }
}

#[test]
fn the_worlds_exercise_every_special_case() {
    // the strategy is only a useful oracle input if the awkward shapes occur;
    // count them over a fixed sample of generated cases
    use rand::SeedableRng;
    let mut rng = proptest::TestRng::seed_from_u64(21);
    let (mut self_loops, mut duplicates, mut para, mut anti, mut dup_target, mut two_types) =
        (0, 0, 0, 0, 0, 0);
    for _ in 0..64 {
        let sg = arb_subgraph().generate(&mut rng);
        self_loops += usize::from(sg.triples.iter().any(|t| t.head == t.tail));
        duplicates += usize::from(sg.triples.windows(2).any(|w| w[0] == w[1]));
        dup_target += usize::from(sg.triples.contains(&sg.target));
        let rv = RelViewGraph::from_subgraph(&sg);
        para += usize::from(rv.iter_edges().any(|(_, e)| e.etype == RelEdgeType::Para));
        anti += usize::from(rv.iter_edges().any(|(_, e)| e.etype == RelEdgeType::Loop));
        two_types += usize::from((0..rv.num_nodes()).any(|dst| {
            let ins: Vec<RelInEdge> = rv.incoming(dst).collect();
            ins.windows(2).any(|w| w[0].src == w[1].src)
        }));
    }
    for (what, n) in [
        ("self-loops", self_loops),
        ("duplicate triples", duplicates),
        ("parallel edges", para),
        ("anti-parallel edges", anti),
        ("target duplicating an edge", dup_target),
        ("a source with two edge types", two_types),
    ] {
        assert!(n >= 8, "only {n} of 64 generated worlds have {what}");
    }
}
