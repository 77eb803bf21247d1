//! Enclosing and disclosing subgraph extraction (paper §III-B, §III-F).
//!
//! The public entry points ([`enclosing_subgraph`], [`disclosing_subgraph`])
//! are generic over [`GraphAccess`], so they run identically over the
//! Vec-of-Vecs [`rmpi_kg::KnowledgeGraph`] and the CSR arenas of
//! [`rmpi_kg::CsrGraph`]. Internally they route through a per-thread
//! [`ExtractScratch`] of dense epoch-stamped arrays;
//! the `*_into` variants expose the scratch and output buffers directly so a
//! caller owning both runs allocation-free in steady state. The original
//! HashMap/HashSet formulation survives in [`reference`](mod@reference) as the oracle for
//! the equivalence property test.

use crate::scratch::ExtractScratch;
use rmpi_kg::{EntityId, GraphAccess, Triple};
use std::cell::RefCell;

/// A subgraph extracted around a target triple.
///
/// The hop distances (in the *full* graph, capped at K+1) of every retained
/// entity from the target head/tail are available through
/// [`Subgraph::distance_rows`]; the target endpoints
/// themselves are always retained, even when the subgraph has no edges (the
/// "empty subgraph" case §III-F addresses).
#[derive(Clone, Debug)]
pub struct Subgraph {
    /// Edges retained in the subgraph (never includes the target triple).
    pub triples: Vec<Triple>,
    /// Entities retained (always contains the target head and tail).
    pub entities: Vec<EntityId>,
    /// `(entity, dist from head, dist from tail)` rows, ascending by entity.
    /// Kept separate from `entities` (which callers may prune in place) so
    /// distance lookups stay valid for every originally retained entity.
    dists: Vec<(EntityId, u32, u32)>,
    /// The target triple this subgraph was extracted for.
    pub target: Triple,
}

impl Subgraph {
    /// An empty subgraph buffer for `target`, ready for a `*_into` call.
    pub fn empty(target: Triple) -> Self {
        Subgraph { triples: Vec::new(), entities: Vec::new(), dists: Vec::new(), target }
    }

    /// `true` when the subgraph contains no edges.
    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.triples.len()
    }

    /// Number of retained entities.
    pub fn num_entities(&self) -> usize {
        self.entities.len()
    }

    /// All `(entity, dist_u, dist_v)` rows, ascending by entity id.
    pub fn distance_rows(&self) -> &[(EntityId, u32, u32)] {
        &self.dists
    }
}

thread_local! {
    static SCRATCH: RefCell<ExtractScratch> = RefCell::new(ExtractScratch::new());
}

/// Run `f` with this thread's reusable extraction scratch.
pub fn with_thread_scratch<R>(f: impl FnOnce(&mut ExtractScratch) -> R) -> R {
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

/// Extract the K-hop **enclosing** subgraph of `target` from `g`:
/// the entities in `N_K(u) ∩ N_K(v)`, pruned of nodes left isolated, plus
/// every edge of `g` between retained entities. The target edge itself (and
/// its duplicates) is excluded — it is what the model must predict.
pub fn enclosing_subgraph<G: GraphAccess + ?Sized>(g: &G, target: Triple, k: usize) -> Subgraph {
    let mut out = Subgraph::empty(target);
    with_thread_scratch(|scratch| enclosing_subgraph_into(g, target, k, scratch, &mut out));
    out
}

/// Extract the K-hop **disclosing** subgraph of `target` from `g`:
/// the entities in `N_K(u) ∪ N_K(v)` plus every edge between them, again
/// excluding the target edge.
pub fn disclosing_subgraph<G: GraphAccess + ?Sized>(g: &G, target: Triple, k: usize) -> Subgraph {
    let mut out = Subgraph::empty(target);
    with_thread_scratch(|scratch| disclosing_subgraph_into(g, target, k, scratch, &mut out));
    out
}

/// [`enclosing_subgraph`] with caller-owned scratch and output buffers.
/// With both warmed to the graph's size, performs zero heap allocations.
pub fn enclosing_subgraph_into<G: GraphAccess + ?Sized>(
    g: &G,
    target: Triple,
    k: usize,
    scratch: &mut ExtractScratch,
    out: &mut Subgraph,
) {
    let (u, v) = (target.head, target.tail);
    scratch.begin(g, u, v);
    scratch.bfs_u(g, u, k);
    scratch.bfs_v(g, v, k);
    // keep = (visited-by-u ∩ visited-by-v) ∪ {u, v}
    scratch.kept.clear();
    let mut i = 0;
    while i < scratch.queue_u.len() {
        let e = scratch.queue_u[i];
        i += 1;
        if scratch.in_v(e) {
            scratch.mark_kept(e);
        }
    }
    scratch.mark_kept(u.0);
    scratch.mark_kept(v.0);
    collect_edges(g, target, scratch, &mut out.triples);
    // prune entities left isolated (no incident retained edge), keeping u, v
    for t in &out.triples {
        scratch.mark_incident(t.head.0);
        scratch.mark_incident(t.tail.0);
    }
    // `kept` comes back ascending, so `entities` is built sorted
    out.entities.clear();
    for i in 0..scratch.kept.len() {
        let e = scratch.kept[i];
        if scratch.is_incident(e) || e == u.0 || e == v.0 {
            out.entities.push(EntityId(e));
        }
    }
    fill_distances(scratch, k, out);
    out.target = target;
}

/// [`disclosing_subgraph`] with caller-owned scratch and output buffers.
/// With both warmed to the graph's size, performs zero heap allocations.
pub fn disclosing_subgraph_into<G: GraphAccess + ?Sized>(
    g: &G,
    target: Triple,
    k: usize,
    scratch: &mut ExtractScratch,
    out: &mut Subgraph,
) {
    let (u, v) = (target.head, target.tail);
    scratch.begin(g, u, v);
    scratch.bfs_u(g, u, k);
    scratch.bfs_v(g, v, k);
    // keep = visited-by-u ∪ visited-by-v ∪ {u, v}
    scratch.kept.clear();
    let mut i = 0;
    while i < scratch.queue_u.len() {
        let e = scratch.queue_u[i];
        i += 1;
        scratch.mark_kept(e);
    }
    let mut i = 0;
    while i < scratch.queue_v.len() {
        let e = scratch.queue_v[i];
        i += 1;
        scratch.mark_kept(e);
    }
    scratch.mark_kept(u.0);
    scratch.mark_kept(v.0);
    collect_edges(g, target, scratch, &mut out.triples);
    // `kept` comes back ascending, so `entities` is built sorted
    out.entities.clear();
    out.entities.extend(scratch.kept.iter().map(|&e| EntityId(e)));
    fill_distances(scratch, k, out);
    out.target = target;
}

/// Every edge of `g` whose endpoints are both kept, except edges equal to
/// `target`, sorted — by construction, not by a final sort. The kept ids are
/// sorted first (a few hundred), heads are swept in ascending order and only
/// each head's own run is sorted: `Triple` orders by head first, so the
/// concatenation of sorted runs under ascending heads *is* the sorted output.
/// Each triple is read off the edge being looked at — an out-edge of `e` to
/// `n` under `r` is `(e, r, n)` — so the sweep never goes back to the graph
/// for it. Scanning out-edges of distinct entities visits each triple index
/// at most once (a triple's head is unique), so no dedup set is needed.
/// Leaves `scratch.kept` ascending.
fn collect_edges<G: GraphAccess + ?Sized>(
    g: &G,
    target: Triple,
    scratch: &mut ExtractScratch,
    out: &mut Vec<Triple>,
) {
    out.clear();
    scratch.kept.sort_unstable();
    for &e in &scratch.kept {
        let run = out.len();
        for edge in g.out_edges(EntityId(e)) {
            if !scratch.is_kept(edge.neighbor.0) {
                continue;
            }
            let t = Triple { head: EntityId(e), relation: edge.relation, tail: edge.neighbor };
            debug_assert_eq!(t, g.triple(edge.triple_idx), "out-edge disagrees with its triple");
            if t == target {
                continue;
            }
            out.push(t);
        }
        // adjacency is in triple-index order, which is sorted only when the
        // graph was built from sorted input
        out[run..].sort_unstable();
    }
}

/// Fill `out.dists` with BFS distances (capped at k+1) for `out.entities`.
fn fill_distances(scratch: &ExtractScratch, k: usize, out: &mut Subgraph) {
    let cap = (k + 1) as u32;
    out.dists.clear();
    for &e in &out.entities {
        let du = scratch.du(e.0).unwrap_or(cap);
        let dv = scratch.dv(e.0).unwrap_or(cap);
        out.dists.push((e, du, dv));
    }
}

/// The original HashMap/HashSet extraction, kept as the oracle for the
/// equivalence property test in `tests/proptests.rs`. Not for production
/// use: allocates heavily per call.
#[doc(hidden)]
pub mod reference {
    use super::Subgraph;
    use rmpi_kg::{khop_distances, EntityId, KnowledgeGraph, Triple};
    use std::collections::{HashMap, HashSet};

    /// Legacy enclosing-subgraph extraction over HashMap/HashSet state.
    pub fn enclosing_subgraph(g: &KnowledgeGraph, target: Triple, k: usize) -> Subgraph {
        let (u, v) = (target.head, target.tail);
        let du = khop_distances(g, u, k, None);
        let dv = khop_distances(g, v, k, None);
        let mut keep: HashSet<EntityId> =
            du.keys().filter(|e| dv.contains_key(e)).copied().collect();
        keep.insert(u);
        keep.insert(v);
        let triples = collect_edges(g, &keep, target);
        // prune isolated entities (no incident retained edge), keeping u and v
        let mut incident: HashSet<EntityId> = HashSet::new();
        for t in &triples {
            incident.insert(t.head);
            incident.insert(t.tail);
        }
        incident.insert(u);
        incident.insert(v);
        let entities: Vec<EntityId> = {
            let mut es: Vec<EntityId> = keep.intersection(&incident).copied().collect();
            es.sort_unstable();
            es
        };
        build(triples, entities, &du, &dv, k, target)
    }

    /// Legacy disclosing-subgraph extraction over HashMap/HashSet state.
    pub fn disclosing_subgraph(g: &KnowledgeGraph, target: Triple, k: usize) -> Subgraph {
        let (u, v) = (target.head, target.tail);
        let du = khop_distances(g, u, k, None);
        let dv = khop_distances(g, v, k, None);
        let mut keep: HashSet<EntityId> = du.keys().copied().collect();
        keep.extend(dv.keys().copied());
        keep.insert(u);
        keep.insert(v);
        let triples = collect_edges(g, &keep, target);
        let mut entities: Vec<EntityId> = keep.into_iter().collect();
        entities.sort_unstable();
        build(triples, entities, &du, &dv, k, target)
    }

    fn collect_edges(g: &KnowledgeGraph, keep: &HashSet<EntityId>, target: Triple) -> Vec<Triple> {
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for &e in keep {
            for edge in g.out_edges(e) {
                if !keep.contains(&edge.neighbor) {
                    continue;
                }
                let t = g.triple(edge.triple_idx);
                if t == target {
                    continue;
                }
                if seen.insert(edge.triple_idx) {
                    out.push(t);
                }
            }
        }
        out.sort_unstable();
        out
    }

    fn build(
        triples: Vec<Triple>,
        entities: Vec<EntityId>,
        du: &HashMap<EntityId, usize>,
        dv: &HashMap<EntityId, usize>,
        k: usize,
        target: Triple,
    ) -> Subgraph {
        let dist = |m: &HashMap<EntityId, usize>, e: EntityId| m.get(&e).copied().unwrap_or(k + 1);
        let dists = entities.iter().map(|&e| (e, dist(du, e) as u32, dist(dv, e) as u32)).collect();
        Subgraph { triples, entities, dists, target }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmpi_kg::KnowledgeGraph;
    use std::collections::HashSet;

    /// `e`'s `(dist from head, dist from tail)`, if `sg` retained it.
    fn dists(sg: &Subgraph, e: u32) -> Option<(u32, u32)> {
        sg.distance_rows().iter().find(|r| r.0 == EntityId(e)).map(|&(_, du, dv)| (du, dv))
    }

    /// Diamond: u=0, v=3; paths 0->1->3 and 0->2->3, plus a pendant 3->4 and
    /// a far chain 4->5.
    fn diamond() -> (KnowledgeGraph, Triple) {
        let g = KnowledgeGraph::from_triples(vec![
            Triple::new(0u32, 0u32, 1u32),
            Triple::new(1u32, 1u32, 3u32),
            Triple::new(0u32, 2u32, 2u32),
            Triple::new(2u32, 3u32, 3u32),
            Triple::new(3u32, 4u32, 4u32),
            Triple::new(4u32, 4u32, 5u32),
        ]);
        (g, Triple::new(0u32, 9u32, 3u32))
    }

    #[test]
    fn enclosing_keeps_paths_between_endpoints() {
        let (g, target) = diamond();
        let sg = enclosing_subgraph(&g, target, 2);
        // entities on u-v paths: 0,1,2,3 (4 is within 2 hops of v but 3 hops of u via... 4: du=3? 0->1->3->4 = 3 hops -> excluded)
        assert_eq!(sg.entities, vec![EntityId(0), EntityId(1), EntityId(2), EntityId(3)]);
        assert_eq!(sg.num_edges(), 4);
        assert_eq!(dists(&sg, 1), Some((1, 1)));
        assert_eq!(dists(&sg, 3), Some((2, 0)));
        assert_eq!(dists(&sg, 0), Some((0, 2)));
        assert_eq!(dists(&sg, 77), None, "unretained entity has no distance");
    }

    #[test]
    fn target_edge_is_excluded() {
        let (mut triples, target) = {
            let (g, t) = diamond();
            (g.triples().to_vec(), t)
        };
        triples.push(target);
        let g = KnowledgeGraph::from_triples(triples);
        let sg = enclosing_subgraph(&g, target, 2);
        assert!(!sg.triples.contains(&target));
    }

    #[test]
    fn disclosing_is_superset_of_enclosing() {
        let (g, target) = diamond();
        let en = enclosing_subgraph(&g, target, 2);
        let di = disclosing_subgraph(&g, target, 2);
        let en_set: HashSet<Triple> = en.triples.iter().copied().collect();
        let di_set: HashSet<Triple> = di.triples.iter().copied().collect();
        assert!(en_set.is_subset(&di_set));
        // disclosing picks up the pendant edges around v
        assert!(di_set.contains(&Triple::new(3u32, 4u32, 4u32)));
        assert!(di.num_entities() > en.num_entities());
    }

    #[test]
    fn empty_enclosing_retains_endpoints() {
        // u and v in disconnected components
        let g = KnowledgeGraph::from_triples(vec![
            Triple::new(0u32, 0u32, 1u32),
            Triple::new(2u32, 0u32, 3u32),
        ]);
        let target = Triple::new(0u32, 1u32, 2u32);
        let sg = enclosing_subgraph(&g, target, 2);
        assert!(sg.is_empty());
        assert!(sg.entities.contains(&EntityId(0)));
        assert!(sg.entities.contains(&EntityId(2)));
        // unreachable distances are capped at k+1
        assert_eq!(dists(&sg, 0), Some((0, 3)));
    }

    #[test]
    fn hop_limit_shrinks_subgraph() {
        let (g, target) = diamond();
        let sg1 = enclosing_subgraph(&g, target, 1);
        // at K=1 the intersection of 1-hop neighbourhoods is {1, 2} plus endpoints
        assert!(sg1.num_entities() <= 4);
        let sg2 = enclosing_subgraph(&g, target, 2);
        assert!(sg1.num_edges() <= sg2.num_edges());
    }

    #[test]
    fn disclosing_far_chain_within_k_of_either_endpoint() {
        let (g, target) = diamond();
        let di = disclosing_subgraph(&g, target, 2);
        // 5 is 2 hops from v (3->4->5): included in the union
        assert!(di.entities.contains(&EntityId(5)));
        // 3 from u: the capped unreachable-at-k marker
        assert_eq!(dists(&di, 5), Some((3, 2)));
    }

    #[test]
    fn self_loop_target_works() {
        let g = KnowledgeGraph::from_triples(vec![
            Triple::new(0u32, 0u32, 1u32),
            Triple::new(1u32, 0u32, 0u32),
        ]);
        let target = Triple::new(0u32, 1u32, 0u32);
        let sg = enclosing_subgraph(&g, target, 2);
        assert_eq!(sg.num_edges(), 2);
        assert_eq!(dists(&sg, 0), Some((0, 0)));
    }

    #[test]
    fn csr_backend_matches_vec_backend() {
        let (g, target) = diamond();
        let csr = rmpi_kg::CsrGraph::from_graph(&g);
        for k in 0..=3 {
            let a = enclosing_subgraph(&g, target, k);
            let b = enclosing_subgraph(&csr, target, k);
            assert_eq!(a.triples, b.triples);
            assert_eq!(a.entities, b.entities);
            assert_eq!(a.distance_rows(), b.distance_rows());
            let a = disclosing_subgraph(&g, target, k);
            let b = disclosing_subgraph(&csr, target, k);
            assert_eq!(a.triples, b.triples);
            assert_eq!(a.entities, b.entities);
            assert_eq!(a.distance_rows(), b.distance_rows());
        }
    }

    #[test]
    fn matches_reference_on_diamond() {
        let (g, target) = diamond();
        for k in 0..=3 {
            let new = enclosing_subgraph(&g, target, k);
            let old = reference::enclosing_subgraph(&g, target, k);
            assert_eq!(new.triples, old.triples, "k={k}");
            assert_eq!(new.entities, old.entities, "k={k}");
            assert_eq!(new.distance_rows(), old.distance_rows(), "k={k}");
        }
    }

    #[test]
    fn into_buffers_are_reusable_across_targets() {
        let (g, target) = diamond();
        let mut scratch = ExtractScratch::new();
        let mut sg = Subgraph::empty(target);
        enclosing_subgraph_into(&g, target, 2, &mut scratch, &mut sg);
        let first = sg.clone();
        // a different target in between must not leak state into the next call
        disclosing_subgraph_into(&g, Triple::new(4u32, 9u32, 5u32), 1, &mut scratch, &mut sg);
        enclosing_subgraph_into(&g, target, 2, &mut scratch, &mut sg);
        assert_eq!(sg.triples, first.triples);
        assert_eq!(sg.entities, first.entities);
        assert_eq!(sg.distance_rows(), first.distance_rows());
        assert_eq!(sg.target, first.target);
    }
}
