//! Relation-view (directed line-graph) transform (paper §III-B, Fig. 3).
//!
//! Every edge of the entity-view subgraph becomes a node of [`RelViewGraph`];
//! two nodes are connected iff their edges share an entity, and each directed
//! connection is typed with one of the six patterns of Fig. 3c:
//!
//! | type | condition (for edge `a → b`)      |
//! |------|-----------------------------------|
//! | H-H  | head(a) = head(b)                 |
//! | H-T  | head(a) = tail(b)                 |
//! | T-H  | tail(a) = head(b)                 |
//! | T-T  | tail(a) = tail(b)                 |
//! | PARA | head & tail both equal            |
//! | LOOP | head(a) = tail(b) and tail(a) = head(b) |
//!
//! PARA subsumes {H-H, T-T} and LOOP subsumes {H-T, T-H} when they apply, so
//! a pair of relation nodes contributes exactly the most specific edge types.
//!
//! The *target* triple is always node 0 of the transform, even though it is
//! excluded from the subgraph's edge set — it is the node whose representation
//! the model reads out.

use crate::extraction::{with_thread_scratch, Subgraph};
use rmpi_kg::{EntityId, RelationId, Triple};

/// Number of distinct relation-view edge types.
pub const NUM_EDGE_TYPES: usize = 6;

/// The six connection patterns between relation nodes (Fig. 3c).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RelEdgeType {
    /// Heads coincide.
    HH,
    /// Head of source = tail of destination.
    HT,
    /// Tail of source = head of destination.
    TH,
    /// Tails coincide.
    TT,
    /// Both endpoints coincide (parallel edges).
    Para,
    /// Endpoints crossed (anti-parallel edges).
    Loop,
}

impl RelEdgeType {
    /// Dense index in `0..NUM_EDGE_TYPES`.
    pub fn index(self) -> usize {
        match self {
            RelEdgeType::HH => 0,
            RelEdgeType::HT => 1,
            RelEdgeType::TH => 2,
            RelEdgeType::TT => 3,
            RelEdgeType::Para => 4,
            RelEdgeType::Loop => 5,
        }
    }

    /// All six types, index order.
    pub fn all() -> [RelEdgeType; NUM_EDGE_TYPES] {
        [
            RelEdgeType::HH,
            RelEdgeType::HT,
            RelEdgeType::TH,
            RelEdgeType::TT,
            RelEdgeType::Para,
            RelEdgeType::Loop,
        ]
    }

    /// Classify the directed connection `a → b`: the applicable types in
    /// index order, empty when the edges share no entity.
    pub fn classify(a: Triple, b: Triple) -> Vec<RelEdgeType> {
        let (types, n) = Self::classify_packed(a, b);
        types[..n].to_vec()
    }

    /// Allocation-free [`Self::classify`]: the (at most two) applicable types
    /// in a fixed array, in index order, plus the valid count. This is the
    /// form [`RelViewGraph::incoming`] calls once per enumerated source.
    #[inline]
    fn classify_packed(a: Triple, b: Triple) -> ([RelEdgeType; 2], usize) {
        let hh = a.head == b.head;
        let ht = a.head == b.tail;
        let th = a.tail == b.head;
        let tt = a.tail == b.tail;
        let mut out = [RelEdgeType::HH; 2];
        let mut n = 0;
        if hh && tt {
            out[0] = RelEdgeType::Para;
            n = 1;
        } else if ht && th {
            out[0] = RelEdgeType::Loop;
            n = 1;
        } else {
            // at most two basics can hold once Para/Loop are excluded: three
            // of {hh, ht, th, tt} force the fourth, which is the Para case
            if hh {
                out[n] = RelEdgeType::HH;
                n += 1;
            }
            if ht {
                out[n] = RelEdgeType::HT;
                n += 1;
            }
            if th {
                out[n] = RelEdgeType::TH;
                n += 1;
            }
            if tt {
                out[n] = RelEdgeType::TT;
                n += 1;
            }
        }
        (out, n)
    }
}

/// One node of the relation view: an edge instance of the entity view.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RelNode {
    /// The underlying entity-view edge.
    pub triple: Triple,
    /// Its relation label (what the node's embedding keys on).
    pub relation: RelationId,
}

/// A directed incoming edge in the relation view.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RelInEdge {
    /// Source node index (the message sender `r_j`).
    pub src: usize,
    /// Connection pattern of `src → dst`.
    pub etype: RelEdgeType,
}

/// An entry of [`RelViewGraph`]'s incidence list: `(entity, node)`.
type Entry = (EntityId, u32);

/// A `[start, end)` run of [`RelViewGraph`]'s incidence list: one entity's
/// group.
type Run = (u32, u32);

/// The relation-view graph R(G) of a subgraph, with the target triple as
/// node 0.
///
/// The view is *implicit*: the line graph's edge count is quadratic in entity
/// degree and a pruned K-layer forward reads only the in-edges of nodes
/// within K−1 hops of the target, so no edge is ever stored. A node's typed
/// in-neighbours are exactly the other members of its head's and its tail's
/// incidence groups; [`Self::incoming`] enumerates them run by run on demand.
/// Heap size is three arrays of one or two entries per node, whatever the
/// degree distribution.
#[derive(Clone, Debug)]
pub struct RelViewGraph {
    /// Nodes (target first, then the subgraph edges in sorted order).
    pub nodes: Vec<RelNode>,
    /// `(entity, node)` for every node endpoint (a self-loop contributes one
    /// entry), grouped by entity: each entity's group is a contiguous run
    /// with its nodes in ascending index order, the groups in ascending
    /// entity order.
    incidence: Vec<Entry>,
    /// Per node, the runs of its head's and its tail's group. The tail run
    /// is empty for a self-loop, whose only group is its head's.
    groups: Vec<[Run; 2]>,
}

/// Index of the target relation node.
pub const TARGET_NODE: usize = 0;

/// Working arrays of [`RelViewGraph::from_subgraph`]'s counting build, one
/// entry per incidence group. They live in the thread's extraction scratch,
/// so a warm build allocates only the view's own three arrays.
#[derive(Clone, Debug, Default)]
pub(crate) struct GroupScratch {
    /// `(entity, group)`, groups numbered in first-seen order.
    entities: Vec<(u32, u32)>,
    /// Per group: its endpoint count, then its placement cursor.
    cursor: Vec<u32>,
    /// Per group: its run of the incidence list.
    runs: Vec<Run>,
}

/// A node's endpoints with their side (0 = head, 1 = tail); a self-loop has
/// only its head's.
fn endpoints(t: Triple) -> impl Iterator<Item = (usize, EntityId)> {
    [t.head, t.tail].into_iter().enumerate().take(if t.tail == t.head { 1 } else { 2 })
}

/// Iterator over one node's incoming edges; see [`RelViewGraph::incoming`].
#[derive(Clone, Debug)]
pub struct Incoming<'a> {
    nodes: &'a [RelNode],
    dst: u32,
    dst_triple: Triple,
    /// The unread rest of the destination's head run.
    by_head: &'a [Entry],
    /// The unread rest of its tail run (empty for a self-loop).
    by_tail: &'a [Entry],
    /// Second type of the source just yielded (two basic patterns hold at
    /// once when one of the pair is a self-loop).
    pending: Option<RelInEdge>,
}

impl Incoming<'_> {
    /// The edge from `src`, whose triple is `s`; a second type waits in
    /// `pending`.
    fn typed(&mut self, src: u32, s: Triple) -> RelInEdge {
        let src = src as usize;
        let (types, n) = RelEdgeType::classify_packed(s, self.dst_triple);
        debug_assert!(n >= 1, "members of one incidence group share an entity");
        if n == 2 {
            self.pending = Some(RelInEdge { src, etype: types[1] });
        }
        RelInEdge { src, etype: types[0] }
    }
}

impl Iterator for Incoming<'_> {
    type Item = RelInEdge;

    fn next(&mut self) -> Option<RelInEdge> {
        if let Some(e) = self.pending.take() {
            return Some(e);
        }
        // the head run holds every source of HH, TH, Para and Loop — and of
        // HT and TT too when the destination is a self-loop, with no tail run
        while let Some((&(_, src), rest)) = self.by_head.split_first() {
            self.by_head = rest;
            if src != self.dst {
                let s = self.nodes[src as usize].triple;
                return Some(self.typed(src, s));
            }
        }
        // the tail run adds HT and TT; a member that shares the destination's
        // head as well (the destination itself, a parallel or an anti-parallel
        // edge) was typed in the head run
        let head = self.dst_triple.head;
        while let Some((&(_, src), rest)) = self.by_tail.split_first() {
            self.by_tail = rest;
            let s = self.nodes[src as usize].triple;
            if s.head != head && s.tail != head {
                return Some(self.typed(src, s));
            }
        }
        None
    }
}

impl RelViewGraph {
    /// Build R(G) for `sg`, inserting the target triple as node 0, in three
    /// allocations. Nothing is sorted but the distinct entities: a counting
    /// pass keyed by entity places the endpoints, through an entity → group
    /// map borrowed from this thread's extraction scratch — so this must not
    /// run inside [`crate::with_thread_scratch`]'s closure. Only `sg.triples`
    /// and `sg.target` are read.
    pub fn from_subgraph(sg: &Subgraph) -> Self {
        let mut nodes = Vec::with_capacity(sg.triples.len() + 1);
        nodes.push(RelNode { triple: sg.target, relation: sg.target.relation });
        for &t in &sg.triples {
            nodes.push(RelNode { triple: t, relation: t.relation });
        }
        let ids = nodes
            .iter()
            .map(|n| n.triple.head.index().max(n.triple.tail.index()) + 1)
            .fold(0, usize::max);

        // holds each node's group ids until the groups' runs are known
        let mut groups = vec![[(0, 0); 2]; nodes.len()];
        let incidence = with_thread_scratch(|scratch| {
            let (mut group_of, s) = scratch.group_map(ids);
            s.entities.clear();
            s.cursor.clear();
            // number the groups in first-seen order and count their endpoints
            for (n, g) in nodes.iter().zip(groups.iter_mut()) {
                for (side, e) in endpoints(n.triple) {
                    g[side].0 = match group_of.get(e.0) {
                        Some(group) => {
                            s.cursor[group as usize] += 1;
                            group
                        }
                        None => {
                            let group = s.cursor.len() as u32;
                            group_of.set(e.0, group);
                            s.entities.push((e.0, group));
                            s.cursor.push(1);
                            group
                        }
                    };
                }
            }
            // the runs follow in ascending entity order, as a sort of the
            // pairs would leave them
            s.entities.sort_unstable();
            s.runs.clear();
            s.runs.resize(s.cursor.len(), (0, 0));
            let mut end = 0;
            for &(_, group) in &s.entities {
                let (start, count) = (end, s.cursor[group as usize]);
                end += count;
                s.runs[group as usize] = (start, end);
                s.cursor[group as usize] = start;
            }
            // endpoints in node order, so each group lists its nodes ascending
            let mut incidence = vec![(EntityId(0), 0); end as usize];
            for (i, (n, g)) in nodes.iter().zip(groups.iter_mut()).enumerate() {
                for (side, e) in endpoints(n.triple) {
                    let group = g[side].0 as usize;
                    incidence[s.cursor[group] as usize] = (e, i as u32);
                    s.cursor[group] += 1;
                    g[side] = s.runs[group];
                }
            }
            incidence
        });
        RelViewGraph { nodes, incidence, groups }
    }

    /// Number of relation nodes (entity-view edges + target).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Total number of directed typed edges, counted by enumerating every
    /// node's incoming edges: O(E), for reports and checks, not hot paths.
    pub fn num_edges(&self) -> usize {
        (0..self.num_nodes()).map(|dst| self.incoming(dst).count()).sum()
    }

    /// The two runs [`Self::incoming`] reads for `node`, untyped: every
    /// member of its head's and its tail's group, `node` itself included and
    /// a source sharing both of its entities in both — all a traversal that
    /// tolerates repeats needs.
    pub(crate) fn runs(&self, node: usize) -> [&[Entry]; 2] {
        let [(h0, h1), (t0, t1)] = self.groups[node];
        [&self.incidence[h0 as usize..h1 as usize], &self.incidence[t0 as usize..t1 as usize]]
    }

    /// The incidence list and each node's `[head run, tail run]` — what the
    /// construction oracle compares against the sort-based layout.
    #[doc(hidden)]
    pub fn layout(&self) -> (&[Entry], &[[Run; 2]]) {
        (&self.incidence, &self.groups)
    }

    /// Incoming edges of `node`, without allocating: per edge type, ascending
    /// source; one run per type. HH, TH, Para and Loop come from the head's
    /// group, HT and TT from the tail's (from the head's too when `node` is a
    /// self-loop, which has no tail run). Types interleave across sources; a
    /// source with two types yields both back to back.
    ///
    /// Per-type order is the contract: every consumer reads each edge type on
    /// its own, so it fixes the f32 aggregation order (and therefore every
    /// score bit) downstream. It falls out of the layout — a group lists its
    /// nodes in ascending index order, and each type is read from one group.
    pub fn incoming(&self, node: usize) -> Incoming<'_> {
        let [by_head, by_tail] = self.runs(node);
        Incoming {
            nodes: &self.nodes,
            dst: node as u32,
            dst_triple: self.nodes[node].triple,
            by_head,
            by_tail,
            pending: None,
        }
    }

    /// All `(dst, incoming edge)` pairs, grouped by destination.
    pub fn iter_edges(&self) -> impl Iterator<Item = (usize, RelInEdge)> + '_ {
        (0..self.num_nodes()).flat_map(move |dst| self.incoming(dst).map(move |e| (dst, e)))
    }

    /// The distinct relations labelling the one-hop incoming neighbourhood of
    /// the target node.
    pub fn target_neighbor_relations(&self) -> Vec<RelationId> {
        let mut rels: Vec<RelationId> =
            self.incoming(TARGET_NODE).map(|e| self.nodes[e.src].relation).collect();
        rels.sort_unstable();
        rels.dedup();
        rels
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extraction::enclosing_subgraph;
    use rmpi_kg::KnowledgeGraph;

    #[test]
    fn classify_basic_patterns() {
        let a = Triple::new(0u32, 0u32, 1u32);
        assert_eq!(RelEdgeType::classify(a, Triple::new(0u32, 1u32, 2u32)), vec![RelEdgeType::HH]);
        assert_eq!(RelEdgeType::classify(a, Triple::new(2u32, 1u32, 0u32)), vec![RelEdgeType::HT]);
        assert_eq!(RelEdgeType::classify(a, Triple::new(1u32, 1u32, 2u32)), vec![RelEdgeType::TH]);
        assert_eq!(RelEdgeType::classify(a, Triple::new(2u32, 1u32, 1u32)), vec![RelEdgeType::TT]);
        assert_eq!(
            RelEdgeType::classify(a, Triple::new(0u32, 1u32, 1u32)),
            vec![RelEdgeType::Para]
        );
        assert_eq!(
            RelEdgeType::classify(a, Triple::new(1u32, 1u32, 0u32)),
            vec![RelEdgeType::Loop]
        );
        assert!(RelEdgeType::classify(a, Triple::new(5u32, 1u32, 6u32)).is_empty());
    }

    #[test]
    fn classify_can_return_two_basic_patterns() {
        // a = (0 -> 1), b = (1 -> 0)? that's LOOP. Two basics need e.g.
        // a = (0 -> 1), b = (0 -> 0): HH (head=head) and HT (head=tail).
        let a = Triple::new(0u32, 0u32, 1u32);
        let b = Triple::new(0u32, 1u32, 0u32);
        let ts = RelEdgeType::classify(a, b);
        assert!(ts.contains(&RelEdgeType::HH) && ts.contains(&RelEdgeType::HT));
    }

    #[test]
    fn node_count_is_edge_count_plus_target() {
        let g = KnowledgeGraph::from_triples(vec![
            Triple::new(0u32, 0u32, 1u32),
            Triple::new(1u32, 1u32, 3u32),
            Triple::new(0u32, 2u32, 2u32),
            Triple::new(2u32, 3u32, 3u32),
        ]);
        let sg = enclosing_subgraph(&g, Triple::new(0u32, 9u32, 3u32), 2);
        let rv = RelViewGraph::from_subgraph(&sg);
        assert_eq!(rv.num_nodes(), sg.num_edges() + 1);
        assert_eq!(rv.nodes[TARGET_NODE].triple, sg.target);
    }

    #[test]
    fn edges_require_shared_entity() {
        let g = KnowledgeGraph::from_triples(vec![
            Triple::new(0u32, 0u32, 1u32),
            Triple::new(1u32, 1u32, 3u32),
            Triple::new(0u32, 2u32, 2u32),
            Triple::new(2u32, 3u32, 3u32),
        ]);
        let sg = enclosing_subgraph(&g, Triple::new(0u32, 9u32, 3u32), 2);
        let rv = RelViewGraph::from_subgraph(&sg);
        for dst in 0..rv.num_nodes() {
            for e in rv.incoming(dst) {
                let a = rv.nodes[e.src].triple;
                let b = rv.nodes[dst].triple;
                let shared =
                    a.head == b.head || a.head == b.tail || a.tail == b.head || a.tail == b.tail;
                assert!(shared, "edge without shared entity: {a} -> {b}");
            }
        }
    }

    #[test]
    fn direction_types_mirror() {
        // a=(0,r,1), b=(1,r,2): a->b is T-H, b->a is H-T.
        let a = Triple::new(0u32, 0u32, 1u32);
        let b = Triple::new(1u32, 1u32, 2u32);
        assert_eq!(RelEdgeType::classify(a, b), vec![RelEdgeType::TH]);
        assert_eq!(RelEdgeType::classify(b, a), vec![RelEdgeType::HT]);
    }

    #[test]
    fn target_node_receives_messages_from_incident_edges() {
        let g = KnowledgeGraph::from_triples(vec![
            Triple::new(0u32, 0u32, 1u32), // shares head with target
            Triple::new(1u32, 1u32, 3u32),
        ]);
        let sg = enclosing_subgraph(&g, Triple::new(0u32, 9u32, 3u32), 2);
        let rv = RelViewGraph::from_subgraph(&sg);
        assert!(rv.incoming(TARGET_NODE).next().is_some());
        let rels = rv.target_neighbor_relations();
        assert!(rels.contains(&RelationId(0)));
        assert!(rels.contains(&RelationId(1)));
    }

    #[test]
    fn empty_subgraph_gives_isolated_target() {
        let g = KnowledgeGraph::from_triples(vec![Triple::new(5u32, 0u32, 6u32)]);
        let sg = enclosing_subgraph(&g, Triple::new(0u32, 1u32, 1u32), 2);
        let rv = RelViewGraph::from_subgraph(&sg);
        assert_eq!(rv.num_nodes(), 1);
        assert!(rv.incoming(TARGET_NODE).next().is_none());
        assert!(rv.target_neighbor_relations().is_empty());
    }

    #[test]
    fn parallel_edges_linked_as_para_both_ways() {
        let g = KnowledgeGraph::from_triples(vec![
            Triple::new(0u32, 0u32, 1u32),
            Triple::new(0u32, 1u32, 1u32),
            Triple::new(1u32, 2u32, 0u32),
        ]);
        let sg = enclosing_subgraph(&g, Triple::new(0u32, 9u32, 1u32), 1);
        let rv = RelViewGraph::from_subgraph(&sg);
        // find the two para nodes
        let para_edges: usize =
            rv.iter_edges().filter(|(_, e)| e.etype == RelEdgeType::Para).count();
        // r0<->r1 are parallel; target (0,9,1) is also parallel to both.
        assert!(para_edges >= 2, "para edges: {para_edges}");
        let loop_edges: usize =
            rv.iter_edges().filter(|(_, e)| e.etype == RelEdgeType::Loop).count();
        assert!(loop_edges >= 2, "loop edges from the reversed r2: {loop_edges}");
    }
}
