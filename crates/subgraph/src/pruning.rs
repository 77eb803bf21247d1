//! Target-relation-guided graph pruning (paper Algorithm 1).
//!
//! Message passing only needs to update a node at layer `k` if its features
//! can still reach the target node in the remaining `K - k` layers. The
//! schedule therefore samples the target's incoming-neighbour frontier sets
//! `N^1 .. N^K` once (steps 1–3 of Algorithm 1), and at layer `k` updates
//! exactly the nodes within `K - k` hops (steps 4–8).

use crate::relview::{RelViewGraph, TARGET_NODE};

/// Precomputed per-layer update sets for K-layer message passing on one
/// relation-view graph.
#[derive(Clone, Debug)]
pub struct PruningSchedule {
    /// `dist[i]` = hops from node `i` to the target along *outgoing* message
    /// flow (i.e. BFS over the target's incoming edges), or `usize::MAX` if
    /// the node can never influence the target.
    pub dist: Vec<usize>,
    /// Number of message passing layers.
    pub k: usize,
}

impl PruningSchedule {
    /// Build the schedule for `k` layers on `rv`: a BFS from the target over
    /// the runs [`RelViewGraph::incoming`] reads, untyped. A node's
    /// in-neighbours are the other members of its two runs; the node itself
    /// and a member of both are met again, but are already visited, and hop
    /// distances do not depend on the order the runs list them in.
    pub fn new(rv: &RelViewGraph, k: usize) -> Self {
        let mut dist = vec![usize::MAX; rv.num_nodes()];
        dist[TARGET_NODE] = 0;
        // a node is queued at most once, so the queue is never popped: a
        // cursor walks it
        let mut queue = Vec::with_capacity(rv.num_nodes());
        queue.push(TARGET_NODE);
        let mut next = 0;
        while let Some(&cur) = queue.get(next) {
            next += 1;
            let d = dist[cur];
            if d == k {
                continue;
            }
            for run in rv.runs(cur) {
                for &(_, src) in run {
                    let src = src as usize;
                    if dist[src] == usize::MAX {
                        dist[src] = d + 1;
                        queue.push(src);
                    }
                }
            }
        }
        PruningSchedule { dist, k }
    }

    /// Nodes whose representation must be updated at layer `layer`
    /// (1-based, `1..=k`): everything within `k - layer` hops of the target.
    ///
    /// The final layer (`layer == k`) updates only the target node itself.
    pub fn active_nodes(&self, layer: usize) -> Vec<usize> {
        let mut nodes = Vec::new();
        self.active_nodes_into(layer, &mut nodes);
        nodes
    }

    /// [`PruningSchedule::active_nodes`] into `out` (cleared first), reusing
    /// its storage.
    pub fn active_nodes_into(&self, layer: usize, out: &mut Vec<usize>) {
        assert!((1..=self.k).contains(&layer), "layer {layer} out of 1..={}", self.k);
        let budget = self.k - layer;
        out.clear();
        out.extend(self.dist.iter().enumerate().filter(|(_, &d)| d <= budget).map(|(i, _)| i));
    }

    /// How many node updates the pruned schedule performs in total,
    /// versus the unpruned `k * |V|` cost — the efficiency win of Alg. 1.
    pub fn update_counts(&self) -> (usize, usize) {
        let pruned: usize = (1..=self.k).map(|l| self.active_nodes(l).len()).sum();
        let full = self.k * self.dist.len();
        (pruned, full)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extraction::enclosing_subgraph;
    use rmpi_kg::{KnowledgeGraph, Triple};

    fn chain_relview() -> RelViewGraph {
        // chain 0->1->2->3->4 with target (0, rt, 4): relation nodes form a path
        let g = KnowledgeGraph::from_triples(vec![
            Triple::new(0u32, 0u32, 1u32),
            Triple::new(1u32, 1u32, 2u32),
            Triple::new(2u32, 2u32, 3u32),
            Triple::new(3u32, 3u32, 4u32),
        ]);
        let sg = enclosing_subgraph(&g, Triple::new(0u32, 9u32, 4u32), 4);
        RelViewGraph::from_subgraph(&sg)
    }

    #[test]
    fn distances_from_target() {
        let rv = chain_relview();
        let sched = PruningSchedule::new(&rv, 3);
        assert_eq!(sched.dist[TARGET_NODE], 0);
        // the edges incident to entity 0 or 4 are 1 hop from the target node
        let one_hop: Vec<usize> =
            sched.dist.iter().enumerate().filter(|(_, &d)| d == 1).map(|(i, _)| i).collect();
        assert_eq!(one_hop.len(), 2, "chain ends touch the target");
    }

    #[test]
    fn last_layer_updates_only_target() {
        let rv = chain_relview();
        let sched = PruningSchedule::new(&rv, 2);
        assert_eq!(sched.active_nodes(2), vec![TARGET_NODE]);
    }

    #[test]
    fn earlier_layers_update_supersets() {
        let rv = chain_relview();
        let sched = PruningSchedule::new(&rv, 3);
        let l1 = sched.active_nodes(1);
        let l2 = sched.active_nodes(2);
        let l3 = sched.active_nodes(3);
        assert!(l1.len() >= l2.len() && l2.len() >= l3.len());
        for n in &l3 {
            assert!(l2.contains(n));
        }
        for n in &l2 {
            assert!(l1.contains(n));
        }
    }

    #[test]
    fn pruned_cost_not_larger_than_full() {
        let rv = chain_relview();
        for k in 1..=4 {
            let sched = PruningSchedule::new(&rv, k);
            let (pruned, full) = sched.update_counts();
            assert!(pruned <= full, "k={k}: pruned {pruned} > full {full}");
        }
    }

    #[test]
    fn unreachable_nodes_never_active() {
        // two disjoint components: target in one, a stray pair in the other
        let g = KnowledgeGraph::from_triples(vec![
            Triple::new(0u32, 0u32, 1u32),
            Triple::new(5u32, 1u32, 6u32),
            Triple::new(6u32, 2u32, 5u32),
        ]);
        // disclosing-style graph where strays could appear:
        let sg = crate::extraction::disclosing_subgraph(&g, Triple::new(0u32, 9u32, 1u32), 2);
        let rv = RelViewGraph::from_subgraph(&sg);
        let sched = PruningSchedule::new(&rv, 2);
        for (i, &d) in sched.dist.iter().enumerate() {
            if d == usize::MAX {
                for l in 1..=2 {
                    assert!(!sched.active_nodes(l).contains(&i));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn layer_zero_is_invalid() {
        let rv = chain_relview();
        PruningSchedule::new(&rv, 2).active_nodes(0);
    }
}
