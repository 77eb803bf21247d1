//! Negative sampling by head/tail corruption (paper §III-E, §IV-B).
//!
//! A negative for `(h, r, t)` replaces the head or the tail with a uniformly
//! sampled entity such that the corrupted triple is not a known fact. The
//! same sampler drives training (one negative per positive) and evaluation
//! (49 ranking candidates).

use rand::seq::SliceRandom;
use rand::Rng;
use rmpi_kg::{EntityId, GraphAccess, KnowledgeGraph, Triple};

/// Uniform head/tail corruption over a fixed candidate entity pool.
#[derive(Clone, Debug)]
pub struct NegativeSampler {
    pool: Vec<EntityId>,
}

impl NegativeSampler {
    /// Sampler over all entities present in `g`.
    pub fn from_graph(g: &KnowledgeGraph) -> Self {
        NegativeSampler { pool: g.present_entities() }
    }

    /// Sampler over an explicit entity pool.
    pub fn from_pool(pool: Vec<EntityId>) -> Self {
        assert!(!pool.is_empty(), "empty candidate pool");
        NegativeSampler { pool }
    }

    /// One corrupted triple: with probability 1/2 replace the head, else the
    /// tail, resampling until the result is not in `known` (up to a bounded
    /// number of attempts, after which the last candidate is returned — on
    /// realistic graphs a collision streak that long is unreachable).
    ///
    /// Generic over [`GraphAccess`]: the membership filter runs identically
    /// against an in-memory graph and a disk-backed store, drawing the same
    /// RNG sequence either way.
    pub fn corrupt<G: GraphAccess + ?Sized, R: Rng>(
        &self,
        positive: Triple,
        known: &G,
        rng: &mut R,
    ) -> Triple {
        let corrupt_head = rng.gen_bool(0.5);
        let mut candidate = positive;
        for _ in 0..64 {
            let e = *self.pool.choose(rng).expect("non-empty pool");
            candidate = if corrupt_head { positive.with_head(e) } else { positive.with_tail(e) };
            if candidate != positive && !known.contains(&candidate) {
                return candidate;
            }
        }
        candidate
    }

    /// `n` distinct corrupted tails for entity ranking — the "49 random
    /// candidates" protocol. The true tail is excluded; corrupted triples
    /// that happen to be known facts are also excluded (filtered setting).
    pub fn ranking_candidates<G: GraphAccess + ?Sized, R: Rng>(
        &self,
        positive: Triple,
        n: usize,
        corrupt_head: bool,
        known: &G,
        rng: &mut R,
    ) -> Vec<Triple> {
        let mut out = Vec::with_capacity(n);
        let mut seen = std::collections::HashSet::new();
        let mut attempts = 0usize;
        let max_attempts = 50 * n + 200;
        while out.len() < n && attempts < max_attempts {
            attempts += 1;
            let e = *self.pool.choose(rng).expect("non-empty pool");
            let cand = if corrupt_head { positive.with_head(e) } else { positive.with_tail(e) };
            if cand == positive || known.contains(&cand) || !seen.insert(e) {
                continue;
            }
            out.push(cand);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn graph() -> KnowledgeGraph {
        KnowledgeGraph::from_triples(
            (0..20u32).map(|i| Triple::new(i, 0u32, (i + 1) % 20)).collect(),
        )
    }

    #[test]
    fn corrupt_changes_exactly_one_endpoint() {
        let g = graph();
        let s = NegativeSampler::from_graph(&g);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let pos = Triple::new(0u32, 0u32, 1u32);
        for _ in 0..100 {
            let neg = s.corrupt(pos, &g, &mut rng);
            assert_ne!(neg, pos);
            assert_eq!(neg.relation, pos.relation);
            let head_changed = neg.head != pos.head;
            let tail_changed = neg.tail != pos.tail;
            assert!(head_changed ^ tail_changed, "exactly one endpoint must change");
            assert!(!g.contains(&neg), "negative must not be a known fact");
        }
    }

    #[test]
    fn ranking_candidates_are_distinct_and_filtered() {
        let g = graph();
        let s = NegativeSampler::from_graph(&g);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let pos = Triple::new(0u32, 0u32, 1u32);
        let cands = s.ranking_candidates(pos, 10, false, &g, &mut rng);
        assert_eq!(cands.len(), 10);
        let tails: std::collections::HashSet<EntityId> = cands.iter().map(|t| t.tail).collect();
        assert_eq!(tails.len(), 10, "tails must be distinct");
        for c in &cands {
            assert_eq!(c.head, pos.head);
            assert!(!g.contains(c));
            assert_ne!(*c, pos);
        }
    }

    #[test]
    fn ranking_candidates_head_mode() {
        let g = graph();
        let s = NegativeSampler::from_graph(&g);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let pos = Triple::new(0u32, 0u32, 1u32);
        let cands = s.ranking_candidates(pos, 5, true, &g, &mut rng);
        for c in &cands {
            assert_eq!(c.tail, pos.tail);
            assert_ne!(c.head, pos.head);
        }
    }

    #[test]
    fn candidate_count_capped_by_pool() {
        // pool of 5 entities, ask for 50 tail candidates: at most 4 usable
        let g = KnowledgeGraph::from_triples(vec![
            Triple::new(0u32, 0u32, 1u32),
            Triple::new(1u32, 0u32, 2u32),
            Triple::new(2u32, 0u32, 3u32),
            Triple::new(3u32, 0u32, 4u32),
        ]);
        let s = NegativeSampler::from_graph(&g);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let pos = Triple::new(0u32, 0u32, 1u32);
        let cands = s.ranking_candidates(pos, 50, false, &g, &mut rng);
        assert!(cands.len() < 50);
        assert!(!cands.is_empty());
    }

    #[test]
    #[should_panic(expected = "empty candidate pool")]
    fn empty_pool_rejected() {
        NegativeSampler::from_pool(vec![]);
    }
}
