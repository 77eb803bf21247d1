//! Streaming world generation: millions of entities with bounded RSS.
//!
//! [`World::generate_triples`] materialises a whole graph in a `BTreeSet`,
//! which is fine at benchmark scale and hopeless at a million entities.
//! [`StreamingWorld`] instead carves the entity range into contiguous
//! *chunks* and generates each chunk as an independent small world over its
//! own entity sub-range, emitting triples chunk by chunk. Peak memory is
//! one chunk's triple set, whatever the total world size.
//!
//! Two properties make the output directly consumable by
//! `rmpi_store::StoreBuilder` with no external sort:
//!
//! * each chunk's triples are sorted `(head, relation, tail)` (the
//!   generator returns sorted output), and
//! * chunk `c`'s entities are all strictly below chunk `c+1`'s, and
//!   [`rmpi_kg::Triple`]'s ordering is head-major — so the concatenation of
//!   chunks is globally sorted.
//!
//! The trade-off is connectivity: edges never cross chunk boundaries, so a
//! streamed world is a disjoint union of island graphs that all share the
//! same relational regularities (same world, same rules). For inductive
//! relational message passing this is the property that matters — every
//! k-hop neighbourhood is still rule-structured — and it is what lets
//! generation scale without a distributed join. Use one chunk when you need
//! a single connected component and can afford the RAM.

use crate::world::{GraphGenConfig, World};
use rmpi_kg::Triple;

/// A lazily generated large world: `World` semantics, chunked emission.
#[derive(Clone, Debug)]
pub struct StreamingWorld<'w> {
    world: &'w World,
    active_groups: Vec<usize>,
    gen: GraphGenConfig,
    chunk_entities: usize,
}

impl<'w> StreamingWorld<'w> {
    /// Stream `gen.num_entities` entities in chunks of `chunk_entities`.
    /// Base-triple and cap budgets are split proportionally across chunks.
    pub fn new(
        world: &'w World,
        active_groups: &[usize],
        gen: GraphGenConfig,
        chunk_entities: usize,
    ) -> Self {
        assert!(chunk_entities > 0, "chunk_entities must be positive");
        StreamingWorld { world, active_groups: active_groups.to_vec(), gen, chunk_entities }
    }

    /// Number of chunks (the last may be smaller).
    fn num_chunks(&self) -> usize {
        self.gen.num_entities.div_ceil(self.chunk_entities)
    }

    /// The generation config of chunk `c`: its entity sub-range, its
    /// proportional share of the base-triple and cap budgets, and a
    /// chunk-decorrelated seed.
    fn chunk_config(&self, c: usize) -> GraphGenConfig {
        let n = self.num_chunks();
        assert!(c < n, "chunk {c} out of {n}");
        let lo = c * self.chunk_entities;
        let hi = ((c + 1) * self.chunk_entities).min(self.gen.num_entities);
        // Exact proportional split: Σ_c share(c) == total, no drift.
        let share = |total: usize| total * (c + 1) / n - total * c / n;
        GraphGenConfig {
            num_entities: hi - lo,
            num_base_triples: share(self.gen.num_base_triples),
            entity_offset: self.gen.entity_offset + lo as u32,
            max_triples: share(self.gen.max_triples),
            seed: self.gen.seed ^ (c as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            ..self.gen
        }
    }

    /// Generate chunk `c`'s triples (sorted, entities within the chunk's
    /// sub-range). This is the only allocation the stream makes.
    fn chunk_triples(&self, c: usize) -> Vec<Triple> {
        self.world.generate_triples(&self.active_groups, &self.chunk_config(c))
    }

    /// Every triple of the world in ascending `(head, relation, tail)`
    /// order, holding at most one chunk in memory: chunks are generated
    /// lazily as the iterator crosses their boundary.
    pub fn iter(&self) -> impl Iterator<Item = Triple> + '_ {
        (0..self.num_chunks()).flat_map(move |c| self.chunk_triples(c).into_iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::WorldConfig;

    fn world() -> World {
        World::new(WorldConfig::default())
    }

    fn gen(entities: usize) -> GraphGenConfig {
        GraphGenConfig {
            num_entities: entities,
            num_base_triples: entities * 3,
            entity_offset: 500,
            max_triples: entities * 40,
            ..Default::default()
        }
    }

    #[test]
    fn concatenation_is_globally_sorted() {
        let w = world();
        let active: Vec<usize> = (0..w.groups().len()).collect();
        let sw = StreamingWorld::new(&w, &active, gen(900), 200);
        assert_eq!(sw.num_chunks(), 5);
        let out: Vec<Triple> = sw.iter().collect();
        assert!(!out.is_empty());
        assert!(out.windows(2).all(|p| p[0] <= p[1]), "stream must be sorted");
    }

    #[test]
    fn chunks_cover_disjoint_entity_ranges() {
        let w = world();
        let active: Vec<usize> = (0..w.groups().len()).collect();
        let sw = StreamingWorld::new(&w, &active, gen(500), 200);
        for c in 0..sw.num_chunks() {
            let cfg = sw.chunk_config(c);
            let lo = cfg.entity_offset;
            let hi = lo + cfg.num_entities as u32;
            for t in sw.chunk_triples(c) {
                assert!((lo..hi).contains(&t.head.0), "chunk {c}: head {t}");
                assert!((lo..hi).contains(&t.tail.0), "chunk {c}: tail {t}");
            }
        }
        // Shares sum exactly to the totals.
        let base: usize = (0..sw.num_chunks()).map(|c| sw.chunk_config(c).num_base_triples).sum();
        assert_eq!(base, sw.gen.num_base_triples);
        let ents: usize = (0..sw.num_chunks()).map(|c| sw.chunk_config(c).num_entities).sum();
        assert_eq!(ents, sw.gen.num_entities);
    }

    #[test]
    fn single_chunk_matches_materialised_generator() {
        let w = world();
        let active: Vec<usize> = (0..w.groups().len()).collect();
        let base = gen(300);
        let sw = StreamingWorld::new(&w, &active, base, 300);
        assert_eq!(sw.num_chunks(), 1);
        // One chunk, chunk seed = gen.seed ^ 0: identical to the one-shot path.
        let want = w.generate_triples(&active, &base);
        let got: Vec<Triple> = sw.iter().collect();
        assert_eq!(got, want);
    }

    #[test]
    fn deterministic_across_runs() {
        let w = world();
        let active: Vec<usize> = (0..w.groups().len()).collect();
        let a: Vec<Triple> = StreamingWorld::new(&w, &active, gen(600), 250).iter().collect();
        let b: Vec<Triple> = StreamingWorld::new(&w, &active, gen(600), 250).iter().collect();
        assert_eq!(a, b);
    }
}
