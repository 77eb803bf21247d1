//! Shared machinery for the entity-view baselines.

use rand::rngs::StdRng;
use rmpi_core::sample::apply_edge_budget;
use rmpi_core::Mode;
use rmpi_kg::{EntityId, GraphAccess, Triple};
use rmpi_subgraph::{double_radius_labels, enclosing_subgraph, NodeLabel, Subgraph};
use std::collections::HashMap;

/// Maximum distance for double-radius labels.
pub(crate) const MAX_LABEL_DIST: usize = 3;

/// Hyper-parameters shared by the entity-view baselines.
#[derive(Clone, Copy, Debug)]
pub struct BaselineConfig {
    /// Hidden dimension.
    pub dim: usize,
    /// GNN layers.
    pub num_layers: usize,
    /// Subgraph hop.
    pub hop: usize,
    /// Edge dropout during training.
    pub edge_dropout: f64,
    /// Safety cap on subgraph edges.
    pub max_subgraph_edges: usize,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        BaselineConfig {
            dim: 32,
            num_layers: 2,
            hop: 2,
            edge_dropout: 0.5,
            max_subgraph_edges: 300,
        }
    }
}

impl BaselineConfig {
    /// Length of the initial one-hot double-radius features.
    pub(crate) fn label_dim(&self) -> usize {
        NodeLabel::one_hot_len(MAX_LABEL_DIST)
    }
}

/// An entity-view forward-pass input: the (possibly edge-dropped) enclosing
/// subgraph, its double-radius labels, and a dense entity index.
#[derive(Clone, Debug)]
pub(crate) struct EntitySample {
    /// The enclosing subgraph.
    pub(crate) sg: Subgraph,
    /// Double-radius label per entity.
    pub(crate) labels: HashMap<EntityId, NodeLabel>,
    /// Dense index of each entity (stable ordering).
    pub(crate) entity_index: HashMap<EntityId, usize>,
    /// Entities in dense-index order.
    pub(crate) entities: Vec<EntityId>,
}

/// Extract and label the enclosing subgraph for `target`.
pub(crate) fn prepare_entity_sample<G: GraphAccess + ?Sized>(
    graph: &G,
    target: Triple,
    cfg: &BaselineConfig,
    mode: Mode,
    rng: &mut StdRng,
) -> EntitySample {
    let mut sg = enclosing_subgraph(graph, target, cfg.hop);
    apply_edge_budget(&mut sg, cfg.edge_dropout, cfg.max_subgraph_edges, mode, rng);
    // entities may have shrunk after dropout; recompute the present set but
    // always keep the target endpoints
    let mut entities: Vec<EntityId> = sg
        .triples
        .iter()
        .flat_map(|t| [t.head, t.tail])
        .chain([target.head, target.tail])
        .collect();
    entities.sort_unstable();
    entities.dedup();
    sg.entities = entities.clone();
    let labels = double_radius_labels(&sg, MAX_LABEL_DIST);
    let entity_index = entities.iter().enumerate().map(|(i, &e)| (e, i)).collect();
    EntitySample { sg, labels, entity_index, entities }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rmpi_kg::KnowledgeGraph;

    fn graph() -> KnowledgeGraph {
        KnowledgeGraph::from_triples(vec![
            Triple::new(0u32, 0u32, 1u32),
            Triple::new(1u32, 1u32, 3u32),
            Triple::new(0u32, 2u32, 2u32),
            Triple::new(2u32, 3u32, 3u32),
        ])
    }

    #[test]
    fn sample_indexes_every_entity() {
        let g = graph();
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = BaselineConfig { edge_dropout: 0.0, ..Default::default() };
        let s =
            prepare_entity_sample(&g, Triple::new(0u32, 9u32, 3u32), &cfg, Mode::Eval, &mut rng);
        assert_eq!(s.entities.len(), 4);
        for e in &s.entities {
            assert!(s.labels.contains_key(e), "label missing for {e}");
            assert!(s.entity_index.contains_key(e));
        }
    }

    #[test]
    fn endpoints_survive_total_dropout() {
        let g = graph();
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = BaselineConfig { edge_dropout: 0.999, ..Default::default() };
        let s =
            prepare_entity_sample(&g, Triple::new(0u32, 9u32, 3u32), &cfg, Mode::Train, &mut rng);
        assert!(s.entities.contains(&EntityId(0)));
        assert!(s.entities.contains(&EntityId(3)));
    }

    #[test]
    fn label_dim_matches_config() {
        let cfg = BaselineConfig::default();
        assert_eq!(cfg.label_dim(), 8);
    }
}
