//! Common benchmark containers and the partially inductive builder.

use crate::world::{GraphGenConfig, World};
use rmpi_kg::{split_triples, KnowledgeGraph, RelationId, Triple};
use std::collections::HashSet;

/// The training side of a benchmark: a context graph plus target splits.
#[derive(Clone, Debug)]
pub struct TrainSet {
    /// The training graph (context for subgraph extraction). Target triples
    /// are members of this graph; extraction excludes the target edge itself.
    pub graph: KnowledgeGraph,
    /// Triples to train on (the graph's own triples).
    pub targets: Vec<Triple>,
    /// Held-out validation triples (not in `graph`).
    pub valid: Vec<Triple>,
}

/// One testing graph with its prediction targets.
#[derive(Clone, Debug)]
pub struct TestSet {
    /// Label, e.g. `"TE"`, `"TE(semi)"`, `"TE(fully)"`, `"u_rel"`.
    pub name: String,
    /// Context graph for subgraph extraction at test time.
    pub graph: KnowledgeGraph,
    /// Target triples to predict (not in `graph`).
    pub targets: Vec<Triple>,
}

/// A complete inductive benchmark.
#[derive(Clone, Debug)]
pub struct Benchmark {
    /// Dataset name (e.g. `"nell.v2.v3"`).
    pub name: String,
    /// The generating world (source of the relation vocabulary and schema).
    pub world: World,
    /// Relations present in the training graph — everything else is unseen.
    pub seen_relations: HashSet<RelationId>,
    /// Training side.
    pub train: TrainSet,
    /// One or more testing graphs.
    pub tests: Vec<TestSet>,
}

impl Benchmark {
    /// Relation id space size (the world's concrete relations).
    pub fn num_relations(&self) -> usize {
        self.world.num_relations()
    }

    /// `true` when `r` did not occur in the training graph.
    pub fn is_unseen(&self, r: RelationId) -> bool {
        !self.seen_relations.contains(&r)
    }

    /// Look up a test set by name.
    pub fn test(&self, name: &str) -> Option<&TestSet> {
        self.tests.iter().find(|t| t.name == name)
    }
}

/// Split one generated triple pool into a [`TrainSet`] following the paper's
/// protocol: 80% context+targets, 10% validation, 10% reserved (folded into
/// validation candidates here — the paper leaves it as extra targets).
pub(crate) fn make_train_set(triples: Vec<Triple>, seed: u64) -> TrainSet {
    let split = split_triples(&triples, 0.1, 0.1, seed);
    let graph = KnowledgeGraph::from_triples(split.train.clone());
    TrainSet { graph, targets: split.train, valid: split.valid }
}

/// Split a generated test-graph pool into context (90%) and targets (10%).
pub(crate) fn make_test_set(name: &str, triples: Vec<Triple>, seed: u64) -> TestSet {
    let split = split_triples(&triples, 0.0, 0.1, seed);
    let mut context = split.train;
    context.extend(split.valid);
    TestSet {
        name: name.to_owned(),
        graph: KnowledgeGraph::from_triples(context),
        targets: split.test,
    }
}

/// Build a GraIL-style **partially inductive** benchmark: the training and
/// testing graphs are generated from the same world and rule groups over
/// disjoint entity ranges, so the relation vocabulary is shared but every
/// test entity is unseen.
pub fn partial_benchmark(
    name: &str,
    world: World,
    active_groups: &[usize],
    train_gen: GraphGenConfig,
    test_gen: GraphGenConfig,
) -> Benchmark {
    assert_eq!(train_gen.entity_offset, 0, "train entities start at 0 by convention");
    let test_gen = GraphGenConfig {
        entity_offset: train_gen.num_entities as u32,
        seed: test_gen.seed ^ 0x9e3779b97f4a7c15,
        ..test_gen
    };
    let tr = world.generate_triples(active_groups, &train_gen);
    let te = world.generate_triples(active_groups, &test_gen);
    let train = make_train_set(tr, train_gen.seed.wrapping_add(1));
    let seen_relations = train.graph.present_relations().into_iter().collect();
    let test = make_test_set("TE", te, test_gen.seed.wrapping_add(2));
    Benchmark { name: name.to_owned(), world, seen_relations, train, tests: vec![test] }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::WorldConfig;
    use rmpi_kg::EntityId;

    fn bench() -> Benchmark {
        let world = World::new(WorldConfig::default());
        let groups: Vec<usize> = (0..world.groups().len()).collect();
        partial_benchmark(
            "toy",
            world,
            &groups,
            GraphGenConfig {
                num_entities: 200,
                num_base_triples: 600,
                seed: 11,
                ..Default::default()
            },
            GraphGenConfig {
                num_entities: 120,
                num_base_triples: 360,
                seed: 12,
                ..Default::default()
            },
        )
    }

    #[test]
    fn entity_sets_are_disjoint() {
        let b = bench();
        let tr: HashSet<EntityId> = b.train.graph.present_entities().into_iter().collect();
        let te: HashSet<EntityId> = b.tests[0].graph.present_entities().into_iter().collect();
        assert!(tr.is_disjoint(&te), "inductive split requires disjoint entities");
        assert!(!tr.is_empty() && !te.is_empty());
    }

    #[test]
    fn test_relations_are_seen_in_partial_setting() {
        let b = bench();
        for t in b.tests[0].graph.triples().iter().chain(&b.tests[0].targets) {
            assert!(
                !b.is_unseen(t.relation),
                "partial benchmark must not contain unseen relations: {}",
                t.relation
            );
        }
    }

    #[test]
    fn targets_not_in_context_graphs() {
        let b = bench();
        for v in &b.train.valid {
            assert!(!b.train.graph.contains(v), "validation triple leaked into context");
        }
        for t in &b.tests[0].targets {
            assert!(!b.tests[0].graph.contains(t), "test target leaked into context");
        }
    }

    #[test]
    fn train_targets_are_graph_members() {
        let b = bench();
        for t in &b.train.targets {
            assert!(b.train.graph.contains(t));
        }
    }

    #[test]
    fn split_proportions_roughly_80_10_10() {
        let b = bench();
        let n = b.train.targets.len() + b.train.valid.len();
        let frac_valid = b.train.valid.len() as f64 / n as f64;
        assert!(frac_valid > 0.05 && frac_valid < 0.2, "valid fraction {frac_valid}");
    }

    #[test]
    fn deterministic_by_name_inputs() {
        let a = bench();
        let b = bench();
        assert_eq!(a.train.targets, b.train.targets);
        assert_eq!(a.tests[0].targets, b.tests[0].targets);
    }
}
