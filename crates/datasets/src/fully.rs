//! Fully inductive benchmark recombination (`XXX.vi.vj`, paper §IV-A).
//!
//! The training graph comes from version `vi`'s rule groups; the testing
//! graph from version `vj`'s larger group set, over disjoint entities. Two
//! testing graphs are derived:
//!
//! * `TE(semi)` — the full testing graph (seen + unseen relations);
//! * `TE(fully)` — the testing graph filtered to triples whose relation is
//!   unseen, i.e. an entirely new graph with only unseen entities *and*
//!   only unseen relations.

use crate::benchmark::{make_test_set, make_train_set, Benchmark, TestSet};
use crate::world::{GraphGenConfig, World};
use rmpi_kg::{KnowledgeGraph, RelationId};
use std::collections::HashSet;

/// Build a fully inductive benchmark from two group sets of one world.
///
/// `train_groups` must be a subset of `test_groups`; the difference supplies
/// the unseen relations.
pub(crate) fn fully_inductive_benchmark(
    name: &str,
    world: World,
    train_groups: &[usize],
    test_groups: &[usize],
    train_gen: GraphGenConfig,
    test_gen: GraphGenConfig,
) -> Benchmark {
    let train_set: HashSet<usize> = train_groups.iter().copied().collect();
    assert!(
        train_groups.iter().all(|g| test_groups.contains(g)),
        "train groups must be a subset of test groups"
    );
    assert!(
        test_groups.iter().any(|g| !train_set.contains(g)),
        "test groups must add at least one unseen group"
    );
    let test_gen = GraphGenConfig {
        entity_offset: train_gen.num_entities as u32,
        seed: test_gen.seed ^ 0xa5a5_5a5a_0f0f_f0f0,
        ..test_gen
    };

    let tr = world.generate_triples(train_groups, &train_gen);
    let te = world.generate_triples(test_groups, &test_gen);
    let train = make_train_set(tr, train_gen.seed.wrapping_add(1));
    let seen_relations: HashSet<RelationId> = train.graph.present_relations().into_iter().collect();

    let semi = make_test_set("TE(semi)", te, test_gen.seed.wrapping_add(2));
    let fully = filter_to_unseen(&semi, &seen_relations);

    Benchmark { name: name.to_owned(), world, seen_relations, train, tests: vec![semi, fully] }
}

/// Derive the `TE(fully)` set: keep only context triples and targets whose
/// relation is unseen.
fn filter_to_unseen(semi: &TestSet, seen: &HashSet<RelationId>) -> TestSet {
    let context: Vec<_> =
        semi.graph.triples().iter().filter(|t| !seen.contains(&t.relation)).copied().collect();
    let targets: Vec<_> =
        semi.targets.iter().filter(|t| !seen.contains(&t.relation)).copied().collect();
    TestSet { name: "TE(fully)".to_owned(), graph: KnowledgeGraph::from_triples(context), targets }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::WorldConfig;
    use rmpi_kg::EntityId;

    fn bench() -> Benchmark {
        let world = World::new(WorldConfig {
            comp_groups: 3,
            long_groups: 2,
            inv_groups: 2,
            sym_groups: 1,
            sub_groups: 1,
            ..Default::default()
        });
        let all: Vec<usize> = (0..world.groups().len()).collect();
        let train: Vec<usize> = all.iter().copied().filter(|g| g % 2 == 0).collect();
        fully_inductive_benchmark(
            "toy.vi.vj",
            world,
            &train,
            &all,
            GraphGenConfig {
                num_entities: 220,
                num_base_triples: 700,
                seed: 3,
                ..Default::default()
            },
            GraphGenConfig {
                num_entities: 160,
                num_base_triples: 520,
                seed: 4,
                ..Default::default()
            },
        )
    }

    #[test]
    fn has_semi_and_fully_test_sets() {
        let b = bench();
        assert!(b.test("TE(semi)").is_some());
        assert!(b.test("TE(fully)").is_some());
    }

    #[test]
    fn semi_contains_both_seen_and_unseen_relations() {
        let b = bench();
        let semi = b.test("TE(semi)").unwrap();
        let rels: HashSet<RelationId> = semi.graph.present_relations().into_iter().collect();
        assert!(rels.iter().any(|r| b.is_unseen(*r)), "semi TE needs unseen relations");
        assert!(rels.iter().any(|r| !b.is_unseen(*r)), "semi TE keeps seen relations");
    }

    #[test]
    fn fully_contains_only_unseen_relations() {
        let b = bench();
        let fully = b.test("TE(fully)").unwrap();
        assert!(!fully.targets.is_empty(), "fully TE must have targets");
        for t in fully.graph.triples().iter().chain(&fully.targets) {
            assert!(b.is_unseen(t.relation), "seen relation {} in TE(fully)", t.relation);
        }
    }

    #[test]
    fn entities_disjoint_from_training() {
        let b = bench();
        let tr: HashSet<EntityId> = b.train.graph.present_entities().into_iter().collect();
        for ts in &b.tests {
            let te: HashSet<EntityId> = ts.graph.present_entities().into_iter().collect();
            assert!(tr.is_disjoint(&te), "{} overlaps train entities", ts.name);
        }
    }

    #[test]
    #[should_panic(expected = "subset")]
    fn train_groups_must_be_subset() {
        let world = World::new(WorldConfig::default());
        fully_inductive_benchmark(
            "bad",
            world,
            &[0, 1],
            &[1, 2],
            GraphGenConfig::default(),
            GraphGenConfig::default(),
        );
    }
}
