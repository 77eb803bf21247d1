//! MaKEr-style Ext benchmarks (paper §IV-C, Tables IV–V).
//!
//! FB-Ext / NELL-Ext test graphs contain *both* seen and unseen entities and
//! relations. The prediction targets are bucketed as in MaKEr:
//!
//! * `u_ent`  — all entities unseen, all relations seen;
//! * `u_rel`  — all entities seen, relation unseen;
//! * `u_both` — unseen relation and at least one unseen entity.
//!
//! The test graph is generated over an entity range that *includes* the
//! training entities plus a fresh range, with the full (seen ∪ unseen)
//! relation group set.

use crate::benchmark::{make_train_set, Benchmark, TestSet};
use crate::world::{GraphGenConfig, World};
use rmpi_kg::{split_triples, EntityId, KnowledgeGraph, RelationId, Triple};
use std::collections::HashSet;

/// Build an Ext-style benchmark. `train_groups ⊂ test_groups` as in
/// [`crate::fully::fully_inductive_benchmark`]; `extra_entities` is the count
/// of new (unseen) entities added for the testing graph.
pub(crate) fn ext_benchmark(
    name: &str,
    world: World,
    train_groups: &[usize],
    test_groups: &[usize],
    train_gen: GraphGenConfig,
    extra_entities: usize,
    test_seed: u64,
) -> Benchmark {
    assert!(
        train_groups.iter().all(|g| test_groups.contains(g)),
        "train groups must be a subset of test groups"
    );
    let tr = world.generate_triples(train_groups, &train_gen);
    let train = make_train_set(tr, train_gen.seed.wrapping_add(1));
    let seen_relations: HashSet<RelationId> = train.graph.present_relations().into_iter().collect();
    let seen_entities: HashSet<EntityId> = train.graph.present_entities().into_iter().collect();

    // testing graph over old + new entity ranges, full relation set
    let test_gen = GraphGenConfig {
        num_entities: train_gen.num_entities + extra_entities,
        entity_offset: 0,
        seed: test_seed,
        ..train_gen
    };
    let te = world.generate_triples(test_groups, &test_gen);
    let split = split_triples(&te, 0.0, 0.12, test_seed.wrapping_add(9));
    let context = {
        let mut c = split.train;
        c.extend(split.valid);
        KnowledgeGraph::from_triples(c)
    };

    let is_seen_entity = |e: EntityId| seen_entities.contains(&e);
    let mut u_ent = Vec::new();
    let mut u_rel = Vec::new();
    let mut u_both = Vec::new();
    for t in split.test {
        let rel_seen = seen_relations.contains(&t.relation);
        let h_seen = is_seen_entity(t.head);
        let t_seen = is_seen_entity(t.tail);
        match (rel_seen, h_seen, t_seen) {
            (true, false, false) => u_ent.push(t),
            (false, true, true) => u_rel.push(t),
            (false, _, _) => u_both.push(t), // unseen relation + ≥1 unseen entity
            _ => {} // transductive or mixed-entity seen-relation cases: dropped
        }
    }

    let mk = |bucket: &str, targets: Vec<Triple>| TestSet {
        name: bucket.to_owned(),
        graph: context.clone(),
        targets,
    };
    Benchmark {
        name: name.to_owned(),
        world,
        seen_relations,
        train,
        tests: vec![mk("u_ent", u_ent), mk("u_rel", u_rel), mk("u_both", u_both)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::WorldConfig;

    fn bench() -> Benchmark {
        let world = World::new(WorldConfig {
            comp_groups: 3,
            long_groups: 1,
            inv_groups: 2,
            sym_groups: 1,
            sub_groups: 1,
            ..Default::default()
        });
        let all: Vec<usize> = (0..world.groups().len()).collect();
        let train: Vec<usize> = all.iter().copied().filter(|g| g % 2 == 0).collect();
        ext_benchmark(
            "toy-ext",
            world,
            &train,
            &all,
            GraphGenConfig {
                num_entities: 260,
                num_base_triples: 900,
                seed: 21,
                ..Default::default()
            },
            180,
            77,
        )
    }

    #[test]
    fn buckets_exist_and_nonempty() {
        let b = bench();
        for bucket in ["u_ent", "u_rel", "u_both"] {
            let ts = b.test(bucket).unwrap_or_else(|| panic!("{bucket} missing"));
            assert!(!ts.targets.is_empty(), "{bucket} should have targets");
        }
    }

    #[test]
    fn u_ent_bucket_is_pure() {
        let b = bench();
        let seen_e: HashSet<EntityId> = b.train.graph.present_entities().into_iter().collect();
        for t in &b.test("u_ent").unwrap().targets {
            assert!(!b.is_unseen(t.relation));
            assert!(!seen_e.contains(&t.head) && !seen_e.contains(&t.tail));
        }
    }

    #[test]
    fn u_rel_bucket_is_pure() {
        let b = bench();
        let seen_e: HashSet<EntityId> = b.train.graph.present_entities().into_iter().collect();
        for t in &b.test("u_rel").unwrap().targets {
            assert!(b.is_unseen(t.relation));
            assert!(seen_e.contains(&t.head) && seen_e.contains(&t.tail));
        }
    }

    #[test]
    fn u_both_bucket_is_pure() {
        let b = bench();
        let seen_e: HashSet<EntityId> = b.train.graph.present_entities().into_iter().collect();
        for t in &b.test("u_both").unwrap().targets {
            assert!(b.is_unseen(t.relation));
            assert!(!seen_e.contains(&t.head) || !seen_e.contains(&t.tail));
        }
    }

    #[test]
    fn test_graph_mixes_seen_and_unseen_entities() {
        let b = bench();
        let seen_e: HashSet<EntityId> = b.train.graph.present_entities().into_iter().collect();
        let te = &b.test("u_ent").unwrap().graph;
        let ents = te.present_entities();
        assert!(ents.iter().any(|e| seen_e.contains(e)));
        assert!(ents.iter().any(|e| !seen_e.contains(e)));
    }
}
