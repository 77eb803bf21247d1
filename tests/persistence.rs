//! Cross-crate persistence: benchmarks round-trip through the TSV directory
//! format, and a model trained on the original data behaves identically on
//! the reloaded data.

use rand::SeedableRng;
use rmpi::core::{RmpiConfig, RmpiModel, ScoringModel};
use rmpi::datasets::io::{load_benchmark, save_benchmark};
use rmpi::datasets::{build_benchmark, Scale};

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("rmpi-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn saved_benchmark_supports_identical_scoring() {
    let b = build_benchmark("nell.v1", Scale::Quick);
    let dir = tmpdir("score");
    save_benchmark(&dir, &b).unwrap();
    let loaded = load_benchmark(&dir).unwrap();
    assert_eq!(loaded.name, b.name);
    assert_eq!(loaded.num_relations, b.num_relations());
    assert_eq!(loaded.train.graph.triples(), b.train.graph.triples());
    assert_eq!(loaded.train.targets, b.train.targets);
    assert_eq!(loaded.train.valid, b.train.valid);

    let model = RmpiModel::new(RmpiConfig { dim: 8, ..Default::default() }, b.num_relations(), 0);
    let orig_test = b.test("TE").unwrap();
    let load_test = loaded.test("TE").unwrap();
    for (&a, &bt) in orig_test.targets.iter().zip(&load_test.targets).take(8) {
        assert_eq!(a, bt, "target triples must round-trip exactly");
        // fresh identically-seeded rngs: the only stochastic element in eval
        // mode is the subgraph size-cap sampling, which must then agree too
        let s1 = model.score(&orig_test.graph, a, &mut rand::rngs::StdRng::seed_from_u64(3));
        let s2 = model.score(&load_test.graph, bt, &mut rand::rngs::StdRng::seed_from_u64(3));
        assert_eq!(s1, s2, "scores on original vs reloaded graph must agree");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn fully_inductive_metadata_survives() {
    let b = build_benchmark("nell.v1.v3", Scale::Quick);
    let dir = tmpdir("meta");
    save_benchmark(&dir, &b).unwrap();
    let loaded = load_benchmark(&dir).unwrap();
    assert_eq!(loaded.seen_relations, b.seen_relations);
    assert!(loaded.test("TE(semi)").is_some());
    assert!(loaded.test("TE(fully)").is_some());
    // the unseen-only property of TE(fully) survives the round trip
    for t in &loaded.test("TE(fully)").unwrap().targets {
        assert!(!loaded.seen_relations.contains(&t.relation));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
