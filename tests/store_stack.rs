//! The out-of-core stack end to end, through the facade crate: stream a
//! synthetic world straight to disk, train on it with streaming minibatches,
//! package params + graph as a bundle directory, and serve it from a
//! store-backed engine — with store-backed scores pinned bit-identical to
//! the in-memory engine the whole way.

use rmpi::core::{RmpiConfig, RmpiModel, TrainConfig, Trainer};
use rmpi::datasets::world::GraphGenConfig;
use rmpi::datasets::{StreamingWorld, World, WorldConfig};
use rmpi::kg::{KnowledgeGraph, Triple};
use rmpi::serve::{load_bundle, save_bundle, Engine, EngineConfig};
use rmpi::store::{build_from_sorted, ReadMode, StoreConfig, StoreReader};
use std::path::PathBuf;
use std::sync::Arc;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rmpi-store-stack-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn generate_train_bundle_and_serve_from_disk() {
    let root = scratch("e2e");
    let store_dir = root.join("world.store");

    // Stream-generate a chunked world to sorted segments: at no point does
    // the full triple set exist in memory.
    let world = World::new(WorldConfig::default());
    let active: Vec<usize> = (0..world.groups().len()).collect();
    let gen = GraphGenConfig {
        num_entities: 600,
        num_base_triples: 1800,
        max_triples: 7200,
        seed: 11,
        ..Default::default()
    };
    let sw = StreamingWorld::new(&world, &active, gen, 200);
    let summary = build_from_sorted(
        &store_dir,
        StoreConfig { seg_records: 512, ..StoreConfig::default() },
        sw.iter(),
    )
    .unwrap();
    assert!(summary.num_triples > 100, "world too small to exercise anything");

    // Train with streaming minibatches against the store.
    let reader = StoreReader::open(&store_dir, ReadMode::Stream { cache_blocks: 16 }).unwrap();
    let mut valid = Vec::new();
    for i in (0..summary.num_triples as u64).step_by(37).take(24) {
        valid.push(reader.triple_at(i).unwrap());
    }
    let mut model =
        RmpiModel::new(RmpiConfig { dim: 8, ..RmpiConfig::base() }, reader.num_relations(), 3);
    let cfg = TrainConfig {
        epochs: 2,
        batch_size: 8,
        max_samples_per_epoch: 32,
        max_valid_samples: 24,
        seed: 5,
        threads: 2,
        ..Default::default()
    };
    let report = Trainer::new(cfg).train_store(&mut model, &reader, &valid);
    assert_eq!(report.epoch_losses.len(), 2);
    assert!(report.epoch_losses.iter().all(|l| l.is_finite()));

    // Package the trained params together with the graph it was trained on.
    let bdir = root.join("model.bundle");
    save_bundle(&bdir, &model, &[], Some(&store_dir)).unwrap();
    let (bundle, graph_reader) = load_bundle(&bdir, ReadMode::default()).unwrap();
    let graph_reader = graph_reader.expect("the bundle must carry the graph");
    assert_eq!(graph_reader.num_triples(), summary.num_triples);

    // Serve from the bundle's own graph — and pin bit-identity against an
    // in-memory engine over the same triples.
    let mut triples = Vec::new();
    graph_reader.for_each_triple(|t| triples.push(t)).unwrap();
    let ecfg = EngineConfig { seed: 9, cache_capacity: 64, threads: 1 };
    let store_engine = Engine::with_store(bundle.model.clone(), Arc::new(graph_reader), ecfg);
    let mem_engine = Engine::new(bundle.model, KnowledgeGraph::from_triples(triples), ecfg);

    let targets: Vec<Triple> = valid.iter().copied().take(8).collect();
    let from_store = store_engine.score_batch(&targets).unwrap();
    let from_memory = mem_engine.score_batch(&targets).unwrap();
    assert_eq!(from_store, from_memory, "store-backed serving must be bit-identical");

    std::fs::remove_dir_all(&root).unwrap();
}
