//! End-to-end serving pipeline: train → bundle → reload → serve, pinning the
//! ISSUE acceptance criterion that served scores are bit-identical to offline
//! `RmpiModel::score` with the same seed — on cache miss, cache hit, over the
//! wire, and after a bundle round trip through disk.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rmpi_core::{RmpiConfig, RmpiModel, ScoringModel, TrainConfig, Trainer};
use rmpi_datasets::{build_benchmark, Scale};
use rmpi_serve::{load_bundle, save_bundle, serve, Engine, EngineConfig, ServerConfig};
use rmpi_store::ReadMode;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

const SEED: u64 = 11;

fn trained_model() -> (RmpiModel, rmpi_datasets::Benchmark) {
    let b = build_benchmark("nell.v1", Scale::Quick);
    let mut model =
        RmpiModel::new(RmpiConfig { dim: 8, ne: true, ..RmpiConfig::base() }, b.num_relations(), 5);
    let cfg = TrainConfig {
        epochs: 1,
        max_samples_per_epoch: 12,
        max_valid_samples: 4,
        ..TrainConfig::default()
    };
    Trainer::new(cfg).train(&mut model, &b.train.graph, &b.train.targets, &b.train.valid);
    (model, b)
}

#[test]
fn bundled_engine_scores_bit_identical_to_offline_model() {
    let (model, b) = trained_model();
    let test = b.test("TE").expect("TE split");

    // round-trip the trained model through a bundle
    let path = std::env::temp_dir().join(format!("rmpi-serve-it-{}.bundle", std::process::id()));
    let names: Vec<String> = (0..b.num_relations()).map(|r| format!("rel_{r}")).collect();
    save_bundle(&path, &model, &names, None).expect("save bundle");
    let (bundle, _) = load_bundle(&path, ReadMode::default()).expect("load bundle");
    std::fs::remove_dir_all(&path).ok();
    assert_eq!(bundle.relation_names, names);

    let engine = Engine::new(
        bundle.model,
        test.graph.clone(),
        EngineConfig { seed: SEED, cache_capacity: 256, threads: 2 },
    );

    for &t in test.targets.iter().take(6) {
        let offline = model.score(&test.graph, t, &mut StdRng::seed_from_u64(SEED));
        let miss = engine.score(t).expect("serve miss");
        let hit = engine.score(t).expect("serve hit");
        assert_eq!(miss, offline, "cache-miss score must be bit-identical to offline");
        assert_eq!(hit, offline, "cache-hit score must be bit-identical to offline");
    }

    // the batched path agrees too, independent of thread count
    let targets: Vec<_> = test.targets.iter().copied().take(6).collect();
    let batch = engine.score_batch(&targets).expect("batch");
    for (t, s) in targets.iter().zip(&batch) {
        let offline = model.score(&test.graph, *t, &mut StdRng::seed_from_u64(SEED));
        assert_eq!(*s, offline);
    }
}

#[test]
fn wire_scores_match_offline_scoring() {
    let (model, b) = trained_model();
    let test = b.test("TE").expect("TE split");
    let engine = Arc::new(Engine::new(
        model.clone(),
        test.graph.clone(),
        EngineConfig { seed: SEED, cache_capacity: 64, threads: 1 },
    ));
    let mut server = serve(Arc::clone(&engine), ServerConfig::default()).expect("serve");

    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    let targets: Vec<_> = test.targets.iter().copied().take(4).collect();
    let mut request = String::from("SCORE");
    for t in &targets {
        request.push_str(&format!(" {} {} {}", t.head.0, t.relation.0, t.tail.0));
    }
    writeln!(stream, "{request}").expect("send");
    let mut line = String::new();
    reader.read_line(&mut line).expect("recv");
    let line = line.trim_end();
    let wire: Vec<f32> = line
        .strip_prefix("OK ")
        .unwrap_or_else(|| panic!("unexpected response: {line}"))
        .split(' ')
        .map(|s| s.parse().expect("f32"))
        .collect();

    for (t, s) in targets.iter().zip(&wire) {
        let offline = model.score(&test.graph, *t, &mut StdRng::seed_from_u64(SEED));
        assert_eq!(*s, offline, "wire score for {t:?} must round-trip bit-exactly");
    }
    server.shutdown();
}
