//! The serving layer through the facade crate: bundle round trip on disk,
//! engine parity with offline scoring, and one TCP query — the downstream
//! user's view of `rmpi::serve`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rmpi::core::{RmpiConfig, RmpiModel, ScoringModel};
use rmpi::kg::{KnowledgeGraph, Triple};
use rmpi::serve::{load_bundle, save_bundle, serve, Engine, EngineConfig, ServerConfig};
use rmpi::store::ReadMode;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

fn small_graph() -> KnowledgeGraph {
    KnowledgeGraph::from_triples(vec![
        Triple::new(0u32, 0u32, 1u32),
        Triple::new(1u32, 1u32, 2u32),
        Triple::new(2u32, 2u32, 3u32),
        Triple::new(0u32, 3u32, 3u32),
    ])
}

#[test]
fn bundle_engine_and_server_through_facade() {
    let model = RmpiModel::new(RmpiConfig { dim: 8, ..Default::default() }, 5, 2);
    let names: Vec<String> = (0..5).map(|r| format!("r{r}")).collect();

    // bundle round trip on disk
    let dir = std::env::temp_dir().join(format!("rmpi-facade-bundle-{}", std::process::id()));
    save_bundle(&dir, &model, &names, None).unwrap();
    let (bundle, graph) = load_bundle(&dir, ReadMode::default()).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(graph.is_none());
    assert_eq!(bundle.relation_names, names);

    // engine parity with offline scoring
    let graph = small_graph();
    let target = Triple::new(0u32, 2u32, 2u32);
    let offline = model.score(&graph, target, &mut StdRng::seed_from_u64(4));
    let engine = Arc::new(Engine::new(
        bundle.model,
        graph,
        EngineConfig { seed: 4, cache_capacity: 16, threads: 1 },
    ));
    assert_eq!(engine.score(target).unwrap(), offline);

    // one query over the wire
    let mut server = serve(Arc::clone(&engine), ServerConfig::default()).unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    writeln!(stream, "SCORE 0 2 2").unwrap();
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).unwrap();
    let wire: f32 = line.trim_end().strip_prefix("OK ").unwrap().parse().unwrap();
    assert_eq!(wire, offline, "wire score must equal offline score");
    server.shutdown();
}
