//! One raw-socket script, run against both front ends: a replica
//! (`rmpi_serve::serve`) and the router (`rmpi_router::serve_router`) are the
//! same line server under different handlers, so framing, limits, deadline
//! shedding and shutdown must be indistinguishable on the wire.

use rmpi_core::{RmpiConfig, RmpiModel};
use rmpi_kg::{KnowledgeGraph, Triple};
use rmpi_obs::MetricsRegistry;
use rmpi_router::{serve_router, Router, RouterConfig};
use rmpi_serve::{serve, Engine, EngineConfig, ServerConfig, ServerHandle};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Both front ends run with the default request-line cap.
const LINE_CAP: usize = 64 * 1024;

fn test_engine(registry: &Arc<MetricsRegistry>) -> Arc<Engine> {
    let graph = KnowledgeGraph::from_triples(vec![
        Triple::new(0u32, 0u32, 1u32),
        Triple::new(1u32, 1u32, 2u32),
        Triple::new(2u32, 2u32, 3u32),
        Triple::new(3u32, 3u32, 0u32),
    ]);
    let model = RmpiModel::new(RmpiConfig { dim: 8, ..RmpiConfig::base() }, 4, 0);
    Arc::new(Engine::with_registry(
        model,
        graph,
        EngineConfig { seed: 5, cache_capacity: 32, threads: 1 },
        Arc::clone(registry),
    ))
}

fn query(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
    writeln!(stream, "{line}").expect("send");
    let mut response = String::new();
    reader.read_line(&mut response).expect("recv");
    assert!(response.ends_with('\n'), "complete frame: {response:?}");
    response.trim_end().to_owned()
}

/// The script. `overlong` is the front end's own overlong-line counter and
/// `score` the engine's answer to `SCORE 0 0 1`.
fn conformance(mut front: ServerHandle, overlong: rmpi_obs::Counter, score: f32) {
    let mut stream = TcpStream::connect(front.addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    // v1 framing, then the upgrade
    assert_eq!(query(&mut stream, &mut reader, "PING"), "OK pong");
    assert_eq!(query(&mut stream, &mut reader, "SCORE 0 0 1"), format!("OK {score}"));
    assert_eq!(query(&mut stream, &mut reader, "PROTO 2"), "OK proto=2");

    // v2: tags are echoed, an untagged line gets one untagged ERR
    assert_eq!(query(&mut stream, &mut reader, "ID 5 PING"), "ID 5 OK pong");
    assert_eq!(query(&mut stream, &mut reader, "ID 6 SCORE 0 0 1"), format!("ID 6 OK {score}"));
    let untagged = query(&mut stream, &mut reader, "PING");
    assert!(untagged.starts_with("ERR bad request"), "{untagged}");
    assert_eq!(query(&mut stream, &mut reader, "ID 5 PING"), "ID 5 OK pong", "and serves on");

    // counters are read through METRICS alone: STATS is an unknown verb
    let stats = query(&mut stream, &mut reader, "ID 8 STATS");
    assert!(stats.starts_with("ID 8 ERR bad request"), "{stats}");

    // a spent budget is shed, not scored
    assert_eq!(
        query(&mut stream, &mut reader, "ID 7 DEADLINE 0 SCORE 0 0 1"),
        "ID 7 ERR deadline expired"
    );

    // one byte over the line cap: answered, counted, closed. The close may
    // reach us as a reset when the server had not read the whole line.
    let mut line = vec![b'A'; LINE_CAP + 1];
    line.push(b'\n');
    stream.write_all(&line).expect("send overlong");
    let mut response = String::new();
    reader.read_line(&mut response).expect("read rejection");
    assert_eq!(response.trim_end(), format!("ERR request too long (over {LINE_CAP} bytes)"));
    let mut rest = Vec::new();
    if reader.read_to_end(&mut rest).is_ok() {
        assert!(rest.is_empty(), "bytes after the rejection: {rest:?}");
    }
    assert_eq!(overlong.get(), 1);

    // shutdown does not wait for a client that keeps its connection open
    let mut held = TcpStream::connect(front.addr()).expect("connect");
    let mut held_reader = BufReader::new(held.try_clone().expect("clone"));
    assert_eq!(query(&mut held, &mut held_reader, "PING"), "OK pong");
    let t0 = Instant::now();
    front.shutdown();
    assert!(t0.elapsed() < Duration::from_secs(1), "shutdown took {:?}", t0.elapsed());
    drop(held);
}

#[test]
fn a_replica_conforms() {
    let registry = Arc::new(MetricsRegistry::new());
    let engine = test_engine(&registry);
    let score = engine.score(Triple::new(0u32, 0u32, 1u32)).expect("offline score");
    let front = serve(engine, ServerConfig::default()).expect("replica");
    conformance(front, registry.counter("serve.rejected_overlong.count"), score);
}

#[test]
fn the_router_conforms() {
    let engine = test_engine(&Arc::new(MetricsRegistry::new()));
    let score = engine.score(Triple::new(0u32, 0u32, 1u32)).expect("offline score");
    let replicas: Vec<ServerHandle> = (0..2)
        .map(|_| serve(Arc::clone(&engine), ServerConfig::default()).expect("replica"))
        .collect();
    let registry = Arc::new(MetricsRegistry::new());
    let cfg = RouterConfig::new(replicas.iter().map(|r| r.addr()).collect(), (0..4).collect());
    let router = Arc::new(Router::with_registry(cfg, Arc::clone(&registry)));
    let front = serve_router(router).expect("router front end");
    conformance(front, registry.counter("router.rejected_overlong.count"), score);
}
