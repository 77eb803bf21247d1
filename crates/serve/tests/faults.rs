//! Self-healing serving under injected faults: hot reload atomicity,
//! panic-isolated request handling, bundle diagnostics that name the file
//! and line, and bundle saves that a crash cannot leave half-committed.
//!
//! Every test holds `failpoint::exclusive()` for its whole body — some arm
//! global failpoints and the others drive concurrent scoring that must not
//! observe them. Tests that arm the scoring failpoint live here and not
//! among the crate's unit tests for the same reason: failpoints are
//! process-wide, and the unit tests score without taking the lock.

use rmpi_core::{RmpiConfig, RmpiModel};
use rmpi_kg::{KnowledgeGraph, Triple};
use rmpi_serve::{
    load_bundle, save_bundle, serve, BatchItem, Engine, EngineConfig, ServeError, ServerConfig,
    SCORE_FAILPOINT,
};
use rmpi_store::ReadMode;
use rmpi_testutil::failpoint::{self, Action};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn toy_graph() -> KnowledgeGraph {
    KnowledgeGraph::from_triples(vec![
        Triple::new(0u32, 0u32, 1u32),
        Triple::new(1u32, 1u32, 3u32),
        Triple::new(0u32, 2u32, 2u32),
        Triple::new(2u32, 3u32, 3u32),
        Triple::new(3u32, 4u32, 4u32),
    ])
}

fn model(init_seed: u64) -> RmpiModel {
    RmpiModel::new(RmpiConfig { dim: 8, ne: true, ..RmpiConfig::base() }, 6, init_seed)
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rmpi-serve-fault-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn engine_for_bundle(path: &Path) -> Engine {
    let (bundle, _) = load_bundle(path, ReadMode::default()).unwrap();
    // a fresh registry per engine: these tests assert exact counter values,
    // and the process-global registry is shared across the whole binary
    Engine::with_registry(
        bundle.model,
        toy_graph(),
        EngineConfig { seed: 9, cache_capacity: 64, threads: 2 },
        Arc::new(rmpi_obs::MetricsRegistry::new()),
    )
}

/// An engine over the toy graph with counters of its own.
fn toy_engine() -> Engine {
    Engine::with_registry(
        model(0),
        toy_graph(),
        EngineConfig { seed: 9, cache_capacity: 8, threads: 2 },
        Arc::new(rmpi_obs::MetricsRegistry::new()),
    )
}

/// The two probe triples scored as one batch everywhere below: a batch is
/// the unit that must never be torn across a reload.
const PROBES: [Triple; 2] = [
    Triple {
        head: rmpi_kg::EntityId(0),
        relation: rmpi_kg::RelationId(1),
        tail: rmpi_kg::EntityId(2),
    },
    Triple {
        head: rmpi_kg::EntityId(2),
        relation: rmpi_kg::RelationId(3),
        tail: rmpi_kg::EntityId(3),
    },
];

#[test]
fn concurrent_reload_and_score_never_serves_a_torn_model() {
    let _lock = failpoint::exclusive();
    let dir = tmp_dir("torn");
    let (path_a, path_b) = (dir.join("a.bundle"), dir.join("b.bundle"));
    save_bundle(&path_a, &model(1), &[], None).unwrap();
    save_bundle(&path_b, &model(2), &[], None).unwrap();

    // ground truth: what a batch scores under each bundle, exclusively
    let expect_a = engine_for_bundle(&path_a).score_batch(&PROBES).unwrap();
    let expect_b = engine_for_bundle(&path_b).score_batch(&PROBES).unwrap();
    assert_ne!(expect_a, expect_b, "the two bundles must be distinguishable");

    let engine = Arc::new(engine_for_bundle(&path_a));
    let stop = AtomicBool::new(false);
    const RELOADS: u64 = 12;

    let observed = std::thread::scope(|scope| {
        let scorer = {
            let engine = Arc::clone(&engine);
            let stop = &stop;
            scope.spawn(move || {
                let mut seen = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    seen.push(engine.score_batch(&PROBES).unwrap());
                }
                seen.push(engine.score_batch(&PROBES).unwrap());
                seen
            })
        };
        for i in 0..RELOADS {
            let path = if i % 2 == 0 { &path_b } else { &path_a };
            engine.reload_from(path).unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        scorer.join().expect("scorer thread must not panic")
    });

    assert!(!observed.is_empty());
    for (i, batch) in observed.iter().enumerate() {
        assert!(
            *batch == expect_a || *batch == expect_b,
            "batch {i} mixed weights across a reload: {batch:?}\n a={expect_a:?}\n b={expect_b:?}"
        );
    }
    assert_eq!(engine.stats().reloads.get(), RELOADS);
    assert_eq!(engine.stats().reload_failures.get(), 0);
    assert!(engine.metrics_json().contains(&format!("\"serve.reloads.count\": {RELOADS}")));
    std::fs::remove_dir_all(&dir).unwrap();
}

fn query(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
    writeln!(stream, "{line}").expect("send");
    let mut response = String::new();
    reader.read_line(&mut response).expect("recv");
    response.trim_end().to_string()
}

#[test]
fn wire_reload_swaps_model_validates_and_counts() {
    let _lock = failpoint::exclusive();
    let dir = tmp_dir("wire-reload");
    let (path_a, path_b) = (dir.join("a.bundle"), dir.join("b.bundle"));
    save_bundle(&path_a, &model(1), &[], None).unwrap();
    save_bundle(&path_b, &model(2), &[], None).unwrap();
    // two corrupt bundles: a changed weight in `params` (still a finite
    // float of the same length), an edited BUNDLE
    let corrupt = dir.join("corrupt.bundle");
    save_bundle(&corrupt, &model(2), &[], None).unwrap();
    let params = std::fs::read_to_string(corrupt.join("params")).unwrap();
    std::fs::write(corrupt.join("params"), params.replacen(" 0.", " 1.", 1)).unwrap();
    let edited = dir.join("edited.bundle");
    save_bundle(&edited, &model(2), &[], None).unwrap();
    let manifest = std::fs::read_to_string(edited.join("BUNDLE")).unwrap();
    std::fs::write(edited.join("BUNDLE"), manifest.replacen("hop 2", "hop 0", 1)).unwrap();

    let engine = Arc::new(engine_for_bundle(&path_a));
    let mut server = serve(Arc::clone(&engine), ServerConfig::default()).expect("serve");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    let before = query(&mut stream, &mut reader, "SCORE 0 1 2 2 3 3");
    assert!(before.starts_with("OK "), "{before}");

    assert_eq!(
        query(&mut stream, &mut reader, &format!("RELOAD {}", path_b.display())),
        "OK reloaded"
    );
    let after = query(&mut stream, &mut reader, "SCORE 0 1 2 2 3 3");
    let offline: Vec<f32> = engine_for_bundle(&path_b).score_batch(&PROBES).unwrap();
    let served: Vec<f32> = after[3..].split(' ').map(|s| s.parse().unwrap()).collect();
    assert_eq!(served, offline, "post-reload wire scores come from the new bundle");
    assert_ne!(after, before);

    // a missing bundle is refused; the swapped-in model keeps serving
    let missing = query(&mut stream, &mut reader, "RELOAD /nonexistent/x.bundle");
    assert!(missing.starts_with("ERR "), "{missing}");
    // corrupt bundles are refused with diagnostics naming the file and line
    let rejected = query(&mut stream, &mut reader, &format!("RELOAD {}", corrupt.display()));
    assert!(rejected.starts_with("ERR "), "{rejected}");
    assert!(rejected.contains("bundle file params is corrupt: checksum mismatch"), "{rejected}");
    let rejected = query(&mut stream, &mut reader, &format!("RELOAD {}", edited.display()));
    assert!(rejected.starts_with("ERR "), "{rejected}");
    let sum_line = manifest.lines().count() - 1;
    assert!(rejected.contains(&format!("line {sum_line}: manifest self-checksum")), "{rejected}");
    assert_eq!(query(&mut stream, &mut reader, "SCORE 0 1 2 2 3 3"), after);

    let metrics = query(&mut stream, &mut reader, "METRICS");
    assert!(metrics.contains("\"serve.reloads.count\": 1"), "{metrics}");
    assert!(metrics.contains("\"serve.reload_failures.count\": 3"), "{metrics}");

    server.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn reload_rejects_bundle_directory_with_corrupt_graph_section() {
    let _lock = failpoint::exclusive();
    let dir = tmp_dir("dir-reload");
    let store_dir = dir.join("world.store");
    rmpi_store::build_from_graph(&store_dir, rmpi_store::StoreConfig::default(), &toy_graph())
        .unwrap();

    let good = dir.join("good.bundle");
    save_bundle(&good, &model(2), &[], Some(&store_dir)).unwrap();
    let bad = dir.join("bad.bundle");
    save_bundle(&bad, &model(2), &[], Some(&store_dir)).unwrap();
    // one flipped byte inside the bad copy's graph store
    let seg = bad.join("graph").join("fwd-00000.seg");
    let mut bytes = std::fs::read(&seg).unwrap();
    bytes[0] ^= 0x01;
    std::fs::write(&seg, bytes).unwrap();

    let base = dir.join("base.bundle");
    save_bundle(&base, &model(1), &[], None).unwrap();
    let engine = engine_for_bundle(&base);
    let before = engine.score_batch(&PROBES).unwrap();

    // validate-before-swap: the store scrub catches the corrupt graph file
    // and names it; the old model keeps serving
    let err = engine.reload_from(&bad).unwrap_err();
    assert!(err.to_string().contains("checksum mismatch"), "{err}");
    assert!(err.to_string().contains("fwd-00000.seg"), "{err}");
    assert_eq!(engine.stats().reload_failures.get(), 1);
    assert_eq!(engine.score_batch(&PROBES).unwrap(), before, "old model keeps serving");

    // the undamaged copy of the same directory swaps in fine
    engine.reload_from(&good).unwrap();
    assert_eq!(engine.stats().reloads.get(), 1);
    let after = engine.score_batch(&PROBES).unwrap();
    assert_ne!(after, before, "reloaded weights must actually serve");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_resave_cut_at_its_bundle_write_leaves_no_bundle() {
    let _lock = failpoint::exclusive();
    let dir = tmp_dir("resave-cut");
    let store_dir = dir.join("world.store");
    rmpi_store::build_from_graph(&store_dir, rmpi_store::StoreConfig::default(), &toy_graph())
        .unwrap();
    let path = dir.join("m.bundle");
    save_bundle(&path, &model(1), &[], Some(&store_dir)).unwrap();
    load_bundle(&path, ReadMode::default()).unwrap();

    // the re-save's atomic writes are `params`, then `BUNDLE`: fail the second
    failpoint::arm_after(
        rmpi_autograd::io::WRITE_FAILPOINT,
        Action::IoError("power cut".into()),
        1,
    );
    let err = save_bundle(&path, &model(2), &[], Some(&store_dir)).unwrap_err();
    failpoint::disarm_all();
    assert!(err.to_string().contains("power cut"), "{err}");

    // the new params sit beside no manifest: not a bundle, never old BUNDLE
    // over new files
    let err = load_bundle(&path, ReadMode::default()).unwrap_err();
    assert!(err.to_string().contains("is not a bundle"), "{err}");
    let engine = toy_engine();
    let err = engine.reload_from(&path).unwrap_err();
    assert!(err.to_string().contains("is not a bundle"), "{err}");

    // a save that completes commits the bundle again
    save_bundle(&path, &model(2), &[], Some(&store_dir)).unwrap();
    engine.reload_from(&path).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn wire_request_panic_answers_err_internal_and_connection_survives() {
    let _lock = failpoint::exclusive();
    let dir = tmp_dir("wire-panic");
    let path = dir.join("m.bundle");
    save_bundle(&path, &model(3), &[], None).unwrap();
    let engine = Arc::new(engine_for_bundle(&path));
    let mut server = serve(Arc::clone(&engine), ServerConfig::default()).expect("serve");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    let health = query(&mut stream, &mut reader, "HEALTH");
    assert!(health.starts_with("OK healthy"), "{health}");

    failpoint::arm(SCORE_FAILPOINT, Action::Panic("scoring kernel exploded".into()));
    let err = query(&mut stream, &mut reader, "SCORE 0 1 2");
    failpoint::disarm_all();
    assert!(err.starts_with("ERR internal"), "{err}");
    assert!(err.contains("scoring kernel exploded"), "{err}");

    // same connection, same worker: the panic did not take anything down
    let ok = query(&mut stream, &mut reader, "SCORE 0 1 2");
    assert!(ok.starts_with("OK "), "{ok}");
    assert!(query(&mut stream, &mut reader, "HEALTH").starts_with("OK healthy"));
    let metrics = query(&mut stream, &mut reader, "METRICS");
    assert!(metrics.contains("\"serve.internal_errors.count\": 1"), "{metrics}");

    server.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn run_batch_panic_fails_every_item_but_not_the_engine() {
    let _lock = failpoint::exclusive();
    let engine = toy_engine();
    let items = vec![
        BatchItem::Score(vec![PROBES[0]]),
        BatchItem::Rank { head: PROBES[0].head, relation: PROBES[0].relation, k: 2 },
    ];
    failpoint::arm(SCORE_FAILPOINT, Action::Panic("flush blew up".into()));
    let out = engine.run_batch(&items);
    failpoint::disarm_all();
    assert!(out.iter().all(|r| matches!(r, Err(ServeError::Internal(_)))), "{out:?}");
    // the engine and pool survive the poisoned flush
    let healthy = engine.run_batch(&items);
    assert!(healthy.iter().all(|r| r.is_ok()), "{healthy:?}");
}

#[test]
fn injected_score_panic_is_an_internal_error_not_a_crash() {
    let _lock = failpoint::exclusive();
    let engine = toy_engine();
    let t = PROBES[0];

    failpoint::arm(SCORE_FAILPOINT, Action::Panic("score blew up".into()));
    let err = engine.score(t).unwrap_err();
    assert!(matches!(err, ServeError::Internal(_)), "{err}");
    assert!(err.to_string().contains("score blew up"), "{err}");

    failpoint::arm(SCORE_FAILPOINT, Action::Panic("batch blew up".into()));
    let err = engine.score_batch(&[t]).unwrap_err();
    assert!(matches!(err, ServeError::Internal(_)), "{err}");
    failpoint::disarm_all();

    assert_eq!(engine.stats().internal_errors.get(), 2);
    // the engine (and its pool) keep working after both panics
    let healthy = engine.score(t).unwrap();
    assert!(healthy.is_finite());
    assert_eq!(engine.score_batch(&[t]).unwrap(), vec![healthy]);
}
