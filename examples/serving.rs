//! Serving: train a model, package it as a bundle, reload the bundle and
//! answer ranked queries through the in-process inference engine — then put
//! the same engine behind the TCP edge and score a pipelined burst through
//! a protocol-v2 [`Session`].
//!
//! ```text
//! cargo run --release --example serving
//! ```

use rmpi::prelude::*;
use rmpi::serve::{serve, ServerConfig};
use std::sync::Arc;

fn main() {
    // 1. Train a small model on an inductive benchmark.
    let benchmark = build_benchmark("nell.v1", Scale::Quick);
    let cfg = RmpiConfig { dim: 16, ne: true, ..Default::default() };
    let mut model = RmpiModel::new(cfg, benchmark.num_relations(), 0);
    let train_cfg = TrainConfig { epochs: 2, max_samples_per_epoch: 200, ..Default::default() };
    let report = Trainer::new(train_cfg).train(
        &mut model,
        &benchmark.train.graph,
        &benchmark.train.targets,
        &benchmark.train.valid,
    );
    println!(
        "trained: {} epochs, best validation accuracy {:.3}",
        report.epoch_losses.len(),
        report.best_accuracy()
    );

    // 2. Package it: config + relation vocabulary + weights in one artifact,
    //    a directory whose sealed BUNDLE manifest sits beside the weights.
    let path = std::env::temp_dir().join("rmpi-serving-example.bundle");
    let names: Vec<String> =
        (0..benchmark.num_relations()).map(|r| format!("relation_{r}")).collect();
    save_bundle(&path, &model, &names, None).expect("save bundle");
    println!(
        "bundle: wrote {} ({} bytes of parameters)",
        path.display(),
        std::fs::metadata(path.join("params")).map(|m| m.len()).unwrap_or(0)
    );

    // 3. Reload the bundle — this is what a serving process would do; it
    //    never needs the trainer, only the artifact and a context graph.
    //    The bundle carries no graph here, so no store reader comes back.
    let (bundle, _) = load_bundle(&path, ReadMode::default()).expect("load bundle");
    println!("bundle: reloaded model with {} relations", bundle.relation_names.len());

    // 4. Serve: bind the model to the unseen-entity test graph and answer
    //    queries through the subgraph cache.
    let test = benchmark.test("TE").expect("TE split");
    let engine = Arc::new(Engine::new(
        bundle.model,
        test.graph.clone(),
        EngineConfig { seed: 7, cache_capacity: 4096, threads: 0 },
    ));

    for &target in test.targets.iter().take(3) {
        let ranked = engine.rank_tails(target.head, target.relation, 5).expect("rank");
        let names = &bundle.relation_names;
        println!("top tails for ({}, {}):", target.head.0, names[target.relation.0 as usize]);
        for (rank, (entity, score)) in ranked.iter().enumerate() {
            let marker = if *entity == target.tail { "  <- true tail" } else { "" };
            println!("  #{} entity {:<4} score {:+.4}{marker}", rank + 1, entity.0, score);
        }
    }

    // 5. The engine keeps serving counters; scoring the same queries again
    //    hits the cache. One registry holds them all — serve counters,
    //    latency percentiles, cache gauges, and (in a combined process)
    //    trainer/pool metrics too.
    for &target in test.targets.iter().take(3) {
        engine.rank_tails(target.head, target.relation, 5).expect("rank");
    }
    println!("metrics: {}", engine.metrics_json());

    // 6. The same engine behind the TCP edge: a client session negotiates
    //    protocol v2 and pipelines a burst of scores over one connection —
    //    the server's micro-batcher coalesces them into engine batch calls,
    //    and every answer is bit-identical to the in-process engine.
    let mut server = serve(Arc::clone(&engine), ServerConfig::default()).expect("bind server");
    let session = Session::connect(server.addr(), &ClientConfig::default()).expect("connect");
    let burst: Vec<(u32, u32, u32)> =
        test.targets.iter().take(8).map(|t| (t.head.0, t.relation.0, t.tail.0)).collect();
    let scores = session.score_many(&burst).expect("pipelined burst");
    let reference = engine.score_batch(&test.targets[..8]).expect("reference");
    for (served, direct) in scores.iter().zip(&reference) {
        assert_eq!(served.to_bits(), direct.to_bits(), "wire scores must match the engine");
    }
    println!("wire: {} pipelined scores over one connection at {}", scores.len(), server.addr());
    server.shutdown();
    std::fs::remove_dir_all(&path).ok();
}
