//! Resilient serving: a retrying, failing-over client in front of two
//! replica servers, one of which is killed mid-run.
//!
//! The client never returns a wrong score — the line protocol makes every
//! damaged reply detectable (a response without its trailing newline is
//! damage, never data), so failures are retried on the surviving replica and
//! the caller only ever sees scores bit-identical to the offline model.
//!
//! Since protocol v2 the retry stack rides on persistent pipelined
//! [`Session`]s (one connection per endpoint, demultiplexed by response
//! tag) instead of one connection per request; the final section drives a
//! session directly to show the transport the stack is built on.
//!
//! ```text
//! cargo run --release --example resilient_client
//! ```

use rmpi::client::{BackoffConfig, BreakerConfig};
use rmpi::prelude::*;
use rmpi::serve::{serve, ServerConfig};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    // 1. A model bound to the unseen-entity test graph, exactly as in
    //    `examples/serving.rs` (training elided: resilience is about the
    //    transport, not the weights).
    let benchmark = build_benchmark("nell.v1", Scale::Quick);
    let model = RmpiModel::new(
        RmpiConfig { dim: 16, ne: true, ..Default::default() },
        benchmark.num_relations(),
        0,
    );
    let test = benchmark.test("TE").expect("TE split");
    let engine = Arc::new(Engine::new(
        model,
        test.graph.clone(),
        EngineConfig { seed: 7, cache_capacity: 4096, threads: 1 },
    ));

    // 2. Two replica servers over the same engine — interchangeable: the
    //    engine's seeded cache makes every replica answer bit-identically.
    let mut replica_a = serve(Arc::clone(&engine), ServerConfig::default()).expect("replica a");
    let mut replica_b = serve(Arc::clone(&engine), ServerConfig::default()).expect("replica b");
    println!("replicas: {} and {}", replica_a.addr(), replica_b.addr());

    // 3. One failover client over both. The breaker trips an endpoint after
    //    two consecutive failures; its cooldown stays well under
    //    max_retries × backoff.max so a trip costs latency, not errors.
    let mut client = FailoverClient::new(
        vec![replica_a.addr(), replica_b.addr()],
        FailoverConfig {
            client: ClientConfig {
                max_retries: 4,
                backoff: BackoffConfig {
                    base: Duration::from_millis(2),
                    max: Duration::from_millis(50),
                    ..Default::default()
                },
                ..Default::default()
            }
            .with_seed(42),
            breaker: BreakerConfig { trip_after: 2, cooldown: Duration::from_millis(100) },
        },
    );

    // 4. Score test triples through the client; halfway through, kill
    //    replica A. The client notices (connection refused → retryable) and
    //    steers everything to the surviving replica — no caller-visible
    //    errors.
    let targets: Vec<_> = test.targets.iter().take(20).collect();
    let reference: Vec<f32> = engine.score_batch(&test.targets[..20]).expect("reference scores");
    for (i, t) in targets.iter().enumerate() {
        if i == targets.len() / 2 {
            println!("--- killing replica A mid-run ---");
            replica_a.shutdown();
        }
        let score = client
            .score(t.head.0, t.relation.0, t.tail.0)
            .expect("a live replica remains: the request must succeed");
        assert_eq!(
            score.to_bits(),
            reference[i].to_bits(),
            "served score must be bit-identical to the offline engine"
        );
        println!("  score({}, {}, {}) = {score:+.4}", t.head.0, t.relation.0, t.tail.0);
    }

    // 5. What the retry layer did, from its registry-backed counters. The
    //    sessions count stays near the endpoint count — connection reuse is
    //    the point of the pipelined transport.
    let stats = client.stats();
    println!(
        "done: {} requests over {} sessions, {} retries, {} failovers, \
         {} breaker trips, {} errors",
        stats.requests.get(),
        stats.sessions_opened.get(),
        stats.retries.get(),
        stats.failovers.get(),
        stats.breaker_open.get(),
        stats.errors.get(),
    );
    println!("breaker states: {:?}", client.breaker_states());

    // 6. The transport underneath the stack: one explicit session, a whole
    //    burst of requests in flight on one connection, answers
    //    demultiplexed by tag — and still bit-identical.
    let session =
        Session::connect(replica_b.addr(), &ClientConfig::default()).expect("session connect");
    let burst: Vec<(u32, u32, u32)> =
        targets.iter().take(8).map(|t| (t.head.0, t.relation.0, t.tail.0)).collect();
    let scores = session.score_many(&burst).expect("pipelined burst");
    for (i, score) in scores.iter().enumerate() {
        assert_eq!(score.to_bits(), reference[i].to_bits(), "pipelined score must match");
    }
    println!("pipelined burst: {} scores over one connection", scores.len());
    replica_b.shutdown();
}
