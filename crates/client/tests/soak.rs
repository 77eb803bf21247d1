//! The chaos soak: a [`FailoverClient`] driving two replica engines through
//! seeded chaos proxies under concurrent load, with one replica killed
//! mid-run.
//!
//! Invariants asserted (the acceptance criteria of the resilience layer):
//!
//! 1. **Zero wrong scores** — every successful `SCORE`/`RANK` reply is
//!    bit-identical to the offline engine's answer. Chaos faults only delay
//!    or cut responses, and the client rejects any reply without its
//!    trailing newline, so damage is always retried, never parsed.
//! 2. **Bounded error rate** — ≥ 99% of logical requests succeed despite
//!    ≥ 10% of connections being disturbed.
//! 3. **Failover works** — killing one replica mid-soak leaves the client
//!    serving from the survivor; retries, failovers and breaker trips all
//!    show up in the `client.*` counters.

use rmpi_client::{
    BackoffConfig, BreakerConfig, BudgetConfig, ClientConfig, ClientError, FailoverClient,
    FailoverConfig, Session,
};
use rmpi_core::{RmpiConfig, RmpiModel};
use rmpi_kg::{EntityId, KnowledgeGraph, RelationId, Triple};
use rmpi_serve::{serve, Engine, EngineConfig, ServerConfig};
use rmpi_testutil::chaos::{ChaosConfig, ChaosProxy, Fault};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const ENGINE_SEED: u64 = 9;
const FAULT_RATE: f64 = 0.25;
const THREADS: usize = 4;
const REQUESTS_PER_THREAD: usize = 60;

fn toy_graph() -> KnowledgeGraph {
    KnowledgeGraph::from_triples(vec![
        Triple::new(0u32, 0u32, 1u32),
        Triple::new(1u32, 1u32, 2u32),
        Triple::new(2u32, 2u32, 0u32),
        Triple::new(0u32, 3u32, 2u32),
    ])
}

fn replica_engine() -> Arc<Engine> {
    // constructed identically for every replica (and the offline reference):
    // same config, same init seed, same graph, same extraction seed — the
    // determinism contract makes all of them bit-identical scorers
    let model = RmpiModel::new(RmpiConfig { dim: 8, ..RmpiConfig::base() }, 4, 0);
    Arc::new(Engine::with_registry(
        model,
        toy_graph(),
        EngineConfig { seed: ENGINE_SEED, cache_capacity: 64, threads: 1 },
        Arc::new(rmpi_obs::MetricsRegistry::new()),
    ))
}

fn replica_server(engine: Arc<Engine>) -> rmpi_serve::ServerHandle {
    serve(
        engine,
        ServerConfig {
            // sessions are persistent and pin a worker each: headroom above
            // THREADS so probes and reconnects are not starved by the
            // long-lived connections
            workers: 8,
            // short idle timeout so killing a replica mid-soak does not
            // block shutdown on workers parked in long reads
            idle_timeout: Duration::from_millis(200),
            ..ServerConfig::default()
        },
    )
    .expect("replica server")
}

/// The deterministic query mix one worker thread sends, as (kind, args).
#[derive(Clone, Copy)]
enum Query {
    Score([(u32, u32, u32); 2]),
    Rank { head: u32, relation: u32, k: usize },
}

fn query_plan(thread: usize) -> Vec<Query> {
    (0..REQUESTS_PER_THREAD)
        .map(|i| {
            let (h, r, t) = (
                ((thread + i) % 3) as u32,
                ((thread * 7 + i) % 4) as u32,
                ((thread + 2 * i + 1) % 3) as u32,
            );
            if i % 3 == 2 {
                Query::Rank { head: h, relation: r, k: 2 }
            } else {
                let t2 = (t + 1) % 3;
                Query::Score([(h, r, t), (h, r, t2)])
            }
        })
        .collect()
}

#[test]
fn chaos_soak_zero_wrong_scores_bounded_errors_and_failover() {
    // two identical replicas, each behind its own seeded chaos proxy
    let reference = replica_engine();
    let mut server_a = replica_server(replica_engine());
    let server_b = replica_server(replica_engine());
    let mut proxy_a = ChaosProxy::spawn(
        server_a.addr(),
        ChaosConfig { seed: 11, fault_rate: FAULT_RATE, ..Default::default() },
    )
    .expect("proxy a");
    let mut proxy_b = ChaosProxy::spawn(
        server_b.addr(),
        ChaosConfig { seed: 12, fault_rate: FAULT_RATE, ..Default::default() },
    )
    .expect("proxy b");
    let endpoints = vec![proxy_a.addr(), proxy_b.addr()];

    // one shared registry: the four clients' counters accumulate together
    let registry = Arc::new(rmpi_obs::MetricsRegistry::new());
    let completed = Arc::new(AtomicU64::new(0));
    let total = (THREADS * REQUESTS_PER_THREAD) as u64;

    let workers: Vec<_> = (0..THREADS)
        .map(|thread| {
            let endpoints = endpoints.clone();
            let registry = Arc::clone(&registry);
            let reference = Arc::clone(&reference);
            let completed = Arc::clone(&completed);
            std::thread::spawn(move || {
                let cfg = FailoverConfig {
                    client: ClientConfig {
                        // generous retries + budget: the soak measures the
                        // transport, not budget exhaustion (tested elsewhere)
                        max_retries: 5,
                        backoff: BackoffConfig {
                            base: Duration::from_millis(2),
                            max: Duration::from_millis(50),
                            seed: 1000 + thread as u64,
                            ..BackoffConfig::default()
                        },
                        budget: BudgetConfig {
                            min_reserve: 500.0,
                            deposit_per_success: 1.0,
                            max_balance: 1000.0,
                        },
                        ..ClientConfig::default()
                    },
                    breaker: BreakerConfig {
                        trip_after: 3,
                        cooldown: Duration::from_millis(150),
                    },
                };
                let mut client = FailoverClient::with_registry(endpoints, cfg, &registry);
                let mut transient_failures = 0u64;
                for query in query_plan(thread) {
                    match query {
                        Query::Score(triples) => match client.score_batch(&triples) {
                            Ok(scores) => {
                                for ((h, r, t), wire) in triples.iter().zip(&scores) {
                                    let offline = reference
                                        .score(Triple::new(*h, *r, *t))
                                        .expect("offline score");
                                    assert_eq!(
                                        wire.to_bits(),
                                        offline.to_bits(),
                                        "wrong score for ({h},{r},{t}): wire {wire} vs offline {offline}"
                                    );
                                }
                            }
                            Err(e) => {
                                assert!(
                                    transient(&e),
                                    "client surfaced a non-transient failure: {e}"
                                );
                                transient_failures += 1;
                            }
                        },
                        Query::Rank { head, relation, k } => match client.rank_tails(head, relation, k) {
                            Ok(ranked) => {
                                let offline = reference
                                    .rank_tails(EntityId(head), RelationId(relation), k)
                                    .expect("offline rank");
                                let offline: Vec<(u32, f32)> =
                                    offline.into_iter().map(|(e, s)| (e.0, s)).collect();
                                assert_eq!(
                                    ranked.len(),
                                    offline.len(),
                                    "rank({head},{relation},{k}) length mismatch"
                                );
                                for ((wt, ws), (ot, os)) in ranked.iter().zip(&offline) {
                                    assert_eq!((*wt, ws.to_bits()), (*ot, os.to_bits()));
                                }
                            }
                            Err(e) => {
                                assert!(
                                    transient(&e),
                                    "client surfaced a non-transient failure: {e}"
                                );
                                transient_failures += 1;
                            }
                        },
                    }
                    completed.fetch_add(1, Ordering::SeqCst);
                }
                transient_failures
            })
        })
        .collect();

    // kill replica A once the soak is halfway through: from here on the
    // survivor must carry the load
    while completed.load(Ordering::SeqCst) < total / 2 {
        std::thread::sleep(Duration::from_millis(10));
    }
    server_a.shutdown();

    let failures: u64 = workers.into_iter().map(|w| w.join().expect("worker")).sum();

    // bounded error rate: ≥99% success even with a replica killed mid-run
    let max_failures = total / 100;
    assert!(
        failures <= max_failures,
        "{failures} failed of {total} requests (allowed {max_failures})"
    );

    // the chaos actually happened: ≥10% of connections disturbed. With
    // pipelined sessions a connection now serves *many* requests, so the
    // floor is sessions-shaped (each worker needs at least one, and chaos
    // forces plenty of reconnects), not one-per-request.
    let connections = proxy_a.stats().connections() + proxy_b.stats().connections();
    let faults = proxy_a.stats().faults_injected() + proxy_b.stats().faults_injected();
    assert!(
        connections >= THREADS as u64,
        "each worker thread holds at least one session connection"
    );
    assert!(
        connections < total,
        "session reuse must need far fewer connections than one per request \
         ({connections} connections for {total} requests)"
    );
    assert!(
        faults * 10 >= connections,
        "only {faults} of {connections} connections disturbed — chaos too tame"
    );

    // and the resilience machinery visibly did the work
    let dump = registry.to_json();
    let counter = |name: &str| registry.counter(name).get();
    assert!(counter("client.retries.count") > 0, "no retries recorded: {dump}");
    assert!(counter("client.failovers.count") > 0, "no failovers recorded: {dump}");
    assert!(
        counter("client.sessions.count") >= THREADS as u64,
        "each worker thread opens at least one session: {dump}"
    );
    assert_eq!(counter("client.requests.count"), total);

    // breaker trips: with persistent sessions a killed replica costs each
    // client one failed attempt before it fails over and sticks to the
    // survivor, so trip_after consecutive failures rarely accumulate during
    // the soak itself. Exercise the trip path deterministically instead: a
    // fresh client pointed only at the dead replica must trip its breaker
    // within one logical request's retry loop.
    let trip_registry = rmpi_obs::MetricsRegistry::new();
    let mut dead_client = FailoverClient::with_registry(
        vec![proxy_a.addr()],
        FailoverConfig {
            client: ClientConfig {
                max_retries: 5,
                backoff: BackoffConfig {
                    base: Duration::from_millis(1),
                    max: Duration::from_millis(5),
                    ..BackoffConfig::default()
                },
                ..ClientConfig::default()
            },
            breaker: BreakerConfig { trip_after: 3, cooldown: Duration::from_millis(150) },
        },
        &trip_registry,
    );
    let err = dead_client.ping().expect_err("the dead replica cannot serve");
    assert!(transient(&err), "failures against a dead replica stay transient: {err}");
    assert!(
        trip_registry.counter("client.breaker_open.count").get() > 0,
        "consecutive failures against the dead replica must trip its breaker"
    );

    proxy_a.shutdown();
    proxy_b.shutdown();
    drop(server_b);
}

/// A failure the soak tolerates (within the error budget): everything the
/// retry layer classifies as retryable-but-exhausted, plus breaker-open
/// rejection. Fatal server rejections or parse failures would mean the
/// resilience layer let damage through — those fail the test immediately.
fn transient(e: &ClientError) -> bool {
    match e {
        ClientError::RetriesExhausted { .. } | ClientError::NoHealthyEndpoint { .. } => true,
        other => other.is_retryable(),
    }
}

/// The pipelined-session chaos invariant: when a connection dies with a
/// burst of tagged requests in flight (including the `PipelineCut` fault,
/// which delivers several intact responses and then cuts at a line
/// boundary), every request gets **exactly one** outcome — either its own
/// bit-identical answer or a typed retryable error. A mis-attributed
/// response would surface as a wrong score and fail the bit-identity
/// assertion immediately.
#[test]
fn pipelined_sessions_under_chaos_one_outcome_per_request_never_misattributed() {
    const BURST: usize = 8;
    const ROUNDS: usize = 30;

    let reference = replica_engine();
    // an aggressive idle reaper so the session dies between rounds: every
    // round then opens a fresh connection and draws fresh chaos (a clean
    // long-lived session would otherwise dodge the fault stream entirely)
    let server = serve(
        replica_engine(),
        ServerConfig {
            workers: 4,
            idle_timeout: Duration::from_millis(50),
            ..ServerConfig::default()
        },
    )
    .expect("server");
    let mut proxy = ChaosProxy::spawn(
        server.addr(),
        ChaosConfig {
            seed: 77,
            fault_rate: 0.5,
            // handshake + a few answers, then a mid-burst line-boundary cut
            cut_after_lines: 5,
            ..Default::default()
        },
    )
    .expect("proxy");

    let cfg = ClientConfig { read_timeout: Duration::from_millis(500), ..ClientConfig::default() };
    let triples: Vec<(u32, u32, u32)> =
        (0..BURST).map(|i| ((i % 3) as u32, (i % 4) as u32, ((i + 1) % 3) as u32)).collect();
    let expected: Vec<f32> = triples
        .iter()
        .map(|&(h, r, t)| reference.score(Triple::new(h, r, t)).expect("offline score"))
        .collect();
    let lines: Vec<String> =
        triples.iter().map(|&(h, r, t)| format!("SCORE {h} {r} {t}")).collect();
    let line_refs: Vec<&str> = lines.iter().map(String::as_str).collect();

    let mut ok = 0u64;
    let mut failed = 0u64;
    let mut session: Option<Session> = None;
    for round in 0..ROUNDS {
        if round > 0 {
            // outlive the server's idle timeout so the next round's session
            // is a fresh connection with a fresh fault draw
            std::thread::sleep(Duration::from_millis(120));
        }
        let s = match session.take() {
            Some(s) if s.is_alive() => s,
            _ => match Session::connect(proxy.addr(), &cfg) {
                Ok(s) => s,
                Err(e) => {
                    assert!(e.is_retryable(), "session connect failed fatally: {e}");
                    failed += BURST as u64;
                    continue;
                }
            },
        };
        let results = s.request_many(&line_refs);
        assert_eq!(results.len(), BURST, "exactly one outcome per in-flight request");
        for (i, result) in results.iter().enumerate() {
            match result {
                Ok(payload) => {
                    let score: f32 = payload.trim().parse().expect("score payload");
                    assert_eq!(
                        score.to_bits(),
                        expected[i].to_bits(),
                        "request {i} got someone else's (or a damaged) answer: \
                         {score} vs {}",
                        expected[i]
                    );
                    ok += 1;
                }
                Err(e) => {
                    assert!(e.is_retryable(), "chaos must surface as typed retryable errors: {e}");
                    failed += 1;
                }
            }
        }
        session = Some(s);
    }
    drop(session);

    let total = (ROUNDS * BURST) as u64;
    assert_eq!(ok + failed, total, "no request may vanish or be double-counted");
    // a raw session has no retry layer, so at a 50% connection fault rate
    // plenty of bursts fail — the invariant is the *typing* of those
    // failures, not throughput (the retry stack on top is soaked above)
    assert!(ok >= total / 4, "plenty of requests still succeed: {ok} of {total}");
    assert!(failed > 0, "at a 50% fault rate some bursts must be disturbed");
    assert!(
        proxy.stats().count(Fault::PipelineCut) > 0,
        "the mid-pipeline line-boundary cut must have fired"
    );

    proxy.shutdown();
    drop(server);
}
