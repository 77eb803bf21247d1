//! The router's TCP front end: a [`Handler`] on `rmpi-serve`'s line server,
//! so the router speaks exactly the v1/v2 line protocol the backends speak —
//! same grammar, same framing, same limits, same shutdown — and existing
//! clients (including `rmpi-client` itself) point at it unmodified. Only
//! what each verb *means* here is the router's:
//!
//! ```text
//! PING                         -> OK pong
//! SCORE h r t [h r t ...]      -> pass-through to a backend with failover
//! RANK h r k                   -> scatter-gather over the shards:
//!                                 OK tail:score ...                (full)
//!                                 OK partial <covered>/<total> tail:score ...
//! HEALTH                       -> OK healthy shards=N candidates=C
//!                                 | OK degraded ... | ERR
//! METRICS                      -> OK {full registry dump, router.* included}
//! ```
//!
//! A request may carry a `DEADLINE <ms>` hint: on `RANK` it caps the
//! router's end-to-end budget; on `SCORE` it anchors an absolute deadline
//! at arrival, and each upstream forward (failover retries included)
//! carries only the *remaining* budget so the backend batcher sheds late
//! work on the caller's clock. The handler answers every request before it
//! returns, so one connection's requests are answered in order — in-order
//! delivery is a valid v2 implementation, and pipelined clients still keep
//! many requests in flight.

use crate::router::{RankOutcome, Router};
use rmpi_client::{BreakerState, ClientError, FailoverClient, FailoverConfig};
use rmpi_kg::EntityId;
use rmpi_serve::protocol::format_ranked;
use rmpi_serve::{
    serve_lines, Answer, Call, Handler, LineStats, Reply, Request, ServerConfig, ServerHandle,
};
use std::io;
use std::sync::Arc;
use std::time::Duration;

/// A running router front end; shuts down on [`ServerHandle::shutdown`] or
/// drop.
pub type RouterHandle = ServerHandle;

/// Connection workers: every open client connection occupies one.
const WORKERS: usize = 8;

/// A client that holds a session open between bursts is normal for a
/// front end, so idle connections are kept far longer than a replica's 5 s.
const IDLE_TIMEOUT: Duration = Duration::from_secs(120);

/// Serve `router` on an ephemeral localhost port, recording the front end's
/// own counters as `router.*` into the router's registry.
pub fn serve_router(router: Arc<Router>) -> io::Result<RouterHandle> {
    let stats = LineStats::new(router.registry(), "router");
    let cfg =
        ServerConfig { workers: WORKERS, idle_timeout: IDLE_TIMEOUT, ..ServerConfig::default() };
    serve_lines(RouterHandler { router }, &cfg, stats)
}

struct RouterHandler {
    router: Arc<Router>,
}

impl Handler for RouterHandler {
    /// The connection's private `SCORE` pass-through client over the shards
    /// (standby last): per connection, so one stalled upstream exchange
    /// never serializes other connections' `SCORE`s (metrics still aggregate
    /// in the router's registry).
    type Conn = FailoverClient;

    fn open(&self) -> FailoverClient {
        let cfg = self.router.config();
        FailoverClient::with_registry(
            cfg.shards.iter().copied().chain(cfg.standby).collect(),
            FailoverConfig { client: cfg.client.clone(), breaker: cfg.breaker.clone() },
            self.router.registry(),
        )
    }

    fn handle(&self, passthrough: &mut FailoverClient, call: Call<'_>, _reply: &Reply) -> Answer {
        let router = &self.router;
        Answer::Now(match call.request {
            Request::Ping => "OK pong".to_owned(),
            Request::Health => health_response(router),
            Request::Metrics => format!("OK {}", router.registry().to_json()),
            // a hinted `SCORE` becomes an absolute deadline anchored at the
            // request's arrival: the pass-through re-derives the *remaining*
            // budget at every upstream forward (failover retries included),
            // so a backend serving a retry is never re-granted the caller's
            // original budget
            Request::Score(_) => score_response(match call.budget {
                Some(budget) => {
                    passthrough.request_line_deadline(call.line, true, call.arrival + budget)
                }
                None => passthrough.request_line(call.line, true),
            }),
            Request::Rank { head, relation, k } => {
                let cap = router.config().deadline;
                let budget = call.budget.map_or(cap, |b| b.min(cap));
                match router.rank_deadline(head.0, relation.0, k, budget) {
                    Ok(outcome) => format_rank(&outcome),
                    Err(e) => format!("ERR {e}"),
                }
            }
            Request::Reload { .. } => "ERR bad request: the router serves no bundle".to_owned(),
            Request::Proto { .. } => unreachable!("the line server answers PROTO itself"),
        })
    }
}

fn score_response(result: Result<String, ClientError>) -> String {
    match result {
        Ok(payload) if payload.is_empty() => "OK".to_owned(),
        Ok(payload) => format!("OK {payload}"),
        // a definitive backend rejection passes through verbatim
        Err(ClientError::Server { message, .. }) => format!("ERR {message}"),
        Err(e) => format!("ERR router upstream: {e}"),
    }
}

/// `OK [partial <covered>/<total>] tail:score ...` through the backends' own
/// formatter — a full response is byte-identical to one backend ranking the
/// whole candidate set.
fn format_rank(outcome: &RankOutcome) -> String {
    let ranked: Vec<(EntityId, f32)> =
        outcome.ranked.iter().map(|&(tail, score)| (EntityId(tail), score)).collect();
    let full = format_ranked(&ranked);
    if outcome.is_partial() {
        let entries = full.strip_prefix("OK").expect("format_ranked answers OK");
        format!("OK partial {}/{}{entries}", outcome.covered, outcome.total)
    } else {
        full
    }
}

fn health_response(router: &Router) -> String {
    let states = router.shard_breaker_states();
    let n = states.len();
    let open = states.iter().filter(|s| **s != BreakerState::Closed).count();
    if open == 0 {
        format!("OK healthy shards={n} candidates={}", router.config().candidates.len())
    } else if open < n || router.has_standby() {
        format!("OK degraded shards={n} open={open}")
    } else {
        "ERR no healthy shards".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::RouterConfig;
    use rmpi_client::{ClientConfig, Session};
    use rmpi_core::{RmpiConfig, RmpiModel};
    use rmpi_kg::{KnowledgeGraph, Triple};
    use rmpi_obs::MetricsRegistry;
    use rmpi_serve::{serve, Engine, EngineConfig};
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    /// Entities 0..8 over 4 relations — small enough to score offline.
    fn test_engine() -> Arc<Engine> {
        let graph = KnowledgeGraph::from_triples(vec![
            Triple::new(0u32, 0u32, 1u32),
            Triple::new(1u32, 1u32, 2u32),
            Triple::new(2u32, 2u32, 3u32),
            Triple::new(3u32, 3u32, 4u32),
            Triple::new(4u32, 0u32, 5u32),
            Triple::new(5u32, 1u32, 6u32),
            Triple::new(6u32, 2u32, 7u32),
            Triple::new(7u32, 3u32, 0u32),
            Triple::new(0u32, 1u32, 3u32),
            Triple::new(2u32, 0u32, 6u32),
        ]);
        let model = RmpiModel::new(RmpiConfig { dim: 8, ..RmpiConfig::base() }, 4, 0);
        Arc::new(Engine::new(
            model,
            graph,
            EngineConfig { seed: 7, cache_capacity: 64, threads: 1 },
        ))
    }

    fn replica(engine: &Arc<Engine>) -> ServerHandle {
        serve(Arc::clone(engine), ServerConfig::default()).expect("replica")
    }

    fn candidates() -> Vec<u32> {
        (0..8).collect()
    }

    /// The reference: score every candidate offline and order with the
    /// engine's comparator.
    fn offline_rank(engine: &Engine, head: u32, relation: u32, k: usize) -> Vec<(u32, f32)> {
        let cands = candidates();
        let triples: Vec<Triple> = cands.iter().map(|&t| Triple::new(head, relation, t)).collect();
        let scores = engine.score_batch(&triples).expect("offline scores");
        crate::merge::merge_ranked(cands.into_iter().zip(scores).collect(), k)
    }

    fn router_over(replicas: &[&ServerHandle]) -> Arc<Router> {
        let cfg = RouterConfig::new(replicas.iter().map(|r| r.addr()).collect(), candidates());
        Arc::new(Router::with_registry(cfg, Arc::new(MetricsRegistry::new())))
    }

    fn query(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
        writeln!(stream, "{line}").expect("send");
        let mut response = String::new();
        reader.read_line(&mut response).expect("recv");
        assert!(response.ends_with('\n'), "complete frame");
        response.trim_end().to_owned()
    }

    fn connect(handle: &RouterHandle) -> (TcpStream, BufReader<TcpStream>) {
        let stream = TcpStream::connect(handle.addr()).expect("connect");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        (stream, reader)
    }

    #[test]
    fn front_end_serves_the_cheap_verbs_and_rejects_malformed_requests() {
        let engine = test_engine();
        let (a, b) = (replica(&engine), replica(&engine));
        let mut handle = serve_router(router_over(&[&a, &b])).expect("router");
        let (mut stream, mut reader) = connect(&handle);
        assert_eq!(query(&mut stream, &mut reader, "PING"), "OK pong");
        assert_eq!(query(&mut stream, &mut reader, "HEALTH"), "OK healthy shards=2 candidates=8");
        let metrics = query(&mut stream, &mut reader, "METRICS");
        assert!(metrics.starts_with("OK {"), "{metrics}");
        for name in ["requests", "shard_errors", "hedges", "partial_responses"] {
            let counter = format!("\"router.{name}.count\"");
            assert!(metrics.contains(&counter), "METRICS lost {counter}: {metrics}");
        }
        for bad in ["FROB", "STATS", "RANK 1 2", "RANK 1 2 3 4", "RANK x 2 3", "RELOAD /m.bundle"] {
            let resp = query(&mut stream, &mut reader, bad);
            assert!(resp.starts_with("ERR bad request"), "{bad:?} -> {resp}");
        }
        handle.shutdown();
    }

    #[test]
    fn score_passes_through_bit_identical_and_echoes_backend_rejections() {
        let engine = test_engine();
        let (a, b) = (replica(&engine), replica(&engine));
        let mut handle = serve_router(router_over(&[&a, &b])).expect("router");
        let (mut stream, mut reader) = connect(&handle);
        let resp = query(&mut stream, &mut reader, "SCORE 0 0 1 2 2 3");
        let offline = engine
            .score_batch(&[Triple::new(0u32, 0u32, 1u32), Triple::new(2u32, 2u32, 3u32)])
            .unwrap();
        let expected = format!("OK {} {}", offline[0], offline[1]);
        assert_eq!(resp, expected, "pass-through must not perturb a single bit");
        // a definitive backend rejection comes back verbatim
        let resp = query(&mut stream, &mut reader, "SCORE 0 99 1");
        assert!(resp.starts_with("ERR unknown relation"), "{resp}");
        handle.shutdown();
    }

    #[test]
    fn routed_rank_over_the_wire_matches_the_offline_reference() {
        let engine = test_engine();
        let (a, b, c) = (replica(&engine), replica(&engine), replica(&engine));
        let mut handle = serve_router(router_over(&[&a, &b, &c])).expect("router");
        let (mut stream, mut reader) = connect(&handle);
        let resp = query(&mut stream, &mut reader, "RANK 0 0 5");
        let mut expected = String::from("OK");
        for (t, s) in offline_rank(&engine, 0, 0, 5) {
            expected.push_str(&format!(" {t}:{s}"));
        }
        assert_eq!(resp, expected, "full routed rank is byte-identical to offline");
        handle.shutdown();
    }

    #[test]
    fn the_standard_client_stack_speaks_v2_to_the_router_unmodified() {
        let engine = test_engine();
        let (a, b) = (replica(&engine), replica(&engine));
        let mut handle = serve_router(router_over(&[&a, &b])).expect("router");
        let cfg = ClientConfig::default();
        let session = Session::connect(handle.addr(), &cfg).expect("session");
        let offline = engine.score_batch(&[Triple::new(1u32, 1u32, 2u32)]).unwrap();
        assert_eq!(session.score(1, 1, 2).expect("score via router"), offline[0]);
        let ranked = session.rank_tails(0, 0, 4).expect("rank via router");
        assert_eq!(ranked, offline_rank(&engine, 0, 0, 4));
        // the DEADLINE hint flows through the router to the backends
        let scores = session
            .score_batch_deadline(&[(1, 1, 2)], Duration::from_millis(500))
            .expect("deadline-hinted score");
        assert_eq!(scores[0], offline[0]);
        session.ping().expect("ping");
        drop(session);
        handle.shutdown();
    }
}
