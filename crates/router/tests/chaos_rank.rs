//! Chaos proof for the scatter-gather router: kill one shard mid-rank and
//! verify the degraded answer is *exactly* what correctness demands.
//!
//! The merged top-k of an `OK partial` response must be bit-identical to
//! re-ranking the surviving shards' candidate slices offline — zero wrong
//! entries, zero duplicates, byte-identical score formatting. A second test
//! drives the hedging path: a black-hole shard (accepts, negotiates v2,
//! never answers) forces a hedged duplicate to the standby, and the rank
//! still comes back complete and bit-identical to the full offline ranking.
//! Two timing tests pin that no wait outlives the rank's budget: a hedge
//! races its primary instead of blocking it, and a shard that never
//! negotiates costs the rank its deadline, not a socket timeout.

use rmpi_client::BreakerConfig;
use rmpi_obs::MetricsRegistry;
use rmpi_router::{merge_ranked, serve_router, shard_slices, PartialPolicy, Router, RouterConfig};
use rmpi_serve::{serve, Engine, EngineConfig, ServerConfig, ServerHandle};
use rmpi_testutil::chaos::{ChaosConfig, ChaosProxy};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rmpi_core::{RmpiConfig, RmpiModel};
use rmpi_kg::{KnowledgeGraph, Triple};

const K: usize = 5;

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
    Arc::new(Engine::new(model, graph, EngineConfig { seed: 13, cache_capacity: 128, threads: 1 }))
}

fn replica(engine: &Arc<Engine>) -> ServerHandle {
    serve(Arc::clone(engine), ServerConfig::default()).expect("replica")
}

fn candidates() -> Vec<u32> {
    (0..8).collect()
}

/// Score `cands` offline on the engine and order with the exact serving
/// comparator — the reference every routed answer is compared against.
fn offline_rank(engine: &Engine, head: u32, relation: u32, cands: &[u32]) -> Vec<(u32, f32)> {
    let triples: Vec<Triple> = cands.iter().map(|&t| Triple::new(head, relation, t)).collect();
    let scores = engine.score_batch(&triples).expect("offline scores");
    merge_ranked(cands.iter().copied().zip(scores).collect(), K)
}

/// `(covered, total)` when the response is tagged `partial`, else `None`.
type Coverage = Option<(usize, usize)>;

/// Parse `OK [partial c/t] tail:score ...` into coverage and exact pairs.
fn parse_rank_response(resp: &str) -> (Coverage, Vec<(u32, f32)>) {
    let rest = resp.strip_prefix("OK").expect("OK response");
    let mut parts = rest.split_whitespace().peekable();
    let coverage = if parts.peek() == Some(&"partial") {
        parts.next();
        let frac = parts.next().expect("covered/total");
        let (c, t) = frac.split_once('/').expect("covered/total");
        Some((c.parse().expect("covered"), t.parse().expect("total")))
    } else {
        None
    };
    let pairs = parts
        .map(|p| {
            let (tail, score) = p.split_once(':').expect("tail:score");
            (tail.parse().expect("tail id"), score.parse().expect("score"))
        })
        .collect();
    (coverage, pairs)
}

fn query(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
    writeln!(stream, "{line}").expect("send");
    let mut response = String::new();
    reader.read_line(&mut response).expect("recv");
    assert!(response.ends_with('\n'), "complete frame: {response:?}");
    response.trim_end().to_owned()
}

#[test]
fn killed_shard_mid_rank_degrades_to_a_bit_identical_partial_top_k() {
    let engine = test_engine();
    let (s0, s1, s2) = (replica(&engine), replica(&engine), replica(&engine));
    // shard 1 sits behind a chaos proxy so it can be killed mid-rank
    let proxy = ChaosProxy::spawn(
        s1.addr(),
        ChaosConfig { seed: 41, fault_rate: 0.0, ..Default::default() },
    )
    .expect("proxy");
    let cands = candidates();
    let cfg = RouterConfig::new(vec![s0.addr(), proxy.addr(), s2.addr()], cands.clone())
        .with_policy(PartialPolicy::Partial)
        .with_deadline(Duration::from_secs(2));
    let registry = Arc::new(MetricsRegistry::new());
    let router = Arc::new(Router::with_registry(cfg, Arc::clone(&registry)));
    let mut handle = serve_router(Arc::clone(&router)).expect("front end");
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    // healthy fan-out first: full coverage, byte-identical to offline
    let resp = query(&mut stream, &mut reader, "RANK 0 0 5");
    let (coverage, pairs) = parse_rank_response(&resp);
    assert_eq!(coverage, None, "healthy rank is not partial: {resp}");
    assert_eq!(pairs, offline_rank(&engine, 0, 0, &cands), "healthy merge == offline");

    // kill shard 1: its live session is cut and new connects are refused —
    // from the router's view the shard dies in the middle of the next rank
    proxy.kill();
    let resp = query(&mut stream, &mut reader, "RANK 0 0 5");
    let slices = shard_slices(&cands, 3);
    let survivors: Vec<u32> = slices[0].iter().chain(slices[2].iter()).copied().collect();
    let (coverage, pairs) = parse_rank_response(&resp);
    assert_eq!(
        coverage,
        Some((survivors.len(), cands.len())),
        "partial tag reports surviving coverage: {resp}"
    );
    let reference = offline_rank(&engine, 0, 0, &survivors);
    assert_eq!(
        pairs, reference,
        "merged partial top-k must be bit-identical to offline ranking of the survivors"
    );
    // structural guarantees: no duplicates, nothing from the dead slice
    let mut seen = std::collections::HashSet::new();
    for (tail, _) in &pairs {
        assert!(seen.insert(*tail), "duplicate entity {tail} in {resp}");
        assert!(survivors.contains(tail), "entity {tail} is from the dead shard's slice");
    }
    // the response is also byte-identical to re-serializing the reference
    let mut expected = format!("OK partial {}/{}", survivors.len(), cands.len());
    for (t, s) in &reference {
        expected.push_str(&format!(" {t}:{s}"));
    }
    assert_eq!(resp, expected);

    assert!(registry.counter("router.shard_errors.count").get() >= 1);
    assert!(registry.counter("router.partial_responses.count").get() >= 1);
    let health = query(&mut stream, &mut reader, "HEALTH");
    assert!(health.starts_with("OK"), "two live shards keep the router serving: {health}");
    handle.shutdown();
}

#[test]
fn fail_policy_turns_a_lost_shard_into_an_error() {
    let engine = test_engine();
    let (s0, s2) = (replica(&engine), replica(&engine));
    let proxy = ChaosProxy::spawn(
        s2.addr(),
        ChaosConfig { seed: 43, fault_rate: 0.0, ..Default::default() },
    )
    .expect("proxy");
    proxy.kill();
    let cfg = RouterConfig::new(vec![s0.addr(), proxy.addr()], candidates())
        .with_policy(PartialPolicy::Fail)
        .with_deadline(Duration::from_secs(2));
    let router = Arc::new(Router::with_registry(cfg, Arc::new(MetricsRegistry::new())));
    let mut handle = serve_router(Arc::clone(&router)).expect("front end");
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let resp = query(&mut stream, &mut reader, "RANK 0 0 5");
    assert!(resp.starts_with("ERR shards lost mid-rank: 1/2"), "{resp}");
    handle.shutdown();
}

/// A server that negotiates protocol v2 and then swallows every request —
/// the pathological slow shard that hedging exists for.
fn black_hole() -> (SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let handle = std::thread::spawn(move || {
        // serve at most a few connections, then stop accepting
        for conn in listener.incoming().take(4) {
            let Ok(conn) = conn else { return };
            std::thread::spawn(move || {
                let mut reader = BufReader::new(conn.try_clone().expect("clone"));
                let mut conn = conn;
                let mut line = String::new();
                if reader.read_line(&mut line).unwrap_or(0) == 0 {
                    return;
                }
                if line.trim_end() == "PROTO 2" {
                    let _ = writeln!(conn, "OK proto=2");
                }
                // swallow everything else until the client goes away
                loop {
                    line.clear();
                    if reader.read_line(&mut line).unwrap_or(0) == 0 {
                        return;
                    }
                }
            });
        }
    });
    (addr, handle)
}

#[test]
fn slow_shard_hedges_to_the_standby_and_the_rank_stays_complete() {
    let engine = test_engine();
    let good = replica(&engine);
    let standby = replica(&engine);
    let (hole_addr, _hole) = black_hole();
    let cands = candidates();
    let cfg = RouterConfig::new(vec![good.addr(), hole_addr], cands.clone())
        .with_standby(standby.addr())
        .with_policy(PartialPolicy::Partial)
        .with_deadline(Duration::from_secs(3))
        .with_hedge_after(Duration::from_millis(50));
    let registry = Arc::new(MetricsRegistry::new());
    let router = Router::with_registry(cfg, Arc::clone(&registry));

    let outcome = router.rank(0, 0, K).expect("hedged rank succeeds");
    assert!(!outcome.is_partial(), "the standby covered the black-hole slice");
    assert_eq!(outcome.ranked, offline_rank(&engine, 0, 0, &cands));
    assert!(
        registry.counter("router.hedges.count").get() >= 1,
        "the slow shard must have triggered a hedge"
    );
    assert!(
        registry.histogram("router.standby.us").summary().count >= 1,
        "the standby's latency was recorded"
    );
}

/// A fake v2 shard that answers every `SCORE` with the right number of
/// scores, each answer `delay` after its request arrives.
fn slow_shard(delay: Duration) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(mut conn) = conn else { return };
            std::thread::spawn(move || {
                let mut reader = BufReader::new(conn.try_clone().expect("clone"));
                let mut line = String::new();
                while reader.read_line(&mut line).unwrap_or(0) > 0 {
                    let words: Vec<&str> = line.split_whitespace().collect();
                    let reply = if words == ["PROTO", "2"] {
                        "OK proto=2".to_owned()
                    } else {
                        std::thread::sleep(delay);
                        let at = words.iter().position(|w| *w == "SCORE").expect("a SCORE");
                        let scores = vec!["0.5"; (words.len() - at - 1) / 3];
                        format!("ID {} OK {}", words[1], scores.join(" "))
                    };
                    if writeln!(conn, "{reply}").is_err() {
                        return;
                    }
                    line.clear();
                }
            });
        }
    });
    addr
}

/// The hedge races the primary instead of waiting on it: a primary that
/// answers at 300 ms wins over a standby that never answers, and the rank
/// returns then — not when the 3 s deadline gives up on the standby.
#[test]
fn a_hedge_races_the_primary_and_the_first_answer_ends_the_slice() {
    let (hole_addr, _hole) = black_hole();
    let cfg = RouterConfig::new(vec![slow_shard(Duration::from_millis(300))], candidates())
        .with_standby(hole_addr)
        .with_policy(PartialPolicy::Partial)
        .with_deadline(Duration::from_secs(3))
        .with_hedge_after(Duration::from_millis(50));
    let registry = Arc::new(MetricsRegistry::new());
    let router = Router::with_registry(cfg, Arc::clone(&registry));
    let t0 = Instant::now();
    let outcome = router.rank(0, 0, K).expect("the primary answers");
    let elapsed = t0.elapsed();
    assert!(!outcome.is_partial(), "the primary covered its slice");
    assert!(elapsed < Duration::from_secs(1), "the hedge blocked the primary: {elapsed:?}");
    assert_eq!(registry.counter("router.hedges.count").get(), 1);
}

/// Connect and handshake spend the rank's budget, not a socket timeout: a
/// shard whose listener never accepts costs the rank its deadline.
#[test]
fn a_shard_that_never_accepts_costs_the_rank_its_deadline_not_a_socket_timeout() {
    never_accepting_shard_at(1);
}

/// The same shard first in the fan-out: its connect blocks the dispatch,
/// so it may spend only its share of the budget, and a healthy shard with
/// a live session goes on the wire before any connect is tried.
#[test]
fn a_shard_that_never_accepts_first_in_the_fan_out_still_leaves_a_partial_answer() {
    never_accepting_shard_at(0);
}

/// Two shards, the one at `silent_index` bound but never accepted (the
/// kernel completes the TCP handshake, and the `PROTO 2` answer never
/// comes): ranks under `partial` and a 200 ms deadline answer the healthy
/// shard's slice within the deadline.
fn never_accepting_shard_at(silent_index: usize) {
    let engine = test_engine();
    let good = replica(&engine);
    let silent = TcpListener::bind("127.0.0.1:0").expect("bind");
    let mut shards = vec![good.addr()];
    shards.insert(silent_index, silent.local_addr().expect("addr"));
    let cands = candidates();
    let deadline = Duration::from_millis(200);
    let cfg = RouterConfig::new(shards, cands.clone())
        .with_policy(PartialPolicy::Partial)
        .with_deadline(deadline);
    let router = Router::with_registry(cfg, Arc::new(MetricsRegistry::new()));
    let survivors = &shard_slices(&cands, 2)[1 - silent_index];
    // first rank: both shards connect; second: the healthy shard's session
    // is live, and the silent one connects again (one failure does not trip
    // the default breaker)
    for rank in ["cold", "warm"] {
        let t0 = Instant::now();
        let outcome = router.rank(0, 0, K).unwrap_or_else(|e| panic!("{rank} rank: {e}"));
        let elapsed = t0.elapsed();
        assert!(elapsed < deadline + Duration::from_millis(100), "{rank} rank took {elapsed:?}");
        assert_eq!((outcome.covered, outcome.total), (survivors.len(), cands.len()), "{rank}");
        assert_eq!(outcome.ranked, offline_rank(&engine, 0, 0, survivors), "{rank}");
    }
}

#[test]
fn breaker_steers_ranks_away_from_a_dead_shard_after_it_trips() {
    let engine = test_engine();
    let (s0, s1) = (replica(&engine), replica(&engine));
    let proxy = ChaosProxy::spawn(
        s1.addr(),
        ChaosConfig { seed: 47, fault_rate: 0.0, ..Default::default() },
    )
    .expect("proxy");
    proxy.kill();
    let cfg = {
        let mut cfg = RouterConfig::new(vec![s0.addr(), proxy.addr()], candidates())
            .with_policy(PartialPolicy::Partial)
            .with_deadline(Duration::from_secs(2));
        cfg.breaker = BreakerConfig { trip_after: 2, cooldown: Duration::from_secs(60) };
        cfg
    };
    let registry = Arc::new(MetricsRegistry::new());
    let router = Router::with_registry(cfg, Arc::clone(&registry));
    for _ in 0..3 {
        let outcome = router.rank(0, 0, K).expect("partial rank");
        assert!(outcome.is_partial());
    }
    let errors = registry.counter("router.shard_errors.count").get();
    assert_eq!(errors, 2, "after the trip, the dead shard is skipped without a wire attempt");
}
