//! End-to-end observability: a short instrumented training run followed by a
//! serve session, all recording into the process-global metrics registry, then
//! assertions that every mandatory metric is present and nonzero — trainer
//! phase timings, pool utilisation, cache hit rate, the degraded gauge and
//! per-verb latency percentiles — through the `METRICS` wire command.
//! `scripts/verify.sh` runs this test as its observability gate.
//!
//! A second test exercises the resilience counters end to end: the server's
//! connection-hardening counters (overlong lines, idle reaping, the
//! connection cap) and the client's retry-layer counters (retries,
//! failovers, breaker trips), all recording into the same global registry.

use rmpi::client::{BackoffConfig, BreakerConfig};
use rmpi::prelude::*;
use rmpi::serve::{serve, ServerConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Pull the integer value of `"key": <n>` out of a single-line JSON dump.
fn field_u64(json: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\": ");
    let at = json.find(&pat).unwrap_or_else(|| panic!("metric {key:?} missing from {json}"));
    json[at + pat.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("metric {key:?} is not an integer in {json}"))
}

fn query(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
    writeln!(stream, "{line}").expect("send");
    let mut response = String::new();
    reader.read_line(&mut response).expect("recv");
    response.trim_end().to_string()
}

#[test]
fn train_and_serve_populate_the_global_registry() {
    let registry = metrics();

    // --- a short data-parallel training run -------------------------------
    let b = build_benchmark("nell.v1", Scale::Quick);
    let mut model =
        RmpiModel::new(RmpiConfig { dim: 8, ..RmpiConfig::base() }, b.num_relations(), 1);
    let cfg = TrainConfig {
        epochs: 1,
        batch_size: 16,
        max_samples_per_epoch: 32,
        max_valid_samples: 4,
        patience: 0,
        seed: 3,
        threads: 2,
        ..Default::default()
    };
    Trainer::new(cfg).train(&mut model, &b.train.graph, &b.train.targets, &b.train.valid);

    // trainer phase timings: every phase must have fired
    for phase in [
        "core.extract.us",
        "trainer.forward.us",
        "trainer.backward.us",
        "trainer.optim_step.us",
        "trainer.epoch.us",
    ] {
        let s = registry.histogram(phase).summary();
        assert!(s.count > 0, "{phase} never recorded");
    }
    assert!(
        registry.histogram("trainer.epoch.us").summary().sum > 0,
        "an epoch cannot take zero microseconds"
    );
    assert!(registry.counter("trainer.epochs.count").get() >= 1);
    assert!(registry.counter("trainer.batches.count").get() >= 1);
    assert!(registry.counter("trainer.samples.count").get() >= 32);

    // pool utilisation: threads=2 must have gone through the worker pool
    assert!(registry.counter("pool.maps.count").get() >= 1, "pool never dispatched");
    assert!(registry.counter("pool.items.count").get() >= 32);
    assert!(registry.histogram("pool.shard_busy.us").summary().count > 0);

    // --- a serve session against the same registry ------------------------
    let test = b.test("TE").expect("TE split");
    let engine = Arc::new(Engine::new(
        model,
        test.graph.clone(),
        EngineConfig { seed: 5, cache_capacity: 256, threads: 1 },
    ));
    let mut server = serve(Arc::clone(&engine), ServerConfig::default()).expect("serve");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    let t = test.targets[0];
    let score_line = format!("SCORE {} {} {}", t.head.0, t.relation.0, t.tail.0);
    assert!(query(&mut stream, &mut reader, &score_line).starts_with("OK "));
    // the same triple again: this one is a guaranteed cache hit
    assert!(query(&mut stream, &mut reader, &score_line).starts_with("OK "));
    let rank_line = format!("RANK {} {} 3", t.head.0, t.relation.0);
    assert!(query(&mut stream, &mut reader, &rank_line).starts_with("OK "));

    // METRICS dumps the whole registry: serve, trainer and pool together
    let line = query(&mut stream, &mut reader, "METRICS");
    assert!(line.starts_with("OK {"), "{line}");
    let metrics_json = &line[3..];
    assert!(field_u64(metrics_json, "serve.scores.count") >= 2, "{metrics_json}");
    // the engine's degraded state rides along as a gauge, so fleet monitors
    // don't need a second HEALTH round trip — this healthy engine reports 0
    assert_eq!(field_u64(metrics_json, "store.degraded"), 0, "{metrics_json}");
    for name in [
        "serve.wire.score.us",
        "serve.wire.rank.us",
        "serve.queue_wait.us",
        "serve.score.us",
        "trainer.forward.us",
        "pool.shard_busy.us",
    ] {
        assert!(metrics_json.contains(&format!("\"{name}\"")), "METRICS missing {name}: {line}");
    }
    // per-verb latency percentiles are in the dump
    let wire_score =
        metrics_json.split("\"serve.wire.score.us\": ").nth(1).expect("serve.wire.score.us object");
    for pct in ["\"p50\"", "\"p90\"", "\"p99\""] {
        assert!(wire_score.starts_with('{') && wire_score.contains(pct), "{wire_score}");
    }
    // a nonzero cache hit rate: the repeated SCORE hit the LRU
    assert!(field_u64(metrics_json, "subgraph.cache_hits.count") >= 1, "{metrics_json}");
    assert!(field_u64(metrics_json, "subgraph.cache_entries.count") >= 1, "{metrics_json}");

    server.shutdown();

    // the in-process dump matches what came over the wire (modulo the
    // metrics that kept ticking during the dump itself)
    assert!(engine.metrics_json().contains("\"serve.wire.metrics.us\""));
}

/// Wait (bounded) for a counter that a server thread increments
/// asynchronously after the client-visible effect.
fn await_counter(name: &str, floor: u64) -> u64 {
    let registry = metrics();
    for _ in 0..100 {
        let v = registry.counter(name).get();
        if v >= floor {
            return v;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("counter {name} never reached {floor} (at {})", registry.counter(name).get());
}

#[test]
fn hardening_and_retry_layers_populate_the_resilience_counters() {
    let registry = metrics();
    let graph = KnowledgeGraph::from_triples(vec![
        Triple::new(0u32, 0u32, 1u32),
        Triple::new(1u32, 1u32, 2u32),
        Triple::new(2u32, 2u32, 0u32),
    ]);
    let model = RmpiModel::new(RmpiConfig { dim: 8, ..RmpiConfig::base() }, 4, 0);
    let engine = || {
        Arc::new(Engine::new(
            model.clone(),
            graph.clone(),
            EngineConfig { seed: 11, cache_capacity: 32, threads: 1 },
        ))
    };

    // --- server hardening counters ----------------------------------------
    // the connection cap: one held connection, then a second that must be
    // shed with `ERR too many connections`. The idle timeout is long so the
    // held connection cannot be reaped (and its slot freed) mid-phase, and
    // the round trip proves it is admitted before the second one arrives.
    let mut capped = serve(
        engine(),
        ServerConfig {
            max_connections: 1,
            idle_timeout: Duration::from_secs(60),
            ..ServerConfig::default()
        },
    )
    .expect("capped server");
    let base = registry.counter("serve.rejected_conn_limit.count").get();
    let mut held = TcpStream::connect(capped.addr()).expect("held connection");
    let mut held_reader = BufReader::new(held.try_clone().expect("clone"));
    assert_eq!(query(&mut held, &mut held_reader, "PING"), "OK pong");
    let shed = TcpStream::connect(capped.addr()).expect("shed connection");
    let mut line = String::new();
    BufReader::new(shed).read_line(&mut line).expect("read the shed answer");
    assert_eq!(line.trim_end(), "ERR too many connections");
    assert!(await_counter("serve.rejected_conn_limit.count", base + 1) > base);
    capped.shutdown();

    // no cap from here on, so neither of the next two connections can be shed
    let mut hardened = serve(
        engine(),
        ServerConfig {
            max_line_len: 64,
            idle_timeout: Duration::from_millis(150),
            ..ServerConfig::default()
        },
    )
    .expect("hardened server");

    // an overlong request line: rejected, counted, connection closed. One
    // write, newline included: the server has read every byte we sent when
    // it closes, so the close cannot turn into a reset that eats the answer.
    let base = registry.counter("serve.rejected_overlong.count").get();
    let mut stream = TcpStream::connect(hardened.addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    let mut overlong = vec![b'A'; 200];
    overlong.push(b'\n');
    stream.write_all(&overlong).expect("send overlong");
    let mut response = String::new();
    BufReader::new(stream).read_line(&mut response).expect("read rejection");
    assert_eq!(response.trim_end(), "ERR request too long (over 64 bytes)");
    assert!(await_counter("serve.rejected_overlong.count", base + 1) > base);

    // an idle connection: reaped by the read timeout, counted, EOF for us
    let base = registry.counter("serve.idle_closed.count").get();
    let idle = TcpStream::connect(hardened.addr()).expect("idle connection");
    idle.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    let mut buf = [0u8; 64];
    assert_eq!((&idle).read(&mut buf).expect("read on idle connection"), 0);
    assert!(await_counter("serve.idle_closed.count", base + 1) > base);
    hardened.shutdown();

    // --- client retry-layer counters ---------------------------------------
    // a dead endpoint first in the list, a live replica second: the first
    // request must retry, fail over, and trip the dead endpoint's breaker —
    // one event on each counter. The dead address is the local end of a
    // connected socket: nothing listens there, so connections are refused,
    // and no concurrently running test can bind it while `occupant` lives.
    let parked = TcpListener::bind("127.0.0.1:0").expect("bind");
    let occupant = TcpStream::connect(parked.local_addr().expect("addr")).expect("occupy");
    let dead = occupant.local_addr().expect("addr");
    let mut live = serve(engine(), ServerConfig::default()).expect("live server");
    let (retries, failovers, trips) = (
        registry.counter("client.retries.count").get(),
        registry.counter("client.failovers.count").get(),
        registry.counter("client.breaker_open.count").get(),
    );
    let mut client = FailoverClient::new(
        vec![dead, live.addr()],
        FailoverConfig {
            client: ClientConfig {
                max_retries: 4,
                backoff: BackoffConfig {
                    base: Duration::from_millis(1),
                    max: Duration::from_millis(10),
                    ..Default::default()
                },
                ..Default::default()
            }
            .with_seed(23),
            breaker: BreakerConfig { trip_after: 1, cooldown: Duration::from_secs(60) },
        },
    );
    let score = client.score(0, 0, 1).expect("the live replica must answer");
    assert!(score.is_finite());
    assert!(registry.counter("client.retries.count").get() > retries);
    assert!(registry.counter("client.failovers.count").get() > failovers);
    assert!(registry.counter("client.breaker_open.count").get() > trips);
    assert!(registry.counter("client.requests.count").get() >= 1);

    // everything above is one registry dump away
    let dump = registry.to_json();
    for name in [
        "serve.rejected_overlong.count",
        "serve.idle_closed.count",
        "serve.rejected_conn_limit.count",
        "client.retries.count",
        "client.failovers.count",
        "client.breaker_open.count",
    ] {
        assert!(dump.contains(&format!("\"{name}\"")), "dump lost {name}");
    }
    live.shutdown();
    drop(occupant);
}
