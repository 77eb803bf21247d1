//! The engine's TCP front end: [`serve`] instantiates the shared line server
//! ([`crate::lineserver`]) with a handler that answers from an [`Engine`].
//!
//! `SCORE` and `RANK` are never scored by the connection worker: the handler
//! submits them to the cross-connection micro-batcher ([`crate::batcher`]),
//! which coalesces everything arriving within `batch_window` into one
//! [`Engine::run_batch`] call, and the batcher's callback delivers the answer
//! through the request's [`Reply`]. The batcher is the one scoring path from
//! the wire — on a v1 connection the loop simply waits for that answer before
//! reading on, so v1 requests coalesce with other connections' too; on v2 one
//! socket keeps N requests in flight and they batch together exactly like
//! requests from N sockets. A `DEADLINE` hint tightens the batcher window
//! for its item and sheds the item once expired.
//!
//! The cheap verbs answer inline: `HEALTH` is the readiness probe, `METRICS`
//! dumps the counters, and `RELOAD <path>` hot-swaps the served bundle
//! through [`Engine::reload_from`], which validates before swapping and
//! keeps the old model on rejection.

use crate::batcher::{BatchConfig, Batcher};
use crate::engine::{BatchItem, BatchOutcome, Engine};
use crate::error::ServeError;
use crate::lineserver::{
    serve_lines, Answer, Call, Handler, LineStats, Reply, ServerConfig, ServerHandle,
};
use crate::protocol::{format_error, format_ranked, format_scores, Request};
use std::sync::Arc;

/// Bind a listener and spawn the acceptor, the connection workers and the
/// micro-batcher over `engine`. Stopping the server drains the batcher.
pub fn serve(engine: Arc<Engine>, cfg: ServerConfig) -> Result<ServerHandle, ServeError> {
    let stats = LineStats::new(engine.stats().registry(), "serve");
    let batcher = Batcher::new(
        Arc::clone(&engine),
        BatchConfig { window: cfg.batch_window, ..BatchConfig::default() },
    );
    Ok(serve_lines(EngineHandler { engine, batcher }, &cfg, stats)?)
}

struct EngineHandler {
    engine: Arc<Engine>,
    /// Dropped with the handler once the last connection worker has exited
    /// (no further submissions), which drains and stops it.
    batcher: Batcher,
}

impl Handler for EngineHandler {
    type Conn = ();

    fn open(&self) {}

    fn handle(&self, _conn: &mut (), call: Call<'_>, reply: &Reply) -> Answer {
        let engine = &self.engine;
        let item = match call.request {
            Request::Score(targets) => BatchItem::Score(targets),
            Request::Rank { head, relation, k } => BatchItem::Rank { head, relation, k },
            Request::Ping => return Answer::Now("OK pong".to_owned()),
            Request::Metrics => return Answer::Now(format!("OK {}", engine.metrics_json())),
            Request::Health => {
                let model = engine.model();
                // degraded still answers OK-prefixed: the process is alive and
                // serving cache hits, so failover probes must not kill it — but
                // operators (and tests) can see the store is quarantined
                let status = if engine.is_degraded() { "degraded" } else { "healthy" };
                return Answer::Now(format!(
                    "OK {status} relations={} entities={}",
                    model.num_relations(),
                    engine.num_entities()
                ));
            }
            Request::Reload { path } => {
                return Answer::Now(match engine.reload_from(&path) {
                    Ok(()) => "OK reloaded".to_owned(),
                    Err(err) => format_error(&err),
                })
            }
            Request::Proto { .. } => unreachable!("the line server answers PROTO itself"),
        };
        // the batchable verbs: the flush that scores the item answers it
        let deadline = call.budget.map(|budget| call.arrival + budget);
        let reply = reply.clone();
        self.batcher.submit_with_deadline(item, deadline, move |result| {
            reply.send(match result {
                Ok(BatchOutcome::Scores(scores)) => format_scores(&scores),
                Ok(BatchOutcome::Ranked(ranked)) => format_ranked(&ranked),
                Err(err) => format_error(&err),
            })
        });
        Answer::Later
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use rmpi_core::{RmpiConfig, RmpiModel};
    use rmpi_kg::{KnowledgeGraph, Triple};
    use std::io::{BufRead, BufReader, Write};
    use std::net::{SocketAddr, TcpStream};
    use std::time::Duration;

    fn test_engine() -> Arc<Engine> {
        let graph = KnowledgeGraph::from_triples(vec![
            Triple::new(0u32, 0u32, 1u32),
            Triple::new(1u32, 1u32, 2u32),
            Triple::new(2u32, 2u32, 0u32),
        ]);
        let model = RmpiModel::new(RmpiConfig { dim: 8, ..RmpiConfig::base() }, 4, 0);
        Arc::new(Engine::with_registry(
            model,
            graph,
            EngineConfig { seed: 3, cache_capacity: 32, threads: 1 },
            Arc::new(rmpi_obs::MetricsRegistry::new()),
        ))
    }

    fn query(addr: SocketAddr, line: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        writeln!(stream, "{line}").expect("send");
        let mut reader = BufReader::new(stream);
        let mut response = String::new();
        reader.read_line(&mut response).expect("recv");
        response.trim_end().to_string()
    }

    /// A connection-loop counter, `serve.<name>.count`, read through the
    /// engine's registry (the line server registers it there).
    fn line_counter(engine: &Engine, name: &str) -> u64 {
        engine.stats().registry().counter(&format!("serve.{name}.count")).get()
    }

    #[test]
    fn serves_ping_score_rank_metrics_over_tcp() {
        let engine = test_engine();
        let mut server = serve(Arc::clone(&engine), ServerConfig::default()).expect("serve");
        let addr = server.addr();

        assert_eq!(query(addr, "PING"), "OK pong");
        let health = query(addr, "HEALTH");
        assert!(health.starts_with("OK healthy"), "{health}");
        assert!(health.contains("relations=4"), "{health}");

        let scored = query(addr, "SCORE 0 1 2");
        let wire: f32 = scored.strip_prefix("OK ").expect(&scored).parse().expect("score");
        let direct = engine.score(Triple::new(0u32, 1u32, 2u32)).unwrap();
        assert_eq!(wire, direct, "wire score must equal in-process score");

        let ranked = query(addr, "RANK 0 1 2");
        assert!(ranked.starts_with("OK "), "{ranked}");
        assert_eq!(ranked[3..].split(' ').count(), 2);

        let metrics = query(addr, "METRICS");
        assert!(metrics.starts_with("OK {"), "{metrics}");
        assert!(metrics.contains("\"serve.wire_requests.count\""), "{metrics}");
        assert!(metrics.contains("\"serve.wire.score.us\""), "{metrics}");
        assert!(metrics.contains("\"serve.queue_wait.us\""), "{metrics}");
        assert!(metrics.contains("\"subgraph.cache_entries.count\""), "{metrics}");

        assert!(query(addr, "NOPE").starts_with("ERR bad request"));
        assert!(query(addr, "STATS").starts_with("ERR bad request"), "METRICS is the one dump");
        server.shutdown();
    }

    #[test]
    fn one_connection_can_send_many_requests() {
        let mut server = serve(test_engine(), ServerConfig::default()).expect("serve");
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        for _ in 0..3 {
            writeln!(stream, "SCORE 0 0 1 1 1 2").expect("send");
            let mut line = String::new();
            reader.read_line(&mut line).expect("recv");
            assert!(line.starts_with("OK "), "{line}");
            assert_eq!(line.trim_end().split(' ').count(), 3, "batch of 2 scores");
        }
        server.shutdown();
    }

    #[test]
    fn overload_is_rejected_not_queued() {
        // zero workers would hang; instead use 1 worker and capacity 1, then
        // wedge the worker with a held-open idle connection so further
        // connections pile into the bounded queue
        let engine = test_engine();
        let mut server = serve(
            Arc::clone(&engine),
            ServerConfig {
                workers: 1,
                queue_capacity: 1,
                request_timeout: Duration::from_millis(400),
                ..ServerConfig::default()
            },
        )
        .expect("serve");
        let addr = server.addr();

        // occupy the single worker: connected but silent until read timeout
        let wedge = TcpStream::connect(addr).expect("wedge connect");
        std::thread::sleep(Duration::from_millis(50));
        // fill the queue
        let _queued = TcpStream::connect(addr).expect("queued connect");
        std::thread::sleep(Duration::from_millis(50));
        // queue is full now: this one must be shed immediately
        let shed = TcpStream::connect(addr).expect("shed connect");
        let mut reader = BufReader::new(shed);
        let mut line = String::new();
        reader.read_line(&mut line).expect("recv");
        assert_eq!(line.trim_end(), "ERR server overloaded");
        assert!(line_counter(&engine, "rejected_overload") >= 1);

        drop(wedge);
        server.shutdown();
    }

    #[test]
    fn overlong_line_is_rejected_and_counted() {
        let engine = test_engine();
        let mut server = serve(
            Arc::clone(&engine),
            ServerConfig { max_line_len: 64, ..ServerConfig::default() },
        )
        .expect("serve");
        let long = format!("SCORE {}", "0 1 2 ".repeat(64));
        let reply = query(server.addr(), &long);
        assert_eq!(reply, "ERR request too long (over 64 bytes)");
        assert_eq!(line_counter(&engine, "rejected_overlong"), 1);
        // a line exactly at the cap still parses (and gets a normal answer)
        assert_eq!(query(server.addr(), "PING"), "OK pong");
        server.shutdown();
    }

    #[test]
    fn idle_connection_is_closed_and_counted() {
        let engine = test_engine();
        let mut server = serve(
            Arc::clone(&engine),
            ServerConfig { idle_timeout: Duration::from_millis(100), ..ServerConfig::default() },
        )
        .expect("serve");
        let stream = TcpStream::connect(server.addr()).expect("connect");
        let mut reader = BufReader::new(stream);
        // send nothing: the server must hang up after idle_timeout
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("read to eof");
        assert_eq!(n, 0, "server should close the idle connection, got {line:?}");
        assert_eq!(line_counter(&engine, "idle_closed"), 1);
        server.shutdown();
    }

    #[test]
    fn connection_cap_sheds_with_err_too_many_connections() {
        let engine = test_engine();
        let mut server = serve(
            Arc::clone(&engine),
            ServerConfig {
                workers: 1,
                max_connections: 1,
                idle_timeout: Duration::from_millis(500),
                ..ServerConfig::default()
            },
        )
        .expect("serve");
        let addr = server.addr();
        // occupy the single admitted slot with a held-open idle connection
        let wedge = TcpStream::connect(addr).expect("wedge connect");
        std::thread::sleep(Duration::from_millis(50));
        // the rejection is written (and the socket closed) before any request
        // arrives, so just read — writing could race a broken pipe
        let shed = TcpStream::connect(addr).expect("shed connect");
        let mut reply = String::new();
        BufReader::new(shed).read_line(&mut reply).expect("recv");
        assert_eq!(reply.trim_end(), "ERR too many connections");
        assert!(line_counter(&engine, "rejected_conn_limit") >= 1);
        drop(wedge);
        // slot released after the wedge closes: service resumes
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(query(addr, "PING"), "OK pong");
        server.shutdown();
    }

    #[test]
    fn proto2_pipelines_tagged_requests_on_one_connection() {
        let engine = test_engine();
        let mut server = serve(
            Arc::clone(&engine),
            ServerConfig { batch_window: Duration::from_millis(2), ..ServerConfig::default() },
        )
        .expect("serve");
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut line = String::new();

        writeln!(stream, "PROTO 2").expect("hello");
        reader.read_line(&mut line).expect("hello reply");
        assert_eq!(line.trim_end(), "OK proto=2");

        // eight requests in flight at once, one write: scores, a rank, a
        // ping, and one bad relation — every reply must carry its tag
        let mut pipelined = String::new();
        for tag in 0..5u64 {
            pipelined.push_str(&format!("ID {tag} SCORE {} 1 2\n", tag % 3));
        }
        pipelined.push_str("ID 5 RANK 0 1 2\n");
        pipelined.push_str("ID 6 PING\n");
        pipelined.push_str("ID 7 SCORE 0 9 1\n");
        stream.write_all(pipelined.as_bytes()).expect("pipeline");

        let mut replies = std::collections::HashMap::new();
        for _ in 0..8 {
            line.clear();
            reader.read_line(&mut line).expect("reply");
            let (tag, rest) = crate::protocol::parse_tagged(line.trim_end()).expect("tagged");
            assert!(replies.insert(tag, rest.to_string()).is_none(), "duplicate tag {tag}");
        }
        for tag in 0..5u64 {
            let direct = engine.score(Triple::new((tag % 3) as u32, 1u32, 2u32)).unwrap();
            assert_eq!(replies[&tag], format!("OK {direct}"), "tag {tag}");
        }
        assert!(replies[&5].starts_with("OK "), "{}", replies[&5]);
        assert_eq!(replies[&6], "OK pong");
        assert_eq!(replies[&7], "ERR unknown relation id 9");

        // the concurrent tagged scores coalesced: at least one flush held
        // more than one request
        let max_batch = engine.stats().registry().histogram("serve.batch_size.count").max();
        assert!(max_batch > 1, "pipelined requests should batch, max batch = {max_batch}");

        // an untagged line on a v2 connection gets one untagged ERR frame
        writeln!(stream, "SCORE 0 1 2").expect("untagged");
        line.clear();
        reader.read_line(&mut line).expect("untagged reply");
        assert!(line.starts_with("ERR bad request"), "{line}");
        server.shutdown();
    }

    #[test]
    fn v2_deadline_hint_serves_in_time_and_sheds_late_items() {
        let engine = test_engine();
        let mut server = serve(
            Arc::clone(&engine),
            ServerConfig { batch_window: Duration::from_secs(600), ..ServerConfig::default() },
        )
        .expect("serve");
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut line = String::new();
        writeln!(stream, "PROTO 2").expect("hello");
        reader.read_line(&mut line).expect("hello reply");
        assert_eq!(line.trim_end(), "OK proto=2");

        // with a 600 s batch window only the DEADLINE hint can flush this
        // item while the test is alive
        writeln!(stream, "ID 1 DEADLINE 30 SCORE 0 1 2").expect("send");
        line.clear();
        reader.read_line(&mut line).expect("reply");
        let direct = engine.score(Triple::new(0u32, 1u32, 2u32)).unwrap();
        assert_eq!(line.trim_end(), format!("ID 1 OK {direct}"));

        // a zero budget expires before the batcher can collect the item
        writeln!(stream, "ID 2 DEADLINE 0 SCORE 0 1 2").expect("send");
        line.clear();
        reader.read_line(&mut line).expect("reply");
        assert_eq!(line.trim_end(), "ID 2 ERR deadline expired");
        server.shutdown();
    }

    #[test]
    fn proto_rejects_unknown_versions_and_v1_still_serves() {
        let engine = test_engine();
        let mut server = serve(Arc::clone(&engine), ServerConfig::default()).expect("serve");
        let addr = server.addr();
        assert!(query(addr, "PROTO 3").starts_with("ERR bad request"), "only v2 exists");
        // a v1 connection after a rejected upgrade keeps serving untagged
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut line = String::new();
        for (req, want) in [("PROTO 9", "ERR"), ("PING", "OK pong")] {
            writeln!(stream, "{req}").expect("send");
            line.clear();
            reader.read_line(&mut line).expect("recv");
            assert!(line.starts_with(want), "{req} -> {line}");
        }
        server.shutdown();
    }
}
