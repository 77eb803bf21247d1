//! Property-style fuzz of the wire protocol: random printable garbage,
//! random binary bytes and overlong lines thrown at a live server.
//!
//! The invariant under test is the server's whole hostile-input posture:
//! every non-blank request line — whatever its bytes — is answered with
//! exactly one single-line `OK ...`/`ERR ...` response (or, for overlong
//! lines, `ERR request too long` followed by a close), and the server keeps
//! serving afterwards. Nothing a peer sends may panic a worker, wedge a
//! connection or produce an unframed response.

use proptest::prelude::*;
use rmpi_core::{RmpiConfig, RmpiModel};
use rmpi_kg::{KnowledgeGraph, Triple};
use rmpi_serve::{parse_request, serve, Engine, EngineConfig, ServerConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, OnceLock};
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

/// One long-lived fuzz server per shape, shared by all cases (proptest
/// bodies are plain fns, so the address lives in a `OnceLock`; the handle is
/// forgotten — its threads serve until the test process exits).
fn fuzz_server(cell: &'static OnceLock<SocketAddr>, cfg: ServerConfig) -> SocketAddr {
    *cell.get_or_init(|| {
        let server = serve(test_engine(), cfg).expect("fuzz server");
        let addr = server.addr();
        std::mem::forget(server);
        addr
    })
}

static GARBAGE_SERVER: OnceLock<SocketAddr> = OnceLock::new();
static TINY_LINE_SERVER: OnceLock<SocketAddr> = OnceLock::new();
static PIPE_SERVER: OnceLock<SocketAddr> = OnceLock::new();

fn garbage_server() -> SocketAddr {
    fuzz_server(&GARBAGE_SERVER, ServerConfig { workers: 2, ..ServerConfig::default() })
}

fn tiny_line_server() -> SocketAddr {
    fuzz_server(
        &TINY_LINE_SERVER,
        ServerConfig { workers: 2, max_line_len: 64, ..ServerConfig::default() },
    )
}

/// Server for the v1/v2 interleaving property: enough workers for two
/// persistent connections per case plus churn, and a short batching window
/// so tagged requests route through the micro-batcher while they interleave
/// with untagged ones.
fn pipe_server() -> SocketAddr {
    fuzz_server(
        &PIPE_SERVER,
        ServerConfig {
            workers: 4,
            batch_window: Duration::from_millis(1),
            ..ServerConfig::default()
        },
    )
}

/// Send raw bytes (newline appended) followed by `PING`, and return every
/// response line received. The trailing `PING` both proves the server is
/// still alive on the *same* connection and unblocks the read when the fuzz
/// line was blank (blank lines are skipped without an answer).
fn exchange(addr: SocketAddr, payload: &[u8]) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    stream.write_all(payload).expect("send payload");
    stream.write_all(b"\nPING\n").expect("send ping");
    let mut reader = BufReader::new(stream);
    let mut responses = Vec::new();
    loop {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {
                assert!(line.ends_with('\n'), "unframed response {line:?}");
                responses.push(line.trim_end().to_string());
                if line.starts_with("OK pong") {
                    break; // the PING answer is always last
                }
            }
            Err(e) => panic!("read failed before the PING answer: {e}"),
        }
    }
    responses
}

/// Whether the server will consider `bytes` (pre-newline) a blank line:
/// trailing `\r` stripped, lossy UTF-8, then whitespace-only.
fn is_blank(bytes: &[u8]) -> bool {
    let mut bytes = bytes.to_vec();
    while bytes.last() == Some(&b'\r') {
        bytes.pop();
    }
    String::from_utf8_lossy(&bytes).trim().is_empty()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn parse_request_never_panics_on_printable_garbage(line in "[ -~]{0,200}") {
        // pure-parser fuzz: any outcome is fine, panicking is not
        let _ = parse_request(&line);
    }

    #[test]
    fn printable_garbage_gets_one_framed_answer_and_the_server_survives(line in "[ -~]{0,120}") {
        let responses = exchange(garbage_server(), line.as_bytes());
        let expected = if is_blank(line.as_bytes()) { 1 } else { 2 };
        prop_assert_eq!(responses.len(), expected, "line {:?} -> {:?}", line, &responses);
        for r in &responses {
            prop_assert!(
                r.starts_with("OK") || r.starts_with("ERR "),
                "unprefixed response {:?} to {:?}", r, line
            );
        }
        prop_assert_eq!(responses.last().map(String::as_str), Some("OK pong"));
    }

    #[test]
    fn binary_garbage_gets_one_framed_answer_and_the_server_survives(
        bytes in prop::collection::vec(0u8..255, 0..160),
    ) {
        // a newline inside the payload would legitimately split it into two
        // requests; everything else (nulls, invalid UTF-8, control bytes)
        // must be handled as one line
        let mut bytes = bytes;
        bytes.retain(|&b| b != b'\n');
        let responses = exchange(garbage_server(), &bytes);
        let expected = if is_blank(&bytes) { 1 } else { 2 };
        prop_assert_eq!(responses.len(), expected, "bytes {:?} -> {:?}", &bytes, &responses);
        for r in &responses {
            prop_assert!(
                r.starts_with("OK") || r.starts_with("ERR "),
                "unprefixed response {:?} to {:?}", r, &bytes
            );
        }
        prop_assert_eq!(responses.last().map(String::as_str), Some("OK pong"));
    }

    #[test]
    fn interleaved_v1_and_v2_connections_get_correctly_framed_correctly_tagged_answers(
        ops in prop::collection::vec((any::<bool>(), 0u32..3, 0u32..3, 0u32..3), 1..12),
        tag_base in any::<u32>(),
    ) {
        let addr = pipe_server();
        let v1 = TcpStream::connect(addr).expect("connect v1");
        let v2 = TcpStream::connect(addr).expect("connect v2");
        for s in [&v1, &v2] {
            s.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
        }
        let mut v1_reader = BufReader::new(v1.try_clone().expect("clone v1"));
        let mut v2_reader = BufReader::new(v2.try_clone().expect("clone v2"));
        let mut v1 = &v1;
        let mut v2 = &v2;

        v2.write_all(b"PROTO 2\n").expect("hello");
        let mut line = String::new();
        v2_reader.read_line(&mut line).expect("hello reply");
        prop_assert_eq!(line.trim_end(), "OK proto=2");

        // every request goes down BOTH connections, writes interleaved and
        // pipelined; the property is that the payload a request gets must
        // not depend on the transport generation, the tag value, or what
        // the other connection is doing
        let mut tags = Vec::with_capacity(ops.len());
        for (i, &(ping, h, r, t)) in ops.iter().enumerate() {
            let req = if ping { "PING".to_string() } else { format!("SCORE {h} {r} {t}") };
            let tag = u64::from(tag_base) + (i as u64) * 7 + 1;
            v2.write_all(format!("ID {tag} {req}\n").as_bytes()).expect("v2 send");
            v1.write_all(format!("{req}\n").as_bytes()).expect("v1 send");
            tags.push(tag);
        }

        // v1 answers arrive untagged, in order
        let mut v1_payloads = Vec::with_capacity(ops.len());
        for i in 0..ops.len() {
            line.clear();
            v1_reader.read_line(&mut line).expect("v1 reply");
            prop_assert!(line.ends_with('\n'), "unframed v1 response {:?}", &line);
            let payload = line.trim_end();
            prop_assert!(
                payload.starts_with("OK") || payload.starts_with("ERR "),
                "unprefixed v1 response {:?} to op {}", payload, i
            );
            prop_assert!(
                rmpi_serve::parse_tagged(payload).is_err(),
                "v1 response must not carry a tag: {:?}", payload
            );
            v1_payloads.push(payload.to_string());
        }

        // v2 answers arrive tagged, any order, exactly one per tag
        let mut v2_payloads = std::collections::HashMap::new();
        for _ in 0..ops.len() {
            line.clear();
            v2_reader.read_line(&mut line).expect("v2 reply");
            prop_assert!(line.ends_with('\n'), "unframed v2 response {:?}", &line);
            let (tag, rest) =
                rmpi_serve::parse_tagged(line.trim_end()).expect("untagged v2 response");
            prop_assert!(
                v2_payloads.insert(tag, rest.to_string()).is_none(),
                "duplicate answer for tag {}", tag
            );
        }
        for (i, tag) in tags.iter().enumerate() {
            prop_assert_eq!(
                &v2_payloads[tag], &v1_payloads[i],
                "op {} answered differently over v2 (tag {}) than over v1", i, tag
            );
        }
    }

    #[test]
    fn overlong_lines_are_rejected_and_the_connection_closed(extra in 1usize..400) {
        let addr = tiny_line_server();
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
        // one write: the server rejects as soon as it holds more than the cap,
        // and a newline still in flight when it hangs up would turn the close
        // into a reset
        let mut line = vec![b'A'; 64 + extra];
        line.push(b'\n');
        stream.write_all(&line).expect("send");
        let mut reader = BufReader::new(stream);
        let mut response = String::new();
        reader.read_line(&mut response).expect("read rejection");
        prop_assert_eq!(response.trim_end(), "ERR request too long (over 64 bytes)");
        // and the server hangs up: no further bytes arrive
        let mut rest = Vec::new();
        reader.read_to_end(&mut rest).expect("read to close");
        prop_assert!(rest.is_empty(), "bytes after the rejection: {:?}", rest);
        // the server itself keeps serving new connections
        let responses = exchange(addr, b"PING");
        prop_assert_eq!(responses.last().map(String::as_str), Some("OK pong"));
    }
}
