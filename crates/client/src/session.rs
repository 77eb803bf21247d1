//! Pipelined sessions over protocol v2, and a small connection pool.
//!
//! A [`Session`] is one persistent TCP connection that keeps **many requests
//! in flight at once**: each request is framed `ID <tag> <verb...>` and the
//! server echoes the tag on the (possibly out-of-order) response line. A
//! background reader thread demultiplexes response lines into per-request
//! channels keyed by tag, so any number of threads can share one `&Session`
//! — the write side is serialized by a mutex, the read side by the reader
//! thread, and nothing else blocks anyone.
//!
//! # Failure semantics (the whole point)
//!
//! The tag framing is what makes pipelining safe under chaos:
//!
//! - A response is only ever delivered to the waiter registered under its
//!   tag. A reply whose waiter already timed out finds no registration and
//!   is **dropped** — late data is never mis-attributed to a newer request.
//! - When the transport dies mid-pipeline (peer close, truncated line,
//!   read/write error, or an untagged frame on a v2 stream), the session is
//!   marked dead and every in-flight request receives **exactly one** typed
//!   [`ClientError::SessionClosed`]. No waiter is left hanging, and no
//!   waiter receives another request's bytes.
//! - A dead session stays dead; callers open a fresh one. The retry layers
//!   ([`crate::Client`], [`crate::FailoverClient`]) do this automatically
//!   because `SessionClosed` is retryable.
//!
//! # Handshake
//!
//! [`Session::connect`] sends `PROTO 2` and requires `OK proto=2` back. Any
//! other complete frame is classified like any response: the `ERR server
//! overloaded` / `ERR too many connections` line a shedding server writes at
//! accept time becomes that typed, retryable server error, and anything else
//! is a protocol error. There is no second transport to fall back to.

use crate::client::{classify_response, parse_ranked, parse_scores, score_line, ClientConfig};
use crate::error::ClientError;
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

/// Where one in-flight request's outcome arrives.
type Waiter = mpsc::Receiver<Result<String, ClientError>>;

/// State shared between a session's callers and its reader thread.
#[derive(Debug)]
struct Core {
    /// Waiters for in-flight requests, keyed by tag. A waiter is removed by
    /// whichever side resolves it first: the reader (response or death) or
    /// the caller (timeout deregistration).
    inflight: Mutex<HashMap<u64, mpsc::SyncSender<Result<String, ClientError>>>>,
    /// Once true the session never serves again.
    dead: AtomicBool,
    /// Why it died (read after `dead` is observed true).
    reason: Mutex<String>,
}

impl Core {
    fn new() -> Core {
        Core {
            inflight: Mutex::new(HashMap::new()),
            dead: AtomicBool::new(false),
            reason: Mutex::new(String::new()),
        }
    }

    fn is_dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }

    /// Kill the session: first death wins, and every in-flight waiter gets
    /// exactly one fresh `SessionClosed` carrying the reason.
    fn die(&self, reason: &str) {
        {
            let mut r = self.reason.lock().expect("session reason lock");
            if self.dead.swap(true, Ordering::SeqCst) {
                return;
            }
            *r = reason.to_owned();
        }
        let drained: Vec<_> = {
            let mut inflight = self.inflight.lock().expect("session inflight lock");
            inflight.drain().collect()
        };
        for (_tag, tx) in drained {
            let _ = tx.send(Err(ClientError::SessionClosed(reason.to_owned())));
        }
    }

    fn closed_error(&self) -> ClientError {
        ClientError::SessionClosed(self.reason.lock().expect("session reason lock").clone())
    }
}

/// One persistent, pipelining connection to a server (see module docs).
/// All request methods take `&self`: a `Session` is safe to share across
/// threads, and sharing is how concurrent requests coalesce into the
/// server's micro-batches.
#[derive(Debug)]
pub struct Session {
    addr: SocketAddr,
    read_timeout: Duration,
    core: Arc<Core>,
    writer: Mutex<TcpStream>,
    next_tag: AtomicU64,
    reader: Option<std::thread::JoinHandle<()>>,
}

impl Session {
    /// Connect and negotiate. Sends `PROTO 2`; `OK proto=2` starts the
    /// pipelined session. Any other complete frame fails `connect` with its
    /// classification — a shedding server's `ERR too many connections` is a
    /// transient server error — and an incomplete or missing frame fails as
    /// transport damage (retryable).
    pub fn connect(addr: SocketAddr, cfg: &ClientConfig) -> Result<Session, ClientError> {
        let stream =
            TcpStream::connect_timeout(&addr, cfg.connect_timeout).map_err(ClientError::Connect)?;
        stream
            .set_read_timeout(Some(cfg.read_timeout))
            .and_then(|()| stream.set_write_timeout(Some(cfg.write_timeout)))
            .map_err(ClientError::Io)?;
        let _ = stream.set_nodelay(true);
        let mut writer = stream.try_clone().map_err(ClientError::Io)?;
        writer.write_all(b"PROTO 2\n").map_err(ClientError::Io)?;
        let mut reader = BufReader::new(stream);
        let hello = read_frame(&mut reader)?;
        if hello != "OK proto=2" {
            classify_response(&hello)?;
            return Err(ClientError::Protocol(hello));
        }
        let core = Arc::new(Core::new());
        let reader_core = Arc::clone(&core);
        let handle = std::thread::Builder::new()
            .name("rmpi-session-reader".into())
            .spawn(move || reader_loop(reader, reader_core))
            .map_err(ClientError::Io)?;
        Ok(Session {
            addr,
            read_timeout: cfg.read_timeout,
            core,
            writer: Mutex::new(writer),
            next_tag: AtomicU64::new(1),
            reader: Some(handle),
        })
    }

    /// The endpoint this session is connected to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether the session can still serve requests. A dead session never
    /// recovers — open a new one.
    pub fn is_alive(&self) -> bool {
        !self.core.is_dead()
    }

    /// Send one request line and wait for its response payload. Safe to
    /// call from many threads at once; the requests share the wire
    /// concurrently.
    pub fn request(&self, line: &str) -> Result<String, ClientError> {
        self.request_timeout(line, self.read_timeout)
    }

    /// Like [`Session::request`], but waits at most `timeout` for **this**
    /// request's response instead of the session-wide read timeout. A
    /// timeout deregisters the waiter (a late reply is dropped) and does
    /// not kill the session — exactly as with the session-wide clock.
    pub fn request_timeout(&self, line: &str, timeout: Duration) -> Result<String, ClientError> {
        let (tag, rx) = self.submit(line)?;
        self.wait_for(tag, rx, timeout)
    }

    /// `DEADLINE <ms> SCORE h r t [...]` under a per-request wait of
    /// `budget`: the server is told how much of the caller's end-to-end
    /// budget remains — its micro-batcher flushes early rather than hold
    /// the request past the deadline, and an expired item is answered
    /// `ERR deadline expired` (transient, retryable) instead of a stale
    /// score. The caller stops waiting after the same budget.
    pub fn score_batch_deadline(
        &self,
        triples: &[(u32, u32, u32)],
        budget: Duration,
    ) -> Result<Vec<f32>, ClientError> {
        let ms = budget.as_millis().max(1);
        let line = format!("DEADLINE {ms} {}", score_line(triples));
        let payload = self.request_timeout(&line, budget)?;
        parse_scores(&payload, triples.len())
    }

    /// Send many request lines and collect per-line results in submission
    /// order. All lines are written back-to-back (one buffered write) and
    /// sit in flight together — this is the client edge of the server's
    /// cross-connection micro-batcher.
    pub fn request_many(&self, lines: &[&str]) -> Vec<Result<String, ClientError>> {
        // register every waiter, then push all frames in one write: the
        // server can start answering out of order while later frames are
        // still in the kernel buffer
        let mut buffer = String::new();
        let waiters: Vec<_> = lines
            .iter()
            .map(|line| {
                let (tag, rx) = self.register()?;
                buffer.push_str(&format!("ID {tag} {line}\n"));
                Ok((tag, rx))
            })
            .collect();
        if !buffer.is_empty() {
            let mut w = self.writer.lock().expect("session writer lock");
            if let Err(e) = w.write_all(buffer.as_bytes()) {
                // die() hands every registered waiter its error
                self.core.die(&format!("write failed: {e}"));
            }
        }
        waiters
            .into_iter()
            .map(|w| w.and_then(|(tag, rx)| self.wait_for(tag, rx, self.read_timeout)))
            .collect()
    }

    /// `SCORE h r t` → the served (bit-exact) score of one triple.
    pub fn score(&self, head: u32, relation: u32, tail: u32) -> Result<f32, ClientError> {
        let payload = self.request(&score_line(&[(head, relation, tail)]))?;
        Ok(parse_scores(&payload, 1)?[0])
    }

    /// `SCORE h r t [h r t ...]` → one score per triple, as a single wire
    /// request (server-side batch).
    pub fn score_batch(&self, triples: &[(u32, u32, u32)]) -> Result<Vec<f32>, ClientError> {
        let payload = self.request(&score_line(triples))?;
        parse_scores(&payload, triples.len())
    }

    /// One pipelined `SCORE` request **per triple**, all in flight at once;
    /// scores return in `triples` order. Unlike [`Session::score_batch`]
    /// the server is free to coalesce these with other connections'
    /// requests into its micro-batches. Fails on the first per-request
    /// error (the triple-level results are homogeneous in practice: either
    /// the session is healthy or it died for all of them).
    pub fn score_many(&self, triples: &[(u32, u32, u32)]) -> Result<Vec<f32>, ClientError> {
        let lines: Vec<String> =
            triples.iter().map(|&(h, r, t)| score_line(&[(h, r, t)])).collect();
        let line_refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        self.request_many(&line_refs)
            .into_iter()
            .map(|r| r.and_then(|payload| Ok(parse_scores(&payload, 1)?[0])))
            .collect()
    }

    /// `RANK h r k` → up to `k` `(tail, score)` pairs, best first.
    pub fn rank_tails(
        &self,
        head: u32,
        relation: u32,
        k: usize,
    ) -> Result<Vec<(u32, f32)>, ClientError> {
        let payload = self.request(&format!("RANK {head} {relation} {k}"))?;
        parse_ranked(&payload)
    }

    /// `PING` → liveness.
    pub fn ping(&self) -> Result<(), ClientError> {
        self.request("PING").map(|_| ())
    }

    /// `HEALTH` → readiness text.
    pub fn health(&self) -> Result<String, ClientError> {
        self.request("HEALTH")
    }

    /// Claim a tag and register its waiter, unless the session is dead.
    fn register(&self) -> Result<(u64, Waiter), ClientError> {
        if self.core.is_dead() {
            return Err(self.core.closed_error());
        }
        let tag = self.next_tag.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::sync_channel(1);
        self.core.inflight.lock().expect("session inflight lock").insert(tag, tx);
        Ok((tag, rx))
    }

    fn submit(&self, line: &str) -> Result<(u64, Waiter), ClientError> {
        let (tag, rx) = self.register()?;
        // the reader may have died between the liveness check and the
        // insert; its drain has already run, so clean up our own slot
        if self.core.is_dead() {
            if self.core.inflight.lock().expect("session inflight lock").remove(&tag).is_some() {
                return Err(self.core.closed_error());
            }
            // removed by the drain: the error is already in the channel
            return Ok((tag, rx));
        }
        {
            let mut w = self.writer.lock().expect("session writer lock");
            if let Err(e) = w.write_all(format!("ID {tag} {line}\n").as_bytes()) {
                self.core.inflight.lock().expect("session inflight lock").remove(&tag);
                self.core.die(&format!("write failed: {e}"));
                return Err(ClientError::Io(e));
            }
        }
        Ok((tag, rx))
    }

    fn wait_for(&self, tag: u64, rx: Waiter, timeout: Duration) -> Result<String, ClientError> {
        match rx.recv_timeout(timeout) {
            Ok(result) => result,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                // deregister so a late reply to this tag is dropped by the
                // reader instead of lingering (and so the channel cannot be
                // written after we return)
                self.core.inflight.lock().expect("session inflight lock").remove(&tag);
                // the reader may have resolved the tag between the timeout
                // and the removal — prefer that definitive answer
                if let Ok(result) = rx.try_recv() {
                    return result;
                }
                Err(ClientError::Io(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("no response to tag {tag} within {timeout:?}"),
                )))
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(self.core.closed_error()),
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.core.die("session dropped");
        // unblock the reader's read_line immediately, then join it
        if let Ok(w) = self.writer.get_mut() {
            let _ = w.shutdown(Shutdown::Both);
        }
        if let Some(handle) = self.reader.take() {
            let _ = handle.join();
        }
    }
}

/// Read one complete `\n`-terminated frame. A line without its newline is
/// damage ([`ClientError::TruncatedResponse`]).
fn read_frame(reader: &mut BufReader<TcpStream>) -> Result<String, ClientError> {
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => Err(ClientError::TruncatedResponse),
        Ok(_) => {
            if line.ends_with('\n') {
                Ok(line.trim_end().to_owned())
            } else {
                Err(ClientError::TruncatedResponse)
            }
        }
        Err(e) => Err(ClientError::Io(e)),
    }
}

/// Split a response line `ID <tag> <frame...>` into tag and frame. Returns
/// `None` for untagged lines (which are session-fatal — the server only
/// answers untagged when it cannot attribute).
fn parse_tagged_response(line: &str) -> Option<(u64, &str)> {
    let rest = line.strip_prefix("ID")?;
    if !rest.starts_with(|c: char| c.is_ascii_whitespace()) {
        return None;
    }
    let rest = rest.trim_start();
    let (tag_str, frame) = rest.split_once(|c: char| c.is_ascii_whitespace())?;
    let tag: u64 = tag_str.parse().ok()?;
    Some((tag, frame.trim_start()))
}

/// The demultiplexer: one thread per session, routing tagged response
/// lines into their waiters' channels, and converting every transport
/// failure into one `die()` that resolves all in-flight requests.
fn reader_loop(mut reader: BufReader<TcpStream>, core: Arc<Core>) {
    let mut buf = String::new();
    loop {
        match reader.read_line(&mut buf) {
            Ok(0) => {
                core.die(if buf.is_empty() {
                    "connection closed by server"
                } else {
                    // a partial line before EOF: a response was cut
                    "response truncated before its newline"
                });
                return;
            }
            Ok(_) => {
                if !buf.ends_with('\n') {
                    core.die("response truncated before its newline");
                    return;
                }
                let line = buf.trim_end();
                match parse_tagged_response(line) {
                    Some((tag, frame)) => {
                        let waiter =
                            core.inflight.lock().expect("session inflight lock").remove(&tag);
                        if let Some(tx) = waiter {
                            let _ = tx.send(classify_response(frame));
                        }
                        // no waiter: the reply outlived its request's
                        // timeout — dropped, never delivered elsewhere
                    }
                    None => {
                        // untagged frame on a v2 stream: nothing in flight
                        // can claim it, and the stream may be desynchronised
                        core.die(&format!("untagged server frame: {line:?}"));
                        return;
                    }
                }
                buf.clear();
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                // idle socket (or a stalled partial line): any bytes read so
                // far are still in `buf`, so just keep reading — waiters
                // time out on their own clocks
                if core.is_dead() {
                    return;
                }
            }
            Err(e) => {
                core.die(&format!("read failed: {e}"));
                return;
            }
        }
    }
}

/// A small pool of [`Session`]s to one endpoint: checkout returns an idle
/// live session or opens a fresh one; check-in (on drop) returns live
/// sessions and discards dead ones.
///
/// For most callers one shared `Session` is enough (it pipelines); the pool
/// is for callers that want bounded head-of-line sharing.
#[derive(Debug)]
pub struct ClientPool {
    addr: SocketAddr,
    cfg: ClientConfig,
    max_idle: usize,
    idle: Mutex<Vec<Session>>,
}

impl ClientPool {
    /// A pool for `addr` keeping at most 8 idle sessions.
    pub fn new(addr: SocketAddr, cfg: ClientConfig) -> ClientPool {
        ClientPool { addr, cfg, max_idle: 8, idle: Mutex::new(Vec::new()) }
    }

    /// Cap the number of idle sessions kept for reuse.
    pub fn with_max_idle(mut self, max_idle: usize) -> ClientPool {
        self.max_idle = max_idle;
        self
    }

    /// The endpoint this pool connects to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of idle sessions currently pooled.
    pub fn idle_count(&self) -> usize {
        self.idle.lock().expect("pool lock").len()
    }

    /// Check out a session: reuse an idle live one, or connect. Dead idle
    /// sessions found on the way are discarded.
    pub fn get(&self) -> Result<PooledSession<'_>, ClientError> {
        loop {
            let candidate = self.idle.lock().expect("pool lock").pop();
            match candidate {
                Some(session) if session.is_alive() => {
                    return Ok(PooledSession { pool: self, session: Some(session) });
                }
                Some(_dead) => continue,
                None => break,
            }
        }
        let session = Session::connect(self.addr, &self.cfg)?;
        Ok(PooledSession { pool: self, session: Some(session) })
    }

    fn check_in(&self, session: Session) {
        if !session.is_alive() {
            return;
        }
        let mut idle = self.idle.lock().expect("pool lock");
        if idle.len() < self.max_idle {
            idle.push(session);
        }
    }
}

/// A checked-out session; returns to its pool on drop (if still alive).
#[derive(Debug)]
pub struct PooledSession<'a> {
    pool: &'a ClientPool,
    session: Option<Session>,
}

impl PooledSession<'_> {
    /// Take the session out of the pool's management for good.
    pub fn detach(mut self) -> Session {
        self.session.take().expect("session present until drop")
    }
}

impl std::ops::Deref for PooledSession<'_> {
    type Target = Session;

    fn deref(&self) -> &Session {
        self.session.as_ref().expect("session present until drop")
    }
}

impl Drop for PooledSession<'_> {
    fn drop(&mut self) {
        if let Some(session) = self.session.take() {
            self.pool.check_in(session);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;
    use std::net::TcpListener;
    use std::sync::atomic::AtomicUsize;

    fn cfg() -> ClientConfig {
        ClientConfig { read_timeout: Duration::from_millis(500), ..ClientConfig::default() }
    }

    /// A scripted v2 server for fault tests: negotiates v2, then follows
    /// `script(line_index, tag, inner) -> Action` per tagged request.
    enum Action {
        /// Answer `ID <tag> OK <payload>`.
        Answer(String),
        /// Write these lines verbatim (for out-of-order / stale replies).
        Raw(String),
        /// Answer nothing and keep reading.
        Swallow,
        /// Close the connection immediately.
        Hangup,
    }

    fn scripted_v2_server(
        script: impl Fn(usize, u64, &str) -> Action + Send + 'static,
    ) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (conn, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(conn.try_clone().unwrap());
            let mut conn = conn;
            let mut line = String::new();
            // handshake
            reader.read_line(&mut line).unwrap();
            assert_eq!(line.trim_end(), "PROTO 2");
            writeln!(conn, "OK proto=2").unwrap();
            let mut index = 0usize;
            loop {
                line.clear();
                match reader.read_line(&mut line) {
                    Ok(0) | Err(_) => return,
                    Ok(_) => {}
                }
                let trimmed = line.trim_end();
                let (tag, inner) = parse_tagged_response(trimmed)
                    .expect("test client always sends tagged requests");
                match script(index, tag, inner) {
                    Action::Answer(payload) => {
                        writeln!(conn, "ID {tag} OK {payload}").unwrap();
                    }
                    Action::Raw(lines) => {
                        writeln!(conn, "{lines}").unwrap();
                    }
                    Action::Swallow => {}
                    Action::Hangup => {
                        let _ = conn.shutdown(Shutdown::Both);
                        return;
                    }
                }
                index += 1;
            }
        });
        (addr, handle)
    }

    #[test]
    fn tagged_response_parsing() {
        assert_eq!(parse_tagged_response("ID 7 OK pong"), Some((7, "OK pong")));
        assert_eq!(parse_tagged_response("ID 7 ERR nope"), Some((7, "ERR nope")));
        assert_eq!(parse_tagged_response("OK pong"), None);
        assert_eq!(parse_tagged_response("ID x OK"), None);
        assert_eq!(parse_tagged_response("ID7 OK pong"), None);
    }

    #[test]
    fn v2_session_demuxes_out_of_order_replies_to_the_right_waiters() {
        // hand-driven server: read two tagged requests, answer them in
        // reverse order — guaranteed out-of-order delivery
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (conn, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(conn.try_clone().unwrap());
            let mut conn = conn;
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert_eq!(line.trim_end(), "PROTO 2");
            writeln!(conn, "OK proto=2").unwrap();
            let mut tags = Vec::new();
            for _ in 0..2 {
                line.clear();
                reader.read_line(&mut line).unwrap();
                let (tag, inner) = parse_tagged_response(line.trim_end()).unwrap();
                tags.push((tag, inner.to_owned()));
            }
            // reverse order: the second request answers first
            for (tag, inner) in tags.into_iter().rev() {
                writeln!(conn, "ID {tag} OK reply-to:{inner}").unwrap();
            }
            // keep the connection open until the client is done
            line.clear();
            let _ = reader.read_line(&mut line);
        });

        let session = Arc::new(Session::connect(addr, &cfg()).unwrap());
        let results = session.request_many(&["PING", "HEALTH"]);
        assert_eq!(results[0].as_deref().unwrap(), "reply-to:PING");
        assert_eq!(results[1].as_deref().unwrap(), "reply-to:HEALTH");
        drop(session);
        server.join().unwrap();
    }

    /// A server that answers the `PROTO 2` probe with `hello` and hangs up.
    fn hello_server(hello: &'static str) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (conn, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(conn.try_clone().unwrap());
            let mut conn = conn;
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert_eq!(line.trim_end(), "PROTO 2");
            writeln!(conn, "{hello}").unwrap();
        });
        (addr, handle)
    }

    #[test]
    fn a_handshake_answer_other_than_the_hello_fails_connect_with_its_classification() {
        // what a server at its connection cap writes at accept time: typed
        // and retryable, not a session whose first request dies
        let (addr, server) = hello_server("ERR too many connections");
        let err = Session::connect(addr, &cfg()).unwrap_err();
        assert!(
            matches!(&err, ClientError::Server { message, transient: true }
                if message == "too many connections"),
            "{err}"
        );
        assert!(err.is_retryable());
        server.join().unwrap();
        // a definitive rejection stays fatal, and a stray `OK` is not a hello
        let (addr, server) = hello_server("ERR bad request: unknown command \"PROTO\"");
        let err = Session::connect(addr, &cfg()).unwrap_err();
        assert!(matches!(err, ClientError::Server { transient: false, .. }), "{err}");
        server.join().unwrap();
        let (addr, server) = hello_server("OK pong");
        let err = Session::connect(addr, &cfg()).unwrap_err();
        assert!(matches!(err, ClientError::Protocol(_)), "{err}");
        server.join().unwrap();
    }

    #[test]
    fn connect_refused_is_a_retryable_connect_error() {
        // bind then drop: the port is (momentarily) nobody's → refused
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let err = Session::connect(addr, &ClientConfig::default()).unwrap_err();
        assert!(matches!(err, ClientError::Connect(_)), "{err}");
        assert!(err.is_retryable());
    }

    #[test]
    fn mid_pipeline_hangup_yields_exactly_one_typed_error_per_inflight_request() {
        // answer the first request, swallow the second, hang up on the third:
        // request 1 succeeds, requests 2 and 3 each get exactly one
        // SessionClosed — nothing hangs and nothing is mis-attributed
        let (addr, server) = scripted_v2_server(|i, _tag, _inner| match i {
            0 => Action::Answer("first".into()),
            1 => Action::Swallow,
            _ => Action::Hangup,
        });
        let session = Session::connect(addr, &cfg()).unwrap();
        let results = session.request_many(&["PING", "PING", "PING"]);
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].as_deref().unwrap(), "first");
        for r in &results[1..] {
            let err = r.as_ref().unwrap_err();
            assert!(matches!(err, ClientError::SessionClosed(_)), "{err}");
            assert!(err.is_retryable());
        }
        assert!(!session.is_alive());
        // a dead session fails fast with the same typed error
        let err = session.request("PING").unwrap_err();
        assert!(matches!(err, ClientError::SessionClosed(_)), "{err}");
        drop(session);
        server.join().unwrap();
    }

    #[test]
    fn late_replies_after_a_timeout_are_dropped_not_misattributed() {
        // swallow the first request; when the second arrives, answer the
        // *first* tag (now expired) and then the second — the stale reply
        // must be dropped, and the second request must get its own answer
        let first_tag = Arc::new(Mutex::new(None::<u64>));
        let server_first = Arc::clone(&first_tag);
        let (addr, server) = scripted_v2_server(move |i, tag, _inner| {
            if i == 0 {
                *server_first.lock().unwrap() = Some(tag);
                Action::Swallow
            } else {
                let stale = server_first.lock().unwrap().take().unwrap();
                Action::Raw(format!("ID {stale} OK stale\nID {tag} OK fresh"))
            }
        });
        let fast = ClientConfig { read_timeout: Duration::from_millis(150), ..cfg() };
        let session = Session::connect(addr, &fast).unwrap();
        let err = session.request("PING").unwrap_err();
        assert!(matches!(&err, ClientError::Io(e) if e.kind() == io::ErrorKind::TimedOut), "{err}");
        assert!(session.is_alive(), "a timeout does not kill the session");
        let payload = session.request("HEALTH").unwrap();
        assert_eq!(payload, "fresh", "second request got its own answer, not the stale reply");
        drop(session);
        server.join().unwrap();
    }

    #[test]
    fn per_request_timeout_overrides_the_session_clock_without_killing_it() {
        // swallow the first request: with a 50 ms per-request timeout the
        // caller must give up long before the 500 ms session clock — and
        // the session must stay alive for the next request
        let (addr, server) = scripted_v2_server(|i, _tag, _inner| match i {
            0 => Action::Swallow,
            _ => Action::Answer("served".into()),
        });
        let session = Session::connect(addr, &cfg()).unwrap();
        let t0 = std::time::Instant::now();
        let err = session.request_timeout("PING", Duration::from_millis(50)).unwrap_err();
        assert!(
            t0.elapsed() < Duration::from_millis(400),
            "per-request timeout, not the session-wide clock"
        );
        assert!(matches!(&err, ClientError::Io(e) if e.kind() == io::ErrorKind::TimedOut), "{err}");
        assert!(session.is_alive(), "a per-request timeout does not kill the session");
        assert_eq!(session.request("HEALTH").unwrap(), "served");
        drop(session);
        server.join().unwrap();
    }

    #[test]
    fn untagged_frame_on_a_v2_stream_kills_the_session() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (conn, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(conn.try_clone().unwrap());
            let mut conn = conn;
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            writeln!(conn, "OK proto=2").unwrap();
            line.clear();
            reader.read_line(&mut line).unwrap();
            writeln!(conn, "ERR bad request: untagged").unwrap();
            line.clear();
            let _ = reader.read_line(&mut line);
        });
        let session = Session::connect(addr, &cfg()).unwrap();
        let err = session.request("PING").unwrap_err();
        assert!(
            matches!(&err, ClientError::SessionClosed(reason) if reason.contains("untagged")),
            "{err}"
        );
        assert!(!session.is_alive());
        drop(session);
        server.join().unwrap();
    }

    #[test]
    fn pool_reuses_live_sessions_and_discards_dead_ones() {
        let opened = Arc::new(AtomicUsize::new(0));
        let server_opened = Arc::clone(&opened);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            for conn in listener.incoming().take(2) {
                server_opened.fetch_add(1, Ordering::SeqCst);
                let conn = conn.unwrap();
                std::thread::spawn(move || {
                    let mut reader = BufReader::new(conn.try_clone().unwrap());
                    let mut conn = conn;
                    let mut line = String::new();
                    while reader.read_line(&mut line).map(|n| n > 0).unwrap_or(false) {
                        let trimmed = line.trim_end();
                        let reply = match parse_tagged_response(trimmed) {
                            Some((tag, _)) => format!("ID {tag} OK pong"),
                            None => "OK proto=2".to_owned(),
                        };
                        if writeln!(conn, "{reply}").is_err() {
                            return;
                        }
                        line.clear();
                    }
                });
            }
        });

        let pool = ClientPool::new(addr, cfg()).with_max_idle(2);
        {
            let s = pool.get().unwrap();
            s.ping().unwrap();
        } // checked back in
        assert_eq!(pool.idle_count(), 1);
        {
            let s = pool.get().unwrap();
            s.ping().unwrap();
        }
        assert_eq!(opened.load(Ordering::SeqCst), 1, "second checkout reused the session");

        // kill the pooled session behind the pool's back, then check out:
        // the dead one is discarded and a fresh one is opened
        {
            let s = pool.get().unwrap();
            s.core.die("test kill");
        }
        assert_eq!(pool.idle_count(), 0, "dead session not checked back in");
        let s = pool.get().unwrap();
        s.ping().unwrap();
        assert_eq!(opened.load(Ordering::SeqCst), 2);
        drop(s);
        drop(pool);
        server.join().unwrap();
    }
}
