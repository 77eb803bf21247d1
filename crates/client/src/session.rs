//! Pipelined sessions over protocol v2.
//!
//! A [`Session`] is one persistent TCP connection that keeps **many requests
//! in flight at once**: each request is framed `ID <tag> <verb...>` and the
//! server echoes the tag on the (possibly out-of-order) response line. A
//! background reader thread demultiplexes response lines to per-request
//! responders keyed by tag, so any number of threads can share one
//! `&Session` — the write side is serialized by a mutex, the read side by
//! the reader thread, and nothing else blocks anyone.
//!
//! # Submissions
//!
//! The primitive is `Session::submit`, the client twin of the serving
//! batcher's `submit`: it writes one request and returns at once with a
//! [`Submission`] handle; the reader thread later calls the responder
//! exactly once, with the reply or with `SessionClosed` when the session
//! dies. Dropping (or `Submission::cancel`ling) the handle deregisters the
//! tag, so an abandoned request's late reply is dropped and a wedged peer
//! cannot grow the in-flight table. The blocking verbs (`request`,
//! `request_timeout`, `request_many`, `score_batch_deadline`, ...) are that
//! primitive plus a wait on a channel; a caller juggling many requests (the
//! router's scatter-gather) submits them all and waits on one channel of
//! its own.
//!
//! # Failure semantics (the whole point)
//!
//! The tag framing is what makes pipelining safe under chaos:
//!
//! - A response is only ever delivered to the responder registered under
//!   its tag. A reply whose submission was dropped finds no registration
//!   and is **dropped** — late data is never mis-attributed to a newer
//!   request.
//! - When the transport dies mid-pipeline (peer close, truncated line,
//!   read/write error, or an untagged frame on a v2 stream), the session is
//!   marked dead and every in-flight request receives **exactly one** typed
//!   [`ClientError::SessionClosed`]. No waiter is left hanging, and no
//!   waiter receives another request's bytes.
//! - A dead session stays dead; callers open a fresh one. The retry layer
//!   ([`crate::FailoverClient`]) does this automatically because
//!   `SessionClosed` is retryable.
//!
//! # Handshake
//!
//! [`Session::connect`] sends `PROTO 2` and requires `OK proto=2` back. Any
//! other complete frame is classified like any response: the `ERR server
//! overloaded` / `ERR too many connections` line a shedding server writes at
//! accept time becomes that typed, retryable server error, and anything else
//! is a protocol error. There is no second transport to fall back to.
//! [`Session::connect_within`] bounds connect plus handshake by a caller's
//! remaining budget.

use crate::client::{classify_response, parse_ranked, parse_scores, score_line, ClientConfig};
use crate::error::ClientError;
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// TCP connect timeout (a caller's budget can shorten it).
const CONNECT_TIMEOUT: Duration = Duration::from_millis(500);
/// Socket write timeout.
const WRITE_TIMEOUT: Duration = Duration::from_secs(1);

/// How one request's outcome leaves the session. Runs on the reader thread
/// (or on the submitting thread when the session is already dead), so it
/// must not block: send on a channel, don't wait on one.
type Responder = Box<dyn FnOnce(Result<String, ClientError>) + Send + 'static>;

/// State shared between a session's callers and its reader thread.
#[derive(Default)]
struct Core {
    /// Responders for in-flight requests, keyed by tag. A responder is
    /// removed by whichever side resolves it first: the reader (response or
    /// death) or the caller (dropping its [`Submission`]).
    inflight: Mutex<HashMap<u64, Responder>>,
    /// Once true the session never serves again.
    dead: AtomicBool,
    /// Why it died (read after `dead` is observed true).
    reason: Mutex<String>,
}

impl Core {
    fn is_dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }

    /// Kill the session: first death wins, and every in-flight responder
    /// runs exactly once with a fresh `SessionClosed` carrying the reason.
    fn die(&self, reason: &str) {
        {
            let mut r = self.reason.lock().expect("session reason lock");
            if self.dead.swap(true, Ordering::SeqCst) {
                return;
            }
            *r = reason.to_owned();
        }
        let drained: Vec<_> = self.inflight().drain().collect();
        for (_tag, respond) in drained {
            respond(Err(ClientError::SessionClosed(reason.to_owned())));
        }
    }

    fn closed_error(&self) -> ClientError {
        ClientError::SessionClosed(self.reason.lock().expect("session reason lock").clone())
    }

    fn inflight(&self) -> std::sync::MutexGuard<'_, HashMap<u64, Responder>> {
        self.inflight.lock().expect("session inflight lock")
    }
}

impl std::fmt::Debug for Core {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Core {{ inflight: {}, dead: {} }}", self.inflight().len(), self.is_dead())
    }
}

/// One submitted request's claim on its tag (see `Session::submit`).
/// Dropping it — or calling `Submission::cancel` — deregisters the tag:
/// a reply that arrives afterwards is dropped and the responder, if it has
/// not run yet, never runs.
#[derive(Debug)]
#[must_use = "dropping a Submission cancels its request"]
pub struct Submission {
    tag: u64,
    core: Arc<Core>,
}

impl Submission {
    /// Stop waiting for this request (the same as dropping the handle).
    fn cancel(self) {}
}

impl Drop for Submission {
    fn drop(&mut self) {
        self.core.inflight().remove(&self.tag);
    }
}

/// A responder forwarding into a one-slot channel (whose waiter may have
/// timed out and gone), and the channel's receiving end.
fn reply_channel<T: Send + 'static>() -> (impl FnOnce(Result<T, ClientError>) + Send, Waiter<T>) {
    let (tx, rx) = mpsc::sync_channel(1);
    (move |result| drop(tx.send(result)), rx)
}

/// Where a blocking verb waits for its submission's outcome.
type Waiter<T> = mpsc::Receiver<Result<T, ClientError>>;

/// One persistent, pipelining connection to a server (see module docs).
/// All request methods take `&self`: a `Session` is safe to share across
/// threads, and sharing is how concurrent requests coalesce into the
/// server's micro-batches.
#[derive(Debug)]
pub struct Session {
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
        Session::connect_within(addr, cfg, Duration::MAX)
    }

    /// [`Session::connect`] bounded by `budget`: the TCP connect waits at
    /// most `min(500 ms, budget)` and the `PROTO 2` answer at most
    /// what is left of `budget` (never more than `read_timeout`), so a peer
    /// that accepts but never negotiates costs a caller its remaining
    /// budget, not a socket timeout. The open session keeps `cfg`'s read
    /// timeout.
    pub fn connect_within(
        addr: SocketAddr,
        cfg: &ClientConfig,
        budget: Duration,
    ) -> Result<Session, ClientError> {
        // a zero timeout is an error to the socket API
        let floor = Duration::from_millis(1);
        let start = Instant::now();
        let stream = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT.min(budget).max(floor))
            .map_err(ClientError::Connect)?;
        let hello_wait = cfg.read_timeout.min(budget.saturating_sub(start.elapsed())).max(floor);
        stream
            .set_read_timeout(Some(hello_wait))
            .and_then(|()| stream.set_write_timeout(Some(WRITE_TIMEOUT)))
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
        reader.get_ref().set_read_timeout(Some(cfg.read_timeout)).map_err(ClientError::Io)?;
        let core = Arc::new(Core::default());
        let reader_core = Arc::clone(&core);
        let handle = std::thread::Builder::new()
            .name("rmpi-session-reader".into())
            .spawn(move || reader_loop(reader, reader_core))
            .map_err(ClientError::Io)?;
        Ok(Session {
            read_timeout: cfg.read_timeout,
            core,
            writer: Mutex::new(writer),
            next_tag: AtomicU64::new(1),
            reader: Some(handle),
        })
    }

    /// Whether the session can still serve requests. A dead session never
    /// recovers — open a new one.
    pub fn is_alive(&self) -> bool {
        !self.core.is_dead()
    }

    /// Send one request line and wait for its response payload. Safe to
    /// call from many threads at once; the requests share the wire
    /// concurrently.
    fn request(&self, line: &str) -> Result<String, ClientError> {
        self.request_timeout(line, self.read_timeout)
    }

    /// Like [`Session::request`], but waits at most `timeout` for **this**
    /// request's response instead of the session-wide read timeout. A
    /// timeout drops the submission (a late reply is dropped) and does
    /// not kill the session — exactly as with the session-wide clock.
    pub(crate) fn request_timeout(
        &self,
        line: &str,
        timeout: Duration,
    ) -> Result<String, ClientError> {
        let (respond, rx) = reply_channel();
        let submission = self.submit(line, respond);
        wait(&rx, submission, timeout)
    }

    /// Write one request line and return without waiting: `responder` runs
    /// exactly once — on the reader thread with the reply, or with
    /// `SessionClosed` when the session dies (at once, on this thread and
    /// with nothing written, if it is already dead) — unless the returned
    /// [`Submission`] is dropped first, which deregisters the request. The
    /// responder must not block.
    fn submit(
        &self,
        line: &str,
        responder: impl FnOnce(Result<String, ClientError>) + Send + 'static,
    ) -> Submission {
        let (submission, registered) = self.register(Box::new(responder));
        if registered {
            self.write(&format!("ID {} {line}\n", submission.tag));
        }
        submission
    }

    /// `DEADLINE <ms> SCORE h r t [...]` as a `Session::submit`: the
    /// server is told that `budget` remains of the caller's end-to-end
    /// budget — its micro-batcher flushes early rather than hold the
    /// request past the deadline, and an expired item is answered `ERR
    /// deadline expired` (transient, retryable) instead of a stale score.
    /// The responder receives the parsed scores.
    pub fn submit_scores(
        &self,
        triples: &[(u32, u32, u32)],
        budget: Duration,
        responder: impl FnOnce(Result<Vec<f32>, ClientError>) + Send + 'static,
    ) -> Submission {
        let ms = budget.as_millis().max(1);
        let expected = triples.len();
        let line = format!("DEADLINE {ms} {}", score_line(triples));
        self.submit(&line, move |reply| {
            responder(reply.and_then(|payload| parse_scores(&payload, expected)))
        })
    }

    /// [`Session::submit_scores`], waiting at most the same `budget` for
    /// the scores.
    pub fn score_batch_deadline(
        &self,
        triples: &[(u32, u32, u32)],
        budget: Duration,
    ) -> Result<Vec<f32>, ClientError> {
        let (respond, rx) = reply_channel();
        let submission = self.submit_scores(triples, budget, respond);
        wait(&rx, submission, budget)
    }

    /// Send many request lines and collect per-line results in submission
    /// order. All lines are written back-to-back (one buffered write) and
    /// sit in flight together — this is the client edge of the server's
    /// cross-connection micro-batcher.
    pub fn request_many(&self, lines: &[&str]) -> Vec<Result<String, ClientError>> {
        // register every request, then push all frames in one write: the
        // server can start answering out of order while later frames are
        // still in the kernel buffer
        let mut buffer = String::new();
        let waiters: Vec<_> = lines
            .iter()
            .map(|line| {
                let (respond, rx) = reply_channel();
                let (submission, registered) = self.register(Box::new(respond));
                if registered {
                    buffer.push_str(&format!("ID {} {line}\n", submission.tag));
                }
                (submission, rx)
            })
            .collect();
        if !buffer.is_empty() {
            self.write(&buffer);
        }
        waiters
            .into_iter()
            .map(|(submission, rx)| wait(&rx, submission, self.read_timeout))
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

    /// Claim a tag and register its responder, and whether it was
    /// registered. When the session is already dead the responder runs with
    /// the death at once and nothing is registered: the caller must not put
    /// the frame on the wire, where nobody would wait for its reply. The
    /// check is made under the in-flight lock, so a death either sees this
    /// registration in its drain or happened before it.
    fn register(&self, responder: Responder) -> (Submission, bool) {
        let tag = self.next_tag.fetch_add(1, Ordering::Relaxed);
        let submission = Submission { tag, core: Arc::clone(&self.core) };
        let mut inflight = self.core.inflight();
        if self.core.is_dead() {
            drop(inflight);
            responder(Err(self.core.closed_error()));
            return (submission, false);
        }
        inflight.insert(tag, responder);
        (submission, true)
    }

    /// Put already-registered frames on the wire. A failed write kills the
    /// session, which answers every registered responder.
    fn write(&self, frames: &str) {
        let result = self.writer.lock().expect("session writer lock").write_all(frames.as_bytes());
        if let Err(e) = result {
            self.core.die(&format!("write failed: {e}"));
        }
    }
}

/// Wait at most `timeout` for a submission's outcome. A timeout drops the
/// submission, so a late reply is dropped too and does not kill the session.
fn wait<T>(rx: &Waiter<T>, submission: Submission, timeout: Duration) -> Result<T, ClientError> {
    match rx.recv_timeout(timeout) {
        Ok(result) => result,
        Err(mpsc::RecvTimeoutError::Timeout) => {
            let message = format!("no response to tag {} within {timeout:?}", submission.tag);
            submission.cancel();
            // the reader may have resolved the tag between the timeout and
            // the cancel — prefer that definitive answer
            let timed_out = io::Error::new(io::ErrorKind::TimedOut, message);
            rx.try_recv().unwrap_or(Err(ClientError::Io(timed_out)))
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => Err(submission.core.closed_error()),
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
/// lines to their responders, and converting every transport
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
                        let responder = core.inflight().remove(&tag);
                        if let Some(respond) = responder {
                            respond(classify_response(frame));
                        }
                        // no responder: the reply outlived its submission —
                        // dropped, never delivered elsewhere
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
                // far are still in `buf`, so just keep reading — callers
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;
    use std::net::TcpListener;

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
    fn a_responder_runs_exactly_once_on_a_reply_and_exactly_once_on_death() {
        // answer the first request, swallow the second, hang up on the third
        let (addr, server) = scripted_v2_server(|i, _tag, _inner| match i {
            0 => Action::Answer("first".into()),
            1 => Action::Swallow,
            _ => Action::Hangup,
        });
        let session = Session::connect(addr, &cfg()).unwrap();
        let (tx, rx) = mpsc::channel();
        let submit = |name: &'static str| {
            let tx = tx.clone();
            session.submit("PING", move |result| tx.send((name, result)).unwrap())
        };
        let answered = submit("answered");
        let (name, result) = rx.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!((name, result.unwrap().as_str()), ("answered", "first"));
        let swallowed = submit("swallowed");
        let cut = submit("cut");
        let mut died: Vec<_> = (0..2)
            .map(|_| {
                let (name, result) = rx.recv_timeout(Duration::from_secs(2)).unwrap();
                assert!(matches!(result, Err(ClientError::SessionClosed(_))), "{name}");
                name
            })
            .collect();
        died.sort_unstable();
        assert_eq!(died, ["cut", "swallowed"]);
        // a dead session answers a new submission at once, on this thread
        let late = submit("late");
        let (name, result) = rx.try_recv().unwrap();
        assert_eq!(name, "late");
        assert!(matches!(result, Err(ClientError::SessionClosed(_))));
        // nothing runs twice: not on a second death, not on dropping handles
        session.core.die("second death");
        drop((answered, swallowed, cut, late, session));
        drop(tx);
        assert!(matches!(rx.try_recv(), Err(mpsc::TryRecvError::Disconnected)));
        server.join().unwrap();
    }

    #[test]
    fn a_dropped_submission_deregisters_and_its_late_reply_is_dropped() {
        // swallow the first request; when the second arrives, answer the
        // first tag (abandoned by then) and then the second
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
        let session = Session::connect(addr, &cfg()).unwrap();
        let (tx, rx) = mpsc::channel();
        let abandoned = session.submit("PING", move |result| tx.send(result).unwrap());
        // the tag is registered until the handle goes
        while first_tag.lock().unwrap().is_none() {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(session.core.inflight().len(), 1);
        drop(abandoned);
        assert_eq!(session.core.inflight().len(), 0, "the dropped handle deregistered its tag");
        assert_eq!(session.request("HEALTH").unwrap(), "fresh", "the next request's own answer");
        // the stale reply reached no responder: it was dropped uncalled
        assert!(matches!(rx.try_recv(), Err(mpsc::TryRecvError::Disconnected)));
        assert!(session.is_alive());
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
    fn a_request_on_a_dead_session_puts_no_bytes_on_the_wire() {
        // an untagged frame kills the session while the socket stays
        // writable; the server then records everything else it receives
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
            let mut rest = String::new();
            let _ = io::Read::read_to_string(&mut reader, &mut rest);
            rest
        });
        let session = Session::connect(addr, &cfg()).unwrap();
        let err = session.request("PING").unwrap_err();
        assert!(matches!(err, ClientError::SessionClosed(_)), "{err}");
        let (tx, rx) = mpsc::channel();
        let _late = session.submit("PING", move |result| tx.send(result).unwrap());
        assert!(matches!(rx.try_recv(), Ok(Err(ClientError::SessionClosed(_)))));
        for result in session.request_many(&["PING", "HEALTH"]) {
            assert!(matches!(result, Err(ClientError::SessionClosed(_))));
        }
        assert!(session.score_batch_deadline(&[(0, 0, 1)], Duration::from_secs(1)).is_err());
        drop(session); // shuts the socket down: the server reads to its end
        assert_eq!(server.join().unwrap(), "", "frames written after the session died");
    }
}
