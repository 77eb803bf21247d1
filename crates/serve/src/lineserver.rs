//! The one connection loop: a std-only TCP line server parameterised by a
//! [`Handler`]. `rmpi-serve` instantiates it with the engine handler
//! ([`crate::serve`]) and `rmpi-router` with its scatter-gather
//! handler, so both front ends share every line of connection handling —
//! socket options, limits, framing, fault isolation and shutdown are set in
//! exactly one place.
//!
//! # Architecture
//!
//! One acceptor thread owns the listener. Accepted connections become jobs in
//! a bounded `Mutex<VecDeque>` + `Condvar` queue; a fixed set of connection
//! workers pops jobs and speaks the protocol (see [`crate::protocol`]) until
//! the client disconnects. A worker only frames: it strips the `ID` tag and
//! the `DEADLINE` hint, parses the request and hands it to the handler,
//! which either answers now or keeps the [`Reply`] handle and answers later
//! from another thread.
//!
//! # Framing
//!
//! A connection starts in v1: untagged lines, and the worker waits for each
//! reply before it reads the next line, so responses are strictly in order.
//! `PROTO 2` (answered `OK proto=2`) switches the connection to v2: requests
//! carry client-chosen `ID <n>` tags, responses echo them and may return out
//! of order — the worker keeps reading while deferred answers are in flight,
//! and a dedicated per-connection writer thread serialises response writes.
//! Both framings run the same code; v1 only adds the wait.
//!
//! # Backpressure and deadlines
//!
//! When the queue is full the acceptor does not block or buffer: it answers
//! the new connection with `ERR server overloaded` and closes it, so load
//! shedding is explicit and immediate. Every queued job carries its enqueue
//! time; if it waits longer than the configured request timeout before a
//! worker picks it up, the worker answers `ERR deadline expired` and closes
//! the connection without serving it.
//!
//! # Connection hardening
//!
//! A misbehaving or hostile peer cannot pin resources:
//!
//! - request lines are read through `crate::lineio::read_line_bounded`, so
//!   a line over `max_line_len` is answered `ERR request too long` and the
//!   connection closed (`<prefix>.rejected_overlong.count`) instead of
//!   buffering without bound;
//! - every accepted socket gets `TCP_NODELAY` and read **and write**
//!   timeouts; if a timeout cannot be set the connection is shed
//!   (`<prefix>.sock_config_failures.count`) rather than served unbounded;
//! - a connection that sends nothing for `idle_timeout` is closed
//!   (`<prefix>.idle_closed.count`), releasing its worker;
//! - at most `max_connections` connections are admitted at once; the rest
//!   are answered `ERR too many connections`
//!   (`<prefix>.rejected_conn_limit.count`).
//!
//! # Fault isolation
//!
//! Every request line is parsed and handled under `catch_unwind`: a panic
//! becomes a single `ERR internal: ...` line and the connection (and worker)
//! keep serving.
//!
//! # Shutdown
//!
//! [`ServerHandle::shutdown`] flips a stop flag, wakes and joins the
//! acceptor, closes every admitted socket — a worker parked in a read sees
//! end-of-stream at once instead of at the idle timeout, so shutdown is
//! prompt even while clients hold connections open — and joins the workers.
//! The last worker to exit drops the handler. Dropping the handle shuts down
//! implicitly.

use crate::error::ServeError;
use crate::lineio::{read_line_bounded, LineRead};
use crate::protocol::{
    format_error, format_tagged, parse_request, parse_tagged, split_deadline, wire_verb_index,
    Request, WIRE_VERBS,
};
use rmpi_obs::{Counter, Gauge, Histogram, MetricsRegistry};
use std::collections::{HashMap, VecDeque};
use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Socket write timeout: a peer that stops draining responses for this long
/// has its connection closed.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// TCP front-end knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port (tests, benches).
    pub addr: String,
    /// Connection worker threads (protocol handling, not scoring).
    pub workers: usize,
    /// Bounded queue capacity; connections beyond it are rejected with
    /// `ERR server overloaded`.
    pub queue_capacity: usize,
    /// Queue-wait deadline per connection.
    pub request_timeout: Duration,
    /// Maximum request-line length in bytes; longer lines are answered
    /// `ERR request too long` and the connection is closed.
    pub max_line_len: usize,
    /// Socket read timeout: a connection that sends nothing for this long is
    /// closed and counted in `idle_closed`.
    pub idle_timeout: Duration,
    /// Concurrent-connection cap (queued + being served). Connections beyond
    /// it are answered `ERR too many connections`.
    pub max_connections: usize,
    /// Micro-batcher window: how long the first queued request may wait for
    /// company before its batch flushes (the latency floor under light load).
    pub batch_window: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_capacity: 64,
            request_timeout: Duration::from_secs(5),
            max_line_len: 64 * 1024,
            idle_timeout: Duration::from_secs(5),
            max_connections: 256,
            batch_window: Duration::from_millis(1),
        }
    }
}

/// What a front end does with one parsed request. The loop owns everything
/// up to the parse and everything after the response text.
pub trait Handler: Send + Sync + 'static {
    /// Per-connection state, created when a worker starts serving a
    /// connection and dropped when it closes.
    type Conn;

    /// Fresh state for a newly admitted connection.
    fn open(&self) -> Self::Conn;

    /// Answer `call`: return [`Answer::Now`] with the complete response line
    /// (`OK ...` / `ERR ...`), or clone `reply`, arrange for the clone to be
    /// sent exactly once from wherever the answer becomes ready, and return
    /// [`Answer::Later`]. `PROTO` never reaches a handler. A panic is
    /// answered `ERR internal: ...` by the loop.
    fn handle(&self, conn: &mut Self::Conn, call: Call<'_>, reply: &Reply) -> Answer;
}

/// One parsed request and what its framing said about it.
pub struct Call<'a> {
    /// The parsed request.
    pub request: Request,
    /// The request text as received, `ID` tag and `DEADLINE` hint stripped —
    /// for handlers that forward it upstream verbatim.
    pub line: &'a str,
    /// When the line was read: a `DEADLINE` budget is spent from here.
    pub arrival: Instant,
    /// The caller's remaining end-to-end budget, when the line carried one.
    pub budget: Option<Duration>,
}

/// A handler's verdict on one request.
pub enum Answer {
    /// The complete response line, ready now.
    Now(String),
    /// The handler kept a clone of the [`Reply`] and answers through it.
    Later,
}

/// The way back to one request's connection: frames the response (echoing
/// the request's tag in v2), records the verb's wire latency and queues the
/// line for writing. Sendable from any thread; never blocks on the socket.
#[derive(Clone)]
pub struct Reply {
    sink: mpsc::Sender<String>,
    tag: Option<u64>,
    arrival: Instant,
    latency: Histogram,
}

impl Reply {
    /// Deliver the complete response line (`OK ...` / `ERR ...`). A
    /// connection that has gone away drops it.
    pub(crate) fn send(self, response: String) {
        self.latency.record_duration(self.arrival.elapsed());
        let framed = match self.tag {
            Some(tag) => format_tagged(tag, &response),
            None => response,
        };
        let _ = self.sink.send(framed);
    }
}

/// The loop's own counters, registered as `<prefix>.<name>` so each front
/// end's traffic and shedding show up under its own name in `METRICS`.
pub struct LineStats {
    registry: Arc<MetricsRegistry>,
    prefix: &'static str,
    wire_requests: Counter,
    bad_requests: Counter,
    internal_errors: Counter,
    rejected_overload: Counter,
    rejected_deadline: Counter,
    rejected_overlong: Counter,
    rejected_conn_limit: Counter,
    idle_closed: Counter,
    sock_config_failures: Counter,
    queue_wait: Histogram,
    queue_depth: Gauge,
    /// `<prefix>.wire.<verb>.us` at each [`WIRE_VERBS`] index, registered
    /// when the verb is first seen.
    wire: [OnceLock<Histogram>; WIRE_VERBS.len()],
}

impl LineStats {
    /// Handles into `registry` under `prefix` (`"serve"`, `"router"`).
    pub fn new(registry: &Arc<MetricsRegistry>, prefix: &'static str) -> LineStats {
        let counter = |name: &str| registry.counter(&format!("{prefix}.{name}.count"));
        LineStats {
            wire_requests: counter("wire_requests"),
            bad_requests: counter("bad_requests"),
            internal_errors: counter("internal_errors"),
            rejected_overload: counter("rejected_overload"),
            rejected_deadline: counter("rejected_deadline"),
            rejected_overlong: counter("rejected_overlong"),
            rejected_conn_limit: counter("rejected_conn_limit"),
            idle_closed: counter("idle_closed"),
            sock_config_failures: counter("sock_config_failures"),
            queue_wait: registry.histogram(&format!("{prefix}.queue_wait.us")),
            queue_depth: registry.gauge(&format!("{prefix}.queue_depth.count")),
            registry: Arc::clone(registry),
            prefix,
            wire: Default::default(),
        }
    }

    /// Wire latency histogram of `line`'s verb: `<prefix>.wire.<verb>.us`,
    /// resolved once per verb, not per request.
    fn wire_latency(&self, line: &str) -> Histogram {
        let verb = wire_verb_index(line);
        self.wire[verb]
            .get_or_init(|| {
                self.registry.histogram(&format!("{}.wire.{}.us", self.prefix, WIRE_VERBS[verb]))
            })
            .clone()
    }
}

struct Job {
    stream: TcpStream,
    enqueued: Instant,
    /// Releases the connection's admission slot when the job is done or shed.
    _guard: ConnGuard,
}

/// RAII admission slot: one per admitted connection, released on drop
/// whether the connection was served, shed at the deadline, or its worker
/// bailed out.
struct ConnGuard {
    core: Arc<Core>,
    id: u64,
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        // every update leaves the map valid, so a poisoned lock is still usable
        self.core.admitted.lock().unwrap_or_else(|p| p.into_inner()).remove(&self.id);
    }
}

/// Everything the acceptor, the workers and the handle share; knows nothing
/// about the handler.
struct Core {
    stats: LineStats,
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    stop: AtomicBool,
    /// A handle on every admitted connection's socket (queued + in service):
    /// its size is what `max_connections` caps, and shutdown closes them all.
    admitted: Mutex<HashMap<u64, TcpStream>>,
    /// The configuration, its limits clamped to what the loop can work with.
    cfg: ServerConfig,
}

/// A running server; owns its threads. [`ServerHandle::shutdown`] (or drop)
/// stops it.
pub struct ServerHandle {
    core: Arc<Core>,
    addr: SocketAddr,
    /// The acceptor first, then the connection workers.
    threads: Vec<JoinHandle<()>>,
}

/// Bind `cfg.addr` and spawn the acceptor and `cfg.workers` connection
/// workers answering through `handler`.
pub fn serve_lines<H: Handler>(
    handler: H,
    cfg: &ServerConfig,
    stats: LineStats,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let prefix = stats.prefix;
    let core = Arc::new(Core {
        stats,
        queue: Mutex::new(VecDeque::new()),
        available: Condvar::new(),
        stop: AtomicBool::new(false),
        admitted: Mutex::new(HashMap::new()),
        cfg: ServerConfig {
            queue_capacity: cfg.queue_capacity.max(1),
            max_line_len: cfg.max_line_len.max(16),
            max_connections: cfg.max_connections.max(1),
            ..cfg.clone()
        },
    });
    let handler = Arc::new(handler);

    let mut threads = Vec::with_capacity(cfg.workers + 1);
    {
        let core = Arc::clone(&core);
        threads.push(
            std::thread::Builder::new()
                .name(format!("rmpi-{prefix}-accept"))
                .spawn(move || accept_loop(&core, listener))?,
        );
    }
    for w in 0..cfg.workers.max(1) {
        let core = Arc::clone(&core);
        let handler = Arc::clone(&handler);
        threads.push(
            std::thread::Builder::new()
                .name(format!("rmpi-{prefix}-conn-{w}"))
                .spawn(move || worker_loop(&core, &*handler))?,
        );
    }
    Ok(ServerHandle { core, addr, threads })
}

impl ServerHandle {
    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, close every connection, join all threads. Requests
    /// already handed to the handler are still answered. Idempotent.
    pub fn shutdown(&mut self) {
        if self.core.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // wake the acceptor out of accept() with a throwaway connection
        let _ = TcpStream::connect(self.addr);
        let mut threads = self.threads.drain(..);
        if let Some(acceptor) = threads.next() {
            let _ = acceptor.join();
        }
        // nothing is admitted any more: closing what is makes every worker's
        // pending read return now rather than at the idle timeout
        for stream in self.core.admitted.lock().expect("admitted connections lock").values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        self.core.available.notify_all();
        for worker in threads {
            let _ = worker.join();
        }
        // connections still queued are closed here; they also hold the core
        // alive through their admission slots
        self.core.queue.lock().expect("connection queue lock").clear();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Answer a connection that is not admitted with one `ERR` line; dropping
/// the stream closes it.
fn shed(mut stream: TcpStream, why: &ServeError) {
    let _ = writeln!(stream, "{}", format_error(why));
}

fn accept_loop(core: &Arc<Core>, listener: TcpListener) {
    let stats = &core.stats;
    let mut next_id = 0u64;
    for stream in listener.incoming() {
        if core.stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else { continue };
        // connection cap first: it bounds total sockets held open, which the
        // queue cap alone does not (conns being served are off the queue)
        if core.admitted.lock().expect("admitted connections lock").len()
            >= core.cfg.max_connections
        {
            stats.rejected_conn_limit.inc();
            shed(stream, &ServeError::ConnLimit);
            continue;
        }
        let mut queue = core.queue.lock().expect("connection queue lock");
        if queue.len() >= core.cfg.queue_capacity {
            drop(queue);
            stats.rejected_overload.inc();
            shed(stream, &ServeError::Overloaded);
            continue;
        }
        let Ok(handle) = stream.try_clone() else {
            stats.sock_config_failures.inc();
            continue;
        };
        core.admitted.lock().expect("admitted connections lock").insert(next_id, handle);
        let guard = ConnGuard { core: Arc::clone(core), id: next_id };
        next_id += 1;
        queue.push_back(Job { stream, enqueued: Instant::now(), _guard: guard });
        stats.queue_depth.set(queue.len() as i64);
        drop(queue);
        core.available.notify_one();
    }
}

fn worker_loop<H: Handler>(core: &Core, handler: &H) {
    loop {
        let job = {
            let mut queue = core.queue.lock().expect("connection queue lock");
            loop {
                if core.stop.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(job) = queue.pop_front() {
                    core.stats.queue_depth.set(queue.len() as i64);
                    break job;
                }
                queue = core.available.wait(queue).expect("connection queue lock");
            }
        };
        handle_connection(core, handler, job);
    }
}

fn handle_connection<H: Handler>(core: &Core, handler: &H, job: Job) {
    let stats = &core.stats;
    let mut stream = job.stream;
    let waited = job.enqueued.elapsed();
    stats.queue_wait.record_duration(waited);
    // deadline check at dequeue: a job that sat in the queue past the
    // request timeout is shed, not served late
    if waited > core.cfg.request_timeout {
        stats.rejected_deadline.inc();
        shed(stream, &ServeError::DeadlineExpired);
        return;
    }
    // Surfacing these failures matters: serving a socket whose reads or
    // writes can block forever would pin a worker, so the connection is shed
    // instead (and counted, so the condition is visible in METRICS).
    if stream
        .set_read_timeout(Some(core.cfg.idle_timeout))
        .and_then(|()| stream.set_write_timeout(Some(WRITE_TIMEOUT)))
        .is_err()
    {
        stats.sock_config_failures.inc();
        return;
    }
    // responses are single short lines: without this every exchange stalls
    // on Nagle's algorithm meeting the peer's delayed ACK
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else { return };
    let mut reader = BufReader::new(read_half);
    let mut conn = handler.open();
    let mut line = String::new();
    // v2 state, set on `PROTO 2`: all writes move to a dedicated writer
    // thread fed through a channel, so deferred answers delivered from other
    // threads and inline answers from this worker serialise without a lock —
    // and a slow client stalls only its own writer
    let mut v2: Option<V2Writer> = None;
    while !core.stop.load(Ordering::SeqCst) {
        match read_line_bounded(&mut reader, &mut line, core.cfg.max_line_len) {
            Ok(LineRead::Line) => {}
            Ok(LineRead::TooLong) => {
                stats.rejected_overlong.inc();
                let framed =
                    format_error(&ServeError::OverlongRequest { limit: core.cfg.max_line_len });
                match &v2 {
                    Some(writer) => {
                        let _ = writer.tx.send(framed);
                    }
                    None => {
                        let _ = writeln!(stream, "{framed}");
                    }
                }
                break; // can't resync mid-line reliably from a hostile peer
            }
            // clean disconnect, or a cut connection mid-line: nothing to answer
            Ok(LineRead::Eof) | Ok(LineRead::Partial) => break,
            Err(e) => {
                if matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
                {
                    stats.idle_closed.inc();
                }
                break;
            }
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match &v2 {
            Some(writer) => {
                answer_line(stats, handler, &mut conn, line, true, &writer.tx);
            }
            None => {
                // v1 framing: the same path into a channel of its own, and
                // the next line is not read until this one is answered
                let (tx, rx) = mpsc::channel();
                let upgrade = answer_line(stats, handler, &mut conn, line, false, &tx);
                drop(tx);
                let response = rx.recv().unwrap_or_else(|_| {
                    format_error(&ServeError::Internal("request dropped unanswered".into()))
                });
                if writeln!(stream, "{response}").is_err() {
                    break;
                }
                if upgrade {
                    // the hello is on the wire (written above, in order);
                    // from here every response goes through the writer thread
                    match V2Writer::spawn(&stream, stats.prefix) {
                        Some(writer) => v2 = Some(writer),
                        None => break,
                    }
                }
            }
        }
    }
    // v2 teardown: deferred replies still hold channel senders, so the
    // writer thread keeps draining until every request this connection
    // submitted has been answered — then the channel closes and the join
    // completes. Nothing in flight is ever silently dropped.
    if let Some(writer) = v2 {
        drop(writer.tx);
        let _ = writer.thread.join();
    }
}

/// The write side of a v2 connection: a channel-fed thread owning a clone of
/// the socket. The channel is the serialisation point — any thread holding a
/// sender may deliver a framed response line.
struct V2Writer {
    tx: mpsc::Sender<String>,
    thread: JoinHandle<()>,
}

impl V2Writer {
    fn spawn(stream: &TcpStream, prefix: &str) -> Option<V2Writer> {
        let mut out = stream.try_clone().ok()?;
        let (tx, rx) = mpsc::channel::<String>();
        let thread = std::thread::Builder::new()
            .name(format!("rmpi-{prefix}-v2-write"))
            .spawn(move || {
                // a failed write (peer gone, write timeout) ends the thread;
                // senders see the closed channel and drop their responses
                for response in rx {
                    if writeln!(out, "{response}").is_err() {
                        break;
                    }
                }
            })
            .ok()?;
        Some(V2Writer { tx, thread })
    }
}

/// Frame, parse and answer one request line into `sink`; `true` when the
/// line was a v1 connection's accepted `PROTO 2`. On a v2 stream (`tagged`)
/// untagged or unparsable frames get one **untagged** `ERR` line — there is
/// no tag to attribute them to, and inventing one could collide with a real
/// in-flight request. Parse and handler run under `catch_unwind`: a
/// panicking request becomes `ERR internal: ...` and the worker keeps
/// serving.
fn answer_line<H: Handler>(
    stats: &LineStats,
    handler: &H,
    conn: &mut H::Conn,
    line: &str,
    tagged: bool,
    sink: &mpsc::Sender<String>,
) -> bool {
    stats.wire_requests.inc();
    let arrival = Instant::now();
    let (tag, inner) = if tagged {
        match parse_tagged(line) {
            Ok((tag, inner)) => (Some(tag), inner),
            Err(err) => {
                stats.bad_requests.inc();
                let _ = sink.send(format_error(&err));
                return false;
            }
        }
    } else {
        (None, line)
    };
    let (budget, inner) = split_deadline(inner);
    let reply = Reply { sink: sink.clone(), tag, arrival, latency: stats.wire_latency(inner) };
    let mut upgrade = false;
    let outcome = catch_unwind(AssertUnwindSafe(|| match parse_request(inner)? {
        // renegotiating inside a v2 stream is harmlessly idempotent
        Request::Proto { version: 2 } => {
            upgrade = !tagged;
            Ok(Answer::Now("OK proto=2".to_owned()))
        }
        Request::Proto { version } => {
            Err(ServeError::BadRequest(format!("unsupported protocol version {version}")))
        }
        request => Ok(handler.handle(conn, Call { request, line: inner, arrival, budget }, &reply)),
    }));
    let response = match outcome {
        Ok(Ok(Answer::Later)) => return false,
        Ok(Ok(Answer::Now(response))) => response,
        Ok(Err(err)) => {
            stats.bad_requests.inc();
            format_error(&err)
        }
        Err(payload) => {
            stats.internal_errors.inc();
            format_error(&ServeError::Internal(rmpi_runtime::panic_message(payload.as_ref())))
        }
    };
    reply.send(response);
    upgrade
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;

    /// `PING` answers now, `HEALTH` answers later from another thread,
    /// `METRICS` panics.
    struct Toy;

    impl Handler for Toy {
        type Conn = u32;

        fn open(&self) -> u32 {
            0
        }

        fn handle(&self, served: &mut u32, call: Call<'_>, reply: &Reply) -> Answer {
            *served += 1;
            match call.request {
                Request::Ping => Answer::Now(format!("OK pong {served}")),
                Request::Health => {
                    let reply = reply.clone();
                    std::thread::spawn(move || reply.send("OK later".to_owned()));
                    Answer::Later
                }
                Request::Metrics => panic!("toy handler blew up"),
                _ => Answer::Now("ERR not served".to_owned()),
            }
        }
    }

    /// One histogram per verb, registered under its old name the first time
    /// the verb is seen and shared by every later request with that verb.
    #[test]
    fn wire_histograms_register_once_per_verb_on_first_use() {
        let registry = Arc::new(MetricsRegistry::new());
        let stats = LineStats::new(&registry, "toy");
        assert!(WIRE_VERBS.iter().all(|v| !registry.contains(&format!("toy.wire.{v}.us"))));
        stats.wire_latency("SCORE 1 2 3").record(5);
        stats.wire_latency("SCORE 4 5 6").record(7);
        stats.wire_latency("no such verb").record(1);
        stats.wire_latency("").record(1);
        assert_eq!(registry.histogram("toy.wire.score.us").count(), 2);
        assert_eq!(registry.histogram("toy.wire.other.us").count(), 2, "unknown lines share one");
        assert!(!registry.contains("toy.wire.rank.us"), "unseen verbs stay unregistered");
    }

    fn toy_server(cfg: ServerConfig) -> (ServerHandle, Arc<MetricsRegistry>) {
        let registry = Arc::new(MetricsRegistry::new());
        let server = serve_lines(Toy, &cfg, LineStats::new(&registry, "toy")).expect("toy server");
        (server, registry)
    }

    fn connect(server: &ServerHandle) -> (TcpStream, BufReader<TcpStream>) {
        let stream = TcpStream::connect(server.addr()).expect("connect");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        (stream, reader)
    }

    fn query(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
        writeln!(stream, "{line}").expect("send");
        let mut response = String::new();
        reader.read_line(&mut response).expect("recv");
        response.trim_end().to_owned()
    }

    #[test]
    fn v1_and_v2_share_one_path_and_per_connection_state() {
        let (mut server, _) = toy_server(ServerConfig::default());
        let (mut stream, mut reader) = connect(&server);
        assert_eq!(query(&mut stream, &mut reader, "PING"), "OK pong 1");
        // a deferred answer in v1 still arrives before the next line is read
        assert_eq!(query(&mut stream, &mut reader, "HEALTH"), "OK later");
        assert_eq!(query(&mut stream, &mut reader, "DEADLINE 50 PING"), "OK pong 3");
        assert_eq!(query(&mut stream, &mut reader, "PROTO 2"), "OK proto=2");
        assert_eq!(query(&mut stream, &mut reader, "ID 9 PING"), "ID 9 OK pong 4");
        assert_eq!(query(&mut stream, &mut reader, "ID 10 HEALTH"), "ID 10 OK later");
        assert_eq!(query(&mut stream, &mut reader, "ID 11 PROTO 2"), "ID 11 OK proto=2");
        assert!(
            query(&mut stream, &mut reader, "ID 12 PROTO 3").starts_with("ID 12 ERR bad request")
        );
        // a second connection starts from fresh state
        let (mut other, mut other_reader) = connect(&server);
        assert_eq!(query(&mut other, &mut other_reader, "PING"), "OK pong 1");
        server.shutdown();
    }

    #[test]
    fn a_panicking_handler_answers_err_internal_and_the_connection_keeps_serving() {
        let (mut server, registry) = toy_server(ServerConfig::default());
        let (mut stream, mut reader) = connect(&server);
        let reply = query(&mut stream, &mut reader, "METRICS");
        assert_eq!(reply, "ERR internal: toy handler blew up");
        assert_eq!(query(&mut stream, &mut reader, "PING"), "OK pong 2");
        assert_eq!(query(&mut stream, &mut reader, "PROTO 2"), "OK proto=2");
        assert_eq!(
            query(&mut stream, &mut reader, "ID 4 METRICS"),
            "ID 4 ERR internal: toy handler blew up"
        );
        assert_eq!(query(&mut stream, &mut reader, "ID 5 PING"), "ID 5 OK pong 4");
        assert_eq!(registry.counter("toy.internal_errors.count").get(), 2);
        server.shutdown();
    }

    #[test]
    fn a_silent_connection_is_reaped_at_the_idle_timeout_and_counted() {
        let (mut server, registry) = toy_server(ServerConfig {
            idle_timeout: Duration::from_millis(100),
            ..ServerConfig::default()
        });
        let (_stream, mut reader) = connect(&server);
        // send nothing: the server must hang up after idle_timeout
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("read to eof");
        assert_eq!(n, 0, "server should close the idle connection, got {line:?}");
        assert_eq!(registry.counter("toy.idle_closed.count").get(), 1);
        server.shutdown();
    }

    #[test]
    fn an_accepted_socket_has_nodelay_set() {
        let (mut server, _) = toy_server(ServerConfig::default());
        let (mut stream, mut reader) = connect(&server);
        // one round trip: a worker has configured the socket by now
        assert_eq!(query(&mut stream, &mut reader, "PING"), "OK pong 1");
        let admitted = server.core.admitted.lock().unwrap();
        assert_eq!(admitted.len(), 1);
        for socket in admitted.values() {
            assert!(socket.nodelay().expect("read TCP_NODELAY back"), "TCP_NODELAY is off");
        }
        drop(admitted);
        server.shutdown();
    }

    #[test]
    fn shutdown_is_prompt_while_a_client_holds_its_connection_and_is_idempotent() {
        let (mut server, _) = toy_server(ServerConfig::default());
        let (mut stream, mut reader) = connect(&server);
        assert_eq!(query(&mut stream, &mut reader, "PING"), "OK pong 1");
        let t0 = Instant::now();
        server.shutdown();
        assert!(t0.elapsed() < Duration::from_secs(1), "shutdown took {:?}", t0.elapsed());
        server.shutdown();
        assert!(server.threads.is_empty());
        // the held connection was closed under the client
        let mut line = String::new();
        assert_eq!(reader.read_line(&mut line).unwrap_or(0), 0, "{line:?}");
    }
}
