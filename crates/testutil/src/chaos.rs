//! A seeded, in-process TCP **chaos proxy** for resilience tests.
//!
//! [`ChaosProxy`] sits between a client and an upstream server, forwarding
//! bytes both ways while injecting network faults drawn from a deterministic
//! RNG stream: for a fixed seed and fault rate the *sequence* of per-connection
//! fault decisions is identical on every run, which is what lets the soak
//! suite assert exact invariants ("zero wrong scores, bounded error rate")
//! instead of flaky probabilities.
//!
//! # Fault matrix
//!
//! | Fault                     | What the client observes                        |
//! |---------------------------|-------------------------------------------------|
//! | `Refuse`                  | connection accepted then closed immediately     |
//! | `Delay`                   | every byte arrives after an injected latency    |
//! | `TruncateResponse`        | response cut after N bytes, then disconnect     |
//! | `MidResponseDisconnect`   | response cut after its first byte               |
//! | `PartialWriteStall`       | a few bytes, a stall, then a disconnect         |
//! | `PipelineCut`             | N complete response lines, then disconnect      |
//!
//! None of the faults ever *corrupts* bytes — they only delay or cut a
//! prefix — so a line-delimited protocol can always detect the damage (a
//! missing trailing newline) and never mistakes a damaged reply for a
//! complete one. `PipelineCut` is the nasty case for *pipelined* (protocol
//! v2) connections: several responses arrive intact, then the connection
//! dies with requests still in flight — a correct client must deliver the
//! intact responses to their owners and fail every remaining in-flight
//! request with exactly one typed error each.
//!
//! ```no_run
//! use rmpi_testutil::chaos::{ChaosConfig, ChaosProxy};
//! let upstream: std::net::SocketAddr = "127.0.0.1:9000".parse().unwrap();
//! let proxy = ChaosProxy::spawn(upstream, ChaosConfig { seed: 7, fault_rate: 0.25, ..Default::default() }).unwrap();
//! // point the client at proxy.addr() instead of the server
//! assert!(proxy.stats().connections() == 0);
//! ```

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// The per-connection fault kinds the proxy can inject.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Accept, then close immediately without contacting the upstream.
    Refuse,
    /// Forward faithfully, but only after an injected latency.
    Delay,
    /// Forward the upstream response up to `truncate_after` bytes, then cut
    /// the connection.
    TruncateResponse,
    /// Cut the connection after the first response byte.
    MidResponseDisconnect,
    /// Forward a short response prefix, stall, then cut the connection.
    PartialWriteStall,
    /// Forward `cut_after_lines` complete response lines, then cut the
    /// connection **at a line boundary** — mid-pipeline death with intact
    /// responses already delivered.
    PipelineCut,
}

/// Chaos-proxy knobs. `fault_rate` is the probability that a *connection* is
/// disturbed; which fault it gets is a second deterministic draw.
#[derive(Clone, Copy, Debug)]
pub struct ChaosConfig {
    /// Seed for the fault-decision RNG stream.
    pub seed: u64,
    /// Probability in `[0, 1]` that an accepted connection is disturbed.
    pub fault_rate: f64,
    /// Injected latency for [`Fault::Delay`] and the stall length for
    /// [`Fault::PartialWriteStall`].
    pub delay: Duration,
    /// Response bytes forwarded before a [`Fault::TruncateResponse`] /
    /// [`Fault::PartialWriteStall`] cut.
    pub truncate_after: usize,
    /// Complete response lines forwarded before a [`Fault::PipelineCut`]
    /// cut.
    pub cut_after_lines: usize,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0,
            fault_rate: 0.0,
            delay: Duration::from_millis(20),
            truncate_after: 3,
            cut_after_lines: 2,
        }
    }
}

/// Relaxed-atomic fault tallies, readable while the proxy runs.
#[derive(Debug, Default)]
pub struct ChaosStats {
    connections: AtomicU64,
    refused: AtomicU64,
    delayed: AtomicU64,
    truncated: AtomicU64,
    disconnected: AtomicU64,
    stalled: AtomicU64,
    pipeline_cut: AtomicU64,
}

impl ChaosStats {
    /// Connections accepted (disturbed or not).
    pub fn connections(&self) -> u64 {
        self.connections.load(Ordering::Relaxed)
    }

    /// Connections disturbed by any fault.
    pub fn faults_injected(&self) -> u64 {
        self.refused.load(Ordering::Relaxed)
            + self.delayed.load(Ordering::Relaxed)
            + self.truncated.load(Ordering::Relaxed)
            + self.disconnected.load(Ordering::Relaxed)
            + self.stalled.load(Ordering::Relaxed)
            + self.pipeline_cut.load(Ordering::Relaxed)
    }

    /// Tally for one fault kind.
    pub fn count(&self, fault: Fault) -> u64 {
        match fault {
            Fault::Refuse => &self.refused,
            Fault::Delay => &self.delayed,
            Fault::TruncateResponse => &self.truncated,
            Fault::MidResponseDisconnect => &self.disconnected,
            Fault::PartialWriteStall => &self.stalled,
            Fault::PipelineCut => &self.pipeline_cut,
        }
        .load(Ordering::Relaxed)
    }

    fn record(&self, fault: Fault) {
        match fault {
            Fault::Refuse => &self.refused,
            Fault::Delay => &self.delayed,
            Fault::TruncateResponse => &self.truncated,
            Fault::MidResponseDisconnect => &self.disconnected,
            Fault::PartialWriteStall => &self.stalled,
            Fault::PipelineCut => &self.pipeline_cut,
        }
        .fetch_add(1, Ordering::Relaxed);
    }
}

/// splitmix64: tiny, deterministic, dependency-free — exactly what a fault
/// stream needs. (The vendored `rand` crate is avoided on purpose so
/// `rmpi-testutil` stays dependency-free.)
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// How often the pump loops wake up to poll the stop flag.
const POLL: Duration = Duration::from_millis(25);

struct ProxyShared {
    stop: AtomicBool,
    /// Shard-kill flag: distinct from `stop` (which tears the proxy down
    /// and joins its threads) — a killed proxy keeps accepting-and-refusing
    /// so callers observe a dead shard, not a vanished listener.
    killed: AtomicBool,
    stats: ChaosStats,
    cfg: ChaosConfig,
    upstream: SocketAddr,
    rng: Mutex<SplitMix64>,
    conn_threads: Mutex<Vec<JoinHandle<()>>>,
    /// Live stream halves (client and upstream sides) registered by
    /// connection handlers so `kill()` can cut them mid-exchange.
    live: Mutex<Vec<TcpStream>>,
}

/// A running chaos proxy; owns its threads. Dropping it (or calling
/// [`ChaosProxy::shutdown`]) stops the proxy and joins everything.
pub struct ChaosProxy {
    shared: Arc<ProxyShared>,
    addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Bind an ephemeral local port and start proxying to `upstream`.
    pub fn spawn(upstream: SocketAddr, cfg: ChaosConfig) -> std::io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(ProxyShared {
            stop: AtomicBool::new(false),
            killed: AtomicBool::new(false),
            stats: ChaosStats::default(),
            cfg,
            upstream,
            rng: Mutex::new(SplitMix64(cfg.seed)),
            conn_threads: Mutex::new(Vec::new()),
            live: Mutex::new(Vec::new()),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("rmpi-chaos-accept".into())
                .spawn(move || accept_loop(&shared, listener))?
        };
        Ok(ChaosProxy { shared, addr, accept_thread: Some(accept) })
    }

    /// The proxy's listen address — point clients here.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live fault tallies.
    pub fn stats(&self) -> &ChaosStats {
        &self.shared.stats
    }

    /// Deterministic **shard kill**: cut every live connection mid-exchange
    /// and refuse every new one, while the proxy object (and its stats)
    /// stays alive and queryable. Unlike [`ChaosProxy::shutdown`] the
    /// accept thread keeps running, so clients observe a dead shard —
    /// connections accepted then immediately closed — rather than a
    /// vanished listener. Idempotent; a killed proxy never recovers.
    pub fn kill(&self) {
        if self.shared.killed.swap(true, Ordering::SeqCst) {
            return;
        }
        let streams: Vec<_> =
            self.shared.live.lock().unwrap_or_else(|p| p.into_inner()).drain(..).collect();
        for s in streams {
            let _ = s.shutdown(Shutdown::Both);
        }
    }

    /// Stop proxying: close the listener, cut live connections, join all
    /// threads. Idempotent.
    pub fn shutdown(&mut self) {
        if self.shared.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // wake the acceptor out of accept()
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        let threads: Vec<_> =
            self.shared.conn_threads.lock().unwrap_or_else(|p| p.into_inner()).drain(..).collect();
        for t in threads {
            let _ = t.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(shared: &Arc<ProxyShared>, listener: TcpListener) {
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let client = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        if shared.killed.load(Ordering::SeqCst) {
            // a killed shard: accept (the listener exists) then close
            // without ever contacting the upstream
            let _ = client.shutdown(Shutdown::Both);
            continue;
        }
        shared.stats.connections.fetch_add(1, Ordering::Relaxed);
        let fault = draw_fault(shared);
        if let Some(f) = fault {
            shared.stats.record(f);
        }
        if fault == Some(Fault::Refuse) {
            // dropping the stream closes it: the client sees an immediate
            // disconnect, the upstream never hears about it
            let _ = client.shutdown(Shutdown::Both);
            continue;
        }
        let handle = {
            let shared = Arc::clone(shared);
            std::thread::Builder::new()
                .name("rmpi-chaos-conn".into())
                .spawn(move || handle_proxy_connection(shared, client, fault))
        };
        if let Ok(h) = handle {
            shared.conn_threads.lock().unwrap_or_else(|p| p.into_inner()).push(h);
        }
    }
}

/// One deterministic draw: disturbed or not, and which fault.
fn draw_fault(shared: &ProxyShared) -> Option<Fault> {
    let mut rng = shared.rng.lock().unwrap_or_else(|p| p.into_inner());
    if rng.next_f64() >= shared.cfg.fault_rate {
        return None;
    }
    Some(match rng.next_u64() % 6 {
        0 => Fault::Refuse,
        1 => Fault::Delay,
        2 => Fault::TruncateResponse,
        3 => Fault::MidResponseDisconnect,
        4 => Fault::PartialWriteStall,
        _ => Fault::PipelineCut,
    })
}

/// What the upstream→client pump does to the response stream.
struct ResponsePlan {
    /// Cut the connection after forwarding this many bytes.
    limit: Option<usize>,
    /// Sleep this long right before the cut (partial-write stall).
    stall: Option<Duration>,
    /// Cut the connection after forwarding this many complete (`\n`-ended)
    /// lines — the cut lands exactly on a line boundary.
    line_limit: Option<usize>,
}

impl ResponsePlan {
    fn faithful() -> ResponsePlan {
        ResponsePlan { limit: None, stall: None, line_limit: None }
    }
}

fn handle_proxy_connection(shared: Arc<ProxyShared>, client: TcpStream, fault: Option<Fault>) {
    let cfg = shared.cfg;
    if fault == Some(Fault::Delay) {
        std::thread::sleep(cfg.delay);
    }
    let upstream = match TcpStream::connect_timeout(&shared.upstream, Duration::from_secs(2)) {
        Ok(s) => s,
        Err(_) => {
            let _ = client.shutdown(Shutdown::Both);
            return;
        }
    };
    // register both halves so kill() can cut this exchange mid-flight; the
    // killed check under the same lock closes the race with a concurrent
    // kill() drain
    {
        let mut live = shared.live.lock().unwrap_or_else(|p| p.into_inner());
        if shared.killed.load(Ordering::SeqCst) {
            let _ = client.shutdown(Shutdown::Both);
            let _ = upstream.shutdown(Shutdown::Both);
            return;
        }
        if let Ok(c) = client.try_clone() {
            live.push(c);
        }
        if let Ok(u) = upstream.try_clone() {
            live.push(u);
        }
    }
    let plan = match fault {
        Some(Fault::TruncateResponse) => {
            ResponsePlan { limit: Some(cfg.truncate_after), ..ResponsePlan::faithful() }
        }
        Some(Fault::MidResponseDisconnect) => {
            ResponsePlan { limit: Some(1), ..ResponsePlan::faithful() }
        }
        Some(Fault::PartialWriteStall) => ResponsePlan {
            limit: Some(cfg.truncate_after),
            stall: Some(cfg.delay),
            line_limit: None,
        },
        Some(Fault::PipelineCut) => {
            ResponsePlan { line_limit: Some(cfg.cut_after_lines), ..ResponsePlan::faithful() }
        }
        _ => ResponsePlan::faithful(),
    };

    // client -> upstream: always faithful. Faults target the response path:
    // cutting *request* bytes could silently change a request's meaning
    // (e.g. truncating a SCORE batch to a shorter but still-valid one),
    // which no cut we model should be able to do undetectably.
    let c2u = {
        let from = match client.try_clone() {
            Ok(s) => s,
            Err(_) => return,
        };
        let to = match upstream.try_clone() {
            Ok(s) => s,
            Err(_) => return,
        };
        let stop = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("rmpi-chaos-c2u".into())
            .spawn(move || pump(from, to, ResponsePlan::faithful(), &stop))
    };

    // upstream -> client: where the chaos happens
    pump(upstream, client, plan, &shared);
    if let Ok(t) = c2u {
        let _ = t.join();
    }
}

/// Copy bytes from `from` to `to` until EOF, stop, error, or the plan's
/// byte/line limit; then cut both directions.
fn pump(mut from: TcpStream, mut to: TcpStream, plan: ResponsePlan, stop: &ProxyShared) {
    let _ = from.set_read_timeout(Some(POLL));
    let mut forwarded = 0usize;
    let mut lines_forwarded = 0usize;
    let mut buf = [0u8; 4096];
    loop {
        if stop.stop.load(Ordering::SeqCst) {
            break;
        }
        let n = match from.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                continue;
            }
            Err(_) => break,
        };
        let mut send = match plan.limit {
            Some(limit) => {
                let remaining = limit.saturating_sub(forwarded);
                n.min(remaining)
            }
            None => n,
        };
        let mut line_cut = false;
        if let Some(line_limit) = plan.line_limit {
            // forward only up to (and including) the newline that completes
            // the limit-th line, so the cut lands exactly on a line boundary
            let mut boundary = 0usize;
            for (i, &b) in buf[..send].iter().enumerate() {
                if b == b'\n' {
                    lines_forwarded += 1;
                    boundary = i + 1;
                    if lines_forwarded >= line_limit {
                        line_cut = true;
                        break;
                    }
                }
            }
            if line_cut {
                send = boundary;
            }
        }
        if send > 0 && to.write_all(&buf[..send]).is_err() {
            break;
        }
        forwarded += send;
        if line_cut || plan.limit.is_some_and(|limit| forwarded >= limit) {
            if let Some(stall) = plan.stall {
                std::thread::sleep(stall);
            }
            break;
        }
    }
    let _ = to.shutdown(Shutdown::Both);
    let _ = from.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};

    /// A trivial upstream echo server: answers every line with `OK <line>`.
    fn echo_server() -> (SocketAddr, Arc<AtomicBool>, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if stop2.load(Ordering::SeqCst) {
                    return;
                }
                let Ok(stream) = stream else { continue };
                let stop3 = Arc::clone(&stop2);
                std::thread::spawn(move || {
                    let mut writer = stream.try_clone().unwrap();
                    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
                    let mut reader = BufReader::new(stream);
                    let mut line = String::new();
                    loop {
                        if stop3.load(Ordering::SeqCst) {
                            return;
                        }
                        line.clear();
                        match reader.read_line(&mut line) {
                            Ok(0) => return,
                            Ok(_) => {
                                if writeln!(writer, "OK {}", line.trim_end()).is_err() {
                                    return;
                                }
                            }
                            Err(e)
                                if matches!(
                                    e.kind(),
                                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                                ) =>
                            {
                                continue;
                            }
                            Err(_) => return,
                        }
                    }
                });
            }
        });
        (addr, stop, handle)
    }

    fn stop_echo(addr: SocketAddr, stop: &AtomicBool, handle: JoinHandle<()>) {
        stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(addr);
        let _ = handle.join();
    }

    #[test]
    fn faultless_proxy_is_transparent() {
        let (addr, stop, handle) = echo_server();
        let mut proxy =
            ChaosProxy::spawn(addr, ChaosConfig { fault_rate: 0.0, ..Default::default() }).unwrap();
        let mut stream = TcpStream::connect(proxy.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        for i in 0..3 {
            writeln!(stream, "hello {i}").unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert_eq!(line.trim_end(), format!("OK hello {i}"));
        }
        assert_eq!(proxy.stats().connections(), 1);
        assert_eq!(proxy.stats().faults_injected(), 0);
        proxy.shutdown();
        stop_echo(addr, &stop, handle);
    }

    #[test]
    fn fault_stream_is_deterministic_for_a_seed() {
        // Replaying the decision stream (no sockets involved) must give the
        // same faults in the same order for the same seed.
        let draw_seq = |seed: u64| -> Vec<Option<Fault>> {
            let mut rng = SplitMix64(seed);
            (0..64)
                .map(|_| {
                    if rng.next_f64() >= 0.3 {
                        return None;
                    }
                    Some(match rng.next_u64() % 6 {
                        0 => Fault::Refuse,
                        1 => Fault::Delay,
                        2 => Fault::TruncateResponse,
                        3 => Fault::MidResponseDisconnect,
                        4 => Fault::PartialWriteStall,
                        _ => Fault::PipelineCut,
                    })
                })
                .collect()
        };
        assert_eq!(draw_seq(42), draw_seq(42));
        assert_ne!(draw_seq(42), draw_seq(43), "different seeds should differ");
        let disturbed = draw_seq(42).iter().filter(|f| f.is_some()).count();
        assert!(disturbed > 8, "a 30% rate over 64 draws injects plenty: {disturbed}");
    }

    #[test]
    fn every_fault_kind_fires_and_damage_is_always_detectable() {
        let (addr, stop, handle) = echo_server();
        let mut proxy = ChaosProxy::spawn(
            addr,
            ChaosConfig {
                seed: 9,
                fault_rate: 1.0, // every connection disturbed
                delay: Duration::from_millis(5),
                truncate_after: 2,
                cut_after_lines: 2,
            },
        )
        .unwrap();
        let mut complete = 0u32;
        let mut damaged = 0u32;
        for i in 0..40 {
            let Ok(mut stream) = TcpStream::connect(proxy.addr()) else {
                damaged += 1;
                continue;
            };
            let _ = stream.set_read_timeout(Some(Duration::from_millis(300)));
            if writeln!(stream, "ping {i}").is_err() {
                damaged += 1;
                continue;
            }
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            match reader.read_line(&mut line) {
                // a *complete* line (trailing newline intact) must be the
                // faithful echo — chaos never corrupts, only cuts
                Ok(n) if n > 0 && line.ends_with('\n') => {
                    assert_eq!(line.trim_end(), format!("OK ping {i}"));
                    complete += 1;
                }
                _ => damaged += 1,
            }
        }
        assert!(damaged > 0, "rate=1.0 must visibly damage some exchanges");
        // Delay faults still deliver intact lines, so some completes are fine.
        assert_eq!(proxy.stats().connections(), 40);
        assert_eq!(proxy.stats().faults_injected(), 40);
        let kinds = [
            Fault::Refuse,
            Fault::Delay,
            Fault::TruncateResponse,
            Fault::MidResponseDisconnect,
            Fault::PartialWriteStall,
            Fault::PipelineCut,
        ];
        for kind in kinds {
            assert!(proxy.stats().count(kind) > 0, "{kind:?} never drawn in 40 connections");
        }
        assert!(complete > 0, "delay-only connections should still complete");
        proxy.shutdown();
        stop_echo(addr, &stop, handle);
    }

    #[test]
    fn kill_cuts_live_connections_and_refuses_new_ones() {
        let (addr, stop, handle) = echo_server();
        let mut proxy =
            ChaosProxy::spawn(addr, ChaosConfig { fault_rate: 0.0, ..Default::default() }).unwrap();
        // a healthy exchange first
        let mut stream = TcpStream::connect(proxy.addr()).unwrap();
        let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        writeln!(stream, "hello").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), "OK hello");

        proxy.kill();
        // the live connection is cut: a request in flight can only end in
        // EOF or an error, never a complete reply line
        let _ = writeln!(stream, "are you there");
        line.clear();
        let n = reader.read_line(&mut line).unwrap_or(0);
        assert!(n == 0 || !line.ends_with('\n'), "killed shard answered: {line:?}");

        // new connections are accepted then closed without a byte served
        let refused = TcpStream::connect(proxy.addr()).unwrap();
        let _ = refused.set_read_timeout(Some(Duration::from_secs(2)));
        let mut refused_writer = refused.try_clone().unwrap();
        let _ = writeln!(refused_writer, "hello again");
        line.clear();
        let n = BufReader::new(refused).read_line(&mut line).unwrap_or(0);
        assert_eq!(n, 0, "killed shard must not serve new connections: {line:?}");

        // the proxy object survives the kill for post-mortem inspection
        assert_eq!(proxy.stats().connections(), 1);
        proxy.kill(); // idempotent
        proxy.shutdown();
        stop_echo(addr, &stop, handle);
    }

    #[test]
    fn pipeline_cut_forwards_exactly_n_complete_lines_then_cuts_on_the_boundary() {
        let (addr, stop, handle) = echo_server();
        // force the PipelineCut path deterministically by driving pump()
        // directly: a pipelined burst of 5 requests, a 3-line cut plan
        let upstream = TcpStream::connect(addr).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let proxy_addr = listener.local_addr().unwrap();
        let client_side = TcpStream::connect(proxy_addr).unwrap();
        let (proxy_client, _) = listener.accept().unwrap();
        let shared = Arc::new(ProxyShared {
            stop: AtomicBool::new(false),
            killed: AtomicBool::new(false),
            stats: ChaosStats::default(),
            cfg: ChaosConfig::default(),
            upstream: addr,
            rng: Mutex::new(SplitMix64(0)),
            conn_threads: Mutex::new(Vec::new()),
            live: Mutex::new(Vec::new()),
        });
        // client -> upstream faithful, upstream -> client cut after 3 lines
        let c2u = {
            let from = proxy_client.try_clone().unwrap();
            let to = upstream.try_clone().unwrap();
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || pump(from, to, ResponsePlan::faithful(), &shared))
        };
        let u2c = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                pump(
                    upstream,
                    proxy_client,
                    ResponsePlan { line_limit: Some(3), ..ResponsePlan::faithful() },
                    &shared,
                )
            })
        };

        let mut client_writer = client_side.try_clone().unwrap();
        for i in 0..5 {
            writeln!(client_writer, "req {i}").unwrap();
        }
        let mut reader = BufReader::new(client_side);
        let mut received = Vec::new();
        let mut line = String::new();
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {
                    assert!(line.ends_with('\n'), "cut must land on a line boundary: {line:?}");
                    received.push(line.trim_end().to_owned());
                }
            }
        }
        assert_eq!(
            received,
            vec!["OK req 0", "OK req 1", "OK req 2"],
            "exactly 3 intact lines, then the cut"
        );
        shared.stop.store(true, Ordering::SeqCst);
        c2u.join().unwrap();
        u2c.join().unwrap();
        stop_echo(addr, &stop, handle);
    }
}
