//! Replica failover: a multi-endpoint client with per-endpoint circuit
//! breakers and `HEALTH`-probed recovery.
//!
//! The client is *sticky*: it keeps sending to the endpoint that last
//! worked, over a cached pipelined [`Session`] per endpoint (reopened
//! transparently when a transport failure invalidates it). On a retryable
//! failure it records the failure against that endpoint's breaker, advances
//! its preference to the next replica, and retries there (counted in
//! `client.failovers`). An endpoint whose breaker
//! has tripped is skipped without touching the network until its cooldown
//! elapses; the first request after cooldown triggers a half-open `HEALTH`
//! probe — only a served `HEALTH` (the readiness verb, which exercises the
//! full engine path) closes the breaker and readmits the replica.
//!
//! Fatal server answers (`ERR bad request`, unknown relation, ...) are
//! returned immediately and do **not** count against the endpoint: a replica
//! that correctly rejects a malformed request is healthy.

use crate::backoff::Backoff;
use crate::breaker::{BreakerConfig, BreakerState, CircuitBreaker};
use crate::budget::RetryBudget;
use crate::client::{attempt_over, ClientConfig, ProtocolClient};
use crate::error::ClientError;
use crate::session::Session;
use crate::stats::ClientStats;
use rmpi_obs::MetricsRegistry;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

/// Failover knobs: the per-attempt client config plus the breaker shape
/// applied to every endpoint.
#[derive(Clone, Debug, Default)]
pub struct FailoverConfig {
    /// Timeouts, retry policy, backoff and budget (shared across endpoints).
    pub client: ClientConfig,
    /// Circuit-breaker tuning (one breaker per endpoint).
    pub breaker: BreakerConfig,
}

struct Endpoint {
    addr: SocketAddr,
    breaker: CircuitBreaker,
    /// Cached pipelined session; dropped on transport failures so the next
    /// attempt reconnects fresh.
    session: Option<Session>,
}

/// A client over a replica set. Same typed verbs as [`crate::Client`] via
/// [`ProtocolClient`]; requests transparently fail over between replicas.
pub struct FailoverClient {
    endpoints: Vec<Endpoint>,
    cfg: ClientConfig,
    /// Preferred endpoint index (last known good).
    current: usize,
    /// Endpoint used by the previous wire attempt, for failover counting.
    last_used: Option<usize>,
    backoff: Backoff,
    budget: RetryBudget,
    stats: ClientStats,
}

impl FailoverClient {
    /// A failover client over `addrs` (tried in order from the preferred
    /// endpoint), recording metrics into the process-global registry.
    pub fn new(addrs: Vec<SocketAddr>, cfg: FailoverConfig) -> Self {
        Self::with_registry(addrs, cfg, Arc::clone(rmpi_obs::global()))
    }

    /// Same, recording into an explicit registry (tests).
    pub fn with_registry(
        addrs: Vec<SocketAddr>,
        cfg: FailoverConfig,
        registry: Arc<MetricsRegistry>,
    ) -> Self {
        assert!(!addrs.is_empty(), "FailoverClient needs at least one endpoint");
        let endpoints = addrs
            .into_iter()
            .map(|addr| Endpoint {
                addr,
                breaker: CircuitBreaker::new(cfg.breaker.clone()),
                session: None,
            })
            .collect();
        FailoverClient {
            endpoints,
            backoff: Backoff::new(cfg.client.backoff.clone()),
            budget: RetryBudget::new(cfg.client.budget.clone()),
            stats: ClientStats::with_registry(registry),
            cfg: cfg.client,
            current: 0,
            last_used: None,
        }
    }

    /// This client's metric handles.
    pub fn stats(&self) -> &ClientStats {
        &self.stats
    }

    /// Breaker state per endpoint, in construction order (observability).
    pub fn breaker_states(&self) -> Vec<BreakerState> {
        let now = Instant::now();
        self.endpoints.iter().map(|e| e.breaker.state(now)).collect()
    }

    /// Choose the next usable endpoint, starting from the preferred one. An
    /// endpoint coming out of cooldown is admitted only after a successful
    /// half-open `HEALTH` probe; a failed probe re-opens its breaker and the
    /// scan continues.
    fn pick(&mut self) -> Option<usize> {
        let n = self.endpoints.len();
        for offset in 0..n {
            let idx = (self.current + offset) % n;
            let now = Instant::now();
            let was_open = self.endpoints[idx].breaker.state(now) != BreakerState::Closed;
            if !self.endpoints[idx].breaker.allows(now) {
                continue;
            }
            if was_open {
                // half-open: one probe decides. The probe opens a session of
                // its own on purpose: it must judge the *endpoint*, not
                // whatever state a cached session is in.
                let probe = Session::connect(self.endpoints[idx].addr, &self.cfg)
                    .and_then(|session| session.health());
                match probe {
                    Ok(_) => self.endpoints[idx].breaker.record_success(),
                    Err(_) => {
                        if self.endpoints[idx].breaker.record_failure(Instant::now()) {
                            self.stats.breaker_open.inc();
                        }
                        continue;
                    }
                }
            }
            return Some(idx);
        }
        None
    }

    /// Like [`ProtocolClient::request_line`], but under an absolute
    /// end-to-end deadline. Every attempt — the first and each failover
    /// retry — is sent with a fresh `DEADLINE <remaining-ms>` hint computed
    /// at that forward, so a backend serving a retry is granted only what
    /// remains of the caller's wait, never the original budget; retry
    /// sleeps are clamped to the deadline, and a request whose budget is
    /// spent answers `deadline expired` (transient) exactly like a backend
    /// shed. `line` must not already carry a `DEADLINE` hint.
    pub fn request_line_deadline(
        &mut self,
        line: &str,
        idempotent: bool,
        deadline: Instant,
    ) -> Result<String, ClientError> {
        self.run(line, idempotent, Some(deadline))
    }

    fn run(
        &mut self,
        line: &str,
        idempotent: bool,
        deadline: Option<Instant>,
    ) -> Result<String, ClientError> {
        self.stats.requests.inc();
        let t0 = Instant::now();
        let mut attempts: u32 = 0;
        loop {
            // the remaining budget is re-derived per attempt: this is what a
            // forwarded DEADLINE hint decays by on each retry
            let remaining = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            if remaining.is_some_and(|r| r.is_zero()) {
                self.stats.errors.inc();
                return Err(ClientError::from_server_err("deadline expired"));
            }
            let Some(idx) = self.pick() else {
                // every breaker is open: rather than fail fast, a retryable
                // request waits out the *shortest* cooldown (it counts as a
                // retry against budget and attempt caps) and probes then —
                // this turns a brief full-outage blip into latency instead
                // of an error burst
                let wait_until = self.endpoints.iter().filter_map(|e| e.breaker.retry_at()).min();
                let may_retry = idempotent
                    && wait_until.is_some()
                    && attempts <= self.cfg.max_retries
                    && self.budget.try_withdraw();
                if !may_retry {
                    self.stats.errors.inc();
                    return Err(ClientError::NoHealthyEndpoint { last: None });
                }
                self.stats.retries.inc();
                attempts += 1;
                if let Some(until) = wait_until {
                    // each wait is capped at the backoff ceiling so a long
                    // cooldown costs bounded latency per retry and the
                    // attempt cap stays the real limit; a deadline caps it
                    // further (waking at the deadline turns the retry into
                    // `deadline expired` at the top of the loop)
                    let mut target = until.min(Instant::now() + self.cfg.backoff.max);
                    if let Some(d) = deadline {
                        target = target.min(d);
                    }
                    // sleep can wake a hair early when the OS clock rounds
                    // down; re-check and sleep the remainder so the retried
                    // pick() meets a genuinely half-open breaker instead of
                    // burning a retry on one that is still open
                    let mut now = Instant::now();
                    while now < target {
                        std::thread::sleep(target - now);
                        now = Instant::now();
                    }
                }
                continue;
            };
            if self.last_used.is_some_and(|prev| prev != idx) {
                self.stats.failovers.inc();
            }
            self.last_used = Some(idx);
            self.current = idx;
            attempts += 1;
            let hinted;
            let attempt_line = match remaining {
                Some(rem) => {
                    hinted = format!("DEADLINE {} {line}", rem.as_millis().max(1));
                    hinted.as_str()
                }
                None => line,
            };
            // with a deadline, the caller stops waiting for this attempt's
            // response when the budget is spent
            let endpoint = &mut self.endpoints[idx];
            let attempt = attempt_over(
                &mut endpoint.session,
                endpoint.addr,
                &self.cfg,
                &self.stats,
                attempt_line,
                remaining.unwrap_or(self.cfg.read_timeout),
            );
            match attempt {
                Ok(payload) => {
                    self.endpoints[idx].breaker.record_success();
                    self.budget.record_success();
                    self.backoff.reset();
                    self.stats.request_latency.record_duration(t0.elapsed());
                    return Ok(payload);
                }
                Err(e) => {
                    if e.is_retryable() {
                        // transport damage or load shedding: the endpoint is
                        // suspect
                        if self.endpoints[idx].breaker.record_failure(Instant::now()) {
                            self.stats.breaker_open.inc();
                        }
                        // prefer the next replica for the retry (and for
                        // future requests, until it fails in turn)
                        self.current = (idx + 1) % self.endpoints.len();
                    }
                    let may_retry = idempotent
                        && e.is_retryable()
                        && attempts <= self.cfg.max_retries
                        && self.budget.try_withdraw();
                    if !may_retry {
                        self.stats.errors.inc();
                        return Err(if attempts > 1 {
                            ClientError::RetriesExhausted { attempts, last: Box::new(e) }
                        } else {
                            e
                        });
                    }
                    self.stats.retries.inc();
                    let mut delay = self.backoff.next_delay();
                    if let Some(d) = deadline {
                        // never sleep past the deadline: the next iteration
                        // converts an exhausted budget into the typed error
                        delay = delay.min(d.saturating_duration_since(Instant::now()));
                    }
                    std::thread::sleep(delay);
                }
            }
        }
    }
}

impl ProtocolClient for FailoverClient {
    fn request_line(&mut self, line: &str, idempotent: bool) -> Result<String, ClientError> {
        self.run(line, idempotent, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backoff::BackoffConfig;
    use std::io::{BufRead, BufReader, Write};
    use std::net::{TcpListener, TcpStream};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    /// A controllable fake replica: negotiates protocol v2 and answers
    /// `OK pong` to every tagged line while `healthy`; when unhealthy it
    /// drops new connections without answering **and** cuts established
    /// ones at their next request, so cached sessions die too (as a real
    /// crashed replica's would).
    struct FakeReplica {
        addr: SocketAddr,
        healthy: Arc<AtomicBool>,
        stop: Arc<AtomicBool>,
        thread: Option<std::thread::JoinHandle<()>>,
    }

    impl FakeReplica {
        fn spawn() -> FakeReplica {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let healthy = Arc::new(AtomicBool::new(true));
            let stop = Arc::new(AtomicBool::new(false));
            let (h, s) = (Arc::clone(&healthy), Arc::clone(&stop));
            let thread = std::thread::spawn(move || {
                for conn in listener.incoming() {
                    if s.load(Ordering::SeqCst) {
                        return;
                    }
                    let Ok(conn) = conn else { continue };
                    if !h.load(Ordering::SeqCst) {
                        continue; // drop: client sees a cut connection
                    }
                    let mut reader = BufReader::new(conn.try_clone().unwrap());
                    let mut line = String::new();
                    let mut conn = conn;
                    while reader.read_line(&mut line).map(|n| n > 0).unwrap_or(false) {
                        if !h.load(Ordering::SeqCst) {
                            break; // cut mid-session: the client sees truncation
                        }
                        if writeln!(conn, "{}", pong(&line)).is_err() {
                            break;
                        }
                        line.clear();
                    }
                }
            });
            FakeReplica { addr, healthy, stop, thread: Some(thread) }
        }

        fn set_healthy(&self, healthy: bool) {
            self.healthy.store(healthy, Ordering::SeqCst);
        }
    }

    impl Drop for FakeReplica {
        fn drop(&mut self) {
            self.stop.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(self.addr);
            if let Some(t) = self.thread.take() {
                let _ = t.join();
            }
        }
    }

    /// The fake servers' answer to one line: the hello for the `PROTO 2`
    /// probe, `OK pong` under the request's own tag for everything else.
    fn pong(line: &str) -> String {
        match line.split_whitespace().collect::<Vec<_>>()[..] {
            ["ID", tag, ..] => format!("ID {tag} OK pong"),
            _ => "OK proto=2".to_owned(),
        }
    }

    fn fast_cfg() -> FailoverConfig {
        FailoverConfig {
            client: ClientConfig {
                max_retries: 3,
                backoff: BackoffConfig {
                    base: Duration::from_millis(1),
                    max: Duration::from_millis(5),
                    ..BackoffConfig::default()
                },
                ..ClientConfig::default()
            },
            breaker: BreakerConfig { trip_after: 2, cooldown: Duration::from_millis(60) },
        }
    }

    fn client(addrs: Vec<SocketAddr>, cfg: FailoverConfig) -> FailoverClient {
        FailoverClient::with_registry(addrs, cfg, Arc::new(MetricsRegistry::new()))
    }

    fn dead_addr() -> SocketAddr {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    }

    #[test]
    fn fails_over_from_a_dead_preferred_endpoint() {
        let live = FakeReplica::spawn();
        let mut c = client(vec![dead_addr(), live.addr], fast_cfg());
        c.ping().expect("second replica should answer");
        assert_eq!(c.stats().retries.get(), 1);
        assert_eq!(c.stats().failovers.get(), 1);
        // stickiness: the next request goes straight to the live replica
        c.ping().expect("sticky");
        assert_eq!(c.stats().retries.get(), 1, "no new retries once failed over");
    }

    #[test]
    fn breaker_trips_and_dead_endpoint_is_skipped_without_network_attempts() {
        let live = FakeReplica::spawn();
        let mut c = client(vec![dead_addr(), live.addr], fast_cfg());
        // two requests' worth of failures against endpoint 0 trip it
        c.ping().unwrap();
        let states = c.breaker_states();
        assert_eq!(states[1], BreakerState::Closed);
        // drive endpoint 0 to trip_after failures: force preference back
        c.current = 0;
        c.ping().unwrap();
        assert_eq!(c.breaker_states()[0], BreakerState::Open, "two consecutive failures trip");
        assert_eq!(c.stats().breaker_open.get(), 1);
        let retries_after_trip = c.stats().retries.get();
        c.current = 0; // even when preferred, an open breaker is skipped
        c.ping().unwrap();
        assert_eq!(c.stats().retries.get(), retries_after_trip, "open breaker: no wire attempt");
    }

    #[test]
    fn half_open_health_probe_readmits_a_recovered_replica() {
        let flaky = FakeReplica::spawn();
        let cfg = fast_cfg();
        let cooldown = cfg.breaker.cooldown;
        let mut c = client(vec![flaky.addr], cfg);
        c.ping().unwrap();
        flaky.set_healthy(false);
        let err = c.ping().unwrap_err();
        assert!(matches!(err, ClientError::NoHealthyEndpoint { .. }), "{err}");
        assert_eq!(c.breaker_states()[0], BreakerState::Open);
        // still down at cooldown: the HEALTH probe fails, breaker re-opens
        std::thread::sleep(cooldown + Duration::from_millis(10));
        let err = c.ping().unwrap_err();
        assert!(matches!(err, ClientError::NoHealthyEndpoint { .. }), "{err}");
        assert!(c.stats().breaker_open.get() >= 2, "failed probe re-trips");
        // recovered: the probe readmits and the request is served
        flaky.set_healthy(true);
        std::thread::sleep(cooldown + Duration::from_millis(10));
        c.ping().expect("probe should readmit the recovered replica");
        assert_eq!(c.breaker_states()[0], BreakerState::Closed);
    }

    /// Regression: a forwarded `DEADLINE` hint must decay across failover
    /// retries. Re-sending the original budget would let a backend score a
    /// retry with the caller's *full* wait re-granted, long after the
    /// caller has given up.
    #[test]
    fn deadline_hints_decay_across_failover_retries() {
        let lines = Arc::new(std::sync::Mutex::new(Vec::<String>::new()));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server_lines = Arc::clone(&lines);
        let server = std::thread::spawn(move || {
            let mut served = 0usize;
            for conn in listener.incoming() {
                let Ok(conn) = conn else { continue };
                let mut reader = BufReader::new(conn.try_clone().unwrap());
                let mut conn = conn;
                let mut line = String::new();
                if reader.read_line(&mut line).map(|n| n == 0).unwrap_or(true) {
                    continue;
                }
                if writeln!(conn, "{}", pong(&line)).is_err() {
                    continue;
                }
                line.clear();
                if reader.read_line(&mut line).map(|n| n == 0).unwrap_or(true) {
                    continue;
                }
                // the request without its `ID <n>` tag
                let request = line.split_whitespace().skip(2).collect::<Vec<_>>().join(" ");
                server_lines.lock().unwrap().push(request);
                served += 1;
                if served <= 2 {
                    // burn some budget, then cut the connection so the
                    // client retries the (idempotent) request
                    std::thread::sleep(Duration::from_millis(20));
                    continue; // conn drops here
                }
                writeln!(conn, "{}", pong(&line)).unwrap();
                return;
            }
        });
        // trip_after above the cut count: every retry reaches the wire
        let cfg = FailoverConfig {
            breaker: BreakerConfig { trip_after: 10, cooldown: Duration::from_millis(60) },
            ..fast_cfg()
        };
        let mut c = client(vec![addr], cfg);
        let budget = Duration::from_millis(500);
        let payload = c
            .request_line_deadline("PING", true, Instant::now() + budget)
            .expect("third attempt is served");
        assert_eq!(payload, "pong");
        server.join().unwrap();
        let lines = lines.lock().unwrap();
        assert_eq!(lines.len(), 3, "two cuts then a success: {lines:?}");
        let hints: Vec<u64> = lines
            .iter()
            .map(|l| {
                let mut parts = l.split_whitespace();
                assert_eq!(parts.next(), Some("DEADLINE"), "hint on every attempt: {l}");
                let ms = parts.next().unwrap().parse().unwrap();
                assert_eq!(parts.next(), Some("PING"));
                ms
            })
            .collect();
        assert!(hints[0] <= budget.as_millis() as u64, "first hint within budget: {hints:?}");
        assert!(hints[1] < hints[0] && hints[2] < hints[1], "hints must shrink: {hints:?}");
    }

    #[test]
    fn an_exhausted_deadline_answers_a_transient_deadline_expired() {
        let live = FakeReplica::spawn();
        let mut c = client(vec![live.addr], fast_cfg());
        let err = c.request_line_deadline("PING", true, Instant::now()).unwrap_err();
        assert!(
            matches!(&err, ClientError::Server { message, transient: true }
                if message == "deadline expired"),
            "{err}"
        );
        assert_eq!(c.stats().errors.get(), 1);
    }

    #[test]
    fn all_endpoints_down_is_no_healthy_endpoint() {
        let cfg = FailoverConfig {
            breaker: BreakerConfig { trip_after: 1, cooldown: Duration::from_secs(60) },
            ..fast_cfg()
        };
        let mut c = client(vec![dead_addr(), dead_addr()], cfg);
        let err = c.ping().unwrap_err();
        // both breakers trip during the attempt sequence; whichever shape the
        // final error takes, it must be terminal and the breakers open
        assert!(!err.is_retryable(), "{err}");
        assert_eq!(c.breaker_states(), vec![BreakerState::Open, BreakerState::Open]);
        let err = c.ping().unwrap_err();
        assert!(matches!(err, ClientError::NoHealthyEndpoint { last: None }), "{err}");
        assert_eq!(c.stats().errors.get(), 2);
    }
}
