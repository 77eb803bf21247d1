//! The retrying client: one endpoint or a replica set, with per-endpoint
//! circuit breakers and `HEALTH`-probed recovery. A single endpoint is
//! `FailoverClient::new(vec![addr], cfg)`.
//!
//! The client is *sticky*: it keeps sending to the endpoint that last
//! worked, over a cached pipelined [`Session`] per endpoint (reopened
//! transparently when a transport failure invalidates it, so the retry loop
//! doubles as the reconnect loop). On a retryable
//! failure it records the failure against that endpoint's breaker, advances
//! its preference to the next replica, and retries there (counted in
//! `client.failovers`). An endpoint whose breaker
//! has tripped is skipped without touching the network until its cooldown
//! elapses; the first request after cooldown triggers a half-open `HEALTH`
//! probe — only a served `HEALTH` (the readiness verb, which exercises the
//! full engine path) closes the breaker and readmits the replica.
//!
//! Under a deadline ([`FailoverClient::request_line_deadline`]) every wait
//! of a request — TCP connect, the `PROTO 2` handshake, the probe's
//! `HEALTH` answer, the response itself — is bounded by what is left of it.
//!
//! Fatal server answers (`ERR bad request`, unknown relation, ...) are
//! returned immediately and do **not** count against the endpoint: a replica
//! that correctly rejects a malformed request is healthy.

use crate::backoff::Backoff;
use crate::breaker::{BreakerConfig, BreakerState, CircuitBreaker};
use crate::budget::RetryBudget;
use crate::client::{parse_ranked, parse_scores, score_line, ClientConfig};
use crate::error::ClientError;
use crate::session::Session;
use crate::stats::ClientStats;
use rmpi_obs::MetricsRegistry;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

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

impl Endpoint {
    /// One attempt over the cached session, (re)connecting first if it is
    /// absent or dead. A transport-level failure drops the session so the
    /// next attempt reconnects — which is how the retry loop doubles as the
    /// reconnect loop.
    fn attempt(
        &mut self,
        cfg: &ClientConfig,
        stats: &ClientStats,
        line: &str,
        deadline: Option<Instant>,
    ) -> Result<String, ClientError> {
        if !self.session.as_ref().is_some_and(Session::is_alive) {
            let budget = left(deadline, Duration::MAX);
            self.session = Some(Session::connect_within(self.addr, cfg, budget)?);
            stats.sessions_opened.inc();
        }
        let session = self.session.as_ref().expect("just ensured");
        let result = session.request_timeout(line, left(deadline, cfg.read_timeout));
        if result.as_ref().is_err_and(is_transport_error) {
            self.session = None;
        }
        result
    }
}

/// What is left of `deadline`, or `otherwise` for a request without one.
fn left(deadline: Option<Instant>, otherwise: Duration) -> Duration {
    deadline.map_or(otherwise, |d| d.saturating_duration_since(Instant::now()))
}

/// Whether an error means the *connection* is suspect (as opposed to a
/// server answer that happened to be an error) — these invalidate a cached
/// session.
fn is_transport_error(e: &ClientError) -> bool {
    matches!(
        e,
        ClientError::Connect(_)
            | ClientError::Io(_)
            | ClientError::TruncatedResponse
            | ClientError::Protocol(_)
            | ClientError::SessionClosed(_)
    )
}

/// The retrying client over one or more replicas (see module docs); the
/// typed verbs send pure requests, which are retried and fail over.
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
        Self::with_registry(addrs, cfg, rmpi_obs::global())
    }

    /// Same, recording into an explicit registry (tests).
    pub fn with_registry(
        addrs: Vec<SocketAddr>,
        cfg: FailoverConfig,
        registry: &MetricsRegistry,
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

    /// `PING` → liveness.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.request_line("PING", true).map(|_| ())
    }

    /// `SCORE h r t` → the served (bit-exact) score of one triple.
    pub fn score(&mut self, head: u32, relation: u32, tail: u32) -> Result<f32, ClientError> {
        Ok(self.score_batch(&[(head, relation, tail)])?[0])
    }

    /// `SCORE h r t [h r t ...]` → one score per triple, server-batched.
    pub fn score_batch(&mut self, triples: &[(u32, u32, u32)]) -> Result<Vec<f32>, ClientError> {
        let payload = self.request_line(&score_line(triples), true)?;
        parse_scores(&payload, triples.len())
    }

    /// `RANK h r k` → up to `k` `(tail, score)` pairs, best first.
    pub fn rank_tails(
        &mut self,
        head: u32,
        relation: u32,
        k: usize,
    ) -> Result<Vec<(u32, f32)>, ClientError> {
        let payload = self.request_line(&format!("RANK {head} {relation} {k}"), true)?;
        parse_ranked(&payload)
    }

    /// Send one request line and return its `OK` payload. A retryable
    /// failure of an `idempotent` request is retried, on the next replica,
    /// within the attempt cap and the retry budget; any other request is
    /// sent exactly once.
    pub fn request_line(&mut self, line: &str, idempotent: bool) -> Result<String, ClientError> {
        self.run(line, idempotent, None)
    }

    /// Choose the next usable endpoint, starting from the preferred one. An
    /// endpoint coming out of cooldown is admitted only after a successful
    /// half-open `HEALTH` probe; a failed probe re-opens its breaker and the
    /// scan continues.
    fn pick(&mut self, deadline: Option<Instant>) -> Option<usize> {
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
                // whatever state a cached session is in. Like any attempt,
                // it waits no longer than the request's deadline allows.
                let budget = left(deadline, Duration::MAX);
                let probe = Session::connect_within(self.endpoints[idx].addr, &self.cfg, budget)
                    .and_then(|s| {
                        s.request_timeout("HEALTH", left(deadline, self.cfg.read_timeout))
                    });
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

    /// Like [`FailoverClient::request_line`], but under an absolute
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
        // the failure that ended the latest attempt, for `NoHealthyEndpoint`
        let mut last = None;
        loop {
            // the remaining budget is re-derived per attempt: this is what a
            // forwarded DEADLINE hint decays by on each retry
            let remaining = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            if remaining.is_some_and(|r| r.is_zero()) {
                self.stats.errors.inc();
                return Err(ClientError::from_server_err("deadline expired"));
            }
            let Some(idx) = self.pick(deadline) else {
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
                    return Err(ClientError::NoHealthyEndpoint { last: last.map(Box::new) });
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
            // connect and response when the budget is spent
            match self.endpoints[idx].attempt(&self.cfg, &self.stats, attempt_line, deadline) {
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
                    last = Some(e);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backoff::BackoffConfig;
    use std::io::{BufRead, BufReader, Write};
    use std::net::{TcpListener, TcpStream};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

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
        FailoverClient::with_registry(addrs, cfg, &MetricsRegistry::new())
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
        // both breakers trip during the attempt sequence; the error names
        // the connect failure that tripped the last one
        let err = c.ping().unwrap_err();
        assert!(!err.is_retryable(), "{err}");
        let ClientError::NoHealthyEndpoint { last: Some(last) } = &err else {
            panic!("the first call's attempts must be kept: {err}");
        };
        assert!(matches!(**last, ClientError::Connect(_)), "{last}");
        let source = std::error::Error::source(&err).expect("the last attempt is the source");
        assert!(
            matches!(source.downcast_ref::<ClientError>(), Some(ClientError::Connect(_))),
            "{source}"
        );
        assert_eq!(c.breaker_states(), vec![BreakerState::Open, BreakerState::Open]);
        // a call that makes no attempt has no failure to report
        let err = c.ping().unwrap_err();
        assert!(matches!(err, ClientError::NoHealthyEndpoint { last: None }), "{err}");
        assert_eq!(c.stats().errors.get(), 2);
    }

    #[test]
    fn dead_endpoint_exhausts_retries_with_budgeted_attempts() {
        let cfg = FailoverConfig {
            client: ClientConfig {
                max_retries: 2,
                backoff: BackoffConfig {
                    base: Duration::from_millis(1),
                    ..BackoffConfig::default()
                },
                ..ClientConfig::default()
            },
            ..FailoverConfig::default()
        };
        let mut c = client(vec![dead_addr()], cfg);
        let err = c.ping().unwrap_err();
        assert!(
            matches!(err, ClientError::RetriesExhausted { attempts: 3, .. }),
            "initial + 2 retries: {err}"
        );
        assert_eq!(c.stats().retries.get(), 2);
        assert_eq!(c.stats().errors.get(), 1);
        assert_eq!(c.stats().requests.get(), 1, "retries are not new logical requests");
    }

    #[test]
    fn non_idempotent_requests_are_never_retried() {
        let mut c = client(vec![dead_addr()], FailoverConfig::default());
        let err = c.request_line("RELOAD next.bundle", false).unwrap_err();
        assert!(matches!(err, ClientError::Connect(_)), "no RetriesExhausted wrapper: {err}");
        assert_eq!(c.stats().retries.get(), 0);
    }

    /// A listener that never accepts: the kernel completes TCP connects into
    /// its backlog, so a client connects, sends `PROTO 2` and hears nothing.
    fn silent_listener() -> (TcpListener, SocketAddr) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        (listener, addr)
    }

    fn assert_deadline_expired(err: &ClientError, t0: Instant, budget: Duration) {
        let elapsed = t0.elapsed();
        assert!(
            elapsed < budget + Duration::from_millis(100),
            "{budget:?} budget took {elapsed:?}"
        );
        assert!(
            matches!(err, ClientError::Server { message, transient: true }
                if message == "deadline expired"),
            "{err}"
        );
    }

    #[test]
    fn a_fresh_connect_waits_no_longer_than_the_deadline() {
        let (_silent, addr) = silent_listener();
        let mut c = client(vec![addr], FailoverConfig::default());
        let budget = Duration::from_millis(200);
        let t0 = Instant::now();
        let err = c.request_line_deadline("PING", true, t0 + budget).unwrap_err();
        assert_deadline_expired(&err, t0, budget);
    }

    #[test]
    fn a_half_open_probe_waits_no_longer_than_the_deadline() {
        let (_silent, addr) = silent_listener();
        let cfg = FailoverConfig {
            breaker: BreakerConfig { trip_after: 1, cooldown: Duration::from_millis(50) },
            ..FailoverConfig::default()
        };
        let cooldown = cfg.breaker.cooldown;
        let mut c = client(vec![addr], cfg);
        let budget = Duration::from_millis(200);
        // the first request's failed handshake trips the breaker
        let _ = c.request_line_deadline("PING", true, Instant::now() + budget);
        assert_eq!(c.stats().breaker_open.get(), 1);
        std::thread::sleep(cooldown + Duration::from_millis(10));
        // past the cooldown the next request starts with the HEALTH probe
        let t0 = Instant::now();
        let err = c.request_line_deadline("PING", true, t0 + budget).unwrap_err();
        assert_deadline_expired(&err, t0, budget);
        assert_eq!(c.stats().breaker_open.get(), 2, "the failed probe re-trips");
    }
}
