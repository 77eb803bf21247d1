//! The wire layer and the single-endpoint [`Client`].
//!
//! A [`Client`] keeps one cached [`Session`] — a persistent, pipelined
//! protocol-v2 connection (see [`crate::session`]) — and sends every
//! request over it. When the session dies (peer close, transport damage,
//! server restart), the failure surfaces as a retryable error, the cached
//! session is discarded, and the next attempt connects fresh — so the retry
//! loop doubles as the reconnect loop.
//!
//! A response is accepted only if it ends in `\n`: the line
//! protocol makes every chaos fault (truncation, mid-response disconnect,
//! stalled partial write) detectable as a missing newline, which is what
//! lets the retry layer promise *zero wrong scores* — damaged replies are
//! retried, never parsed.

use crate::backoff::{Backoff, BackoffConfig};
use crate::budget::{BudgetConfig, RetryBudget};
use crate::error::ClientError;
use crate::session::Session;
use crate::stats::ClientStats;
use rmpi_obs::MetricsRegistry;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client knobs: per-socket timeouts plus the retry policy.
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// TCP connect timeout.
    pub connect_timeout: Duration,
    /// Socket read timeout (covers the whole response wait).
    pub read_timeout: Duration,
    /// Socket write timeout.
    pub write_timeout: Duration,
    /// Retries after the initial attempt (per logical request).
    pub max_retries: u32,
    /// Backoff shape between attempts.
    pub backoff: BackoffConfig,
    /// Retry budget shape (caps retries fleet-wide, see [`crate::budget`]).
    pub budget: BudgetConfig,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_millis(500),
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(1),
            max_retries: 3,
            backoff: BackoffConfig::default(),
            budget: BudgetConfig::default(),
        }
    }
}

impl ClientConfig {
    /// Set the backoff jitter seed (the only randomness in the client).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.backoff.seed = seed;
        self
    }
}

/// Split a response line into the `OK` payload or a classified error.
pub(crate) fn classify_response(line: &str) -> Result<String, ClientError> {
    if line == "OK" {
        return Ok(String::new());
    }
    if let Some(payload) = line.strip_prefix("OK ") {
        return Ok(payload.to_owned());
    }
    if let Some(message) = line.strip_prefix("ERR ") {
        return Err(ClientError::from_server_err(message));
    }
    Err(ClientError::Protocol(line.to_owned()))
}

/// Parse an `OK s1 s2 ...` score payload, checking the count.
pub(crate) fn parse_scores(payload: &str, expected: usize) -> Result<Vec<f32>, ClientError> {
    let scores: Vec<f32> = payload
        .split_whitespace()
        .map(|s| s.parse().map_err(|e| ClientError::BadPayload(format!("score {s:?}: {e}"))))
        .collect::<Result<_, _>>()?;
    if scores.len() != expected {
        return Err(ClientError::BadPayload(format!(
            "expected {expected} scores, got {}",
            scores.len()
        )));
    }
    Ok(scores)
}

/// Parse an `OK tail:score ...` ranking payload.
pub(crate) fn parse_ranked(payload: &str) -> Result<Vec<(u32, f32)>, ClientError> {
    payload
        .split_whitespace()
        .map(|pair| {
            let (tail, score) = pair
                .split_once(':')
                .ok_or_else(|| ClientError::BadPayload(format!("ranked entry {pair:?}")))?;
            let tail =
                tail.parse().map_err(|e| ClientError::BadPayload(format!("tail {tail:?}: {e}")))?;
            let score = score
                .parse()
                .map_err(|e| ClientError::BadPayload(format!("score {score:?}: {e}")))?;
            Ok((tail, score))
        })
        .collect()
}

/// Format a `SCORE` line for a batch of `(head, relation, tail)` triples.
pub(crate) fn score_line(triples: &[(u32, u32, u32)]) -> String {
    let mut line = String::from("SCORE");
    for (h, r, t) in triples {
        line.push_str(&format!(" {h} {r} {t}"));
    }
    line
}

/// Typed wrappers over the line protocol, shared by [`Client`] and
/// [`crate::FailoverClient`]. Pure verbs (`SCORE`, `RANK`, probes and stats
/// reads) are declared idempotent and retried; `RELOAD` is sent exactly
/// once.
pub trait ProtocolClient {
    /// Send one request line; retry per the implementation's policy when
    /// `idempotent` and the failure is retryable. Returns the `OK` payload.
    fn request_line(&mut self, line: &str, idempotent: bool) -> Result<String, ClientError>;

    /// `PING` → liveness.
    fn ping(&mut self) -> Result<(), ClientError> {
        self.request_line("PING", true).map(|_| ())
    }

    /// `HEALTH` → readiness text (e.g. `healthy relations=4 entities=12`).
    fn health(&mut self) -> Result<String, ClientError> {
        self.request_line("HEALTH", true)
    }

    /// `SCORE h r t` → the served (bit-exact) score of one triple.
    fn score(&mut self, head: u32, relation: u32, tail: u32) -> Result<f32, ClientError> {
        Ok(self.score_batch(&[(head, relation, tail)])?[0])
    }

    /// `SCORE h r t [h r t ...]` → one score per triple, server-batched.
    fn score_batch(&mut self, triples: &[(u32, u32, u32)]) -> Result<Vec<f32>, ClientError> {
        let payload = self.request_line(&score_line(triples), true)?;
        parse_scores(&payload, triples.len())
    }

    /// `RANK h r k` → up to `k` `(tail, score)` pairs, best first.
    fn rank_tails(
        &mut self,
        head: u32,
        relation: u32,
        k: usize,
    ) -> Result<Vec<(u32, f32)>, ClientError> {
        let payload = self.request_line(&format!("RANK {head} {relation} {k}"), true)?;
        parse_ranked(&payload)
    }

    /// `STATS` → the server's legacy single-line JSON counters.
    fn stats_json(&mut self) -> Result<String, ClientError> {
        self.request_line("STATS", true)
    }

    /// `METRICS` → the server's full metrics-registry JSON.
    fn metrics_json(&mut self) -> Result<String, ClientError> {
        self.request_line("METRICS", true)
    }

    /// `RELOAD <path>` → hot-swap the served bundle. **Not retried**: the
    /// serving layer treats reload as an operator action, and a retry after
    /// an ambiguous failure could re-order with a newer reload.
    fn reload(&mut self, bundle_path: &str) -> Result<(), ClientError> {
        self.request_line(&format!("RELOAD {bundle_path}"), false).map(|_| ())
    }
}

/// A single-endpoint client with timeouts, seeded backoff and a retry
/// budget, multiplexing requests over one cached pipelined [`Session`].
/// For replica sets, use [`crate::FailoverClient`].
#[derive(Debug)]
pub struct Client {
    addr: SocketAddr,
    cfg: ClientConfig,
    backoff: Backoff,
    budget: RetryBudget,
    stats: ClientStats,
    session: Option<Session>,
}

impl Client {
    /// A client for `addr`, recording metrics into the process-global
    /// registry.
    pub fn new(addr: SocketAddr, cfg: ClientConfig) -> Self {
        Self::with_registry(addr, cfg, Arc::clone(rmpi_obs::global()))
    }

    /// A client recording into an explicit registry (tests).
    pub fn with_registry(
        addr: SocketAddr,
        cfg: ClientConfig,
        registry: Arc<MetricsRegistry>,
    ) -> Self {
        Client {
            addr,
            backoff: Backoff::new(cfg.backoff.clone()),
            budget: RetryBudget::new(cfg.budget.clone()),
            stats: ClientStats::with_registry(registry),
            cfg,
            session: None,
        }
    }

    /// The endpoint this client talks to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// This client's metric handles.
    pub fn stats(&self) -> &ClientStats {
        &self.stats
    }
}

/// One attempt over the session cached in `slot`, (re)connecting first if it
/// is absent or dead; the caller stops waiting for the response after `wait`.
/// A transport-level failure empties the slot so the next attempt reconnects
/// — which is how the retry loops double as reconnect loops.
pub(crate) fn attempt_over(
    slot: &mut Option<Session>,
    addr: SocketAddr,
    cfg: &ClientConfig,
    stats: &ClientStats,
    line: &str,
    wait: Duration,
) -> Result<String, ClientError> {
    if !slot.as_ref().is_some_and(Session::is_alive) {
        *slot = Some(Session::connect(addr, cfg)?);
        stats.sessions_opened.inc();
    }
    let result = slot.as_ref().expect("just ensured").request_timeout(line, wait);
    if result.as_ref().is_err_and(is_transport_error) {
        *slot = None;
    }
    result
}

/// Whether an error means the *connection* is suspect (as opposed to a
/// server answer that happened to be an error) — these invalidate a cached
/// session.
pub(crate) fn is_transport_error(e: &ClientError) -> bool {
    matches!(
        e,
        ClientError::Connect(_)
            | ClientError::Io(_)
            | ClientError::TruncatedResponse
            | ClientError::Protocol(_)
            | ClientError::SessionClosed(_)
    )
}

impl ProtocolClient for Client {
    fn request_line(&mut self, line: &str, idempotent: bool) -> Result<String, ClientError> {
        self.stats.requests.inc();
        let t0 = Instant::now();
        let mut attempts: u32 = 1;
        loop {
            let attempt = attempt_over(
                &mut self.session,
                self.addr,
                &self.cfg,
                &self.stats,
                line,
                self.cfg.read_timeout,
            );
            match attempt {
                Ok(payload) => {
                    self.budget.record_success();
                    self.backoff.reset();
                    self.stats.request_latency.record_duration(t0.elapsed());
                    return Ok(payload);
                }
                Err(e) => {
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
                    attempts += 1;
                    std::thread::sleep(self.backoff.next_delay());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn responses_classify_into_payload_server_error_or_protocol_error() {
        assert_eq!(classify_response("OK pong").unwrap(), "pong");
        assert_eq!(classify_response("OK").unwrap(), "");
        let err = classify_response("ERR server overloaded").unwrap_err();
        assert!(matches!(err, ClientError::Server { transient: true, .. }), "{err}");
        let err = classify_response("ERR bad request: nope").unwrap_err();
        assert!(matches!(err, ClientError::Server { transient: false, .. }), "{err}");
        let err = classify_response("banana").unwrap_err();
        assert!(matches!(err, ClientError::Protocol(_)), "{err}");
    }

    #[test]
    fn payload_parsers_round_trip_and_reject_damage() {
        assert_eq!(parse_scores("1.5 -0.25", 2).unwrap(), vec![1.5, -0.25]);
        assert!(parse_scores("1.5", 2).is_err(), "count mismatch is damage");
        assert!(parse_scores("1.5 x", 2).is_err());
        assert_eq!(parse_ranked("3:1.5 9:-0.25").unwrap(), vec![(3, 1.5), (9, -0.25)]);
        assert_eq!(parse_ranked("").unwrap(), vec![]);
        assert!(parse_ranked("3").is_err());
        assert_eq!(score_line(&[(0, 1, 2), (3, 4, 5)]), "SCORE 0 1 2 3 4 5");
    }

    #[test]
    fn dead_endpoint_exhausts_retries_with_budgeted_attempts() {
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let cfg = ClientConfig {
            max_retries: 2,
            backoff: BackoffConfig { base: Duration::from_millis(1), ..BackoffConfig::default() },
            ..ClientConfig::default()
        };
        let registry = Arc::new(MetricsRegistry::new());
        let mut client = Client::with_registry(addr, cfg, registry);
        let err = client.ping().unwrap_err();
        assert!(
            matches!(err, ClientError::RetriesExhausted { attempts: 3, .. }),
            "initial + 2 retries: {err}"
        );
        assert_eq!(client.stats().retries.get(), 2);
        assert_eq!(client.stats().errors.get(), 1);
        assert_eq!(client.stats().requests.get(), 1, "retries are not new logical requests");
    }

    #[test]
    fn non_idempotent_requests_are_never_retried() {
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let registry = Arc::new(MetricsRegistry::new());
        let mut client = Client::with_registry(addr, ClientConfig::default(), registry);
        let err = client.reload("/tmp/whatever.bundle").unwrap_err();
        assert!(matches!(err, ClientError::Connect(_)), "no RetriesExhausted wrapper: {err}");
        assert_eq!(client.stats().retries.get(), 0);
    }
}
