//! Client-side metrics: registry-backed counters mirroring the server's
//! `serve.*` family with a `client.*` family, so one `METRICS`-style dump of
//! the client process shows what the retry layer is doing.

use rmpi_obs::{Counter, Histogram, MetricsRegistry};

/// Counter handles of a [`FailoverClient`](crate::FailoverClient). Clones
/// share storage.
#[derive(Clone, Debug)]
pub struct ClientStats {
    /// `client.requests.count` — logical requests issued (retries excluded).
    pub requests: Counter,
    /// `client.retries.count` — retry attempts after a retryable failure.
    pub retries: Counter,
    /// `client.failovers.count` — requests redirected to a different
    /// endpoint than the previous one.
    pub failovers: Counter,
    /// `client.breaker_open.count` — circuit-breaker trip events
    /// (Closed→Open or a failed half-open probe).
    pub breaker_open: Counter,
    /// `client.errors.count` — logical requests that ultimately failed.
    pub errors: Counter,
    /// `client.request.us` — end-to-end latency of successful logical
    /// requests, retries and backoff included.
    pub(crate) request_latency: Histogram,
    /// `client.sessions.count` — pipelined sessions opened (a low number
    /// relative to requests means connection reuse is working).
    pub sessions_opened: Counter,
}

impl ClientStats {
    /// Handles into the process-global registry.
    fn new() -> Self {
        Self::with_registry(rmpi_obs::global())
    }

    /// Handles into an explicit registry (tests pass a fresh one).
    pub(crate) fn with_registry(registry: &MetricsRegistry) -> Self {
        ClientStats {
            requests: registry.counter("client.requests.count"),
            retries: registry.counter("client.retries.count"),
            failovers: registry.counter("client.failovers.count"),
            breaker_open: registry.counter("client.breaker_open.count"),
            errors: registry.counter("client.errors.count"),
            request_latency: registry.histogram("client.request.us"),
            sessions_opened: registry.counter("client.sessions.count"),
        }
    }
}

impl Default for ClientStats {
    fn default() -> Self {
        ClientStats::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_register_under_client_names() {
        let registry = MetricsRegistry::new();
        let stats = ClientStats::with_registry(&registry);
        stats.retries.inc();
        stats.failovers.add(2);
        let dump = registry.to_json();
        for name in [
            "\"client.requests.count\": 0",
            "\"client.retries.count\": 1",
            "\"client.failovers.count\": 2",
            "\"client.breaker_open.count\": 0",
            "\"client.errors.count\": 0",
            "\"client.sessions.count\": 0",
            "\"client.request.us\"",
        ] {
            assert!(dump.contains(name), "missing {name} in {dump}");
        }
    }
}
