//! Serving metrics: registry-backed counters and latency histograms shared
//! by the engine and the TCP front end.
//!
//! Each [`ServeStats`] is a bundle of handles into one
//! [`MetricsRegistry`] — by default the process-global registry, so a
//! `METRICS` dump shows serving counters next to trainer, pool and cache
//! metrics. Recording stays what it always was on the hot path: a handful of
//! relaxed atomic operations, never a lock. There is no second rendering:
//! every handle here is read through `METRICS` under its registry name.

use rmpi_obs::{Counter, Histogram, MetricsRegistry};
use std::sync::Arc;
use std::time::Duration;

/// Counters and histograms shared by the engine and the TCP front end. The
/// front end's counters are the line server's own
/// ([`crate::LineStats`] under the `serve` prefix); the ones
/// callers read through [`crate::Engine::stats`] are mirrored here by name.
/// Clones share the same underlying storage.
#[derive(Clone, Debug)]
pub struct ServeStats {
    registry: Arc<MetricsRegistry>,
    /// `serve.scores.count` — individual triple scores computed.
    pub(crate) scores: Counter,
    /// `serve.score_requests.count` — `score`/`score_batch` engine calls.
    pub(crate) score_requests: Counter,
    /// `serve.rank_requests.count` — `rank_tails` engine calls.
    pub(crate) rank_requests: Counter,
    /// `serve.rejected_overload.count` — connections shed at a full queue.
    pub rejected_overload: Counter,
    /// `serve.rejected_deadline.count` — requests shed after queue-wait
    /// exceeded the deadline.
    pub rejected_deadline: Counter,
    /// `serve.reloads.count` — successful hot bundle reloads.
    pub reloads: Counter,
    /// `serve.reload_failures.count` — reloads rejected before the swap.
    pub reload_failures: Counter,
    /// `serve.internal_errors.count` — panicking requests answered
    /// `ERR internal`.
    pub internal_errors: Counter,
    /// `serve.degraded_rejects.count` — requests answered `ERR degraded`
    /// because they needed fresh disk reads from a corrupt store.
    pub(crate) degraded_rejects: Counter,
    /// `serve.rejected_conn_limit.count` — connections shed at the
    /// concurrent-connection cap.
    pub rejected_conn_limit: Counter,
    /// `serve.score.us` — per-call scoring latency (`score`/`score_batch`).
    pub(crate) score_latency: Histogram,
    /// `serve.rank.us` — per-call ranking latency.
    pub(crate) rank_latency: Histogram,
}

impl ServeStats {
    /// Handles into the process-global registry (production default: one
    /// `METRICS` dump covers every subsystem).
    fn new() -> Self {
        Self::with_registry(Arc::clone(rmpi_obs::global()))
    }

    /// Handles into an explicit registry — tests pass a fresh one so
    /// per-engine counts stay exact under concurrent test execution.
    pub(crate) fn with_registry(registry: Arc<MetricsRegistry>) -> Self {
        ServeStats {
            scores: registry.counter("serve.scores.count"),
            score_requests: registry.counter("serve.score_requests.count"),
            rank_requests: registry.counter("serve.rank_requests.count"),
            rejected_overload: registry.counter("serve.rejected_overload.count"),
            rejected_deadline: registry.counter("serve.rejected_deadline.count"),
            reloads: registry.counter("serve.reloads.count"),
            reload_failures: registry.counter("serve.reload_failures.count"),
            internal_errors: registry.counter("serve.internal_errors.count"),
            degraded_rejects: registry.counter("serve.degraded_rejects.count"),
            rejected_conn_limit: registry.counter("serve.rejected_conn_limit.count"),
            score_latency: registry.histogram("serve.score.us"),
            rank_latency: registry.histogram("serve.rank.us"),
            registry,
        }
    }

    /// The registry these handles record into.
    pub(crate) fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Record one `score`/`score_batch` engine call that scored `scored`
    /// triples in `elapsed`.
    pub(crate) fn record_score_call(&self, scored: u64, elapsed: Duration) {
        self.score_requests.inc();
        self.scores.add(scored);
        self.score_latency.record_duration(elapsed);
    }

    /// Record one `rank_tails` engine call that scored `scored` candidates
    /// in `elapsed`.
    pub(crate) fn record_rank_call(&self, scored: u64, elapsed: Duration) {
        self.rank_requests.inc();
        self.scores.add(scored);
        self.rank_latency.record_duration(elapsed);
    }
}

impl Default for ServeStats {
    fn default() -> Self {
        ServeStats::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> ServeStats {
        ServeStats::with_registry(Arc::new(MetricsRegistry::new()))
    }

    #[test]
    fn record_accumulates_and_tracks_max() {
        let s = fresh();
        s.record_score_call(3, Duration::from_micros(100));
        s.record_score_call(1, Duration::from_micros(50));
        assert_eq!(s.scores.get(), 4);
        assert_eq!(s.score_requests.get(), 2);
        assert_eq!(s.score_latency.sum(), 150);
        assert_eq!(s.score_latency.max(), 100);
    }

    #[test]
    fn clones_share_storage_and_registry_sees_metrics() {
        let s = fresh();
        let clone = s.clone();
        clone.scores.inc();
        assert_eq!(s.scores.get(), 1);
        let dump = s.registry().to_json();
        assert!(dump.contains("\"serve.scores.count\": 1"), "{dump}");
        assert!(dump.contains("\"serve.score.us\""), "{dump}");
    }
}
