//! Serving metrics: registry-backed counters and latency histograms shared
//! by the engine and the TCP front end.
//!
//! Each [`ServeStats`] is a bundle of handles into one
//! [`MetricsRegistry`] — by default the process-global registry, so a
//! `METRICS` dump shows serving counters next to trainer, pool and cache
//! metrics. Recording stays what it always was on the hot path: a handful of
//! relaxed atomic operations, never a lock. The legacy `STATS` JSON wire
//! shape is preserved byte for byte by [`ServeStats::to_json`], now routed
//! through the shared [`rmpi_obs::json`] writer.

use rmpi_obs::json::JsonObject;
use rmpi_obs::{Counter, Histogram, MetricsRegistry};
use std::sync::Arc;
use std::time::Duration;

/// Counters and histograms shared by the engine and the TCP front end. The
/// front end's counters are the line server's own
/// ([`crate::lineserver::LineStats`] under the `serve` prefix); the ones the
/// legacy `STATS` payload reports are mirrored here by name. Clones share
/// the same underlying storage.
#[derive(Clone, Debug)]
pub struct ServeStats {
    registry: Arc<MetricsRegistry>,
    /// `serve.scores.count` — individual triple scores computed.
    pub scores: Counter,
    /// `serve.score_requests.count` — `score`/`score_batch` engine calls.
    pub score_requests: Counter,
    /// `serve.rank_requests.count` — `rank_tails` engine calls.
    pub rank_requests: Counter,
    /// `serve.wire_requests.count` — protocol requests answered.
    pub wire_requests: Counter,
    /// `serve.rejected_overload.count` — connections shed at a full queue.
    pub rejected_overload: Counter,
    /// `serve.rejected_deadline.count` — requests shed after queue-wait
    /// exceeded the deadline.
    pub rejected_deadline: Counter,
    /// `serve.bad_requests.count` — malformed lines answered `ERR`.
    pub bad_requests: Counter,
    /// `serve.reloads.count` — successful hot bundle reloads.
    pub reloads: Counter,
    /// `serve.reload_failures.count` — reloads rejected before the swap.
    pub reload_failures: Counter,
    /// `serve.internal_errors.count` — panicking requests answered
    /// `ERR internal`.
    pub internal_errors: Counter,
    /// `serve.degraded_rejects.count` — requests answered `ERR degraded`
    /// because they needed fresh disk reads from a corrupt store.
    pub degraded_rejects: Counter,
    /// `serve.rejected_overlong.count` — request lines over the configured
    /// byte cap, answered `ERR request too long` and disconnected.
    pub rejected_overlong: Counter,
    /// `serve.idle_closed.count` — connections closed because the peer sent
    /// nothing for the idle timeout.
    pub idle_closed: Counter,
    /// `serve.rejected_conn_limit.count` — connections shed at the
    /// concurrent-connection cap.
    pub rejected_conn_limit: Counter,
    /// `serve.score.us` — per-call scoring latency (`score`/`score_batch`).
    pub score_latency: Histogram,
    /// `serve.rank.us` — per-call ranking latency.
    pub rank_latency: Histogram,
}

impl ServeStats {
    /// Handles into the process-global registry (production default: one
    /// `METRICS` dump covers every subsystem).
    pub fn new() -> Self {
        Self::with_registry(Arc::clone(rmpi_obs::global()))
    }

    /// Handles into an explicit registry — tests pass a fresh one so
    /// per-engine counts stay exact under concurrent test execution.
    pub fn with_registry(registry: Arc<MetricsRegistry>) -> Self {
        ServeStats {
            scores: registry.counter("serve.scores.count"),
            score_requests: registry.counter("serve.score_requests.count"),
            rank_requests: registry.counter("serve.rank_requests.count"),
            wire_requests: registry.counter("serve.wire_requests.count"),
            rejected_overload: registry.counter("serve.rejected_overload.count"),
            rejected_deadline: registry.counter("serve.rejected_deadline.count"),
            bad_requests: registry.counter("serve.bad_requests.count"),
            reloads: registry.counter("serve.reloads.count"),
            reload_failures: registry.counter("serve.reload_failures.count"),
            internal_errors: registry.counter("serve.internal_errors.count"),
            degraded_rejects: registry.counter("serve.degraded_rejects.count"),
            rejected_overlong: registry.counter("serve.rejected_overlong.count"),
            idle_closed: registry.counter("serve.idle_closed.count"),
            rejected_conn_limit: registry.counter("serve.rejected_conn_limit.count"),
            score_latency: registry.histogram("serve.score.us"),
            rank_latency: registry.histogram("serve.rank.us"),
            registry,
        }
    }

    /// The registry these handles record into.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Record one `score`/`score_batch` engine call that scored `scored`
    /// triples in `elapsed`.
    pub fn record_score_call(&self, scored: u64, elapsed: Duration) {
        self.score_requests.inc();
        self.scores.add(scored);
        self.score_latency.record_duration(elapsed);
    }

    /// Record one `rank_tails` engine call that scored `scored` candidates
    /// in `elapsed`.
    pub fn record_rank_call(&self, scored: u64, elapsed: Duration) {
        self.rank_requests.inc();
        self.scores.add(scored);
        self.rank_latency.record_duration(elapsed);
    }

    /// Render every counter (plus derived means and cache state) as one JSON
    /// object — the `STATS` wire payload, identical in shape to what the
    /// pre-registry implementation emitted plus the engine's sticky
    /// `degraded` flag (so fleet monitors scraping `STATS` see degradation
    /// without a second `HEALTH` round trip). `cache_hits`/`cache_misses`/
    /// `cache_len` come from the engine's cache, which lives behind its own
    /// lock; `degraded` from the engine's store-failure state.
    pub fn to_json(
        &self,
        cache_hits: u64,
        cache_misses: u64,
        cache_len: usize,
        degraded: bool,
    ) -> String {
        let score = self.score_latency.summary();
        let rank = self.rank_latency.summary();
        let calls = score.count + rank.count;
        let sum_us = score.sum + rank.sum;
        let mean_us = if calls > 0 { sum_us as f64 / calls as f64 } else { 0.0 };
        let lookups = cache_hits + cache_misses;
        let hit_rate = if lookups > 0 { cache_hits as f64 / lookups as f64 } else { 0.0 };
        let mut o = JsonObject::new();
        o.field_u64("scores", self.scores.get());
        o.field_u64("score_requests", self.score_requests.get());
        o.field_u64("rank_requests", self.rank_requests.get());
        o.field_u64("wire_requests", self.wire_requests.get());
        o.field_u64("rejected_overload", self.rejected_overload.get());
        o.field_u64("rejected_deadline", self.rejected_deadline.get());
        o.field_u64("bad_requests", self.bad_requests.get());
        o.field_u64("reloads", self.reloads.get());
        o.field_u64("reload_failures", self.reload_failures.get());
        o.field_u64("internal_errors", self.internal_errors.get());
        o.field_u64("degraded_rejects", self.degraded_rejects.get());
        o.field_bool("degraded", degraded);
        o.field_u64("rejected_overlong", self.rejected_overlong.get());
        o.field_u64("idle_closed", self.idle_closed.get());
        o.field_u64("rejected_conn_limit", self.rejected_conn_limit.get());
        o.field_u64("latency_us_sum", sum_us);
        o.field_u64("latency_us_max", score.max.max(rank.max));
        o.field_f64("latency_us_mean", mean_us, 1);
        o.field_u64("cache_hits", cache_hits);
        o.field_u64("cache_misses", cache_misses);
        o.field_f64("cache_hit_rate", hit_rate, 4);
        o.field_u64("cache_len", cache_len as u64);
        o.finish()
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
    fn json_has_every_field_and_derived_rates() {
        let s = fresh();
        s.record_rank_call(10, Duration::from_micros(200));
        let json = s.to_json(3, 1, 2, false);
        for field in [
            "\"scores\": 10",
            "\"rank_requests\": 1",
            "\"degraded\": false",
            "\"cache_hits\": 3",
            "\"cache_misses\": 1",
            "\"cache_hit_rate\": 0.7500",
            "\"cache_len\": 2",
            "\"latency_us_mean\": 200.0",
            "\"latency_us_sum\": 200",
            "\"latency_us_max\": 200",
            "\"reloads\": 0",
            "\"reload_failures\": 0",
            "\"internal_errors\": 0",
            "\"rejected_overlong\": 0",
            "\"idle_closed\": 0",
            "\"rejected_conn_limit\": 0",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(!json.contains('\n'), "stats JSON must be a single line for the wire protocol");
    }

    #[test]
    fn empty_stats_have_zero_rates() {
        let json = fresh().to_json(0, 0, 0, false);
        assert!(json.contains("\"cache_hit_rate\": 0.0000"));
        assert!(json.contains("\"latency_us_mean\": 0.0"));
    }

    #[test]
    fn degraded_flag_is_surfaced_in_stats_json() {
        assert!(fresh().to_json(0, 0, 0, true).contains("\"degraded\": true"));
        assert!(fresh().to_json(0, 0, 0, false).contains("\"degraded\": false"));
    }

    #[test]
    fn clones_share_storage_and_registry_sees_metrics() {
        let s = fresh();
        let clone = s.clone();
        clone.wire_requests.inc();
        assert_eq!(s.wire_requests.get(), 1);
        let dump = s.registry().to_json();
        assert!(dump.contains("\"serve.wire_requests.count\": 1"), "{dump}");
        assert!(dump.contains("\"serve.score.us\""), "{dump}");
    }
}
