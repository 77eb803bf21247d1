//! `rmpi-obs` — the workspace's observability layer, std-only.
//!
//! Every long-running subsystem (trainer, worker pool, subgraph cache,
//! serving engine, TCP front end) records into one [`MetricsRegistry`]:
//!
//! * [`Counter`] — monotone relaxed-atomic event counts;
//! * [`Gauge`] — last-value instruments (queue depth, cache entries);
//! * [`Histogram`] — fixed-bucket latency distributions with `p50`/`p90`/
//!   `p99` summaries, safe to hammer from any number of threads. Timed
//!   sites measure with `std::time::Instant` and record the elapsed time
//!   with [`Histogram::record_duration`].
//!
//! [`MetricsRegistry::to_json`] renders the registry as the single-line
//! JSON object the `METRICS` verb returns.
//!
//! # Naming scheme
//!
//! Metric names follow `subsystem.metric.unit` — e.g. `trainer.forward.us`,
//! `pool.items.count`, `serve.queue_wait.us`. Units: `us` (microseconds,
//! histograms), `count` (counters/gauges). See `DESIGN.md` §10.
//!
//! # Overhead contract
//!
//! Recording is a handful of relaxed atomic operations — no locks on the hot
//! path (the registry's lock is only taken when a handle is first created).
//! Instrumented hot loops cache their handles up front, so per-sample cost
//! stays in the tens of nanoseconds against millisecond-scale forward
//! passes (budget: < 3% on `train_epoch_parallel`).
//!
//! # Determinism
//!
//! Metrics observe; they never feed back into computation. Training remains
//! bit-identical across thread counts with instrumentation on.

#![warn(missing_docs)]

mod json;
pub(crate) mod metrics;

pub use metrics::{global, Counter, Gauge, Histogram, HistogramSummary, MetricsRegistry};

/// Record a failed **directory** fsync after an atomic rename-publish.
///
/// The rename itself succeeded, so callers keep going — but without the
/// directory fsync the rename is not guaranteed durable across power loss,
/// and silently dropping the error (`let _ = d.sync_all()`) hides exactly
/// the durability regressions a crash-safe artifact pipeline exists to
/// prevent. Every occurrence bumps the `io.dir_fsync_failures.count`
/// counter on the global registry; the first occurrence per process is also
/// logged to stderr.
pub fn note_dir_fsync_failure(dir: &std::path::Path, err: &std::io::Error) {
    global().counter("io.dir_fsync_failures.count").inc();
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        eprintln!(
            "warning: fsync of directory {} failed after rename: {err} \
             (the publish completed but may not survive power loss; \
             further occurrences are counted in io.dir_fsync_failures)",
            dir.display()
        );
    });
}
