//! Scoped worker pool with static sharding and panic isolation.
//!
//! Built on `std::thread::scope` only: workers borrow the caller's data
//! (models, graphs, parameter stores) immutably, run a contiguous shard of
//! the index space, and write results into disjoint slices of one output
//! vector — no channels, no locks, no work stealing. Static sharding keeps
//! the assignment deterministic, and because all randomness is derived per
//! *index* (see [`crate::mix_seed`]) rather than per worker, results do not
//! depend on the thread count at all.
//!
//! # Panic isolation
//!
//! Every worker closure runs under `catch_unwind`: a panicking task can
//! never detach a thread, abort the process through a poisoned scope, or
//! wedge the caller. The fallible entry points ([`ThreadPool::try_map_init`]
//! / [`ThreadPool::try_map_indexed`]) surface the first panic as a typed
//! [`PoolError`] — every worker still runs its shard to completion or its
//! own panic, and all threads are joined before the error returns. The
//! infallible `map_*` wrappers re-raise the panic on the calling thread,
//! preserving the pre-isolation contract for callers that treat a panic as
//! a bug. The pool itself carries no state that a panic could poison, so it
//! remains fully usable after any failure.

use crate::resolve_threads;
use rmpi_obs::{Counter, Gauge, Histogram};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Handles into the global metrics registry, resolved once per process so
/// the per-map cost is a few relaxed atomic ops, not a name lookup.
struct PoolMetrics {
    /// `pool.maps.count` — parallel map invocations.
    maps: Counter,
    /// `pool.items.count` — total items fanned out across all maps.
    items: Counter,
    /// `pool.panics.count` — worker shard panics caught and surfaced.
    panics: Counter,
    /// `pool.shard_busy.us` — wall-clock busy time of each worker shard.
    shard_busy: Histogram,
    /// `pool.workers.count` — workers used by the most recent map.
    workers: Gauge,
}

fn pool_metrics() -> &'static PoolMetrics {
    static METRICS: OnceLock<PoolMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = rmpi_obs::global();
        PoolMetrics {
            maps: reg.counter("pool.maps.count"),
            items: reg.counter("pool.items.count"),
            panics: reg.counter("pool.panics.count"),
            shard_busy: reg.histogram("pool.shard_busy.us"),
            workers: reg.gauge("pool.workers.count"),
        }
    })
}

/// Typed failure from a parallel map: a worker closure panicked.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PoolError {
    /// A worker panicked while processing `index`; `message` is the panic
    /// payload (when it was a string).
    WorkerPanicked {
        /// The item index whose closure panicked.
        index: usize,
        /// The panic payload, stringified.
        message: String,
    },
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::WorkerPanicked { index, message } => {
                write!(f, "worker panicked at item {index}: {message}")
            }
        }
    }
}

impl std::error::Error for PoolError {}

/// Render a `catch_unwind` payload as text (panics carry `&str` or `String`
/// almost always; anything else gets a placeholder).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Failpoint consulted once per worker shard (arm with `panic(..)` or
/// `delay(..)` via `rmpi-testutil` to fault-inject workers).
pub const SHARD_FAILPOINT: &str = "pool::shard";

/// A lightweight handle describing how many workers parallel maps may use.
///
/// The pool is cheap to construct and copy; threads are spawned per call via
/// `std::thread::scope` (scoped threads borrow non-`'static` data, which is
/// what lets workers share `&ParamStore` / `&KnowledgeGraph` directly).
#[derive(Clone, Copy, Debug)]
pub struct ThreadPool {
    workers: usize,
}

impl ThreadPool {
    /// A pool with `threads` workers (`0` = one per available core).
    pub fn new(threads: usize) -> Self {
        ThreadPool { workers: resolve_threads(threads).max(1) }
    }

    /// A single-worker pool (runs everything inline).
    pub fn sequential() -> Self {
        ThreadPool { workers: 1 }
    }

    /// Map `f` over `0..n`, returning results in index order.
    ///
    /// Work is split into at most `workers` contiguous shards. `f` must be
    /// deterministic in its index argument for thread-count invariance.
    /// Panics in `f` are re-raised on the calling thread after every worker
    /// has been joined; use [`ThreadPool::try_map_indexed`] for a typed
    /// error instead.
    pub fn map_indexed<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.map_init(n, || (), |(), i| f(i))
    }

    /// Panic-isolating variant of [`ThreadPool::map_indexed`].
    pub fn try_map_indexed<T, F>(&self, n: usize, f: F) -> Result<Vec<T>, PoolError>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.try_map_init(n, || (), |(), i| f(i))
    }

    /// Map with per-worker scratch state: `init` runs once per worker and the
    /// resulting state is reused across that worker's whole shard.
    ///
    /// This is what lets each worker reuse one `Tape`-like arena for a
    /// whole batch instead of reallocating per sample. Results still come
    /// back in index order and must not depend on how indices were sharded.
    /// Panics in `init`/`f` are re-raised on the calling thread after every
    /// worker has been joined.
    fn map_init<T, S, I, F>(&self, n: usize, init: I, f: F) -> Vec<T>
    where
        T: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> T + Sync,
    {
        match self.try_map_init(n, init, f) {
            Ok(out) => out,
            Err(PoolError::WorkerPanicked { index, message }) => {
                panic!("pool worker panicked at item {index}: {message}")
            }
        }
    }

    /// Map with per-worker scratch state (`init` runs once per worker and its
    /// state is reused across that worker's shard), isolating panics: a panic
    /// in any worker closure is caught, all threads are joined, and the first
    /// panic (by item index) is reported as a [`PoolError`]. Other workers'
    /// results are discarded, so a retry starts from a clean slate.
    pub fn try_map_init<T, S, I, F>(&self, n: usize, init: I, f: F) -> Result<Vec<T>, PoolError>
    where
        T: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> T + Sync,
    {
        if n == 0 {
            return Ok(Vec::new());
        }
        let workers = self.workers.min(n);
        let metrics = pool_metrics();
        metrics.maps.inc();
        metrics.items.add(n as u64);
        metrics.workers.set(workers as i64);
        // collects (item index, panic message) per panicking worker
        let panics: Mutex<Vec<(usize, String)>> = Mutex::new(Vec::new());

        let run_shard = |slots: &mut [Option<T>], base: usize| {
            let shard_start = Instant::now();
            let caught = catch_unwind(AssertUnwindSafe(|| {
                rmpi_testutil::failpoint::point(SHARD_FAILPOINT);
                let mut state = init();
                for (offset, slot) in slots.iter_mut().enumerate() {
                    // record progress before calling f so a panic is
                    // attributed to the exact item
                    *slot = Some(f(&mut state, base + offset));
                }
            }));
            metrics.shard_busy.record_duration(shard_start.elapsed());
            if let Err(payload) = caught {
                metrics.panics.inc();
                // the first None slot is the item that panicked
                let at = slots.iter().position(Option::is_none).unwrap_or(0);
                panics
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .push((base + at, panic_message(payload.as_ref())));
            }
        };

        let mut out: Vec<Option<T>> = Vec::with_capacity(n);
        out.resize_with(n, || None);
        if workers <= 1 {
            run_shard(&mut out, 0);
        } else {
            let chunk = n.div_ceil(workers);
            std::thread::scope(|scope| {
                for (shard, slots) in out.chunks_mut(chunk).enumerate() {
                    let run_shard = &run_shard;
                    scope.spawn(move || run_shard(slots, shard * chunk));
                }
            });
        }

        let mut panics = panics.into_inner().unwrap_or_else(|p| p.into_inner());
        if let Some((index, message)) = panics.drain(..).min_by_key(|(i, _)| *i) {
            return Err(PoolError::WorkerPanicked { index, message });
        }
        Ok(out.into_iter().map(|slot| slot.expect("pool worker filled every slot")).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        for threads in [1, 2, 3, 4, 7] {
            let pool = ThreadPool::new(threads);
            let out = pool.map_indexed(23, |i| i * i);
            assert_eq!(out, (0..23).map(|i| i * i).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let pool = ThreadPool::new(4);
        assert!(pool.map_indexed(0, |i| i).is_empty());
        assert_eq!(pool.map_indexed(1, |i| i + 10), vec![10]);
        assert_eq!(pool.map_indexed(3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn init_state_is_per_worker_and_reused() {
        let pool = ThreadPool::new(2);
        // each worker counts how many items it processed via its own state
        let out = pool.map_init(
            10,
            || 0usize,
            |count, i| {
                *count += 1;
                (i, *count)
            },
        );
        // indices are intact and each worker's counter increments within its shard
        for (idx, (i, c)) in out.iter().enumerate() {
            assert_eq!(*i, idx);
            assert!(*c >= 1 && *c <= 10);
        }
        let total: usize = out.iter().filter(|(_, c)| *c == 1).count();
        assert_eq!(total, 2, "exactly one state reset per worker");
    }

    #[test]
    fn workers_capped_by_items() {
        let pool = ThreadPool::new(16);
        assert_eq!(pool.workers, 16);
        let out = pool.map_indexed(2, |i| i);
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn zero_resolves_to_available_cores() {
        assert!(ThreadPool::new(0).workers >= 1);
        assert_eq!(ThreadPool::sequential().workers, 1);
    }

    #[test]
    fn panicking_item_becomes_typed_error_and_pool_stays_usable() {
        for threads in [1, 2, 4] {
            let pool = ThreadPool::new(threads);
            let err = pool
                .try_map_indexed(17, |i| {
                    if i == 11 {
                        panic!("shard bomb");
                    }
                    i
                })
                .unwrap_err();
            match &err {
                PoolError::WorkerPanicked { index, message } => {
                    assert_eq!(*index, 11, "threads={threads}");
                    assert!(message.contains("shard bomb"), "{message}");
                }
            }
            assert!(err.to_string().contains("item 11"), "{err}");
            // the pool is stateless w.r.t. failures: the very next map works
            let out = pool.try_map_indexed(5, |i| i * 2).unwrap();
            assert_eq!(out, vec![0, 2, 4, 6, 8], "pool must stay usable after a panic");
        }
    }

    #[test]
    fn earliest_panicking_index_wins_across_shards() {
        let pool = ThreadPool::new(4);
        let err = pool
            .try_map_indexed(16, |i| {
                if i % 5 == 4 {
                    panic!("boom {i}");
                }
                i
            })
            .unwrap_err();
        let PoolError::WorkerPanicked { index, .. } = err;
        assert_eq!(index, 4, "the lowest panicking item index must be reported");
    }

    #[test]
    fn map_init_panic_propagates_on_infallible_path() {
        let pool = ThreadPool::new(2);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.map_indexed(6, |i| if i == 3 { panic!("legacy contract") } else { i })
        }));
        let msg = panic_message(caught.unwrap_err().as_ref());
        assert!(msg.contains("legacy contract"), "{msg}");
        // ...and the pool is still fine afterwards
        assert_eq!(pool.map_indexed(2, |i| i), vec![0, 1]);
    }

    #[test]
    fn pool_records_map_metrics_into_global_registry() {
        // lower bounds on deltas: the counters are process-global and the
        // other tests of this binary drive pools at the same time
        let maps_before = pool_metrics().maps.get();
        let items_before = pool_metrics().items.get();
        let busy_before = pool_metrics().shard_busy.count();
        let pool = ThreadPool::new(3);
        pool.map_indexed(12, |i| i);
        assert!(pool_metrics().maps.get() > maps_before, "the map was counted");
        assert!(pool_metrics().items.get() >= items_before + 12, "its 12 items were counted");
        assert!(pool_metrics().shard_busy.count() >= busy_before + 3, "3 shards were timed");
        assert!(rmpi_obs::global().contains("pool.workers.count"));
    }

    #[test]
    fn pool_counts_caught_panics() {
        let before = pool_metrics().panics.get();
        let pool = ThreadPool::new(2);
        let _ = pool.try_map_indexed(8, |i| if i == 5 { panic!("bomb") } else { i });
        assert!(pool_metrics().panics.get() > before);
    }

    #[test]
    fn registry_survives_hammering_from_pool_workers() {
        // concurrency smoke test: every worker creates and records metrics
        // through the registry at once; nothing is lost or deadlocked
        let reg = std::sync::Arc::new(rmpi_obs::MetricsRegistry::new());
        let pool = ThreadPool::new(4);
        let n = 400;
        pool.map_indexed(n, |i| {
            let c = reg.counter("smoke.events.count");
            let h = reg.histogram("smoke.lat.us");
            let g = reg.gauge("smoke.depth.count");
            c.inc();
            h.record(i as u64);
            g.set(i as i64);
        });
        assert_eq!(reg.counter("smoke.events.count").get(), n as u64);
        let s = reg.histogram("smoke.lat.us").summary();
        assert_eq!(s.count, n as u64);
        assert_eq!(s.max, (n - 1) as u64);
        assert_eq!(s.sum, (0..n as u64).sum::<u64>());
        let json = reg.to_json();
        assert!(json.contains("\"smoke.events.count\": 400"), "{json}");
    }
}
