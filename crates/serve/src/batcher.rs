//! The cross-connection dynamic micro-batcher: coalesces concurrent
//! `SCORE`/`RANK` requests into single [`Engine::run_batch`] calls.
//!
//! # Why
//!
//! The engine's batched scoring path (one pool fan-out amortising tape and
//! extraction scratch over many targets) sits idle when every wire request
//! carries one triple: each request pays a full engine round trip. Because
//! scoring is entity-independent — a target's score depends only on
//! `(graph, target, seed)`, never on batch-mates — requests from unrelated
//! connections can legally share one batch. The batcher exploits that: it
//! queues incoming items and flushes them together, trading a bounded wait
//! (the *batching window*) for much better per-score cost under concurrency.
//!
//! # State machine
//!
//! One dedicated thread runs a three-state loop:
//!
//! ```text
//!            +--------- idle: queue empty, wait on condvar ----------+
//!            |                                                       |
//!   item arrives                                        flush returns, queue empty
//!            v                                                       |
//!  collecting: deadline = first item's enqueue time + window         |
//!      take items while the flat-target budget (max_batch) allows;   |
//!      wait_timeout(deadline) for more                               |
//!            |                                                       |
//!   deadline reached OR budget filled OR shutdown                    |
//!            v                                                       |
//!        flushing: one Engine::run_batch for the whole batch --------+
//!                  deliver each item's own Result to its responder
//! ```
//!
//! The deadline is anchored to the **first** waiting item, so a lone request
//! waits at most `window` — load below the coalescing threshold pays the
//! window once, never repeatedly. A batch whose flat-target cost (scores
//! count one per triple, ranks one per ranking candidate) would exceed
//! `max_batch` flushes early; a single oversized item still goes through,
//! alone. Shutdown drains the queue — every queued item is flushed and
//! answered before the thread exits, and late submissions are answered with
//! a typed error instead of hanging.
//!
//! Every flush records the number of coalesced requests
//! (`serve.batch_size.count`) and each item's queue time
//! (`serve.batch_wait.us`) — the observable evidence that dynamic batching
//! is actually happening under load.

use crate::engine::{BatchItem, BatchOutcome, Engine};
use crate::error::ServeError;
use rmpi_runtime::panic_message;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Micro-batcher knobs.
#[derive(Clone, Copy, Debug)]
pub struct BatchConfig {
    /// How long the first item of a batch may wait for company before the
    /// batch flushes. The per-request latency floor under light load.
    pub(crate) window: Duration,
    /// Flat-target budget per flush (scores count one per triple, ranks one
    /// per ranking candidate): a full batch flushes before its deadline.
    pub(crate) max_batch: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig { window: Duration::from_millis(1), max_batch: 256 }
    }
}

/// How a finished item's result leaves the batcher. Runs on the batcher
/// thread, so it must not block: send on a channel, don't write a socket.
pub(crate) type Responder = Box<dyn FnOnce(Result<BatchOutcome, ServeError>) + Send + 'static>;

struct Pending {
    item: BatchItem,
    responder: Responder,
    enqueued: Instant,
    /// Caller-supplied deadline (the wire `DEADLINE <ms>` hint): the batch
    /// holding this item flushes no later than this instant, and an item
    /// still queued past it is answered `ERR deadline expired` instead of
    /// being scored late.
    deadline: Option<Instant>,
}

#[derive(Default)]
struct Queue {
    pending: VecDeque<Pending>,
    shutdown: bool,
}

struct Inner {
    engine: Arc<Engine>,
    cfg: BatchConfig,
    queue: Mutex<Queue>,
    available: Condvar,
    batch_size: rmpi_obs::Histogram,
    batch_wait: rmpi_obs::Histogram,
    flushes: rmpi_obs::Counter,
}

/// Handle to the batching thread. Dropping it (or calling
/// `Batcher::shutdown`) drains and answers every queued item, then joins
/// the thread.
pub struct Batcher {
    inner: Arc<Inner>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl Batcher {
    /// Spawn the batching thread over `engine`.
    pub fn new(engine: Arc<Engine>, cfg: BatchConfig) -> Self {
        let registry = engine.stats().registry();
        let inner = Arc::new(Inner {
            batch_size: registry.histogram("serve.batch_size.count"),
            batch_wait: registry.histogram("serve.batch_wait.us"),
            flushes: registry.counter("serve.batch_flushes.count"),
            engine,
            cfg: BatchConfig { max_batch: cfg.max_batch.max(1), ..cfg },
            queue: Mutex::new(Queue::default()),
            available: Condvar::new(),
        });
        let run_inner = Arc::clone(&inner);
        let thread = std::thread::Builder::new()
            .name("rmpi-batcher".into())
            .spawn(move || run(&run_inner))
            .expect("spawn batcher thread");
        Batcher { inner, thread: Mutex::new(Some(thread)) }
    }

    /// Enqueue one item; `responder` is called exactly once with its result
    /// — possibly before `submit` returns (after shutdown), usually from the
    /// batcher thread after a flush.
    fn submit(
        &self,
        item: BatchItem,
        responder: impl FnOnce(Result<BatchOutcome, ServeError>) + Send + 'static,
    ) {
        self.submit_with_deadline(item, None, responder);
    }

    /// [`Batcher::submit`] with an optional deadline: the open window is
    /// tightened so the batch flushes no later than the earliest deadline
    /// it holds, and an item that is still *queued* (not yet collected)
    /// when its deadline passes is answered `ERR deadline expired` rather
    /// than scored late. This is the engine side of the wire `DEADLINE`
    /// hint.
    pub(crate) fn submit_with_deadline(
        &self,
        item: BatchItem,
        deadline: Option<Instant>,
        responder: impl FnOnce(Result<BatchOutcome, ServeError>) + Send + 'static,
    ) {
        let responder: Responder = Box::new(responder);
        {
            let mut q = self.inner.queue.lock().expect("batcher queue");
            if !q.shutdown {
                q.pending.push_back(Pending {
                    item,
                    responder,
                    enqueued: Instant::now(),
                    deadline,
                });
                drop(q);
                self.inner.available.notify_one();
                return;
            }
        }
        responder(Err(ServeError::Internal("batcher is shut down".into())));
    }

    /// Enqueue one item and block until its flush delivers the result —
    /// the v1 wire path: the calling worker waits, so v1 connections keep
    /// strict one-response-per-request ordering while still coalescing with
    /// everything else in the window.
    pub fn submit_wait(&self, item: BatchItem) -> Result<BatchOutcome, ServeError> {
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        self.submit(item, move |result| {
            // the waiter never drops the receiver first, but a send error
            // must not panic the batcher thread
            let _ = tx.send(result);
        });
        rx.recv().unwrap_or_else(|_| {
            Err(ServeError::Internal("batcher dropped a pending request".into()))
        })
    }

    /// Drain and answer everything queued, then stop the thread. Idempotent;
    /// also runs on drop.
    fn shutdown(&self) {
        self.inner.queue.lock().expect("batcher queue").shutdown = true;
        self.inner.available.notify_all();
        if let Some(thread) = self.thread.lock().expect("batcher thread").take() {
            let _ = thread.join();
        }
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn run(inner: &Inner) {
    while let Some(batch) = collect(inner) {
        if !batch.is_empty() {
            flush(inner, batch);
        }
    }
}

/// Block until a batch is ready (first item's deadline reached, budget
/// filled, or shutdown), or return `None` when shut down with nothing left.
fn collect(inner: &Inner) -> Option<Vec<Pending>> {
    let rank_width = inner.engine.rank_width();
    let mut q = inner.queue.lock().expect("batcher queue");
    loop {
        if !q.pending.is_empty() {
            break;
        }
        if q.shutdown {
            return None;
        }
        q = inner.available.wait(q).expect("batcher queue");
    }
    let mut deadline = q.pending.front().expect("nonempty").enqueued + inner.cfg.window;
    let mut batch: Vec<Pending> = Vec::new();
    let mut cost = 0usize;
    loop {
        let now = Instant::now();
        while let Some(front) = q.pending.front() {
            // an item still queued past its own deadline is shed, not
            // scored late — its caller has already stopped waiting
            if front.deadline.is_some_and(|d| now >= d) {
                let expired = q.pending.pop_front().expect("nonempty");
                inner.engine.stats().rejected_deadline.inc();
                (expired.responder)(Err(ServeError::DeadlineExpired));
                continue;
            }
            // the first item always fits: an oversized item flushes alone
            let c = front.item.cost(rank_width).max(1);
            if !batch.is_empty() && cost.saturating_add(c) > inner.cfg.max_batch {
                break;
            }
            let p = q.pending.pop_front().expect("nonempty");
            // a collected item tightens the window: the batch flushes no
            // later than the earliest deadline it holds
            if let Some(d) = p.deadline {
                deadline = deadline.min(d);
            }
            cost += c;
            batch.push(p);
        }
        if cost >= inner.cfg.max_batch || q.shutdown {
            return Some(batch);
        }
        let now = Instant::now();
        if now >= deadline {
            return Some(batch);
        }
        let (guard, _timeout) =
            inner.available.wait_timeout(q, deadline - now).expect("batcher queue");
        // loop re-drains whatever arrived, then re-checks budget and deadline
        q = guard;
    }
}

/// One flush: a single `run_batch` over every collected item, each result
/// delivered to its own responder. A panic anywhere in the flush answers
/// every item with a fresh internal error — the batcher thread survives.
fn flush(inner: &Inner, batch: Vec<Pending>) {
    let flush_start = Instant::now();
    inner.batch_size.record(batch.len() as u64);
    let mut items = Vec::with_capacity(batch.len());
    let mut responders = Vec::with_capacity(batch.len());
    for p in batch {
        inner.batch_wait.record_duration(flush_start.saturating_duration_since(p.enqueued));
        items.push(p.item);
        responders.push(p.responder);
    }
    let results = catch_unwind(AssertUnwindSafe(|| inner.engine.run_batch(&items)));
    inner.flushes.inc();
    match results {
        Ok(results) => {
            debug_assert_eq!(results.len(), responders.len());
            for (result, responder) in results.into_iter().zip(responders) {
                responder(result);
            }
        }
        Err(panic) => {
            let msg = panic_message(panic.as_ref());
            for responder in responders {
                responder(Err(ServeError::Internal(msg.clone())));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmpi_core::{RmpiConfig, RmpiModel};
    use rmpi_kg::{EntityId, KnowledgeGraph, RelationId, Triple};
    use rmpi_obs::MetricsRegistry;
    use std::sync::mpsc;

    fn test_engine(registry: Arc<MetricsRegistry>) -> Arc<Engine> {
        let graph = KnowledgeGraph::from_triples(vec![
            Triple::new(0u32, 0u32, 1u32),
            Triple::new(1u32, 1u32, 3u32),
            Triple::new(0u32, 2u32, 2u32),
            Triple::new(2u32, 3u32, 3u32),
            Triple::new(3u32, 4u32, 4u32),
        ]);
        let model = RmpiModel::new(RmpiConfig { dim: 8, ne: true, ..RmpiConfig::base() }, 6, 0);
        Arc::new(Engine::with_registry(
            model,
            graph,
            crate::engine::EngineConfig { seed: 9, cache_capacity: 64, threads: 1 },
            registry,
        ))
    }

    #[test]
    fn single_item_flushes_at_the_deadline_with_the_right_answer() {
        let registry = Arc::new(MetricsRegistry::new());
        let engine = test_engine(Arc::clone(&registry));
        let t = Triple::new(0u32, 1u32, 2u32);
        let direct = engine.score(t).unwrap();
        let batcher = Batcher::new(
            Arc::clone(&engine),
            BatchConfig { window: Duration::from_millis(5), max_batch: 64 },
        );
        let t0 = Instant::now();
        let out = batcher.submit_wait(BatchItem::Score(vec![t])).unwrap();
        assert!(
            t0.elapsed() >= Duration::from_millis(4),
            "a lone item waits out the window: {:?}",
            t0.elapsed()
        );
        assert_eq!(out, BatchOutcome::Scores(vec![direct]));
        let size = registry.histogram("serve.batch_size.count");
        assert_eq!((size.count(), size.max()), (1, 1), "one flush of one item");
        assert!(registry.histogram("serve.batch_wait.us").max() >= 4_000);
    }

    #[test]
    fn full_budget_flushes_before_the_deadline() {
        let registry = Arc::new(MetricsRegistry::new());
        let engine = test_engine(Arc::clone(&registry));
        // window far beyond the test timeout: only the budget can flush
        let batcher = Batcher::new(
            Arc::clone(&engine),
            BatchConfig { window: Duration::from_secs(600), max_batch: 4 },
        );
        let (tx, rx) = mpsc::channel();
        for i in 0..4u32 {
            let tx = tx.clone();
            let t = Triple::new(i % 5, 1u32, (i + 1) % 5);
            batcher.submit(BatchItem::Score(vec![t]), move |r| tx.send((i, r)).unwrap());
        }
        let mut answered: Vec<u32> = Vec::new();
        for _ in 0..4 {
            let (i, r) = rx.recv_timeout(Duration::from_secs(30)).expect("budget flush");
            let BatchOutcome::Scores(scores) = r.unwrap() else { panic!("score item") };
            let t = Triple::new(i % 5, 1u32, (i + 1) % 5);
            assert_eq!(scores, vec![engine.score(t).unwrap()], "item {i} got its own score");
            answered.push(i);
        }
        answered.sort_unstable();
        assert_eq!(answered, vec![0, 1, 2, 3]);
        let size = registry.histogram("serve.batch_size.count");
        assert_eq!(size.max(), 4, "all four items coalesced into one flush");
    }

    #[test]
    fn oversized_rank_item_flushes_alone() {
        let registry = Arc::new(MetricsRegistry::new());
        let engine = test_engine(Arc::clone(&registry));
        // rank_width = 5 present entities > max_batch = 2
        assert!(engine.rank_width() > 2);
        let batcher = Batcher::new(
            Arc::clone(&engine),
            BatchConfig { window: Duration::from_secs(600), max_batch: 2 },
        );
        let direct = engine.rank_tails(EntityId(0), RelationId(1), 3).unwrap();
        let out = batcher
            .submit_wait(BatchItem::Rank { head: EntityId(0), relation: RelationId(1), k: 3 })
            .unwrap();
        assert_eq!(out, BatchOutcome::Ranked(direct));
    }

    #[test]
    fn shutdown_drains_queued_items_and_rejects_late_ones() {
        let registry = Arc::new(MetricsRegistry::new());
        let engine = test_engine(registry);
        let t = Triple::new(0u32, 1u32, 2u32);
        let direct = engine.score(t).unwrap();
        let batcher = Batcher::new(
            Arc::clone(&engine),
            BatchConfig { window: Duration::from_secs(600), max_batch: 64 },
        );
        let (tx, rx) = mpsc::channel();
        batcher.submit(BatchItem::Score(vec![t]), move |r| tx.send(r).unwrap());
        // shutdown races the window: the queued item must still be answered,
        // with its real score
        batcher.shutdown();
        let out = rx.recv_timeout(Duration::from_secs(5)).expect("drained on shutdown");
        assert_eq!(out.unwrap(), BatchOutcome::Scores(vec![direct]));
        // after shutdown, a submit gets a typed error, never a hang
        let err = batcher.submit_wait(BatchItem::Score(vec![t])).unwrap_err();
        assert!(matches!(err, ServeError::Internal(_)), "{err}");
    }

    #[test]
    fn reload_mid_window_scores_the_whole_batch_under_one_snapshot() {
        use rmpi_testutil::failpoint;
        let _lock = failpoint::exclusive();
        let dir = std::env::temp_dir().join(format!("rmpi-batch-reload-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("next.bundle");
        let next = RmpiModel::new(RmpiConfig { dim: 8, ne: true, ..RmpiConfig::base() }, 6, 7);
        crate::bundle::save_bundle(&path, &next, &[], None).unwrap();

        let registry = Arc::new(MetricsRegistry::new());
        let engine = test_engine(Arc::clone(&registry));
        let a = Triple::new(0u32, 1u32, 2u32);
        let b = Triple::new(1u32, 2u32, 3u32);
        let old_a = engine.score(a).unwrap();

        let batcher = Batcher::new(
            Arc::clone(&engine),
            BatchConfig { window: Duration::from_millis(800), max_batch: 64 },
        );
        let (tx_a, rx_a) = mpsc::channel();
        batcher.submit(BatchItem::Score(vec![a]), move |r| tx_a.send(r).unwrap());
        // swap the model while item A sits in the open window, then give the
        // same window a second item
        engine.reload_from(&path).unwrap();
        let (tx_b, rx_b) = mpsc::channel();
        batcher.submit(BatchItem::Score(vec![b]), move |r| tx_b.send(r).unwrap());

        let out_a = rx_a.recv_timeout(Duration::from_secs(30)).unwrap().unwrap();
        let out_b = rx_b.recv_timeout(Duration::from_secs(30)).unwrap().unwrap();
        // the flush ran after the swap, so one snapshot means BOTH items are
        // scored by the new model — item A may not carry a stale score
        let new_a = engine.score(a).unwrap();
        let new_b = engine.score(b).unwrap();
        assert_eq!(out_a, BatchOutcome::Scores(vec![new_a]));
        assert_eq!(out_b, BatchOutcome::Scores(vec![new_b]));
        assert_ne!(new_a, old_a, "reload must actually change item A's score");
        let size = registry.histogram("serve.batch_size.count");
        assert_eq!((size.count(), size.max()), (1, 2), "one flush served both items");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn item_deadline_tightens_the_window() {
        let registry = Arc::new(MetricsRegistry::new());
        let engine = test_engine(registry);
        let t = Triple::new(0u32, 1u32, 2u32);
        let direct = engine.score(t).unwrap();
        // a window far beyond the test timeout: only the item's own
        // deadline can trigger the flush
        let batcher = Batcher::new(
            Arc::clone(&engine),
            BatchConfig { window: Duration::from_secs(600), max_batch: 64 },
        );
        let (tx, rx) = mpsc::channel();
        batcher.submit_with_deadline(
            BatchItem::Score(vec![t]),
            Some(Instant::now() + Duration::from_millis(30)),
            move |r| tx.send(r).unwrap(),
        );
        let out = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the item deadline must flush the batch long before the window");
        assert_eq!(out.unwrap(), BatchOutcome::Scores(vec![direct]));
    }

    #[test]
    fn expired_item_is_shed_not_scored_late() {
        let registry = Arc::new(MetricsRegistry::new());
        let engine = test_engine(Arc::clone(&registry));
        let t = Triple::new(0u32, 1u32, 2u32);
        let direct = engine.score(t).unwrap();
        let batcher = Batcher::new(
            Arc::clone(&engine),
            BatchConfig { window: Duration::from_millis(50), max_batch: 64 },
        );
        let (dead_tx, dead_rx) = mpsc::channel();
        let (live_tx, live_rx) = mpsc::channel();
        // a deadline already in the past when the batcher sees the item
        let expired = Instant::now();
        std::thread::sleep(Duration::from_millis(2));
        batcher.submit_with_deadline(BatchItem::Score(vec![t]), Some(expired), move |r| {
            dead_tx.send(r).unwrap()
        });
        batcher.submit(BatchItem::Score(vec![t]), move |r| live_tx.send(r).unwrap());
        let dead = dead_rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert!(matches!(dead.unwrap_err(), ServeError::DeadlineExpired));
        // the batch-mate without a deadline is served normally
        let live = live_rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(live.unwrap(), BatchOutcome::Scores(vec![direct]));
        assert_eq!(engine.stats().rejected_deadline.get(), 1);
    }

    #[test]
    fn per_item_errors_do_not_poison_batch_mates() {
        let registry = Arc::new(MetricsRegistry::new());
        let engine = test_engine(registry);
        let good = Triple::new(0u32, 1u32, 2u32);
        let direct = engine.score(good).unwrap();
        let batcher = Batcher::new(
            Arc::clone(&engine),
            BatchConfig { window: Duration::from_millis(50), max_batch: 64 },
        );
        let (good_tx, good_rx) = mpsc::channel();
        let (bad_tx, bad_rx) = mpsc::channel();
        batcher.submit(BatchItem::Score(vec![good]), move |r| good_tx.send(r).unwrap());
        batcher.submit(BatchItem::Score(vec![Triple::new(0u32, 17u32, 1u32)]), move |r| {
            bad_tx.send(r).unwrap()
        });
        let good_out = good_rx.recv_timeout(Duration::from_secs(30)).unwrap();
        let bad_out = bad_rx.recv_timeout(Duration::from_secs(30)).unwrap();
        assert_eq!(good_out.unwrap(), BatchOutcome::Scores(vec![direct]));
        assert!(matches!(bad_out.unwrap_err(), ServeError::UnknownRelation(17)));
    }
}
