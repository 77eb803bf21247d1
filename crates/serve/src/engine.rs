//! The in-process inference engine: an immutable context graph, a seeded
//! subgraph cache, and batch fan-out over the worker pool.
//!
//! # Determinism contract
//!
//! Every query is scored exactly as the offline evaluator would score it:
//! `engine.score(t)` equals
//! `model.score(&graph, t, &mut StdRng::seed_from_u64(cfg.seed))` bit for
//! bit, whether the enclosing subgraph came from the cache or was freshly
//! extracted. This holds because (a) extraction is a pure function of
//! `(graph, target, hop, seed)` and the engine's graph and seed never change
//! after construction, so a cached [`SampleInput`] is byte-identical to a
//! re-extracted one; and (b) the forward pass past extraction is fully
//! deterministic ([`RmpiModel::score_sample`]). Batch scoring shards targets
//! across a [`ThreadPool`], and since each target's score is independent of
//! every other, results are identical for every thread count.
//!
//! # Hot reload and fault isolation
//!
//! The model and its subgraph cache live together in one `Arc<ModelState>`
//! behind an `RwLock`. Every request clones that `Arc` exactly once up
//! front, so a request sees one consistent (model, cache) pair for its whole
//! lifetime — [`Engine::reload_from`] swapping in a new bundle mid-request
//! can never mix old cached subgraphs with new weights. A reload candidate
//! is validated *before* the swap (relation coverage plus a probe score
//! under `catch_unwind`); a bad bundle is rejected, counted, and the
//! previous model keeps serving. Scoring panics are caught per request and
//! surface as [`ServeError::Internal`] — one poisoned query never takes the
//! engine down.
//!
//! # Degraded mode
//!
//! A store-backed engine that hits **confirmed corruption** (a block whose
//! checksum mismatch survived every re-read, or a truncated segment) stops
//! trusting the disk: it flips into degraded mode — sticky for the life of
//! the process, surfaced through `Engine::is_degraded`, `HEALTH`, and the
//! `store.degraded` gauge. While degraded, cache hits keep serving normally
//! (those subgraphs were extracted from verified bytes), but a request that
//! would need fresh disk reads is answered [`ServeError::Degraded`]
//! (`ERR degraded` on the wire) instead of a possibly-wrong score. Transient
//! read failures never degrade the engine — the reader retries them, and
//! exhaustion surfaces as [`ServeError::Internal`].

use crate::error::ServeError;
use crate::stats::ServeStats;
use rmpi_autograd::Tape;
use rmpi_core::{RmpiModel, SampleInput, ScoringModel};
use rmpi_kg::{EntityId, KnowledgeGraph, RelationId, Triple};
use rmpi_obs::MetricsRegistry;
use rmpi_runtime::{panic_message, ThreadPool};
use rmpi_store::{StoreError, StoreReader};
use rmpi_subgraph::{LruCache, SubgraphKey};
use rmpi_testutil::failpoint;
use std::ops::Deref;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// Failpoint inside every scoring closure — lets tests inject a panic into
/// a live request and watch the engine answer `ERR internal` and survive.
pub const SCORE_FAILPOINT: &str = "engine::score";

/// One logical request inside a coalesced engine batch — what the
/// cross-connection micro-batcher ([`crate::Batcher`]) collects from
/// concurrent wire requests and hands to [`Engine::run_batch`] as a unit.
#[derive(Clone, PartialEq, Debug)]
pub enum BatchItem {
    /// Score these triples (one wire `SCORE` line).
    Score(Vec<Triple>),
    /// Rank context-graph entities as tails for `(head, relation, ?)`,
    /// returning the top `k` (one wire `RANK` line).
    Rank {
        /// Query head entity.
        head: EntityId,
        /// Query relation.
        relation: RelationId,
        /// How many top entities to return.
        k: usize,
    },
}

impl BatchItem {
    /// How many flat scoring targets this item contributes to a coalesced
    /// batch: rank items expand over every ranking candidate
    /// ([`Engine::rank_width`]).
    pub(crate) fn cost(&self, rank_width: usize) -> usize {
        match self {
            BatchItem::Score(targets) => targets.len(),
            BatchItem::Rank { .. } => rank_width,
        }
    }
}

/// The per-item result of [`Engine::run_batch`], mirroring [`BatchItem`].
#[derive(Clone, PartialEq, Debug)]
pub enum BatchOutcome {
    /// Scores for a [`BatchItem::Score`], in request order.
    Scores(Vec<f32>),
    /// `(entity, score)` pairs for a [`BatchItem::Rank`], best first.
    Ranked(Vec<(EntityId, f32)>),
}

/// Engine construction knobs.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Extraction seed: the engine scores exactly like
    /// `model.score(graph, t, &mut StdRng::seed_from_u64(seed))`.
    pub seed: u64,
    /// Maximum cached subgraph samples (0 disables caching).
    pub cache_capacity: usize,
    /// Worker threads for batch scoring (`0` = one per available core).
    /// Scores are bit-identical for every value.
    pub threads: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig { seed: 0, cache_capacity: 4096, threads: 1 }
    }
}

/// The swappable half of the engine: a model and the subgraph cache that is
/// only valid for that model's hop radius. They swap together or not at all.
struct ModelState {
    model: RmpiModel,
    cache: Mutex<LruCache<Arc<SampleInput>>>,
}

impl ModelState {
    fn new(model: RmpiModel, cache_capacity: usize) -> Arc<Self> {
        Arc::new(ModelState { model, cache: Mutex::new(LruCache::new(cache_capacity)) })
    }
}

/// A read snapshot of the served model, pinned for as long as the caller
/// holds it. Dereferences to [`RmpiModel`]; a concurrent [`Engine::reload_from`]
/// does not affect snapshots already taken.
pub struct ModelSnapshot(Arc<ModelState>);

impl Deref for ModelSnapshot {
    type Target = RmpiModel;
    fn deref(&self) -> &RmpiModel {
        &self.0.model
    }
}

/// Where the engine's context graph lives. Both backends answer every query
/// bit-identically — the store backend pins the target's
/// [`ScoringModel::context_radius`]-hop neighbourhood in RAM before
/// extraction, which reproduces exactly the adjacency the in-memory graph
/// serves.
// one instance per engine, and boxing would put a pointer chase in front of
// every adjacency access on the scoring hot path — the size gap is intentional
#[allow(clippy::large_enum_variant)]
pub enum GraphBackend {
    /// The whole graph resident in memory, scored directly.
    Memory {
        /// The context graph: every scoring query walks its CSR arenas.
        graph: KnowledgeGraph,
        /// Unread. `rmpi_perf` still fills it; ROADMAP item 3 lists it for
        /// deletion, and [`Engine::with_registry`] passes an empty graph.
        csr: KnowledgeGraph,
    },
    /// An on-disk `rmpi-store` directory; adjacency is read through the
    /// reader's block cache and pinned per query. RSS stays bounded by the
    /// pinned neighbourhood, not the graph.
    Store(Arc<StoreReader>),
}

impl GraphBackend {
    fn num_entities(&self) -> usize {
        match self {
            GraphBackend::Memory { graph, .. } => graph.num_entities(),
            GraphBackend::Store(reader) => reader.num_entities(),
        }
    }

    fn num_relations(&self) -> usize {
        match self {
            GraphBackend::Memory { graph, .. } => graph.num_relations(),
            GraphBackend::Store(reader) => reader.num_relations(),
        }
    }

    fn present_entities(&self) -> Vec<EntityId> {
        match self {
            GraphBackend::Memory { graph, .. } => graph.present_entities(),
            GraphBackend::Store(reader) => reader.present_entities(),
        }
    }

    /// A known triple to validate reload candidates against. A store that
    /// cannot even read triple 0 yields `None` — validation then skips the
    /// probe score rather than wedging reloads behind a broken disk.
    fn probe(&self) -> Option<Triple> {
        match self {
            GraphBackend::Memory { graph, .. } => graph.triples().first().copied(),
            GraphBackend::Store(reader) => {
                (reader.num_triples() > 0).then(|| reader.triple_at(0).ok()).flatten()
            }
        }
    }

    /// Extract the forward input for `target`. Store failures surface as
    /// [`StoreError`] so the caller can tell confirmed corruption (degrade)
    /// from exhausted transient retries (internal error).
    fn prepare(
        &self,
        model: &RmpiModel,
        target: Triple,
        seed: u64,
    ) -> Result<SampleInput, StoreError> {
        match self {
            GraphBackend::Memory { graph, .. } => {
                Ok(model.prepare_eval_sample(graph, target, seed))
            }
            // the view's storage is this worker thread's, kept across
            // flushes and handed back even when the pin fails half-way
            GraphBackend::Store(reader) => rmpi_store::with_thread_view(reader, |view| {
                view.pin(target.head, target.tail, model.context_radius())?;
                Ok(model.prepare_eval_sample(&*view, target, seed))
            }),
        }
    }
}

/// A loaded model bound to an immutable context graph, answering scoring and
/// ranking queries through a subgraph cache.
pub struct Engine {
    state: RwLock<Arc<ModelState>>,
    backend: GraphBackend,
    pool: ThreadPool,
    stats: ServeStats,
    /// Ranking candidates: every entity present in the context graph.
    candidates: Vec<EntityId>,
    seed: u64,
    cache_capacity: usize,
    /// Sticky corruption latch: set once the store backend confirms bad
    /// bytes, never cleared for the life of the process.
    degraded: AtomicBool,
    /// `store.degraded` — 0 healthy, 1 once corruption is confirmed.
    degraded_gauge: rmpi_obs::Gauge,
}

impl Engine {
    /// Bind `model` to `graph`. The graph is the context for all subgraph
    /// extraction and is never mutated — which is what makes caching sound.
    /// Metrics record into the process-global registry; use
    /// [`Engine::with_registry`] to isolate them.
    pub fn new(model: RmpiModel, graph: KnowledgeGraph, cfg: EngineConfig) -> Self {
        Engine::with_registry(model, graph, cfg, Arc::clone(rmpi_obs::global()))
    }

    /// Like [`Engine::new`], but metrics record into `registry` instead of
    /// the process-global one — tests pass a fresh registry so per-engine
    /// counts stay exact under concurrent test execution.
    pub fn with_registry(
        model: RmpiModel,
        graph: KnowledgeGraph,
        cfg: EngineConfig,
        registry: Arc<MetricsRegistry>,
    ) -> Self {
        let backend = GraphBackend::Memory { graph, csr: KnowledgeGraph::default() };
        Engine::with_backend(model, backend, cfg, registry)
    }

    /// Bind `model` to an on-disk store: same query surface and bit-identical
    /// scores as the in-memory engine, with RSS bounded by the pinned
    /// neighbourhood instead of the graph. Metrics record into the
    /// process-global registry.
    pub fn with_store(model: RmpiModel, reader: Arc<StoreReader>, cfg: EngineConfig) -> Self {
        Engine::with_backend(
            model,
            GraphBackend::Store(reader),
            cfg,
            Arc::clone(rmpi_obs::global()),
        )
    }

    /// The fully explicit constructor: any backend, any registry.
    pub fn with_backend(
        model: RmpiModel,
        backend: GraphBackend,
        cfg: EngineConfig,
        registry: Arc<MetricsRegistry>,
    ) -> Self {
        let candidates = backend.present_entities();
        let stats = ServeStats::with_registry(registry);
        let degraded_gauge = stats.registry().gauge("store.degraded");
        degraded_gauge.set(0);
        Engine {
            state: RwLock::new(ModelState::new(model, cfg.cache_capacity)),
            backend,
            pool: ThreadPool::new(cfg.threads),
            stats,
            candidates,
            seed: cfg.seed,
            cache_capacity: cfg.cache_capacity,
            degraded: AtomicBool::new(false),
            degraded_gauge,
        }
    }

    /// Whether confirmed store corruption has flipped this engine into
    /// degraded (cache-only) serving. Sticky: a degraded engine stays
    /// degraded until the process is restarted over a repaired store.
    pub(crate) fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Latch degraded mode: first caller flips the gauge and logs, everyone
    /// else is a no-op. Never called for transient failures.
    fn enter_degraded(&self, why: &str) {
        if !self.degraded.swap(true, Ordering::Relaxed) {
            self.degraded_gauge.set(1);
            eprintln!(
                "[rmpi-serve] store corruption confirmed, entering degraded mode \
                 (cache-only serving): {why}"
            );
        }
    }

    /// Count and build the `ERR degraded` answer for one rejected request.
    fn degraded_reject(&self, message: String) -> ServeError {
        self.stats.degraded_rejects.inc();
        ServeError::Degraded(message)
    }

    /// Route a caught scoring failure: panics whose message carries the
    /// store's corruption signature degrade the engine (a worker hit bad
    /// bytes mid-extraction); anything else is an internal error.
    fn classify_failure(&self, message: String) -> ServeError {
        if message.contains("corrupt store file") {
            self.enter_degraded(&message);
            self.degraded_reject(message)
        } else {
            self.internal(message)
        }
    }

    /// One `Arc` clone: the request-scoped view of the served model.
    fn snapshot(&self) -> Arc<ModelState> {
        Arc::clone(&self.state.read().expect("model lock"))
    }

    /// The served model (a snapshot: stable even across a concurrent reload).
    pub fn model(&self) -> ModelSnapshot {
        ModelSnapshot(self.snapshot())
    }

    /// The immutable in-memory context graph, when this engine has one.
    /// Store-backed engines return `None`.
    pub fn graph(&self) -> Option<&KnowledgeGraph> {
        match &self.backend {
            GraphBackend::Memory { graph, .. } => Some(graph),
            GraphBackend::Store(_) => None,
        }
    }

    /// Entities in the context graph's id space.
    pub(crate) fn num_entities(&self) -> usize {
        self.backend.num_entities()
    }

    /// The engine's counters (the TCP front end adds its own through this).
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// `(hits, misses, entries)` of the current model's subgraph cache.
    /// A reload installs a fresh cache, so these reset on swap.
    pub fn cache_stats(&self) -> (u64, u64, usize) {
        let state = self.snapshot();
        let cache = state.cache.lock().expect("cache lock");
        (cache.hits(), cache.misses(), cache.len())
    }

    /// Mirror the current cache's counters into the metrics registry as
    /// `subgraph.cache_*` gauges. The cache lives behind the model lock, so
    /// these are synced at dump time rather than on every lookup.
    fn sync_cache_gauges(&self) {
        let state = self.snapshot();
        let cache = state.cache.lock().expect("cache lock");
        let reg = self.stats.registry();
        reg.gauge("subgraph.cache_hits.count").set(cache.hits() as i64);
        reg.gauge("subgraph.cache_misses.count").set(cache.misses() as i64);
        reg.gauge("subgraph.cache_evictions.count").set(cache.evictions() as i64);
        reg.gauge("subgraph.cache_entries.count").set(cache.len() as i64);
    }

    /// The full metrics registry as one single-line JSON object — the
    /// `METRICS` wire payload. Cache gauges are synced first, so the dump
    /// includes up-to-date `subgraph.cache_*` values; on the default
    /// (global) registry it also carries trainer and pool metrics from the
    /// same process.
    pub fn metrics_json(&self) -> String {
        self.sync_cache_gauges();
        self.stats.registry().to_json()
    }

    /// Drop all cached subgraphs (counters survive) — the bench harness's
    /// cold-start lever.
    pub fn clear_cache(&self) {
        self.snapshot().cache.lock().expect("cache lock").clear();
    }

    /// Validate a candidate bundle and, if sound, atomically swap it (with a
    /// fresh cache) in as the served model. On any failure — unreadable or
    /// corrupt bundle, insufficient relation coverage, non-finite or panicking
    /// probe score — the swap does **not** happen: the previous model keeps
    /// serving, `reload_failures` is bumped and the error is returned.
    pub fn reload_from<P: AsRef<Path>>(&self, path: P) -> Result<(), ServeError> {
        let result = self.try_reload(path.as_ref());
        match result {
            Ok(()) => {
                self.stats.reloads.inc();
                Ok(())
            }
            Err(e) => {
                self.stats.reload_failures.inc();
                Err(e)
            }
        }
    }

    fn try_reload(&self, path: &Path) -> Result<(), ServeError> {
        // `BUNDLE`, `params` and the graph store, when present, are all
        // verified before the swap, so a corrupt graph rejects the reload
        // instead of being discovered mid-query later. Only the model is
        // swapped; the engine keeps its own backend, so the validation
        // reader is dropped here.
        let (bundle, _reader) =
            crate::bundle::load_bundle(path, rmpi_store::ReadMode::Stream { cache_blocks: 1 })?;
        let model = bundle.model;
        self.validate_candidate(&model).map_err(ServeError::Reload)?;
        let state = ModelState::new(model, self.cache_capacity);
        *self.state.write().expect("model lock") = state;
        Ok(())
    }

    /// Pre-swap validation: the candidate must cover every relation the
    /// context graph uses, and must produce a finite score (without
    /// panicking) on a probe triple from the graph.
    fn validate_candidate(&self, model: &RmpiModel) -> Result<(), String> {
        if model.num_relations() < self.backend.num_relations() {
            return Err(format!(
                "bundle covers {} relations but the context graph uses {}",
                model.num_relations(),
                self.backend.num_relations()
            ));
        }
        if let Some(probe) = self.backend.probe() {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let sample = self.backend.prepare(model, probe, self.seed)?;
                Ok(model.score_sample(&sample))
            }));
            match outcome {
                Ok(Ok(s)) if s.is_finite() => {}
                Ok(Ok(s)) => return Err(format!("probe score is non-finite ({s})")),
                Ok(Err(e)) => {
                    let e: StoreError = e;
                    return Err(format!("probe extraction failed: {e}"));
                }
                Err(p) => {
                    return Err(format!("probe scoring panicked: {}", panic_message(p.as_ref())))
                }
            }
        }
        Ok(())
    }

    fn check_relation(&self, model: &RmpiModel, r: RelationId) -> Result<(), ServeError> {
        if r.index() < model.num_relations() {
            Ok(())
        } else {
            Err(ServeError::UnknownRelation(r.0))
        }
    }

    /// The cached-extraction path: return the prepared forward input for
    /// `target`, extracting (and caching) it on a miss. Always reads and
    /// writes the cache belonging to the snapshot that will score the sample.
    ///
    /// Cache hits serve even while degraded — those subgraphs came from
    /// verified bytes. A miss while degraded is rejected without touching
    /// the disk; a miss that *confirms* corruption flips the engine into
    /// degraded mode.
    fn prepared(&self, state: &ModelState, target: Triple) -> Result<Arc<SampleInput>, ServeError> {
        let key = SubgraphKey::new(target, state.model.config().hop);
        if let Some(sample) = state.cache.lock().expect("cache lock").get(&key) {
            // a reference-count bump under the lock, not a copy of the sample
            return Ok(Arc::clone(sample));
        }
        if self.is_degraded() {
            return Err(
                self.degraded_reject("store is quarantined and the subgraph is not cached".into())
            );
        }
        // extraction happens outside the lock: concurrent misses on the same
        // key duplicate work but produce identical samples, so correctness
        // (and bit-parity) is unaffected
        let sample = match self.backend.prepare(&state.model, target, self.seed) {
            Ok(sample) => Arc::new(sample),
            Err(e) if e.is_corruption() => {
                self.enter_degraded(&e.to_string());
                return Err(self.degraded_reject(e.to_string()));
            }
            Err(e) => return Err(self.internal(e.to_string())),
        };
        state.cache.lock().expect("cache lock").insert(key, Arc::clone(&sample));
        Ok(sample)
    }

    fn internal(&self, message: String) -> ServeError {
        self.stats.internal_errors.inc();
        ServeError::Internal(message)
    }

    /// Score one triple. Bit-identical to offline
    /// `model.score(graph, t, &mut StdRng::seed_from_u64(seed))`. A panic in
    /// the scoring path is caught and reported as [`ServeError::Internal`].
    pub fn score(&self, target: Triple) -> Result<f32, ServeError> {
        self.score_batch(&[target]).map(|scores| scores[0])
    }

    /// Score a batch, sharded across the worker pool. Each worker thread
    /// records on its own tape, kept across batches; results come back in
    /// request order.
    /// A worker panic fails only this request, not the pool.
    pub fn score_batch(&self, targets: &[Triple]) -> Result<Vec<f32>, ServeError> {
        match self.run_one(BatchItem::Score(targets.to_vec()))? {
            BatchOutcome::Scores(scores) => Ok(scores),
            BatchOutcome::Ranked(_) => unreachable!("a score item yields scores"),
        }
    }

    /// Rank every entity present in the context graph as a tail for
    /// `(head, relation, ?)` and return the top `k` as `(entity, score)`,
    /// best first, in [`rank_top_k`] order so rankings are fully
    /// deterministic.
    pub fn rank_tails(
        &self,
        head: EntityId,
        relation: RelationId,
        k: usize,
    ) -> Result<Vec<(EntityId, f32)>, ServeError> {
        match self.run_one(BatchItem::Rank { head, relation, k })? {
            BatchOutcome::Ranked(ranked) => Ok(ranked),
            BatchOutcome::Scores(_) => unreachable!("a rank item yields a ranking"),
        }
    }

    /// The direct calls are batches of one item: [`Engine::run_batch`] is
    /// the only scoring path.
    fn run_one(&self, item: BatchItem) -> Result<BatchOutcome, ServeError> {
        self.run_batch(&[item]).pop().expect("one item in, one result out")
    }

    /// How many candidates one [`BatchItem::Rank`] expands into — every
    /// entity present in the context graph. The micro-batcher budgets rank
    /// items by this width.
    pub(crate) fn rank_width(&self) -> usize {
        self.candidates.len()
    }

    /// Run a coalesced batch of independent requests through **one** model
    /// snapshot and **one** pool fan-out, answering each item separately.
    ///
    /// This is the micro-batcher's entry point: items from different
    /// connections, collected within one batching window, score together
    /// as one flat target list — and every item's answer is bit-identical to
    /// running it alone, which is all [`Engine::score`] / [`Engine::rank_tails`]
    /// do (the determinism contract above; extraction and the forward pass
    /// depend only on `(graph, target, seed)`, never on batch-mates).
    ///
    /// Failure is isolated per item: a bad relation fails only its own item,
    /// and a degraded-store rejection on one item's extraction leaves the
    /// other items' answers intact. A worker panic aborts the flush and
    /// fails every unanswered item (each with its own classified error) —
    /// the pool and engine survive. Because the whole batch scores under a
    /// single `Arc<ModelState>` clone, a concurrent [`Engine::reload_from`]
    /// can never split one batch across two models.
    pub fn run_batch(&self, items: &[BatchItem]) -> Vec<Result<BatchOutcome, ServeError>> {
        enum Plan {
            Failed,
            Score { len: usize },
            Rank { k: usize },
        }
        let state = self.snapshot();
        let t0 = Instant::now();
        // expansion: validate each item, flatten the survivors into one
        // target list (rank items fan out over every candidate)
        let mut plans = Vec::with_capacity(items.len());
        let mut results: Vec<Option<Result<BatchOutcome, ServeError>>> =
            Vec::with_capacity(items.len());
        let mut flat: Vec<Triple> = Vec::new();
        for item in items {
            match item {
                BatchItem::Score(targets) => {
                    match targets
                        .iter()
                        .try_for_each(|t| self.check_relation(&state.model, t.relation))
                    {
                        Ok(()) => {
                            flat.extend_from_slice(targets);
                            plans.push(Plan::Score { len: targets.len() });
                            results.push(None);
                        }
                        Err(e) => {
                            plans.push(Plan::Failed);
                            results.push(Some(Err(e)));
                        }
                    }
                }
                BatchItem::Rank { head, relation, k } => {
                    match self.check_relation(&state.model, *relation) {
                        Ok(()) => {
                            flat.extend(self.candidates.iter().map(|&tail| Triple {
                                head: *head,
                                relation: *relation,
                                tail,
                            }));
                            plans.push(Plan::Rank { k: *k });
                            results.push(None);
                        }
                        Err(e) => {
                            plans.push(Plan::Failed);
                            results.push(Some(Err(e)));
                        }
                    }
                }
            }
        }
        let pool_out = if flat.is_empty() {
            Ok(Vec::new())
        } else {
            self.pool.try_map_indexed(flat.len(), |i| {
                failpoint::point(SCORE_FAILPOINT);
                let sample = self.prepared(&state, flat[i])?;
                // the worker thread's tape: its storage is kept across
                // flushes, its parameter handles are released with the score
                Ok::<f32, ServeError>(rmpi_runtime::with_scratch(|tape: &mut Tape| {
                    let v = state.model.score_sample_on_tape(tape, &sample);
                    let score = tape.value(v).item();
                    tape.reset();
                    score
                }))
            })
        };
        match pool_out {
            Err(e) => {
                // a worker panic fails every still-unanswered item, each with
                // its own classified error (ServeError is not Clone)
                let msg = e.to_string();
                for slot in results.iter_mut().filter(|s| s.is_none()) {
                    *slot = Some(Err(self.classify_failure(msg.clone())));
                }
            }
            Ok(elems) => {
                let elapsed = t0.elapsed();
                let mut cursor = elems.into_iter();
                for (slot, plan) in results.iter_mut().zip(&plans) {
                    let take = match plan {
                        Plan::Failed => continue,
                        Plan::Score { len } => *len,
                        Plan::Rank { .. } => self.candidates.len(),
                    };
                    // drain exactly `take` elements even when one errors, so
                    // later items stay aligned with their span of the batch
                    let span: Vec<Result<f32, ServeError>> = cursor.by_ref().take(take).collect();
                    debug_assert_eq!(span.len(), take, "flat batch misaligned");
                    let scores: Result<Vec<f32>, ServeError> = span.into_iter().collect();
                    *slot = Some(scores.map(|scores| match plan {
                        Plan::Score { len } => {
                            self.stats.record_score_call(*len as u64, elapsed);
                            BatchOutcome::Scores(scores)
                        }
                        Plan::Rank { k } => {
                            self.stats.record_rank_call(self.candidates.len() as u64, elapsed);
                            let entries = self.candidates.iter().copied().zip(scores).collect();
                            BatchOutcome::Ranked(rank_top_k(entries, *k))
                        }
                        Plan::Failed => unreachable!("failed items answered above"),
                    }));
                }
            }
        }
        results.into_iter().map(|slot| slot.expect("every batch item answered")).collect()
    }
}

/// The one rank comparator of the serving stack (engine `RANK`, router
/// merge): drop `NaN` scores, order by descending score under
/// [`f32::total_cmp`] with ties toward the smaller id, keep the first `k`.
///
/// `NaN` is removed rather than compared: the engine never serves one, so it
/// can only be damage, and no placement of it agrees with the order callers
/// expect. Past that, `total_cmp` is a total order, which `sort_by` requires.
pub fn rank_top_k<I: Ord + Copy>(mut entries: Vec<(I, f32)>, k: usize) -> Vec<(I, f32)> {
    entries.retain(|&(_, score)| !score.is_nan());
    entries.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    entries.truncate(k);
    entries
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rmpi_core::{RmpiConfig, ScoringModel};

    fn setup(threads: usize, cache: usize) -> Engine {
        let graph = KnowledgeGraph::from_triples(vec![
            Triple::new(0u32, 0u32, 1u32),
            Triple::new(1u32, 1u32, 3u32),
            Triple::new(0u32, 2u32, 2u32),
            Triple::new(2u32, 3u32, 3u32),
            Triple::new(3u32, 4u32, 4u32),
        ]);
        let model = RmpiModel::new(RmpiConfig { dim: 8, ne: true, ..RmpiConfig::base() }, 6, 0);
        // a fresh registry per engine: tests in this binary run concurrently
        // and assert exact counter values
        Engine::with_registry(
            model,
            graph,
            EngineConfig { seed: 9, cache_capacity: cache, threads },
            Arc::new(rmpi_obs::MetricsRegistry::new()),
        )
    }

    #[test]
    fn scores_match_offline_on_miss_and_hit() {
        let engine = setup(1, 16);
        let t = Triple::new(0u32, 5u32, 3u32);
        let offline =
            engine.model().score(engine.graph().unwrap(), t, &mut StdRng::seed_from_u64(9));
        let miss = engine.score(t).unwrap();
        let hit = engine.score(t).unwrap();
        assert_eq!(miss, offline, "cache miss must equal offline scoring");
        assert_eq!(hit, offline, "cache hit must equal offline scoring");
        let (hits, misses, len) = engine.cache_stats();
        assert_eq!((hits, misses, len), (1, 1, 1));
    }

    #[test]
    fn batch_scores_are_thread_count_invariant() {
        let targets: Vec<Triple> =
            (0..12u32).map(|i| Triple::new(i % 5, i % 6, (i + 1) % 5)).collect();
        let sequential = setup(1, 64).score_batch(&targets).unwrap();
        for threads in [2, 4] {
            let parallel = setup(threads, 64).score_batch(&targets).unwrap();
            assert_eq!(sequential, parallel, "threads={threads}");
        }
        // and caching does not change batch results either
        let uncached = setup(1, 0).score_batch(&targets).unwrap();
        assert_eq!(sequential, uncached);
    }

    #[test]
    fn unknown_relation_is_an_error_not_a_panic() {
        let engine = setup(1, 4);
        let err = engine.score(Triple::new(0u32, 17u32, 1u32)).unwrap_err();
        assert!(matches!(err, ServeError::UnknownRelation(17)), "{err}");
        assert!(engine.rank_tails(EntityId(0), RelationId(17), 3).is_err());
        assert!(engine
            .score_batch(&[Triple::new(0u32, 0u32, 1u32), Triple::new(0u32, 17u32, 1u32)])
            .is_err());
    }

    #[test]
    fn rank_tails_returns_sorted_top_k() {
        let engine = setup(2, 64);
        let ranked = engine.rank_tails(EntityId(0), RelationId(1), 3).unwrap();
        assert_eq!(ranked.len(), 3);
        for pair in ranked.windows(2) {
            assert!(pair[0].1 >= pair[1].1, "scores must be descending: {ranked:?}");
        }
        // parity with direct scoring of the winner
        let (best, best_score) = ranked[0];
        let direct = engine
            .score(Triple { head: EntityId(0), relation: RelationId(1), tail: best })
            .unwrap();
        assert_eq!(direct, best_score);
    }

    #[test]
    fn run_batch_matches_direct_calls_bit_for_bit() {
        let engine = setup(2, 64);
        let targets: Vec<Triple> =
            (0..6u32).map(|i| Triple::new(i % 5, i % 6, (i + 1) % 5)).collect();
        let items = vec![
            BatchItem::Score(targets.clone()),
            BatchItem::Rank { head: EntityId(0), relation: RelationId(1), k: 3 },
            BatchItem::Score(vec![targets[0]]),
        ];
        let out = engine.run_batch(&items);
        assert_eq!(out.len(), 3);
        assert_eq!(
            out[0].as_ref().unwrap(),
            &BatchOutcome::Scores(engine.score_batch(&targets).unwrap())
        );
        assert_eq!(
            out[1].as_ref().unwrap(),
            &BatchOutcome::Ranked(engine.rank_tails(EntityId(0), RelationId(1), 3).unwrap())
        );
        assert_eq!(
            out[2].as_ref().unwrap(),
            &BatchOutcome::Scores(vec![engine.score(targets[0]).unwrap()])
        );
        assert!(engine.run_batch(&[]).is_empty());
    }

    #[test]
    fn run_batch_isolates_per_item_failures() {
        let engine = setup(1, 16);
        let good = Triple::new(0u32, 0u32, 1u32);
        let items = vec![
            BatchItem::Score(vec![good]),
            BatchItem::Score(vec![Triple::new(0u32, 17u32, 1u32)]),
            BatchItem::Rank { head: EntityId(0), relation: RelationId(99), k: 2 },
            BatchItem::Rank { head: EntityId(0), relation: RelationId(1), k: 2 },
        ];
        let out = engine.run_batch(&items);
        assert_eq!(
            out[0].as_ref().unwrap(),
            &BatchOutcome::Scores(vec![engine.score(good).unwrap()]),
            "a bad batch-mate must not disturb a good item"
        );
        assert!(matches!(out[1], Err(ServeError::UnknownRelation(17))), "{:?}", out[1]);
        assert!(matches!(out[2], Err(ServeError::UnknownRelation(99))), "{:?}", out[2]);
        assert_eq!(
            out[3].as_ref().unwrap(),
            &BatchOutcome::Ranked(engine.rank_tails(EntityId(0), RelationId(1), 2).unwrap())
        );
    }

    #[test]
    fn counters_reflect_traffic() {
        let engine = setup(1, 8);
        let t = Triple::new(0u32, 1u32, 2u32);
        engine.score(t).unwrap();
        engine.score(t).unwrap();
        assert_eq!(engine.stats().score_requests.get(), 2);
        assert_eq!(engine.cache_stats(), (1, 1, 1), "(hits, misses, entries)");
    }

    #[test]
    fn metrics_json_carries_cache_gauges_and_latency_percentiles() {
        let engine = setup(1, 8);
        let t = Triple::new(0u32, 1u32, 2u32);
        engine.score(t).unwrap();
        engine.score(t).unwrap();
        let json = engine.metrics_json();
        assert!(json.contains("\"subgraph.cache_hits.count\": 1"), "{json}");
        assert!(json.contains("\"subgraph.cache_misses.count\": 1"), "{json}");
        assert!(json.contains("\"subgraph.cache_entries.count\": 1"), "{json}");
        assert!(json.contains("\"serve.score_requests.count\": 2"), "{json}");
        assert!(json.contains("\"serve.score.us\": {\"count\": 2"), "{json}");
        assert!(json.contains("\"p99\":"), "{json}");
        assert!(!json.contains('\n'), "METRICS payload must be one line");
    }

    #[test]
    fn clear_cache_forces_reextraction_with_same_result() {
        let engine = setup(1, 8);
        let t = Triple::new(0u32, 1u32, 2u32);
        let a = engine.score(t).unwrap();
        engine.clear_cache();
        let b = engine.score(t).unwrap();
        assert_eq!(a, b);
        let (_, misses, _) = engine.cache_stats();
        assert_eq!(misses, 2, "both lookups missed after the clear");
    }

    #[test]
    fn reload_from_missing_bundle_keeps_serving_and_counts_failure() {
        let engine = setup(1, 8);
        let t = Triple::new(0u32, 1u32, 2u32);
        let before = engine.score(t).unwrap();
        let err = engine.reload_from("/nonexistent/model.bundle").unwrap_err();
        assert!(matches!(err, ServeError::Io(_)), "{err}");
        assert_eq!(engine.stats().reload_failures.get(), 1);
        assert_eq!(engine.stats().reloads.get(), 0);
        assert_eq!(engine.score(t).unwrap(), before, "old model must keep serving");
    }

    #[test]
    fn reload_rejects_bundle_with_too_few_relations() {
        let _lock = failpoint::exclusive();
        let dir = std::env::temp_dir().join(format!("rmpi-reload-narrow-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("narrow.bundle");
        // 2 relations < the 6-relation graph space (graph relations are 0..=4)
        let narrow = RmpiModel::new(RmpiConfig { dim: 8, ..RmpiConfig::base() }, 2, 1);
        crate::bundle::save_bundle(&path, &narrow, &[], None).unwrap();

        let engine = setup(1, 8);
        let err = engine.reload_from(&path).unwrap_err();
        assert!(matches!(err, ServeError::Reload(_)), "{err}");
        assert!(err.to_string().contains("relations"), "{err}");
        assert_eq!(engine.stats().reload_failures.get(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn successful_reload_swaps_model_and_resets_cache() {
        let _lock = failpoint::exclusive();
        let dir = std::env::temp_dir().join(format!("rmpi-reload-ok-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("next.bundle");
        let next = RmpiModel::new(RmpiConfig { dim: 8, ne: true, ..RmpiConfig::base() }, 6, 7);
        crate::bundle::save_bundle(&path, &next, &[], None).unwrap();

        let engine = setup(1, 8);
        let t = Triple::new(0u32, 1u32, 2u32);
        let before = engine.score(t).unwrap();
        engine.reload_from(&path).unwrap();
        assert_eq!(engine.stats().reloads.get(), 1);
        let after = engine.score(t).unwrap();
        let offline = next.score(engine.graph().unwrap(), t, &mut StdRng::seed_from_u64(9));
        assert_eq!(after, offline, "post-reload scores come from the new model");
        assert_ne!(before, after, "different weights should score differently");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn store_backend_scores_bit_identically_to_memory() {
        use rmpi_store::{build_from_graph, ReadMode, StoreConfig};
        let graph = KnowledgeGraph::from_triples(vec![
            Triple::new(0u32, 0u32, 1u32),
            Triple::new(1u32, 1u32, 3u32),
            Triple::new(0u32, 2u32, 2u32),
            Triple::new(2u32, 3u32, 3u32),
            Triple::new(3u32, 4u32, 4u32),
        ]);
        let dir = std::env::temp_dir().join(format!("rmpi-engine-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        build_from_graph(&dir, StoreConfig::default(), &graph).unwrap();

        let mk_model =
            || RmpiModel::new(RmpiConfig { dim: 8, ne: true, ..RmpiConfig::base() }, 6, 0);
        let cfg = EngineConfig { seed: 9, cache_capacity: 16, threads: 2 };
        let memory = Engine::with_registry(
            mk_model(),
            graph,
            cfg,
            Arc::new(rmpi_obs::MetricsRegistry::new()),
        );
        let reader = Arc::new(
            rmpi_store::StoreReader::open(&dir, ReadMode::Stream { cache_blocks: 4 }).unwrap(),
        );
        let stored = Engine::with_backend(
            mk_model(),
            GraphBackend::Store(reader),
            cfg,
            Arc::new(rmpi_obs::MetricsRegistry::new()),
        );
        assert!(stored.graph().is_none());
        assert_eq!(stored.num_entities(), memory.num_entities());
        let targets: Vec<Triple> =
            (0..12u32).map(|i| Triple::new(i % 5, i % 6, (i + 1) % 5)).collect();
        assert_eq!(stored.score_batch(&targets).unwrap(), memory.score_batch(&targets).unwrap());
        assert_eq!(
            stored.rank_tails(EntityId(0), RelationId(1), 4).unwrap(),
            memory.rank_tails(EntityId(0), RelationId(1), 4).unwrap()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn store_test_graph() -> KnowledgeGraph {
        KnowledgeGraph::from_triples(vec![
            Triple::new(0u32, 0u32, 1u32),
            Triple::new(1u32, 1u32, 3u32),
            Triple::new(0u32, 2u32, 2u32),
            Triple::new(2u32, 3u32, 3u32),
            Triple::new(3u32, 4u32, 4u32),
        ])
    }

    #[test]
    fn confirmed_corruption_degrades_engine_but_cache_keeps_serving() {
        use rmpi_store::{build_from_graph, ReadMode, StoreConfig, StoreReader};
        use std::io::{Read as _, Seek, SeekFrom, Write};
        let graph = store_test_graph();
        let dir = std::env::temp_dir().join(format!("rmpi-engine-degraded-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        build_from_graph(&dir, StoreConfig::default(), &graph).unwrap();

        let model = RmpiModel::new(RmpiConfig { dim: 8, ne: true, ..RmpiConfig::base() }, 6, 0);
        // cache_blocks: 1 — any two-file pin alternates fwd/inv reads, so an
        // uncached query is guaranteed to touch the disk again
        let reader =
            Arc::new(StoreReader::open(&dir, ReadMode::Stream { cache_blocks: 1 }).unwrap());
        let engine = Engine::with_backend(
            model,
            GraphBackend::Store(reader),
            EngineConfig { seed: 9, cache_capacity: 16, threads: 1 },
            Arc::new(rmpi_obs::MetricsRegistry::new()),
        );
        assert!(!engine.is_degraded());
        let cached = Triple::new(0u32, 1u32, 2u32);
        let before = engine.score(cached).unwrap();

        // flip one data bit in the forward segment, in place: the reader's
        // already-open descriptor sees the damaged bytes on its next pread
        let seg = dir.join("fwd-00000.seg");
        let mut f = std::fs::OpenOptions::new().read(true).write(true).open(&seg).unwrap();
        let mut byte = [0u8; 1];
        f.read_exact(&mut byte).unwrap();
        f.seek(SeekFrom::Start(0)).unwrap();
        f.write_all(&[byte[0] ^ 0x40]).unwrap();
        f.sync_all().unwrap();

        // the uncached query needs fresh reads -> block checksum mismatch
        // survives every re-read -> degraded, never a wrong score
        let uncached = Triple::new(3u32, 2u32, 1u32);
        let err = engine.score(uncached).unwrap_err();
        assert!(matches!(err, ServeError::Degraded(_)), "{err}");
        assert!(engine.is_degraded());

        // cache hits keep serving bit-identically; uncached stays rejected
        // with no further disk traffic
        assert_eq!(engine.score(cached).unwrap(), before);
        let err = engine.score(uncached).unwrap_err();
        assert!(matches!(err, ServeError::Degraded(_)), "{err}");
        assert!(engine.stats().degraded_rejects.get() >= 2);
        assert_eq!(engine.stats().internal_errors.get(), 0);
        let metrics = engine.metrics_json();
        assert!(metrics.contains("\"store.degraded\": 1"), "{metrics}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A clean engine and one whose store reads go through `opts` (chaos,
    /// retry policy), both uncached and single-threaded over the same tiny
    /// store under a `tag`-named directory, plus the registry the faulty
    /// reader charges. The caller removes the directory.
    fn clean_and_faulty_engines(
        tag: &str,
        opts: rmpi_store::StoreOptions,
    ) -> (std::path::PathBuf, Engine, Engine, Arc<rmpi_obs::MetricsRegistry>) {
        use rmpi_store::{build_from_graph, ReadMode, StoreConfig, StoreReader};
        let graph = store_test_graph();
        let dir = std::env::temp_dir().join(format!("rmpi-engine-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        build_from_graph(&dir, StoreConfig::default(), &graph).unwrap();

        let mk_model =
            || RmpiModel::new(RmpiConfig { dim: 8, ne: true, ..RmpiConfig::base() }, 6, 0);
        let cfg = EngineConfig { seed: 9, cache_capacity: 0, threads: 1 };
        let clean_reader =
            Arc::new(StoreReader::open(&dir, ReadMode::Stream { cache_blocks: 1 }).unwrap());
        let clean = Engine::with_backend(
            mk_model(),
            GraphBackend::Store(clean_reader),
            cfg,
            Arc::new(rmpi_obs::MetricsRegistry::new()),
        );
        let registry = Arc::new(rmpi_obs::MetricsRegistry::new());
        let faulty_reader = Arc::new(StoreReader::open_opts(&dir, opts, &registry).unwrap());
        let faulty = Engine::with_backend(
            mk_model(),
            GraphBackend::Store(faulty_reader),
            cfg,
            Arc::clone(&registry),
        );
        (dir, clean, faulty, registry)
    }

    /// Score `requests` uncached targets through an engine whose store reads
    /// pass through `chaos`; every `Ok` must equal the clean engine's score
    /// in `to_bits()`. Returns the failures, whether the engine ended up
    /// degraded, and the registry the faulty reader charged.
    fn replay_under_disk_faults(
        chaos: rmpi_testutil::chaosfile::ChaosFileConfig,
        requests: u32,
    ) -> (Vec<ServeError>, bool, Arc<rmpi_obs::MetricsRegistry>) {
        use rmpi_store::{ReadMode, StoreOptions};
        let opts = StoreOptions {
            mode: ReadMode::Stream { cache_blocks: 1 },
            chaos: Some(chaos),
            ..StoreOptions::default()
        };
        let (dir, clean, faulty, registry) = clean_and_faulty_engines("transient", opts);
        let mut failures = Vec::new();
        for i in 0..requests {
            let t = Triple::new(i % 5, i % 6, (i + 1) % 5);
            match faulty.score(t) {
                Ok(s) => assert_eq!(s.to_bits(), clean.score(t).unwrap().to_bits(), "{t:?}"),
                Err(e) => failures.push(e),
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
        (failures, faulty.is_degraded(), registry)
    }

    /// `threads: 1` scores inline, so every request below runs on this
    /// thread and pins into the same recycled view. With one read attempt a
    /// transient fault fails the pin it lands in — usually past the first
    /// entity, the store's two files alternating through a one-block cache —
    /// and what that pin had loaded must not leak into the next.
    #[test]
    fn a_pin_that_fails_half_way_leaves_the_recycled_view_usable() {
        use rmpi_store::{ReadMode, RetryConfig, StoreOptions};
        use rmpi_testutil::chaosfile::ChaosFileConfig;
        let opts = StoreOptions {
            mode: ReadMode::Stream { cache_blocks: 1 },
            retry: RetryConfig { attempts: 1, ..RetryConfig::default() },
            chaos: Some(ChaosFileConfig {
                seed: 23,
                transient_rate: 0.15,
                delay: std::time::Duration::ZERO,
                ..ChaosFileConfig::default()
            }),
        };
        let (dir, clean, faulty, registry) = clean_and_faulty_engines("failed-pin", opts);
        // the first answer within a bounded number of tries: each try draws
        // fresh fault decisions, so a given pin gets through soon enough
        let eventually = |t: Triple| -> f32 {
            (0..200).find_map(|_| faulty.score(t).ok()).expect("200 pins in a row failed")
        };
        let mut failed_pins = 0;
        for i in 0..60u32 {
            let t = Triple::new(i % 5, i % 6, (i + 1) % 5);
            match faulty.score(t) {
                Ok(s) => assert_eq!(s.to_bits(), clean.score(t).unwrap().to_bits(), "{t:?}"),
                Err(e) => {
                    assert!(matches!(e, ServeError::Internal(_)), "{e}");
                    failed_pins += 1;
                    // the same triple, then a different one, right behind
                    // the failed pin on the same worker
                    let other = Triple::new((i + 2) % 5, (i + 1) % 6, (i + 4) % 5);
                    for t in [t, other] {
                        assert_eq!(
                            eventually(t).to_bits(),
                            clean.score(t).unwrap().to_bits(),
                            "{t:?} after a failed pin"
                        );
                    }
                }
            }
        }
        assert!(failed_pins > 0, "no pin drew a fault: the test exercised nothing");
        assert!(!faulty.is_degraded(), "transient faults must never degrade the engine");
        assert!(registry.counter("store.read_errors.count").get() >= failed_pins);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn transient_read_faults_are_retried_not_degraded() {
        use rmpi_testutil::chaosfile::ChaosFileConfig;
        let quiet =
            ChaosFileConfig { delay: std::time::Duration::ZERO, ..ChaosFileConfig::default() };

        // one read in five fails: the bounded retry hides every fault
        let (failures, degraded, registry) =
            replay_under_disk_faults(ChaosFileConfig { seed: 7, transient_rate: 0.2, ..quiet }, 12);
        assert!(failures.is_empty(), "{failures:?}");
        assert!(!degraded, "transient faults must never degrade the engine");
        assert!(registry.counter("store.read_retries.count").get() > 0);

        // the availability floor `RetryConfig::default()` is sized for
        let requests = 240;
        let (failures, degraded, _) = replay_under_disk_faults(
            ChaosFileConfig { seed: 17, transient_rate: 0.10, ..quiet },
            requests,
        );
        assert!(
            failures.len() as u32 * 100 <= requests,
            "{} of {requests} failed at a 10% fault rate: below the 99% floor",
            failures.len()
        );
        assert!(!degraded, "transient faults must never degrade the engine");

        // bit flips in flight: the block checksums turn every one into a
        // re-read or a refusal, never a different score
        let (failures, _, registry) = replay_under_disk_faults(
            ChaosFileConfig { seed: 527, corrupt_rate: 0.05, ..quiet },
            requests,
        );
        assert!(failures.iter().all(|e| matches!(e, ServeError::Degraded(_))), "{failures:?}");
        assert!(registry.counter("store.checksum_retries.count").get() > 0, "no flip was drawn");
    }
}
