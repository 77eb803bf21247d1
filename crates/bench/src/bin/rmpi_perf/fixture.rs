//! What a workload runs against: the graph, the model, the serving stack
//! in front of them and the query schedule the seed selects. Building one
//! of these is the workload's set-up.

use crate::catalog::{Drive, ModelKind, Workload, World};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rmpi_client::{ClientConfig, Session};
use rmpi_core::{RmpiConfig, RmpiModel, TrainConfig, TrainEvent, Trainer};
use rmpi_datasets::world::GraphGenConfig;
use rmpi_datasets::{build_benchmark, Scale, StreamingWorld, TrainSet, World as RuleWorld};
use rmpi_kg::{CsrGraph, EntityId, KnowledgeGraph, RelationId, Triple};
use rmpi_obs::MetricsRegistry;
use rmpi_router::{serve_router, PartialPolicy, Router, RouterConfig, RouterHandle};
use rmpi_serve::{serve, Engine, EngineConfig, GraphBackend, ServerConfig, ServerHandle};
use rmpi_store::{build_from_sorted, ReadMode, StoreConfig, StoreReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The engine's extraction seed. `--seed` chooses queries and the training
/// seed; the served scores themselves do not depend on it.
pub const ENGINE_SEED: u64 = 7;
/// `k` of every `RANK`.
pub const RANK_K: usize = 10;
/// The router ranks the first this many present entities.
pub const ROUTER_CANDIDATES: usize = 96;
/// Distinct `(head, relation)` queries of the cold rank workload, an even
/// spread of the 137 the test targets hold. A run cycles through them
/// several times, so every run measures the same mix; with 208 candidates
/// each they are still three times the cache, and an LRU that is cycled
/// through more than it holds never hits.
pub const RANK_QUERIES: usize = 16;
/// Distinct `(head, relation)` queries behind the router; all are warmed
/// during set-up, which is most of that workload's `setup_s`.
pub const ROUTER_QUERIES: usize = 8;
pub const ROUTER_SHARDS: usize = 3;
/// Distinct targets a cold workload draws from before it wraps around —
/// 64 times the cache, so a wrapped target has long been evicted.
pub const COLD_TARGETS: usize = 65_536;
/// Entities of the streamed world.
pub const STREAM_ENTITIES: usize = 20_000;

/// Training shape: 25 optimiser steps and a 30-triple validation pass per
/// epoch, so a run of a few seconds holds several whole epochs.
pub const TRAIN_BATCH: usize = 16;
pub const TRAIN_EPOCH_SAMPLES: usize = 400;
pub const TRAIN_VALID_SAMPLES: usize = 30;
pub const TRAIN_WARMUP_SAMPLES: usize = 160;

impl ModelKind {
    pub fn config(self) -> RmpiConfig {
        match self {
            ModelKind::Paper => RmpiConfig { dim: 32, ne: true, ta: true, ..RmpiConfig::base() },
            ModelKind::Tiny => RmpiConfig {
                dim: 4,
                num_layers: 1,
                hop: 1,
                max_subgraph_edges: 64,
                ..RmpiConfig::base()
            },
        }
    }
}

/// Everything the benchmark writes goes under here: the driver's
/// `CARGO_TARGET_DIR` when set, `target/` otherwise.
pub fn work_dir() -> PathBuf {
    PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
        .join("bench")
}

/// A directory under [`work_dir`] that is removed on drop.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> TempDir {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = work_dir().join(format!("tmp-{}-{tag}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir under the work dir");
        TempDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Hand `f` the streamed world's triples in store order, one chunk resident
/// at a time.
pub fn with_stream_world<T>(f: impl FnOnce(&mut dyn Iterator<Item = Triple>) -> T) -> T {
    let rules = RuleWorld::new(rmpi_datasets::WorldConfig::default());
    let active: Vec<usize> = (0..rules.groups().len()).collect();
    let gen = GraphGenConfig {
        num_entities: STREAM_ENTITIES,
        num_base_triples: STREAM_ENTITIES * 3,
        max_triples: STREAM_ENTITIES * 12,
        seed: 17,
        ..Default::default()
    };
    let world = StreamingWorld::new(&rules, &active, gen, STREAM_ENTITIES / 8);
    let out = f(&mut world.iter());
    out
}

/// The `nell.v1` quick-scale test split: context graph and target triples.
pub fn nell_test() -> (KnowledgeGraph, Vec<Triple>) {
    let b = build_benchmark("nell.v1", Scale::Quick);
    let te = b.tests.into_iter().find(|t| t.name == "TE").expect("TE split");
    (te.graph, te.targets)
}

/// Build `triples` (already in store order) into a store under `dir` and
/// open it the way a memory-bounded server would.
pub fn build_store(dir: &Path, triples: impl Iterator<Item = Triple>) -> Arc<StoreReader> {
    build_from_sorted(dir, StoreConfig::default(), triples).expect("build store");
    Arc::new(StoreReader::open(dir, ReadMode::Stream { cache_blocks: 64 }).expect("open store"))
}

/// What the seed selected for the clients to send.
pub enum Queries {
    Score(Vec<Triple>),
    Rank(Vec<(EntityId, RelationId)>),
}

impl Queries {
    pub fn len(&self) -> usize {
        match self {
            Queries::Score(t) => t.len(),
            Queries::Rank(q) => q.len(),
        }
    }
}

/// Three replicas over one engine behind the router's wire front end.
pub struct Fleet {
    pub router: Arc<Router>,
    pub front: RouterHandle,
    pub candidates: Vec<u32>,
    // after `front` and `router`, so the shard sessions close before the replicas stop
    _extra_replicas: Vec<ServerHandle>,
}

/// A served model: engine, replica(s), optional router, and the schedule.
pub struct Serving {
    pub model: RmpiModel,
    pub queries: Queries,
    /// Next schedule position; shared by the clients and carried across
    /// phases so a cold workload never repeats a target.
    pub cursor: AtomicUsize,
    pub fleet: Option<Fleet>,
    pub replica: ServerHandle,
    pub engine: Arc<Engine>,
    /// The engine's and batcher's metrics, apart from every other engine's.
    pub registry: Arc<MetricsRegistry>,
    pub store: Option<Arc<StoreReader>>,
    // last: the reader above must be closed before the directory goes
    _store_dir: Option<TempDir>,
}

impl Serving {
    /// Where clients connect.
    pub fn addr(&self) -> SocketAddr {
        self.fleet.as_ref().map_or(self.replica.addr(), |f| f.front.addr())
    }

    /// Candidates one `RANK` scores.
    pub fn rank_candidates(&self) -> Vec<EntityId> {
        match &self.fleet {
            Some(f) => f.candidates.iter().map(|&e| EntityId(e)).collect(),
            None => self.engine.graph().expect("rank workloads are in RAM").present_entities(),
        }
    }

    /// The context graph as the offline reference reads it.
    pub fn reference_graph(&self) -> CsrGraph {
        match (&self.store, self.engine.graph()) {
            (_, Some(graph)) => CsrGraph::from_graph(graph),
            (Some(reader), None) => {
                let mut triples = Vec::with_capacity(reader.num_triples());
                reader.for_each_triple(|t| triples.push(t)).expect("scan store");
                CsrGraph::from_triples(triples)
            }
            (None, None) => unreachable!("an engine has a graph or a store"),
        }
    }
}

pub fn connect(addr: SocketAddr) -> Session {
    Session::connect(addr, &ClientConfig::default()).expect("connect session")
}

/// A triple as the client API takes it.
pub fn wire(t: Triple) -> (u32, u32, u32) {
    (t.head.0, t.relation.0, t.tail.0)
}

/// `(head, relation)` of every target, sorted and deduplicated.
pub fn distinct_queries(targets: &[Triple]) -> Vec<(EntityId, RelationId)> {
    let mut q: Vec<_> = targets.iter().map(|t| (t.head, t.relation)).collect();
    q.sort_unstable();
    q.dedup();
    q
}

pub fn build_serving(w: &Workload, seed: u64) -> Serving {
    let mut rng = StdRng::seed_from_u64(seed);
    let registry = Arc::new(MetricsRegistry::new());
    let engine_cfg =
        EngineConfig { seed: ENGINE_SEED, cache_capacity: w.cache_capacity, threads: 1 };
    // The on-disk world is streamed straight into the store and never held
    // in RAM: this process's peak RSS is the number the store exists for.
    let (backend, targets, store, store_dir) = match w.world {
        World::NellTest => {
            let (graph, targets) = nell_test();
            let csr = CsrGraph::from_graph(&graph);
            (GraphBackend::Memory { graph, csr }, targets, None, None)
        }
        World::Stream { on_disk: false } => {
            let graph = KnowledgeGraph::from_triples(with_stream_world(|t| t.collect()));
            let csr = CsrGraph::from_graph(&graph);
            (GraphBackend::Memory { graph, csr }, Vec::new(), None, None)
        }
        World::Stream { on_disk: true } => {
            let dir = TempDir::new("store");
            let reader = with_stream_world(|t| build_store(dir.path(), t));
            (GraphBackend::Store(Arc::clone(&reader)), Vec::new(), Some(reader), Some(dir))
        }
        World::NellTrain => unreachable!("the training workload builds a Training fixture"),
    };
    let (num_triples, num_relations) = match &backend {
        GraphBackend::Memory { graph, .. } => (graph.num_triples(), graph.num_relations()),
        GraphBackend::Store(reader) => (reader.num_triples(), reader.num_relations()),
    };
    let triple_at = |i: usize| match &backend {
        GraphBackend::Memory { graph, .. } => graph.triple(i),
        GraphBackend::Store(reader) => reader.triple_at(i as u64).expect("read target"),
    };
    let model = RmpiModel::new(w.model.config(), num_relations, 1);

    // The whole query universe of a hot or rank workload is fixed and the
    // seed only orders it: a seed-chosen subset would change the mean cost
    // per op from run to run by more than the regression bound.
    let queries = match w.drive {
        Drive::Score { hot: true, .. } => {
            let mut targets = targets;
            targets.shuffle(&mut rng);
            Queries::Score(targets)
        }
        Drive::Score { hot: false, .. } => {
            let mut idx: Vec<u32> = (0..num_triples as u32).collect();
            idx.shuffle(&mut rng);
            idx.truncate(COLD_TARGETS);
            Queries::Score(idx.into_iter().map(|i| triple_at(i as usize)).collect())
        }
        Drive::Rank { routed } => {
            let all = distinct_queries(&targets);
            let keep = if routed { ROUTER_QUERIES } else { RANK_QUERIES };
            let mut q: Vec<_> = all.iter().copied().step_by(all.len() / keep).take(keep).collect();
            q.shuffle(&mut rng);
            Queries::Rank(q)
        }
        Drive::Train => unreachable!("the training workload builds a Training fixture"),
    };

    let engine =
        Arc::new(Engine::with_backend(model.clone(), backend, engine_cfg, Arc::clone(&registry)));
    let replica = serve(Arc::clone(&engine), ServerConfig::default()).expect("bind replica");

    let fleet = matches!(w.drive, Drive::Rank { routed: true }).then(|| {
        let extra: Vec<ServerHandle> = (1..ROUTER_SHARDS)
            .map(|_| serve(Arc::clone(&engine), ServerConfig::default()).expect("bind replica"))
            .collect();
        let mut shards = vec![replica.addr()];
        shards.extend(extra.iter().map(ServerHandle::addr));
        let graph = engine.graph().expect("routed workload is in RAM");
        let candidates: Vec<u32> =
            graph.present_entities().iter().take(ROUTER_CANDIDATES).map(|e| e.0).collect();
        let cfg = RouterConfig::new(shards, candidates.clone())
            .with_policy(PartialPolicy::Fail)
            .with_deadline(Duration::from_secs(10));
        let router = Arc::new(Router::with_registry(cfg, Arc::new(MetricsRegistry::new())));
        let front = serve_router(Arc::clone(&router)).expect("bind router front end");
        Fleet { router, front, candidates, _extra_replicas: extra }
    });

    let fx = Serving {
        model,
        queries,
        cursor: AtomicUsize::new(0),
        fleet,
        replica,
        engine,
        registry,
        store,
        _store_dir: store_dir,
    };
    warm_up(w, &fx);
    fx
}

/// Fill the cache of a hot workload; touch every code path once otherwise.
fn warm_up(w: &Workload, fx: &Serving) {
    let warm: Vec<Triple> = match (&fx.queries, w.drive) {
        (Queries::Score(targets), Drive::Score { hot: true, .. }) => targets.clone(),
        // the tail of the schedule: a run never gets that far
        (Queries::Score(targets), _) => targets[targets.len() - 64..].to_vec(),
        (Queries::Rank(queries), Drive::Rank { routed: true }) => {
            let candidates = fx.rank_candidates();
            queries
                .iter()
                .flat_map(|&(head, relation)| {
                    candidates.iter().map(move |&tail| Triple { head, relation, tail })
                })
                .collect()
        }
        (Queries::Rank(queries), _) => {
            // the same query under every seed, so set-up time does not depend on it
            let &(head, relation) = queries.iter().min().expect("rank queries");
            fx.rank_candidates()
                .iter()
                .take(64)
                .map(|&tail| Triple { head, relation, tail })
                .collect()
        }
    };
    fx.engine.score_batch(&warm).expect("warm-up scores");
    connect(fx.addr()).ping().expect("front end answers");
}

/// The training workload's fixture: the data and a model that has already
/// taken one short epoch, whose duration sizes the timed run.
pub struct Training {
    pub train: TrainSet,
    pub model: RmpiModel,
    pub seed: u64,
    /// Wall seconds per training sample during the warm-up epoch.
    pub warm_s_per_sample: f64,
}

pub fn train_config(seed: u64, epochs: usize, samples_per_epoch: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        batch_size: TRAIN_BATCH,
        max_samples_per_epoch: samples_per_epoch,
        max_valid_samples: TRAIN_VALID_SAMPLES,
        patience: 0,
        seed,
        threads: 1,
        ..TrainConfig::default()
    }
}

pub fn build_training(w: &Workload, seed: u64) -> Training {
    let train = build_benchmark("nell.v1", Scale::Quick).train;
    let mut model = RmpiModel::new(w.model.config(), train.graph.num_relations(), seed);
    // pace = the stretch from the first BatchEnd to the last; what comes
    // before the first is the trainer's own set-up, which a run pays once
    let t0 = Instant::now();
    let mut batch_ends = Vec::new();
    let report = Trainer::new(train_config(seed, 1, TRAIN_WARMUP_SAMPLES))
        .on_event(|ev| {
            if matches!(ev, TrainEvent::BatchEnd { .. }) {
                batch_ends.push(t0.elapsed().as_secs_f64());
            }
        })
        .train(&mut model, &train.graph, &train.targets, &train.valid);
    assert_eq!(report.skipped_batches, 0, "warm-up epoch skipped a batch");
    let paced = (batch_ends.len() - 1) * TRAIN_BATCH;
    let warm_s_per_sample = (batch_ends[batch_ends.len() - 1] - batch_ends[0]) / paced as f64;
    Training { train, model, seed, warm_s_per_sample }
}

pub enum Fixture {
    Serving(Box<Serving>),
    Training(Box<Training>),
}

pub fn build(w: &Workload, seed: u64) -> Fixture {
    match w.drive {
        Drive::Train => Fixture::Training(Box::new(build_training(w, seed))),
        _ => Fixture::Serving(Box::new(build_serving(w, seed))),
    }
}

/// Set up several times and keep the last fixture: one set-up of a few
/// milliseconds is mostly scheduler noise. At least three; cheap ones repeat
/// until they have taken 0.75 s together. The run sets up as often again
/// after its timed phases ([`build_again`]).
pub fn build_repeatedly(w: &Workload, seed: u64) -> (Fixture, Vec<f64>) {
    let mut times = Vec::new();
    loop {
        let t0 = Instant::now();
        let fx = build(w, seed);
        times.push(t0.elapsed().as_secs_f64());
        let total: f64 = times.iter().sum();
        if times.len() >= 16 || (times.len() >= 3 && total >= 0.75) {
            return (fx, times);
        }
    }
}

/// Set up `n` more times, dropping each fixture, and return the times.
pub fn build_again(w: &Workload, seed: u64, n: usize) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let t0 = Instant::now();
            drop(build(w, seed));
            t0.elapsed().as_secs_f64()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::workload;

    fn score_queries(fx: &Serving) -> &[Triple] {
        match &fx.queries {
            Queries::Score(t) => t,
            Queries::Rank(_) => panic!("score workload"),
        }
    }

    #[test]
    fn the_seed_fixes_the_schedule_and_only_orders_a_hot_set() {
        let w = workload("score_edge").expect("workload");
        let (a, b, c) = (build_serving(w, 5), build_serving(w, 5), build_serving(w, 6));
        assert_eq!(score_queries(&a), score_queries(&b));
        assert_ne!(score_queries(&a), score_queries(&c));
        let sorted = |fx: &Serving| {
            let mut v = score_queries(fx).to_vec();
            v.sort_unstable();
            v
        };
        assert_eq!(sorted(&a), sorted(&c), "hot set is the same under every seed");
        // set-up left the whole hot set cached
        assert_eq!(a.engine.cache_stats().2, score_queries(&a).len());
    }

    #[test]
    fn routed_queries_are_a_fixed_spread_of_the_distinct_pairs() {
        let w = workload("router_rank").expect("workload");
        let fx = build_serving(w, 1);
        assert_eq!(fx.queries.len(), ROUTER_QUERIES);
        assert_eq!(fx.rank_candidates().len(), ROUTER_CANDIDATES);
        assert_eq!(fx.engine.cache_stats().2, ROUTER_QUERIES * ROUTER_CANDIDATES);
    }

    #[test]
    fn temp_dirs_live_under_the_work_dir_and_vanish() {
        let path = {
            let dir = TempDir::new("t");
            assert!(dir.path().starts_with(work_dir()) && dir.path().is_dir());
            dir.path().to_owned()
        };
        assert!(!path.exists());
    }
}
