//! The traced run: the workload's own phases once without and once with the
//! span recorder, then a replay of single ops, stage by stage, on one
//! thread through each layer's public functions.
//!
//! The layers nest like an onion — wire codec around session around batcher
//! around engine around cache/extraction and forward pass — so each
//! wrapper's self time is its span minus the span of what it wraps, all
//! measured from outside. For every op the stages and every wrapper run
//! back to back, so a noisy second on the box hits a parent and its
//! children alike, and the stages must reconcile: the children of a span
//! may not sum to more than their parent plus a quarter (they normally
//! land within 8 %).

use crate::catalog::{Drive, Workload, World};
use crate::drive::{drive, verify, Timed};
use crate::fixture::{
    build, build_store, connect, distinct_queries, nell_test, train_config, wire,
    with_stream_world, Fixture, Queries, TempDir, ENGINE_SEED, RANK_K, ROUTER_CANDIDATES,
    ROUTER_SHARDS, TRAIN_BATCH,
};
use crate::spans::{child_totals_ns, summarize, SpanLog};
use crate::{stats, Metrics, Outcome, ALLOCATOR, COUNT_ALLOCS};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rmpi_autograd::optim::Adam;
use rmpi_autograd::{BackwardScratch, GradBuffer, Tape};
use rmpi_core::loss::margin_ranking_loss;
use rmpi_core::sample::prepare_sample;
use rmpi_core::{Mode, RmpiModel, ScoringModel, TrainEvent, Trainer};
use rmpi_datasets::{build_benchmark, Scale};
use rmpi_kg::{CsrGraph, EntityId, KnowledgeGraph, RelationId, Triple};
use rmpi_obs::MetricsRegistry;
use rmpi_router::{merge_ranked, serve_router, PartialPolicy, Router, RouterConfig};
use rmpi_runtime::ThreadPool;
use rmpi_serve::protocol::{format_scores, format_tagged};
use rmpi_serve::{
    parse_request, parse_tagged, serve, BatchConfig, BatchItem, Batcher, Engine, EngineConfig,
    GraphBackend, ServerConfig, ServerHandle,
};
use rmpi_store::NeighborhoodView;
use rmpi_subgraph::{
    enclosing_subgraph, LruCache, NegativeSampler, PruningSchedule, RelViewGraph, SubgraphKey,
};
use std::hint::black_box;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Share of `--seconds` each in-situ run (untraced, then traced) measures.
const IN_SITU_SHARE: f64 = 0.2;
/// Ops of the workload replayed through the scoring stages.
const REPLAY_OPS: usize = 256;
/// `RANK` queries replayed; each is hundreds of candidate ops.
const REPLAY_RANKS: usize = 6;
/// Training batches replayed, and the epoch the real `Trainer` runs beside them.
const REPLAY_BATCHES: usize = 8;
/// Children may exceed their parent by this much before the run fails. The
/// levels normally come out between 0.95 and 1.08, but a level that rests on
/// six `RANK`s of 30 ms each reached 1.13 in one of some thirty traced runs
/// on this box; the limit is set where only an accounting error gets.
const RECONCILE_LIMIT: f64 = 1.25;

/// Counters read around the traced in-situ run, from public read APIs only.
#[derive(Clone, Copy, Default)]
struct InSitu {
    cache_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
    batch_items: u64,
    batch_flushes: u64,
    rejected: u64,
    pool_busy_us: u64,
    router_hedges: u64,
    router_shard_errors: u64,
}

impl InSitu {
    fn read(fx: &Fixture) -> InSitu {
        let global = rmpi_obs::global();
        let mut s = InSitu {
            pool_busy_us: global.histogram("pool.shard_busy.us").sum(),
            ..InSitu::default()
        };
        if let Fixture::Serving(fx) = fx {
            let (hits, misses, _) = fx.engine.cache_stats();
            // the dump syncs the cache's eviction count into the registry
            fx.engine.metrics_json();
            let batch = fx.registry.histogram("serve.batch_size.count");
            let stats = fx.engine.stats();
            s = InSitu {
                cache_hits: hits,
                cache_misses: misses,
                cache_evictions: fx.registry.gauge("subgraph.cache_evictions.count").get() as u64,
                batch_items: batch.sum(),
                batch_flushes: batch.count(),
                rejected: stats.rejected_overload.get()
                    + stats.rejected_deadline.get()
                    + stats.rejected_conn_limit.get()
                    + stats.internal_errors.get(),
                ..s
            };
            if let Some(fleet) = &fx.fleet {
                let reg = fleet.router.registry();
                s.router_hedges = reg.counter("router.hedges.count").get();
                s.router_shard_errors = reg.counter("router.shard_errors.count").get();
            }
        }
        s
    }

    /// Per-layer metrics of the stretch between `before` and `self`.
    fn metrics_since(&self, before: &InSitu, timed: &Timed, out: &mut Metrics) {
        let ops = timed.ops().max(1) as f64;
        let ratio = |num: u64, den: u64| if den == 0 { 0.0 } else { num as f64 / den as f64 };
        let (hits, misses) =
            (self.cache_hits - before.cache_hits, self.cache_misses - before.cache_misses);
        out.insert("subgraph.cache_hit_ratio", ratio(hits, hits + misses));
        out.insert(
            "subgraph.cache_evictions_per_op",
            (self.cache_evictions - before.cache_evictions) as f64 / ops,
        );
        out.insert(
            "serve.batch_size_mean",
            ratio(self.batch_items - before.batch_items, self.batch_flushes - before.batch_flushes),
        );
        out.insert("serve.rejected_per_op", (self.rejected - before.rejected) as f64 / ops);
        out.insert(
            "runtime.pool_busy_ratio",
            (self.pool_busy_us - before.pool_busy_us) as f64 / timed.wall.as_micros() as f64,
        );
        out.insert("client.sessions_opened", timed.sessions_opened as f64);
        out.insert(
            "router.hedges_per_op",
            (self.router_hedges - before.router_hedges) as f64 / ops,
        );
        out.insert(
            "router.shard_errors_per_op",
            (self.router_shard_errors - before.router_shard_errors) as f64 / ops,
        );
        out.insert(
            "harness.generator_cpu_share",
            timed.generator_cpu.as_secs_f64() / timed.cpu.as_secs_f64().max(1e-9),
        );
        out.insert("harness.cpu_ms_per_op", timed.cpu.as_secs_f64() * 1e3 / ops);
    }
}

/// What the replay runs on. The scoring stages use the workload's own
/// graph, model and targets. `RANK`, the router and training are replayed
/// on `small`: the workload's graph when a `RANK` over all of it is
/// affordable, the nell.v1 test graph when the workload's world has 20 000
/// entities.
struct Inputs {
    model: RmpiModel,
    graph: KnowledgeGraph,
    /// The first ops of the workload's schedule.
    targets: Vec<Triple>,
    /// Whether the workload's requests find their subgraph cached.
    hot: bool,
    small: KnowledgeGraph,
    small_model: RmpiModel,
    rank_queries: Vec<(EntityId, RelationId)>,
}

/// The first few distinct `(head, relation)` pairs of `targets` to replay `RANK` with.
fn heads(targets: &[Triple]) -> Vec<(EntityId, RelationId)> {
    let mut q = distinct_queries(targets);
    q.truncate(REPLAY_RANKS);
    q
}

fn inputs(w: &Workload, fx: &Fixture) -> Inputs {
    match fx {
        Fixture::Training(fx) => {
            let targets: Vec<Triple> = fx.train.targets.iter().copied().take(REPLAY_OPS).collect();
            Inputs {
                model: fx.model.clone(),
                graph: fx.train.graph.clone(),
                hot: false,
                small: fx.train.graph.clone(),
                small_model: fx.model.clone(),
                rank_queries: heads(&targets),
                targets,
            }
        }
        Fixture::Serving(fx) => {
            let graph = match fx.engine.graph() {
                Some(graph) => graph.clone(),
                None => KnowledgeGraph::from_triples(fx.reference_graph().triples().to_vec()),
            };
            let (targets, rank_queries) = match &fx.queries {
                Queries::Score(t) => (t[..REPLAY_OPS.min(t.len())].to_vec(), None),
                // the ops of a RANK are its candidates
                Queries::Rank(queries) => {
                    let candidates = fx.rank_candidates();
                    let ops = queries.iter().flat_map(|&(head, relation)| {
                        candidates.iter().map(move |&tail| Triple { head, relation, tail })
                    });
                    (ops.take(REPLAY_OPS).collect(), Some(queries[..REPLAY_RANKS].to_vec()))
                }
            };
            let (small, small_model, rank_queries) = match w.world {
                World::Stream { .. } => {
                    let (small, small_targets) = nell_test();
                    let model = RmpiModel::new(w.model.config(), small.num_relations(), 1);
                    (small, model, heads(&small_targets))
                }
                _ => (
                    graph.clone(),
                    fx.model.clone(),
                    rank_queries.unwrap_or_else(|| heads(&targets)),
                ),
            };
            Inputs {
                model: fx.model.clone(),
                graph,
                targets,
                hot: matches!(
                    w.drive,
                    Drive::Score { hot: true, .. } | Drive::Rank { routed: true }
                ),
                small,
                small_model,
                rank_queries,
            }
        }
    }
}

/// Run `f` with allocation counting on; its value and the events counted.
fn counting_allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    COUNT_ALLOCS.store(true, Ordering::Relaxed);
    let before = ALLOCATOR.allocations();
    let out = f();
    let allocs = ALLOCATOR.allocations() - before;
    COUNT_ALLOCS.store(false, Ordering::Relaxed);
    (out, allocs)
}

fn median_ms(times: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..times)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    stats::median(&samples)
}

/// An engine over `backend` with its own registry, and a replica serving it.
fn stack(model: &RmpiModel, backend: GraphBackend) -> (Arc<Engine>, ServerHandle) {
    let cfg = EngineConfig { seed: ENGINE_SEED, cache_capacity: 1 << 20, threads: 1 };
    let registry = Arc::new(MetricsRegistry::new());
    let engine = Arc::new(Engine::with_backend(model.clone(), backend, cfg, registry));
    let server = serve(Arc::clone(&engine), ServerConfig::default()).expect("bind replay replica");
    (engine, server)
}

fn memory(graph: &KnowledgeGraph) -> GraphBackend {
    GraphBackend::Memory { graph: graph.clone(), csr: CsrGraph::from_graph(graph) }
}

/// A named call into one layer.
type Step<'a> = (&'static str, &'a mut dyn FnMut());

/// Run `steps` as child spans of `parent`, last first when `reversed`,
/// calling `before_each` (untimed) ahead of every one. The steps of one op
/// touch the same data, and whichever runs later finds more of it in the
/// CPU's caches; ops take turns at the order so that no step is always the
/// warm one.
fn run_steps(
    log: &mut SpanLog,
    parent: u64,
    op: u64,
    reversed: bool,
    before_each: &dyn Fn(),
    steps: &mut [Step],
) {
    let mut order: Vec<usize> = (0..steps.len()).collect();
    if reversed {
        order.reverse();
    }
    for k in order {
        before_each();
        let (name, step) = &mut steps[k];
        log.span(name, parent, op, |_, _| step());
    }
}

/// Work counts summed over the replayed ops.
#[derive(Default)]
struct Counts {
    extract_edges: usize,
    extract_entities: usize,
    relview_nodes: usize,
    relview_edges: usize,
    tape_nodes: usize,
    prepare_allocs: u64,
    cache_hit_allocs: u64,
    forward_allocs: u64,
    forward_flops: u64,
    forward_bytes: u64,
    /// Segment reads, bytes scanned, index hits of the pin stage.
    store: [u64; 3],
}

/// Replay the workload's ops through the scoring path, innermost stage
/// first, then each wrapper around it.
fn replay_scores(w: &Workload, inp: &Inputs, log: &mut SpanLog, out: &mut Metrics) {
    let cfg = *inp.model.config();
    let csr = CsrGraph::from_graph(&inp.graph);
    out.insert(
        "kg.csr_build_ms",
        median_ms(5, || drop(black_box(CsrGraph::from_graph(&inp.graph)))),
    );

    let dir = TempDir::new("replay-store");
    let mut sorted = inp.graph.triples().to_vec();
    sorted.sort_unstable();
    let t0 = Instant::now();
    let reader = build_store(dir.path(), sorted.into_iter());
    out.insert("store.build_ms", t0.elapsed().as_secs_f64() * 1e3);
    // the store's work ledger, read around the pin stage alone: a
    // store-backed engine pins through the same reader in every wrapper
    let ledger =
        ["store.segment_reads.count", "store.bytes_scanned.count", "store.index_hits.count"]
            .map(|name| rmpi_obs::global().counter(name));

    let on_disk = matches!(w.world, World::Stream { on_disk: true });
    let backend =
        if on_disk { GraphBackend::Store(Arc::clone(&reader)) } else { memory(&inp.graph) };
    let (engine, server) = stack(&inp.model, backend);
    // the stages read the very parameters the engine reads: a second copy
    // would be touched a quarter as often and sit colder in the CPU's caches
    let model = engine.model();
    let batcher = Batcher::new(Arc::clone(&engine), BatchConfig::default());
    let session = connect(server.addr());
    if inp.hot {
        engine.score_batch(&inp.targets).expect("warm the replay engine");
    }
    // a cold op must miss in every wrapper, so each starts from an empty cache
    let forget = || {
        if !inp.hot {
            engine.clear_cache();
        }
    };

    let mut counts = Counts::default();
    let mut lru = LruCache::new(inp.targets.len());
    let mut tape = Tape::new();
    let n = inp.targets.len();

    // the stages of one op, innermost first; returns the score
    let mut stages = |log: &mut SpanLog, parent: u64, op: u64, t: Triple| -> f32 {
        let line = format!("ID {op} SCORE {} {} {}", t.head.0, t.relation.0, t.tail.0);
        let tag = log.span("serve.parse", parent, op, |_, _| {
            let (tag, rest) = parse_tagged(&line).expect("tagged line");
            black_box(parse_request(rest).expect("request"));
            tag
        });
        let before = [ledger[0].get(), ledger[1].get(), ledger[2].get()];
        log.span("store.pin", parent, op, |_, _| {
            let mut view = NeighborhoodView::new(&reader);
            view.pin(t.head, t.tail, model.context_radius()).expect("pin");
            black_box(view.pinned_edges());
        });
        for (k, c) in ledger.iter().enumerate() {
            counts.store[k] += c.get() - before[k];
        }
        let mut prepare = |log: &mut SpanLog| {
            let (sample, allocs) = log.span("core.prepare", parent, op, |_, _| {
                counting_allocs(|| model.prepare_eval_sample(&csr, t, ENGINE_SEED))
            });
            counts.prepare_allocs += allocs;
            sample
        };
        // prepare_eval_sample and the three calls it is made of take turns at
        // going first, as the wrappers below do
        let early = (op / 2 % 2 == 0).then(|| prepare(log));
        let mut sg =
            log.span("subgraph.extract", parent, op, |_, _| enclosing_subgraph(&csr, t, cfg.hop));
        counts.extract_edges += sg.num_edges();
        counts.extract_entities += sg.num_entities();
        // the eval-mode edge budget of `prepare_sample`, draw for draw, so the
        // relation view below is built from the triples the model will see
        if sg.triples.len() > cfg.max_subgraph_edges {
            sg.triples.shuffle(&mut StdRng::seed_from_u64(ENGINE_SEED));
            sg.triples.truncate(cfg.max_subgraph_edges);
            sg.triples.sort_unstable();
        }
        let relview =
            log.span("subgraph.relview", parent, op, |_, _| RelViewGraph::from_subgraph(&sg));
        log.span("subgraph.schedule", parent, op, |_, _| {
            black_box(PruningSchedule::new(&relview, cfg.num_layers));
        });
        let sample = early.unwrap_or_else(|| prepare(log));
        assert_eq!(sample.relview.num_edges(), relview.num_edges(), "replayed edge budget");
        counts.relview_nodes += sample.relview.num_nodes();
        counts.relview_edges += sample.relview.num_edges();
        let key = SubgraphKey::new(t, cfg.hop);
        lru.insert(key, sample.clone());
        let (_, allocs) = log.span("subgraph.cache_hit", parent, op, |_, _| {
            counting_allocs(|| black_box(lru.get(&key).cloned()))
        });
        counts.cache_hit_allocs += allocs;
        let kernels = rmpi_autograd::counters::snapshot();
        let (score, allocs) = log.span("core.forward", parent, op, |_, _| {
            counting_allocs(|| {
                tape.reset();
                let v = model.score_sample_on_tape(&mut tape, &sample);
                tape.value(v).item()
            })
        });
        let after = rmpi_autograd::counters::snapshot();
        counts.forward_allocs += allocs;
        counts.forward_flops += after.flops - kernels.flops;
        counts.forward_bytes += after.bytes - kernels.bytes;
        counts.tape_nodes += tape.len();
        log.span("serve.format", parent, op, |_, _| {
            black_box(format_tagged(tag, &format_scores(&[score])));
        });
        score
    };
    // the same op through each wrapper around those stages, innermost first
    let wrappers = |log: &mut SpanLog, parent: u64, op: u64, i: usize| -> f32 {
        let t = inp.targets[i];
        let (h, r, tl) = wire(t);
        let mut served = None;
        run_steps(
            log,
            parent,
            op,
            op / 2 % 2 == 1,
            &forget,
            &mut [
                ("serve.engine_score", &mut || {
                    served = Some(engine.score(t).expect("engine score"))
                }),
                ("serve.batcher_submit", &mut || {
                    black_box(
                        batcher.submit_wait(BatchItem::Score(vec![t])).expect("batched score"),
                    );
                }),
                ("client.score_rtt", &mut || {
                    black_box(session.score(h, r, tl).expect("served score"));
                }),
            ],
        );
        log.span("client.ping_rtt", parent, op, |_, _| session.ping().expect("ping"));
        if i % 16 == 15 {
            forget();
            let lines: Vec<String> = inp.targets[i - 15..=i]
                .iter()
                .map(|t| format!("SCORE {} {} {}", t.head.0, t.relation.0, t.tail.0))
                .collect();
            let lines: Vec<&str> = lines.iter().map(String::as_str).collect();
            log.span("client.pipelined16", parent, op, |_, _| {
                assert!(session.request_many(&lines).iter().all(Result::is_ok));
            });
        }
        served.expect("the engine step ran")
    };
    for (i, &t) in inp.targets.iter().enumerate() {
        let op = i as u64 + 1;
        // whichever of the two runs second finds the op's data in the CPU's
        // caches, so they take turns
        let (staged, served) = log.span("replay.score", 0, op, |log, parent| {
            if i % 2 == 0 {
                let staged = stages(log, parent, op, t);
                (staged, wrappers(log, parent, op, i))
            } else {
                let served = wrappers(log, parent, op, i);
                (stages(log, parent, op, t), served)
            }
        });
        assert_eq!(staged.to_bits(), served.to_bits(), "replayed stages differ from the engine");
    }

    let per_op = |total: usize| total as f64 / n as f64;
    out.insert("store.segment_reads_per_op", per_op(counts.store[0] as usize));
    out.insert("store.bytes_scanned_per_op", per_op(counts.store[1] as usize));
    out.insert("store.index_hits_per_op", per_op(counts.store[2] as usize));
    out.insert("subgraph.extract_edges_per_op", per_op(counts.extract_edges));
    out.insert("subgraph.extract_entities_per_op", per_op(counts.extract_entities));
    out.insert("subgraph.relview_nodes_per_op", per_op(counts.relview_nodes));
    out.insert("subgraph.relview_edges_per_op", per_op(counts.relview_edges));
    out.insert("subgraph.cache_hit_allocs_per_op", per_op(counts.cache_hit_allocs as usize));
    out.insert("core.prepare_allocs_per_op", per_op(counts.prepare_allocs as usize));
    out.insert("core.forward_tape_nodes", per_op(counts.tape_nodes));
    out.insert("core.forward_allocs_per_op", per_op(counts.forward_allocs as usize));
    out.insert("autograd.forward_flops_per_op", per_op(counts.forward_flops as usize));
    out.insert("autograd.forward_bytes_per_op", per_op(counts.forward_bytes as usize));

    for (metric, span) in [
        ("store.pin_us", "store.pin"),
        ("subgraph.extract_us", "subgraph.extract"),
        ("subgraph.relview_us", "subgraph.relview"),
        ("subgraph.schedule_us", "subgraph.schedule"),
        ("subgraph.cache_hit_us", "subgraph.cache_hit"),
        ("core.prepare_us", "core.prepare"),
        ("core.forward_us", "core.forward"),
        ("serve.parse_us", "serve.parse"),
        ("serve.format_us", "serve.format"),
        ("serve.engine_score_us", "serve.engine_score"),
        ("serve.batcher_submit_us", "serve.batcher_submit"),
        ("client.score_rtt_us", "client.score_rtt"),
        ("client.ping_rtt_us", "client.ping_rtt"),
    ] {
        out.insert(metric, log.mean_us(span));
    }
    out.insert("client.pipelined_us_per_req", log.mean_us("client.pipelined16") / 16.0);
    let below_prepare =
        out["subgraph.extract_us"] + out["subgraph.relview_us"] + out["subgraph.schedule_us"];
    out.insert("core.prepare_self_us", out["core.prepare_us"] - below_prepare);
    let below_engine: f64 = engine_score_stages(w, inp).iter().map(|s| log.mean_us(s)).sum();
    out.insert("serve.engine_self_us", out["serve.engine_score_us"] - below_engine);
    out.insert(
        "serve.batcher_self_us",
        out["serve.batcher_submit_us"] - out["serve.engine_score_us"],
    );
    out.insert("client.wire_self_us", out["client.score_rtt_us"] - out["serve.batcher_submit_us"]);
}

/// Replay `RANK` on the small graph: the per-candidate work, then the
/// engine, the batcher, a session, the router and the router's front end.
fn replay_ranks(inp: &Inputs, log: &mut SpanLog, out: &mut Metrics) {
    let csr = CsrGraph::from_graph(&inp.small);
    let (engine, server) = stack(&inp.small_model, memory(&inp.small));
    let model = engine.model();
    let extra: Vec<ServerHandle> = (1..ROUTER_SHARDS)
        .map(|_| serve(Arc::clone(&engine), ServerConfig::default()).expect("bind replay replica"))
        .collect();
    let mut shards = vec![server.addr()];
    shards.extend(extra.iter().map(ServerHandle::addr));
    let candidates = inp.small.present_entities();
    let routed: Vec<u32> = candidates.iter().take(ROUTER_CANDIDATES).map(|e| e.0).collect();
    let router = Arc::new(Router::with_registry(
        RouterConfig::new(shards, routed.clone())
            .with_policy(PartialPolicy::Fail)
            .with_deadline(Duration::from_secs(10)),
        Arc::new(MetricsRegistry::new()),
    ));
    let front = serve_router(Arc::clone(&router)).expect("bind replay front end");
    let batcher = Batcher::new(Arc::clone(&engine), BatchConfig::default());
    let session = connect(server.addr());
    let front_session = connect(front.addr());
    let triples = |head, relation, tails: &[EntityId]| -> Vec<Triple> {
        tails.iter().map(|&tail| Triple { head, relation, tail }).collect()
    };
    if inp.hot {
        for &(head, relation) in &inp.rank_queries {
            engine.score_batch(&triples(head, relation, &candidates)).expect("warm rank engine");
        }
    }
    let forget = || {
        if !inp.hot {
            engine.clear_cache();
        }
    };

    let mut tape = Tape::new();
    for (i, &(head, relation)) in inp.rank_queries.iter().enumerate() {
        let op = i as u64 + 1;
        log.span("replay.rank", 0, op, |log, parent| {
            let all = triples(head, relation, &candidates);
            let samples: Vec<_> =
                all.iter().map(|&t| model.prepare_eval_sample(&csr, t, ENGINE_SEED)).collect();
            // what the engine does per candidate: find or build the sample, score it
            let mut per_candidate = |log: &mut SpanLog| {
                log.span("serve.rank_candidates", parent, op, |_, _| {
                    all.iter()
                        .zip(&samples)
                        .map(|(&t, cached)| {
                            let sample = if inp.hot {
                                cached.clone()
                            } else {
                                model.prepare_eval_sample(&csr, t, ENGINE_SEED)
                            };
                            tape.reset();
                            let v = model.score_sample_on_tape(&mut tape, &sample);
                            (t.tail.0, tape.value(v).item())
                        })
                        .collect::<Vec<(u32, f32)>>()
                })
            };
            let reversed = op / 2 % 2 == 1;
            let wrappers = |log: &mut SpanLog| {
                let mut ranked = None;
                run_steps(
                    log,
                    parent,
                    op,
                    reversed,
                    &forget,
                    &mut [
                        ("serve.engine_rank", &mut || {
                            ranked = Some(engine.rank_tails(head, relation, RANK_K).expect("rank"));
                        }),
                        ("serve.batcher_rank", &mut || {
                            let item = BatchItem::Rank { head, relation, k: RANK_K };
                            black_box(batcher.submit_wait(item).expect("batched rank"));
                        }),
                        ("client.rank_rtt", &mut || {
                            black_box(
                                session.rank_tails(head.0, relation.0, RANK_K).expect("rank"),
                            );
                        }),
                    ],
                );
                ranked.expect("the engine step ran")
            };
            // as in the score replay, the two take turns at going first
            let (scores, ranked) = if i % 2 == 0 {
                let scores = per_candidate(log);
                (scores, wrappers(log))
            } else {
                let ranked = wrappers(log);
                (per_candidate(log), ranked)
            };
            let merged = log.span("router.merge", parent, op, |_, _| merge_ranked(scores, RANK_K));
            assert_eq!(
                ranked.iter().map(|(e, s)| (e.0, s.to_bits())).collect::<Vec<_>>(),
                merged.iter().map(|(e, s)| (*e, s.to_bits())).collect::<Vec<_>>(),
                "replayed ranking differs from the engine's"
            );

            let slice: Vec<(u32, u32, u32)> =
                routed.iter().map(|&t| (head.0, relation.0, t)).collect();
            run_steps(
                log,
                parent,
                op,
                reversed,
                &forget,
                &mut [
                    ("router.shard_call", &mut || {
                        let third = &slice[..slice.len() / ROUTER_SHARDS];
                        black_box(session.score_batch(third).expect("one shard's slice"));
                    }),
                    ("router.one_replica_batch", &mut || {
                        black_box(session.score_batch(&slice).expect("all on one replica"));
                    }),
                    ("router.rank", &mut || {
                        black_box(router.rank(head.0, relation.0, RANK_K).expect("routed rank"));
                    }),
                    ("router.front_rtt", &mut || {
                        black_box(
                            front_session.rank_tails(head.0, relation.0, RANK_K).expect("front"),
                        );
                    }),
                ],
            );
        });
    }
    drop(front_session);
    out.insert("serve.engine_rank_us", log.mean_us("serve.engine_rank"));
    out.insert(
        "serve.engine_rank_self_us",
        log.mean_us("serve.engine_rank") - log.mean_us("serve.rank_candidates"),
    );
    out.insert("client.rank_rtt_us", log.mean_us("client.rank_rtt"));
    out.insert("router.rank_us", log.mean_us("router.rank"));
    out.insert("router.front_rtt_us", log.mean_us("router.front_rtt"));
    out.insert(
        "router.front_self_us",
        log.mean_us("router.front_rtt") - log.mean_us("router.rank"),
    );
    out.insert("router.shard_call_us", log.mean_us("router.shard_call"));
    out.insert(
        "router.overhead_ratio",
        log.mean_us("router.front_rtt") / log.mean_us("router.one_replica_batch"),
    );
    out.insert("router.merge_us", log.mean_us("router.merge"));
}

/// Replay training steps on the small graph stage by stage, then let the
/// real `Trainer` take one epoch over the same targets.
fn replay_training(inp: &Inputs, log: &mut SpanLog, out: &mut Metrics) {
    let cfg = *inp.small_model.config();
    let mut model = inp.small_model.clone();
    let csr = CsrGraph::from_graph(&inp.small);
    let sampler = NegativeSampler::from_graph(&inp.small);
    let targets = &inp.small.triples()[..REPLAY_BATCHES * TRAIN_BATCH];
    let train = train_config(ENGINE_SEED, 1, 0);
    // the same targets through the product's loop, once before the replay and
    // once after, so the two see the same weather; the gap before the first
    // BatchEnd also holds the trainer's own set-up, so it is not a batch
    let trainer_epoch = |log: &mut SpanLog| {
        let mut model = inp.small_model.clone();
        let clock = log.sibling();
        let mut ends: Vec<u64> = Vec::new();
        Trainer::new(train)
            .on_event(|ev| {
                if matches!(ev, TrainEvent::BatchEnd { .. }) {
                    ends.push(clock.now_ns());
                }
            })
            .train(&mut model, &inp.small, targets, &[]);
        for (i, pair) in ends.windows(2).enumerate() {
            log.record("core.train_batch", 0, i as u64 + 2, pair[0], pair[1]);
        }
    };
    trainer_epoch(log);
    let mut adam = Adam::new(train.lr);
    let mut tape = Tape::new();
    let mut scratch = BackwardScratch::new();
    for (b, batch) in targets.chunks(TRAIN_BATCH).enumerate() {
        let op = b as u64 + 1;
        log.span("replay.train_batch", 0, op, |log, parent| {
            for (i, &pos) in batch.iter().enumerate() {
                let mut rng = StdRng::seed_from_u64((b * TRAIN_BATCH + i) as u64);
                let neg = sampler.corrupt(pos, &inp.small, &mut rng);
                tape.reset();
                let mut forward = |log: &mut SpanLog, t: Triple, rng: &mut StdRng| {
                    let sample = log.span("core.train_prepare", parent, op, |_, _| {
                        prepare_sample(&csr, t, &cfg, Mode::Train, rng)
                    });
                    log.span("core.train_forward", parent, op, |_, _| {
                        model.score_sample_on_tape(&mut tape, &sample)
                    })
                };
                let sp = forward(log, pos, &mut rng);
                let sn = forward(log, neg, &mut rng);
                let loss = log.span("core.train_loss", parent, op, |_, _| {
                    margin_ranking_loss(&mut tape, sp, sn, train.margin)
                });
                let mut grads = GradBuffer::new();
                log.span("autograd.backward", parent, op, |_, _| {
                    tape.backward_into_with(loss, &mut scratch, &mut grads);
                });
                grads.add_to(model.param_store_mut());
            }
            log.span("autograd.optim_step", parent, op, |_, _| {
                let store = model.param_store_mut();
                store.scale_grads(1.0 / batch.len() as f32);
                let norm = store.grad_norm();
                if norm > train.grad_clip {
                    store.scale_grads(train.grad_clip / norm);
                }
                adam.step(store);
                store.zero_grad();
            });
        });
    }

    trainer_epoch(log);
    for (metric, span) in [
        ("core.train_prepare_us", "core.train_prepare"),
        ("core.train_forward_us", "core.train_forward"),
        ("core.train_batch_us", "core.train_batch"),
        ("autograd.backward_us", "autograd.backward"),
        ("autograd.optim_step_us", "autograd.optim_step"),
    ] {
        out.insert(metric, log.mean_us(span));
    }
}

/// The replayed stages that make up one `Engine::score` of this workload: a
/// hot op finds its sample cached, a cold one builds it (through a pinned
/// view when the graph is on disk), and both then run the forward pass.
fn engine_score_stages(w: &Workload, inp: &Inputs) -> &'static [&'static str] {
    match (inp.hot, w.world) {
        (true, _) => &["subgraph.cache_hit", "core.forward"],
        (false, World::Stream { on_disk: true }) => &["store.pin", "core.prepare", "core.forward"],
        (false, _) => &["core.prepare", "core.forward"],
    }
}

/// One level of the onion: `children` are what `parent` wraps.
struct Level {
    what: &'static str,
    children: &'static [&'static str],
    parent: &'static str,
}

/// Children-over-parent ratios, worst first, two ways: the ratio of the
/// means, which is what the per-layer self times are computed from, and the
/// median of the per-op ratios. They fail differently. A noisy moment on
/// the box inflates a few ops and with them a mean, but not the median op;
/// work that one op does on behalf of its neighbour (a reset tape frees the
/// previous op's nodes) skews single ops, but not the means. A real
/// accounting error moves both, so a level is judged by the smaller.
/// The trainer's batches are not nested in the replayed ones, so the median
/// of that level compares medians.
fn reconcile(w: &Workload, inp: &Inputs, log: &SpanLog) -> Vec<(&'static str, f64, f64)> {
    let lookup = engine_score_stages(w, inp);
    let levels = [
        Level {
            what: "extract + relview + schedule / prepare_eval_sample",
            children: &["subgraph.extract", "subgraph.relview", "subgraph.schedule"],
            parent: "core.prepare",
        },
        Level {
            what: "lookup + forward / Engine::score",
            children: lookup,
            parent: "serve.engine_score",
        },
        Level {
            what: "Engine::score / Batcher::submit_wait",
            children: &["serve.engine_score"],
            parent: "serve.batcher_submit",
        },
        Level {
            what: "parse + submit_wait + format / Session::score",
            children: &["serve.parse", "serve.batcher_submit", "serve.format"],
            parent: "client.score_rtt",
        },
        Level {
            what: "candidates / Engine::rank_tails",
            children: &["serve.rank_candidates"],
            parent: "serve.engine_rank",
        },
        Level {
            what: "Engine::rank_tails / Batcher::submit_wait",
            children: &["serve.engine_rank"],
            parent: "serve.batcher_rank",
        },
        Level {
            what: "Batcher::submit_wait / Session::rank_tails",
            children: &["serve.batcher_rank"],
            parent: "client.rank_rtt",
        },
        Level {
            what: "shard call / Router::rank",
            children: &["router.shard_call"],
            parent: "router.rank",
        },
        Level {
            what: "Router::rank / front end",
            children: &["router.rank"],
            parent: "router.front_rtt",
        },
    ];
    let ops = child_totals_ns(log.spans());
    let mut ratios: Vec<(&'static str, f64, f64)> = levels
        .iter()
        .map(|level| {
            // (children ns, parent ns) of every op that ran this level
            let per_op: Vec<(f64, f64)> = ops
                .values()
                .filter_map(|op| {
                    let parent = *op.get(level.parent)? as f64;
                    Some((level.children.iter().map(|c| op[c]).sum::<u64>() as f64, parent))
                })
                .collect();
            let (children, parents) =
                per_op.iter().fold((0.0, 0.0), |(c, p), op| (c + op.0, p + op.1));
            let medians: Vec<f64> = per_op.iter().map(|(c, p)| c / p).collect();
            (level.what, children / parents, stats::median(&medians))
        })
        .collect();
    let replayed: Vec<f64> = ops
        .values()
        .filter(|op| op.contains_key("autograd.optim_step"))
        .map(|op| op.values().sum::<u64>() as f64)
        .collect();
    let trainer: Vec<f64> = log
        .spans()
        .iter()
        .filter(|s| s.name == "core.train_batch")
        .map(|s| s.duration_ns() as f64)
        .collect();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    ratios.push((
        "16 x (2 prepare + 2 forward + loss + backward) + step / Trainer batch",
        mean(&replayed) / mean(&trainer),
        stats::median(&replayed) / stats::median(&trainer),
    ));
    ratios.sort_by(|a, b| b.1.min(b.2).total_cmp(&a.1.min(a.2)));
    ratios
}

/// Time to generate the workload's world again.
fn datasets_build_ms(w: &Workload) -> f64 {
    median_ms(3, || match w.world {
        World::Stream { .. } => drop(black_box(with_stream_world(|t| t.count()))),
        _ => drop(black_box(build_benchmark("nell.v1", Scale::Quick))),
    })
}

/// The traced run of one workload: every per-layer metric.
pub fn run_traced(w: &Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut fx = build(w, seed);
    let epoch = Instant::now();
    let mut untraced_log = SpanLog::new(epoch, false);
    let untraced = drive(w, &mut fx, seconds * IN_SITU_SHARE, &mut untraced_log);
    let mut log = SpanLog::new(epoch, true);
    let before = InSitu::read(&fx);
    let traced = drive(w, &mut fx, seconds * IN_SITU_SHARE, &mut log);
    let after = InSitu::read(&fx);

    let mut correct = true;
    for timed in [&untraced, &traced] {
        match verify(&fx, timed) {
            Ok(digest) => println!("  result_digest {digest:016x}"),
            Err(why) => {
                println!("  INCORRECT: {why}");
                correct = false;
            }
        }
    }
    let rate = |t: &Timed| t.ops() as f64 / t.wall.as_secs_f64();
    let mut metrics = Metrics::new();
    metrics.insert("harness.trace_overhead_ratio", rate(&traced) / rate(&untraced));
    after.metrics_since(&before, &traced, &mut metrics);

    let inp = inputs(w, &fx);
    // the replay has the box to itself: the workload's servers stop first
    let (attempted, failed) =
        (untraced.attempted + traced.attempted, untraced.failed + traced.failed);
    drop(fx);
    metrics.insert("datasets.build_ms", datasets_build_ms(w));
    replay_scores(w, &inp, &mut log, &mut metrics);
    replay_ranks(&inp, &mut log, &mut metrics);
    replay_training(&inp, &mut log, &mut metrics);
    let pool = ThreadPool::new(1);
    for i in 0..REPLAY_OPS as u64 {
        log.span("runtime.pool_dispatch", 0, i + 1, |_, _| {
            black_box(pool.try_map_init(16, || (), |(), i| i).expect("no-op map"));
        });
    }
    metrics.insert("runtime.pool_dispatch_us", log.mean_us("runtime.pool_dispatch"));

    let path = crate::fixture::work_dir().join("trace").join(format!("{}.jsonl", w.name));
    log.write_jsonl(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("  {} spans in {}", log.spans().len(), path.display());
    println!("  {:<26} {:>8} {:>12} {:>12}", "span", "count", "total ms", "self ms");
    for (name, (count, total_ns, self_ns)) in summarize(log.spans()) {
        let (total, own) = (total_ns as f64 / 1e6, self_ns as f64 / 1e6);
        println!("  {name:<26} {count:>8} {total:>12.3} {own:>12.3}");
    }

    let ratios = reconcile(w, &inp, &log);
    println!("  reconciliation, children / parent (the rest is the parent's self time):");
    println!("    {:>6} {:>9}", "means", "median op");
    for (what, means, median_op) in &ratios {
        println!("    {means:>6.3} {median_op:>9.3}  {what}");
    }
    let (worst_what, means, median_op) = ratios[0];
    let worst = means.min(median_op);
    metrics.insert("harness.reconcile_worst_ratio", worst);
    if worst > RECONCILE_LIMIT {
        return Err(format!(
            "stages do not reconcile: {worst_what} is {worst:.3}, the limit is {RECONCILE_LIMIT}"
        ));
    }
    Ok(Outcome { correct: correct && failed == 0, attempted, failed, metrics })
}
