//! Criterion bench: the efficiency claim of Algorithm 1 — message passing
//! with target-guided pruning versus updating every relation node at every
//! layer.
//!
//! The final layer only feeds the target's read-out, so it aggregates into
//! the target alone under either schedule: the unpruned arm differs from the
//! pruned one in layers `1..K−1`, where it updates every node instead of the
//! nodes within `K − k` hops of the target. The relation view stores no
//! edges, so the unpruned arm also pays for enumerating every node's
//! in-edges — the whole line graph, once per layer — where the pruned arm
//! enumerates only what it reads.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rmpi_autograd::{init, ParamStore, Tape};
use rmpi_core::layers::{relational_message_passing, AttentionConfig, MessagePassingWeights};
use rmpi_datasets::registry::Family;
use rmpi_datasets::world::GraphGenConfig;
use rmpi_kg::KnowledgeGraph;
use rmpi_subgraph::{enclosing_subgraph, PruningSchedule, RelViewGraph};
use std::time::Duration;

const DIM: usize = 32;
const LAYERS: usize = 3;

/// An unpruned schedule: every node is "at distance zero", so every layer
/// but the last updates every node — the cost profile of naive whole-graph
/// passing.
fn full_schedule(rv: &RelViewGraph, k: usize) -> PruningSchedule {
    PruningSchedule { dist: vec![0; rv.num_nodes()], k }
}

fn run_pass(
    store: &ParamStore,
    weights: &MessagePassingWeights,
    rv: &RelViewGraph,
    sched: &PruningSchedule,
    emb: rmpi_autograd::ParamId,
) -> f32 {
    let mut tape = Tape::new();
    // the embedding table itself is the layer-0 state: node → row by relation
    let table = tape.param(store, emb);
    let row_of: Vec<usize> = rv.nodes.iter().map(|n| n.relation.index()).collect();
    let out = relational_message_passing(
        &mut tape,
        store,
        weights,
        AttentionConfig { enabled: false, leaky_slope: 0.2 },
        rv,
        sched,
        table,
        &row_of,
    );
    tape.value(out).data()[0]
}

fn bench_pruning(c: &mut Criterion) {
    // medium-density graphs: line graphs of dense subgraphs explode
    // quadratically, which is precisely why pruning exists — but the
    // unpruned arm still has to terminate, so the bench uses mid-sized views
    let family = Family::Nell;
    let world = family.world();
    let groups: Vec<usize> = (0..world.groups().len()).collect();
    let triples = world.generate_triples(
        &groups,
        &GraphGenConfig { num_entities: 320, num_base_triples: 900, seed: 7, ..Default::default() },
    );
    let g = KnowledgeGraph::from_triples(triples);
    // a handful of mid-sized relation views: big enough that pruning matters,
    // small enough that the *unpruned* pass stays benchable
    let rvs: Vec<RelViewGraph> = g
        .triples()
        .iter()
        .map(|&t| RelViewGraph::from_subgraph(&enclosing_subgraph(&g, t, 2)))
        .filter(|rv| (30..=140).contains(&rv.num_nodes()))
        .take(4)
        .collect();
    assert!(!rvs.is_empty(), "no mid-sized relation views sampled");

    let mut rng = StdRng::seed_from_u64(0);
    let mut store = ParamStore::new();
    let weights = MessagePassingWeights::new(&mut store, "mp", LAYERS, DIM, &mut rng);
    let emb = store.create("emb", init::xavier_uniform(&[world.num_relations(), DIM], &mut rng));

    let mut group = c.benchmark_group("pruning");
    group.sample_size(10).measurement_time(Duration::from_secs(8));
    group.bench_with_input(BenchmarkId::new("message_passing", "pruned"), &rvs, |b, rvs| {
        b.iter(|| {
            let mut acc = 0.0f32;
            for rv in rvs {
                let sched = PruningSchedule::new(rv, LAYERS);
                acc += run_pass(&store, &weights, rv, &sched, emb);
            }
            acc
        })
    });
    group.bench_with_input(BenchmarkId::new("message_passing", "full"), &rvs, |b, rvs| {
        b.iter(|| {
            let mut acc = 0.0f32;
            for rv in rvs {
                let sched = full_schedule(rv, LAYERS);
                acc += run_pass(&store, &weights, rv, &sched, emb);
            }
            acc
        })
    });
    group.finish();

    // also report the static update-count reduction once
    let (pruned, full): (usize, usize) = rvs
        .iter()
        .map(|rv| PruningSchedule::new(rv, LAYERS).update_counts())
        .fold((0, 0), |(a, b), (p, f)| (a + p, b + f));
    eprintln!(
        "[pruning] node updates: pruned {pruned} vs full {full} ({:.1}x reduction)",
        full as f64 / pruned.max(1) as f64
    );
}

criterion_group!(benches, bench_pruning);
criterion_main!(benches);
