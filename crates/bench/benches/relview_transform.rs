//! Criterion bench: what the relation view costs one prepare + forward.
//!
//! The view is implicit — building it places the entity incidence list with
//! a counting pass and stores no edges; edges are enumerated when read. So
//! the timed unit is what a sample actually pays: build, the pruning
//! schedule's BFS, and one enumeration of each layer's destination nodes'
//! in-edges, at the paper's K = 2. Each of the three has an arm of its own
//! (`schedule` and `read` on prebuilt views and schedules) beside the
//! combined `build_and_read`, so a change to one shows its own number.
//! Counting the whole line graph (`num_edges()`) is deliberately not in the
//! loop: nothing on the scoring path does it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rmpi_datasets::registry::Family;
use rmpi_datasets::world::GraphGenConfig;
use rmpi_kg::KnowledgeGraph;
use rmpi_subgraph::relview::TARGET_NODE;
use rmpi_subgraph::{enclosing_subgraph, PruningSchedule, RelViewGraph, Subgraph};

const LAYERS: usize = 2;

fn samples(family: Family) -> Vec<Subgraph> {
    let world = family.world();
    let groups: Vec<usize> = (0..world.groups().len()).collect();
    let triples = world.generate_triples(
        &groups,
        &GraphGenConfig {
            num_entities: 400,
            num_base_triples: 2000,
            seed: 5,
            ..Default::default()
        },
    );
    let g = KnowledgeGraph::from_triples(triples);
    g.triples()
        .iter()
        .step_by(g.num_triples() / 32 + 1)
        .map(|&t| enclosing_subgraph(&g, t, 2))
        .filter(|sg| !sg.is_empty())
        .collect()
}

/// The in-edges a pruned K-layer forward reads: each layer's destinations',
/// the final layer aggregating into the target alone.
fn read(rv: &RelViewGraph, sched: &PruningSchedule) -> usize {
    let mut edges_read = 0;
    for layer in 1..LAYERS {
        for node in sched.active_nodes(layer) {
            edges_read += rv.incoming(node).count();
        }
    }
    edges_read + rv.incoming(TARGET_NODE).count()
}

fn bench_transform(c: &mut Criterion) {
    let mut group = c.benchmark_group("relview_transform");
    for family in [Family::Wn, Family::Fb, Family::Nell] {
        let sgs = samples(family);
        let views: Vec<RelViewGraph> = sgs.iter().map(RelViewGraph::from_subgraph).collect();
        let schedules: Vec<PruningSchedule> =
            views.iter().map(|rv| PruningSchedule::new(rv, LAYERS)).collect();
        group.bench_with_input(BenchmarkId::new("build", family.tag()), &sgs, |b, sgs| {
            b.iter(|| {
                sgs.iter().map(|sg| RelViewGraph::from_subgraph(sg).num_nodes()).sum::<usize>()
            })
        });
        group.bench_with_input(BenchmarkId::new("schedule", family.tag()), &views, |b, views| {
            b.iter(|| {
                views.iter().map(|rv| PruningSchedule::new(rv, LAYERS).dist.len()).sum::<usize>()
            })
        });
        group.bench_with_input(BenchmarkId::new("read", family.tag()), &views, |b, views| {
            b.iter(|| {
                views.iter().zip(&schedules).map(|(rv, sched)| read(rv, sched)).sum::<usize>()
            })
        });
        group.bench_with_input(BenchmarkId::new("build_and_read", family.tag()), &sgs, |b, sgs| {
            b.iter(|| {
                sgs.iter()
                    .map(|sg| {
                        let rv = RelViewGraph::from_subgraph(sg);
                        read(&rv, &PruningSchedule::new(&rv, LAYERS))
                    })
                    .sum::<usize>()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_transform);
criterion_main!(benches);
