//! Criterion bench: what the relation view costs one prepare + forward.
//!
//! The view is implicit — building it sorts the entity incidence list and
//! stores no edges; edges are enumerated when read. So the timed unit is what
//! a sample actually pays: build, the pruning schedule's BFS, and one
//! enumeration of each layer's destination nodes' in-edges, at the paper's
//! K = 2. Counting the whole line graph (`num_edges()`) is deliberately not
//! in the loop: nothing on the scoring path does it.

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

fn bench_transform(c: &mut Criterion) {
    let mut group = c.benchmark_group("relview_transform");
    for family in [Family::Wn, Family::Fb, Family::Nell] {
        let sgs = samples(family);
        group.bench_with_input(BenchmarkId::new("build_and_read", family.tag()), &sgs, |b, sgs| {
            b.iter(|| {
                let mut edges_read = 0usize;
                for sg in sgs {
                    let rv = RelViewGraph::from_subgraph(sg);
                    let sched = PruningSchedule::new(&rv, LAYERS);
                    for layer in 1..LAYERS {
                        for node in sched.active_nodes(layer) {
                            edges_read += rv.incoming(node).count();
                        }
                    }
                    // the final layer aggregates into the target alone
                    edges_read += rv.incoming(TARGET_NODE).count();
                }
                edges_read
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_transform);
criterion_main!(benches);
