//! Criterion bench: K-hop enclosing/disclosing subgraph extraction
//! throughput on generated graphs of the three family profiles, and on a
//! dense world where one enclosing subgraph holds over ten thousand edges.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rmpi_datasets::registry::Family;
use rmpi_datasets::world::GraphGenConfig;
use rmpi_datasets::{World, WorldConfig};
use rmpi_kg::{CsrGraph, KnowledgeGraph};
use rmpi_subgraph::{disclosing_subgraph, enclosing_subgraph};

fn bench_extraction(c: &mut Criterion) {
    let mut group = c.benchmark_group("subgraph_extraction");
    for family in [Family::Wn, Family::Fb, Family::Nell] {
        let world = family.world();
        let groups: Vec<usize> = (0..world.groups().len()).collect();
        let triples = world.generate_triples(
            &groups,
            &GraphGenConfig {
                num_entities: 500,
                num_base_triples: 2500,
                seed: 3,
                ..Default::default()
            },
        );
        let g = KnowledgeGraph::from_triples(triples);
        let targets: Vec<_> =
            g.triples().iter().step_by(g.num_triples() / 64 + 1).copied().collect();

        group.bench_with_input(BenchmarkId::new("enclosing_2hop", family.tag()), &g, |b, g| {
            b.iter(|| {
                let mut edges = 0usize;
                for &t in &targets {
                    edges += enclosing_subgraph(g, t, 2).num_edges();
                }
                edges
            })
        });
        group.bench_with_input(BenchmarkId::new("disclosing_2hop", family.tag()), &g, |b, g| {
            b.iter(|| {
                let mut edges = 0usize;
                for &t in &targets {
                    edges += disclosing_subgraph(g, t, 2).num_edges();
                }
                edges
            })
        });
    }
    group.finish();
}

/// One island of the world `rmpi_perf`'s `score_cold` scores against (its
/// 20 000 entities are eight of these side by side), through the CSR the
/// engine extracts from. A 2-hop enclosing subgraph here is most of the
/// island — the edge sweep, not the BFS, is the cost — long before
/// `prepare_sample` cuts it to 300 edges.
fn bench_dense_world(c: &mut Criterion) {
    let rules = World::new(WorldConfig::default());
    let groups: Vec<usize> = (0..rules.groups().len()).collect();
    let triples = rules.generate_triples(
        &groups,
        &GraphGenConfig {
            num_entities: 2500,
            num_base_triples: 7500,
            max_triples: 30_000,
            seed: 17,
            ..Default::default()
        },
    );
    let csr = CsrGraph::from_triples(triples);
    let targets: Vec<_> =
        csr.triples().iter().step_by(csr.num_triples() / 32 + 1).copied().collect();
    let mean_edges =
        targets.iter().map(|&t| enclosing_subgraph(&csr, t, 2).num_edges()).sum::<usize>()
            / targets.len();
    assert!(mean_edges >= 10_000, "dense arm extracts only {mean_edges} edges per target");

    let mut group = c.benchmark_group("subgraph_extraction");
    group.bench_with_input(BenchmarkId::new("enclosing_2hop", "dense"), &csr, |b, g| {
        b.iter(|| targets.iter().map(|&t| enclosing_subgraph(g, t, 2).num_edges()).sum::<usize>())
    });
    group.bench_with_input(BenchmarkId::new("disclosing_2hop", "dense"), &csr, |b, g| {
        b.iter(|| targets.iter().map(|&t| disclosing_subgraph(g, t, 2).num_edges()).sum::<usize>())
    });
    group.finish();
}

criterion_group!(benches, bench_extraction, bench_dense_world);
criterion_main!(benches);
