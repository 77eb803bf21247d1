//! Criterion bench: a full adjacency scan of the in-memory graph's CSR
//! arenas, the workload subgraph extraction is bound by; the store's 2-hop
//! pin on a fresh view, on the per-thread recycled one, and through a
//! one-block cache so every pin refills (and re-verifies) blocks; and the
//! block checksum over one 64 KiB forward block.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rmpi_datasets::registry::Family;
use rmpi_datasets::world::GraphGenConfig;
use rmpi_kg::{EntityId, KnowledgeGraph};
use rmpi_store::{
    build_from_sorted, with_thread_view, xxh64, NeighborhoodView, ReadMode, StoreConfig,
    StoreReader, FWD_BLOCK_BYTES,
};

fn bench_storage(c: &mut Criterion) {
    let world = Family::Fb.world();
    let groups: Vec<usize> = (0..world.groups().len()).collect();
    let triples = world.generate_triples(
        &groups,
        &GraphGenConfig {
            num_entities: 2000,
            num_base_triples: 14_000,
            seed: 13,
            ..Default::default()
        },
    );
    let graph = KnowledgeGraph::from_triples(triples.clone());
    let n = graph.num_entities() as u32;

    let mut group = c.benchmark_group("graph_storage");
    group.bench_with_input(BenchmarkId::new("full_scan", "in_memory"), &graph, |b, g| {
        b.iter(|| {
            let mut acc = 0usize;
            for e in 0..n {
                for edge in g.out_edges(EntityId(e)) {
                    acc = acc.wrapping_add(edge.neighbor.index() + edge.relation.index());
                }
                for edge in g.in_edges(EntityId(e)) {
                    acc = acc.wrapping_add(edge.neighbor.index());
                }
            }
            acc
        })
    });

    // The same graph on disk, block cache warm: what a store-backed engine
    // pays per cold query before extraction starts.
    let dir = std::env::temp_dir().join(format!("rmpi-bench-pin-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    build_from_sorted(&dir, StoreConfig::default(), triples.iter().copied()).expect("build store");
    let reader = StoreReader::open(&dir, ReadMode::Stream { cache_blocks: 64 }).expect("open");
    let pairs: Vec<(EntityId, EntityId)> =
        triples.iter().step_by(triples.len() / 64 + 1).map(|t| (t.head, t.tail)).collect();
    group.bench_with_input(BenchmarkId::new("pin_2hop", "fresh_view"), &reader, |b, reader| {
        b.iter(|| {
            let mut edges = 0usize;
            for &(u, v) in &pairs {
                let mut view = NeighborhoodView::new(reader);
                view.pin(u, v, 2).expect("pin");
                edges += view.pinned_edges();
            }
            edges
        })
    });
    group.bench_with_input(BenchmarkId::new("pin_2hop", "recycled_view"), &reader, |b, reader| {
        b.iter(|| {
            let mut edges = 0usize;
            for &(u, v) in &pairs {
                edges += with_thread_view(reader, |view| {
                    view.pin(u, v, 2).expect("pin");
                    view.pinned_edges()
                });
            }
            edges
        })
    });
    // A one-block cache: nearly every block a pin touches is a refill, so
    // this arm is dominated by `pread` plus block verification.
    let cold = StoreReader::open(&dir, ReadMode::Stream { cache_blocks: 1 }).expect("open");
    group.bench_with_input(BenchmarkId::new("pin_2hop", "cold"), &cold, |b, reader| {
        b.iter(|| {
            let mut edges = 0usize;
            for &(u, v) in &pairs {
                edges += with_thread_view(reader, |view| {
                    view.pin(u, v, 2).expect("pin");
                    view.pinned_edges()
                });
            }
            edges
        })
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);

    // What each cache fill pays to verify one forward block with XXH64.
    let block: Vec<u8> = (0..FWD_BLOCK_BYTES).map(|i| (i * 31 % 251) as u8).collect();
    let mut group = c.benchmark_group("block_checksum");
    group.bench_with_input(BenchmarkId::from_parameter("xxh64"), &block, |b, block| {
        b.iter(|| xxh64(black_box(block)))
    });
    group.finish();
}

criterion_group!(benches, bench_storage);
criterion_main!(benches);
