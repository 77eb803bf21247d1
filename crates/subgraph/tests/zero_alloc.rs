//! Steady-state subgraph extraction performs **zero heap allocations**.
//!
//! This is the core promise of the dense-scratch rewrite: once the
//! [`ExtractScratch`] arrays and the output [`Subgraph`] buffers have grown
//! to the workload's high-water mark, `enclosing_subgraph_into` /
//! `disclosing_subgraph_into` never touch the allocator again. The test
//! counts allocator calls with a process-global counting allocator, so it
//! lives in its own test binary (a `#[global_allocator]` applies to every
//! test in the binary) and the tests take turns (`exclusive`).
//!
//! The implicit relation view makes the same kind of promise — nothing per
//! edge, nothing per node — and its guards live here too.

use rmpi_kg::{CsrGraph, KnowledgeGraph, Triple};
use rmpi_subgraph::{
    disclosing_subgraph_into, enclosing_subgraph_into, ExtractScratch, RelViewGraph, Subgraph,
};
// the process-wide test lock: the allocation counter is process-global and
// the harness runs tests on parallel threads, so every test here holds it
// for its whole body
use rmpi_testutil::failpoint::exclusive;
use rmpi_testutil::CountingAllocator;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// Allocation events of one run of `f`, as the minimum over a few runs: `f`
/// is deterministic, and whatever else the process does meanwhile (the
/// harness starting the next test's thread) can only add to a reading.
fn allocations_of(mut f: impl FnMut()) -> u64 {
    (0..5)
        .map(|_| {
            let before = ALLOC.allocations();
            f();
            ALLOC.allocations() - before
        })
        .min()
        .expect("at least one run")
}

/// Deterministic pseudo-random multigraph: `n_triples` edges over
/// `n_entities` entities and `n_relations` relations.
fn build_graph(n_entities: u32, n_relations: u32, n_triples: usize, seed: u32) -> KnowledgeGraph {
    let mut state = seed.wrapping_mul(2654435761).wrapping_add(12345);
    let mut next = || {
        state = state.wrapping_mul(1664525).wrapping_add(1013904223);
        state >> 8
    };
    let triples: Vec<Triple> = (0..n_triples)
        .map(|_| Triple::new(next() % n_entities, next() % n_relations, next() % n_entities))
        .collect();
    KnowledgeGraph::from_triples(triples)
}

fn targets(n_entities: u32, count: usize, seed: u32) -> Vec<Triple> {
    let mut state = seed.wrapping_mul(2246822519).wrapping_add(7);
    let mut next = || {
        state = state.wrapping_mul(1664525).wrapping_add(1013904223);
        state >> 8
    };
    (0..count).map(|_| Triple::new(next() % n_entities, 99u32, next() % n_entities)).collect()
}

#[test]
fn steady_state_extraction_is_allocation_free() {
    let _turn = exclusive();
    // adjacency is in `build_graph`'s random input order, so the edge sweep's
    // in-place sorts (the kept ids, then each head's run) all have work to do
    let g = build_graph(300, 12, 2400, 1);
    let csr = CsrGraph::from_graph(&g);
    let ts = targets(300, 64, 2);

    let mut scratch = ExtractScratch::new();
    let mut out = Subgraph::empty(ts[0]);

    // Warm-up: size every buffer to the workload's high-water mark. The
    // second pass repeats the exact same targets, so no buffer can need to
    // grow past what this pass established.
    for &t in &ts {
        for k in 0..=2usize {
            enclosing_subgraph_into(&csr, t, k, &mut scratch, &mut out);
            disclosing_subgraph_into(&csr, t, k, &mut scratch, &mut out);
            enclosing_subgraph_into(&g, t, k, &mut scratch, &mut out);
            disclosing_subgraph_into(&g, t, k, &mut scratch, &mut out);
        }
    }

    let before = ALLOC.allocations();
    let mut checksum = 0usize;
    let mut sorted = true;
    for &t in &ts {
        for k in 0..=2usize {
            enclosing_subgraph_into(&csr, t, k, &mut scratch, &mut out);
            checksum += out.num_edges() + out.num_entities();
            disclosing_subgraph_into(&csr, t, k, &mut scratch, &mut out);
            checksum += out.num_edges() + out.num_entities();
            enclosing_subgraph_into(&g, t, k, &mut scratch, &mut out);
            checksum += out.num_edges();
            disclosing_subgraph_into(&g, t, k, &mut scratch, &mut out);
            checksum += out.num_edges();
            sorted &= out.triples.windows(2).all(|w| w[0] <= w[1]);
        }
    }
    let allocations = ALLOC.allocations() - before;

    assert!(checksum > 0, "extractions produced no output — workload degenerate");
    assert!(sorted, "the sweep's output must come out sorted");
    assert_eq!(
        allocations,
        0,
        "steady-state extraction allocated {allocations} times over {} calls",
        ts.len() * 3 * 4
    );
}

#[test]
fn thread_local_wrapper_reaches_steady_state() {
    let _turn = exclusive();
    // The convenience wrappers allocate only for the returned Subgraph's own
    // buffers — growth of the thread-local scratch stops after warm-up. This
    // bounds, rather than zeroes, their steady-state traffic: the point is
    // that repeated wrapper calls don't regrow scratch arrays.
    let g = build_graph(200, 8, 1200, 3);
    let ts = targets(200, 16, 4);
    for &t in &ts {
        rmpi_subgraph::enclosing_subgraph(&g, t, 2);
    }
    let before = ALLOC.allocations();
    for &t in &ts {
        rmpi_subgraph::enclosing_subgraph(&g, t, 2);
    }
    let per_call = (ALLOC.allocations() - before) as usize / ts.len();
    // each call allocates the output Subgraph's three Vecs (plus their
    // growth); a regression that re-grows scratch would blow well past this
    assert!(per_call < 32, "wrapper steady state allocates {per_call} times per call");
}

/// A subgraph-shaped input of exactly `n_edges` edges, dense enough (40
/// entities) that the relation view has tens of edges per node.
fn subgraph_of(n_edges: usize) -> Subgraph {
    let g = build_graph(40, 6, 400, 5);
    let mut sg = Subgraph::empty(Triple::new(0u32, 99u32, 1u32));
    sg.triples = g.triples()[..n_edges].to_vec();
    sg
}

#[test]
fn enumerating_a_relation_view_is_allocation_free() {
    let _turn = exclusive();
    let rv = RelViewGraph::from_subgraph(&subgraph_of(300));
    let mut edges = 0usize;
    let allocations = allocations_of(|| {
        edges = (0..rv.num_nodes()).map(|dst| rv.incoming(dst).count()).sum();
    });
    assert!(edges > 10 * rv.num_nodes(), "only {edges} edges — workload degenerate");
    assert_eq!(allocations, 0, "enumerating {edges} edges allocated {allocations} times");
}

#[test]
fn relation_view_build_and_clone_allocate_per_array_not_per_edge() {
    let _turn = exclusive();
    let (small, large) = (subgraph_of(30), subgraph_of(300));
    let build_small = allocations_of(|| drop(RelViewGraph::from_subgraph(&small)));
    let build_large = allocations_of(|| drop(RelViewGraph::from_subgraph(&large)));
    assert_eq!(build_small, build_large, "allocations must not grow with the subgraph");
    assert_eq!(build_large, 3, "nodes, incidence list, group runs");

    let rv = RelViewGraph::from_subgraph(&large);
    assert_eq!(allocations_of(|| drop(rv.clone())), 3, "a clone is its three arrays");
}
