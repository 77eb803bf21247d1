//! A warm pin performs **zero heap allocations**.
//!
//! Once a view's arenas, range table and BFS queue have grown to the
//! workload's high-water mark, and the reader's block cache holds the blocks
//! the pins touch, `NeighborhoodView::pin` never reaches the allocator —
//! neither on a long-lived view nor on the per-thread recycled one that
//! `with_thread_view` lends out afresh on every call. The counting allocator
//! is process-global, so these tests live in their own binary and take turns
//! (`exclusive`).

use rmpi_kg::{EntityId, GraphAccess, Triple};
use rmpi_store::{
    build_from_sorted, with_thread_view, NeighborhoodView, ReadMode, StoreConfig, StoreReader,
};
use rmpi_testutil::failpoint::exclusive;
use rmpi_testutil::CountingAllocator;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// A store of 2 400 pseudo-random triples over 300 entities, opened the way
/// a memory-bounded server opens it, and 48 `(head, tail)` pairs to pin.
fn store_and_pairs(tag: &str) -> (std::path::PathBuf, StoreReader, Vec<(EntityId, EntityId)>) {
    let mut state = 0x2545_F491u32;
    let mut next = || {
        state = state.wrapping_mul(1664525).wrapping_add(1013904223);
        state >> 8
    };
    let mut triples: Vec<Triple> =
        (0..2400).map(|_| Triple::new(next() % 300, next() % 12, next() % 300)).collect();
    triples.sort_unstable();
    let dir =
        std::env::temp_dir().join(format!("rmpi-store-zeroalloc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    build_from_sorted(&dir, StoreConfig::default(), triples).unwrap();
    let reader = StoreReader::open(&dir, ReadMode::Stream { cache_blocks: 64 }).unwrap();
    let pairs = (0..48).map(|_| (EntityId(next() % 300), EntityId(next() % 300))).collect();
    (dir, reader, pairs)
}

#[test]
fn warm_pin_on_a_long_lived_view_is_allocation_free() {
    let _turn = exclusive();
    let (dir, reader, pairs) = store_and_pairs("owned");
    let mut view = NeighborhoodView::new(&reader);
    let pass = |view: &mut NeighborhoodView<'_>| -> usize {
        let mut edges = 0;
        for &(u, v) in &pairs {
            for k in 0..=2 {
                view.pin(u, v, k).unwrap();
                edges += view.pinned_edges() + view.out_edges(u).len();
            }
        }
        edges
    };
    let warm = pass(&mut view);
    let before = ALLOC.allocations();
    let again = pass(&mut view);
    let allocations = ALLOC.allocations() - before;
    assert!(warm > 10_000, "only {warm} edges pinned — workload degenerate");
    assert_eq!(warm, again);
    assert_eq!(allocations, 0, "warm pins allocated {allocations} times");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn warm_pin_on_the_recycled_thread_view_is_allocation_free() {
    let _turn = exclusive();
    let (dir, reader, pairs) = store_and_pairs("recycled");
    // one `with_thread_view` per pin, as the engine makes one per `prepare`
    let pass = || -> usize {
        pairs
            .iter()
            .map(|&(u, v)| {
                with_thread_view(&reader, |view| {
                    assert_eq!(view.pinned_entities(), 0, "a lent view starts with nothing pinned");
                    view.pin(u, v, 2).unwrap();
                    view.pinned_edges()
                })
            })
            .sum()
    };
    let warm = pass();
    let before = ALLOC.allocations();
    let again = pass();
    let allocations = ALLOC.allocations() - before;
    assert!(warm > 10_000, "only {warm} edges pinned — workload degenerate");
    assert_eq!(warm, again);
    assert_eq!(allocations, 0, "warm pins on the recycled view allocated {allocations} times");
    std::fs::remove_dir_all(&dir).unwrap();
}
