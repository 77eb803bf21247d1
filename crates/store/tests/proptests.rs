//! The satellite equivalence property: `StoreReader`-backed `GraphAccess`
//! (through a pinned [`NeighborhoodView`]) must be observationally
//! identical to `CsrGraph` and to the naive reference extractor on random
//! worlds. Because every `Subgraph` field is sorted, equality here is
//! bit-equality — the same property the serve-path bit-identity test
//! builds on.

use proptest::prelude::*;
use rmpi_kg::{CsrGraph, EntityId, GraphAccess, KnowledgeGraph, Triple};
use rmpi_store::{
    build_from_sorted, xxh64, NeighborhoodView, ReadMode, StoreConfig, StoreError, StoreReader,
    Xxh64,
};
use rmpi_subgraph::{disclosing_subgraph, enclosing_subgraph};
use std::collections::btree_map::{BTreeMap, Entry};
use std::sync::atomic::{AtomicU64, Ordering};

fn arb_world() -> impl Strategy<Value = (Vec<Triple>, Triple)> {
    (prop::collection::vec((0u32..24, 0u32..6, 0u32..24), 1..100), (0u32..24, 0u32..6, 0u32..24))
        .prop_map(|(edges, (h, r, t))| {
            let mut triples: Vec<Triple> =
                edges.into_iter().map(|(a, rel, b)| Triple::new(a, rel, b)).collect();
            triples.sort_unstable();
            (triples, Triple::new(h, r, t))
        })
}

/// Fresh on-disk store per case (tiny segments to exercise boundaries).
fn store_for(triples: &[Triple]) -> (std::path::PathBuf, StoreReader) {
    static CASE: AtomicU64 = AtomicU64::new(0);
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("rmpi-store-prop-{}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = StoreConfig { seg_records: 37, transpose_budget_bytes: 1024 };
    build_from_sorted(&dir, cfg, triples.iter().copied()).unwrap();
    let reader = StoreReader::open(&dir, ReadMode::Stream { cache_blocks: 3 }).unwrap();
    (dir, reader)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pinned_view_extraction_matches_csr_and_reference(
        (triples, target) in arb_world(),
        k in 0usize..4,
    ) {
        let (dir, reader) = store_for(&triples);
        let graph = KnowledgeGraph::from_triples(triples.clone());
        let csr = CsrGraph::from_triples(triples);

        let want_en = rmpi_subgraph::extraction::reference::enclosing_subgraph(&graph, target, k);
        let want_di = rmpi_subgraph::extraction::reference::disclosing_subgraph(&graph, target, k);
        let csr_en = enclosing_subgraph(&csr, target, k);
        let csr_di = disclosing_subgraph(&csr, target, k);
        prop_assert_eq!(&csr_en.triples, &want_en.triples);
        prop_assert_eq!(&csr_di.triples, &want_di.triples);

        let mut view = NeighborhoodView::new(&reader);
        view.pin(target.head, target.tail, k).unwrap();
        let got_en = enclosing_subgraph(&view, target, k);
        let got_di = disclosing_subgraph(&view, target, k);

        prop_assert_eq!(&got_en.triples, &want_en.triples, "enclosing triples (store)");
        prop_assert_eq!(&got_en.entities, &want_en.entities, "enclosing entities (store)");
        prop_assert_eq!(
            got_en.distance_rows(), want_en.distance_rows(), "enclosing distances (store)"
        );
        prop_assert_eq!(&got_di.triples, &want_di.triples, "disclosing triples (store)");
        prop_assert_eq!(&got_di.entities, &want_di.entities, "disclosing entities (store)");
        prop_assert_eq!(
            got_di.distance_rows(), want_di.distance_rows(), "disclosing distances (store)"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The pin contract, against the CSR: out-edges of every entity within
    /// `k` undirected hops of a source, in-edges of those within `k - 1` and
    /// of the sources themselves, and nothing else.
    #[test]
    fn pinned_view_adjacency_matches_csr(
        (triples, target) in arb_world(),
        k in 0usize..4,
    ) {
        let (dir, reader) = store_for(&triples);
        let csr = CsrGraph::from_triples(triples);
        let (u, v) = (target.head, target.tail);
        let mut view = NeighborhoodView::new(&reader);
        view.pin(u, v, k).unwrap();

        let depth = depths_from(&csr, &[u, v], k);
        let (mut entities, mut edges) = (0usize, 0usize);
        for (&e, &d) in &depth {
            entities += 1;
            prop_assert_eq!(view.out_edges(e), csr.out_edges(e), "out({}) at depth {}", e, d);
            edges += csr.out_edges(e).len();
            if d < k || e == u || e == v {
                prop_assert_eq!(view.in_edges(e), csr.in_edges(e), "in({}) at depth {}", e, d);
                edges += csr.in_edges(e).len();
            }
        }
        prop_assert_eq!(view.pinned_entities(), entities, "pinned exactly the k-hop ball");
        prop_assert_eq!(view.pinned_edges(), edges, "shell in-edges are not loaded");

        // Scalars, degrees and triple look-ups agree regardless of the pin.
        prop_assert_eq!(GraphAccess::num_entities(&view), GraphAccess::num_entities(&csr));
        prop_assert_eq!(GraphAccess::num_triples(&view), GraphAccess::num_triples(&csr));
        prop_assert_eq!(GraphAccess::num_relations(&view), GraphAccess::num_relations(&csr));
        // every id the worlds draw from, and two past the id space
        for e in (0..26u32).map(EntityId) {
            prop_assert_eq!(GraphAccess::degree(&view, e), GraphAccess::degree(&csr, e), "{}", e);
        }
        for idx in 0..GraphAccess::num_triples(&csr) {
            prop_assert_eq!(GraphAccess::triple(&view, idx), GraphAccess::triple(&csr, idx));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn membership_matches_csr(
        (triples, probe) in arb_world(),
    ) {
        let (dir, reader) = store_for(&triples);
        let csr = CsrGraph::from_triples(triples.clone());
        prop_assert_eq!(reader.contains(&probe).unwrap(), csr.contains(&probe));
        for t in triples.iter().take(30) {
            prop_assert!(reader.contains(t).unwrap());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Durability property: flip one bit anywhere in a finished store —
    /// manifest, index or any segment — and a full read pass either fails
    /// (a corruption/parse error, never a panic) or observes adjacency
    /// bit-identical to the pristine store. Silently wrong data is the one
    /// outcome that must be impossible, in both read modes.
    #[test]
    fn any_single_bit_flip_is_never_silently_wrong(
        file_sel in 0usize..10_000,
        byte_sel in 0usize..10_000_000,
        bit in 0u8..8,
    ) {
        let triples = {
            let mut v: Vec<Triple> = (0..400u32)
                .map(|i| Triple::new(i % 40, i % 6, (i * 13 + 1) % 40))
                .collect();
            v.sort_unstable();
            v
        };
        let (dir, reader) = store_for(&triples);
        let pristine = observe_everything_via(reader).unwrap();

        let mut files: Vec<std::path::PathBuf> =
            std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()).collect();
        files.sort();
        let victim = &files[file_sel % files.len()];
        let mut bytes = std::fs::read(victim).unwrap();
        prop_assert!(!bytes.is_empty(), "no store file is empty");
        let at = byte_sel % bytes.len();
        bytes[at] ^= 1u8 << bit;
        std::fs::write(victim, &bytes).unwrap();

        match observe_everything(&dir, ReadMode::Stream { cache_blocks: 2 }) {
            Ok(digest) => prop_assert_eq!(
                digest, pristine,
                "flip {:?}[{at}] bit {bit} read back silently different data",
                victim.file_name().unwrap()
            ),
            // Any error is acceptable — a flipped MANIFEST byte can even
            // break UTF-8 — as long as it is permanent (never classified
            // retryable: the damage is on disk, not in flight).
            Err(e) => prop_assert!(!e.is_transient(), "flip classified transient: {e}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Undirected hop distance from the nearer of `sources`, for every entity
/// within `k` hops — the plain-BFS statement of which entities a pin covers.
fn depths_from(csr: &CsrGraph, sources: &[EntityId], k: usize) -> BTreeMap<EntityId, usize> {
    let mut depth: BTreeMap<EntityId, usize> = sources.iter().map(|&s| (s, 0)).collect();
    let mut frontier: Vec<EntityId> = depth.keys().copied().collect();
    for d in 1..=k {
        let mut next = Vec::new();
        for &e in &frontier {
            for edge in csr.out_edges(e).iter().chain(csr.in_edges(e)) {
                if let Entry::Vacant(unseen) = depth.entry(edge.neighbor) {
                    unseen.insert(d);
                    next.push(edge.neighbor);
                }
            }
        }
        frontier = next;
    }
    depth
}

/// The chain `0 -> 1 -> 2` pinned around entity 0 at radius 1: entity 1 is
/// the shell, entity 2 is outside.
#[cfg(debug_assertions)]
fn chain_pinned_at_radius_one(read: impl FnOnce(&NeighborhoodView<'_>)) {
    let (dir, reader) = store_for(&[Triple::new(0u32, 0u32, 1u32), Triple::new(1u32, 0u32, 2u32)]);
    let mut view = NeighborhoodView::new(&reader);
    view.pin(EntityId(0), EntityId(0), 1).unwrap();
    assert_eq!(view.out_edges(EntityId(1)).len(), 1, "the shell serves its out-edges");
    // the store directory goes first: `read` is expected to panic
    std::fs::remove_dir_all(&dir).unwrap();
    read(&view);
}

#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "outermost shell")]
fn reading_in_edges_of_the_shell_panics_in_debug_builds() {
    chain_pinned_at_radius_one(|view| assert!(view.in_edges(EntityId(1)).is_empty()));
}

#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "outside the pinned neighbourhood")]
fn reading_outside_the_pin_panics_in_debug_builds() {
    chain_pinned_at_radius_one(|view| assert!(view.in_edges(EntityId(2)).is_empty()));
}

/// Open `dir` and read every adjacency surface the store serves — out/in
/// edges per entity, point lookups, membership, the sequential sweep — and
/// fold all of it into one digest.
fn observe_everything(dir: &std::path::Path, mode: ReadMode) -> Result<u64, StoreError> {
    observe_everything_via(StoreReader::open(dir, mode)?)
}

fn observe_everything_via(reader: StoreReader) -> Result<u64, StoreError> {
    fn note(h: &mut Xxh64, t: Triple) {
        h.update(&t.head.0.to_le_bytes());
        h.update(&t.relation.0.to_le_bytes());
        h.update(&t.tail.0.to_le_bytes());
    }
    fn note_edge(h: &mut Xxh64, e: rmpi_kg::Edge) {
        h.update(&e.neighbor.0.to_le_bytes());
        h.update(&e.relation.0.to_le_bytes());
        h.update(&(e.triple_idx as u64).to_le_bytes());
    }
    let mut h = Xxh64::new();
    for e in 0..reader.num_entities() as u32 {
        reader.for_each_out_edge(EntityId(e), |edge| note_edge(&mut h, edge))?;
        reader.for_each_in_edge(EntityId(e), |edge| note_edge(&mut h, edge))?;
    }
    for idx in 0..reader.num_triples() as u64 {
        note(&mut h, reader.triple_at(idx)?);
    }
    reader.for_each_triple(|t| note(&mut h, t))?;
    let head = xxh64(&(reader.num_entities() as u64).to_le_bytes());
    Ok(h.finish() ^ head ^ xxh64(&(reader.num_triples() as u64).to_le_bytes()))
}
