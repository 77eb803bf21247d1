//! Integration tests: build → open → query equivalence against the
//! in-memory CSR backend, plus corruption rejection.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rmpi_kg::{CsrGraph, EntityId, Triple};
use rmpi_store::{
    build_from_sorted, fnv64, scrub_store, Checksum, Manifest, NeighborhoodView, ReadMode,
    StoreBuilder, StoreConfig, StoreError, StoreReader, FWD_BLOCK_BYTES, FWD_RECORD_BYTES,
    INDEX_NAME, INV_BLOCK_BYTES, MANIFEST_NAME,
};
use rmpi_subgraph::enclosing_subgraph;
use std::path::{Path, PathBuf};

fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rmpi-store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn random_triples(seed: u64, n: usize, entities: u32, relations: u32) -> Vec<Triple> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut triples: Vec<Triple> = (0..n)
        .map(|_| {
            Triple::new(
                rng.gen_range(0..entities),
                rng.gen_range(0..relations),
                rng.gen_range(0..entities),
            )
        })
        .collect();
    triples.sort_unstable();
    triples
}

/// Exhaustive cross-check of one reader against the CSR built from the same
/// sorted triple list (identical triple indices by construction).
fn assert_matches_csr(reader: &StoreReader, csr: &CsrGraph) {
    assert_eq!(reader.num_triples(), csr.num_triples());
    assert_eq!(reader.num_relations(), csr.num_relations());
    // CSR may have a smaller entity space if the max id has no edges; the
    // builder sizes by max id seen, which matches from_triples.
    assert_eq!(reader.num_entities(), csr.num_entities());
    for e in 0..reader.num_entities() as u32 {
        let e = EntityId(e);
        let mut out = Vec::new();
        reader.for_each_out_edge(e, |edge| out.push(edge)).unwrap();
        assert_eq!(out.as_slice(), csr.out_edges(e), "out_edges({e})");
        let mut inn = Vec::new();
        reader.for_each_in_edge(e, |edge| inn.push(edge)).unwrap();
        assert_eq!(inn.as_slice(), csr.in_edges(e), "in_edges({e})");
        assert_eq!(reader.out_degree(e), csr.out_edges(e).len());
        assert_eq!(reader.in_degree(e), csr.in_edges(e).len());
    }
    for idx in 0..reader.num_triples() {
        assert_eq!(reader.triple_at(idx as u64).unwrap(), csr.triple(idx), "triple({idx})");
    }
    let mut swept = Vec::new();
    reader.for_each_triple(|t| swept.push(t)).unwrap();
    assert_eq!(swept.as_slice(), csr.triples());
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..200 {
        let probe = Triple::new(
            rng.gen_range(0..reader.num_entities().max(1) as u32),
            rng.gen_range(0..reader.num_relations().max(1) as u32),
            rng.gen_range(0..reader.num_entities().max(1) as u32),
        );
        assert_eq!(reader.contains(&probe).unwrap(), csr.contains(&probe), "contains({probe})");
    }
    for &t in csr.triples().iter().take(50) {
        assert!(reader.contains(&t).unwrap());
    }
}

#[test]
fn roundtrip_matches_csr_both_modes() {
    let dir = temp_store("roundtrip");
    let triples = random_triples(1, 4000, 300, 12);
    // Tiny segments + tiny transpose budget: forces segment rolling and
    // multi-pass transpose on a graph small enough to cross-check fully.
    let cfg = StoreConfig { seg_records: 512, transpose_budget_bytes: 4096 };
    let summary = build_from_sorted(&dir, cfg, triples.iter().copied()).unwrap();
    assert_eq!(summary.num_triples, triples.len());
    assert!(summary.segments > 4, "expected rolled segments, got {}", summary.segments);
    assert!(summary.transpose_passes > 1, "expected multi-pass transpose");

    let csr = CsrGraph::from_triples(triples);
    for mode in [ReadMode::Resident, ReadMode::Stream { cache_blocks: 4 }] {
        let reader = StoreReader::open(&dir, mode).unwrap();
        assert_matches_csr(&reader, &csr);
        reader.verify().unwrap();
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn present_entities_match_negative_sampler_pool() {
    let dir = temp_store("present");
    let triples = random_triples(2, 500, 80, 4);
    build_from_sorted(&dir, StoreConfig::default(), triples.iter().copied()).unwrap();
    let reader = StoreReader::open(&dir, ReadMode::default()).unwrap();
    let g = rmpi_kg::KnowledgeGraph::from_triples(triples);
    assert_eq!(reader.present_entities(), g.present_entities());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn empty_store_roundtrips() {
    let dir = temp_store("empty");
    let summary = build_from_sorted(&dir, StoreConfig::default(), std::iter::empty()).unwrap();
    assert_eq!(summary.num_triples, 0);
    let reader = StoreReader::open(&dir, ReadMode::default()).unwrap();
    assert_eq!(reader.num_entities(), 0);
    assert_eq!(reader.num_triples(), 0);
    assert!(reader.present_entities().is_empty());
    reader.verify().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unsorted_input_rejected() {
    let dir = temp_store("unsorted");
    let mut b = StoreBuilder::create(&dir, StoreConfig::default()).unwrap();
    b.push(Triple::new(5u32, 0u32, 1u32)).unwrap();
    let err = b.push(Triple::new(4u32, 0u32, 1u32)).unwrap_err();
    assert!(matches!(err, StoreError::Unsorted { index: 1, .. }), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn duplicates_are_kept() {
    let dir = temp_store("dups");
    let t = Triple::new(1u32, 0u32, 2u32);
    build_from_sorted(&dir, StoreConfig::default(), [t, t, t]).unwrap();
    let reader = StoreReader::open(&dir, ReadMode::default()).unwrap();
    assert_eq!(reader.num_triples(), 3);
    assert_eq!(reader.out_degree(EntityId(1)), 3);
    assert_eq!(reader.in_degree(EntityId(2)), 3);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn missing_manifest_is_not_a_store() {
    let dir = temp_store("nostore");
    std::fs::create_dir_all(&dir).unwrap();
    let err = StoreReader::open(&dir, ReadMode::default()).unwrap_err();
    assert!(matches!(err, StoreError::NotAStore(_)), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupted_segment_rejected_with_file_name() {
    let dir = temp_store("corrupt");
    let triples = random_triples(3, 2000, 100, 6);
    let cfg = StoreConfig { seg_records: 512, ..StoreConfig::default() };
    build_from_sorted(&dir, cfg, triples).unwrap();

    // Flip one byte in the middle of the second forward segment.
    let victim = dir.join("fwd-00001.seg");
    let mut bytes = std::fs::read(&victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&victim, &bytes).unwrap();

    // Stream open succeeds (sizes match) but verify() names the file…
    let reader = StoreReader::open(&dir, ReadMode::Stream { cache_blocks: 4 }).unwrap();
    let err = reader.verify().unwrap_err();
    match err {
        StoreError::Corrupt { ref file, .. } => assert_eq!(file, "fwd-00001.seg"),
        other => panic!("unexpected: {other}"),
    }
    // …and resident open refuses outright.
    let err = StoreReader::open(&dir, ReadMode::Resident).unwrap_err();
    assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn scrub_is_clean_on_a_fresh_store_and_names_exactly_the_damaged_segment() {
    let dir = temp_store("scrub");
    let cfg = StoreConfig { seg_records: 512, ..StoreConfig::default() };
    build_from_sorted(&dir, cfg, random_triples(6, 2000, 100, 6)).unwrap();
    let report = scrub_store(&dir).unwrap();
    assert!(report.is_clean(), "{:?}", report.corrupt_sections());
    // MANIFEST + index + 4 forward + 4 inverse segments
    assert_eq!(report.sections.len(), 10);

    // One flipped data bit: the pass keeps going and blames one file only.
    let victim = dir.join("inv-00002.seg");
    let mut bytes = std::fs::read(&victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&victim, &bytes).unwrap();
    let report = scrub_store(&dir).unwrap();
    let bad: Vec<&str> = report.corrupt_sections().iter().map(|s| s.file.as_str()).collect();
    assert_eq!(bad, ["inv-00002.seg"]);
    assert_eq!(report.sections.len(), 10, "the other sections are still reported, as ok");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn truncated_segment_rejected_at_open_with_offset() {
    let dir = temp_store("truncated");
    let triples = random_triples(4, 1000, 60, 4);
    build_from_sorted(&dir, StoreConfig::default(), triples).unwrap();
    let victim = dir.join("fwd-00000.seg");
    let bytes = std::fs::read(&victim).unwrap();
    let keep = bytes.len() - 24;
    std::fs::write(&victim, &bytes[..keep]).unwrap();
    let err = StoreReader::open(&dir, ReadMode::default()).unwrap_err();
    match err {
        StoreError::Corrupt { ref file, offset, .. } => {
            assert_eq!(file, "fwd-00000.seg");
            assert_eq!(offset, keep as u64, "offset reports the actual length");
        }
        other => panic!("unexpected: {other}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn tampered_manifest_rejected_with_line() {
    let dir = temp_store("badmanifest");
    build_from_sorted(&dir, StoreConfig::default(), [Triple::new(0u32, 0u32, 1u32)]).unwrap();
    let path = dir.join("MANIFEST");
    let text = std::fs::read_to_string(&path).unwrap().replace("triples 1", "triples one");
    std::fs::write(&path, text).unwrap();
    let err = StoreReader::open(&dir, ReadMode::default()).unwrap_err();
    assert!(matches!(err, StoreError::Manifest { line: 4, .. }), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupted_index_rejected() {
    let dir = temp_store("badindex");
    build_from_sorted(&dir, StoreConfig::default(), random_triples(5, 300, 40, 3)).unwrap();
    let path = dir.join("index.bin");
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&path, bytes).unwrap();
    let err = StoreReader::open(&dir, ReadMode::default()).unwrap_err();
    match err {
        StoreError::Corrupt { ref file, .. } => assert_eq!(file, "index.bin"),
        other => panic!("unexpected: {other}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn interrupted_build_leaves_no_store() {
    let dir = temp_store("interrupted");
    // First build succeeds…
    build_from_sorted(&dir, StoreConfig::default(), [Triple::new(0u32, 0u32, 1u32)]).unwrap();
    // …then a rebuild starts (clearing the manifest) and never finishes.
    let mut b = StoreBuilder::create(&dir, StoreConfig::default()).unwrap();
    b.push(Triple::new(0u32, 0u32, 1u32)).unwrap();
    drop(b);
    let err = StoreReader::open(&dir, ReadMode::default()).unwrap_err();
    assert!(matches!(err, StoreError::NotAStore(_)), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Copy a store built today (manifest v3, XXH64) to `dst` and rewrite its
/// manifest as v2, every sum recomputed with FNV-1a 64: the store an older
/// build left on disk, byte for byte in its data files.
fn rewrite_as_v2(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let path = entry.unwrap().path();
        std::fs::copy(&path, dst.join(path.file_name().unwrap())).unwrap();
    }
    let text = std::fs::read_to_string(dst.join(MANIFEST_NAME)).unwrap();
    let mut m = Manifest::parse(&text).unwrap();
    assert_eq!((m.version, m.checksum()), (3, Checksum::Xxh64), "the builder writes v3");
    m.version = 2;
    m.index_checksum = fnv64(&std::fs::read(dst.join(INDEX_NAME)).unwrap());
    for (segs, block_bytes) in [(&mut m.fwd, FWD_BLOCK_BYTES), (&mut m.inv, INV_BLOCK_BYTES)] {
        for seg in segs.iter_mut() {
            let bytes = std::fs::read(dst.join(&seg.file)).unwrap();
            seg.checksum = fnv64(&bytes);
            seg.block_sums = bytes.chunks(block_bytes as usize).map(fnv64).collect();
        }
    }
    let v2 = m.to_text();
    assert!(v2.starts_with("rmpi-store v2\n"), "{v2}");
    std::fs::write(dst.join(MANIFEST_NAME), v2).unwrap();
}

#[test]
fn a_v2_store_with_fnv_sums_opens_reads_and_verifies_as_before() {
    let v3_dir = temp_store("v3-for-v2");
    let v2_dir = temp_store("v2");
    let triples = random_triples(8, 12_000, 600, 8);
    // Two forward segments of which the first spans two 64 KiB blocks.
    let cfg = StoreConfig { seg_records: 8192, ..StoreConfig::default() };
    build_from_sorted(&v3_dir, cfg, triples.iter().copied()).unwrap();
    rewrite_as_v2(&v3_dir, &v2_dir);

    let csr = CsrGraph::from_triples(triples.clone());
    let v3 = StoreReader::open(&v3_dir, ReadMode::Stream { cache_blocks: 4 }).unwrap();
    // Every block of the v3 build is read, and so checked, at least once.
    assert_matches_csr(&v3, &csr);
    for mode in [ReadMode::Stream { cache_blocks: 4 }, ReadMode::Resident] {
        let v2 = StoreReader::open(&v2_dir, mode).unwrap();
        assert_eq!(v2.manifest().checksum(), Checksum::Fnv1a64);
        assert_matches_csr(&v2, &csr);
        v2.verify().unwrap();
        for t in triples.iter().step_by(997) {
            for k in [1, 2] {
                let mut old = NeighborhoodView::new(&v2);
                old.pin(t.head, t.tail, k).unwrap();
                let mut new = NeighborhoodView::new(&v3);
                new.pin(t.head, t.tail, k).unwrap();
                let (got, want) =
                    (enclosing_subgraph(&old, *t, k), enclosing_subgraph(&new, *t, k));
                assert_eq!(got.triples, want.triples, "{t} k={k}");
                assert_eq!(got.entities, want.entities, "{t} k={k}");
                assert_eq!(got.distance_rows(), want.distance_rows(), "{t} k={k}");
            }
        }
    }
    let report = scrub_store(&v2_dir).unwrap();
    assert!(report.is_clean(), "{:?}", report.corrupt_sections());
    assert!(report.sections.iter().any(|s| s.blocks_checked == 2), "block sums were checked");

    // One flipped byte in the second block of fwd-00000.seg.
    let victim = v2_dir.join("fwd-00000.seg");
    let mut bytes = std::fs::read(&victim).unwrap();
    let at = FWD_BLOCK_BYTES as usize + 100;
    bytes[at] ^= 0x10;
    std::fs::write(&victim, &bytes).unwrap();
    let reader = StoreReader::open(&v2_dir, ReadMode::Stream { cache_blocks: 4 }).unwrap();
    reader.triple_at(0).expect("the first block is intact");
    let err = reader.triple_at((at / FWD_RECORD_BYTES) as u64).unwrap_err();
    match err {
        StoreError::Corrupt { ref file, offset, .. } => {
            assert_eq!((file.as_str(), offset), ("fwd-00000.seg", FWD_BLOCK_BYTES));
        }
        other => panic!("unexpected: {other}"),
    }
    assert_eq!(reader.quarantined_blocks(), 1);
    let report = scrub_store(&v2_dir).unwrap();
    let bad: Vec<&str> = report.corrupt_sections().iter().map(|s| s.file.as_str()).collect();
    assert_eq!(bad, ["fwd-00000.seg"]);
    std::fs::remove_dir_all(&v3_dir).unwrap();
    std::fs::remove_dir_all(&v2_dir).unwrap();
}
