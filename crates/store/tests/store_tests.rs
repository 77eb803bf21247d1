//! Integration tests: build → open → query equivalence against the
//! in-memory graph, plus corruption rejection.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rmpi_kg::{EntityId, KnowledgeGraph, Triple};
use rmpi_store::{
    build_from_sorted, scrub_store, xxh64, Manifest, ReadMode, StoreBuilder, StoreConfig,
    StoreError, StoreReader, FWD_BLOCK_BYTES, FWD_RECORD_BYTES, INDEX_NAME, MANIFEST_NAME,
};
use std::path::PathBuf;

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

/// Exhaustive cross-check of one reader against the in-memory graph built
/// from the same sorted triple list (identical triple indices by
/// construction).
fn assert_matches_graph(reader: &StoreReader, graph: &KnowledgeGraph) {
    assert_eq!(reader.num_triples(), graph.num_triples());
    assert_eq!(reader.num_relations(), graph.num_relations());
    // the builder sizes the entity space by the max id seen, as
    // from_triples does
    assert_eq!(reader.num_entities(), graph.num_entities());
    for e in 0..reader.num_entities() as u32 {
        let e = EntityId(e);
        let mut out = Vec::new();
        reader.for_each_out_edge(e, |edge| out.push(edge)).unwrap();
        assert_eq!(out.as_slice(), graph.out_edges(e), "out_edges({e})");
        let mut inn = Vec::new();
        reader.for_each_in_edge(e, |edge| inn.push(edge)).unwrap();
        assert_eq!(inn.as_slice(), graph.in_edges(e), "in_edges({e})");
        assert_eq!(reader.out_degree(e), graph.out_edges(e).len());
        assert_eq!(reader.in_degree(e), graph.in_edges(e).len());
    }
    for idx in 0..reader.num_triples() {
        assert_eq!(reader.triple_at(idx as u64).unwrap(), graph.triple(idx), "triple({idx})");
    }
    let mut swept = Vec::new();
    reader.for_each_triple(|t| swept.push(t)).unwrap();
    assert_eq!(swept.as_slice(), graph.triples());
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..200 {
        let probe = Triple::new(
            rng.gen_range(0..reader.num_entities().max(1) as u32),
            rng.gen_range(0..reader.num_relations().max(1) as u32),
            rng.gen_range(0..reader.num_entities().max(1) as u32),
        );
        assert_eq!(reader.contains(&probe).unwrap(), graph.contains(&probe), "contains({probe})");
    }
    for &t in graph.triples().iter().take(50) {
        assert!(reader.contains(&t).unwrap());
    }
}

#[test]
fn roundtrip_matches_csr() {
    let dir = temp_store("roundtrip");
    let triples = random_triples(1, 4000, 300, 12);
    // Tiny segments + tiny transpose budget: forces segment rolling and
    // multi-pass transpose on a graph small enough to cross-check fully.
    let cfg = StoreConfig { seg_records: 512, transpose_budget_bytes: 4096 };
    let summary = build_from_sorted(&dir, cfg, triples.iter().copied()).unwrap();
    assert_eq!(summary.num_triples, triples.len());
    assert!(summary.segments > 4, "expected rolled segments, got {}", summary.segments);
    assert!(summary.transpose_passes > 1, "expected multi-pass transpose");

    let graph = KnowledgeGraph::from_triples(triples);
    let reader = StoreReader::open(&dir, ReadMode::Stream { cache_blocks: 4 }).unwrap();
    assert_matches_graph(&reader, &graph);
    let report = scrub_store(&dir).unwrap();
    assert!(report.is_clean(), "{:?}", report.corrupt_sections());
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
    let report = scrub_store(&dir).unwrap();
    assert!(report.is_clean(), "{:?}", report.corrupt_sections());
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

    // Open succeeds (sizes match), but a scrub, the sequential sweep and a
    // point read in the flipped block each name the file.
    let report = scrub_store(&dir).unwrap();
    let bad: Vec<&str> = report.corrupt_sections().iter().map(|s| s.file.as_str()).collect();
    assert_eq!(bad, ["fwd-00001.seg"]);
    let reader = StoreReader::open(&dir, ReadMode::Stream { cache_blocks: 4 }).unwrap();
    let in_flipped_block = 512 + (mid / FWD_RECORD_BYTES) as u64;
    for err in [
        reader.for_each_triple(|_| {}).unwrap_err(),
        reader.triple_at(in_flipped_block).unwrap_err(),
    ] {
        match err {
            StoreError::Corrupt { ref file, .. } => assert_eq!(file, "fwd-00001.seg"),
            other => panic!("unexpected: {other}"),
        }
    }
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

/// Build a 10-entity store, let `tamper` rewrite the words of its index
/// (`out_off[0..=10] ++ in_off[0..=10]`), re-sum the index into the manifest
/// so the checksum passes, and return the open's error.
fn open_with_tampered_offsets(tag: &str, tamper: impl FnOnce(&mut [u64])) -> StoreError {
    let dir = temp_store(tag);
    let triples: Vec<Triple> = (0..10u32).map(|e| Triple::new(e, 0u32, (e + 1) % 10)).collect();
    build_from_sorted(&dir, StoreConfig::default(), triples).unwrap();
    let path = dir.join(INDEX_NAME);
    let mut words: Vec<u64> = std::fs::read(&path)
        .unwrap()
        .chunks_exact(8)
        .map(|w| u64::from_le_bytes(w.try_into().unwrap()))
        .collect();
    assert_eq!(words.len(), 22, "10 entities: two halves of 11 offsets");
    tamper(&mut words);
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    std::fs::write(&path, &bytes).unwrap();
    let mut m =
        Manifest::parse(&std::fs::read_to_string(dir.join(MANIFEST_NAME)).unwrap()).unwrap();
    m.index_checksum = xxh64(&bytes);
    std::fs::write(dir.join(MANIFEST_NAME), m.to_text()).unwrap();
    let err = StoreReader::open(&dir, ReadMode::default()).unwrap_err();
    std::fs::remove_dir_all(&dir).unwrap();
    err
}

#[test]
fn index_offset_past_the_data_rejected_at_open() {
    // Unchecked, entity 4's run walks off the end of the data and
    // `for_each_out_edge(EntityId(4))` never finishes.
    let err = open_with_tampered_offsets("offpast", |w| w[5] = 1_000_000);
    assert!(matches!(err, StoreError::Corrupt { ref file, .. } if file == INDEX_NAME), "{err}");
}

#[test]
fn decreasing_index_offset_rejected_at_open() {
    // in_off[3] > in_off[4]: a run that ends before it starts.
    let err = open_with_tampered_offsets("offback", |w| w[11 + 3] = 9);
    assert!(matches!(err, StoreError::Corrupt { ref file, .. } if file == INDEX_NAME), "{err}");
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

#[test]
fn a_flipped_byte_fails_only_its_block_on_read_and_scrub() {
    let dir = temp_store("block");
    let triples = random_triples(8, 12_000, 600, 8);
    // Two forward segments of which the first spans two 64 KiB blocks.
    let cfg = StoreConfig { seg_records: 8192, ..StoreConfig::default() };
    build_from_sorted(&dir, cfg, triples.iter().copied()).unwrap();
    let graph = KnowledgeGraph::from_triples(triples);
    let reader = StoreReader::open(&dir, ReadMode::Stream { cache_blocks: 4 }).unwrap();
    // Every block is read, and so checked, at least once.
    assert_matches_graph(&reader, &graph);
    let report = scrub_store(&dir).unwrap();
    assert!(report.is_clean(), "{:?}", report.corrupt_sections());
    assert!(report.sections.iter().any(|s| s.blocks_checked == 2), "block sums were checked");

    // One flipped byte in the second block of fwd-00000.seg.
    let victim = dir.join("fwd-00000.seg");
    let mut bytes = std::fs::read(&victim).unwrap();
    let at = FWD_BLOCK_BYTES as usize + 100;
    bytes[at] ^= 0x10;
    std::fs::write(&victim, &bytes).unwrap();
    let reader = StoreReader::open(&dir, ReadMode::Stream { cache_blocks: 4 }).unwrap();
    reader.triple_at(0).expect("the first block is intact");
    let err = reader.triple_at((at / FWD_RECORD_BYTES) as u64).unwrap_err();
    match err {
        StoreError::Corrupt { ref file, offset, .. } => {
            assert_eq!((file.as_str(), offset), ("fwd-00000.seg", FWD_BLOCK_BYTES));
        }
        other => panic!("unexpected: {other}"),
    }
    assert_eq!(reader.quarantined_blocks(), 1);
    let report = scrub_store(&dir).unwrap();
    let bad: Vec<&str> = report.corrupt_sections().iter().map(|s| s.file.as_str()).collect();
    assert_eq!(bad, ["fwd-00000.seg"]);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_manifest_under_an_older_version_magic_is_refused_as_unsupported() {
    let dir = temp_store("oldmagic");
    build_from_sorted(&dir, StoreConfig::default(), random_triples(9, 300, 40, 3)).unwrap();
    let path = dir.join(MANIFEST_NAME);
    let v3 = std::fs::read_to_string(&path).unwrap();
    assert!(v3.starts_with("rmpi-store v3\n"), "the builder writes v3: {v3}");
    let says_unsupported = |message: &str| {
        assert!(message.contains("unsupported"), "{message}");
        assert!(message.contains("rmpi-store v3"), "{message}");
    };
    for old in ["rmpi-store v1", "rmpi-store v2"] {
        std::fs::write(&path, v3.replacen("rmpi-store v3", old, 1)).unwrap();
        let err = StoreReader::open(&dir, ReadMode::default()).unwrap_err();
        assert!(matches!(err, StoreError::Manifest { line: 1, .. }), "{old}: {err}");
        says_unsupported(&err.to_string());
        let report = scrub_store(&dir).unwrap();
        let bad = report.corrupt_sections();
        assert_eq!(bad.len(), 1, "{old}: {bad:?}");
        assert_eq!(bad[0].file, MANIFEST_NAME);
        says_unsupported(bad[0].error.as_deref().unwrap());
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
