//! Bundle durability under single-bit flips.
//!
//! - `BUNDLE` and `params`, exhaustively: every flip of every bit is refused
//!   by `load_bundle` and by an engine's reload (the previous model keeps
//!   serving), and reported by `scrub_bundle`. The seal covers every byte
//!   of `BUNDLE`, and `BUNDLE` records the length and XXH64 of `params`.
//! - The graph store, sampled: a flip anywhere in `graph/` either fails
//!   loading with a diagnostic naming the damage or serves results
//!   bit-identical to the pristine artifact. A silently different score is
//!   the one impossible outcome.

use proptest::prelude::*;
use rmpi_core::{RmpiConfig, RmpiModel};
use rmpi_kg::{KnowledgeGraph, Triple};
use rmpi_serve::{load_bundle, save_bundle, scrub_bundle, Engine, EngineConfig};
use rmpi_store::ReadMode;
use std::os::unix::fs::FileExt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn toy_graph() -> KnowledgeGraph {
    let mut triples: Vec<Triple> =
        (0..60u32).map(|i| Triple::new(i % 10, i % 5, (i * 7 + 1) % 10)).collect();
    triples.sort_unstable();
    KnowledgeGraph::from_triples(triples)
}

/// Build one pristine bundle directory (params + graph store) per case.
fn fresh_bundle_dir() -> PathBuf {
    static CASE: AtomicU64 = AtomicU64::new(0);
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    let root = std::env::temp_dir().join(format!("rmpi-bdir-flip-{}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = root.join("world.store");
    rmpi_store::build_from_graph(&store, rmpi_store::StoreConfig::default(), &toy_graph()).unwrap();
    let model = RmpiModel::new(RmpiConfig { dim: 8, ne: true, ..RmpiConfig::base() }, 6, 3);
    let bdir = root.join("model.bundle");
    save_bundle(&bdir, &model, &[], Some(&store)).unwrap();
    bdir
}

/// Every file in the bundle directory, recursively, in sorted order.
fn all_files(dir: &std::path::Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).unwrap() {
            let p = entry.unwrap().path();
            if p.is_dir() {
                stack.push(p);
            } else {
                out.push(p);
            }
        }
    }
    out.sort();
    out
}

/// Load the directory in `mode` and score a probe triple through the
/// returned model + reader pair (adjacency exercised via the reader sweep).
fn load_and_observe(
    dir: &std::path::Path,
    mode: ReadMode,
) -> Result<(f32, usize), rmpi_serve::ServeError> {
    let (bundle, reader) = load_bundle(dir, mode)?;
    let reader = reader.expect("the bundle carries a graph");
    let mut n = 0usize;
    reader.for_each_triple(|_| n += 1).map_err(rmpi_serve::ServeError::from)?;
    let mut view = rmpi_store::NeighborhoodView::new(&reader);
    view.pin(rmpi_kg::EntityId(0), rmpi_kg::EntityId(1), bundle.model.context_radius())
        .map_err(rmpi_serve::ServeError::from)?;
    use rmpi_core::ScoringModel;
    let sample = bundle.model.prepare_eval_sample(&view, Triple::new(0u32, 1u32, 1u32), 9);
    Ok((bundle.model.score_sample(&sample), n))
}

#[test]
fn every_single_bit_flip_of_bundle_and_params_is_refused_and_reported() {
    let bdir = fresh_bundle_dir();
    let mode = ReadMode::Stream { cache_blocks: 2 };
    let (base, _) = load_bundle(&bdir, mode).unwrap();
    let engine = Engine::new(
        base.model,
        toy_graph(),
        EngineConfig { seed: 9, cache_capacity: 8, threads: 1 },
    );
    let probe = Triple::new(0u32, 1u32, 1u32);
    let before = engine.score(probe).unwrap();
    let mut flips = 0usize;
    for name in ["BUNDLE", "params"] {
        let path = bdir.join(name);
        let pristine = std::fs::read(&path).unwrap();
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        for at in 0..pristine.len() {
            for bit in 0..8 {
                file.write_at(&[pristine[at] ^ (1 << bit)], at as u64).unwrap();
                let what = format!("{name}[{at}] bit {bit}");
                assert!(load_bundle(&bdir, mode).is_err(), "{what}: load accepted the flip");
                assert!(engine.reload_from(&bdir).is_err(), "{what}: reload accepted the flip");
                let report = scrub_bundle(&bdir).unwrap();
                assert!(!report.is_clean(), "{what}: scrub reported nothing");
                flips += 1;
            }
            file.write_at(&pristine[at..=at], at as u64).unwrap();
        }
    }
    assert_eq!(engine.stats().reload_failures.get(), flips as u64);
    assert_eq!(engine.stats().reloads.get(), 0);
    assert_eq!(engine.score(probe).unwrap(), before, "the old model keeps serving");
    assert!(scrub_bundle(&bdir).unwrap().is_clean(), "every flip was restored");
    load_and_observe(&bdir, mode).unwrap();
    std::fs::remove_dir_all(bdir.parent().unwrap()).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn any_single_bit_flip_in_the_graph_is_never_silently_wrong(
        file_sel in 0usize..10_000,
        byte_sel in 0usize..10_000_000,
        bit in 0u8..8,
    ) {
        let bdir = fresh_bundle_dir();
        let mode = ReadMode::Stream { cache_blocks: 2 };
        let pristine = load_and_observe(&bdir, mode).unwrap();

        let files = all_files(&bdir.join("graph"));
        let victim = &files[file_sel % files.len()];
        let mut bytes = std::fs::read(victim).unwrap();
        prop_assert!(!bytes.is_empty(), "no bundle file is empty");
        let at = byte_sel % bytes.len();
        bytes[at] ^= 1u8 << bit;
        std::fs::write(victim, &bytes).unwrap();

        if let Ok(got) = load_and_observe(&bdir, mode) {
            prop_assert_eq!(
                got, pristine,
                "flip {:?}[{at}] bit {bit} served silently different results",
                victim.file_name().unwrap()
            );
        }

        // the scrub walk agrees: either every section is clean (invisible
        // flip), the report names damaged sections, or the store manifest
        // itself became unreadable (e.g. a flip broke its UTF-8)
        if let Ok(report) = scrub_bundle(&bdir) {
            if !report.is_clean() {
                prop_assert!(!report.corrupt_sections().is_empty());
            }
        }
        let root = bdir.parent().unwrap().to_path_buf();
        std::fs::remove_dir_all(&root).unwrap();
    }
}
