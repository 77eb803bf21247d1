//! Fixtures shared by this crate's integration suites and, through
//! `#[path]` in `src/lib.rs`, its unit tests: one tiny world, in RAM and as
//! an on-disk store, and the two training sources as one test input.
#![allow(dead_code)] // each test binary compiles its own copy and uses a subset

use rmpi_core::{ScoringModel, TrainReport, Trainer};
use rmpi_datasets::world::{GraphGenConfig, WorldConfig};
use rmpi_datasets::World;
use rmpi_kg::{KnowledgeGraph, Triple};
use rmpi_store::{build_from_graph, ReadMode, StoreConfig, StoreReader};
use std::path::PathBuf;

/// A tiny planted-rule world where composition conclusions are perfectly
/// learnable from the enclosing subgraph: `(train graph, train targets,
/// validation triples)`.
pub fn tiny_data() -> (KnowledgeGraph, Vec<Triple>, Vec<Triple>) {
    let world = World::new(WorldConfig {
        comp_groups: 2,
        long_groups: 0,
        inv_groups: 1,
        sym_groups: 0,
        sub_groups: 0,
        noise_relations: 0,
        ..Default::default()
    });
    let groups: Vec<usize> = (0..world.groups().len()).collect();
    let triples = world.generate_triples(
        &groups,
        &GraphGenConfig {
            num_entities: 120,
            num_base_triples: 420,
            noise_frac: 0.0,
            seed: 5,
            ..Default::default()
        },
    );
    let split = rmpi_kg::split_triples(&triples, 0.15, 0.0, 3);
    let graph = KnowledgeGraph::from_triples(split.train.clone());
    (graph, split.train, split.valid)
}

/// [`tiny_data`]'s train graph built into a store under a temp directory
/// unique to `(tag, process)`, opened in the default streaming mode. The
/// caller removes the directory when done.
pub fn tiny_store(tag: &str) -> (PathBuf, StoreReader) {
    let dir = std::env::temp_dir().join(format!("rmpi-core-store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    build_from_graph(&dir, StoreConfig::default(), &tiny_data().0).unwrap();
    let reader = StoreReader::open(&dir, ReadMode::default()).unwrap();
    (dir, reader)
}

/// What a suite trains on: every case that takes one runs unchanged over
/// the in-memory source and the store source.
pub enum Source<'a> {
    /// A graph and its training targets in RAM ([`Trainer::train`]).
    Memory(&'a KnowledgeGraph, &'a [Triple]),
    /// Every triple of an on-disk store ([`Trainer::train_store`]).
    Store(&'a StoreReader),
}

impl Source<'_> {
    /// Run `trainer` over this source.
    pub fn train<M: ScoringModel + Sync>(
        &self,
        trainer: Trainer<'_>,
        model: &mut M,
        valid: &[Triple],
    ) -> TrainReport {
        match *self {
            Source::Memory(graph, targets) => trainer.train(model, graph, targets, valid),
            Source::Store(reader) => trainer.train_store(model, reader, valid),
        }
    }

    /// For assertion messages and temp-directory tags.
    pub fn name(&self) -> &'static str {
        match self {
            Source::Memory(..) => "memory",
            Source::Store(_) => "store",
        }
    }
}

/// Run `case` over [`tiny_data`] as the in-memory source, then as the store
/// source (built under `tag`), handing it the validation triples too.
pub fn for_each_source(tag: &str, mut case: impl FnMut(&Source<'_>, &[Triple])) {
    let (graph, targets, valid) = tiny_data();
    let (store_dir, reader) = tiny_store(tag);
    case(&Source::Memory(&graph, &targets), &valid);
    case(&Source::Store(&reader), &valid);
    std::fs::remove_dir_all(&store_dir).unwrap();
}
