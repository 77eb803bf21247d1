//! Benchmark persistence: save a generated [`Benchmark`] to a directory of
//! TSV files (GraIL's on-disk layout) and load it back.
//!
//! Layout of a saved benchmark directory:
//!
//! ```text
//! <dir>/
//!   meta.tsv            # key \t value lines (name, seen relations, test names)
//!   train_graph.tsv     # training context triples
//!   train_valid.tsv     # validation targets
//!   test_<i>_graph.tsv  # context of the i-th test set
//!   test_<i>_targets.tsv
//! ```
//!
//! Entities and relations are written as `e<id>` / `r<id>` names so the ids
//! of the generating world survive the round trip exactly — required because
//! model relation tables are indexed by world relation id.

use crate::benchmark::{Benchmark, TestSet, TrainSet};
use rmpi_kg::{io as kgio, KgError, KnowledgeGraph, RelationId, Triple, Vocab};
use std::collections::HashSet;
use std::fs;
use std::io::{BufReader, BufWriter, Write};
use std::path::Path;

/// A benchmark loaded from disk: everything except the generating [`World`](crate::world::World)
/// (worlds are code + seed, not data; the file set is self-contained for
/// training and evaluation).
#[derive(Clone, Debug)]
pub struct SavedBenchmark {
    /// Dataset name.
    pub name: String,
    /// Relations present in the training graph.
    pub seen_relations: HashSet<RelationId>,
    /// Training side.
    pub train: TrainSet,
    /// Test sets, in saved order.
    pub(crate) tests: Vec<TestSet>,
    /// Size of the relation id space.
    pub num_relations: usize,
}

fn id_vocab(num_entities: usize, num_relations: usize) -> Vocab {
    let mut v = Vocab::new();
    for e in 0..num_entities {
        v.entity(&format!("e{e}"));
    }
    for r in 0..num_relations {
        v.relation(&format!("r{r}"));
    }
    v
}

fn max_entity(triples: &[Triple]) -> usize {
    triples.iter().map(|t| t.head.0.max(t.tail.0) as usize + 1).max().unwrap_or(0)
}

/// Write `benchmark` under `dir` (created if missing).
pub fn save_benchmark(dir: &Path, benchmark: &Benchmark) -> Result<(), KgError> {
    fs::create_dir_all(dir)?;
    let num_relations = benchmark.num_relations();
    let all_triples: Vec<&[Triple]> = std::iter::once(benchmark.train.graph.triples())
        .chain(std::iter::once(benchmark.train.valid.as_slice()))
        .chain(benchmark.tests.iter().flat_map(|t| [t.graph.triples(), t.targets.as_slice()]))
        .collect();
    let num_entities = all_triples.iter().map(|t| max_entity(t)).max().unwrap_or(0);
    let vocab = id_vocab(num_entities, num_relations);

    let write = |file: &str, triples: &[Triple]| -> Result<(), KgError> {
        let mut w = BufWriter::new(fs::File::create(dir.join(file))?);
        kgio::write_triples(&mut w, triples, &vocab)
    };
    write("train_graph.tsv", benchmark.train.graph.triples())?;
    write("train_valid.tsv", &benchmark.train.valid)?;
    for (i, t) in benchmark.tests.iter().enumerate() {
        write(&format!("test_{i}_graph.tsv"), t.graph.triples())?;
        write(&format!("test_{i}_targets.tsv"), &t.targets)?;
    }

    let mut meta = BufWriter::new(fs::File::create(dir.join("meta.tsv"))?);
    writeln!(meta, "name\t{}", benchmark.name)?;
    writeln!(meta, "num_relations\t{num_relations}")?;
    let mut seen: Vec<u32> = benchmark.seen_relations.iter().map(|r| r.0).collect();
    seen.sort_unstable();
    writeln!(
        meta,
        "seen_relations\t{}",
        seen.iter().map(u32::to_string).collect::<Vec<_>>().join(",")
    )?;
    for (i, t) in benchmark.tests.iter().enumerate() {
        writeln!(meta, "test_{i}\t{}", t.name)?;
    }
    Ok(())
}

/// Read a benchmark previously written by [`save_benchmark`].
pub fn load_benchmark(dir: &Path) -> Result<SavedBenchmark, KgError> {
    let meta = fs::read_to_string(dir.join("meta.tsv"))?;
    let mut name = String::new();
    let mut num_relations = 0usize;
    let mut seen_relations = HashSet::new();
    let mut test_names: Vec<(usize, String)> = Vec::new();
    for (lineno, line) in meta.lines().enumerate() {
        let Some((key, value)) = line.split_once('\t') else {
            return Err(KgError::Parse {
                line: lineno + 1,
                message: format!("bad meta line {line:?}"),
            });
        };
        match key {
            "name" => name = value.to_owned(),
            "num_relations" => {
                num_relations = value.parse().map_err(|e| KgError::Parse {
                    line: lineno + 1,
                    message: format!("bad num_relations: {e}"),
                })?
            }
            "seen_relations" => {
                for part in value.split(',').filter(|p| !p.is_empty()) {
                    let id: u32 = part.parse().map_err(|e| KgError::Parse {
                        line: lineno + 1,
                        message: format!("bad relation id: {e}"),
                    })?;
                    seen_relations.insert(RelationId(id));
                }
            }
            k if k.starts_with("test_") => {
                let idx: usize = k[5..].parse().map_err(|e| KgError::Parse {
                    line: lineno + 1,
                    message: format!("bad test index: {e}"),
                })?;
                test_names.push((idx, value.to_owned()));
            }
            other => {
                return Err(KgError::Parse {
                    line: lineno + 1,
                    message: format!("unknown meta key {other:?}"),
                })
            }
        }
    }
    test_names.sort();

    // ids are parsed from "e<id>"/"r<id>" names directly
    let read = |file: &str| -> Result<Vec<Triple>, KgError> {
        let rd = BufReader::new(fs::File::open(dir.join(file))?);
        let mut vocab = Vocab::new();
        let named = kgio::read_triples(rd, &mut vocab)?;
        named
            .into_iter()
            .map(|t| {
                let parse_id = |name: &str, kind: char| -> Result<u32, KgError> {
                    name.strip_prefix(kind)
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| KgError::UnknownName(name.to_owned()))
                };
                Ok(Triple::new(
                    parse_id(vocab.entity_name(t.head)?, 'e')?,
                    parse_id(vocab.relation_name(t.relation)?, 'r')?,
                    parse_id(vocab.entity_name(t.tail)?, 'e')?,
                ))
            })
            .collect()
    };

    let train_triples = read("train_graph.tsv")?;
    let train = TrainSet {
        graph: KnowledgeGraph::from_triples(train_triples.clone()),
        targets: train_triples,
        valid: read("train_valid.tsv")?,
    };
    let mut tests = Vec::new();
    for (idx, tname) in test_names {
        tests.push(TestSet {
            name: tname,
            graph: KnowledgeGraph::from_triples(read(&format!("test_{idx}_graph.tsv"))?),
            targets: read(&format!("test_{idx}_targets.tsv"))?,
        });
    }
    Ok(SavedBenchmark { name, seen_relations, train, tests, num_relations })
}

impl SavedBenchmark {
    /// Look up a test set by name.
    pub fn test(&self, name: &str) -> Option<&TestSet> {
        self.tests.iter().find(|t| t.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{build_benchmark, Scale};

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("rmpi-io-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let b = build_benchmark("nell.v1.v3", Scale::Quick);
        let dir = tmpdir("roundtrip");
        save_benchmark(&dir, &b).unwrap();
        let loaded = load_benchmark(&dir).unwrap();
        assert_eq!(loaded.name, b.name);
        assert_eq!(loaded.num_relations, b.num_relations());
        assert_eq!(loaded.seen_relations, b.seen_relations);
        assert_eq!(loaded.train.graph.triples(), b.train.graph.triples());
        assert_eq!(loaded.train.valid, b.train.valid);
        assert_eq!(loaded.tests.len(), b.tests.len());
        for (l, o) in loaded.tests.iter().zip(&b.tests) {
            assert_eq!(l.name, o.name);
            assert_eq!(l.graph.triples(), o.graph.triples());
            assert_eq!(l.targets, o.targets);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_meta_is_an_error() {
        let dir = tmpdir("missing");
        fs::create_dir_all(&dir).unwrap();
        assert!(load_benchmark(&dir).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_meta_reports_line() {
        let dir = tmpdir("corrupt");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("meta.tsv"), "name\tx\nnot a pair\n").unwrap();
        match load_benchmark(&dir) {
            Err(KgError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}
