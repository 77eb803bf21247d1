//! Model bundles: a trained model — and, optionally, the graph it serves —
//! as one sealed directory, the artifact that carries a model to a world it
//! was not trained on.
//!
//! ```text
//! my-model.bundle/
//!   BUNDLE                        # the manifest, written last (commit point)
//!   params                        # rmpi-params v1, the checkpoint tensor format
//!   graph/                        # optional: a verbatim rmpi-store directory
//! ```
//!
//! ```text
//! rmpi-bundle v2
//! dim 32
//! layers 2
//! hop 2
//! ne true
//! ta false
//! fusion sum                    # sum | concat | gated
//! leaky_slope 0.2
//! edge_dropout 0.5
//! init random                   # random | schema
//! schema_hidden 0
//! max_edges 300
//! entity_clues false
//! relations 12
//! rel 0 bornIn                  # optional vocabulary, one line per relation
//! onto 12 10 <values...>        # schema init only: rows cols data
//! params <bytes> <xxh64>
//! graph true                    # whether graph/ holds a store
//! sum <xxh64 of every byte above>
//! end
//! ```
//!
//! `BUNDLE` carries the full [`RmpiConfig`] (floats in round-trip
//! precision), the relation id-space size, an optional relation vocabulary
//! and — for schema-initialised models — the fixed ontology vectors, which
//! live outside the parameter store. It ends with the seal that store
//! manifests and training checkpoints end with too ([`rmpi_store::seal`]).
//!
//! Nothing is parsed from unverified bytes. [`load_bundle`] checks the seal
//! before it reads a key, then the `params` file's length and XXH64, then —
//! when a graph is present — the store with [`rmpi_store::scrub_store`] (its
//! own `MANIFEST` carries whole-file, per-block and self checksums). So a
//! flipped bit anywhere in `BUNDLE` or `params` is refused, and damage is
//! named by its file and, in `BUNDLE`, by its line. Save → load is
//! bit-exact: a reloaded model scores identically to the one that was saved.
//!
//! [`save_bundle`] removes an old `BUNDLE` first, then writes `params` and
//! the graph and fsyncs them and their directories, and writes `BUNDLE` last
//! via temp + rename. An interrupted save leaves a directory without
//! `BUNDLE`, which [`load_bundle`] refuses as not a bundle — never a
//! manifest that disagrees with the files next to it.

use crate::error::ServeError;
use rmpi_autograd::io::{atomic_write_bytes, load_params, save_params};
use rmpi_autograd::Tensor;
use rmpi_core::{Fusion, RelationInit, RmpiConfig, RmpiModel, ScoringModel};
use rmpi_store::{
    scrub_store, seal, unseal, xxh64, Manifest as StoreManifest, ReadMode, ScrubReport,
    ScrubSection, StoreReader, INDEX_NAME, MANIFEST_NAME,
};
use std::fmt::Write as _;
use std::fs::File;
use std::io::{ErrorKind, Read};
use std::path::Path;

/// File name of the manifest inside a bundle directory. A directory is a
/// bundle exactly when it holds this file.
pub const BUNDLE_MANIFEST: &str = "BUNDLE";

/// Header line of `BUNDLE`: version 2, the only one read or written.
const MAGIC: &str = "rmpi-bundle v2";
/// File name of the parameter tensors.
const PARAMS: &str = "params";
/// Subdirectory holding the graph store.
const GRAPH: &str = "graph";

/// Largest `BUNDLE` [`load_bundle`] reads. The manifest's biggest line is
/// the schema vectors, megabytes at most; a larger file is a corrupt or
/// hostile artifact and is refused before a byte of it is buffered.
const MAX_MANIFEST_BYTES: u64 = 1 << 26;

/// A loaded bundle: the re-instantiated model plus its relation vocabulary.
#[derive(Clone, Debug)]
pub struct Bundle {
    /// The reassembled model, bit-identical to the one saved.
    pub model: RmpiModel,
    /// Relation names by id (empty when the bundle carried no vocabulary).
    pub relation_names: Vec<String>,
}

/// Save `model` (config, optional vocabulary, optional schema vectors,
/// parameters) and, when `store_dir` is given, a verbatim copy of the graph
/// store there, as the bundle directory `dir`. `relation_names` must be
/// empty or cover the model's whole relation id space.
pub fn save_bundle(
    dir: impl AsRef<Path>,
    model: &RmpiModel,
    relation_names: &[String],
    store_dir: Option<&Path>,
) -> Result<(), ServeError> {
    let dir = dir.as_ref();
    assert!(
        relation_names.is_empty() || relation_names.len() == model.num_relations(),
        "vocabulary must be empty or cover all {} relations",
        model.num_relations()
    );
    std::fs::create_dir_all(dir)?;
    // Un-commit an old bundle before touching its files.
    match std::fs::remove_file(dir.join(BUNDLE_MANIFEST)) {
        Ok(()) => sync_dir(dir),
        Err(e) if e.kind() == ErrorKind::NotFound => {}
        Err(e) => return Err(e.into()),
    }

    let mut params = Vec::new();
    save_params(&mut params, model.param_store())?;
    atomic_write_bytes(dir.join(PARAMS), &params)?;

    let graph = dir.join(GRAPH);
    match std::fs::remove_dir_all(&graph) {
        Err(e) if e.kind() != ErrorKind::NotFound => return Err(e.into()),
        _ => {}
    }
    if let Some(src) = store_dir {
        let manifest = StoreManifest::parse(&std::fs::read_to_string(src.join(MANIFEST_NAME))?)?;
        std::fs::create_dir(&graph)?;
        let segments = manifest.fwd.iter().chain(&manifest.inv).map(|s| s.file.as_str());
        for file in [MANIFEST_NAME, INDEX_NAME].into_iter().chain(segments) {
            std::fs::copy(src.join(file), graph.join(file))?;
            File::open(graph.join(file))?.sync_all()?;
        }
        sync_dir(&graph);
    }
    sync_dir(dir);

    let cfg = model.config();
    let mut text = format!("{MAGIC}\n");
    let fusion = match cfg.fusion {
        Fusion::Sum => "sum",
        Fusion::Concat => "concat",
        Fusion::Gated => "gated",
    };
    let init = match cfg.init {
        RelationInit::Random => "random",
        RelationInit::Schema => "schema",
    };
    let _ = write!(
        text,
        "dim {}\nlayers {}\nhop {}\nne {}\nta {}\nfusion {fusion}\nleaky_slope {}\n\
         edge_dropout {}\ninit {init}\nschema_hidden {}\nmax_edges {}\nentity_clues {}\n\
         relations {}\n",
        cfg.dim,
        cfg.num_layers,
        cfg.hop,
        cfg.ne,
        cfg.ta,
        cfg.leaky_slope,
        cfg.edge_dropout,
        cfg.schema_hidden,
        cfg.max_subgraph_edges,
        cfg.entity_clues,
        model.num_relations()
    );
    for (i, name) in relation_names.iter().enumerate() {
        let _ = writeln!(text, "rel {i} {name}");
    }
    if let Some(onto) = model.schema_vectors() {
        let _ = write!(text, "onto {} {}", onto.rows(), onto.cols());
        for v in onto.data() {
            let _ = write!(text, " {v}");
        }
        text.push('\n');
    }
    let _ = writeln!(text, "params {} {:016x}", params.len(), xxh64(&params));
    let _ = writeln!(text, "graph {}", store_dir.is_some());
    seal(&mut text);
    atomic_write_bytes(dir.join(BUNDLE_MANIFEST), text.as_bytes())?;
    Ok(())
}

/// Persist a directory's entries. Not every platform can fsync a directory
/// handle; a failure is counted and logged, as `atomic_write_bytes` does.
fn sync_dir(dir: &Path) {
    if let Err(e) = File::open(dir).and_then(|d| d.sync_all()) {
        rmpi_obs::note_dir_fsync_failure(dir, &e);
    }
}

/// Load the bundle directory `dir`: check `BUNDLE`'s seal, `params` and —
/// when a graph is present — the store, then reassemble the model and open
/// a [`StoreReader`] over `<dir>/graph` in `mode`.
pub fn load_bundle(
    dir: impl AsRef<Path>,
    mode: ReadMode,
) -> Result<(Bundle, Option<StoreReader>), ServeError> {
    let dir = dir.as_ref();
    let manifest = read_manifest(dir)?;
    let params = read_params(dir, manifest.params)
        .map_err(|message| ServeError::Corrupt { file: PARAMS.into(), message })?;
    let reader = if manifest.graph {
        let graph = dir.join(GRAPH);
        if let Some(bad) = scrub_store(&graph)?.sections.into_iter().find(|s| s.error.is_some()) {
            let message = bad.error.unwrap_or_default();
            return Err(ServeError::Corrupt { file: format!("{GRAPH}/{}", bad.file), message });
        }
        Some(StoreReader::open(graph, mode)?)
    } else {
        None
    };
    let store = load_params(&params[..])?;
    let model = RmpiModel::from_store(manifest.cfg, manifest.num_relations, store, manifest.onto)?;
    Ok((Bundle { model, relation_names: manifest.relation_names }, reader))
}

/// Scrub a bundle directory: check `BUNDLE`'s seal, `params`, and — when a
/// graph is present — run the store's own block-level scrub over
/// `<dir>/graph`. Unlike [`load_bundle`] this keeps going after a damaged
/// file, so one pass reports all damage it can reach (nothing past a
/// `BUNDLE` whose seal is broken). `Err` only when `dir` is not a bundle or
/// cannot be read.
pub fn scrub_bundle(dir: impl AsRef<Path>) -> Result<ScrubReport, ServeError> {
    let dir = dir.as_ref();
    let mut report = ScrubReport::default();
    let section = |file: String, bytes: u64, error: Option<String>| ScrubSection {
        file,
        bytes,
        blocks_checked: 0,
        error,
    };
    let bytes = std::fs::metadata(dir.join(BUNDLE_MANIFEST)).map_or(0, |m| m.len());
    let manifest = match read_manifest(dir) {
        Ok(m) => m,
        Err(e @ ServeError::Io(_)) => return Err(e),
        Err(e) => {
            report.sections.push(section(BUNDLE_MANIFEST.into(), bytes, Some(e.to_string())));
            return Ok(report);
        }
    };
    report.sections.push(section(BUNDLE_MANIFEST.into(), bytes, None));
    let params = read_params(dir, manifest.params).err();
    report.sections.push(section(PARAMS.into(), manifest.params.0, params));
    if manifest.graph {
        match scrub_store(dir.join(GRAPH)) {
            Ok(inner) => report.sections.extend(inner.sections.into_iter().map(|mut s| {
                s.file = format!("{GRAPH}/{}", s.file);
                s
            })),
            Err(e) => report.sections.push(section(format!("{GRAPH}/"), 0, Some(e.to_string()))),
        }
    }
    Ok(report)
}

/// Read `params` and check it against the length and XXH64 `BUNDLE`
/// recorded (the length first, so a wrong file is never read whole); the
/// error says what disagrees.
fn read_params(dir: &Path, (len, sum): (u64, u64)) -> Result<Vec<u8>, String> {
    let path = dir.join(PARAMS);
    let on_disk = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    if on_disk != len {
        return Err(format!("size mismatch: {on_disk} bytes on disk, BUNDLE says {len}"));
    }
    let bytes = std::fs::read(&path).map_err(|e| e.to_string())?;
    let got = xxh64(&bytes);
    if got != sum {
        return Err(format!("checksum mismatch: bytes hash to {got:016x}, BUNDLE says {sum:016x}"));
    }
    Ok(bytes)
}

/// A `BUNDLE` error at 1-based line `line` (0: the manifest as a whole).
fn at(line: usize, message: String) -> ServeError {
    ServeError::Manifest { line, message }
}

/// What a verified `BUNDLE` says.
struct Manifest {
    cfg: RmpiConfig,
    num_relations: usize,
    relation_names: Vec<String>,
    onto: Option<Tensor>,
    /// Length and XXH64 of the `params` file.
    params: (u64, u64),
    /// Whether `graph/` holds a store.
    graph: bool,
}

/// Read `BUNDLE`, check its header and seal, and parse it.
fn read_manifest(dir: &Path) -> Result<Manifest, ServeError> {
    // A single-file v1 bundle is a file: read it, so its header names it.
    let path = if dir.is_file() { dir.to_path_buf() } else { dir.join(BUNDLE_MANIFEST) };
    let file = File::open(&path).map_err(|e| match e.kind() {
        ErrorKind::NotFound => std::io::Error::new(
            ErrorKind::NotFound,
            format!("{} is not a bundle: it has no {BUNDLE_MANIFEST}", dir.display()),
        ),
        _ => e,
    })?;
    let len = file.metadata()?.len();
    if len > MAX_MANIFEST_BYTES {
        return Err(at(
            0,
            format!("{len} bytes, over the {MAX_MANIFEST_BYTES} a manifest may hold"),
        ));
    }
    let mut raw = Vec::with_capacity(len as usize);
    (&file).read_to_end(&mut raw)?;
    let header = raw.split(|&b| b == b'\n').next().unwrap_or_default();
    if header != MAGIC.as_bytes() {
        let header = String::from_utf8_lossy(header);
        return Err(at(1, format!("unsupported bundle header `{header}`: only `{MAGIC}` is read")));
    }
    let body = unseal(&raw).map_err(|(line, message)| at(line, message))?;
    let body = std::str::from_utf8(body).map_err(|e| at(0, e.to_string()))?;
    let mut keys = Keys::default();
    for (i, text) in body.lines().enumerate().skip(1) {
        keys.apply(text, i + 1)?;
    }
    keys.finish()
}

/// `BUNDLE` fields as its lines arrive.
#[derive(Default)]
struct Keys {
    cfg: RmpiConfig,
    seen_dim: bool,
    num_relations: Option<usize>,
    relation_names: Vec<(usize, String)>,
    onto: Option<Tensor>,
    params: Option<(u64, u64)>,
    graph: Option<bool>,
}

impl Keys {
    fn apply(&mut self, text: &str, line: usize) -> Result<(), ServeError> {
        let err = |message: String| at(line, message);
        let (key, rest) = match text.split_once(char::is_whitespace) {
            Some((k, r)) => (k, r.trim()),
            None => (text.trim(), ""),
        };
        match key {
            "dim" => {
                self.cfg.dim = parse(rest, "dim", line)?;
                self.seen_dim = true;
            }
            "layers" => self.cfg.num_layers = parse(rest, "layers", line)?,
            "hop" => self.cfg.hop = parse(rest, "hop", line)?,
            "ne" => self.cfg.ne = parse(rest, "ne", line)?,
            "ta" => self.cfg.ta = parse(rest, "ta", line)?,
            "fusion" => {
                self.cfg.fusion = match rest {
                    "sum" => Fusion::Sum,
                    "concat" => Fusion::Concat,
                    "gated" => Fusion::Gated,
                    other => return Err(err(format!("unknown fusion {other:?}"))),
                }
            }
            "leaky_slope" => self.cfg.leaky_slope = parse(rest, "leaky_slope", line)?,
            "edge_dropout" => self.cfg.edge_dropout = parse(rest, "edge_dropout", line)?,
            "init" => {
                self.cfg.init = match rest {
                    "random" => RelationInit::Random,
                    "schema" => RelationInit::Schema,
                    other => return Err(err(format!("unknown init {other:?}"))),
                }
            }
            "schema_hidden" => self.cfg.schema_hidden = parse(rest, "schema_hidden", line)?,
            "max_edges" => self.cfg.max_subgraph_edges = parse(rest, "max_edges", line)?,
            "entity_clues" => self.cfg.entity_clues = parse(rest, "entity_clues", line)?,
            "relations" => self.num_relations = Some(parse(rest, "relations", line)?),
            "rel" => {
                let (id, name) = rest
                    .split_once(char::is_whitespace)
                    .ok_or_else(|| err("rel needs an id and a name".into()))?;
                let id: usize = parse(id, "rel id", line)?;
                self.relation_names.push((id, name.trim().to_owned()));
            }
            "onto" => {
                let mut parts = rest.split_whitespace();
                let mut dim = |what: &str| -> Result<usize, ServeError> {
                    parse(
                        parts.next().ok_or_else(|| err(format!("onto needs {what}")))?,
                        what,
                        line,
                    )
                };
                let (rows, cols) = (dim("rows")?, dim("cols")?);
                let data =
                    parts.map(|p| parse(p, "onto value", line)).collect::<Result<Vec<f32>, _>>()?;
                if data.len() != rows * cols {
                    return Err(err(format!(
                        "onto expects {} values, got {}",
                        rows * cols,
                        data.len()
                    )));
                }
                if let Some(v) = data.iter().find(|v| !v.is_finite()) {
                    return Err(err(format!("non-finite onto value {v}")));
                }
                self.onto = Some(Tensor::matrix(rows, cols, data));
            }
            "params" => {
                let (bytes, sum) = rest
                    .split_once(' ')
                    .ok_or_else(|| err("params needs a length and a sum".into()))?;
                let sum = u64::from_str_radix(sum, 16)
                    .map_err(|e| err(format!("bad params sum: {e}")))?;
                self.params = Some((parse(bytes, "params length", line)?, sum));
            }
            "graph" => self.graph = Some(parse(rest, "graph", line)?),
            other => return Err(err(format!("unknown manifest key {other:?}"))),
        }
        Ok(())
    }

    fn finish(self) -> Result<Manifest, ServeError> {
        let missing = |what: &str| at(0, format!("manifest is missing {what}"));
        if !self.seen_dim {
            return Err(missing("dim"));
        }
        let num_relations = self.num_relations.ok_or_else(|| missing("relations"))?;
        let mut relation_names = Vec::new();
        if !self.relation_names.is_empty() {
            relation_names = vec![String::new(); num_relations];
            for (id, name) in self.relation_names {
                let slot = relation_names.get_mut(id).ok_or_else(|| {
                    at(0, format!("rel id {id} outside the {num_relations}-relation space"))
                })?;
                *slot = name;
            }
        }
        Ok(Manifest {
            cfg: self.cfg,
            num_relations,
            relation_names,
            onto: self.onto,
            params: self.params.ok_or_else(|| missing("params"))?,
            graph: self.graph.ok_or_else(|| missing("graph"))?,
        })
    }
}

/// Parse one manifest scalar, mapping failures to a labelled manifest error.
fn parse<T: std::str::FromStr>(s: &str, what: &str, line: usize) -> Result<T, ServeError>
where
    T::Err: std::fmt::Display,
{
    s.parse().map_err(|e| at(line, format!("bad {what}: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rmpi_kg::{KnowledgeGraph, Triple};
    use rmpi_store::{build_from_graph, StoreConfig};
    use std::path::PathBuf;

    fn toy_graph() -> KnowledgeGraph {
        KnowledgeGraph::from_triples(vec![
            Triple::new(0u32, 0u32, 1u32),
            Triple::new(1u32, 1u32, 3u32),
            Triple::new(0u32, 2u32, 2u32),
            Triple::new(2u32, 3u32, 3u32),
        ])
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rmpi-bundle-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn small() -> RmpiModel {
        RmpiModel::new(RmpiConfig { dim: 4, ..RmpiConfig::base() }, 4, 7)
    }

    fn roundtrip(model: &RmpiModel, names: &[String], tag: &str) -> Bundle {
        let root = scratch(tag);
        save_bundle(root.join("m"), model, names, None).unwrap();
        let (bundle, reader) = load_bundle(root.join("m"), ReadMode::default()).unwrap();
        assert!(reader.is_none());
        std::fs::remove_dir_all(&root).unwrap();
        bundle
    }

    /// Replace `from` with `to` in `BUNDLE` and seal it again: the only way a
    /// hand edit gets past the seal to the key checks.
    fn reseal(dir: &Path, from: &str, to: &str) {
        let path = dir.join(BUNDLE_MANIFEST);
        let raw = std::fs::read(&path).unwrap();
        let body = std::str::from_utf8(unseal(&raw).unwrap()).unwrap();
        let mut edited = body.replacen(from, to, 1);
        assert_ne!(edited, body, "fixture must contain {from:?}");
        seal(&mut edited);
        std::fs::write(&path, edited).unwrap();
    }

    #[test]
    fn roundtrip_scores_bit_identically() {
        let g = toy_graph();
        let target = Triple::new(0u32, 4u32, 3u32);
        for cfg in [
            RmpiConfig { dim: 8, ..RmpiConfig::base() },
            RmpiConfig { dim: 8, ..RmpiConfig::ne_ta() },
            RmpiConfig { dim: 8, fusion: Fusion::Gated, entity_clues: true, ..RmpiConfig::ne() },
        ] {
            let model = RmpiModel::new(cfg, 5, 7);
            let loaded = roundtrip(&model, &[], "rt");
            let a = model.score(&g, target, &mut StdRng::seed_from_u64(0));
            let b = loaded.model.score(&g, target, &mut StdRng::seed_from_u64(0));
            assert_eq!(a.to_bits(), b.to_bits(), "{}", model.name());
            assert_eq!(loaded.model.config().variant_name(), cfg.variant_name());
        }
    }

    #[test]
    fn schema_bundle_carries_onto_vectors() {
        let g = toy_graph();
        let target = Triple::new(0u32, 4u32, 3u32);
        let onto = Tensor::matrix(5, 6, (0..30).map(|i| (i as f32 * 0.31).cos()).collect());
        let cfg = RmpiConfig { dim: 8, ..RmpiConfig::base().with_schema() };
        let model = RmpiModel::with_schema_vectors(cfg, onto, 9);
        let loaded = roundtrip(&model, &[], "onto");
        let a = model.score(&g, target, &mut StdRng::seed_from_u64(3));
        let b = loaded.model.score(&g, target, &mut StdRng::seed_from_u64(3));
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn vocabulary_roundtrips_including_spaced_names() {
        let model = RmpiModel::new(RmpiConfig { dim: 4, ..RmpiConfig::base() }, 3, 0);
        let names = vec!["born in".to_owned(), "capital_of".to_owned(), "r2".to_owned()];
        assert_eq!(roundtrip(&model, &names, "vocab").relation_names, names);
    }

    #[test]
    fn roundtrips_with_a_graph_and_resaves_without_one() {
        let root = scratch("graph");
        let store_dir = root.join("world.store");
        let cfg = StoreConfig { seg_records: 2, ..StoreConfig::default() };
        build_from_graph(&store_dir, cfg, &toy_graph()).unwrap();
        let bdir = root.join("model.bundle");
        let names = vec!["a".into(), "b".into(), "c".into(), "d".into()];
        save_bundle(&bdir, &small(), &names, Some(&store_dir)).unwrap();

        let (bundle, reader) = load_bundle(&bdir, ReadMode::default()).unwrap();
        assert_eq!(bundle.relation_names, names);
        assert_eq!(bundle.model.num_relations(), 4);
        let reader = reader.expect("a graph opens a reader");
        assert_eq!((reader.num_triples(), reader.num_entities()), (4, 4));
        assert!(scrub_bundle(&bdir).unwrap().is_clean());

        // a re-save without a graph leaves none behind
        save_bundle(&bdir, &small(), &[], None).unwrap();
        assert!(load_bundle(&bdir, ReadMode::default()).unwrap().1.is_none());
        assert!(!bdir.join(GRAPH).exists());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn corrupt_files_are_refused_by_name() {
        let root = scratch("corrupt");
        let store_dir = root.join("world.store");
        build_from_graph(&store_dir, StoreConfig::default(), &toy_graph()).unwrap();
        let bdir = root.join("model.bundle");
        save_bundle(&bdir, &small(), &[], Some(&store_dir)).unwrap();

        // one flipped bit in a graph segment: the store's block sums name it
        let seg = bdir.join(GRAPH).join("fwd-00000.seg");
        let pristine = std::fs::read(&seg).unwrap();
        let mut bytes = pristine.clone();
        bytes[0] ^= 0x01;
        std::fs::write(&seg, &bytes).unwrap();
        let err = load_bundle(&bdir, ReadMode::default()).unwrap_err();
        match &err {
            ServeError::Corrupt { file, message } => {
                assert_eq!(file, "graph/fwd-00000.seg");
                assert!(message.contains("checksum mismatch"), "{message}");
            }
            other => panic!("expected a corrupt file, got {other}"),
        }
        let report = scrub_bundle(&bdir).unwrap();
        let bad: Vec<_> = report.corrupt_sections().iter().map(|s| s.file.clone()).collect();
        assert_eq!(bad, ["graph/fwd-00000.seg"]);
        std::fs::write(&seg, &pristine).unwrap();

        // a truncated params file: its length disagrees with BUNDLE
        let params = bdir.join(PARAMS);
        let bytes = std::fs::read(&params).unwrap();
        std::fs::write(&params, &bytes[..bytes.len() - 1]).unwrap();
        let err = load_bundle(&bdir, ReadMode::default()).unwrap_err();
        assert!(matches!(&err, ServeError::Corrupt { file, .. } if file == PARAMS), "{err}");
        assert!(err.to_string().contains("size mismatch"), "{err}");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn edits_past_the_seal_reach_the_key_checks_by_line() {
        let root = scratch("keys");
        let bdir = root.join("m");
        let fresh = || save_bundle(&bdir, &small(), &[], None).unwrap();

        fresh();
        reseal(&bdir, "hop 2", "hops 2");
        let err = load_bundle(&bdir, ReadMode::default()).unwrap_err();
        assert!(matches!(err, ServeError::Manifest { line: 4, .. }), "{err}");
        assert!(err.to_string().contains("unknown manifest key \"hops\""), "{err}");

        // the manifest claims NE weights the parameters do not have
        fresh();
        reseal(&bdir, "ne false", "ne true");
        let err = load_bundle(&bdir, ReadMode::default()).unwrap_err();
        assert!(matches!(err, ServeError::Assembly(_)), "{err}");

        // a NaN weight whose sum was recorded anyway: the tensor parser refuses
        fresh();
        let path = bdir.join(PARAMS);
        let text = std::fs::read_to_string(&path).unwrap();
        let poisoned = text.replacen(" 0.", " NaN ", 1);
        std::fs::write(&path, &poisoned).unwrap();
        let (old, new) = (
            format!("params {} {:016x}", text.len(), xxh64(text.as_bytes())),
            format!("params {} {:016x}", poisoned.len(), xxh64(poisoned.as_bytes())),
        );
        reseal(&bdir, &old, &new);
        let err = load_bundle(&bdir, ReadMode::default()).unwrap_err();
        assert!(matches!(err, ServeError::Checkpoint(_)), "{err}");
        assert!(err.to_string().contains("bundle params file"), "{err}");

        // an edit that is not re-sealed never reaches the keys
        fresh();
        let path = bdir.join(BUNDLE_MANIFEST);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace("hop 2", "hop 0")).unwrap();
        let err = load_bundle(&bdir, ReadMode::default()).unwrap_err();
        assert!(err.to_string().contains("self-checksum mismatch"), "{err}");
        let report = scrub_bundle(&bdir).unwrap();
        assert_eq!(report.corrupt_sections()[0].file, BUNDLE_MANIFEST);

        // truncated: no `end`
        std::fs::write(&path, text.strip_suffix("end\n").unwrap()).unwrap();
        let err = load_bundle(&bdir, ReadMode::default()).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn older_formats_and_non_bundles_are_refused_by_name() {
        let root = scratch("versions");
        // a v1 single-file bundle and a v1 bundle directory
        let file = root.join("model.bundle");
        std::fs::write(&file, "rmpi-bundle v1\ndim 4\nparams\nrmpi-params v1\n").unwrap();
        let dir = root.join("model.bundled");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(BUNDLE_MANIFEST), "rmpi-bundle-dir v1\nend\n").unwrap();
        for (path, version) in [(&file, "rmpi-bundle v1"), (&dir, "rmpi-bundle-dir v1")] {
            let err = load_bundle(path, ReadMode::default()).unwrap_err();
            assert!(matches!(err, ServeError::Manifest { line: 1, .. }), "{err}");
            assert!(err.to_string().contains(version), "{err}");
            assert!(err.to_string().contains(MAGIC), "{err}");
        }

        // no BUNDLE at all: not a bundle, for load and scrub alike
        let empty = root.join("empty");
        std::fs::create_dir_all(&empty).unwrap();
        for err in [
            load_bundle(&empty, ReadMode::default()).unwrap_err(),
            scrub_bundle(&empty).unwrap_err(),
        ] {
            assert!(err.to_string().contains("is not a bundle"), "{err}");
        }

        // an oversized BUNDLE is refused before it is read (sparse: no disk)
        File::create(empty.join(BUNDLE_MANIFEST)).unwrap().set_len(MAX_MANIFEST_BYTES + 1).unwrap();
        let err = load_bundle(&empty, ReadMode::default()).unwrap_err();
        assert!(err.to_string().contains("a manifest may hold"), "{err}");
        std::fs::remove_dir_all(&root).unwrap();
    }
}
