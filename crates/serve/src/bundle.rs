//! Model bundles: everything needed to re-instantiate a trained model
//! outside the trainer, in one artifact.
//!
//! A bundle is a single UTF-8 file with two sections:
//!
//! ```text
//! rmpi-bundle v1
//! variant RMPI-NE(S)            # informational, re-derived on load
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
//! params
//! rmpi-params v1                # the existing checkpoint format verbatim
//! <name> <rank> <dim...> <value...>
//! ```
//!
//! The manifest carries the full [`RmpiConfig`] (floats in round-trip
//! precision), the relation id-space size, an optional relation vocabulary
//! and — for schema-initialised models — the fixed ontology vectors, which
//! live outside the parameter store. The `params` marker hands the rest of
//! the stream to [`rmpi_autograd::io::load_params`] unchanged, so bundle and
//! checkpoint parsing share one strict tensor parser. Save → load is
//! bit-exact: a reloaded model scores identically to the one that was saved.
//!
//! Every parse error names its section and carries the **byte offset** into
//! the bundle (the line start for manifest errors, the section start for
//! parameter errors), so a corrupt artifact can be localised with `head -c`.
//! [`save_bundle_file`] writes atomically (temp + fsync + rename): a crash
//! mid-save never clobbers the bundle a server might reload next.

use crate::error::{checkpoint_at, ServeError};
use crate::lineio::LineRead;
use rmpi_autograd::io::{atomic_write_bytes, load_params, save_params};
use rmpi_autograd::Tensor;
use rmpi_core::{Fusion, RelationInit, RmpiConfig, RmpiModel, ScoringModel};
use rmpi_store::{fnv64, Fnv64};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

/// Bundle header line.
const MAGIC: &str = "rmpi-bundle v1";
/// Marker separating the manifest from the parameter section.
const PARAMS_MARKER: &str = "params";

/// A loaded bundle: the re-instantiated model plus its relation vocabulary.
#[derive(Clone, Debug)]
pub struct Bundle {
    /// The reassembled model, bit-identical to the one saved.
    pub model: RmpiModel,
    /// Relation names by id (empty when the bundle carried no vocabulary).
    pub relation_names: Vec<String>,
}

/// Serialise `model` (config, optional vocabulary, optional schema vectors,
/// parameters) into `w`. `relation_names` must be empty or cover the model's
/// whole relation id space.
pub fn save_bundle<W: Write>(
    w: &mut W,
    model: &RmpiModel,
    relation_names: &[String],
) -> Result<(), ServeError> {
    let cfg = model.config();
    assert!(
        relation_names.is_empty() || relation_names.len() == model.num_relations(),
        "vocabulary must be empty or cover all {} relations",
        model.num_relations()
    );
    writeln!(w, "{MAGIC}")?;
    writeln!(w, "variant {}", cfg.variant_name())?;
    writeln!(w, "dim {}", cfg.dim)?;
    writeln!(w, "layers {}", cfg.num_layers)?;
    writeln!(w, "hop {}", cfg.hop)?;
    writeln!(w, "ne {}", cfg.ne)?;
    writeln!(w, "ta {}", cfg.ta)?;
    let fusion = match cfg.fusion {
        Fusion::Sum => "sum",
        Fusion::Concat => "concat",
        Fusion::Gated => "gated",
    };
    writeln!(w, "fusion {fusion}")?;
    writeln!(w, "leaky_slope {}", cfg.leaky_slope)?;
    writeln!(w, "edge_dropout {}", cfg.edge_dropout)?;
    let init = match cfg.init {
        RelationInit::Random => "random",
        RelationInit::Schema => "schema",
    };
    writeln!(w, "init {init}")?;
    writeln!(w, "schema_hidden {}", cfg.schema_hidden)?;
    writeln!(w, "max_edges {}", cfg.max_subgraph_edges)?;
    writeln!(w, "entity_clues {}", cfg.entity_clues)?;
    writeln!(w, "relations {}", model.num_relations())?;
    for (i, name) in relation_names.iter().enumerate() {
        writeln!(w, "rel {i} {name}")?;
    }
    if let Some(onto) = model.schema_vectors() {
        write!(w, "onto {} {}", onto.rows(), onto.cols())?;
        for v in onto.data() {
            write!(w, " {v}")?;
        }
        writeln!(w)?;
    }
    // The parameter section is serialised first so its FNV-64 can ride in
    // the manifest; the loader re-hashes the section and refuses a bundle
    // whose bytes no longer match (detects bit-rot the tensor parser would
    // happily accept as different-but-valid floats).
    let mut params = Vec::new();
    save_params(&mut params, model.param_store())?;
    writeln!(w, "params_checksum {:016x}", fnv64(&params))?;
    writeln!(w, "{PARAMS_MARKER}")?;
    w.write_all(&params)?;
    Ok(())
}

/// A [`BufRead`] adapter that counts — and FNV-hashes — every byte the
/// parser actually consumed. `Read` is routed through `fill_buf`/`consume`
/// so the two interfaces share one tally and nothing is counted (or hashed)
/// twice. The hash can be reset at a section boundary, after which it covers
/// exactly that section's bytes.
struct CountingReader<R> {
    inner: BufReader<R>,
    consumed: u64,
    hash: Fnv64,
}

impl<R: Read> CountingReader<R> {
    fn new(r: R) -> Self {
        CountingReader { inner: BufReader::new(r), consumed: 0, hash: Fnv64::new() }
    }

    /// Start hashing from here (a section boundary).
    fn reset_hash(&mut self) {
        self.hash = Fnv64::new();
    }
}

impl<R: Read> Read for CountingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let available = self.fill_buf()?;
        let n = available.len().min(buf.len());
        buf[..n].copy_from_slice(&available[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl<R: Read> BufRead for CountingReader<R> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        self.inner.fill_buf()
    }
    fn consume(&mut self, amt: usize) {
        // `fill_buf` on a non-empty buffer returns that buffer without any
        // IO, so re-asking for it here sees exactly the bytes about to be
        // consumed — which is what lets `consume` hash them.
        if amt > 0 {
            if let Ok(buf) = self.inner.fill_buf() {
                self.hash.update(&buf[..amt.min(buf.len())]);
            }
        }
        self.consumed += amt as u64;
        self.inner.consume(amt);
    }
}

/// Position of a manifest line: line number plus the byte offset of its
/// first character. Threaded into every manifest error.
#[derive(Clone, Copy)]
struct At {
    line: usize,
    offset: u64,
}

impl At {
    fn err(self, message: String) -> ServeError {
        ServeError::Manifest { line: self.line, offset: self.offset, message }
    }
}

/// Longest manifest line [`load_bundle`] will buffer. Vocabulary lines carry
/// one relation name each, so even generous names fit in a fraction of this;
/// a "line" longer than 4 MiB is a corrupt or hostile artifact and is
/// rejected with a manifest error instead of buffering it unbounded.
pub(crate) const MAX_MANIFEST_LINE: usize = 1 << 22;

/// Parse a bundle and reassemble the model.
pub fn load_bundle<R: Read>(r: R) -> Result<Bundle, ServeError> {
    let mut reader = CountingReader::new(r);
    let mut at = At { line: 0, offset: 0 };
    let mut line = String::new();
    let mut next_line =
        |reader: &mut CountingReader<R>, at: &mut At| -> Result<Option<String>, ServeError> {
            at.offset = reader.consumed;
            at.line += 1;
            match crate::lineio::read_line_bounded(reader, &mut line, MAX_MANIFEST_LINE)? {
                LineRead::Eof => {
                    at.line -= 1;
                    Ok(None)
                }
                // a file's unterminated last line is still a line
                LineRead::Line | LineRead::Partial => Ok(Some(line.clone())),
                LineRead::TooLong => {
                    Err(at.err(format!("manifest line longer than {MAX_MANIFEST_LINE} bytes")))
                }
            }
        };

    let header = next_line(&mut reader, &mut at)?.unwrap_or_default();
    if header != MAGIC {
        return Err(At { line: 1, offset: 0 }.err(format!("bad header {header:?}")));
    }

    let mut manifest = ManifestBuilder::default();
    loop {
        let Some(text) = next_line(&mut reader, &mut at)? else {
            return Err(at.err(format!("bundle ended before the {PARAMS_MARKER:?} marker")));
        };
        if text.trim().is_empty() {
            continue;
        }
        if text.trim() == PARAMS_MARKER {
            break;
        }
        manifest.apply(&text, at)?;
    }

    // Everything past the marker is the parameter section; failures in it
    // are reported against the section's start, which is deterministic
    // regardless of how far the tensor parser read ahead.
    reader.reset_hash();
    let params_start = reader.consumed;
    let store = load_params(&mut reader).map_err(|e| checkpoint_at(params_start, e))?;
    if let Some(expected) = manifest.params_checksum {
        // The tensor parser may stop short of EOF (e.g. at a count it read
        // from a header); drain the remainder so the hash covers the whole
        // section exactly as it was saved.
        let mut sink = [0u8; 8192];
        while reader.read(&mut sink)? > 0 {}
        let actual = reader.hash.finish();
        if actual != expected {
            return Err(ServeError::Checksum { section: "params".into(), expected, actual });
        }
    }
    manifest.finish(store)
}

/// Save a bundle to `path` **atomically**: the serialised bytes land under a
/// temporary name, are fsynced, and replace `path` in one rename. A crash or
/// injected I/O failure mid-save leaves any previous bundle untouched.
pub fn save_bundle_file<P: AsRef<Path>>(
    path: P,
    model: &RmpiModel,
    relation_names: &[String],
) -> Result<(), ServeError> {
    let mut buf = Vec::new();
    save_bundle(&mut buf, model, relation_names)?;
    atomic_write_bytes(path, &buf)?;
    Ok(())
}

/// Load a bundle from `path`.
pub fn load_bundle_file<P: AsRef<Path>>(path: P) -> Result<Bundle, ServeError> {
    load_bundle(std::fs::File::open(path)?)
}

/// Accumulates manifest fields as lines arrive, then assembles the model.
#[derive(Default)]
struct ManifestBuilder {
    cfg: RmpiConfig,
    num_relations: Option<usize>,
    relation_names: Vec<(usize, String)>,
    onto: Option<Tensor>,
    seen_dim: bool,
    params_checksum: Option<u64>,
}

impl ManifestBuilder {
    fn apply(&mut self, text: &str, at: At) -> Result<(), ServeError> {
        let err = |message: String| at.err(message);
        let (key, rest) = match text.split_once(char::is_whitespace) {
            Some((k, r)) => (k, r.trim()),
            None => (text.trim(), ""),
        };
        match key {
            "variant" => {} // informational; re-derived from the config
            "dim" => {
                self.cfg.dim = parse(rest, "dim", at)?;
                self.seen_dim = true;
            }
            "layers" => self.cfg.num_layers = parse(rest, "layers", at)?,
            "hop" => self.cfg.hop = parse(rest, "hop", at)?,
            "ne" => self.cfg.ne = parse(rest, "ne", at)?,
            "ta" => self.cfg.ta = parse(rest, "ta", at)?,
            "fusion" => {
                self.cfg.fusion = match rest {
                    "sum" => Fusion::Sum,
                    "concat" => Fusion::Concat,
                    "gated" => Fusion::Gated,
                    other => return Err(err(format!("unknown fusion {other:?}"))),
                }
            }
            "leaky_slope" => self.cfg.leaky_slope = parse(rest, "leaky_slope", at)?,
            "edge_dropout" => self.cfg.edge_dropout = parse(rest, "edge_dropout", at)?,
            "init" => {
                self.cfg.init = match rest {
                    "random" => RelationInit::Random,
                    "schema" => RelationInit::Schema,
                    other => return Err(err(format!("unknown init {other:?}"))),
                }
            }
            "schema_hidden" => self.cfg.schema_hidden = parse(rest, "schema_hidden", at)?,
            "max_edges" => self.cfg.max_subgraph_edges = parse(rest, "max_edges", at)?,
            "entity_clues" => self.cfg.entity_clues = parse(rest, "entity_clues", at)?,
            "relations" => self.num_relations = Some(parse(rest, "relations", at)?),
            // absent in bundles written before the checksum landed — those
            // still load, they just skip verification
            "params_checksum" => {
                self.params_checksum = Some(
                    u64::from_str_radix(rest, 16)
                        .map_err(|e| err(format!("bad params_checksum: {e}")))?,
                )
            }
            "rel" => {
                let (id, name) = rest
                    .split_once(char::is_whitespace)
                    .ok_or_else(|| err("rel needs an id and a name".into()))?;
                let id: usize = parse(id, "rel id", at)?;
                self.relation_names.push((id, name.trim().to_owned()));
            }
            "onto" => {
                let mut parts = rest.split_whitespace();
                let rows: usize = parse(
                    parts.next().ok_or_else(|| err("onto needs rows".into()))?,
                    "onto rows",
                    at,
                )?;
                let cols: usize = parse(
                    parts.next().ok_or_else(|| err("onto needs cols".into()))?,
                    "onto cols",
                    at,
                )?;
                let mut data = Vec::with_capacity(rows * cols);
                for p in parts {
                    let v: f32 = parse(p, "onto value", at)?;
                    if !v.is_finite() {
                        return Err(err(format!("non-finite onto value {v}")));
                    }
                    data.push(v);
                }
                if data.len() != rows * cols {
                    return Err(err(format!(
                        "onto expects {} values, got {}",
                        rows * cols,
                        data.len()
                    )));
                }
                self.onto = Some(Tensor::matrix(rows, cols, data));
            }
            other => return Err(err(format!("unknown manifest key {other:?}"))),
        }
        Ok(())
    }

    fn finish(self, store: rmpi_autograd::ParamStore) -> Result<Bundle, ServeError> {
        let missing =
            |what: &str| At { line: 0, offset: 0 }.err(format!("manifest is missing {what}"));
        if !self.seen_dim {
            return Err(missing("dim"));
        }
        let num_relations = self.num_relations.ok_or_else(|| missing("relations"))?;
        let mut relation_names = Vec::new();
        if !self.relation_names.is_empty() {
            relation_names = vec![String::new(); num_relations];
            for (id, name) in self.relation_names {
                let slot = relation_names.get_mut(id).ok_or_else(|| {
                    At { line: 0, offset: 0 }
                        .err(format!("rel id {id} outside the {num_relations}-relation space"))
                })?;
                *slot = name;
            }
        }
        let model = RmpiModel::from_store(self.cfg, num_relations, store, self.onto)?;
        Ok(Bundle { model, relation_names })
    }
}

/// Parse one manifest scalar, mapping failures to a labelled manifest error.
fn parse<T: std::str::FromStr>(s: &str, what: &str, at: At) -> Result<T, ServeError>
where
    T::Err: std::fmt::Display,
{
    s.parse().map_err(|e| at.err(format!("bad {what}: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rmpi_kg::{KnowledgeGraph, Triple};
    use std::io::Cursor;

    fn toy_graph() -> KnowledgeGraph {
        KnowledgeGraph::from_triples(vec![
            Triple::new(0u32, 0u32, 1u32),
            Triple::new(1u32, 1u32, 3u32),
            Triple::new(0u32, 2u32, 2u32),
            Triple::new(2u32, 3u32, 3u32),
        ])
    }

    fn roundtrip(model: &RmpiModel, names: &[String]) -> Bundle {
        let mut buf = Vec::new();
        save_bundle(&mut buf, model, names).unwrap();
        load_bundle(Cursor::new(buf)).unwrap()
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
            let loaded = roundtrip(&model, &[]);
            let a = model.score(&g, target, &mut StdRng::seed_from_u64(0));
            let b = loaded.model.score(&g, target, &mut StdRng::seed_from_u64(0));
            assert_eq!(a, b, "{}", model.name());
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
        let loaded = roundtrip(&model, &[]);
        let a = model.score(&g, target, &mut StdRng::seed_from_u64(3));
        let b = loaded.model.score(&g, target, &mut StdRng::seed_from_u64(3));
        assert_eq!(a, b);
    }

    #[test]
    fn vocabulary_roundtrips_including_spaced_names() {
        let model = RmpiModel::new(RmpiConfig { dim: 4, ..RmpiConfig::base() }, 3, 0);
        let names = vec!["born in".to_owned(), "capital_of".to_owned(), "r2".to_owned()];
        let loaded = roundtrip(&model, &names);
        assert_eq!(loaded.relation_names, names);
    }

    #[test]
    fn rejects_bad_header() {
        let err = load_bundle(Cursor::new("not-a-bundle\n")).unwrap_err();
        assert!(matches!(err, ServeError::Manifest { line: 1, .. }), "{err}");
    }

    #[test]
    fn rejects_overlong_manifest_line_without_buffering_it() {
        // a hostile "bundle" whose second line never ends must fail with a
        // manifest error at that line, not grow a multi-gigabyte String
        let mut bytes = format!("{MAGIC}\n").into_bytes();
        bytes.extend(std::iter::repeat(b'x').take(MAX_MANIFEST_LINE + 1));
        let err = load_bundle(Cursor::new(bytes)).unwrap_err();
        match err {
            ServeError::Manifest { line, message, .. } => {
                assert_eq!(line, 2);
                assert!(message.contains("longer than"), "{message}");
            }
            other => panic!("expected manifest error, got {other}"),
        }
    }

    #[test]
    fn rejects_truncated_bundle() {
        let model = RmpiModel::new(RmpiConfig { dim: 4, ..RmpiConfig::base() }, 3, 0);
        let mut buf = Vec::new();
        save_bundle(&mut buf, &model, &[]).unwrap();
        // cut in the middle of the parameter section
        let cut = buf.len() - buf.len() / 4;
        let err = load_bundle(Cursor::new(&buf[..cut])).unwrap_err();
        assert!(
            matches!(err, ServeError::Checkpoint { .. } | ServeError::Assembly(_)),
            "truncation must fail parsing or assembly: {err}"
        );
        // cut before the params marker
        let head = String::from_utf8_lossy(&buf);
        let manifest_only = head.split(PARAMS_MARKER).next().unwrap();
        let err = load_bundle(Cursor::new(manifest_only.as_bytes())).unwrap_err();
        assert!(matches!(err, ServeError::Manifest { .. }), "{err}");
    }

    #[test]
    fn rejects_nan_params_and_unknown_keys() {
        let model = RmpiModel::new(RmpiConfig { dim: 4, ..RmpiConfig::base() }, 3, 0);
        let mut buf = Vec::new();
        save_bundle(&mut buf, &model, &[]).unwrap();
        let text = String::from_utf8(buf).unwrap();
        // poison a tensor value inside the parameter section
        let idx = text.find("rmpi-params v1").unwrap();
        let poisoned = format!("{}{}", &text[..idx], text[idx..].replacen("0.", "NaN ", 1));
        let err = load_bundle(Cursor::new(poisoned.into_bytes())).unwrap_err();
        assert!(matches!(err, ServeError::Checkpoint { .. }), "{err}");
        let unknown = text.replace("hop 2", "hops 2");
        let err = load_bundle(Cursor::new(unknown.into_bytes())).unwrap_err();
        assert!(err.to_string().contains("unknown manifest key"), "{err}");
    }

    #[test]
    fn errors_carry_byte_offsets_and_section_names() {
        let model = RmpiModel::new(RmpiConfig { dim: 4, ..RmpiConfig::base() }, 3, 0);
        let mut buf = Vec::new();
        save_bundle(&mut buf, &model, &[]).unwrap();
        let text = String::from_utf8(buf).unwrap();

        // A bad manifest key is reported at the byte offset of its line start.
        let bad = text.replace("hop 2", "hops 2");
        let key_offset = bad.find("hops 2").unwrap() as u64;
        let err = load_bundle(Cursor::new(bad.clone().into_bytes())).unwrap_err();
        match &err {
            ServeError::Manifest { offset, .. } => assert_eq!(*offset, key_offset, "{err}"),
            other => panic!("expected manifest error, got {other}"),
        }
        assert!(err.to_string().contains(&format!("byte {key_offset}")), "{err}");

        // A corrupt parameter section is reported against the section start
        // (the byte right after the "params" marker line) and names itself.
        let params_start = (text.find("\nparams\n").unwrap() + "\nparams\n".len()) as u64;
        let idx = text.find("rmpi-params v1").unwrap();
        let poisoned = format!("{}{}", &text[..idx], text[idx..].replacen("0.", "NaN ", 1));
        let err = load_bundle(Cursor::new(poisoned.into_bytes())).unwrap_err();
        match &err {
            ServeError::Checkpoint { offset, .. } => assert_eq!(*offset, params_start, "{err}"),
            other => panic!("expected checkpoint error, got {other}"),
        }
        let msg = err.to_string();
        assert!(msg.contains("parameter section"), "{msg}");
        assert!(msg.contains(&format!("byte {params_start}")), "{msg}");
    }

    #[test]
    fn rejects_tampered_params_via_checksum() {
        let model = RmpiModel::new(RmpiConfig { dim: 4, ..RmpiConfig::base() }, 3, 0);
        let mut buf = Vec::new();
        save_bundle(&mut buf, &model, &[]).unwrap();
        // flip the last digit of the parameter section: still a valid finite
        // float of the same shape, so the tensor parser and model assembly
        // both accept it — only the checksum can catch the tampering
        let needle = b"rmpi-params v1";
        let params_at = buf.windows(needle.len()).position(|w| w == needle).unwrap();
        let idx = (params_at..buf.len()).rev().find(|&i| buf[i].is_ascii_digit()).unwrap();
        buf[idx] = if buf[idx] == b'9' { b'8' } else { buf[idx] + 1 };
        let err = load_bundle(Cursor::new(buf)).unwrap_err();
        match err {
            ServeError::Checksum { ref section, expected, actual } => {
                assert_eq!(section, "params");
                assert_ne!(expected, actual);
            }
            other => panic!("expected checksum error, got {other}"),
        }
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
    }

    #[test]
    fn legacy_bundles_without_checksum_still_load() {
        let model = RmpiModel::new(RmpiConfig { dim: 4, ..RmpiConfig::base() }, 3, 0);
        let mut buf = Vec::new();
        save_bundle(&mut buf, &model, &[]).unwrap();
        let text = String::from_utf8(buf).unwrap();
        // a bundle written before the checksum existed has no such line;
        // it must still load (verification is simply skipped)
        let legacy: String = text
            .lines()
            .filter(|l| !l.starts_with("params_checksum"))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_ne!(legacy, text, "fixture must actually drop the key");
        let loaded = load_bundle(Cursor::new(legacy.into_bytes())).unwrap();
        assert_eq!(loaded.model.num_relations(), 3);
    }

    #[test]
    fn rejects_config_param_mismatch() {
        let model = RmpiModel::new(RmpiConfig { dim: 4, ..RmpiConfig::base() }, 3, 0);
        let mut buf = Vec::new();
        save_bundle(&mut buf, &model, &[]).unwrap();
        let text = String::from_utf8(buf).unwrap();
        // manifest claims ne=true but the store has no NE weights
        let lying = text.replace("ne false", "ne true");
        let err = load_bundle(Cursor::new(lying.into_bytes())).unwrap_err();
        assert!(matches!(err, ServeError::Assembly(_)), "{err}");
    }

    #[test]
    fn file_helpers_roundtrip() {
        let _lock = rmpi_testutil::failpoint::exclusive();
        let dir = std::env::temp_dir().join(format!("rmpi-bundle-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.bundle");
        let model = RmpiModel::new(RmpiConfig { dim: 4, ne: true, ..RmpiConfig::base() }, 3, 1);
        save_bundle_file(&path, &model, &[]).unwrap();
        let loaded = load_bundle_file(&path).unwrap();
        assert_eq!(loaded.model.num_relations(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_save_leaves_existing_bundle_untouched() {
        use rmpi_testutil::failpoint::{self, Action};
        let _lock = failpoint::exclusive();
        let dir = std::env::temp_dir().join(format!("rmpi-bundle-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.bundle");
        let model = RmpiModel::new(RmpiConfig { dim: 4, ..RmpiConfig::base() }, 3, 1);
        save_bundle_file(&path, &model, &[]).unwrap();
        let original = std::fs::read(&path).unwrap();

        failpoint::arm(rmpi_autograd::io::WRITE_FAILPOINT, Action::IoError("disk gone".into()));
        let bigger = RmpiModel::new(RmpiConfig { dim: 8, ..RmpiConfig::base() }, 3, 2);
        let err = save_bundle_file(&path, &bigger, &[]).unwrap_err();
        failpoint::disarm_all();
        assert!(err.to_string().contains("disk gone"), "{err}");

        assert_eq!(std::fs::read(&path).unwrap(), original, "failed save must not clobber");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| e.as_ref().unwrap().file_name() != "model.bundle")
            .collect();
        assert!(leftovers.is_empty(), "no temp litter: {leftovers:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
