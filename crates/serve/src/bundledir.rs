//! Bundle *directories*: a model bundle plus an optional on-disk graph,
//! packaged as one self-describing directory artifact.
//!
//! A single-file [`crate::bundle`] carries everything a model needs — but a
//! store-backed deployment also needs the graph, and a multi-gigabyte store
//! does not belong inside a text artifact. A bundle directory keeps each
//! piece as its own file and binds them together with a `BUNDLE` manifest
//! listing every section's byte length and FNV-64 checksum:
//!
//! ```text
//! my-model.bundled/
//!   BUNDLE                        # manifest, written last (commit point)
//!   params.bundle                 # an ordinary rmpi-bundle v1 file
//!   graph/MANIFEST                # optional: a verbatim rmpi-store directory
//!   graph/index.bin
//!   graph/fwd-00000.seg
//!   graph/inv-00000.seg
//! ```
//!
//! ```text
//! rmpi-bundle-dir v1
//! section params params.bundle <bytes> <fnv64>
//! section graph graph/MANIFEST <bytes> <fnv64>
//! section graph graph/index.bin <bytes> <fnv64>
//! ...
//! end
//! ```
//!
//! [`load_bundle_dir`] verifies every section's size and checksum **before**
//! parsing anything, so corruption is reported against the offending file —
//! [`ServeError::Checksum`] names it — rather than surfacing later as a
//! confusing parse error deep inside the tensor or segment readers. The
//! `BUNDLE` manifest is written last via temp + rename: a crashed save
//! leaves a directory without a manifest, recognisably not a bundle.

use crate::bundle::{load_bundle_file, save_bundle, Bundle};
use crate::error::ServeError;
use rmpi_autograd::io::atomic_write_bytes;
use rmpi_core::RmpiModel;
use rmpi_store::{
    fnv64, Fnv64, Manifest as StoreManifest, ReadMode, ScrubReport, ScrubSection, StoreReader,
    INDEX_NAME, MANIFEST_NAME,
};
use std::fs::File;
use std::io::{BufReader, Read, Write};
use std::path::{Component, Path, PathBuf};

/// Manifest file name inside a bundle directory.
pub const DIR_MANIFEST_NAME: &str = "BUNDLE";

/// Magic first line of the directory manifest.
const DIR_MAGIC: &str = "rmpi-bundle-dir v1";

/// File name of the model-bundle section.
pub(crate) const PARAMS_FILE: &str = "params.bundle";

/// Subdirectory holding the graph store sections.
pub(crate) const GRAPH_DIR: &str = "graph";

/// One section of a bundle directory, as recorded in `BUNDLE`.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Section {
    /// `params` or `graph`.
    kind: String,
    /// Path relative to the bundle directory (`/`-separated).
    rel: String,
    /// Byte length of the file.
    bytes: u64,
    /// FNV-1a 64 of the file's bytes.
    checksum: u64,
}

/// Serialise `model` (and, when `store_dir` is given, the graph store at
/// that path) into the bundle directory `dir`.
///
/// The store is copied file-by-file into `<dir>/graph/` exactly as its own
/// MANIFEST lists it; each copy is hashed on the way through. The `BUNDLE`
/// manifest lands last, atomically, so an interrupted save never leaves a
/// loadable-looking artifact.
pub fn save_bundle_dir(
    dir: impl AsRef<Path>,
    model: &RmpiModel,
    relation_names: &[String],
    store_dir: Option<&Path>,
) -> Result<(), ServeError> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;

    let mut params = Vec::new();
    save_bundle(&mut params, model, relation_names)?;
    atomic_write_bytes(dir.join(PARAMS_FILE), &params)?;
    let mut sections = vec![Section {
        kind: "params".into(),
        rel: PARAMS_FILE.into(),
        bytes: params.len() as u64,
        checksum: fnv64(&params),
    }];

    if let Some(src) = store_dir {
        let text = std::fs::read_to_string(src.join(MANIFEST_NAME))?;
        let manifest = StoreManifest::parse(&text)?;
        let graph_dir = dir.join(GRAPH_DIR);
        std::fs::create_dir_all(&graph_dir)?;
        let mut files = vec![MANIFEST_NAME.to_string(), INDEX_NAME.to_string()];
        files.extend(manifest.fwd.iter().chain(manifest.inv.iter()).map(|s| s.file.clone()));
        for file in files {
            let (bytes, checksum) = copy_hashed(&src.join(&file), &graph_dir.join(&file))?;
            sections.push(Section {
                kind: "graph".into(),
                rel: format!("{GRAPH_DIR}/{file}"),
                bytes,
                checksum,
            });
        }
    }

    let mut text = format!("{DIR_MAGIC}\n");
    for s in &sections {
        text.push_str(&format!("section {} {} {} {:016x}\n", s.kind, s.rel, s.bytes, s.checksum));
    }
    text.push_str("end\n");
    atomic_write_bytes(dir.join(DIR_MANIFEST_NAME), text.as_bytes())?;
    Ok(())
}

/// Stream-copy `src` to `dst`, returning the byte count and FNV-64 of the
/// copied data.
fn copy_hashed(src: &Path, dst: &Path) -> Result<(u64, u64), ServeError> {
    let mut r = BufReader::with_capacity(1 << 16, File::open(src)?);
    let mut w = File::create(dst)?;
    let mut hash = Fnv64::new();
    let mut total = 0u64;
    let mut buf = [0u8; 1 << 16];
    loop {
        let n = r.read(&mut buf)?;
        if n == 0 {
            break;
        }
        hash.update(&buf[..n]);
        w.write_all(&buf[..n])?;
        total += n as u64;
    }
    w.sync_all()?;
    Ok((total, hash.finish()))
}

/// Load a bundle directory: verify every section against the `BUNDLE`
/// manifest (size, then checksum), parse the model bundle, and — when graph
/// sections are present — open a [`StoreReader`] over `<dir>/graph` in the
/// requested [`ReadMode`].
///
/// Verification failures name the file: a size mismatch is a
/// [`ServeError::Manifest`] pointing at the section's manifest line, a hash
/// mismatch is a [`ServeError::Checksum`] whose `section` is the file's
/// relative path.
pub fn load_bundle_dir(
    dir: impl AsRef<Path>,
    mode: ReadMode,
) -> Result<(Bundle, Option<StoreReader>), ServeError> {
    let dir = dir.as_ref();
    let text = std::fs::read_to_string(dir.join(DIR_MANIFEST_NAME))?;
    let sections = parse_dir_manifest(&text)?;

    // Verify every section before parsing any of them: a corrupt byte is
    // reported against its file, never as a downstream parse error.
    for (s, at) in &sections {
        let path = section_path(dir, &s.rel, *at)?;
        let actual_len = std::fs::metadata(&path).map_err(ServeError::Io)?.len();
        if actual_len != s.bytes {
            return Err(ServeError::Manifest {
                line: at.line,
                offset: at.offset,
                message: format!(
                    "section {} is {actual_len} bytes on disk, manifest says {}",
                    s.rel, s.bytes
                ),
            });
        }
        let actual = hash_file(&path)?;
        if actual != s.checksum {
            return Err(ServeError::Checksum {
                section: s.rel.clone(),
                expected: s.checksum,
                actual,
            });
        }
    }

    let params =
        sections.iter().find(|(s, _)| s.kind == "params").ok_or_else(|| ServeError::Manifest {
            line: text.lines().count(),
            offset: 0,
            message: "bundle directory has no params section".into(),
        })?;
    let bundle = load_bundle_file(dir.join(&params.0.rel))?;

    let reader = if sections.iter().any(|(s, _)| s.kind == "graph") {
        Some(StoreReader::open(dir.join(GRAPH_DIR), mode)?)
    } else {
        None
    };
    Ok((bundle, reader))
}

/// Scrub a bundle directory: verify every `BUNDLE` section's size and
/// checksum, then — when graph sections are present — run the store's own
/// block-level scrub over `<dir>/graph` so damage is located to a 64 KiB
/// block, not just a file. Unlike [`load_bundle_dir`] this keeps going after
/// the first problem, so one pass reports *all* damage. `Err` only when
/// `dir` has no `BUNDLE` manifest at all or the directory is unreadable.
pub fn scrub_bundle_dir(dir: impl AsRef<Path>) -> Result<ScrubReport, ServeError> {
    let dir = dir.as_ref();
    let text = std::fs::read_to_string(dir.join(DIR_MANIFEST_NAME))?;
    let mut report = ScrubReport::default();
    let sections = match parse_dir_manifest(&text) {
        Ok(s) => s,
        Err(e) => {
            report.sections.push(ScrubSection {
                file: DIR_MANIFEST_NAME.into(),
                bytes: text.len() as u64,
                blocks_checked: 0,
                error: Some(e.to_string()),
            });
            return Ok(report);
        }
    };
    report.sections.push(ScrubSection {
        file: DIR_MANIFEST_NAME.into(),
        bytes: text.len() as u64,
        blocks_checked: 0,
        error: None,
    });

    let mut has_graph = false;
    for (s, at) in &sections {
        has_graph |= s.kind == "graph";
        let error = match section_path(dir, &s.rel, *at) {
            Ok(path) => verify_section(&path, s),
            Err(e) => Some(e.to_string()),
        };
        report.sections.push(ScrubSection {
            file: s.rel.clone(),
            bytes: s.bytes,
            blocks_checked: 0,
            error,
        });
    }

    // Second, finer-grained pass over the embedded store: per-block
    // checksums narrow any graph damage to its 64 KiB block.
    if has_graph {
        match rmpi_store::scrub_store(dir.join(GRAPH_DIR)) {
            Ok(inner) => report.sections.extend(inner.sections.into_iter().map(|mut sec| {
                sec.file = format!("{GRAPH_DIR}/{}", sec.file);
                sec
            })),
            Err(e) => report.sections.push(ScrubSection {
                file: format!("{GRAPH_DIR}/"),
                bytes: 0,
                blocks_checked: 0,
                error: Some(e.to_string()),
            }),
        }
    }
    Ok(report)
}

/// Size-then-checksum verification of one `BUNDLE` section; `None` = clean.
fn verify_section(path: &Path, s: &Section) -> Option<String> {
    let len = match std::fs::metadata(path) {
        Ok(m) => m.len(),
        Err(e) => return Some(e.to_string()),
    };
    if len != s.bytes {
        return Some(format!("expected {} bytes, found {len}", s.bytes));
    }
    match hash_file(path) {
        Ok(h) if h == s.checksum => None,
        Ok(h) => Some(format!("checksum mismatch: manifest {:016x}, file {h:016x}", s.checksum)),
        Err(e) => Some(e.to_string()),
    }
}

/// FNV-64 of a whole file, streamed.
fn hash_file(path: &Path) -> Result<u64, ServeError> {
    let mut r = BufReader::with_capacity(1 << 16, File::open(path)?);
    let mut hash = Fnv64::new();
    let mut buf = [0u8; 1 << 16];
    loop {
        let n = r.read(&mut buf)?;
        if n == 0 {
            break;
        }
        hash.update(&buf[..n]);
    }
    Ok(hash.finish())
}

/// Position of a manifest line, for error reporting.
#[derive(Clone, Copy)]
struct At {
    line: usize,
    offset: u64,
}

/// Resolve a section's relative path, rejecting anything that could escape
/// the bundle directory (absolute paths, `..`).
fn section_path(dir: &Path, rel: &str, at: At) -> Result<PathBuf, ServeError> {
    let p = Path::new(rel);
    let safe = p.components().all(|c| matches!(c, Component::Normal(_)));
    if !safe || rel.is_empty() {
        return Err(ServeError::Manifest {
            line: at.line,
            offset: at.offset,
            message: format!("unsafe section path {rel:?}"),
        });
    }
    Ok(dir.join(p))
}

/// Parse the `BUNDLE` manifest into sections, each tagged with its line
/// number and byte offset for error reporting.
fn parse_dir_manifest(text: &str) -> Result<Vec<(Section, At)>, ServeError> {
    let err = |at: At, message: String| ServeError::Manifest {
        line: at.line,
        offset: at.offset,
        message,
    };
    let mut offset = 0u64;
    let mut sections = Vec::new();
    let mut saw_magic = false;
    let mut saw_end = false;
    for (i, line) in text.lines().enumerate() {
        let at = At { line: i + 1, offset };
        offset += line.len() as u64 + 1;
        if !saw_magic {
            if line != DIR_MAGIC {
                return Err(err(at, format!("bad header {line:?}")));
            }
            saw_magic = true;
            continue;
        }
        if saw_end {
            return Err(err(at, "content after `end`".into()));
        }
        if line.trim().is_empty() {
            continue;
        }
        if line.trim() == "end" {
            saw_end = true;
            continue;
        }
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("section") => {
                let kind =
                    parts.next().ok_or_else(|| err(at, "section needs a kind".into()))?.to_string();
                if kind != "params" && kind != "graph" {
                    return Err(err(at, format!("unknown section kind {kind:?}")));
                }
                let rel =
                    parts.next().ok_or_else(|| err(at, "section needs a path".into()))?.to_string();
                let bytes = parts
                    .next()
                    .ok_or_else(|| err(at, "section needs a byte count".into()))?
                    .parse::<u64>()
                    .map_err(|e| err(at, format!("bad section byte count: {e}")))?;
                let checksum = parts
                    .next()
                    .and_then(|t| u64::from_str_radix(t, 16).ok())
                    .ok_or_else(|| err(at, "section needs a 16-hex-digit checksum".into()))?;
                if parts.next().is_some() {
                    return Err(err(at, "trailing tokens on section line".into()));
                }
                sections.push((Section { kind, rel, bytes, checksum }, at));
            }
            Some(other) => return Err(err(at, format!("unknown key {other:?}"))),
            None => {}
        }
    }
    if !saw_magic {
        return Err(err(At { line: 1, offset: 0 }, "empty bundle directory manifest".into()));
    }
    if !saw_end {
        return Err(err(
            At { line: text.lines().count(), offset },
            "missing `end` (truncated manifest)".into(),
        ));
    }
    Ok(sections)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmpi_core::RmpiConfig;
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
        let dir = std::env::temp_dir().join(format!("rmpi-bdir-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn model() -> RmpiModel {
        RmpiModel::new(RmpiConfig { dim: 4, ..RmpiConfig::base() }, 4, 7)
    }

    #[test]
    fn roundtrips_with_graph_section() {
        let root = scratch("roundtrip");
        let store_dir = root.join("world.store");
        build_from_graph(
            &store_dir,
            StoreConfig { seg_records: 2, ..StoreConfig::default() },
            &toy_graph(),
        )
        .unwrap();
        let bdir = root.join("model.bundled");
        let names = vec!["a".into(), "b".into(), "c".into(), "d".into()];
        save_bundle_dir(&bdir, &model(), &names, Some(&store_dir)).unwrap();

        let (bundle, reader) = load_bundle_dir(&bdir, ReadMode::default()).unwrap();
        assert_eq!(bundle.relation_names, names);
        assert_eq!(bundle.model.num_relations(), 4);
        let reader = reader.expect("graph sections must open a reader");
        assert_eq!(reader.num_triples(), 4);
        assert_eq!(reader.num_entities(), 4);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn roundtrips_without_graph() {
        let root = scratch("nograph");
        let bdir = root.join("model.bundled");
        save_bundle_dir(&bdir, &model(), &[], None).unwrap();
        let (bundle, reader) = load_bundle_dir(&bdir, ReadMode::default()).unwrap();
        assert_eq!(bundle.model.num_relations(), 4);
        assert!(reader.is_none());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn corrupt_graph_segment_is_rejected_naming_the_file() {
        let root = scratch("corrupt-seg");
        let store_dir = root.join("world.store");
        build_from_graph(&store_dir, StoreConfig::default(), &toy_graph()).unwrap();
        let bdir = root.join("model.bundled");
        save_bundle_dir(&bdir, &model(), &[], Some(&store_dir)).unwrap();

        // flip one byte in the forward segment — size unchanged, so only
        // the checksum can catch it
        let seg = bdir.join(GRAPH_DIR).join("fwd-00000.seg");
        let mut bytes = std::fs::read(&seg).unwrap();
        bytes[0] ^= 0xff;
        std::fs::write(&seg, bytes).unwrap();

        let err = load_bundle_dir(&bdir, ReadMode::default()).unwrap_err();
        match &err {
            ServeError::Checksum { section, expected, actual } => {
                assert_eq!(section, "graph/fwd-00000.seg");
                assert_ne!(expected, actual);
            }
            other => panic!("expected checksum error, got {other}"),
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn corrupt_params_is_rejected_naming_the_file() {
        let root = scratch("corrupt-params");
        let bdir = root.join("model.bundled");
        save_bundle_dir(&bdir, &model(), &[], None).unwrap();

        let path = bdir.join(PARAMS_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 2;
        bytes[last] ^= 0x01;
        std::fs::write(&path, bytes).unwrap();

        let err = load_bundle_dir(&bdir, ReadMode::default()).unwrap_err();
        assert!(
            matches!(&err, ServeError::Checksum { section, .. } if section == PARAMS_FILE),
            "{err}"
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn truncated_section_reports_its_manifest_line() {
        let root = scratch("truncated");
        let store_dir = root.join("world.store");
        build_from_graph(&store_dir, StoreConfig::default(), &toy_graph()).unwrap();
        let bdir = root.join("model.bundled");
        save_bundle_dir(&bdir, &model(), &[], Some(&store_dir)).unwrap();

        let seg = bdir.join(GRAPH_DIR).join("inv-00000.seg");
        let bytes = std::fs::read(&seg).unwrap();
        std::fs::write(&seg, &bytes[..bytes.len() - 1]).unwrap();

        let err = load_bundle_dir(&bdir, ReadMode::default()).unwrap_err();
        match &err {
            ServeError::Manifest { line, message, .. } => {
                assert!(message.contains("inv-00000.seg"), "{message}");
                assert!(*line > 1, "error must carry the section's line, got {line}");
            }
            other => panic!("expected manifest error, got {other}"),
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn rejects_unsafe_section_paths_and_bad_manifests() {
        let root = scratch("hostile");
        let bdir = root.join("model.bundled");
        save_bundle_dir(&bdir, &model(), &[], None).unwrap();

        let manifest = bdir.join(DIR_MANIFEST_NAME);
        let original = std::fs::read_to_string(&manifest).unwrap();

        // path traversal
        let hostile = original.replace(PARAMS_FILE, "../escape");
        std::fs::write(&manifest, &hostile).unwrap();
        let err = load_bundle_dir(&bdir, ReadMode::default()).unwrap_err();
        assert!(err.to_string().contains("unsafe section path"), "{err}");

        // truncation (no `end`)
        std::fs::write(&manifest, original.replace("end\n", "")).unwrap();
        let err = load_bundle_dir(&bdir, ReadMode::default()).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");

        // bad magic
        std::fs::write(&manifest, original.replace("v1", "v9")).unwrap();
        let err = load_bundle_dir(&bdir, ReadMode::default()).unwrap_err();
        assert!(matches!(err, ServeError::Manifest { line: 1, .. }), "{err}");
        std::fs::remove_dir_all(&root).unwrap();
    }
}
