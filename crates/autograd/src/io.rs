//! Parameter persistence: a plain-text checkpoint format for [`ParamStore`].
//!
//! Format (line-oriented, UTF-8):
//!
//! ```text
//! rmpi-params v1
//! <name> <rank> <dim...> <value value ...>
//! ```
//!
//! Values are written with full `f32` round-trip precision via the Ryu-style
//! shortest representation Rust's formatter provides, so save → load is
//! bit-exact.
//!
//! Loading is strict: duplicate parameter names, non-finite values (a NaN or
//! Inf weight means the checkpoint is corrupt — nothing downstream can score
//! with it) and shape/value-count mismatches are all rejected with the
//! offending line number.
//!
//! Files are written **crash-safely** with [`atomic_write_bytes`]: the bytes
//! go to a temp file in the target's directory, are fsynced, and are
//! atomically renamed over the destination — so a failure or kill mid-write
//! can never leave a truncated checkpoint behind; the previous file, if any,
//! survives untouched.

use crate::params::ParamStore;
use crate::tensor::Tensor;
use std::fmt;
use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};

/// Checkpoint header line.
const MAGIC: &str = "rmpi-params v1";

/// Errors from checkpoint parsing.
#[derive(Debug)]
pub enum CheckpointError {
    /// Header line missing or wrong version.
    BadMagic(String),
    /// A malformed record line.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// Underlying I/O failure.
    Io(std::io::Error),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::BadMagic(got) => write!(f, "bad checkpoint header {got:?}"),
            CheckpointError::Parse { line, message } => {
                write!(f, "checkpoint parse error at line {line}: {message}")
            }
            CheckpointError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Serialise every parameter (values only; gradients are transient).
pub fn save_params<W: Write>(w: &mut W, store: &ParamStore) -> Result<(), CheckpointError> {
    writeln!(w, "{MAGIC}")?;
    for id in store.ids() {
        let t = store.value(id);
        write!(w, "{} {}", store.name(id), t.shape().len())?;
        for d in t.shape() {
            write!(w, " {d}")?;
        }
        for v in t.data() {
            write!(w, " {v}")?;
        }
        writeln!(w)?;
    }
    Ok(())
}

/// Failpoint name consulted by [`atomic_write_bytes`] while the temp file is
/// being written — arm it with `io_error` or `truncate(n)` to simulate a
/// crash mid-checkpoint.
pub const WRITE_FAILPOINT: &str = "io::atomic_write";

/// Write `bytes` to `path` atomically: the data goes to a temp file in the
/// same directory, is flushed and fsynced, and only then renamed over the
/// destination (followed by a directory fsync where the platform supports
/// it). On any failure the destination is untouched and the temp file is
/// removed — readers never observe a partial file.
pub fn atomic_write_bytes<P: AsRef<Path>>(path: P, bytes: &[u8]) -> std::io::Result<()> {
    let path = path.as_ref();
    let file_name = path.file_name().ok_or_else(|| {
        std::io::Error::other(format!("path {} has no file name", path.display()))
    })?;
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let tmp = parent.join(format!(".{}.tmp-{}", file_name.to_string_lossy(), std::process::id()));
    let written = (|| -> std::io::Result<()> {
        let mut f = std::fs::File::create(&tmp)?;
        if let Some(n) = rmpi_testutil::failpoint::fs_write(WRITE_FAILPOINT)? {
            // simulate a crash mid-write: part of the payload lands in the
            // temp file, then the write "dies"
            f.write_all(&bytes[..n.min(bytes.len())])?;
            return Err(std::io::Error::new(
                std::io::ErrorKind::WriteZero,
                format!("failpoint {WRITE_FAILPOINT}: write truncated at {n} bytes"),
            ));
        }
        f.write_all(bytes)?;
        f.sync_all()?;
        Ok(())
    })()
    .and_then(|()| std::fs::rename(&tmp, path));
    match written {
        Ok(()) => {
            // persist the rename itself; the write still succeeded if this
            // fails (not all platforms allow fsync on a directory handle),
            // but the failure is counted and logged rather than swallowed
            match std::fs::File::open(&parent).and_then(|dir| dir.sync_all()) {
                Ok(()) => {}
                Err(e) => rmpi_obs::note_dir_fsync_failure(&parent, &e),
            }
            Ok(())
        }
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// Parse a checkpoint into a fresh store (creation order = file order).
pub fn load_params<R: BufRead>(r: R) -> Result<ParamStore, CheckpointError> {
    let mut lines = r.lines();
    let header = lines.next().transpose()?.unwrap_or_default();
    if header != MAGIC {
        return Err(CheckpointError::BadMagic(header));
    }
    let mut store = ParamStore::new();
    for (i, line) in lines.enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let lineno = i + 2;
        let mut parts = line.split_whitespace();
        let err = |message: String| CheckpointError::Parse { line: lineno, message };
        let name = parts.next().ok_or_else(|| err("missing name".into()))?;
        if store.get(name).is_some() {
            return Err(err(format!("duplicate parameter {name:?}")));
        }
        let rank: usize = parts
            .next()
            .ok_or_else(|| err("missing rank".into()))?
            .parse()
            .map_err(|e| err(format!("bad rank: {e}")))?;
        if !(1..=2).contains(&rank) {
            return Err(err(format!("unsupported rank {rank}")));
        }
        let mut shape = Vec::with_capacity(rank);
        for _ in 0..rank {
            let d: usize = parts
                .next()
                .ok_or_else(|| err("missing dimension".into()))?
                .parse()
                .map_err(|e| err(format!("bad dimension: {e}")))?;
            shape.push(d);
        }
        let expect: usize = shape.iter().product();
        let mut data = Vec::with_capacity(expect);
        for p in parts {
            let v = p.parse::<f32>().map_err(|e| err(format!("bad value: {e}")))?;
            if !v.is_finite() {
                return Err(err(format!("non-finite value {v} in parameter {name:?}")));
            }
            data.push(v);
        }
        if data.len() != expect {
            return Err(err(format!("expected {expect} values, got {}", data.len())));
        }
        let tensor = match rank {
            1 => Tensor::vector(data),
            _ => Tensor::matrix(shape[0], shape[1], data),
        };
        store.create(name, tensor);
    }
    Ok(store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;
    use rand::SeedableRng;
    use std::io::Cursor;

    #[test]
    fn roundtrip_is_exact() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        store.create("w", init::xavier_uniform(&[3, 4], &mut rng));
        store.create("b", init::normal(&[7], 0.5, &mut rng));
        let mut buf = Vec::new();
        save_params(&mut buf, &store).unwrap();
        let loaded = load_params(Cursor::new(&buf)).unwrap();
        assert_eq!(loaded.len(), 2);
        for id in store.ids() {
            let lid = loaded.get(store.name(id)).expect("name preserved");
            assert_eq!(loaded.value(lid), store.value(id), "param {} drifted", store.name(id));
        }
    }

    #[test]
    fn preserves_creation_order() {
        let mut store = ParamStore::new();
        store.create("z_last", Tensor::scalar(1.0));
        store.create("a_first", Tensor::scalar(2.0));
        let mut buf = Vec::new();
        save_params(&mut buf, &store).unwrap();
        let loaded = load_params(Cursor::new(&buf)).unwrap();
        let names: Vec<&str> = loaded.ids().map(|id| loaded.name(id)).collect();
        assert_eq!(names, vec!["z_last", "a_first"]);
    }

    #[test]
    fn rejects_bad_header() {
        let err = load_params(Cursor::new("wrong v9\n")).unwrap_err();
        assert!(matches!(err, CheckpointError::BadMagic(_)));
    }

    #[test]
    fn rejects_truncated_record() {
        let input = format!("{MAGIC}\nw 2 3 4 1.0 2.0\n");
        let err = load_params(Cursor::new(input)).unwrap_err();
        match err {
            CheckpointError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn rejects_unsupported_rank() {
        let input = format!("{MAGIC}\nw 3 1 1 1 0.0\n");
        assert!(load_params(Cursor::new(input)).is_err());
    }

    #[test]
    fn io_error_exposes_source() {
        let underlying = std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "cut short");
        let err = CheckpointError::from(underlying);
        let source = std::error::Error::source(&err).expect("Io variant must carry its cause");
        assert!(source.to_string().contains("cut short"));
        let parse = CheckpointError::Parse { line: 1, message: "x".into() };
        assert!(std::error::Error::source(&parse).is_none());
    }

    #[test]
    fn rejects_duplicate_parameter_names() {
        let input = format!("{MAGIC}\nw 1 1 0.5\nw 1 1 0.25\n");
        let err = load_params(Cursor::new(input)).unwrap_err();
        match err {
            CheckpointError::Parse { line, message } => {
                assert_eq!(line, 3);
                assert!(message.contains("duplicate"), "message: {message}");
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn rejects_non_finite_values() {
        for bad in ["NaN", "inf", "-inf"] {
            let input = format!("{MAGIC}\nw 1 2 1.0 {bad}\n");
            let err = load_params(Cursor::new(input)).unwrap_err();
            match err {
                CheckpointError::Parse { line, message } => {
                    assert_eq!(line, 2);
                    assert!(message.contains("non-finite"), "{bad}: {message}");
                }
                other => panic!("unexpected {other}"),
            }
        }
    }

    #[test]
    fn rejects_value_count_mismatch() {
        // too many values is as corrupt as too few
        let input = format!("{MAGIC}\nw 1 2 1.0 2.0 3.0\n");
        assert!(load_params(Cursor::new(input)).is_err());
    }

    fn save_file(path: &Path, store: &ParamStore) -> Result<(), CheckpointError> {
        let mut buf = Vec::new();
        save_params(&mut buf, store)?;
        atomic_write_bytes(path, &buf)?;
        Ok(())
    }

    fn load_file(path: &Path) -> Result<ParamStore, CheckpointError> {
        load_params(std::io::BufReader::new(std::fs::File::open(path)?))
    }

    #[test]
    fn file_roundtrip_via_atomic_write() {
        let _lock = rmpi_testutil::failpoint::exclusive();
        let dir = std::env::temp_dir().join(format!("rmpi-io-at-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("params.ckpt");
        let mut store = ParamStore::new();
        store.create("w", Tensor::vector(vec![1.0, -2.5, 0.125]));
        save_file(&path, &store).unwrap();
        let loaded = load_file(&path).unwrap();
        assert_eq!(loaded.value(loaded.get("w").unwrap()).data(), &[1.0, -2.5, 0.125]);
        // no temp litter left behind
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_write_leaves_original_untouched() {
        use rmpi_testutil::failpoint::{self, Action};
        let _lock = failpoint::exclusive();
        let dir = std::env::temp_dir().join(format!("rmpi-io-fp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("params.ckpt");
        let mut store = ParamStore::new();
        store.create("w", Tensor::vector(vec![3.0, 4.0]));
        save_file(&path, &store).unwrap();
        let original = std::fs::read(&path).unwrap();

        let mut bigger = ParamStore::new();
        bigger.create("w", Tensor::vector(vec![9.0; 64]));
        for action in [Action::IoError("disk full".into()), Action::Truncate(10)] {
            failpoint::arm(WRITE_FAILPOINT, action);
            let err = save_file(&path, &bigger).unwrap_err();
            failpoint::disarm(WRITE_FAILPOINT);
            assert!(matches!(err, CheckpointError::Io(_)), "{err}");
            assert_eq!(
                std::fs::read(&path).unwrap(),
                original,
                "a failed save must leave the previous checkpoint byte-identical"
            );
            // and the aborted temp file is cleaned up
            assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
            // the surviving file still parses
            assert!(load_file(&path).is_ok());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn adam_state_roundtrips_through_export() {
        use crate::optim::Adam;
        let mut store = ParamStore::new();
        let w = store.create("w", Tensor::vector(vec![1.0, 2.0]));
        let mut adam = Adam::new(0.01);
        store.accumulate_grad(w, &Tensor::vector(vec![0.5, -0.5]));
        adam.step(&mut store);
        let state = adam.export_state();
        assert_eq!(state.t, 1);

        // continue one branch with the live optimiser and another with a
        // fresh optimiser restored from the snapshot: same gradients in,
        // identical parameters out
        let mut live = store.clone();
        let mut restored = store.clone();
        let mut adam2 = Adam::new(0.01);
        adam2.restore_state(state);
        live.accumulate_grad(w, &Tensor::vector(vec![0.25, 0.75]));
        restored.accumulate_grad(w, &Tensor::vector(vec![0.25, 0.75]));
        adam.step(&mut live);
        adam2.step(&mut restored);
        assert_eq!(
            live.value(w).data(),
            restored.value(w).data(),
            "a restored optimiser must continue bit-identically"
        );
    }

    #[test]
    fn special_values_roundtrip() {
        let mut store = ParamStore::new();
        store.create("edge", Tensor::vector(vec![f32::MIN_POSITIVE, -0.0, 1e30, -1e-30]));
        let mut buf = Vec::new();
        save_params(&mut buf, &store).unwrap();
        let loaded = load_params(Cursor::new(&buf)).unwrap();
        let lid = loaded.get("edge").unwrap();
        assert_eq!(loaded.value(lid).data(), store.value(store.get("edge").unwrap()).data());
    }
}
