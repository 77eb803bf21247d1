//! Crash-safe training checkpoints (`rmpi-ckpt v2`).
//!
//! A checkpoint is a **directory** holding everything needed to continue a
//! training run bit-identically:
//!
//! ```text
//! <root>/
//!   LATEST                 # name of the newest complete checkpoint dir
//!   ckpt-000003/           # written at the end of epoch 2 (next_epoch = 3)
//!     manifest.txt         # rmpi-ckpt v2: counters, RNG seed, Adam scalars,
//!                          # one `file` line per tensor file, then the seal
//!     params.ckpt          # live parameters        (rmpi-params v1)
//!     best.ckpt            # best-validation snapshot
//!     adam_m.ckpt          # Adam first moments, named like the parameters
//!     adam_v.ckpt          # Adam second moments
//! ```
//!
//! Durability protocol: every file is written with
//! [`rmpi_autograd::io::atomic_write_bytes`] semantics into a temp directory,
//! the directory is renamed to its final `ckpt-NNNNNN` name (a single atomic
//! step), and only then is `LATEST` atomically rewritten to point at it. A
//! crash at any instant leaves `LATEST` pointing at the previous complete
//! checkpoint; torn state is unreachable.
//!
//! All randomness in the trainer is derived from `(cfg.seed, stream, epoch,
//! position)` via [`rmpi_runtime::mix_seed`], so the RNG "stream state" a
//! resume needs is exactly `seed` + `next_epoch` — both in the manifest. The
//! manifest also pins the Adam learning rate, which resume restores.
//!
//! Integrity: the manifest lists each tensor file as `file <name> <bytes>
//! <xxh64>` and ends with the seal shared with store and bundle manifests
//! ([`rmpi_store::seal`]: `sum <xxh64 of every byte above>`, `end`). Load
//! checks the seal before it reads a key and each tensor file's length and
//! hash before it parses a value, so a flipped bit anywhere — a digit of
//! `adam_lr`, a digit of a weight that still parses as a finite float — is
//! refused with an error naming the file, never resumed from.

use rmpi_autograd::io::{atomic_write_bytes, load_params, save_params, CheckpointError};
use rmpi_autograd::{ParamStore, Tensor};
use rmpi_store::{seal, unseal, xxh64};
use std::path::{Path, PathBuf};

/// Manifest header line.
const MAGIC: &str = "rmpi-ckpt v2";
/// File name of the manifest inside a checkpoint directory.
const MANIFEST: &str = "manifest.txt";
/// The tensor files, in write order: live parameters, the best-validation
/// snapshot, Adam's first and second moments.
const TENSOR_FILES: [&str; 4] = ["params.ckpt", "best.ckpt", "adam_m.ckpt", "adam_v.ckpt"];
/// Name of the pointer file selecting the newest complete checkpoint.
const LATEST: &str = "LATEST";
/// Prefix of checkpoint directory names.
const DIR_PREFIX: &str = "ckpt-";

/// Everything needed to continue a training run bit-identically from an
/// epoch boundary.
#[derive(Clone, Debug)]
pub struct TrainCheckpoint {
    /// First epoch the resumed run should execute (epochs `0..next_epoch`
    /// are complete).
    pub next_epoch: usize,
    /// The `TrainConfig::seed` of the run that wrote this checkpoint; resume
    /// refuses to continue under a different seed.
    pub(crate) seed: u64,
    /// Adam learning rate in effect when the checkpoint was written; resume
    /// restores it.
    pub adam_lr: f32,
    /// Adam step count.
    pub adam_t: u64,
    /// Adam first moments, by parameter index.
    pub adam_m: Vec<Tensor>,
    /// Adam second moments, by parameter index.
    pub adam_v: Vec<Tensor>,
    /// Epoch whose parameters are the best-so-far snapshot.
    pub(crate) best_epoch: usize,
    /// Best validation accuracy seen so far (`-inf` before any validation).
    pub(crate) best_acc: f32,
    /// Epochs since the best accuracy improved (early-stopping state).
    pub(crate) since_best: usize,
    /// Mean margin loss per completed epoch.
    pub(crate) epoch_losses: Vec<f32>,
    /// Validation accuracy per completed epoch.
    pub(crate) valid_accuracy: Vec<f32>,
    /// Batches dropped by the divergence guard so far.
    pub(crate) skipped_batches: usize,
    /// Live parameters at the epoch boundary.
    pub(crate) params: ParamStore,
    /// Best-validation parameter snapshot.
    pub(crate) best_params: ParamStore,
}

fn parse_err(line: usize, message: String) -> CheckpointError {
    CheckpointError::Parse { line, message }
}

/// Pack per-parameter moment tensors into a parameter store named like
/// `params`, padding with zeros for parameters the optimiser has not touched
/// yet (lazily-created parameters right before a checkpoint).
fn moments_to_store(params: &ParamStore, moments: &[Tensor]) -> ParamStore {
    let mut store = ParamStore::new();
    for (i, id) in params.ids().enumerate() {
        let tensor =
            moments.get(i).cloned().unwrap_or_else(|| Tensor::zeros(params.value(id).shape()));
        store.create(params.name(id), tensor);
    }
    store
}

/// Unpack a moment store back into an index-ordered tensor vector, checking
/// that its names mirror `params` exactly.
fn store_to_moments(
    params: &ParamStore,
    store: &ParamStore,
    what: &str,
) -> Result<Vec<Tensor>, CheckpointError> {
    if store.len() != params.len() {
        return Err(parse_err(
            0,
            format!(
                "{what} holds {} tensors but the checkpoint has {} parameters",
                store.len(),
                params.len()
            ),
        ));
    }
    let mut out = Vec::with_capacity(params.len());
    for id in params.ids() {
        let name = params.name(id);
        let mid = store.get(name).ok_or_else(|| {
            parse_err(0, format!("{what} is missing moments for parameter {name:?}"))
        })?;
        out.push(store.value(mid).clone());
    }
    Ok(out)
}

fn render_manifest(ckpt: &TrainCheckpoint) -> String {
    let mut out = String::new();
    out.push_str(MAGIC);
    out.push('\n');
    let mut kv = |k: &str, v: String| {
        out.push_str(k);
        out.push(' ');
        out.push_str(&v);
        out.push('\n');
    };
    kv("next_epoch", ckpt.next_epoch.to_string());
    kv("seed", ckpt.seed.to_string());
    kv("adam_lr", ckpt.adam_lr.to_string());
    kv("adam_t", ckpt.adam_t.to_string());
    kv("best_epoch", ckpt.best_epoch.to_string());
    kv("best_acc", ckpt.best_acc.to_string());
    kv("since_best", ckpt.since_best.to_string());
    kv("skipped_batches", ckpt.skipped_batches.to_string());
    let join = |xs: &[f32]| xs.iter().map(|x| x.to_string()).collect::<Vec<_>>().join(" ");
    kv("epoch_losses", join(&ckpt.epoch_losses));
    kv("valid_accuracy", join(&ckpt.valid_accuracy));
    out
}

/// Write `ckpt` under `root` and flip `LATEST` to it. Returns the final
/// checkpoint directory. Crash-safe: a failure at any point leaves the
/// previous checkpoint (and `LATEST`) fully intact.
pub fn save_checkpoint<P: AsRef<Path>>(
    root: P,
    ckpt: &TrainCheckpoint,
) -> Result<PathBuf, CheckpointError> {
    let root = root.as_ref();
    std::fs::create_dir_all(root)?;
    let tmp = root.join(format!(".tmp-{DIR_PREFIX}{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp)?;
    let adam_m = moments_to_store(&ckpt.params, &ckpt.adam_m);
    let adam_v = moments_to_store(&ckpt.params, &ckpt.adam_v);
    let written = (|| -> Result<(), CheckpointError> {
        let mut manifest = render_manifest(ckpt);
        let stores = [&ckpt.params, &ckpt.best_params, &adam_m, &adam_v];
        for (name, store) in TENSOR_FILES.into_iter().zip(stores) {
            let mut bytes = Vec::new();
            save_params(&mut bytes, store)?;
            atomic_write_bytes(tmp.join(name), &bytes)?;
            manifest.push_str(&format!("file {name} {} {:016x}\n", bytes.len(), xxh64(&bytes)));
        }
        seal(&mut manifest);
        atomic_write_bytes(tmp.join(MANIFEST), manifest.as_bytes())?;
        Ok(())
    })();
    if let Err(e) = written {
        let _ = std::fs::remove_dir_all(&tmp);
        return Err(e);
    }
    let name = format!("{DIR_PREFIX}{:06}", ckpt.next_epoch);
    let target = root.join(&name);
    // replacing an existing same-epoch checkpoint (e.g. a re-run after
    // resume) — LATEST still points somewhere valid throughout
    let _ = std::fs::remove_dir_all(&target);
    if let Err(e) = std::fs::rename(&tmp, &target) {
        let _ = std::fs::remove_dir_all(&tmp);
        return Err(e.into());
    }
    atomic_write_bytes(root.join(LATEST), name.as_bytes())?;
    Ok(target)
}

/// The checkpoint directory `LATEST` points at, or `None` when `root` holds
/// no complete checkpoint yet.
pub fn latest_checkpoint<P: AsRef<Path>>(root: P) -> Result<Option<PathBuf>, CheckpointError> {
    let root = root.as_ref();
    let pointer = root.join(LATEST);
    let name = match std::fs::read_to_string(&pointer) {
        Ok(s) => s.trim().to_owned(),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    if name.is_empty() || name.contains(['/', '\\']) {
        return Err(parse_err(1, format!("LATEST holds an invalid checkpoint name {name:?}")));
    }
    let dir = root.join(&name);
    if !dir.is_dir() {
        return Err(parse_err(1, format!("LATEST points at missing checkpoint {name:?}")));
    }
    Ok(Some(dir))
}

/// Load one checkpoint directory (as returned by [`latest_checkpoint`]).
/// The manifest's seal and every tensor file's length and XXH64 are checked
/// before anything is parsed.
pub fn load_checkpoint<P: AsRef<Path>>(dir: P) -> Result<TrainCheckpoint, CheckpointError> {
    let dir = dir.as_ref();
    let raw = std::fs::read(dir.join(MANIFEST))?;
    let header = raw.split(|&b| b == b'\n').next().unwrap_or_default();
    if header != MAGIC.as_bytes() {
        return Err(CheckpointError::BadMagic(String::from_utf8_lossy(header).into_owned()));
    }
    let in_manifest =
        |line: usize, message: String| parse_err(line, format!("{MANIFEST}: {message}"));
    let body = unseal(&raw).map_err(|(line, message)| in_manifest(line, message))?;
    let body = std::str::from_utf8(body).map_err(|e| in_manifest(0, e.to_string()))?;

    let mut ckpt = TrainCheckpoint {
        next_epoch: 0,
        seed: 0,
        adam_lr: 0.0,
        adam_t: 0,
        adam_m: Vec::new(),
        adam_v: Vec::new(),
        best_epoch: 0,
        best_acc: f32::NEG_INFINITY,
        since_best: 0,
        epoch_losses: Vec::new(),
        valid_accuracy: Vec::new(),
        skipped_batches: 0,
        params: ParamStore::new(),
        best_params: ParamStore::new(),
    };
    // `file` lines: (name, manifest line, bytes, xxh64)
    let mut files: Vec<(&str, usize, usize, u64)> = Vec::new();
    let mut seen_next_epoch = false;
    for (i, line) in body.lines().enumerate().skip(1) {
        let lineno = i + 1;
        if line.trim().is_empty() {
            continue;
        }
        let (key, rest) = line.split_once(' ').unwrap_or((line.trim(), ""));
        let rest = rest.trim();
        macro_rules! scalar {
            ($what:expr) => {
                rest.parse().map_err(|e| parse_err(lineno, format!("bad {}: {e}", $what)))?
            };
        }
        let floats = |what: &str| -> Result<Vec<f32>, CheckpointError> {
            rest.split_whitespace()
                .map(|p| p.parse().map_err(|e| parse_err(lineno, format!("bad {what} value: {e}"))))
                .collect()
        };
        match key {
            "next_epoch" => {
                ckpt.next_epoch = scalar!("next_epoch");
                seen_next_epoch = true;
            }
            "seed" => ckpt.seed = scalar!("seed"),
            "adam_lr" => ckpt.adam_lr = scalar!("adam_lr"),
            "adam_t" => ckpt.adam_t = scalar!("adam_t"),
            "best_epoch" => ckpt.best_epoch = scalar!("best_epoch"),
            "best_acc" => ckpt.best_acc = scalar!("best_acc"),
            "since_best" => ckpt.since_best = scalar!("since_best"),
            "skipped_batches" => ckpt.skipped_batches = scalar!("skipped_batches"),
            "epoch_losses" => ckpt.epoch_losses = floats("epoch_losses")?,
            "valid_accuracy" => ckpt.valid_accuracy = floats("valid_accuracy")?,
            "file" => {
                let mut parts = rest.split_whitespace();
                let (Some(name), Some(bytes), Some(sum), None) =
                    (parts.next(), parts.next(), parts.next(), parts.next())
                else {
                    return Err(parse_err(lineno, "file needs a name, a length and a sum".into()));
                };
                let bytes =
                    bytes.parse().map_err(|e| parse_err(lineno, format!("bad length: {e}")))?;
                let sum = u64::from_str_radix(sum, 16)
                    .map_err(|e| parse_err(lineno, format!("bad sum: {e}")))?;
                files.push((name, lineno, bytes, sum));
            }
            other => return Err(parse_err(lineno, format!("unknown manifest key {other:?}"))),
        }
    }
    if !seen_next_epoch {
        return Err(parse_err(0, "manifest is missing next_epoch".into()));
    }
    if ckpt.epoch_losses.len() != ckpt.next_epoch || ckpt.valid_accuracy.len() != ckpt.next_epoch {
        return Err(parse_err(
            0,
            format!(
                "manifest histories ({} losses, {} accuracies) do not cover {} completed epochs",
                ckpt.epoch_losses.len(),
                ckpt.valid_accuracy.len(),
                ckpt.next_epoch
            ),
        ));
    }
    let load = |name: &str| -> Result<ParamStore, CheckpointError> {
        let &(_, line, len, sum) = files
            .iter()
            .find(|f| f.0 == name)
            .ok_or_else(|| in_manifest(0, format!("no `file {name}` line")))?;
        let bytes = std::fs::read(dir.join(name))?;
        let got = xxh64(&bytes);
        if bytes.len() != len || got != sum {
            return Err(parse_err(
                line,
                format!(
                    "{name} is {} bytes hashing to {got:016x}, the manifest says {len} bytes \
                     hashing to {sum:016x}",
                    bytes.len()
                ),
            ));
        }
        load_params(&bytes[..])
    };
    ckpt.params = load(TENSOR_FILES[0])?;
    ckpt.best_params = load(TENSOR_FILES[1])?;
    ckpt.adam_m = store_to_moments(&ckpt.params, &load(TENSOR_FILES[2])?, TENSOR_FILES[2])?;
    ckpt.adam_v = store_to_moments(&ckpt.params, &load(TENSOR_FILES[3])?, TENSOR_FILES[3])?;
    Ok(ckpt)
}

/// How many checkpoint directories training keeps under its root.
const KEEP_CHECKPOINTS: usize = 2;

/// Delete the oldest complete checkpoints so at most [`KEEP_CHECKPOINTS`]
/// remain (the one `LATEST` points at is never deleted). Best-effort: I/O
/// failures here must never interrupt training.
pub(crate) fn prune_checkpoints(root: &Path) {
    let latest = latest_checkpoint(root).ok().flatten();
    let Ok(entries) = std::fs::read_dir(root) else { return };
    let mut dirs: Vec<PathBuf> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.is_dir()
                && p.file_name().and_then(|n| n.to_str()).is_some_and(|n| n.starts_with(DIR_PREFIX))
        })
        .collect();
    dirs.sort();
    if dirs.len() <= KEEP_CHECKPOINTS {
        return;
    }
    let excess = dirs.len() - KEEP_CHECKPOINTS;
    for dir in dirs.into_iter().take(excess) {
        if Some(&dir) == latest.as_ref() {
            continue;
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rmpi_autograd::init;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rmpi-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_checkpoint() -> TrainCheckpoint {
        let mut rng = StdRng::seed_from_u64(7);
        let mut params = ParamStore::new();
        params.create("w", init::xavier_uniform(&[3, 4], &mut rng));
        params.create("b", init::normal(&[5], 0.3, &mut rng));
        let best_params = params.clone();
        let adam_m: Vec<Tensor> =
            params.ids().map(|id| Tensor::zeros(params.value(id).shape())).collect();
        let mut adam_v = adam_m.clone();
        adam_v[0].data_mut()[0] = 0.25;
        TrainCheckpoint {
            next_epoch: 3,
            seed: 17,
            adam_lr: 5e-4,
            adam_t: 42,
            adam_m,
            adam_v,
            best_epoch: 1,
            best_acc: 0.8125,
            since_best: 1,
            epoch_losses: vec![0.5, 0.375, 0.25],
            valid_accuracy: vec![0.5, 0.8125, 0.75],
            skipped_batches: 2,
            params,
            best_params,
        }
    }

    #[test]
    fn save_load_roundtrip_is_exact() {
        let _lock = rmpi_testutil::failpoint::exclusive();
        let root = tmp_root("rt");
        let ckpt = sample_checkpoint();
        let dir = save_checkpoint(&root, &ckpt).unwrap();
        assert_eq!(latest_checkpoint(&root).unwrap().as_deref(), Some(dir.as_path()));
        let loaded = load_checkpoint(&dir).unwrap();
        assert_eq!(loaded.next_epoch, 3);
        assert_eq!(loaded.seed, 17);
        assert_eq!(loaded.adam_lr, 5e-4);
        assert_eq!(loaded.adam_t, 42);
        assert_eq!(loaded.best_epoch, 1);
        assert_eq!(loaded.best_acc, 0.8125);
        assert_eq!(loaded.since_best, 1);
        assert_eq!(loaded.epoch_losses, ckpt.epoch_losses);
        assert_eq!(loaded.valid_accuracy, ckpt.valid_accuracy);
        assert_eq!(loaded.skipped_batches, 2);
        for (id, lid) in ckpt.params.ids().zip(loaded.params.ids()) {
            assert_eq!(ckpt.params.name(id), loaded.params.name(lid), "parameter order preserved");
            assert_eq!(ckpt.params.value(id), loaded.params.value(lid));
        }
        assert_eq!(loaded.adam_v[0].data()[0], 0.25);
        assert_eq!(loaded.adam_m.len(), 2);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn neg_infinity_best_acc_roundtrips() {
        let _lock = rmpi_testutil::failpoint::exclusive();
        let root = tmp_root("inf");
        let mut ckpt = sample_checkpoint();
        ckpt.best_acc = f32::NEG_INFINITY;
        let dir = save_checkpoint(&root, &ckpt).unwrap();
        assert_eq!(load_checkpoint(dir).unwrap().best_acc, f32::NEG_INFINITY);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn empty_root_has_no_latest() {
        let root = tmp_root("empty");
        assert!(latest_checkpoint(&root).unwrap().is_none());
    }

    #[test]
    fn failed_save_leaves_previous_checkpoint_authoritative() {
        use rmpi_testutil::failpoint::{self, Action};
        let _lock = failpoint::exclusive();
        let root = tmp_root("crash");
        let mut ckpt = sample_checkpoint();
        ckpt.next_epoch = 1;
        ckpt.epoch_losses.truncate(1);
        ckpt.valid_accuracy.truncate(1);
        let first = save_checkpoint(&root, &ckpt).unwrap();

        // crash while writing the *second* file of the next checkpoint
        ckpt.next_epoch = 2;
        ckpt.epoch_losses = vec![0.5, 0.4];
        ckpt.valid_accuracy = vec![0.5, 0.6];
        failpoint::arm_after(
            rmpi_autograd::io::WRITE_FAILPOINT,
            Action::IoError("disk died mid-checkpoint".into()),
            1,
        );
        let err = save_checkpoint(&root, &ckpt).unwrap_err();
        failpoint::disarm_all();
        assert!(err.to_string().contains("disk died"), "{err}");

        // LATEST still points at the complete first checkpoint, which loads
        assert_eq!(latest_checkpoint(&root).unwrap().as_deref(), Some(first.as_path()));
        assert_eq!(load_checkpoint(&first).unwrap().next_epoch, 1);
        // the aborted temp directory is gone
        let leftovers: Vec<_> = std::fs::read_dir(&root)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp-"))
            .collect();
        assert!(leftovers.is_empty(), "aborted temp dirs must be cleaned up");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn prune_keeps_newest_and_latest() {
        let _lock = rmpi_testutil::failpoint::exclusive();
        let root = tmp_root("prune");
        let mut ckpt = sample_checkpoint();
        for epoch in 1..=4 {
            ckpt.next_epoch = epoch;
            ckpt.epoch_losses = vec![0.5; epoch];
            ckpt.valid_accuracy = vec![0.5; epoch];
            save_checkpoint(&root, &ckpt).unwrap();
        }
        prune_checkpoints(&root);
        let mut names: Vec<String> = std::fs::read_dir(&root)
            .unwrap()
            .flatten()
            .filter(|e| e.path().is_dir())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        assert_eq!(names, vec!["ckpt-000003", "ckpt-000004"]);
        assert!(latest_checkpoint(&root).unwrap().unwrap().ends_with("ckpt-000004"));
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// Replace `from` with `to` in a sealed manifest and seal it again, the
    /// way a hand edit would have to in order to reach the key checks.
    fn reseal(text: &str, from: &str, to: &str) -> String {
        let body = std::str::from_utf8(unseal(text.as_bytes()).unwrap()).unwrap();
        let mut edited = body.replace(from, to);
        seal(&mut edited);
        edited
    }

    #[test]
    fn corrupt_manifest_is_rejected_with_line_numbers() {
        let _lock = rmpi_testutil::failpoint::exclusive();
        let root = tmp_root("corrupt");
        let dir = save_checkpoint(&root, &sample_checkpoint()).unwrap();
        let manifest = dir.join("manifest.txt");
        let text = std::fs::read_to_string(&manifest).unwrap();
        std::fs::write(&manifest, reseal(&text, "adam_t 42", "adam_t forty-two")).unwrap();
        let err = load_checkpoint(&dir).unwrap_err();
        assert!(matches!(err, CheckpointError::Parse { .. }), "{err}");
        assert!(err.to_string().contains("adam_t"), "{err}");

        // An unknown key, such as one a different build wrote, names its line.
        std::fs::write(&manifest, reseal(&text, "adam_t 42", "adam_t 42\nrollbacks 0")).unwrap();
        let err = load_checkpoint(&dir).unwrap_err();
        assert!(matches!(err, CheckpointError::Parse { line: 6, .. }), "{err}");
        assert!(err.to_string().contains("unknown manifest key \"rollbacks\""), "{err}");

        std::fs::write(&manifest, "not a manifest\n").unwrap();
        assert!(matches!(load_checkpoint(&dir).unwrap_err(), CheckpointError::BadMagic(_)));

        // an unsealed edit is refused at the seal, naming the manifest file
        std::fs::write(&manifest, text.replace("adam_t 42", "adam_t 43")).unwrap();
        let err = load_checkpoint(&dir).unwrap_err();
        assert!(err.to_string().contains("manifest.txt: manifest self-checksum mismatch"), "{err}");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn one_flipped_bit_in_any_checkpoint_file_is_refused_by_resume() {
        let _lock = rmpi_testutil::failpoint::exclusive();
        let root = tmp_root("flip");
        let dir = save_checkpoint(&root, &sample_checkpoint()).unwrap();
        let resume = || crate::Trainer::new(crate::TrainConfig::default()).resume_latest(&root);
        assert!(resume().is_ok());
        // the digit right after each needle, inside a value: still a finite
        // float after the flip, so only the recorded sums can tell
        for (name, needle) in [
            ("manifest.txt", "adam_lr 0.000"),
            ("params.ckpt", " 0."),
            ("best.ckpt", " 0."),
            ("adam_m.ckpt", "w 2 3 4 "),
            ("adam_v.ckpt", "w 2 3 4 0.2"),
        ] {
            let path = dir.join(name);
            let pristine = std::fs::read(&path).unwrap();
            let text = String::from_utf8(pristine.clone()).unwrap();
            let at = text.find(needle).unwrap() + needle.len();
            assert!(pristine[at].is_ascii_digit(), "{name}: {text}");
            let mut flipped = pristine.clone();
            flipped[at] ^= 1; // one digit to its neighbour: '0' <-> '1', '4' <-> '5'
            std::fs::write(&path, &flipped).unwrap();
            let err = resume().err().unwrap_or_else(|| panic!("{name}: a flipped bit resumed"));
            assert!(err.to_string().contains(name), "{name}: {err}");
            std::fs::write(&path, &pristine).unwrap();
        }
        assert!(resume().is_ok());
        std::fs::remove_dir_all(&root).unwrap();
    }
}
