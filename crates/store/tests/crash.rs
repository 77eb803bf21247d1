//! Crash-safety of the store build pipeline: a build interrupted at any
//! armed failpoint — or killed outright mid-publish — must never leave a
//! readable half-store behind. The manifest is the commit point: until it
//! lands, `StoreReader::open` answers `NotAStore`, and rebuilding over the
//! partial directory is idempotent.

use rmpi_kg::Triple;
use rmpi_store::{
    build_from_sorted, scrub_store, ReadMode, StoreConfig, StoreError, StoreReader,
    INDEX_WRITE_FAILPOINT, PUBLISH_FAILPOINT, SEG_CLOSE_FAILPOINT, SEG_WRITE_FAILPOINT,
};
use rmpi_testutil::failpoint::{self, Action};
use std::path::{Path, PathBuf};

/// Child-mode marker: when set, this test binary is being re-executed to
/// run one build that a failpoint will abort mid-flight.
const CHILD_ENV: &str = "RMPI_STORE_CRASH_CHILD";

fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rmpi-store-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn triples(n: u32) -> Vec<Triple> {
    let mut out: Vec<Triple> =
        (0..n).map(|i| Triple::new(i % 50, i % 7, (i * 13 + 1) % 50)).collect();
    out.sort_unstable();
    out
}

/// Build with small segments so every failpoint (segment write, segment
/// close, index write, publish) is actually reachable.
fn build(dir: &Path, n: u32) -> Result<(), StoreError> {
    let cfg = StoreConfig { seg_records: 64, ..StoreConfig::default() };
    build_from_sorted(dir, cfg, triples(n)).map(|_| ())
}

fn assert_not_a_store(dir: &Path) {
    let err = StoreReader::open(dir, ReadMode::Stream { cache_blocks: 2 }).unwrap_err();
    assert!(matches!(err, StoreError::NotAStore(_)), "{err}");
}

fn assert_complete_store(dir: &Path, n: u32) {
    let reader = StoreReader::open(dir, ReadMode::default()).unwrap();
    assert_eq!(reader.num_triples(), n as usize);
    let report = scrub_store(dir).unwrap();
    assert!(report.is_clean(), "{:?}", report.corrupt_sections());
}

#[test]
fn interruption_at_every_failpoint_leaves_no_store_and_rebuild_recovers() {
    let _lock = failpoint::exclusive();
    // (point, after): segment faults fire mid-stream so the partial
    // directory holds closed segments plus a half-written one; the index
    // write and publish fire on their single hit.
    for (i, (point, after)) in [
        (SEG_WRITE_FAILPOINT, 100),
        (SEG_CLOSE_FAILPOINT, 2),
        (INDEX_WRITE_FAILPOINT, 0),
        (PUBLISH_FAILPOINT, 0),
    ]
    .iter()
    .enumerate()
    {
        let dir = temp_store(&format!("fp{i}"));
        // A good store exists first, so a failed rebuild must *revoke* it —
        // surviving stale data would be a silently-wrong store, not a crash.
        build(&dir, 300).unwrap();

        failpoint::arm_after(point, Action::IoError("injected crash".into()), *after);
        let err = build(&dir, 300).unwrap_err();
        failpoint::disarm_all();
        assert!(matches!(err, StoreError::Io(_)), "{point}: {err}");
        assert_not_a_store(&dir);

        // Rebuilding over the partial directory is idempotent.
        build(&dir, 300).unwrap();
        assert_complete_store(&dir, 300);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Re-executed in child mode: run the build that the `abort` failpoint
/// (armed via `RMPI_FAILPOINTS` in the parent) kills mid-flight. The
/// `#[test]` shell is inert in the parent run — it exits immediately when
/// the env marker is absent.
#[test]
fn crash_child_entry() {
    let Ok(dir) = std::env::var(CHILD_ENV) else { return };
    let _ = build(Path::new(&dir), 300);
    // an armed abort must have killed us above; exiting cleanly makes the
    // parent's !status.success() assertion fail, which is the point
}

fn spawn_crash_child(dir: &Path, failpoints: &str) -> std::process::ExitStatus {
    let exe = std::env::current_exe().expect("current_exe");
    std::process::Command::new(exe)
        .args(["crash_child_entry", "--exact", "--nocapture", "--test-threads=1"])
        .env(CHILD_ENV, dir)
        .env("RMPI_FAILPOINTS", failpoints)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("spawn store crash child")
}

#[test]
fn real_process_death_mid_build_leaves_no_store() {
    let _lock = failpoint::exclusive();
    // (failpoint spec, tag): one death just before the manifest publish —
    // the worst case, everything else already durable — and one mid-segment.
    for (spec, tag) in
        [("store::publish=abort", "publish"), ("store::seg_write=abort@100", "segwrite")]
    {
        let dir = temp_store(&format!("kill-{tag}"));
        build(&dir, 300).unwrap();

        let status = spawn_crash_child(&dir, spec);
        assert!(!status.success(), "{tag}: child must die mid-build, got {status}");

        assert_not_a_store(&dir);
        build(&dir, 300).unwrap();
        assert_complete_store(&dir, 300);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
