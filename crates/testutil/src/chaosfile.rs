//! A seeded **chaos file**: positioned reads with injected disk faults.
//!
//! [`ChaosFile`] wraps an open [`File`] and disturbs `pread`-style reads the
//! way a failing disk would, mirroring what [`crate::chaos::ChaosProxy`]
//! does for the network:
//!
//! | Fault        | What the reader observes                                  |
//! |--------------|-----------------------------------------------------------|
//! | EIO          | the read fails with an `Other` I/O error                  |
//! | short read   | the read fails with `Interrupted` (a partial `pread`)     |
//! | delay        | the read succeeds after an injected latency               |
//! | bit flip     | the read *succeeds* with one flipped bit — silent         |
//! | truncation   | reads at/past a byte offset fail with `UnexpectedEof`     |
//!
//! EIO, short reads and delays are **transient**: a retry draws a fresh
//! decision and usually goes through. Bit flips are the adversarial case —
//! the call reports success, so only checksum verification above this layer
//! can catch them. Truncation is sticky: the file behaves as if its tail
//! were gone, which is what a crash mid-append leaves behind.
//!
//! Decisions come from a SplitMix64 stream keyed by `(seed, call index)`,
//! so a single-threaded driver sees an identical fault sequence on every
//! run — tests can assert exact invariants instead of probabilities.

use std::fs::File;
use std::io;
use std::os::unix::fs::FileExt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Chaos-file knobs. `transient_rate` is the probability that a read draws
/// a recoverable fault (EIO, short read or delay — a second draw picks
/// which); `corrupt_rate` independently flips one bit in a successful
/// read's buffer.
#[derive(Clone, Copy, Debug)]
pub struct ChaosFileConfig {
    /// Seed for the fault-decision stream.
    pub seed: u64,
    /// Probability in `[0, 1]` that a read fails transiently.
    pub transient_rate: f64,
    /// Probability in `[0, 1]` that a successful read has one bit flipped.
    pub corrupt_rate: f64,
    /// Injected latency for the delay fault.
    pub delay: Duration,
    /// When set, reads touching `[truncate_at, ..)` fail with
    /// `UnexpectedEof`, as if the file ended there.
    pub truncate_at: Option<u64>,
}

impl Default for ChaosFileConfig {
    fn default() -> Self {
        ChaosFileConfig {
            seed: 0,
            transient_rate: 0.0,
            corrupt_rate: 0.0,
            delay: Duration::from_millis(1),
            truncate_at: None,
        }
    }
}

/// A [`File`] whose positioned reads inject seeded faults. See the module
/// docs for the fault matrix.
#[derive(Debug)]
pub struct ChaosFile {
    file: File,
    cfg: ChaosFileConfig,
    calls: AtomicU64,
}

impl ChaosFile {
    /// Wrap an open file with fault injection.
    pub fn wrap(file: File, cfg: ChaosFileConfig) -> ChaosFile {
        ChaosFile { file, cfg, calls: AtomicU64::new(0) }
    }

    /// `pread`-style exact read at `offset`, with fault injection. On `Ok`
    /// the whole buffer is filled — possibly with one flipped bit.
    pub fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        let call = self.calls.fetch_add(1, Ordering::Relaxed);

        if let Some(t) = self.cfg.truncate_at {
            if offset + buf.len() as u64 > t {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("chaosfile: injected truncation at byte {t}"),
                ));
            }
        }

        let mut state = splitmix_seed(self.cfg.seed, call);
        if u01(&mut state) < self.cfg.transient_rate {
            match splitmix(&mut state) % 3 {
                0 => return Err(io::Error::other("chaosfile: injected EIO")),
                1 => {
                    return Err(io::Error::new(
                        io::ErrorKind::Interrupted,
                        "chaosfile: injected short read",
                    ))
                }
                _ => std::thread::sleep(self.cfg.delay),
            }
        }

        self.file.read_exact_at(buf, offset)?;

        if !buf.is_empty() && u01(&mut state) < self.cfg.corrupt_rate {
            let bit = (splitmix(&mut state) % (buf.len() as u64 * 8)) as usize;
            buf[bit / 8] ^= 1 << (bit % 8);
        }
        Ok(())
    }
}

/// SplitMix64 step.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A decision stream keyed by `(seed, call)` — call order alone determines
/// the fault sequence.
fn splitmix_seed(seed: u64, call: u64) -> u64 {
    let mut s = seed ^ call.wrapping_mul(0x2545_f491_4f6c_dd1d);
    // one warm-up step decorrelates adjacent call indices
    splitmix(&mut s);
    s
}

/// Uniform draw in `[0, 1)`.
fn u01(state: &mut u64) -> f64 {
    (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn scratch_file(tag: &str, bytes: &[u8]) -> (std::path::PathBuf, File) {
        let path =
            std::env::temp_dir().join(format!("rmpi-chaosfile-{tag}-{}", std::process::id()));
        let mut f = File::create(&path).unwrap();
        f.write_all(bytes).unwrap();
        (path.clone(), File::open(&path).unwrap())
    }

    #[test]
    fn clean_config_reads_faithfully() {
        let data: Vec<u8> = (0..=255).collect();
        let (path, f) = scratch_file("clean", &data);
        let cf = ChaosFile::wrap(f, ChaosFileConfig::default());
        let mut buf = [0u8; 16];
        cf.read_exact_at(&mut buf, 32).unwrap();
        assert_eq!(&buf[..], &data[32..48]);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn fault_sequence_is_deterministic_per_seed() {
        let data = vec![7u8; 4096];
        let run = |seed: u64| -> Vec<bool> {
            let (path, f) = scratch_file(&format!("det-{seed}"), &data);
            let cf = ChaosFile::wrap(
                f,
                ChaosFileConfig { seed, transient_rate: 0.5, ..Default::default() },
            );
            let mut outcomes = Vec::new();
            let mut buf = [0u8; 64];
            for i in 0..64u64 {
                outcomes.push(cf.read_exact_at(&mut buf, i * 64).is_ok());
            }
            let _ = std::fs::remove_file(path);
            outcomes
        };
        assert_eq!(run(3), run(3), "same seed, same fault sequence");
        assert_ne!(run(3), run(4), "different seeds should diverge");
        assert!(run(3).iter().any(|ok| !ok), "at 50% some reads must fault");
        assert!(run(3).iter().any(|ok| *ok), "at 50% some reads must pass");
    }

    #[test]
    fn bit_flips_report_success_with_damaged_bytes() {
        let data = vec![0u8; 1024];
        let (path, f) = scratch_file("flip", &data);
        let cf = ChaosFile::wrap(
            f,
            ChaosFileConfig { seed: 11, corrupt_rate: 1.0, ..Default::default() },
        );
        let mut buf = [0u8; 128];
        cf.read_exact_at(&mut buf, 0).unwrap();
        assert_eq!(buf.iter().map(|b| b.count_ones()).sum::<u32>(), 1, "exactly one bit flipped");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn truncation_fails_only_reads_past_the_cut() {
        let data = vec![9u8; 256];
        let (path, f) = scratch_file("trunc", &data);
        let cf = ChaosFile::wrap(
            f,
            ChaosFileConfig { seed: 0, truncate_at: Some(128), ..Default::default() },
        );
        let mut buf = [0u8; 64];
        cf.read_exact_at(&mut buf, 0).unwrap();
        let err = cf.read_exact_at(&mut buf, 100).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        let _ = std::fs::remove_file(path);
    }
}
