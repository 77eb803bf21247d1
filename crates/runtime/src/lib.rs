//! Dependency-free data-parallel execution layer.
//!
//! RMPI's subgraph-per-triple design makes every hot loop — gradient
//! accumulation over a minibatch, candidate scoring during ranking, subgraph
//! extraction fan-out — embarrassingly parallel across samples. This crate
//! supplies the one substrate they all share:
//!
//! * [`ThreadPool`] — a scoped worker pool (`std::thread::scope`, no
//!   dependencies) with *static contiguous sharding*: item `i` of `n` always
//!   lands on the same shard for a given worker count, and results come back
//!   in index order;
//! * [`mix_seed`] — splitmix64-style seed derivation, so each sample owns an
//!   RNG keyed by `(seed, stream, index)` rather than by arrival order. Any
//!   work schedule — one thread or sixteen — draws identical random streams
//!   per sample, which is what makes parallel training *bit-identical* to
//!   sequential training (see `DESIGN.md`, "Threading model");
//! * [`threads_from_env`] — the `RMPI_THREADS` knob used by the experiment
//!   binaries.

#![warn(missing_docs)]

pub mod pool;
pub(crate) mod scratch;

pub use pool::{panic_message, PoolError, ThreadPool};
pub use scratch::with_scratch;

/// Resolve a thread-count knob: `0` means one worker per available core.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        threads
    }
}

/// Read the `RMPI_THREADS` environment knob (unset or unparsable = 1 thread,
/// `0` = all cores).
pub fn threads_from_env() -> usize {
    std::env::var("RMPI_THREADS").ok().and_then(|v| v.trim().parse().ok()).unwrap_or(1)
}

/// Derive an independent 64-bit seed from `(seed, stream, index)`.
///
/// `stream` separates uses (negative sampling vs. validation vs. epoch
/// shuffling); `index` is the per-sample position. The splitmix64 finaliser
/// decorrelates consecutive indices, so neighbouring samples do not share
/// low-bit structure.
pub fn mix_seed(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_zero_uses_cores() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn mixed_seeds_differ_across_all_axes() {
        let base = mix_seed(7, 1, 0);
        assert_ne!(base, mix_seed(8, 1, 0), "seed axis");
        assert_ne!(base, mix_seed(7, 2, 0), "stream axis");
        assert_ne!(base, mix_seed(7, 1, 1), "index axis");
        assert_eq!(base, mix_seed(7, 1, 0), "deterministic");
    }

    #[test]
    fn mixed_seeds_have_no_obvious_collisions() {
        let mut seen = std::collections::HashSet::new();
        for stream in 0..4u64 {
            for i in 0..1000u64 {
                assert!(seen.insert(mix_seed(42, stream, i)), "collision at ({stream}, {i})");
            }
        }
    }
}
