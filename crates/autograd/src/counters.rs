//! Process-wide kernel traffic counters: floating-point operations issued and
//! bytes moved by the dense kernels in [`crate::kernels`] and
//! [`crate::Tensor`].
//!
//! The bench harness brackets a phase with two [`snapshot`]s and reports
//! achieved FLOP/s and effective bandwidth next to wall-clock numbers, which
//! turns "this phase got faster" into "this phase now moves N bytes per
//! sample". Counting is two relaxed atomic adds per *kernel call* (not per
//! element), so the hot loops are unaffected.
//!
//! Byte counts are *algorithmic* traffic — each operand counted once, output
//! counted read+write for accumulating kernels — not measured cache misses.
//!
//! A third counter, [`param_copies`], counts parameter values copied because
//! a tape still held them when the store was written (the copy-on-write
//! fallback of [`crate::ParamStore`]); a training loop that resets or drops
//! its tapes before stepping keeps it at zero.

use std::sync::atomic::{AtomicU64, Ordering};

static FLOPS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static PARAM_COPIES: AtomicU64 = AtomicU64::new(0);

/// A point-in-time reading of the kernel counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelCounters {
    /// Floating-point operations issued (multiply and add counted separately).
    pub flops: u64,
    /// Algorithmic bytes moved (operands + outputs, `f32` = 4 bytes).
    pub bytes: u64,
}

/// Record one kernel call's traffic.
#[inline]
pub(crate) fn record(flops: u64, bytes: u64) {
    FLOPS.fetch_add(flops, Ordering::Relaxed);
    BYTES.fetch_add(bytes, Ordering::Relaxed);
}

/// Record one parameter value copied on write.
pub(crate) fn record_param_copy() {
    PARAM_COPIES.fetch_add(1, Ordering::Relaxed);
}

/// Parameter values copied on write since process start (never reset).
pub fn param_copies() -> u64 {
    PARAM_COPIES.load(Ordering::Relaxed)
}

/// Current cumulative counters.
pub fn snapshot() -> KernelCounters {
    KernelCounters { flops: FLOPS.load(Ordering::Relaxed), bytes: BYTES.load(Ordering::Relaxed) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates() {
        let before = snapshot();
        record(10, 40);
        record(5, 20);
        let after = snapshot();
        // >= (not ==): parallel tests in this binary also issue kernel calls
        assert!(after.flops >= before.flops + 15, "flops {} -> {}", before.flops, after.flops);
        assert!(after.bytes >= before.bytes + 60, "bytes {} -> {}", before.bytes, after.bytes);
    }
}
