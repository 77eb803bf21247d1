//! Deterministic seeded exponential backoff with downward jitter.
//!
//! Delay for attempt *n* (0-based) is
//! `min(max, base · 2^n) · (1 − jitter · u)` with `u ∈ [0, 1)`
//! drawn from a seeded SplitMix64 stream. Jitter is *downward only*: the
//! configured ceiling is a hard bound (useful for test determinism and for
//! reasoning about worst-case latency), while the randomness still
//! de-synchronises clients that failed in the same instant. A fixed seed
//! reproduces the exact delay sequence, which the chaos soak test relies on.

use std::time::Duration;

/// Tiny deterministic generator (SplitMix64): one u64 of state, passes
/// statistical muster for jitter purposes, no dependencies.
#[derive(Clone, Debug)]
pub(crate) struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub(crate) fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Growth factor of the delay per attempt.
const MULTIPLIER: f64 = 2.0;

/// Backoff shape. The defaults suit an in-process or same-host replica set:
/// first retry after ≤10 ms, doubling to a 500 ms ceiling.
#[derive(Clone, Debug)]
pub struct BackoffConfig {
    /// Delay before the first retry (pre-jitter).
    pub base: Duration,
    /// Hard ceiling on any single delay.
    pub max: Duration,
    /// Fraction of the delay that jitter may remove, in `[0, 1]`.
    pub jitter: f64,
    /// Seed for the jitter stream; a fixed seed fixes every delay.
    pub seed: u64,
}

impl Default for BackoffConfig {
    fn default() -> Self {
        BackoffConfig {
            base: Duration::from_millis(10),
            max: Duration::from_millis(500),
            jitter: 0.5,
            seed: 0,
        }
    }
}

/// Stateful delay sequence: one [`next_delay`](Backoff::next_delay) per
/// retry, [`reset`](Backoff::reset) after a success.
#[derive(Clone, Debug)]
pub(crate) struct Backoff {
    cfg: BackoffConfig,
    rng: SplitMix64,
    attempt: u32,
}

impl Backoff {
    /// A fresh sequence at attempt 0.
    pub(crate) fn new(cfg: BackoffConfig) -> Self {
        let rng = SplitMix64::new(cfg.seed);
        Backoff { cfg, rng, attempt: 0 }
    }

    /// The delay to sleep before the next retry; advances the attempt
    /// counter and the jitter stream.
    pub(crate) fn next_delay(&mut self) -> Duration {
        let exp = MULTIPLIER.powi(self.attempt.min(30) as i32);
        let raw = self.cfg.base.as_secs_f64() * exp;
        let capped = raw.min(self.cfg.max.as_secs_f64());
        let u = self.rng.next_f64();
        let jittered = capped * (1.0 - self.cfg.jitter.clamp(0.0, 1.0) * u);
        self.attempt = self.attempt.saturating_add(1);
        Duration::from_secs_f64(jittered.max(0.0))
    }

    /// Back to attempt 0 (the jitter stream keeps advancing, by design —
    /// resetting it would re-correlate clients after every success).
    pub(crate) fn reset(&mut self) {
        self.attempt = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_delays() {
        let cfg = BackoffConfig::default();
        let mut a = Backoff::new(cfg.clone());
        let mut b = Backoff::new(cfg);
        for _ in 0..16 {
            assert_eq!(a.next_delay(), b.next_delay());
        }
    }

    #[test]
    fn delays_grow_to_the_cap_and_respect_jitter_bounds() {
        let cfg = BackoffConfig {
            base: Duration::from_millis(10),
            max: Duration::from_millis(100),
            jitter: 0.5,
            seed: 7,
        };
        let mut backoff = Backoff::new(cfg);
        let mut prev_ceiling = 0.0f64;
        for attempt in 0..10 {
            let d = backoff.next_delay().as_secs_f64();
            let ceiling = (0.010 * 2.0f64.powi(attempt)).min(0.100);
            assert!(d <= ceiling + 1e-9, "attempt {attempt}: {d} > {ceiling}");
            assert!(d >= ceiling * 0.5 - 1e-9, "attempt {attempt}: {d} < half of {ceiling}");
            assert!(ceiling >= prev_ceiling);
            prev_ceiling = ceiling;
        }
    }

    #[test]
    fn reset_restarts_the_exponent_but_not_the_stream() {
        let mut backoff = Backoff::new(BackoffConfig { jitter: 0.0, ..BackoffConfig::default() });
        let first = backoff.next_delay();
        let _ = backoff.next_delay();
        backoff.reset();
        assert_eq!(backoff.next_delay(), first, "zero jitter: attempt-0 delay is deterministic");
    }

    #[test]
    fn splitmix_is_uniformish() {
        let mut rng = SplitMix64::new(42);
        let mean: f64 = (0..4096).map(|_| rng.next_f64()).sum::<f64>() / 4096.0;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean}");
    }
}
