//! Per-endpoint circuit breaker: consecutive-failure trip, timed cooldown,
//! half-open probe.
//!
//! State machine:
//!
//! ```text
//!            trip_after consecutive failures
//!   Closed ────────────────────────────────────▶ Open { until }
//!     ▲                                            │ cooldown elapses
//!     │ probe succeeds                             ▼
//!     └──────────────────────────────────────── HalfOpen
//!                        probe fails: back to Open (fresh cooldown)
//! ```
//!
//! `Closed` admits traffic and counts consecutive failures (any success
//! resets the count). `Open` rejects without touching the network until its
//! deadline. `HalfOpen` admits exactly one probe — the [`FailoverClient`]
//! sends `HEALTH` — and the probe's outcome decides between `Closed` and a
//! fresh `Open`. Time is passed in by the caller (`Instant::now()` in
//! production), which keeps transitions unit-testable without sleeping.
//!
//! [`FailoverClient`]: crate::FailoverClient

use std::time::{Duration, Instant};

/// Breaker tuning.
#[derive(Clone, Debug)]
pub struct BreakerConfig {
    /// Consecutive failures (no intervening success) that trip the breaker.
    pub trip_after: u32,
    /// How long an open breaker rejects before allowing a half-open probe.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig { trip_after: 3, cooldown: Duration::from_millis(250) }
    }
}

/// Observable breaker state (for metrics, logs and tests).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Admitting traffic.
    Closed,
    /// Rejecting until the cooldown deadline.
    Open,
    /// Admitting one probe.
    HalfOpen,
}

#[derive(Clone, Debug)]
enum Inner {
    Closed { consecutive_failures: u32 },
    Open { until: Instant },
    HalfOpen,
}

/// One endpoint's breaker. Not thread-safe (owned by a `&mut self` client).
#[derive(Clone, Debug)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    inner: Inner,
}

impl CircuitBreaker {
    /// A closed breaker.
    pub fn new(cfg: BreakerConfig) -> Self {
        CircuitBreaker { cfg, inner: Inner::Closed { consecutive_failures: 0 } }
    }

    /// Whether a request may be sent now. An `Open` breaker whose cooldown
    /// has elapsed transitions to `HalfOpen` and admits (the admitted
    /// request is the probe). While a probe is outstanding — the breaker is
    /// already `HalfOpen` — further requests are rejected, so under
    /// concurrent callers exactly one wins the probe slot and the losers
    /// neither trip nor close the breaker.
    pub fn allows(&mut self, now: Instant) -> bool {
        match self.inner {
            Inner::Closed { .. } => true,
            Inner::HalfOpen => false,
            Inner::Open { until } => {
                if now >= until {
                    self.inner = Inner::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Record a successful request (or probe): the breaker closes and the
    /// failure streak resets.
    pub fn record_success(&mut self) {
        self.inner = Inner::Closed { consecutive_failures: 0 };
    }

    /// Record a failed request. Returns `true` when this failure *trips* the
    /// breaker (a Closed→Open or HalfOpen→Open edge) so the caller can count
    /// trip events rather than rejected requests.
    pub fn record_failure(&mut self, now: Instant) -> bool {
        match &mut self.inner {
            Inner::Closed { consecutive_failures } => {
                *consecutive_failures += 1;
                if *consecutive_failures >= self.cfg.trip_after {
                    self.inner = Inner::Open { until: now + self.cfg.cooldown };
                    true
                } else {
                    false
                }
            }
            Inner::HalfOpen => {
                self.inner = Inner::Open { until: now + self.cfg.cooldown };
                true
            }
            // failures reported while already open (e.g. from a request that
            // was in flight when the breaker tripped) extend nothing
            Inner::Open { .. } => false,
        }
    }

    /// When an `Open` breaker will next admit a probe (`None` unless open).
    /// Lets a caller with every endpoint open *wait out* the shortest
    /// cooldown instead of failing fast.
    pub(crate) fn retry_at(&self) -> Option<Instant> {
        match self.inner {
            Inner::Open { until } => Some(until),
            _ => None,
        }
    }

    /// Current state, `Open`'s cooldown evaluated against `now`.
    pub fn state(&self, now: Instant) -> BreakerState {
        match self.inner {
            Inner::Closed { .. } => BreakerState::Closed,
            Inner::HalfOpen => BreakerState::HalfOpen,
            Inner::Open { until } => {
                if now >= until {
                    BreakerState::HalfOpen
                } else {
                    BreakerState::Open
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker(trip_after: u32, cooldown_ms: u64) -> CircuitBreaker {
        CircuitBreaker::new(BreakerConfig {
            trip_after,
            cooldown: Duration::from_millis(cooldown_ms),
        })
    }

    #[test]
    fn trips_after_consecutive_failures_only() {
        let now = Instant::now();
        let mut b = breaker(3, 100);
        assert!(!b.record_failure(now));
        assert!(!b.record_failure(now));
        b.record_success(); // streak broken
        assert!(!b.record_failure(now));
        assert!(!b.record_failure(now));
        assert!(b.record_failure(now), "third consecutive failure trips");
        assert_eq!(b.state(now), BreakerState::Open);
        assert!(!b.allows(now));
    }

    #[test]
    fn cooldown_leads_to_half_open_probe_then_close_or_reopen() {
        let now = Instant::now();
        let mut b = breaker(1, 100);
        assert!(b.record_failure(now));
        assert!(!b.allows(now + Duration::from_millis(50)), "still cooling down");
        let later = now + Duration::from_millis(100);
        assert!(b.allows(later), "cooldown elapsed: one probe admitted");
        assert_eq!(b.state(later), BreakerState::HalfOpen);

        // failed probe: straight back to open with a fresh cooldown
        assert!(b.record_failure(later));
        assert!(!b.allows(later + Duration::from_millis(99)));
        let probe2 = later + Duration::from_millis(100);
        assert!(b.allows(probe2));
        b.record_success();
        assert_eq!(b.state(probe2), BreakerState::Closed);
        assert!(b.allows(probe2));
    }

    /// Satellite of the fleet-router work: under concurrent callers racing
    /// through an elapsed cooldown, exactly one observes the Open→HalfOpen
    /// admission edge; the losers are rejected and — crucially — recording
    /// nothing, they neither trip the breaker back open nor close it. The
    /// thread start order is jittered by a seeded generator so reruns
    /// explore different interleavings deterministically per seed.
    #[test]
    fn half_open_admits_exactly_one_concurrent_probe() {
        use std::sync::{Arc, Barrier, Mutex};

        // SplitMix64 step — enough randomness for per-thread start jitter
        fn mix(seed: u64) -> u64 {
            let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        for seed in [7u64, 11, 13] {
            let cooldown = Duration::from_millis(10);
            let b = Arc::new(Mutex::new(breaker(1, 10)));
            assert!(b.lock().unwrap().record_failure(Instant::now()), "trip");
            std::thread::sleep(cooldown + Duration::from_millis(5));

            let threads = 8;
            let barrier = Arc::new(Barrier::new(threads));
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let b = Arc::clone(&b);
                    let barrier = Arc::clone(&barrier);
                    let jitter = mix(seed.wrapping_add(t as u64)) % 3;
                    std::thread::spawn(move || {
                        barrier.wait();
                        std::thread::sleep(Duration::from_micros(jitter * 50));
                        b.lock().unwrap().allows(Instant::now())
                    })
                })
                .collect();
            let admitted = handles
                .into_iter()
                .map(|h| h.join().expect("probe thread"))
                .filter(|&won| won)
                .count();

            assert_eq!(admitted, 1, "exactly one probe wins (seed {seed})");
            // the losers changed nothing: the breaker still awaits the
            // winner's verdict
            assert_eq!(b.lock().unwrap().state(Instant::now()), BreakerState::HalfOpen);
            assert!(!b.lock().unwrap().allows(Instant::now()), "probe slot stays taken");
            // only the winner's recorded outcome resolves the state
            b.lock().unwrap().record_success();
            assert_eq!(b.lock().unwrap().state(Instant::now()), BreakerState::Closed);
        }
    }

    #[test]
    fn failures_while_open_do_not_extend_the_cooldown() {
        let now = Instant::now();
        let mut b = breaker(1, 100);
        assert!(b.record_failure(now));
        assert!(!b.record_failure(now + Duration::from_millis(90)), "no re-trip while open");
        assert!(b.allows(now + Duration::from_millis(100)), "original deadline stands");
    }
}
