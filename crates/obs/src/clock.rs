//! A time source that is either the machine's monotonic clock or a manually
//! advanced counter — the latter makes span timing deterministic in tests.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Microsecond clock. [`Clock::real`] reads the monotonic clock relative to
/// the clock's creation; [`Clock::manual`] only moves when told to via
/// [`Clock::advance`]. Cloning shares the underlying time source, so a span
/// holding a clone of a manual clock sees the test's `advance` calls.
#[derive(Clone, Debug)]
pub struct Clock {
    inner: Inner,
}

#[derive(Clone, Debug)]
enum Inner {
    Real(Instant),
    Manual(Arc<AtomicU64>),
}

impl Clock {
    /// The monotonic wall clock, zeroed at creation.
    pub fn real() -> Self {
        Clock { inner: Inner::Real(Instant::now()) }
    }

    /// A clock that starts at 0 µs and only moves via [`Clock::advance`].
    pub fn manual() -> Self {
        Clock { inner: Inner::Manual(Arc::new(AtomicU64::new(0))) }
    }

    /// Microseconds since the clock's origin.
    pub fn now_us(&self) -> u64 {
        match &self.inner {
            Inner::Real(origin) => origin.elapsed().as_micros().min(u64::MAX as u128) as u64,
            Inner::Manual(t) => t.load(Ordering::Relaxed),
        }
    }

    /// Move a manual clock forward by `d`. Panics on a real clock — tests
    /// that advance time must construct the clock with [`Clock::manual`].
    pub fn advance(&self, d: Duration) {
        match &self.inner {
            Inner::Manual(t) => {
                t.fetch_add(d.as_micros().min(u64::MAX as u128) as u64, Ordering::Relaxed);
            }
            Inner::Real(_) => panic!("Clock::advance is only meaningful on a manual clock"),
        }
    }
}

impl Default for Clock {
    fn default() -> Self {
        Clock::real()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_clock_is_monotone() {
        let c = Clock::real();
        let a = c.now_us();
        let b = c.now_us();
        assert!(b >= a);
    }

    #[test]
    fn manual_clock_moves_only_on_advance() {
        let c = Clock::manual();
        assert_eq!(c.now_us(), 0);
        c.advance(Duration::from_micros(250));
        assert_eq!(c.now_us(), 250);
        // clones share the time source
        let shared = c.clone();
        shared.advance(Duration::from_millis(1));
        assert_eq!(c.now_us(), 1250);
    }

    #[test]
    #[should_panic(expected = "manual clock")]
    fn advancing_a_real_clock_panics() {
        Clock::real().advance(Duration::from_micros(1));
    }
}
