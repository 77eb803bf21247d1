//! Scoped timers: a [`Span`] starts at construction and records its elapsed
//! microseconds into a [`Histogram`] when dropped (or earlier via
//! [`Span::stop`]). The time source is a [`Clock`], so tests drive spans with
//! a manual clock and assert exact durations.

use crate::clock::Clock;
use crate::metrics::Histogram;

/// A guard that measures the scope it lives in. Created by [`Span::enter`]
/// or the `span!` macro; records exactly once, on drop or explicit `stop`.
#[derive(Debug)]
pub struct Span {
    hist: Histogram,
    clock: Clock,
    start_us: u64,
    recorded: bool,
}

impl Span {
    /// Start timing against `hist` using `clock` as the time source.
    pub fn enter(hist: &Histogram, clock: Clock) -> Self {
        let start_us = clock.now_us();
        Span { hist: hist.clone(), clock, start_us, recorded: false }
    }

    /// Microseconds elapsed so far without ending the span.
    fn elapsed_us(&self) -> u64 {
        self.clock.now_us().saturating_sub(self.start_us)
    }

    /// End the span now, record the elapsed time, and return it. Dropping
    /// after `stop` does not record again.
    pub fn stop(mut self) -> u64 {
        let elapsed = self.elapsed_us();
        self.hist.record(elapsed);
        self.recorded = true;
        elapsed
    }

    /// Abandon the span without recording anything (e.g. on an error path
    /// whose timing would pollute the success histogram).
    pub fn cancel(mut self) {
        self.recorded = true;
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.recorded {
            self.hist.record(self.elapsed_us());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn span_records_on_drop_with_manual_clock() {
        let h = Histogram::detached();
        let clock = Clock::manual();
        {
            let _span = Span::enter(&h, clock.clone());
            clock.advance(Duration::from_micros(300));
        }
        let s = h.summary();
        assert_eq!(s.count, 1);
        assert_eq!(s.sum, 300);
        assert_eq!(s.max, 300);
    }

    #[test]
    fn stop_records_once_and_returns_elapsed() {
        let h = Histogram::detached();
        let clock = Clock::manual();
        let span = Span::enter(&h, clock.clone());
        clock.advance(Duration::from_micros(42));
        assert_eq!(span.elapsed_us(), 42);
        assert_eq!(span.stop(), 42);
        assert_eq!(h.summary().count, 1, "drop after stop must not double-record");
    }

    #[test]
    fn cancel_records_nothing() {
        let h = Histogram::detached();
        let clock = Clock::manual();
        let span = Span::enter(&h, clock.clone());
        clock.advance(Duration::from_micros(5));
        span.cancel();
        assert_eq!(h.summary().count, 0);
    }

    #[test]
    fn sequential_spans_accumulate() {
        let h = Histogram::detached();
        let clock = Clock::manual();
        for us in [10u64, 20, 30] {
            let span = Span::enter(&h, clock.clone());
            clock.advance(Duration::from_micros(us));
            span.stop();
        }
        let s = h.summary();
        assert_eq!(s.count, 3);
        assert_eq!(s.sum, 60);
        assert_eq!(s.max, 30);
    }

    #[test]
    fn real_clock_span_records_something() {
        let h = Histogram::detached();
        {
            let _span = Span::enter(&h, Clock::real());
        }
        assert_eq!(h.summary().count, 1);
    }
}
