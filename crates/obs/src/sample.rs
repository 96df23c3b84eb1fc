//! 1-in-N sampling and sampled scoped timers.
//!
//! The serving path must stay clocking-free: `Instant::now()` is a `rdtsc`
//! plus a vDSO call and costs more than the store's entire in-cache lookup.
//! A [`Sampler`] decides *whether* to time with one relaxed `fetch_add`
//! (~1ns), and [`SampledTimer`] reads the clock only on the sampled calls,
//! so an unsampled operation pays one atomic increment and one predictable
//! branch — nothing else.
//!
//! Sampled latencies feed a [`Histogram`] unscaled: percentiles of a
//! uniform 1-in-N subsample estimate the population percentiles directly
//! (no count rescaling), which is exactly what the latency readouts want.

use crate::metrics::Histogram;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Deterministic 1-in-N sampler (N rounded up to a power of two).
///
/// Stride sampling, not random: every N-th call is sampled, which is free
/// of rejection loops and unbiased for percentile estimation as long as the
/// instrumented operation count is not phase-locked to N (latency streams
/// never are in practice).
#[derive(Debug)]
pub struct Sampler {
    mask: u64,
    tick: AtomicU64,
}

impl Sampler {
    /// A sampler that fires once every `n` calls, with `n` rounded up to
    /// the next power of two (`n = 0` and `n = 1` both mean "always").
    pub const fn one_in(n: u64) -> Self {
        let mask = if n <= 1 { 0 } else { n.next_power_of_two() - 1 };
        Self {
            mask,
            tick: AtomicU64::new(0),
        }
    }

    /// The effective sampling period (a power of two).
    pub fn period(&self) -> u64 {
        self.mask + 1
    }

    /// Should this call be sampled?
    #[inline]
    pub fn hit(&self) -> bool {
        // lint: ordering(Relaxed) sampling tick — only drives the 1-in-N decision, no sync role
        self.tick.fetch_add(1, Ordering::Relaxed) & self.mask == 0
    }

    /// Start a scoped timer on the sampled calls: reads the clock only when
    /// [`Sampler::hit`] fires.
    #[inline]
    pub fn start(&self) -> SampledTimer {
        SampledTimer {
            start: if self.hit() {
                Some(Instant::now())
            } else {
                None
            },
        }
    }
}

/// A possibly-armed scoped timer returned by [`Sampler::start`].
///
/// Dropping an armed timer without calling [`SampledTimer::finish`] simply
/// discards the sample — there is no implicit record-on-drop, so early
/// returns and error paths never pollute a latency histogram.
#[derive(Debug)]
#[must_use = "an unfinished timer records nothing"]
pub struct SampledTimer {
    start: Option<Instant>,
}

impl SampledTimer {
    /// A timer that is never armed (for the disabled-metrics path).
    #[inline]
    pub const fn disarmed() -> Self {
        Self { start: None }
    }

    /// A timer armed by an external sampling decision: reads the clock now.
    ///
    /// For callers that derive their 1-in-N decision from a counter they
    /// already maintain (see [`Counter::add_get`](crate::Counter::add_get))
    /// instead of paying a dedicated [`Sampler`] tick.
    #[inline]
    pub fn armed_now() -> Self {
        Self {
            start: Some(Instant::now()),
        }
    }

    /// True when this call was sampled and the clock is running.
    #[inline]
    pub fn armed(&self) -> bool {
        self.start.is_some()
    }

    /// Time elapsed since the timer was armed (zero for a disarmed timer) —
    /// for one-off stage timings reported as a value, not a distribution.
    #[inline]
    pub fn elapsed(&self) -> Duration {
        self.start.map_or(Duration::ZERO, |t0| t0.elapsed())
    }

    /// Record the elapsed nanoseconds into `hist` if this call was sampled.
    #[inline]
    pub fn finish(self, hist: &Histogram) {
        if let Some(t0) = self.start {
            let ns = t0.elapsed().as_nanos();
            hist.record(if ns > u64::MAX as u128 {
                u64::MAX
            } else {
                ns as u64
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_in_one_always_fires() {
        let s = Sampler::one_in(1);
        assert_eq!(s.period(), 1);
        for _ in 0..10 {
            assert!(s.hit());
        }
    }

    #[test]
    fn period_rounds_up_and_fires_exactly_once_per_period() {
        let s = Sampler::one_in(6);
        assert_eq!(s.period(), 8);
        let hits = (0..64).filter(|_| s.hit()).count();
        assert_eq!(hits, 8);
    }

    #[test]
    fn sampled_timer_records_only_when_armed() {
        let h = Histogram::new();
        let s = Sampler::one_in(4);
        for _ in 0..16 {
            s.start().finish(&h);
        }
        assert_eq!(h.snapshot().count(), 4);
        SampledTimer::disarmed().finish(&h);
        assert_eq!(h.snapshot().count(), 4);
    }

    #[test]
    fn armed_now_records_without_a_sampler() {
        let h = Histogram::new();
        let t = SampledTimer::armed_now();
        assert!(t.armed());
        t.finish(&h);
        assert_eq!(h.snapshot().count(), 1);
    }

    #[test]
    fn elapsed_is_zero_when_disarmed_and_monotone_when_armed() {
        assert_eq!(SampledTimer::disarmed().elapsed(), Duration::ZERO);
        let t = SampledTimer::armed_now();
        let first = t.elapsed();
        assert!(t.elapsed() >= first);
    }
}
