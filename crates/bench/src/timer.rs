//! Wall-clock measurement loops.
//!
//! Lookup latency is measured the way SOSD does it: a tight loop over a
//! pre-generated query batch, the result of every lookup folded into a
//! checksum (so the optimiser cannot elide the work), repeated several times
//! with the median ns/lookup reported.

use std::hint::black_box;
use std::time::Instant;

/// Default number of measurement repetitions (the median is reported).
pub const DEFAULT_REPEATS: usize = 3;

/// Measure the median nanoseconds per call of `lookup` over `queries`.
///
/// Returns `(ns_per_lookup, checksum)`; the checksum is the sum of all
/// returned positions and is also fed through [`black_box`] so the compiler
/// cannot remove the loop.
pub fn measure_lookups<Q: Copy, F: FnMut(Q) -> usize>(queries: &[Q], mut lookup: F) -> (f64, u64) {
    measure_lookups_with_repeats(queries, DEFAULT_REPEATS, &mut lookup)
}

/// [`measure_lookups`] with an explicit repetition count.
pub fn measure_lookups_with_repeats<Q: Copy, F: FnMut(Q) -> usize>(
    queries: &[Q],
    repeats: usize,
    lookup: &mut F,
) -> (f64, u64) {
    if queries.is_empty() {
        return (0.0, 0);
    }
    let mut times = Vec::with_capacity(repeats.max(1));
    let mut checksum = 0u64;
    for _ in 0..repeats.max(1) {
        let start = Instant::now();
        let mut local = 0u64;
        for &q in queries {
            local = local.wrapping_add(black_box(lookup(black_box(q))) as u64);
        }
        let elapsed = start.elapsed();
        checksum = local;
        times.push(elapsed.as_nanos() as f64 / queries.len() as f64);
    }
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    (times[times.len() / 2], black_box(checksum))
}

/// Measure the median nanoseconds per query of a *batched* lookup routine:
/// `batch(queries, out)` resolves every query in one call (e.g.
/// `RangeIndex::lower_bound_batch`). Returns `(ns_per_lookup, checksum)`
/// where the checksum sums all returned positions.
pub fn measure_lookups_batched<Q: Copy, F: FnMut(&[Q], &mut [usize])>(
    queries: &[Q],
    mut batch: F,
) -> (f64, u64) {
    if queries.is_empty() {
        return (0.0, 0);
    }
    let mut out = vec![0usize; queries.len()];
    let mut times = Vec::with_capacity(DEFAULT_REPEATS);
    let mut checksum = 0u64;
    for _ in 0..DEFAULT_REPEATS {
        let start = Instant::now();
        batch(black_box(queries), black_box(&mut out));
        let elapsed = start.elapsed();
        checksum = out.iter().map(|&p| p as u64).fold(0u64, u64::wrapping_add);
        times.push(elapsed.as_nanos() as f64 / queries.len() as f64);
    }
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    (times[times.len() / 2], black_box(checksum))
}

/// Measure two *batched* lookup routines head-to-head, interleaved
/// (`a, b, a, b, …` for `rounds` rounds) with the **minimum** ns/lookup of
/// each reported.
///
/// Interleaving cancels slow drift (frequency scaling, a noisy neighbour on
/// a shared vCPU) that would otherwise land entirely on whichever routine
/// happened to run second, and the min is the standard robust estimator for
/// a deterministic kernel: every sample is the true cost plus non-negative
/// interference, so the smallest sample is the closest to the truth.
/// Returns `((a_ns, a_checksum), (b_ns, b_checksum))`.
pub fn measure_lookups_batched_pair<Q: Copy, FA, FB>(
    queries: &[Q],
    rounds: usize,
    mut a: FA,
    mut b: FB,
) -> ((f64, u64), (f64, u64))
where
    FA: FnMut(&[Q], &mut [usize]),
    FB: FnMut(&[Q], &mut [usize]),
{
    if queries.is_empty() {
        return ((0.0, 0), (0.0, 0));
    }
    let mut out = vec![0usize; queries.len()];
    let mut best = [(f64::INFINITY, 0u64); 2];
    for _ in 0..rounds.max(1) {
        for (slot, batch) in [
            (0usize, &mut a as &mut dyn FnMut(&[Q], &mut [usize])),
            (1usize, &mut b as &mut dyn FnMut(&[Q], &mut [usize])),
        ] {
            let start = Instant::now();
            batch(black_box(queries), black_box(&mut out));
            let elapsed = start.elapsed();
            let ns = elapsed.as_nanos() as f64 / queries.len() as f64;
            let checksum = out.iter().map(|&p| p as u64).fold(0u64, u64::wrapping_add);
            if ns < best[slot].0 {
                best[slot] = (ns, checksum);
            } else {
                best[slot].1 = checksum;
            }
        }
    }
    (best[0], best[1])
}

/// Measure the wall-clock time of a build closure, returning
/// `(milliseconds, value)`.
pub fn measure_build<T, F: FnOnce() -> T>(build: F) -> (f64, T) {
    let start = Instant::now();
    let value = build();
    let ms = start.elapsed().as_secs_f64() * 1_000.0;
    (ms, black_box(value))
}

/// Latency percentiles of a per-operation sample, in nanoseconds.
///
/// Serving latency is dominated by its tail — a mean hides the p99 stall a
/// rebuild swap or a chain merge causes — so the store's metrics-overhead
/// gate compares the p99 beside the mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentiles {
    /// Median latency.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// 99.9th percentile.
    pub p999: f64,
    /// Number of samples the percentiles were computed from.
    pub count: usize,
}

impl Percentiles {
    /// Compute percentiles from unsorted nanosecond samples. Returns zeros
    /// for an empty sample.
    pub fn from_ns(samples: &mut [u64]) -> Self {
        if samples.is_empty() {
            return Self {
                p50: 0.0,
                p90: 0.0,
                p99: 0.0,
                p999: 0.0,
                count: 0,
            };
        }
        samples.sort_unstable();
        let at = |q: f64| -> f64 {
            let idx = ((samples.len() - 1) as f64 * q).round() as usize;
            samples[idx] as f64
        };
        Self {
            p50: at(0.50),
            p90: at(0.90),
            p99: at(0.99),
            p999: at(0.999),
            count: samples.len(),
        }
    }
}

/// Accumulates per-operation wall-clock samples for percentile reporting.
///
/// The recorder times each closure with one `Instant` pair (~20–40 ns of
/// overhead per op — acceptable for the store's serving path, whose
/// operations cost hundreds of nanoseconds). Pool recorders from several
/// threads with [`LatencyRecorder::absorb`] before computing percentiles.
#[derive(Debug, Clone, Default)]
pub struct LatencyRecorder {
    samples: Vec<u64>,
}

impl LatencyRecorder {
    /// An empty recorder with capacity for `ops` samples.
    pub fn with_capacity(ops: usize) -> Self {
        Self {
            samples: Vec::with_capacity(ops),
        }
    }

    /// Time one operation and record its latency, passing the result
    /// through (wrapped in [`black_box`] so the work cannot be elided).
    #[inline]
    pub fn time<R, F: FnOnce() -> R>(&mut self, op: F) -> R {
        let start = Instant::now();
        let r = black_box(op());
        self.samples.push(start.elapsed().as_nanos() as u64);
        r
    }

    /// Record an externally measured latency.
    #[inline]
    pub fn record_ns(&mut self, ns: u64) {
        self.samples.push(ns);
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Fold another recorder's samples into this one (thread pooling).
    pub fn absorb(&mut self, other: LatencyRecorder) {
        self.samples.extend(other.samples);
    }

    /// Mean latency in nanoseconds (0 for an empty recorder).
    pub fn mean_ns(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<u64>() as f64 / self.samples.len() as f64
    }

    /// Compute the percentile summary (consumes the sample order).
    pub fn percentiles(&mut self) -> Percentiles {
        Percentiles::from_ns(&mut self.samples)
    }
}

/// Mean and standard deviation of a sample.
pub fn mean_and_std(samples: &[f64]) -> (f64, f64) {
    if samples.is_empty() {
        return (0.0, 0.0);
    }
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n;
    (mean, var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_matches_direct_computation() {
        let queries: Vec<u64> = (0..1000).collect();
        let (ns, checksum) = measure_lookups(&queries, |q| (q * 2) as usize);
        let expected: u64 = queries.iter().map(|q| q * 2).sum();
        assert_eq!(checksum, expected);
        assert!(ns >= 0.0);
    }

    #[test]
    fn empty_queries_are_safe() {
        let queries: Vec<u64> = vec![];
        let (ns, checksum) = measure_lookups(&queries, |_| 1);
        assert_eq!(ns, 0.0);
        assert_eq!(checksum, 0);
    }

    #[test]
    fn slower_work_takes_longer() {
        let queries: Vec<u64> = (0..2_000).collect();
        let (fast, _) = measure_lookups(&queries, |q| q as usize);
        let (slow, _) = measure_lookups(&queries, |q| {
            // ~200 iterations of dependent work per call.
            let mut acc = q;
            for _ in 0..200 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            acc as usize
        });
        assert!(slow > fast, "slow {slow} should exceed fast {fast}");
    }

    #[test]
    fn batched_checksum_matches_scalar_checksum() {
        let queries: Vec<u64> = (0..500).collect();
        let (_, scalar) = measure_lookups(&queries, |q| (q * 3) as usize);
        let (_, batched) = measure_lookups_batched(&queries, |qs, out| {
            for (o, &q) in out.iter_mut().zip(qs.iter()) {
                *o = (q * 3) as usize;
            }
        });
        assert_eq!(scalar, batched);
        assert_eq!(measure_lookups_batched::<u64, _>(&[], |_, _| ()), (0.0, 0));
    }

    #[test]
    fn interleaved_pair_returns_both_checksums_and_finite_times() {
        let queries: Vec<u64> = (0..500).collect();
        let ((a_ns, a_sum), (b_ns, b_sum)) = measure_lookups_batched_pair(
            &queries,
            3,
            |qs, out| {
                for (o, &q) in out.iter_mut().zip(qs.iter()) {
                    *o = (q * 3) as usize;
                }
            },
            |qs, out| {
                for (o, &q) in out.iter_mut().zip(qs.iter()) {
                    *o = (q * 3) as usize;
                }
            },
        );
        let expected: u64 = queries.iter().map(|q| q * 3).sum();
        assert_eq!(a_sum, expected);
        assert_eq!(b_sum, expected);
        assert!(a_ns.is_finite() && a_ns >= 0.0);
        assert!(b_ns.is_finite() && b_ns >= 0.0);
        let empty: ((f64, u64), (f64, u64)) =
            measure_lookups_batched_pair::<u64, _, _>(&[], 3, |_, _| (), |_, _| ());
        assert_eq!(empty, ((0.0, 0), (0.0, 0)));
    }

    #[test]
    fn measure_build_returns_the_value() {
        let (ms, v) = measure_build(|| (0..10_000u64).sum::<u64>());
        assert_eq!(v, 49_995_000);
        assert!(ms >= 0.0);
    }

    #[test]
    fn percentiles_pick_the_expected_ranks() {
        let mut samples: Vec<u64> = (1..=1000).collect();
        let p = Percentiles::from_ns(&mut samples);
        assert_eq!(p.count, 1000);
        assert!((p.p50 - 500.0).abs() <= 1.0, "p50 {}", p.p50);
        assert!((p.p90 - 900.0).abs() <= 1.0, "p90 {}", p.p90);
        assert!((p.p99 - 990.0).abs() <= 1.0, "p99 {}", p.p99);
        assert!((p.p999 - 999.0).abs() <= 1.0, "p99.9 {}", p.p999);
        assert!(p.p50 <= p.p90 && p.p90 <= p.p99 && p.p99 <= p.p999);
        let empty = Percentiles::from_ns(&mut []);
        assert_eq!(empty.count, 0);
        assert_eq!(empty.p999, 0.0);
    }

    #[test]
    fn recorder_times_pools_and_summarises() {
        let mut a = LatencyRecorder::with_capacity(8);
        assert!(a.is_empty());
        let v = a.time(|| 21 * 2);
        assert_eq!(v, 42);
        a.record_ns(100);
        let mut b = LatencyRecorder::default();
        b.record_ns(300);
        a.absorb(b);
        assert_eq!(a.len(), 3);
        assert!(a.mean_ns() > 0.0);
        let p = a.percentiles();
        assert_eq!(p.count, 3);
        assert!(p.p999 >= p.p50);
        assert_eq!(LatencyRecorder::default().mean_ns(), 0.0);
    }

    #[test]
    fn mean_and_std_basic() {
        let (m, s) = mean_and_std(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((m - 5.0).abs() < 1e-9);
        assert!((s - 2.0).abs() < 1e-9);
        assert_eq!(mean_and_std(&[]), (0.0, 0.0));
    }
}
