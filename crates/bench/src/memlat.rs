//! Memory-latency micro-benchmarks.
//!
//! The paper calibrates its setup with the Intel Memory Latency Checker
//! ("the LLC miss penalty is 36 ns, which is the minimum lookup time of an
//! ideal index") and with the error-to-latency curve of Figure 2a. Neither
//! tool is available here, so this module measures the same two quantities
//! directly:
//!
//! * [`dram_latency_ns`] — a dependent pointer chase through a buffer much
//!   larger than the LLC; every hop is a cache miss, so the ns/hop is the
//!   DRAM load-to-use latency,
//! * [`error_latency_curve`] — the measured latency of a bounded local
//!   search over windows of `s` records placed at random (non-cached)
//!   offsets of a large array, for a sweep of `s`: the empirical `L(s)` the
//!   cost model of §3.7 consumes.

use shift_table::local_search::{binary_in_window, linear_in_window};
use shift_table::LatencyModel;
use sosd_data::rng::Xoshiro256;
use std::hint::black_box;
use std::time::Instant;

/// Measure the average DRAM load-to-use latency (ns) with a dependent
/// pointer chase over `elements` 8-byte slots (default caller value should
/// comfortably exceed the LLC, e.g. 1<<25 slots = 256 MiB).
pub fn dram_latency_ns(elements: usize, hops: usize, seed: u64) -> f64 {
    let elements = elements.max(1024);
    let hops = hops.max(1024);
    // Build a random single-cycle permutation (Sattolo's algorithm) so each
    // load depends on the previous one and spans the whole buffer.
    let mut rng = Xoshiro256::new(seed);
    let mut perm: Vec<u32> = (0..elements as u32).collect();
    for i in (1..elements).rev() {
        let j = rng.next_below(i as u64) as usize; // j < i: Sattolo => one cycle
        perm.swap(i, j);
    }
    let mut cursor = 0u32;
    // Warm-up partial chase (page faults, TLB).
    for _ in 0..elements.min(100_000) {
        cursor = perm[cursor as usize];
    }
    let start = Instant::now();
    for _ in 0..hops {
        cursor = perm[cursor as usize];
    }
    let elapsed = start.elapsed();
    black_box(cursor);
    elapsed.as_nanos() as f64 / hops as f64
}

/// One point of the error-to-latency curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorLatencyPoint {
    /// Search-window size (records) — the prediction error Δ of Figure 2.
    pub window: usize,
    /// Measured ns per lookup using bounded linear search.
    pub linear_ns: f64,
    /// Measured ns per lookup using bounded binary search.
    pub binary_ns: f64,
}

/// Measure the error-to-latency curve over a sorted array of `n` keys for
/// the given window sizes. Each sample searches a window of `w` records
/// centred at a random position, mimicking the last-mile search of a learned
/// index whose prediction is off by `±w/2`.
pub fn error_latency_curve(
    n: usize,
    windows: &[usize],
    lookups: usize,
    seed: u64,
) -> Vec<ErrorLatencyPoint> {
    let n = n.max(1024);
    let keys: Vec<u64> = (0..n as u64).map(|i| i * 7).collect();
    let mut rng = Xoshiro256::new(seed);
    let mut out = Vec::with_capacity(windows.len());
    for &w in windows {
        let w = w.clamp(1, n);
        // Pre-generate (window_start, query) pairs: the query's true position
        // is uniform inside the window.
        let samples: Vec<(usize, u64)> = (0..lookups.max(1))
            .map(|_| {
                let start = rng.next_below((n - w + 1) as u64) as usize;
                let target = start + rng.next_below(w as u64) as usize;
                (start, keys[target])
            })
            .collect();
        let linear_ns = time_per_op(&samples, |(start, q)| linear_in_window(&keys, start, w, q));
        let binary_ns = time_per_op(&samples, |(start, q)| binary_in_window(&keys, start, w, q));
        out.push(ErrorLatencyPoint {
            window: w,
            linear_ns,
            binary_ns,
        });
    }
    out
}

fn time_per_op<F: FnMut((usize, u64)) -> usize>(samples: &[(usize, u64)], mut f: F) -> f64 {
    let start = Instant::now();
    let mut acc = 0usize;
    for &s in samples {
        acc = acc.wrapping_add(f(s));
    }
    black_box(acc);
    start.elapsed().as_nanos() as f64 / samples.len().max(1) as f64
}

/// Build a [`LatencyModel`] for the §3.7 cost model from a measured curve,
/// using the binary-search latencies (the bounded-window search Algorithm 1
/// uses) and the measured DRAM latency as the layer-lookup cost.
pub fn latency_model_from_curve(curve: &[ErrorLatencyPoint], layer_lookup_ns: f64) -> LatencyModel {
    if curve.is_empty() {
        return LatencyModel::default();
    }
    let points = curve
        .iter()
        .map(|p| (p.window as f64, p.binary_ns))
        .collect();
    LatencyModel::from_points(points, layer_lookup_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dram_latency_is_positive_and_sane() {
        // Small buffer so the test is fast; this measures cache latency, not
        // DRAM, but the plumbing is identical.
        let ns = dram_latency_ns(1 << 16, 50_000, 1);
        assert!(ns > 0.0 && ns < 10_000.0, "implausible latency {ns}");
    }

    #[test]
    fn error_latency_curve_is_increasing_for_binary_search() {
        let curve = error_latency_curve(1 << 20, &[1, 64, 4096, 262_144], 20_000, 3);
        assert_eq!(curve.len(), 4);
        assert!(
            curve.last().unwrap().binary_ns > curve.first().unwrap().binary_ns,
            "searching 256k records ({:.1} ns) should cost more than 1 record ({:.1} ns)",
            curve.last().unwrap().binary_ns,
            curve.first().unwrap().binary_ns
        );
    }

    #[test]
    fn linear_beats_binary_on_tiny_windows() {
        // Each side's minimum over several curves: a run preempted by a
        // neighbour only ever adds time, so the minimum is the comparison
        // a loaded machine cannot flip.
        let mut best = error_latency_curve(1 << 20, &[2, 16_384], 20_000, 5);
        for seed in 6..10 {
            let curve = error_latency_curve(1 << 20, &[2, 16_384], 20_000, seed);
            for (b, p) in best.iter_mut().zip(&curve) {
                b.linear_ns = b.linear_ns.min(p.linear_ns);
                b.binary_ns = b.binary_ns.min(p.binary_ns);
            }
        }
        let tiny = &best[0];
        let large = &best[1];
        assert!(
            tiny.linear_ns <= tiny.binary_ns * 2.0,
            "a 2-record window should not favour binary search dramatically"
        );
        assert!(
            large.binary_ns < large.linear_ns,
            "a 16k window must favour binary search: binary {:.1} vs linear {:.1}",
            large.binary_ns,
            large.linear_ns
        );
    }

    #[test]
    fn latency_model_from_curve_roundtrip() {
        let curve = vec![
            ErrorLatencyPoint {
                window: 1,
                linear_ns: 5.0,
                binary_ns: 6.0,
            },
            ErrorLatencyPoint {
                window: 1000,
                linear_ns: 900.0,
                binary_ns: 90.0,
            },
        ];
        let model = latency_model_from_curve(&curve, 37.0);
        assert_eq!(model.search_latency_ns(1.0), 6.0);
        assert_eq!(model.search_latency_ns(1000.0), 90.0);
        assert_eq!(model.layer_lookup_ns(), 37.0);
        // Empty curve falls back to the default model.
        let fallback = latency_model_from_curve(&[], 1.0);
        assert!(fallback.search_latency_ns(1.0) > 0.0);
    }
}
