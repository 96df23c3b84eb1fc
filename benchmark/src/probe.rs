//! The box-speed probe: how fast is this box *right now*?
//!
//! The box is a 2-vCPU guest on a shared host, and the same binary runs at
//! very different speeds from one minute to the next: the core clock hops
//! between turbo bins with the host's load, the shared last-level cache and
//! memory system follow the neighbours' traffic, and in a busy hour a
//! sibling hardware thread and stolen time slow everything by half again.
//! Much of it is common-mode — whatever runs at that moment is slowed — so
//! every timed read round and every trace replay is bracketed by two
//! samples of a **reference kernel**, and beside its time as measured the
//! run prints its time at the *nominal* box speed: divided by how much
//! slower than nominal the reference ran around it.
//!
//! The nominal value is a diagnostic, never the number a bound is held
//! against: the slow-down is only partly common-mode (a burst that moves a
//! lookup of two dependent misses by a quarter may move the reference by
//! a twentieth or by two fifths), so it is steadier than the raw value in
//! a busy hour and no steadier in a quiet one (CALIBRATION.md).
//!
//! The reference is the standard library's binary search
//! (`partition_point`) over the workload's own key column, with queries
//! drawn like the workload's own: code this repository did not write and
//! no change to it can speed up, that mixes branches, core work and misses
//! at every cache level the way a lookup does, and that is cache-resident
//! exactly when the workload is. Pure probes (a dependent multiply chain
//! for the clock, pointer chases for memory) were tried first; they cancel
//! the turbo and cache drift of a quiet hour as well, but see almost
//! nothing of a busy hour's slow-down (CALIBRATION.md has the numbers).

use std::hint::black_box;
use std::time::Instant;

/// How long the timed part of a sample lasts at nominal speed.
const SAMPLE_NS: f64 = 20e6;
/// Untimed searches before the timed ones, as a share of them: they fetch
/// the top of the search tree back into the private cache, so that the
/// sample does not measure how cold the section before it left those
/// lines. A change to the code under test that evicts more of them would
/// otherwise slow the reference and hide part of its own regression.
const WARM_UP: f64 = 0.125;

/// Brackets timed sections with samples of the reference kernel.
pub struct Meter<'a> {
    keys: &'a [u64],
    /// Queries distributed like the workload's point queries; each sample
    /// takes the next window.
    pool: &'a [u64],
    /// Searches per sample: `SAMPLE_NS` worth at the nominal speed, so the
    /// count is the same in every run of a workload.
    per_sample: usize,
    next: usize,
    /// What a sample takes on the calibration box in a quiet minute. It
    /// only fixes the unit: parent and change divide by the same constant.
    nominal_ns: f64,
    last_ns: f64,
    /// Every sample taken (ns per search), for the run's noise report.
    pub history: Vec<f64>,
}

impl<'a> Meter<'a> {
    pub fn new(keys: &'a [u64], pool: &'a [u64], nominal_ns: f64) -> Self {
        assert!(!keys.is_empty() && !pool.is_empty() && nominal_ns > 0.0);
        let mut meter = Self {
            keys,
            pool,
            per_sample: ((SAMPLE_NS / nominal_ns) as usize).clamp(1, pool.len()),
            next: 0,
            nominal_ns,
            last_ns: nominal_ns,
            history: Vec::new(),
        };
        meter.open();
        meter
    }

    /// One sample: ns per binary search over the next window of queries,
    /// after a warm-up over the head of the window after it.
    fn sample(&mut self) -> f64 {
        let n = self.per_sample;
        if self.next + n > self.pool.len() {
            self.next = 0;
        }
        let queries = &self.pool[self.next..self.next + n];
        self.next += n;
        let search = |queries: &[u64]| {
            let mut sum = 0usize;
            for &q in queries {
                let q = black_box(q);
                sum = sum.wrapping_add(self.keys.partition_point(|&k| k < q));
            }
            black_box(sum);
        };
        let warm = ((n as f64 * WARM_UP) as usize).min(self.pool.len());
        let at = if self.next + warm > self.pool.len() {
            0
        } else {
            self.next
        };
        search(&self.pool[at..at + warm]);
        let t = Instant::now();
        search(queries);
        t.elapsed().as_nanos() as f64 / n as f64
    }

    /// Sample now: the opening bracket of the next section.
    pub fn open(&mut self) {
        self.last_ns = self.sample();
        self.history.push(self.last_ns);
    }

    /// Sample now: closes the section opened by the previous `open` or
    /// `close` (consecutive sections share the sample between them) and
    /// returns the box index that held during it: the geometric mean of
    /// the two bracketing samples over the nominal, above 1 on a slow box.
    pub fn close(&mut self) -> f64 {
        let before = self.last_ns;
        self.open();
        (before * self.last_ns).sqrt() / self.nominal_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consecutive_sections_share_a_sample_and_windows_rotate() {
        let keys: Vec<u64> = (0..1000).map(|i| i * 3).collect();
        // 20 ms at 1000 ns a search: 20 000 searches per sample.
        let pool: Vec<u64> = (0..60_000).map(|i| i % 3000).collect();
        let mut meter = Meter::new(&keys, &pool, 1000.0);
        assert_eq!(meter.per_sample, 20_000);
        assert_eq!(meter.history.len(), 1);
        let a = meter.close();
        let b = meter.close();
        assert_eq!(meter.history.len(), 3);
        assert!(a > 0.0 && b > 0.0);
        let h = &meter.history;
        assert!((a - (h[0] * h[1]).sqrt() / 1000.0).abs() < 1e-12);
        assert!((b - (h[1] * h[2]).sqrt() / 1000.0).abs() < 1e-12);
        assert_eq!(meter.next, 60_000, "each sample takes the next window");
        meter.open();
        assert_eq!(meter.next, 20_000, "and the pool wraps");
    }
}
