//! Process-wide batch-kernel statistics.
//!
//! The pipelined kernel ([`crate::kernel`]) is called from deep inside the
//! store's read path, far from anywhere a per-index statistics handle could
//! be threaded without touching every `IndexSpec::build` call site — so its
//! counters are a tiny process-global registry of relaxed atomics, gated by
//! an enable flag that costs one predicted branch per *block* (64 queries)
//! when off.
//!
//! [`set_enabled`] flips the flag (the store does this when its metrics are
//! on). Counters are cumulative for the process; readers that need a rate or
//! a fraction take two snapshots and difference them.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);
static BLOCKS: AtomicU64 = AtomicU64::new(0);
static LANES: AtomicU64 = AtomicU64::new(0);
static WIDE_LANES: AtomicU64 = AtomicU64::new(0);
static WAVE_LEVELS: AtomicU64 = AtomicU64::new(0);

/// Turn the global kernel-stat collection on or off.
pub fn set_enabled(on: bool) {
    // lint: ordering(Relaxed) enable flag — readers only gate statistics, no data is published through it
    ENABLED.store(on, Ordering::Relaxed);
}

/// Is global kernel-stat collection on?
#[inline]
pub fn enabled() -> bool {
    // lint: ordering(Relaxed) enable flag — readers only gate statistics, no data is published through it
    ENABLED.load(Ordering::Relaxed)
}

/// Record one pipelined-kernel invocation: `blocks` amortization blocks
/// covering `lanes` queries, of which `wide_lanes` resolved through the
/// wavefront search using `wave_levels` probe levels in total.
#[inline]
pub(crate) fn record(blocks: u64, lanes: u64, wide_lanes: u64, wave_levels: u64) {
    // lint: ordering(Relaxed) statistics counter — no reader synchronises through it
    BLOCKS.fetch_add(blocks, Ordering::Relaxed);
    // lint: ordering(Relaxed) statistics counter — no reader synchronises through it
    LANES.fetch_add(lanes, Ordering::Relaxed);
    // lint: ordering(Relaxed) statistics counter — no reader synchronises through it
    WIDE_LANES.fetch_add(wide_lanes, Ordering::Relaxed);
    // lint: ordering(Relaxed) statistics counter — no reader synchronises through it
    WAVE_LEVELS.fetch_add(wave_levels, Ordering::Relaxed);
}

/// A point-in-time copy of the cumulative kernel counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStatsSnapshot {
    /// Amortization blocks processed by the pipelined kernel, whatever the
    /// layer: range, midpoint and uncorrected batches all count.
    pub blocks: u64,
    /// Queries (lanes) those blocks covered, of every layer.
    pub lanes: u64,
    /// Lanes whose corrected window was wide enough for the wavefront
    /// search. `wide_lanes as f64 / lanes as f64` is the wide-lane fraction.
    pub wide_lanes: u64,
    /// Total iterated-interpolation probe levels the wavefront search ran.
    /// `wave_levels as f64 / blocks-with-wide-lanes` approximates levels per
    /// block; per-lane cost is bounded by it.
    pub wave_levels: u64,
}

impl KernelStatsSnapshot {
    /// Fraction of lanes that took the wavefront path (0 when idle).
    pub fn wide_lane_fraction(&self) -> f64 {
        if self.lanes == 0 {
            0.0
        } else {
            self.wide_lanes as f64 / self.lanes as f64
        }
    }
}

/// Read the cumulative counters.
pub fn snapshot() -> KernelStatsSnapshot {
    KernelStatsSnapshot {
        // lint: ordering(Relaxed) statistics readout — staleness is acceptable by contract
        blocks: BLOCKS.load(Ordering::Relaxed),
        // lint: ordering(Relaxed) statistics readout — staleness is acceptable by contract
        lanes: LANES.load(Ordering::Relaxed),
        // lint: ordering(Relaxed) statistics readout — staleness is acceptable by contract
        wide_lanes: WIDE_LANES.load(Ordering::Relaxed),
        // lint: ordering(Relaxed) statistics readout — staleness is acceptable by contract
        wave_levels: WAVE_LEVELS.load(Ordering::Relaxed),
    }
}

/// Held by every test that flips the process-global flag, so no two of them
/// race on it.
#[cfg(test)]
pub(crate) static FLAG_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enable_flag_toggles() {
        let _flag = FLAG_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let was = enabled();
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
        set_enabled(was);
    }

    #[test]
    fn record_accumulates_and_fraction_divides() {
        // Global state: other tests may also record; assert deltas.
        let before = snapshot();
        record(2, 128, 16, 10);
        let after = snapshot();
        assert_eq!(after.blocks - before.blocks, 2);
        assert_eq!(after.lanes - before.lanes, 128);
        assert_eq!(after.wide_lanes - before.wide_lanes, 16);
        assert_eq!(after.wave_levels - before.wave_levels, 10);
        let s = KernelStatsSnapshot {
            blocks: 1,
            lanes: 100,
            wide_lanes: 25,
            wave_levels: 7,
        };
        assert_eq!(s.wide_lane_fraction(), 0.25);
        assert_eq!(KernelStatsSnapshot::default().wide_lane_fraction(), 0.0);
    }
}
