//! Configuration knobs of the Shift-Table layer and its query path.

use crate::kernel::{DEFAULT_BATCH_BLOCK, DEFAULT_WAVE_DEPTH, MAX_BATCH_BLOCK};

/// Tunable thresholds used when building and querying a corrected index.
///
/// The defaults are the values the paper uses in its evaluation:
/// a local search window below 8 keys is scanned linearly instead of
/// binary-searched (§3.8), the layer is skipped when the uncorrected error is
/// already below 10 records, and it is also skipped when correction does not
/// shrink the error by at least 10× (§4.1's tuning procedure).
///
/// The batch-kernel knobs (`batch_block`, `wave_depth`) control the pipelined
/// [`crate::kernel`]: the defaults (64-query blocks, 8-lookup waves) are
/// tuned for one core of a commodity x86 box; see the `lookup_kernel` bench
/// sweep for how to retune them on wider machines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShiftTableConfig {
    /// Local-search windows smaller than this are scanned linearly;
    /// larger windows use branchless binary search (Algorithm 1, line 5).
    pub linear_to_binary_threshold: usize,
    /// Do not attach the layer if the model's mean absolute error is already
    /// below this many records (§4.1: "less than a threshold (10 records)").
    pub min_error_to_enable: f64,
    /// Do not attach the layer unless it reduces the mean error by at least
    /// this factor (§4.1: "does not decrease by a factor of 10").
    pub min_improvement_factor: f64,
    /// Queries per amortization block in the batch kernel: model prediction
    /// and layer correction run as tight per-block loops whose stage state
    /// lives in stack buffers. Clamped to `1..=`[`MAX_BATCH_BLOCK`]
    /// (the stage buffers are fixed-capacity arrays). Default 64.
    pub batch_block: usize,
    /// Lookups per pipeline wave inside a block: the kernel touches the key
    /// cache lines of wave `i + 1` while it resolves the local searches of
    /// wave `i`, so the next wave's DRAM latency overlaps the current wave's
    /// compute. Clamped to `1..=batch_block` at the kernel. Default 8.
    pub wave_depth: usize,
}

impl Default for ShiftTableConfig {
    fn default() -> Self {
        Self {
            linear_to_binary_threshold: 8,
            min_error_to_enable: 10.0,
            min_improvement_factor: 10.0,
            batch_block: DEFAULT_BATCH_BLOCK,
            wave_depth: DEFAULT_WAVE_DEPTH,
        }
    }
}

impl ShiftTableConfig {
    /// Override the linear/binary local-search threshold.
    pub fn with_linear_to_binary_threshold(mut self, threshold: usize) -> Self {
        self.linear_to_binary_threshold = threshold.max(1);
        self
    }

    /// Override the minimum uncorrected error required to enable the layer.
    pub fn with_min_error_to_enable(mut self, records: f64) -> Self {
        self.min_error_to_enable = records.max(0.0);
        self
    }

    /// Override the minimum error-improvement factor required to enable the
    /// layer.
    pub fn with_min_improvement_factor(mut self, factor: f64) -> Self {
        self.min_improvement_factor = factor.max(1.0);
        self
    }

    /// Override the batch-kernel block size (clamped to the stage-buffer
    /// capacity [`MAX_BATCH_BLOCK`]).
    pub fn with_batch_block(mut self, block: usize) -> Self {
        self.batch_block = block.clamp(1, MAX_BATCH_BLOCK);
        self
    }

    /// Override the batch-kernel wave depth (clamped to the block size at
    /// query time; a depth of `batch_block` disables pipelining within the
    /// block, a depth of 1 interleaves touch/resolve per lookup).
    pub fn with_wave_depth(mut self, depth: usize) -> Self {
        self.wave_depth = depth.clamp(1, MAX_BATCH_BLOCK);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = ShiftTableConfig::default();
        assert_eq!(c.linear_to_binary_threshold, 8);
        assert_eq!(c.min_error_to_enable, 10.0);
        assert_eq!(c.min_improvement_factor, 10.0);
        // Kernel knobs keep the historical stage-block size of 64.
        assert_eq!(c.batch_block, 64);
        assert_eq!(c.wave_depth, 8);
    }

    #[test]
    fn builders_clamp_nonsense_values() {
        let c = ShiftTableConfig::default()
            .with_linear_to_binary_threshold(0)
            .with_min_error_to_enable(-5.0)
            .with_min_improvement_factor(0.1)
            .with_batch_block(0)
            .with_wave_depth(0);
        assert_eq!(c.linear_to_binary_threshold, 1);
        assert_eq!(c.min_error_to_enable, 0.0);
        assert_eq!(c.min_improvement_factor, 1.0);
        assert_eq!(c.batch_block, 1);
        assert_eq!(c.wave_depth, 1);

        let c = ShiftTableConfig::default()
            .with_batch_block(100_000)
            .with_wave_depth(100_000);
        assert_eq!(c.batch_block, MAX_BATCH_BLOCK);
        assert_eq!(c.wave_depth, MAX_BATCH_BLOCK);
    }
}
