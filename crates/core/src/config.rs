//! Configuration knobs of the Shift-Table layer and its query path.

/// Tunable thresholds used when building and querying a corrected index.
///
/// The defaults are the values the paper uses in its evaluation:
/// a local search window below 8 keys is scanned linearly instead of
/// binary-searched (§3.8), the layer is skipped when the uncorrected error is
/// already below 10 records, and it is also skipped when correction does not
/// shrink the error by at least 10× (§4.1's tuning procedure).
///
/// The batch kernel's block size and wave depth are not configuration: they
/// are the constants [`crate::kernel::BATCH_BLOCK`] and
/// [`crate::kernel::WAVE_DEPTH`], whose docs say why.
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
}

impl Default for ShiftTableConfig {
    fn default() -> Self {
        Self {
            linear_to_binary_threshold: 8,
            min_error_to_enable: 10.0,
            min_improvement_factor: 10.0,
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
        // The kernel keeps the historical stage-block size of 64.
        assert_eq!(crate::kernel::BATCH_BLOCK, 64);
        assert_eq!(crate::kernel::WAVE_DEPTH, 8);
    }

    #[test]
    fn builders_clamp_nonsense_values() {
        let c = ShiftTableConfig::default()
            .with_linear_to_binary_threshold(0)
            .with_min_error_to_enable(-5.0)
            .with_min_improvement_factor(0.1);
        assert_eq!(c.linear_to_binary_threshold, 1);
        assert_eq!(c.min_error_to_enable, 0.0);
        assert_eq!(c.min_improvement_factor, 1.0);
    }
}
