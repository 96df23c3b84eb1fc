//! Configuration of the Shift-Table query path.

/// The query-path setting of a corrected index.
///
/// The default is the value the paper uses in its evaluation: a local
/// search window below 8 keys is scanned linearly instead of
/// binary-searched (§3.8). No caller sets another value; the field stays
/// because the repository benchmark reads it back from a built index.
///
/// The layer-enablement thresholds of §4.1 are not configuration: they are
/// the constants [`crate::cost::MIN_ERROR_TO_ENABLE`] and
/// [`crate::cost::MIN_IMPROVEMENT_FACTOR`] beside the rule that applies
/// them. Neither are the batch kernel's block size and wave depth: they are
/// the constants [`crate::kernel::BATCH_BLOCK`] and
/// [`crate::kernel::WAVE_DEPTH`], whose docs say why.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShiftTableConfig {
    /// Local-search windows smaller than this are scanned linearly;
    /// larger windows use branchless binary search (Algorithm 1, line 5).
    pub linear_to_binary_threshold: usize,
}

impl Default for ShiftTableConfig {
    fn default() -> Self {
        Self {
            linear_to_binary_threshold: 8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = ShiftTableConfig::default();
        assert_eq!(c.linear_to_binary_threshold, 8);
        assert_eq!(crate::cost::MIN_ERROR_TO_ENABLE, 10.0);
        assert_eq!(crate::cost::MIN_IMPROVEMENT_FACTOR, 10.0);
        // The kernel keeps the historical stage-block size of 64.
        assert_eq!(crate::kernel::BATCH_BLOCK, 64);
        assert_eq!(crate::kernel::WAVE_DEPTH, 8);
    }
}
