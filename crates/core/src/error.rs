//! Error measurement for corrected predictions (§3.5).
//!
//! Two views are provided: the *analytic* expectation of Eq. 8 (available
//! directly from a range-mode layer without touching the data again, exposed
//! as [`crate::table::ShiftTable::expected_error`]) and the *empirical*
//! statistics of corrected predictions over the indexed keys, which work for
//! any [`Correction`] and are what the Figure 6 / Figure 9 error plots use.

use crate::correction::Correction;
use learned_index::model::CdfModel;
use sosd_data::key::Key;

/// Why an index could not be built.
///
/// Construction validates its input instead of `debug_assert!`-ing it: feeding
/// unsorted keys — or more keys than a layer's entries can address — to a
/// release build used to silently produce a wrong index, now it is a hard
/// error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The key column is not sorted in non-decreasing order.
    UnsortedKeys {
        /// Index of the first key that is smaller than its predecessor.
        position: usize,
    },
    /// The key column is too long for a range-mode Shift-Table, whose
    /// entries hold drifts and window lengths in at most 32 bits.
    TooManyKeys {
        /// Number of keys in the rejected column.
        len: usize,
        /// The most keys one range layer covers
        /// ([`crate::ShiftTable::MAX_KEYS`]).
        max: usize,
    },
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnsortedKeys { position } => write!(
                f,
                "keys are not sorted: keys[{position}] is smaller than keys[{}]",
                position - 1
            ),
            Self::TooManyKeys { len, max } => write!(
                f,
                "{len} keys are too many for one range-mode Shift-Table (at most {max})"
            ),
        }
    }
}

impl std::error::Error for BuildError {}

/// Locate the first out-of-order position in `keys`, if any.
pub(crate) fn first_unsorted<K: Key>(keys: &[K]) -> Option<usize> {
    keys.windows(2).position(|w| w[0] > w[1]).map(|i| i + 1)
}

/// Empirical error statistics of corrected predictions.
#[derive(Debug, Clone, PartialEq)]
pub struct CorrectionErrorStats {
    /// Number of distinct keys evaluated.
    pub count: usize,
    /// Mean absolute error in records after correction.
    pub mean_abs: f64,
    /// Median absolute error in records after correction.
    pub median_abs: f64,
    /// Maximum absolute error in records after correction.
    pub max_abs: u64,
    /// Mean `log2(1 + |error|)` after correction.
    pub mean_log2: f64,
}

impl CorrectionErrorStats {
    /// Measure the error of `correction ∘ model` over every distinct key.
    ///
    /// For range-mode corrections the "corrected prediction" is the start of
    /// the search window (the first record the local search touches); for an
    /// unbounded hint it is the hinted position itself.
    pub fn compute<K: Key, M, C>(model: &M, correction: &C, keys: &[K]) -> Self
    where
        M: CdfModel<K> + ?Sized,
        C: Correction + ?Sized,
    {
        let mut abs_errors: Vec<f64> = Vec::new();
        let mut sum_abs = 0.0;
        let mut sum_log2 = 0.0;
        let mut max_abs = 0u64;
        let mut last: Option<K> = None;
        for (i, &k) in keys.iter().enumerate() {
            if last == Some(k) {
                continue;
            }
            last = Some(k);
            let hint = correction.correct(model.predict_clamped(k));
            let err = (hint.start as f64 - i as f64).abs();
            sum_abs += err;
            sum_log2 += (1.0 + err).log2();
            max_abs = max_abs.max(err.round() as u64);
            abs_errors.push(err);
        }
        let count = abs_errors.len();
        if count == 0 {
            return Self {
                count: 0,
                mean_abs: 0.0,
                median_abs: 0.0,
                max_abs: 0,
                mean_log2: 0.0,
            };
        }
        abs_errors.sort_by(|a, b| a.total_cmp(b));
        Self {
            count,
            mean_abs: sum_abs / count as f64,
            median_abs: abs_errors[count / 2],
            max_abs,
            mean_log2: sum_log2 / count as f64,
        }
    }

    /// Per-key signed error series `(position, corrected_prediction − position)`
    /// — the data behind Figure 6b.
    pub fn error_series<K: Key, M, C>(model: &M, correction: &C, keys: &[K]) -> Vec<(usize, i64)>
    where
        M: CdfModel<K> + ?Sized,
        C: Correction + ?Sized,
    {
        let mut out = Vec::with_capacity(keys.len());
        let mut last: Option<K> = None;
        for (i, &k) in keys.iter().enumerate() {
            if last == Some(k) {
                continue;
            }
            last = Some(k);
            let hint = correction.correct(model.predict_clamped(k));
            out.push((i, hint.start as i64 - i as i64));
        }
        out
    }
}

impl std::fmt::Display for CorrectionErrorStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "corrected: mean |e| = {:.1}, median |e| = {:.1}, max |e| = {}, log2 e = {:.2}",
            self.mean_abs, self.median_abs, self.max_abs, self.mean_log2
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::ShiftTable;
    use learned_index::linear::InterpolationModel;
    use learned_index::ModelErrorStats;
    use sosd_data::prelude::*;

    #[cfg_attr(miri, ignore = "dataset too large for Miri")]
    #[test]
    fn range_mode_correction_error_is_bounded_by_window_lengths() {
        let d: Dataset<u64> = SosdName::Face64.generate(30_000, 1);
        let model = InterpolationModel::build(&d);
        let table = ShiftTable::build(&model, d.as_slice());
        let stats = CorrectionErrorStats::compute(&model, &table, d.as_slice());
        let max_window = table.window_lengths().max().unwrap_or(0);
        assert!(
            stats.max_abs <= max_window,
            "corrected error {} cannot exceed the largest window {}",
            stats.max_abs,
            max_window
        );
        assert!(stats.count > 0);
    }

    #[cfg_attr(miri, ignore = "dataset too large for Miri")]
    #[test]
    fn figure6_shape_shift_table_crushes_the_dummy_model_error() {
        // Figure 6: on OSM data the raw linear model averages millions of
        // records of error (28M at 200M keys); the Shift-Table brings it down
        // to a few hundred at most. At our default scale the ratio — not the
        // absolute number — is the reproducible claim.
        let d: Dataset<u64> = SosdName::Osmc64.generate(100_000, 1);
        let model = InterpolationModel::build(&d);
        let before = ModelErrorStats::compute(&model, &d).mean_abs;
        let table = ShiftTable::build(&model, d.as_slice());
        let after = CorrectionErrorStats::compute(&model, &table, d.as_slice()).mean_abs;
        assert!(
            before > 100.0 * after.max(0.1),
            "error must drop by orders of magnitude: {before} -> {after}"
        );
    }

    #[cfg_attr(miri, ignore = "dataset too large for Miri")]
    #[test]
    fn error_series_matches_stats() {
        let d: Dataset<u64> = SosdName::Wiki64.generate(5_000, 3);
        let model = InterpolationModel::build(&d);
        let table = ShiftTable::build(&model, d.as_slice());
        let series = CorrectionErrorStats::error_series(&model, &table, d.as_slice());
        let stats = CorrectionErrorStats::compute(&model, &table, d.as_slice());
        assert_eq!(series.len(), stats.count);
        let mean = series.iter().map(|(_, e)| e.abs() as f64).sum::<f64>() / series.len() as f64;
        assert!((mean - stats.mean_abs).abs() < 1e-9);
    }

    #[test]
    fn empty_input() {
        let keys: Vec<u64> = vec![];
        let model = InterpolationModel::from_sorted_keys(&keys);
        let table = ShiftTable::build(&model, &keys);
        let stats = CorrectionErrorStats::compute(&model, &table, &keys);
        assert_eq!(stats.count, 0);
        assert_eq!(stats.mean_abs, 0.0);
        assert!(CorrectionErrorStats::error_series(&model, &table, &keys).is_empty());
    }

    #[test]
    fn build_error_reports_the_offending_position() {
        assert_eq!(super::first_unsorted(&[1u64, 2, 3]), None);
        assert_eq!(super::first_unsorted(&[3u64, 2, 3]), Some(1));
        assert_eq!(super::first_unsorted(&[1u64, 1, 0]), Some(2));
        assert_eq!(super::first_unsorted::<u64>(&[]), None);
        let e = BuildError::UnsortedKeys { position: 7 };
        assert!(e.to_string().contains("keys[7]"));
        assert!(e.to_string().contains("keys[6]"));
    }

    #[test]
    fn display_formatting() {
        let d: Dataset<u64> = SosdName::Uden64.generate(1_000, 1);
        let model = InterpolationModel::build(&d);
        let table = ShiftTable::build(&model, d.as_slice());
        let text = CorrectionErrorStats::compute(&model, &table, d.as_slice()).to_string();
        assert!(text.contains("corrected"));
    }
}
