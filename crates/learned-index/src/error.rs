//! Model prediction-error statistics.
//!
//! The paper reports model error in several forms: the mean absolute error
//! (records), the signed drift (§3), and — following SOSD / Figure 8 — the
//! mean log2 error, which approximates the number of binary-search iterations
//! the last-mile search needs. [`ModelErrorStats`] computes all of them in
//! one pass over the training keys.

use crate::model::CdfModel;
use sosd_data::dataset::Dataset;
use sosd_data::key::Key;

/// Error statistics of a model over a dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelErrorStats {
    /// Number of (distinct-position) keys evaluated.
    pub count: usize,
    /// Mean absolute error in records.
    pub mean_abs: f64,
    /// Mean signed error (positive = model predicts too far right).
    pub mean_signed: f64,
    /// Median absolute error in records.
    pub median_abs: f64,
    /// Maximum absolute error in records.
    pub max_abs: u64,
    /// Mean `log2(1 + |error|)` — the SOSD "log2 error" metric, roughly the
    /// number of binary-search iterations needed in the last-mile search.
    pub mean_log2: f64,
    /// Root mean squared error.
    pub rmse: f64,
}

impl ModelErrorStats {
    /// Compute the statistics of `model` over every key of `dataset`,
    /// using the first occurrence of each duplicate key as the target
    /// (lower-bound semantics, §3.2).
    pub fn compute<K: Key, M: CdfModel<K> + ?Sized>(model: &M, dataset: &Dataset<K>) -> Self {
        Self::compute_on_keys(model, dataset.as_slice())
    }

    /// The `mean_abs` statistic alone, as a buffer-free running sum — for
    /// build paths (layer auto-tuning, the probe-count proxy) that need only
    /// the mean and would otherwise pay [`Self::compute_on_keys`]'s per-key
    /// buffer and median sort on every (re)build. Uses the same unclamped
    /// predictions and first-occurrence duplicate targets, so it is always
    /// equal to `compute_on_keys(model, keys).mean_abs`.
    pub fn mean_abs_on_keys<K: Key, M: CdfModel<K> + ?Sized>(model: &M, keys: &[K]) -> f64 {
        let mut sum = 0.0f64;
        let mut count = 0usize;
        let mut last: Option<K> = None;
        for (i, &k) in keys.iter().enumerate() {
            if last == Some(k) {
                continue; // duplicates: only the first occurrence is a target
            }
            last = Some(k);
            sum += (model.predict(k) as f64 - i as f64).abs();
            count += 1;
        }
        if count == 0 {
            0.0
        } else {
            sum / count as f64
        }
    }

    /// Compute over an explicit sorted key slice.
    pub fn compute_on_keys<K: Key, M: CdfModel<K> + ?Sized>(model: &M, keys: &[K]) -> Self {
        let mut abs_errors: Vec<f64> = Vec::with_capacity(keys.len());
        let mut sum_abs = 0.0f64;
        let mut sum_signed = 0.0f64;
        let mut sum_log2 = 0.0f64;
        let mut sum_sq = 0.0f64;
        let mut max_abs = 0u64;
        let mut last_key: Option<K> = None;
        let mut count = 0usize;
        for (i, &k) in keys.iter().enumerate() {
            if last_key == Some(k) {
                continue; // duplicates: only the first occurrence is a target
            }
            last_key = Some(k);
            let predicted = model.predict(k) as f64;
            let err = predicted - i as f64;
            let abs = err.abs();
            sum_abs += abs;
            sum_signed += err;
            sum_log2 += (1.0 + abs).log2();
            sum_sq += err * err;
            max_abs = max_abs.max(abs.round() as u64);
            abs_errors.push(abs);
            count += 1;
        }
        if count == 0 {
            return Self {
                count: 0,
                mean_abs: 0.0,
                mean_signed: 0.0,
                median_abs: 0.0,
                max_abs: 0,
                mean_log2: 0.0,
                rmse: 0.0,
            };
        }
        abs_errors.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median_abs = abs_errors[abs_errors.len() / 2];
        let nf = count as f64;
        Self {
            count,
            mean_abs: sum_abs / nf,
            mean_signed: sum_signed / nf,
            median_abs,
            max_abs,
            mean_log2: sum_log2 / nf,
            rmse: (sum_sq / nf).sqrt(),
        }
    }
}

impl std::fmt::Display for ModelErrorStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "mean |e| = {:.1}, median |e| = {:.1}, max |e| = {}, log2 e = {:.2}, rmse = {:.1}",
            self.mean_abs, self.median_abs, self.max_abs, self.mean_log2, self.rmse
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::InterpolationModel;
    use crate::radix_spline::RadixSpline;
    use sosd_data::generators::SosdName;

    #[test]
    fn perfect_model_has_zero_error() {
        let keys: Vec<u64> = (0..1000u64).map(|i| i * 5).collect();
        let d = Dataset::from_keys("lin", keys);
        let m = InterpolationModel::build(&d);
        let s = ModelErrorStats::compute(&m, &d);
        assert_eq!(s.count, 1000);
        assert_eq!(s.mean_abs, 0.0);
        assert_eq!(s.max_abs, 0);
        assert_eq!(s.mean_log2, 0.0);
        assert_eq!(s.rmse, 0.0);
    }

    #[test]
    fn mean_abs_fast_path_agrees_with_the_full_statistics() {
        // The buffer-free fast path must stay bit-identical to the full
        // computation — the §3.9 tuning advisor decides from one while the
        // reports print the other.
        for name in [SosdName::Face64, SosdName::Osmc64, SosdName::Uden64] {
            let d: Dataset<u64> = name.generate(20_000, 17);
            let m = InterpolationModel::build(&d);
            let full = ModelErrorStats::compute_on_keys(&m, d.as_slice()).mean_abs;
            let fast = ModelErrorStats::mean_abs_on_keys(&m, d.as_slice());
            assert_eq!(full, fast, "{name}");
        }
        // Duplicates and the empty slice.
        let dups = vec![3u64, 3, 3, 9, 9];
        let m = InterpolationModel::from_sorted_keys(&dups);
        assert_eq!(
            ModelErrorStats::compute_on_keys(&m, &dups).mean_abs,
            ModelErrorStats::mean_abs_on_keys(&m, &dups)
        );
        assert_eq!(ModelErrorStats::mean_abs_on_keys(&m, &[] as &[u64]), 0.0);
    }

    #[test]
    fn im_error_is_huge_on_osmc_and_small_after_radix_spline() {
        // Quantitative flavour of Figure 6: the dummy linear model has an
        // error that is a substantial fraction of N on OSM-like data, while
        // an error-bounded model keeps it below its ε.
        let d: Dataset<u64> = SosdName::Osmc64.generate(100_000, 1);
        let im = InterpolationModel::build(&d);
        let rs = RadixSpline::builder().max_error(32).build(&d);
        let s_im = ModelErrorStats::compute(&im, &d);
        let s_rs = ModelErrorStats::compute(&rs, &d);
        assert!(
            s_im.mean_abs > 0.02 * d.len() as f64,
            "IM mean error {} should be a large fraction of n",
            s_im.mean_abs
        );
        assert!(s_rs.max_abs <= 33);
        assert!(s_im.mean_abs > 100.0 * s_rs.mean_abs.max(1.0));
    }

    #[test]
    fn duplicates_use_first_occurrence_target() {
        let d = Dataset::from_keys("dup", vec![10u64, 20, 20, 20, 30]);
        let m = InterpolationModel::build(&d);
        let s = ModelErrorStats::compute(&m, &d);
        // Only 3 distinct keys are evaluated.
        assert_eq!(s.count, 3);
    }

    #[test]
    fn signed_error_detects_bias() {
        // A model that always predicts 0 has negative signed error equal to
        // the mean position.
        struct Zero(usize);
        impl CdfModel<u64> for Zero {
            fn predict(&self, _key: u64) -> usize {
                0
            }
            fn key_count(&self) -> usize {
                self.0
            }
            fn size_bytes(&self) -> usize {
                0
            }
            fn name(&self) -> &'static str {
                "zero"
            }
        }
        let keys: Vec<u64> = (0..100u64).collect();
        let d = Dataset::from_keys("d", keys);
        let s = ModelErrorStats::compute(&Zero(100), &d);
        assert!((s.mean_signed + 49.5).abs() < 1e-9);
        assert_eq!(s.max_abs, 99);
        assert!((s.mean_abs - 49.5).abs() < 1e-9);
    }

    #[test]
    fn empty_dataset() {
        let d: Dataset<u64> = Dataset::from_keys("e", vec![]);
        let m = InterpolationModel::build(&d);
        let s = ModelErrorStats::compute(&m, &d);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean_abs, 0.0);
    }

    #[test]
    fn display_is_human_readable() {
        let d: Dataset<u64> = SosdName::Uspr64.generate(1_000, 1);
        let m = InterpolationModel::build(&d);
        let s = ModelErrorStats::compute(&m, &d);
        let text = s.to_string();
        assert!(text.contains("mean |e|"));
        assert!(text.contains("log2"));
    }
}
