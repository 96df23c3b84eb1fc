//! Straight-line CDF models: min/max interpolation (IM) and least squares.
//!
//! The paper deliberately pairs its correction layer with the *dumbest
//! possible* model — `IM`, a two-parameter interpolation between the minimum
//! and maximum key (§4.1) — to show that the Shift-Table layer, not the
//! model, can carry the burden of learning the distribution. The
//! least-squares [`LinearModel`] is included as the natural slightly-smarter
//! alternative and is used as the RMI leaf model.

use crate::model::CdfModel;
use sosd_data::dataset::Dataset;
use sosd_data::key::Key;

/// `p` clamped to `[lo, hi]` in `f64` — a NaN to `lo` — and truncated
/// once. `lo ≤ hi` are positions, below 2^53, so the truncation goes
/// through `i64`: one instruction on baseline x86-64, where the unsigned
/// one is a branchy sequence. It equals truncating first (saturating) and
/// clamping after, as `predict_clamped` does.
#[inline]
pub(crate) fn truncate_clamped(p: f64, lo: f64, hi: f64) -> usize {
    p.max(lo).min(hi) as i64 as usize
}

/// "Interpolation as a Model" (IM): predicts
/// `(x - min) / (max - min) · (N - 1)`, i.e. a straight line through the
/// first and last key. Two parameters, never needs training data beyond the
/// min and max, and always monotone.
#[derive(Debug, Clone, PartialEq)]
pub struct InterpolationModel {
    min: f64,
    /// Precomputed slope `(n - 1) / (max - min)`.
    slope: f64,
    n: usize,
}

impl InterpolationModel {
    /// Build from a dataset.
    pub fn build<K: Key>(dataset: &Dataset<K>) -> Self {
        Self::from_sorted_keys(dataset.as_slice())
    }

    /// Build from a sorted key slice.
    pub fn from_sorted_keys<K: Key>(keys: &[K]) -> Self {
        let n = keys.len();
        if n < 2 {
            return Self {
                min: 0.0,
                slope: 0.0,
                n,
            };
        }
        let min = keys[0].to_f64();
        let max = keys[n - 1].to_f64();
        let span = max - min;
        let slope = if span > 0.0 {
            (n - 1) as f64 / span
        } else {
            0.0
        };
        Self { min, slope, n }
    }

    /// The slope of the fitted line in records per key unit.
    #[inline]
    pub fn slope(&self) -> f64 {
        self.slope
    }
}

impl<K: Key> CdfModel<K> for InterpolationModel {
    #[inline]
    fn predict(&self, key: K) -> usize {
        if self.n == 0 {
            return 0;
        }
        let p = (key.to_f64() - self.min) * self.slope;
        // Negative predictions (key below min) clamp to 0.
        let p = if p > 0.0 { p } else { 0.0 };
        (p as usize).min(self.n - 1)
    }

    /// The predictions of `predict_clamped`, each clamped in `f64` and
    /// truncated once.
    fn predict_clamped_into(&self, keys: &[K], out: &mut [u32]) {
        assert_eq!(keys.len(), out.len(), "one output slot per key");
        let last = self.n.saturating_sub(1) as f64;
        for (slot, &key) in out.iter_mut().zip(keys) {
            let p = (key.to_f64() - self.min) * self.slope;
            *slot = truncate_clamped(p, 0.0, last) as u32;
        }
    }

    fn key_count(&self) -> usize {
        self.n
    }

    fn size_bytes(&self) -> usize {
        // min + slope (the record count is metadata every index carries).
        2 * std::mem::size_of::<f64>()
    }

    fn name(&self) -> &'static str {
        "IM"
    }
}

/// Least-squares straight line mapping keys to positions.
///
/// Fitted with the standard closed-form simple-linear-regression estimator
/// computed in one pass. Always monotone because key–position pairs are
/// positively correlated for sorted data (slope ≥ 0).
#[derive(Debug, Clone, PartialEq)]
pub struct LinearModel {
    intercept: f64,
    slope: f64,
    n: usize,
}

impl LinearModel {
    /// Fit over a dataset.
    pub fn build<K: Key>(dataset: &Dataset<K>) -> Self {
        Self::from_sorted_keys(dataset.as_slice())
    }

    /// Fit over a sorted key slice (position `i` is the target for `keys[i]`).
    pub fn from_sorted_keys<K: Key>(keys: &[K]) -> Self {
        Self::fit(keys.iter().map(|k| k.to_f64()), keys.len())
    }

    /// Fit a line position = `intercept + slope · key` over arbitrary
    /// `(key, position)` pairs where positions are `0..count`.
    pub fn fit(keys: impl Iterator<Item = f64>, count: usize) -> Self {
        if count == 0 {
            return Self {
                intercept: 0.0,
                slope: 0.0,
                n: 0,
            };
        }
        // One-pass accumulation with the key mean subtracted afterwards;
        // keys can be ~2^62 so accumulate in f64 carefully via shifted sums.
        let mut sum_x = 0.0f64;
        let mut sum_y = 0.0f64;
        let mut sum_xx = 0.0f64;
        let mut sum_xy = 0.0f64;
        let mut m = 0usize;
        for (i, x) in keys.enumerate() {
            let y = i as f64;
            sum_x += x;
            sum_y += y;
            sum_xx += x * x;
            sum_xy += x * y;
            m += 1;
        }
        debug_assert_eq!(m, count);
        let nf = m as f64;
        let denom = nf * sum_xx - sum_x * sum_x;
        let (slope, intercept) = if denom.abs() < f64::EPSILON || m < 2 {
            (0.0, if m > 0 { (m - 1) as f64 / 2.0 } else { 0.0 })
        } else {
            let slope = (nf * sum_xy - sum_x * sum_y) / denom;
            let intercept = (sum_y - slope * sum_x) / nf;
            (slope.max(0.0), intercept)
        };
        Self {
            intercept,
            slope,
            n: count,
        }
    }

    /// Construct a model directly from its parameters. `count` is the number
    /// of records predictions are clamped to (the trained data size).
    pub fn from_parts(intercept: f64, slope: f64, count: usize) -> Self {
        Self {
            intercept,
            slope,
            n: count,
        }
    }

    /// Fitted slope (records per key unit).
    #[inline]
    pub fn slope(&self) -> f64 {
        self.slope
    }

    /// Fitted intercept (records).
    #[inline]
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// Raw (unclamped) prediction as `f64`; used by RMI leaf composition.
    #[inline]
    pub fn predict_f64(&self, key: f64) -> f64 {
        self.intercept + self.slope * key
    }
}

impl<K: Key> CdfModel<K> for LinearModel {
    #[inline]
    fn predict(&self, key: K) -> usize {
        if self.n == 0 {
            return 0;
        }
        let p = self.predict_f64(key.to_f64());
        let p = if p > 0.0 { p } else { 0.0 };
        (p as usize).min(self.n - 1)
    }

    fn key_count(&self) -> usize {
        self.n
    }

    fn size_bytes(&self) -> usize {
        2 * std::mem::size_of::<f64>()
    }

    fn name(&self) -> &'static str {
        "Linear"
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use sosd_data::generators::SosdName;

    #[test]
    fn interpolation_is_exact_on_perfectly_linear_data() {
        let keys: Vec<u64> = (0..1000u64).map(|i| 100 + i * 10).collect();
        let d = Dataset::from_keys("lin", keys);
        let m = InterpolationModel::build(&d);
        for (i, &k) in d.as_slice().iter().enumerate() {
            assert_eq!(CdfModel::<u64>::predict(&m, k), i);
        }
        assert_eq!(CdfModel::<u64>::size_bytes(&m), 16);
    }

    #[test]
    fn interpolation_clamps_out_of_range_queries() {
        let d = Dataset::from_keys("d", vec![100u64, 200, 300]);
        let m = InterpolationModel::build(&d);
        assert_eq!(CdfModel::<u64>::predict(&m, 0), 0);
        assert_eq!(CdfModel::<u64>::predict(&m, 10_000), 2);
    }

    /// Keys at the edges of the `u64` → `f64` conversions.
    pub(crate) fn conversion_edges() -> Vec<u64> {
        let (p53, p63) = (1u64 << 53, 1u64 << 63);
        vec![0, 1, p53 - 1, p53, p53 + 1, p63 - 1, p63, p63 + 1, u64::MAX]
    }

    #[test]
    fn batched_predictions_equal_the_per_key_ones() {
        // IM's run of predictions clamps in `f64` and truncates once; key by
        // key it equals `predict_clamped`, on every generator, on columns of
        // one, two and equal keys, and at the conversions' edges.
        let stride: Vec<u64> = (0..1u64 << 16).map(|i| i * 4_099).collect();
        let mut columns: Vec<Vec<u64>> = vec![vec![], vec![7], vec![3, 9], vec![5; 64], stride];
        columns.extend(SosdName::all().map(|name| name.generate(20_000, 11).into_keys()));
        columns.push(conversion_edges());
        for keys in &columns {
            let m = InterpolationModel::from_sorted_keys(keys);
            let mut queries: Vec<u64> = keys
                .iter()
                .step_by(7)
                .chain(&conversion_edges())
                .flat_map(|&k| [k.saturating_sub(1), k, k.saturating_add(1)])
                .collect();
            queries.sort_unstable();
            let mut out = vec![u32::MAX; queries.len()];
            CdfModel::<u64>::predict_clamped_into(&m, &queries, &mut out);
            for (&q, &p) in queries.iter().zip(&out) {
                let want = CdfModel::<u64>::predict_clamped(&m, q);
                assert_eq!(p as usize, want, "n={} key {q}", keys.len());
            }
        }
    }

    #[test]
    fn interpolation_handles_degenerate_inputs() {
        let empty: Dataset<u64> = Dataset::from_keys("e", vec![]);
        let m = InterpolationModel::build(&empty);
        assert_eq!(CdfModel::<u64>::predict(&m, 42), 0);

        let single = Dataset::from_keys("s", vec![7u64]);
        let m = InterpolationModel::build(&single);
        assert_eq!(CdfModel::<u64>::predict(&m, 7), 0);

        let constant = Dataset::from_keys("c", vec![5u64; 100]);
        let m = InterpolationModel::build(&constant);
        assert_eq!(CdfModel::<u64>::predict(&m, 5), 0);
    }

    #[test]
    fn least_squares_matches_hand_computed_fit() {
        // y = 2x exactly: keys 0, 0.5, 1.0, ... can't be integers, use y = x/2.
        let keys: Vec<u64> = (0..100u64).map(|i| i * 2).collect();
        let m = LinearModel::from_sorted_keys(&keys);
        assert!((m.slope() - 0.5).abs() < 1e-9, "slope {}", m.slope());
        assert!(m.intercept().abs() < 1e-6, "intercept {}", m.intercept());
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(CdfModel::<u64>::predict(&m, k), i);
        }
    }

    #[test]
    fn least_squares_beats_interpolation_on_skewed_data() {
        // On lognormal data the min/max line is a terrible fit; the
        // least-squares line should have a lower sum of squared residuals.
        let d: Dataset<u64> = SosdName::Logn64.generate(20_000, 3);
        let im = InterpolationModel::build(&d);
        let ls = LinearModel::build(&d);
        let sse = |f: &dyn Fn(u64) -> usize| -> f64 {
            d.as_slice()
                .iter()
                .enumerate()
                .map(|(i, &k)| {
                    let e = f(k) as f64 - i as f64;
                    e * e
                })
                .sum()
        };
        let sse_im = sse(&|k| CdfModel::<u64>::predict(&im, k));
        let sse_ls = sse(&|k| CdfModel::<u64>::predict(&ls, k));
        assert!(
            sse_ls <= sse_im,
            "least squares ({sse_ls}) should not be worse than min/max ({sse_im})"
        );
    }

    #[test]
    fn linear_model_degenerate_inputs() {
        let m = LinearModel::fit(std::iter::empty(), 0);
        assert_eq!(CdfModel::<u64>::predict(&m, 10), 0);
        let m = LinearModel::from_sorted_keys(&[9u64; 50]);
        // All keys equal: prediction is the middle of the run and in range.
        let p = CdfModel::<u64>::predict(&m, 9);
        assert!(p < 50);
    }

    #[test]
    fn models_are_monotone_on_real_world_data() {
        let d: Dataset<u64> = SosdName::Face64.generate(10_000, 1);
        let im = InterpolationModel::build(&d);
        let ls = LinearModel::build(&d);
        assert!(crate::model::verify_monotonic_on::<u64, _>(
            &im,
            d.as_slice()
        ));
        assert!(crate::model::verify_monotonic_on::<u64, _>(
            &ls,
            d.as_slice()
        ));
    }
}
