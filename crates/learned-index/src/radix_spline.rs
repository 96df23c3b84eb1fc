//! RadixSpline (RS): a single-pass learned index made of an error-bounded
//! linear spline plus a radix table over key prefixes.
//!
//! This is the paper's "RS" baseline. Construction is a single pass: the
//! greedy spline corridor emits knots with a hard error bound, and a radix
//! table maps the top `radix_bits` of (key − min) to the knot range that can
//! contain the key, so locating the right spline segment costs a small,
//! bounded search instead of a full binary search over all knots.

use crate::model::CdfModel;
use crate::spline::{interpolate_segment, GreedySplineCorridor, SplinePoint};
use sosd_data::dataset::Dataset;
use sosd_data::key::Key;

/// Default spline error bound (records).
pub const DEFAULT_MAX_ERROR: usize = 32;
/// Default number of radix bits.
pub const DEFAULT_RADIX_BITS: u32 = 18;

/// Builder for [`RadixSpline`].
#[derive(Debug, Clone)]
pub struct RadixSplineBuilder {
    max_error: usize,
    radix_bits: u32,
}

impl Default for RadixSplineBuilder {
    fn default() -> Self {
        Self {
            max_error: DEFAULT_MAX_ERROR,
            radix_bits: DEFAULT_RADIX_BITS,
        }
    }
}

impl RadixSplineBuilder {
    /// Set the spline error bound in records (≥ 1).
    pub fn max_error(mut self, max_error: usize) -> Self {
        self.max_error = max_error.max(1);
        self
    }

    /// Set the number of radix bits (1..=26 to keep the table reasonable).
    pub fn radix_bits(mut self, bits: u32) -> Self {
        self.radix_bits = bits.clamp(1, 26);
        self
    }

    /// Build the index over a dataset.
    pub fn build<K: Key>(self, dataset: &Dataset<K>) -> RadixSpline {
        self.build_from_sorted_keys(dataset.as_slice())
    }

    /// Build the index over a sorted key slice.
    pub fn build_from_sorted_keys<K: Key>(self, keys: &[K]) -> RadixSpline {
        let n = keys.len();
        if n == 0 {
            return RadixSpline {
                points: Vec::new(),
                radix_table: vec![0, 0],
                min_key: 0,
                shift: 63,
                max_error: self.max_error,
                n: 0,
            };
        }
        let min_key = keys[0].to_u64();
        let max_key = keys[n - 1].to_u64();
        let points = GreedySplineCorridor::new(self.max_error).fit(keys);

        // Number of bits needed to represent (max - min), and the shift that
        // maps that range onto `radix_bits` buckets.
        let span = max_key - min_key;
        let significant_bits = 64 - span.leading_zeros();
        let radix_bits = self.radix_bits.min(significant_bits.max(1));
        let shift = significant_bits.saturating_sub(radix_bits);
        // One entry per prefix value plus a terminator, so bucket `p` can read
        // the half-open knot range [table[p], table[p+1]].
        let table_len = (1usize << radix_bits) + 1;
        let mut radix_table = vec![0u32; table_len];
        let mut knot = 0usize;
        for (p, entry) in radix_table.iter_mut().enumerate() {
            while knot < points.len() && (((points[knot].key - min_key) >> shift) as usize) < p {
                knot += 1;
            }
            *entry = knot as u32;
        }

        RadixSpline {
            points,
            radix_table,
            min_key,
            shift,
            max_error: self.max_error,
            n,
        }
    }
}

/// The RadixSpline learned index (CDF model component).
#[derive(Debug, Clone)]
pub struct RadixSpline {
    points: Vec<SplinePoint>,
    radix_table: Vec<u32>,
    min_key: u64,
    shift: u32,
    max_error: usize,
    n: usize,
}

impl RadixSpline {
    /// Start building a RadixSpline.
    pub fn builder() -> RadixSplineBuilder {
        RadixSplineBuilder::default()
    }

    /// Build with default parameters.
    pub fn build<K: Key>(dataset: &Dataset<K>) -> Self {
        Self::builder().build(dataset)
    }

    /// Number of spline knots.
    pub fn num_points(&self) -> usize {
        self.points.len()
    }

    /// The configured error bound.
    pub fn error_bound(&self) -> usize {
        self.max_error
    }

    #[inline]
    fn radix_bucket(&self, key: u64) -> usize {
        let offset = key.saturating_sub(self.min_key);
        ((offset >> self.shift) as usize).min(self.radix_table.len().saturating_sub(2))
    }

    /// Raw `f64` prediction (before truncation), exposed for tests.
    #[inline]
    pub fn predict_f64(&self, key: u64) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        if key <= self.points[0].key {
            return self.points[0].pos as f64;
        }
        let last = self.points[self.points.len() - 1];
        if key >= last.key {
            return last.pos as f64;
        }
        // Narrow the knot range via the radix table, then binary search the
        // narrowed range for the first knot with knot.key > key.
        let bucket = self.radix_bucket(key);
        let lo = self.radix_table[bucket] as usize;
        let hi = (self.radix_table[bucket + 1] as usize + 1).min(self.points.len());
        let slice = &self.points[lo.min(hi)..hi];
        let rel = slice.partition_point(|p| p.key <= key);
        let idx = lo + rel;
        // idx is the first knot strictly greater than key; it is >= 1 because
        // key > points[0].key, and <= len-1 because key < last.key.
        let idx = idx.clamp(1, self.points.len() - 1);
        interpolate_segment(self.points[idx - 1], self.points[idx], key)
    }
}

impl<K: Key> CdfModel<K> for RadixSpline {
    #[inline]
    fn predict(&self, key: K) -> usize {
        if self.n == 0 {
            return 0;
        }
        let p = self.predict_f64(key.to_u64());
        let p = if p > 0.0 { p } else { 0.0 };
        (p as usize).min(self.n - 1)
    }

    fn key_count(&self) -> usize {
        self.n
    }

    fn size_bytes(&self) -> usize {
        self.points.len() * std::mem::size_of::<SplinePoint>()
            + self.radix_table.len() * std::mem::size_of::<u32>()
    }

    fn name(&self) -> &'static str {
        "RS"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::verify_monotonic_on;
    use sosd_data::generators::SosdName;

    #[test]
    fn error_bound_holds_on_all_datasets() {
        for name in SosdName::all() {
            let d: Dataset<u64> = name.generate(20_000, 7);
            let rs = RadixSpline::builder().max_error(32).build(&d);
            let keys = d.as_slice();
            let mut last = None;
            for (i, &k) in keys.iter().enumerate() {
                if last == Some(k) {
                    continue; // duplicates interpolate to the first occurrence
                }
                last = Some(k);
                let p = CdfModel::<u64>::predict(&rs, k) as f64;
                assert!(
                    (p - i as f64).abs() <= 33.0,
                    "{name}: key {k} pos {i} predicted {p}"
                );
            }
        }
    }

    #[test]
    fn spline_count_grows_with_data_difficulty() {
        let easy: Dataset<u64> = SosdName::Uden64.generate(50_000, 1);
        let hard: Dataset<u64> = SosdName::Osmc64.generate(50_000, 1);
        let rs_easy = RadixSpline::builder().max_error(32).build(&easy);
        let rs_hard = RadixSpline::builder().max_error(32).build(&hard);
        assert!(
            rs_hard.num_points() > 2 * rs_easy.num_points(),
            "osmc needs {} knots, uden {}",
            rs_hard.num_points(),
            rs_easy.num_points()
        );
    }

    #[test]
    fn never_decreases_over_training_and_gap_keys() {
        let d: Dataset<u64> = SosdName::Face64.generate(30_000, 2);
        let rs = RadixSpline::builder().max_error(16).build(&d);
        assert!(verify_monotonic_on::<u64, _>(&rs, d.as_slice()));
        let mut probes: Vec<u64> = d
            .as_slice()
            .iter()
            .flat_map(|&k| [k.saturating_sub(1), k, k.saturating_add(1)])
            .chain([0, u64::MAX])
            .collect();
        probes.sort_unstable();
        assert!(verify_monotonic_on::<u64, _>(&rs, &probes));
    }

    #[test]
    fn out_of_range_queries_clamp() {
        let d: Dataset<u64> = SosdName::Uspr64.generate(10_000, 3);
        let rs = RadixSpline::build(&d);
        assert_eq!(CdfModel::<u64>::predict(&rs, 0), 0);
        assert_eq!(CdfModel::<u64>::predict(&rs, u64::MAX), d.len() - 1);
    }

    #[test]
    fn radix_bits_tradeoff_affects_size_not_correctness() {
        let d: Dataset<u64> = SosdName::Amzn64.generate(20_000, 4);
        let small = RadixSpline::builder().max_error(64).radix_bits(8).build(&d);
        let large = RadixSpline::builder()
            .max_error(64)
            .radix_bits(20)
            .build(&d);
        assert!(CdfModel::<u64>::size_bytes(&large) > CdfModel::<u64>::size_bytes(&small));
        for &k in d.as_slice().iter().step_by(97) {
            let i = d.lower_bound(k);
            for rs in [&small, &large] {
                let p = CdfModel::<u64>::predict(rs, k) as f64;
                assert!((p - i as f64).abs() <= 65.0);
            }
        }
    }

    #[test]
    fn empty_and_tiny_datasets() {
        let empty: Dataset<u64> = Dataset::from_keys("e", vec![]);
        let rs = RadixSpline::build(&empty);
        assert_eq!(CdfModel::<u64>::predict(&rs, 9), 0);
        assert_eq!(CdfModel::<u64>::key_count(&rs), 0);

        let one = Dataset::from_keys("one", vec![5u64]);
        let rs = RadixSpline::build(&one);
        assert_eq!(CdfModel::<u64>::predict(&rs, 5), 0);
        assert_eq!(CdfModel::<u64>::predict(&rs, 1000), 0);

        let dup = Dataset::from_keys("dup", vec![5u64; 64]);
        let rs = RadixSpline::build(&dup);
        assert_eq!(CdfModel::<u64>::predict(&rs, 5), 0);
    }

    #[test]
    fn works_with_u32_keys() {
        let d: Dataset<u32> = SosdName::Face32.generate(20_000, 5);
        let rs = RadixSpline::builder().max_error(32).build(&d);
        for &k in d.as_slice().iter().step_by(53) {
            let i = d.lower_bound(k);
            let p = CdfModel::<u32>::predict(&rs, k) as f64;
            assert!((p - i as f64).abs() <= 33.0);
        }
    }
}
