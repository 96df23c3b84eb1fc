//! PGM-style multi-level piecewise-linear CDF model.
//!
//! The Piecewise Geometric Model index (Ferragina & Vinciguerra, VLDB 2020)
//! is the best-known error-bounded learned index besides RadixSpline; the
//! paper cites it as related work. It is included here (a) to show the
//! Shift-Table layer is model-agnostic and (b) as an ablation point for the
//! Figure 8 index-size sweeps.
//!
//! The structure is a hierarchy of error-bounded piecewise-linear levels: the
//! bottom level's segments map keys to record positions within ±ε; each upper
//! level indexes the first-keys of the level below it, again within ±ε.
//! Lookup descends from the single root segment, at each level correcting the
//! predicted child segment with a small bounded scan.
//!
//! The model never decreases, over every key. Each upper level predicts,
//! within ε + 1, the index of the last knot of the level below whose key is
//! at most the query's, so the bounded scan finds that knot — which never
//! moves left as the key grows — and the bottom level's interpolation is
//! clamped to its segment's positions `[a.pos, b.pos]`, ending where the
//! next segment starts.

use crate::model::CdfModel;
use crate::spline::{predict_from_points, GreedySplineCorridor, SplinePoint};
use sosd_data::dataset::Dataset;
use sosd_data::key::Key;

/// Default error bound ε (records / segments).
pub const DEFAULT_EPSILON: usize = 64;

/// One level of the PGM: spline knots over the entities of the level below.
#[derive(Debug, Clone)]
struct Level {
    points: Vec<SplinePoint>,
}

/// PGM-style multi-level error-bounded piecewise-linear model.
#[derive(Debug, Clone)]
pub struct PgmModel {
    /// Levels from the bottom (over the data) to the top (root, one segment
    /// worth of knots small enough to scan directly).
    levels: Vec<Level>,
    epsilon: usize,
    n: usize,
}

impl PgmModel {
    /// Build with the default ε.
    pub fn build<K: Key>(dataset: &Dataset<K>) -> Self {
        Self::with_epsilon(dataset, DEFAULT_EPSILON)
    }

    /// Build with an explicit error bound ε (records).
    pub fn with_epsilon<K: Key>(dataset: &Dataset<K>, epsilon: usize) -> Self {
        Self::from_sorted_keys(dataset.as_slice(), epsilon)
    }

    /// Build from a sorted key slice with error bound ε.
    pub fn from_sorted_keys<K: Key>(keys: &[K], epsilon: usize) -> Self {
        let n = keys.len();
        let epsilon = epsilon.max(1);
        if n == 0 {
            return Self {
                levels: Vec::new(),
                epsilon,
                n: 0,
            };
        }
        let corridor = GreedySplineCorridor::new(epsilon);
        let bottom = corridor.fit(keys);
        let mut levels = vec![Level { points: bottom }];

        // Build upper levels over the first-keys of the level below until the
        // top level is small enough to scan directly.
        while levels.last().map(|l| l.points.len()).unwrap_or(0) > 2 * epsilon + 4 {
            let below = &levels.last().unwrap().points;
            let keys_above: Vec<u64> = below.iter().map(|p| p.key).collect();
            let above = corridor.fit(&keys_above);
            if above.len() >= below.len() {
                break; // no compression achieved; stop stacking levels
            }
            levels.push(Level { points: above });
        }

        Self { levels, epsilon, n }
    }

    /// The error bound ε.
    pub fn epsilon(&self) -> usize {
        self.epsilon
    }

    /// Number of levels (≥ 1 for non-empty data).
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }

    /// Number of segments (knots) in the bottom level.
    pub fn segment_count(&self) -> usize {
        self.levels.first().map(|l| l.points.len()).unwrap_or(0)
    }

    /// Raw `f64` prediction (before truncation).
    pub fn predict_f64(&self, key: u64) -> f64 {
        let Some(bottom) = self.levels.first() else {
            return 0.0;
        };
        if self.levels.len() == 1 {
            return predict_from_points(&bottom.points, key);
        }
        // Descend: at each level, predict the knot index in the level below,
        // then correct it with a bounded scan of ±ε around the prediction.
        let top = self.levels.last().unwrap();
        let mut predicted_idx = predict_from_points(&top.points, key) as usize;
        for level_idx in (0..self.levels.len() - 1).rev() {
            let level = &self.levels[level_idx];
            let points = &level.points;
            let lo = predicted_idx.saturating_sub(self.epsilon + 1);
            let hi = (predicted_idx + self.epsilon + 2).min(points.len());
            let window = &points[lo..hi.max(lo)];
            // Find the last knot in the window with knot.key <= key.
            let rel = window.partition_point(|p| p.key <= key);
            let seg_start = if rel == 0 { lo } else { lo + rel - 1 };
            if level_idx == 0 {
                let a = points[seg_start];
                let b = points[(seg_start + 1).min(points.len() - 1)];
                let p = crate::spline::interpolate_segment(a, b, key);
                return p.max(a.pos as f64).min(b.pos as f64);
            }
            // The knot position in an upper level *is* the index into the
            // level below (upper levels are built over the below level's
            // knot keys, so pos == child index).
            let a = points[seg_start];
            let b = points[(seg_start + 1).min(points.len() - 1)];
            predicted_idx = crate::spline::interpolate_segment(a, b, key) as usize;
        }
        unreachable!("loop always returns at level 0")
    }
}

impl<K: Key> CdfModel<K> for PgmModel {
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
        self.levels
            .iter()
            .map(|l| l.points.len() * std::mem::size_of::<SplinePoint>())
            .sum()
    }

    fn name(&self) -> &'static str {
        "PGM"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ModelErrorStats;
    use sosd_data::generators::SosdName;

    #[test]
    fn error_bound_holds_on_all_datasets() {
        for name in SosdName::all() {
            let d: Dataset<u64> = name.generate(20_000, 11);
            let pgm = PgmModel::with_epsilon(&d, 64);
            let mut last = None;
            for (i, &k) in d.as_slice().iter().enumerate() {
                if last == Some(k) {
                    continue;
                }
                last = Some(k);
                let p = CdfModel::<u64>::predict(&pgm, k) as i64;
                let err = (p - i as i64).unsigned_abs() as usize;
                assert!(err <= 65, "{name}: key {k} pos {i} predicted {p} err {err}");
            }
        }
    }

    #[test]
    fn multiple_levels_emerge_on_hard_data() {
        let d: Dataset<u64> = SosdName::Osmc64.generate(100_000, 1);
        let pgm = PgmModel::with_epsilon(&d, 8);
        assert!(
            pgm.level_count() >= 2,
            "hard data with small ε should need a hierarchy, got {} levels of {} segments",
            pgm.level_count(),
            pgm.segment_count()
        );
    }

    #[test]
    fn easy_data_needs_one_tiny_level() {
        let d: Dataset<u64> = SosdName::Uden64.generate(100_000, 1);
        let pgm = PgmModel::with_epsilon(&d, 64);
        assert_eq!(pgm.level_count(), 1);
        assert!(pgm.segment_count() < 16);
    }

    #[test]
    fn smaller_epsilon_means_lower_error_and_bigger_model() {
        let d: Dataset<u64> = SosdName::Face64.generate(50_000, 2);
        let coarse = PgmModel::with_epsilon(&d, 256);
        let fine = PgmModel::with_epsilon(&d, 8);
        let e_coarse = ModelErrorStats::compute(&coarse, &d).mean_abs;
        let e_fine = ModelErrorStats::compute(&fine, &d).mean_abs;
        assert!(e_fine < e_coarse);
        assert!(CdfModel::<u64>::size_bytes(&fine) > CdfModel::<u64>::size_bytes(&coarse));
    }

    #[test]
    fn degenerate_inputs() {
        let empty: Dataset<u64> = Dataset::from_keys("e", vec![]);
        let pgm = PgmModel::build(&empty);
        assert_eq!(CdfModel::<u64>::predict(&pgm, 5), 0);

        let single = Dataset::from_keys("s", vec![9u64]);
        let pgm = PgmModel::build(&single);
        assert_eq!(CdfModel::<u64>::predict(&pgm, 9), 0);
        assert_eq!(CdfModel::<u64>::predict(&pgm, 1000), 0);

        let dup = Dataset::from_keys("d", vec![5u64; 200]);
        let pgm = PgmModel::build(&dup);
        assert_eq!(CdfModel::<u64>::predict(&pgm, 5), 0);
    }

    #[test]
    fn out_of_range_queries_clamp() {
        let d: Dataset<u64> = SosdName::Wiki64.generate(10_000, 3);
        let pgm = PgmModel::build(&d);
        assert!(CdfModel::<u64>::predict(&pgm, 0) < d.len());
        assert!(CdfModel::<u64>::predict(&pgm, u64::MAX) < d.len());
    }
}
