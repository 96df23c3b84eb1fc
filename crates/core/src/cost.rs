//! The hardware cost model and the tuning rules (§3.7, §3.9).
//!
//! The paper models the average lookup latency of a corrected index as
//!
//! ```text
//! Latency(with layer)    = Latency(F_θ) + layer_lookup + (1/N) Σ_k C_k · L(C_k)     (Eq. 9)
//! Latency(without layer) = Latency(F_θ)                + (1/N) Σ_k C_k · L(|Δ̄_k|)   (Eq. 10)
//! ```
//!
//! where `L(s)` is the measured latency of a last-mile search over `s`
//! non-cached records — exactly the error-to-latency curve of Figure 2a.
//! The sums run over the partitions holding keys — `C_k` is 0 for an empty
//! one — so each key is counted once, in its own partition's window.
//! [`LatencyModel`] holds that curve (either the built-in default calibrated
//! from the paper's numbers, or one measured at runtime by the benchmark
//! harness) and [`TuningAdvisor`] applies the §3.9 decision rules: skip the
//! layer when the model is already accurate, or when the layer does not buy
//! a 10× error reduction.

use crate::config::ShiftTableConfig;
use crate::table::ShiftTable;

/// Piecewise-linear (in log-error space) model of the last-mile search
/// latency `L(s)` in nanoseconds for a search window of `s` records.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyModel {
    /// `(window_size, nanoseconds)` calibration points, sorted by window size.
    points: Vec<(f64, f64)>,
    /// Cost of one extra DRAM lookup (the Shift-Table probe), nanoseconds.
    layer_lookup_ns: f64,
}

impl Default for LatencyModel {
    /// Default curve transcribed from the paper's Figure 2a (binary local
    /// search on the SOSD Skylake setup; DRAM latency ≈ 36 ns, layer lookup
    /// ≈ 40 ns). Absolute values differ on other machines, but the *shape*
    /// (flat until ~100 records, then logarithmic growth) is what the tuning
    /// decisions depend on; the harness can re-measure it at runtime.
    fn default() -> Self {
        Self {
            points: vec![
                (1.0, 40.0),
                (10.0, 60.0),
                (100.0, 110.0),
                (1_000.0, 200.0),
                (10_000.0, 330.0),
                (100_000.0, 480.0),
                (1_000_000.0, 700.0),
                (10_000_000.0, 900.0),
            ],
            layer_lookup_ns: 40.0,
        }
    }
}

impl LatencyModel {
    /// Build a latency model from measured `(window_size, ns)` points.
    /// Points are sorted; at least one point is required.
    pub fn from_points(mut points: Vec<(f64, f64)>, layer_lookup_ns: f64) -> Self {
        // lint: allow(panic) documented API contract: a latency model without points has no meaning
        assert!(!points.is_empty(), "latency model needs at least one point");
        points.sort_by(|a, b| a.0.total_cmp(&b.0));
        Self {
            points,
            layer_lookup_ns,
        }
    }

    /// Cost of the extra layer lookup in nanoseconds.
    pub fn layer_lookup_ns(&self) -> f64 {
        self.layer_lookup_ns
    }

    /// `L(s)`: interpolated latency (ns) of a last-mile search over `s`
    /// records. Interpolation is linear in `log2(s)`; sizes outside the
    /// calibrated range clamp to the nearest point.
    pub fn search_latency_ns(&self, window: f64) -> f64 {
        let w = window.max(1.0);
        let first = self.points[0];
        let last = self.points[self.points.len() - 1];
        if w <= first.0 {
            return first.1;
        }
        if w >= last.0 {
            return last.1;
        }
        let idx = self.points.partition_point(|p| p.0 <= w);
        let (x0, y0) = self.points[idx - 1];
        let (x1, y1) = self.points[idx];
        let t = (w.log2() - x0.log2()) / (x1.log2() - x0.log2());
        y0 + t * (y1 - y0)
    }

    /// Eq. 9: expected lookup latency (ns) of `model + Shift-Table`.
    pub fn latency_with_layer(&self, model_latency_ns: f64, table: &ShiftTable) -> f64 {
        let n = table.len() as f64;
        if n == 0.0 {
            return model_latency_ns + self.layer_lookup_ns;
        }
        let weighted: f64 = table
            .window_lengths()
            .filter(|&c| c > 0)
            .map(|c| c as f64 * self.search_latency_ns(c as f64))
            .sum();
        model_latency_ns + self.layer_lookup_ns + weighted / n
    }

    /// Eq. 10: expected lookup latency (ns) of the model alone, estimated
    /// from the layer's record of the model error (`|Δ̄_k| = |Δ_k + C_k/2|`).
    pub fn latency_without_layer(&self, model_latency_ns: f64, table: &ShiftTable) -> f64 {
        let n = table.len() as f64;
        if n == 0.0 {
            return model_latency_ns;
        }
        let weighted: f64 = table
            .entries()
            .filter(|e| e.count > 0)
            .map(|e| {
                let mid = (e.delta + e.count as i64 / 2).unsigned_abs() as f64;
                e.count as f64 * self.search_latency_ns(mid.max(1.0))
            })
            .sum();
        model_latency_ns + weighted / n
    }
}

/// §4.1: skip the layer when the model's mean absolute error is already
/// below this many records ("less than a threshold (10 records)").
pub const MIN_ERROR_TO_ENABLE: f64 = 10.0;

/// §4.1: skip the layer unless it cuts the mean error by at least this
/// factor ("does not decrease by a factor of 10").
pub const MIN_IMPROVEMENT_FACTOR: f64 = 10.0;

/// The outcome of the §3.9 tuning procedure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TuningDecision {
    /// Use the learned model alone (the layer would not pay for itself).
    ModelAlone,
    /// Attach the Shift-Table layer.
    ModelWithShiftTable,
}

/// Applies the paper's tuning rules to decide whether the layer should be
/// enabled and which local search to use.
#[derive(Debug, Clone)]
pub struct TuningAdvisor {
    latency: LatencyModel,
    config: ShiftTableConfig,
}

impl TuningAdvisor {
    /// Advisor with the default latency curve and configuration.
    pub fn new() -> Self {
        Self::with(LatencyModel::default(), ShiftTableConfig::default())
    }

    /// Advisor with an explicit latency curve and configuration.
    pub fn with(latency: LatencyModel, config: ShiftTableConfig) -> Self {
        Self { latency, config }
    }

    /// The latency model in use.
    pub fn latency_model(&self) -> &LatencyModel {
        &self.latency
    }

    /// Decide whether to attach the layer, given the model's mean absolute
    /// error before correction and the expected error after correction
    /// (Eq. 8). Mirrors §4.1: skip when the model is already accurate
    /// (error < [`MIN_ERROR_TO_ENABLE`]) or when correction does not
    /// improve the error by [`MIN_IMPROVEMENT_FACTOR`].
    pub fn decide(&self, error_before: f64, error_after: f64) -> TuningDecision {
        if error_before < MIN_ERROR_TO_ENABLE {
            return TuningDecision::ModelAlone;
        }
        if error_after > 0.0 && error_before / error_after < MIN_IMPROVEMENT_FACTOR {
            return TuningDecision::ModelAlone;
        }
        TuningDecision::ModelWithShiftTable
    }

    /// Decide using the full cost model (Eqs. 9/10) instead of the error
    /// heuristics: attach the layer only if its estimated latency is lower.
    pub fn decide_by_latency(&self, model_latency_ns: f64, table: &ShiftTable) -> TuningDecision {
        let with = self.latency.latency_with_layer(model_latency_ns, table);
        let without = self.latency.latency_without_layer(model_latency_ns, table);
        if with < without {
            TuningDecision::ModelWithShiftTable
        } else {
            TuningDecision::ModelAlone
        }
    }

    /// Which local search Algorithm 1 should use for a window of `window`
    /// records (§3.8): linear below the threshold, binary above.
    pub fn local_search_for_window(&self, window: usize) -> LocalSearchChoice {
        if window < self.config.linear_to_binary_threshold {
            LocalSearchChoice::Linear
        } else {
            LocalSearchChoice::Binary
        }
    }
}

impl Default for TuningAdvisor {
    fn default() -> Self {
        Self::new()
    }
}

/// Local-search algorithm selected for a bounded window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalSearchChoice {
    /// Short windows: forward linear scan.
    Linear,
    /// Longer windows: branchless binary search.
    Binary,
}

#[cfg(test)]
mod tests {
    use super::*;
    use learned_index::linear::InterpolationModel;
    use learned_index::ModelErrorStats;
    use sosd_data::prelude::*;

    #[test]
    fn latency_curve_is_monotone_and_clamped() {
        let m = LatencyModel::default();
        assert_eq!(m.search_latency_ns(0.5), m.search_latency_ns(1.0));
        assert_eq!(m.search_latency_ns(1e9), m.search_latency_ns(1e7));
        let mut prev = 0.0;
        for s in [1.0, 5.0, 50.0, 500.0, 5e3, 5e4, 5e5, 5e6] {
            let l = m.search_latency_ns(s);
            assert!(l >= prev, "L({s}) = {l} must be non-decreasing");
            prev = l;
        }
    }

    #[test]
    fn interpolation_passes_through_calibration_points() {
        let m = LatencyModel::from_points(vec![(1.0, 10.0), (100.0, 50.0)], 5.0);
        assert_eq!(m.search_latency_ns(1.0), 10.0);
        assert_eq!(m.search_latency_ns(100.0), 50.0);
        let mid = m.search_latency_ns(10.0);
        assert!((mid - 30.0).abs() < 1e-9, "log-space midpoint, got {mid}");
        assert_eq!(m.layer_lookup_ns(), 5.0);
    }

    #[cfg_attr(miri, ignore = "dataset too large for Miri")]
    #[test]
    fn eq9_eq10_favour_the_layer_when_the_model_is_bad() {
        // Model with a large bias: it predicts key `i` at `n/2 + i/2`, so
        // the lower half of the partitions is empty and the upper half holds
        // two keys each, `|Δ|` up to `n/2` behind. Without the layer every
        // lookup searches a huge area; with it every lookup searches its
        // window of 2 only.
        let n: usize = 100_000;
        let starts: Vec<usize> = (0..n).map(|k| 2 * k.saturating_sub(n / 2)).collect();
        let table = ShiftTable::from_starts(&starts);
        assert_eq!(table.window_lengths().sum::<u64>(), n as u64);
        let m = LatencyModel::default();
        let with = m.latency_with_layer(100.0, &table);
        let without = m.latency_without_layer(100.0, &table);
        assert!(
            with < without,
            "layer should win on a heavily biased model: {with} vs {without}"
        );
        let advisor = TuningAdvisor::new();
        assert_eq!(
            advisor.decide_by_latency(100.0, &table),
            TuningDecision::ModelWithShiftTable
        );
    }

    #[test]
    fn eq9_eq10_favour_the_model_alone_when_it_is_already_accurate() {
        // A near-perfect model: windows of 1, drift 0 → the layer only adds
        // its 40 ns lookup.
        let table = ShiftTable::from_starts(&(0..1_000).collect::<Vec<_>>());
        let m = LatencyModel::default();
        let with = m.latency_with_layer(100.0, &table);
        let without = m.latency_without_layer(100.0, &table);
        assert!(without < with);
        assert_eq!(
            TuningAdvisor::new().decide_by_latency(100.0, &table),
            TuningDecision::ModelAlone
        );
    }

    #[cfg_attr(miri, ignore = "dataset too large for Miri")]
    #[test]
    fn heuristic_decision_rules_match_section_4_1() {
        let advisor = TuningAdvisor::new();
        // Error already below 10 records → model alone.
        assert_eq!(advisor.decide(5.0, 0.5), TuningDecision::ModelAlone);
        // Less than 10× improvement → model alone.
        assert_eq!(advisor.decide(500.0, 100.0), TuningDecision::ModelAlone);
        // Large error, large improvement → attach the layer.
        assert_eq!(
            advisor.decide(10_000.0, 3.0),
            TuningDecision::ModelWithShiftTable
        );
    }

    #[cfg_attr(miri, ignore = "dataset too large for Miri")]
    #[test]
    fn real_dataset_decision_matches_the_papers_story() {
        // uden: the dummy model is already near-perfect → model alone.
        // face: the dummy model drifts badly, the layer fixes it → attach.
        let advisor = TuningAdvisor::new();

        let uden: Dataset<u64> = SosdName::Uden64.generate(50_000, 1);
        let model = InterpolationModel::build(&uden);
        let before = ModelErrorStats::compute(&model, &uden).mean_abs;
        let table = ShiftTable::build(&model, uden.as_slice());
        assert_eq!(
            advisor.decide(before, table.expected_error()),
            TuningDecision::ModelAlone,
            "uden64: before={before}, after={}",
            table.expected_error()
        );

        let face: Dataset<u64> = SosdName::Face64.generate(50_000, 1);
        let model = InterpolationModel::build(&face);
        let before = ModelErrorStats::compute(&model, &face).mean_abs;
        let table = ShiftTable::build(&model, face.as_slice());
        assert_eq!(
            advisor.decide(before, table.expected_error()),
            TuningDecision::ModelWithShiftTable,
            "face64: before={before}, after={}",
            table.expected_error()
        );
    }

    #[cfg_attr(miri, ignore = "dataset too large for Miri")]
    #[test]
    fn local_search_choice_uses_the_threshold() {
        let advisor = TuningAdvisor::new();
        assert_eq!(
            advisor.local_search_for_window(1),
            LocalSearchChoice::Linear
        );
        assert_eq!(
            advisor.local_search_for_window(7),
            LocalSearchChoice::Linear
        );
        assert_eq!(
            advisor.local_search_for_window(8),
            LocalSearchChoice::Binary
        );
        assert_eq!(
            advisor.local_search_for_window(10_000),
            LocalSearchChoice::Binary
        );
    }

    #[test]
    fn empty_table_latency_is_just_the_model() {
        let table = ShiftTable::from_starts(&[]);
        let m = LatencyModel::default();
        assert_eq!(m.latency_without_layer(70.0, &table), 70.0);
        assert_eq!(m.latency_with_layer(70.0, &table), 70.0 + 40.0);
    }
}
