//! The compressed midpoint Shift-Table (the paper's S-X configurations).
//!
//! Instead of a `<Δ, C>` pair per prediction, the compact layer stores a
//! single averaged drift `Δ̄` per partition, with `M = N / X` partitions
//! (§3.4, Eq. 7). Correction adds the partition's `Δ̄` to the prediction and
//! hands the result to an *unbounded* local search (exponential search),
//! because no window can be guaranteed. Halving the entry and merging
//! partitions trades memory for accuracy — the trade-off Figure 9 sweeps.

use crate::build;
use crate::correction::{Correction, SearchHint};
use crate::entry::MidpointStorage;
use learned_index::model::CdfModel;
use sosd_data::key::Key;

/// Midpoint-mode Shift-Table with `M ≤ N` entries.
#[derive(Debug, Clone)]
pub struct CompactShiftTable {
    deltas: MidpointStorage,
    m: usize,
    n: usize,
    /// RMS residual `corrected − true` over the (sampled) build keys,
    /// recorded at build time so query-time consumers (the probe-count
    /// proxy, the tuning advisor) never have to probe the key array.
    rms_residual: f64,
}

impl CompactShiftTable {
    /// Build an S-X layer: one entry per `records_per_entry` records
    /// (`X = 1` gives the paper's S-1, `X = 100` gives S-100, ...).
    pub fn build<K: Key, M: CdfModel<K> + ?Sized>(
        model: &M,
        keys: &[K],
        records_per_entry: usize,
    ) -> Self {
        let n = keys.len();
        let x = records_per_entry.max(1);
        let m = n.div_ceil(x).max(1);
        Self::with_entry_count(model, keys, m)
    }

    /// Build with an explicit number of entries `m`.
    pub fn with_entry_count<K: Key, M: CdfModel<K> + ?Sized>(
        model: &M,
        keys: &[K],
        m: usize,
    ) -> Self {
        let m = m.max(1);
        let (deltas, rms_residual) = build::compute_midpoint_deltas_and_residual(model, keys, m, 1);
        Self {
            deltas: MidpointStorage::pack(&deltas),
            m,
            n: keys.len(),
            rms_residual,
        }
    }

    /// Sampling-based construction (§3.4): only every `sample_step`-th key is
    /// used to estimate the drifts, reducing build time to
    /// `O(S · cost(F_θ) + M)` at the cost of accuracy.
    pub fn build_from_sample<K: Key, M: CdfModel<K> + ?Sized>(
        model: &M,
        keys: &[K],
        m: usize,
        sample_step: usize,
    ) -> Self {
        let m = m.max(1);
        let sample_step = sample_step.max(1);
        // Residual measured over the same sample, preserving the O(S) build.
        let (deltas, rms_residual) =
            build::compute_midpoint_deltas_and_residual(model, keys, m, sample_step);
        Self {
            deltas: MidpointStorage::pack(&deltas),
            m,
            n: keys.len(),
            rms_residual,
        }
    }

    /// Number of entries (`M`).
    #[inline]
    pub fn len(&self) -> usize {
        self.m
    }

    /// True if the layer has no entries (never: `M ≥ 1`), kept for API
    /// symmetry.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.deltas.len() == 0
    }

    /// The compression factor `X ≈ N / M`.
    pub fn records_per_entry(&self) -> usize {
        if self.m == 0 {
            0
        } else {
            self.n.div_ceil(self.m)
        }
    }

    /// True if the narrow 16-bit encoding was selected.
    pub fn is_narrow(&self) -> bool {
        self.deltas.is_narrow()
    }

    /// Root-mean-square residual `corrected − true position` over the keys
    /// the layer was built from (§3.5: drifts spread ≈ uniformly over a
    /// partition of cardinality `C`, giving an RMS of ≈ `C/√12`). Derived
    /// from the single build pass's drift moments — no extra model sweep —
    /// and recorded on the layer; the midpoint analogue of
    /// [`crate::table::ShiftTable::expected_error`].
    #[inline]
    pub fn expected_error(&self) -> f64 {
        self.rms_residual
    }

    /// The stored midpoint drift of a partition.
    #[inline]
    pub fn delta(&self, partition: usize) -> i64 {
        if self.deltas.len() == 0 {
            0
        } else {
            self.deltas.get(partition.min(self.deltas.len() - 1))
        }
    }

    /// Corrected position for a prediction (before local search), clamped to
    /// the valid record range.
    #[inline]
    pub fn corrected_position(&self, prediction: usize) -> usize {
        if self.n == 0 {
            return 0;
        }
        let partition = build::partition_of(prediction, self.m, self.n);
        let corrected = prediction as i64 + self.delta(partition);
        corrected.clamp(0, self.n as i64 - 1) as usize
    }
}

impl Correction for CompactShiftTable {
    #[inline]
    fn correct(&self, prediction: usize) -> SearchHint {
        SearchHint::unbounded(self.corrected_position(prediction))
    }

    fn size_bytes(&self) -> usize {
        self.deltas.size_bytes()
    }

    fn entry_count(&self) -> usize {
        self.m
    }

    fn name(&self) -> &'static str {
        "Shift-Table(S-X)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use learned_index::linear::InterpolationModel;
    use sosd_data::prelude::*;

    /// Empirical mean absolute error of corrected predictions over all keys.
    fn mean_corrected_error(
        table: &CompactShiftTable,
        model: &InterpolationModel,
        d: &Dataset<u64>,
    ) -> f64 {
        let keys = d.as_slice();
        let mut sum = 0.0;
        let mut count = 0usize;
        let mut last = None;
        for (i, &k) in keys.iter().enumerate() {
            if last == Some(k) {
                continue;
            }
            last = Some(k);
            let corrected =
                table.corrected_position(learned_index::CdfModel::<u64>::predict_clamped(model, k));
            sum += (corrected as f64 - i as f64).abs();
            count += 1;
        }
        sum / count as f64
    }

    #[test]
    fn paper_table1_example() {
        // Table 1 of the paper: N = 100 keys in [0, 999], model ⌊x/10⌋,
        // M = 30 partitions. Keys 769..785 sit at positions 35..39 and are
        // all assigned to partition ⌊0.03·x⌋ = 23 with an average drift of
        // −40, correcting e.g. key 782 (prediction 78) to 38.
        struct DivTen;
        impl CdfModel<u64> for DivTen {
            fn predict(&self, key: u64) -> usize {
                (key / 10) as usize
            }
            fn key_count(&self) -> usize {
                100
            }
            fn size_bytes(&self) -> usize {
                0
            }
            fn name(&self) -> &'static str {
                "div10"
            }
        }
        let mut keys: Vec<u64> = Vec::new();
        for i in 0..34u64 {
            keys.push(i * 20); // positions 0..33
        }
        keys.extend_from_slice(&[752, 769, 770, 771, 782, 785]); // positions 34..39
        for i in 0..60u64 {
            keys.push(820 + i * 2); // positions 40..99
        }
        assert_eq!(keys.len(), 100);
        assert!(keys.is_sorted());
        let table = CompactShiftTable::with_entry_count(&DivTen, &keys, 30);
        assert_eq!(table.len(), 30);
        // Partition of prediction 77 (= ⌊771/10⌋): 77·30/100 = 23.
        // Keys in partition 23 (predictions 76..79): 769, 770, 771, 782, 785
        // with drifts −41, −41, −40, −40, −39 → mean −40 (matches Table 1's
        // Δ̄³⁰₂₃ = −40, our rounding towards zero gives −40 as well).
        assert_eq!(table.delta(23), -40, "Δ̄ for partition 23");
        // Correction of key 782 (prediction 78): 78 − 40 = 38 = true position.
        assert_eq!(table.corrected_position(78), 38);
        // Correction of key 771 (prediction 77): 77 − 40 = 37 = true position.
        assert_eq!(table.corrected_position(77), 37);
    }

    #[cfg_attr(miri, ignore = "dataset too large for Miri")]
    #[test]
    fn s1_layer_reduces_the_error_of_a_dummy_model_dramatically() {
        // Figure 6's qualitative claim on OSM-like data.
        let d: Dataset<u64> = SosdName::Osmc64.generate(100_000, 1);
        let model = InterpolationModel::build(&d);
        let uncorrected = learned_index::ModelErrorStats::compute(&model, &d).mean_abs;
        let table = CompactShiftTable::build(&model, d.as_slice(), 1);
        let corrected = mean_corrected_error(&table, &model, &d);
        assert!(
            corrected * 100.0 < uncorrected,
            "S-1 should reduce the error by orders of magnitude: {uncorrected} -> {corrected}"
        );
    }

    #[cfg_attr(miri, ignore = "dataset too large for Miri")]
    #[test]
    fn larger_compression_factor_means_smaller_layer_and_larger_error() {
        // The Figure 9 trade-off.
        let d: Dataset<u64> = SosdName::Face64.generate(50_000, 2);
        let model = InterpolationModel::build(&d);
        let s1 = CompactShiftTable::build(&model, d.as_slice(), 1);
        let s100 = CompactShiftTable::build(&model, d.as_slice(), 100);
        let s1000 = CompactShiftTable::build(&model, d.as_slice(), 1000);
        assert!(Correction::size_bytes(&s1) > Correction::size_bytes(&s100));
        assert!(Correction::size_bytes(&s100) > Correction::size_bytes(&s1000));
        let e1 = mean_corrected_error(&s1, &model, &d);
        let e100 = mean_corrected_error(&s100, &model, &d);
        let e1000 = mean_corrected_error(&s1000, &model, &d);
        assert!(
            e1 <= e100,
            "S-1 ({e1}) should not be worse than S-100 ({e100})"
        );
        assert!(
            e100 <= e1000,
            "S-100 ({e100}) should not be worse than S-1000 ({e1000})"
        );
    }

    #[cfg_attr(miri, ignore = "dataset too large for Miri")]
    #[test]
    fn s1_footprint_is_half_of_r1() {
        // §4.3: "the memory footprint of S-1 is half the size of R-1" — of
        // the paper's 4-byte `<Δ, C>` entries. Storing one `Δ` a partition
        // and no `C` brings R-1 to 64 bytes per 67 keys, below S-1's 2 a
        // key.
        let d: Dataset<u64> = SosdName::Uspr64.generate(20_000, 3);
        let model = InterpolationModel::build(&d);
        let r1 = crate::table::ShiftTable::build(&model, d.as_slice());
        let s1 = CompactShiftTable::build(&model, d.as_slice(), 1);
        assert_eq!(2 * Correction::size_bytes(&s1), 4 * d.len());
        assert!(Correction::size_bytes(&r1) < Correction::size_bytes(&s1));
    }

    #[cfg_attr(miri, ignore = "dataset too large for Miri")]
    #[test]
    fn sample_built_layer_is_usable() {
        let d: Dataset<u64> = SosdName::Wiki64.generate(50_000, 4);
        let model = InterpolationModel::build(&d);
        let full = CompactShiftTable::with_entry_count(&model, d.as_slice(), 5_000);
        let sampled = CompactShiftTable::build_from_sample(&model, d.as_slice(), 5_000, 32);
        let e_full = mean_corrected_error(&full, &model, &d);
        let e_sampled = mean_corrected_error(&sampled, &model, &d);
        assert!(
            e_sampled < 20.0 * e_full.max(1.0),
            "sampled layer error {e_sampled} should stay in the same ballpark as {e_full}"
        );
    }

    #[cfg_attr(miri, ignore = "dataset too large for Miri")]
    #[test]
    fn expected_error_is_recorded_at_build_time() {
        let d: Dataset<u64> = SosdName::Face64.generate(20_000, 6);
        let model = InterpolationModel::build(&d);
        let t = CompactShiftTable::build(&model, d.as_slice(), 1);
        let empirical = mean_corrected_error(&t, &model, &d);
        assert!(t.expected_error() > 0.0);
        // The stored statistic is an RMS over all sampled keys while the
        // empirical reference is a deduped mean-abs, so they agree in
        // magnitude (RMS ≥ mean, within a small factor), not to the digit.
        assert!(
            t.expected_error() >= 0.5 * empirical && t.expected_error() <= 5.0 * empirical.max(1.0),
            "stored {} vs empirical {empirical}",
            t.expected_error()
        );
        // Coarser layers must report larger residuals.
        let t100 = CompactShiftTable::build(&model, d.as_slice(), 100);
        assert!(t100.expected_error() >= t.expected_error());

        let empty: Vec<u64> = vec![];
        let em = InterpolationModel::from_sorted_keys(&empty);
        assert_eq!(
            CompactShiftTable::build(&em, &empty, 10).expected_error(),
            0.0
        );
    }

    #[test]
    fn degenerate_inputs() {
        let keys: Vec<u64> = vec![];
        let model = InterpolationModel::from_sorted_keys(&keys);
        let t = CompactShiftTable::build(&model, &keys, 10);
        assert_eq!(t.corrected_position(5), 0);
        assert_eq!(t.correct(5), SearchHint::unbounded(0));

        let keys = vec![42u64];
        let model = InterpolationModel::from_sorted_keys(&keys);
        let t = CompactShiftTable::build(&model, &keys, 1);
        assert_eq!(t.corrected_position(0), 0);
        assert_eq!(t.records_per_entry(), 1);
    }

    #[cfg_attr(miri, ignore = "dataset too large for Miri")]
    #[test]
    fn corrected_position_is_always_in_range() {
        let d: Dataset<u64> = SosdName::Amzn64.generate(10_000, 7);
        let model = InterpolationModel::build(&d);
        let t = CompactShiftTable::build(&model, d.as_slice(), 10);
        for pred in [0usize, 1, 500, 9_999, 100_000, usize::MAX] {
            assert!(t.corrected_position(pred) < d.len());
        }
    }
}
