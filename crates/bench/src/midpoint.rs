//! The paper's compressed midpoint layers, S-X (§3.4), for the experiments
//! that sweep them: Figure 8's size sweep, Figure 9 and the `layer_size`
//! bench. No lookup of the `shift-table` or `shift-store` serving path uses
//! them; R-1 is the layer the paper recommends (§3.9).
//!
//! Instead of a `<Δ, C>` pair per prediction, the compact layer stores a
//! single averaged drift `Δ̄` per partition, with `M = N / X` partitions
//! (§3.4, Eq. 7). Correction adds the partition's `Δ̄` to the prediction and
//! hands the result to an *unbounded* local search (exponential search),
//! because no window can be guaranteed. Halving the entry and merging
//! partitions trades memory for accuracy — the trade-off Figure 9 sweeps.

use algo_index::RangeIndex;
use learned_index::model::CdfModel;
use shift_table::local_search::exponential_around;
use shift_table::{Correction, CorrectionErrorStats, SearchHint};
use sosd_data::key::Key;
use std::sync::Arc;

/// Midpoint-mode Shift-Table with `M ≤ N` entries.
#[derive(Debug)]
pub struct CompactShiftTable {
    deltas: MidpointStorage,
    m: usize,
    n: usize,
}

impl CompactShiftTable {
    /// Build an S-X layer: one entry per `records_per_entry` records
    /// (`X = 1` gives the paper's S-1, `X = 100` gives S-100, ...).
    pub fn build<K: Key, M: CdfModel<K> + ?Sized>(
        model: &M,
        keys: &[K],
        records_per_entry: usize,
    ) -> Self {
        let m = keys.len().div_ceil(records_per_entry.max(1));
        Self::with_entry_count(model, keys, m)
    }

    /// Build with an explicit number of entries `m`.
    fn with_entry_count<K: Key, M: CdfModel<K> + ?Sized>(model: &M, keys: &[K], m: usize) -> Self {
        let m = m.max(1);
        let deltas = compute_midpoint_deltas(model, keys, m);
        Self {
            deltas: MidpointStorage::pack(&deltas),
            m,
            n: keys.len(),
        }
    }

    /// Corrected position for a prediction (before local search), clamped to
    /// the valid record range.
    #[inline]
    pub fn corrected_position(&self, prediction: usize) -> usize {
        if self.n == 0 {
            return 0;
        }
        let partition = partition_of(prediction, self.m, self.n).min(self.m - 1);
        let corrected = prediction as i64 + self.deltas.get(partition);
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
}

/// Bit-packed storage for midpoint-only (`Δ̄`) tables.
#[derive(Debug)]
enum MidpointStorage {
    /// 2-byte entries.
    Narrow(Vec<i16>),
    /// 8-byte entries.
    Wide(Vec<i64>),
}

impl MidpointStorage {
    /// Pack midpoint drifts, choosing the narrowest lossless encoding.
    fn pack(deltas: &[i64]) -> Self {
        match deltas.iter().map(|&d| i16::try_from(d)).collect() {
            Ok(narrow) => Self::Narrow(narrow),
            Err(_) => Self::Wide(deltas.to_vec()),
        }
    }

    /// Fetch an entry.
    #[inline]
    fn get(&self, i: usize) -> i64 {
        match self {
            Self::Narrow(v) => v[i] as i64,
            Self::Wide(v) => v[i],
        }
    }

    /// Size of the packed array in bytes.
    fn size_bytes(&self) -> usize {
        match self {
            Self::Narrow(v) => v.len() * 2,
            Self::Wide(v) => v.len() * 8,
        }
    }
}

/// Compute the midpoint drifts `Δ̄` of a compact (S-X) layer with `m`
/// partitions (§3.4): each partition's mean drift over every key, in one
/// pass.
fn compute_midpoint_deltas<K: Key, M: CdfModel<K> + ?Sized>(
    model: &M,
    keys: &[K],
    m: usize,
) -> Vec<i64> {
    let n = keys.len();
    let m = m.max(1);
    let mut sums = vec![0i128; m];
    let mut counts = vec![0u64; m];
    let mut first_occurrence = 0usize;
    for i in 0..n {
        if i == 0 || keys[i] != keys[i - 1] {
            first_occurrence = i;
        }
        let prediction = model.predict_clamped(keys[i]);
        let partition = partition_of(prediction, m, n);
        sums[partition] += first_occurrence as i128 - prediction as i128;
        counts[partition] += 1;
    }
    let mut deltas = vec![i64::MAX; m];
    for k in 0..m {
        if counts[k] > 0 {
            deltas[k] = (sums[k] / counts[k] as i128) as i64;
        }
    }
    // Empty partitions copy the nearest populated neighbour (right first,
    // matching the range-mode backward fill, then left for trailing gaps).
    let mut next: Option<i64> = None;
    for d in deltas.iter_mut().rev() {
        if *d != i64::MAX {
            next = Some(*d);
        } else if let Some(next) = next {
            *d = next;
        }
    }
    let mut prev: i64 = 0;
    for d in deltas.iter_mut() {
        if *d == i64::MAX {
            *d = prev;
        } else {
            prev = *d;
        }
    }
    deltas
}

/// Map a prediction (on the `[0, n)` record scale) to a partition index on
/// the `[0, m)` layer scale.
#[inline]
fn partition_of(prediction: usize, m: usize, n: usize) -> usize {
    if n == 0 || m == 0 {
        return 0;
    }
    (((prediction as u128) * (m as u128)) / (n as u128)) as usize
}

/// A model corrected by a [`CompactShiftTable`]: predict, add the
/// partition's `Δ̄`, then gallop from there.
pub struct MidpointIndex<K: Key, M: CdfModel<K>> {
    keys: Arc<[K]>,
    model: M,
    table: CompactShiftTable,
}

impl<K: Key, M: CdfModel<K>> MidpointIndex<K, M> {
    /// Build the S-X layer of `model` over the sorted `keys`, one entry per
    /// `records_per_entry` records.
    pub fn build(keys: Arc<[K]>, model: M, records_per_entry: usize) -> Self {
        let table = CompactShiftTable::build(&model, &keys, records_per_entry);
        Self { keys, model, table }
    }

    /// The midpoint layer.
    pub fn table(&self) -> &CompactShiftTable {
        &self.table
    }

    /// Empirical error statistics of the corrected predictions.
    pub fn correction_error(&self) -> CorrectionErrorStats {
        CorrectionErrorStats::compute(&self.model, &self.table, &self.keys)
    }
}

impl<K: Key, M: CdfModel<K>> RangeIndex<K> for MidpointIndex<K, M> {
    fn lower_bound(&self, q: K) -> usize {
        let hint = self.table.corrected_position(self.model.predict_clamped(q));
        exponential_around(&self.keys, hint, q)
    }

    fn len(&self) -> usize {
        self.keys.len()
    }

    fn index_size_bytes(&self) -> usize {
        self.model.size_bytes() + self.table.size_bytes()
    }

    fn name(&self) -> &'static str {
        "Model+Shift-Table(S)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use learned_index::linear::InterpolationModel;
    use shift_table::ShiftTable;
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

    /// The IM index over `d` with an S-X layer of `x` records an entry.
    fn im_index(d: &Dataset<u64>, x: usize) -> MidpointIndex<u64, InterpolationModel> {
        MidpointIndex::build(d.to_shared(), InterpolationModel::build(d), x)
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
        assert_eq!(table.m, 30);
        // Partition of prediction 77 (= ⌊771/10⌋): 77·30/100 = 23.
        // Keys in partition 23 (predictions 76..79): 769, 770, 771, 782, 785
        // with drifts −41, −41, −40, −40, −39 → mean −40 (matches Table 1's
        // Δ̄³⁰₂₃ = −40, our rounding towards zero gives −40 as well).
        assert_eq!(table.deltas.get(23), -40, "Δ̄ for partition 23");
        // Correction of key 782 (prediction 78): 78 − 40 = 38 = true position.
        assert_eq!(table.corrected_position(78), 38);
        // Correction of key 771 (prediction 77): 77 − 40 = 37 = true position.
        assert_eq!(table.corrected_position(77), 37);
    }

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

    #[test]
    fn larger_compression_factor_means_smaller_layer_and_larger_error() {
        // The Figure 9 trade-off.
        let d: Dataset<u64> = SosdName::Face64.generate(50_000, 2);
        let model = InterpolationModel::build(&d);
        let s1 = CompactShiftTable::build(&model, d.as_slice(), 1);
        let s100 = CompactShiftTable::build(&model, d.as_slice(), 100);
        let s1000 = CompactShiftTable::build(&model, d.as_slice(), 1000);
        assert!(s1.size_bytes() > s100.size_bytes());
        assert!(s100.size_bytes() > s1000.size_bytes());
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

    #[test]
    fn layer_compression_trades_accuracy_for_memory() {
        // Figure 9: compressing the layer monotonically increases the
        // corrected error; the S-1 configuration is the most accurate.
        let dataset: Dataset<u64> = SosdName::Amzn64.generate(20_000, 9);
        let mut previous_error = -1.0f64;
        let mut previous_size = usize::MAX;
        for x in [1usize, 10, 100, 1000] {
            let index = im_index(&dataset, x);
            let err = index.correction_error().mean_abs;
            let size = index.table().size_bytes();
            assert!(
                err + 1e-9 >= previous_error,
                "S-{x}: error {err} should not decrease when compressing"
            );
            assert!(size < previous_size, "S-{x}: layer must shrink");
            previous_error = err;
            previous_size = size;
        }
    }

    #[test]
    fn s1_footprint_is_half_of_r1() {
        // §4.3: "the memory footprint of S-1 is half the size of R-1" — of
        // the paper's 4-byte `<Δ, C>` entries. Storing one `Δ` a partition
        // and no `C` brings R-1 to 64 bytes per 67 keys, below S-1's 2 a
        // key.
        let d: Dataset<u64> = SosdName::Uspr64.generate(20_000, 3);
        let model = InterpolationModel::build(&d);
        let r1 = ShiftTable::build(&model, d.as_slice());
        let s1 = CompactShiftTable::build(&model, d.as_slice(), 1);
        assert_eq!(2 * s1.size_bytes(), 4 * d.len());
        assert!(r1.size_bytes() < s1.size_bytes());
    }

    #[test]
    fn midpoint_error_is_roughly_quarter_of_window() {
        // §3.5: with midpoint correction the average error is ≈ C_k / 4 for
        // partitions of cardinality C_k. Use a model that lumps every key
        // into windows of 8.
        struct Coarse(usize);
        impl CdfModel<u64> for Coarse {
            fn predict(&self, key: u64) -> usize {
                ((key as usize) / 8) * 8
            }
            fn key_count(&self) -> usize {
                self.0
            }
            fn size_bytes(&self) -> usize {
                0
            }
            fn name(&self) -> &'static str {
                "coarse"
            }
        }
        let n = 8_000usize;
        let keys: Vec<u64> = (0..n as u64).collect();
        let model = Coarse(n);
        let s1 = CompactShiftTable::build(&model, &keys, 1);
        let stats = CorrectionErrorStats::compute(&model, &s1, &keys);
        // Each partition has 8 keys; the expected |error| of midpoint
        // correction is ≈ 8/4 = 2.
        assert!(
            (stats.mean_abs - 2.0).abs() < 0.6,
            "mean error {} should be ≈ C/4 = 2",
            stats.mean_abs
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
        assert_eq!(t.n.div_ceil(t.m), 1, "one record an entry");
    }

    #[test]
    fn corrected_position_is_always_in_range() {
        let d: Dataset<u64> = SosdName::Amzn64.generate(10_000, 7);
        let model = InterpolationModel::build(&d);
        let t = CompactShiftTable::build(&model, d.as_slice(), 10);
        for pred in [0usize, 1, 500, 9_999, 100_000, usize::MAX] {
            assert!(t.corrected_position(pred) < d.len());
        }
    }

    #[test]
    fn midpoint_storage_roundtrips() {
        let small = vec![-3i64, 0, 12, 32_000];
        let packed = MidpointStorage::pack(&small);
        assert!(matches!(packed, MidpointStorage::Narrow(_)));
        assert_eq!(packed.size_bytes(), 8);
        for (i, &d) in small.iter().enumerate() {
            assert_eq!(packed.get(i), d);
        }

        let big = vec![1i64, -40_000_000];
        let packed = MidpointStorage::pack(&big);
        assert!(matches!(packed, MidpointStorage::Wide(ref v) if v.len() == 2));
        assert_eq!(packed.get(1), -40_000_000);
    }

    #[test]
    fn midpoint_deltas_average_the_drift() {
        // Model that always predicts position 0 over 10 keys: drifts are
        // 0..9, the midpoint over one partition is their mean = 4.
        struct Zero;
        impl CdfModel<u64> for Zero {
            fn predict(&self, _key: u64) -> usize {
                0
            }
            fn key_count(&self) -> usize {
                10
            }
            fn size_bytes(&self) -> usize {
                0
            }
            fn name(&self) -> &'static str {
                "zero"
            }
        }
        let keys: Vec<u64> = (0..10u64).collect();
        let deltas = compute_midpoint_deltas(&Zero, &keys, 1);
        assert_eq!(deltas, vec![4]);
    }

    #[test]
    fn midpoint_empty_partitions_copy_neighbours() {
        let keys: Vec<u64> = (0..100u64).map(|i| i * 3).collect();
        let d = Dataset::from_keys("d", keys);
        let model = InterpolationModel::build(&d);
        let deltas = compute_midpoint_deltas(&model, d.as_slice(), 400);
        assert_eq!(deltas.len(), 400);
        assert!(deltas.iter().all(|&d| d != i64::MAX));
    }

    #[test]
    fn partition_of_maps_edges_correctly() {
        assert_eq!(partition_of(0, 10, 100), 0);
        assert_eq!(partition_of(99, 10, 100), 9);
        assert_eq!(partition_of(50, 10, 100), 5);
        assert_eq!(partition_of(0, 10, 0), 0);
        assert_eq!(partition_of(5, 0, 100), 0);
    }

    #[test]
    fn empty_keys_produce_empty_layers() {
        let d: Dataset<u64> = Dataset::from_keys("e", vec![]);
        let model = InterpolationModel::build(&d);
        let deltas = compute_midpoint_deltas(&model, d.as_slice(), 4);
        assert_eq!(deltas, vec![0, 0, 0, 0]);
    }

    #[test]
    fn im_with_compact_table_is_correct_on_every_dataset() {
        for name in SosdName::all() {
            let d: Dataset<u64> = name.generate(8_000, 43);
            let keys = d.as_slice();
            for x in [1usize, 10, 100] {
                let index = im_index(&d, x);
                for w in [
                    Workload::uniform_keys(&d, 300, 1),
                    Workload::uniform_domain(&d, 300, 2),
                    Workload::non_indexed(&d, 300, 3),
                ] {
                    for (q, expected) in w.iter() {
                        assert_eq!(index.lower_bound(q), expected, "{name} S-{x} q={q}");
                    }
                    assert_eq!(index.lower_bound_many(w.queries()), w.expected().to_vec());
                }
                // Out-of-range queries.
                assert_eq!(index.lower_bound(0), d.lower_bound(0));
                assert_eq!(index.lower_bound(u64::MAX), d.lower_bound(u64::MAX));
                for (lo, hi) in [
                    (0u64, u64::MAX),
                    (keys[0], keys[keys.len() / 2]),
                    (keys[keys.len() / 3], keys[keys.len() / 3]),
                    (u64::MAX, 0),
                ] {
                    let expected = if lo > hi {
                        0..0
                    } else {
                        let start = d.lower_bound(lo);
                        let end = match hi.checked_next() {
                            Some(h) => d.lower_bound(h),
                            None => keys.len(),
                        };
                        start..end.max(start)
                    };
                    assert_eq!(index.range(lo, hi), expected, "{name} S-{x} {lo}..={hi}");
                }
            }
        }
    }

    /// A sorted key vector with duplicates, clusters and extremes.
    fn arb_keys(rng: &mut SplitMix64) -> Vec<u64> {
        let len = 1 + rng.next_below(400) as usize;
        let mut keys: Vec<u64> = (0..len)
            .map(|_| match rng.next_below(3) {
                // small dense values (forces duplicates)
                0 => rng.next_below(500),
                // clustered mid-range values
                1 => 1_000_000 + rng.next_below(1_000),
                // sparse huge values
                _ => rng.next_u64(),
            })
            .collect();
        keys.sort_unstable();
        keys
    }

    /// Query values that mix indexed keys, near misses and extremes.
    fn arb_queries(rng: &mut SplitMix64, keys: &[u64]) -> Vec<u64> {
        let len = 1 + rng.next_below(50) as usize;
        (0..len)
            .map(|_| {
                let pick = keys[rng.next_below(keys.len() as u64) as usize];
                match rng.next_below(5) {
                    0 => pick,
                    1 => pick.saturating_add(1),
                    2 => rng.next_u64(),
                    3 => 0,
                    _ => u64::MAX,
                }
            })
            .collect()
    }

    /// The compact (midpoint) layer is exact too, at any compression factor.
    #[test]
    fn compact_corrected_index_matches_reference() {
        let mut rng = SplitMix64::new(0x5EED_0002);
        for case in 0..64 {
            let keys = arb_keys(&mut rng);
            let queries = arb_queries(&mut rng, &keys);
            let x = 1 + rng.next_below(199) as usize;
            let dataset = Dataset::from_sorted_keys("prop", keys);
            let index = im_index(&dataset, x);
            for &q in &queries {
                assert_eq!(
                    index.lower_bound(q),
                    dataset.as_slice().partition_point(|&k| k < q),
                    "case {case} S-{x} q={q}"
                );
            }
        }
    }
}
