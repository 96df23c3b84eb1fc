//! The full-resolution range-mode Shift-Table (the paper's R-1 layer).
//!
//! One `<Δ_k, C_k>` entry per possible model prediction (`M = N`): a query's
//! prediction `k` is corrected to the window
//! `[k + Δ_k, k + Δ_k + C_k − 1]`, which is guaranteed to contain the lower
//! bound of every indexed key predicted at `k` (and, for valid monotone
//! models, to contain-or-abut the lower bound of non-indexed queries, §3.1).

use crate::build;
use crate::correction::{Correction, SearchHint};
use crate::entry::ShiftEntry;
use crate::error::BuildError;
use crate::packed::Packed;
use learned_index::model::CdfModel;
use sosd_data::key::Key;

/// Range-mode Shift-Table: `<Δ, C>` pairs, one per prediction value.
#[derive(Debug, Clone)]
pub struct ShiftTable {
    entries: Packed,
    n: usize,
}

impl ShiftTable {
    /// The most keys one layer can cover (drifts and window lengths are
    /// stored in at most 32 bits). The validating builders
    /// ([`crate::CorrectedIndexBuilder::build`], [`crate::spec::IndexSpec`])
    /// reject longer columns with [`BuildError::TooManyKeys`].
    pub const MAX_KEYS: usize = crate::entry::MAX_KEYS;

    /// `Err` when a column of `len` keys is too long for a range layer.
    pub(crate) fn check_len(len: usize) -> Result<(), BuildError> {
        if len > Self::MAX_KEYS {
            return Err(BuildError::TooManyKeys {
                len,
                max: Self::MAX_KEYS,
            });
        }
        Ok(())
    }

    /// Build the layer for `model` over the sorted `keys` (Algorithm 2).
    ///
    /// Complexity: `O(N · cost(F_θ) + N)` — one model execution per key,
    /// and for a monotone model one sequential write of the packed layer;
    /// any other model pays a scatter pass, a backward pass and the
    /// encoding pass ([`crate::build`]).
    ///
    /// # Panics
    /// If `keys` is longer than [`ShiftTable::MAX_KEYS`].
    pub fn build<K: Key, M: CdfModel<K> + ?Sized>(model: &M, keys: &[K]) -> Self {
        Self {
            entries: build::build_range_layer(model, keys),
            n: keys.len(),
        }
    }

    /// Assemble a layer from hand-written `(Δ, C)` entries.
    #[cfg(test)]
    pub(crate) fn from_entries(entries: Vec<crate::entry::WideEntry>) -> Self {
        Self {
            entries: Packed::from_wide(&entries),
            n: entries.len(),
        }
    }

    /// Number of keys (== number of entries, `M = N`).
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the layer has no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Fetch the entry for prediction `k` (clamped into range).
    #[inline]
    pub fn entry(&self, k: usize) -> ShiftEntry {
        if self.entries.is_empty() {
            return ShiftEntry::default();
        }
        self.entries.get(k.min(self.entries.len() - 1))
    }

    /// How many entries are served from the patch list: an offset past
    /// 255 from its block's base, or a window no count code reaches (they
    /// cost 8 bytes more than the others, and a fetch of one reads the
    /// patch instead of the block's base).
    pub fn patches(&self) -> usize {
        self.entries.patches()
    }

    /// Iterate over the window lengths `C_k` as the layer serves them
    /// (used by the cost model and by the Eq. 8 error estimate): exact up
    /// to 127 records and for a patched entry, else rounded up to the next
    /// count code, at most an eighth longer (see [`crate::entry`]).
    pub fn window_lengths(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.entries.len()).map(move |k| self.entries.get(k).count)
    }

    /// Iterate over the `<Δ_k, C_k>` entries as the layer serves them:
    /// every `Δ_k` exact, every `C_k` as [`ShiftTable::window_lengths`]
    /// reports it.
    pub fn entries(&self) -> impl Iterator<Item = ShiftEntry> + '_ {
        (0..self.entries.len()).map(move |k| self.entries.get(k))
    }

    /// The expected prediction error after correction under a
    /// uniformly-from-the-keys query distribution (Eq. 8):
    /// `ē = (1 / 2N) · Σ_k C_k²`, over the served window lengths — what a
    /// lookup searches — so up to 1.27× the exact windows' where they are
    /// all past 127 records.
    pub fn expected_error(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let sum_sq: f64 = self.window_lengths().map(|c| (c as f64) * (c as f64)).sum();
        sum_sq / (2.0 * self.n as f64)
    }
}

impl Correction for ShiftTable {
    // Plain `#[inline]`, like the fetch under it: nothing is dispatched
    // between here and the arrays, so the batch kernel's correct stage
    // inlines both unforced (forcing them moved no batch metric of the
    // repository benchmark outside its quartiles).
    #[inline]
    fn correct(&self, prediction: usize) -> SearchHint {
        if self.entries.is_empty() {
            return SearchHint::bounded(0, 0);
        }
        let k = prediction.min(self.entries.len() - 1);
        let (delta, count) = self.entries.wide(k);
        // The served count may be rounded up: the clamp to the column is
        // what keeps the longer window a valid one.
        let start = (k as i64 + delta as i64).clamp(0, self.n as i64) as usize;
        let window = (count as usize).min(self.n - start);
        SearchHint::bounded(start, window)
    }

    fn size_bytes(&self) -> usize {
        self.entries.size_bytes()
    }

    fn entry_count(&self) -> usize {
        self.entries.len()
    }

    fn name(&self) -> &'static str {
        "Shift-Table(R-1)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use learned_index::linear::InterpolationModel;
    use sosd_data::prelude::*;

    /// Predicts position `at` for every key.
    struct Constant {
        n: usize,
        at: usize,
    }
    impl CdfModel<u64> for Constant {
        fn predict(&self, _key: u64) -> usize {
            self.at
        }
        fn key_count(&self) -> usize {
            self.n
        }
        fn size_bytes(&self) -> usize {
            0
        }
        fn is_monotonic(&self) -> bool {
            true
        }
        fn name(&self) -> &'static str {
            "constant"
        }
    }

    type HardLayer = (Box<dyn CdfModel<u64>>, Dataset<u64>);

    /// Layers a plain `(u8, u8)` could not hold: a least-squares line over
    /// lognormal keys crowds its predictions into long pseudo-runs copying
    /// one long window, with a drift inside `i16` at 6 k keys and past it
    /// at 70 k; with every key predicted into the last partition the one
    /// window is past `u16` too.
    fn hard_layers() -> Vec<HardLayer> {
        use learned_index::linear::LinearModel;
        let small: Dataset<u64> = SosdName::Logn32.generate(6_000, 21);
        let large: Dataset<u64> = SosdName::Logn64.generate(70_000, 21);
        let uden: Dataset<u64> = SosdName::Uden64.generate(70_000, 21);
        let last = Constant {
            n: uden.len(),
            at: uden.len() - 1,
        };
        vec![
            (Box::new(LinearModel::build(&small)), small),
            (Box::new(LinearModel::build(&large)), large),
            (Box::new(last), uden),
        ]
    }

    /// Bytes of the smallest plain encoding `entries` fit — `(i16, u16)`,
    /// `(u16, u16)` under a base per block of 8, or `(i32, u32)`: what a
    /// layer cost before counts were coded, and may not cost less than now.
    fn plain_bytes(entries: &[crate::entry::WideEntry]) -> usize {
        let n = entries.len();
        let counts_fit = entries.iter().all(|e| e.1 <= u16::MAX as u32);
        let spreads_fit = entries.chunks(8).all(|block| {
            let deltas = block.iter().map(|e| e.0);
            deltas
                .clone()
                .max()
                .unwrap()
                .abs_diff(deltas.min().unwrap())
                <= u16::MAX as u32
        });
        if counts_fit && entries.iter().all(|e| i16::try_from(e.0).is_ok()) {
            4 * n
        } else if counts_fit && spreads_fit && entries.iter().all(|e| e.1 >= 1) {
            4 * n + 4 * n.div_ceil(8)
        } else {
            8 * n
        }
    }

    /// Build the layer and check it against the scatter builder's exact
    /// entries: every start the same, every window no shorter and at most
    /// an eighth longer, every indexed key inside its corrected window.
    fn assert_windows_cover_every_key(model: &dyn CdfModel<u64>, d: &Dataset<u64>) -> ShiftTable {
        let table = ShiftTable::build(model, d.as_slice());
        assert_eq!(table.len(), d.len());
        let exact = build::compute_range_entries(model, d.as_slice());
        for (k, (served, &(delta, count))) in table.entries().zip(&exact).enumerate() {
            let count = count as u64;
            assert_eq!(served.delta, delta as i64, "{} entry {k}", d.name());
            assert!(
                count <= served.count && served.count <= count + count / 8,
                "{} entry {k}: {count} served as {}",
                d.name(),
                served.count
            );
        }
        for &k in d.as_slice() {
            let target = d.lower_bound(k);
            let hint = table.correct(model.predict_clamped(k));
            let w = hint.window.unwrap();
            assert!(
                hint.start <= target && target < hint.start + w.max(1),
                "{} n={}: key {k} target {target} outside window [{}, {})",
                d.name(),
                d.len(),
                hint.start,
                hint.start + w
            );
            assert!(hint.start + w <= d.len());
        }
        table
    }

    #[cfg_attr(miri, ignore = "dataset too large for Miri")]
    #[test]
    fn corrected_windows_cover_every_indexed_key() {
        // Under IM at 200 k keys several generators' layers hold a patch
        // list (a dense region climbs the drift past a block's byte).
        let mut patched = 0;
        for n in [10_000, 200_000] {
            for name in SosdName::all() {
                let d: Dataset<u64> = name.generate(n, 21);
                let table = assert_windows_cover_every_key(&InterpolationModel::build(&d), &d);
                patched += usize::from(table.patches() > 0);
            }
        }
        assert!(patched >= 5, "{patched} layers with patches");
        // And through count codes wherever one looks.
        for (model, d) in hard_layers() {
            assert_windows_cover_every_key(&*model, &d);
        }
    }

    #[cfg_attr(miri, ignore = "dataset too large for Miri")]
    #[test]
    fn every_generator_packs_under_2_6_bytes_a_key() {
        // Two bytes an entry, half a byte of base, 1/64 of directory and the
        // patches: under 2.6 bytes a key for the free model, the benchmark's
        // RMI (monotone or not) and a least-squares line, under 3.4 for
        // every model there is — and never more than the smallest plain
        // encoding of the same entries.
        use learned_index::spec::ModelSpec;
        let specs = [
            ("im", 26),
            ("rmi:4096", 26),
            ("linear", 26),
            ("cubic", 34),
            ("rmi:64", 34),
            ("rmi:64:cubic", 34),
            ("rs:32", 34),
            ("pgm:64", 34),
        ];
        for (spec, tenths) in specs {
            let spec = ModelSpec::parse(spec).unwrap();
            for n in [6_000, 70_000, 200_000] {
                for name in SosdName::all() {
                    let d: Dataset<u64> = name.generate(n, 21);
                    let model = spec.build(d.as_slice());
                    let table = ShiftTable::build(&*model, d.as_slice());
                    let bytes = Correction::size_bytes(&table);
                    let tag = format!("{name} {spec} n={n}: {} patches", table.patches());
                    assert!(bytes * 10 < n * tenths, "{tag}: {bytes} bytes");
                    let plain = plain_bytes(&build::compute_range_entries(&*model, d.as_slice()));
                    assert!(bytes <= plain, "{tag}: {bytes} bytes, {plain} plain");
                }
            }
        }
    }

    #[test]
    fn expected_error_matches_hand_computation() {
        // Construct entries directly: windows of length 1, 3 and 2 over 6 keys.
        let table = ShiftTable::from_entries(vec![(0, 1), (0, 3), (0, 2), (0, 0), (0, 0), (0, 0)]);
        // Eq. 8: (1² + 3² + 2²) / (2 · 6) = 14 / 12.
        assert!((table.expected_error() - 14.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn perfect_model_yields_unit_windows_and_tiny_error() {
        let keys: Vec<u64> = (0..5_000u64).map(|i| i * 7).collect();
        let d = Dataset::from_keys("lin", keys);
        let model = InterpolationModel::build(&d);
        let table = ShiftTable::build(&model, d.as_slice());
        assert!(table.expected_error() <= 1.0);
        assert!(table.window_lengths().all(|c| c <= 2));
        // A perfect model's layer is two bytes an entry and half a byte of
        // base: nothing to patch.
        assert_eq!(table.patches(), 0);
        assert_eq!(Correction::size_bytes(&table), 5_000 * 5 / 2);
    }

    #[cfg_attr(miri, ignore = "dataset too large for Miri")]
    #[test]
    fn huge_drift_either_way_is_a_base_and_a_long_window_a_code() {
        // A model with an enormous bias, either way. Every key predicted
        // at 0: one window over everything — its `Δ` of 0 is its block's
        // base, so the block's other seven, which drift `n − 2` and less,
        // are patches — and trailing pseudo-entries that step down from
        // there one by one.
        let n = 100_000;
        let keys: Vec<u64> = (0..n as u64).collect();
        let table = ShiftTable::build(&Constant { n, at: 0 }, &keys);
        assert_eq!(table.patches(), 7);
        assert_eq!(table.entry(0), ShiftEntry::new(0, 106_496));
        assert_eq!(table.correct(0), SearchHint::bounded(0, n));
        // Every key predicted at `n − 1`: every entry points at that
        // window, rounded up in the entry and clamped to the column when
        // served.
        let table = ShiftTable::build(&Constant { n, at: n - 1 }, &keys);
        assert_eq!(table.patches(), 0);
        assert_eq!(Correction::size_bytes(&table), n * 5 / 2);
        for k in [0, n / 2, n - 1] {
            assert_eq!(table.entry(k), ShiftEntry::new(-(k as i64), 106_496));
            assert_eq!(table.correct(k), SearchHint::bounded(0, n));
        }
    }

    #[test]
    fn correct_clamps_out_of_range_predictions() {
        let d: Dataset<u64> = SosdName::Uspr64.generate(1_000, 2);
        let model = InterpolationModel::build(&d);
        let table = ShiftTable::build(&model, d.as_slice());
        let hint = table.correct(usize::MAX);
        assert!(hint.start <= d.len());
        assert!(hint.start + hint.window.unwrap() <= d.len());
    }

    #[test]
    fn empty_table() {
        let keys: Vec<u64> = vec![];
        let model = InterpolationModel::from_sorted_keys(&keys);
        let table = ShiftTable::build(&model, &keys);
        assert!(table.is_empty());
        assert_eq!(table.correct(5), SearchHint::bounded(0, 0));
        assert_eq!(table.expected_error(), 0.0);
        assert_eq!(Correction::size_bytes(&table), 0);
    }

    #[cfg_attr(miri, ignore = "dataset too large for Miri")]
    #[test]
    fn size_bytes_reflects_encoding() {
        // Two bytes an entry, 4 a block of 8, and for a layer with patches
        // 8 each and 4 a bucket of 256 entries — also where the smallest
        // plain encoding is 4, 4.5 and 8 bytes an entry.
        let size = |table: &ShiftTable, n: usize| {
            let patched = 4 * n.div_ceil(256) + 8 * table.patches();
            2 * n + 4 * n.div_ceil(8) + if table.patches() > 0 { patched } else { 0 }
        };
        for ((model, d), plain) in hard_layers().into_iter().zip([8, 9, 16]) {
            let n = d.len();
            let table = ShiftTable::build(&*model, d.as_slice());
            let exact = build::compute_range_entries(&*model, d.as_slice());
            assert_eq!(plain_bytes(&exact) * 2, plain * n, "{}", d.name());
            assert_eq!(Correction::size_bytes(&table), size(&table, n));
            assert!(table.patches() < n / 100, "{}", d.name());
            assert_eq!(table.entry_count(), n);
            // All in the last partition: not one patch.
            if plain == 16 {
                assert_eq!(Correction::size_bytes(&table), n * 5 / 2);
            }
        }
        // IM over 200 k lognormal keys: a few hundred patches.
        let n = 200_000;
        let d: Dataset<u64> = SosdName::Logn64.generate(n, 21);
        let table = ShiftTable::build(&InterpolationModel::build(&d), d.as_slice());
        assert!((1..n / 100).contains(&table.patches()));
        assert_eq!(Correction::size_bytes(&table), size(&table, n));
    }

    #[test]
    fn only_columns_past_max_keys_are_rejected() {
        assert_eq!(ShiftTable::check_len(ShiftTable::MAX_KEYS), Ok(()));
        assert_eq!(
            ShiftTable::check_len(ShiftTable::MAX_KEYS + 1),
            Err(BuildError::TooManyKeys {
                len: ShiftTable::MAX_KEYS + 1,
                max: i32::MAX as usize,
            })
        );
    }
}
