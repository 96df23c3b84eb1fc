//! The full-resolution range-mode Shift-Table (the paper's R-1 layer).
//!
//! One `<Δ_k, C_k>` entry per possible model prediction (`M = N`): a query's
//! prediction `k` is corrected to the window
//! `[k + Δ_k, k + Δ_k + C_k − 1]`, which is guaranteed to contain the lower
//! bound of every indexed key predicted at `k` (and, for valid monotone
//! models, to contain-or-abut the lower bound of non-indexed queries, §3.1).

use crate::build;
use crate::correction::{Correction, SearchHint};
use crate::entry::{EntryStorage, EntryTier, ShiftEntry};
use crate::error::BuildError;
use learned_index::model::CdfModel;
use sosd_data::key::Key;

/// Range-mode Shift-Table: `<Δ, C>` pairs, one per prediction value.
#[derive(Debug, Clone)]
pub struct ShiftTable {
    entries: EntryStorage,
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
        Self::build_parallel(model, keys, 1)
    }

    /// Build the layer on up to `threads` scoped threads. Only a monotone
    /// model's layer over at least a few thousand keys is cut into
    /// stretches; anything else builds as [`ShiftTable::build`] does.
    pub fn build_parallel<K: Key, M: CdfModel<K> + ?Sized>(
        model: &M,
        keys: &[K],
        threads: usize,
    ) -> Self {
        Self {
            entries: build::build_range_layer(model, keys, threads),
            n: keys.len(),
        }
    }

    /// Assemble a layer from hand-written `(Δ, C)` entries.
    #[cfg(test)]
    pub(crate) fn from_entries(entries: Vec<crate::entry::WideEntry>) -> Self {
        Self {
            entries: EntryStorage::from_wide(&entries),
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

    /// The storage tier the layer is served from (§3.9): the smallest
    /// encoding of its entries.
    pub fn tier(&self) -> EntryTier {
        self.entries.tier()
    }

    /// True if the narrow `(i16, u16)` encoding was selected (§3.9) — by
    /// few layers of more than a handful of entries: one that fits it
    /// nearly always packs smaller still, into [`EntryTier::Byte`].
    pub fn is_narrow(&self) -> bool {
        self.tier() == EntryTier::Narrow
    }

    /// How many entries are served from the byte tier's patch list (they
    /// cost 8 bytes more than the others, and a fetch of one reads the
    /// patch instead of the block's base).
    pub fn patches(&self) -> usize {
        self.entries.patches()
    }

    /// Iterate over the window lengths `C_k` (used by the cost model and by
    /// the Eq. 8 error estimate).
    pub fn window_lengths(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.entries.len()).map(move |k| self.entries.get(k).count)
    }

    /// Iterate over the `<Δ_k, C_k>` entries.
    pub fn entries(&self) -> impl Iterator<Item = ShiftEntry> + '_ {
        (0..self.entries.len()).map(move |k| self.entries.get(k))
    }

    /// The expected prediction error after correction under a
    /// uniformly-from-the-keys query distribution (Eq. 8):
    /// `ē = (1 / 2N) · Σ_k C_k²`.
    pub fn expected_error(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let sum_sq: f64 = self.window_lengths().map(|c| (c as f64) * (c as f64)).sum();
        sum_sq / (2.0 * self.n as f64)
    }
}

impl Correction for ShiftTable {
    // Always, like the fetch under it (`EntryStorage::get`,
    // `Packed::wide`): with four tiers to dispatch over, `#[inline]` alone
    // left the batch kernel's correct stage or the scalar lookup calling
    // one of the three out of line, which cost the batch path 6–11 % on
    // the repository benchmark.
    #[inline(always)]
    fn correct(&self, prediction: usize) -> SearchHint {
        if self.entries.is_empty() {
            return SearchHint::bounded(0, 0);
        }
        let k = prediction.min(self.entries.len() - 1);
        let e = self.entries.get(k);
        let start = (k as i64 + e.delta).clamp(0, self.n as i64) as usize;
        let window = (e.count as usize).min(self.n - start.min(self.n));
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

    type TieredLayer = (EntryTier, Box<dyn CdfModel<u64>>, Dataset<u64>);

    /// The four tiers as layers of models over generated keys: IM packs
    /// into the byte tier; a least-squares line over lognormal keys crowds
    /// its predictions into long pseudo-runs copying one long window, which
    /// patches most entries — narrow while the drift fits `i16`, relative
    /// beyond; with every key predicted into the last partition the one
    /// window is past `u16` too.
    fn one_layer_per_tier() -> Vec<TieredLayer> {
        use learned_index::linear::LinearModel;
        let uden: Dataset<u64> = SosdName::Uden64.generate(10_000, 21);
        let narrow: Dataset<u64> = SosdName::Logn32.generate(6_000, 21);
        let relative: Dataset<u64> = SosdName::Logn64.generate(70_000, 21);
        let wide: Dataset<u64> = SosdName::Uden64.generate(70_000, 21);
        let last = Constant {
            n: wide.len(),
            at: wide.len() - 1,
        };
        vec![
            (
                EntryTier::Byte,
                Box::new(InterpolationModel::build(&uden)),
                uden,
            ),
            (
                EntryTier::Narrow,
                Box::new(LinearModel::build(&narrow)),
                narrow,
            ),
            (
                EntryTier::Relative,
                Box::new(LinearModel::build(&relative)),
                relative,
            ),
            (EntryTier::Wide, Box::new(last), wide),
        ]
    }

    fn assert_windows_cover_every_key(model: &dyn CdfModel<u64>, d: &Dataset<u64>) -> ShiftTable {
        let table = ShiftTable::build(model, d.as_slice());
        assert_eq!(table.len(), d.len());
        for &k in d.as_slice() {
            let target = d.lower_bound(k);
            let hint = table.correct(model.predict_clamped(k));
            let w = hint.window.unwrap();
            assert!(
                hint.start <= target && target < hint.start + w.max(1),
                "{} n={} ({}): key {k} target {target} outside window [{}, {})",
                d.name(),
                d.len(),
                table.tier(),
                hint.start,
                hint.start + w
            );
        }
        table
    }

    #[cfg_attr(miri, ignore = "dataset too large for Miri")]
    #[test]
    fn corrected_windows_cover_every_indexed_key() {
        // Under IM every generator's layer packs into the byte tier, at
        // 200 k keys half of them with a patch list (the drift is past
        // `i16` and some windows past `u16`, which used to mean wide).
        let mut patched = 0;
        for n in [10_000, 200_000] {
            for name in SosdName::all() {
                let d: Dataset<u64> = name.generate(n, 21);
                let table = assert_windows_cover_every_key(&InterpolationModel::build(&d), &d);
                assert_eq!(table.tier(), EntryTier::Byte, "{name} n={n}");
                patched += usize::from(table.patches() > 0);
            }
        }
        assert!(patched >= 5, "{patched} layers with patches");
        // And through the fetch of each of the four tiers.
        for (tier, model, d) in one_layer_per_tier() {
            let table = assert_windows_cover_every_key(&*model, &d);
            assert_eq!(table.tier(), tier, "{}", d.name());
        }
    }

    #[cfg_attr(miri, ignore = "dataset too large for Miri")]
    #[test]
    fn every_generator_packs_under_2_6_bytes_a_key() {
        // The free model and the benchmark's RMI, monotone or not: two
        // bytes an entry, half a byte of base, 1/64 of directory and at
        // most 1 % of the entries in the patch list.
        use learned_index::spec::ModelSpec;
        let n = 200_000;
        for spec in ["im", "rmi:4096"] {
            let spec = ModelSpec::parse(spec).unwrap();
            for name in SosdName::all() {
                let d: Dataset<u64> = name.generate(n, 21);
                let table = ShiftTable::build(&*spec.build(d.as_slice()), d.as_slice());
                assert_eq!(table.tier(), EntryTier::Byte, "{name} {spec}");
                let bytes = Correction::size_bytes(&table);
                assert!(
                    bytes * 10 < n * 26,
                    "{name} {spec}: {bytes} bytes, {} patches",
                    table.patches()
                );
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
        assert_eq!((table.tier(), table.patches()), (EntryTier::Byte, 0));
        assert!(!table.is_narrow());
    }

    #[cfg_attr(miri, ignore = "dataset too large for Miri")]
    #[test]
    fn wide_encoding_used_for_huge_drift() {
        // A model with an enormous bias, either way. Every key predicted
        // at 0: one window over everything — a patch, and as its `Δ` of 0
        // is its block's base, so are the block's other seven — and
        // trailing pseudo-entries that step down from `n − 2` one by one.
        let n = 100_000;
        let keys: Vec<u64> = (0..n as u64).collect();
        let table = ShiftTable::build(&Constant { n, at: 0 }, &keys);
        assert!(!table.is_narrow(), "drift up to n-1 cannot fit in i16");
        assert_eq!((table.tier(), table.patches()), (EntryTier::Byte, 8));
        let hint = table.correct(0);
        assert_eq!(hint.start, 0);
        assert_eq!(hint.window, Some(n));
        // Every key predicted at `n − 1`: every entry points at that
        // window, and the layer is wide.
        let table = ShiftTable::build(&Constant { n, at: n - 1 }, &keys);
        assert_eq!((table.tier(), table.patches()), (EntryTier::Wide, 0));
        for k in [0, n / 2, n - 1] {
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
        for (tier, model, d) in one_layer_per_tier() {
            let n = d.len();
            let table = ShiftTable::build(&*model, d.as_slice());
            assert_eq!(table.tier(), tier, "{}", d.name());
            assert_eq!(table.is_narrow(), tier == EntryTier::Narrow);
            let bytes = match tier {
                EntryTier::Byte => 2 * n + 4 * n.div_ceil(8),
                EntryTier::Narrow => 4 * n,
                EntryTier::Relative => 4 * n + 4 * n.div_ceil(8),
                EntryTier::Wide => 8 * n,
            };
            assert_eq!(table.patches(), 0, "{}", d.name());
            assert_eq!(Correction::size_bytes(&table), bytes, "{}", d.name());
            assert_eq!(table.entry_count(), n);
        }
        // IM over 200 k lognormal keys, 8 bytes an entry before the byte
        // tier (its drift is past `i16` and a block of it spreads past
        // `u16`): now 8 more for each of a few hundred patches and 4 for
        // each bucket of 256 entries.
        let n = 200_000;
        let d: Dataset<u64> = SosdName::Logn64.generate(n, 21);
        let table = ShiftTable::build(&InterpolationModel::build(&d), d.as_slice());
        assert_eq!(table.tier(), EntryTier::Byte);
        assert!((1..n / 100).contains(&table.patches()));
        assert_eq!(
            Correction::size_bytes(&table),
            2 * n + 4 * n.div_ceil(8) + 4 * n.div_ceil(256) + 8 * table.patches()
        );
    }

    #[cfg_attr(miri, ignore = "dataset too large for Miri")]
    #[test]
    fn parallel_build_packs_the_same_table_on_every_generator() {
        // Sizes on both sides of the narrow tier's reach, so the seams are
        // checked in the packed form of more than one tier.
        for n in [6_000, 70_000] {
            for name in SosdName::all() {
                let d: Dataset<u64> = name.generate(n, 13);
                let model = InterpolationModel::build(&d);
                let seq = ShiftTable::build(&model, d.as_slice());
                for threads in [2, 7] {
                    let par = ShiftTable::build_parallel(&model, d.as_slice(), threads);
                    assert_eq!(par.tier(), seq.tier(), "{name} n={n}");
                    assert!(par.entries().eq(seq.entries()), "{name} n={n} x{threads}");
                }
            }
        }
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
