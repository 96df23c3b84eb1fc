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
    /// and for a monotone model one sequential write of the layer in the
    /// tier it is served from; any other model pays a scatter pass, a
    /// backward pass and, outside the wide tier, a re-encoding pass
    /// ([`crate::build`]).
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
        let extent = crate::entry::EntryExtent::of(&entries);
        let n = entries.len();
        Self {
            entries: EntryStorage::from_wide(entries, extent),
            n,
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

    /// The storage tier the layer is served from (§3.9): the smallest its
    /// entries fit.
    pub fn tier(&self) -> EntryTier {
        self.entries.tier()
    }

    /// True if the narrow `(i16, u16)` encoding was selected (§3.9).
    pub fn is_narrow(&self) -> bool {
        self.tier() == EntryTier::Narrow
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
    #[inline]
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

    #[cfg_attr(miri, ignore = "dataset too large for Miri")]
    #[test]
    fn corrected_windows_cover_every_indexed_key() {
        // 10 k keys pack narrow everywhere; 200 k under IM drift past `i16`
        // on half the generators, into the relative tier or — where one
        // partition takes more than `u16::MAX` keys — into the wide one.
        let mut tiers = std::collections::BTreeSet::new();
        for n in [10_000, 200_000] {
            for name in SosdName::all() {
                let d: Dataset<u64> = name.generate(n, 21);
                let model = InterpolationModel::build(&d);
                let table = ShiftTable::build(&model, d.as_slice());
                assert_eq!(table.len(), d.len());
                tiers.insert(table.tier().name());
                for &k in d.as_slice() {
                    let target = d.lower_bound(k);
                    let hint = table.correct(model.predict_clamped(k));
                    let w = hint.window.unwrap();
                    assert!(
                        hint.start <= target && target < hint.start + w.max(1),
                        "{name} n={n} ({}): key {k} target {target} outside window [{}, {})",
                        table.tier(),
                        hint.start,
                        hint.start + w
                    );
                }
            }
        }
        assert_eq!(tiers.len(), 3, "every tier is covered: {tiers:?}");
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
        // A perfect model on small data also packs into the narrow encoding.
        assert!(table.is_narrow());
    }

    #[cfg_attr(miri, ignore = "dataset too large for Miri")]
    #[test]
    fn wide_encoding_used_for_huge_drift() {
        // A model with an enormous bias forces the wide tier.
        struct AlwaysZero(usize);
        impl CdfModel<u64> for AlwaysZero {
            fn predict(&self, _key: u64) -> usize {
                0
            }
            fn key_count(&self) -> usize {
                self.0
            }
            fn size_bytes(&self) -> usize {
                0
            }
            fn is_monotonic(&self) -> bool {
                true
            }
            fn name(&self) -> &'static str {
                "zero"
            }
        }
        let n = 100_000;
        let keys: Vec<u64> = (0..n as u64).collect();
        let table = ShiftTable::build(&AlwaysZero(n), &keys);
        assert!(!table.is_narrow(), "drift up to n-1 cannot fit in i16");
        // All keys predicted at 0: window covers everything.
        let hint = table.correct(0);
        assert_eq!(hint.start, 0);
        assert_eq!(hint.window, Some(n));
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
        // A near-perfect model packs narrow; IM over 70k lognormal keys
        // drifts past `i16`, but smoothly: 4 bytes an entry plus 4 per
        // block of 8; over 200k of them one partition takes more keys than
        // a `u16` counts, and every entry takes 8 bytes.
        for (name, n, tier) in [
            (SosdName::Uden64, 10_000, EntryTier::Narrow),
            (SosdName::Logn64, 70_000, EntryTier::Relative),
            (SosdName::Logn64, 200_000, EntryTier::Wide),
        ] {
            let d: Dataset<u64> = name.generate(n, 21);
            let model = InterpolationModel::build(&d);
            let table = ShiftTable::build(&model, d.as_slice());
            assert_eq!(table.tier(), tier, "{name}");
            assert_eq!(table.is_narrow(), tier == EntryTier::Narrow);
            let bytes = match tier {
                EntryTier::Narrow => 4 * n,
                EntryTier::Relative => 4 * n + 4 * n.div_ceil(8),
                EntryTier::Wide => 8 * n,
            };
            assert_eq!(Correction::size_bytes(&table), bytes, "{name}");
            assert_eq!(table.entry_count(), d.len());
        }
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
