//! The full-resolution range-mode Shift-Table (the paper's R-1 layer).
//!
//! One drift `Δ_k` per possible model prediction (`M = N`), and one for the
//! end of the column, `Δ_N = 0`. Partition `k` starts at `S_k = k + Δ_k`
//! and its window ends where partition `k + 1`'s starts: a query's
//! prediction `k` is corrected to `[S_k, max(S_k, S_{k+1}))`, inside the
//! column because every start is a key's position or `N`. For a model that
//! never falls — every model of `learned_index` — that is exactly the
//! paper's `[k + Δ_k, k + Δ_k + C_k − 1]` of a partition with keys, and an
//! empty window at the lower bound of a query predicted into an empty one:
//! the lower bound of *every* query predicted at `k`, indexed or not, lies
//! in `[S_k, S_{k+1}]` (§3.1). A model that falls gets the layer of its
//! running maximum ([`crate::build`]); where its window misses, the §3.8
//! repair closes the lookup.
//!
//! Both drifts of a window come from one 64-byte line of drift offsets,
//! the last of which repeats the next line's first (`crate::packed`): a
//! correction reads one cache line. Each line carries a slope and 116
//! four-bit offsets, which store the residuals the slope leaves, so a
//! layer weighs `64·⌈N/115⌉ + 236·(short patches) + 464·(full patches)`
//! bytes. A line whose residuals spread past 14 stores them in units of
//! `u ≤ 16` records, so its windows hold the exact ones and overhang each
//! end by at most `u − 1 ≤ 15` records, still inside the column;
//! only a line spreading past 239 is escaped, its drifts kept in a patch:
//! 16-bit offsets from their least where they spread at most 65 535 (a
//! short patch), else in full.

use crate::build;
use crate::correction::{Correction, SearchHint};
use crate::entry::ShiftEntry;
use crate::error::BuildError;
use crate::packed::Lines;
use learned_index::model::CdfModel;
use sosd_data::key::Key;

/// Range-mode Shift-Table: one `Δ` per prediction value, each window ending
/// at the next one's start.
#[derive(Debug, Clone)]
pub struct ShiftTable {
    /// `n + 1` drifts over `n > 0` keys, none over none.
    drifts: Lines,
    n: usize,
}

impl ShiftTable {
    /// The most keys one layer can cover, `2^29 − 1` (a line's base is a
    /// drift in 30 bits; its top two bits hold half of the line's unit
    /// code). The
    /// validating builders
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
    /// Complexity: `O(N · cost(F_θ) + N)` — one model execution per key and
    /// one sequential write of the packed layer ([`crate::build`]).
    ///
    /// # Panics
    /// If `keys` is longer than [`ShiftTable::MAX_KEYS`].
    pub fn build<K: Key, M: CdfModel<K> + ?Sized>(model: &M, keys: &[K]) -> Self {
        Self {
            drifts: build::build_range_layer(model, keys),
            n: keys.len(),
        }
    }

    /// Assemble a layer from hand-written partition starts `S_k`, one per
    /// key.
    #[cfg(test)]
    pub(crate) fn from_starts(starts: &[usize]) -> Self {
        let drifts = starts.iter().enumerate().map(|(k, &s)| s as i32 - k as i32);
        let end = (!starts.is_empty()).then_some(0);
        Self {
            drifts: Lines::from_drifts(&drifts.chain(end).collect::<Vec<_>>()),
            n: starts.len(),
        }
    }

    /// Number of keys (== number of entries, `M = N`).
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the layer has no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The partition `prediction` falls in — the last one past the end —
    /// its served drift, and its served window `(start, length)`: from its
    /// own start to the next partition's, empty where that is not past it.
    /// In a shifted line the start is rounded down and the end up, by at
    /// most its unit less 1 each. Every start is a key's position or the end of
    /// the column, and the builder escapes a line whose rounding would
    /// leave it, so the window lies inside the column. `None` for a layer
    /// over no keys.
    #[inline]
    fn window(&self, prediction: usize) -> Option<(i32, usize, usize)> {
        let (k, delta, len) = self.drifts.pair(prediction)?;
        Some((delta, k.wrapping_add_signed(delta as isize), len))
    }

    /// Fetch the entry for prediction `k` (clamped into range): its served
    /// `Δ_k` and window length — 0 for an empty partition; exact unless
    /// its line is shifted.
    #[inline]
    pub fn entry(&self, k: usize) -> ShiftEntry {
        self.window(k)
            .map_or_else(ShiftEntry::default, |(delta, _, len)| {
                ShiftEntry::new(delta as i64, len as u64)
            })
    }

    /// How many 4-byte words the patch array holds: the patches of the
    /// escaped lines — those whose residuals spread past what a unit fits
    /// (239), or whose shifted windows would leave the column — 59 words a
    /// line whose drifts spread at most 65 535 (the least and 16-bit
    /// offsets from it) and 116 one that spreads more (its drifts in full),
    /// a short last line's padding included. A fetch from such a line reads
    /// its patch instead of its base and offsets.
    pub fn patches(&self) -> usize {
        self.drifts.patches()
    }

    /// How many lines store their drifts in units of `u` records,
    /// `u ∈ 2..=16`: those whose residuals spread past 14 that no escape
    /// took. Their windows overhang the exact ones by at most `u − 1` at
    /// each end.
    pub fn shifted_lines(&self) -> usize {
        self.drifts.shifted_lines()
    }

    /// Iterate over the window lengths `C_k` as the layer serves them (used
    /// by the cost model and by the Eq. 8 error estimate): 0 for an empty
    /// partition, so they sum to [`ShiftTable::len`] when no line is
    /// shifted, and to more when one is.
    pub fn window_lengths(&self) -> impl Iterator<Item = u64> + '_ {
        self.entries().map(|entry| entry.count)
    }

    /// Iterate over the `<Δ_k, C_k>` entries as the layer serves them:
    /// every `Δ_k` exact outside shifted lines (rounded down by less than
    /// their unit in them), every `C_k` as [`ShiftTable::window_lengths`]
    /// reports it.
    pub fn entries(&self) -> impl Iterator<Item = ShiftEntry> + '_ {
        (0..self.n).map(move |k| self.entry(k))
    }

    /// The expected prediction error after correction under a
    /// uniformly-from-the-keys query distribution (Eq. 8):
    /// `ē = (1 / 2N) · Σ_k C_k²` over the served windows — those of the
    /// partitions holding keys, an empty one adding 0.
    pub fn expected_error(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let sum_sq: f64 = self.window_lengths().map(|c| (c as f64) * (c as f64)).sum();
        sum_sq / (2.0 * self.n as f64)
    }
}

impl Correction for ShiftTable {
    // Forced: the batch kernel's correct stage must inline the fetch. A
    // build whose fetch tested both escapes at once and fell back to two
    // single fetches got `correct` called out of line from the kernel, and
    // the benchmark's `static_narrow` batch throughput fell 9 %.
    #[inline(always)]
    fn correct(&self, prediction: usize) -> SearchHint {
        // A layer over no keys serves the empty window at 0.
        let (_, start, len) = self.window(prediction).unwrap_or_default();
        SearchHint::bounded(start, len)
    }

    /// `64·⌈N/115⌉ + 236·(short patches) + 464·(full patches)` over `N`
    /// keys, one 64-byte line per 115 partitions and an escaped line's
    /// drifts as 16-bit offsets from their least or in full — 0 over
    /// no keys.
    fn size_bytes(&self) -> usize {
        self.drifts.size_bytes()
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
        fn name(&self) -> &'static str {
            "constant"
        }
    }

    type HardLayer = (Box<dyn CdfModel<u64>>, Dataset<u64>);

    /// Layers of long windows: a least-squares line over lognormal keys
    /// crowds its predictions into few partitions between long stretches
    /// of empty ones, with a drift inside `i16` at 6 k keys and past it at
    /// 70 k; with every key predicted into the last partition the one
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

    /// Bytes of the smallest plain encoding the served `<Δ, C>` entries fit
    /// — `(i16, u16)`, `(u16, u16)` under a base per block of 8, or
    /// `(i32, u32)`: what a layer that stores its counts costs, and the
    /// drift-only layout may not cost more.
    fn plain_bytes(table: &ShiftTable) -> usize {
        let entries: Vec<ShiftEntry> = table.entries().collect();
        let n = entries.len();
        let counts_fit = entries.iter().all(|e| e.count <= u16::MAX as u64);
        let spreads_fit = entries.chunks(8).all(|block| {
            let deltas = block.iter().map(|e| e.delta);
            deltas.clone().max().unwrap() - deltas.min().unwrap() <= u16::MAX as i64
        });
        if counts_fit && entries.iter().all(|e| i16::try_from(e.delta).is_ok()) {
            4 * n
        } else if counts_fit && spreads_fit {
            4 * n + 4 * n.div_ceil(8)
        } else {
            8 * n
        }
    }

    /// Drifts a line holds, the pairs it serves, and the words of a short
    /// patch.
    const LINE: usize = 116;
    const PAIRS: usize = 115;
    const SHORT: usize = 59;

    /// Bytes of `table`, a layer over `n` keys with `p` words in its patch
    /// array: `64·⌈n/115⌉ + 4·p` — a 64-byte line serves 115 of the `n`
    /// pairs of neighbouring drifts, and an escaped line's patch costs 4
    /// bytes a word, 59 words or 116.
    fn layer_bytes(table: &ShiftTable) -> usize {
        let patches = table.patches();
        let whole = (0..=patches / LINE).any(|full| (patches - full * LINE).is_multiple_of(SHORT));
        assert!(whole, "{patches} words: patches of {SHORT} or {LINE}");
        64 * table.len().div_ceil(PAIRS) + 4 * patches
    }

    /// Build the layer and check every indexed key lies inside its
    /// corrected window, which lies inside the column.
    fn assert_windows_cover_every_key(model: &dyn CdfModel<u64>, d: &Dataset<u64>) -> ShiftTable {
        let table = ShiftTable::build(model, d.as_slice());
        assert_eq!(table.len(), d.len());
        for &k in d.as_slice() {
            let target = d.lower_bound(k);
            let hint = table.correct(model.predict_clamped(k));
            let w = hint.window.unwrap();
            assert!(
                hint.start <= target && target < hint.start + w,
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
        // Under IM at 200 k keys several generators' layers hold escaped
        // lines (a dense region climbs the drift past 239 in one line).
        let mut patched = 0;
        for n in [10_000, 200_000] {
            for name in SosdName::all() {
                let d: Dataset<u64> = name.generate(n, 21);
                let table = assert_windows_cover_every_key(&InterpolationModel::build(&d), &d);
                patched += usize::from(table.patches() > 0);
            }
        }
        assert!(patched >= 5, "{patched} layers with patches");
        // And through long windows wherever one looks.
        for (model, d) in hard_layers() {
            assert_windows_cover_every_key(&*model, &d);
        }
    }

    #[cfg_attr(miri, ignore = "dataset too large for Miri")]
    #[test]
    fn monotone_layers_serve_exact_windows_and_empty_ones_at_the_next_start() {
        // Every model over every generator: in a line of unit 1 a
        // partition with keys serves exactly the run of positions predicted
        // into it, an empty one an empty window where the next partition
        // with keys starts (or at the end). In a line of unit `u` the
        // window holds that one and overhangs each of its ends by at most
        // `u − 1`. Under the lines' slopes. The next test puts every
        // query's lower bound in its window.
        use learned_index::spec::ModelSpec;
        let specs = [
            "im", "linear", "cubic", "rmi:64", "rmi:4096", "rs:32", "pgm:64",
        ];
        let mut shifted = 0;
        for spec in specs.map(|spec| ModelSpec::parse(spec).unwrap()) {
            for name in SosdName::all() {
                let d: Dataset<u64> = name.generate(20_000, 21);
                let (keys, n) = (d.as_slice(), d.len());
                let model = spec.build(keys);
                let table = ShiftTable::build(&*model, keys);
                shifted += table.shifted_lines();
                let mut runs = vec![(n, 0); n];
                for (i, &key) in keys.iter().enumerate() {
                    let (first, count) = &mut runs[model.predict_clamped(key)];
                    *first = (*first).min(i);
                    *count += 1;
                }
                let mut next_start = n;
                for (k, &(first, count)) in runs.iter().enumerate().rev() {
                    let start = if count > 0 { first } else { next_start };
                    let tag = format!("{name} {spec} partition {k}");
                    let hint = table.correct(k);
                    match table.drifts.unit(k).unwrap_or(1) {
                        1 => {
                            assert_eq!(hint, SearchHint::bounded(start, count), "{tag}");
                            assert_eq!(table.entry(k).count, count as u64, "{tag}");
                        }
                        unit => {
                            let (end, served_end) =
                                (start + count, hint.start + hint.window.unwrap());
                            let overhang = unit as usize - 1;
                            assert!(
                                hint.start <= start && start - hint.start <= overhang,
                                "{tag}"
                            );
                            assert!(served_end >= end && served_end - end <= overhang, "{tag}");
                        }
                    }
                    next_start = start;
                }
            }
        }
        assert!(shifted > 0, "the matrix holds shifted lines");
    }

    #[cfg_attr(miri, ignore = "dataset too large for Miri")]
    #[test]
    fn every_built_in_range_spec_serves_every_lower_bound_inside_its_window() {
        // Every range spec, over every generator, with queries beside each
        // key and past both ends: the model's predictions never fall, and
        // every lower bound lies in the window its prediction is served, so
        // a built-in model never needs the lookup's repair gallop. The
        // benchmark's RMI and a cubic root ride along.
        use crate::index::CorrectionLayer;
        use crate::spec::{IndexSpec, LayerSpec};
        let mut specs: Vec<IndexSpec> = IndexSpec::all_combinations()
            .into_iter()
            .filter(|spec| spec.layer == LayerSpec::Range)
            .collect();
        specs.extend(["rmi:4096+r1", "rmi:64:cubic+r1"].map(|s| IndexSpec::parse(s).unwrap()));
        for spec in specs {
            for name in SosdName::all() {
                let d: Dataset<u64> = name.generate(20_000, 33);
                let index = spec.build_corrected(d.as_slice()).unwrap();
                let CorrectionLayer::Range(table) = index.layer() else {
                    panic!("{spec}: a range layer");
                };
                let mut queries: Vec<u64> = d
                    .as_slice()
                    .iter()
                    .flat_map(|&k| [k.saturating_sub(1), k, k.saturating_add(1)])
                    .chain([0, u64::MAX])
                    .collect();
                queries.sort_unstable();
                let mut previous = 0;
                for q in queries {
                    let p = index.model().predict_clamped(q);
                    assert!(
                        p >= previous,
                        "{name} {spec}: query {q} predicted {p} < {previous}"
                    );
                    previous = p;
                    let target = d.lower_bound(q);
                    let hint = table.correct(p);
                    assert!(
                        hint.start <= target && target <= hint.start + hint.window.unwrap(),
                        "{name} {spec}: query {q} target {target} outside {hint:?}"
                    );
                }
            }
        }
    }

    #[cfg_attr(miri, ignore = "dataset too large for Miri")]
    #[test]
    fn a_layer_built_from_handed_over_predictions_equals_the_models() {
        // An index spec's build trains the model and builds its layer
        // through the one emitter. The layer is the one `ShiftTable::build`
        // gets from the trained model — lines and patches — for every
        // family.
        use crate::index::CorrectionLayer;
        use crate::spec::{IndexSpec, LayerSpec};
        use learned_index::spec::ModelSpec;
        let rmis = ["rmi:4096", "rmi:64:cubic"].map(|spec| ModelSpec::parse(spec).unwrap());
        let mut columns = sosd_data::generators::adversary_columns();
        for n in [6_000, 70_000] {
            for name in SosdName::all() {
                columns.push((name.as_str(), name.generate::<u64>(n, 21).into_keys()));
            }
        }
        for spec in rmis.into_iter().chain(ModelSpec::all_families()) {
            for (name, keys) in &columns {
                let tag = format!("{name} {spec} n={}", keys.len());
                let index = IndexSpec::new(spec, LayerSpec::Range)
                    .build_corrected(keys.as_slice())
                    .unwrap();
                let CorrectionLayer::Range(layer) = index.layer() else {
                    panic!("{tag}: a range layer");
                };
                let expected = ShiftTable::build(index.model(), keys);
                assert!(layer.drifts == expected.drifts, "{tag}: layers differ");
                assert_eq!(layer.n, expected.n, "{tag}");
            }
        }
    }

    #[test]
    fn window_lengths_sum_to_the_key_count() {
        // Eq. 8–10 sum over the keys: an empty partition's window is 0, so
        // the windows add up to `N` exactly — when no line is shifted. A
        // shifted line's windows overhang the exact ones, so they add up to
        // more.
        let d: Dataset<u64> = SosdName::Amzn64.generate(4_000, 42);
        let model = InterpolationModel::build(&d);
        let table = ShiftTable::build(&model, d.as_slice());
        assert!(table.window_lengths().any(|c| c == 0), "empty partitions");
        assert!(table.shifted_lines() > 0);
        assert!(table.window_lengths().sum::<u64>() > d.len() as u64);
        let mut exact = 0;
        for name in SosdName::all() {
            let d: Dataset<u64> = name.generate(4_000, 42);
            let model = InterpolationModel::build(&d);
            let table = ShiftTable::build(&model, d.as_slice());
            let sum = table.window_lengths().sum::<u64>();
            let tag = format!("{name}: {} shifted lines", table.shifted_lines());
            assert!(sum >= d.len() as u64, "{tag}");
            assert_eq!(sum == d.len() as u64, table.shifted_lines() == 0, "{tag}");
            exact += usize::from(table.shifted_lines() == 0);
        }
        assert!(exact > 0, "layers without a shifted line");
    }

    #[cfg_attr(miri, ignore = "dataset too large for Miri")]
    #[test]
    fn accurate_models_pack_under_0_87_bytes_a_key() {
        // The layers of accurate models: 64 bytes a line of 115 pairs,
        // ≈ 0.557 bytes a key, and a few escaped lines. At 200 k keys every
        // one is under 0.87 bytes a key, and under 0.57 too (the worst,
        // logn64 and osmc64 under the RMI, read 0.5615) — a RadixSpline's
        // ±32 and a PGM's ±64 error on face and osmc keys included, which
        // shift most of their lines and escape few.
        use SosdName::*;
        let mut layers: Vec<(SosdName, &str)> = vec![(Osmc64, "rmi:4096"), (Logn64, "rmi:4096")];
        for name in SosdName::all() {
            layers.extend([(name, "rs:32"), (name, "pgm:64")]);
        }
        let n = 200_000;
        for (name, spec) in layers {
            let d: Dataset<u64> = name.generate(n, 21);
            let model = learned_index::spec::ModelSpec::parse(spec)
                .unwrap()
                .build(d.as_slice());
            let table = ShiftTable::build(&*model, d.as_slice());
            let bytes = Correction::size_bytes(&table);
            let tag = format!("{name} {spec}: {bytes} bytes");
            assert_eq!(bytes, layer_bytes(&table), "{tag}");
            assert!(bytes * 100 < n * 57, "{tag}");
        }
    }

    #[cfg_attr(miri, ignore = "dataset too large for Miri")]
    #[test]
    fn every_generator_packs_under_1_1_bytes_a_key() {
        // 64 bytes a line of 115 pairs and 4 bytes a patch word: for every
        // model there is under 1.00 byte a key at 6 k keys, 0.70 at 70 k
        // and 0.59 at 200 k — the worst layers, osmc64 under a line at 6 k
        // and 70 k and under the cubic-leaf RMI at 200 k, read 0.998, 0.698
        // and 0.590 — and never more than the smallest plain encoding of
        // the same served entries.
        use learned_index::spec::ModelSpec;
        let specs = [
            "im",
            "rmi:4096",
            "linear",
            "cubic",
            "rmi:64",
            "rmi:64:cubic",
            "rs:32",
            "pgm:64",
        ];
        for spec in specs {
            let spec = ModelSpec::parse(spec).unwrap();
            for n in [6_000, 70_000, 200_000] {
                for name in SosdName::all() {
                    let d: Dataset<u64> = name.generate(n, 21);
                    let model = spec.build(d.as_slice());
                    let table = ShiftTable::build(&*model, d.as_slice());
                    let bytes = Correction::size_bytes(&table);
                    let tag = format!("{name} {spec} n={n}: {} patches", table.patches());
                    assert_eq!(bytes, layer_bytes(&table), "{tag}");
                    let hundredths = match n {
                        6_000 => 100,
                        70_000 => 70,
                        _ => 59,
                    };
                    assert!(bytes * 100 < n * hundredths, "{tag}: {bytes} bytes");
                    let plain = plain_bytes(&table);
                    assert!(bytes <= plain, "{tag}: {bytes} bytes, {plain} plain");
                }
            }
        }
    }

    #[test]
    fn expected_error_matches_hand_computation() {
        // Windows of length 1, 3 and 2 over 6 keys, then three empty
        // partitions at the end.
        let table = ShiftTable::from_starts(&[0, 1, 4, 6, 6, 6]);
        let windows: Vec<u64> = table.window_lengths().collect();
        assert_eq!(windows, [1, 3, 2, 0, 0, 0]);
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
        // A perfect model's layer is 64 bytes a line of 115 keys: nothing to
        // shift or patch.
        assert_eq!((table.shifted_lines(), table.patches()), (0, 0));
        assert_eq!(
            Correction::size_bytes(&table),
            64 * 5_000usize.div_ceil(115)
        );
    }

    #[cfg_attr(miri, ignore = "dataset too large for Miri")]
    #[test]
    fn huge_drift_either_way_is_a_base_and_a_long_window_a_code() {
        // A model with an enormous bias, either way. Every key predicted
        // at 0: one window over everything — its `Δ` of 0 is its line's
        // base, so the line, whose other 115 drift `n − 1` and less, is
        // escaped — and partitions right of it that start at the end, their
        // drifts falling by one a partition: a slope of −1 stores the rest
        // exactly, but for the short last line. Its 65 pairs fall to the
        // end's 0 and its 50 of padding stay there, a bend no one slope
        // holds in 14, and its shifted windows would end past the column:
        // a short patch.
        let n = 100_000;
        let keys: Vec<u64> = (0..n as u64).collect();
        let table = ShiftTable::build(&Constant { n, at: 0 }, &keys);
        assert_eq!(n % PAIRS, 65);
        assert_eq!(table.patches(), LINE + SHORT);
        assert_eq!(table.entry(0), ShiftEntry::new(0, n as u64));
        assert_eq!(table.correct(0), SearchHint::bounded(0, n));
        assert_eq!(table.entry(1), ShiftEntry::new(n as i64 - 1, 0));
        assert_eq!(table.correct(n / 2), SearchHint::bounded(n, 0));
        // Every key predicted at `n − 1`: every partition left of it is
        // empty and starts at the first key; its window is the column, so
        // its drift and the end's, which share the last line, escape it.
        let table = ShiftTable::build(&Constant { n, at: n - 1 }, &keys);
        assert_eq!(table.patches(), LINE);
        assert_eq!(Correction::size_bytes(&table), layer_bytes(&table));
        for k in [0, n / 2] {
            assert_eq!(table.entry(k), ShiftEntry::new(-(k as i64), 0));
            assert_eq!(table.correct(k), SearchHint::bounded(0, 0));
        }
        let last = ShiftEntry::new(1 - n as i64, n as u64);
        assert_eq!(table.entry(n - 1), last);
        assert_eq!(table.correct(n - 1), SearchHint::bounded(0, n));
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
        // 64 bytes a line of 115 keys and 236 or 464 an escaped line —
        // also where the smallest plain encoding of the served entries is
        // 4, 4.5 and 8 bytes an entry.
        for ((model, d), plain) in hard_layers().into_iter().zip([8, 9, 16]) {
            let n = d.len();
            let table = ShiftTable::build(&*model, d.as_slice());
            assert_eq!(plain_bytes(&table) * 2, plain * n, "{}", d.name());
            assert_eq!(Correction::size_bytes(&table), layer_bytes(&table));
            // Every window past 240 records, less its line's climb, escapes
            // its line: a few.
            let patches = table.patches();
            assert!(patches < n / 40, "{}: {patches} patches", d.name());
            assert_eq!(table.len(), n);
            // All in the last partition: one escaped line, the last.
            if plain == 16 {
                assert_eq!(table.patches(), LINE);
            }
        }
        // IM over 200 k lognormal keys: a few escaped lines.
        let n = 200_000;
        let d: Dataset<u64> = SosdName::Logn64.generate(n, 21);
        let table = ShiftTable::build(&InterpolationModel::build(&d), d.as_slice());
        assert!((1..n / 100).contains(&table.patches()));
        assert_eq!(Correction::size_bytes(&table), layer_bytes(&table));
    }

    #[test]
    fn only_columns_past_max_keys_are_rejected() {
        assert_eq!(ShiftTable::check_len(ShiftTable::MAX_KEYS), Ok(()));
        assert_eq!(
            ShiftTable::check_len(ShiftTable::MAX_KEYS + 1),
            Err(BuildError::TooManyKeys {
                len: ShiftTable::MAX_KEYS + 1,
                max: (1 << 29) - 1,
            })
        );
    }
}
