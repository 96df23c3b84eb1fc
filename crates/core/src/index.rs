//! [`CorrectedIndex`]: a complete range index assembled from a learned CDF
//! model, an optional Shift-Table layer and the last-mile search routines —
//! the query path of Algorithm 1.
//!
//! The index is generic over its key storage `S: AsRef<[K]>`:
//!
//! * the default `Arc<[K]>` makes the index **owned** — `'static`, `Send`
//!   and `Sync`, shareable across threads and buildable from a config at run
//!   time (see [`crate::spec::IndexSpec`]),
//! * a borrowed `&[K]` keeps the zero-copy construction path that the
//!   benchmark harness uses to build many indexes over one key column.

use crate::compact::CompactShiftTable;
use crate::config::ShiftTableConfig;
use crate::correction::{Correction, SearchHint, Uncorrected};
use crate::cost::{TuningAdvisor, TuningDecision};
use crate::error::{first_unsorted, BuildError, CorrectionErrorStats};
use crate::kernel;
use crate::spec::LayerSpec;
use crate::table::ShiftTable;
use algo_index::search::RangeIndex;
use learned_index::model::CdfModel;
use learned_index::ModelErrorStats;
use sosd_data::key::Key;
use std::marker::PhantomData;
use std::sync::{Arc, OnceLock};

/// Which correction layer (if any) the index carries.
#[derive(Debug, Clone)]
pub enum CorrectionLayer {
    /// No correction: the model's prediction is searched with exponential
    /// search (a plain learned index).
    None,
    /// Full-resolution `<Δ, C>` range layer (R-1).
    Range(ShiftTable),
    /// Compressed midpoint layer (S-X).
    Midpoint(CompactShiftTable),
}

impl CorrectionLayer {
    /// Memory footprint of the layer in bytes (0 for `None`).
    pub fn size_bytes(&self) -> usize {
        match self {
            Self::None => 0,
            Self::Range(t) => Correction::size_bytes(t),
            Self::Midpoint(t) => Correction::size_bytes(t),
        }
    }

    /// True when a layer is present.
    pub fn is_some(&self) -> bool {
        !matches!(self, Self::None)
    }
}

/// Builder for [`CorrectedIndex`], generic over the key storage `S`.
pub struct CorrectedIndexBuilder<K: Key, M: CdfModel<K>, S: AsRef<[K]> + Send + Sync> {
    keys: S,
    model: M,
    /// The model's clamped prediction of every key, when its trainer
    /// computed them: the range layer is built from these.
    predictions: Option<Vec<u32>>,
    layer: LayerSpec,
    config: ShiftTableConfig,
    _key: PhantomData<fn(K) -> K>,
}

impl<K: Key, M: CdfModel<K>, S: AsRef<[K]> + Send + Sync> CorrectedIndexBuilder<K, M, S> {
    fn new(keys: S, model: M) -> Self {
        Self {
            keys,
            model,
            predictions: None,
            layer: LayerSpec::None,
            config: ShiftTableConfig::default(),
            _key: PhantomData,
        }
    }

    /// Build a range layer from `predictions` instead of the model: the
    /// caller guarantees `predictions[i] == model.predict_clamped(keys[i])`
    /// for every key ([`crate::spec::IndexSpec`] hands over a trainer's).
    pub(crate) fn predictions(mut self, predictions: Option<Vec<u32>>) -> Self {
        self.predictions = predictions;
        self
    }

    /// Construct the layer `layer` names ([`crate::spec::IndexSpec`]
    /// forwards its own).
    pub(crate) fn layer(mut self, layer: LayerSpec) -> Self {
        self.layer = layer;
        self
    }

    /// Attach a full-resolution `<Δ, C>` range layer (the paper's R-1 and the
    /// recommended default, §3.9).
    pub fn with_range_table(self) -> Self {
        self.layer(LayerSpec::Range)
    }

    /// Attach a compressed midpoint layer with one entry per
    /// `records_per_entry` records (the paper's S-X).
    pub fn with_compact_table(self, records_per_entry: usize) -> Self {
        self.layer(LayerSpec::Midpoint {
            records_per_entry: records_per_entry.max(1),
        })
    }

    /// Use the model alone (no correction layer).
    pub fn without_correction(self) -> Self {
        self.layer(LayerSpec::None)
    }

    /// Let the §3.9 tuning procedure decide: build a range layer, compare the
    /// model error before/after and keep the layer only if it pays off.
    pub fn with_auto_tuning(self) -> Self {
        self.layer(LayerSpec::Auto)
    }

    /// Override the query-path configuration.
    pub fn config(mut self, config: ShiftTableConfig) -> Self {
        self.config = config;
        self
    }

    /// Build the corrected index, validating that the keys are sorted.
    ///
    /// # Errors
    /// Returns [`BuildError::UnsortedKeys`] if the key column is not in
    /// non-decreasing order (the layer invariants — and every query — would
    /// be silently wrong otherwise), and [`BuildError::TooManyKeys`] if a
    /// range layer is asked for over more than [`ShiftTable::MAX_KEYS`] keys.
    pub fn build(self) -> Result<CorrectedIndex<K, M, S>, BuildError> {
        if matches!(self.layer, LayerSpec::Range | LayerSpec::Auto) {
            ShiftTable::check_len(self.keys.as_ref().len())?;
        }
        if let Some(position) = first_unsorted(self.keys.as_ref()) {
            return Err(BuildError::UnsortedKeys { position });
        }
        Ok(self.build_prevalidated())
    }

    /// Build without re-running the validation — for callers (e.g.
    /// [`crate::spec::IndexSpec`]) that already checked the key column's
    /// order and length.
    pub(crate) fn build_prevalidated(self) -> CorrectedIndex<K, M, S> {
        let keys = self.keys.as_ref();
        // The raw-model error statistic backs the probe-count proxy whenever
        // no correction layer serves the query. It is computed lazily on
        // first use (and cached) so builds never pay an extra per-key model
        // sweep for a value most indexes never read — the store's write path
        // re-enters this builder on every shard rebuild. The `Auto` path
        // needs the statistic for its tuning decision anyway, so it seeds the
        // cache for free.
        let model_expected_error = OnceLock::new();
        let predictions = self.predictions.as_deref();
        let layer = match self.layer {
            LayerSpec::None => CorrectionLayer::None,
            LayerSpec::Range => {
                CorrectionLayer::Range(ShiftTable::build_with(&self.model, keys, predictions))
            }
            LayerSpec::Midpoint { records_per_entry } => CorrectionLayer::Midpoint(
                CompactShiftTable::build(&self.model, keys, records_per_entry),
            ),
            LayerSpec::Auto => {
                let table = ShiftTable::build_with(&self.model, keys, predictions);
                let before = ModelErrorStats::mean_abs_on_keys(&self.model, keys);
                let _ = model_expected_error.set(before);
                let advisor = TuningAdvisor::with(Default::default(), self.config);
                match advisor.decide(before, table.expected_error()) {
                    TuningDecision::ModelWithShiftTable => CorrectionLayer::Range(table),
                    TuningDecision::ModelAlone => CorrectionLayer::None,
                }
            }
        };
        CorrectedIndex {
            keys: self.keys,
            model: self.model,
            layer,
            enabled: true,
            config: self.config,
            model_expected_error,
            _key: PhantomData,
        }
    }
}

/// A learned range index with (optional) Shift-Table correction.
///
/// Implements [`RangeIndex`], so it is directly comparable with every
/// algorithmic baseline in the `algo-index` crate — and, with the default
/// `Arc<[K]>` storage, is `'static + Send + Sync`, so it can be boxed into a
/// [`algo_index::DynRangeIndex`] and shared across threads.
pub struct CorrectedIndex<K: Key, M: CdfModel<K>, S: AsRef<[K]> + Send + Sync = Arc<[K]>> {
    keys: S,
    model: M,
    layer: CorrectionLayer,
    /// §3.9: the layer is optional and can be switched off at run time with
    /// zero cost; when disabled the model's raw prediction is used.
    enabled: bool,
    config: ShiftTableConfig,
    /// Mean absolute error of the raw model over the indexed keys — the
    /// drift statistic `probe_estimate` uses instead of probing the key
    /// array. Computed once, lazily, on the first estimate that needs it
    /// (the `Auto` build seeds it as a by-product of its tuning decision).
    model_expected_error: OnceLock<f64>,
    _key: PhantomData<fn(K) -> K>,
}

/// A corrected index borrowing its key column — the zero-copy construction
/// path used when many indexes are built over one resident key array.
pub type BorrowedCorrectedIndex<'a, K, M> = CorrectedIndex<K, M, &'a [K]>;

impl<K: Key, M: CdfModel<K>, S: AsRef<[K]> + Send + Sync> CorrectedIndex<K, M, S> {
    /// Start building a corrected index over sorted `keys` with `model`.
    ///
    /// `keys` may be any storage the index can read a sorted slice from: a
    /// borrowed `&[K]` (zero copy, index borrows), `Arc<[K]>` / `Vec<K>`
    /// (owned, `'static` index). Sortedness is validated by
    /// [`CorrectedIndexBuilder::build`].
    pub fn builder(keys: S, model: M) -> CorrectedIndexBuilder<K, M, S> {
        CorrectedIndexBuilder::new(keys, model)
    }

    /// The sorted key column the index searches over.
    #[inline]
    pub fn keys(&self) -> &[K] {
        self.keys.as_ref()
    }

    /// The underlying model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// The correction layer.
    pub fn layer(&self) -> &CorrectionLayer {
        &self.layer
    }

    /// The query-path configuration.
    pub fn config(&self) -> &ShiftTableConfig {
        &self.config
    }

    /// Enable or disable the correction layer at run time (§3.9). Disabling
    /// does not free the layer; it is simply bypassed.
    pub fn set_layer_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// True if a layer is present and enabled.
    pub fn layer_enabled(&self) -> bool {
        self.enabled && self.layer.is_some()
    }

    /// The model's uncorrected (clamped) prediction for a key.
    pub fn predict_uncorrected(&self, q: K) -> usize {
        self.model.predict_clamped(q)
    }

    /// The corrected position hint for a key (window start for range mode).
    pub fn predict_corrected(&self, q: K) -> usize {
        let pred = self.model.predict_clamped(q);
        if !self.enabled {
            return pred;
        }
        match &self.layer {
            CorrectionLayer::None => pred,
            CorrectionLayer::Range(t) => t.correct(pred).start,
            CorrectionLayer::Midpoint(t) => t.correct(pred).start,
        }
    }

    /// Empirical error statistics of the corrected predictions.
    pub fn correction_error(&self) -> CorrectionErrorStats {
        let keys = self.keys.as_ref();
        match &self.layer {
            CorrectionLayer::Range(t) => CorrectionErrorStats::compute(&self.model, t, keys),
            CorrectionLayer::Midpoint(t) => CorrectionErrorStats::compute(&self.model, t, keys),
            // The "correction" is the identity: measure the raw model.
            CorrectionLayer::None => CorrectionErrorStats::compute(&self.model, &Uncorrected, keys),
        }
    }

    /// Expected number of key-array probes a lookup for `q` performs (used by
    /// the harness as a cache-miss proxy without timing).
    ///
    /// # Contract
    /// Per call, the estimate never probes the key array: it is derived from
    /// the model prediction plus cached drift/error statistics — the
    /// guaranteed window length for the range layer, the RMS residual the
    /// midpoint layer records at build time, and (for the uncorrected path)
    /// the model's mean absolute error, computed once on first use and
    /// cached. (A proxy that located the true position per estimate would
    /// perturb the very cache behaviour it stands in for, and would cost a
    /// full lookup each call.)
    pub fn probe_estimate(&self, q: K) -> usize {
        match (&self.layer, self.enabled) {
            // Only the range layer needs the query's prediction (to fetch
            // its per-partition window); the other arms are distributional.
            (CorrectionLayer::Range(t), true) => {
                let hint = t.correct(self.model.predict_clamped(q));
                1 + crate::local_search::window_probe_count(
                    hint.window.unwrap_or(1).max(1),
                    self.config.linear_to_binary_threshold,
                )
            }
            (CorrectionLayer::Midpoint(t), true) => {
                // Exponential search from the corrected position: the RMS
                // residual the layer recorded at build time stands in for
                // the (unknown) distance to the true position.
                let distance = (t.expected_error().ceil() as usize).max(1);
                1 + 2 * (usize::BITS - distance.leading_zeros()) as usize
            }
            _ => {
                // Raw model prediction: the model's mean absolute error is
                // the expected galloping distance (computed once, cached).
                let expected = *self.model_expected_error.get_or_init(|| {
                    ModelErrorStats::mean_abs_on_keys(&self.model, self.keys.as_ref())
                });
                let distance = (expected.ceil() as usize).max(1);
                2 * (usize::BITS - distance.leading_zeros()) as usize
            }
        }
    }

    /// Batched lookups through the **stage-blocked** reference loop: the
    /// predict and correct stages run as per-block loops, then each lane
    /// resolves serially exactly as the scalar [`RangeIndex::lower_bound`]
    /// does. Kept as the benchmark baseline the pipelined kernel is measured
    /// against and as a differential-test oracle; production callers use
    /// [`RangeIndex::lower_bound_batch`], which routes through
    /// [`crate::kernel`].
    ///
    /// # Panics
    /// Panics if `queries` and `out` have different lengths.
    pub fn lower_bound_batch_blocked(&self, queries: &[K], out: &mut [usize]) {
        // lint: allow(panic) API contract: unequal lengths would silently write predictions to wrong slots
        assert_eq!(
            queries.len(),
            out.len(),
            "lower_bound_batch_blocked requires queries and out of equal length"
        );
        let (model, keys) = (&self.model, self.keys.as_ref());
        let threshold = self.config.linear_to_binary_threshold;
        match (&self.layer, self.enabled) {
            (CorrectionLayer::Range(t), true) => {
                kernel::run_blocked(model, t, keys, threshold, queries, out)
            }
            (CorrectionLayer::Midpoint(t), true) => {
                kernel::run_blocked(model, t, keys, threshold, queries, out)
            }
            _ => kernel::run_blocked(model, &Uncorrected, keys, threshold, queries, out),
        }
    }
}

impl<K: Key, M: CdfModel<K>> CorrectedIndex<K, M, Arc<[K]>> {
    /// Start building an **owned** corrected index: the key column is moved
    /// (or cheaply converted) into shared `Arc<[K]>` storage, so the finished
    /// index is `'static + Send + Sync`.
    ///
    /// Accepts anything convertible into `Arc<[K]>`: a `Vec<K>`, a boxed
    /// slice, an existing `Arc<[K]>` clone, or `Dataset::into_shared()`.
    pub fn owned_builder(
        keys: impl Into<Arc<[K]>>,
        model: M,
    ) -> CorrectedIndexBuilder<K, M, Arc<[K]>> {
        CorrectedIndexBuilder::new(keys.into(), model)
    }
}

impl<K: Key, M: CdfModel<K>, S: AsRef<[K]> + Send + Sync> RangeIndex<K>
    for CorrectedIndex<K, M, S>
{
    fn lower_bound(&self, q: K) -> usize {
        let keys = self.keys.as_ref();
        if keys.is_empty() {
            return 0;
        }
        let p = self.model.predict_clamped(q);
        let threshold = self.config.linear_to_binary_threshold;
        match (&self.layer, self.enabled) {
            (CorrectionLayer::Range(t), true) => kernel::resolve(keys, t.correct(p), q, threshold),
            (CorrectionLayer::Midpoint(t), true) => {
                kernel::resolve(keys, t.correct(p), q, threshold)
            }
            _ => kernel::resolve(keys, SearchHint::unbounded(p), q, threshold),
        }
    }

    /// Batched lookups through the software-pipelined [`crate::kernel`]: the
    /// predict and correct stages run as per-block loops of
    /// [`kernel::BATCH_BLOCK`] queries (issuing their independent loads
    /// back-to-back). A block of narrow windows only then resolves each lane
    /// in order with an early-exit scan and no touch; any other block splits
    /// its lanes — narrow windows and unbounded hints resolve behind a
    /// [`kernel::WAVE_DEPTH`]-lane lookahead touch, so their DRAM latency
    /// overlaps the lanes ahead of them, and wide windows resolve
    /// breadth-first across the block.
    fn lower_bound_batch(&self, queries: &[K], out: &mut [usize]) {
        // lint: allow(panic) API contract: unequal lengths would silently write predictions to wrong slots
        assert_eq!(
            queries.len(),
            out.len(),
            "lower_bound_batch requires queries and out of equal length"
        );
        let (model, keys) = (&self.model, self.keys.as_ref());
        let threshold = self.config.linear_to_binary_threshold;
        match (&self.layer, self.enabled) {
            (CorrectionLayer::Range(t), true) => {
                kernel::run(model, t, keys, threshold, queries, out)
            }
            (CorrectionLayer::Midpoint(t), true) => {
                kernel::run(model, t, keys, threshold, queries, out)
            }
            _ => kernel::run(model, &Uncorrected, keys, threshold, queries, out),
        }
    }

    /// Range endpoints resolved as one two-query batch through the kernel:
    /// the start probe's and end probe's stage loads overlap instead of the
    /// two lookups running strictly back-to-back.
    fn range(&self, lo: K, hi: K) -> std::ops::Range<usize> {
        if lo > hi || self.keys.as_ref().is_empty() {
            return 0..0;
        }
        match hi.checked_next() {
            Some(h) => {
                let queries = [lo, h];
                let mut out = [0usize; 2];
                self.lower_bound_batch(&queries, &mut out);
                out[0]..out[1].max(out[0])
            }
            // `hi` is the domain maximum: the end is the key count.
            None => self.lower_bound(lo)..self.keys.as_ref().len(),
        }
    }

    fn len(&self) -> usize {
        self.keys.as_ref().len()
    }

    fn index_size_bytes(&self) -> usize {
        self.model.size_bytes() + self.layer.size_bytes()
    }

    fn name(&self) -> &'static str {
        match (&self.layer, self.enabled) {
            (CorrectionLayer::Range(_), true) => "Model+Shift-Table(R)",
            (CorrectionLayer::Midpoint(_), true) => "Model+Shift-Table(S)",
            _ => "Model",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::BATCH_BLOCK;
    use learned_index::prelude::*;
    use sosd_data::prelude::*;

    fn check_index<M: CdfModel<u64>, S: AsRef<[u64]> + Send + Sync>(
        d: &Dataset<u64>,
        index: &CorrectedIndex<u64, M, S>,
    ) {
        for w in [
            Workload::uniform_keys(d, 300, 1),
            Workload::uniform_domain(d, 300, 2),
            Workload::non_indexed(d, 300, 3),
        ] {
            for (q, expected) in w.iter() {
                assert_eq!(index.lower_bound(q), expected, "q={q}");
            }
            // The batched (pipelined-kernel) path must agree with the scalar
            // path everywhere — and so must the stage-blocked baseline.
            assert_eq!(
                index.lower_bound_many(w.queries()),
                w.expected().to_vec(),
                "batch mismatch"
            );
            let mut blocked = vec![0usize; w.queries().len()];
            index.lower_bound_batch_blocked(w.queries(), &mut blocked);
            assert_eq!(blocked, w.expected().to_vec(), "blocked batch mismatch");
        }
        // Out-of-range queries.
        assert_eq!(index.lower_bound(0), d.lower_bound(0));
        assert_eq!(index.lower_bound(u64::MAX), d.lower_bound(u64::MAX));
        // Ranges resolve through the batched kernel; spot-check them against
        // scalar probes.
        let keys = d.as_slice();
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
            assert_eq!(index.range(lo, hi), expected, "range {lo}..={hi}");
        }
    }

    #[cfg_attr(miri, ignore = "dataset too large for Miri")]
    #[test]
    fn im_with_range_table_is_correct_on_every_dataset() {
        for name in SosdName::all() {
            let d: Dataset<u64> = name.generate(8_000, 41);
            let index = CorrectedIndex::builder(d.as_slice(), InterpolationModel::build(&d))
                .with_range_table()
                .build()
                .unwrap();
            check_index(&d, &index);
        }
    }

    #[cfg_attr(miri, ignore = "dataset too large for Miri")]
    #[test]
    fn im_with_compact_table_is_correct_on_every_dataset() {
        for name in SosdName::all() {
            let d: Dataset<u64> = name.generate(8_000, 43);
            for x in [1usize, 10, 100] {
                let index = CorrectedIndex::builder(d.as_slice(), InterpolationModel::build(&d))
                    .with_compact_table(x)
                    .build()
                    .unwrap();
                check_index(&d, &index);
            }
        }
    }

    #[cfg_attr(miri, ignore = "dataset too large for Miri")]
    #[test]
    fn model_without_correction_is_still_correct() {
        for name in [SosdName::Osmc64, SosdName::Face64, SosdName::Logn64] {
            let d: Dataset<u64> = name.generate(8_000, 47);
            let index = CorrectedIndex::builder(d.as_slice(), InterpolationModel::build(&d))
                .without_correction()
                .build()
                .unwrap();
            check_index(&d, &index);
            assert_eq!(index.name(), "Model");
        }
    }

    #[cfg_attr(miri, ignore = "dataset too large for Miri")]
    #[test]
    fn owned_index_is_static_send_sync_and_shareable() {
        fn assert_owned<T: Send + Sync + 'static>(_: &T) {}
        let d: Dataset<u64> = SosdName::Face64.generate(8_000, 11);
        let w = Workload::uniform_keys(&d, 200, 5);
        let model = InterpolationModel::build(&d);
        let shared = d.into_shared();
        let index = CorrectedIndex::owned_builder(shared.clone(), model)
            .with_range_table()
            .build()
            .unwrap();
        assert_owned(&index);

        // The owned index moves across threads and stays exact.
        let index = std::sync::Arc::new(index);
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let index = std::sync::Arc::clone(&index);
                let queries = w.queries().to_vec();
                let expected = w.expected().to_vec();
                std::thread::spawn(move || {
                    for (&q, &e) in queries.iter().zip(expected.iter()) {
                        assert_eq!(index.lower_bound(q), e);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }

        // Storage is shared, not copied: the Arc has one more strong owner
        // inside the index.
        assert_eq!(std::sync::Arc::strong_count(&shared), 2);
    }

    #[test]
    fn unsorted_keys_are_rejected() {
        let keys = vec![5u64, 3, 9];
        let err = CorrectedIndex::builder(&keys[..], InterpolationModel::from_sorted_keys(&keys))
            .with_range_table()
            .build()
            .err()
            .unwrap();
        assert_eq!(err, BuildError::UnsortedKeys { position: 1 });

        let err = CorrectedIndex::owned_builder(
            vec![1u64, 2, 0],
            InterpolationModel::from_sorted_keys(&[1u64, 2, 0]),
        )
        .build()
        .err()
        .unwrap();
        assert_eq!(err, BuildError::UnsortedKeys { position: 2 });
    }

    /// A key that occupies no memory, so a column past
    /// [`ShiftTable::MAX_KEYS`] can exist in a test.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
    struct Unit;

    impl std::fmt::Display for Unit {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("unit")
        }
    }

    impl Key for Unit {
        const BITS: u32 = 0;
        const MIN_KEY: Self = Unit;
        const MAX_KEY: Self = Unit;
        fn to_u64(self) -> u64 {
            0
        }
        fn from_u64_saturating(_: u64) -> Self {
            Unit
        }
    }

    struct UnitModel(usize);

    impl CdfModel<Unit> for UnitModel {
        fn predict(&self, _: Unit) -> usize {
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
            "unit"
        }
    }

    #[test]
    fn a_column_past_max_keys_is_a_typed_error_for_range_layers_only() {
        const LEN: usize = ShiftTable::MAX_KEYS + 1;
        let column = [Unit; LEN];
        let builder = || CorrectedIndex::builder(&column[..], UnitModel(LEN));
        let too_many = BuildError::TooManyKeys {
            len: LEN,
            max: ShiftTable::MAX_KEYS,
        };
        assert_eq!(
            builder().with_range_table().build().err(),
            Some(too_many.clone())
        );
        assert_eq!(builder().with_auto_tuning().build().err(), Some(too_many));
        // (Nothing else is built here: validating 2^31 keys for order is
        // slow unoptimised.) The other layers hold 64-bit drifts.
        let spec = |s: &str| crate::spec::IndexSpec::parse(s).unwrap();
        assert!(spec("im+r1").check_key_count(LEN).is_err());
        assert!(spec("im+auto").check_key_count(LEN).is_err());
        assert!(spec("im+r1").check_key_count(LEN - 1).is_ok());
        assert!(spec("im+s64").check_key_count(LEN).is_ok());
        assert!(spec("im+none").check_key_count(LEN).is_ok());
    }

    #[cfg_attr(miri, ignore = "dataset too large for Miri")]
    #[test]
    fn works_with_radix_spline_and_rmi_models() {
        let d: Dataset<u64> = SosdName::Wiki64.generate(10_000, 53);
        let rs = RadixSpline::builder().max_error(64).build(&d);
        let index = CorrectedIndex::builder(d.as_slice(), rs)
            .with_range_table()
            .build()
            .unwrap();
        check_index(&d, &index);

        // RMI may be non-monotone; the repair path must keep it correct.
        let rmi = RmiIndex::builder().leaf_count(64).build(&d);
        let index = CorrectedIndex::builder(d.as_slice(), rmi)
            .with_range_table()
            .build()
            .unwrap();
        check_index(&d, &index);
    }

    #[cfg_attr(miri, ignore = "dataset too large for Miri")]
    #[test]
    fn toggling_the_layer_preserves_correctness_and_changes_probes() {
        let d: Dataset<u64> = SosdName::Osmc64.generate(30_000, 67);
        let mut index = CorrectedIndex::builder(d.as_slice(), InterpolationModel::build(&d))
            .with_range_table()
            .build()
            .unwrap();
        assert!(index.layer_enabled());
        let w = Workload::uniform_keys(&d, 200, 71);
        let probes_on: usize = w.queries().iter().map(|&q| index.probe_estimate(q)).sum();
        index.set_layer_enabled(false);
        assert!(!index.layer_enabled());
        assert_eq!(index.name(), "Model");
        for (q, expected) in w.iter() {
            assert_eq!(index.lower_bound(q), expected);
        }
        let probes_off: usize = w.queries().iter().map(|&q| index.probe_estimate(q)).sum();
        assert!(
            probes_on < probes_off,
            "the layer should reduce probes on hard data: {probes_on} vs {probes_off}"
        );
        index.set_layer_enabled(true);
        for (q, expected) in w.iter() {
            assert_eq!(index.lower_bound(q), expected);
        }
    }

    #[cfg_attr(miri, ignore = "dataset too large for Miri")]
    #[test]
    fn auto_tuning_attaches_the_layer_only_when_it_pays_off() {
        // Near-perfect model on uden → layer rejected.
        let uden: Dataset<u64> = SosdName::Uden64.generate(20_000, 73);
        let auto = CorrectedIndex::builder(uden.as_slice(), InterpolationModel::build(&uden))
            .with_auto_tuning()
            .build()
            .unwrap();
        assert!(!auto.layer_enabled(), "uden should not need the layer");
        check_index(&uden, &auto);

        // Hopeless model on face → layer attached.
        let face: Dataset<u64> = SosdName::Face64.generate(20_000, 73);
        let auto = CorrectedIndex::builder(face.as_slice(), InterpolationModel::build(&face))
            .with_auto_tuning()
            .build()
            .unwrap();
        assert!(auto.layer_enabled(), "face should enable the layer");
        check_index(&face, &auto);
    }

    #[cfg_attr(miri, ignore = "dataset too large for Miri")]
    #[test]
    fn correction_error_reporting() {
        let d: Dataset<u64> = SosdName::Face64.generate(20_000, 79);
        let plain = CorrectedIndex::builder(d.as_slice(), InterpolationModel::build(&d))
            .without_correction()
            .build()
            .unwrap();
        let corrected = CorrectedIndex::builder(d.as_slice(), InterpolationModel::build(&d))
            .with_range_table()
            .build()
            .unwrap();
        assert!(
            corrected.correction_error().mean_abs * 10.0 < plain.correction_error().mean_abs,
            "correction must reduce the reported error"
        );
        assert!(corrected.index_size_bytes() > plain.index_size_bytes());
    }

    #[test]
    fn empty_and_tiny_datasets() {
        let empty: Vec<u64> = vec![];
        let index =
            CorrectedIndex::builder(&empty[..], InterpolationModel::from_sorted_keys(&empty))
                .with_range_table()
                .build()
                .unwrap();
        assert_eq!(index.lower_bound(42), 0);
        assert_eq!(index.len(), 0);
        assert_eq!(index.lower_bound_many(&[1, 2, 3]), vec![0, 0, 0]);

        let one = vec![7u64];
        let index = CorrectedIndex::builder(&one[..], InterpolationModel::from_sorted_keys(&one))
            .with_range_table()
            .build()
            .unwrap();
        assert_eq!(index.lower_bound(6), 0);
        assert_eq!(index.lower_bound(7), 0);
        assert_eq!(index.lower_bound(8), 1);

        let dups = vec![5u64; 100];
        let index = CorrectedIndex::builder(&dups[..], InterpolationModel::from_sorted_keys(&dups))
            .with_range_table()
            .build()
            .unwrap();
        assert_eq!(index.lower_bound(5), 0);
        assert_eq!(index.lower_bound(6), 100);
        assert_eq!(index.lower_bound(4), 0);
    }

    #[test]
    fn batch_tail_chunks_never_consume_stale_stage_state() {
        // Regression test for the stage-blocked batch path: when
        // `queries.len() % BATCH_BLOCK != 0` the final chunk is shorter than
        // the reused stage buffers, and every stage loop must truncate to the
        // chunk length — a loop running over the full buffer would consume a
        // prediction/hint left over from the previous block. Duplicate-heavy
        // keys make any such slip visible (positions jump by the run length).
        let mut keys: Vec<u64> = Vec::new();
        for v in 0..300u64 {
            let run = 1 + (v % 11) as usize; // runs of 1..=11 duplicates
            keys.extend(std::iter::repeat_n(v * 5, run));
        }
        let dataset = Dataset::from_sorted_keys("dups", keys);
        let model = InterpolationModel::build(&dataset);
        let keys = dataset.as_slice();

        // A query stream whose values swing wildly between consecutive
        // positions, so block i's stage state is maximally wrong for block
        // i+1: stale consumption cannot cancel out.
        let mut rng = SplitMix64::new(0xBA7C);
        let queries: Vec<u64> = (0..BATCH_BLOCK * 3 + 17)
            .map(|i| {
                if i.is_multiple_of(2) {
                    keys[rng.next_below(keys.len() as u64) as usize]
                } else {
                    rng.next_below(1_600) // misses and duplicate-run interiors
                }
            })
            .collect();
        let expected: Vec<usize> = queries
            .iter()
            .map(|&q| keys.partition_point(|&k| k < q))
            .collect();

        let indexes: Vec<CorrectedIndex<u64, InterpolationModel, &[u64]>> = vec![
            CorrectedIndex::builder(keys, model.clone())
                .with_range_table()
                .build()
                .unwrap(),
            CorrectedIndex::builder(keys, model.clone())
                .with_compact_table(7)
                .build()
                .unwrap(),
            CorrectedIndex::builder(keys, model.clone())
                .without_correction()
                .build()
                .unwrap(),
        ];
        for index in &indexes {
            // Every non-multiple-of-block prefix length, including lengths
            // below, at and just past one/two blocks.
            for len in [
                1,
                2,
                BATCH_BLOCK - 1,
                BATCH_BLOCK,
                BATCH_BLOCK + 1,
                2 * BATCH_BLOCK - 3,
                2 * BATCH_BLOCK + 5,
                queries.len(),
            ] {
                let got = index.lower_bound_many(&queries[..len]);
                assert_eq!(got, expected[..len], "{} len={len}", index.name());
                let mut blocked = vec![0usize; len];
                index.lower_bound_batch_blocked(&queries[..len], &mut blocked);
                assert_eq!(
                    blocked,
                    expected[..len],
                    "{} blocked len={len}",
                    index.name()
                );
                for (&q, &e) in queries[..len].iter().zip(expected[..len].iter()) {
                    assert_eq!(index.lower_bound(q), e, "{} scalar q={q}", index.name());
                }
            }
        }
    }

    #[cfg_attr(miri, ignore = "dataset too large for Miri")]
    #[test]
    fn probe_estimate_does_not_probe_the_key_array() {
        // The cache-miss proxy must be computable from build-time statistics
        // alone. A model whose `predict` panics on non-indexed queries would
        // not catch a key-array probe, so instead assert the observable
        // contract: the estimate for a fixed layer state is a function of the
        // prediction only — two queries with equal predictions get equal
        // estimates even when their true positions are far apart (the old
        // implementation partition_point-ed the keys and reported different
        // distances).
        // A huge duplicate run in a sparse domain: the interpolation model's
        // slope is ~2.5e-9 positions per key unit, so the two queries below
        // share one prediction while their true lower bounds are 5000
        // positions apart (before vs. after the run).
        let mut keys: Vec<u64> = vec![0];
        keys.extend(std::iter::repeat_n(1_000_000_000_000u64, 5_000));
        keys.push(2_000_000_000_000);
        let d = Dataset::from_sorted_keys("run", keys);
        let model = InterpolationModel::build(&d);
        let (a, b) = (1_000_000_000_000u64, 1_000_000_000_001u64);
        assert_eq!(d.lower_bound(a), 1);
        assert_eq!(d.lower_bound(b), 5_001);

        let midpoint = CorrectedIndex::builder(d.as_slice(), model.clone())
            .with_compact_table(50)
            .build()
            .unwrap();
        assert_eq!(
            midpoint.predict_uncorrected(a),
            midpoint.predict_uncorrected(b)
        );
        assert_eq!(midpoint.probe_estimate(a), midpoint.probe_estimate(b));

        let raw = CorrectedIndex::builder(d.as_slice(), model)
            .without_correction()
            .build()
            .unwrap();
        assert_eq!(raw.predict_uncorrected(a), raw.predict_uncorrected(b));
        assert_eq!(raw.probe_estimate(a), raw.probe_estimate(b));
    }

    #[cfg_attr(miri, ignore = "dataset too large for Miri")]
    #[test]
    fn works_with_u32_keys() {
        let d: Dataset<u32> = SosdName::Face32.generate(10_000, 83);
        let index = CorrectedIndex::builder(d.as_slice(), InterpolationModel::build(&d))
            .with_range_table()
            .build()
            .unwrap();
        let w = Workload::uniform_domain(&d, 500, 5);
        for (q, expected) in w.iter() {
            assert_eq!(index.lower_bound(q), expected);
        }
        assert_eq!(index.lower_bound_many(w.queries()), w.expected().to_vec());
    }

    #[cfg_attr(miri, ignore = "dataset too large for Miri")]
    #[test]
    fn adversarial_non_monotone_model_is_repaired() {
        // A deliberately broken model that zig-zags: the range-mode windows
        // may not contain the answer, the repair path must still be exact.
        struct ZigZag(usize);
        impl CdfModel<u64> for ZigZag {
            fn predict(&self, key: u64) -> usize {
                let n = self.0;
                let k = key as usize % n;
                if k.is_multiple_of(2) {
                    n - 1 - k
                } else {
                    k
                }
            }
            fn key_count(&self) -> usize {
                self.0
            }
            fn size_bytes(&self) -> usize {
                0
            }
            fn is_monotonic(&self) -> bool {
                false
            }
            fn name(&self) -> &'static str {
                "zigzag"
            }
        }
        let d: Dataset<u64> = SosdName::Uspr64.generate(5_000, 89);
        let index = CorrectedIndex::builder(d.as_slice(), ZigZag(d.len()))
            .with_range_table()
            .build()
            .unwrap();
        let w = Workload::uniform_domain(&d, 500, 7);
        for (q, expected) in w.iter() {
            assert_eq!(index.lower_bound(q), expected, "q={q}");
        }
        assert_eq!(index.lower_bound_many(w.queries()), w.expected().to_vec());
    }
}
