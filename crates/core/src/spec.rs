//! Runtime index composition: `IndexSpec` strings resolved to owned,
//! dynamically-dispatched range indexes.
//!
//! An [`IndexSpec`] pairs a CDF-model spec with a correction-layer spec,
//! using the grammar
//!
//! ```text
//! <model>[+<layer>]
//! model := im | linear | cubic | rmi:<leafs>[:linear|:cubic] | rs:<max_error> | pgm:<epsilon>
//! layer := none | r1 | auto                 (default: r1)
//! ```
//!
//! so `"rmi:256+r1"` is a 256-leaf RMI corrected by a full-resolution
//! Shift-Table and `"im+none"` is the dummy interpolation model alone.
//! [`IndexSpec::build`] trains the model, builds the layer and returns the
//! finished index as a [`DynRangeIndex`] (`Box<dyn RangeIndex<K>>`) over
//! shared `Arc<[K]>` storage — `'static + Send + Sync`, selectable from a
//! config file at run time.
//!
//! ## Persistence contract
//!
//! The `Display` form of an [`IndexSpec`] is its **canonical serialized
//! form**: `IndexSpec::parse(spec.to_string())` always round-trips to an
//! equal value, for every model and layer family. Durable systems persist
//! that string and rebuild on load (the `shift-store` crate stores it in
//! its checkpoint manifests and *retrains* the model over the recovered
//! keys), so changes here must never break parsing of previously displayed
//! specs — the round-trip property test below is that contract's guard.
//!
//! Earlier versions also displayed `s<X>` (`X ≥ 1`), a midpoint layer of one
//! entry per `X` records (the paper's S-X, now reproduced only by the Figure
//! 8/9 benches). It still parses, as `r1`: the layer is rebuilt from the
//! spec on every load, so a store whose manifest names `s<X>` opens and
//! answers exactly as before, and the spec it displays is `r1` from then on.
//!
//! ```
//! use shift_table::spec::IndexSpec;
//! use algo_index::RangeIndex;
//!
//! let keys: Vec<u64> = (0..10_000u64).map(|i| i * i / 64).collect();
//! let spec = IndexSpec::parse("rmi:64+r1").unwrap();
//! let index = spec.build(keys.clone()).unwrap();
//! for (i, &k) in keys.iter().enumerate().step_by(500) {
//!     let _ = i;
//!     assert_eq!(index.lower_bound(k), keys.partition_point(|&x| x < k));
//! }
//! ```

use crate::config::ShiftTableConfig;
use crate::error::BuildError;
use crate::index::CorrectedIndex;
use algo_index::search::DynRangeIndex;
use learned_index::model::CdfModel;
use learned_index::spec::{ModelSpec, SpecParseError};
use sosd_data::key::Key;
use std::sync::Arc;

/// A corrected index whose model was chosen at run time: the concrete type
/// behind every index [`IndexSpec::build`] produces.
pub type DynCorrectedIndex<K> = CorrectedIndex<K, Box<dyn CdfModel<K>>, Arc<[K]>>;

/// Which correction layer an [`IndexSpec`] attaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerSpec {
    /// No correction layer (plain learned index).
    None,
    /// Full-resolution `<Δ, C>` range layer (the paper's R-1); also what
    /// the retired `s<X>` token reads as (module docs).
    Range,
    /// Let the §3.9 tuning rule decide whether the range layer pays off.
    Auto,
}

impl LayerSpec {
    /// Parse a layer token: `none | r1 | auto`, or the retired `s<X>`
    /// (`X ≥ 1`), read as `r1`.
    pub fn parse(s: &str) -> Result<Self, SpecParseError> {
        let s = s.trim();
        match s {
            "" => Err(SpecParseError::Empty),
            "none" => Ok(Self::None),
            "r1" => Ok(Self::Range),
            "auto" => Ok(Self::Auto),
            _ => {
                // The retired S-X layer (module docs): validated, then
                // read as `r1`.
                if let Some(x) = s.strip_prefix('s') {
                    let records_per_entry: usize =
                        x.parse().map_err(|_| SpecParseError::InvalidParameter {
                            spec: s.to_string(),
                            reason: "s<X> requires a positive integer X",
                        })?;
                    if records_per_entry == 0 {
                        return Err(SpecParseError::InvalidParameter {
                            spec: s.to_string(),
                            reason: "s<X> requires X >= 1",
                        });
                    }
                    Ok(Self::Range)
                } else {
                    Err(SpecParseError::UnknownLayer(s.to_string()))
                }
            }
        }
    }

    /// One spec per layer family — for exhaustively exercising the spec
    /// machinery in tests.
    pub fn all_families() -> [LayerSpec; 3] {
        [Self::None, Self::Range, Self::Auto]
    }
}

impl std::fmt::Display for LayerSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Self::None => write!(f, "none"),
            Self::Range => write!(f, "r1"),
            Self::Auto => write!(f, "auto"),
        }
    }
}

/// A complete runtime index descriptor: model plus correction layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IndexSpec {
    /// Which CDF model to train.
    pub model: ModelSpec,
    /// Which correction layer to attach.
    pub layer: LayerSpec,
}

impl IndexSpec {
    /// Compose a spec from its parts.
    pub fn new(model: ModelSpec, layer: LayerSpec) -> Self {
        Self { model, layer }
    }

    /// Parse `"<model>[+<layer>]"`; the layer defaults to `r1` (the paper's
    /// recommended configuration, §3.9) when omitted.
    pub fn parse(s: &str) -> Result<Self, SpecParseError> {
        let s = s.trim();
        if s.is_empty() {
            return Err(SpecParseError::Empty);
        }
        match s.split_once('+') {
            Some((model, layer)) => Ok(Self {
                model: ModelSpec::parse(model)?,
                layer: LayerSpec::parse(layer)?,
            }),
            None => Ok(Self {
                model: ModelSpec::parse(s)?,
                layer: LayerSpec::Range,
            }),
        }
    }

    /// Train the model and build the layer over shared key storage, returning
    /// the concrete [`DynCorrectedIndex`] (when the corrected-index-specific
    /// API — error reporting, layer toggling — is still needed).
    ///
    /// # Errors
    /// [`BuildError::UnsortedKeys`] if the keys are not sorted,
    /// [`BuildError::TooManyKeys`] if the spec's layer cannot cover them.
    pub fn build_corrected<K: Key>(
        &self,
        keys: impl Into<Arc<[K]>>,
    ) -> Result<DynCorrectedIndex<K>, BuildError> {
        self.build_corrected_with(keys, ShiftTableConfig::default(), 1)
    }

    /// [`IndexSpec::build_corrected`] with an explicit query-path
    /// configuration. `_threads` is ignored: a layer is built in one
    /// sequential pass.
    pub fn build_corrected_with<K: Key>(
        &self,
        keys: impl Into<Arc<[K]>>,
        config: ShiftTableConfig,
        _threads: usize,
    ) -> Result<DynCorrectedIndex<K>, BuildError> {
        let keys: Arc<[K]> = keys.into();
        // Validate once, before training: models fitted to unsorted data
        // would waste work, and the builder skips its own scan below.
        self.check_key_count(keys.len())?;
        if let Some(position) = crate::error::first_unsorted(keys.as_ref()) {
            return Err(BuildError::UnsortedKeys { position });
        }
        Ok(self.build_corrected_prevalidated_with(keys, config))
    }

    /// `Err` when this spec cannot index a column of `len` keys: a range
    /// layer (`r1`, `auto`) covers at most
    /// [`ShiftTable::MAX_KEYS`](crate::ShiftTable::MAX_KEYS). The check the
    /// validating builders run, exposed for callers of the prevalidated
    /// ones (the store checks every shard it cuts from a seed column).
    ///
    /// # Errors
    /// [`BuildError::TooManyKeys`].
    pub fn check_key_count(&self, len: usize) -> Result<(), BuildError> {
        match self.layer {
            LayerSpec::Range | LayerSpec::Auto => crate::ShiftTable::check_len(len),
            LayerSpec::None => Ok(()),
        }
    }

    /// [`IndexSpec::build_corrected_with`] for callers that *guarantee* the
    /// key column is already sorted and passes
    /// [`IndexSpec::check_key_count`] — a rebuild merging sorted inputs, or
    /// a shard cut from a column validated as a whole — skipping the O(n)
    /// sortedness scan. Feeding unsorted keys violates the contract and
    /// produces a silently wrong index (debug builds still assert the
    /// invariant); an over-long column panics in the layer builder.
    pub fn build_corrected_prevalidated_with<K: Key>(
        &self,
        keys: impl Into<Arc<[K]>>,
        config: ShiftTableConfig,
    ) -> DynCorrectedIndex<K> {
        let keys: Arc<[K]> = keys.into();
        debug_assert!(
            crate::error::first_unsorted(keys.as_ref()).is_none(),
            "prevalidated build requires sorted keys"
        );
        let model = self.model.build(keys.as_ref());
        CorrectedIndex::builder(keys, model)
            .layer(self.layer)
            .config(config)
            .build_prevalidated()
    }

    /// Train the model and build the layer over shared key storage, returning
    /// the finished index as an owned trait object.
    ///
    /// # Errors
    /// [`BuildError::UnsortedKeys`] if the keys are not sorted.
    pub fn build<K: Key>(&self, keys: impl Into<Arc<[K]>>) -> Result<DynRangeIndex<K>, BuildError> {
        Ok(Box::new(self.build_corrected(keys)?))
    }

    /// Every model-family × layer-family combination (with small default
    /// parameters) — the matrix the spec tests sweep.
    pub fn all_combinations() -> Vec<IndexSpec> {
        let mut out = Vec::new();
        for model in ModelSpec::all_families() {
            for layer in LayerSpec::all_families() {
                out.push(IndexSpec::new(model, layer));
            }
        }
        out
    }
}

impl std::fmt::Display for IndexSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}+{}", self.model, self.layer)
    }
}

impl std::str::FromStr for IndexSpec {
    type Err = SpecParseError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sosd_data::prelude::*;

    #[test]
    fn parse_roundtrips_through_display() {
        for spec in IndexSpec::all_combinations() {
            let text = spec.to_string();
            assert_eq!(IndexSpec::parse(&text), Ok(spec), "{text}");
        }
        // The persistence contract (see the module docs): parameterised
        // forms — what a manifest on disk actually holds — must round-trip
        // too, including through surrounding whitespace.
        for text in [
            "rmi:512+r1",
            "rmi:64:cubic+none",
            "rs:32+none",
            "pgm:16+auto",
        ] {
            let spec = IndexSpec::parse(text).unwrap();
            assert_eq!(spec.to_string(), text, "display is canonical");
            assert_eq!(IndexSpec::parse(&format!(" {text} ")), Ok(spec));
        }
    }

    #[test]
    fn retired_midpoint_layers_read_as_r1() {
        // Manifests written before S-X left the serving path may name it.
        for (text, canonical) in [
            ("rmi:64:cubic+s10", "rmi:64:cubic+r1"),
            ("im+s3", "im+r1"),
            ("rmi:16+s1", "rmi:16+r1"),
        ] {
            let spec = IndexSpec::parse(text).unwrap();
            assert_eq!(spec.layer, LayerSpec::Range, "{text}");
            assert_eq!(spec.to_string(), canonical);
            assert_eq!(IndexSpec::parse(&spec.to_string()), Ok(spec));
        }
    }

    #[test]
    fn layer_defaults_to_r1() {
        let spec = IndexSpec::parse("rmi:256").unwrap();
        assert_eq!(spec.layer, LayerSpec::Range);
        assert_eq!(spec.to_string(), "rmi:256+r1");
        assert_eq!(IndexSpec::parse("rmi:256+r1").unwrap(), spec);
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        assert!(matches!(
            IndexSpec::parse("im+fancy"),
            Err(SpecParseError::UnknownLayer(_))
        ));
        assert!(matches!(
            IndexSpec::parse("im+s0"),
            Err(SpecParseError::InvalidParameter { .. })
        ));
        assert!(matches!(
            IndexSpec::parse("im+sx"),
            Err(SpecParseError::InvalidParameter { .. })
        ));
        assert!(matches!(
            IndexSpec::parse("quadtree+r1"),
            Err(SpecParseError::UnknownModel(_))
        ));
        assert_eq!(IndexSpec::parse(""), Err(SpecParseError::Empty));
        assert_eq!(IndexSpec::parse("im+"), Err(SpecParseError::Empty));
    }

    #[cfg_attr(miri, ignore = "dataset too large for Miri")]
    #[test]
    fn built_index_is_exact_and_owned() {
        fn assert_owned<T: Send + Sync + 'static>(_: &T) {}
        let d: Dataset<u64> = SosdName::Osmc64.generate(6_000, 17);
        let w = Workload::uniform_domain(&d, 300, 3);
        let shared = d.to_shared();
        let index = IndexSpec::parse("im+r1").unwrap().build(shared).unwrap();
        assert_owned(&index);
        for (q, expected) in w.iter() {
            assert_eq!(index.lower_bound(q), expected, "q={q}");
        }
        assert_eq!(index.lower_bound_many(w.queries()), w.expected().to_vec());
    }

    #[test]
    fn build_rejects_unsorted_keys_before_training() {
        let err = IndexSpec::parse("rs:32+r1")
            .unwrap()
            .build(vec![9u64, 1, 5])
            .err()
            .unwrap();
        assert_eq!(err, BuildError::UnsortedKeys { position: 1 });
    }

    #[cfg_attr(miri, ignore = "dataset too large for Miri")]
    #[test]
    fn corrected_build_exposes_the_corrected_api() {
        let d: Dataset<u64> = SosdName::Face64.generate(6_000, 23);
        let index = IndexSpec::parse("im+r1")
            .unwrap()
            .build_corrected(d.to_shared())
            .unwrap();
        assert!(index.layer_enabled());
        assert!(index.correction_error().mean_abs < 100.0);
        assert_eq!(index.model().name(), "IM");
    }
}
