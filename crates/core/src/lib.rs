//! # Shift-Table: model correction for learned range indexes
//!
//! This crate implements the primary contribution of *"Shift-Table: A
//! Low-latency Learned Index for Range Queries using Model Correction"*
//! (Hadian & Heinis, EDBT 2021): an algorithmic layer that sits after a
//! learned CDF model and corrects its prediction with a single array lookup,
//! eliminating the micro-level error that compact models cannot learn on
//! real-world key distributions.
//!
//! ## How it works
//!
//! A learned model predicts a position `k = ⌊N·F_θ(x)⌋` for a query `x`; the
//! true position is `N·F(x)`. The signed difference is the *drift* of the
//! model at `x`. The Shift-Table is an array with one entry per possible
//! prediction value that records, for all keys predicted at `k`,
//!
//! * `Δ_k` — how far ahead (or behind) the first such key really is, and
//! * `C_k` — how many positions the local search must cover,
//!
//! so the query path becomes: predict → one Shift-Table lookup → bounded
//! local search of `C_k` records (§3, Algorithm 1).
//!
//! ## Crate layout
//!
//! * [`ShiftTable`] — the full-resolution `<Δ, C>` layer (the paper's R-1
//!   configuration, Algorithm 2), stored in 64-byte lines: only `Δ`, as an
//!   offset from one base a line, so a correction reads one cache line — a
//!   window ends where the next partition's starts, so `C` is not stored.
//!   An accurate model's layer, at most 1/32 of whose six-bit lines would
//!   be shifted or escaped, takes 6-bit offsets, 80 drifts a line and
//!   64 bytes per 79 keys; every other takes 7-bit ones, 68 a line and
//!   64 bytes per 67 keys. A line whose drifts spread past what an offset
//!   holds stores them in units of up to 8 records, widening its windows by
//!   at most 7 at each end, and the rare line spreading past 1 015 (503 at
//!   six bits) keeps them in full in a patch array — see [`entry`],
//! * [`CompactShiftTable`] — the compressed midpoint layer with one `Δ̄`
//!   entry per `X` records (the S-X configurations, §3.4),
//! * [`CorrectedIndex`] — a complete range index assembled from any
//!   [`learned_index::CdfModel`], an optional correction layer and the local
//!   search routines (Algorithm 1), implementing
//!   [`algo_index::RangeIndex`]. The index is generic over its key storage:
//!   the default `Arc<[K]>` makes it owned (`'static + Send + Sync`), while
//!   `&[K]` keeps a zero-copy borrowed path,
//! * [`spec`] — runtime composition: parse `"rmi:256+r1"`-style
//!   [`spec::IndexSpec`] strings and build them into owned
//!   `Box<dyn RangeIndex<K>>` trait objects,
//! * [`snapshot`] — the [`SnapshotRead`] trait updatable stores implement
//!   to hand out point-in-time, repeatable [`algo_index::RangeIndex`]
//!   views (the `shift-store` serving layer is the canonical implementor),
//! * [`cost`] — the hardware cost model `L(s)` and the tuning rules of
//!   §3.7/§3.9 (should the layer be enabled? which local search?),
//! * [`error`] — construction errors ([`BuildError`]), the error estimates of
//!   §3.5 (Eq. 8) and empirical error measurement,
//! * [`build`] — the layer builders: the one-pass run-boundary emitter,
//!   which writes the range layer's one packed layout for every model (one
//!   that falls is taken at its running maximum), and the compact layer's
//!   midpoint pass.
//!
//! ## Batch kernel
//!
//! Batched lookups ([`algo_index::RangeIndex::lower_bound_batch`]) run
//! through the stage-blocked loop in [`kernel`], one loop generic over the
//! [`Correction`] for every layer: each block of [`kernel::BATCH_BLOCK`]
//! queries is predicted and corrected in stage loops (so the independent
//! model/layer loads overlap in the memory system), then each lane runs
//! Algorithm 1's local search exactly as the scalar `lower_bound` does.
//! See the [`kernel`] module docs for the stages and the tail-truncation
//! invariant its reused stage buffers rely on.
//!
//! ## Example: owned index, built at run time
//!
//! ```
//! use shift_table::prelude::*;
//! use learned_index::prelude::*;
//! use sosd_data::prelude::*;
//! use algo_index::RangeIndex;
//!
//! // A hard, real-world-like dataset and the paper's dummy IM model.
//! let data: Dataset<u64> = SosdName::Osmc64.generate(100_000, 42);
//! let reference: Vec<usize> = data.as_slice().iter().map(|&k| data.lower_bound(k)).collect();
//! let model = InterpolationModel::build(&data);
//!
//! // The index owns its keys (shared `Arc<[u64]>` storage), so it is
//! // 'static + Send + Sync. IM alone is hopeless on this data; IM + a
//! // Shift-Table is exact up to the duplicate-run length.
//! let corrected = CorrectedIndex::owned_builder(data.to_shared(), model)
//!     .with_range_table()
//!     .build()
//!     .expect("keys are sorted");
//!
//! for (&q, &expected) in data.as_slice().iter().zip(&reference).step_by(1000) {
//!     assert_eq!(corrected.lower_bound(q), expected);
//! }
//!
//! // The same index is also constructible from a spec string at run time:
//! let dynamic = IndexSpec::parse("im+r1").unwrap().build(data.to_shared()).unwrap();
//! assert_eq!(dynamic.lower_bound(data.key_at(500)), corrected.lower_bound(data.key_at(500)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod build;
pub mod compact;
pub mod config;
pub mod correction;
pub mod cost;
pub mod entry;
pub mod error;
pub mod index;
pub mod kernel;
pub mod local_search;
mod packed;
pub mod snapshot;
pub mod spec;
pub mod table;

pub use compact::CompactShiftTable;
pub use config::ShiftTableConfig;
pub use correction::{Correction, SearchHint};
pub use cost::{LatencyModel, TuningAdvisor, TuningDecision};
pub use entry::ShiftEntry;
pub use error::{BuildError, CorrectionErrorStats};
pub use index::{BorrowedCorrectedIndex, CorrectedIndex, CorrectedIndexBuilder, CorrectionLayer};
pub use snapshot::SnapshotRead;
pub use spec::{DynCorrectedIndex, IndexSpec, LayerSpec};
pub use table::ShiftTable;

/// Convenient glob import for downstream crates and examples.
pub mod prelude {
    pub use crate::compact::CompactShiftTable;
    pub use crate::config::ShiftTableConfig;
    pub use crate::correction::{Correction, SearchHint};
    pub use crate::cost::{LatencyModel, TuningAdvisor, TuningDecision};
    pub use crate::error::{BuildError, CorrectionErrorStats};
    pub use crate::index::{
        BorrowedCorrectedIndex, CorrectedIndex, CorrectedIndexBuilder, CorrectionLayer,
    };
    pub use crate::snapshot::SnapshotRead;
    pub use crate::spec::{DynCorrectedIndex, IndexSpec, LayerSpec};
    pub use crate::table::ShiftTable;
}
