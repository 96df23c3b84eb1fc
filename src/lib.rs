//! Umbrella crate for the Shift-Table reproduction workspace.
//!
//! This crate re-exports the public APIs of the workspace members so the
//! examples and cross-crate integration tests can use a single import, and so
//! downstream users who want "everything" can depend on one crate:
//!
//! * [`shift_table`] — the Shift-Table correction layer (the paper's
//!   contribution; 64 bytes per 115 keys, the model's drifts less each
//!   line's slope in four-bit offsets, plus 236 or 464 per escaped line,
//!   one cache line a correction, a line spreading past what an offset
//!   holds shifted to units of up to 16 records, in one layout for every
//!   model and key column — [`shift_table::entry`]), the
//!   owned [`shift_table::CorrectedIndex`] and the runtime
//!   [`shift_table::spec::IndexSpec`] composition layer,
//! * [`learned_index`] — CDF models (IM, linear, cubic, RMI, RadixSpline,
//!   PGM) plus [`learned_index::ModelSpec`] for choosing one at run time,
//! * [`algo_index`] — the [`algo_index::RangeIndex`] trait (point, batched
//!   and range lookups) and the algorithmic baselines (binary/interpolation/
//!   TIP search, B+tree, FAST-style tree, ART, RBS),
//! * [`shift_store`] — the serving layer: [`shift_store::ShardedStore`]
//!   (a fence-key router over per-shard indexes; lock-free reads over
//!   epoch-pinned shard states — immutable base snapshots plus immutable
//!   delta chains, every merge of the two through one `merge` module — with
//!   store-wide consistent reads behind [`shift_store::StoreSnapshot`],
//!   atomic group-committed writes behind [`shift_store::WriteBatch`], a
//!   background maintenance worker, skew-driven shard rebalancing, and an
//!   optional durable form: a checksummed write-ahead log with
//!   epoch-consistent checkpoints and crash recovery behind
//!   [`shift_store::ShardedStore::open`]),
//! * [`shift_obs`] — the zero-dependency observability layer the store is
//!   instrumented with: lock-free counters/gauges/histograms, the bounded
//!   trace ring, Prometheus-text + JSON export ([`shift_obs::MetricsReport`]
//!   from `store.metrics()`, [`shift_obs::parse_prometheus`] to read it
//!   back) and the optional [`shift_obs::MetricsServer`] scrape endpoint,
//! * [`sosd_data`] — SOSD-style datasets, workloads and CDF utilities.
//!
//! ## The two construction paths
//!
//! **Owned / runtime-composed** — the serving path. The index owns its keys
//! behind `Arc<[K]>`, is `'static + Send + Sync`, and both the model and the
//! correction layer are chosen from a spec string:
//!
//! ```
//! use shift_table_repro::prelude::*;
//!
//! let dataset: Dataset<u64> = SosdName::Face64.generate(50_000, 42);
//! let keys = dataset.to_shared();
//!
//! // Any model×layer combination, selected at run time:
//! let index: DynRangeIndex<u64> =
//!     IndexSpec::parse("rmi:256+r1").unwrap().build(keys).unwrap();
//!
//! let q = dataset.key_at(1_000);
//! assert_eq!(index.lower_bound(q), dataset.lower_bound(q));
//!
//! // Batched lookups amortize the model/layer stages across queries:
//! let queries = [q, dataset.key_at(7), u64::MAX];
//! let mut out = [0usize; 3];
//! index.lower_bound_batch(&queries, &mut out);
//! assert_eq!(out[0], dataset.lower_bound(q));
//! ```
//!
//! **Borrowed / monomorphized** — the benchmarking path. Zero-copy over an
//! existing key column, with the model as a compile-time generic:
//!
//! ```
//! use shift_table_repro::prelude::*;
//!
//! let dataset: Dataset<u64> = SosdName::Osmc64.generate(50_000, 42);
//! let index = CorrectedIndex::builder(dataset.as_slice(), InterpolationModel::build(&dataset))
//!     .with_range_table()
//!     .build()
//!     .expect("sorted keys");
//! assert_eq!(index.lower_bound(0), 0);
//! ```
//!
//! See the `examples/` directory for runnable end-to-end scenarios and
//! `crates/bench` for the harness that regenerates every table and figure of
//! the paper.

#![forbid(unsafe_code)]

pub use algo_index;
pub use learned_index;
pub use shift_obs;
pub use shift_store;
pub use shift_table;
pub use sosd_data;

/// One-stop prelude: everything the examples need.
pub mod prelude {
    pub use algo_index::prelude::*;
    pub use learned_index::prelude::*;
    pub use shift_store::prelude::*;
    pub use shift_table::prelude::*;
    pub use sosd_data::prelude::*;
}
