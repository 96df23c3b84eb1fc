//! The state every part of the store works on: [`StoreCore`], shared
//! between the public handle and the background threads. What is done with
//! it lives in sibling modules, each an `impl StoreCore` block: `cut`,
//! `write`, `maintenance`, `rebalance`, `checkpoint`, `metrics_report`.

use crate::checkpoint::CheckpointMemo;
use crate::config::StoreConfig;
use crate::epoch::{CommitClock, EpochCell};
use crate::error::StoreError;
use crate::obs::{StoreObs, TraceEvent, TraceKind};
use crate::persist::Persistence;
use crate::sharded::StoreTable;
use crate::snapshot::{PinnedCut, SnapshotHook};
use crate::versions::VersionRing;
use crate::worker::WorkerSignal;
use sosd_data::key::Key;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};

/// The store state shared between the public handle and the maintenance
/// worker: the published table, the configuration, the topology lock and
/// the maintenance counters.
pub(crate) struct StoreCore<K: Key> {
    pub(crate) table: EpochCell<StoreTable<K>>,
    pub(crate) config: StoreConfig,
    /// The store-wide commit clock: assigns every commit its monotonic
    /// commit version, under `window`.
    pub(crate) clock: CommitClock,
    /// The commit window: held by every commit from `clock.begin()` to its
    /// last shard publish, and by a read that has to pin a fresh cut — so a
    /// cut never holds half a commit. Inside the WAL lock on a durable
    /// store (a reader never waits on a sync); the whole writer exclusion
    /// of an in-memory one. Protocol, lock order and the linearizability
    /// argument are in `cut.rs`.
    pub(crate) window: Mutex<()>,
    /// The published cut: the last one pinned under `window`. A read
    /// accepts it while its version is the clock's and its generation is
    /// `swaps`, which makes snapshot acquisition (and transaction begin)
    /// one cell load between writes instead of a pin of every shard.
    pub(crate) published: EpochCell<PinnedCut<K>>,
    /// The maintenance generation: bumped after every republication of
    /// shard state or the table that is not a commit (rebuild, compaction,
    /// split, merge), which marks the published cut stale.
    pub(crate) swaps: AtomicU64,
    /// Serialises topology changes (splits and merges). Taken strictly
    /// before any shard's rebuild guard.
    pub(crate) topology: Mutex<()>,
    /// What every snapshot carries of the store — the registry below and
    /// the maintenance worker's signal behind one `Arc`, so a read clones
    /// one reference, not two.
    pub(crate) hook: Arc<SnapshotHook>,
    /// Retained historical cuts serving
    /// [`crate::ShardedStore::snapshot_at`] and
    /// [`crate::ShardedStore::scan_between`]; empty (and never locked on
    /// the write path) unless [`StoreConfig::retain_versions`] is set.
    pub(crate) versions: VersionRing<K>,
    /// The durability layer — `Some` only for stores opened from a path.
    pub(crate) persist: Option<Persistence>,
    /// What the last checkpoint wrote (`None` until one ran, or after a
    /// failed one): the incremental checkpoint's skip oracle.
    pub(crate) ckpt_memo: Mutex<Option<CheckpointMemo>>,
    pub(crate) rebuilds: AtomicU64,
    pub(crate) splits: AtomicU64,
    pub(crate) merges: AtomicU64,
    /// The observability registry every instrumentation site records into:
    /// op counters, latency histograms, the maintenance trace ring and the
    /// bounded error ring (which replaced the old single-error slot).
    pub(crate) obs: Arc<StoreObs>,
}

impl<K: Key> StoreCore<K> {
    pub(crate) fn config(&self) -> &StoreConfig {
        &self.config
    }

    pub(crate) fn signal(&self) -> Arc<WorkerSignal> {
        Arc::clone(&self.hook.signal)
    }

    pub(crate) fn load_table(&self) -> Arc<StoreTable<K>> {
        self.table.load()
    }

    /// Push a maintenance trace event, pinned to a shard position when one
    /// is known, stamped with the newest assigned commit version.
    pub(crate) fn emit_event(&self, kind: TraceKind, shard: Option<usize>, payload: u64) {
        let cv = self.clock.version();
        self.obs.emit(match shard {
            Some(s) => TraceEvent::shard(kind, s, cv, payload),
            None => TraceEvent::store(kind, cv, payload),
        });
    }

    /// Capture a background-maintenance failure in the bounded error ring
    /// (always on, even with metrics disabled) and the trace ring; drained
    /// via [`crate::ShardedStore::take_maintenance_errors`].
    pub(crate) fn record_maintenance_error(&self, e: StoreError) {
        self.obs.push_error(None, self.clock.version(), e);
    }
}
