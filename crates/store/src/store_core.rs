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
use crate::snapshot::PinnedCut;
use crate::versions::VersionRing;
use crate::worker::WorkerSignal;
use sosd_data::key::Key;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex, RwLock};

/// The store state shared between the public handle and the maintenance
/// worker: the published table, the configuration, the topology lock and
/// the maintenance counters.
pub(crate) struct StoreCore<K: Key> {
    pub(crate) table: EpochCell<StoreTable<K>>,
    pub(crate) config: StoreConfig,
    /// The store-wide commit clock: assigns every applied write (and every
    /// applied batch) its monotonic commit version and lets snapshots
    /// capture a consistent per-shard state vector without blocking
    /// writers.
    pub(crate) clock: CommitClock,
    /// Snapshot liveness gate: every write path holds a **read** guard
    /// across its commit-clock window, and a snapshot that keeps losing the
    /// seqlock race (a continuous write storm on few cores) takes the
    /// **write** side once — in-flight windows drain, no new one can open,
    /// and the capture succeeds immediately. Uncontended cost to writers is
    /// one atomic read-lock per op; the gate is never touched on the happy
    /// snapshot path.
    pub(crate) write_gate: RwLock<()>,
    /// Serialises topology changes (splits and merges). Taken strictly
    /// before any shard's rebuild guard.
    pub(crate) topology: Mutex<()>,
    pub(crate) signal: Arc<WorkerSignal>,
    /// The last captured consistent cut: while the commit clock still reads
    /// quiescent at its version, [`StoreCore::pin_cut`] reuses it instead
    /// of re-pinning every shard — snapshot acquisition (and transaction
    /// begin) is O(1) between writes instead of O(shards). Invalidated by
    /// topology changes (which republish the table without bumping the
    /// clock) so a stale cut never outlives its epoch unnoticed.
    pub(crate) pin_cache: Mutex<Option<PinnedCut<K>>>,
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
        Arc::clone(&self.signal)
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
