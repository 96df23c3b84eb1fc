//! The range-sharded store: an atomically published shard table over
//! epoch-snapshot shards.
//!
//! [`ShardedStore`] is `N` independently built [`StoreShard`]s over
//! contiguous key chunks — batched lookups are grouped by shard so each
//! shard's stage-blocked batch path stays intact — with a write path and a
//! *mutable topology*: the router
//! and the shard list travel together as one immutable [`StoreTable`] behind
//! an [`crate::EpochCell`], so every read (scalar, batched, range) pins one table
//! and sees a consistent fence/shard pairing even while the rebalancer is
//! splitting a hot shard or merging undersized neighbours. Writers load the
//! table, route, and append to the target shard; a shard replaced by a
//! split/merge is *retired* (it refuses further writes) and the writer
//! transparently retries against the freshly published table. Dirty shards
//! are rebuilt inline on the crossing write (`auto_rebuild`), by the
//! background [`MaintenanceWorker`], or via [`ShardedStore::maintain`] /
//! [`ShardedStore::flush`].
//!
//! This module is the public façade. The state behind it is `StoreCore`
//! (`store_core.rs`), and what the store *does* lives in sibling modules:
//! `open` (build, recover, seed), `cut` (consistent cuts and retained
//! versions), `write` (the one commit function), `maintenance`, `rebalance`,
//! `checkpoint` and `metrics_report`.

use crate::batch::{BatchOp, BatchReceipt, WriteBatch};
use crate::config::StoreConfig;
use crate::error::StoreError;
use crate::obs::{HydrationReason, TraceEvent, TraceKind};
use crate::persist::recovery::OpenBreakdown;
use crate::persist::wal::Frame;
use crate::persist::DurabilityStats;
use crate::router::ShardRouter;
use crate::shard::{ShardState, StoreShard};
use crate::snapshot::{PinnedCut, StoreSnapshot};
use crate::store_core::StoreCore;
use crate::txn::Txn;
use crate::versions::{diff_cuts, VersionStats};
use crate::worker::{HydrationWorker, MaintenanceWorker};
use algo_index::search::RangeIndex;
use shift_obs::{MetricsReport, MetricsServer};
use sosd_data::key::Key;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// One immutable topology epoch of a [`ShardedStore`]: the fence-key router
/// and the shard list it addresses, published (and replaced) together so a
/// pinned table always pairs fences with the shards they describe.
pub struct StoreTable<K: Key> {
    pub(crate) router: ShardRouter<K>,
    pub(crate) shards: Vec<Arc<StoreShard<K>>>,
}

impl<K: Key> StoreTable<K> {
    /// Assemble a topology epoch (recovery rebuilds tables from manifests).
    pub(crate) fn new(router: ShardRouter<K>, shards: Vec<Arc<StoreShard<K>>>) -> Self {
        Self { router, shards }
    }

    /// The fence-key router of this topology epoch.
    pub fn router(&self) -> &ShardRouter<K> {
        &self.router
    }

    /// The shards of this topology epoch.
    pub fn shards(&self) -> &[Arc<StoreShard<K>>] {
        &self.shards
    }

    /// Every shard's published state, in router order — a consistent
    /// vector only while the caller excludes commits.
    pub(crate) fn states(&self) -> Vec<Arc<ShardState<K>>> {
        self.shards.iter().map(|s| s.state()).collect()
    }

    /// Locate a shard in this table by identity.
    pub(crate) fn position_of(&self, shard: &Arc<StoreShard<K>>) -> Option<usize> {
        self.shards.iter().position(|s| Arc::ptr_eq(s, shard))
    }
}

/// An updatable, range-sharded key-value-less ordered store: immutable
/// learned shards absorbing writes through per-shard delta chains, behind
/// an atomically republished fence table.
///
/// All methods take `&self`; the store is shareable across threads
/// (`Arc<ShardedStore<K>>`). Reads are coherent per shard; a multi-shard
/// read (global position, batch, range) composes per-shard states from one
/// pinned table and is exact whenever no write races it.
pub struct ShardedStore<K: Key> {
    pub(crate) core: Arc<StoreCore<K>>,
    /// Background maintenance thread, held only to be dropped (stopped and
    /// joined) with the store. `None` unless `background_maintenance` is
    /// configured.
    pub(crate) _worker: Option<MaintenanceWorker>,
    /// Background hydration thread; `Some` only when a cold-start open
    /// mounted at least one cold shard. Dropped with the store.
    pub(crate) hydrator: Option<HydrationWorker>,
    /// Where the open spent its time; `None` for in-memory stores.
    pub(crate) breakdown: Option<OpenBreakdown>,
    /// Live `/metrics` endpoint; `Some` only when
    /// [`StoreConfig::metrics_addr`] was set and the bind succeeded (a
    /// failed bind is parked in the maintenance-error ring instead of
    /// failing the open). Shut down when the store is dropped.
    pub(crate) metrics_server: Option<MetricsServer>,
}

impl<K: Key> ShardedStore<K> {
    /// The store configuration.
    pub fn config(&self) -> &StoreConfig {
        self.core.config()
    }

    /// Pin a **store-wide consistent snapshot**: one topology epoch plus
    /// every shard's state, pinned together while no commit was
    /// part-published. Every read evaluated on the snapshot — scalar, batch,
    /// range, count, scan — is exact at [`StoreSnapshot::version`] and
    /// repeatable forever, no matter how many writers, rebuilds, splits or
    /// merges race the caller. Between writes acquisition shares the cut
    /// the store already published (one cell load and a version check);
    /// the first acquisition after a write or a maintenance swap takes the
    /// commit window for one sweep of `Arc` loads — it can wait for a
    /// commit's in-memory publication, never for a WAL sync or a rebuild.
    /// Holding a snapshot only pins memory.
    ///
    /// The store's own read methods are thin one-shot delegations to a
    /// fresh snapshot; take an explicit one whenever two reads must agree.
    pub fn snapshot(&self) -> StoreSnapshot<K> {
        self.core.snapshot()
    }

    /// Pin a snapshot at a **retained historical commit version** — time
    /// travel over the ring [`StoreConfig::retain_versions`] keeps. The
    /// returned snapshot is exactly as capable (and exactly as consistent)
    /// as a live [`ShardedStore::snapshot`]: every read on it is exact at
    /// `cv` forever. The current version is always servable, retained or
    /// not.
    ///
    /// # Errors
    /// [`StoreError::VersionNotRetained`] when `cv` was never captured or
    /// has been evicted by the retention policy.
    pub fn snapshot_at(&self, cv: u64) -> Result<StoreSnapshot<K>, StoreError> {
        if let Some(cut) = self.core.versions.get(cv) {
            return Ok(StoreSnapshot::from_cut(
                cut,
                Some(Arc::clone(&self.core.hook)),
            ));
        }
        let live = self.core.snapshot();
        if live.version() == cv {
            return Ok(live);
        }
        Err(StoreError::VersionNotRetained { cv })
    }

    /// Every retained historical commit version, oldest first (the values
    /// [`ShardedStore::snapshot_at`] and [`ShardedStore::scan_between`]
    /// accept). Empty unless [`StoreConfig::retain_versions`] is set.
    pub fn retained_versions(&self) -> Vec<u64> {
        self.core.versions.versions()
    }

    /// Memory readout of the retained-version ring: how many versions are
    /// held and approximately how many heap bytes they pin beyond the live
    /// state (structures shared between cuts counted once).
    pub fn version_stats(&self) -> VersionStats {
        self.core.versions.stats(&self.core.pin_states().1)
    }

    /// The ordered key-level diff between two retained commit versions —
    /// the change-data-capture feed. Returns sorted
    /// `(key, count_at_b − count_at_a)` pairs with zero nets dropped: a
    /// positive net means occurrences inserted between the two cuts, a
    /// negative net occurrences deleted (swap the arguments to view the
    /// reverse direction). Cost is proportional to the writes between the
    /// cuts for shards whose base epoch is shared, falling back to a diff
    /// of the merged columns when a rebuild or topology change rewrote the
    /// base in between.
    ///
    /// Both versions must be retained (the current version qualifies); the
    /// diff is exact because both cuts are immutable.
    ///
    /// # Errors
    /// [`StoreError::VersionNotRetained`] naming the missing version.
    pub fn scan_between(&self, cv_a: u64, cv_b: u64) -> Result<Vec<(K, i64)>, StoreError> {
        let cut_at = |cv: u64| -> Result<Arc<PinnedCut<K>>, StoreError> {
            if let Some(cut) = self.core.versions.get(cv) {
                return Ok(cut);
            }
            let live = self.core.cut();
            if live.version == cv {
                return Ok(live);
            }
            Err(StoreError::VersionNotRetained { cv })
        };
        let a = cut_at(cv_a)?;
        let b = cut_at(cv_b)?;
        Ok(diff_cuts(&a, &b))
    }

    /// Begin an **optimistic transaction**: reads run against a snapshot
    /// pinned here and are recorded; writes buffer privately and overlay
    /// the transaction's own reads; [`Txn::commit`] applies them atomically
    /// iff nothing the transaction read has since changed (first committer
    /// wins — see [`crate::txn`] for the full protocol). Beginning costs
    /// one [`ShardedStore::snapshot`] — O(1) between writes, where it
    /// shares the published cut; dropping an uncommitted transaction is
    /// free.
    pub fn begin(&self) -> Txn<'_, K> {
        self.core.obs.count(&self.core.obs.txn_begins, 1);
        Txn::new(&self.core, self.core.snapshot())
    }

    /// Run `body` in a fresh transaction and commit, retrying up to
    /// `attempts` times on [`StoreError::TxnConflict`]. Each retry re-runs
    /// `body` on a *new* snapshot — retrying a conflicted commit without
    /// re-reading can never succeed, since its read set is stale by
    /// definition. Any other error (and any error `body` returns) aborts
    /// immediately. Returns `body`'s value alongside the commit receipt.
    pub fn commit_with_retries<R>(
        &self,
        attempts: u32,
        mut body: impl FnMut(&mut Txn<'_, K>) -> Result<R, StoreError>,
    ) -> Result<(R, BatchReceipt), StoreError> {
        let mut last = StoreError::TxnConflict {
            point: None,
            range: None,
        };
        for _ in 0..attempts.max(1) {
            let mut txn = self.begin();
            let out = body(&mut txn)?;
            match txn.commit() {
                Ok(receipt) => return Ok((out, receipt)),
                Err(e @ StoreError::TxnConflict { .. }) => last = e,
                Err(e) => return Err(e),
            }
        }
        Err(last)
    }

    /// The newest assigned commit version (diagnostics; a commit in flight
    /// may not have published it yet — pin a [`ShardedStore::snapshot`] for
    /// an exact cut).
    pub fn commit_version(&self) -> u64 {
        self.core.clock.version()
    }

    /// Pin and return the current topology epoch (router + shards).
    pub fn table(&self) -> Arc<StoreTable<K>> {
        self.core.load_table()
    }

    /// Number of shards in the current topology.
    pub fn shard_count(&self) -> usize {
        self.core.load_table().shards.len()
    }

    /// The shards of the current topology epoch (for inspection and tests).
    pub fn shards(&self) -> Vec<Arc<StoreShard<K>>> {
        self.core.load_table().shards.clone()
    }

    /// The fence keys of the current topology epoch.
    pub fn fences(&self) -> Vec<K> {
        self.core.load_table().router.fences().to_vec()
    }

    /// Per-shard epoch numbers (rebuilds each current shard has absorbed;
    /// shards created by a split or merge restart at their parent's
    /// epoch + 1).
    pub fn epochs(&self) -> Vec<u64> {
        self.core
            .load_table()
            .shards
            .iter()
            .map(|s| s.snapshot().epoch())
            .collect()
    }

    /// Total number of shard rebuilds since the store was built (inline,
    /// maintenance-thread and explicit ones all count; splits and merges
    /// are counted separately).
    pub fn total_rebuilds(&self) -> u64 {
        self.core.rebuilds.load(Ordering::Relaxed) // lint: ordering(Relaxed) stats read; no synchronising role
    }

    /// Number of shard splits the rebalancer has performed.
    pub fn total_splits(&self) -> u64 {
        self.core.splits.load(Ordering::Relaxed) // lint: ordering(Relaxed) stats read; no synchronising role
    }

    /// Number of shard merges the rebalancer has performed.
    pub fn total_merges(&self) -> u64 {
        self.core.merges.load(Ordering::Relaxed) // lint: ordering(Relaxed) stats read; no synchronising role
    }

    /// Drain every captured background-maintenance error, oldest first.
    ///
    /// Errors land in a bounded ring of [`crate::obs::ERROR_RING_CAPACITY`]
    /// entries — when it overflows the *oldest* is dropped and the drop is
    /// counted exactly in `store_maintenance_errors_dropped_total`. The
    /// ring is always on, even with [`StoreConfig::metrics`] disabled:
    /// losing failures is never acceptable. Each captured error also emits
    /// a [`TraceKind::MaintenanceError`] trace event. On a durable store
    /// the checkpoint duty can fail with real I/O errors; the in-memory
    /// maintenance paths cannot currently fail.
    pub fn take_maintenance_errors(&self) -> Vec<StoreError> {
        self.core.obs.take_errors()
    }

    /// Drain the structured maintenance trace ring, oldest first: rebuilds,
    /// compactions, splits, merges, hydration triggers and completions,
    /// checkpoints, WAL repair/poison and captured errors, each stamped
    /// with its shard (when shard-scoped) and the commit version at the
    /// moment it was recorded. The ring holds
    /// [`StoreConfig::trace_capacity`] events; on overflow the oldest is
    /// dropped and counted exactly in `store_trace_dropped_total`. Empty
    /// when metrics are disabled.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.core.obs.drain_trace()
    }

    /// Snapshot every exported metric family (see the crate root's
    /// "Observability" section for the catalogue). Render with
    /// [`MetricsReport::to_prometheus`] or [`MetricsReport::to_json`].
    /// Empty when [`StoreConfig::metrics`] is disabled.
    pub fn metrics(&self) -> MetricsReport {
        self.core.metrics_report()
    }

    /// The bound address of the `/metrics` HTTP endpoint, when one is
    /// serving (requires [`StoreConfig::metrics_addr`]; useful with port 0
    /// to discover the kernel-assigned port).
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_server.as_ref().map(|s| s.addr())
    }

    /// Insert one occurrence of `k`. On a durable store the record is
    /// appended to the write-ahead log (honouring the configured
    /// [`crate::SyncPolicy`]) *before* it is applied in memory. With
    /// `auto_rebuild` enabled, a write that pushes its shard over the delta
    /// threshold rebuilds that shard before returning; with the background
    /// worker enabled it is kicked instead and the write returns
    /// immediately.
    ///
    /// # Errors
    /// [`StoreError::Io`] if the WAL append fails (durable stores only);
    /// [`StoreError::Build`] from a shard rebuild (cannot happen for
    /// store-managed chains; see [`StoreShard::rebuild`]).
    pub fn insert(&self, k: K) -> Result<(), StoreError> {
        self.core
            .commit(&[BatchOp::Insert(k)], Frame::Op, None)
            .map(drop)
    }

    /// Delete one occurrence of `k`. Returns true when an occurrence existed
    /// (and a tombstone was recorded), false for a no-op. Durable stores log
    /// the delete before applying it; a logged no-op replays as a no-op.
    ///
    /// # Errors
    /// As for [`ShardedStore::insert`].
    pub fn delete(&self, k: K) -> Result<bool, StoreError> {
        let receipt = self.core.commit(&[BatchOp::Delete(k)], Frame::Op, None)?;
        Ok(receipt.deleted == 1)
    }

    /// Apply the staged operations of `batch` **atomically**: one commit
    /// version is stamped on every operation, so a concurrent
    /// [`ShardedStore::snapshot`] observes all of the batch or none of it.
    /// On a durable store the whole batch is appended as **one** multi-op
    /// WAL record — synced once under [`crate::SyncPolicy::Always`] (where
    /// concurrent batches additionally share `fdatasync`s through the WAL's
    /// group committer) — and recovery replays it all-or-nothing: a torn
    /// record drops the entire batch, never a prefix of it.
    ///
    /// Operations apply in staging order; a staged delete whose key has no
    /// occurrence by its turn is a no-op, counted out of the receipt's
    /// `deleted`. An empty batch is a no-op that writes no WAL record.
    ///
    /// # Errors
    /// As for [`ShardedStore::insert`]; a failed WAL append means *nothing*
    /// of the batch was applied.
    pub fn apply(&self, batch: &WriteBatch<K>) -> Result<BatchReceipt, StoreError> {
        self.core.commit(batch.ops(), Frame::Batch, None)
    }

    /// Take an epoch-consistent checkpoint now: snapshot every shard's
    /// merged view at one exact cut of the write stream, publish a new
    /// manifest, and truncate the WAL prefix the snapshots cover. Returns
    /// the checkpoint version. The maintenance worker calls this
    /// automatically every [`crate::DurabilityConfig::checkpoint_ops`] WAL
    /// records.
    ///
    /// # Errors
    /// [`StoreError::NotDurable`] on an in-memory store; [`StoreError::Io`]
    /// on filesystem failures.
    pub fn checkpoint(&self) -> Result<u64, StoreError> {
        self.core.checkpoint()
    }

    /// Restore writability after a WAL sync failure (see
    /// [`StoreError::WalPoisoned`]) **without reopening the store**: rotate
    /// to a fresh WAL segment, re-arm group commit, and resume accepting
    /// writes. Returns `true` when a poisoned WAL was repaired, `false`
    /// when the WAL was healthy (the call is then a no-op).
    ///
    /// Every write rejected while the WAL was poisoned stays rejected —
    /// repair never resurrects an unacknowledged operation. Reads were
    /// never affected. The repair restores *writability* only: WAL records
    /// from before the failed sync may or may not be durable, so the next
    /// [`ShardedStore::checkpoint`] (which snapshots in-memory state and
    /// truncates the suspect segments) is the full heal — call it promptly
    /// if the failure was transient.
    ///
    /// # Errors
    /// [`StoreError::NotDurable`] on an in-memory store; [`StoreError::Io`]
    /// if the fresh segment cannot be created (the store stays poisoned and
    /// repair can be retried).
    pub fn repair_wal(&self) -> Result<bool, StoreError> {
        match &self.core.persist {
            Some(p) => {
                let repaired = p.repair()?;
                if repaired {
                    self.core.emit_event(TraceKind::WalRepair, None, 0);
                }
                Ok(repaired)
            }
            None => Err(StoreError::NotDurable),
        }
    }

    /// Poison the WAL as a failed `fdatasync` would (durable stores only;
    /// returns whether there was a WAL to poison). Test hook for exercising
    /// [`ShardedStore::repair_wal`] without faulting the filesystem.
    #[doc(hidden)]
    pub fn poison_wal_for_tests(&self) -> bool {
        match &self.core.persist {
            Some(p) => {
                p.poison_for_tests();
                self.core.emit_event(TraceKind::WalPoisoned, None, 0);
                true
            }
            None => false,
        }
    }

    /// True while the background hydrator still has cold shards to retrain
    /// (poll [`ShardedStore::cold_shards`] for the backlog size).
    pub fn is_hydrating(&self) -> bool {
        self.hydrator.is_some() && self.cold_shards() > 0
    }

    /// Number of shards currently serving reads **cold** — off the mounted
    /// snapshot's block index, model not yet retrained (nonzero only after
    /// a [`StoreConfig::cold_start`] open, and dropping towards zero as the
    /// background hydrator works through them).
    pub fn cold_shards(&self) -> usize {
        self.core
            .load_table()
            .shards
            .iter()
            .filter(|s| s.snapshot().is_cold())
            .count()
    }

    /// Hydrate every cold shard **now**, on the task pool's bounded
    /// workers, instead of waiting for the background hydrator (safe to race it:
    /// whoever takes a shard's rebuild guard first does the work). Returns
    /// the number of shards hydrated by this call.
    ///
    /// # Errors
    /// Propagates the first model-build failure.
    pub fn hydrate(&self) -> Result<usize, StoreError> {
        if self.core.obs.enabled() {
            let table = self.core.load_table();
            for (s, shard) in table.shards().iter().enumerate() {
                if shard.snapshot().is_cold() {
                    self.core.emit_event(
                        TraceKind::HydrationTriggered,
                        Some(s),
                        HydrationReason::Explicit.code(),
                    );
                }
            }
        }
        Ok(self.core.rebuild_where(|s| s.snapshot().is_cold())?)
    }

    /// Where the open spent its time (`None` for in-memory stores): the
    /// recovery phases and the shards mounted cold for a store
    /// [`ShardedStore::open`] recovered, the busy time of the build and of
    /// the write tasks for one [`ShardedStore::open_seeded`] seeded. The
    /// reopen and seeding breakdowns the `store_durable` bench reports.
    pub fn open_breakdown(&self) -> Option<OpenBreakdown> {
        self.breakdown
    }

    /// Force every acknowledged write's WAL record to stable storage now,
    /// regardless of the configured [`crate::SyncPolicy`] — a durability
    /// point without the cost of a checkpoint. Dropping the store does this
    /// best-effort; call it explicitly when the result matters.
    ///
    /// # Errors
    /// [`StoreError::NotDurable`] on an in-memory store; [`StoreError::Io`]
    /// if the sync fails.
    pub fn sync_wal(&self) -> Result<(), StoreError> {
        match &self.core.persist {
            Some(p) => p.sync(),
            None => Err(StoreError::NotDurable),
        }
    }

    /// True when the store persists to disk (opened via
    /// [`ShardedStore::open`] / [`ShardedStore::open_seeded`]).
    pub fn is_durable(&self) -> bool {
        self.core.persist.is_some()
    }

    /// The directory a durable store persists to (`None` for in-memory
    /// stores).
    pub fn dir(&self) -> Option<&Path> {
        self.core.persist.as_ref().map(|p| p.dir())
    }

    /// Cumulative durability counters (`None` for in-memory stores): WAL
    /// records/bytes, checkpoints taken, snapshot bytes — the inputs of a
    /// write-amplification measurement.
    pub fn durability_stats(&self) -> Option<DurabilityStats> {
        self.core.persist.as_ref().map(|p| p.stats())
    }

    /// The durability configuration in force (`None` for in-memory stores).
    pub fn durability_config(&self) -> Option<crate::config::DurabilityConfig> {
        self.core.persist.as_ref().map(|p| p.durability())
    }

    /// Merged occurrence count of the exact key `k`, at a fresh snapshot
    /// (pin a [`ShardedStore::snapshot`] to correlate several counts).
    pub fn count_of(&self, k: K) -> usize {
        self.core.snapshot().count_of(k)
    }

    /// Materialise every key in `lo ..= hi` at a fresh snapshot, in sorted
    /// order (see [`StoreSnapshot::scan`]).
    pub fn scan(&self, lo: K, hi: K) -> Vec<K> {
        self.core.snapshot().scan(lo, hi)
    }

    /// Rebuild every *dirty* shard (chain at or over the threshold), on the
    /// task pool's bounded workers, and age out retained versions past the
    /// policy's `max_age` — the foreground maintenance entry point.
    /// Returns the number of actions taken (rebuilds + version evictions).
    ///
    /// # Errors
    /// Propagates the first shard rebuild failure.
    pub fn maintain(&self) -> Result<usize, StoreError> {
        let rebuilt = self.core.rebuild_where(|s| s.is_dirty())?;
        let aged = self.core.record_evictions(self.core.versions.evict_stale());
        Ok(rebuilt + aged)
    }

    /// Rebuild every shard with *any* buffered write, regardless of the
    /// threshold. Returns the number of shards rebuilt. On a durable store
    /// this folds chains into in-memory bases only — call
    /// [`ShardedStore::checkpoint`] to persist them.
    ///
    /// # Errors
    /// Propagates the first shard rebuild failure.
    pub fn flush(&self) -> Result<usize, StoreError> {
        Ok(self.core.rebuild_where(|s| s.buffered_ops() > 0)?)
    }

    /// Run one rebalance sweep: split shards grown past `split_skew × mean`
    /// (or past the absolute [`StoreConfig::split_max_len`] ceiling), merge
    /// shards shrunk below `mean / split_skew`. The background worker runs
    /// this automatically; the method is public for deterministic tests and
    /// explicit maintenance. Returns the number of topology changes.
    ///
    /// # Errors
    /// Propagates the first child-index build failure (cannot currently
    /// occur; merged columns are sorted by construction).
    pub fn rebalance(&self) -> Result<usize, StoreError> {
        Ok(self.core.rebalance()?)
    }
}

/// Every read is a thin delegation to a freshly pinned
/// [`ShardedStore::snapshot`], so even a multi-shard composition (global
/// position, batch, range) is **exact at one commit version** while writers,
/// rebuilds and the rebalancer race it — the old direct per-shard reads
/// could observe different shards at different instants.
impl<K: Key> RangeIndex<K> for ShardedStore<K> {
    fn lower_bound(&self, q: K) -> usize {
        self.core.snapshot().lower_bound(q)
    }

    /// Batched merged lookups, grouped by shard (see
    /// [`StoreSnapshot::lower_bound_batch`]), resolved entirely against one
    /// pinned snapshot: exact even while writes race the batch.
    fn lower_bound_batch(&self, queries: &[K], out: &mut [usize]) {
        self.core.snapshot().lower_bound_batch(queries, out);
    }

    fn range(&self, lo: K, hi: K) -> std::ops::Range<usize> {
        self.core.snapshot().range(lo, hi)
    }

    fn len(&self) -> usize {
        self.core.snapshot().len()
    }

    fn index_size_bytes(&self) -> usize {
        let table = self.core.load_table();
        let routing = table.router.fences().len() * K::size_bytes();
        routing
            + table
                .shards
                .iter()
                .map(|s| s.index_size_bytes())
                .sum::<usize>()
    }

    fn name(&self) -> &'static str {
        "ShardedStore"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shift_table::spec::IndexSpec;
    use sosd_data::prelude::*;

    fn spec() -> IndexSpec {
        IndexSpec::parse("im+r1").unwrap()
    }

    #[test]
    fn built_store_matches_reference_on_every_workload() {
        let d: Dataset<u64> = SosdName::Face64.generate(12_000, 3);
        for shards in [1usize, 4, 13] {
            let config = StoreConfig::new(spec()).shards(shards);
            let index = ShardedStore::build(config, d.as_slice()).unwrap();
            assert!(index.shard_count() <= shards.max(1));
            assert_eq!(index.len(), d.len());
            for w in [
                Workload::uniform_keys(&d, 400, 1),
                Workload::uniform_domain(&d, 400, 2),
                Workload::non_indexed(&d, 400, 3),
            ] {
                for (q, expected) in w.iter() {
                    assert_eq!(index.lower_bound(q), expected, "shards={shards} q={q}");
                }
                assert_eq!(
                    index.lower_bound_many(w.queries()),
                    w.expected().to_vec(),
                    "shards={shards} batch"
                );
            }
            assert_eq!(index.lower_bound(0), d.lower_bound(0));
            assert_eq!(index.lower_bound(u64::MAX), d.lower_bound(u64::MAX));
            assert_eq!(index.range(0, u64::MAX), 0..d.len());
        }
    }

    #[test]
    fn store_is_send_sync_and_boxable() {
        fn assert_owned<T: Send + Sync + 'static>(_: &T) {}
        let keys: Vec<u64> = (0..5_000u64).map(|i| i * 3).collect();
        let store = ShardedStore::build(StoreConfig::new(spec()).shards(4), &keys).unwrap();
        assert_owned(&store);
        let boxed: algo_index::search::DynRangeIndex<u64> = Box::new(store);
        assert_eq!(boxed.lower_bound(300), 100);
        assert_eq!(boxed.name(), "ShardedStore");
        assert!(boxed.index_size_bytes() > 0);
    }

    #[test]
    fn store_round_trips_writes_across_shards() {
        let keys: Vec<u64> = (0..10_000u64).map(|i| i * 2).collect();
        let config = StoreConfig::new(spec())
            .shards(4)
            .delta_threshold(100_000)
            .auto_rebuild(false);
        let store = ShardedStore::build(config, &keys).unwrap();
        assert_eq!(store.shard_count(), 4);
        assert_eq!(store.len(), 10_000);
        // Odd keys land in all four shards.
        for k in [1u64, 5_001, 10_001, 19_999] {
            store.insert(k).unwrap();
        }
        assert_eq!(store.len(), 10_004);
        assert_eq!(store.lower_bound(0), 0);
        assert_eq!(store.lower_bound(2), 2); // 0, 1 precede
        assert!(store.delete(5_001).unwrap());
        assert!(!store.delete(5_001).unwrap());
        assert_eq!(store.len(), 10_003);
        // Flush drains every shard with buffered ops — including the one
        // whose insert/delete pair cancelled out in the net view.
        assert_eq!(store.flush().unwrap(), 4);
        assert_eq!(store.total_rebuilds(), 4);
        assert_eq!(store.len(), 10_003);
        assert_eq!(store.count_of(19_999), 1);
        assert_eq!(store.count_of(5_001), 0);
    }

    #[test]
    fn auto_rebuild_triggers_on_the_crossing_write() {
        let keys: Vec<u64> = (0..1_000u64).collect();
        let config = StoreConfig::new(spec()).shards(1).delta_threshold(8);
        let store = ShardedStore::build(config, &keys).unwrap();
        for i in 0..8u64 {
            store.insert(2_000 + i).unwrap();
        }
        assert_eq!(store.total_rebuilds(), 1, "8th write crossed the threshold");
        assert_eq!(store.shards()[0].buffered_ops(), 0);
        assert_eq!(store.len(), 1_008);
    }

    #[test]
    fn maintain_rebuilds_only_dirty_shards() {
        let keys: Vec<u64> = (0..8_000u64).collect();
        let config = StoreConfig::new(spec())
            .shards(4)
            .delta_threshold(10)
            .auto_rebuild(false);
        let store = ShardedStore::build(config, &keys).unwrap();
        // Make exactly one shard dirty…
        for i in 0..12u64 {
            store.insert(10_000 + i).unwrap(); // all route to the last shard
        }
        // …and leave another with a sub-threshold chain.
        store.insert(1).unwrap();
        assert_eq!(store.maintain().unwrap(), 1);
        assert_eq!(store.total_rebuilds(), 1);
        assert_eq!(store.flush().unwrap(), 1, "flush drains the small chain");
        assert_eq!(store.len(), 8_013);
    }

    #[test]
    fn reads_stay_exact_while_rebuilds_run_concurrently() {
        // Buffer writes, freeze the expected merged view, then race reader
        // threads against the parallel rebuild: every read must be exact
        // whichever epoch serves it, before, during and after the swap.
        let keys: Vec<u64> = (0..20_000u64).map(|i| i * 4).collect();
        let config = StoreConfig::new(spec())
            .shards(4)
            .delta_threshold(1_000_000)
            .auto_rebuild(false);
        let store = ShardedStore::build(config, &keys).unwrap();
        let mut merged: Vec<u64> = keys.clone();
        let mut rng = SplitMix64::new(0xC0FF);
        for _ in 0..600 {
            let k = rng.next_below(80_000);
            store.insert(k).unwrap();
            let pos = merged.partition_point(|&x| x < k);
            merged.insert(pos, k);
        }
        let queries: Vec<u64> = (0..400).map(|_| rng.next_below(90_000)).collect();
        let expected: Vec<usize> = queries
            .iter()
            .map(|&q| merged.partition_point(|&x| x < q))
            .collect();
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    for _ in 0..30 {
                        for (&q, &e) in queries.iter().zip(expected.iter()) {
                            assert_eq!(store.lower_bound(q), e, "q={q}");
                        }
                    }
                });
            }
            scope.spawn(|| {
                assert_eq!(store.flush().unwrap(), 4);
            });
        });
        assert_eq!(store.total_rebuilds(), 4);
        assert_eq!(store.lower_bound_many(&queries), expected);
    }

    #[test]
    fn skewed_inserts_split_the_hot_shard() {
        let keys: Vec<u64> = (0..8_000u64).collect();
        let config = StoreConfig::new(spec())
            .shards(4)
            .delta_threshold(1_000_000)
            .auto_rebuild(false)
            .split_skew(2);
        let store = ShardedStore::build(config, &keys).unwrap();
        assert_eq!(store.shard_count(), 4);
        // Hammer the last shard's range far past 2× the mean.
        for i in 0..30_000u64 {
            store.insert(6_000 + (i % 1_000)).unwrap();
        }
        let actions = store.rebalance().unwrap();
        assert!(store.total_splits() >= 1, "the skewed shard must split");
        assert_eq!(
            store.total_splits() + store.total_merges(),
            actions as u64,
            "every action is a split or a merge"
        );
        assert_eq!(store.len(), 38_000);
        // Reads stay exact across the new topology: base keys below q plus
        // the 30 inserted copies of every key in [6000, 7000) below q.
        for q in [0u64, 3_000, 6_000, 6_500, 7_999, u64::MAX] {
            let inserted_below = 30 * q.saturating_sub(6_000).min(1_000) as usize;
            assert_eq!(
                store.lower_bound(q),
                8_000.min(q as usize) + inserted_below,
                "q={q}"
            );
        }
    }

    #[test]
    fn absolute_ceiling_splits_a_single_giant_shard() {
        // The skew signal is peer-relative: a 1-shard store is its own mean
        // and `len > skew × mean` can never fire, and with the configured
        // count already reached the catch-up path is inert too. The
        // absolute `split_max_len` ceiling must still split it.
        let keys: Vec<u64> = (0..2_000u64).collect();
        let config = StoreConfig::new(spec())
            .shards(1)
            .delta_threshold(1_000_000)
            .auto_rebuild(false)
            .split_skew(4)
            .split_max_len(1_500);
        let store = ShardedStore::build(config, &keys).unwrap();
        assert_eq!(store.shard_count(), 1);
        // Without the ceiling nothing would happen (control).
        let control = ShardedStore::build(config.split_max_len(0), &keys).unwrap();
        assert_eq!(control.rebalance().unwrap(), 0);
        assert_eq!(control.shard_count(), 1);
        // With it, the giant shard splits and reads stay exact.
        assert!(store.rebalance().unwrap() >= 1);
        assert!(store.shard_count() >= 2);
        assert!(store.total_splits() >= 1);
        assert!(
            store.shards().iter().all(|s| s.len() <= 1_500),
            "children must respect the ceiling: {:?}",
            store.shards().iter().map(|s| s.len()).collect::<Vec<_>>()
        );
        for q in [0u64, 999, 1_000, 1_999, u64::MAX] {
            assert_eq!(store.lower_bound(q), 2_000.min(q as usize), "q={q}");
        }
        // A follow-up sweep must not merge the children straight back.
        store.rebalance().unwrap();
        assert!(
            store.shard_count() >= 2,
            "ceiling splits must not oscillate"
        );
    }

    #[test]
    fn failed_split_rolls_back_the_seal() {
        // A shard dominated by one duplicate run can never split. The
        // rebalancer keeps trying (catch-up: 1 shard < 4 requested), and
        // every abandoned attempt must roll its seal back — otherwise each
        // sweep would strand one more sealed, uncompactable run on the
        // chain and reads would degrade without bound.
        let config = StoreConfig::new(spec())
            .shards(4)
            .delta_threshold(1_000_000)
            .auto_rebuild(false)
            .split_skew(2);
        let store = ShardedStore::build(config, vec![5u64; 1_000]).unwrap();
        assert_eq!(store.shard_count(), 1);
        for _ in 0..100 {
            store.insert(5).unwrap();
        }
        for sweep in 0..3 {
            assert_eq!(store.rebalance().unwrap(), 0, "sweep {sweep} cannot split");
            let state = store.shards()[0].state();
            assert_eq!(
                state.delta().unsealed_run_count(),
                state.delta().run_count(),
                "sweep {sweep} left sealed runs behind"
            );
        }
        assert_eq!(store.lower_bound(6), 1_100);
    }

    #[test]
    fn drained_shards_merge_back_together() {
        let keys: Vec<u64> = (0..9_000u64).collect();
        let config = StoreConfig::new(spec())
            .shards(3)
            .delta_threshold(1_000_000)
            .auto_rebuild(false)
            .split_skew(2);
        let store = ShardedStore::build(config, &keys).unwrap();
        assert_eq!(store.shard_count(), 3);
        // Drain the middle shard almost completely.
        for k in 3_000..5_990u64 {
            assert!(store.delete(k).unwrap());
        }
        let actions = store.rebalance().unwrap();
        assert!(actions > 0, "the drained shard must merge");
        assert!(store.shard_count() < 3);
        assert_eq!(store.total_merges(), actions as u64);
        assert_eq!(store.len(), 9_000 - 2_990);
        assert_eq!(store.lower_bound(6_000), 3_010);
        assert_eq!(store.count_of(3_500), 0);
        assert_eq!(store.count_of(5_995), 1);
    }

    #[test]
    fn background_worker_drains_dirty_shards() {
        let keys: Vec<u64> = (0..4_000u64).collect();
        let config = StoreConfig::new(spec())
            .shards(2)
            .delta_threshold(64)
            .auto_rebuild(false)
            .background_maintenance(true);
        let store = ShardedStore::build(config, &keys).unwrap();
        for i in 0..1_000u64 {
            store.insert(i * 7).unwrap();
        }
        // The worker should catch up shortly; poll briefly.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while store.total_rebuilds() == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert!(
            store.total_rebuilds() > 0,
            "worker must rebuild in the background"
        );
        assert_eq!(store.len(), 5_000);
        assert!(store.take_maintenance_errors().is_empty());
        drop(store); // joins the worker deterministically
    }
}
