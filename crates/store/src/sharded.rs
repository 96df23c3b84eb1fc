//! The range-sharded store: an atomically published shard table over
//! epoch-snapshot shards.
//!
//! [`ShardedStore`] is `N` independently built [`StoreShard`]s over
//! contiguous key chunks — batched lookups are grouped by shard so each
//! shard's stage-blocked batch path stays intact — with a write path and a
//! *mutable topology*: the router
//! and the shard list travel together as one immutable [`StoreTable`] behind
//! an [`EpochCell`], so every read (scalar, batched, range) pins one table
//! and sees a consistent fence/shard pairing even while the rebalancer is
//! splitting a hot shard or merging undersized neighbours. Writers load the
//! table, route, and append to the target shard; a shard replaced by a
//! split/merge is *retired* (it refuses further writes) and the writer
//! transparently retries against the freshly published table. Dirty shards
//! are rebuilt inline on the crossing write (`auto_rebuild`), by the
//! background [`MaintenanceWorker`], or via [`ShardedStore::maintain`] /
//! [`ShardedStore::flush`].

use crate::batch::{BatchOp, BatchReceipt, WriteBatch};
use crate::config::StoreConfig;
use crate::delta::{DeltaChain, COMPACT_RUNS};
use crate::epoch::{CommitClock, EpochCell};
use crate::error::StoreError;
use crate::obs::{self, HydrationReason, StoreObs, TraceEvent, TraceKind};
use crate::persist::manifest::{Manifest, ManifestShard};
use crate::persist::recovery::OpenBreakdown;
use crate::persist::wal::Frame;
use crate::persist::{
    self, recovery, CheckpointTally, DurabilityStats, Persistence, ShardFileWriter, WrittenShard,
};
use crate::pool;
use crate::router::ShardRouter;
use crate::shard::{build_index, ShardSnapshot, ShardState, StoreShard};
use crate::snapshot::{PinnedCut, SnapshotHook, StoreSnapshot};
use crate::txn::Txn;
use crate::versions::{diff_cuts, VersionRing, VersionStats};
use crate::worker::{HydrationWorker, MaintenanceWorker, WorkerSignal};
use algo_index::search::RangeIndex;
use shift_obs::{MetricsProvider, MetricsReport, MetricsServer, SampledTimer};
use shift_table::error::BuildError;
use shift_table::spec::IndexSpec;
use sosd_data::key::Key;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// The chunk plan of a sharded build or seeding: `keys` cut into
/// duplicate-run-aligned chunks, each checked against the capacity of
/// `spec`'s layer (a comparison per chunk, so it goes first), then checked
/// sorted once. Everything that can fail in a sharded build fails here —
/// before any shard is built and, for a seeding, before any file is
/// written — so the builds over the returned chunks are infallible.
fn plan_chunks<K: Key>(
    spec: IndexSpec,
    keys: &[K],
    shards: usize,
) -> Result<(ShardRouter<K>, Vec<&[K]>), BuildError> {
    let (router, bounds) = ShardRouter::partition(keys, shards);
    let chunks: Vec<&[K]> = bounds.windows(2).map(|w| &keys[w[0]..w[1]]).collect();
    for chunk in &chunks {
        spec.check_key_count(chunk.len())?;
    }
    if let Some(position) = keys.windows(2).position(|w| w[0] > w[1]) {
        return Err(BuildError::UnsortedKeys {
            position: position + 1,
        });
    }
    Ok((router, chunks))
}

/// Build one hot shard over validated `keys` (a planned chunk, a recovered
/// column) with the store's tuning knobs.
pub(crate) fn built_shard<K: Key>(
    config: &StoreConfig,
    spec: IndexSpec,
    keys: Arc<[K]>,
) -> Arc<StoreShard<K>> {
    Arc::new(StoreShard::build_prevalidated(
        spec,
        keys,
        config.delta_threshold,
        config.build_threads,
    ))
}

/// One immutable topology epoch of a [`ShardedStore`]: the fence-key router
/// and the shard list it addresses, published (and replaced) together so a
/// pinned table always pairs fences with the shards they describe.
pub struct StoreTable<K: Key> {
    router: ShardRouter<K>,
    shards: Vec<Arc<StoreShard<K>>>,
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

    /// Locate a shard in this table by identity.
    fn position_of(&self, shard: &Arc<StoreShard<K>>) -> Option<usize> {
        self.shards.iter().position(|s| Arc::ptr_eq(s, shard))
    }
}

/// What the previous checkpoint referenced per shard, kept so the next
/// incremental checkpoint can *skip* shards whose merged view has not
/// moved since (see the invariants in [`crate::persist`]). Invalidated
/// whole by any topology change (the fences are part of the memo) and per
/// shard by any `applied_cv` advance.
pub(crate) struct CheckpointMemo {
    /// The fence keys (widened) the memoised checkpoint was cut over.
    fences: Vec<u64>,
    /// One entry per shard, in the memoised topology's order.
    shards: Vec<MemoShard>,
}

#[derive(Clone)]
struct MemoShard {
    /// The shard's `applied_cv` stamp at the memoised checkpoint's cut —
    /// equal stamp now ⟹ identical merged view ⟹ identical snapshot file.
    state_cv: u64,
    /// The manifest entry written (or re-referenced) for the shard; `None`
    /// forces a rewrite (a fresh store, or a reopen that replayed WAL-tail
    /// records into the shard).
    entry: Option<ManifestShard>,
}

/// What the *cut* and *write* steps of a checkpoint hand to
/// [`StoreCore::publish_checkpoint`].
struct WrittenCheckpoint {
    /// The checkpoint version: every write `<= cv` is inside the files.
    cv: u64,
    /// The manifest sequence to publish under.
    seq: u64,
    /// The fence keys (widened) of the topology the cut was taken over.
    fences: Vec<u64>,
    /// Per shard, the `applied_cv` stamp of the state the cut pinned.
    state_cvs: Vec<u64>,
    /// Per shard, the snapshot file the manifest will reference — written
    /// by this checkpoint or carried forward from the previous one.
    entries: Vec<ManifestShard>,
    tally: CheckpointTally,
}

/// What one task of a seeding produced: the snapshot file of a chunk, or
/// the shard built over it.
enum SeedTask<K: Key> {
    Written(WrittenShard),
    Built(Arc<StoreShard<K>>),
}

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

    /// Capture a store-wide consistent cut: pin the table and every shard's
    /// state inside one quiescent commit-clock window (see
    /// [`CommitClock::try_read_consistent`]). The returned snapshot is
    /// exact at its commit version and repeatable forever.
    ///
    /// Liveness: the lock-free seqlock capture is retried a bounded number
    /// of times; if a write window overlapped every attempt (possible only
    /// under a continuous write storm with fewer cores than threads), the
    /// capture falls back to taking the write gate — writers pause for the
    /// microseconds one pin sweep takes, and the snapshot is guaranteed.
    pub(crate) fn snapshot(&self) -> StoreSnapshot<K> {
        StoreSnapshot::from_cut(self.pin_cut(), Some(self.hook()))
    }

    fn hook(&self) -> SnapshotHook {
        SnapshotHook {
            obs: Arc::clone(&self.obs),
            signal: Arc::clone(&self.signal),
        }
    }

    /// Pin the table and every shard's published state — the closure every
    /// consistent cut runs inside a quiescent clock window, and what the
    /// checkpoint cut and the metrics scrape take under their own rules.
    pub(crate) fn pin_states(&self) -> (Arc<StoreTable<K>>, Vec<Arc<ShardState<K>>>) {
        let table = self.load_table();
        let states = table.shards.iter().map(|s| s.state()).collect();
        (table, states)
    }

    /// Capture (or reuse) the current consistent cut. The fast path serves
    /// the cached cut whenever the clock still reads quiescent at its
    /// version — no write happened since the cut was pinned, so it is still
    /// exact — making repeat snapshot/begin acquisition O(1) in the shard
    /// count. A miss runs the full seqlock capture and refreshes the cache.
    pub(crate) fn pin_cut(&self) -> PinnedCut<K> {
        if let Some(qv) = self.clock.quiescent_version() {
            // lint: allow(panic) lock poisoning propagates a holder's panic; no sound continuation
            let cache = self.pin_cache.lock().expect("pin cache poisoned");
            if let Some(cut) = cache.as_ref() {
                if cut.version == qv {
                    return cut.clone();
                }
            }
        }
        let (cut, failed_pins) = self
            .clock
            .try_read_consistent_counted(128, || self.pin_states());
        if failed_pins > 0 {
            self.obs
                .count(&self.obs.snap_pin_retries, u64::from(failed_pins));
        }
        let ((table, states), version) = match cut {
            Some(cut) => cut,
            None => {
                self.obs.count(&self.obs.write_gate_fallbacks, 1);
                let _gate = self.write_gate.write().expect("write gate poisoned"); // lint: allow(panic) lock poisoning propagates a holder's panic; no sound continuation
                                                                                   // No window can be open or opened: first attempt succeeds.
                self.clock.read_consistent(|| self.pin_states())
            }
        };
        let cut = PinnedCut::new(table, states, version);
        // lint: allow(panic) lock poisoning propagates a holder's panic; no sound continuation
        *self.pin_cache.lock().expect("pin cache poisoned") = Some(cut.clone());
        cut
    }

    /// [`StoreCore::pin_cut`] for a caller that has writers excluded — it
    /// holds a durable store's WAL frame lock (every durable write applies
    /// under it) or the write gate's write side. No commit window can be
    /// open or opened, so the first seqlock attempt always succeeds. Never
    /// call this without that exclusion: it would spin under a write storm.
    pub(crate) fn pin_cut_quiescent(&self) -> PinnedCut<K> {
        let ((table, states), version) = self.clock.read_consistent(|| self.pin_states());
        let cut = PinnedCut::new(table, states, version);
        // lint: allow(panic) lock poisoning propagates a holder's panic; no sound continuation
        *self.pin_cache.lock().expect("pin cache poisoned") = Some(cut.clone());
        cut
    }

    /// Opportunistically retain the current cut after a write, when a
    /// retention policy is configured. The pin attempt is bounded and
    /// writers never wait on it — losing the race just means the *next*
    /// write (or the next transaction commit, which captures
    /// deterministically inside its writer-excluded critical section)
    /// retains instead.
    pub(crate) fn retain_current(&self) {
        if !self.versions.enabled() {
            return;
        }
        let pinned = self.clock.try_read_consistent(8, || self.pin_states());
        if let Some(((table, states), version)) = pinned {
            let cut = PinnedCut::new(table, states, version);
            self.record_evictions(self.versions.capture(cut));
        }
    }

    /// Drop the cached cut. Called by every maintenance path that
    /// republishes shard state *without* opening a commit window (rebuild,
    /// compaction, split, merge) — the old cut would stay *correct* (its
    /// pinned states are immutable and complete) but would keep serving the
    /// pre-maintenance structures and pinning their memory until the next
    /// write moved the clock.
    fn invalidate_pin_cache(&self) {
        // lint: allow(panic) lock poisoning propagates a holder's panic; no sound continuation
        *self.pin_cache.lock().expect("pin cache poisoned") = None;
    }

    /// Count and trace version-ring evictions: one
    /// [`TraceKind::VersionEvicted`] per dropped cut, stamped with the
    /// evicted commit version and carrying the remaining retained count.
    /// Returns how many there were.
    pub(crate) fn record_evictions(&self, evicted: Vec<(u64, usize)>) -> usize {
        let n = evicted.len();
        for (cv, remaining) in evicted {
            self.obs.count(&self.obs.version_evictions, 1);
            self.obs.emit(TraceEvent::store(
                TraceKind::VersionEvicted,
                cv,
                remaining as u64,
            ));
        }
        n
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

    /// Rebuild one shard, counting it on success. A *cold* shard's rebuild
    /// is a hydration — it decodes the mounted snapshot and retrains the
    /// model — so it is additionally counted (and traced) as one; it still
    /// counts into [`crate::ShardedStore::total_rebuilds`], which has always
    /// included hydrations.
    pub(crate) fn rebuild_shard(&self, shard: &Arc<StoreShard<K>>) -> Result<bool, BuildError> {
        let was_cold = shard.snapshot().is_cold();
        let t0 = self.obs.phase_start();
        let rebuilt = shard.rebuild()?;
        if rebuilt {
            self.invalidate_pin_cache();
            self.rebuilds.fetch_add(1, Ordering::Relaxed); // lint: ordering(Relaxed) monotonic stats counter; no synchronising role
            if self.obs.enabled() {
                let (kind, hist) = if was_cold {
                    self.obs.count(&self.obs.hydrations, 1);
                    (TraceKind::Hydrated, &self.obs.hydration_ns)
                } else {
                    (TraceKind::Rebuild, &self.obs.rebuild_ns)
                };
                let ns = self.obs.phase_done(t0, hist);
                self.emit_event(kind, self.load_table().position_of(shard), ns);
            }
        }
        Ok(rebuilt)
    }

    /// Rebuild every shard picked by `pick`, at most one per hardware thread
    /// at a time.
    fn rebuild_where(&self, pick: impl Fn(&StoreShard<K>) -> bool) -> Result<usize, BuildError> {
        let table = self.load_table();
        let targets: Vec<&Arc<StoreShard<K>>> = table.shards.iter().filter(|s| pick(s)).collect();
        let mut rebuilt = 0usize;
        for outcome in pool::run_tasks(targets.len(), |i| self.rebuild_shard(targets[i])) {
            rebuilt += usize::from(outcome?);
        }
        Ok(rebuilt)
    }

    /// One background maintenance pass: compact long chains, rebuild dirty
    /// shards, rebalance skewed ones and — on a durable store whose WAL has
    /// grown past the configured record budget — take a checkpoint. Returns
    /// the number of actions taken.
    pub(crate) fn maintenance_pass(&self) -> Result<usize, StoreError> {
        let mut actions = 0usize;
        let table = self.load_table();
        // The worker compacts earlier than the writers' inline fold (at
        // half its run bound) so idle shards converge to short chains
        // without a write having to pay.
        let worker_trigger = COMPACT_RUNS / 2;
        for (s, shard) in table.shards.iter().enumerate() {
            if shard.state().delta().unsealed_run_count() >= worker_trigger {
                let t0 = self.obs.phase_start();
                if shard.compact() {
                    self.invalidate_pin_cache();
                    let ns = self.obs.phase_done(t0, &self.obs.compaction_ns);
                    self.obs.count(&self.obs.compactions, 1);
                    self.emit_event(TraceKind::Compact, Some(s), ns);
                    actions += 1;
                }
            }
            // Halve the decayed access-frequency signal once per pass, so
            // `store_shard_accesses` reads as a recency-weighted rate.
            shard.decay_accesses();
        }
        // A cold shard whose first read requested its own hydration gets it
        // here even when no hydrator thread is running (a cold shard can
        // outlive the hydrator if its sweep was stopped by an error).
        actions += self.rebuild_where(|s| s.hydration_requested() && s.snapshot().is_cold())?;
        actions += self.rebuild_where(|s| s.is_dirty())?;
        actions += self.rebalance()?;
        // Age out retained versions past the policy's max_age (count-bound
        // eviction already happened at capture time).
        let aged = self.record_evictions(self.versions.evict_stale());
        actions += aged;
        if self.persist.as_ref().is_some_and(|p| p.checkpoint_due()) {
            self.checkpoint()?;
            actions += 1;
        }
        Ok(actions)
    }

    /// Capture a background-maintenance failure in the bounded error ring
    /// (always on, even with metrics disabled) and the trace ring; drained
    /// via [`crate::ShardedStore::take_maintenance_errors`].
    pub(crate) fn record_maintenance_error(&self, e: StoreError) {
        self.obs.push_error(None, self.clock.version(), e);
    }

    /// Take an epoch-consistent checkpoint (see [`crate::persist`]) in its
    /// three steps. **Cut**: rotate the WAL and pin every shard state under
    /// the WAL lock (an exact cut — durable writes apply under that lock).
    /// **Write**: off-lock, one snapshot file per shard that needs one
    /// ([`ShardFileWriter`]), a pool task each. **Publish**: the manifest, the
    /// memo, the counters and the truncation of the covered WAL prefix
    /// ([`StoreCore::publish_checkpoint`]).
    ///
    /// With [`crate::DurabilityConfig::incremental_checkpoints`] (the
    /// default), a shard whose `applied_cv` stamp has not moved since the
    /// previous checkpoint is **skipped**: the new manifest re-references
    /// the previous snapshot file (old name, old `applied` floor) instead
    /// of rewriting identical bytes, and garbage collection keeps every
    /// file the newest manifest references regardless of its sequence
    /// number. A file that can no longer be found is not re-referenced —
    /// the shard is written again. Any topology change invalidates the
    /// whole memo.
    pub(crate) fn checkpoint(&self) -> Result<u64, StoreError> {
        let Some(p) = &self.persist else {
            return Err(StoreError::NotDurable);
        };
        let t0 = self.obs.phase_start();
        let _gate = p.checkpoint_gate();
        let (cv, seq, (table, states)) = p.begin_checkpoint(|| self.pin_states())?;
        let fences: Vec<u64> = table.router.fences().iter().map(|f| f.to_u64()).collect();
        // Take the memo out for the duration: a checkpoint that fails
        // mid-write leaves `None` behind, and the next attempt rewrites
        // everything rather than trusting a cut that never finished.
        let memo = self
            .ckpt_memo
            .lock()
            .expect("checkpoint memo poisoned") // lint: allow(panic) lock poisoning propagates a holder's panic; no sound continuation
            .take();
        let prior: Option<Vec<MemoShard>> = memo
            .filter(|m| {
                p.durability().incremental_checkpoints
                    && m.fences == fences
                    && m.shards.len() == states.len()
            })
            .map(|m| m.shards);
        let state_cvs: Vec<u64> = states.iter().map(|s| s.applied_cv()).collect();
        let mut tally = CheckpointTally::default();
        // Per shard, the previous entry when it can be carried forward: the
        // merged view has not moved and the file is still there to point at.
        let reused: Vec<Option<ManifestShard>> = (0..states.len())
            .map(|i| {
                let m = &prior.as_ref()?[i];
                let entry = m.entry.clone().filter(|_| m.state_cv == state_cvs[i])?;
                let file = std::fs::metadata(p.dir().join(&entry.snapshot)).ok()?;
                tally.shards_skipped += 1;
                tally.bytes_reused += file.len();
                Some(entry)
            })
            .collect();
        let stale: Vec<usize> = (0..states.len()).filter(|&i| reused[i].is_none()).collect();
        let files = ShardFileWriter::new(p.dir(), seq, cv, p.durability().snapshot_block_keys);
        let (written, snapshot_bytes) =
            ShardFileWriter::finish(pool::run_tasks(stale.len(), |i| {
                files.write_shard_file(stale[i], || states[stale[i]].merged_view())
            }))?;
        tally.shards_written = written.len() as u64;
        tally.snapshot_bytes = snapshot_bytes;
        let mut written = written.into_iter();
        let entries: Vec<ManifestShard> = reused
            .into_iter()
            .filter_map(|entry| entry.or_else(|| written.next()))
            .collect();
        debug_assert_eq!(entries.len(), states.len());
        self.publish_checkpoint(WrittenCheckpoint {
            cv,
            seq,
            fences,
            state_cvs,
            entries,
            tally,
        })?;
        self.obs.phase_done(t0, &self.obs.checkpoint_ns);
        Ok(cv)
    }

    /// The *publish* step of a checkpoint, shared by
    /// [`StoreCore::checkpoint`] and the seeding of
    /// [`ShardedStore::open_seeded`]: make the manifest durable, remember
    /// what it references (the next checkpoint's skip oracle), count the
    /// checkpoint and collect what it superseded. The caller holds the
    /// checkpoint gate and every file in `done.entries` is already synced;
    /// until the manifest lands nothing refers to them.
    fn publish_checkpoint(&self, done: WrittenCheckpoint) -> Result<(), StoreError> {
        let Some(p) = &self.persist else {
            return Err(StoreError::NotDurable);
        };
        let m = Manifest {
            seq: done.seq,
            version: done.cv,
            spec: self.config.spec.to_string(),
            fences: done.fences,
            shards: done.entries,
        };
        persist::manifest::write_manifest(p.dir(), &m)?;
        p.finish_checkpoint(done.cv, done.tally);
        persist::gc(p.dir(), &m);
        // The manifest is durable: its entries are now safe to skip from.
        // lint: allow(panic) lock poisoning propagates a holder's panic; no sound continuation
        *self.ckpt_memo.lock().expect("checkpoint memo poisoned") = Some(CheckpointMemo {
            fences: m.fences,
            shards: done
                .state_cvs
                .into_iter()
                .zip(m.shards)
                .map(|(state_cv, entry)| MemoShard {
                    state_cv,
                    entry: Some(entry),
                })
                .collect(),
        });
        self.emit_event(TraceKind::Checkpoint, None, done.tally.snapshot_bytes);
        Ok(())
    }

    /// Background-hydrate every cold shard (see
    /// [`crate::worker::HydrationWorker`]): retrain models in waves capped
    /// at the machine's parallelism, re-scanning until the table holds no
    /// cold shard or `stop` is raised. A build failure is parked for
    /// [`crate::ShardedStore::take_maintenance_errors`] and ends the pass —
    /// cold shards keep serving off their block index.
    pub(crate) fn hydrate_cold_shards(&self, stop: &std::sync::atomic::AtomicBool) {
        let workers = pool::worker_count(usize::MAX);
        loop {
            // lint: ordering(Relaxed) advisory shutdown flag; a stale read costs one extra wave, thread join orders the rest
            if stop.load(Ordering::Relaxed) {
                return;
            }
            // One wave per sweep, re-scanned against the freshest table so
            // first-touch requests arriving mid-hydration jump the queue:
            // a shard a reader is actively waiting on hydrates before the
            // sweep's positional order would reach it.
            let table = self.load_table();
            let mut cold: Vec<Arc<StoreShard<K>>> = table
                .shards
                .iter()
                .filter(|s| s.snapshot().is_cold())
                .cloned()
                .collect();
            if cold.is_empty() {
                return;
            }
            cold.sort_by_key(|s| !s.hydration_requested());
            cold.truncate(workers);
            for shard in &cold {
                // A first-touch request already emitted its trigger event
                // (consuming the flag here keeps the two reasons disjoint).
                if !shard.take_hydration_request() {
                    self.emit_event(
                        TraceKind::HydrationTriggered,
                        table.position_of(shard),
                        HydrationReason::BackgroundSweep.code(),
                    );
                }
            }
            let wave = pool::run_tasks(cold.len(), |i| self.rebuild_shard(&cold[i]));
            let mut failed = false;
            for e in wave.into_iter().filter_map(Result::err) {
                self.record_maintenance_error(e.into());
                failed = true;
            }
            if failed {
                return;
            }
        }
    }

    // ---- rebalancing ----------------------------------------------------

    /// One rebalance sweep: split every shard whose live size exceeds
    /// `split_skew × mean` — or the absolute `split_max_len` ceiling, which
    /// still fires when the peer-relative skew signal is inert (a 1-shard
    /// store *is* its own mean) — at a duplicate-run-aligned median fence
    /// (plus one catch-up split per sweep while the topology has fewer
    /// shards than configured), then merge shards smaller than
    /// `mean / split_skew` into their smaller neighbour. Returns the number
    /// of topology changes.
    fn rebalance(&self) -> Result<usize, BuildError> {
        let skew = self.config.split_skew;
        if skew == 0 {
            return Ok(0);
        }
        let max_len = self.config.split_max_len;
        let _topology = self.topology.lock().expect("topology lock poisoned"); // lint: allow(panic) lock poisoning propagates a holder's panic; no sound continuation
        let mut actions = 0usize;

        // Splits: pick candidates from one consistent sweep, then re-locate
        // each by identity (earlier splits shift indices).
        let table = self.load_table();
        let lens: Vec<usize> = table.shards.iter().map(|s| s.len()).collect();
        let total: usize = lens.iter().sum();
        let mean = (total / lens.len().max(1)).max(1);
        let oversized: Vec<Arc<StoreShard<K>>> = table
            .shards
            .iter()
            .zip(lens.iter())
            .filter(|&(_, &len)| len >= 2 && (len > skew * mean || (max_len > 0 && len > max_len)))
            .map(|(s, _)| Arc::clone(s))
            .collect();
        for shard in oversized {
            let table = self.load_table();
            if let Some(s) = table.position_of(&shard) {
                if self.split_shard(&table, s)? {
                    actions += 1;
                }
            }
        }

        // Catch-up growth: a topology with fewer shards than the
        // configuration requests (born small, grown from empty, or
        // collapsed by merges) grows back one split per sweep, largest
        // shard first — skew is relative to peers, so a single-shard store
        // could otherwise never split at all.
        let table = self.load_table();
        if table.shards.len() < self.config.shards {
            if let Some((s, _)) = table
                .shards
                .iter()
                .enumerate()
                .max_by_key(|(_, sh)| sh.len())
            {
                if table.shards[s].len() >= 2 && self.split_shard(&table, s)? {
                    actions += 1;
                }
            }
        }

        // Merges: re-sweep against the post-split topology.
        loop {
            let table = self.load_table();
            if table.shards.len() < 2 {
                break;
            }
            let lens: Vec<usize> = table.shards.iter().map(|s| s.len()).collect();
            let total: usize = lens.iter().sum();
            let mean = (total / lens.len()).max(1);
            let undersized = lens
                .iter()
                .enumerate()
                .filter(|&(_, &len)| len * skew < mean)
                .min_by_key(|&(_, &len)| len)
                .map(|(s, _)| s);
            let Some(s) = undersized else { break };
            // Merge into the smaller neighbour, refusing to create a new
            // oversized shard.
            let left_ok = s > 0;
            let right_ok = s + 1 < lens.len();
            let partner = match (left_ok, right_ok) {
                (true, true) if lens[s - 1] <= lens[s + 1] => s - 1,
                (true, false) => s - 1,
                (_, true) => s + 1,
                _ => break,
            };
            let (a, b) = (s.min(partner), s.max(partner));
            // Refuse to create a new oversized shard — by the skew signal or
            // by the absolute ceiling (which would oscillate with the split
            // fallback otherwise).
            let merged = lens[a] + lens[b];
            if merged > skew * mean
                || (max_len > 0 && merged > max_len)
                || !self.merge_shards(&table, a)?
            {
                break;
            }
            actions += 1;
        }
        Ok(actions)
    }

    /// Split shard `s` of `table` at a duplicate-run-aligned median fence.
    /// Returns false when the shard cannot be split (a single duplicate run
    /// dominates it, or it shrank below two keys). Must hold the topology
    /// lock.
    fn split_shard(&self, table: &StoreTable<K>, s: usize) -> Result<bool, BuildError> {
        let shard = Arc::clone(&table.shards[s]);
        let t0 = self.obs.phase_start();
        let _rebuild = shard.lock_rebuild();
        if shard.is_retired() {
            return Ok(false);
        }
        // Freeze: seal the chain; readers and writers proceed.
        let frozen = shard.seal();
        let merged = frozen.merged_view();
        let n = merged.len();
        if n < 2 {
            // Abandoned split: roll the seal back, or every retried split of
            // an unsplittable shard would strand one more sealed (and thus
            // uncompactable) run on the chain.
            shard.unseal();
            return Ok(false);
        }
        // Median fence, aligned down to the start of the median key's
        // duplicate run (or up to the next run when the median run begins
        // the shard) — a run of equal keys never spans two shards.
        let mid_key = merged[n / 2];
        let down = merged.partition_point(|&x| x < mid_key);
        let p = if down > 0 {
            down
        } else {
            merged.partition_point(|&x| x <= mid_key)
        };
        if p == 0 || p >= n {
            shard.unseal();
            return Ok(false); // one duplicate run dominates the shard
        }
        let split_key = merged[p];
        let halves: [Arc<[K]>; 2] = [merged[..p].into(), merged[p..].into()];
        drop(merged);
        // Build both child indexes off every lock but the topology/rebuild
        // guards; reads and writes to the shard continue meanwhile.
        let spec = shard.spec();
        let threads = shard.build_threads();
        let epoch = frozen.snapshot().epoch() + 1;
        let snaps = pool::run_tasks(halves.len(), |i| {
            let index = build_index(&spec, halves[i].clone(), threads);
            Arc::new(ShardSnapshot::new(halves[i].clone(), index, epoch))
        });
        // Commit: capture the residual chain, cut it at the fence, retire
        // the old shard and publish the new table — all under the shard's
        // write lock so no write can slip between residual and retirement.
        let _write = shard.lock_write();
        let residual = shard.residual_since(&frozen);
        let (left_delta, right_delta) = residual.partition(split_key);
        // Children start at the parent's commit-version floor so the
        // `applied_cv` stamp stays monotonic across the topology change.
        let parent_cv = shard.state().applied_cv();
        let child = |snap, delta: DeltaChain<K>| {
            Arc::new(StoreShard::from_parts_at(
                spec,
                shard.threshold(),
                threads,
                snap,
                delta,
                parent_cv,
            ))
        };
        let left = child(Arc::clone(&snaps[0]), left_delta);
        let right = child(Arc::clone(&snaps[1]), right_delta);
        let first_left_key = left.snapshot().keys()[0];
        let mut shards = table.shards.clone();
        shards.splice(s..=s, [left, right]);
        let mut fences = table.router.fences().to_vec();
        if fences.is_empty() {
            // A store born empty that grew: materialise the fence table.
            fences = vec![first_left_key, split_key];
        } else {
            if s == 0 {
                // fences[0] is nominal (never compared); keep it at or
                // below every key the leftmost shard holds.
                fences[0] = fences[0].min(first_left_key);
            }
            fences.insert(s + 1, split_key);
        }
        self.table.store(Arc::new(StoreTable {
            router: ShardRouter::from_fences(fences),
            shards,
        }));
        self.invalidate_pin_cache();
        shard.retire();
        self.splits.fetch_add(1, Ordering::Relaxed); // lint: ordering(Relaxed) monotonic stats counter; no synchronising role
        let ns = self.obs.phase_ns(t0);
        self.emit_event(TraceKind::Split, Some(s), ns);
        Ok(true)
    }

    /// Merge shards `s` and `s + 1` of `table` into one. Must hold the
    /// topology lock.
    fn merge_shards(&self, table: &StoreTable<K>, s: usize) -> Result<bool, BuildError> {
        let a = Arc::clone(&table.shards[s]);
        let b = Arc::clone(&table.shards[s + 1]);
        let t0 = self.obs.phase_start();
        let _rebuild_a = a.lock_rebuild();
        let _rebuild_b = b.lock_rebuild();
        if a.is_retired() || b.is_retired() {
            return Ok(false);
        }
        let frozen_a = a.seal();
        let frozen_b = b.seal();
        let keys: Arc<[K]> = [frozen_a.merged_view(), frozen_b.merged_view()]
            .concat()
            .into();
        debug_assert!(keys.is_sorted(), "adjacent shards must concatenate sorted");
        let spec = a.spec();
        let threads = a.build_threads();
        let epoch = frozen_a.snapshot().epoch().max(frozen_b.snapshot().epoch()) + 1;
        let index = build_index(&spec, keys.clone(), threads);
        let snapshot = Arc::new(ShardSnapshot::new(keys, index, epoch));
        // Commit under both write locks (taken in shard order).
        let _write_a = a.lock_write();
        let _write_b = b.lock_write();
        let residual = a
            .residual_since(&frozen_a)
            .concat(&b.residual_since(&frozen_b));
        let parent_cv = a.state().applied_cv().max(b.state().applied_cv());
        let child = Arc::new(StoreShard::from_parts_at(
            spec,
            a.threshold(),
            threads,
            snapshot,
            residual,
            parent_cv,
        ));
        let mut shards = table.shards.clone();
        shards.splice(s..=s + 1, [child]);
        let mut fences = table.router.fences().to_vec();
        if !fences.is_empty() {
            fences.remove(s + 1);
        }
        self.table.store(Arc::new(StoreTable {
            router: ShardRouter::from_fences(fences),
            shards,
        }));
        self.invalidate_pin_cache();
        a.retire();
        b.retire();
        self.merges.fetch_add(1, Ordering::Relaxed); // lint: ordering(Relaxed) monotonic stats counter; no synchronising role
        let ns = self.obs.phase_ns(t0);
        self.emit_event(TraceKind::Merge, Some(s), ns);
        Ok(true)
    }

    /// Assemble the full metrics report: the registry's own families, the
    /// maintenance counters, the topology gauges and per-shard access
    /// counters computed at scrape time from one pinned table, the
    /// process-wide kernel batch stats, and — for durable stores — the WAL
    /// and checkpoint families. Empty when [`StoreConfig::metrics`] is off.
    pub(crate) fn metrics_report(&self) -> MetricsReport {
        if !self.obs.enabled() {
            return MetricsReport {
                metrics: Vec::new(),
            };
        }
        let mut metrics = self.obs.own_metrics();
        metrics.push(obs::counter_metric(
            "store_rebuilds_total",
            self.rebuilds.load(Ordering::Relaxed), // lint: ordering(Relaxed) stats read; no synchronising role
        ));
        metrics.push(obs::counter_metric(
            "store_splits_total",
            self.splits.load(Ordering::Relaxed), // lint: ordering(Relaxed) stats read; no synchronising role
        ));
        metrics.push(obs::counter_metric(
            "store_merges_total",
            self.merges.load(Ordering::Relaxed), // lint: ordering(Relaxed) stats read; no synchronising role
        ));
        let (table, live) = self.pin_states();
        let mut keys = 0u64;
        let mut cold = 0u64;
        let mut delta_runs = 0u64;
        let mut delta_depth_max = 0u64;
        let mut delta_keys = 0u64;
        for shard in &table.shards {
            keys += shard.len() as u64;
            cold += u64::from(shard.snapshot().is_cold());
            let runs = shard.state().delta().unsealed_run_count() as u64;
            delta_runs += runs;
            delta_depth_max = delta_depth_max.max(runs);
            delta_keys += shard.buffered_ops() as u64;
        }
        metrics.push(obs::gauge_metric("store_shards", table.shards.len() as f64));
        metrics.push(obs::gauge_metric("store_keys", keys as f64));
        metrics.push(obs::gauge_metric("store_cold_shards", cold as f64));
        metrics.push(obs::gauge_metric("store_delta_runs", delta_runs as f64));
        metrics.push(obs::gauge_metric(
            "store_delta_depth_max",
            delta_depth_max as f64,
        ));
        metrics.push(obs::gauge_metric("store_delta_keys", delta_keys as f64));
        let vs = self.versions.stats(&live);
        metrics.push(obs::gauge_metric(
            "store_retained_versions",
            vs.retained as f64,
        ));
        metrics.push(obs::gauge_metric(
            "store_retained_bytes",
            vs.approx_bytes as f64,
        ));
        // One labelled member per shard; members of a family must stay
        // adjacent for the Prometheus exporter's shared family header.
        for (s, shard) in table.shards.iter().enumerate() {
            metrics.push(
                obs::gauge_metric("store_shard_accesses", shard.accesses() as f64)
                    .with_label("shard", s.to_string()),
            );
        }
        let kernel = shift_table::stats::snapshot();
        metrics.push(obs::counter_metric("kernel_blocks_total", kernel.blocks));
        metrics.push(obs::counter_metric("kernel_lanes_total", kernel.lanes));
        metrics.push(obs::counter_metric(
            "kernel_wide_lanes_total",
            kernel.wide_lanes,
        ));
        metrics.push(obs::counter_metric(
            "kernel_wave_levels_total",
            kernel.wave_levels,
        ));
        metrics.push(obs::gauge_metric(
            "kernel_wide_lane_fraction",
            kernel.wide_lane_fraction(),
        ));
        if let Some(p) = &self.persist {
            let d = p.stats();
            metrics.push(obs::counter_metric("wal_records_total", d.wal_ops));
            metrics.push(obs::counter_metric("wal_bytes_total", d.wal_bytes));
            metrics.push(obs::counter_metric("wal_syncs_total", d.wal_syncs));
            metrics.extend(p.obs_metrics());
            metrics.push(obs::counter_metric("checkpoints_total", d.checkpoints));
            metrics.push(obs::counter_metric(
                "checkpoint_shards_written_total",
                d.checkpoint_shards_written,
            ));
            metrics.push(obs::counter_metric(
                "checkpoint_shards_skipped_total",
                d.checkpoint_shards_skipped,
            ));
            metrics.push(obs::counter_metric(
                "checkpoint_bytes_written_total",
                d.snapshot_bytes,
            ));
            metrics.push(obs::counter_metric(
                "checkpoint_bytes_reused_total",
                d.snapshot_bytes_reused,
            ));
        }
        MetricsReport { metrics }
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
    core: Arc<StoreCore<K>>,
    /// Background maintenance thread, held only to be dropped (stopped and
    /// joined) with the store. `None` unless `background_maintenance` is
    /// configured.
    _worker: Option<MaintenanceWorker>,
    /// Background hydration thread; `Some` only when a cold-start open
    /// mounted at least one cold shard. Dropped with the store.
    hydrator: Option<HydrationWorker>,
    /// Where the open spent its time; `None` for in-memory stores.
    breakdown: Option<OpenBreakdown>,
    /// Live `/metrics` endpoint; `Some` only when
    /// [`StoreConfig::metrics_addr`] was set and the bind succeeded (a
    /// failed bind is parked in the maintenance-error ring instead of
    /// failing the open). Shut down when the store is dropped.
    metrics_server: Option<MetricsServer>,
}

impl<K: Key> ShardedStore<K> {
    /// Build an **in-memory** store over the sorted `keys` with the given
    /// configuration — nothing is persisted (see [`ShardedStore::open`] for
    /// the durable form). With [`StoreConfig::background_maintenance`] set
    /// this also spawns the [`MaintenanceWorker`] thread, shut down when the
    /// store is dropped.
    ///
    /// # Errors
    /// [`BuildError::UnsortedKeys`] if `keys` is not sorted,
    /// [`BuildError::TooManyKeys`] if a shard's chunk is longer than the
    /// spec's layer can cover.
    pub fn build(config: StoreConfig, keys: impl AsRef<[K]>) -> Result<Self, BuildError> {
        let (router, chunks) = plan_chunks(config.spec, keys.as_ref(), config.shards)?;
        // The plan validated the column and every chunk's length, so each
        // chunk takes the prevalidated shard constructor.
        let shards = pool::run_tasks(chunks.len(), |i| {
            built_shard(&config, config.spec, Arc::from(chunks[i]))
        });
        let table = StoreTable { router, shards };
        Ok(Self::assemble(config, table, None, None, None))
    }

    /// Open (or create) a **durable** store at directory `path`: load the
    /// newest checkpoint manifest, rebuild each shard by retraining the
    /// persisted spec over its snapshot keys, replay the WAL tail
    /// idempotently, and start a fresh WAL segment for new writes. A fresh
    /// directory starts an empty store. On-disk format, checkpointing and
    /// the recovery invariants are documented in [`crate::persist`].
    ///
    /// For a recovered store the **persisted** spec wins over
    /// `config.spec` (the shards must match what the snapshots were cut
    /// from); every other knob — thresholds, shard tuning,
    /// [`StoreConfig::durability`] — comes from `config`.
    ///
    /// # Errors
    /// [`StoreError::Io`] on filesystem failures, [`StoreError::Corrupt`]
    /// when a manifest or snapshot fails validation, [`StoreError::Spec`]
    /// when the persisted spec no longer parses.
    pub fn open(path: impl AsRef<Path>, config: StoreConfig) -> Result<Self, StoreError> {
        let dir = path.as_ref();
        std::fs::create_dir_all(dir)?;
        let recovered = recovery::recover::<K>(dir, &config)?;
        let mut config = config;
        config.spec = recovered.spec;
        let persistence = Persistence::create(
            dir.to_path_buf(),
            config.durability.unwrap_or_default(),
            recovered.next_version,
            recovered.manifest_seq,
            recovered.replayed as u64,
        )?;
        // Seed the incremental-checkpoint memo: a shard the WAL tail
        // replayed nothing into still matches its on-disk snapshot, and the
        // recovered shard's `applied_cv` restarts at 0 — so the first
        // post-reopen checkpoint can re-reference the file if no new write
        // lands on the shard meanwhile.
        let memo = CheckpointMemo {
            fences: recovered
                .router
                .fences()
                .iter()
                .map(|f| f.to_u64())
                .collect(),
            shards: recovered
                .memo_entries
                .iter()
                .map(|entry| MemoShard {
                    state_cv: 0,
                    entry: entry.clone(),
                })
                .collect(),
        };
        let breakdown = recovered.breakdown;
        let table = StoreTable::new(recovered.router, recovered.shards);
        Ok(Self::assemble(
            config,
            table,
            Some(persistence),
            Some(memo),
            Some(breakdown),
        ))
    }

    /// [`ShardedStore::open`] that seeds a **fresh** directory with the
    /// sorted `keys` and checkpoints them before the store is handed out
    /// (the seed never transits the WAL, so it must be snapshot-durable
    /// first). A directory that already holds store data — a manifest, or a
    /// WAL segment with at least one valid record — recovers normally and
    /// ignores `keys`.
    ///
    /// Seeding runs on the crate's **task pool**. The seed snapshot is a
    /// function of the key chunks alone (the model and the Shift-Table are
    /// never persisted), so writing a chunk's file and building its shard
    /// are independent tasks. The column is validated and cut into chunks
    /// once; the checkpoint *cut* is taken over the fresh directory; then
    /// `2 × shards` tasks — *write 0, build 0, write 1, build 1, …* — are
    /// handed, in that order, to one worker per hardware thread (the caller
    /// is one of them), each taking the next task the moment it is free.
    /// When the queue is drained the store is assembled and the checkpoint
    /// is *published* — manifest, then the memo, so an immediate
    /// [`ShardedStore::checkpoint`] skips every shard.
    /// [`ShardedStore::open_breakdown`] reports the time the tasks were
    /// busy, summed by kind: [`OpenBreakdown::seed_build`] over the build
    /// tasks, [`OpenBreakdown::seed_write`] over the write tasks; with two
    /// or more workers their total exceeds the time the call took.
    ///
    /// **Failure.** Unsorted keys and over-long chunks are rejected before
    /// anything is created in the directory. The first write task to hit
    /// an I/O error turns the write tasks behind it into no-ops, and the
    /// error is returned once the queue is drained. In every failing case
    /// — and after a crash anywhere before the manifest rename — the
    /// directory holds no manifest and no WAL record, so it still counts as
    /// unseeded: whatever snapshot files the attempt left are overwritten
    /// by the retry. A panicking task is re-raised, also with nothing
    /// published.
    ///
    /// # Errors
    /// As [`ShardedStore::open`], plus [`StoreError::Build`] if `keys` is
    /// not sorted or a shard's chunk is too long for the spec's layer.
    pub fn open_seeded(
        path: impl AsRef<Path>,
        config: StoreConfig,
        keys: impl AsRef<[K]>,
    ) -> Result<Self, StoreError> {
        let dir = path.as_ref();
        std::fs::create_dir_all(dir)?;
        if recovery::has_store_data(dir)? {
            return Self::open(dir, config);
        }
        let (router, chunks) = plan_chunks(config.spec, keys.as_ref(), config.shards)?;
        let persistence = Persistence::create(
            dir.to_path_buf(),
            config.durability.unwrap_or_default(),
            1,
            0,
            0,
        )?;
        // The cut of an empty log: nothing to pin, the chunks are the cut.
        // The WAL lock is released again before the first file is written.
        let (cv, seq, ()) = persistence.begin_checkpoint(|| ())?;
        let block_keys = persistence.durability().snapshot_block_keys;
        let files = ShardFileWriter::new(dir, seq, cv, block_keys);
        // Two tasks per shard, a shard's file ahead of its build: the file
        // is the task that can fail, and its fsync is a wait a build on the
        // same core can fill.
        let mut shards = Vec::with_capacity(chunks.len());
        let mut written = Vec::with_capacity(chunks.len());
        let mut breakdown = OpenBreakdown::default();
        for (busy, done) in pool::run_tasks(2 * chunks.len(), |task| {
            let chunk = chunks[task / 2];
            let timer = SampledTimer::armed_now();
            let done = if task % 2 == 0 {
                SeedTask::Written(files.write_shard_file(task / 2, || chunk))
            } else {
                SeedTask::Built(built_shard(&config, config.spec, Arc::from(chunk)))
            };
            (timer.elapsed(), done)
        }) {
            match done {
                SeedTask::Written(file) => {
                    breakdown.seed_write += busy;
                    written.push(file);
                }
                SeedTask::Built(shard) => {
                    breakdown.seed_build += busy;
                    shards.push(shard);
                }
            }
        }
        let (entries, snapshot_bytes) = ShardFileWriter::finish(written)?;
        let done = WrittenCheckpoint {
            cv,
            seq,
            fences: router.fences().iter().map(|f| f.to_u64()).collect(),
            state_cvs: shards.iter().map(|s| s.state().applied_cv()).collect(),
            tally: CheckpointTally {
                snapshot_bytes,
                shards_written: entries.len() as u64,
                ..CheckpointTally::default()
            },
            entries,
        };
        let store = Self::assemble(
            config,
            StoreTable { router, shards },
            Some(persistence),
            None,
            Some(breakdown),
        );
        {
            let _gate = store.core.persist.as_ref().map(|p| p.checkpoint_gate());
            store.core.publish_checkpoint(done)?;
        }
        Ok(store)
    }

    /// Wrap a table (built or recovered) into a live store, spawning the
    /// maintenance worker when configured and the hydrator when the open
    /// mounted cold shards.
    fn assemble(
        config: StoreConfig,
        table: StoreTable<K>,
        persist: Option<Persistence>,
        memo: Option<CheckpointMemo>,
        breakdown: Option<OpenBreakdown>,
    ) -> Self {
        let obs = Arc::new(StoreObs::new(&config));
        if config.metrics {
            // Kernel batch counters are process-wide; any metrics-enabled
            // store turns them on (and leaves them on — another store in
            // the process may be scraping them).
            shift_table::stats::set_enabled(true);
        }
        let core = Arc::new(StoreCore {
            table: EpochCell::new(Arc::new(table)),
            config,
            clock: CommitClock::new(),
            write_gate: RwLock::new(()),
            topology: Mutex::new(()),
            signal: Arc::new(WorkerSignal::default()),
            pin_cache: Mutex::new(None),
            versions: VersionRing::new(config.retain_versions),
            persist,
            ckpt_memo: Mutex::new(memo),
            rebuilds: AtomicU64::new(0),
            splits: AtomicU64::new(0),
            merges: AtomicU64::new(0),
            obs,
        });
        let metrics_server = config
            .metrics_addr
            .filter(|_| config.metrics)
            .and_then(|addr| {
                let scrape = Arc::clone(&core);
                let provider: MetricsProvider = Arc::new(move || scrape.metrics_report());
                match MetricsServer::start(addr, provider) {
                    Ok(server) => Some(server),
                    Err(e) => {
                        core.record_maintenance_error(StoreError::Io(e));
                        None
                    }
                }
            });
        let worker = config
            .background_maintenance
            .then(|| MaintenanceWorker::spawn(Arc::clone(&core)));
        let hydrator = (breakdown.is_some_and(|b| b.cold_shards > 0))
            .then(|| HydrationWorker::spawn(Arc::clone(&core)));
        Self {
            core,
            _worker: worker,
            hydrator,
            breakdown,
            metrics_server,
        }
    }

    /// The store configuration.
    pub fn config(&self) -> &StoreConfig {
        self.core.config()
    }

    /// Pin a **store-wide consistent snapshot**: one topology epoch plus
    /// every shard's state, captured at a single quiescent cut of the
    /// commit clock. Every read evaluated on the snapshot — scalar, batch,
    /// range, count, scan — is exact at [`StoreSnapshot::version`] and
    /// repeatable forever, no matter how many writers, rebuilds, splits or
    /// merges race the caller. On the happy path acquisition is a lock-free
    /// capture that never blocks writers; only when a continuous write
    /// storm outlasts the bounded retries does it briefly gate new writes
    /// out (for the microseconds one pin sweep takes) to guarantee
    /// progress. Holding a snapshot only pins memory.
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
            return Ok(StoreSnapshot::from_cut(cut, Some(self.core.hook())));
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
        let cut_at = |cv: u64| -> Result<PinnedCut<K>, StoreError> {
            if let Some(cut) = self.core.versions.get(cv) {
                return Ok(cut);
            }
            let live = self.core.pin_cut();
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
    /// one snapshot pin (O(1) between writes thanks to the cut cache) and
    /// never blocks writers; dropping an uncommitted transaction is free.
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

    /// The newest assigned commit version (diagnostics; a concurrent writer
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

    /// Hydrate every cold shard **now**, in parallel scoped threads,
    /// instead of waiting for the background hydrator (safe to race it:
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

    /// Rebuild every *dirty* shard (chain at or over the threshold), in
    /// parallel scoped threads, and age out retained versions past the
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
