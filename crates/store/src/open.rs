//! Bringing a store up: the in-memory build, the recovering open, the
//! seeding of a fresh directory on the task pool, and the assembly of a
//! table into a live store with its background threads.

use crate::checkpoint::{CheckpointMemo, MemoShard, WrittenCheckpoint};
use crate::config::StoreConfig;
use crate::epoch::{CommitClock, EpochCell};
use crate::error::StoreError;
use crate::obs::StoreObs;
use crate::persist::recovery::{self, OpenBreakdown};
use crate::persist::{CheckpointTally, Persistence, ShardFileWriter, WrittenShard};
use crate::pool;
use crate::router::ShardRouter;
use crate::shard::StoreShard;
use crate::sharded::{ShardedStore, StoreTable};
use crate::snapshot::{PinnedCut, SnapshotHook};
use crate::store_core::StoreCore;
use crate::versions::VersionRing;
use crate::worker::{HydrationWorker, MaintenanceWorker, WorkerSignal};
use shift_obs::{MetricsProvider, MetricsServer, SampledTimer};
use shift_table::error::BuildError;
use shift_table::spec::IndexSpec;
use sosd_data::key::Key;
use std::path::Path;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};

/// The shortest range of keys worth a pool task of its own in
/// [`first_unsorted`]: scanning fewer takes less time than waking a worker.
const SCAN_MIN_KEYS: usize = 1 << 16;

/// The position of the first key smaller than its predecessor, if any: one
/// range of the column per pool worker, each scanned with the pair across
/// the seam on its right.
fn first_unsorted<K: Key>(keys: &[K]) -> Option<usize> {
    let ranges = pool::worker_count(keys.len().div_ceil(SCAN_MIN_KEYS)).max(1);
    let per_range = keys.len().div_ceil(ranges);
    let firsts = pool::run_tasks(ranges, |range| {
        let start = range * per_range;
        let end = keys.len().min(start + per_range + 1);
        let first = keys[start.min(end)..end]
            .windows(2)
            .position(|w| w[0] > w[1]);
        first.map(|pair| start + pair + 1)
    });
    // Ranges come back in column order: the first to object holds the
    // first offender.
    firsts.into_iter().flatten().next()
}

/// The chunk plan of a sharded build or seeding: `keys` cut into
/// duplicate-run-aligned chunks, each checked against the capacity of
/// `spec`'s layer (a comparison per chunk, so it goes first), then checked
/// sorted once, on the task pool. Everything that can fail in a sharded
/// build fails here — before any shard is built and, for a seeding, before
/// any file is written — so the builds over the returned chunks are
/// infallible.
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
    if let Some(position) = first_unsorted(keys) {
        return Err(BuildError::UnsortedKeys { position });
    }
    Ok((router, chunks))
}

/// Build one hot shard over validated `keys` (a planned chunk, a recovered
/// column) with the store's rebuild threshold.
pub(crate) fn built_shard<K: Key>(
    config: &StoreConfig,
    spec: IndexSpec,
    keys: Arc<[K]>,
) -> Arc<StoreShard<K>> {
    Arc::new(StoreShard::build_prevalidated(
        spec,
        keys,
        config.delta_threshold,
    ))
}

/// What one task of a seeding produced: the snapshot file of a chunk, or
/// the shard built over it.
enum SeedTask<K: Key> {
    Written(WrittenShard),
    Built(Arc<StoreShard<K>>),
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
        let table = Arc::new(table);
        // Nothing else holds the table yet: its states are the cut at 0.
        let published = PinnedCut::new(Arc::clone(&table), table.states(), 0, 0);
        let core = Arc::new(StoreCore {
            table: EpochCell::new(table),
            config,
            clock: CommitClock::new(),
            window: Mutex::new(()),
            published: EpochCell::new(Arc::new(published)),
            swaps: AtomicU64::new(0),
            topology: Mutex::new(()),
            hook: Arc::new(SnapshotHook {
                obs: Arc::clone(&obs),
                signal: Arc::new(WorkerSignal::default()),
            }),
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_pooled_sortedness_scan_reports_the_first_offender() {
        // Long enough for a range per worker on any box, with offenders at
        // the column's ends, around every possible seam and in pairs.
        let n = if cfg!(miri) {
            1_000
        } else {
            4 * SCAN_MIN_KEYS + 3
        };
        let sorted: Vec<u64> = (10..10 + n as u64).collect();
        assert_eq!(first_unsorted(&sorted), None);
        assert_eq!(first_unsorted::<u64>(&[]), None);
        assert_eq!(first_unsorted(&[7u64]), None);
        assert_eq!(first_unsorted(&[7u64, 7]), None);
        assert_eq!(first_unsorted(&[7u64, 6]), Some(1));
        let workers = pool::worker_count(usize::MAX);
        let mut spots = vec![1, 2, n / 3, n - 2, n - 1];
        for ranges in 1..=workers.max(4) {
            let seam = n.div_ceil(ranges);
            spots.extend([seam - 1, seam, seam + 1].into_iter().filter(|&s| s < n));
        }
        for &spot in &spots {
            let mut keys = sorted.clone();
            keys[spot] = keys[spot - 1] - 1;
            assert_eq!(first_unsorted(&keys), Some(spot), "one offender");
            // A later offender in any range changes nothing.
            for &later in spots.iter().filter(|&&later| later > spot + 1) {
                let mut both = keys.clone();
                both[later] = both[later - 1] - 1;
                assert_eq!(first_unsorted(&both), Some(spot), "{spot} then {later}");
            }
        }
        // The public builders report it as they always did.
        let mut keys = sorted;
        keys[n / 2] = 0;
        let config = StoreConfig::new(IndexSpec::parse("im+r1").unwrap()).shards(3);
        assert_eq!(
            ShardedStore::build(config, &keys).err(),
            Some(BuildError::UnsortedKeys { position: n / 2 })
        );
    }
}
