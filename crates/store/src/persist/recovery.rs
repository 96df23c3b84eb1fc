//! Crash recovery: newest valid manifest → rebuilt shards → WAL-tail replay.
//!
//! Recovery is a pure function of the store directory and the
//! [`StoreConfig`]: it never writes (garbage collection is a checkpoint
//! duty), so a failed open leaves the directory exactly as the crash did.
//!
//! The sequence, matching the invariants documented in [`crate::persist`]:
//!
//! 1. Load the newest manifest that validates end-to-end — including its
//!    snapshot files' checksums. A newer manifest that fails validation is
//!    the debris of an interrupted checkpoint and is skipped; if *every*
//!    manifest fails, recovery errors out rather than silently dropping a
//!    checkpoint. No manifest at all means a store that never checkpointed:
//!    recovery starts from one empty shard and replays the whole WAL.
//! 2. Load each shard's snapshot. Eagerly this decodes the key column (the
//!    on-disk format stores no model — it is retrained below). With
//!    [`StoreConfig::cold_start`] set, a v2 snapshot is instead **mounted**
//!    ([`crate::persist::v2::ColdBase`]): footer + index parse plus one
//!    checksum sweep, no decode, no training — the shard will serve reads
//!    off the block index until the background hydrator retrains it. v1
//!    files have no block index and always load eagerly.
//! 3. Replay every WAL segment in version order through the recovered
//!    fence router — editing hot key columns directly, and buffering into
//!    a cold shard's delta chain (write paths never touch base keys, so a
//!    cold base absorbs its tail without decoding). A record at or below
//!    the routed shard's recovered `applied` floor is skipped — replay is
//!    idempotent, so both stale segments and records already folded into a
//!    re-referenced incremental snapshot cost time, never correctness. A
//!    torn tail ends the log.
//! 4. Build each hot shard once over its final column, retraining the
//!    persisted spec on the crate's task pool; a cold shard is assembled
//!    in O(1) from its mounted base plus replayed chain.
//!
//! Recovery also reports *where the time went* ([`OpenBreakdown`]) and
//! which manifest entries are safe to re-reference at the next incremental
//! checkpoint (shards whose WAL tail replayed nothing).

use crate::config::StoreConfig;
use crate::delta::DeltaChain;
use crate::error::StoreError;
use crate::persist::manifest::{self, ManifestShard};
use crate::persist::wal::{self, WalEntry, WalOp};
use crate::persist::{snapshot, v2};
use crate::pool;
use crate::router::ShardRouter;
use crate::shard::{ShardSnapshot, StoreShard};
use crate::sharded::built_shard;
use shift_table::spec::IndexSpec;
use sosd_data::key::Key;
use std::io::Read;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Where a [`crate::ShardedStore::open`] or
/// [`crate::ShardedStore::open_seeded`] spent its time, plus how much work
/// was deferred to background hydration.
///
/// A **recovering** open fills the four recovery phases, all measured on
/// the opening thread: `retrain` is the *foreground* model-training time —
/// near zero for a cold start, where training happens after open returns.
/// A **seeding** open (a fresh directory) fills the two `seed_*` fields
/// instead: the time its pool tasks were busy, summed over the build tasks
/// and over the write tasks. The tasks run side by side on as many workers
/// as the machine has hardware threads, so `seed_build + seed_write` is
/// more than the call took wherever two ran at once. Phases of the other
/// kind are zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpenBreakdown {
    /// Parsing and validating the manifest (including its spec string).
    pub manifest: Duration,
    /// Reading snapshot files: eager decode, or cold mount + checksum sweep.
    pub mount: Duration,
    /// Scanning and applying the WAL tail.
    pub replay: Duration,
    /// Foreground model retraining (the pooled shard builds).
    pub retrain: Duration,
    /// Shards published cold (0 on an eager open): the hydrator's backlog.
    pub cold_shards: usize,
    /// Seeding, summed over the build tasks (one per shard): copying the
    /// chunk into its shard, training the model, building the Shift-Table.
    pub seed_build: Duration,
    /// Seeding, summed over the write tasks (one per shard): encoding,
    /// checksumming, writing and fsyncing the seed snapshot file.
    pub seed_write: Duration,
}

/// Everything `ShardedStore::open` needs to assemble a recovered store.
pub(crate) struct Recovered<K: Key> {
    /// The fence router of the recovered topology.
    pub router: ShardRouter<K>,
    /// The recovered shards, in router order (cold ones still mounted).
    pub shards: Vec<Arc<StoreShard<K>>>,
    /// The spec the shards were rebuilt from (the persisted one for a
    /// checkpointed store, the config's for a fresh directory).
    pub spec: IndexSpec,
    /// The version the next WAL record must carry.
    pub next_version: u64,
    /// The manifest sequence recovery loaded (0 when none existed).
    pub manifest_seq: u64,
    /// Logical operations applied during replay — each op of a batch
    /// record counts (diagnostics / tests).
    pub replayed: usize,
    /// Per shard: the loaded manifest entry, kept only when the WAL tail
    /// replayed *nothing* into the shard — the next incremental checkpoint
    /// may then re-reference the entry's file verbatim. `None` forces a
    /// rewrite (fresh directory, or a replayed-into shard).
    pub memo_entries: Vec<Option<ManifestShard>>,
    /// Where the open time went.
    pub breakdown: OpenBreakdown,
}

/// True when `dir` already holds store data — a manifest, or a WAL segment
/// with at least one *valid record*. The guard `open_seeded` uses to decide
/// between seeding and recovering: an empty (or wholly torn) leftover
/// segment does not count, so a seeding that crashed before its first
/// checkpoint can be retried instead of silently recovering an empty store.
pub(crate) fn has_store_data(dir: &Path) -> Result<bool, StoreError> {
    if !manifest::list_manifests(dir)?.is_empty() {
        return Ok(true);
    }
    for (_, path) in wal::list_segments(dir)? {
        if !wal::read_segment(&path)?.records.is_empty() {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Is this load failure the debris of an interrupted checkpoint — a torn
/// or corrupt file, a spec that never parsed, a snapshot the crash never
/// wrote — rather than a real environmental failure? Only debris may fall
/// back to an older manifest; an EIO or permission error must abort the
/// open, or a transient fault could silently resurrect a stale checkpoint
/// whose covering WAL was already truncated.
fn is_checkpoint_debris(e: &StoreError) -> bool {
    match e {
        StoreError::Corrupt { .. } | StoreError::Spec { .. } => true,
        StoreError::Io(io) => io.kind() == std::io::ErrorKind::NotFound,
        _ => false,
    }
}

/// One shard's recovered backing: a decoded (hot) key column that replay
/// edits in place, or a mounted (cold) v2 base whose replayed tail buffers
/// into a delta chain.
enum ShardBacking<K: Key> {
    Hot(Vec<K>),
    Cold {
        base: Arc<v2::ColdBase<K>>,
        delta: DeltaChain<K>,
    },
}

/// A checkpoint loaded from one manifest: router, per-shard backings (not
/// yet built — replay edits them first, so every hot shard trains its
/// model exactly once) and the per-shard replay floors.
struct LoadedCheckpoint<K: Key> {
    router: ShardRouter<K>,
    backings: Vec<ShardBacking<K>>,
    applied: Vec<u64>,
    entries: Vec<Option<ManifestShard>>,
    spec: IndexSpec,
    version: u64,
    seq: u64,
    manifest_time: Duration,
    mount_time: Duration,
}

/// Try to materialise the checkpoint a manifest describes, validating
/// every snapshot it references. With `cold` set, v2 snapshots are mounted
/// instead of decoded.
fn load_checkpoint<K: Key>(
    dir: &Path,
    path: &Path,
    cold: bool,
) -> Result<LoadedCheckpoint<K>, StoreError> {
    // lint: allow(timing) cold-start manifest load — timed once per reopen
    let manifest_start = Instant::now();
    let m = manifest::load_manifest(path)?;
    let spec = IndexSpec::parse(&m.spec).map_err(|e| StoreError::Spec {
        text: m.spec.clone(),
        reason: e.to_string(),
    })?;
    let manifest_time = manifest_start.elapsed();

    // lint: allow(timing) cold-start snapshot mount — timed once per reopen
    let mount_start = Instant::now();
    let mut backings = Vec::with_capacity(m.shards.len());
    let mut applied = Vec::with_capacity(m.shards.len());
    for entry in &m.shards {
        let snap_path = dir.join(&entry.snapshot);
        let mut bytes = Vec::new();
        std::fs::File::open(&snap_path)?.read_to_end(&mut bytes)?;
        let (shard_applied, backing) = if bytes.starts_with(&v2::MAGIC) {
            let base = v2::ColdBase::<K>::from_bytes(&snap_path, bytes)?;
            if cold {
                (
                    base.applied(),
                    ShardBacking::Cold {
                        base: Arc::new(base),
                        delta: DeltaChain::new(),
                    },
                )
            } else {
                (base.applied(), ShardBacking::Hot(base.decode_all()))
            }
        } else {
            let (a, keys) = snapshot::read_snapshot_bytes::<K>(&snap_path, bytes)?;
            (a, ShardBacking::Hot(keys))
        };
        if shard_applied != entry.applied {
            return Err(StoreError::Corrupt {
                path: snap_path,
                reason: format!(
                    "snapshot applied version {shard_applied} disagrees with manifest {}",
                    entry.applied
                ),
            });
        }
        backings.push(backing);
        applied.push(entry.applied);
    }
    if backings.is_empty() {
        return Err(StoreError::Corrupt {
            path: path.to_path_buf(),
            reason: "manifest lists no shards".into(),
        });
    }
    let fences: Vec<K> = m
        .fences
        .iter()
        .map(|&f| K::from_u64_saturating(f))
        .collect();
    Ok(LoadedCheckpoint {
        router: ShardRouter::from_fences(fences),
        backings,
        applied,
        entries: m.shards.into_iter().map(Some).collect(),
        spec,
        version: m.version,
        seq: m.seq,
        manifest_time,
        mount_time: mount_start.elapsed(),
    })
}

/// Recover a store from `dir` (see the module docs for the sequence).
pub(crate) fn recover<K: Key>(
    dir: &Path,
    config: &StoreConfig,
) -> Result<Recovered<K>, StoreError> {
    // 1. Newest valid manifest wins; all-corrupt is an error, none is fresh.
    let manifests = manifest::list_manifests(dir)?;
    let mut checkpoint: Option<LoadedCheckpoint<K>> = None;
    let mut first_failure: Option<StoreError> = None;
    for (_, path) in &manifests {
        match load_checkpoint(dir, path, config.cold_start) {
            Ok(cp) => {
                checkpoint = Some(cp);
                break;
            }
            Err(e) if is_checkpoint_debris(&e) => first_failure = first_failure.or(Some(e)),
            Err(e) => return Err(e),
        }
    }
    let mut cp = match (checkpoint, first_failure) {
        (Some(cp), _) => cp,
        (None, Some(e)) => return Err(e),
        (None, None) => LoadedCheckpoint {
            // Fresh directory (or WAL-only): one empty shard, config spec.
            router: ShardRouter::from_fences(Vec::new()),
            backings: vec![ShardBacking::Hot(Vec::new())],
            applied: vec![0],
            entries: vec![None],
            spec: config.spec,
            version: 0,
            seq: 0,
            manifest_time: Duration::ZERO,
            mount_time: Duration::ZERO,
        },
    };

    // 2./3. Replay the WAL tail in version order, idempotently — applied
    // straight into hot key columns (store delete semantics: one occurrence
    // removed when present, else a no-op) and buffered into cold shards'
    // delta chains, so the expensive model training below happens at most
    // once per shard, replayed-into or not. A batch entry replays all of
    // its operations under its single version — and a torn batch frame was
    // already dropped whole by the segment scan, so a batch is never
    // half-recovered. A replayed-into shard loses its re-reference memo:
    // its merged view moved past the snapshot on disk.
    // lint: allow(timing) WAL replay is cold; timing the whole pass is the point
    let replay_start = Instant::now();
    let mut next_version = cp.version + 1;
    let mut replayed = 0usize;
    let apply_one = |cp: &mut LoadedCheckpoint<K>, version: u64, op: WalOp, key: u64| {
        let key = K::from_u64_saturating(key);
        let s = cp.router.shard_of(key);
        if version <= cp.applied[s] {
            return 0usize; // already inside the snapshot: replay is a no-op
        }
        let applied = match &mut cp.backings[s] {
            ShardBacking::Hot(column) => {
                let pos = column.partition_point(|&x| x < key);
                match op {
                    WalOp::Insert => {
                        column.insert(pos, key);
                        true
                    }
                    WalOp::Delete => {
                        if column.get(pos) == Some(&key) {
                            column.remove(pos);
                            true
                        } else {
                            false
                        }
                    }
                }
            }
            ShardBacking::Cold { base, delta } => {
                let net = match op {
                    WalOp::Insert => 1,
                    // A delete applies only when the merged view still
                    // holds an occurrence — same semantics as the write
                    // path's count probe.
                    WalOp::Delete if base.count_of(key) as i64 + delta.net_of(key) > 0 => -1,
                    WalOp::Delete => 0,
                };
                if net != 0 {
                    let mut next = delta.with_op(key, net, config.max_run_len);
                    if next.unsealed_run_count() >= config.compact_runs {
                        next = next.compact();
                    }
                    *delta = next;
                }
                net != 0
            }
        };
        if applied {
            // The on-disk snapshot no longer matches this shard's merged
            // view: the next checkpoint must rewrite it.
            cp.entries[s] = None;
        }
        1
    };
    for (_, segment) in wal::list_segments(dir)? {
        for entry in wal::read_segment(&segment)?.records {
            next_version = next_version.max(entry.version() + 1);
            match entry {
                WalEntry::Op(r) => replayed += apply_one(&mut cp, r.version, r.op, r.key),
                WalEntry::Batch(b) => {
                    for &(op, key) in &b.ops {
                        replayed += apply_one(&mut cp, b.version, op, key);
                    }
                }
            }
        }
    }
    let replay_time = replay_start.elapsed();

    // 4. Assemble the shards, one pool task each. A cold backing is O(1) —
    // mounted base plus replayed chain, no training. A hot column retrains
    // its model, which dominates reopen latency for large stores; the
    // columns are independent by construction, and the pool caps the
    // concurrency at the machine's parallelism (a long-lived store's split
    // cascade can leave hundreds of shards). Each task takes its backing
    // out of its slot, so a column is freed as soon as its shard is built.
    // lint: allow(timing) reopen retraining is cold; timed once per reopen
    let retrain_start = Instant::now();
    let spec = cp.spec;
    let cold = |b: &&ShardBacking<K>| matches!(b, ShardBacking::Cold { .. });
    let cold_shards = cp.backings.iter().filter(cold).count();
    let backings: Vec<Mutex<Option<ShardBacking<K>>>> = cp
        .backings
        .into_iter()
        .map(|backing| Mutex::new(Some(backing)))
        .collect();
    let shards = pool::run_tasks(backings.len(), |i| {
        // lint: allow(panic) each slot is locked once, by the one task the pool hands index `i` to
        let backing = backings[i].lock().expect("backing slot poisoned").take();
        // lint: allow(panic) as above: the slot was filled and nothing else takes it
        match backing.expect("every backing is assembled once") {
            ShardBacking::Hot(column) => built_shard(config, spec, Arc::from(column)),
            ShardBacking::Cold { base, delta } => Arc::new(
                StoreShard::from_parts_at(
                    spec,
                    config.delta_threshold,
                    config.build_threads,
                    Arc::new(ShardSnapshot::new_cold(base, 0)),
                    delta,
                    0,
                )
                .with_chain_tuning(config.max_run_len, config.compact_runs),
            ),
        }
    });

    Ok(Recovered {
        router: cp.router,
        shards,
        spec,
        next_version: next_version.max(1),
        manifest_seq: cp.seq,
        replayed,
        memo_entries: cp.entries,
        breakdown: OpenBreakdown {
            manifest: cp.manifest_time,
            mount: cp.mount_time,
            replay: replay_time,
            retrain: retrain_start.elapsed(),
            cold_shards,
            ..OpenBreakdown::default()
        },
    })
}
