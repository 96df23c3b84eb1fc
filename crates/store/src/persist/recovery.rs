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
//!    off the block index until the background hydrator retrains it. A
//!    file that is not a v2 snapshot is [`StoreError::Corrupt`] either way.
//! 3. Scan every WAL segment once, in version order, routing each
//!    operation through the recovered fence router into its shard's
//!    **bucket**. An operation at or below the routed shard's recovered
//!    `applied` floor is dropped here — replay is idempotent, so both stale
//!    segments and records already folded into a re-referenced incremental
//!    snapshot cost a scan, never correctness. A torn tail ends the log,
//!    and a torn batch frame is dropped whole by the segment scan.
//! 4. Assemble the shards, one pool task each. The task first replays its
//!    bucket as a merge (`merge.rs`): `fold_ops` turns the ordered
//!    operations into one sorted net run with the write path's delete
//!    semantics, which is then `splice`d into a hot key column in one
//!    linear pass, or becomes the single unsealed delta run of a cold shard
//!    (write paths never touch base keys, so a cold base absorbs its tail
//!    without decoding). Then a hot shard is built once over its final
//!    column, retraining the persisted spec; a cold shard is assembled in
//!    O(1) from its mounted base plus that run.
//!
//! Recovery also reports *where the time went* ([`OpenBreakdown`]) and
//! which manifest entries are safe to re-reference at the next incremental
//! checkpoint (shards whose WAL tail replayed nothing).

use crate::batch::BatchOp;
use crate::config::StoreConfig;
use crate::delta::DeltaChain;
use crate::error::StoreError;
use crate::merge;
use crate::open::built_shard;
use crate::persist::manifest::{self, ManifestShard};
use crate::persist::v2;
use crate::persist::wal;
use crate::pool;
use crate::router::ShardRouter;
use crate::shard::{ShardSnapshot, StoreShard};
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
/// A **recovering** open fills the four recovery phases: `retrain` is the
/// *foreground* model-training time — near zero for a cold start, where
/// training happens after open returns.
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
    /// Replaying the WAL tail: the time the opening thread took to scan and
    /// bucket it, plus the time the pool tasks were busy folding and
    /// splicing their buckets, summed over the tasks.
    pub replay: Duration,
    /// Foreground model retraining: the time the pooled shard tasks took on
    /// the opening thread's clock, less the replay time inside them (which
    /// `replay` already counts) — so `replay + retrain` is what the two
    /// steps took together, and where tasks ran side by side the split
    /// between them leans towards `replay`, whose task time is summed.
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
/// splices its tail into, or a mounted (cold) v2 base whose replayed tail
/// becomes its delta chain.
enum ShardBacking<K: Key> {
    Hot(Vec<K>),
    Cold(Arc<v2::ColdBase<K>>),
}

/// A checkpoint loaded from one manifest: router, per-shard backings (not
/// yet built — replay moves them first, so every hot shard trains its
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
/// every snapshot it references. With `cold` set, snapshots are mounted
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
        let base = v2::ColdBase::<K>::from_bytes(&snap_path, bytes)?;
        let shard_applied = base.applied();
        let backing = if cold {
            ShardBacking::Cold(Arc::new(base))
        } else {
            ShardBacking::Hot(base.decode_all())
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

/// One shard's share of the WAL tail: the operations past its `applied`
/// floor, in log (= version) order.
type Bucket<K> = Vec<BatchOp<K>>;

/// Step 1 of recovery: the newest manifest that validates wins; all
/// corrupt is an error; none is a fresh directory (or a WAL-only one) —
/// one empty shard under the config's spec.
fn load_newest_checkpoint<K: Key>(
    dir: &Path,
    config: &StoreConfig,
) -> Result<LoadedCheckpoint<K>, StoreError> {
    let mut first_failure: Option<StoreError> = None;
    for (_, path) in &manifest::list_manifests(dir)? {
        match load_checkpoint(dir, path, config.cold_start) {
            Ok(cp) => return Ok(cp),
            Err(e) if is_checkpoint_debris(&e) => first_failure = first_failure.or(Some(e)),
            Err(e) => return Err(e),
        }
    }
    match first_failure {
        Some(e) => Err(e),
        None => Ok(LoadedCheckpoint {
            router: ShardRouter::from_fences(Vec::new()),
            backings: vec![ShardBacking::Hot(Vec::new())],
            applied: vec![0],
            entries: vec![None],
            spec: config.spec,
            version: 0,
            seq: 0,
            manifest_time: Duration::ZERO,
            mount_time: Duration::ZERO,
        }),
    }
}

/// Step 3 of recovery: scan the WAL segments of `dir` once and bucket the
/// operations past each shard's `applied` floor by shard, in log (=
/// version) order. A batch entry contributes all of its operations under
/// its single version. Returns the buckets and the version the next WAL
/// record must carry.
fn bucket_tail<K: Key>(
    dir: &Path,
    cp: &LoadedCheckpoint<K>,
) -> Result<(Vec<Bucket<K>>, u64), StoreError> {
    let mut next_version = cp.version + 1;
    let mut buckets: Vec<Bucket<K>> = vec![Vec::new(); cp.backings.len()];
    for (_, segment) in wal::list_segments(dir)? {
        for entry in wal::read_segment(&segment)?.records {
            next_version = next_version.max(entry.version + 1);
            for op in entry.ops {
                let key = K::from_u64_saturating(op.key());
                let s = cp.router.shard_of(key);
                if entry.version > cp.applied[s] {
                    buckets[s].push(match op {
                        BatchOp::Insert(_) => BatchOp::Insert(key),
                        BatchOp::Delete(_) => BatchOp::Delete(key),
                    });
                }
            }
        }
    }
    Ok((buckets, next_version))
}

/// One pool task of step 4. Replay the shard's bucket as a merge — fold
/// the ordered operations to a net run (store delete semantics: one
/// occurrence removed when present, else a no-op, as the write path's count
/// probe), then splice it into a hot column or make it a cold base's delta
/// chain, carrying the applied-op count — and build the shard over the
/// result. Returns the time the replay took, how many operations took
/// effect, and the shard.
fn assemble_shard<K: Key>(
    config: &StoreConfig,
    spec: IndexSpec,
    backing: ShardBacking<K>,
    bucket: Bucket<K>,
) -> (Duration, usize, Arc<StoreShard<K>>) {
    // lint: allow(timing) per-shard replay is cold; timed once per shard per reopen
    let replay_start = Instant::now();
    match backing {
        ShardBacking::Hot(column) => {
            let (nets, applied) = merge::fold_ops(bucket, |k| merge::count_in(&column, k));
            let column = match nets.is_empty() {
                true => column,
                false => merge::splice(&column, &nets),
            };
            let replay_busy = replay_start.elapsed();
            let shard = built_shard(config, spec, Arc::from(column));
            (replay_busy, applied, shard)
        }
        ShardBacking::Cold(base) => {
            let (nets, applied) = merge::fold_ops(bucket, |k| base.count_of(k));
            let delta = DeltaChain::from_nets(nets, applied);
            let replay_busy = replay_start.elapsed();
            let snapshot = Arc::new(ShardSnapshot::new_cold(base, 0));
            let shard = StoreShard::from_parts_at(spec, config.delta_threshold, snapshot, delta, 0);
            (replay_busy, applied, Arc::new(shard))
        }
    }
}

/// Recover a store from `dir` (see the module docs for the sequence).
pub(crate) fn recover<K: Key>(
    dir: &Path,
    config: &StoreConfig,
) -> Result<Recovered<K>, StoreError> {
    // 1./2. Newest valid manifest, its snapshots loaded or mounted.
    let mut cp = load_newest_checkpoint::<K>(dir, config)?;

    // 3. One scan of the WAL tail, bucketed per shard.
    // lint: allow(timing) WAL replay is cold; timing the whole scan is the point
    let scan_start = Instant::now();
    let (buckets, next_version) = bucket_tail(dir, &cp)?;
    let replayed = buckets.iter().map(Vec::len).sum();
    let scan_time = scan_start.elapsed();

    // 4. Assemble the shards, one pool task each: replay the bucket into
    // the backing, then build. A cold shard is O(tail) — mounted base plus
    // replayed chain, no training. A hot column retrains its model, which
    // dominates reopen latency for large stores; the columns are
    // independent by construction, and the pool caps the concurrency at
    // the machine's parallelism (a long-lived store's split cascade can
    // leave hundreds of shards). Each task takes its backing out of its
    // slot, so a column is freed as soon as its shard is built.
    // lint: allow(timing) reopen retraining is cold; timed once per reopen
    let pool_start = Instant::now();
    let spec = cp.spec;
    let cold = |b: &&ShardBacking<K>| matches!(b, ShardBacking::Cold(_));
    let cold_shards = cp.backings.iter().filter(cold).count();
    let slots: Vec<_> = cp
        .backings
        .into_iter()
        .zip(buckets)
        .map(|slot| Mutex::new(Some(slot)))
        .collect();
    let built = pool::run_tasks(slots.len(), |i| {
        // lint: allow(panic) each slot is locked once, by the one task the pool hands index `i` to
        let slot = slots[i].lock().expect("backing slot poisoned").take();
        // lint: allow(panic) as above: the slot was filled and nothing else takes it
        let (backing, bucket) = slot.expect("every backing is assembled once");
        assemble_shard(config, spec, backing, bucket)
    });
    let pool_time = pool_start.elapsed();

    let mut replay_busy = Duration::ZERO;
    let mut shards = Vec::with_capacity(built.len());
    for (i, (busy, applied, shard)) in built.into_iter().enumerate() {
        replay_busy += busy;
        if applied > 0 {
            // The on-disk snapshot no longer matches this shard's merged
            // view: the next checkpoint must rewrite it.
            cp.entries[i] = None;
        }
        shards.push(shard);
    }

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
            replay: scan_time + replay_busy,
            retrain: pool_time.saturating_sub(replay_busy),
            cold_shards,
            ..OpenBreakdown::default()
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SyncPolicy;
    use crate::delta::{COMPACT_RUNS, MAX_RUN_LEN};
    use crate::persist::manifest::Manifest;
    use crate::persist::wal::{Frame, WalWriter};
    use sosd_data::prelude::SplitMix64;
    use std::path::PathBuf;
    use BatchOp::{Delete, Insert};

    /// What the reference replay leaves behind, shard by shard: the edited
    /// backing, and the chain a cold one grew.
    struct Reference {
        backings: Vec<ShardBacking<u64>>,
        chains: Vec<DeltaChain<u64>>,
        entries: Vec<Option<ManifestShard>>,
        replayed: usize,
        next_version: u64,
    }

    /// The per-op replay this module shipped before replay became a merge,
    /// kept verbatim as the reference: every WAL operation edits its hot
    /// column with `Vec::insert`/`remove`, or goes through the write path's
    /// `with_op` + `compact` on a cold shard's chain.
    fn recover_reference(dir: &Path, config: &StoreConfig) -> Reference {
        let mut cp = load_newest_checkpoint::<u64>(dir, config).unwrap();
        let mut chains = vec![DeltaChain::new(); cp.backings.len()];
        let mut next_version = cp.version + 1;
        let mut replayed = 0usize;
        let mut apply_one = |cp: &mut LoadedCheckpoint<u64>, version: u64, op: BatchOp<u64>| {
            let key = op.key();
            let s = cp.router.shard_of(key);
            if version <= cp.applied[s] {
                return 0usize; // already inside the snapshot: replay is a no-op
            }
            let applied = match &mut cp.backings[s] {
                ShardBacking::Hot(column) => {
                    let pos = column.partition_point(|&x| x < key);
                    match op {
                        Insert(_) => {
                            column.insert(pos, key);
                            true
                        }
                        Delete(_) => {
                            if column.get(pos) == Some(&key) {
                                column.remove(pos);
                                true
                            } else {
                                false
                            }
                        }
                    }
                }
                ShardBacking::Cold(base) => {
                    let delta = &mut chains[s];
                    let net = match op {
                        Insert(_) => 1,
                        Delete(_) if base.count_of(key) as i64 + delta.net_of(key) > 0 => -1,
                        Delete(_) => 0,
                    };
                    if net != 0 {
                        let mut next = delta.with_op(key, net, MAX_RUN_LEN);
                        if next.unsealed_run_count() >= COMPACT_RUNS {
                            next = next.compact();
                        }
                        *delta = next;
                    }
                    net != 0
                }
            };
            if applied {
                cp.entries[s] = None;
            }
            1
        };
        for (_, segment) in wal::list_segments(dir).unwrap() {
            for entry in wal::read_segment(&segment).unwrap().records {
                next_version = next_version.max(entry.version + 1);
                for &op in &entry.ops {
                    replayed += apply_one(&mut cp, entry.version, op);
                }
            }
        }
        Reference {
            backings: cp.backings,
            chains,
            entries: cp.entries,
            replayed,
            next_version: next_version.max(1),
        }
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("shift-replay-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Write a checkpoint by hand: one v2 snapshot per chunk, each with its
    /// own `applied` floor, under a manifest at version `cv`.
    fn write_checkpoint(dir: &Path, seq: u64, cv: u64, chunks: &[Vec<u64>], applied: &[u64]) {
        let shards = (chunks.iter().zip(applied).enumerate())
            .map(|(i, (chunk, &applied))| {
                let snapshot = format!("snap-{seq}-{i}.snap");
                v2::write_snapshot(&dir.join(&snapshot), applied, chunk, 16).unwrap();
                ManifestShard { snapshot, applied }
            })
            .collect();
        let manifest = Manifest {
            seq,
            version: cv,
            spec: "im+r1".into(),
            fences: chunks.iter().map(|c| c[0]).collect(),
            shards,
        };
        manifest::write_manifest(dir, &manifest).unwrap();
    }

    /// Append `entries` to a fresh segment, versions ascending from `start`:
    /// a one-op entry becomes a single-op frame, anything else a batch.
    /// Returns the version after the last.
    fn write_segment(dir: &Path, start: u64, entries: &[Vec<BatchOp<u64>>]) -> u64 {
        let mut wal = WalWriter::create(dir, start, SyncPolicy::Os).unwrap();
        let mut version = start;
        for ops in entries {
            let frame = match ops.len() {
                1 => Frame::Op,
                _ => Frame::Batch,
            };
            wal.append(version, ops, frame).unwrap();
            version += 1;
        }
        version
    }

    /// Three chunks with duplicate runs, and the keys a tail should aim at:
    /// present keys, absent ones, both sides of both fences, the extremes.
    fn chunks() -> Vec<Vec<u64>> {
        let chunk = |lo: u64| (0..60u64).map(|i| lo + (i / 3) * 10).collect::<Vec<_>>();
        vec![chunk(1_000), chunk(5_000), chunk(9_000)]
    }

    /// Both sides of both fences of [`chunks`], and the extremes.
    const EDGES: [u64; 8] = [999, 1_000, 4_999, 5_000, 8_999, 9_000, 0, u64::MAX];

    /// A randomized tail: single-op and batch entries interleaved, keys one
    /// time in four from `aimed`, else from `lo..hi` (half of them present
    /// in [`chunks`]) — duplicate inserts, deletes of absent keys,
    /// insert-then-delete and delete-then-insert of one key.
    fn random_tail(
        rng: &mut SplitMix64,
        entries: usize,
        aimed: &[u64],
        (lo, hi): (u64, u64),
    ) -> Vec<Vec<BatchOp<u64>>> {
        let key = |rng: &mut SplitMix64| match rng.next_below(4) {
            0 => aimed[rng.next_below(aimed.len() as u64) as usize],
            _ => (lo + rng.next_below(hi - lo)) / 5 * 5,
        };
        (0..entries)
            .map(|_| {
                let k = key(rng);
                match rng.next_below(8) {
                    0 => vec![Insert(k), Insert(k), Delete(key(rng))],
                    1 => vec![Insert(k), Delete(k)],
                    2 => vec![Delete(k), Insert(k)],
                    3 => vec![Delete(k), Delete(k), Delete(k)],
                    4 | 5 => vec![Delete(k)],
                    _ => vec![Insert(k)],
                }
            })
            .collect()
    }

    /// Recover `dir` through the reference and through the shipped code,
    /// eagerly and cold, and require the same store either way. Returns the
    /// eager recovery for further checks.
    fn assert_same_recovery(dir: &Path, tag: &str) -> Recovered<u64> {
        let spec = IndexSpec::parse("im+r1").unwrap();
        let mut eager = None;
        for cold in [true, false] {
            let config = StoreConfig::new(spec).cold_start(cold);
            let reference = recover_reference(dir, &config);
            let new = recover::<u64>(dir, &config).unwrap();
            let tag = format!("{tag} cold={cold}");
            assert_eq!(new.replayed, reference.replayed, "{tag}: replayed");
            assert_eq!(
                new.next_version, reference.next_version,
                "{tag}: next version"
            );
            assert_eq!(new.memo_entries, reference.entries, "{tag}: memo");
            assert_eq!(new.shards.len(), reference.backings.len(), "{tag}: shards");
            for (s, (shard, backing)) in new.shards.iter().zip(&reference.backings).enumerate() {
                let state = shard.state();
                let delta = &reference.chains[s];
                match backing {
                    ShardBacking::Hot(column) => {
                        assert_eq!(&state.merged_keys(), column, "{tag}: shard {s}");
                        assert!(state.delta().is_clean(), "{tag}: shard {s} chain");
                    }
                    ShardBacking::Cold(base) => {
                        assert!(state.snapshot().is_cold(), "{tag}: shard {s} mounted");
                        let merged = delta.merge_into(&base.decode_all());
                        assert_eq!(state.merged_keys(), merged, "{tag}: shard {s}");
                        assert_eq!(state.delta().ops(), delta.ops(), "{tag}: shard {s} ops");
                        assert_eq!(
                            state.delta().len_delta(),
                            delta.len_delta(),
                            "{tag}: shard {s} len_delta"
                        );
                        assert_eq!(shard.len(), merged.len(), "{tag}: shard {s} len");
                    }
                }
            }
            eager = Some(new);
        }
        eager.unwrap()
    }

    #[test]
    fn replay_as_a_merge_equals_the_per_op_reference() {
        let mut rng = SplitMix64::new(0x7A11_0017);
        // (tag, per-shard applied floors, checkpoint version, aimed keys, key range)
        let cases = [
            ("mixed", [12, 40, 0], 40, &EDGES[..], (900, 9_300)),
            ("fresh", [0, 0, 0], 0, &EDGES[..], (0, 20_000)),
            (
                "one-shard",
                [3, 3, 3],
                3,
                &[5_000, 8_999][..],
                (5_000, 8_999),
            ),
            ("all-stale", [500, 500, 500], 500, &EDGES[..], (900, 9_300)),
        ];
        for (tag, applied, cv, aimed, range) in cases {
            let dir = scratch(tag);
            write_checkpoint(&dir, 1, cv, &chunks(), &applied);
            // Two segments, the first starting below every floor.
            let next = write_segment(&dir, 1, &random_tail(&mut rng, 60, aimed, range));
            let end = write_segment(&dir, next, &random_tail(&mut rng, 90, aimed, range));
            let recovered = assert_same_recovery(&dir, tag);
            assert_eq!(recovered.next_version, end.max(cv + 1), "{tag}");
            match tag {
                "mixed" | "fresh" => {
                    assert!(recovered.replayed > 100, "{tag}: the tail applies");
                    assert!(recovered.memo_entries.iter().all(Option::is_none), "{tag}");
                }
                "one-shard" => {
                    let kept: Vec<bool> =
                        recovered.memo_entries.iter().map(Option::is_some).collect();
                    assert_eq!(kept, [true, false, true], "only the middle shard moved");
                }
                _ => {
                    assert_eq!(recovered.replayed, 0, "every op sits at or below its floor");
                    assert!(recovered.memo_entries.iter().all(Option::is_some));
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn an_empty_tail_and_a_wal_only_directory_recover_alike() {
        // A checkpoint with no segment at all, then with an empty one.
        let dir = scratch("empty-tail");
        write_checkpoint(&dir, 1, 7, &chunks(), &[7, 7, 7]);
        let bare = assert_same_recovery(&dir, "no segment");
        assert_eq!((bare.replayed, bare.next_version), (0, 8));
        write_segment(&dir, 8, &[]);
        let empty = assert_same_recovery(&dir, "empty segment");
        assert_eq!((empty.replayed, empty.next_version), (0, 8));
        assert!(empty.memo_entries.iter().all(Option::is_some));
        let _ = std::fs::remove_dir_all(&dir);
        // No manifest: one empty shard absorbs the whole log.
        let dir = scratch("wal-only");
        let mut rng = SplitMix64::new(0x0A11);
        let end = write_segment(&dir, 1, &random_tail(&mut rng, 80, &EDGES, (0, 500)));
        let recovered = assert_same_recovery(&dir, "wal-only");
        assert_eq!(recovered.next_version, end);
        assert_eq!(recovered.memo_entries, [None]);
        assert!(!recovered.shards[0].is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replaying_an_absorbed_tail_again_is_a_no_op() {
        let mut rng = SplitMix64::new(0x1DE4);
        let dir = scratch("idempotent");
        write_checkpoint(&dir, 1, 0, &chunks(), &[0, 0, 0]);
        let end = write_segment(&dir, 1, &random_tail(&mut rng, 120, &EDGES, (900, 9_300)));
        let first = assert_same_recovery(&dir, "first");
        assert!(first.replayed > 0);
        // The checkpoint a crash interrupts between its manifest and its
        // WAL truncation: snapshots that already hold the tail, floors at
        // its last version, the segment still there — and there twice.
        let absorbed: Vec<Vec<u64>> = first
            .shards
            .iter()
            .map(|s| s.state().merged_keys())
            .collect();
        write_checkpoint(&dir, 2, end - 1, &absorbed, &[end - 1; 3]);
        let segment = dir.join(wal::segment_name(1));
        std::fs::copy(&segment, dir.join(wal::segment_name(2))).unwrap();
        let again = assert_same_recovery(&dir, "again");
        assert_eq!(again.replayed, 0);
        assert_eq!(again.next_version, end);
        assert!(
            again.memo_entries.iter().all(Option::is_some),
            "no shard moved"
        );
        for (shard, column) in again.shards.iter().zip(&absorbed) {
            assert_eq!(&shard.state().merged_keys(), column);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_torn_batch_frame_is_dropped_whole() {
        let dir = scratch("torn-batch");
        write_checkpoint(&dir, 1, 0, &chunks(), &[0, 0, 0]);
        let batch = vec![Insert(1_005), Insert(5_005), Delete(9_000)];
        write_segment(&dir, 1, &[vec![Insert(42)], batch]);
        let segment = dir.join(wal::segment_name(1));
        let whole = assert_same_recovery(&dir, "whole");
        assert_eq!(whole.replayed, 4);
        // Cut the file inside the batch frame: past the first entry's end,
        // short of the second's.
        let ends = wal::read_segment(&segment).unwrap().boundaries;
        let bytes = std::fs::read(&segment).unwrap();
        std::fs::write(&segment, &bytes[..(ends[0] + ends[1]) as usize / 2]).unwrap();
        let torn = assert_same_recovery(&dir, "torn");
        assert_eq!((torn.replayed, torn.next_version), (1, 2));
        let keys: Vec<Vec<u64>> = torn
            .shards
            .iter()
            .map(|s| s.state().merged_keys())
            .collect();
        assert_eq!(keys[0][0], 42, "the single op before the batch survives");
        assert_eq!(
            keys[0].len() + keys[1].len() + keys[2].len(),
            181,
            "none of the batch does"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
