//! The durability subsystem: write-ahead log, epoch-consistent snapshots,
//! manifest rotation and crash recovery.
//!
//! A store opened with [`crate::ShardedStore::open`] keeps three kinds of
//! files in its directory:
//!
//! * **WAL segments** (`wal-<start-version>.log`, [`wal`]) — the ordered
//!   ledger of every commit, length-prefixed and CRC32-checksummed: one
//!   record per commit, whether it came through `insert`, `delete`,
//!   `apply` or a transaction. Every durable commit appends its record
//!   *before* it is applied in memory, under one store-wide WAL lock that
//!   also assigns the record its monotonically increasing store version —
//!   `Persistence::append`, called from the store's one commit function
//!   (`write.rs`, which also states the ordering invariant snapshots and
//!   checkpoint cuts rely on).
//! * **Shard snapshots** (`snap-<checkpoint>-<shard>.snap`) — one file per
//!   shard holding the shard's merged key column (base plus folded delta
//!   chain), in the block-structured **format v2** ([`v2`], the only
//!   snapshot format): fixed-size key blocks each under its own CRC32, a
//!   trailing block index, and a versioned footer — so recovery can *mount*
//!   a shard cold and serve reads off the block index before any key is
//!   decoded. A file without the v2 magic is [`StoreError::Corrupt`]. The
//!   trained model is *not* persisted: recovery retrains it from the keys
//!   and the spec string.
//! * **A manifest** (`manifest-<seq>`, [`manifest`]) — the root of every
//!   checkpoint: the spec string, the fence table, the snapshot file of
//!   each shard (with the shard's own applied version) and the checkpoint
//!   version. Written to a temp file and atomically renamed, so a crash can
//!   never leave a half-written root.
//!
//! ## Checkpointing: cut → write → publish
//!
//! A checkpoint is three steps, each its own function, and every caller —
//! [`crate::ShardedStore::checkpoint`], the maintenance worker's duty and
//! the seeding below — runs the same three:
//!
//! 1. **Cut** (`Persistence::begin_checkpoint`). Because every durable
//!    write applies while holding the WAL lock, holding that lock is a
//!    *global barrier*: the cut takes it, flushes and rotates the WAL to a
//!    fresh segment, pins every shard's published [`crate::ShardState`],
//!    and releases it. The pinned set is an exact cut — it contains every
//!    write with version `<= cv` (the checkpoint version) and none above.
//! 2. **Write** (`ShardFileWriter`). With the lock released (pinned
//!    states are immutable, so this can take its time), one snapshot file
//!    per shard that needs one is streamed out and fsynced — each file a
//!    task of the crate's pool, so as many are in progress as the machine
//!    has hardware threads. A file is a function of `(dir, seq, cv,
//!    block_keys, key column)` alone. The step's memory is bounded by the
//!    workers, not by the store: per worker, one merged view (materialised
//!    inside its task, and only when the shard has an unfolded chain or a
//!    cold base) and one 1 MiB staging buffer ([`v2::builder`]). A failed
//!    write cancels the writes not yet started and fails the checkpoint.
//!    Only the checkpoint gate — which serialises whole checkpoints and
//!    which no writer ever takes — is held here.
//! 3. **Publish**. The manifest referencing the files is written and
//!    renamed into place; then the checkpoint memo (below) is replaced,
//!    the counters are bumped, and `gc` deletes what the manifest
//!    superseded — including every WAL segment whose records all carry
//!    versions `<= cv`.
//!
//! Nothing refers to a new snapshot file before the manifest rename, so an
//! error or a crash in any step leaves the previous manifest in force and
//! the new files as garbage for the next checkpoint's GC.
//!
//! ## Seeding a fresh directory
//!
//! [`crate::ShardedStore::open_seeded`] on a fresh directory has to make
//! the seed column snapshot-durable before it hands the store out (the
//! seed never transits the WAL). The snapshot depends on the key chunks
//! alone — the model and the Shift-Table are never persisted — so a
//! chunk's file does not wait for its index: the column is validated and
//! cut into chunks once, the *cut* is taken over the empty log, and then
//! the pool runs two tasks per shard, queued *write 0, build 0, write 1,
//! build 1, …*: the write step's task over the borrowed chunk, and the
//! shard build over the same chunk. Workers take the next task as they
//! come free, so a core waiting on one file's fsync is given to the next
//! build, and neither kind of work can starve the other. When the queue
//! is drained the store is assembled and the checkpoint *published*, memo
//! included, so the next checkpoint skips every clean shard. Failure
//! semantics: validation errors are raised before the directory holds any
//! file; the first failed write turns the writes behind it into no-ops and
//! its error is returned after the queue has drained; a panicking task is
//! re-raised; and in every case, as after a kill at any point before the
//! manifest rename, the directory holds no manifest and no WAL record, so
//! it still counts as unseeded (`recovery::has_store_data`) and a retry
//! overwrites the debris.
//!
//! ## Incremental checkpoints and their GC invariants
//!
//! Each manifest shard entry records the shard's **own** `applied` version
//! — the highest commit version folded into that snapshot file. A
//! checkpoint therefore only rewrites shards whose applied version advanced
//! since their last snapshot; a clean shard's entry is carried forward
//! verbatim, **re-referencing the prior checkpoint's file** under the new
//! manifest. That makes three invariants load-bearing:
//!
//! 1. *GC is manifest-driven, not sequence-driven*: a snapshot file is
//!    garbage only when the **newest** manifest does not reference it, so a
//!    `snap-0000000003-*.snap` file re-referenced by manifest 9 survives
//!    every intermediate collection (`gc` builds the referenced set from
//!    the manifest it just published).
//! 2. *Snapshot names never collide*: fresh files are always named under
//!    the current manifest sequence, so a rewrite can never overwrite a
//!    file an older manifest still references.
//! 3. *Skipping is only sound for identical content*: a shard is skipped
//!    iff its state's `applied_cv` equals the memoised value at its last
//!    snapshot **and** the topology (fence table) is unchanged — rebuilds
//!    and compaction never move `applied_cv` precisely because they never
//!    change the merged view, so "same `applied_cv`, same fences" implies
//!    byte-identical merged keys. The file must also still *exist*: an
//!    entry whose file cannot be found is not carried forward (garbage
//!    collection is about to delete the only other manifest that knows
//!    the shard), the shard is written again. Replay keeps its per-shard gate
//!    (`version <= shard.applied`), so a WAL record covered by a reused
//!    snapshot is a no-op on recovery exactly as before.
//!
//! ## The cold → hot shard lifecycle (streaming open)
//!
//! With [`crate::StoreConfig::cold_start`] set, recovery does not decode or
//! retrain anything on the open path: it parses the manifest, **mounts**
//! each v2 snapshot ([`v2::ColdBase`] — footer + index validation plus one
//! checksum sweep), and publishes each shard *cold*: an empty base column
//! whose [`RangeIndex`](algo_index::search::RangeIndex) is a
//! [`v2::ColdBlockIndex`] answering `lower_bound` off the per-block index,
//! with the WAL tail replayed into the shard's delta chain. First reads are
//! served in O(manifest + mount) time. A background hydrator then decodes
//! and retrains shards (in waves bounded by the machine's parallelism) and
//! atomically swaps each hot via the ordinary rebuild path — readers never
//! block, and a pinned cold state stays valid
//! forever. Writes to a cold shard land in its delta chain unchanged, since
//! write paths only consult the index.
//!
//! ## Recovery invariants ([`recovery`])
//!
//! 1. The newest manifest that validates wins; older manifests and orphaned
//!    files are garbage, removed on the next successful checkpoint.
//! 2. Snapshots are rebuilt into shards by *retraining* the persisted spec
//!    over the persisted keys — model quality is reproduced, not restored —
//!    either eagerly at open or in the background after a cold mount.
//! 3. The WAL tail is replayed in version order through the recovered fence
//!    router. Replay is idempotent: a record whose version is at or below
//!    the routed shard's recovered version is a no-op, so stale segments
//!    that escaped truncation — and records already folded into a reused
//!    incremental snapshot — are harmless.
//! 4. A torn tail (short frame, or a CRC/length mismatch) ends the log:
//!    everything before it is the recovered durable prefix, everything
//!    after it is discarded.

pub mod manifest;
pub mod recovery;
pub mod v2;
pub mod wal;

use crate::batch::BatchOp;
use crate::config::{DurabilityConfig, SyncPolicy};
use crate::error::StoreError;
use shift_obs::{Histogram, Metric, Sampler};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use wal::{Frame, GroupCommitError, GroupCommitter, WalWriter};

/// WAL appends pay the sampled latency timer 1-in-this-many times (power of
/// two so the sampler's mask test stays one AND).
const WAL_APPEND_SAMPLE: u64 = 64;

/// One step of the bytewise CRC32 (IEEE, reflected) recurrence: the
/// checksum register after a zero byte is shifted through `c`'s low byte.
const fn crc32_shift_byte(mut c: u32) -> u32 {
    let mut bit = 0;
    while bit < 8 {
        c = if c & 1 != 0 {
            0xEDB8_8320 ^ (c >> 1)
        } else {
            c >> 1
        };
        bit += 1;
    }
    c
}

/// CRC32 slice-by-8 lookup tables, built at compile time. `[0]` is the
/// classic bytewise table; `[k][b]` is the register after byte `b` and `k`
/// further zero bytes, which lets eight input bytes be folded in with eight
/// independent loads instead of a chain of eight dependent ones.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        tables[0][i] = crc32_shift_byte(i as u32);
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC32 (IEEE) of `bytes` — the checksum guarding every WAL record,
/// snapshot block and manifest. Implemented here so the on-disk format needs
/// no external dependency; computed eight bytes per step (slice-by-8), with
/// the values of the bytewise definition, so files written by either
/// implementation verify under the other.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

/// The checksum register `c` after the eight bytes of `w` (slice-by-8: eight
/// independent table loads, no chain between them).
#[inline(always)]
fn fold_word(c: u32, w: &[u8]) -> u32 {
    const T: &[[u32; 256]; 8] = &CRC32_TABLES;
    let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
    let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
    T[7][(lo & 0xFF) as usize]
        ^ T[6][((lo >> 8) & 0xFF) as usize]
        ^ T[5][((lo >> 16) & 0xFF) as usize]
        ^ T[4][(lo >> 24) as usize]
        ^ T[3][(hi & 0xFF) as usize]
        ^ T[2][((hi >> 8) & 0xFF) as usize]
        ^ T[1][((hi >> 16) & 0xFF) as usize]
        ^ T[0][(hi >> 24) as usize]
}

/// [`crc32`] of three regions at once (pass `&[]` for one there is none
/// of). A lone checksum is a dependency chain — each word's table loads
/// wait for the previous word's — so a core mostly waits; three chains
/// interleaved fill those waits with each other's loads. The common length
/// is folded in lockstep, each region's remainder on its own, and every
/// value is [`crc32`] of its region: v2 blocks each carry their own
/// checksum, so nothing is combined and no file changes.
pub(crate) fn crc32_three(regions: [&[u8]; 3]) -> [u32; 3] {
    let common = regions.map(<[u8]>::len).into_iter().min().unwrap_or(0) / 8 * 8;
    let mut crcs = [Crc32::new(), Crc32::new(), Crc32::new()];
    let [a, b, c] = regions.map(|region| region[..common].chunks_exact(8));
    for ((wa, wb), wc) in a.zip(b).zip(c) {
        crcs[0].0 = fold_word(crcs[0].0, wa);
        crcs[1].0 = fold_word(crcs[1].0, wb);
        crcs[2].0 = fold_word(crcs[2].0, wc);
    }
    std::array::from_fn(|lane| {
        crcs[lane].update(&regions[lane][common..]);
        crcs[lane].finish()
    })
}

/// A running [`crc32`]: feeding a region piece by piece gives the checksum
/// of the whole region, so a writer can checksum bytes it no longer holds.
pub(crate) struct Crc32(u32);

impl Crc32 {
    pub(crate) fn new() -> Self {
        Self(!0)
    }

    /// Fold the next `bytes` of the region into the checksum.
    pub(crate) fn update(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.0 = fold_word(self.0, w);
        }
        for &b in words.remainder() {
            self.0 = CRC32_TABLES[0][((self.0 ^ b as u32) & 0xFF) as usize] ^ (self.0 >> 8);
        }
    }

    /// The checksum of everything fed so far.
    pub(crate) fn finish(&self) -> u32 {
        !self.0
    }
}

/// Cumulative I/O counters of a durable store, for write-amplification
/// accounting (the repo benchmark's `store.persist.*` metrics read them).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurabilityStats {
    /// WAL records (frames) appended since the store was opened — a whole
    /// [`crate::WriteBatch`] is one record.
    pub wal_records: u64,
    /// Logical operations appended since the store was opened (every op of
    /// a batch counts).
    pub wal_ops: u64,
    /// `fdatasync` calls issued against the WAL since the store was opened
    /// — under group commit, concurrent writers share them.
    pub wal_syncs: u64,
    /// Bytes appended to the WAL since the store was opened.
    pub wal_bytes: u64,
    /// Checkpoints taken since the store was opened.
    pub checkpoints: u64,
    /// Bytes written to snapshot files since the store was opened.
    pub snapshot_bytes: u64,
    /// Store version of the most recent checkpoint (0 before the first).
    pub last_checkpoint_version: u64,
    /// Logical operations replayed from the WAL tail when the store was
    /// opened — every operation of a batch record counts, so this is
    /// `wal_ops`-denominated, not `wal_records`-denominated.
    pub replayed_records: u64,
    /// Shard snapshot files actually (re)written by checkpoints since the
    /// store was opened.
    pub checkpoint_shards_written: u64,
    /// Shards skipped by incremental checkpoints (their `applied_cv` had
    /// not advanced; the prior snapshot file was re-referenced).
    pub checkpoint_shards_skipped: u64,
    /// Bytes of prior snapshot files re-referenced instead of rewritten —
    /// the write amplification incremental checkpoints saved.
    pub snapshot_bytes_reused: u64,
}

/// Mutable persistence state, guarded by the store-wide WAL lock.
pub(crate) struct PersistInner {
    wal: WalWriter,
    /// Version the next WAL record will carry (strictly increasing).
    next_version: u64,
    /// Records appended since the last checkpoint (drives the worker duty).
    since_checkpoint: u64,
    /// Sequence number of the newest manifest on disk.
    manifest_seq: u64,
}

/// The persistence half of a durable store's core: the WAL writer plus the
/// checkpoint bookkeeping. All durable writes and the checkpoint *cut*
/// funnel through [`Persistence::append`] / [`Persistence::begin_checkpoint`],
/// whose shared mutex makes the cut an exact global barrier.
pub(crate) struct Persistence {
    dir: PathBuf,
    durability: DurabilityConfig,
    /// Logical operations recovery replayed before this layer was opened.
    replayed: u64,
    inner: Mutex<PersistInner>,
    /// `Some` when [`SyncPolicy::Always`] syncs are coalesced across
    /// concurrent writers (see [`GroupCommitter`]); appends then defer
    /// their sync to the commit wait below the WAL lock.
    group: Option<GroupCommitter>,
    /// Serialises whole checkpoints (worker vs. explicit calls); taken
    /// strictly before the `inner` lock.
    checkpoint_gate: Mutex<()>,
    wal_records: AtomicU64,
    wal_ops: AtomicU64,
    wal_bytes: AtomicU64,
    /// Syncs of rotated-away segments (the live segment's count lives in
    /// its writer).
    wal_syncs_rotated: AtomicU64,
    checkpoints: AtomicU64,
    snapshot_bytes: AtomicU64,
    last_checkpoint_version: AtomicU64,
    checkpoint_shards_written: AtomicU64,
    checkpoint_shards_skipped: AtomicU64,
    snapshot_bytes_reused: AtomicU64,
    /// Sampled WAL append latency (lock-to-applied), scraped into the
    /// `wal_append_ns` family by [`crate::ShardedStore::metrics`].
    wal_append_ns: Histogram,
    /// WAL `fdatasync` latency (group-commit leader syncs and explicit
    /// syncs; unsampled — device-bound).
    wal_sync_ns: Histogram,
    /// Records proven durable per group-commit leader sync (wave size).
    group_commit_wave: Histogram,
    append_sampler: Sampler,
    /// Always-fire sampler so sync timing needs no raw clock read here.
    sync_sampler: Sampler,
    /// Highest version a group-commit leader has proven durable (feeds the
    /// wave-size histogram).
    last_group_synced: AtomicU64,
}

impl Persistence {
    /// Open the persistence layer over `dir`, starting a fresh WAL segment
    /// at `next_version` (recovery already replayed everything below it).
    pub(crate) fn create(
        dir: PathBuf,
        durability: DurabilityConfig,
        next_version: u64,
        manifest_seq: u64,
        replayed: u64,
    ) -> Result<Self, StoreError> {
        let group = (durability.sync == SyncPolicy::Always && durability.group_commit)
            .then(GroupCommitter::new);
        let mut wal = WalWriter::create(&dir, next_version, durability.sync)?;
        wal.defer_sync(group.is_some());
        Ok(Self {
            dir,
            durability,
            replayed,
            inner: Mutex::new(PersistInner {
                wal,
                next_version,
                since_checkpoint: 0,
                manifest_seq,
            }),
            group,
            checkpoint_gate: Mutex::new(()),
            wal_records: AtomicU64::new(0),
            wal_ops: AtomicU64::new(0),
            wal_bytes: AtomicU64::new(0),
            wal_syncs_rotated: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            snapshot_bytes: AtomicU64::new(0),
            last_checkpoint_version: AtomicU64::new(0),
            checkpoint_shards_written: AtomicU64::new(0),
            checkpoint_shards_skipped: AtomicU64::new(0),
            snapshot_bytes_reused: AtomicU64::new(0),
            wal_append_ns: Histogram::new(),
            wal_sync_ns: Histogram::new(),
            group_commit_wave: Histogram::new(),
            append_sampler: Sampler::one_in(WAL_APPEND_SAMPLE),
            sync_sampler: Sampler::one_in(1),
            last_group_synced: AtomicU64::new(next_version.saturating_sub(1)),
        })
    }

    /// The store directory.
    pub(crate) fn dir(&self) -> &Path {
        &self.dir
    }

    /// The durability configuration in force.
    pub(crate) fn durability(&self) -> DurabilityConfig {
        self.durability
    }

    /// The durable half of a commit: under the WAL lock, run `validate`,
    /// assign the next store version, append `ops` as **one** record in the
    /// `frame` encoding (honouring the sync policy) and run `apply` — the
    /// in-memory write — **while still holding the lock**. Holding the lock
    /// across the apply is what makes per-shard apply order equal version
    /// order, the invariant replay and the checkpoint cut both lean on; it
    /// also means no other durable write can be mid-publication while
    /// `validate` runs, so a transaction's read-set check there sees exactly
    /// the committed state it would serialize after. When `validate` fails,
    /// no frame is appended and no version is consumed: a conflicting
    /// transaction leaves no trace in the log.
    ///
    /// Under group commit ([`SyncPolicy::Always`] with
    /// [`DurabilityConfig::group_commit`]), the durability wait happens
    /// *after* the lock is released, so concurrent writers share one
    /// `fdatasync`; the call still only returns once this record is durable
    /// (or the sync failed, poisoning the writer).
    pub(crate) fn append<K: sosd_data::key::Key, R>(
        &self,
        ops: &[BatchOp<K>],
        frame: Frame,
        validate: impl FnOnce() -> Result<(), StoreError>,
        apply: impl FnOnce() -> R,
    ) -> Result<R, StoreError> {
        let timer = self.append_sampler.start();
        let (result, ticket) = {
            let mut inner = self.inner.lock().expect("wal lock poisoned"); // lint: allow(panic) WAL-lock poisoning means a writer died mid-frame; no sound continuation
            if inner.wal.is_poisoned() {
                return Err(StoreError::WalPoisoned);
            }
            validate()?;
            let version = inner.next_version;
            let bytes = inner.wal.append(version, ops, frame)?;
            inner.next_version += 1;
            inner.since_checkpoint += ops.len() as u64;
            self.wal_records.fetch_add(1, Ordering::Relaxed); // lint: ordering(Relaxed) monotonic stats counter; no synchronising role
            self.wal_ops.fetch_add(ops.len() as u64, Ordering::Relaxed); // lint: ordering(Relaxed) monotonic stats counter; no synchronising role
            self.wal_bytes.fetch_add(bytes, Ordering::Relaxed); // lint: ordering(Relaxed) monotonic stats counter; no synchronising role
            (apply(), version)
        };
        timer.finish(&self.wal_append_ns);
        self.group_commit(ticket)?;
        Ok(result)
    }

    /// Wait until the record carrying `ticket` (its store version) is
    /// durable. A no-op unless group commit is active — every other policy
    /// synced (or deliberately didn't) inside the append.
    ///
    /// On a sync failure the record **is** applied in memory but its
    /// durability is unknowable; the writer is poisoned so the divergence
    /// cannot widen (every later append fails), and the caller gets
    /// [`StoreError::WalPoisoned`] / the sync error.
    fn group_commit(&self, ticket: u64) -> Result<(), StoreError> {
        let Some(group) = &self.group else {
            return Ok(());
        };
        group
            .commit(
                ticket,
                || self.wal_records.load(Ordering::Relaxed), // lint: ordering(Relaxed) arrival-count hint for wave deepening; correctness never reads it
                || {
                    let mut inner = self.inner.lock().expect("wal lock poisoned"); // lint: allow(panic) WAL-lock poisoning means a writer died mid-frame; no sound continuation
                    let upto = inner.next_version - 1;
                    let timer = self.sync_sampler.start();
                    // A failure here poisons the writer (see WalWriter::sync),
                    // so no later leader can falsely acknowledge lost records.
                    // lint: allow(guard-across-sync) group-commit leader: the flush must cover exactly the appended prefix, so the WAL lock stays held
                    let synced = inner.wal.sync().map(|()| upto);
                    if synced.is_ok() {
                        timer.finish(&self.wal_sync_ns);
                        // lint: ordering(Relaxed) stats gauge feeding the wave histogram; no synchronising role
                        let prev = self.last_group_synced.swap(upto, Ordering::Relaxed);
                        self.group_commit_wave.record(upto.saturating_sub(prev));
                    }
                    synced
                },
            )
            .map_err(|e| match e {
                GroupCommitError::Sync(e) => StoreError::Io(e),
                GroupCommitError::Poisoned => StoreError::WalPoisoned,
            })
    }

    /// Flush every appended WAL record to stable storage now, regardless of
    /// the sync policy.
    pub(crate) fn sync(&self) -> Result<(), StoreError> {
        let timer = self.sync_sampler.start();
        self.inner.lock().expect("wal lock poisoned").wal.sync()?; // lint: allow(panic) WAL-lock poisoning means a writer died mid-frame; no sound continuation
        timer.finish(&self.wal_sync_ns);
        Ok(())
    }

    /// Test hook: poison the live WAL writer exactly as a failed
    /// `fdatasync` would, so repair and rejection paths can be exercised
    /// without injecting real I/O errors (reachable from integration tests
    /// via the `doc(hidden)` hook on [`crate::ShardedStore`]).
    pub(crate) fn poison_for_tests(&self) {
        self.inner
            .lock()
            .expect("wal lock poisoned") // lint: allow(panic) WAL-lock poisoning means a writer died mid-frame; no sound continuation
            .wal
            .poison_for_tests();
    }

    /// True when the automatic-checkpoint record threshold has been crossed
    /// (the maintenance worker's duty trigger).
    pub(crate) fn checkpoint_due(&self) -> bool {
        self.durability.checkpoint_ops > 0
            && self
                .inner
                .lock()
                .expect("wal lock poisoned") // lint: allow(panic) WAL-lock poisoning means a writer died mid-frame; no sound continuation
                .since_checkpoint
                >= self.durability.checkpoint_ops
    }

    /// Take the gate serialising whole checkpoints.
    pub(crate) fn checkpoint_gate(&self) -> MutexGuard<'_, ()> {
        self.checkpoint_gate
            .lock()
            .expect("checkpoint gate poisoned") // lint: allow(panic) gate poisoning means a checkpoint died half-written; no sound continuation
    }

    /// The checkpoint *cut*: under the WAL lock — which blocks every durable
    /// write — rotate the WAL to a fresh segment and run `pin` (which loads
    /// every shard's published state). Returns the checkpoint version `cv`
    /// (every write `<= cv` is inside the pinned states, none above), the
    /// manifest sequence to publish under, and `pin`'s result.
    pub(crate) fn begin_checkpoint<T>(
        &self,
        pin: impl FnOnce() -> T,
    ) -> Result<(u64, u64, T), StoreError> {
        let mut inner = self.inner.lock().expect("wal lock poisoned"); // lint: allow(panic) WAL-lock poisoning means a writer died mid-frame; no sound continuation
        let cv = inner.next_version - 1;
        // The outgoing segment stops receiving appends here; flush its
        // unsynced tail first, or a power loss during the off-lock snapshot
        // window could lose versions `<= cv` while the *new* segment's
        // later, synced records survive — a hole, not a prefix. A
        // *poisoned* segment skips the doomed sync: every write it ever
        // acknowledged was synced before the poisoning, and the snapshots
        // about to be cut come from the in-memory states (which hold every
        // applied write), so this checkpoint is exactly how a poisoned
        // store heals — durability is rebuilt from fresh files and the
        // damaged segment becomes garbage once the manifest lands.
        let was_poisoned = inner.wal.is_poisoned();
        if !was_poisoned {
            // lint: allow(guard-across-sync) the WAL lock IS the checkpoint barrier: appends must stall while the outgoing segment flushes and rotates
            inner.wal.sync()?;
        }
        self.wal_syncs_rotated
            .fetch_add(inner.wal.sync_count(), Ordering::Relaxed); // lint: ordering(Relaxed) monotonic stats counter; no synchronising role
        let mut wal = WalWriter::create(&self.dir, inner.next_version, self.durability.sync)?;
        wal.defer_sync(self.group.is_some());
        inner.wal = wal;
        inner.since_checkpoint = 0;
        inner.manifest_seq += 1;
        if was_poisoned {
            // Heal the group committer in step with the writer it mirrors:
            // new-segment tickets commit normally, poisoned-era tickets
            // keep failing (their durability is unknowable).
            if let Some(group) = &self.group {
                group.reset(inner.next_version);
            }
        }
        let pinned = pin();
        Ok((cv, inner.manifest_seq, pinned))
    }

    /// Record a finished checkpoint in the counters.
    pub(crate) fn finish_checkpoint(&self, cv: u64, tally: CheckpointTally) {
        self.checkpoints.fetch_add(1, Ordering::Relaxed); // lint: ordering(Relaxed) monotonic stats counter; no synchronising role
        self.snapshot_bytes
            .fetch_add(tally.snapshot_bytes, Ordering::Relaxed); // lint: ordering(Relaxed) monotonic stats counter; no synchronising role
        self.last_checkpoint_version.store(cv, Ordering::Relaxed); // lint: ordering(Relaxed) stats gauge; no synchronising role
        self.checkpoint_shards_written
            .fetch_add(tally.shards_written, Ordering::Relaxed); // lint: ordering(Relaxed) monotonic stats counter; no synchronising role
        self.checkpoint_shards_skipped
            .fetch_add(tally.shards_skipped, Ordering::Relaxed); // lint: ordering(Relaxed) monotonic stats counter; no synchronising role
        self.snapshot_bytes_reused
            .fetch_add(tally.bytes_reused, Ordering::Relaxed); // lint: ordering(Relaxed) monotonic stats counter; no synchronising role
    }

    /// Online WAL-poison repair: if the writer is poisoned, rotate to a
    /// fresh segment at the current `next_version` and re-arm the group
    /// committer, restoring writability without reopening the store.
    /// Returns whether a repair happened (`false` = the WAL was healthy).
    ///
    /// Poisoned-era commits stay rejected — their durability is unknowable
    /// — and the damaged segment stays on disk (harmless to recovery: its
    /// acknowledged prefix is valid, replay is idempotent) until the next
    /// checkpoint's GC. Repair restores *writability only*; the writes
    /// applied in memory after the poisoning remain covered by nothing but
    /// the next [`begin_checkpoint`](Self::begin_checkpoint), which is the
    /// full heal.
    pub(crate) fn repair(&self) -> Result<bool, StoreError> {
        // Same order as a checkpoint: gate first, then the WAL lock.
        let _gate = self.checkpoint_gate();
        let mut inner = self.inner.lock().expect("wal lock poisoned"); // lint: allow(panic) WAL-lock poisoning means a writer died mid-frame; no sound continuation
        if !inner.wal.is_poisoned() {
            return Ok(false);
        }
        self.wal_syncs_rotated
            .fetch_add(inner.wal.sync_count(), Ordering::Relaxed); // lint: ordering(Relaxed) monotonic stats counter; no synchronising role
        let mut wal = WalWriter::create(&self.dir, inner.next_version, self.durability.sync)?;
        wal.defer_sync(self.group.is_some());
        inner.wal = wal;
        if let Some(group) = &self.group {
            group.reset(inner.next_version);
        }
        Ok(true)
    }

    /// The WAL latency and group-commit-wave histogram families, scraped by
    /// [`crate::ShardedStore::metrics`] (the counter families come from
    /// [`Persistence::stats`]).
    pub(crate) fn obs_metrics(&self) -> Vec<Metric> {
        vec![
            crate::obs::hist_metric("wal_append_ns", &self.wal_append_ns),
            crate::obs::hist_metric("wal_sync_ns", &self.wal_sync_ns),
            crate::obs::hist_metric("wal_group_commit_wave", &self.group_commit_wave),
        ]
    }

    /// Current cumulative counters.
    pub(crate) fn stats(&self) -> DurabilityStats {
        let live_syncs = self
            .inner
            .lock()
            .expect("wal lock poisoned") // lint: allow(panic) WAL-lock poisoning means a writer died mid-frame; no sound continuation
            .wal
            .sync_count();
        DurabilityStats {
            wal_records: self.wal_records.load(Ordering::Relaxed), // lint: ordering(Relaxed) stats snapshot; counters are independent
            wal_ops: self.wal_ops.load(Ordering::Relaxed), // lint: ordering(Relaxed) stats snapshot; counters are independent
            wal_syncs: self.wal_syncs_rotated.load(Ordering::Relaxed) + live_syncs, // lint: ordering(Relaxed) stats snapshot; counters are independent
            wal_bytes: self.wal_bytes.load(Ordering::Relaxed), // lint: ordering(Relaxed) stats snapshot; counters are independent
            checkpoints: self.checkpoints.load(Ordering::Relaxed), // lint: ordering(Relaxed) stats snapshot; counters are independent
            snapshot_bytes: self.snapshot_bytes.load(Ordering::Relaxed), // lint: ordering(Relaxed) stats snapshot; counters are independent
            last_checkpoint_version: self.last_checkpoint_version.load(Ordering::Relaxed), // lint: ordering(Relaxed) stats snapshot; counters are independent
            replayed_records: self.replayed,
            checkpoint_shards_written: self.checkpoint_shards_written.load(Ordering::Relaxed), // lint: ordering(Relaxed) stats snapshot; counters are independent
            checkpoint_shards_skipped: self.checkpoint_shards_skipped.load(Ordering::Relaxed), // lint: ordering(Relaxed) stats snapshot; counters are independent
            snapshot_bytes_reused: self.snapshot_bytes_reused.load(Ordering::Relaxed), // lint: ordering(Relaxed) stats snapshot; counters are independent
        }
    }
}

impl Drop for Persistence {
    /// Best-effort flush of the WAL tail on a clean close: without it, a
    /// graceful shutdown under `SyncPolicy::EveryN(n)` would leave up to
    /// `n − 1` acknowledged writes in dirty pages — the same exposure as a
    /// crash. Errors are swallowed (nothing useful can be done in drop; a
    /// poisoned or failing segment falls back to crash semantics).
    fn drop(&mut self) {
        if let Ok(mut inner) = self.inner.lock() {
            // lint: allow(guard-across-sync) drop-time tail flush; the store is gone, nothing else can hold or want the lock
            let _ = inner.wal.sync();
        }
    }
}

/// What one checkpoint wrote and what it carried forward: bytes and shards
/// rewritten, shards skipped, and the bytes of prior snapshot files
/// re-referenced instead of rewritten.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CheckpointTally {
    pub snapshot_bytes: u64,
    pub shards_written: u64,
    pub shards_skipped: u64,
    pub bytes_reused: u64,
}

/// One task's snapshot file — its manifest entry and its length — or
/// `None` for a file skipped because an earlier write had failed.
pub(crate) type WrittenShard = Option<Result<(manifest::ManifestShard, u64), StoreError>>;

/// File name of shard `shard`'s snapshot under manifest sequence `seq`.
pub fn snapshot_name(seq: u64, shard: usize) -> String {
    format!("snap-{seq:010}-{shard:04}.snap")
}

/// The *write* step of one checkpoint, a file at a time: v2 snapshot files
/// named under manifest sequence `seq` and exact at version `cv`, each
/// fsynced before its task returns. A function of its arguments alone — no
/// store, no lock — so [`crate::pool`] tasks run it equally over the pinned
/// states of a [`crate::ShardedStore::checkpoint`] and, for a seeding, over
/// the borrowed chunks of the seed column beside the shard builds.
pub(crate) struct ShardFileWriter<'a> {
    dir: &'a Path,
    seq: u64,
    cv: u64,
    block_keys: usize,
    /// Raised by the first write that fails: writes not yet started become
    /// no-ops, and [`ShardFileWriter::finish`] returns that error.
    failed: AtomicBool,
}

impl<'a> ShardFileWriter<'a> {
    pub(crate) fn new(dir: &'a Path, seq: u64, cv: u64, block_keys: usize) -> Self {
        let failed = AtomicBool::new(false);
        Self {
            dir,
            seq,
            cv,
            block_keys,
            failed,
        }
    }

    /// Write shard `shard`'s file from `keys()`. The column is asked for
    /// only if the file is going to be written, so a merged view that has
    /// to be materialised lives only inside its own task.
    pub(crate) fn write_shard_file<K: sosd_data::key::Key, V: AsRef<[K]>>(
        &self,
        shard: usize,
        keys: impl FnOnce() -> V,
    ) -> WrittenShard {
        // lint: ordering(Relaxed) advisory flag: a stale read costs one more file nobody will reference
        if self.failed.load(Ordering::Relaxed) {
            return None;
        }
        let snapshot = snapshot_name(self.seq, shard);
        let path = self.dir.join(&snapshot);
        let written = v2::write_snapshot(&path, self.cv, keys().as_ref(), self.block_keys);
        // lint: ordering(Relaxed) advisory flag, as above; the error itself travels in the task's result
        self.failed.fetch_or(written.is_err(), Ordering::Relaxed);
        let applied = self.cv;
        Some(match written {
            Ok(bytes) => Ok((manifest::ManifestShard { snapshot, applied }, bytes)),
            Err(e) => Err(e.into()),
        })
    }

    /// The manifest entries, in the order of `written`, and the bytes
    /// written — or the first error. (A skipped file implies a failed one,
    /// so dropping it only shortens a list about to be discarded.)
    pub(crate) fn finish(
        written: impl IntoIterator<Item = WrittenShard>,
    ) -> Result<(Vec<manifest::ManifestShard>, u64), StoreError> {
        let files = written.into_iter().flatten();
        let (entries, lens): (Vec<_>, Vec<u64>) =
            files.collect::<Result<Vec<_>, _>>()?.into_iter().unzip();
        Ok((entries, lens.iter().sum()))
    }
}

/// Best-effort removal of files superseded by the manifest `m`: older
/// manifests, snapshot files it does not reference, and WAL segments whose
/// records all sit at or below its checkpoint version. Failures are ignored
/// — stale files are harmless to recovery (invariant 3) and will be retried
/// by the next checkpoint.
pub(crate) fn gc(dir: &Path, m: &manifest::Manifest) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let referenced: std::collections::HashSet<&str> =
        m.shards.iter().map(|s| s.snapshot.as_str()).collect();
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let stale = match () {
            _ if manifest::parse_manifest_seq(name).is_some_and(|seq| seq < m.seq) => true,
            _ if name.starts_with("snap-") && name.ends_with(".snap") => !referenced.contains(name),
            _ => false,
        };
        if stale {
            let _ = std::fs::remove_file(entry.path());
        }
    }
    // A WAL segment is covered by the checkpoint when the *next* segment
    // starts at or below `cv + 1`: versions are assigned contiguously, so
    // every record it holds is `<= cv` and already inside the snapshots.
    if let Ok(segments) = wal::list_segments(dir) {
        for pair in segments.windows(2) {
            if pair[1].0 <= m.version + 1 {
                let _ = std::fs::remove_file(&pair[0].1);
            }
        }
    }
}

/// Flush directory metadata so a just-created or just-renamed file survives
/// a power loss. Best-effort: some filesystems refuse to sync a directory
/// handle, and losing only metadata degrades to an older (still valid)
/// recovery point.
pub(crate) fn sync_dir(dir: &Path) {
    if let Ok(d) = std::fs::File::open(dir) {
        let _ = d.sync_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytewise definition `crc32` must keep the values of.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c = CRC32_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    #[test]
    fn crc32_matches_the_bytewise_reference_at_every_length_and_alignment() {
        let mut rng = sosd_data::rng::SplitMix64::new(0xC4C32);
        let buf: Vec<u8> = (0..8 + 257).map(|_| rng.next_u64() as u8).collect();
        for start in 0..8 {
            for len in 0..=257 {
                let bytes = &buf[start..start + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bytewise(bytes),
                    "start {start} len {len}"
                );
            }
        }
    }

    #[test]
    fn crc32_three_is_crc32_of_each_region_at_every_length_and_alignment() {
        let mut rng = sosd_data::rng::SplitMix64::new(0x3C4C);
        let buf: Vec<u8> = (0..3 * (8 + 257)).map(|_| rng.next_u64() as u8).collect();
        let (a, rest) = buf.split_at(8 + 257);
        let (b, c) = rest.split_at(8 + 257);
        for start in 0..8 {
            for len in 0..=257 {
                // Equal lengths (the shape of three full blocks), then
                // unequal ones: the common prefix is folded in lockstep and
                // each region's tail on its own, whichever lane is shortest.
                for lens in [[len; 3], [len, 257 - len, len / 2], [257, len, 257 - len]] {
                    let [ra, rb, rc] = [(a, lens[0]), (b, lens[1]), (c, lens[2])]
                        .map(|(region, len)| &region[start..start + len]);
                    let tag = format!("start {start} lens {lens:?}");
                    let want = [crc32(ra), crc32(rb), crc32(rc)];
                    assert_eq!(crc32_three([ra, rb, rc]), want, "{tag}");
                    // Two regions and one: the absent ones are empty.
                    assert_eq!(crc32_three([ra, rb, &[]]), [want[0], want[1], 0], "{tag}");
                    assert_eq!(crc32_three([&[], rb, &[]]), [0, want[1], 0], "{tag}");
                }
            }
        }
    }

    #[test]
    fn crc32_fed_in_pieces_is_the_crc32_of_the_whole() {
        let mut rng = sosd_data::rng::SplitMix64::new(0x5EED);
        let buf: Vec<u8> = (0..101).map(|_| rng.next_u64() as u8).collect();
        for first in 0..=buf.len() {
            for second in [first, (first + 13).min(buf.len()), buf.len()] {
                let mut crc = Crc32::new();
                crc.update(&buf[..first]);
                crc.update(&buf[first..second]);
                crc.update(&buf[second..]);
                assert_eq!(crc.finish(), crc32(&buf), "cuts at {first}, {second}");
            }
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn crc32_detects_single_bit_flips() {
        let mut data = vec![0xA5u8; 64];
        let base = crc32(&data);
        data[17] ^= 0x04;
        assert_ne!(crc32(&data), base);
    }
}
