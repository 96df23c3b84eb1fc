//! The updatable shard: an immutable learned base plus an immutable delta
//! chain, published together as one epoch-pinned state.
//!
//! A [`StoreShard`] publishes a [`ShardState`] — the epoch-stamped
//! [`ShardSnapshot`] (sorted base column behind `Arc<[K]>` plus the
//! corrected index built over it) *and* the [`DeltaChain`] of buffered
//! writes — through an [`EpochCell`]. Because both halves are immutable and
//! travel together, **a read is one snapshot acquisition followed by pure
//! merges**: pin the state, probe the learned index, add the chain's prefix
//! sums. No lock is held while probing, and a read that finds an empty chain
//! skips the merge machinery entirely.
//!
//! ## Locking protocol (write side only)
//!
//! * `write` — a per-shard mutex serialising *publishers*: every applied
//!   op, compaction and state swap happens under it. It is never taken
//!   by a read, and it is never held across a merge or an index build.
//! * `rebuild_guard` — serialises rebuilds (and, via the store, splits and
//!   merges targeting this shard). Taken strictly before `write`.
//!
//! A rebuild **seals** the chain under the write lock (an index move — no
//! data is copied), merges and retrains entirely off-lock while readers and
//! writers proceed against the sealed state, then reacquires the write lock
//! only to swap in the new epoch and strip the sealed suffix — writes that
//! landed during the rebuild survive as the residual chain.
//!
//! ## Cold bases
//!
//! A streaming open ([`crate::StoreConfig::cold_start`]) publishes shards
//! whose base is a **cold** [`ShardSnapshot`]: the key column stays encoded
//! inside a mounted v2 snapshot file ([`crate::persist::v2::ColdBase`]) and
//! the state's index is a [`crate::persist::v2::ColdBlockIndex`] answering
//! probes off the per-block index. Every read and write path below works
//! unchanged — reads only probe the index, writes only append to the delta
//! chain — except the paths that materialise base *keys*
//! ([`ShardState::merged_keys`] / [`ShardState::merged_range_keys`]), which
//! decode from the cold base on demand. [`StoreShard::rebuild`] doubles as
//! **hydration**: on a cold base it proceeds even with a clean chain,
//! decoding + retraining off-lock and swapping in a hot epoch.

use crate::batch::BatchOp;
use crate::delta::{DeltaChain, COMPACT_RUNS, MAX_RUN_LEN};
use crate::epoch::EpochCell;
use algo_index::search::{DynRangeIndex, RangeIndex};
use shift_table::error::BuildError;
use shift_table::spec::IndexSpec;
use shift_table::CorrectionLayer;
use sosd_data::key::Key;
use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// One immutable epoch of a shard's *base*: the sorted key column and the
/// index built over it. Snapshots are shared behind `Arc` so readers can
/// keep using an old epoch while the next one is being installed.
///
/// A **cold** snapshot (streaming open) keeps the column encoded inside a
/// mounted v2 file instead of a decoded `Arc<[K]>`: [`ShardSnapshot::keys`]
/// is then empty and [`ShardSnapshot::base_len`] /
/// [`ShardSnapshot::cold`] are the truth — use `base_len` wherever the
/// base's key count is meant.
pub struct ShardSnapshot<K: Key> {
    keys: Arc<[K]>,
    index: DynRangeIndex<K>,
    /// What the index's correction layer occupies, noted before the index
    /// went behind `dyn RangeIndex`: its bytes, the drifts a range layer
    /// keeps in escaped lines, its shifted lines and the bits of its drift
    /// offsets. All 0 on a cold snapshot.
    layer_bytes: usize,
    layer_patches: usize,
    layer_shifted_lines: usize,
    layer_offset_bits: u32,
    epoch: u64,
    /// `Some` while the base is still encoded in a mounted v2 snapshot
    /// file; hydration replaces the whole snapshot with a hot epoch.
    cold: Option<Arc<crate::persist::v2::ColdBase<K>>>,
}

impl<K: Key> ShardSnapshot<K> {
    /// Build a hot snapshot — `spec`'s index over shared storage the
    /// caller guarantees is sorted: initial builds validate up front,
    /// rebuilds, splits and merges combine sorted inputs, so no O(n)
    /// sortedness scan runs per (re)build.
    pub(crate) fn build(spec: &IndexSpec, keys: Arc<[K]>, epoch: u64) -> Self {
        let index = spec.build_corrected_prevalidated_with(keys.clone(), Default::default());
        let (layer_patches, layer_shifted_lines, layer_offset_bits) = match index.layer() {
            CorrectionLayer::Range(table) => {
                (table.patches(), table.shifted_lines(), table.offset_bits())
            }
            CorrectionLayer::Midpoint(_) | CorrectionLayer::None => (0, 0, 0),
        };
        Self {
            keys,
            layer_bytes: index.layer().size_bytes(),
            layer_patches,
            layer_shifted_lines,
            layer_offset_bits,
            index: Box::new(index),
            epoch,
            cold: None,
        }
    }

    /// Assemble a cold snapshot over a mounted v2 base: the published index
    /// is a [`crate::persist::v2::ColdBlockIndex`] and the decoded key
    /// column is empty until hydration swaps the shard hot.
    pub(crate) fn new_cold(base: Arc<crate::persist::v2::ColdBase<K>>, epoch: u64) -> Self {
        Self {
            keys: Arc::from(Vec::new()),
            index: Box::new(crate::persist::v2::ColdBlockIndex(base.clone())),
            layer_bytes: 0,
            layer_patches: 0,
            layer_shifted_lines: 0,
            layer_offset_bits: 0,
            epoch,
            cold: Some(base),
        }
    }

    /// The decoded sorted base key column of this epoch — empty on a cold
    /// snapshot (see [`ShardSnapshot::base_len`]).
    pub fn keys(&self) -> &[K] {
        &self.keys
    }

    /// The index serving this epoch (a cold block index until hydration).
    pub fn index(&self) -> &DynRangeIndex<K> {
        &self.index
    }

    /// Bytes of the index's correction layer (0 while cold, or without a
    /// layer) — part of what [`RangeIndex::index_size_bytes`] reports.
    pub fn layer_bytes(&self) -> usize {
        self.layer_bytes
    }

    /// Drifts a Shift-Table range layer keeps in its patch array, 68 an
    /// escaped seven-bit line and 80 a six-bit one (see
    /// [`shift_table::ShiftTable::patches`]); 0 for every other layer.
    pub fn layer_patches(&self) -> usize {
        self.layer_patches
    }

    /// Lines a Shift-Table range layer stores in units of `2^s` records
    /// (see [`shift_table::ShiftTable::shifted_lines`]); 0 for every other
    /// layer.
    pub fn layer_shifted_lines(&self) -> usize {
        self.layer_shifted_lines
    }

    /// Bits a Shift-Table range layer's drift offsets take, 6 or 7 (see
    /// [`shift_table::ShiftTable::offset_bits`]); 0 for every other layer.
    pub fn layer_offset_bits(&self) -> u32 {
        self.layer_offset_bits
    }

    /// Number of keys in the base column, decoded or not.
    pub fn base_len(&self) -> usize {
        match &self.cold {
            Some(base) => base.len(),
            None => self.keys.len(),
        }
    }

    /// The mounted cold base, while this epoch is still cold.
    pub fn cold(&self) -> Option<&Arc<crate::persist::v2::ColdBase<K>>> {
        self.cold.as_ref()
    }

    /// True while the base is still encoded (not yet hydrated).
    pub fn is_cold(&self) -> bool {
        self.cold.is_some()
    }

    /// Epoch number: 0 for the initial build, +1 per rebuild (splits and
    /// merges also advance it on the shards they produce; hydration is a
    /// rebuild).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

/// The complete immutable state of a shard at one version: base snapshot
/// plus delta chain. Reads pin one `ShardState` and never look back at the
/// shard, so base and chain are always a coherent pair.
pub struct ShardState<K: Key> {
    snapshot: Arc<ShardSnapshot<K>>,
    delta: DeltaChain<K>,
    version: u64,
    /// Highest store-wide commit version among the writes this state has
    /// absorbed (0 before the first write; maintenance republications carry
    /// it forward unchanged — they never change the merged view).
    applied_cv: u64,
}

impl<K: Key> ShardState<K> {
    /// The base snapshot of this state.
    pub fn snapshot(&self) -> &Arc<ShardSnapshot<K>> {
        &self.snapshot
    }

    /// The delta chain of this state.
    pub fn delta(&self) -> &DeltaChain<K> {
        &self.delta
    }

    /// Publication version: +1 on every published state (writes, seals,
    /// compactions and swaps all count). Strictly monotonic per shard.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Highest store-wide commit version this state has absorbed (see
    /// [`crate::CommitClock`]): every write stamped at or below it and routed to
    /// this shard is contained, and — in a store snapshot's cut — none above
    /// the snapshot's version is.
    /// 0 for a state that has never absorbed a write.
    pub fn applied_cv(&self) -> u64 {
        self.applied_cv
    }

    /// Number of keys in the merged (base + delta) view of this state.
    pub fn merged_len(&self) -> usize {
        merged_len(self.snapshot.base_len(), self.delta.len_delta())
    }

    /// Lower bound of `q` in this state's merged view — the pure read,
    /// evaluated entirely against immutable data.
    #[inline]
    pub fn lower_bound(&self, q: K) -> usize {
        if self.delta.entry_count() == 0 {
            // Fast path: an empty chain means the base *is* the merged view.
            return self.snapshot.index.lower_bound(q);
        }
        merged_position(self.snapshot.index.lower_bound(q), self.delta.net_below(q))
    }

    /// Merged occurrence count of exactly `k` in this state.
    #[inline]
    pub fn count_of(&self, k: K) -> usize {
        let base = self.snapshot.index.range(k, k).len();
        if self.delta.entry_count() == 0 {
            return base;
        }
        (base as i64 + self.delta.net_of(k)).max(0) as usize
    }

    /// Batched lower bounds over this state's merged view: the base
    /// positions go through the pinned index's batch kernel
    /// ([`shift_table::kernel`]), then each block of positions is shifted by
    /// the chain's prefix sums — accumulated run-outer into a stack scratch
    /// ([`DeltaChain::net_below_batch`]) so a run's buffer stays
    /// cache-resident across the block. With an empty chain the shift stage
    /// is skipped entirely.
    pub fn lower_bound_batch(&self, queries: &[K], out: &mut [usize]) {
        // lint: allow(panic) API contract: slices must be equal length — zip-truncating would silently serve wrong positions
        assert_eq!(
            queries.len(),
            out.len(),
            "lower_bound_batch requires queries and out of equal length"
        );
        self.snapshot.index.lower_bound_batch(queries, out);
        if self.delta.entry_count() == 0 {
            return;
        }
        const BLOCK: usize = shift_table::kernel::BATCH_BLOCK;
        let mut acc = [0i64; BLOCK];
        for (qs, os) in queries.chunks(BLOCK).zip(out.chunks_mut(BLOCK)) {
            let acc = &mut acc[..qs.len()];
            acc.fill(0);
            self.delta.net_below_batch(qs, acc);
            for (o, &net) in os.iter_mut().zip(acc.iter()) {
                *o = merged_position(*o, net);
            }
        }
    }

    /// Range query `lo <= key <= hi` over this state's merged view, as a
    /// half-open position range. Both endpoints resolve against the same
    /// immutable state by construction; they travel as one two-query batch
    /// so the pinned index's batch kernel overlaps their probes.
    pub fn range(&self, lo: K, hi: K) -> std::ops::Range<usize> {
        if lo > hi {
            return 0..0;
        }
        match hi.checked_next() {
            Some(h) => {
                let queries = [lo, h];
                let mut out = [0usize; 2];
                self.lower_bound_batch(&queries, &mut out);
                out[0]..out[1].max(out[0])
            }
            None => {
                let start = self.lower_bound(lo);
                start..self.merged_len().max(start)
            }
        }
    }

    /// This state's merged key column (base with the chain folded in) —
    /// what rebuilds, splits, merges and checkpoints cut their output from.
    /// A hot base under an entry-less chain *is* the merged column and is
    /// lent out as it stands; anything else is materialised (a cold base is
    /// decoded on demand).
    pub fn merged_view(&self) -> Cow<'_, [K]> {
        let clean = self.delta.entry_count() == 0;
        match self.snapshot.cold() {
            Some(base) if clean => Cow::Owned(base.decode_all()),
            Some(base) => Cow::Owned(self.delta.merge_into(&base.decode_all())),
            None if clean => Cow::Borrowed(self.snapshot.keys()),
            None => Cow::Owned(self.delta.merge_into(self.snapshot.keys())),
        }
    }

    /// [`ShardState::merged_view`] as an owned column.
    pub fn merged_keys(&self) -> Vec<K> {
        self.merged_view().into_owned()
    }

    /// Materialise the merged keys in `lo ..= hi` only — the snapshot-scan
    /// read. Cost is two index probes plus a merge bounded by the result
    /// size (never the whole shard); a cold base decodes only the touched
    /// blocks.
    pub fn merged_range_keys(&self, lo: K, hi: K) -> Vec<K> {
        if lo > hi {
            return Vec::new();
        }
        let range = self.snapshot.index.range(lo, hi);
        let decoded;
        let base: &[K] = match self.snapshot.cold() {
            Some(cold) => {
                decoded = cold.keys_in(range);
                &decoded
            }
            None => &self.snapshot.keys()[range],
        };
        if self.delta.entry_count() == 0 {
            base.to_vec()
        } else {
            self.delta.merge_range(base, lo, hi)
        }
    }
}

/// An updatable shard: immutable learned base + immutable delta chain,
/// swapped atomically as one state.
pub struct StoreShard<K: Key> {
    spec: IndexSpec,
    threshold: usize,
    state: EpochCell<ShardState<K>>,
    /// Serialises publishers (writes, compactions, swaps); never read-side.
    write: Mutex<()>,
    /// Serialises rebuilds / splits / merges; taken before `write`.
    rebuild_guard: Mutex<()>,
    /// Cached merged key count, updated under the write lock on every
    /// recorded write (rebuilds are length-neutral). Lets [`StoreShard::len`]
    /// — called for every preceding shard on every global-position read —
    /// be a plain atomic load.
    merged_len: AtomicUsize,
    /// Set (under the write lock) when a split or merge replaced this shard:
    /// writers observing it retry against the new shard table.
    retired: AtomicBool,
    /// Decayed access counter: reads resolving to this shard bump it, each
    /// maintenance pass halves it — the exponentially-decayed frequency
    /// signal the workload-adaptive rebalancer consumes (and the
    /// `store_shard_accesses` metric exports). Pure statistics.
    accesses: AtomicU64,
    /// Set by the first read that touches this shard while it is still cold
    /// (hydrate-on-first-touch): the hydrator and the maintenance worker
    /// prioritise requested shards over the background sweep order.
    hydration_requested: AtomicBool,
}

impl<K: Key> StoreShard<K> {
    /// Build a shard over sorted `keys` with the given spec and rebuild
    /// threshold.
    ///
    /// # Errors
    /// [`BuildError::UnsortedKeys`] if `keys` is not sorted,
    /// [`BuildError::TooManyKeys`] if `spec`'s layer cannot cover them.
    pub fn build(
        spec: IndexSpec,
        keys: impl Into<Arc<[K]>>,
        threshold: usize,
    ) -> Result<Self, BuildError> {
        let keys: Arc<[K]> = keys.into();
        spec.check_key_count(keys.len())?;
        if let Some(position) = keys.windows(2).position(|w| w[0] > w[1]) {
            return Err(BuildError::UnsortedKeys {
                position: position + 1,
            });
        }
        Ok(Self::build_prevalidated(spec, keys, threshold))
    }

    /// [`StoreShard::build`] for callers that already validated the keys
    /// (the sharded store validates its whole column once, then cuts it
    /// into chunks).
    pub(crate) fn build_prevalidated(spec: IndexSpec, keys: Arc<[K]>, threshold: usize) -> Self {
        let snapshot = Arc::new(ShardSnapshot::build(&spec, keys, 0));
        Self::from_parts_at(spec, threshold, snapshot, DeltaChain::new(), 0)
    }

    /// Assemble a shard from an already-built snapshot, a carried-over
    /// delta chain and an inherited commit-version floor — split/merge
    /// children start at their parent's `applied_cv` so the stamp stays
    /// monotonic across topology changes; recovery starts at 0.
    pub(crate) fn from_parts_at(
        spec: IndexSpec,
        threshold: usize,
        snapshot: Arc<ShardSnapshot<K>>,
        delta: DeltaChain<K>,
        applied_cv: u64,
    ) -> Self {
        let merged_len = AtomicUsize::new(merged_len(snapshot.base_len(), delta.len_delta()));
        let version = 0;
        Self {
            spec,
            threshold: threshold.max(1),
            state: EpochCell::new(Arc::new(ShardState {
                snapshot,
                delta,
                version,
                applied_cv,
            })),
            write: Mutex::new(()),
            rebuild_guard: Mutex::new(()),
            merged_len,
            retired: AtomicBool::new(false),
            accesses: AtomicU64::new(0),
            hydration_requested: AtomicBool::new(false),
        }
    }

    /// Record `n` read accesses resolving to this shard (statistics only).
    #[inline]
    pub(crate) fn record_accesses(&self, n: u64) {
        // lint: ordering(Relaxed) statistics counter — no reader synchronises through it
        self.accesses.fetch_add(n, Ordering::Relaxed);
    }

    /// The decayed access counter's current value.
    pub fn accesses(&self) -> u64 {
        // lint: ordering(Relaxed) statistics readout — staleness is acceptable by contract
        self.accesses.load(Ordering::Relaxed)
    }

    /// Halve the access counter (one exponential-decay step, run by each
    /// maintenance pass). Concurrent bumps may land before or after the
    /// halving — both orders are acceptable for a frequency estimate.
    pub(crate) fn decay_accesses(&self) {
        // lint: ordering(Relaxed) statistics counter — no reader synchronises through it
        let now = self.accesses.load(Ordering::Relaxed);
        // lint: ordering(Relaxed) statistics counter — no reader synchronises through it
        self.accesses.store(now / 2, Ordering::Relaxed);
    }

    /// Mark this cold shard as wanting hydration (first-touch). Returns
    /// true only on the first request, so the caller emits exactly one
    /// trace event per cold period.
    pub(crate) fn request_hydration(&self) -> bool {
        // lint: ordering(Relaxed) advisory priority flag — hydration correctness is carried by the rebuild guard
        !self.hydration_requested.swap(true, Ordering::Relaxed)
    }

    /// Was hydration requested by a read (and not yet consumed)?
    pub(crate) fn hydration_requested(&self) -> bool {
        // lint: ordering(Relaxed) advisory priority flag — hydration correctness is carried by the rebuild guard
        self.hydration_requested.load(Ordering::Relaxed)
    }

    /// Consume a pending hydration request; returns whether one was set.
    pub(crate) fn take_hydration_request(&self) -> bool {
        // lint: ordering(Relaxed) advisory priority flag — hydration correctness is carried by the rebuild guard
        self.hydration_requested.swap(false, Ordering::Relaxed)
    }

    /// Pin and return the current state (one epoch acquisition; see
    /// [`EpochCell::load`]). Everything derived from the returned value is
    /// immutable and internally consistent.
    pub fn state(&self) -> Arc<ShardState<K>> {
        self.state.load()
    }

    /// The current epoch's base snapshot (cheap `Arc` clone).
    pub fn snapshot(&self) -> Arc<ShardSnapshot<K>> {
        self.state.load().snapshot.clone()
    }

    /// Number of keys in the merged (base + delta) view (one atomic load).
    pub fn len(&self) -> usize {
        self.merged_len.load(Ordering::Acquire) // lint: ordering(Acquire) pairs with the write paths' AcqRel updates: a count is never staler than the publication it rode in on
    }

    /// True when the merged view holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lower bound of `q` in the merged view: pin the state, then pure
    /// merges — no lock is held while probing.
    pub fn lower_bound(&self, q: K) -> usize {
        self.state.load().lower_bound(q)
    }

    /// Batched lower bounds over the merged view: the base positions are
    /// resolved through the pinned index's batch kernel, then
    /// each block is shifted by the chain's prefix sums. With an empty chain
    /// the shift stage is skipped entirely.
    pub fn lower_bound_batch(&self, queries: &[K], out: &mut [usize]) {
        self.state.load().lower_bound_batch(queries, out);
    }

    /// Merged occurrence count of the exact key `k`.
    pub fn count_of(&self, k: K) -> usize {
        self.state.load().count_of(k)
    }

    /// Range query `lo <= key <= hi` over the merged view, as a half-open
    /// position range (the [`RangeIndex::range`] contract). Both endpoints
    /// are resolved against the same pinned state.
    pub fn range(&self, lo: K, hi: K) -> std::ops::Range<usize> {
        self.state.load().range(lo, hi)
    }

    /// Apply one op stamped with commit version `cv` — the version its
    /// caller was assigned under the commit window it holds (the store's one
    /// commit function in `write.rs`; a shard used on its own can pass any
    /// stamp) — and publish the successor state. The shard's one write method:
    /// returns `Some((applied, dirty))`, or `None` when a split/merge has
    /// retired the shard (the caller re-routes against the new table).
    /// `applied` is false, and nothing is published, for a delete of a key
    /// the merged view holds no occurrence of; `dirty` is true when the
    /// shard is at or over its rebuild threshold afterwards. The store's
    /// commits are serial and arrive in version order; the stamp is
    /// `max`-folded so that no caller can move `applied_cv` backwards.
    pub fn try_apply(&self, op: BatchOp<K>, cv: u64) -> Option<(bool, bool)> {
        // lint: allow(panic) lock poisoning propagates a writer panic; continuing would publish torn state
        let _w = self.write.lock().expect("write lock poisoned");
        // lint: ordering(Relaxed) read under the shard write lock, which retire() also holds; the lock orders it
        if self.retired.load(Ordering::Relaxed) {
            return None;
        }
        let cur = self.state.load();
        let net = match op {
            BatchOp::Insert(_) => 1,
            BatchOp::Delete(k) if cur.count_of(k) == 0 => {
                return Some((false, cur.delta.ops() >= self.threshold));
            }
            BatchOp::Delete(_) => -1,
        };
        let mut delta = cur.delta.with_op(op.key(), net, MAX_RUN_LEN);
        if delta.unsealed_run_count() >= COMPACT_RUNS {
            // Inline amortised compaction: O(chain entries) once every
            // `COMPACT_RUNS × MAX_RUN_LEN` ops keeps reads at a handful of
            // binary searches without waiting for the maintenance worker.
            delta = delta.compact();
        }
        let dirty = delta.ops() >= self.threshold;
        self.publish_at(cur.snapshot.clone(), delta, cur.applied_cv.max(cv));
        if net > 0 {
            self.merged_len.fetch_add(1, Ordering::AcqRel); // lint: ordering(AcqRel) release side of len()'s Acquire load: the count stays paired with the state published before it
        } else {
            self.merged_len.fetch_sub(1, Ordering::AcqRel); // lint: ordering(AcqRel) release side of len()'s Acquire load: the count stays paired with the state published before it
        }
        Some((true, dirty))
    }

    /// Publish a successor state with the given parts, the next version and
    /// an explicit applied commit version. Every publication funnels through
    /// here so the strictly-monotonic version guarantee (the concurrent
    /// tests' anchor) lives in one place. Must hold `write`.
    fn publish_at(
        &self,
        snapshot: Arc<ShardSnapshot<K>>,
        delta: DeltaChain<K>,
        applied_cv: u64,
    ) -> Arc<ShardState<K>> {
        let next = Arc::new(ShardState {
            snapshot,
            delta,
            version: self.state.load().version + 1,
            applied_cv,
        });
        self.state.store(next.clone());
        next
    }

    /// Publish a maintenance successor (seal, compaction, swap): the merged
    /// view is unchanged, so the applied commit version carries forward.
    /// Must hold `write`.
    fn publish(&self, snapshot: Arc<ShardSnapshot<K>>, delta: DeltaChain<K>) -> Arc<ShardState<K>> {
        let applied_cv = self.state.load().applied_cv;
        self.publish_at(snapshot, delta, applied_cv)
    }

    /// True when the buffered operation count has reached the threshold
    /// (lock-free: reads the published state).
    pub fn is_dirty(&self) -> bool {
        self.state.load().delta.ops() >= self.threshold
    }

    /// Number of operations buffered since the last rebuild (lock-free).
    pub fn buffered_ops(&self) -> usize {
        self.state.load().delta.ops()
    }

    /// True once a split or merge has replaced this shard in the table.
    pub fn is_retired(&self) -> bool {
        self.retired.load(Ordering::Acquire) // lint: ordering(Acquire) pairs with retire()'s Release store: seeing `retired` implies the replacement table is published
    }

    /// Fold the chain's unsealed runs into one run, bounding per-read merge
    /// cost. Returns true when the chain shape changed. Called by the
    /// maintenance worker; writers also compact inline past [`COMPACT_RUNS`].
    pub fn compact(&self) -> bool {
        // lint: allow(panic) lock poisoning propagates a writer panic; continuing would publish torn state
        let _w = self.write.lock().expect("write lock poisoned");
        let cur = self.state.load();
        if cur.delta.unsealed_run_count() < 2 {
            return false;
        }
        self.publish(cur.snapshot.clone(), cur.delta.compact());
        true
    }

    /// Fold the delta chain into a new base column, rebuild the index and
    /// swap in the new epoch. Returns false (and does nothing) when no
    /// write is buffered or the shard is retired — except on a **cold**
    /// base, where a rebuild is exactly hydration (decode + retrain + hot
    /// swap) and proceeds even with a clean chain. Readers and writers
    /// proceed concurrently against the sealed state for the whole merge +
    /// build; writes that land during the rebuild survive as the residual
    /// chain against the new epoch.
    ///
    /// # Errors
    /// Never fails today — the merged column is sorted by construction and
    /// the index build takes the prevalidated path. The `Result` is kept so
    /// future rebuild failure modes (durability, resource limits) can
    /// surface without an API break.
    pub fn rebuild(&self) -> Result<bool, BuildError> {
        // lint: allow(panic) guard poisoning propagates a rebuild/split panic; shard shape is unknowable
        let _guard = self.rebuild_guard.lock().expect("rebuild guard poisoned");
        // lint: ordering(Acquire) pairs with retire()'s Release store; a retired shard must not rebuild
        if self.retired.load(Ordering::Acquire) {
            return Ok(false);
        }
        // Freeze phase: seal the chain (an index move, no data copied).
        let frozen = {
            // lint: allow(panic) lock poisoning propagates a writer panic; continuing would publish torn state
            let _w = self.write.lock().expect("write lock poisoned");
            let cur = self.state.load();
            if cur.delta.is_clean() && !cur.snapshot.is_cold() {
                return Ok(false);
            }
            self.publish(cur.snapshot.clone(), cur.delta.sealed())
        };
        // Build phase — no lock held; reads and writes proceed.
        let merged: Arc<[K]> = frozen.merged_view().into();
        let snapshot = Arc::new(ShardSnapshot::build(
            &self.spec,
            merged,
            frozen.snapshot.epoch + 1,
        ));
        // Swap phase: install the new epoch, keep only post-seal writes.
        // lint: allow(panic) lock poisoning propagates a writer panic; continuing would publish torn state
        let _w = self.write.lock().expect("write lock poisoned");
        let residual = self.residual_since(&frozen);
        self.publish(snapshot, residual);
        Ok(true)
    }

    /// Bytes of auxiliary structure: the learned index plus the live chain.
    pub fn index_size_bytes(&self) -> usize {
        let state = self.state.load();
        state.snapshot.index.index_size_bytes() + state.delta.size_bytes()
    }

    // ---- split/merge support (used by the sharded store) ----------------

    /// Take the rebuild guard for the duration of a split/merge targeting
    /// this shard, excluding concurrent rebuilds.
    pub(crate) fn lock_rebuild(&self) -> MutexGuard<'_, ()> {
        // lint: allow(panic) guard poisoning propagates a rebuild/split panic; shard shape is unknowable
        self.rebuild_guard.lock().expect("rebuild guard poisoned")
    }

    /// Take the write lock for a topology commit.
    pub(crate) fn lock_write(&self) -> MutexGuard<'_, ()> {
        // lint: allow(panic) lock poisoning propagates a writer panic; continuing would publish torn state
        self.write.lock().expect("write lock poisoned")
    }

    /// Seal the chain and publish the sealed state, returning it. Unlike
    /// the rebuild freeze this seals even a clean chain (a split of a cold
    /// shard still needs a frozen view).
    pub(crate) fn seal(&self) -> Arc<ShardState<K>> {
        // lint: allow(panic) lock poisoning propagates a writer panic; continuing would publish torn state
        let _w = self.write.lock().expect("write lock poisoned");
        let cur = self.state.load();
        self.publish(cur.snapshot.clone(), cur.delta.sealed())
    }

    /// Roll back a [`StoreShard::seal`] whose consumer abandoned its
    /// split: republish the current chain with every run amendable again,
    /// so abandoned seals cannot accumulate unfoldable sealed runs (reads
    /// pay one binary search per run). The caller must still hold the
    /// rebuild guard it sealed under.
    pub(crate) fn unseal(&self) {
        // lint: allow(panic) lock poisoning propagates a writer panic; continuing would publish torn state
        let _w = self.write.lock().expect("write lock poisoned");
        let cur = self.state.load();
        self.publish(cur.snapshot.clone(), cur.delta.unsealed_all());
    }

    /// Mark the shard retired. Must be called while holding the write lock
    /// (see [`StoreShard::lock_write`]) so no writer can interleave between
    /// the residual capture and the flag.
    pub(crate) fn retire(&self) {
        self.retired.store(true, Ordering::Release); // lint: ordering(Release) pairs with is_retired()'s Acquire loads: retirement is ordered after the table swap it follows
    }

    /// The residual chain recorded since `frozen` (see
    /// [`DeltaChain::strip_sealed`]). Must hold the write lock.
    pub(crate) fn residual_since(&self, frozen: &ShardState<K>) -> DeltaChain<K> {
        self.state.load().delta.strip_sealed(&frozen.delta)
    }

    /// The spec this shard builds its indexes from.
    pub(crate) fn spec(&self) -> IndexSpec {
        self.spec
    }

    /// The shard's rebuild threshold.
    pub(crate) fn threshold(&self) -> usize {
        self.threshold
    }
}

/// Merged length from a base length and a net delta.
#[inline]
pub(crate) fn merged_len(base: usize, len_delta: i64) -> usize {
    (base as i64 + len_delta).max(0) as usize
}

/// Merged position from a base lower bound and a delta prefix sum. The
/// delete-path invariant keeps the true sum non-negative; clamp anyway so a
/// racy estimate can never underflow.
#[inline]
fn merged_position(base: usize, net_below: i64) -> usize {
    (base as i64 + net_below).max(0) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use BatchOp::{Delete, Insert};

    fn spec() -> IndexSpec {
        IndexSpec::parse("im+r1").unwrap()
    }

    /// Apply `op` to a live shard as the store's commit function would,
    /// under a stamp of 0: `(applied, dirty)`.
    fn apply(shard: &StoreShard<u64>, op: BatchOp<u64>) -> (bool, bool) {
        shard.try_apply(op, 0).expect("the shard is live")
    }

    #[test]
    fn merged_reads_reflect_buffered_writes() {
        let keys: Vec<u64> = (0..100u64).map(|i| i * 10).collect();
        let shard = StoreShard::build(spec(), keys, 1_000).unwrap();
        assert_eq!(shard.len(), 100);
        assert_eq!(shard.lower_bound(55), 6);
        apply(&shard, Insert(55));
        assert_eq!(shard.len(), 101);
        assert_eq!(shard.lower_bound(55), 6);
        assert_eq!(shard.lower_bound(56), 7);
        assert_eq!(shard.count_of(55), 1);
        let (removed, _) = apply(&shard, Delete(55));
        assert!(removed);
        assert_eq!(shard.count_of(55), 0);
        let (removed, _) = apply(&shard, Delete(55));
        assert!(!removed, "deleting an absent key is a no-op");
        assert_eq!(shard.len(), 100);
    }

    #[test]
    fn rebuild_folds_the_chain_and_bumps_the_epoch() {
        let keys: Vec<u64> = (0..50u64).map(|i| i * 2).collect();
        let shard = StoreShard::build(spec(), keys, 4).unwrap();
        assert_eq!(shard.snapshot().epoch(), 0);
        assert!(!shard.rebuild().unwrap(), "clean shard does not rebuild");
        let mut dirty = false;
        for k in [1u64, 3, 5, 7, 9] {
            dirty = apply(&shard, Insert(k)).1;
        }
        assert!(dirty);
        assert!(shard.is_dirty());
        assert!(shard.rebuild().unwrap());
        let snap = shard.snapshot();
        assert_eq!(snap.epoch(), 1);
        assert_eq!(snap.keys().len(), 55, "chain folded into the base");
        assert_eq!(shard.buffered_ops(), 0);
        assert!(!shard.is_dirty());
        // Merged base is now 0, 1, 2, ..., 9, 10, 12, ...: five odd inserts.
        assert_eq!(shard.lower_bound(4), 4);
        assert_eq!(shard.range(1, 5).len(), 5); // 1, 2, 3, 4, 5
    }

    #[test]
    fn delete_then_rebuild_shrinks_the_base() {
        let keys = vec![5u64, 5, 5, 9];
        let shard = StoreShard::build(spec(), keys, 100).unwrap();
        assert!(apply(&shard, Delete(5)).0);
        assert!(apply(&shard, Delete(5)).0);
        assert_eq!(shard.len(), 2);
        shard.rebuild().unwrap();
        assert_eq!(shard.snapshot().keys(), &[5, 9]);
        assert_eq!(shard.lower_bound(6), 1);
    }

    #[test]
    fn empty_shard_accepts_writes() {
        let shard = StoreShard::build(spec(), Vec::<u64>::new(), 100).unwrap();
        assert!(shard.is_empty());
        assert_eq!(shard.lower_bound(7), 0);
        apply(&shard, Insert(7));
        assert_eq!(shard.len(), 1);
        assert_eq!(shard.lower_bound(7), 0);
        assert_eq!(shard.lower_bound(8), 1);
        shard.rebuild().unwrap();
        assert_eq!(shard.snapshot().keys(), &[7]);
    }

    #[test]
    fn a_pinned_state_is_immune_to_later_writes_and_rebuilds() {
        let keys: Vec<u64> = (0..100u64).collect();
        let shard = StoreShard::build(spec(), keys, 4).unwrap();
        apply(&shard, Insert(1_000));
        let pinned = shard.state();
        let v = pinned.version();
        assert_eq!(pinned.lower_bound(u64::MAX), 101);
        for k in 0..20u64 {
            apply(&shard, Insert(2_000 + k)); // crosses the threshold — no rebuild yet
        }
        shard.rebuild().unwrap();
        // The pinned state still answers from its own epoch.
        assert_eq!(pinned.lower_bound(u64::MAX), 101);
        assert_eq!(pinned.version(), v, "pinned state is a frozen value");
        assert_eq!(shard.lower_bound(u64::MAX), 121);
        assert!(shard.state().version() > v, "published version advanced");
    }

    #[test]
    fn versions_increase_with_every_published_write() {
        let shard = StoreShard::build(spec(), vec![1u64, 2, 3], 1_000).unwrap();
        let mut last = shard.state().version();
        for k in 0..10u64 {
            apply(&shard, Insert(k));
            let v = shard.state().version();
            assert!(v > last);
            last = v;
        }
    }

    #[test]
    fn inline_compaction_bounds_the_chain() {
        let keys: Vec<u64> = (0..100u64).collect();
        let shard = StoreShard::build(spec(), keys, 1_000_000).unwrap();
        // Distinct keys: every MAX_RUN_LEN inserts fill a head run, so the
        // chain would reach 2 × COMPACT_RUNS runs without the inline fold.
        let writes = 2 * COMPACT_RUNS * MAX_RUN_LEN;
        for k in 0..writes as u64 {
            apply(&shard, Insert(500 + k));
            assert!(shard.state().delta().run_count() < COMPACT_RUNS);
        }
        let state = shard.state();
        assert_eq!(state.delta().ops(), writes, "compaction preserves churn");
        assert_eq!(shard.lower_bound(u64::MAX), 100 + writes);
    }

    #[test]
    fn cold_shard_reads_equal_hot_reads_and_rebuild_hydrates() {
        let dir = std::env::temp_dir().join(format!("shift-store-cold-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let keys: Vec<u64> = (0..3_000u64).map(|i| i * 3).collect();
        let path = dir.join("cold.snap");
        crate::persist::v2::write_snapshot(&path, 17, &keys, 256).unwrap();
        let base = Arc::new(crate::persist::v2::ColdBase::<u64>::mount(&path).unwrap());
        assert_eq!(base.applied(), 17);

        let hot = StoreShard::build(spec(), keys.clone(), 1_000_000).unwrap();
        let cold = StoreShard::from_parts_at(
            spec(),
            1_000_000,
            Arc::new(ShardSnapshot::new_cold(base, 0)),
            DeltaChain::new(),
            17,
        );
        assert!(cold.snapshot().is_cold());
        assert_eq!(cold.snapshot().base_len(), keys.len());
        assert_eq!(cold.len(), hot.len());
        assert_eq!(cold.state().applied_cv(), 17);

        // Writes land in the chain of a cold shard exactly as a hot one.
        for shard in [&cold, &hot] {
            apply(shard, Insert(10));
            apply(shard, Insert(9_001));
            assert!(apply(shard, Delete(6)).0);
        }
        let probes: Vec<u64> = (0..400).map(|i| i * 23).collect();
        for &q in &probes {
            assert_eq!(cold.lower_bound(q), hot.lower_bound(q), "q={q}");
            assert_eq!(cold.count_of(q), hot.count_of(q), "count {q}");
        }
        assert_eq!(cold.range(100, 5_000), hot.range(100, 5_000));
        assert_eq!(
            cold.state().merged_range_keys(100, 200),
            hot.state().merged_range_keys(100, 200)
        );
        assert_eq!(cold.state().merged_keys(), hot.state().merged_keys());
        assert_eq!(cold.state().snapshot().index().name(), "cold-v2");
        // No layer is built until hydration.
        assert_eq!(cold.snapshot().layer_bytes(), 0);
        assert_eq!(cold.snapshot().layer_patches(), 0);
        assert!(hot.snapshot().layer_bytes() > 0);

        // Hydration: rebuild proceeds on a cold base, swaps it hot, and the
        // merged view is unchanged.
        assert!(cold.rebuild().unwrap());
        assert!(!cold.snapshot().is_cold());
        assert_eq!(cold.snapshot().epoch(), 1);
        let n = cold.snapshot().base_len();
        // 64 bytes a line of 67 keys and 4 a patched drift at seven bits,
        // a line of 79 at six.
        let pairs = match cold.snapshot().layer_offset_bits() {
            7 => 67,
            bits => {
                assert_eq!(bits, 6);
                79
            }
        };
        assert_eq!(
            cold.snapshot().layer_bytes(),
            64 * n.div_ceil(pairs) + 4 * cold.snapshot().layer_patches()
        );
        assert!(
            !cold.rebuild().unwrap(),
            "hydrated + clean shard does not rebuild again"
        );
        for &q in &probes {
            assert_eq!(cold.lower_bound(q), hot.lower_bound(q), "hydrated q={q}");
        }
        assert_eq!(cold.state().merged_keys(), hot.state().merged_keys());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retired_shard_rejects_writes_but_still_serves_reads() {
        let shard = StoreShard::build(spec(), vec![1u64, 2, 3], 100).unwrap();
        apply(&shard, Insert(10));
        {
            let _w = shard.lock_write();
            shard.retire();
        }
        assert!(shard.is_retired());
        let version = shard.state().version();
        // Both op kinds, a key that is present and one that is not.
        for op in [Insert(11), Delete(1), Delete(999)] {
            assert_eq!(shard.try_apply(op, 7), None, "{op:?}");
        }
        assert_eq!(shard.state().version(), version, "nothing was published");
        assert_eq!(shard.lower_bound(u64::MAX), 4, "reads keep working");
        assert!(!shard.rebuild().unwrap(), "retired shards do not rebuild");
    }

    #[test]
    fn deleting_an_absent_key_publishes_nothing() {
        let shard = StoreShard::build(spec(), vec![1u64, 2, 3], 2).unwrap();
        let before = shard.state();
        assert_eq!(shard.try_apply(Delete(9), 41), Some((false, false)));
        let after = shard.state();
        assert!(Arc::ptr_eq(&before, &after), "no successor state");
        assert_eq!((after.version(), after.applied_cv()), (0, 0));
        assert_eq!(shard.len(), 3);
        // A delete that takes effect does stamp and publish; once the shard
        // is at its threshold a no-op delete still reports it dirty.
        assert_eq!(shard.try_apply(Delete(2), 41), Some((true, false)));
        assert_eq!(shard.try_apply(Insert(5), 40), Some((true, true)));
        let state = shard.state();
        assert_eq!((state.version(), state.applied_cv()), (2, 41), "max-folded");
        assert_eq!(shard.try_apply(Delete(2), 42), Some((false, true)));
        assert_eq!(shard.state().version(), 2);
    }
}
