//! Store-wide consistent read views: the [`StoreSnapshot`] handle.
//!
//! A [`StoreSnapshot`] is the store's first-class **unit of consistency**:
//! one pinned [`StoreTable`] (fence router + shard list) paired with a
//! vector of per-shard [`ShardState`]s, pinned together while no commit was
//! part-published (under the store's commit window — the protocol is in
//! `cut.rs`). The snapshot therefore reflects **exactly** the writes with
//! commit version `<= version()`, across every shard at once, and every
//! read evaluated against it is repeatable forever: scalar lower bounds,
//! batched lookups, ranges, counts and key scans all answer from the same
//! immutable cut no matter how many writers, rebuilds, splits or merges
//! race the caller.
//!
//! Acquiring a snapshot between writes shares the cut the store already
//! published: one cell load and a version check, no lock held afterwards.
//! The first acquisition after a write (or a maintenance swap) takes the
//! commit window for the microseconds one sweep of `Arc` loads needs — it
//! waits for a commit that is mid-publication, never for a WAL sync, a
//! rebuild or a rebalance — and publishes what it pinned for the reads
//! that follow. Holding a snapshot only pins memory — old epochs stay
//! alive until the last snapshot referencing them drops.
//!
//! [`ShardedStore`](crate::ShardedStore)'s own read methods are one-shot
//! conveniences that pin a fresh snapshot per call; take an explicit
//! snapshot whenever two reads must agree with each other.

use crate::obs::{HydrationReason, StoreObs, TraceEvent, TraceKind, ACCESS_SAMPLE_SHIFT};
use crate::shard::ShardState;
use crate::sharded::StoreTable;
use crate::worker::WorkerSignal;
use algo_index::search::RangeIndex;
use shift_obs::SampledTimer;
use sosd_data::key::Key;
use std::sync::Arc;

/// The observability hook a store snapshot carries: the store's metric
/// registry plus the maintenance-worker signal the hydrate-on-first-touch
/// path kicks. Built once per store; a snapshot clones the one `Arc`.
/// `None` only for a commit's own validation reads.
pub(crate) struct SnapshotHook {
    pub(crate) obs: Arc<StoreObs>,
    pub(crate) signal: Arc<WorkerSignal>,
}

/// A consistent store-wide cut without the observability hook: the pinned
/// table, the per-shard state vector and its precomputed offsets. Built
/// once under the commit window and shared behind one `Arc` by the store's
/// published-cut slot, every [`StoreSnapshot`] taken while it is current
/// and the MVCC version ring.
pub(crate) struct PinnedCut<K: Key> {
    pub(crate) table: Arc<StoreTable<K>>,
    pub(crate) states: Vec<Arc<ShardState<K>>>,
    /// Global position offset of each shard in the merged view.
    pub(crate) offsets: Vec<usize>,
    pub(crate) total: usize,
    pub(crate) version: u64,
    /// The store's maintenance generation when the states were pinned: a
    /// cut stamped below the live generation may hold pre-swap structures.
    pub(crate) swaps: u64,
}

impl<K: Key> PinnedCut<K> {
    /// Assemble a cut from a table and state vector pinned under the commit
    /// window, which is what makes the pair consistent at `version`.
    pub(crate) fn new(
        table: Arc<StoreTable<K>>,
        states: Vec<Arc<ShardState<K>>>,
        version: u64,
        swaps: u64,
    ) -> Self {
        let mut offsets = Vec::with_capacity(states.len());
        let mut total = 0usize;
        for state in &states {
            offsets.push(total);
            total += state.merged_len();
        }
        Self {
            table,
            states,
            offsets,
            total,
            version,
            swaps,
        }
    }
}

/// A pinned, immutable, store-wide consistent read view (see the module
/// docs). Cheap to clone conceptually — but not `Clone`: take a fresh
/// snapshot instead, or share one behind `Arc`.
pub struct StoreSnapshot<K: Key> {
    cut: Arc<PinnedCut<K>>,
    hook: Option<Arc<SnapshotHook>>,
}

impl<K: Key> StoreSnapshot<K> {
    /// Wrap a shared cut — the published one or a retained version.
    pub(crate) fn from_cut(cut: Arc<PinnedCut<K>>, hook: Option<Arc<SnapshotHook>>) -> Self {
        Self { cut, hook }
    }

    /// Count `n` read operations against the store registry and maybe start
    /// a sampled latency timer (disarmed without a hook).
    #[inline]
    fn reads_start(&self, n: u64) -> SampledTimer {
        match &self.hook {
            Some(hook) => hook.obs.reads_start(n),
            None => SampledTimer::disarmed(),
        }
    }

    /// Finish a timer from [`StoreSnapshot::reads_start`].
    #[inline]
    fn reads_done(&self, timer: SampledTimer) {
        if let Some(hook) = &self.hook {
            hook.obs.reads_done(timer);
        }
    }

    /// Account `n` reads resolving to pinned shard `s`: bump its decayed
    /// access counter (sampled 1-in-64, recorded scaled so the counter
    /// still estimates the true rate — unsampled reads pay no per-shard
    /// RMW), and — when the *live* shard is still cold — enqueue its
    /// hydration (hydrate-on-first-touch). The first touching read wins
    /// the request flag, emits one `HydrationTriggered{FirstTouch}` trace
    /// event and kicks the maintenance signal; the hydrator and the worker
    /// prioritise requested shards over sweep order. The cold-shard check
    /// is never sampled: a first touch must always register.
    #[inline]
    fn touch(&self, s: usize, n: u64) {
        let Some(hook) = &self.hook else { return };
        if hook.obs.access_sampled() {
            self.cut.table.shards()[s].record_accesses(n << ACCESS_SAMPLE_SHIFT);
        }
        // The pinned state's coldness is a cheap pre-filter; re-check the
        // live shard so a since-hydrated (or re-sharded) one is never
        // re-requested.
        if self.cut.states[s].snapshot().is_cold() {
            let shard = &self.cut.table.shards()[s];
            if shard.snapshot().is_cold() && shard.request_hydration() {
                hook.obs.emit(TraceEvent::shard(
                    TraceKind::HydrationTriggered,
                    s,
                    self.cut.version,
                    HydrationReason::FirstTouch.code(),
                ));
                hook.signal.kick();
            }
        }
    }

    /// The store-wide commit version this snapshot is exact at: every write
    /// stamped at or below it is visible, none above it is.
    pub fn version(&self) -> u64 {
        self.cut.version
    }

    /// The topology epoch the snapshot pinned.
    pub fn table(&self) -> &Arc<StoreTable<K>> {
        &self.cut.table
    }

    /// The pinned per-shard states, in router order.
    pub fn states(&self) -> &[Arc<ShardState<K>>] {
        &self.cut.states
    }

    /// Number of shards in the pinned topology.
    pub fn shard_count(&self) -> usize {
        self.cut.states.len()
    }

    /// Merged occurrence count of exactly `k` at this snapshot.
    pub fn count_of(&self, k: K) -> usize {
        let timer = self.reads_start(1);
        let s = self.cut.table.router().shard_of(k);
        let n = self.cut.states[s].count_of(k);
        self.touch(s, 1);
        self.reads_done(timer);
        n
    }

    /// Materialise every key in `lo ..= hi` at this snapshot, in sorted
    /// order — the snapshot scan. Cost is bounded by the result size plus
    /// two probes per touched shard, never a whole-shard merge. The start
    /// positions come from each pinned index's `range`, which the corrected
    /// index answers through its batched kernel (both endpoints travel as
    /// one two-query batch).
    pub fn scan(&self, lo: K, hi: K) -> Vec<K> {
        let timer = self.reads_start(1);
        if lo > hi || self.cut.total == 0 {
            self.reads_done(timer);
            return Vec::new();
        }
        let router = self.cut.table.router();
        let (s_lo, s_hi) = (router.shard_of(lo), router.shard_of(hi));
        let mut out = Vec::new();
        for (s, state) in (s_lo..=s_hi).zip(&self.cut.states[s_lo..=s_hi]) {
            out.extend(state.merged_range_keys(lo, hi));
            self.touch(s, 1);
        }
        self.reads_done(timer);
        out
    }
}

impl<K: Key> RangeIndex<K> for StoreSnapshot<K> {
    fn lower_bound(&self, q: K) -> usize {
        let timer = self.reads_start(1);
        let s = self.cut.table.router().shard_of(q);
        let pos = self.cut.offsets[s] + self.cut.states[s].lower_bound(q);
        self.touch(s, 1);
        self.reads_done(timer);
        pos
    }

    /// Batched lookups grouped by shard: the queries are bucketed through
    /// the router, each bucket runs its shard's batch kernel (see
    /// [`shift_table::kernel`]) over the pinned state — one stage-blocked
    /// call per shard, so the block-overlapped read path serves store-wide
    /// batches too — and the results are scattered back with the
    /// shard's global offset applied. Resolved entirely against the pinned
    /// cut: exact even while writers race the caller.
    fn lower_bound_batch(&self, queries: &[K], out: &mut [usize]) {
        // lint: allow(panic) API contract: slices must be equal length — zip-truncating would silently serve wrong positions
        assert_eq!(
            queries.len(),
            out.len(),
            "lower_bound_batch requires queries and out of equal length"
        );
        let timer = self.reads_start(queries.len() as u64);
        let states = &self.cut.states;
        if states.len() == 1 {
            states[0].lower_bound_batch(queries, out);
            self.touch(0, queries.len() as u64);
            self.reads_done(timer);
            return;
        }
        let router = self.cut.table.router();
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); states.len()];
        for (i, &q) in queries.iter().enumerate() {
            buckets[router.shard_of(q)].push(i);
        }
        let mut shard_queries: Vec<K> = Vec::new();
        let mut shard_out: Vec<usize> = Vec::new();
        for (s, bucket) in buckets.iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            shard_queries.clear();
            shard_queries.extend(bucket.iter().map(|&i| queries[i]));
            shard_out.clear();
            shard_out.resize(bucket.len(), 0);
            states[s].lower_bound_batch(&shard_queries, &mut shard_out);
            self.touch(s, bucket.len() as u64);
            for (&i, &pos) in bucket.iter().zip(shard_out.iter()) {
                out[i] = self.cut.offsets[s] + pos;
            }
        }
        self.reads_done(timer);
    }

    fn range(&self, lo: K, hi: K) -> std::ops::Range<usize> {
        let timer = self.reads_start(1);
        if lo > hi || self.cut.total == 0 {
            self.reads_done(timer);
            return 0..0;
        }
        let router = self.cut.table.router();
        let s_lo = router.shard_of(lo);
        let range = match hi.checked_next() {
            Some(h) => {
                let s_hi = router.shard_of(h);
                if s_lo == s_hi {
                    // Both endpoints resolve inside one pinned state: ride
                    // the shard's two-query batch through the kernel.
                    let queries = [lo, h];
                    let mut out = [0usize; 2];
                    self.cut.states[s_lo].lower_bound_batch(&queries, &mut out);
                    self.touch(s_lo, 1);
                    let start = self.cut.offsets[s_lo] + out[0];
                    start..(self.cut.offsets[s_lo] + out[1]).max(start)
                } else {
                    let start = self.cut.offsets[s_lo] + self.cut.states[s_lo].lower_bound(lo);
                    let end = self.cut.offsets[s_hi] + self.cut.states[s_hi].lower_bound(h);
                    self.touch(s_lo, 1);
                    self.touch(s_hi, 1);
                    start..end.max(start)
                }
            }
            None => {
                let start = self.cut.offsets[s_lo] + self.cut.states[s_lo].lower_bound(lo);
                self.touch(s_lo, 1);
                start..self.cut.total
            }
        };
        self.reads_done(timer);
        range
    }

    fn len(&self) -> usize {
        self.cut.total
    }

    fn index_size_bytes(&self) -> usize {
        let routing = self.cut.table.router().fences().len() * K::size_bytes()
            + self.cut.offsets.len() * std::mem::size_of::<usize>();
        routing
            + self
                .cut
                .states
                .iter()
                .map(|s| s.snapshot().index().index_size_bytes() + s.delta().size_bytes())
                .sum::<usize>()
    }

    fn name(&self) -> &'static str {
        "StoreSnapshot"
    }
}

#[cfg(test)]
mod tests {
    use crate::{ShardedStore, StoreConfig, WriteBatch};
    use algo_index::RangeIndex;
    use shift_table::snapshot::SnapshotRead;
    use shift_table::spec::IndexSpec;

    fn store(shards: usize, keys: &[u64]) -> ShardedStore<u64> {
        let config = StoreConfig::new(IndexSpec::parse("im+r1").unwrap())
            .shards(shards)
            .delta_threshold(1_000_000)
            .auto_rebuild(false);
        ShardedStore::build(config, keys).unwrap()
    }

    #[test]
    fn a_snapshot_is_repeatable_across_writes_rebuilds_and_rebalances() {
        let keys: Vec<u64> = (0..8_000u64).map(|i| i * 2).collect();
        let store = store(4, &keys);
        store.insert(5).unwrap();
        let snap = store.snapshot();
        let v = snap.version();
        assert_eq!(v, 1, "one write so far");
        let frozen_lb: Vec<usize> = (0..20).map(|i| snap.lower_bound(i * 997)).collect();
        let frozen_scan = snap.scan(100, 300);
        assert_eq!(snap.len(), 8_001);

        // Churn everything: writes, a full flush (rebuilds), a rebalance.
        for k in 0..2_000u64 {
            store.insert(k * 3 + 1).unwrap();
        }
        store.flush().unwrap();
        store.rebalance().unwrap();
        assert!(store.delete(5).unwrap());

        // The pinned snapshot still answers from its own cut.
        assert_eq!(snap.version(), v);
        assert_eq!(snap.len(), 8_001);
        assert_eq!(
            (0..20)
                .map(|i| snap.lower_bound(i * 997))
                .collect::<Vec<_>>(),
            frozen_lb
        );
        assert_eq!(snap.scan(100, 300), frozen_scan);
        // A fresh snapshot sees the new world, at a higher version.
        let newer = store.snapshot();
        assert!(newer.version() > v);
        assert_eq!(newer.len(), 10_000);
    }

    #[test]
    fn snapshot_reads_agree_with_direct_reads_when_quiescent() {
        let keys: Vec<u64> = (0..5_000u64).map(|i| i * 3).collect();
        let store = store(4, &keys);
        for k in [7u64, 7, 9_000, 14_999] {
            store.insert(k).unwrap();
        }
        assert!(store.delete(9_000).unwrap());
        let snap = store.snapshot();
        let probes: Vec<u64> = (0..200).map(|i| i * 83).collect();
        for &q in &probes {
            assert_eq!(snap.lower_bound(q), store.lower_bound(q), "q={q}");
            assert_eq!(snap.count_of(q), store.count_of(q), "count {q}");
        }
        assert_eq!(
            snap.lower_bound_many(&probes),
            store.lower_bound_many(&probes)
        );
        assert_eq!(snap.range(100, 2_000), store.range(100, 2_000));
        assert_eq!(snap.range(3, 2), 0..0);
        assert_eq!(snap.len(), store.len());
        assert!(snap.index_size_bytes() > 0);
        assert_eq!(snap.name(), "StoreSnapshot");
        assert_eq!(snap.shard_count(), snap.states().len());
        assert_eq!(snap.table().shards().len(), snap.shard_count());
    }

    #[test]
    fn scan_materialises_exactly_the_range() {
        let keys = vec![1u64, 4, 4, 9, 12, 12, 12, 30];
        let empty = store(2, &[]);
        let store = store(2, &keys);
        store.insert(4).unwrap();
        store.insert(13).unwrap();
        assert!(store.delete(12).unwrap());
        let snap = store.snapshot();
        assert_eq!(snap.scan(4, 12), vec![4, 4, 4, 9, 12, 12]);
        assert_eq!(snap.scan(0, u64::MAX), vec![1, 4, 4, 4, 9, 12, 12, 13, 30]);
        assert_eq!(snap.scan(5, 8), Vec::<u64>::new());
        assert_eq!(snap.scan(9, 3), Vec::<u64>::new(), "inverted range");
        // Scan agrees with the positional range on the same snapshot.
        assert_eq!(snap.scan(4, 12).len(), snap.range(4, 12).len());
        // The empty store scans empty.
        assert_eq!(empty.snapshot().scan(0, u64::MAX), Vec::<u64>::new());
    }

    #[test]
    fn write_batches_apply_atomically_in_staging_order() {
        let keys: Vec<u64> = (0..4_000u64).collect();
        let store = store(4, &keys);
        let before = store.snapshot();

        let mut batch = WriteBatch::new();
        batch.insert(10_000).delete(10_000).insert(5).delete(3_999);
        batch.delete(77_777); // absent: a logged no-op
        let receipt = store.apply(&batch).unwrap();
        assert_eq!(receipt.inserted, 2);
        assert_eq!(receipt.deleted, 2, "the absent delete is a no-op");
        assert!(receipt.commit_version > before.version());

        let after = store.snapshot();
        assert_eq!(after.len(), 4_000, "net zero: +2 −2");
        assert_eq!(after.count_of(10_000), 0, "in-batch delete saw the insert");
        assert_eq!(after.count_of(5), 2);
        assert_eq!(after.count_of(3_999), 0);
        // The pre-batch snapshot is untouched.
        assert_eq!(before.count_of(5), 1);
        assert_eq!(before.len(), 4_000);

        // Empty batches assign no version and write nothing.
        let receipt = store.apply(&WriteBatch::new()).unwrap();
        assert_eq!(receipt, crate::BatchReceipt::default());
        assert_eq!(store.snapshot().version(), after.version());
    }

    #[test]
    fn snapshot_read_trait_is_usable_generically() {
        fn oldest_version<K: sosd_data::key::Key, S: SnapshotRead<K>>(s: &S) -> usize {
            s.snapshot().len()
        }
        let keys: Vec<u64> = (0..100u64).collect();
        let store = store(2, &keys);
        assert_eq!(oldest_version(&store), 100);
        // The view drops into RangeIndex-generic harnesses.
        let view: Box<dyn RangeIndex<u64>> = Box::new(SnapshotRead::snapshot(&store));
        assert_eq!(view.lower_bound(50), 50);
    }
}
