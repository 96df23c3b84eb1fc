//! Immutable delta runs and the delta chain: the lock-free write ledger.
//!
//! PR 2 buffered writes in a mutex-guarded `BTreeMap`; every read locked the
//! map to merge it with the base. This module replaces that buffer with a
//! **chain of immutable, sorted delta runs**: each [`DeltaRun`] is a frozen,
//! sorted array of *(key, cumulative net occurrence delta)* pairs, and a
//! [`DeltaChain`] is a short newest-first list of `Arc`-shared runs. The
//! merged view of a shard is then
//!
//! ```text
//! count(k)        = base_count(k) + Σ_runs net_of(k)
//! lower_bound(q)  = base_lower_bound(q) + Σ_runs net_below(q)
//! ```
//!
//! where each per-run term is a binary search over an immutable array — no
//! lock is required to evaluate either sum. Writers never mutate a published
//! run: recording an operation produces a **new chain** that either replaces
//! the small head run with an amended copy (bounded by [`MAX_RUN_LEN`]) or
//! prepends a fresh singleton run; every other run is
//! shared by `Arc` with the previous chain. The chain is published to readers
//! as part of the shard's immutable state (see `shard.rs`).
//!
//! The chain's shape is fixed by two constants rather than configuration:
//! a head run is amended up to [`MAX_RUN_LEN`] entries, and a writer folds
//! the unsealed runs inline once there are [`COMPACT_RUNS`] of them.
//!
//! Three structural operations support the maintenance machinery. The
//! first two move an index over shared runs; the third combines runs, and
//! like every merge in the crate it is a call into `merge.rs`:
//!
//! * [`DeltaChain::sealed`] marks every run *sealed* (writers then start a
//!   fresh head instead of amending) — the freeze step of a rebuild or a
//!   shard split. Sealing moves an index, not data: runs are shared.
//! * [`DeltaChain::strip_sealed`] removes a previously sealed suffix after
//!   its contents were folded into a new base — what remains is exactly the
//!   writes recorded since the seal.
//! * [`DeltaChain::compact`] folds the unsealed runs into a single run
//!   (`merge::consolidate` over their nets) so chains stay short — reads
//!   pay one binary search per run.
//!
//! This module merges nothing itself: a run lends out its per-key nets as
//! a borrowing iterator (`DeltaRun::nets`), and `compact`,
//! [`DeltaChain::merge_into`] / [`DeltaChain::merge_range`] and the version
//! diff hand those to `merge::consolidate` and `merge::splice`.
//!
//! The delete-path invariant from PR 2 is unchanged and still maintained by
//! the shard's write path: a tombstone is only recorded when the merged
//! count of its key is positive, so prefix sums of net deltas never drive a
//! merged position negative.

use crate::merge;
use sosd_data::key::Key;
use std::ops::{Bound, RangeBounds};
use std::sync::Arc;

/// Entries the head run may hold and still be amended by a write; past it
/// the write opens a fresh run. Bounds the per-write copy.
pub const MAX_RUN_LEN: usize = 32;

/// Unsealed runs at which a writer folds the chain inline (the maintenance
/// worker compacts at half of it). Bounds the per-read merge at one binary
/// search per run.
pub const COMPACT_RUNS: usize = 8;

/// One immutable, sorted run of net occurrence deltas.
///
/// Entries are `(key, cumulative net delta up to and including that key)`
/// pairs sorted by key, so both [`DeltaRun::net_below`] (a prefix sum) and
/// [`DeltaRun::net_of`] (a difference of adjacent prefix sums) are one
/// binary search. Keys whose net delta cancelled to zero are dropped from
/// the entry array; the churn they represented is still counted by
/// [`DeltaRun::ops`], which feeds the rebuild threshold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaRun<K: Key> {
    /// Sorted `(key, cumulative net)` pairs; no trailing-zero-net keys.
    entries: Vec<(K, i64)>,
    /// Write operations folded into this run (cancelled pairs included).
    ops: usize,
}

impl<K: Key> DeltaRun<K> {
    /// A run holding a single operation: `net` is `+1` for an insert, `-1`
    /// for a tombstone.
    pub fn singleton(k: K, net: i64) -> Self {
        Self {
            entries: vec![(k, net)],
            ops: 1,
        }
    }

    /// Build a run from sorted per-key net deltas, dropping zero nets.
    /// `ops` is the operation count the run accounts for.
    fn from_net_pairs(pairs: impl IntoIterator<Item = (K, i64)>, ops: usize) -> Self {
        let mut entries: Vec<(K, i64)> = Vec::new();
        let mut acc = 0i64;
        for (k, net) in pairs {
            debug_assert!(
                entries.last().map(|&(p, _)| p < k).unwrap_or(true),
                "net pairs must be strictly sorted"
            );
            if net == 0 {
                continue;
            }
            acc += net;
            entries.push((k, acc));
        }
        Self { entries, ops }
    }

    /// A copy of this run with one more operation on `k` folded in. One
    /// `O(len)` pass and one allocation — this is the hot write path, which
    /// bounds `len` by [`MAX_RUN_LEN`].
    pub fn amended(&self, k: K, net: i64) -> Self {
        let mut entries: Vec<(K, i64)> = Vec::with_capacity(self.entries.len() + 1);
        let mut prev = 0i64; // previous *input* cumulative net
        let mut shift = 0i64; // correction applied to cumulatives ≥ k
        let mut inserted = false;
        for &(key, cum) in &self.entries {
            if !inserted && k <= key {
                inserted = true;
                shift = net;
                if k == key {
                    // Fold into this key; drop it if the net cancels.
                    if cum - prev + net != 0 {
                        entries.push((key, cum + shift));
                    }
                    prev = cum;
                    continue;
                }
                entries.push((k, prev + net));
            }
            entries.push((key, cum + shift));
            prev = cum;
        }
        if !inserted {
            entries.push((k, prev + net));
        }
        Self {
            entries,
            ops: self.ops + 1,
        }
    }

    /// The per-key net deltas of the keys inside `range`, sorted by key,
    /// borrowed from the run: two binary searches, then one pass over the
    /// in-range entries (the cumulative just before the range start
    /// recovers each net exactly). An inverted range is empty.
    pub(crate) fn nets(&self, range: impl RangeBounds<K>) -> impl Iterator<Item = (K, i64)> + '_ {
        let start = match range.start_bound() {
            Bound::Included(&lo) => self.entries.partition_point(|&(k, _)| k < lo),
            Bound::Excluded(&lo) => self.entries.partition_point(|&(k, _)| k <= lo),
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&hi) => self.entries.partition_point(|&(k, _)| k <= hi),
            Bound::Excluded(&hi) => self.entries.partition_point(|&(k, _)| k < hi),
            Bound::Unbounded => self.entries.len(),
        }
        .max(start);
        let mut prev = match start {
            0 => 0,
            _ => self.entries[start - 1].1,
        };
        self.entries[start..end].iter().map(move |&(k, cum)| {
            let net = cum - prev;
            prev = cum;
            (k, net)
        })
    }

    /// Sum of net deltas of all keys `< q`: one binary search.
    #[inline]
    pub fn net_below(&self, q: K) -> i64 {
        let idx = self.entries.partition_point(|&(k, _)| k < q);
        if idx == 0 {
            0
        } else {
            self.entries[idx - 1].1
        }
    }

    /// Net occurrence delta of exactly `k` (0 when absent).
    #[inline]
    pub fn net_of(&self, k: K) -> i64 {
        match self.entries.binary_search_by(|&(key, _)| key.cmp(&k)) {
            Err(_) => 0,
            Ok(i) => self.entries[i].1 - if i == 0 { 0 } else { self.entries[i - 1].1 },
        }
    }

    /// Net change to the merged key count contributed by this run.
    #[inline]
    pub fn len_delta(&self) -> i64 {
        self.entries.last().map(|&(_, cum)| cum).unwrap_or(0)
    }

    /// Number of distinct keys with a non-zero net delta.
    #[inline]
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }

    /// Write operations folded into this run.
    #[inline]
    pub fn ops(&self) -> usize {
        self.ops
    }

    /// Approximate heap footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.entries.len() * (K::size_bytes() + std::mem::size_of::<i64>())
    }
}

/// A newest-first chain of immutable delta runs, plus cached totals.
///
/// The chain itself is an immutable value: every mutation-shaped method
/// returns a new chain sharing unaffected runs by `Arc`. `runs[..unsealed]`
/// is the live prefix writers may still amend; `runs[unsealed..]` is the
/// sealed suffix a rebuild has frozen (see [`DeltaChain::sealed`]).
#[derive(Debug, Clone, Default)]
pub struct DeltaChain<K: Key> {
    /// Newest first: `runs[0]` is the head the next write amends or shadows.
    runs: Vec<Arc<DeltaRun<K>>>,
    /// Runs `[..unsealed]` are amendable; `[unsealed..]` are sealed.
    unsealed: usize,
    /// Cached `Σ runs.ops`.
    ops: usize,
    /// Cached `Σ runs.len_delta()`.
    len_delta: i64,
    /// Cached `Σ runs.entry_count()`.
    entries: usize,
}

impl<K: Key> DeltaChain<K> {
    /// The empty chain.
    pub fn new() -> Self {
        Self {
            runs: Vec::new(),
            unsealed: 0,
            ops: 0,
            len_delta: 0,
            entries: 0,
        }
    }

    /// Rebuild a chain value from its runs and seal boundary, recomputing
    /// the cached totals.
    fn from_runs(runs: Vec<Arc<DeltaRun<K>>>, unsealed: usize) -> Self {
        debug_assert!(unsealed <= runs.len());
        let ops = runs.iter().map(|r| r.ops()).sum();
        let len_delta = runs.iter().map(|r| r.len_delta()).sum();
        let entries = runs.iter().map(|r| r.entry_count()).sum();
        Self {
            runs,
            unsealed,
            ops,
            len_delta,
            entries,
        }
    }

    /// A chain of one unsealed run holding the consolidated `nets` and
    /// accounting for `ops` operations (recovery's replayed WAL tail over a
    /// cold base); the empty chain when nothing was applied.
    pub(crate) fn from_nets(nets: Vec<(K, i64)>, ops: usize) -> Self {
        if ops == 0 {
            return Self::new();
        }
        Self::from_runs(vec![Arc::new(DeltaRun::from_net_pairs(nets, ops))], 1)
    }

    /// Record one operation (`net` is `+1` insert / `-1` tombstone),
    /// returning the successor chain. The head run is amended in place-by-
    /// copy while it stays below `max_run_len` (the store passes
    /// [`MAX_RUN_LEN`]) and unsealed; otherwise a fresh singleton run is
    /// prepended.
    pub fn with_op(&self, k: K, net: i64, max_run_len: usize) -> Self {
        let mut runs = self.runs.clone();
        let mut unsealed = self.unsealed;
        let amend = unsealed > 0
            && runs
                .first()
                .map(|r| r.entry_count() < max_run_len.max(1))
                .unwrap_or(false);
        if amend {
            runs[0] = Arc::new(runs[0].amended(k, net));
        } else {
            runs.insert(0, Arc::new(DeltaRun::singleton(k, net)));
            unsealed += 1;
        }
        Self::from_runs(runs, unsealed)
    }

    /// Sum of net deltas of all keys `< q`: one binary search per run.
    #[inline]
    pub fn net_below(&self, q: K) -> i64 {
        self.runs.iter().map(|r| r.net_below(q)).sum()
    }

    /// Net occurrence delta of exactly `k` across the whole chain.
    #[inline]
    pub fn net_of(&self, k: K) -> i64 {
        self.runs.iter().map(|r| r.net_of(k)).sum()
    }

    /// Batched [`DeltaChain::net_below`]: accumulate the prefix sum of every
    /// query into `acc` (callers zero it first). The loop nest is
    /// **run-outer** so one run's entry array stays cache-resident across
    /// the whole query block — the chain-side half of the store's batch
    /// read path (see `shard.rs`).
    pub fn net_below_batch(&self, queries: &[K], acc: &mut [i64]) {
        debug_assert_eq!(queries.len(), acc.len());
        for run in &self.runs {
            for (a, &q) in acc.iter_mut().zip(queries.iter()) {
                *a += run.net_below(q);
            }
        }
    }

    /// Net change to the merged key count (cached).
    #[inline]
    pub fn len_delta(&self) -> i64 {
        self.len_delta
    }

    /// Write operations recorded in the chain (cancelled churn included).
    #[inline]
    pub fn ops(&self) -> usize {
        self.ops
    }

    /// Total non-zero-net entries across all runs. Zero means reads can
    /// skip the merge machinery entirely (the empty-delta fast path).
    #[inline]
    pub fn entry_count(&self) -> usize {
        self.entries
    }

    /// True when no run carries any net delta *and* no churn is recorded.
    pub fn is_clean(&self) -> bool {
        self.ops == 0 && self.entries == 0
    }

    /// Number of runs in the chain.
    #[inline]
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Number of unsealed (amendable) runs at the head of the chain.
    #[inline]
    pub fn unsealed_run_count(&self) -> usize {
        self.unsealed
    }

    /// The chain with every run sealed: writers will start a fresh head run,
    /// leaving the sealed suffix byte-identical (and `Arc`-shared) until
    /// [`DeltaChain::strip_sealed`] removes it. Moves an index, not data.
    pub fn sealed(&self) -> Self {
        let mut chain = self.clone();
        chain.unsealed = 0;
        chain
    }

    /// The chain with every run unsealed again — the rollback of a seal
    /// whose consumer abandoned its rebuild/split (e.g. the shard turned
    /// out to be dominated by one duplicate run). Only safe while the
    /// caller holds the shard's rebuild guard: no one else may be counting
    /// on the sealed suffix. Moves an index, not data.
    pub fn unsealed_all(&self) -> Self {
        let mut chain = self.clone();
        chain.unsealed = chain.runs.len();
        chain
    }

    /// Remove the sealed suffix previously captured by `frozen` (a chain
    /// returned by [`DeltaChain::sealed`]): what remains is exactly the runs
    /// recorded since the seal. The suffix is matched structurally — the
    /// frozen runs must still sit, `Arc`-identical, at the tail of `self`.
    pub fn strip_sealed(&self, frozen: &Self) -> Self {
        let f = frozen.runs.len();
        // lint: allow(panic) structural invariant: a shorter chain means the seal was violated; stripping anyway would drop live runs
        assert!(
            self.runs.len() >= f,
            "strip_sealed: chain shorter than its frozen suffix"
        );
        let keep = self.runs.len() - f;
        if f > 0 {
            // lint: allow(panic) structural invariant: a moved suffix means concurrent mutation of sealed runs; continuing would double-apply them
            assert!(
                Arc::ptr_eq(&self.runs[keep], &frozen.runs[0]),
                "strip_sealed: sealed suffix was modified concurrently"
            );
        }
        debug_assert!(self.unsealed <= keep, "writers amended a sealed run");
        Self::from_runs(self.runs[..keep].to_vec(), self.unsealed)
    }

    /// Fold the unsealed runs into one run, leaving the sealed suffix
    /// untouched. Returns `self` unchanged when fewer than two unsealed runs
    /// exist. Keeps read cost at one binary search per run.
    pub fn compact(&self) -> Self {
        if self.unsealed < 2 {
            return self.clone();
        }
        let live = &self.runs[..self.unsealed];
        let ops = live.iter().map(|r| r.ops()).sum();
        let folded = merge::consolidate(live.iter().flat_map(|r| r.nets(..)));
        let mut runs: Vec<Arc<DeltaRun<K>>> =
            Vec::with_capacity(1 + self.runs.len() - self.unsealed);
        let folded = DeltaRun::from_net_pairs(folded, ops);
        let unsealed = if folded.entry_count() == 0 && folded.ops() == 0 {
            0
        } else {
            runs.push(Arc::new(folded));
            1
        };
        runs.extend(self.runs[self.unsealed..].iter().cloned());
        Self::from_runs(runs, unsealed)
    }

    /// The chain's per-key nets inside `range`, run by run and **not** yet
    /// folded — what a caller hands to `merge::consolidate`, alone or with
    /// other sources (the version diff adds a second chain, negated). Each
    /// run is sub-sliced by binary search, so a bounded range pays for the
    /// entries inside it, never the whole chain.
    pub(crate) fn nets<'a>(
        &'a self,
        range: impl RangeBounds<K> + Clone + 'a,
    ) -> impl Iterator<Item = (K, i64)> + 'a {
        self.runs.iter().flat_map(move |r| r.nets(range.clone()))
    }

    /// Merge the chain's net deltas into a sorted base column, producing the
    /// new sorted key column: inserted occurrences are spliced in at their
    /// sorted positions, tombstoned occurrences are dropped from their
    /// duplicate run.
    pub fn merge_into(&self, base: &[K]) -> Vec<K> {
        merge::splice(base, &merge::consolidate(self.nets(..)))
    }

    /// Merge only the chain entries with keys in `lo ..= hi` into `base`,
    /// which must be the base column restricted to exactly that key range
    /// (full duplicate runs included) — the bounded form
    /// [`crate::ShardState::merged_range_keys`] (snapshot scans) uses. An
    /// inverted range merges nothing.
    pub fn merge_range(&self, base: &[K], lo: K, hi: K) -> Vec<K> {
        merge::splice(base, &merge::consolidate(self.nets(lo..=hi)))
    }

    /// Split the chain at `split_key`: per-key nets strictly below the key
    /// go left, the rest right. Run structure is preserved per side; each
    /// side's operation count is re-derived as `Σ |net|` of its entries (the
    /// churn of cancelled pairs cannot be attributed to a side and is
    /// dropped — it only ever under-counts dirtiness).
    pub fn partition(&self, split_key: K) -> (Self, Self) {
        let mut left: Vec<Arc<DeltaRun<K>>> = Vec::new();
        let mut right: Vec<Arc<DeltaRun<K>>> = Vec::new();
        let side = |nets: Vec<(K, i64)>| {
            let ops = nets.iter().map(|&(_, n)| n.unsigned_abs() as usize).sum();
            DeltaRun::from_net_pairs(nets, ops)
        };
        for run in &self.runs {
            let l = side(run.nets(..split_key).collect());
            let r = side(run.nets(split_key..).collect());
            if l.entry_count() > 0 {
                left.push(Arc::new(l));
            }
            if r.entry_count() > 0 {
                right.push(Arc::new(r));
            }
        }
        let lu = left.len();
        let ru = right.len();
        (Self::from_runs(left, lu), Self::from_runs(right, ru))
    }

    /// Concatenate two chains (used when two adjacent shards merge): the
    /// runs of both sides coexist, every read sums across all of them.
    pub fn concat(&self, other: &Self) -> Self {
        let mut runs = self.runs.clone();
        runs.extend(other.runs.iter().cloned());
        let unsealed = runs.len();
        Self::from_runs(runs, unsealed)
    }

    /// Approximate heap footprint of the chain in bytes.
    pub fn size_bytes(&self) -> usize {
        self.runs.iter().map(|r| r.size_bytes() + 16).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn chain_of(ops: &[(u64, i64)], max_run_len: usize) -> DeltaChain<u64> {
        let mut c = DeltaChain::new();
        for &(k, net) in ops {
            c = c.with_op(k, net, max_run_len);
        }
        c
    }

    #[test]
    fn run_prefix_sums_and_point_nets() {
        let run = DeltaRun::singleton(5u64, 1)
            .amended(2, 2)
            .amended(7, -1)
            .amended(9, 1);
        assert_eq!(run.ops(), 4);
        assert_eq!(run.net_below(0), 0);
        assert_eq!(run.net_below(2), 0);
        assert_eq!(run.net_below(3), 2);
        assert_eq!(run.net_below(8), 2);
        assert_eq!(run.net_below(u64::MAX), 3);
        assert_eq!(run.net_of(2), 2);
        assert_eq!(run.net_of(7), -1);
        assert_eq!(run.net_of(4), 0);
        assert_eq!(run.len_delta(), 3);
    }

    #[test]
    fn amend_cancellation_drops_the_entry_but_keeps_ops() {
        let run = DeltaRun::singleton(5u64, 1).amended(5, -1);
        assert_eq!(run.entry_count(), 0, "net cancelled to zero");
        assert_eq!(run.ops(), 2, "churn still counts towards dirtiness");
        assert_eq!(run.len_delta(), 0);
    }

    #[test]
    fn chain_bookkeeping_matches_a_reference_map() {
        let ops: Vec<(u64, i64)> = vec![
            (2, 1),
            (2, 1),
            (7, -1),
            (9, 1),
            (2, -1),
            (100, 1),
            (50, 1),
            (50, -1),
        ];
        for max_run_len in [1usize, 2, 4, 64] {
            let c = chain_of(&ops, max_run_len);
            assert_eq!(c.ops(), ops.len());
            assert_eq!(c.len_delta(), ops.iter().map(|&(_, n)| n).sum::<i64>());
            let mut reference: BTreeMap<u64, i64> = BTreeMap::new();
            for &(k, n) in &ops {
                *reference.entry(k).or_insert(0) += n;
            }
            for q in [0u64, 1, 2, 3, 7, 8, 9, 10, 50, 51, 100, u64::MAX] {
                let expect: i64 = reference
                    .iter()
                    .filter(|&(&k, _)| k < q)
                    .map(|(_, &n)| n)
                    .sum();
                assert_eq!(c.net_below(q), expect, "q={q} max_run_len={max_run_len}");
                assert_eq!(
                    c.net_of(q),
                    reference.get(&q).copied().unwrap_or(0),
                    "net_of {q}"
                );
            }
        }
    }

    #[test]
    fn net_below_batch_matches_scalar_and_accumulates() {
        let ops: Vec<(u64, i64)> = vec![(2, 1), (2, 1), (7, -1), (9, 1), (50, 1), (50, -1)];
        for max_run_len in [1usize, 2, 64] {
            let c = chain_of(&ops, max_run_len);
            let queries = [0u64, 2, 3, 7, 8, 9, 10, 50, 51, u64::MAX];
            let mut acc = [0i64; 10];
            c.net_below_batch(&queries, &mut acc);
            for (&q, &a) in queries.iter().zip(acc.iter()) {
                assert_eq!(a, c.net_below(q), "q={q} max_run_len={max_run_len}");
            }
            // The batch accumulates into (not overwrites) the scratch, so a
            // pre-seeded accumulator keeps its floor.
            let mut seeded = [100i64; 10];
            c.net_below_batch(&queries, &mut seeded);
            for (&q, &a) in queries.iter().zip(seeded.iter()) {
                assert_eq!(a, 100 + c.net_below(q), "seeded q={q}");
            }
        }
        // The empty chain is a no-op.
        let mut acc = [7i64; 3];
        DeltaChain::<u64>::new().net_below_batch(&[1, 2, 3], &mut acc);
        assert_eq!(acc, [7, 7, 7]);
    }

    #[test]
    fn run_length_bound_controls_chain_growth() {
        let ops: Vec<(u64, i64)> = (0..64u64).map(|i| (i * 3, 1)).collect();
        let tight = chain_of(&ops, 4);
        assert_eq!(tight.run_count(), 16, "64 ops in runs of 4");
        let loose = chain_of(&ops, 64);
        assert_eq!(loose.run_count(), 1);
        assert_eq!(tight.net_below(u64::MAX), loose.net_below(u64::MAX));
    }

    #[test]
    fn compact_folds_unsealed_runs_only() {
        let c = chain_of(&[(1, 1), (2, 1), (3, 1), (4, 1)], 1);
        assert_eq!(c.run_count(), 4);
        let sealed = c.sealed();
        // Writes after the seal start fresh runs.
        let c2 = sealed.with_op(10, 1, 1).with_op(11, 1, 1).with_op(12, 1, 1);
        assert_eq!(c2.run_count(), 7);
        assert_eq!(c2.unsealed_run_count(), 3);
        let compacted = c2.compact();
        assert_eq!(compacted.run_count(), 5, "3 unsealed folded into 1");
        assert_eq!(compacted.unsealed_run_count(), 1);
        assert_eq!(compacted.ops(), c2.ops());
        assert_eq!(compacted.len_delta(), c2.len_delta());
        for q in [0u64, 2, 5, 11, 100] {
            assert_eq!(compacted.net_below(q), c2.net_below(q), "q={q}");
        }
        // Fully-cancelling unsealed runs fold to an entry-less run that
        // still carries the churn (ops feed the rebuild threshold).
        let cancel = DeltaChain::new()
            .sealed()
            .with_op(5, 1, 1)
            .with_op(5, -1, 1);
        let compacted = cancel.compact();
        assert_eq!(compacted.run_count(), 1);
        assert_eq!(compacted.entry_count(), 0);
        assert_eq!(compacted.ops(), 2);
        assert_eq!(compacted.net_below(u64::MAX), 0);
    }

    #[test]
    fn seal_then_strip_leaves_the_residual() {
        let c = chain_of(&[(1, 1), (2, 1)], 64);
        let frozen = c.sealed();
        // Writes arriving "during the rebuild".
        let live = frozen.with_op(2, 1, 64).with_op(1, -1, 64);
        assert_eq!(live.run_count(), 2, "post-seal ops opened a fresh head");
        let residual = live.strip_sealed(&frozen);
        assert_eq!(residual.net_of(1), -1, "the in-flight delete survives");
        assert_eq!(residual.net_of(2), 1, "the in-flight insert survives");
        assert_eq!(residual.ops(), 2);
        // Stripping an empty freeze is the identity.
        let empty = DeltaChain::<u64>::new();
        assert_eq!(c.strip_sealed(&empty.sealed()).ops(), c.ops());
    }

    #[test]
    fn merge_splices_inserts_and_drops_tombstones() {
        let base = vec![1u64, 4, 4, 4, 9];
        let c = chain_of(&[(0, 1), (4, 1), (9, -1), (12, 1), (12, 1)], 2);
        assert_eq!(c.merge_into(&base), vec![0, 1, 4, 4, 4, 4, 12, 12]);

        // Deleting from the middle of a run shortens it.
        let c = chain_of(&[(4, -1), (4, -1)], 2);
        assert_eq!(c.merge_into(&base), vec![1, 4, 9]);

        // Empty base: only inserts can exist.
        let c = chain_of(&[(3, 1), (1, 1), (3, 1)], 1);
        assert_eq!(c.merge_into(&[]), vec![1, 3, 3]);
        assert_eq!(DeltaChain::<u64>::new().merge_into(&[]), Vec::<u64>::new());
    }

    #[test]
    fn merge_range_agrees_with_the_full_merge() {
        let base = vec![1u64, 4, 4, 4, 9, 12, 15];
        let c = chain_of(&[(0, 1), (4, 1), (9, -1), (13, 1), (13, 1), (4, -1)], 2);
        let full = c.merge_into(&base);
        // Inverted range: empty pair set, base passed through (no panic).
        assert_eq!(c.merge_range(&[], 10, 1), Vec::<u64>::new());
        for (lo, hi) in [(0u64, u64::MAX), (4, 9), (2, 13), (5, 8), (13, 13)] {
            let start = base.partition_point(|&x| x < lo);
            let end = base.partition_point(|&x| x <= hi);
            let got = c.merge_range(&base[start..end], lo, hi);
            let expect: Vec<u64> = full
                .iter()
                .copied()
                .filter(|&k| lo <= k && k <= hi)
                .collect();
            assert_eq!(got, expect, "[{lo}, {hi}]");
        }
    }

    #[test]
    fn partition_splits_nets_at_the_key() {
        let c = chain_of(&[(1, 1), (5, 1), (5, 1), (9, -1), (3, -1)], 2);
        let (l, r) = c.partition(5);
        assert_eq!(l.net_of(1), 1);
        assert_eq!(l.net_of(3), -1);
        assert_eq!(l.net_of(5), 0, "split key goes right");
        assert_eq!(r.net_of(5), 2);
        assert_eq!(r.net_of(9), -1);
        assert_eq!(l.len_delta() + r.len_delta(), c.len_delta());
        assert_eq!(
            l.net_below(u64::MAX) + r.net_below(u64::MAX),
            c.net_below(u64::MAX)
        );
        // Both sides stay amendable.
        assert_eq!(l.unsealed_run_count(), l.run_count());
    }

    #[test]
    fn concat_sums_both_sides() {
        let a = chain_of(&[(1, 1), (2, 1)], 64);
        let b = chain_of(&[(10, 1), (11, -1)], 64);
        let c = a.concat(&b);
        assert_eq!(c.ops(), 4);
        assert_eq!(c.len_delta(), 2);
        assert_eq!(c.net_below(5), 2);
        assert_eq!(c.net_below(u64::MAX), 2);
        assert_eq!(c.net_of(11), -1);
    }

    #[test]
    fn published_chains_share_runs_structurally() {
        let a = chain_of(&[(1, 1)], 1);
        let b = a.with_op(2, 1, 1); // new head, old run shared
        assert_eq!(b.run_count(), 2);
        assert!(Arc::ptr_eq(&a.runs[0], &b.runs[1]));
        // Amending within the run bound copies the head only.
        let c = chain_of(&[(1, 1)], 8);
        let d = c.with_op(2, 1, 8);
        assert_eq!(d.run_count(), 1);
        assert!(!Arc::ptr_eq(&c.runs[0], &d.runs[0]));
    }
}
