//! Immutable delta runs and the delta chain: the lock-free write ledger.
//!
//! PR 2 buffered writes in a mutex-guarded `BTreeMap`; every read locked the
//! map to merge it with the base. This module replaces that buffer with a
//! **chain of immutable, sorted delta runs**: each [`DeltaRun`] is a frozen
//! pair of columns in one buffer — its keys, sorted, and beside them each
//! key's *cumulative net occurrence delta* as an `i32` — and a
//! [`DeltaChain`] is a short newest-first list of runs whose buffers are
//! `Arc`-shared. The merged view of a shard is then
//!
//! ```text
//! count(k)        = base_count(k) + Σ_runs net_of(k)
//! lower_bound(q)  = base_lower_bound(q) + Σ_runs net_below(q)
//! ```
//!
//! where each per-run term is a binary search over the run's key column —
//! no lock is required to evaluate either sum. Writers never mutate a
//! published run: recording an operation produces a **new chain** that
//! either replaces the small head run with an amended copy (bounded by
//! [`MAX_RUN_LEN`]) or prepends a fresh singleton run; every other run's
//! buffer is shared with the previous chain. The chain is published to
//! readers as part of the shard's immutable state (see `shard.rs`).
//!
//! No run's cumulative ever leaves `i32`: a write whose amendment would
//! push one out opens a fresh head run instead, and a fold starts a new run
//! where its cumulative would leave it. Every read sums over runs, so the
//! split changes no answer.
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
use std::marker::PhantomData;
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
/// A run of `n` entries owns one buffer of `u64` words: its `n` keys
/// (`Key::to_u64`, which preserves order), sorted, then `⌈n/2⌉` words
/// holding each key's cumulative net delta (up to and including that key)
/// as an `i32`, two to a word, entry `2j` in the low half of word `j`. An
/// entry costs 12 bytes. [`DeltaRun::net_below`] (a prefix sum) and
/// [`DeltaRun::net_of`] (a difference of adjacent prefix sums) are one
/// binary search over the key column and one read of the cumulatives.
/// Keys whose net delta cancelled to zero are dropped; the churn they
/// represented is still counted by [`DeltaRun::ops`], which feeds the
/// rebuild threshold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaRun<K: Key> {
    /// `len` sorted keys, then `⌈len/2⌉` words of packed `i32` cumulatives.
    buf: Arc<[u64]>,
    /// Entries in the run.
    len: usize,
    /// Write operations folded into this run (cancelled pairs included).
    ops: usize,
    _key: PhantomData<K>,
}

/// Set entry `i`'s cumulative in a run's zeroed cumulative words. `cum`
/// must fit in `i32`.
#[inline]
fn pack(cums: &mut [u64], i: usize, cum: i64) {
    cums[i / 2] |= u64::from(cum as i32 as u32) << (32 * (i & 1));
}

/// Entry `i`'s cumulative in a run's packed cumulative words.
#[inline]
fn unpack(cums: &[u64], i: usize) -> i64 {
    (cums[i / 2] >> (32 * (i & 1))) as u32 as i32 as i64
}

impl<K: Key> DeltaRun<K> {
    /// The run of `n` entries that `fill` writes, in one allocation:
    /// `fill` gets the key column and the zeroed cumulative words, which
    /// it sets through [`pack`].
    fn build(n: usize, ops: usize, fill: impl FnOnce(&mut [u64], &mut [u64])) -> Self {
        let mut buf: Arc<[u64]> = std::iter::repeat_n(0, n + n.div_ceil(2)).collect();
        // lint: allow(panic) a buffer collected a line above has no other owner yet
        let words = Arc::get_mut(&mut buf).expect("a fresh buffer is unique");
        let (keys, cums) = words.split_at_mut(n);
        fill(keys, cums);
        Self {
            buf,
            len: n,
            ops,
            _key: PhantomData,
        }
    }

    /// A run holding a single operation on `k` of net `net`.
    fn singleton(k: K, net: i32) -> Self {
        Self::build(1, 1, |keys, cums| {
            keys[0] = k.to_u64();
            pack(cums, 0, net as i64);
        })
    }

    /// Append to `out` the runs holding sorted per-key net deltas, dropping
    /// zero nets; the first run accounts for `ops` operations. A run ends
    /// where its cumulative would leave `i32`, and the key there goes on
    /// into the next run (split across runs if its own net is that large).
    /// Nothing is appended for no nets and no operations.
    fn push_runs(out: &mut Vec<Self>, pairs: &[(K, i64)], ops: usize) {
        let mut entries: Vec<(u64, i64)> = Vec::with_capacity(pairs.len());
        let mut acc = 0i64;
        let mut ops = ops;
        let mut flush = |entries: &mut Vec<(u64, i64)>, ops: usize| {
            out.push(Self::build(entries.len(), ops, |keys, cums| {
                for (i, &(k, cum)) in entries.iter().enumerate() {
                    keys[i] = k;
                    pack(cums, i, cum);
                }
            }));
            entries.clear();
        };
        for &(k, mut net) in pairs {
            debug_assert!(
                entries.last().map(|&(p, _)| p < k.to_u64()).unwrap_or(true),
                "net pairs must be strictly sorted"
            );
            while net != 0 {
                // `acc` lies in `i32`, so the bounds are ordered.
                let take = net.clamp(i32::MIN as i64 - acc, i32::MAX as i64 - acc);
                if take != 0 {
                    acc += take;
                    net -= take;
                    entries.push((k.to_u64(), acc));
                }
                if net != 0 {
                    flush(&mut entries, ops);
                    ops = 0;
                    acc = 0;
                }
            }
        }
        if !entries.is_empty() || ops > 0 {
            flush(&mut entries, ops);
        }
    }

    /// The run's two columns: its keys and its packed cumulative words.
    #[inline]
    fn columns(&self) -> (&[u64], &[u64]) {
        self.buf.split_at(self.len)
    }

    /// A copy of this run with one more operation on `k` folded in, or
    /// `None` when a cumulative of the copy would leave `i32` (the caller
    /// then opens a fresh run). One `O(len)` copy, which checks the bound
    /// as it goes, and one allocation — this is the hot write path, which
    /// bounds `len` by [`MAX_RUN_LEN`].
    pub fn amended(&self, k: K, net: i64) -> Option<Self> {
        let (keys, old) = self.columns();
        let (n, q) = (keys.len(), k.to_u64());
        let p = keys.partition_point(|&key| key < q);
        let found = p < n && keys[p] == q;
        let prev = if p == 0 { 0 } else { unpack(old, p - 1) };
        // Fold into `k`'s entry (dropping it if its net cancels), or insert
        // it at `p`: the entries from `src` on move to `dst` on.
        let skip = usize::from(found && unpack(old, p).saturating_add(net) == prev);
        let (src, dst) = if found { (p + skip, p) } else { (p, p + 1) };
        let mut fits = true;
        let run = Self::build(dst + n - src, self.ops + 1, |out, cums| {
            // Entries before `p` are unchanged: copy their words.
            out[..p].copy_from_slice(&keys[..p]);
            cums[..p.div_ceil(2)].copy_from_slice(&old[..p.div_ceil(2)]);
            if p % 2 == 1 {
                cums[p / 2] &= u64::from(u32::MAX);
            }
            let mut put = |cums: &mut [u64], j: usize, cum: i64| {
                fits &= i32::try_from(cum).is_ok();
                pack(cums, j, cum);
            };
            if !found {
                out[p] = q;
                put(cums, p, prev.saturating_add(net));
            }
            out[dst..].copy_from_slice(&keys[src..]);
            for (j, i) in (dst..).zip(src..n) {
                put(cums, j, unpack(old, i).saturating_add(net));
            }
        });
        fits.then_some(run)
    }

    /// The per-key net deltas of the keys inside `range`, sorted by key,
    /// borrowed from the run: two binary searches, then one pass over the
    /// in-range entries (the cumulative just before the range start
    /// recovers each net exactly). An inverted range is empty.
    pub(crate) fn nets(&self, range: impl RangeBounds<K>) -> impl Iterator<Item = (K, i64)> + '_ {
        let (keys, cums) = self.columns();
        let start = match range.start_bound() {
            Bound::Included(&lo) => keys.partition_point(|&k| k < lo.to_u64()),
            Bound::Excluded(&lo) => keys.partition_point(|&k| k <= lo.to_u64()),
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&hi) => keys.partition_point(|&k| k <= hi.to_u64()),
            Bound::Excluded(&hi) => keys.partition_point(|&k| k < hi.to_u64()),
            Bound::Unbounded => keys.len(),
        }
        .max(start);
        let mut prev = if start == 0 {
            0
        } else {
            unpack(cums, start - 1)
        };
        (start..end).zip(&keys[start..end]).map(move |(i, &k)| {
            let cum = unpack(cums, i);
            let net = cum - prev;
            prev = cum;
            (K::from_u64_saturating(k), net)
        })
    }

    /// Sum of net deltas of all keys `< q`: one binary search.
    #[inline]
    pub fn net_below(&self, q: K) -> i64 {
        let (keys, cums) = self.columns();
        let idx = keys.partition_point(|&k| k < q.to_u64());
        if idx == 0 {
            0
        } else {
            unpack(cums, idx - 1)
        }
    }

    /// Net occurrence delta of exactly `k` (0 when absent).
    #[inline]
    pub fn net_of(&self, k: K) -> i64 {
        let (keys, cums) = self.columns();
        match keys.binary_search(&k.to_u64()) {
            Err(_) => 0,
            Ok(i) => unpack(cums, i) - if i == 0 { 0 } else { unpack(cums, i - 1) },
        }
    }

    /// Net change to the merged key count contributed by this run.
    #[inline]
    pub fn len_delta(&self) -> i64 {
        match self.len {
            0 => 0,
            n => unpack(self.columns().1, n - 1),
        }
    }

    /// Number of distinct keys with a non-zero net delta.
    #[inline]
    pub fn entry_count(&self) -> usize {
        self.len
    }

    /// Write operations folded into this run.
    #[inline]
    pub fn ops(&self) -> usize {
        self.ops
    }

    /// Heap bytes the run owns: its buffer, 12 bytes an entry plus 4 for
    /// an odd count.
    pub fn size_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.buf)
    }

    /// Whether `self` and `other` are the same published run (one buffer).
    fn same_run(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.buf, &other.buf)
    }
}

/// A newest-first chain of immutable delta runs, plus cached totals.
///
/// The chain itself is an immutable value: every mutation-shaped method
/// returns a new chain sharing unaffected runs' buffers. `runs[..unsealed]`
/// is the live prefix writers may still amend; `runs[unsealed..]` is the
/// sealed suffix a rebuild has frozen (see [`DeltaChain::sealed`]).
#[derive(Debug, Clone, Default)]
pub struct DeltaChain<K: Key> {
    /// Newest first: `runs[0]` is the head the next write amends or shadows.
    runs: Vec<DeltaRun<K>>,
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
    fn from_runs(runs: Vec<DeltaRun<K>>, unsealed: usize) -> Self {
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

    /// A chain of unsealed runs holding the consolidated `nets` and
    /// accounting for `ops` operations (recovery's replayed WAL tail over a
    /// cold base) — one run unless a cumulative leaves `i32`; the empty
    /// chain when nothing was applied.
    pub(crate) fn from_nets(nets: Vec<(K, i64)>, ops: usize) -> Self {
        if ops == 0 {
            return Self::new();
        }
        let mut runs = Vec::new();
        DeltaRun::push_runs(&mut runs, &nets, ops);
        let unsealed = runs.len();
        Self::from_runs(runs, unsealed)
    }

    /// Record one operation (`net` is `+1` insert / `-1` tombstone),
    /// returning the successor chain. The head run is amended in place-by-
    /// copy while it stays below `max_run_len` (the store passes
    /// [`MAX_RUN_LEN`]), unsealed, and inside `i32`; otherwise a fresh
    /// singleton run is prepended.
    pub fn with_op(&self, k: K, net: i64, max_run_len: usize) -> Self {
        let amended = match self.runs.first() {
            Some(head) if self.unsealed > 0 && head.entry_count() < max_run_len.max(1) => {
                head.amended(k, net).map(|run| (run, head.entry_count()))
            }
            _ => None,
        };
        let mut runs = Vec::with_capacity(self.runs.len() + 1);
        let (kept, unsealed, dropped) = match amended {
            Some((run, dropped)) => {
                runs.push(run);
                (&self.runs[1..], self.unsealed, dropped)
            }
            None => {
                match i32::try_from(net) {
                    Ok(net) => runs.push(DeltaRun::singleton(k, net)),
                    Err(_) => DeltaRun::push_runs(&mut runs, &[(k, net)], 1),
                }
                (&self.runs[..], self.unsealed + runs.len(), 0)
            }
        };
        let added: usize = runs.iter().map(|r| r.entry_count()).sum();
        runs.extend(kept.iter().cloned());
        Self {
            runs,
            unsealed,
            ops: self.ops + 1,
            len_delta: self.len_delta + net,
            entries: self.entries - dropped + added,
        }
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
    /// **run-outer** so one run's buffer stays cache-resident across
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
    /// leaving the sealed suffix byte-identical (its buffers shared) until
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
    /// frozen runs must still sit, buffer-identical, at the tail of `self`.
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
                self.runs[keep].same_run(&frozen.runs[0]),
                "strip_sealed: sealed suffix was modified concurrently"
            );
        }
        debug_assert!(self.unsealed <= keep, "writers amended a sealed run");
        Self::from_runs(self.runs[..keep].to_vec(), self.unsealed)
    }

    /// Fold the unsealed runs into one run (more only where a cumulative
    /// would leave `i32`), leaving the sealed suffix untouched. Returns
    /// `self` unchanged when fewer than two unsealed runs exist. Keeps read
    /// cost at one binary search per run.
    pub fn compact(&self) -> Self {
        if self.unsealed < 2 {
            return self.clone();
        }
        let live = &self.runs[..self.unsealed];
        let ops = live.iter().map(|r| r.ops()).sum();
        let folded = merge::consolidate(live.iter().flat_map(|r| r.nets(..)));
        let mut runs = Vec::with_capacity(1 + self.runs.len() - self.unsealed);
        DeltaRun::push_runs(&mut runs, &folded, ops);
        let unsealed = runs.len();
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
        let mut left = Vec::new();
        let mut right = Vec::new();
        // A side with no entries has no operations either, so pushes no run.
        let side = |out: &mut Vec<DeltaRun<K>>, nets: Vec<(K, i64)>| {
            let ops = nets.iter().map(|&(_, n)| n.unsigned_abs() as usize).sum();
            DeltaRun::push_runs(out, &nets, ops);
        };
        for run in &self.runs {
            side(&mut left, run.nets(..split_key).collect());
            side(&mut right, run.nets(split_key..).collect());
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
mod tests;
