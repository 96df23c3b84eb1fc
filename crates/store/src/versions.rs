//! MVCC version retention and the change-data-capture diff engine.
//!
//! A [`crate::StoreSnapshot`] already pins one commit version forever; this
//! module keeps a **bounded ring of named historical cuts** so the store can
//! serve *any* retained version on demand
//! ([`crate::ShardedStore::snapshot_at`]) and compute ordered key-level
//! diffs between two retained versions
//! ([`crate::ShardedStore::scan_between`]) — the change-data-capture feed a
//! downstream replica tails.
//!
//! ## Retention
//!
//! The `VersionRing` holds pinned cuts — `Arc`s to the store table and
//! the per-shard states as one commit left them — ordered by commit
//! version. With a policy set, every commit is captured inside its own
//! commit window, so the ring holds *each* of the newest `count` versions.
//! Holding a cut pins exactly the structures it references: sealed delta
//! runs and base snapshots survive compaction, rebuilds and rebalancing for
//! as long as a retained version needs them, because maintenance only ever
//! *republishes* new epochs, never mutates old ones. The cost is the heap
//! those epochs would otherwise free; [`VersionStats`] reports it with
//! shared structures counted once and the live state excluded.
//!
//! Eviction is by count at capture time (oldest first, like a ring buffer)
//! and by count/age in the maintenance pass. The policy
//! ([`crate::RetainPolicy`]) defaults to disabled, in which case nothing is
//! captured and the write path never takes the ring lock.
//!
//! ## Diffing
//!
//! `diff_cuts(a, b)` produces sorted `(key, count_at_b − count_at_a)` pairs
//! with zero nets dropped. It exploits structure where it exists: per-shard
//! state `Arc`s that are pointer-equal contribute nothing; states sharing a
//! base snapshot diff their delta chains (cost ∝ buffered writes, not shard
//! size); everything else diffs the run lengths of the merged key columns.
//! When the two cuts pinned different topologies (a split or merge happened
//! in between), the columns are diffed as global key streams — shard key
//! ranges are disjoint and router-ordered, so each cut's shards, visited one
//! at a time, already form one sorted stream. Every case is the same call,
//! `merge::consolidate(b ∪ −a)`.

use crate::config::RetainPolicy;
use crate::merge;
use crate::shard::{ShardSnapshot, ShardState};
use crate::snapshot::PinnedCut;
use sosd_data::key::Key;
use std::collections::{HashSet, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One retained historical cut: the pinned structures plus its capture time
/// (for age-based eviction).
struct RetainedCut<K: Key> {
    cut: Arc<PinnedCut<K>>,
    created: Instant,
}

/// Readout of the version ring's memory cost — see
/// [`crate::ShardedStore::version_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VersionStats {
    /// Retained historical versions.
    pub retained: usize,
    /// Oldest retained commit version, if any.
    pub oldest_cv: Option<u64>,
    /// Newest retained commit version, if any.
    pub newest_cv: Option<u64>,
    /// Approximate heap bytes pinned by retained cuts beyond the live
    /// state: delta runs plus base key columns and their indexes, with
    /// structures shared between cuts (or with the live state) counted
    /// once.
    pub approx_bytes: usize,
}

/// The bounded, commit-version-ordered ring of retained cuts.
pub(crate) struct VersionRing<K: Key> {
    policy: RetainPolicy,
    ring: Mutex<VecDeque<RetainedCut<K>>>,
}

impl<K: Key> VersionRing<K> {
    pub(crate) fn new(policy: RetainPolicy) -> Self {
        Self {
            policy,
            ring: Mutex::new(VecDeque::new()),
        }
    }

    /// Is retention on at all? False short-circuits every capture site.
    #[inline]
    pub(crate) fn enabled(&self) -> bool {
        !self.policy.is_disabled()
    }

    /// Retain `cut`, evicting the oldest versions past the count bound.
    /// Every commit captures its own cut inside its commit window, so cuts
    /// arrive in version order, each version once. Returns `(evicted cv,
    /// remaining count)` per eviction so the caller can trace and count
    /// them.
    pub(crate) fn capture(&self, cut: Arc<PinnedCut<K>>) -> Vec<(u64, usize)> {
        if !self.enabled() {
            return Vec::new();
        }
        let created = Instant::now(); // lint: allow(timing) retention capture: policy-gated, once per retained version, not per op
        let mut ring = self.ring.lock().unwrap_or_else(|p| p.into_inner());
        debug_assert!(ring.back().is_none_or(|r| r.cut.version < cut.version));
        ring.push_back(RetainedCut { cut, created });
        let mut evicted = Vec::new();
        while ring.len() > self.policy.count {
            // lint: allow(panic) loop guard: len > count >= 0 implies non-empty
            let old = ring.pop_front().expect("ring non-empty");
            evicted.push((old.cut.version, ring.len()));
        }
        evicted
    }

    /// The retained cut at exactly `cv`, if any.
    pub(crate) fn get(&self, cv: u64) -> Option<Arc<PinnedCut<K>>> {
        let ring = self.ring.lock().unwrap_or_else(|p| p.into_inner());
        ring.iter()
            .find(|r| r.cut.version == cv)
            .map(|r| Arc::clone(&r.cut))
    }

    /// Every retained commit version, oldest first.
    pub(crate) fn versions(&self) -> Vec<u64> {
        let ring = self.ring.lock().unwrap_or_else(|p| p.into_inner());
        ring.iter().map(|r| r.cut.version).collect()
    }

    /// Maintenance-pass eviction: drop cuts older than the policy's
    /// `max_age` (and re-enforce the count bound). Returns
    /// `(evicted cv, remaining count)` per eviction.
    pub(crate) fn evict_stale(&self) -> Vec<(u64, usize)> {
        if !self.enabled() {
            return Vec::new();
        }
        let mut ring = self.ring.lock().unwrap_or_else(|p| p.into_inner());
        let mut evicted = Vec::new();
        while ring.len() > self.policy.count {
            // lint: allow(panic) loop guard: len > count >= 0 implies non-empty
            let old = ring.pop_front().expect("ring non-empty");
            evicted.push((old.cut.version, ring.len()));
        }
        if let Some(max_age) = self.policy.max_age {
            let now = Instant::now(); // lint: allow(timing) cold maintenance path — runs once per worker pass
            while let Some(front) = ring.front() {
                if now.duration_since(front.created) <= max_age {
                    break;
                }
                // lint: allow(panic) front() just proved the ring non-empty
                let old = ring.pop_front().expect("ring non-empty");
                evicted.push((old.cut.version, ring.len()));
            }
        }
        evicted
    }

    /// Memory/extent readout, with everything the live state (or an earlier
    /// retained cut) already pins counted once — see [`VersionStats`].
    pub(crate) fn stats(&self, live: &[Arc<ShardState<K>>]) -> VersionStats {
        let ring = self.ring.lock().unwrap_or_else(|p| p.into_inner());
        let mut seen_states: HashSet<*const ShardState<K>> = HashSet::new();
        let mut seen_snaps: HashSet<*const ShardSnapshot<K>> = HashSet::new();
        for s in live {
            seen_states.insert(Arc::as_ptr(s));
            seen_snaps.insert(Arc::as_ptr(s.snapshot()));
        }
        let mut approx_bytes = 0usize;
        for rc in ring.iter() {
            for s in rc.cut.states.iter() {
                if seen_states.insert(Arc::as_ptr(s)) {
                    approx_bytes += s.delta().size_bytes();
                    let snap = s.snapshot();
                    if seen_snaps.insert(Arc::as_ptr(snap)) {
                        approx_bytes +=
                            snap.base_len() * K::size_bytes() + snap.index().index_size_bytes();
                    }
                }
            }
        }
        VersionStats {
            retained: ring.len(),
            oldest_cv: ring.front().map(|r| r.cut.version),
            newest_cv: ring.back().map(|r| r.cut.version),
            approx_bytes,
        }
    }
}

/// A state's merged column as `(key, sign × occurrences)` pairs. The column
/// is lent by the state (a clean hot shard) or materialised for as long as
/// the iterator lives — one shard at a time when a caller chains them.
fn column<K: Key>(state: &ShardState<K>, sign: i64) -> impl Iterator<Item = (K, i64)> + '_ {
    merge::run_lengths(state.merged_view(), sign)
}

/// A cut's merged columns chained into one sorted stream (shard key ranges
/// are disjoint and router-ordered), as [`column`] pairs.
fn stream<K: Key>(cut: &PinnedCut<K>, sign: i64) -> impl Iterator<Item = (K, i64)> + '_ {
    cut.states.iter().flat_map(move |s| column(s, sign))
}

/// Ordered key-level diff between two cuts of the *same store*: sorted
/// `(key, count_at_b − count_at_a)` pairs, zero nets dropped — everywhere
/// `merge::consolidate(b ∪ −a)`, over whichever form of `a` and `b` is
/// cheapest. See the module docs for the structural shortcuts.
pub(crate) fn diff_cuts<K: Key>(a: &PinnedCut<K>, b: &PinnedCut<K>) -> Vec<(K, i64)> {
    if a.version == b.version {
        return Vec::new();
    }
    if !Arc::ptr_eq(&a.table, &b.table) {
        // Topology changed (split/merge): diff the global key streams.
        return merge::consolidate(stream(b, 1).chain(stream(a, -1)));
    }
    // Same topology: per-shard diffs concatenate into global key order.
    let mut out = Vec::new();
    for (sa, sb) in a.states.iter().zip(b.states.iter()) {
        if Arc::ptr_eq(sa, sb) {
            continue; // untouched shard: contributes nothing
        }
        if Arc::ptr_eq(sa.snapshot(), sb.snapshot()) {
            // Same base epoch: the diff is the difference of the two
            // delta chains — cost ∝ buffered writes.
            let (da, db) = (sa.delta(), sb.delta());
            let negated = da.nets(..).map(|(k, n)| (k, -n));
            out.extend(merge::consolidate(db.nets(..).chain(negated)));
        } else {
            // The base was rebuilt in between: diff both merged columns.
            out.extend(merge::consolidate(column(sb, 1).chain(column(sa, -1))));
        }
    }
    debug_assert!(
        out.windows(2).all(|w| w[0].0 < w[1].0),
        "diff must be sorted"
    );
    out
}
