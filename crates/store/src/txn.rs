//! Optimistic transactions on the commit clock: snapshot reads, buffered
//! writes, first-committer-wins validation.
//!
//! A [`Txn`] is born from [`crate::ShardedStore::begin`] holding a pinned
//! [`crate::StoreSnapshot`] — every read runs against that one consistent
//! cut, so a transaction observes a frozen version of the store no matter
//! how many commits race it. Reads are *recorded*: point lookups remember
//! the observed occurrence count, range scans remember an order-sensitive
//! fingerprint of the result. Writes never touch the store; they stage into
//! a private [`crate::WriteBatch`] and overlay the transaction's own reads
//! (read-your-writes).
//!
//! [`Txn::commit`] revalidates the recorded read set against the store's
//! *current* cut inside the same serialization point every plain write
//! uses — the WAL lock for durable stores, the commit window for in-memory
//! ones. If any recorded observation changed, the commit aborts
//! with [`crate::StoreError::TxnConflict`] naming the key or range that
//! moved: the **first committer wins**, and the loser's WAL carries no
//! trace of the attempt (validation runs before the frame is appended, so
//! an aborted transaction consumes no commit version and writes no bytes).
//! If validation passes, the buffered batch applies exactly like
//! [`crate::ShardedStore::apply`]: one commit version, one multi-op WAL
//! frame, one sync — so transactional durability, group commit and
//! all-or-nothing crash recovery are inherited, not reimplemented.
//!
//! The protocol is serializable for the recorded footprint: a committed
//! transaction behaves as if it executed atomically at its commit version,
//! because everything it read still has the value it read at that point.
//! Reads the transaction did *not* record (e.g. `len()` on the live store)
//! are outside the contract. Conflict-prone workloads should wrap commits
//! in [`crate::ShardedStore::commit_with_retries`], which re-runs the
//! transaction body on a fresh snapshot after each conflict — retrying the
//! commit alone can never succeed, since the read set is stale by
//! definition.

use crate::batch::{BatchOp, WriteBatch};
use crate::error::StoreError;
use crate::merge;
use crate::persist::wal::Frame;
use crate::snapshot::StoreSnapshot;
use crate::store_core::StoreCore;
use sosd_data::key::Key;

/// Everything a transaction observed, in a form that can be revalidated
/// cheaply at commit: exact counts for points, fingerprints for ranges.
#[derive(Debug, Default)]
pub(crate) struct ReadSet<K: Key> {
    /// The commit version of the snapshot the observations were made at.
    base_version: u64,
    /// `(key, occurrence count observed at the snapshot)`.
    points: Vec<(K, usize)>,
    /// `(lo, hi, fingerprint of the snapshot scan result)`.
    ranges: Vec<(K, K, u64)>,
}

impl<K: Key> ReadSet<K> {
    /// The commit version the transaction read at: while it is still the
    /// store's newest, nothing can have invalidated an observation.
    pub(crate) fn base_version(&self) -> u64 {
        self.base_version
    }

    /// `(point reads, range reads)` recorded so far.
    fn len(&self) -> (usize, usize) {
        (self.points.len(), self.ranges.len())
    }

    fn record_point(&mut self, k: K, observed: usize) {
        // The snapshot is immutable, so a re-read of the same key observes
        // the same count — one record per key suffices.
        if !self.points.iter().any(|&(pk, _)| pk == k) {
            self.points.push((k, observed));
        }
    }

    fn record_range(&mut self, lo: K, hi: K, fp: u64) {
        if !self.ranges.iter().any(|&(l, h, _)| l == lo && h == hi) {
            self.ranges.push((lo, hi, fp));
        }
    }

    /// Check every recorded observation against `at` (the store's current
    /// cut, pinned by the committer inside its serialization point). The
    /// first mismatch aborts with the conflicting key or range.
    pub(crate) fn validate(&self, at: &StoreSnapshot<K>) -> Result<(), StoreError> {
        for &(k, observed) in &self.points {
            if at.count_of(k) != observed {
                return Err(StoreError::TxnConflict {
                    point: Some(k.to_u64()),
                    range: None,
                });
            }
        }
        for &(lo, hi, fp) in &self.ranges {
            if fingerprint(&at.scan(lo, hi)) != fp {
                return Err(StoreError::TxnConflict {
                    point: None,
                    range: Some((lo.to_u64(), hi.to_u64())),
                });
            }
        }
        Ok(())
    }
}

/// Order-sensitive FNV-1a fold of a scan result, length included — two
/// scans fingerprint equal iff they returned the same multiset of keys in
/// the same (sorted) order.
pub(crate) fn fingerprint<K: Key>(keys: &[K]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(PRIME);
        }
    };
    for k in keys {
        mix(k.to_u64());
    }
    mix(keys.len() as u64);
    h
}

/// Overlay a transaction's pending writes onto a snapshot scan of
/// `lo ..= hi`: fold the staged ops inside the range (in staging order,
/// deletes flooring at zero) against the occurrence counts the scan
/// returned, and splice the result into it.
fn overlay_scan<K: Key>(snap_keys: Vec<K>, writes: &WriteBatch<K>, lo: K, hi: K) -> Vec<K> {
    let in_range = |op: &BatchOp<K>| lo <= op.key() && op.key() <= hi;
    let staged: Vec<BatchOp<K>> = writes.ops().iter().copied().filter(in_range).collect();
    if staged.is_empty() {
        return snap_keys;
    }
    let (nets, _) = merge::fold_ops(staged, |k| merge::count_in(&snap_keys, k));
    merge::splice(&snap_keys, &nets)
}

/// An open optimistic transaction — see the module docs for the protocol.
///
/// Dropping a `Txn` without committing abandons it: nothing was ever
/// applied, logged or locked, so abort is free.
pub struct Txn<'s, K: Key> {
    core: &'s StoreCore<K>,
    snap: StoreSnapshot<K>,
    reads: ReadSet<K>,
    writes: WriteBatch<K>,
}

impl<'s, K: Key> Txn<'s, K> {
    pub(crate) fn new(core: &'s StoreCore<K>, snap: StoreSnapshot<K>) -> Self {
        let reads = ReadSet {
            base_version: snap.version(),
            ..ReadSet::default()
        };
        Self {
            core,
            snap,
            reads,
            writes: WriteBatch::new(),
        }
    }

    /// The commit version this transaction reads at.
    pub fn version(&self) -> u64 {
        self.snap.version()
    }

    /// The pinned snapshot the transaction reads through. Reads made
    /// directly on it are **not** recorded in the read set and therefore
    /// not validated at commit.
    pub fn snapshot(&self) -> &StoreSnapshot<K> {
        &self.snap
    }

    /// Occurrence count of `k` as this transaction sees it: the snapshot's
    /// count with the transaction's own pending writes replayed on top.
    /// Records the snapshot observation in the read set.
    pub fn get(&mut self, k: K) -> usize {
        let observed = self.snap.count_of(k);
        self.reads.record_point(k, observed);
        self.writes.count_after(k, observed)
    }

    /// Every key in `lo ..= hi` as this transaction sees it, sorted, with
    /// pending writes replayed on top. Records a fingerprint of the
    /// snapshot result in the read set — *any* change inside the range by a
    /// concurrent commit (insert, delete, even a compensating pair that
    /// leaves the count equal) conflicts this transaction.
    pub fn scan(&mut self, lo: K, hi: K) -> Vec<K> {
        let snap_keys = self.snap.scan(lo, hi);
        self.reads.record_range(lo, hi, fingerprint(&snap_keys));
        overlay_scan(snap_keys, &self.writes, lo, hi)
    }

    /// Stage one inserted occurrence of `k`, visible to this transaction's
    /// own reads immediately and to everyone else at commit.
    pub fn insert(&mut self, k: K) -> &mut Self {
        self.writes.insert(k);
        self
    }

    /// Stage one deleted occurrence of `k` (a no-op at apply time if no
    /// occurrence remains by then).
    pub fn delete(&mut self, k: K) -> &mut Self {
        self.writes.delete(k);
        self
    }

    /// The writes staged so far, in application order.
    pub fn pending(&self) -> &WriteBatch<K> {
        &self.writes
    }

    /// `(point reads, range reads)` recorded for commit-time validation.
    pub fn read_set_len(&self) -> (usize, usize) {
        self.reads.len()
    }

    /// Validate the read set against the store's current state and, if
    /// nothing this transaction read has changed, apply the buffered writes
    /// as one atomic batch — one commit version, one WAL frame, one sync.
    ///
    /// Returns [`StoreError::TxnConflict`] if a concurrent commit modified
    /// a recorded key or range (first committer wins); the store is
    /// untouched and the WAL carries no trace of the attempt. A read-only
    /// transaction (and one whose snapshot is still current) commits
    /// without any validation cost; a read-only commit returns the empty
    /// receipt, exactly like applying an empty batch.
    pub fn commit(self) -> Result<crate::batch::BatchReceipt, StoreError> {
        // The read set carries everything validation needs; the snapshot is
        // dropped (unpinned) when `self` is.
        self.core
            .commit(self.writes.ops(), Frame::Batch, Some(&self.reads))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprints_are_order_length_and_content_sensitive() {
        assert_eq!(fingerprint::<u64>(&[]), fingerprint::<u64>(&[]));
        assert_ne!(fingerprint(&[1u64, 2]), fingerprint(&[2u64, 1]));
        assert_ne!(fingerprint(&[1u64]), fingerprint(&[1u64, 1]));
        assert_ne!(fingerprint::<u64>(&[]), fingerprint(&[0u64]));
        assert_eq!(fingerprint(&[3u64, 5, 5]), fingerprint(&[3u64, 5, 5]));
    }

    #[test]
    fn overlay_replays_pending_writes_inside_the_range_only() {
        let mut w = WriteBatch::new();
        w.insert(5u64).insert(5).delete(8).insert(99).delete(100);
        let merged = overlay_scan(vec![4u64, 5, 8, 8], &w, 4, 10);
        assert_eq!(merged, vec![4, 5, 5, 5, 8], "99/100 fall outside the range");
        let untouched = overlay_scan(vec![4u64, 8], &WriteBatch::new(), 4, 10);
        assert_eq!(untouched, vec![4, 8]);
    }

    #[test]
    fn read_set_dedups_repeat_observations() {
        let mut rs = ReadSet::<u64>::default();
        rs.record_point(7, 2);
        rs.record_point(7, 2);
        rs.record_range(1, 9, 42);
        rs.record_range(1, 9, 42);
        assert_eq!(rs.len(), (1, 1));
    }
}
