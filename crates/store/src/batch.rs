//! Atomic multi-op writes: the [`WriteBatch`] builder and its receipt.
//!
//! A [`WriteBatch`] is the store's first-class **unit of atomicity**: every
//! operation staged on it is applied by [`crate::ShardedStore::apply`] under
//! one store-wide commit version, logged as **one** framed multi-op WAL
//! record, and made durable with **one** sync. The companion unit of
//! consistency is [`crate::StoreSnapshot`]: because the whole batch applies
//! inside a single commit-clock window, a snapshot observes either all of a
//! batch's operations or none of them — and after a crash, recovery replays
//! a batch record all-or-nothing (a torn frame drops the entire batch, never
//! a prefix of it).
//!
//! Staging is pure bookkeeping: nothing routes, locks or allocates per shard
//! until the batch is applied. Operations apply in staging order, so a
//! `delete` staged after an `insert` of the same key observes that insert.

use sosd_data::key::Key;

/// One staged operation of a [`WriteBatch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchOp<K: Key> {
    /// Insert one occurrence of the key.
    Insert(K),
    /// Delete one occurrence of the key (a no-op if absent when applied).
    Delete(K),
}

impl<K: Key> BatchOp<K> {
    /// The key the operation inserts or deletes.
    pub fn key(&self) -> K {
        match *self {
            Self::Insert(k) | Self::Delete(k) => k,
        }
    }
}

/// A staged group of writes applied atomically by
/// [`crate::ShardedStore::apply`]: one commit version, one WAL record, one
/// sync.
#[derive(Debug, Clone, Default)]
pub struct WriteBatch<K: Key> {
    ops: Vec<BatchOp<K>>,
}

impl<K: Key> WriteBatch<K> {
    /// An empty batch.
    pub fn new() -> Self {
        Self { ops: Vec::new() }
    }

    /// An empty batch with room for `n` operations.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            ops: Vec::with_capacity(n),
        }
    }

    /// Stage one inserted occurrence of `k`.
    pub fn insert(&mut self, k: K) -> &mut Self {
        self.ops.push(BatchOp::Insert(k));
        self
    }

    /// Stage one deleted occurrence of `k` (a no-op at apply time if the
    /// store holds no occurrence by then).
    pub fn delete(&mut self, k: K) -> &mut Self {
        self.ops.push(BatchOp::Delete(k));
        self
    }

    /// The staged operations, in application order.
    pub fn ops(&self) -> &[BatchOp<K>] {
        &self.ops
    }

    /// Number of staged operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when nothing is staged (applying an empty batch is a no-op that
    /// writes no WAL record).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Replay the staged operations against a starting occurrence count of
    /// `start` for key `k`: the count `k` would have if the batch applied to
    /// a store where `k` currently occurs `start` times. Deletes below zero
    /// are no-ops, exactly as at apply time. This is the read-your-writes
    /// fold behind [`crate::Txn::get`].
    pub fn count_after(&self, k: K, start: usize) -> usize {
        self.ops.iter().fold(start, |c, op| match *op {
            BatchOp::Insert(x) if x == k => c + 1,
            BatchOp::Delete(x) if x == k => c.saturating_sub(1),
            _ => c,
        })
    }
}

impl<K: Key> Extend<BatchOp<K>> for WriteBatch<K> {
    fn extend<T: IntoIterator<Item = BatchOp<K>>>(&mut self, iter: T) {
        self.ops.extend(iter);
    }
}

impl<K: Key> FromIterator<BatchOp<K>> for WriteBatch<K> {
    fn from_iter<T: IntoIterator<Item = BatchOp<K>>>(iter: T) -> Self {
        Self {
            ops: iter.into_iter().collect(),
        }
    }
}

/// What [`crate::ShardedStore::apply`] hands back for an applied batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchReceipt {
    /// The single store-wide commit version stamped on every operation of
    /// the batch (0 only for an empty batch, which assigns none).
    pub commit_version: u64,
    /// Inserted occurrences (= staged inserts; inserts cannot fail).
    pub inserted: usize,
    /// Tombstones actually recorded — staged deletes whose key held at
    /// least one occurrence when the batch applied.
    pub deleted: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staging_preserves_order_and_counts() {
        let mut b = WriteBatch::with_capacity(3);
        assert!(b.is_empty());
        b.insert(5u64).delete(5).insert(9);
        b.extend([BatchOp::Delete(1)]);
        assert_eq!(b.len(), 4);
        assert_eq!(
            b.ops(),
            &[
                BatchOp::Insert(5),
                BatchOp::Delete(5),
                BatchOp::Insert(9),
                BatchOp::Delete(1),
            ]
        );
        let c: WriteBatch<u64> = b.ops().iter().copied().collect();
        assert_eq!(c.ops(), b.ops());
    }

    #[test]
    fn count_after_replays_in_order_and_floors_at_zero() {
        let mut b = WriteBatch::new();
        b.insert(7u64).insert(7).delete(7).delete(7).delete(7);
        assert_eq!(b.count_after(7, 0), 0, "deletes past zero are no-ops");
        assert_eq!(b.count_after(7, 2), 1, "2 + 2 inserts - 3 deletes");
        assert_eq!(b.count_after(9, 4), 4, "untouched key passes through");
    }
}
