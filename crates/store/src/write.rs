//! The write path: every mutation of the store is one call of
//! [`StoreCore::commit`].
//!
//! `insert`, `delete`, [`crate::ShardedStore::apply`] and
//! [`crate::Txn::commit`] are four front doors onto one state transition:
//! exclude other writers → (validate a read set) → log one WAL record →
//! take the commit window → stamp one commit version → publish every op on
//! its shard ([`StoreShard::try_apply`]) → retain the version → count →
//! react to shards that crossed their rebuild threshold. They differ in two
//! places only: *which lock excludes writers* — a `match` in `commit`: the
//! WAL lock of a durable store, with the window inside it, else the window
//! itself — and *whether validation runs* (a transaction brings a
//! [`ReadSet`]).
//!
//! ## The commit-version invariant
//!
//! A commit holds the store's commit window from `clock.begin()`, which
//! assigns its commit version `cv`, to its last shard publish, so **windows
//! never overlap**: commits are serial, every shard applies them in version
//! order, and a cut pinned under the window holds exactly the commits up to
//! the clock's version — a whole batch or none of it (`cut.rs` has the
//! protocol). A shard's `applied_cv` stamp names the newest commit that
//! changed it: maintenance carries it forward unchanged, so between two cuts
//! "same stamp" implies "no op took effect in between" — what lets an
//! incremental checkpoint skip the shard. On a durable store the WAL lock
//! is held from the record's append to the end of the apply, so apply order
//! is also WAL-version order, which replay and the checkpoint cut need.

use crate::batch::{BatchOp, BatchReceipt};
use crate::error::StoreError;
use crate::obs::TraceKind;
use crate::persist::wal::Frame;
use crate::shard::StoreShard;
use crate::snapshot::{PinnedCut, StoreSnapshot};
use crate::store_core::StoreCore;
use crate::txn::ReadSet;
use shift_table::error::BuildError;
use sosd_data::key::Key;
use std::sync::{Arc, MutexGuard};

impl<K: Key> StoreCore<K> {
    /// Commit `ops` **atomically** under one commit version: a concurrent
    /// snapshot observes all of them or none. `frame` says which front door
    /// the commit came through — a lone op or a batch — and with it the WAL
    /// encoding; `reads` is a transaction's read set, revalidated with
    /// writers excluded before anything is logged (first committer wins: a
    /// conflicted transaction writes no bytes and consumes no version).
    ///
    /// Ops apply in order; a delete whose key has no occurrence by its turn
    /// is a no-op, counted out of the receipt's `deleted`. An empty `ops`
    /// commits trivially and writes no WAL record.
    ///
    /// # Errors
    /// [`StoreError::TxnConflict`] from validation, [`StoreError::Io`] /
    /// [`StoreError::WalPoisoned`] from the WAL append — in each case
    /// nothing was applied; [`StoreError::Build`] from an inline rebuild
    /// (cannot happen for store-managed chains; the commit itself stands).
    pub(crate) fn commit(
        &self,
        ops: &[BatchOp<K>],
        frame: Frame,
        reads: Option<&ReadSet<K>>,
    ) -> Result<BatchReceipt, StoreError> {
        if ops.is_empty() {
            // Nothing to apply; a read-only transaction's reads were
            // consistent at its snapshot version by construction.
            if reads.is_some() {
                self.obs.count(&self.obs.txn_commits, 1);
            }
            return Ok(BatchReceipt::default());
        }
        // The sampled timer covers what the caller experiences: WAL append,
        // in-memory apply, and any inline rebuild the commit triggered.
        let timer = self.obs.write_start();
        // Runs with writers excluded, against the cut `pin` hands it.
        // Skipped when no write committed since the transaction began.
        let validate = |pin: &dyn Fn() -> Arc<PinnedCut<K>>| match reads {
            Some(reads) if self.clock.version() != reads.base_version() => {
                reads.validate(&StoreSnapshot::from_cut(pin(), None))
            }
            _ => Ok(()),
        };
        // The window spans every op: no cut can fall between two of them.
        // Returns the receipt and the shards left dirty.
        let apply = |window: MutexGuard<'_, ()>| {
            let mut receipt = BatchReceipt {
                commit_version: self.clock.begin(),
                inserted: 0,
                deleted: 0,
            };
            let mut dirty: Vec<Arc<StoreShard<K>>> = Vec::new();
            for &op in ops {
                // Route against the freshest table: a shard replaced by a
                // concurrent split/merge refuses the op, and the retry
                // finds its successor in the table published before it.
                let applied = loop {
                    let table = self.load_table();
                    let shard = &table.shards()[table.router().shard_of(op.key())];
                    if let Some((applied, is_dirty)) = shard.try_apply(op, receipt.commit_version) {
                        if is_dirty && !dirty.iter().any(|s| Arc::ptr_eq(s, shard)) {
                            dirty.push(Arc::clone(shard));
                        }
                        break applied;
                    }
                };
                match op {
                    BatchOp::Insert(_) => receipt.inserted += 1,
                    BatchOp::Delete(_) => receipt.deleted += usize::from(applied),
                }
            }
            if self.versions.enabled() {
                // Still inside the window: this commit's cut, and so every
                // commit's, in version order.
                self.record_evictions(self.versions.capture(self.cut_locked(&window)));
            }
            (receipt, dirty)
        };
        let outcome = match &self.persist {
            // Durable: the WAL lock excludes every other writer from the
            // validation to the end of the apply. The window opens after
            // the append, so a reader never waits on a sync.
            Some(p) => p.append(
                ops,
                frame,
                || validate(&|| self.cut()),
                || apply(self.lock_window()),
            ),
            // In-memory: the window is the writer exclusion, so validation
            // and apply are one step against every other commit.
            None => {
                let window = self.lock_window();
                validate(&|| self.cut_locked(&window)).map(|()| apply(window))
            }
        };
        let (receipt, dirty) = match outcome {
            Ok(applied) => applied,
            Err(e) => {
                if let StoreError::TxnConflict { point, .. } = &e {
                    self.obs.count(&self.obs.txn_conflicts, 1);
                    self.emit_event(TraceKind::TxnConflict, None, point.unwrap_or(u64::MAX));
                }
                self.obs.write_done(timer);
                return Err(e);
            }
        };
        // Every op that is not an insert is a delete, and a no-op delete
        // still counts: it was applied (and, durable, logged).
        let inserts = receipt.inserted as u64;
        self.obs.count(&self.obs.writes, inserts);
        self.obs
            .count(&self.obs.deletes, ops.len() as u64 - inserts);
        self.obs
            .count(&self.obs.batches, u64::from(frame == Frame::Batch));
        self.obs
            .count(&self.obs.txn_commits, u64::from(reads.is_some()));
        for shard in dirty {
            self.on_dirty(&shard)?;
        }
        self.obs.write_done(timer);
        Ok(receipt)
    }

    /// React to a shard crossing its delta threshold: wake the background
    /// worker when there is one, else rebuild inline when configured to.
    fn on_dirty(&self, shard: &Arc<StoreShard<K>>) -> Result<(), BuildError> {
        if self.config.background_maintenance {
            self.hook.signal.kick();
        } else if self.config.auto_rebuild {
            self.rebuild_shard(shard)?;
        }
        Ok(())
    }
}
