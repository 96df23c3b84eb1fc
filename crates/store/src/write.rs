//! The write path: every mutation of the store is one call of
//! [`StoreCore::commit`].
//!
//! `insert`, `delete`, [`crate::ShardedStore::apply`] and
//! [`crate::Txn::commit`] are four front doors onto one state transition:
//! exclude conflicting writers → (validate a read set) → log one WAL record
//! → stamp one commit version → publish every op on its shard
//! ([`StoreShard::try_apply`]) → count → retain the version → react to
//! shards that crossed their rebuild threshold. They differ in two places
//! only, both a `match` in `commit`: *which lock excludes writers* (the WAL
//! lock of a durable store, else the write gate) and *whether validation
//! runs* (a transaction brings a [`ReadSet`]).
//!
//! ## The commit-version invariant
//!
//! A commit opens one window on the store's [`crate::CommitClock`] —
//! `begin` assigns its commit version `cv` — publishes each of its ops
//! under the target shard's write mutex, stamped `cv`, and closes the
//! window. The version is assigned **before** any shard lock is taken, so
//! on an in-memory store two commits whose windows overlap may reach one
//! shard in either order: per-shard apply order is *not* commit-version
//! order. What snapshots, retained versions and checkpoints rely on is
//! weaker, and holds:
//!
//! * **Windows close before any cut is taken.** A consistent pin succeeds
//!   only if no window was open when it started (`begun == done`) and none
//!   opened before it finished. Every version `<= v` is then fully
//!   published and no later one has begun, so the pinned states hold
//!   exactly the commits `<= v` — a whole batch or none of it. Commits that
//!   did overlap are concurrent: no cut can fall between them, so their
//!   relative order inside a shard is unobservable.
//! * **`applied_cv` is `max`-folded.** A shard's stamp never decreases,
//!   whatever order commits reach it in, and at a quiescent cut it names
//!   the newest commit that changed the shard. A commit that begins after
//!   a cut at `v` is stamped above `v`, so between two cuts "same stamp"
//!   implies "no op took effect in between" — what lets an incremental
//!   checkpoint skip the shard.
//!
//! A durable store is stricter for free: the WAL lock is held from the
//! record's append to the end of the in-memory apply, so commits are
//! serial, apply order equals WAL-version order (which replay and the
//! checkpoint cut need), and the clock never has two windows open.

use crate::batch::{BatchOp, BatchReceipt};
use crate::error::StoreError;
use crate::obs::TraceKind;
use crate::persist::wal::Frame;
use crate::shard::StoreShard;
use crate::snapshot::StoreSnapshot;
use crate::store_core::StoreCore;
use crate::txn::ReadSet;
use shift_table::error::BuildError;
use sosd_data::key::Key;
use std::sync::Arc;

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
        // Runs with writers excluded, so the quiescent pin succeeds first
        // try. Skipped when no write committed since the transaction began.
        let validate = || match reads {
            Some(reads) if self.clock.version() != reads.base_version() => {
                reads.validate(&StoreSnapshot::from_cut(self.pin_cut_quiescent(), None))
            }
            _ => Ok(()),
        };
        // One clock window around every op: no snapshot can cut between two
        // of them. Returns the receipt and the shards left dirty.
        let apply = || {
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
            self.clock.end();
            if reads.is_some() && self.versions.enabled() {
                // Writers are still excluded: retain this commit's cut
                // deterministically (the pin cannot race one).
                self.record_evictions(self.versions.capture(self.pin_cut_quiescent()));
            }
            (receipt, dirty)
        };
        // lint: allow(panic) lock poisoning propagates a holder's panic; no sound continuation
        let read_gate = || self.write_gate.read().expect("write gate poisoned");
        let outcome = match (&self.persist, reads) {
            // Durable: the WAL lock excludes every other writer from the
            // validation to the end of the apply. The gate's read side only
            // keeps a starved snapshot able to hold commits off.
            (Some(p), _) => p.append(ops, frame, validate, || {
                let _gate = read_gate();
                apply()
            }),
            // In-memory transaction: the gate's write side drains the open
            // windows and blocks new ones, so validation and apply are one
            // step against every other writer.
            (None, Some(_)) => {
                let _gate = self.write_gate.write().expect("write gate poisoned"); // lint: allow(panic) lock poisoning propagates a holder's panic; no sound continuation
                validate().map(|()| apply())
            }
            // In-memory plain write: commits to different shards proceed
            // side by side.
            (None, None) => {
                let _gate = read_gate();
                Ok(apply())
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
        match reads {
            Some(_) => self.obs.count(&self.obs.txn_commits, 1),
            None => self.retain_current(),
        }
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
            self.signal.kick();
        } else if self.config.auto_rebuild {
            self.rebuild_shard(shard)?;
        }
        Ok(())
    }
}
