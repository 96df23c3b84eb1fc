//! A checkpoint in its three steps — cut, write, publish — and the memo
//! that lets the next one skip shards whose merged view has not moved.

use crate::error::StoreError;
use crate::obs::TraceKind;
use crate::persist::manifest::{Manifest, ManifestShard};
use crate::persist::{self, CheckpointTally, ShardFileWriter};
use crate::pool;
use crate::store_core::StoreCore;
use sosd_data::key::Key;

/// What the previous checkpoint referenced per shard, kept so the next
/// incremental checkpoint can *skip* shards whose merged view has not
/// moved since (see the invariants in [`crate::persist`]). Invalidated
/// whole by any topology change (the fences are part of the memo) and per
/// shard by any `applied_cv` advance.
pub(crate) struct CheckpointMemo {
    /// The fence keys (widened) the memoised checkpoint was cut over.
    pub(crate) fences: Vec<u64>,
    /// One entry per shard, in the memoised topology's order.
    pub(crate) shards: Vec<MemoShard>,
}

#[derive(Clone)]
pub(crate) struct MemoShard {
    /// The shard's `applied_cv` stamp at the memoised checkpoint's cut —
    /// equal stamp now ⟹ identical merged view ⟹ identical snapshot file.
    pub(crate) state_cv: u64,
    /// The manifest entry written (or re-referenced) for the shard; `None`
    /// forces a rewrite (a fresh store, or a reopen that replayed WAL-tail
    /// records into the shard).
    pub(crate) entry: Option<ManifestShard>,
}

/// What the *cut* and *write* steps of a checkpoint hand to
/// [`StoreCore::publish_checkpoint`].
pub(crate) struct WrittenCheckpoint {
    /// The checkpoint version: every write `<= cv` is inside the files.
    pub(crate) cv: u64,
    /// The manifest sequence to publish under.
    pub(crate) seq: u64,
    /// The fence keys (widened) of the topology the cut was taken over.
    pub(crate) fences: Vec<u64>,
    /// Per shard, the `applied_cv` stamp of the state the cut pinned.
    pub(crate) state_cvs: Vec<u64>,
    /// Per shard, the snapshot file the manifest will reference — written
    /// by this checkpoint or carried forward from the previous one.
    pub(crate) entries: Vec<ManifestShard>,
    pub(crate) tally: CheckpointTally,
}

impl<K: Key> StoreCore<K> {
    /// Take an epoch-consistent checkpoint (see [`crate::persist`]) in its
    /// three steps. **Cut**: rotate the WAL and pin every shard state under
    /// the WAL lock (an exact cut — durable writes apply under that lock).
    /// **Write**: off-lock, one snapshot file per shard that needs one
    /// ([`ShardFileWriter`]), a pool task each. **Publish**: the manifest, the
    /// memo, the counters and the truncation of the covered WAL prefix
    /// ([`StoreCore::publish_checkpoint`]).
    ///
    /// Checkpoints are incremental: a shard whose `applied_cv` stamp has
    /// not moved since the previous checkpoint is **skipped**: the new
    /// manifest re-references the previous snapshot file (old name, old
    /// `applied` floor) instead of rewriting identical bytes, and garbage
    /// collection keeps every file the newest manifest references
    /// regardless of its sequence number. A file that can no longer be found is not re-referenced —
    /// the shard is written again. Any topology change invalidates the
    /// whole memo.
    pub(crate) fn checkpoint(&self) -> Result<u64, StoreError> {
        let Some(p) = &self.persist else {
            return Err(StoreError::NotDurable);
        };
        let t0 = self.obs.phase_start();
        let _gate = p.checkpoint_gate();
        let (cv, seq, (table, states)) = p.begin_checkpoint(|| self.pin_states())?;
        let fences: Vec<u64> = table.router.fences().iter().map(|f| f.to_u64()).collect();
        // Take the memo out for the duration: a checkpoint that fails
        // mid-write leaves `None` behind, and the next attempt rewrites
        // everything rather than trusting a cut that never finished.
        let memo = self
            .ckpt_memo
            .lock()
            .expect("checkpoint memo poisoned") // lint: allow(panic) lock poisoning propagates a holder's panic; no sound continuation
            .take();
        let prior: Option<Vec<MemoShard>> = memo
            .filter(|m| m.fences == fences && m.shards.len() == states.len())
            .map(|m| m.shards);
        let state_cvs: Vec<u64> = states.iter().map(|s| s.applied_cv()).collect();
        let mut tally = CheckpointTally::default();
        // Per shard, the previous entry when it can be carried forward: the
        // merged view has not moved and the file is still there to point at.
        let reused: Vec<Option<ManifestShard>> = (0..states.len())
            .map(|i| {
                let m = &prior.as_ref()?[i];
                let entry = m.entry.clone().filter(|_| m.state_cv == state_cvs[i])?;
                let file = std::fs::metadata(p.dir().join(&entry.snapshot)).ok()?;
                tally.shards_skipped += 1;
                tally.bytes_reused += file.len();
                Some(entry)
            })
            .collect();
        let stale: Vec<usize> = (0..states.len()).filter(|&i| reused[i].is_none()).collect();
        let files = ShardFileWriter::new(p.dir(), seq, cv, p.durability().snapshot_block_keys);
        let (written, snapshot_bytes) =
            ShardFileWriter::finish(pool::run_tasks(stale.len(), |i| {
                files.write_shard_file(stale[i], || states[stale[i]].merged_view())
            }))?;
        tally.shards_written = written.len() as u64;
        tally.snapshot_bytes = snapshot_bytes;
        let mut written = written.into_iter();
        let entries: Vec<ManifestShard> = reused
            .into_iter()
            .filter_map(|entry| entry.or_else(|| written.next()))
            .collect();
        debug_assert_eq!(entries.len(), states.len());
        self.publish_checkpoint(WrittenCheckpoint {
            cv,
            seq,
            fences,
            state_cvs,
            entries,
            tally,
        })?;
        self.obs.phase_done(t0, &self.obs.checkpoint_ns);
        Ok(cv)
    }

    /// The *publish* step of a checkpoint, shared by
    /// [`StoreCore::checkpoint`] and the seeding of
    /// [`ShardedStore::open_seeded`]: make the manifest durable, remember
    /// what it references (the next checkpoint's skip oracle), count the
    /// checkpoint and collect what it superseded. The caller holds the
    /// checkpoint gate and every file in `done.entries` is already synced;
    /// until the manifest lands nothing refers to them.
    pub(crate) fn publish_checkpoint(&self, done: WrittenCheckpoint) -> Result<(), StoreError> {
        let Some(p) = &self.persist else {
            return Err(StoreError::NotDurable);
        };
        let m = Manifest {
            seq: done.seq,
            version: done.cv,
            spec: self.config.spec.to_string(),
            fences: done.fences,
            shards: done.entries,
        };
        persist::manifest::write_manifest(p.dir(), &m)?;
        p.finish_checkpoint(done.cv, done.tally);
        persist::gc(p.dir(), &m);
        // The manifest is durable: its entries are now safe to skip from.
        // lint: allow(panic) lock poisoning propagates a holder's panic; no sound continuation
        *self.ckpt_memo.lock().expect("checkpoint memo poisoned") = Some(CheckpointMemo {
            fences: m.fences,
            shards: done
                .state_cvs
                .into_iter()
                .zip(m.shards)
                .map(|(state_cv, entry)| MemoShard {
                    state_cv,
                    entry: Some(entry),
                })
                .collect(),
        });
        self.emit_event(TraceKind::Checkpoint, None, done.tally.snapshot_bytes);
        Ok(())
    }
}
