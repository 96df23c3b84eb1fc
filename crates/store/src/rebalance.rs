//! Topology changes: the rebalance sweep, and the split and merge it
//! commits by retiring shards and publishing a new table.

use crate::delta::DeltaChain;
use crate::obs::TraceKind;
use crate::pool;
use crate::router::ShardRouter;
use crate::shard::{ShardSnapshot, StoreShard};
use crate::sharded::StoreTable;
use crate::store_core::StoreCore;
use shift_table::error::BuildError;
use sosd_data::key::Key;
use std::sync::atomic::Ordering;
use std::sync::Arc;

impl<K: Key> StoreCore<K> {
    /// One rebalance sweep: split every shard whose live size exceeds
    /// `split_skew × mean` — or the absolute `split_max_len` ceiling, which
    /// still fires when the peer-relative skew signal is inert (a 1-shard
    /// store *is* its own mean) — at a duplicate-run-aligned median fence
    /// (plus one catch-up split per sweep while the topology has fewer
    /// shards than configured), then merge shards smaller than
    /// `mean / split_skew` into their smaller neighbour. Returns the number
    /// of topology changes.
    pub(crate) fn rebalance(&self) -> Result<usize, BuildError> {
        let skew = self.config.split_skew;
        if skew == 0 {
            return Ok(0);
        }
        let max_len = self.config.split_max_len;
        let _topology = self.topology.lock().expect("topology lock poisoned"); // lint: allow(panic) lock poisoning propagates a holder's panic; no sound continuation
        let mut actions = 0usize;

        // Splits: pick candidates from one consistent sweep, then re-locate
        // each by identity (earlier splits shift indices).
        let table = self.load_table();
        let lens: Vec<usize> = table.shards.iter().map(|s| s.len()).collect();
        let total: usize = lens.iter().sum();
        let mean = (total / lens.len().max(1)).max(1);
        let oversized: Vec<Arc<StoreShard<K>>> = table
            .shards
            .iter()
            .zip(lens.iter())
            .filter(|&(_, &len)| len >= 2 && (len > skew * mean || (max_len > 0 && len > max_len)))
            .map(|(s, _)| Arc::clone(s))
            .collect();
        for shard in oversized {
            let table = self.load_table();
            if let Some(s) = table.position_of(&shard) {
                if self.split_shard(&table, s)? {
                    actions += 1;
                }
            }
        }

        // Catch-up growth: a topology with fewer shards than the
        // configuration requests (born small, grown from empty, or
        // collapsed by merges) grows back one split per sweep, largest
        // shard first — skew is relative to peers, so a single-shard store
        // could otherwise never split at all.
        let table = self.load_table();
        if table.shards.len() < self.config.shards {
            if let Some((s, _)) = table
                .shards
                .iter()
                .enumerate()
                .max_by_key(|(_, sh)| sh.len())
            {
                if table.shards[s].len() >= 2 && self.split_shard(&table, s)? {
                    actions += 1;
                }
            }
        }

        // Merges: re-sweep against the post-split topology.
        loop {
            let table = self.load_table();
            if table.shards.len() < 2 {
                break;
            }
            let lens: Vec<usize> = table.shards.iter().map(|s| s.len()).collect();
            let total: usize = lens.iter().sum();
            let mean = (total / lens.len()).max(1);
            let undersized = lens
                .iter()
                .enumerate()
                .filter(|&(_, &len)| len * skew < mean)
                .min_by_key(|&(_, &len)| len)
                .map(|(s, _)| s);
            let Some(s) = undersized else { break };
            // Merge into the smaller neighbour, refusing to create a new
            // oversized shard.
            let left_ok = s > 0;
            let right_ok = s + 1 < lens.len();
            let partner = match (left_ok, right_ok) {
                (true, true) if lens[s - 1] <= lens[s + 1] => s - 1,
                (true, false) => s - 1,
                (_, true) => s + 1,
                _ => break,
            };
            let (a, b) = (s.min(partner), s.max(partner));
            // Refuse to create a new oversized shard — by the skew signal or
            // by the absolute ceiling (which would oscillate with the split
            // fallback otherwise).
            let merged = lens[a] + lens[b];
            if merged > skew * mean
                || (max_len > 0 && merged > max_len)
                || !self.merge_shards(&table, a)?
            {
                break;
            }
            actions += 1;
        }
        Ok(actions)
    }

    /// Split shard `s` of `table` at a duplicate-run-aligned median fence.
    /// Returns false when the shard cannot be split (a single duplicate run
    /// dominates it, or it shrank below two keys). Must hold the topology
    /// lock.
    fn split_shard(&self, table: &StoreTable<K>, s: usize) -> Result<bool, BuildError> {
        let shard = Arc::clone(&table.shards[s]);
        let t0 = self.obs.phase_start();
        let _rebuild = shard.lock_rebuild();
        if shard.is_retired() {
            return Ok(false);
        }
        // Freeze: seal the chain; readers and writers proceed.
        let frozen = shard.seal();
        let merged = frozen.merged_view();
        let n = merged.len();
        if n < 2 {
            // Abandoned split: roll the seal back, or every retried split of
            // an unsplittable shard would strand one more sealed (and thus
            // uncompactable) run on the chain.
            shard.unseal();
            return Ok(false);
        }
        // Median fence, aligned down to the start of the median key's
        // duplicate run (or up to the next run when the median run begins
        // the shard) — a run of equal keys never spans two shards.
        let mid_key = merged[n / 2];
        let down = merged.partition_point(|&x| x < mid_key);
        let p = if down > 0 {
            down
        } else {
            merged.partition_point(|&x| x <= mid_key)
        };
        if p == 0 || p >= n {
            shard.unseal();
            return Ok(false); // one duplicate run dominates the shard
        }
        let split_key = merged[p];
        let halves: [Arc<[K]>; 2] = [merged[..p].into(), merged[p..].into()];
        drop(merged);
        // Build both child indexes off every lock but the topology/rebuild
        // guards; reads and writes to the shard continue meanwhile.
        let spec = shard.spec();
        let epoch = frozen.snapshot().epoch() + 1;
        let snaps = pool::run_tasks(halves.len(), |i| {
            Arc::new(ShardSnapshot::build(&spec, halves[i].clone(), epoch))
        });
        // Commit: capture the residual chain, cut it at the fence, retire
        // the old shard and publish the new table — all under the shard's
        // write lock so no write can slip between residual and retirement.
        let _write = shard.lock_write();
        let residual = shard.residual_since(&frozen);
        let (left_delta, right_delta) = residual.partition(split_key);
        // Children start at the parent's commit-version floor so the
        // `applied_cv` stamp stays monotonic across the topology change.
        let parent_cv = shard.state().applied_cv();
        let child = |snap, delta: DeltaChain<K>| {
            Arc::new(StoreShard::from_parts_at(
                spec,
                shard.threshold(),
                snap,
                delta,
                parent_cv,
            ))
        };
        let left = child(Arc::clone(&snaps[0]), left_delta);
        let right = child(Arc::clone(&snaps[1]), right_delta);
        let first_left_key = left.snapshot().keys()[0];
        let mut shards = table.shards.clone();
        shards.splice(s..=s, [left, right]);
        let mut fences = table.router.fences().to_vec();
        if fences.is_empty() {
            // A store born empty that grew: materialise the fence table.
            fences = vec![first_left_key, split_key];
        } else {
            if s == 0 {
                // fences[0] is nominal (never compared); keep it at or
                // below every key the leftmost shard holds.
                fences[0] = fences[0].min(first_left_key);
            }
            fences.insert(s + 1, split_key);
        }
        self.table.store(Arc::new(StoreTable {
            router: ShardRouter::from_fences(fences),
            shards,
        }));
        self.mark_cut_stale();
        shard.retire();
        self.splits.fetch_add(1, Ordering::Relaxed); // lint: ordering(Relaxed) monotonic stats counter; no synchronising role
        let ns = self.obs.phase_ns(t0);
        self.emit_event(TraceKind::Split, Some(s), ns);
        Ok(true)
    }

    /// Merge shards `s` and `s + 1` of `table` into one. Must hold the
    /// topology lock.
    fn merge_shards(&self, table: &StoreTable<K>, s: usize) -> Result<bool, BuildError> {
        let a = Arc::clone(&table.shards[s]);
        let b = Arc::clone(&table.shards[s + 1]);
        let t0 = self.obs.phase_start();
        let _rebuild_a = a.lock_rebuild();
        let _rebuild_b = b.lock_rebuild();
        if a.is_retired() || b.is_retired() {
            return Ok(false);
        }
        let frozen_a = a.seal();
        let frozen_b = b.seal();
        let keys: Arc<[K]> = [frozen_a.merged_view(), frozen_b.merged_view()]
            .concat()
            .into();
        debug_assert!(keys.is_sorted(), "adjacent shards must concatenate sorted");
        let spec = a.spec();
        let epoch = frozen_a.snapshot().epoch().max(frozen_b.snapshot().epoch()) + 1;
        let snapshot = Arc::new(ShardSnapshot::build(&spec, keys, epoch));
        // Commit under both write locks (taken in shard order).
        let _write_a = a.lock_write();
        let _write_b = b.lock_write();
        let residual = a
            .residual_since(&frozen_a)
            .concat(&b.residual_since(&frozen_b));
        let parent_cv = a.state().applied_cv().max(b.state().applied_cv());
        let child = Arc::new(StoreShard::from_parts_at(
            spec,
            a.threshold(),
            snapshot,
            residual,
            parent_cv,
        ));
        let mut shards = table.shards.clone();
        shards.splice(s..=s + 1, [child]);
        let mut fences = table.router.fences().to_vec();
        if !fences.is_empty() {
            fences.remove(s + 1);
        }
        self.table.store(Arc::new(StoreTable {
            router: ShardRouter::from_fences(fences),
            shards,
        }));
        self.mark_cut_stale();
        a.retire();
        b.retire();
        self.merges.fetch_add(1, Ordering::Relaxed); // lint: ordering(Relaxed) monotonic stats counter; no synchronising role
        let ns = self.obs.phase_ns(t0);
        self.emit_event(TraceKind::Merge, Some(s), ns);
        Ok(true)
    }
}
