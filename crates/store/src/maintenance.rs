//! Maintenance that leaves the merged view alone: shard rebuilds (a cold
//! shard's rebuild is its hydration), chain compaction, the background
//! worker's pass and the hydrator's sweep.

use crate::delta::COMPACT_RUNS;
use crate::error::StoreError;
use crate::obs::{HydrationReason, TraceKind};
use crate::pool;
use crate::shard::StoreShard;
use crate::store_core::StoreCore;
use shift_table::error::BuildError;
use sosd_data::key::Key;
use std::sync::atomic::Ordering;
use std::sync::Arc;

impl<K: Key> StoreCore<K> {
    /// Rebuild one shard, counting it on success. A *cold* shard's rebuild
    /// is a hydration — it decodes the mounted snapshot and retrains the
    /// model — so it is additionally counted (and traced) as one; it still
    /// counts into [`crate::ShardedStore::total_rebuilds`], which has always
    /// included hydrations.
    pub(crate) fn rebuild_shard(&self, shard: &Arc<StoreShard<K>>) -> Result<bool, BuildError> {
        let was_cold = shard.snapshot().is_cold();
        let t0 = self.obs.phase_start();
        let rebuilt = shard.rebuild()?;
        if rebuilt {
            self.mark_cut_stale();
            self.rebuilds.fetch_add(1, Ordering::Relaxed); // lint: ordering(Relaxed) monotonic stats counter; no synchronising role
            if self.obs.enabled() {
                let (kind, hist) = if was_cold {
                    self.obs.count(&self.obs.hydrations, 1);
                    (TraceKind::Hydrated, &self.obs.hydration_ns)
                } else {
                    (TraceKind::Rebuild, &self.obs.rebuild_ns)
                };
                let ns = self.obs.phase_done(t0, hist);
                self.emit_event(kind, self.load_table().position_of(shard), ns);
            }
        }
        Ok(rebuilt)
    }

    /// Rebuild every shard picked by `pick`, at most one per hardware thread
    /// at a time.
    pub(crate) fn rebuild_where(
        &self,
        pick: impl Fn(&StoreShard<K>) -> bool,
    ) -> Result<usize, BuildError> {
        let table = self.load_table();
        let targets: Vec<&Arc<StoreShard<K>>> = table.shards.iter().filter(|s| pick(s)).collect();
        let mut rebuilt = 0usize;
        for outcome in pool::run_tasks(targets.len(), |i| self.rebuild_shard(targets[i])) {
            rebuilt += usize::from(outcome?);
        }
        Ok(rebuilt)
    }

    /// One background maintenance pass: compact long chains, rebuild dirty
    /// shards, rebalance skewed ones and — on a durable store whose WAL has
    /// grown past the configured record budget — take a checkpoint. Returns
    /// the number of actions taken.
    pub(crate) fn maintenance_pass(&self) -> Result<usize, StoreError> {
        let mut actions = 0usize;
        let table = self.load_table();
        // The worker compacts earlier than the writers' inline fold (at
        // half its run bound) so idle shards converge to short chains
        // without a write having to pay.
        let worker_trigger = COMPACT_RUNS / 2;
        for (s, shard) in table.shards.iter().enumerate() {
            if shard.state().delta().unsealed_run_count() >= worker_trigger {
                let t0 = self.obs.phase_start();
                if shard.compact() {
                    self.mark_cut_stale();
                    let ns = self.obs.phase_done(t0, &self.obs.compaction_ns);
                    self.obs.count(&self.obs.compactions, 1);
                    self.emit_event(TraceKind::Compact, Some(s), ns);
                    actions += 1;
                }
            }
            // Halve the decayed access-frequency signal once per pass, so
            // `store_shard_accesses` reads as a recency-weighted rate.
            shard.decay_accesses();
        }
        // A cold shard whose first read requested its own hydration gets it
        // here even when no hydrator thread is running (a cold shard can
        // outlive the hydrator if its sweep was stopped by an error).
        actions += self.rebuild_where(|s| s.hydration_requested() && s.snapshot().is_cold())?;
        actions += self.rebuild_where(|s| s.is_dirty())?;
        actions += self.rebalance()?;
        if self.persist.as_ref().is_some_and(|p| p.checkpoint_due()) {
            self.checkpoint()?;
            actions += 1;
        }
        Ok(actions)
    }

    /// Background-hydrate every cold shard (see
    /// [`crate::worker::HydrationWorker`]): retrain models in waves capped
    /// at the machine's parallelism, re-scanning until the table holds no
    /// cold shard or `stop` is raised. A build failure is parked for
    /// [`crate::ShardedStore::take_maintenance_errors`] and ends the pass —
    /// cold shards keep serving off their block index.
    pub(crate) fn hydrate_cold_shards(&self, stop: &std::sync::atomic::AtomicBool) {
        let workers = pool::worker_count(usize::MAX);
        loop {
            // lint: ordering(Relaxed) advisory shutdown flag; a stale read costs one extra wave, thread join orders the rest
            if stop.load(Ordering::Relaxed) {
                return;
            }
            // One wave per sweep, re-scanned against the freshest table so
            // first-touch requests arriving mid-hydration jump the queue:
            // a shard a reader is actively waiting on hydrates before the
            // sweep's positional order would reach it.
            let table = self.load_table();
            let mut cold: Vec<Arc<StoreShard<K>>> = table
                .shards
                .iter()
                .filter(|s| s.snapshot().is_cold())
                .cloned()
                .collect();
            if cold.is_empty() {
                return;
            }
            cold.sort_by_key(|s| !s.hydration_requested());
            cold.truncate(workers);
            for shard in &cold {
                // A first-touch request already emitted its trigger event
                // (consuming the flag here keeps the two reasons disjoint).
                if !shard.take_hydration_request() {
                    self.emit_event(
                        TraceKind::HydrationTriggered,
                        table.position_of(shard),
                        HydrationReason::BackgroundSweep.code(),
                    );
                }
            }
            let wave = pool::run_tasks(cold.len(), |i| self.rebuild_shard(&cold[i]));
            let mut failed = false;
            for e in wave.into_iter().filter_map(Result::err) {
                self.record_maintenance_error(e.into());
                failed = true;
            }
            if failed {
                return;
            }
        }
    }
}
