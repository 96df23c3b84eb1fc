//! Consistent cuts: pinning the table and every shard state inside one
//! quiescent window of the commit clock, the cached cut behind O(1)
//! snapshot acquisition, and the retention of cuts as historical versions.

use crate::obs::{TraceEvent, TraceKind};
use crate::shard::ShardState;
use crate::sharded::StoreTable;
use crate::snapshot::{PinnedCut, SnapshotHook, StoreSnapshot};
use crate::store_core::StoreCore;
use sosd_data::key::Key;
use std::sync::Arc;

impl<K: Key> StoreCore<K> {
    /// Capture a store-wide consistent cut: pin the table and every shard's
    /// state inside one quiescent commit-clock window (see
    /// [`CommitClock::try_read_consistent`]). The returned snapshot is
    /// exact at its commit version and repeatable forever.
    ///
    /// Liveness: the lock-free seqlock capture is retried a bounded number
    /// of times; if a write window overlapped every attempt (possible only
    /// under a continuous write storm with fewer cores than threads), the
    /// capture falls back to taking the write gate — writers pause for the
    /// microseconds one pin sweep takes, and the snapshot is guaranteed.
    pub(crate) fn snapshot(&self) -> StoreSnapshot<K> {
        StoreSnapshot::from_cut(self.pin_cut(), Some(self.hook()))
    }

    pub(crate) fn hook(&self) -> SnapshotHook {
        SnapshotHook {
            obs: Arc::clone(&self.obs),
            signal: Arc::clone(&self.signal),
        }
    }

    /// Pin the table and every shard's published state — the closure every
    /// consistent cut runs inside a quiescent clock window, and what the
    /// checkpoint cut and the metrics scrape take under their own rules.
    pub(crate) fn pin_states(&self) -> (Arc<StoreTable<K>>, Vec<Arc<ShardState<K>>>) {
        let table = self.load_table();
        let states = table.shards.iter().map(|s| s.state()).collect();
        (table, states)
    }

    /// Capture (or reuse) the current consistent cut. The fast path serves
    /// the cached cut whenever the clock still reads quiescent at its
    /// version — no write happened since the cut was pinned, so it is still
    /// exact — making repeat snapshot/begin acquisition O(1) in the shard
    /// count. A miss runs the full seqlock capture and refreshes the cache.
    pub(crate) fn pin_cut(&self) -> PinnedCut<K> {
        if let Some(qv) = self.clock.quiescent_version() {
            // lint: allow(panic) lock poisoning propagates a holder's panic; no sound continuation
            let cache = self.pin_cache.lock().expect("pin cache poisoned");
            if let Some(cut) = cache.as_ref() {
                if cut.version == qv {
                    return cut.clone();
                }
            }
        }
        let (cut, failed_pins) = self
            .clock
            .try_read_consistent_counted(128, || self.pin_states());
        if failed_pins > 0 {
            self.obs
                .count(&self.obs.snap_pin_retries, u64::from(failed_pins));
        }
        let ((table, states), version) = match cut {
            Some(cut) => cut,
            None => {
                self.obs.count(&self.obs.write_gate_fallbacks, 1);
                let _gate = self.write_gate.write().expect("write gate poisoned"); // lint: allow(panic) lock poisoning propagates a holder's panic; no sound continuation
                                                                                   // No window can be open or opened: first attempt succeeds.
                self.clock.read_consistent(|| self.pin_states())
            }
        };
        let cut = PinnedCut::new(table, states, version);
        // lint: allow(panic) lock poisoning propagates a holder's panic; no sound continuation
        *self.pin_cache.lock().expect("pin cache poisoned") = Some(cut.clone());
        cut
    }

    /// [`StoreCore::pin_cut`] for a caller that has writers excluded — it
    /// holds a durable store's WAL frame lock (every durable write applies
    /// under it) or the write gate's write side. No commit window can be
    /// open or opened, so the first seqlock attempt always succeeds. Never
    /// call this without that exclusion: it would spin under a write storm.
    pub(crate) fn pin_cut_quiescent(&self) -> PinnedCut<K> {
        let ((table, states), version) = self.clock.read_consistent(|| self.pin_states());
        let cut = PinnedCut::new(table, states, version);
        // lint: allow(panic) lock poisoning propagates a holder's panic; no sound continuation
        *self.pin_cache.lock().expect("pin cache poisoned") = Some(cut.clone());
        cut
    }

    /// Opportunistically retain the current cut after a write, when a
    /// retention policy is configured. The pin attempt is bounded and
    /// writers never wait on it — losing the race just means the *next*
    /// write (or the next transaction commit, which captures
    /// deterministically inside its writer-excluded critical section)
    /// retains instead.
    pub(crate) fn retain_current(&self) {
        if !self.versions.enabled() {
            return;
        }
        let pinned = self.clock.try_read_consistent(8, || self.pin_states());
        if let Some(((table, states), version)) = pinned {
            let cut = PinnedCut::new(table, states, version);
            self.record_evictions(self.versions.capture(cut));
        }
    }

    /// Drop the cached cut. Called by every maintenance path that
    /// republishes shard state *without* opening a commit window (rebuild,
    /// compaction, split, merge) — the old cut would stay *correct* (its
    /// pinned states are immutable and complete) but would keep serving the
    /// pre-maintenance structures and pinning their memory until the next
    /// write moved the clock.
    pub(crate) fn invalidate_pin_cache(&self) {
        // lint: allow(panic) lock poisoning propagates a holder's panic; no sound continuation
        *self.pin_cache.lock().expect("pin cache poisoned") = None;
    }

    /// Count and trace version-ring evictions: one
    /// [`TraceKind::VersionEvicted`] per dropped cut, stamped with the
    /// evicted commit version and carrying the remaining retained count.
    /// Returns how many there were.
    pub(crate) fn record_evictions(&self, evicted: Vec<(u64, usize)>) -> usize {
        let n = evicted.len();
        for (cv, remaining) in evicted {
            self.obs.count(&self.obs.version_evictions, 1);
            self.obs.emit(TraceEvent::store(
                TraceKind::VersionEvicted,
                cv,
                remaining as u64,
            ));
        }
        n
    }
}
