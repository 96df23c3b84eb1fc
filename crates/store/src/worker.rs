//! The background maintenance and hydration threads.
//!
//! A [`MaintenanceWorker`] is spawned by `ShardedStore::build` (or
//! `ShardedStore::open`) when
//! [`crate::StoreConfig::background_maintenance`] is set. Each pass it
//! compacts delta chains, rebuilds dirty shards and rebalances skewed ones —
//! all through the same seal/strip machinery the foreground paths use, so
//! readers never wait for it and writers only overlap it at the
//! pointer-swap commits. None of its duties change a shard's *merged view*,
//! so maintenance never moves a state's commit-version stamp: a pinned
//! [`crate::StoreSnapshot`] stays exact while the worker rebuilds, splits
//! or merges underneath it. On a durable store it has one more duty: once
//! the WAL has grown by [`crate::DurabilityConfig::checkpoint_ops`] logged
//! operations it takes an epoch-consistent checkpoint (snapshots + manifest
//! rotation + WAL truncation; see [`crate::persist`]) — the cut always
//! contains whole [`crate::WriteBatch`]es, because batches apply under the
//! same WAL lock the cut pins states under. Between passes it sleeps on a
//! condition variable: a threshold-crossing write *kicks* it awake
//! immediately, otherwise it wakes every [`IDLE_INTERVAL`].
//!
//! The worker owns nothing but a shared handle to the store's core; dropping
//! the store signals the worker to stop and joins the thread, so no
//! maintenance pass can outlive the store it serves.

use crate::store_core::StoreCore;
use sosd_data::key::Key;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long the maintenance worker sleeps between passes when nothing wakes
/// it early. Not a knob: a threshold-crossing write kicks the worker at
/// once, so the interval only paces the duties no write announces (idle
/// compaction, rebalancing, version ageing, the checkpoint trigger), and
/// every caller that ever set it chose this value.
pub const IDLE_INTERVAL: Duration = Duration::from_millis(1);

/// Wake-up channel between the store's write path and the worker thread.
#[derive(Debug, Default)]
pub(crate) struct WorkerSignal {
    flags: Mutex<SignalFlags>,
    cv: Condvar,
}

#[derive(Debug, Default)]
struct SignalFlags {
    stop: bool,
    kicked: bool,
}

impl WorkerSignal {
    /// Wake the worker for an immediate pass (a dirty shard appeared).
    pub(crate) fn kick(&self) {
        // lint: allow(panic) signal-lock poisoning means a worker panicked holding it; propagate
        let mut flags = self.flags.lock().expect("worker signal poisoned");
        flags.kicked = true;
        drop(flags);
        self.cv.notify_one();
    }

    /// Tell the worker to exit after its current pass.
    fn stop(&self) {
        // lint: allow(panic) signal-lock poisoning means a worker panicked holding it; propagate
        let mut flags = self.flags.lock().expect("worker signal poisoned");
        flags.stop = true;
        drop(flags);
        self.cv.notify_one();
    }

    /// Sleep until kicked, stopped or [`IDLE_INTERVAL`] elapsed. Returns
    /// true when the worker should exit.
    fn wait(&self) -> bool {
        // lint: allow(panic) signal-lock poisoning means a worker panicked holding it; propagate
        let mut flags = self.flags.lock().expect("worker signal poisoned");
        if !flags.stop && !flags.kicked {
            let (guard, _timeout) = self
                .cv
                .wait_timeout(flags, IDLE_INTERVAL)
                // lint: allow(panic) signal-lock poisoning means a worker panicked holding it; propagate
                .expect("worker signal poisoned");
            flags = guard;
        }
        flags.kicked = false;
        flags.stop
    }
}

/// Handle to the background maintenance thread of one `ShardedStore`.
///
/// The handle stops and joins the thread when dropped (the store drops it
/// from its own `Drop`), so shutdown is deterministic: no pass starts after
/// the store is gone.
#[derive(Debug)]
pub struct MaintenanceWorker {
    signal: Arc<WorkerSignal>,
    handle: Option<JoinHandle<()>>,
}

impl MaintenanceWorker {
    /// Spawn the worker over the store core. The thread loops: sleep (or be
    /// kicked), then run one maintenance pass — compaction, dirty-shard
    /// rebuilds, rebalancing, and (durable stores) the checkpoint duty.
    /// Errors are parked in the core for
    /// [`crate::ShardedStore::take_maintenance_errors`] to surface.
    pub(crate) fn spawn<K: Key>(core: Arc<StoreCore<K>>) -> Self {
        let signal = core.signal();
        let thread_signal = Arc::clone(&signal);
        let handle = std::thread::Builder::new()
            .name("shift-store-maintenance".into())
            .spawn(move || {
                while !thread_signal.wait() {
                    if let Err(e) = core.maintenance_pass() {
                        core.record_maintenance_error(e);
                    }
                }
            })
            // lint: allow(panic) thread spawn fails only on resource exhaustion during store construction
            .expect("failed to spawn the maintenance worker");
        Self {
            signal,
            handle: Some(handle),
        }
    }
}

impl Drop for MaintenanceWorker {
    fn drop(&mut self) {
        self.signal.stop();
        if let Some(handle) = self.handle.take() {
            // lint: allow(panic) join fails only when the child panicked; re-raising preserves the failure
            handle.join().expect("maintenance worker panicked");
        }
    }
}

/// Handle to the background **hydration** thread of a cold-started store
/// (see [`crate::StoreConfig::cold_start`]): it retrains every cold shard's
/// model off the open path, hottest-first in bounded-parallel waves, and
/// exits once the store is fully hot. Each hydration goes through the same
/// rebuild machinery as any other shard rebuild, so it races safely with
/// reads, writes, explicit [`crate::ShardedStore::hydrate`] calls and the
/// maintenance worker — whoever gets a shard's rebuild guard first does the
/// work, everyone else no-ops.
///
/// Dropped (stopped between waves and joined) with the store.
#[derive(Debug)]
pub struct HydrationWorker {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl HydrationWorker {
    /// Spawn the hydrator over the store core.
    pub(crate) fn spawn<K: Key>(core: Arc<StoreCore<K>>) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("shift-store-hydrator".into())
            .spawn(move || core.hydrate_cold_shards(&thread_stop))
            // lint: allow(panic) thread spawn fails only on resource exhaustion during store construction
            .expect("failed to spawn the hydration worker");
        Self {
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for HydrationWorker {
    fn drop(&mut self) {
        // lint: ordering(Relaxed) advisory shutdown flag; the join below synchronizes with the exiting thread
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            // lint: allow(panic) join fails only when the child panicked; re-raising preserves the failure
            handle.join().expect("hydration worker panicked");
        }
    }
}
