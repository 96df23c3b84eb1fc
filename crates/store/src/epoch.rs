//! Epoch-pinned state publication: the snapshot cell behind the lock-free
//! read path.
//!
//! An [`EpochCell`] holds the current `Arc` of an immutable state value and
//! hands read paths a *pinned* clone of it: once [`EpochCell::load`]
//! returns, the caller owns a reference to one consistent epoch of the state
//! and performs every probe and merge against it without further
//! synchronisation — publishers swapping in a newer epoch never invalidate a
//! pinned one, they only stop new loads from seeing it.
//!
//! ## Why not a bare atomic pointer?
//!
//! Reclaiming the *previous* epoch safely (no reader may still hold it)
//! requires hazard pointers or deferred reclamation, which needs `unsafe`
//! code or an external crate — this workspace forbids both. Instead the cell
//! wraps the `Arc` in an `RwLock` whose read guard is held only for the
//! duration of one reference-count increment (a handful of instructions; no
//! allocation, no waiting on any shard work). All expensive operations —
//! delta merges, model training, index builds — happen strictly outside the
//! cell: publishers prepare the full successor value first and then swap a
//! single pointer under the write lock. The result keeps the contract the
//! store's acceptance criteria name: **no lock is held on a read path after
//! snapshot acquisition, and readers never wait for writers, compactions or
//! rebuilds** (only for the nanosecond-scale pointer swap itself, which is
//! starvation-free under `std`'s queued `RwLock`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// A publication cell for `Arc`-shared immutable state.
///
/// Readers call [`EpochCell::load`] once per operation and then work purely
/// on the returned value; publishers install fully constructed successor
/// values with [`EpochCell::store`].
#[derive(Debug)]
pub struct EpochCell<T> {
    current: RwLock<Arc<T>>,
}

impl<T> EpochCell<T> {
    /// Create a cell publishing `initial`.
    pub fn new(initial: Arc<T>) -> Self {
        Self {
            current: RwLock::new(initial),
        }
    }

    /// Pin and return the current epoch. The internal read guard is held
    /// only for the `Arc` clone; the caller's pinned epoch stays valid (and
    /// immutable) for as long as the clone lives, regardless of how many
    /// newer epochs are published meanwhile.
    #[inline]
    pub fn load(&self) -> Arc<T> {
        // lint: allow(panic) epoch-cell poisoning means a publisher panicked mid-swap; no sound continuation
        self.current.read().expect("epoch cell poisoned").clone()
    }

    /// Publish `next` as the new current epoch. Callers are expected to
    /// serialise publication among themselves (the store uses a per-shard
    /// write mutex / the topology lock); the cell itself only guarantees the
    /// swap is atomic with respect to concurrent loads.
    #[inline]
    pub fn store(&self, next: Arc<T>) {
        // lint: allow(panic) epoch-cell poisoning means a publisher panicked mid-swap; no sound continuation
        *self.current.write().expect("epoch cell poisoned") = next;
    }
}

/// The store-wide commit clock: a seqlock-style pair of counters that lets
/// a reader capture a **consistent vector of per-shard states** without
/// blocking writers.
///
/// Every commit — a lone write or a whole [`crate::WriteBatch`] — brackets
/// its in-memory publication between [`CommitClock::begin`] — which also
/// assigns its monotonic *commit version* — and [`CommitClock::end`]. A
/// snapshot acquisition ([`CommitClock::read_consistent`]) spins until no
/// commit is in flight (`begun == done`), pins whatever immutable state the
/// caller's closure collects, and retries if any commit *began* during the
/// pinning window. On success the pinned vector reflects **exactly** the
/// commits with version `<= v` for the returned `v` — a store-wide
/// consistent cut, even though writers to different shards never serialise
/// against each other.
///
/// Why this is safe: commit versions are assigned by the same counter that
/// tracks begun commits, and a commit publishes every state carrying its
/// version before it closes its window. If no window was open when pinning
/// started and none opened before it finished, every assigned version has
/// been fully published and nothing newer exists — so "all states as
/// pinned" equals "all commits `<= begun`". Nothing here needs a shard to
/// apply its commits in version order, and the store does not promise it
/// (the version is assigned before the shard's write mutex is taken):
/// commits that could reach a shard out of order had overlapping windows,
/// and no cut falls inside an open window. The full argument, with what the
/// `max`-folded per-shard stamp adds, is in `write.rs` next to the store's
/// one commit function. Writers never wait on readers; a reader under a
/// continuous write storm retries, which is bounded in practice by the
/// nanosecond-scale begin→end window of a single publication (the loop
/// yields the CPU after a burst of failed spins so a descheduled writer can
/// finish its window).
#[derive(Debug, Default)]
pub struct CommitClock {
    /// Writes begun; the counter value *is* the commit-version sequence.
    begun: AtomicU64,
    /// Writes fully published. Always `<= begun`.
    done: AtomicU64,
}

impl CommitClock {
    /// A clock at version 0 (no writes).
    pub fn new() -> Self {
        Self::default()
    }

    /// Open a write window and assign its commit version. The caller must
    /// publish every state carrying this version and then call
    /// [`CommitClock::end`]; panicking in between would starve snapshots
    /// (the store's write paths hold no user code inside the window).
    #[inline]
    pub fn begin(&self) -> u64 {
        // lint: ordering(SeqCst) seqlock open: begun must be totally ordered with done and with every reader's begun/done loads
        self.begun.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Close the write window opened by the matching [`CommitClock::begin`].
    #[inline]
    pub fn end(&self) {
        // lint: ordering(SeqCst) seqlock close: totally ordered with begin so begun == done really means no write in flight
        self.done.fetch_add(1, Ordering::SeqCst);
    }

    /// The newest assigned commit version (for diagnostics; a concurrent
    /// writer may not have published it yet).
    pub fn version(&self) -> u64 {
        // lint: ordering(SeqCst) diagnostic read kept in the seqlock counters' total order
        self.begun.load(Ordering::SeqCst)
    }

    /// The current commit version if — at this instant — no write window is
    /// open, `None` otherwise. A `Some(v)` proves every assigned version
    /// `<= v` is fully published *at the moment of the check*; it is the
    /// cheap validity probe behind the store's cached snapshot pin (a cut
    /// previously captured at `v` is still exact while the clock reads
    /// quiescent at the same `v`).
    #[inline]
    pub fn quiescent_version(&self) -> Option<u64> {
        let done = self.done.load(Ordering::SeqCst); // lint: ordering(SeqCst) seqlock read: done before begun, in the writers' total order
        let begun = self.begun.load(Ordering::SeqCst); // lint: ordering(SeqCst) seqlock read: a begun/done match proves a quiescent instant
        (begun == done).then_some(begun)
    }

    /// Capture a consistent cut: run `pin` (which must only *load* immutable
    /// published state — epoch-cell loads, `Arc` clones) at a moment when no
    /// write is in flight, retrying until no write began during the pinning
    /// window. Returns the pinned value and the commit version it is exact
    /// at.
    ///
    /// Unbounded: under a continuous write storm on few cores this can
    /// retry for a long time — callers that must guarantee progress should
    /// use [`CommitClock::try_read_consistent`] and fall back to briefly
    /// gating writers out (as the store's snapshot path does).
    pub fn read_consistent<T>(&self, mut pin: impl FnMut() -> T) -> (T, u64) {
        loop {
            if let Some(cut) = self.try_read_consistent(u32::MAX, &mut pin) {
                return cut;
            }
        }
    }

    /// [`CommitClock::read_consistent`] giving up after `attempts` failed
    /// tries (each try spins briefly, then yields so a descheduled writer
    /// can close its window). `None` means a writer window overlapped every
    /// attempt.
    pub fn try_read_consistent<T>(
        &self,
        attempts: u32,
        pin: impl FnMut() -> T,
    ) -> Option<(T, u64)> {
        self.try_read_consistent_counted(attempts, pin).0
    }

    /// [`CommitClock::try_read_consistent`] that also reports how many
    /// attempts *failed* (writer windows overlapped the pin). The count is
    /// the observability hook behind the store's snapshot-pin retry metric;
    /// a successful first attempt reports `0`.
    pub fn try_read_consistent_counted<T>(
        &self,
        attempts: u32,
        mut pin: impl FnMut() -> T,
    ) -> (Option<(T, u64)>, u32) {
        for attempt in 0..attempts {
            let done = self.done.load(Ordering::SeqCst); // lint: ordering(SeqCst) seqlock read: done before begun, in the writers' total order
            let begun = self.begun.load(Ordering::SeqCst); // lint: ordering(SeqCst) seqlock read: a begun/done match proves a quiescent window
            if begun == done {
                let pinned = pin();
                // lint: ordering(SeqCst) seqlock validate: re-read after the pin; any interleaved begin is seen
                if self.begun.load(Ordering::SeqCst) == begun {
                    return (Some((pinned, begun)), attempt);
                }
            }
            // A writer is mid-window (or raced the pin). Spin briefly, then
            // yield so a descheduled writer can close its window.
            if attempt < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        (None, attempts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_pins_an_epoch_across_a_store() {
        let cell = EpochCell::new(Arc::new(vec![1u64, 2, 3]));
        let pinned = cell.load();
        cell.store(Arc::new(vec![9u64]));
        assert_eq!(*pinned, vec![1, 2, 3], "pinned epoch survives the swap");
        assert_eq!(*cell.load(), vec![9]);
    }

    #[test]
    fn commit_clock_versions_are_monotonic_and_reads_never_tear() {
        let clock = CommitClock::new();
        assert_eq!(clock.version(), 0);
        let v1 = clock.begin();
        clock.end();
        let v2 = clock.begin();
        clock.end();
        assert!(v2 > v1);
        assert_eq!(clock.version(), 2);

        // Two cells written together under the clock must always be read
        // as a pair, never half-updated. They start at the clock's current
        // version, so a read that wins the race against the first write
        // still holds "the last write" the cut names.
        let a = EpochCell::new(Arc::new(clock.version()));
        let b = EpochCell::new(Arc::new(clock.version()));
        std::thread::scope(|scope| {
            let clock = &clock;
            let (a, b) = (&a, &b);
            scope.spawn(move || {
                for _ in 0..20_000 {
                    let v = clock.begin();
                    a.store(Arc::new(v));
                    b.store(Arc::new(v));
                    clock.end();
                }
            });
            scope.spawn(move || {
                for _ in 0..2_000 {
                    let ((x, y), v) = clock.read_consistent(|| (*a.load(), *b.load()));
                    assert_eq!(x, y, "consistent cut must pair the cells");
                    assert_eq!(x, v, "cut version names the last write it holds");
                }
            });
        });
    }

    #[test]
    fn quiescent_version_tracks_open_windows() {
        let clock = CommitClock::new();
        assert_eq!(clock.quiescent_version(), Some(0));
        let v = clock.begin();
        assert_eq!(clock.quiescent_version(), None, "window open");
        clock.end();
        assert_eq!(clock.quiescent_version(), Some(v));
    }

    #[test]
    fn concurrent_loads_always_see_a_complete_epoch() {
        let cell = Arc::new(EpochCell::new(Arc::new((0u64, 0u64))));
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let cell = Arc::clone(&cell);
                scope.spawn(move || {
                    for _ in 0..10_000 {
                        let (a, b) = *cell.load();
                        assert_eq!(a, b, "epochs must be internally consistent");
                    }
                });
            }
            scope.spawn(move || {
                for i in 1..=10_000u64 {
                    cell.store(Arc::new((i, i)));
                }
            });
        });
    }
}
