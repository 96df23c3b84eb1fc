//! Epoch-pinned state publication — the cell every shard state, the store
//! table and the published cut sit in — and the commit clock.
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
//! single pointer under the write lock, so a load waits for nothing but
//! that swap (starvation-free under `std`'s queued `RwLock`).

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

/// The store-wide commit clock: one counter, and its value *is* the
/// commit-version sequence.
///
/// [`CommitClock::begin`] is called by a commit that holds the store's
/// commit-window lock, which it keeps until its last shard state is
/// published — so windows never overlap, and a reader that holds the same
/// lock and reads [`CommitClock::version`] `== v` has every commit `<= v`
/// fully published and nothing newer begun. Outside the lock a `version()`
/// read is a lower bound on what is published next: the protocol that turns
/// it into a consistent cut is in `cut.rs`.
#[derive(Debug, Default)]
pub struct CommitClock {
    version: AtomicU64,
}

impl CommitClock {
    /// A clock at version 0 (no writes).
    pub fn new() -> Self {
        Self::default()
    }

    /// Assign the next commit version. The caller holds the commit-window
    /// lock and publishes every state carrying this version before it lets
    /// go.
    #[inline]
    pub fn begin(&self) -> u64 {
        // lint: ordering(SeqCst) the bump precedes every publish of its commit; a reader whose later load still sees the old value read a cut no part of that commit had reached
        self.version.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// The newest assigned commit version (a commit in flight may not have
    /// published it yet).
    #[inline]
    pub fn version(&self) -> u64 {
        // lint: ordering(SeqCst) pairs with begin: a commit that closed before this load is counted by it
        self.version.load(Ordering::SeqCst)
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
    fn concurrent_loads_always_see_a_complete_epoch() {
        let cell = Arc::new(EpochCell::new(Arc::new((0u64, 0u64))));
        let rounds = if cfg!(miri) { 200 } else { 10_000 };
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let cell = Arc::clone(&cell);
                scope.spawn(move || {
                    for _ in 0..rounds {
                        let (a, b) = *cell.load();
                        assert_eq!(a, b, "epochs must be internally consistent");
                    }
                });
            }
            scope.spawn(move || {
                for i in 1..=rounds {
                    cell.store(Arc::new((i, i)));
                }
            });
        });
    }
}
