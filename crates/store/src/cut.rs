//! Consistent cuts: the commit window, the published cut, and how a read
//! decides that the published cut is the current one.
//!
//! **Protocol.** Every commit holds `window` from `clock.begin()` to its
//! last shard publish, so at most one commit is ever part-published, and
//! whoever holds `window` sees none. A cut is pinned only under `window`:
//! the table, every shard's state, `clock.version()` and the maintenance
//! generation `swaps` (read *before* the states). It is then published in
//! `published`, where the next read finds it.
//!
//! **Linearizability.** A read loads the published cut `C` and accepts it
//! when `C.version == clock.version()` and `C.swaps == swaps`. `C` was
//! pinned under `window`, so it holds exactly the commits `<= C.version`
//! and no part of any other. A commit that closed before the read began
//! bumped the clock before the read's load of it, so its version is
//! `<= C.version`: it is in `C`. A commit in flight has bumped the clock
//! already, the check fails, and the read takes `window` — behind that
//! commit — and pins afresh. Maintenance (rebuild/hydration, compaction,
//! split, merge) republishes a shard state or the table without changing
//! the merged view, so a cut that misses it still answers exactly; it bumps
//! `swaps` *after* its swap, so a read that begins after the bump rejects
//! every cut whose pin could have missed the swap, and the first read after
//! maintenance serves (and stops pinning the memory of) the new structures.
//!
//! **Lock order.** Commit side: checkpoint gate → WAL lock → `window` →
//! shard `write` → cells. Maintenance side: `topology` → shard
//! `rebuild_guard` → shard `write` → cells. Maintenance never takes
//! `window` — `split_shard` / `merge_shards` mark the cut stale while
//! holding shard `write` locks that a commit takes under `window` — and a
//! holder of `window` takes nothing but shard `write` locks and cells.
//!
//! What this gives up: in-memory commits to different shards used to
//! overlap their publication; they are now serial, as durable commits
//! (under the WAL lock) always were.

use crate::obs::{TraceEvent, TraceKind};
use crate::shard::ShardState;
use crate::sharded::StoreTable;
use crate::snapshot::{PinnedCut, StoreSnapshot};
use crate::store_core::StoreCore;
use sosd_data::key::Key;
use std::sync::atomic::Ordering;
use std::sync::{Arc, MutexGuard};

impl<K: Key> StoreCore<K> {
    /// A store-wide consistent snapshot at the current commit version:
    /// exact at [`StoreSnapshot::version`] and repeatable forever. Between
    /// writes this is one cell load and two atomic loads; the first read
    /// after a write or a maintenance swap re-pins under `window`.
    pub(crate) fn snapshot(&self) -> StoreSnapshot<K> {
        StoreSnapshot::from_cut(self.cut(), Some(Arc::clone(&self.hook)))
    }

    /// Pin the table and every shard's published state: a consistent cut
    /// when the caller excludes commits (`window`, or a durable store's WAL
    /// lock for the checkpoint), a plain sweep for the metrics scrape.
    pub(crate) fn pin_states(&self) -> (Arc<StoreTable<K>>, Vec<Arc<ShardState<K>>>) {
        let table = self.load_table();
        let states = table.states();
        (table, states)
    }

    /// Take the commit window: no commit is part-published while the guard
    /// lives.
    pub(crate) fn lock_window(&self) -> MutexGuard<'_, ()> {
        // lint: allow(panic) lock poisoning propagates a holder's panic; no sound continuation
        self.window.lock().expect("commit window poisoned")
    }

    /// The current consistent cut (see the module docs for why the accepted
    /// one is current).
    pub(crate) fn cut(&self) -> Arc<PinnedCut<K>> {
        let cut = self.published.load();
        if self.is_current(&cut) {
            return cut;
        }
        self.obs.count(&self.obs.cut_refreshes, 1);
        self.cut_locked(&self.lock_window())
    }

    /// [`StoreCore::cut`] for a caller that already holds `window` (a
    /// commit validating, or retaining its own version): the published cut
    /// if it is still current, else a fresh pin, published for the reads
    /// that follow.
    pub(crate) fn cut_locked(&self, _window: &MutexGuard<'_, ()>) -> Arc<PinnedCut<K>> {
        let cut = self.published.load();
        if self.is_current(&cut) {
            return cut;
        }
        // lint: ordering(SeqCst) read before the states: a swap this pin misses is marked after this load, so the stamp stays behind it
        let swaps = self.swaps.load(Ordering::SeqCst);
        let (table, states) = self.pin_states();
        let cut = Arc::new(PinnedCut::new(table, states, self.clock.version(), swaps));
        self.published.store(Arc::clone(&cut));
        cut
    }

    fn is_current(&self, cut: &PinnedCut<K>) -> bool {
        // lint: ordering(SeqCst) pairs with mark_cut_stale: a read begun after the mark sees it
        cut.version == self.clock.version() && cut.swaps == self.swaps.load(Ordering::SeqCst)
    }

    /// Mark the published cut stale. Called by every maintenance path
    /// *after* it republished shard state or the table without a commit;
    /// must not take `window` (see the lock order).
    pub(crate) fn mark_cut_stale(&self) {
        // lint: ordering(SeqCst) after the swap it announces; pairs with the loads in is_current and cut_locked
        self.swaps.fetch_add(1, Ordering::SeqCst);
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

/// The protocol above as a transition system, explored over **every**
/// interleaving — a stress test samples schedules, this enumerates them.
/// One committer applies two-shard batches, one maintainer swaps shard A's
/// state and marks the cut stale, readers run `cut()`. A step is one access
/// to shared state and stands for one line of the code above; the three
/// orderings the argument leans on are each broken in turn, to show that
/// the explorer would catch them.
#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    /// A published shard state: the newest commit it holds and the epoch of
    /// its structures (maintenance moves the second, never the first).
    #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
    struct Shard {
        commit: u8,
        epoch: u8,
    }

    #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
    struct Cut {
        a: Shard,
        b: Shard,
        version: u8,
        swaps: u8,
    }

    #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
    struct Thread {
        pc: usize,
        /// A reader's local: the cut it loaded or is assembling.
        cut: Cut,
        /// What had finished before a read began: commits closed, and shard
        /// A's epoch as of the last swap that was also marked.
        closed_before: u8,
        epoch_before: u8,
    }

    #[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
    struct World {
        window_held: bool,
        clock: u8,
        swaps: u8,
        a: Shard,
        b: Shard,
        published: Cut,
        closed: u8,
        marked_epoch: u8,
        commits_left: u8,
        /// The committer, the maintainer, then the readers.
        threads: Vec<Thread>,
    }

    #[derive(Clone, Copy, PartialEq, Debug)]
    enum Op {
        Lock,
        Unlock,
        Bump,
        PublishA,
        PublishB,
        Swap,
        Mark,
        LoadSlot,
        CheckVersion,
        CheckSwaps,
        Stamp,
        PinA,
        PinB,
        ReadClock,
        Publish,
    }
    use Op::*;

    const COMMIT: [Op; 5] = [Lock, Bump, PublishA, PublishB, Unlock];
    const MAINTAIN: [Op; 2] = [Swap, Mark];
    /// `cut()`, then from `LOCKED` on `cut_locked()`, which re-pins from
    /// `PIN` on if the slot is still stale.
    const READ: [Op; 13] = [
        LoadSlot,
        CheckVersion,
        CheckSwaps,
        Lock,
        LoadSlot,
        CheckVersion,
        CheckSwaps,
        Stamp,
        PinA,
        PinB,
        ReadClock,
        Publish,
        Unlock,
    ];
    const LOCKED: usize = 3;
    const PIN: usize = 7;

    /// The commit lets go of the window before its second publish.
    const EARLY_UNLOCK: [Op; 5] = [Lock, Bump, PublishA, Unlock, PublishB];
    /// Maintenance marks the cut stale before its swap, not after.
    const MARK_BEFORE_SWAP: [Op; 2] = [Mark, Swap];
    /// A re-pin reads the generation after the states, not before.
    fn stamp_after_pin() -> [Op; 13] {
        let mut read = READ;
        read[PIN..PIN + 3].copy_from_slice(&[PinA, PinB, Stamp]);
        read
    }

    impl World {
        /// One step of thread `t`: `Ok(None)` when it is finished or waits
        /// for the window, `Err` when a read returned a cut that breaks a
        /// property.
        fn step(&self, t: usize, program: &[Op]) -> Result<Option<World>, String> {
            let pc = self.threads[t].pc;
            let Some(&op) = program.get(pc) else {
                return Ok(None);
            };
            let mut w = self.clone();
            let me = &mut w.threads[t];
            if t >= 2 && pc == 0 {
                (me.closed_before, me.epoch_before) = (self.closed, self.marked_epoch);
            }
            me.pc += 1;
            let mut returned = false;
            match op {
                Lock if self.window_held => return Ok(None),
                Lock => w.window_held = true,
                Unlock => (w.window_held, returned) = (false, t >= 2),
                Bump => w.clock += 1,
                PublishA => w.a.commit = self.clock,
                PublishB => w.b.commit = self.clock,
                Swap => w.a.epoch += 1,
                Mark => w.swaps += 1,
                LoadSlot => me.cut = self.published,
                // Stale: on to the lock, or under it to the re-pin.
                CheckVersion if me.cut.version != self.clock => {
                    me.pc = if pc < LOCKED { LOCKED } else { PIN };
                }
                CheckVersion => {}
                // Current: return it (once unlocked, if locked).
                CheckSwaps if me.cut.swaps == self.swaps => {
                    returned = pc < LOCKED;
                    me.pc = program.len() - 1;
                }
                CheckSwaps => {}
                Stamp => me.cut.swaps = self.swaps,
                PinA => me.cut.a = self.a,
                PinB => me.cut.b = self.b,
                ReadClock => me.cut.version = self.clock,
                Publish => w.published = me.cut,
            }
            let me = &mut w.threads[t];
            if returned {
                me.pc = program.len();
                let c = me.cut;
                if (c.a.commit, c.b.commit) != (c.version, c.version) {
                    return Err(format!("half a batch: {c:?}"));
                }
                if c.version < me.closed_before {
                    return Err(format!("misses a closed commit: {c:?} in {me:?}"));
                }
                if c.a.epoch < me.epoch_before {
                    return Err(format!("serves a pre-swap state: {c:?} in {me:?}"));
                }
            }
            if me.pc == program.len() {
                match t {
                    0 => {
                        w.closed += 1;
                        w.commits_left -= 1;
                        if w.commits_left > 0 {
                            w.threads[0].pc = 0;
                        }
                    }
                    1 => w.marked_epoch = w.a.epoch,
                    _ => {}
                }
            }
            Ok(Some(w))
        }
    }

    /// Visit every state reachable by any interleaving of the committer
    /// (`commits` batches), the maintainer and `readers` readers. Returns
    /// the number of states, or the first broken property or deadlock.
    fn explore(
        commit: &[Op],
        maintain: &[Op],
        read: &[Op],
        commits: u8,
        readers: usize,
    ) -> Result<usize, String> {
        let programs: Vec<&[Op]> = [commit, maintain]
            .into_iter()
            .chain(std::iter::repeat_n(read, readers))
            .collect();
        let start = World {
            commits_left: commits,
            threads: vec![Thread::default(); programs.len()],
            ..World::default()
        };
        let mut seen = HashSet::new();
        let mut stack = vec![start];
        while let Some(w) = stack.pop() {
            if !seen.insert(w.clone()) {
                continue;
            }
            let before = stack.len();
            for (t, program) in programs.iter().enumerate() {
                stack.extend(w.step(t, program)?);
            }
            let finished = (w.threads.iter().zip(&programs)).all(|(t, p)| t.pc == p.len());
            if stack.len() == before && !finished {
                return Err(format!("stuck: {w:?}"));
            }
        }
        Ok(seen.len())
    }

    #[test]
    fn every_interleaving_returns_a_whole_current_cut() {
        // Two commits, so a read can meet a cut another read published
        // between them; under Miri one commit keeps the walk short.
        let commits = if cfg!(miri) { 1 } else { 2 };
        let states = explore(&COMMIT, &MAINTAIN, &READ, commits, 2).unwrap();
        assert!(states > 1_000, "explored only {states} states");
    }

    #[test]
    fn the_explorer_catches_each_ordering_the_argument_leans_on() {
        let broken = explore(&EARLY_UNLOCK, &MAINTAIN, &READ, 1, 1).unwrap_err();
        assert!(broken.starts_with("half a batch"), "{broken}");
        let broken = explore(&COMMIT, &MARK_BEFORE_SWAP, &READ, 1, 2).unwrap_err();
        assert!(broken.starts_with("serves a pre-swap state"), "{broken}");
        let broken = explore(&COMMIT, &MAINTAIN, &stamp_after_pin(), 1, 2).unwrap_err();
        assert!(broken.starts_with("serves a pre-swap state"), "{broken}");
    }
}
