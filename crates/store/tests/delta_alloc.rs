//! Heap allocations per write recorded into a delta chain.
//!
//! A counting global allocator tallies the allocations made on the test's
//! own thread while `DeltaChain::with_op` records writes into a non-empty
//! chain. A write makes two: the new chain's run list and the one buffer
//! of the run it writes, whether it amends the head run or prepends a
//! fresh one. (Runs of `(key, i64)` pairs in a `Vec` behind an `Arc` made
//! three and four.) A change to the run layout must not allocate more.
//!
//! The allocator is the only `unsafe` here: it forwards every call to
//! `System` unchanged and only counts.

use shift_store::delta::{DeltaChain, MAX_RUN_LEN};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every method forwards its arguments to `System` unchanged, so
// the contract `GlobalAlloc` asks of an allocator is `System`'s.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: forwarded to `System`; the caller's contract carries over.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: forwarded to `System`; the caller's contract carries over.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: forwarded to `System`; the caller's contract carries over.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> usize {
    ALLOCS.with(Cell::get)
}

/// Allocations `write` makes on this thread, per call, over `calls` calls.
fn per_call(calls: usize, mut write: impl FnMut(usize)) -> f64 {
    let before = allocs();
    for i in 0..calls {
        write(i);
    }
    (allocs() - before) as f64 / calls as f64
}

#[test]
fn recording_a_write_allocates_the_run_list_and_one_buffer() {
    // Amending: every write lands in the head run, which holds one entry
    // and fills up to MAX_RUN_LEN; two full runs sit below it.
    let mut base = DeltaChain::<u64>::new();
    for i in 0..2 * MAX_RUN_LEN as u64 + 1 {
        base = base.with_op(i * 7 + 1_000_000, 1, MAX_RUN_LEN);
    }
    assert_eq!(base.run_count(), 3);
    let mut chain = base.clone();
    let amend = per_call(MAX_RUN_LEN - 1, |i| {
        chain = chain.with_op(i as u64 * 3, if i % 3 == 2 { -1 } else { 1 }, MAX_RUN_LEN);
    });
    assert_eq!(chain.run_count(), 3, "every write amended the head");
    assert_eq!(chain.entry_count(), 3 * MAX_RUN_LEN);
    assert!(amend <= 2.0, "an amending write made {amend} allocations");

    // Prepending: a run bound of one entry makes every write open a fresh
    // run above the three.
    let mut chain = base.clone();
    let prepend = per_call(16, |i| {
        chain = chain.with_op(i as u64, 1, 1);
    });
    assert_eq!(chain.run_count(), 3 + 16);
    assert!(
        prepend <= 2.0,
        "a prepending write made {prepend} allocations"
    );
}
