//! Serving scenario: a sharded, updatable store absorbing a mixed
//! read/write workload while a background maintenance thread compacts
//! delta chains, rebuilds dirty shards and rebalances skewed ones.
//!
//! Run with `cargo run --release --example sharded_store`.

use shift_table_repro::prelude::*;

fn main() {
    // A "Facebook-like" key column and a store of 8 range shards, each an
    // IM + Shift-Table corrected index built from the same spec string a
    // config file would carry. The background worker owns maintenance:
    // writes never rebuild inline.
    let dataset: Dataset<u64> = SosdName::Face64.generate(200_000, 42);
    let spec = IndexSpec::parse("im+r1").unwrap();
    let config = StoreConfig::new(spec)
        .shards(8)
        .delta_threshold(2_048)
        .auto_rebuild(false)
        .background_maintenance(true);
    let store = ShardedStore::build(config, dataset.as_slice()).unwrap();
    println!(
        "store: {} keys across {} shards ({} aux bytes), fences at {:?}…",
        store.len(),
        store.shard_count(),
        store.index_size_bytes(),
        &store.fences()[..3.min(store.shard_count())],
    );

    // Replay an insert-heavy trace. Every read pins one immutable shard
    // state (base snapshot + delta chain) — no lock is held while probing —
    // and the worker folds chains into fresh bases behind the scenes.
    let trace = MixedWorkload::insert_heavy(&dataset, 50_000, 7);
    let (lookups, inserts, deletes, ranges) = trace.op_counts();
    println!("trace: {lookups} lookups, {inserts} inserts, {deletes} deletes, {ranges} ranges");
    let mut checksum = 0u64;
    for &op in trace.ops() {
        match op {
            MixedOp::Lookup(q) => checksum = checksum.wrapping_add(store.lower_bound(q) as u64),
            MixedOp::Insert(k) => store.insert(k).unwrap(),
            MixedOp::Delete(k) => {
                store.delete(k).unwrap();
            }
            MixedOp::Range(lo, hi) => {
                checksum = checksum.wrapping_add(store.range(lo, hi).len() as u64)
            }
        }
    }
    println!(
        "after trace: {} keys, per-shard epochs {:?} (checksum {checksum:x})",
        store.len(),
        store.epochs(),
    );

    // Skew one narrow key range hard enough that the rebalancer splits the
    // hot shard — past 4× the mean shard size — at a duplicate-run-aligned
    // median fence.
    let (lo, hi) = (dataset.min_key().unwrap(), dataset.max_key().unwrap());
    let hot = lo + (hi - lo) / 8 * 7;
    for i in 0..250_000u64 {
        store.insert(hot + (i % 4_096)).unwrap();
    }
    store.rebalance().unwrap();
    assert!(store.total_splits() >= 1, "the hot shard must split");
    println!(
        "after skew: {} shards ({} splits, {} merges, {} rebuilds so far)",
        store.shard_count(),
        store.total_splits(),
        store.total_merges(),
        store.total_rebuilds(),
    );

    // Batched reads group queries per shard before dispatch against one
    // pinned snapshot, so each shard's stage-blocked batch path serves its
    // bucket in one go and the whole batch is exact at one commit version
    // even while writers and the rebalancer race it.
    let queries = Workload::uniform_domain(&dataset, 10_000, 3);
    let positions = store.lower_bound_many(queries.queries());
    println!(
        "batched {} lookups; first three: {:?}",
        positions.len(),
        &positions[..3]
    );

    // A pinned snapshot is a store-wide consistent cut: reads on it are
    // repeatable forever, however the store moves on. Correlated reads —
    // here a range count cross-checked against a key scan — should always
    // share one snapshot.
    let snap = store.snapshot();
    let (lo_q, hi_q) = (hot, hot + 2_048);
    let width = snap.range(lo_q, hi_q).len();
    assert_eq!(width, snap.scan(lo_q, hi_q).len(), "one cut, one answer");
    store.insert(hot).unwrap(); // races nothing: the snapshot is immutable
    assert_eq!(snap.range(lo_q, hi_q).len(), width);
    println!(
        "snapshot v{}: {} keys in [{lo_q}, {hi_q}], repeatable mid-write",
        snap.version(),
        width
    );

    // Writes that must land together go through a WriteBatch: one commit
    // version, atomic under every snapshot (and, on a durable store, one
    // WAL record + one fdatasync).
    let mut batch = WriteBatch::new();
    batch.insert(lo).insert(hi).delete(hot);
    let receipt = store.apply(&batch).unwrap();
    println!(
        "batch @v{}: {} inserted, {} deleted atomically",
        receipt.commit_version, receipt.inserted, receipt.deleted
    );

    // Drain every remaining chain and verify the store against the
    // dataset-independent invariant: positions are non-decreasing in the
    // query key.
    while store.flush().unwrap() > 0 {}
    let mut sorted = queries.queries().to_vec();
    sorted.sort_unstable();
    let after_flush = store.lower_bound_many(&sorted);
    assert!(after_flush.is_sorted());
    println!(
        "flushed: {} total rebuilds, {} keys served",
        store.total_rebuilds(),
        store.len()
    );
}
