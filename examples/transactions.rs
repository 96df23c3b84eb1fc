//! Optimistic transactions and MVCC time travel on the sharded store:
//! snapshot-isolated read-modify-write with first-committer-wins
//! validation, automatic retry under contention, and a change-data-capture
//! tail built from retained versions and `scan_between`.
//!
//! Run with `cargo run --release --example transactions`.

use shift_obs::MetricValue;
use shift_table_repro::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

fn main() {
    // Four "accounts", each holding `balance` occurrences of its key — the
    // store is a multiset, so an occurrence count *is* a balance. Retain
    // the last 16 commit versions for time travel and change capture.
    const ACCOUNTS: [u64; 4] = [1_000, 2_000, 3_000, 4_000];
    const OPENING: usize = 25;
    let mut seed: Vec<u64> = Vec::new();
    for a in ACCOUNTS {
        seed.extend(std::iter::repeat_n(a, OPENING));
    }
    seed.sort_unstable();
    let spec = IndexSpec::parse("im+r1").unwrap();
    let config = StoreConfig::new(spec).shards(4).retain_versions(16);
    let store = ShardedStore::build(config, &seed).unwrap();
    println!(
        "opened: {} accounts × {OPENING} units, commit version {}",
        ACCOUNTS.len(),
        store.commit_version()
    );

    // One transaction, step by step: reads see the pinned snapshot plus
    // the transaction's own buffered writes; nothing is visible outside
    // until commit, and the receipt stamps one commit version.
    let mut txn = store.begin();
    let (src, dst) = (ACCOUNTS[0], ACCOUNTS[1]);
    let before = txn.get(src);
    txn.delete(src).insert(dst);
    println!(
        "txn@{}: {src} had {before}, sees {} inside / {} outside the txn",
        txn.version(),
        txn.get(src),
        store.count_of(src)
    );
    let receipt = txn.commit().unwrap();
    println!(
        "committed cv {}: {} inserted, {} deleted",
        receipt.commit_version, receipt.inserted, receipt.deleted
    );

    // First-committer-wins: two racing transfers from the same account.
    // The slower committer observes a stale count and gets a typed
    // conflict — nothing it buffered is applied.
    let mut fast = store.begin();
    let mut slow = store.begin();
    fast.get(src);
    slow.get(src);
    fast.delete(src).insert(dst);
    slow.delete(src).insert(ACCOUNTS[2]);
    fast.commit().unwrap();
    match slow.commit() {
        Err(StoreError::TxnConflict { point, .. }) => {
            println!("slow committer lost: conflict on key {point:?}");
        }
        other => panic!("expected a conflict, got {other:?}"),
    }

    // Contended threads just wrap the body in `commit_with_retries`: each
    // conflict re-runs it against a fresh snapshot. The invariant — total
    // units conserved, no balance below zero — holds under any interleave.
    let transfers = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for t in 0..4 {
            let store = &store;
            let transfers = &transfers;
            scope.spawn(move || {
                let mut rng = SplitMix64::new(0xACC7 + t);
                for _ in 0..300 {
                    let src = ACCOUNTS[rng.next_below(4) as usize];
                    let dst = ACCOUNTS[rng.next_below(4) as usize];
                    let (moved, _) = store
                        .commit_with_retries(1_000, |txn| {
                            if src == dst || txn.get(src) == 0 {
                                return Ok(false);
                            }
                            txn.delete(src).insert(dst);
                            Ok(true)
                        })
                        .unwrap();
                    transfers.fetch_add(moved as u64, Ordering::Relaxed);
                }
            });
        }
    });
    let report = store.metrics();
    let stat = |name: &str| {
        report
            .metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| match m.value {
                MetricValue::Counter(v) => v,
                _ => 0,
            })
            .unwrap_or(0)
    };
    println!(
        "{} transfers landed: {} commits, {} conflicts retried, total {} units (conserved: {})",
        transfers.load(Ordering::Relaxed),
        stat("store_txn_commits_total"),
        stat("store_txn_conflicts_total"),
        store.len(),
        store.len() == seed.len()
    );

    // Time travel: any retained commit version serves exact historical
    // reads, and `scan_between` is an ordered net diff between two cuts —
    // a change-data-capture feed with no write-path hooks.
    let retained = store.retained_versions();
    let stats = store.version_stats();
    println!(
        "retained {} versions (cv {:?}..{:?}, ~{} bytes pinned)",
        stats.retained, stats.oldest_cv, stats.newest_cv, stats.approx_bytes
    );
    let (a, b) = (retained[0], *retained.last().unwrap());
    let old = store.snapshot_at(a).unwrap();
    println!(
        "cv {a} frozen: account {} held {} units then, {} now",
        ACCOUNTS[0],
        old.count_of(ACCOUNTS[0]),
        store.count_of(ACCOUNTS[0])
    );
    let changes = store.scan_between(a, b).unwrap();
    println!("cdc tail cv {a} → cv {b}: {changes:?}");
    let net: i64 = changes.iter().map(|&(_, d)| d).sum();
    assert_eq!(net, 0, "transfers net to zero across any two cuts");
}
