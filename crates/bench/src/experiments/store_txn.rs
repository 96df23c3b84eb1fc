//! Optimistic-transaction and MVCC benchmarks over the sharded store.
//!
//! Not part of the paper's evaluation: this suite measures the transaction
//! layer built on the commit clock — [`shift_store::Txn`] commits,
//! `snapshot_at` time travel and `scan_between` change capture.
//!
//! Two tables are produced:
//!
//! 1. **Commit throughput under contention** — a single-threaded plain
//!    baseline (the same read-modify-write as a one-shot point read plus
//!    a `WriteBatch`, without the transaction machinery), the same
//!    logical transaction through an uncontended
//!    transaction (its `×plain` column is the acceptance readout: a
//!    non-conflicting `commit()` should cost ≤ 1.5× the plain apply),
//!    then contended transfer workloads at three conflict levels:
//!    disjoint per-thread key ranges (no conflicts possible), a moderate
//!    shared pool, and a small hot set — their `×plain` additionally
//!    folds in commit-window contention across the threads.
//! 2. **Time travel** — pin cost of the *live* snapshot (it shares the
//!    published cut: O(1), flat as the retained depth grows), pin cost of
//!    a retained historical version, `scan_between` diff rate across the
//!    whole ring, and the ring's memory readout.
//!
//! Correctness is owned by the store's txn/oracle tests; here a checksum
//! fold guards against dead-code elimination and conservation of the
//! transferred occurrences is cross-checked.

use crate::datasets::{dataset_u64, BenchConfig};
use crate::report::{fmt_ns, Table};
use algo_index::RangeIndex;
use shift_store::{RetainPolicy, ShardedStore, StoreConfig, WriteBatch};
use shift_table::spec::IndexSpec;
use sosd_data::prelude::*;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Writer threads for the contended table.
pub const TXN_THREADS: usize = 4;

/// The contention sweep: shared-pool size per level (0 = disjoint ranges).
pub const CONFLICT_POOLS: [(&str, usize); 3] = [
    ("none (disjoint)", 0),
    ("moderate (pool 512)", 512),
    ("heavy (pool 8)", 8),
];

/// Retained-ring depths the time-travel table sweeps.
pub const RETAIN_DEPTHS: [usize; 3] = [4, 16, 64];

/// Build the serving store the contended rows share per level.
fn txn_store(spec: IndexSpec, d: &Dataset<u64>) -> ShardedStore<u64> {
    let config = StoreConfig::new(spec)
        .shards(4)
        .delta_threshold(8_192)
        .auto_rebuild(false)
        .background_maintenance(true);
    ShardedStore::build(config, d.as_slice()).expect("sorted dataset")
}

/// Table 1: plain multi-op baseline vs transaction commits at three
/// conflict levels.
fn commit_throughput(cfg: BenchConfig, spec: IndexSpec, d: &Dataset<u64>) -> Table {
    let per_thread = (cfg.queries / TXN_THREADS).clamp(64, 5_000);
    let mut table = Table::new(
        format!(
            "Store — optimistic commits on face64 (n = {}, spec {spec}, {TXN_THREADS} threads × {per_thread} txns, 2 ops/txn)",
            d.len()
        ),
        &[
            "conflicts",
            "commits",
            "conflict %",
            "retries/commit",
            "ns/commit",
            "commits/s",
            "×plain",
        ],
    );

    // Plain baseline: the same logical read-modify-write — one one-shot
    // point read plus a 2-op batch commit (route, clock window, shard
    // mutation) — without snapshot pinning, footprint recording or
    // validation.
    let store = txn_store(spec, d);
    let ops = TXN_THREADS * per_thread;
    let mut checksum = 0u64;
    let start = Instant::now();
    for i in 0..ops as u64 {
        checksum = checksum.wrapping_add(store.count_of(30_000_000 + i) as u64);
        let mut batch = WriteBatch::with_capacity(2);
        batch.insert(30_000_000 + i);
        batch.delete(30_000_000 + i);
        store.apply(&batch).expect("apply cannot fail");
    }
    black_box(checksum);
    let plain_ns = start.elapsed().as_nanos() as f64 / ops as f64;
    table.add_row(vec![
        "plain read+apply (1 thread)".into(),
        ops.to_string(),
        "-".into(),
        "-".into(),
        fmt_ns(plain_ns),
        format!("{:.0}", 1e9 / plain_ns),
        "1.00".into(),
    ]);

    // The acceptance readout: the same 2-op commit through the full
    // transaction machinery (snapshot pin, point read, validation) with
    // no contention — single-threaded, so every validation takes the
    // version-unchanged fast path and every pin hits the quiescent cache.
    let store = txn_store(spec, d);
    let start = Instant::now();
    for i in 0..ops as u64 {
        let mut txn = store.begin();
        txn.get(30_000_000 + i);
        txn.insert(30_000_000 + i).delete(30_000_000 + i);
        txn.commit().expect("uncontended commit cannot conflict");
    }
    let solo_ns = start.elapsed().as_nanos() as f64 / ops as f64;
    table.add_row(vec![
        "txn, no conflict (1 thread)".into(),
        ops.to_string(),
        "0.0".into(),
        "0.000".into(),
        fmt_ns(solo_ns),
        format!("{:.0}", 1e9 / solo_ns),
        format!("{:.2}", solo_ns / plain_ns),
    ]);

    for (label, pool) in CONFLICT_POOLS {
        let store = txn_store(spec, d);
        // Seed the transferable occurrences: each thread's keyspace (or
        // the shared pool) starts with enough units that a transfer's
        // source is rarely empty.
        let keyspace = |t: usize, i: u64| -> u64 {
            if pool == 0 {
                40_000_000 + (t as u64) * 1_000_000 + (i % 256)
            } else {
                40_000_000 + (i % pool as u64)
            }
        };
        for t in 0..TXN_THREADS {
            for i in 0..if pool == 0 { 256 } else { pool as u64 } {
                store.insert(keyspace(t, i)).expect("seed insert");
            }
            if pool != 0 {
                break; // the shared pool is seeded once
            }
        }
        let seeded = store.len();

        let retries = AtomicU64::new(0);
        let start = Instant::now();
        std::thread::scope(|scope| {
            for t in 0..TXN_THREADS {
                let store = &store;
                let retries = &retries;
                scope.spawn(move || {
                    let mut rng = SplitMix64::new(cfg.seed ^ (t as u64) << 32);
                    for _ in 0..per_thread {
                        let src = keyspace(t, rng.next_u64());
                        let dst = keyspace(t, rng.next_u64());
                        let mut attempts = 0u64;
                        store
                            .commit_with_retries(1_000_000, |txn| {
                                attempts += 1;
                                if txn.get(src) == 0 || src == dst {
                                    return Ok(());
                                }
                                txn.delete(src).insert(dst);
                                Ok(())
                            })
                            .expect("transfer commits within the attempt budget");
                        retries.fetch_add(attempts - 1, Ordering::Relaxed); // lint: ordering(Relaxed) stats counter; the scope join synchronizes
                    }
                });
            }
        });
        let elapsed = start.elapsed().as_secs_f64();
        assert_eq!(store.len(), seeded, "transfers conserve occurrences");
        let commits = (TXN_THREADS * per_thread) as f64;
        let conflicts = retries.load(Ordering::Relaxed) as f64; // lint: ordering(Relaxed) read after the scope join
        let ns = elapsed * 1e9 / commits;
        table.add_row(vec![
            label.into(),
            format!("{commits:.0}"),
            format!("{:.1}", 100.0 * conflicts / (commits + conflicts)),
            format!("{:.3}", conflicts / commits),
            fmt_ns(ns),
            format!("{:.0}", commits / elapsed),
            format!("{:.2}", ns / plain_ns),
        ]);
    }
    table
}

/// Table 2: live-pin cost vs retained depth (the O(1) cache readout),
/// historical pins, and the `scan_between` diff rate across the ring.
fn time_travel(cfg: BenchConfig, spec: IndexSpec, d: &Dataset<u64>) -> Table {
    let mut table = Table::new(
        format!(
            "Store — MVCC time travel on face64 (n = {}, spec {spec}, 2-op txn per retained version)",
            d.len()
        ),
        &[
            "retain",
            "live pin ns",
            "snapshot_at ns",
            "diff ns (ring span)",
            "diff keys",
            "retained bytes",
        ],
    );
    let pins = cfg.queries.clamp(256, 50_000);
    for depth in RETAIN_DEPTHS {
        let config = StoreConfig::new(spec)
            .shards(4)
            .delta_threshold(8_192)
            .auto_rebuild(false)
            .retain_versions(RetainPolicy::last(depth));
        let store = ShardedStore::build(config, d.as_slice()).expect("sorted dataset");
        // Fill the ring: one 2-op transaction per retained slot, plus
        // slack so the oldest slots have really been evicted once.
        for i in 0..(2 * depth) as u64 {
            let mut txn = store.begin();
            txn.insert(50_000_000 + i).insert(50_000_000 + i);
            txn.commit().expect("txn commit cannot conflict here");
        }
        let versions = store.retained_versions();
        assert_eq!(versions.len(), depth);

        // Live pin: every iteration hits the quiescent cache (no writer
        // is racing), so this column should stay flat as `depth` grows.
        let mut checksum = 0u64;
        let start = Instant::now();
        for _ in 0..pins {
            checksum = checksum.wrapping_add(black_box(store.snapshot()).version());
        }
        let live_ns = start.elapsed().as_nanos() as f64 / pins as f64;

        // Historical pin: a ring lookup by commit version.
        let start = Instant::now();
        for (i, _) in (0..pins).zip(versions.iter().cycle()) {
            let cv = versions[i % versions.len()];
            checksum = checksum
                .wrapping_add(black_box(store.snapshot_at(cv).expect("retained")).len() as u64);
        }
        let hist_ns = start.elapsed().as_nanos() as f64 / pins as f64;

        // Change capture across the whole ring span.
        let (a, b) = (versions[0], *versions.last().expect("non-empty ring"));
        let reps = (pins / 8).max(8);
        let mut diff_keys = 0usize;
        let start = Instant::now();
        for _ in 0..reps {
            let diff = store.scan_between(a, b).expect("both retained");
            diff_keys = diff.len();
            checksum = checksum.wrapping_add(diff.len() as u64);
        }
        let diff_ns = start.elapsed().as_nanos() as f64 / reps as f64;
        black_box(checksum);

        let stats = store.version_stats();
        assert_eq!(stats.retained, depth);
        table.add_row(vec![
            depth.to_string(),
            format!("{live_ns:.0}"),
            format!("{hist_ns:.0}"),
            fmt_ns(diff_ns),
            diff_keys.to_string(),
            stats.approx_bytes.to_string(),
        ]);
    }
    table
}

/// Run the transaction + MVCC benchmark.
pub fn run(cfg: BenchConfig) -> Vec<Table> {
    let spec = IndexSpec::parse("im+r1").expect("builtin spec parses");
    let d = dataset_u64(SosdName::Face64, cfg);
    vec![commit_throughput(cfg, spec, &d), time_travel(cfg, spec, &d)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_produces_both_tables() {
        let tables = run(BenchConfig {
            keys: 4_000,
            queries: 300,
            seed: 7,
        });
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].row_count(), CONFLICT_POOLS.len() + 2);
        assert_eq!(tables[1].row_count(), RETAIN_DEPTHS.len());
    }
}
