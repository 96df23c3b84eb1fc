//! WriteBatch and snapshot-read benchmarks over the sharded store.
//!
//! Not part of the paper's evaluation: this suite measures the two handles
//! the `shift-store` API redesign added — [`shift_store::WriteBatch`] (the
//! unit of atomicity) and [`shift_store::StoreSnapshot`] (the unit of
//! consistency).
//!
//! Two tables are produced:
//!
//! 1. **Batched durable writes** — the same insert stream applied as single
//!    ops vs. `WriteBatch`es of increasing size against a durable store
//!    under `SyncPolicy::Always`. A batch is one WAL frame and one
//!    `fdatasync`, so ns/op should fall roughly with the batch size while
//!    the `fdatasyncs` column collapses; an in-memory row isolates the
//!    non-durability share of the win (one commit-clock window and one
//!    routing pass per op either way).
//! 2. **Snapshot reads** — the cost of pinning a [`shift_store::StoreSnapshot`]
//!    as the shard count grows, the per-op advantage of running a probe
//!    burst against one pinned snapshot instead of one-shot store reads
//!    (which pin a fresh snapshot per call), and the throughput of
//!    `scan(lo, hi)` while a writer thread churns — every scan is
//!    consistent at its snapshot's commit version.
//!
//! Correctness is owned by the store's oracle/stress tests; here a checksum
//! fold guards against dead-code elimination and the final store length is
//! cross-checked.

use crate::datasets::{dataset_u64, BenchConfig};
use crate::report::{fmt_ns, Table};
use algo_index::RangeIndex;
use shift_store::{DurabilityConfig, ShardedStore, StoreConfig, SyncPolicy, WriteBatch};
use shift_table::spec::IndexSpec;
use sosd_data::prelude::*;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Batch sizes the durable-write table sweeps (1 = the single-op path).
pub const BATCH_SIZES: [usize; 4] = [1, 8, 64, 256];

/// Shard counts the snapshot table sweeps.
pub const SNAP_SHARDS: [usize; 3] = [1, 4, 16];

fn scratch_dir(label: &str) -> std::path::PathBuf {
    super::scratch_dir("shift-store-batch", label)
}

/// Apply `ops` fresh inserts in batches of `size`, returning elapsed
/// seconds.
fn drive_batches(store: &ShardedStore<u64>, ops: usize, size: usize) -> f64 {
    let start = Instant::now();
    let mut k = 10_000_000u64;
    if size <= 1 {
        for _ in 0..ops {
            store.insert(k).expect("insert cannot fail");
            k += 3;
        }
    } else {
        let mut staged = 0usize;
        while staged < ops {
            let n = size.min(ops - staged);
            let mut batch = WriteBatch::with_capacity(n);
            for _ in 0..n {
                batch.insert(k);
                k += 3;
            }
            store.apply(&batch).expect("batch apply cannot fail");
            staged += n;
        }
    }
    start.elapsed().as_secs_f64()
}

/// Table 1: durable insert stream, single ops vs. growing batches.
fn batched_writes(cfg: BenchConfig, spec: IndexSpec, d: &Dataset<u64>) -> Table {
    let ops = cfg.queries.clamp(64, 20_000);
    let mut table = Table::new(
        format!(
            "Store — WriteBatch amortisation: {ops} inserts on face64 (seed n = {}, spec {spec}, sync = always + group commit)",
            d.len()
        ),
        &[
            "mode",
            "batch",
            "ns/op",
            "wal records",
            "fdatasyncs",
            "final_keys",
        ],
    );
    for size in BATCH_SIZES {
        let dir = scratch_dir(&format!("write-{size}"));
        let config = StoreConfig::new(spec)
            .shards(4)
            .delta_threshold((ops / 10).clamp(64, 100_000))
            .auto_rebuild(false)
            .background_maintenance(true)
            .durability(
                DurabilityConfig::new()
                    .sync(SyncPolicy::Always)
                    .checkpoint_ops(0),
            );
        let store = ShardedStore::open_seeded(&dir, config, d.as_slice()).expect("fresh dir");
        let elapsed = drive_batches(&store, ops, size);
        let stats = store.durability_stats().expect("durable store");
        assert_eq!(stats.wal_ops as usize, ops, "every insert logged");
        let final_keys = store.len();
        assert_eq!(final_keys, d.len() + ops);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
        table.add_row(vec![
            if size <= 1 { "single" } else { "batched" }.into(),
            size.to_string(),
            fmt_ns(elapsed * 1e9 / ops as f64),
            stats.wal_records.to_string(),
            stats.wal_syncs.to_string(),
            final_keys.to_string(),
        ]);
    }
    // In-memory reference: what batching saves with durability off.
    for size in [1usize, 256] {
        let config = StoreConfig::new(spec)
            .shards(4)
            .delta_threshold((ops / 10).clamp(64, 100_000))
            .auto_rebuild(false);
        let store = ShardedStore::build(config, d.as_slice()).expect("sorted dataset");
        let elapsed = drive_batches(&store, ops, size);
        assert_eq!(store.len(), d.len() + ops);
        table.add_row(vec![
            "in-memory".into(),
            size.to_string(),
            fmt_ns(elapsed * 1e9 / ops as f64),
            "-".into(),
            "-".into(),
            store.len().to_string(),
        ]);
    }
    table
}

/// Table 2: snapshot pin cost, pinned-vs-one-shot probe bursts, and
/// consistent scans under write churn.
fn snapshot_reads(cfg: BenchConfig, spec: IndexSpec, d: &Dataset<u64>) -> Table {
    let probes_per_burst = 64usize;
    let bursts = (cfg.queries / probes_per_burst).clamp(8, 2_000);
    let mut table = Table::new(
        format!(
            "Store — snapshot reads on face64 (n = {}, spec {spec}, {bursts} bursts × {probes_per_burst} probes, scans under 1 writer)",
            d.len()
        ),
        &[
            "shards",
            "pin ns",
            "pinned ns/probe",
            "one-shot ns/probe",
            "scan/s (racing)",
            "scan version drift",
        ],
    );
    let mut rng = SplitMix64::new(cfg.seed);
    let queries: Vec<u64> = (0..probes_per_burst)
        .map(|_| d.as_slice()[rng.next_below(d.len() as u64) as usize])
        .collect();
    for shards in SNAP_SHARDS {
        // A serving-shaped store: the background worker folds chains, so
        // write windows stay small and the merge path stays shallow.
        let config = StoreConfig::new(spec)
            .shards(shards)
            .delta_threshold(4_096)
            .auto_rebuild(false)
            .background_maintenance(true);
        let store = ShardedStore::build(config, d.as_slice()).expect("sorted dataset");
        // Buffer some writes so the merge path is live, as in serving.
        for i in 0..512u64 {
            store.insert(i * 97).expect("insert cannot fail");
        }

        // Snapshot acquisition cost.
        let start = Instant::now();
        let mut checksum = 0u64;
        for _ in 0..bursts {
            checksum = checksum.wrapping_add(black_box(store.snapshot()).version());
        }
        let pin_ns = start.elapsed().as_nanos() as f64 / bursts as f64;

        // One pinned snapshot amortised over a probe burst…
        let start = Instant::now();
        for _ in 0..bursts {
            let snap = store.snapshot();
            for &q in &queries {
                checksum = checksum.wrapping_add(snap.lower_bound(black_box(q)) as u64);
            }
        }
        let pinned_ns = start.elapsed().as_nanos() as f64 / (bursts * probes_per_burst) as f64;

        // …vs. one-shot store reads (a fresh snapshot per call).
        let start = Instant::now();
        for _ in 0..bursts {
            for &q in &queries {
                checksum = checksum.wrapping_add(store.lower_bound(black_box(q)) as u64);
            }
        }
        let oneshot_ns = start.elapsed().as_nanos() as f64 / (bursts * probes_per_burst) as f64;

        // Consistent scans while one writer churns.
        let stop = AtomicBool::new(false);
        let span = d.as_slice()[d.len() / 2].saturating_sub(d.as_slice()[d.len() / 3]);
        let lo = d.as_slice()[d.len() / 3];
        let (scans, drift) = std::thread::scope(|scope| {
            let store = &store;
            let stop = &stop;
            let writer = scope.spawn(move || {
                let mut i = 0u64;
                // lint: ordering(Relaxed) advisory stop flag; the join below synchronizes
                while !stop.load(Ordering::Relaxed) {
                    store.insert(20_000_000 + i).expect("insert cannot fail");
                    i += 1;
                }
            });
            let deadline = Instant::now() + std::time::Duration::from_millis(120);
            let mut scans = 0u64;
            let mut sum = 0usize;
            let mut first_version = None;
            let mut last_version = 0;
            while Instant::now() < deadline {
                let snap = store.snapshot();
                first_version.get_or_insert(snap.version());
                last_version = snap.version();
                sum += snap.scan(lo, lo + span / 8).len();
                scans += 1;
            }
            stop.store(true, Ordering::Relaxed); // lint: ordering(Relaxed) advisory stop flag; the join below synchronizes
            black_box(sum);
            writer.join().expect("writer thread panicked");
            (scans, last_version - first_version.unwrap_or(0))
        });
        black_box(checksum);
        table.add_row(vec![
            store.shard_count().to_string(),
            format!("{pin_ns:.0}"),
            fmt_ns(pinned_ns),
            fmt_ns(oneshot_ns),
            format!("{:.0}", scans as f64 / 0.12),
            drift.to_string(),
        ]);
    }
    table
}

/// Run the WriteBatch + snapshot benchmark.
pub fn run(cfg: BenchConfig) -> Vec<Table> {
    let spec = IndexSpec::parse("im+r1").expect("builtin spec parses");
    let d = dataset_u64(SosdName::Face64, cfg);
    vec![batched_writes(cfg, spec, &d), snapshot_reads(cfg, spec, &d)]
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
        assert_eq!(tables[0].row_count(), BATCH_SIZES.len() + 2);
        assert_eq!(tables[1].row_count(), SNAP_SHARDS.len());
    }
}
