//! Durable-store benchmarks: per-op cost and write amplification under
//! each WAL sync policy.
//!
//! Not part of the paper's evaluation: this suite measures the persistence
//! subsystem the `shift-store` serving layer grew — a write-ahead log with
//! configurable sync cadence, epoch-consistent checkpoints and crash
//! recovery. One table is produced, one row per [`SyncPolicy`]:
//!
//! * **ns/op and p99** over an insert-heavy mixed trace replayed against a
//!   freshly seeded durable store (`Always` pays one `fdatasync` per write,
//!   so its trace is capped shorter than the buffered policies).
//! * **Write amplification** — physical bytes (WAL frames plus snapshot
//!   files, including the seed checkpoint) per logical payload byte (one
//!   8-byte key per logged operation).
//! * **Recovery** — the store is dropped and reopened; the row reports the
//!   reopen latency and how many WAL-tail records the recovery replayed,
//!   and the run asserts the recovered key count matches the writes.
//!
//! A second table measures **group commit**: `W` concurrent writers insert
//! under each sync policy, and the row reports aggregate throughput plus
//! the actual `fdatasync` count. Under `SyncPolicy::Always` with group
//! commit (the default) concurrent writers share syncs — the acceptance
//! signal is `always` multi-writer throughput landing within ~2× of
//! `every64` instead of the ~per-op-sync gap, at full durability. The
//! `always-solo` row (group commit disabled) is the old one-sync-per-write
//! behaviour, kept as the baseline the committer is beating.
//!
//! A third table measures **incremental checkpoints**: with writes
//! confined to one shard of many, the `incremental` row re-references
//! every clean shard's snapshot file instead of rewriting it — the
//! `full` row (knob off) is the PR-4 behaviour whose write amplification
//! the incremental path is cutting. Shards written/skipped and snapshot
//! MB written/reused come straight from [`shift_store::DurabilityStats`].
//!
//! A fourth table measures **cold starts**: the same durable image is
//! reopened eagerly and with [`shift_store::StoreConfig::cold_start`],
//! and each row breaks the reopen down (manifest parse / snapshot mount /
//! WAL replay / foreground retrain, via
//! [`shift_store::ShardedStore::open_breakdown`]) and reports the first
//! read's latency, how many shards were still cold when it ran, and how
//! long background hydration took to finish. Both modes must answer the
//! probe set identically — asserted unconditionally. Two more eager rows
//! reopen the image after its WAL tail has been grown to 2× and 4× the
//! first rows' length: replay is a merge, so `replay ns/op` should stay
//! roughly flat (or fall, as the per-shard column copy is shared by more
//! operations) instead of doubling with the tail.
//!
//! A fifth table measures **seeding**: `open_seeded` on a fresh directory
//! queues two tasks per shard — write its snapshot file, build its index —
//! on the store's task pool, and each row — one per dataset and shard
//! count — reports the pool's `workers`, the time the build tasks and the
//! write tasks were busy, each summed (`seed_build_ms`, `seed_write_ms`,
//! from [`shift_store::OpenBreakdown`]), the time the whole call took
//! (`setup_ms`) and `overlap = (build + write) ÷ setup`: 1.0 or less means
//! one worker did everything (a one-core box), towards `workers` means
//! every worker was busy for the whole call.
//!
//! Scratch directories live under the system temp dir and are removed
//! after each row. The optional `DURABLE_SYNC` environment variable
//! (`always` | `every64` | `os`) restricts the per-policy trace sweep to
//! one policy — CI's durability smoke job pins `every64`; the (small)
//! group-commit table always runs all rows, since its point *is* the
//! cross-policy comparison. Setting `COLD_START_ASSERT=1` (CI's cold-start
//! job does, on a large store) additionally asserts the acceptance
//! signals: incremental checkpoints skip and reuse, cold opens mount every
//! shard cold, the first read precedes model training, the cold open's
//! foreground retrain time is a small fraction of the eager open's, and —
//! on a box with two or more cores — the seeding tasks overlapped.

use crate::datasets::{dataset_u64, BenchConfig};
use crate::report::{fmt_ns, percentile_cells, Table};
use crate::timer::LatencyRecorder;
use algo_index::RangeIndex;
use shift_store::{DurabilityConfig, ShardedStore, StoreConfig, SyncPolicy};
use shift_table::spec::IndexSpec;
use sosd_data::prelude::*;
use std::hint::black_box;
use std::time::Instant;

/// The sync policies the suite sweeps, labelled for the table and the
/// `DURABLE_SYNC` filter.
pub const SYNC_POLICIES: [(&str, SyncPolicy); 3] = [
    ("always", SyncPolicy::Always),
    ("every64", SyncPolicy::EveryN(64)),
    ("os", SyncPolicy::Os),
];

fn scratch_dir(label: &str) -> std::path::PathBuf {
    super::scratch_dir("shift-store-durable", label)
}

/// Run the durable-store benchmark.
pub fn run(cfg: BenchConfig) -> Vec<Table> {
    let spec = IndexSpec::parse("im+r1").expect("builtin spec parses");
    let d = dataset_u64(SosdName::Face64, cfg);
    let filter = std::env::var("DURABLE_SYNC").ok();
    let mut table = Table::new(
        format!(
            "Store — durable insert-heavy trace on face64 (n = {}, spec {spec}, WAL + checkpoints)",
            d.len()
        ),
        &[
            "sync",
            "ops",
            "ns/op",
            "p99",
            "wal MB",
            "snap MB",
            "write amp",
            "ckpts",
            "reopen ms",
            "replayed",
        ],
    );
    for (label, sync) in SYNC_POLICIES {
        if filter.as_deref().is_some_and(|f| f != label) {
            continue;
        }
        // `Always` costs one device round-trip per write; keep its trace
        // short enough that the sweep stays interactive.
        let ops = match sync {
            SyncPolicy::Always => cfg.queries.min(2_000),
            _ => cfg.queries.min(20_000),
        }
        .max(1);
        let trace = MixedWorkload::insert_heavy(&d, ops, cfg.seed);
        let dir = scratch_dir(label);
        let config = StoreConfig::new(spec)
            .shards(4)
            .delta_threshold((ops / 10).clamp(64, 100_000))
            .auto_rebuild(false)
            .background_maintenance(true)
            .durability(
                DurabilityConfig::new()
                    .sync(sync)
                    .checkpoint_ops((ops as u64 / 3).max(64)),
            );
        let store = ShardedStore::open_seeded(&dir, config, d.as_slice()).expect("fresh dir");
        let mut rec = LatencyRecorder::with_capacity(trace.len());
        let mut checksum = 0u64;
        let mut net = 0i64;
        for &op in trace.ops() {
            match op {
                MixedOp::Lookup(q) => {
                    checksum =
                        checksum.wrapping_add(rec.time(|| store.lower_bound(black_box(q))) as u64);
                }
                MixedOp::Insert(k) => {
                    rec.time(|| store.insert(black_box(k)).expect("insert cannot fail"));
                    net += 1;
                }
                MixedOp::Delete(k) => {
                    if rec.time(|| store.delete(black_box(k)).expect("delete cannot fail")) {
                        net -= 1;
                    }
                }
                MixedOp::Range(lo, hi) => {
                    let r = rec.time(|| store.range(black_box(lo), black_box(hi)));
                    checksum = checksum.wrapping_add(r.len() as u64);
                }
            }
        }
        black_box(checksum);
        let expected_len = (d.len() as i64 + net) as usize;
        let stats = store.durability_stats().expect("durable store");
        assert!(store.take_maintenance_errors().is_empty());
        drop(store); // "crash": no flush, no final checkpoint

        let reopen = Instant::now();
        let reopened: ShardedStore<u64> =
            ShardedStore::open(&dir, StoreConfig::new(spec)).expect("recovery cannot fail");
        let reopen_ms = reopen.elapsed().as_secs_f64() * 1e3;
        assert_eq!(
            reopened.len(),
            expected_len,
            "recovery must restore every {label} write"
        );
        let replayed = reopened
            .durability_stats()
            .expect("durable store")
            .replayed_records;
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);

        // Physical bytes per logical payload byte (one 8-byte key per op).
        let amplification = (stats.wal_bytes + stats.snapshot_bytes) as f64
            / ((stats.wal_records * 8).max(1)) as f64;
        let p = rec.percentiles();
        let [_p50, _p90, p99, _p999] = percentile_cells(&p);
        table.add_row(vec![
            label.into(),
            ops.to_string(),
            fmt_ns(rec.mean_ns()),
            p99,
            format!("{:.2}", stats.wal_bytes as f64 / 1e6),
            format!("{:.2}", stats.snapshot_bytes as f64 / 1e6),
            format!("{amplification:.1}x"),
            stats.checkpoints.to_string(),
            format!("{reopen_ms:.1}"),
            replayed.to_string(),
        ]);
    }
    vec![
        table,
        group_commit_table(cfg, spec),
        incremental_checkpoint_table(cfg, spec),
        cold_start_table(cfg, spec),
        seeding_table(cfg, spec),
    ]
}

/// True when the run should enforce the cold-start/incremental acceptance
/// signals (CI's cold-start job sets `COLD_START_ASSERT=1` on a large
/// store; the smoke test's tiny store leaves them as report-only).
fn assert_acceptance() -> bool {
    std::env::var("COLD_START_ASSERT").is_ok_and(|v| v == "1")
}

/// Incremental vs full checkpoints with writes confined to a single shard:
/// the write-amplification acceptance table (see the module docs).
fn incremental_checkpoint_table(cfg: BenchConfig, spec: IndexSpec) -> Table {
    let d = dataset_u64(SosdName::Face64, cfg);
    let rounds: u64 = 4;
    let mut table = Table::new(
        format!(
            "Store — incremental checkpoints: {rounds} checkpoints, writes confined to one shard of 8 (n = {}, spec {spec})",
            d.len()
        ),
        &[
            "mode",
            "ckpts",
            "shards written",
            "shards skipped",
            "snap MB written",
            "snap MB reused",
            "ms/ckpt",
        ],
    );
    for (label, incremental) in [("full", false), ("incremental", true)] {
        let dir = scratch_dir(&format!("incr-{label}"));
        let config = StoreConfig::new(spec)
            .shards(8)
            .delta_threshold(1_000_000)
            .auto_rebuild(false)
            .durability(
                DurabilityConfig::new()
                    .sync(SyncPolicy::Os)
                    .checkpoint_ops(0)
                    .incremental_checkpoints(incremental),
            );
        let store = ShardedStore::open_seeded(&dir, config, d.as_slice()).expect("fresh dir");
        let base = store.durability_stats().expect("durable store");
        // Duplicates of the dataset minimum land in the first shard only,
        // so every other shard stays clean across all rounds.
        let hot_key = d.as_slice()[0];
        let start = Instant::now();
        for _ in 0..rounds {
            for _ in 0..64 {
                store.insert(hot_key).expect("insert cannot fail");
            }
            store.checkpoint().expect("checkpoint cannot fail");
        }
        let ms_per_ckpt = start.elapsed().as_secs_f64() * 1e3 / rounds as f64;
        let stats = store.durability_stats().expect("durable store");
        let written = stats.checkpoint_shards_written - base.checkpoint_shards_written;
        let skipped = stats.checkpoint_shards_skipped - base.checkpoint_shards_skipped;
        let mb_written = (stats.snapshot_bytes - base.snapshot_bytes) as f64 / 1e6;
        let mb_reused = (stats.snapshot_bytes_reused - base.snapshot_bytes_reused) as f64 / 1e6;
        if incremental {
            assert!(
                skipped > written,
                "single-shard writes must leave most shards re-referenced"
            );
            if assert_acceptance() {
                assert!(mb_reused > 0.0, "re-referenced snapshots must report bytes");
            }
        } else {
            assert_eq!(skipped, 0, "full mode rewrites every shard");
        }
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
        table.add_row(vec![
            label.into(),
            rounds.to_string(),
            written.to_string(),
            skipped.to_string(),
            format!("{mb_written:.2}"),
            format!("{mb_reused:.2}"),
            format!("{ms_per_ckpt:.1}"),
        ]);
    }
    table
}

/// WAL-tail length of the cold-start table's first two rows.
pub const TAIL_OPS: usize = 256;

/// The cold-start table's rows: label, cold open?, WAL-tail length. The
/// eager and cold rows reopen the same image; the last two grow its tail.
pub const COLD_START_ROWS: [(&str, bool, usize); 4] = [
    ("eager", false, TAIL_OPS),
    ("cold", true, TAIL_OPS),
    ("eager 2x tail", false, 2 * TAIL_OPS),
    ("eager 4x tail", false, 4 * TAIL_OPS),
];

/// Eager vs cold reopen of the same durable image: the reopen-latency
/// breakdown table (see the module docs).
fn cold_start_table(cfg: BenchConfig, spec: IndexSpec) -> Table {
    let d = dataset_u64(SosdName::Face64, cfg);
    let dir = scratch_dir("cold-start");
    let durability = DurabilityConfig::new()
        .sync(SyncPolicy::Os)
        .checkpoint_ops(0);
    let seed_config = StoreConfig::new(spec)
        .shards(8)
        .delta_threshold(1_000_000)
        .auto_rebuild(false)
        .durability(durability);
    let store = ShardedStore::open_seeded(&dir, seed_config, d.as_slice()).expect("fresh dir");
    // Dirty every shard, checkpoint, then leave a WAL tail so the reopen
    // exercises manifest parse, snapshot mount *and* replay.
    let mut rng = SplitMix64::new(cfg.seed ^ 0xC01D);
    let mut touch = |store: &ShardedStore<u64>, n: usize| {
        for _ in 0..n {
            let k = d.as_slice()[rng.next_below(d.len() as u64) as usize];
            store.insert(k).expect("insert cannot fail");
        }
        store.sync_wal().expect("sync cannot fail");
    };
    touch(&store, 512);
    store.checkpoint().expect("checkpoint cannot fail");
    touch(&store, TAIL_OPS);
    let mut tail_now = TAIL_OPS;
    let mut probe_rng = SplitMix64::new(cfg.seed ^ 0x9E0B);
    let probes: Vec<u64> = (0..64)
        .map(|_| d.as_slice()[probe_rng.next_below(d.len() as u64) as usize])
        .collect();
    drop(store);

    let mut table = Table::new(
        format!(
            "Store — cold start: reopen breakdown on the same image (n = {}, 8 shards, spec {spec}, WAL tail of {TAIL_OPS} ops, then 2× and 4×)",
            d.len()
        ),
        &[
            "mode",
            "tail ops",
            "open ms",
            "manifest ms",
            "mount ms",
            "replay ms",
            "replay ns/op",
            "retrain ms",
            "first read µs",
            "cold@first read",
            "hydrate ms",
        ],
    );
    let mut reference: Option<(usize, u64)> = None;
    let mut eager_retrain_ms = 0.0f64;
    for (label, cold, tail) in COLD_START_ROWS {
        let open_config = StoreConfig::new(spec)
            .cold_start(cold)
            .durability(durability);
        if tail > tail_now {
            // Grow the tail on the same image: reopen, write on, drop
            // without a checkpoint — the earlier segments stay. The rows
            // before this one no longer describe the image.
            let grown: ShardedStore<u64> =
                ShardedStore::open(&dir, open_config).expect("recovery cannot fail");
            touch(&grown, tail - tail_now);
            tail_now = tail;
            reference = None;
        }
        let open = Instant::now();
        let reopened: ShardedStore<u64> =
            ShardedStore::open(&dir, open_config).expect("recovery cannot fail");
        let open_ms = open.elapsed().as_secs_f64() * 1e3;
        let cold_at_first = reopened.cold_shards();
        let first = Instant::now();
        let mut sum = 0u64;
        for &q in &probes {
            sum = sum.wrapping_add(reopened.lower_bound(black_box(q)) as u64);
        }
        let first_us = first.elapsed().as_secs_f64() * 1e6;
        let b = reopened.open_breakdown().expect("durable store");
        let hydrate = Instant::now();
        let deadline = Instant::now() + std::time::Duration::from_secs(120);
        while reopened.cold_shards() > 0 {
            assert!(Instant::now() < deadline, "hydration must finish");
            // lint: allow(sleep) deliberate poll backoff while the hydrator drains cold shards
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
        let hydrate_ms = hydrate.elapsed().as_secs_f64() * 1e3;
        let retrain_ms = b.retrain.as_secs_f64() * 1e3;
        match reference {
            None => reference = Some((reopened.len(), sum)),
            Some((len, eager_sum)) => {
                assert_eq!(reopened.len(), len, "cold reopen must match eager len");
                assert_eq!(sum, eager_sum, "cold reads must equal eager reads");
            }
        }
        let replayed = reopened
            .durability_stats()
            .expect("durable store")
            .replayed_records;
        assert_eq!(replayed as usize, tail, "the whole tail replays");
        if cold {
            assert_eq!(b.cold_shards, 8, "cold_start must mount every shard cold");
            if assert_acceptance() {
                assert!(
                    cold_at_first > 0,
                    "first read must run before hydration finishes"
                );
                assert!(
                    retrain_ms * 5.0 < eager_retrain_ms,
                    "cold foreground retrain ({retrain_ms:.1} ms) must be a small \
                     fraction of eager ({eager_retrain_ms:.1} ms)"
                );
            }
        } else {
            assert_eq!(cold_at_first, 0, "eager reopen has no cold shards");
            if tail == TAIL_OPS {
                eager_retrain_ms = retrain_ms;
            }
        }
        table.add_row(vec![
            label.into(),
            tail.to_string(),
            format!("{open_ms:.1}"),
            format!("{:.2}", b.manifest.as_secs_f64() * 1e3),
            format!("{:.2}", b.mount.as_secs_f64() * 1e3),
            format!("{:.2}", b.replay.as_secs_f64() * 1e3),
            format!("{:.0}", b.replay.as_secs_f64() * 1e9 / tail as f64),
            format!("{retrain_ms:.2}"),
            format!("{first_us:.1}"),
            cold_at_first.to_string(),
            format!("{hydrate_ms:.1}"),
        ]);
        drop(reopened);
    }
    let _ = std::fs::remove_dir_all(&dir);
    table
}

/// The datasets the seeding table sweeps (the repo benchmark's four).
pub const SEEDING_DATASETS: [SosdName; 4] = [
    SosdName::Amzn64,
    SosdName::Face64,
    SosdName::Osmc64,
    SosdName::Wiki64,
];

/// Shard counts the seeding table sweeps: one shard is two tasks (its file
/// beside its build), eight and sixteen are a store's — more tasks than
/// any worker count this runs on.
pub const SEEDING_SHARDS: [usize; 3] = [1, 8, 16];

/// `open_seeded` on a fresh directory, by kind of task (see the module
/// docs). Each row is the run with the median `setup_ms` of three.
fn seeding_table(cfg: BenchConfig, spec: IndexSpec) -> Table {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut table = Table::new(
        format!(
            "Store — seeding a fresh directory: build tasks beside write tasks (n = {}, spec {spec}, {cores} cores)",
            cfg.keys
        ),
        &[
            "dataset",
            "shards",
            "workers",
            "seed_build_ms",
            "seed_write_ms",
            "setup_ms",
            "overlap",
        ],
    );
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    for name in SEEDING_DATASETS {
        let d = dataset_u64(name, cfg);
        for shards in SEEDING_SHARDS {
            let config = StoreConfig::new(spec).shards(shards).durability(
                DurabilityConfig::new()
                    .sync(SyncPolicy::Os)
                    .checkpoint_ops(0),
            );
            let mut runs: Vec<[f64; 3]> = (0..3)
                .map(|_| {
                    let dir = scratch_dir("seeding");
                    let start = Instant::now();
                    let store =
                        ShardedStore::open_seeded(&dir, config, d.as_slice()).expect("fresh dir");
                    let setup = start.elapsed();
                    let tasks = store.open_breakdown().expect("a seeding open is timed");
                    assert_eq!(store.len(), d.len());
                    drop(store);
                    let _ = std::fs::remove_dir_all(&dir);
                    [ms(tasks.seed_build), ms(tasks.seed_write), ms(setup)]
                })
                .collect();
            runs.sort_by(|a, b| a[2].total_cmp(&b[2]));
            let [build, write, setup] = runs[1];
            let overlap = (build + write) / setup;
            if assert_acceptance() && cores >= 2 {
                assert!(
                    overlap > 1.0,
                    "{} x{shards}: the seeding tasks must overlap on {cores} cores \
                     (build {build:.1} ms + write {write:.1} ms vs setup {setup:.1} ms)",
                    d.name()
                );
            }
            table.add_row(vec![
                d.name().into(),
                shards.to_string(),
                // The pool's rule: one worker per core, never more than tasks.
                cores.min(2 * shards).to_string(),
                format!("{build:.1}"),
                format!("{write:.1}"),
                format!("{setup:.1}"),
                format!("{overlap:.2}"),
            ]);
        }
    }
    table
}

/// The group-commit variants the multi-writer table sweeps: label, policy,
/// group commit on/off.
pub const GROUP_VARIANTS: [(&str, SyncPolicy, bool); 4] = [
    ("always", SyncPolicy::Always, true),
    ("always-solo", SyncPolicy::Always, false),
    ("every64", SyncPolicy::EveryN(64), true),
    ("os", SyncPolicy::Os, true),
];

/// Writer thread counts the group-commit table sweeps. The deepest mix is
/// where group commit pays off: every writer parked behind the WAL lock
/// while a leader syncs is drained by the *next* single sync, so
/// syncs/record falls roughly as `1/writers`.
pub const GROUP_WRITERS: [usize; 3] = [1, 4, 32];

/// Multi-writer durable insert throughput per sync policy: the group-commit
/// acceptance table (see the module docs).
fn group_commit_table(cfg: BenchConfig, spec: IndexSpec) -> Table {
    // Writers insert disjoint fresh key ranges; the `always-solo` row pays
    // one fdatasync per op, so the per-writer trace is kept short.
    let total_ops = cfg.queries.clamp(64, 4_000);
    let seed_keys: Vec<u64> = (0..(cfg.keys.min(50_000) as u64)).map(|i| i * 7).collect();
    let mut table = Table::new(
        format!(
            "Store — group commit: {total_ops} concurrent durable inserts per row (seed n = {}, spec {spec}, WriteBatch every 4th op)",
            seed_keys.len()
        ),
        &[
            "sync",
            "writers",
            "ns/op",
            "agg Kops/s",
            "wal records",
            "fdatasyncs",
            "syncs/record",
        ],
    );
    for (label, sync, group) in GROUP_VARIANTS {
        for writers in GROUP_WRITERS {
            let per_writer = (total_ops / writers).max(1);
            let dir = scratch_dir(&format!("group-{label}-{writers}"));
            let config = StoreConfig::new(spec)
                .shards(4)
                .delta_threshold(1_000_000)
                .auto_rebuild(false)
                .durability(
                    DurabilityConfig::new()
                        .sync(sync)
                        .group_commit(group)
                        .checkpoint_ops(0),
                );
            let store =
                ShardedStore::open_seeded(&dir, config, &seed_keys).expect("fresh dir seeds");
            let start = Instant::now();
            std::thread::scope(|scope| {
                for w in 0..writers {
                    let store = &store;
                    scope.spawn(move || {
                        let base = 1_000_000 + ((w as u64) << 20);
                        for i in 0..per_writer as u64 {
                            if i % 4 == 3 {
                                let mut batch = shift_store::WriteBatch::with_capacity(2);
                                batch.insert(base + i).insert(base + i + (1 << 19));
                                store.apply(&batch).expect("batch apply cannot fail");
                            } else {
                                store.insert(base + i).expect("insert cannot fail");
                            }
                        }
                    });
                }
            });
            let elapsed = start.elapsed().as_secs_f64();
            let stats = store.durability_stats().expect("durable store");
            let logical = stats.wal_ops.max(1);
            drop(store);
            let _ = std::fs::remove_dir_all(&dir);
            let ns_per_op = elapsed * 1e9 / logical as f64;
            table.add_row(vec![
                label.into(),
                writers.to_string(),
                fmt_ns(ns_per_op),
                format!("{:.1}", logical as f64 / elapsed / 1e3),
                stats.wal_records.to_string(),
                stats.wal_syncs.to_string(),
                format!(
                    "{:.2}",
                    stats.wal_syncs as f64 / stats.wal_records.max(1) as f64
                ),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_produces_a_row_per_policy() {
        let tables = run(BenchConfig {
            keys: 5_000,
            queries: 400,
            seed: 42,
        });
        assert_eq!(tables.len(), 5);
        if std::env::var("DURABLE_SYNC").is_err() {
            assert_eq!(tables[0].row_count(), SYNC_POLICIES.len());
        }
        assert_eq!(
            tables[1].row_count(),
            GROUP_VARIANTS.len() * GROUP_WRITERS.len(),
            "the group-commit table ignores the DURABLE_SYNC filter"
        );
        assert_eq!(
            tables[2].row_count(),
            2,
            "incremental-checkpoint table: full + incremental rows"
        );
        assert_eq!(
            tables[3].row_count(),
            COLD_START_ROWS.len(),
            "cold-start table: eager + cold rows, then the 2x and 4x tails"
        );
        assert_eq!(
            tables[4].row_count(),
            SEEDING_DATASETS.len() * SEEDING_SHARDS.len(),
            "seeding table: a row per dataset and shard count"
        );
    }
}
