//! Durability acceptance tests: kill-and-recover against a sorted-`Vec`
//! oracle, and the crash-point replay property — the WAL truncated at
//! *every* record boundary (and mid-record) must recover exactly the
//! durable prefix.

use algo_index::RangeIndex;
use shift_store::persist::wal;
use shift_store::{
    DurabilityConfig, ShardedStore, StoreConfig, StoreError, SyncPolicy, WriteBatch,
};
use shift_table::spec::IndexSpec;
use sosd_data::prelude::*;
use std::path::{Path, PathBuf};

fn spec() -> IndexSpec {
    IndexSpec::parse("im+r1").unwrap()
}

/// A scratch directory under the cargo-managed tmp root, wiped on entry.
fn scratch(name: &str) -> PathBuf {
    let dir =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Copy every file of `src` into a wiped `dst` (simulating a disk image
/// taken at crash time).
fn clone_dir(src: &Path, dst: &Path) {
    let _ = std::fs::remove_dir_all(dst);
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

/// The reference implementation (same semantics as the store: delete
/// removes one occurrence when present, else no-op).
#[derive(Clone)]
struct Oracle {
    keys: Vec<u64>,
}

impl Oracle {
    fn insert(&mut self, k: u64) {
        let pos = self.keys.partition_point(|&x| x < k);
        self.keys.insert(pos, k);
    }

    fn delete(&mut self, k: u64) -> bool {
        let pos = self.keys.partition_point(|&x| x < k);
        if self.keys.get(pos) == Some(&k) {
            self.keys.remove(pos);
            true
        } else {
            false
        }
    }

    fn lower_bound(&self, q: u64) -> usize {
        self.keys.partition_point(|&x| x < q)
    }

    fn count_of(&self, k: u64) -> usize {
        self.keys.partition_point(|&x| x <= k) - self.lower_bound(k)
    }
}

/// Every read path must agree with the oracle.
fn assert_matches_oracle(store: &ShardedStore<u64>, oracle: &Oracle, tag: &str) {
    assert_eq!(store.len(), oracle.keys.len(), "{tag}: len");
    let mut rng = SplitMix64::new(0xD15C);
    let mut probes = vec![0u64, 1, u64::MAX];
    for _ in 0..60 {
        let q = if !oracle.keys.is_empty() && rng.next_below(2) == 0 {
            oracle.keys[rng.next_below(oracle.keys.len() as u64) as usize]
        } else {
            rng.next_below(60_000)
        };
        probes.push(q);
        probes.push(q.saturating_add(1));
    }
    for &q in &probes {
        assert_eq!(store.lower_bound(q), oracle.lower_bound(q), "{tag}: q={q}");
        assert_eq!(store.count_of(q), oracle.count_of(q), "{tag}: count {q}");
    }
    let batch = store.lower_bound_many(&probes);
    let expected: Vec<usize> = probes.iter().map(|&q| oracle.lower_bound(q)).collect();
    assert_eq!(batch, expected, "{tag}: batch");
    for pair in probes.chunks(2) {
        if pair.len() < 2 {
            continue;
        }
        let (lo, hi) = (pair[0].min(pair[1]), pair[0].max(pair[1]));
        let start = oracle.lower_bound(lo);
        let end = if hi == u64::MAX {
            oracle.keys.len()
        } else {
            oracle.lower_bound(hi + 1)
        };
        assert_eq!(
            store.range(lo, hi),
            start..end.max(start),
            "{tag}: [{lo},{hi}]"
        );
    }
}

/// The ISSUE acceptance test: populate a store with mixed inserts/deletes
/// across ≥ 4 shards, checkpoint mid-trace, drop the store without
/// flushing, reopen the same path, and every read must match the oracle.
#[test]
fn kill_and_recover_matches_the_oracle_across_a_mid_trace_checkpoint() {
    let dir = scratch("kill-recover");
    let mut rng = SplitMix64::new(0xABCD_0001);
    let mut base: Vec<u64> = (0..4_000).map(|_| rng.next_below(40_000)).collect();
    base.sort_unstable();
    let mut oracle = Oracle { keys: base.clone() };

    let config = StoreConfig::new(spec())
        .shards(4)
        .delta_threshold(32) // small: the trace triggers real rebuilds
        .durability(
            DurabilityConfig::new()
                .sync(SyncPolicy::EveryN(16))
                .checkpoint_ops(0), // only the explicit mid-trace checkpoint
        );
    let store = ShardedStore::open_seeded(&dir, config, &base).unwrap();
    assert!(store.is_durable());
    assert_eq!(store.dir(), Some(dir.as_path()));
    assert!(store.shard_count() >= 4, "trace must span ≥ 4 shards");

    for step in 0..600 {
        match rng.next_below(10) {
            0..=5 => {
                let k = rng.next_below(50_000);
                store.insert(k).unwrap();
                oracle.insert(k);
            }
            _ => {
                let k = if rng.next_below(4) != 0 && !oracle.keys.is_empty() {
                    oracle.keys[rng.next_below(oracle.keys.len() as u64) as usize]
                } else {
                    rng.next_below(50_000)
                };
                assert_eq!(store.delete(k).unwrap(), oracle.delete(k), "del {k}");
            }
        }
        if step == 300 {
            let cv = store.checkpoint().unwrap();
            assert_eq!(cv, 301, "checkpoint version = writes so far");
        }
    }
    assert!(store.total_rebuilds() > 0, "the trace must rebuild shards");
    let stats = store.durability_stats().unwrap();
    assert_eq!(stats.wal_records, 600);
    assert_eq!(stats.checkpoints, 2, "seed + mid-trace");
    assert_eq!(stats.last_checkpoint_version, 301);
    assert_matches_oracle(&store, &oracle, "pre-crash");
    store.sync_wal().unwrap(); // explicit durability point, no checkpoint
    drop(store); // crash: no flush, no final checkpoint

    let recovered: ShardedStore<u64> = ShardedStore::open(&dir, StoreConfig::new(spec())).unwrap();
    assert!(recovered.shard_count() >= 4);
    assert_eq!(
        recovered.durability_stats().unwrap().replayed_records,
        299,
        "only the post-checkpoint tail replays"
    );
    assert_matches_oracle(&recovered, &oracle, "recovered");

    // Writes keep working after recovery, and a second cycle still agrees.
    for k in [7u64, 70_007, 7] {
        recovered.insert(k).unwrap();
        oracle.insert(k);
    }
    drop(recovered);
    let again: ShardedStore<u64> = ShardedStore::open(&dir, StoreConfig::new(spec())).unwrap();
    assert_eq!(
        again.durability_stats().unwrap().replayed_records,
        302,
        "a tail written across two sessions replays whole"
    );
    assert_matches_oracle(&again, &oracle, "second recovery");
    drop(again);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The crash-point replay property: truncate the WAL at every record
/// boundary (and mid-record, exercising checksum rejection) and the
/// recovered store must equal the sorted-`Vec` oracle at exactly that
/// prefix of the write trace.
#[test]
fn wal_truncated_at_every_record_boundary_recovers_the_exact_prefix() {
    let dir = scratch("crash-points");
    let mut rng = SplitMix64::new(0xBEEF_0002);
    let mut base: Vec<u64> = (0..1_500).map(|_| rng.next_below(30_000)).collect();
    base.sort_unstable();

    let config = StoreConfig::new(spec())
        .shards(4)
        .delta_threshold(64)
        .durability(DurabilityConfig::new().checkpoint_ops(0));
    let store = ShardedStore::open_seeded(&dir, config, &base).unwrap();

    // A write-only trace, recording the oracle state after every prefix.
    let mut oracle = Oracle { keys: base };
    let mut prefixes: Vec<Oracle> = vec![oracle.clone()];
    for _ in 0..150 {
        if rng.next_below(3) == 0 {
            // Deletes mix present keys (bias) with guaranteed misses, so
            // logged no-op deletes replay as no-ops too.
            let k = if rng.next_below(4) != 0 && !oracle.keys.is_empty() {
                oracle.keys[rng.next_below(oracle.keys.len() as u64) as usize]
            } else {
                100_000 + rng.next_below(1_000)
            };
            assert_eq!(store.delete(k).unwrap(), oracle.delete(k));
        } else {
            let k = rng.next_below(35_000);
            store.insert(k).unwrap();
            oracle.insert(k);
        }
        prefixes.push(oracle.clone());
    }
    drop(store); // crash

    // One segment holds the whole tail (the only checkpoint was the seed).
    let segments = wal::list_segments(&dir).unwrap();
    assert_eq!(segments.len(), 1, "seed checkpoint leaves one live segment");
    let wal_path = segments[0].1.clone();
    let scan = wal::read_segment(&wal_path).unwrap();
    assert_eq!(scan.records.len(), 150, "every write is one WAL record");
    assert!(!scan.torn_tail);
    let full = std::fs::read(&wal_path).unwrap();

    let crash_dir = scratch("crash-points-image");
    let open_config = StoreConfig::new(spec()).durability(DurabilityConfig::new());
    #[allow(clippy::needless_range_loop)] // `ops` is a crash point, not just an index
    for ops in 0..=150usize {
        let keep = if ops == 0 {
            0
        } else {
            scan.boundaries[ops - 1]
        };
        clone_dir(&dir, &crash_dir);
        std::fs::write(
            crash_dir.join(wal_path.file_name().unwrap()),
            &full[..keep as usize],
        )
        .unwrap();
        let recovered: ShardedStore<u64> = ShardedStore::open(&crash_dir, open_config).unwrap();
        let oracle = &prefixes[ops];
        assert_eq!(recovered.len(), oracle.keys.len(), "prefix {ops}: len");
        assert_eq!(
            recovered.durability_stats().unwrap().replayed_records,
            ops as u64
        );
        // Spot reads per prefix (the full oracle sweep runs on a few).
        let mut prng = SplitMix64::new(ops as u64 + 1);
        for _ in 0..25 {
            let q = prng.next_below(40_000);
            assert_eq!(
                recovered.lower_bound(q),
                oracle.lower_bound(q),
                "prefix {ops}: q={q}"
            );
        }
        if ops % 50 == 0 {
            assert_matches_oracle(&recovered, oracle, &format!("prefix {ops}"));
        }
        drop(recovered);

        // Mid-record truncation: the torn half-frame must be rejected by
        // the length/CRC check and recovery lands on the same prefix.
        if ops < 150 {
            clone_dir(&dir, &crash_dir);
            std::fs::write(
                crash_dir.join(wal_path.file_name().unwrap()),
                &full[..keep as usize + 9], // len + crc + 1 payload byte
            )
            .unwrap();
            let recovered: ShardedStore<u64> = ShardedStore::open(&crash_dir, open_config).unwrap();
            assert_eq!(
                recovered.len(),
                oracle.keys.len(),
                "mid-record after prefix {ops}"
            );
        }
    }

    // Corruption strictly inside the log (not at the tail) also ends the
    // durable prefix there — documented torn-tail semantics.
    clone_dir(&dir, &crash_dir);
    let mut bent = full.clone();
    let frame = wal::FRAME_LEN;
    bent[40 * frame + 12] ^= 0x01; // flip one payload byte of record 40
    std::fs::write(crash_dir.join(wal_path.file_name().unwrap()), &bent).unwrap();
    let recovered: ShardedStore<u64> = ShardedStore::open(&crash_dir, open_config).unwrap();
    assert_eq!(
        recovered.len(),
        prefixes[40].keys.len(),
        "corrupt record 40"
    );
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&crash_dir);
}

/// The batch crash-point property: a trace of multi-op [`WriteBatch`]es
/// (interleaved with singles) is truncated at every entry boundary *and* at
/// cuts strictly inside each batch frame — recovery must land on a whole
/// number of entries, never a prefix of a batch's operations
/// (all-or-nothing), and must match the oracle at exactly that entry count.
#[test]
fn torn_multi_op_wal_records_recover_all_or_nothing() {
    let dir = scratch("batch-crash-points");
    let mut rng = SplitMix64::new(0xBA7C_0003);
    let mut base: Vec<u64> = (0..2_000).map(|_| rng.next_below(30_000)).collect();
    base.sort_unstable();

    let config = StoreConfig::new(spec())
        .shards(4)
        .delta_threshold(64)
        .durability(DurabilityConfig::new().checkpoint_ops(0));
    let store = ShardedStore::open_seeded(&dir, config, &base).unwrap();

    // A trace of entries: every third a single op, the rest batches of
    // 2..=6 mixed ops spanning the whole key domain (and thus shards).
    // `prefixes[i]` is the oracle after the first `i` *entries*, and
    // `ops_after[i]` the logical op count recovery should report.
    let mut oracle = Oracle { keys: base };
    let mut prefixes: Vec<Oracle> = vec![oracle.clone()];
    let mut ops_after: Vec<u64> = vec![0];
    let mut logical_ops = 0u64;
    for e in 0..60 {
        if e % 3 == 2 {
            let k = rng.next_below(35_000);
            store.insert(k).unwrap();
            oracle.insert(k);
            logical_ops += 1;
        } else {
            let mut batch = WriteBatch::new();
            let n = 2 + rng.next_below(5) as usize;
            let mut expect_deleted = 0usize;
            for _ in 0..n {
                if rng.next_below(3) == 0 && !oracle.keys.is_empty() {
                    let k = oracle.keys[rng.next_below(oracle.keys.len() as u64) as usize];
                    batch.delete(k);
                    expect_deleted += oracle.delete(k) as usize;
                } else {
                    let k = rng.next_below(35_000);
                    batch.insert(k);
                    oracle.insert(k);
                }
            }
            let receipt = store.apply(&batch).unwrap();
            assert_eq!(receipt.deleted, expect_deleted, "entry {e}");
            logical_ops += n as u64;
        }
        prefixes.push(oracle.clone());
        ops_after.push(logical_ops);
    }
    assert_matches_oracle(&store, &oracle, "pre-crash");
    drop(store); // crash

    let segments = wal::list_segments(&dir).unwrap();
    assert_eq!(segments.len(), 1);
    let wal_path = segments[0].1.clone();
    let scan = wal::read_segment(&wal_path).unwrap();
    assert_eq!(scan.records.len(), 60, "one WAL record per entry");
    assert!(scan.records.iter().any(|r| r.op_count() > 1));
    let full = std::fs::read(&wal_path).unwrap();

    let crash_dir = scratch("batch-crash-image");
    let open_config = StoreConfig::new(spec()).durability(DurabilityConfig::new());
    for entries in 0..=60usize {
        let keep = if entries == 0 {
            0u64
        } else {
            scan.boundaries[entries - 1]
        };
        // Cut exactly at the boundary, and (for the next entry, if it is a
        // batch) at several points strictly inside its frame: the torn
        // batch must vanish whole.
        let next_len = scan
            .boundaries
            .get(entries)
            .map(|&b| (b - keep) as usize)
            .unwrap_or(0);
        let mut cuts = vec![keep as usize];
        if next_len > 0 {
            cuts.push(keep as usize + 5); // inside the header
            cuts.push(keep as usize + next_len / 2); // mid-payload
            cuts.push(keep as usize + next_len - 1); // one byte short
        }
        for cut in cuts {
            clone_dir(&dir, &crash_dir);
            std::fs::write(crash_dir.join(wal_path.file_name().unwrap()), &full[..cut]).unwrap();
            let recovered: ShardedStore<u64> = ShardedStore::open(&crash_dir, open_config).unwrap();
            let oracle = &prefixes[entries];
            assert_eq!(
                recovered.len(),
                oracle.keys.len(),
                "entries {entries} cut {cut}: len"
            );
            assert_eq!(
                recovered.durability_stats().unwrap().replayed_records,
                ops_after[entries],
                "entries {entries} cut {cut}: replayed ops"
            );
            let mut prng = SplitMix64::new(entries as u64 * 31 + cut as u64);
            for _ in 0..15 {
                let q = prng.next_below(40_000);
                assert_eq!(
                    recovered.lower_bound(q),
                    oracle.lower_bound(q),
                    "entries {entries} cut {cut}: q={q}"
                );
            }
            if entries % 20 == 0 {
                assert_matches_oracle(&recovered, oracle, &format!("entries {entries}"));
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&crash_dir);
}

/// Group commit under `SyncPolicy::Always`: concurrent writers (singles and
/// batches) share `fdatasync`s, yet **every** acknowledged write is durable
/// — asserted by recovering a byte-for-byte copy of the directory taken
/// right after the writers return, without any clean shutdown of the
/// original store.
#[test]
fn group_commit_keeps_every_acknowledged_write_durable() {
    let dir = scratch("group-commit");
    let writers = 4usize;
    let per_writer = 60u64;
    let keys: Vec<u64> = (0..2_000u64).map(|i| i * 5).collect();
    let config = StoreConfig::new(spec())
        .shards(4)
        .auto_rebuild(false)
        .durability(
            DurabilityConfig::new()
                .sync(SyncPolicy::Always)
                .checkpoint_ops(0),
        );
    let store = ShardedStore::open_seeded(&dir, config, &keys).unwrap();
    std::thread::scope(|scope| {
        for w in 0..writers {
            let store = &store;
            scope.spawn(move || {
                for i in 0..per_writer {
                    let k = 100_000 + (w as u64) * 10_000 + i;
                    if i % 4 == 0 {
                        let mut batch = WriteBatch::new();
                        batch.insert(k).insert(k + 5_000);
                        store.apply(&batch).unwrap();
                    } else {
                        store.insert(k).unwrap();
                    }
                }
            });
        }
    });
    let stats = store.durability_stats().unwrap();
    let expected_extra = writers as u64 * (per_writer + per_writer / 4);
    assert_eq!(stats.wal_ops, expected_extra, "every op logged");
    assert!(
        stats.wal_syncs >= 1 && stats.wal_syncs <= stats.wal_records,
        "group commit can never sync more than once per record"
    );

    // Simulate power loss: image the directory while the store is still
    // open (no drop, no final sync) — Always means everything acknowledged
    // is already on disk.
    let image = scratch("group-commit-image");
    clone_dir(&dir, &image);
    let recovered: ShardedStore<u64> =
        ShardedStore::open(&image, StoreConfig::new(spec())).unwrap();
    assert_eq!(
        recovered.len() as u64,
        keys.len() as u64 + expected_extra,
        "all acknowledged writes survive the image"
    );
    for w in 0..writers {
        for i in 0..per_writer {
            assert_eq!(
                recovered.count_of(100_000 + (w as u64) * 10_000 + i),
                1,
                "w={w} i={i}"
            );
        }
    }
    drop(recovered);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&image);
}

/// A batch round-trips the full durable lifecycle: logged as one record,
/// contained whole in a checkpoint, replayed whole from the WAL tail.
#[test]
fn batches_round_trip_checkpoints_and_replay() {
    let dir = scratch("batch-roundtrip");
    let config = StoreConfig::new(spec())
        .shards(3)
        .durability(DurabilityConfig::new().checkpoint_ops(0));
    let keys: Vec<u64> = (0..1_000u64).collect();
    let store = ShardedStore::open_seeded(&dir, config, &keys).unwrap();

    let mut pre = WriteBatch::new();
    pre.insert(5_000).insert(5_001).delete(0);
    store.apply(&pre).unwrap();
    store.checkpoint().unwrap(); // the batch rides into the snapshot cut

    let mut post = WriteBatch::new();
    post.insert(6_000).delete(5_000).delete(999);
    let receipt = store.apply(&post).unwrap();
    assert_eq!(receipt.deleted, 2);
    let stats = store.durability_stats().unwrap();
    assert_eq!(stats.wal_records, 2, "one frame per batch");
    assert_eq!(stats.wal_ops, 6);
    drop(store); // crash: the post-checkpoint batch lives in the WAL tail

    let recovered: ShardedStore<u64> = ShardedStore::open(&dir, StoreConfig::new(spec())).unwrap();
    assert_eq!(recovered.durability_stats().unwrap().replayed_records, 3);
    assert_eq!(recovered.len(), 1_000, "+3 −3 across both batches");
    assert_eq!(
        recovered.count_of(5_000),
        0,
        "pre-checkpoint insert deleted"
    );
    assert_eq!(recovered.count_of(5_001), 1);
    assert_eq!(recovered.count_of(6_000), 1);
    assert_eq!(recovered.count_of(0), 0);
    assert_eq!(recovered.count_of(999), 0);
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint truncates the covered WAL prefix and rotates the manifest;
/// stale files disappear and restart recovers from the new root.
#[test]
fn checkpoint_truncates_the_wal_and_rotates_the_manifest() {
    let dir = scratch("truncate");
    let config = StoreConfig::new(spec())
        .shards(2)
        .durability(DurabilityConfig::new().checkpoint_ops(0));
    let keys: Vec<u64> = (0..2_000u64).map(|i| i * 3).collect();
    let store = ShardedStore::open_seeded(&dir, config, &keys).unwrap();
    for k in 0..300u64 {
        store.insert(k * 7 + 1).unwrap();
    }
    assert_eq!(store.checkpoint().unwrap(), 300);
    let segments = wal::list_segments(&dir).unwrap();
    assert_eq!(segments.len(), 1, "covered segments are deleted");
    assert_eq!(
        segments[0].0, 301,
        "live segment starts past the checkpoint"
    );
    assert!(
        wal::read_segment(&segments[0].1)
            .unwrap()
            .records
            .is_empty(),
        "nothing written since the checkpoint"
    );
    // Old snapshots and manifests are gone; exactly one checkpoint root.
    let names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(
        names.iter().filter(|n| n.starts_with("manifest-")).count(),
        1,
        "{names:?}"
    );
    assert_eq!(
        names.iter().filter(|n| n.starts_with("snap-")).count(),
        store.shard_count(),
        "{names:?}"
    );
    drop(store);
    let recovered: ShardedStore<u64> = ShardedStore::open(&dir, StoreConfig::new(spec())).unwrap();
    assert_eq!(recovered.len(), 2_300);
    assert_eq!(recovered.durability_stats().unwrap().replayed_records, 0);
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every sync policy recovers a same-process drop completely (the page
/// cache holds unsynced appends), and the background worker's checkpoint
/// duty fires on its own.
#[test]
fn sync_policies_and_the_worker_checkpoint_duty() {
    for (tag, sync) in [
        ("always", SyncPolicy::Always),
        ("every", SyncPolicy::EveryN(8)),
        ("os", SyncPolicy::Os),
    ] {
        let dir = scratch(&format!("sync-{tag}"));
        let config = StoreConfig::new(spec())
            .shards(2)
            .auto_rebuild(false)
            .background_maintenance(true)
            .durability(DurabilityConfig::new().sync(sync).checkpoint_ops(64));
        let keys: Vec<u64> = (0..1_000u64).collect();
        let store = ShardedStore::open_seeded(&dir, config, &keys).unwrap();
        for k in 0..200u64 {
            store.insert(5_000 + k).unwrap();
        }
        // The worker must take the over-budget checkpoint by itself.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while store.durability_stats().unwrap().checkpoints < 2
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert!(
            store.durability_stats().unwrap().checkpoints >= 2,
            "{tag}: worker checkpoint duty must fire (seed + auto)"
        );
        assert!(store.take_maintenance_errors().is_empty());
        drop(store);
        let recovered: ShardedStore<u64> =
            ShardedStore::open(&dir, StoreConfig::new(spec())).unwrap();
        assert_eq!(recovered.len(), 1_200, "{tag}: all writes recovered");
        assert_eq!(recovered.lower_bound(5_000), 1_000, "{tag}");
        drop(recovered);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A store that never checkpoints (opened empty, no seed) recovers from
/// the WAL alone — no manifest on disk at all.
#[test]
fn wal_only_recovery_without_any_manifest() {
    let dir = scratch("wal-only");
    let config = StoreConfig::new(spec()).durability(DurabilityConfig::new().checkpoint_ops(0));
    let store: ShardedStore<u64> = ShardedStore::open(&dir, config).unwrap();
    assert_eq!(store.len(), 0);
    for k in [9u64, 3, 3, 77, 1] {
        store.insert(k).unwrap();
    }
    assert!(store.delete(77).unwrap());
    drop(store);
    assert!(
        !std::fs::read_dir(&dir).unwrap().any(|e| e
            .unwrap()
            .file_name()
            .to_string_lossy()
            .starts_with("manifest-")),
        "no checkpoint ever ran"
    );
    let recovered: ShardedStore<u64> = ShardedStore::open(&dir, config).unwrap();
    assert_eq!(recovered.len(), 4);
    assert_eq!(recovered.durability_stats().unwrap().replayed_records, 6);
    assert_eq!(recovered.lower_bound(4), 3, "1, 3, 3 precede");
    assert_eq!(recovered.count_of(3), 2);
    assert_eq!(recovered.count_of(77), 0, "the no-op-after-delete replayed");
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A seeding that crashed before its first checkpoint leaves only an
/// empty (or torn) WAL segment and no manifest; retrying `open_seeded`
/// must seed again, not recover an empty store.
#[test]
fn crashed_seed_leaves_a_retryable_directory() {
    let dir = scratch("seed-retry");
    std::fs::create_dir_all(&dir).unwrap();
    // Debris of a killed first seeding: a record-less segment, no manifest.
    std::fs::write(dir.join("wal-00000000000000000001.log"), b"").unwrap();
    let keys: Vec<u64> = (0..500u64).collect();
    let config = StoreConfig::new(spec()).durability(DurabilityConfig::new());
    let store = ShardedStore::open_seeded(&dir, config, &keys).unwrap();
    assert_eq!(store.len(), 500, "the retry must seed, not recover empty");
    drop(store);

    // A torn half-frame (no *valid* record) still counts as no data…
    let dir2 = scratch("seed-retry-torn");
    std::fs::create_dir_all(&dir2).unwrap();
    std::fs::write(dir2.join("wal-00000000000000000001.log"), [0xFFu8; 9]).unwrap();
    let store = ShardedStore::open_seeded(&dir2, config, &keys).unwrap();
    assert_eq!(store.len(), 500);
    // …but one valid record does: the third open_seeded must recover.
    store.insert(7).unwrap();
    drop(store);
    let store = ShardedStore::open_seeded(&dir2, config, [1u64]).unwrap();
    assert_eq!(store.len(), 501, "valid WAL records forbid reseeding");
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir2);
}

/// Reopening uses the *persisted* spec (the snapshots were cut for it);
/// `open_seeded` on a populated directory recovers instead of reseeding;
/// durability-only APIs reject in-memory stores.
#[test]
fn persisted_spec_wins_and_misc_contracts() {
    let dir = scratch("spec-roundtrip");
    let persisted = IndexSpec::parse("rmi:64+none").unwrap();
    let keys: Vec<u64> = (0..3_000u64).map(|i| i * 2).collect();
    let store =
        ShardedStore::open_seeded(&dir, StoreConfig::new(persisted).shards(3), &keys).unwrap();
    store.insert(11).unwrap();
    drop(store);

    // Reopen under a different config spec: the persisted one wins, and the
    // seed keys must NOT be re-applied on the already-populated directory.
    let reopened =
        ShardedStore::open_seeded(&dir, StoreConfig::new(spec()).shards(3), [1u64, 2, 3]).unwrap();
    assert_eq!(reopened.config().spec, persisted, "persisted spec wins");
    assert_eq!(reopened.len(), 3_001, "no reseed of a populated directory");
    assert_eq!(reopened.lower_bound(12), 7);
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);

    // In-memory stores refuse durability-only calls.
    let mem = ShardedStore::build(StoreConfig::new(spec()), [1u64, 2]).unwrap();
    assert!(!mem.is_durable());
    assert_eq!(mem.dir(), None);
    assert!(mem.durability_stats().is_none());
    assert!(matches!(mem.checkpoint(), Err(StoreError::NotDurable)));
    assert!(matches!(mem.sync_wal(), Err(StoreError::NotDurable)));
}
