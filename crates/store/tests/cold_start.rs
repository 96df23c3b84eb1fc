//! Snapshot-format-v2 acceptance tests: incremental checkpoints (clean
//! shards skipped, bytes reused, cross-restart memo), streaming cold-start
//! opens (cold reads equal hot reads, hydration converges), block-confined
//! corruption detection, the typed rejection of files that are not v2
//! snapshots, byte-for-byte compatibility with a checked-in store
//! directory, the opening of one whose manifest names a retired midpoint
//! layer, and online WAL repair.

use algo_index::RangeIndex;
use shift_store::persist::{manifest, snapshot_name, wal};
use shift_store::{
    DurabilityConfig, ShardedStore, StoreConfig, StoreError, SyncPolicy, WriteBatch,
};
use shift_table::spec::IndexSpec;
use sosd_data::prelude::*;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

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

/// Copy every file of `src` into a wiped `dst` (a disk image at crash time).
fn clone_dir(src: &Path, dst: &Path) {
    let _ = std::fs::remove_dir_all(dst);
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

fn durable_config() -> StoreConfig {
    StoreConfig::new(spec())
        .shards(4)
        .delta_threshold(64)
        .durability(
            DurabilityConfig::new()
                .sync(SyncPolicy::EveryN(8))
                .checkpoint_ops(0), // checkpoints only when the test says so
        )
}

/// Seed a 4-shard durable store with a deterministic key column.
fn seeded(dir: &Path) -> (ShardedStore<u64>, Vec<u64>) {
    let mut rng = SplitMix64::new(0xC01D);
    let mut base: Vec<u64> = (0..6_000).map(|_| rng.next_below(100_000)).collect();
    base.sort_unstable();
    let store = ShardedStore::open_seeded(dir, durable_config(), &base).unwrap();
    assert!(store.shard_count() >= 4);
    (store, base)
}

/// Every read path of `a` and `b` must agree on a deterministic probe set.
fn assert_stores_agree(a: &ShardedStore<u64>, b: &ShardedStore<u64>, tag: &str) {
    assert_eq!(a.len(), b.len(), "{tag}: len");
    let mut rng = SplitMix64::new(0x5EED);
    let mut probes = vec![0u64, 1, u64::MAX];
    for _ in 0..200 {
        probes.push(rng.next_below(110_000));
    }
    for &q in &probes {
        assert_eq!(a.lower_bound(q), b.lower_bound(q), "{tag}: q={q}");
        assert_eq!(a.count_of(q), b.count_of(q), "{tag}: count {q}");
    }
    assert_eq!(
        a.lower_bound_many(&probes),
        b.lower_bound_many(&probes),
        "{tag}: batch"
    );
    for pair in probes.chunks(2) {
        if pair.len() < 2 {
            continue;
        }
        let (lo, hi) = (pair[0].min(pair[1]), pair[0].max(pair[1]));
        assert_eq!(a.range(lo, hi), b.range(lo, hi), "{tag}: range [{lo},{hi}]");
        assert_eq!(a.scan(lo, hi), b.scan(lo, hi), "{tag}: scan [{lo},{hi}]");
    }
}

/// Wait (bounded) until the background hydrator has retrained every shard.
fn await_hydration(store: &ShardedStore<u64>) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while store.cold_shards() > 0 {
        assert!(Instant::now() < deadline, "hydration never completed");
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(!store.is_hydrating());
}

/// The store configuration the golden directory was written under.
fn golden_config() -> StoreConfig {
    StoreConfig::new(IndexSpec::parse("rmi:16+r1").unwrap())
        .shards(2)
        .delta_threshold(1_000)
        .durability(
            DurabilityConfig::new()
                .sync(SyncPolicy::EveryN(4))
                .checkpoint_ops(0)
                .snapshot_block_keys(64),
        )
}

/// The fixed write history behind `tests/data/parent-store`: a two-shard
/// seed, single-op frames, batch frames and a transaction, one checkpoint
/// mid-way and a WAL tail after it. Returns the final sorted content.
fn write_golden_store(dir: &Path) -> Vec<u64> {
    let mut rng = SplitMix64::new(0x601D);
    let mut oracle: Vec<u64> = (0..300).map(|_| rng.next_below(1 << 40)).collect();
    oracle.sort_unstable();
    let store = ShardedStore::open_seeded(dir, golden_config(), &oracle).unwrap();
    let mut write = |store: &ShardedStore<u64>, oracle: &mut Vec<u64>, round: u64| {
        for i in 0..20 {
            let k = rng.next_below(1 << 40);
            store.insert(k).unwrap();
            oracle.push(k);
            if i % 3 == 0 {
                let victim = oracle[(rng.next_below(oracle.len() as u64)) as usize];
                assert!(store.delete(victim).unwrap());
                let at = oracle.iter().position(|&x| x == victim).unwrap();
                oracle.remove(at);
            }
        }
        let mut batch = WriteBatch::new();
        for i in 0..9 {
            let k = (round << 32) + i * 7;
            batch.insert(k);
            oracle.push(k);
        }
        store.apply(&batch).unwrap();
        let mut txn = store.begin();
        let k = (round << 33) + 5;
        txn.get(k);
        txn.insert(k);
        oracle.push(k);
        txn.commit().unwrap();
    };
    write(&store, &mut oracle, 1);
    store.checkpoint().unwrap();
    write(&store, &mut oracle, 2); // stays in the WAL tail
    drop(store);
    oracle.sort_unstable();
    oracle
}

/// On-disk compatibility across the CRC32 and snapshot-writer rewrite:
/// `tests/data/parent-store` holds the manifest, v2 snapshots and WAL tail
/// the commit *before* that rewrite produced for `write_golden_store`.
/// This commit must produce the same bytes (so everything it writes
/// verifies under the old bytewise checksum and reader), and must recover
/// the old files — eagerly and cold — to the same content.
#[test]
fn store_directory_written_by_the_parent_commit_is_reproduced_and_recovered() {
    let golden = Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/data/parent-store"
    ));
    let files = |dir: &Path| {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    };

    let fresh = scratch("golden-fresh");
    let oracle = write_golden_store(&fresh);
    assert_eq!(files(&fresh), files(golden));
    assert_eq!(
        files(golden).len(),
        4,
        "manifest, two snapshots, one WAL segment"
    );
    for name in files(golden) {
        assert_eq!(
            std::fs::read(fresh.join(&name)).unwrap(),
            std::fs::read(golden.join(&name)).unwrap(),
            "{name} differs from the bytes the parent commit wrote"
        );
    }

    for cold in [false, true] {
        let image = scratch(if cold { "golden-cold" } else { "golden-eager" });
        clone_dir(golden, &image);
        let store: ShardedStore<u64> =
            ShardedStore::open(&image, golden_config().cold_start(cold)).unwrap();
        assert!(store.durability_stats().unwrap().replayed_records > 0);
        assert_eq!(store.scan(0, u64::MAX), oracle, "cold={cold}");
        if cold {
            await_hydration(&store);
            assert_eq!(store.scan(0, u64::MAX), oracle, "after hydration");
        }
        drop(store);
        let _ = std::fs::remove_dir_all(&image);
    }
    let _ = std::fs::remove_dir_all(&fresh);
}

/// `tests/data/sx-store` holds what the commit before S-X left the serving
/// path wrote for `write_golden_store`'s history under `rmi:16+s10` in place
/// of `rmi:16+r1`. Its manifest names `s10`, which now reads as `r1`: the
/// directory opens eagerly and cold to the same content, and the store
/// reports the persisted spec as `rmi:16+r1`.
#[test]
fn store_directory_written_with_a_midpoint_spec_opens_as_r1() {
    let written = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/sx-store"));
    let history = scratch("sx-history");
    let oracle = write_golden_store(&history);
    let _ = std::fs::remove_dir_all(&history);
    for cold in [false, true] {
        let image = scratch(if cold { "sx-cold" } else { "sx-eager" });
        clone_dir(written, &image);
        // Opened under another spec: the persisted one wins.
        let config = golden_config().cold_start(cold);
        let config = StoreConfig {
            spec: spec(),
            ..config
        };
        let store: ShardedStore<u64> = ShardedStore::open(&image, config).unwrap();
        assert_eq!(store.config().spec.to_string(), "rmi:16+r1", "cold={cold}");
        assert!(store.durability_stats().unwrap().replayed_records > 0);
        assert_eq!(store.scan(0, u64::MAX), oracle, "cold={cold}");
        if cold {
            await_hydration(&store);
            assert_eq!(store.scan(0, u64::MAX), oracle, "after hydration");
        }
        drop(store);
        let _ = std::fs::remove_dir_all(&image);
    }
}

/// The tentpole oracle test: the same disk image opened eagerly and opened
/// cold must answer every read identically — immediately after the cold
/// open (models not yet trained), while writes land on cold shards, and
/// after explicit hydration.
#[test]
fn cold_start_reads_equal_eager_reads_before_and_after_hydration() {
    let dir = scratch("cold-oracle");
    let (store, base) = seeded(&dir);
    // Dirty every region, checkpoint mid-trace, then leave a WAL tail.
    let mut rng = SplitMix64::new(0xBEEF);
    for _ in 0..300 {
        store.insert(rng.next_below(100_000)).unwrap();
    }
    store.checkpoint().unwrap();
    for _ in 0..200 {
        store.insert(rng.next_below(100_000)).unwrap();
        store.delete(rng.next_below(100_000)).unwrap();
    }
    store.sync_wal().unwrap();
    drop(store);

    let eager_dir = scratch("cold-oracle-eager");
    let cold_dir = scratch("cold-oracle-cold");
    clone_dir(&dir, &eager_dir);
    clone_dir(&dir, &cold_dir);

    let eager = ShardedStore::<u64>::open(&eager_dir, durable_config()).unwrap();
    let cold = ShardedStore::<u64>::open(&cold_dir, durable_config().cold_start(true)).unwrap();

    // The cold open mounted every shard cold and trained nothing in the
    // foreground; the eager open trained everything and mounted nothing.
    let cb = cold.open_breakdown().unwrap();
    assert_eq!(
        cb.cold_shards,
        cold.shard_count(),
        "all shards mounted cold"
    );
    let eb = eager.open_breakdown().unwrap();
    assert_eq!(eb.cold_shards, 0);
    assert!(!base.is_empty());

    // First reads — served from the block index wherever the hydrator has
    // not caught up yet — must already agree with the eager store.
    assert_stores_agree(&eager, &cold, "first reads");

    // Writes land on cold shards (buffered in the delta chain, the mounted
    // base untouched) exactly as they land on hot ones.
    for k in [0u64, 55_555, 99_999, 3] {
        eager.insert(k).unwrap();
        cold.insert(k).unwrap();
        assert_eq!(eager.delete(1).unwrap(), cold.delete(1).unwrap());
    }
    assert_stores_agree(&eager, &cold, "after writes");

    // Explicit hydration races the background hydrator safely; afterwards
    // nothing is cold and reads are unchanged.
    cold.hydrate().unwrap();
    assert_eq!(cold.cold_shards(), 0);
    assert!(cold.take_maintenance_errors().is_empty());
    assert_stores_agree(&eager, &cold, "after hydration");

    // A third image hydrates purely in the background.
    let bg_dir = scratch("cold-oracle-bg");
    clone_dir(&dir, &bg_dir);
    let bg = ShardedStore::<u64>::open(&bg_dir, durable_config().cold_start(true)).unwrap();
    await_hydration(&bg);
    assert!(bg.take_maintenance_errors().is_empty());
}

/// Incremental checkpoints: clean shards are skipped and their files
/// re-referenced (and kept by GC); the skip memo survives a reopen; and a
/// topology change forces a full rewrite.
#[test]
fn incremental_checkpoints_skip_clean_shards_and_survive_reopen() {
    let dir = scratch("incr-ckpt");
    let (store, base) = seeded(&dir);
    let shard_count = store.shard_count() as u64;
    let after_seed = store.durability_stats().unwrap();
    assert_eq!(after_seed.checkpoint_shards_written, shard_count);
    assert_eq!(after_seed.checkpoint_shards_skipped, 0);
    assert_eq!(after_seed.snapshot_bytes_reused, 0);

    // Writes confined to the lowest-keyed shard: duplicates of the global
    // minimum always route to shard 0.
    for _ in 0..50 {
        store.insert(base[0]).unwrap();
    }
    store.checkpoint().unwrap();
    let s = store.durability_stats().unwrap();
    assert_eq!(
        s.checkpoint_shards_written,
        after_seed.checkpoint_shards_written + 1,
        "only the dirtied shard is rewritten"
    );
    assert_eq!(s.checkpoint_shards_skipped, shard_count - 1);
    assert!(s.snapshot_bytes_reused > 0, "reused bytes are accounted");

    // On disk: exactly one manifest, exactly `shard_count` snapshots — the
    // re-referenced seed-era files survive GC, the superseded one is gone.
    let manifests = manifest::list_manifests(&dir).unwrap();
    assert_eq!(manifests.len(), 1);
    assert_eq!(manifests[0].0, 2);
    assert!(!dir.join(snapshot_name(1, 0)).exists());
    assert!(dir.join(snapshot_name(2, 0)).exists());
    for shard in 1..shard_count as usize {
        assert!(
            dir.join(snapshot_name(1, shard)).exists(),
            "shard {shard}'s seed snapshot must be re-referenced, not rewritten"
        );
    }

    // A checkpoint with no intervening writes skips everything.
    store.checkpoint().unwrap();
    let s2 = store.durability_stats().unwrap();
    assert_eq!(s2.checkpoint_shards_written, s.checkpoint_shards_written);
    assert_eq!(
        s2.checkpoint_shards_skipped,
        s.checkpoint_shards_skipped + shard_count
    );
    drop(store);

    // The memo is reseeded from the manifest on reopen: with no WAL tail,
    // the first post-reopen checkpoint re-references every file.
    let store = ShardedStore::<u64>::open(&dir, durable_config()).unwrap();
    store.checkpoint().unwrap();
    let s3 = store.durability_stats().unwrap();
    assert_eq!(s3.checkpoint_shards_written, 0);
    assert_eq!(s3.checkpoint_shards_skipped, shard_count);
    assert!(s3.snapshot_bytes_reused > 0);

    // ... but a shard the WAL tail replayed into is rewritten.
    store.insert(base[0]).unwrap();
    store.sync_wal().unwrap();
    drop(store);
    let store = ShardedStore::<u64>::open(&dir, durable_config()).unwrap();
    store.checkpoint().unwrap();
    let s4 = store.durability_stats().unwrap();
    assert_eq!(s4.checkpoint_shards_written, 1);
    assert_eq!(s4.checkpoint_shards_skipped, shard_count - 1);

    // A topology change invalidates the whole memo: grow the store by one
    // catch-up split, then checkpoint — every shard of the new topology is
    // rewritten.
    drop(store);
    let store = ShardedStore::<u64>::open(&dir, durable_config().shards(8)).unwrap();
    assert!(store.rebalance().unwrap() > 0, "catch-up split must fire");
    let grown = store.shard_count() as u64;
    assert!(grown > shard_count);
    store.checkpoint().unwrap();
    let s5 = store.durability_stats().unwrap();
    assert_eq!(s5.checkpoint_shards_written, grown);
    assert_eq!(s5.checkpoint_shards_skipped, 0);
}

/// Names of the files in `dir` that start with `prefix`, sorted.
fn files_named(dir: &Path, prefix: &str) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.starts_with(prefix))
        .collect();
    names.sort();
    names
}

/// A snapshot file the memo points at can go missing (an operator's
/// clean-up, a restore that dropped files). The next checkpoint must write
/// the shard again instead of publishing a manifest that references
/// nothing — GC removes the older manifest, so nothing else could recover.
#[test]
fn checkpoint_rewrites_a_shard_whose_reused_snapshot_file_is_gone() {
    let dir = scratch("reuse-missing");
    let (store, base) = seeded(&dir);
    let shard_count = store.shard_count() as u64;
    store.checkpoint().unwrap();
    let before = store.durability_stats().unwrap();
    assert_eq!(before.checkpoint_shards_skipped, shard_count);

    std::fs::remove_file(dir.join(snapshot_name(1, 1))).unwrap();
    store.checkpoint().unwrap();
    let after = store.durability_stats().unwrap();
    assert_eq!(
        after.checkpoint_shards_written,
        before.checkpoint_shards_written + 1,
        "the shard whose file is gone is written again"
    );
    assert_eq!(
        after.checkpoint_shards_skipped,
        before.checkpoint_shards_skipped + shard_count - 1
    );
    assert!(dir.join(snapshot_name(3, 1)).exists());
    drop(store);

    let reopened = ShardedStore::<u64>::open(&dir, durable_config()).unwrap();
    assert_eq!(reopened.len(), base.len());
    assert_eq!(reopened.scan(0, u64::MAX), base);
}

/// A seeded open reports the wall time of both pipeline lanes, leaves the
/// recovery phases at zero, and publishes the checkpoint memo: a
/// checkpoint right after it has nothing to write.
#[test]
fn seeded_open_reports_both_lanes_and_primes_the_checkpoint_memo() {
    let dir = scratch("seed-lanes");
    let (store, base) = seeded(&dir);
    let shard_count = store.shard_count() as u64;
    let lanes = store.open_breakdown().expect("a seeding open is timed");
    assert!(lanes.seed_build > Duration::ZERO);
    assert!(lanes.seed_write > Duration::ZERO);
    assert_eq!(
        (lanes.manifest, lanes.mount, lanes.replay, lanes.retrain),
        (
            Duration::ZERO,
            Duration::ZERO,
            Duration::ZERO,
            Duration::ZERO
        )
    );
    assert_eq!(lanes.cold_shards, 0);

    let seed = store.durability_stats().unwrap();
    assert_eq!(seed.checkpoints, 1);
    assert_eq!(seed.checkpoint_shards_written, shard_count);
    assert_eq!(seed.last_checkpoint_version, 0);
    store.checkpoint().unwrap();
    let next = store.durability_stats().unwrap();
    assert_eq!(next.checkpoint_shards_skipped, shard_count);
    assert_eq!(
        next.checkpoint_shards_written,
        seed.checkpoint_shards_written
    );
    assert_eq!(next.snapshot_bytes, seed.snapshot_bytes, "0 bytes written");
    drop(store);

    // Recovering the same directory — through either entry point — times
    // the recovery phases and no seeding lane.
    let reopened = ShardedStore::open_seeded(&dir, durable_config(), [1u64]).unwrap();
    assert_eq!(reopened.len(), base.len());
    let phases = reopened.open_breakdown().unwrap();
    assert_eq!(
        (phases.seed_build, phases.seed_write),
        (Duration::ZERO, Duration::ZERO)
    );
}

/// Every way a seeding can fail leaves a directory that still counts as
/// unseeded, and seeding it again gives the files a clean seeding gives.
#[test]
fn failed_and_interrupted_seedings_leave_a_directory_that_seeds_again() {
    let mut rng = SplitMix64::new(0xD3B215);
    let mut keys: Vec<u64> = (0..5_000).map(|_| rng.next_below(1 << 30)).collect();
    keys.sort_unstable();
    let clean = scratch("seed-clean");
    drop(ShardedStore::open_seeded(&clean, durable_config(), &keys).unwrap());
    let clean_files = files_named(&clean, "");
    let assert_seeds_like_clean = |dir: &Path, tag: &str| {
        let store = ShardedStore::open_seeded(dir, durable_config(), &keys).unwrap();
        assert_eq!(store.scan(0, u64::MAX), keys, "{tag}");
        drop(store);
        assert_eq!(files_named(dir, ""), clean_files, "{tag}: file set");
        for name in files_named(dir, "snap-")
            .into_iter()
            .chain(files_named(dir, "manifest-"))
        {
            assert!(
                std::fs::read(dir.join(&name)).unwrap()
                    == std::fs::read(clean.join(&name)).unwrap(),
                "{tag}: {name} differs from a clean seeding"
            );
        }
        let reopened = ShardedStore::<u64>::open(dir, durable_config()).unwrap();
        assert_eq!(reopened.scan(0, u64::MAX), keys, "{tag}: recovered");
    };

    // (a) A column that cannot be built is rejected by the chunk plan (the
    // step that also checks every chunk against the layer's capacity),
    // before the directory holds a WAL segment, a snapshot or a manifest.
    let unsorted = scratch("seed-unsorted");
    let mut bad = keys.clone();
    bad.swap(10, 4_000);
    let err = ShardedStore::open_seeded(&unsorted, durable_config(), &bad)
        .err()
        .expect("unsorted keys must not seed");
    assert!(matches!(err, StoreError::Build(_)), "{err}");
    assert_eq!(files_named(&unsorted, ""), Vec::<String>::new());
    assert_seeds_like_clean(&unsorted, "after unsorted keys");

    // (b) A seeding killed mid-write: a torn first snapshot, a record-less
    // WAL segment, no manifest.
    let killed = scratch("seed-killed");
    std::fs::create_dir_all(&killed).unwrap();
    let whole = std::fs::read(clean.join(snapshot_name(1, 0))).unwrap();
    std::fs::write(killed.join(snapshot_name(1, 0)), &whole[..whole.len() / 3]).unwrap();
    std::fs::write(killed.join(wal::segment_name(1)), b"").unwrap();
    assert_seeds_like_clean(&killed, "after a kill mid-write");

    // (d) The writer lane cannot create its second file (a directory sits
    // on the name): the I/O error surfaces, typed, and no manifest lands.
    let blocked = scratch("seed-blocked");
    let obstacle = blocked.join(snapshot_name(1, 1));
    std::fs::create_dir_all(&obstacle).unwrap();
    let err = ShardedStore::open_seeded(&blocked, durable_config(), &keys)
        .err()
        .expect("the writer lane must fail");
    assert!(matches!(err, StoreError::Io(_)), "{err}");
    assert!(manifest::list_manifests(&blocked).unwrap().is_empty());
    std::fs::remove_dir(&obstacle).unwrap();
    assert_seeds_like_clean(&blocked, "after a writer-lane I/O error");
}

/// Sixteen-shard seedings: the key column and configuration the pool tests
/// below share.
fn sixteen_shards() -> (StoreConfig, Vec<u64>) {
    let mut rng = SplitMix64::new(0x16_5EED);
    let mut keys: Vec<u64> = (0..16_000).map(|_| rng.next_below(1 << 34)).collect();
    keys.sort_unstable();
    (durable_config().shards(16), keys)
}

/// A write task in the *middle* of the queue fails (a directory squats on
/// the eighth file of sixteen): the error is typed, the writes queued
/// behind it become no-ops, nothing is published, and the retry produces
/// the files of a clean seeding.
#[test]
fn a_failed_write_task_mid_queue_cancels_later_writes_and_the_retry_is_clean() {
    let (config, keys) = sixteen_shards();
    let clean = scratch("pool-clean");
    drop(ShardedStore::open_seeded(&clean, config, &keys).unwrap());
    assert_eq!(files_named(&clean, "snap-").len(), 16);

    let blocked = scratch("pool-blocked");
    let obstacle = blocked.join(snapshot_name(1, 7));
    assert_eq!(obstacle.file_name().unwrap(), "snap-0000000001-0007.snap");
    std::fs::create_dir_all(&obstacle).unwrap();
    let err = ShardedStore::open_seeded(&blocked, config, &keys)
        .err()
        .expect("the eighth write task must fail");
    assert!(matches!(err, StoreError::Io(_)), "{err}");
    assert!(manifest::list_manifests(&blocked).unwrap().is_empty());
    assert!(wal::list_segments(&blocked)
        .unwrap()
        .iter()
        .all(|(_, segment)| wal::read_segment(segment).unwrap().records.is_empty()));
    // Seven files precede the failure; behind it only the writes already
    // in flight on another worker can still land.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let landed = files_named(&blocked, "snap-").len() - 1; // minus the obstacle
    assert!(
        landed < 7 + cores,
        "{landed} snapshot files on {cores} cores"
    );

    std::fs::remove_dir(&obstacle).unwrap();
    let store = ShardedStore::open_seeded(&blocked, config, &keys).unwrap();
    assert_eq!(store.scan(0, u64::MAX), keys);
    drop(store);
    assert_eq!(files_named(&blocked, ""), files_named(&clean, ""));
    for name in files_named(&clean, "snap-")
        .into_iter()
        .chain(files_named(&clean, "manifest-"))
    {
        assert!(
            std::fs::read(blocked.join(&name)).unwrap()
                == std::fs::read(clean.join(&name)).unwrap(),
            "{name} differs from a clean seeding"
        );
    }
}

/// A key that panics when the model asks for a certain value as a float —
/// which only a shard *build* does; planning, routing and the snapshot
/// writer compare keys and widen them to `u64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
struct Tripwire(u64);

/// The value no model may look at.
const TRIPPED: u64 = 0xDEAD_0000;

impl std::fmt::Display for Tripwire {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

impl Key for Tripwire {
    const BITS: u32 = 64;
    const MIN_KEY: Self = Tripwire(0);
    const MAX_KEY: Self = Tripwire(u64::MAX);
    fn to_u64(self) -> u64 {
        self.0
    }
    fn from_u64_saturating(v: u64) -> Self {
        Tripwire(v)
    }
    fn to_f64(self) -> f64 {
        assert_ne!(self.0, TRIPPED, "the model looked at the tripwire key");
        self.0 as f64
    }
}

/// A build task that panics is re-raised by `open_seeded` once the pool
/// has drained — and, like every other failure, before anything is
/// published: the directory seeds again.
#[test]
fn a_panicking_build_task_is_re_raised_and_leaves_the_directory_unseeded() {
    let (config, mut keys) = sixteen_shards();
    keys.push(TRIPPED); // lands in one of the middle chunks
    keys.sort_unstable();
    assert!(keys[1_000] < TRIPPED && TRIPPED < keys[15_000]);
    let armed: Vec<Tripwire> = keys.iter().map(|&k| Tripwire(k)).collect();

    let dir = scratch("pool-panic");
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        ShardedStore::open_seeded(&dir, config, &armed).map(drop)
    }));
    let panic = outcome.expect_err("the build task's panic must reach the caller");
    let text = panic.downcast_ref::<String>().expect("an assert message");
    assert!(text.contains("tripwire"), "{text}");
    assert!(manifest::list_manifests(&dir).unwrap().is_empty());

    let store = ShardedStore::open_seeded(&dir, config, &keys).unwrap();
    assert_eq!(store.shard_count(), 16);
    assert!(store.open_breakdown().unwrap().seed_write > Duration::ZERO);
    assert_eq!(store.scan(0, u64::MAX), keys);
}

/// The thread fan-out is bounded: a 512-shard build and a 512-shard
/// seeding (1024 tasks) run on the pool's few workers, and every result
/// lands in its router slot — shard `i`, fence `i` and snapshot file `i`
/// all hold chunk `i` of the oracle's partition.
#[test]
fn a_512_shard_build_and_seeding_agree_with_the_oracle_in_router_order() {
    let mut rng = SplitMix64::new(0x512);
    let mut keys: Vec<u64> = (0..40_000).map(|_| rng.next_below(1 << 36)).collect();
    keys.sort_unstable();
    let (router, bounds) = shift_store::ShardRouter::partition(&keys, 512);
    assert_eq!(router.shard_count(), 512);
    let config = durable_config().shards(512);
    let dir = scratch("pool-512");
    let built = ShardedStore::build(config, &keys).unwrap();
    let seeded = ShardedStore::open_seeded(&dir, config, &keys).unwrap();
    for (tag, store) in [("built", &built), ("seeded", &seeded)] {
        assert_eq!(store.fences(), router.fences(), "{tag}");
        let shards = store.shards();
        assert_eq!(shards.len(), 512, "{tag}");
        for (i, shard) in shards.iter().enumerate() {
            let chunk = &keys[bounds[i]..bounds[i + 1]];
            assert!(shard.state().merged_keys() == chunk, "{tag}: shard {i}");
        }
        let mut probes = vec![0u64, u64::MAX];
        probes.extend((0..2_000).map(|_| rng.next_below(1 << 36)));
        for q in probes {
            assert_eq!(
                store.lower_bound(q),
                keys.partition_point(|&k| k < q),
                "{tag}: q={q}"
            );
        }
    }
    drop(seeded);
    let newest = &manifest::list_manifests(&dir).unwrap()[0].1;
    let manifest = manifest::load_manifest(newest).unwrap();
    assert_eq!(manifest.shards.len(), 512);
    for (i, entry) in manifest.shards.iter().enumerate() {
        assert_eq!(entry.snapshot, snapshot_name(1, i));
        let (_, chunk): (u64, Vec<u64>) =
            shift_store::persist::v2::read_snapshot_v2(&dir.join(&entry.snapshot)).unwrap();
        assert!(chunk == keys[bounds[i]..bounds[i + 1]], "file {i}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A key that occupies no memory, so a column longer than a range layer
/// covers can exist in a test (as in `shift-table`'s own).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
struct Unit;

impl std::fmt::Display for Unit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("unit")
    }
}

impl Key for Unit {
    const BITS: u32 = 0;
    const MIN_KEY: Self = Unit;
    const MAX_KEY: Self = Unit;
    fn to_u64(self) -> u64 {
        0
    }
    fn from_u64_saturating(_: u64) -> Self {
        Unit
    }
}

/// End to end through `open_seeded`: a chunk longer than the range layer
/// can cover is refused by the chunk plan with the typed error, before the
/// directory holds a WAL segment or a snapshot file.
#[test]
fn a_seed_column_past_max_keys_is_a_typed_error_that_writes_nothing() {
    const LEN: usize = shift_table::table::ShiftTable::MAX_KEYS + 1;
    let column = [Unit; LEN];
    let dir = scratch("seed-too-many");
    let err = ShardedStore::open_seeded(&dir, durable_config().shards(1), &column[..])
        .err()
        .expect("2^29 keys do not fit one range layer");
    match err {
        StoreError::Build(shift_table::error::BuildError::TooManyKeys { len, max }) => {
            assert_eq!((len, max), (LEN, LEN - 1));
        }
        other => panic!("wrong error: {other}"),
    }
    assert_eq!(files_named(&dir, ""), Vec::<String>::new());
}

/// Corruption anywhere in a v2 snapshot — a bent block, a truncated index
/// or footer — surfaces as a typed `Corrupt` error naming the damaged
/// file, on both eager and cold opens.
#[test]
fn v2_corruption_and_truncation_are_typed_and_name_the_file() {
    let dir = scratch("v2-damage");
    let mut base: Vec<u64> = (0..4_000u64).map(|i| i * 7).collect();
    base.dedup();
    let config = StoreConfig::new(spec()).shards(2).durability(
        DurabilityConfig::new()
            .checkpoint_ops(0)
            .snapshot_block_keys(64), // many blocks per shard
    );
    let store = ShardedStore::open_seeded(&dir, config, &base).unwrap();
    drop(store);

    let snap = dir.join(snapshot_name(1, 0));
    let pristine = std::fs::read(&snap).unwrap();
    assert!(pristine.len() > 200, "need room for mid-file damage");

    let expect_corrupt = |tag: &str, dir: &Path, damaged: &Path| {
        for cold in [false, true] {
            let cfg = config.cold_start(cold);
            match ShardedStore::<u64>::open(dir, cfg) {
                Err(StoreError::Corrupt { path, .. }) => {
                    assert_eq!(&path, damaged, "{tag} (cold={cold}): wrong file blamed")
                }
                Err(e) => panic!("{tag} (cold={cold}): wrong error {e}"),
                Ok(_) => panic!("{tag} (cold={cold}): damage not detected"),
            }
        }
    };

    let work = scratch("v2-damage-work");
    let damaged_snap = work.join(snapshot_name(1, 0));

    // A single flipped byte in the middle of a key block.
    clone_dir(&dir, &work);
    let mut bent = pristine.clone();
    bent[pristine.len() / 2] ^= 0x01;
    std::fs::write(&damaged_snap, &bent).unwrap();
    expect_corrupt("mid-block flip", &work, &damaged_snap);

    // The mount sweep checksums blocks three at a time: a flipped key byte
    // in a block of each interleave slot (blocks 0, 1, 2 and, further in,
    // 16) and in the short last block, which has no third neighbour, must
    // each be caught.
    let block_len = 8 + 64 * 8;
    let footer = &pristine[pristine.len() - 52..];
    let blocks = u32::from_le_bytes(footer[20..24].try_into().unwrap()) as usize;
    assert_eq!(blocks % 3, 2, "the last group is an incomplete one");
    for block in [0, 1, 2, 16, blocks - 1] {
        clone_dir(&dir, &work);
        let mut bent = pristine.clone();
        bent[8 + block * block_len + 8 + 40] ^= 0x80;
        std::fs::write(&damaged_snap, &bent).unwrap();
        expect_corrupt(&format!("flip in block {block}"), &work, &damaged_snap);
    }

    // Truncations: mid-block, mid-index, mid-footer, one byte short.
    for cut in [
        20usize,
        pristine.len() / 2,
        pristine.len() - 60, // inside the block index
        pristine.len() - 30, // inside the footer
        pristine.len() - 1,
    ] {
        clone_dir(&dir, &work);
        std::fs::write(&damaged_snap, &pristine[..cut]).unwrap();
        expect_corrupt(&format!("truncated at {cut}"), &work, &damaged_snap);
    }

    // The undamaged image still opens (the harness itself is sound).
    clone_dir(&dir, &work);
    let store = ShardedStore::<u64>::open(&work, config).unwrap();
    assert_eq!(store.len(), base.len());
}

/// There is one snapshot format. A manifest entry whose file is a valid
/// *v1* snapshot (the monolithic format PR 4 wrote, no longer read), or an
/// empty file, fails the open with a typed `Corrupt` naming that file —
/// eagerly and cold, without a panic — and the failed open leaves the
/// directory exactly as it found it.
#[test]
fn a_manifest_entry_that_is_not_a_v2_snapshot_fails_the_open_with_corrupt() {
    let dir = scratch("not-v2");
    let base: Vec<u64> = (0..800u64).map(|i| i * 2).collect();
    let config = StoreConfig::new(spec())
        .shards(2)
        .durability(DurabilityConfig::new().checkpoint_ops(0));
    drop(ShardedStore::open_seeded(&dir, config, &base).unwrap());

    // Shard 0's keys as a v1 file: magic (the v2 magic with a `1`), CRC32
    // and length of the body, then applied │ key_bits │ count │ keys.
    let mut v1 = shift_store::persist::v2::MAGIC.to_vec();
    v1[7] = b'1';
    let mut body = Vec::new();
    body.extend_from_slice(&0u64.to_le_bytes());
    body.extend_from_slice(&64u32.to_le_bytes());
    body.extend_from_slice(&400u64.to_le_bytes());
    for k in &base[..400] {
        body.extend_from_slice(&k.to_le_bytes());
    }
    v1.extend_from_slice(&shift_store::persist::crc32(&body).to_le_bytes());
    v1.extend_from_slice(&(body.len() as u64).to_le_bytes());
    v1.extend_from_slice(&body);

    let contents = |dir: &Path| {
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap())
            .map(|e| {
                let name = e.file_name().into_string().unwrap();
                (name, std::fs::read(e.path()).unwrap())
            })
            .collect();
        files.sort();
        files
    };
    let victim = dir.join(snapshot_name(1, 0));
    for (tag, image) in [("v1 file", v1.as_slice()), ("empty file", &[])] {
        std::fs::write(&victim, image).unwrap();
        let before = contents(&dir);
        for cold in [false, true] {
            match ShardedStore::<u64>::open(&dir, config.cold_start(cold)) {
                Err(StoreError::Corrupt { path, .. }) => assert_eq!(path, victim, "{tag}"),
                Err(e) => panic!("{tag} (cold={cold}): wrong error {e}"),
                Ok(_) => panic!("{tag} (cold={cold}): opened"),
            }
            assert_eq!(
                contents(&dir),
                before,
                "{tag} (cold={cold}): directory moved"
            );
        }
    }
}

/// Online WAL repair: a poisoned store refuses writes, `repair_wal`
/// restores writability without a reopen, poisoned-era rejections stay
/// rejected, and recovery agrees with everything that was acknowledged.
#[test]
fn repair_wal_heals_a_poisoned_store_online() {
    // In-memory stores have no WAL to repair.
    let mem = ShardedStore::build(StoreConfig::new(spec()), [1u64, 2, 3]).unwrap();
    assert!(matches!(mem.repair_wal(), Err(StoreError::NotDurable)));
    assert!(!mem.poison_wal_for_tests());

    let dir = scratch("wal-repair");
    let base: Vec<u64> = (0..1_000u64).map(|i| i * 3).collect();
    let config = StoreConfig::new(spec()).shards(2).durability(
        DurabilityConfig::new()
            .sync(SyncPolicy::EveryN(4))
            .checkpoint_ops(0),
    );
    let store = ShardedStore::open_seeded(&dir, config, &base).unwrap();
    store.insert(10).unwrap();
    let segments_before = wal::list_segments(&dir).unwrap().len();

    // A healthy WAL: repair is a no-op.
    assert!(!store.repair_wal().unwrap());

    // Poison. Every write is rejected; reads keep working.
    assert!(store.poison_wal_for_tests());
    let len_poisoned = store.len();
    assert!(matches!(store.insert(11), Err(StoreError::WalPoisoned)));
    assert!(matches!(store.delete(10), Err(StoreError::WalPoisoned)));
    assert_eq!(store.len(), len_poisoned, "rejected writes must not apply");
    assert_eq!(store.count_of(10), 1);

    // Repair: writability returns on a fresh segment, no reopen.
    assert!(store.repair_wal().unwrap());
    assert!(!store.repair_wal().unwrap(), "second repair is a no-op");
    assert!(
        wal::list_segments(&dir).unwrap().len() > segments_before,
        "repair must rotate to a fresh segment"
    );
    store.insert(14).unwrap();
    assert!(store.delete(10).unwrap());
    store.sync_wal().unwrap();

    // Recovery sees exactly the acknowledged writes: the pre-poison insert
    // and the post-repair ones; the poisoned-era rejects never reappear.
    let image = scratch("wal-repair-image");
    clone_dir(&dir, &image);
    let recovered = ShardedStore::<u64>::open(&image, config).unwrap();
    assert_eq!(recovered.count_of(10), 0);
    assert_eq!(recovered.count_of(11), 0, "rejected write resurrected");
    assert_eq!(recovered.count_of(14), 1);
    assert_eq!(recovered.len(), store.len());

    // A checkpoint after repair is the full heal; the store keeps working.
    store.checkpoint().unwrap();
    store.insert(13).unwrap();
    store.sync_wal().unwrap();
    let image2 = scratch("wal-repair-image2");
    clone_dir(&dir, &image2);
    let recovered = ShardedStore::<u64>::open(&image2, config).unwrap();
    assert_eq!(recovered.count_of(13), 1);
    assert_eq!(recovered.len(), store.len());
}
