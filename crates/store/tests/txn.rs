//! MVCC + optimistic-transaction acceptance tests: first-committer-wins
//! proven against a serializable oracle under real thread contention,
//! retention-ring eviction edges, the `scan_between` ≡ brute-force-diff
//! property over every retained version pair, and WAL crash points at
//! every transaction frame boundary (commits are all-or-nothing; a
//! conflicted commit leaves no frame).

use algo_index::RangeIndex;
use shift_obs::{MetricValue, MetricsReport};
use shift_store::persist::wal;
use shift_store::{DurabilityConfig, ShardedStore, StoreConfig, StoreError, TraceKind, WriteBatch};
use shift_table::spec::IndexSpec;
use sosd_data::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

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

/// Copy every file of `src` into a wiped `dst` (a crash-time disk image).
fn clone_dir(src: &Path, dst: &Path) {
    let _ = std::fs::remove_dir_all(dst);
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

/// Stress knobs: the CI `txn-stress` job cranks these via `STRESS_*` env.
fn env_n(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The counter value of metric family `name`.
fn counter(report: &MetricsReport, name: &str) -> u64 {
    let m = report
        .metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("family {name} missing from report"));
    match &m.value {
        MetricValue::Counter(v) => *v,
        other => panic!("{name} is not a counter: {other:?}"),
    }
}

/// The reference multiset (same semantics as the store: a key holds an
/// occurrence count; delete removes one occurrence when present).
#[derive(Clone)]
struct Multiset {
    keys: Vec<u64>, // sorted, with repeats
}

impl Multiset {
    fn new(keys: Vec<u64>) -> Self {
        debug_assert!(keys.is_sorted());
        Self { keys }
    }

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

    fn count_of(&self, k: u64) -> usize {
        self.keys.partition_point(|&x| x <= k) - self.keys.partition_point(|&x| x < k)
    }
}

/// Brute-force net diff of two full scans: per-key `count(b) − count(a)`,
/// zero entries dropped, ascending by key.
fn brute_diff(a: &[u64], b: &[u64]) -> Vec<(u64, i64)> {
    let mut net: BTreeMap<u64, i64> = BTreeMap::new();
    for &k in a {
        *net.entry(k).or_insert(0) -= 1;
    }
    for &k in b {
        *net.entry(k).or_insert(0) += 1;
    }
    net.into_iter().filter(|&(_, d)| d != 0).collect()
}

/// Read-your-writes inside the transaction, atomic visibility outside:
/// nothing the transaction buffers is visible until `commit`, and the
/// receipt stamps one commit version across the whole write set.
#[test]
fn txn_reads_its_own_writes_and_commits_atomically() {
    let keys: Vec<u64> = (0..1_000).map(|k| k * 10).collect();
    let store = ShardedStore::build(StoreConfig::new(spec()).shards(4), &keys).unwrap();

    let mut txn = store.begin();
    assert_eq!(txn.get(500), 1);
    assert_eq!(txn.get(505), 0);
    txn.insert(505).insert(505).delete(500);
    // The transaction sees its own buffered writes layered on the snapshot…
    assert_eq!(txn.get(505), 2);
    assert_eq!(txn.get(500), 0);
    assert_eq!(txn.scan(495, 515), vec![505, 505, 510]);
    // …but the store does not, until commit.
    assert_eq!(store.count_of(505), 0);
    assert_eq!(store.count_of(500), 1);
    let (points, ranges) = txn.read_set_len();
    assert_eq!((points, ranges), (2, 1), "dedup'd point + range footprint");

    let receipt = txn.commit().unwrap();
    assert_eq!(receipt.inserted, 2);
    assert_eq!(receipt.deleted, 1);
    assert!(receipt.commit_version > 0);
    assert_eq!(store.count_of(505), 2);
    assert_eq!(store.count_of(500), 0);
    assert_eq!(store.len(), keys.len() + 1);

    // A read-only transaction commits as a no-op: no version is assigned.
    let before = store.commit_version();
    let mut ro = store.begin();
    assert_eq!(ro.get(505), 2);
    let receipt = ro.commit().unwrap();
    assert_eq!(
        receipt.commit_version, 0,
        "read-only commit assigns nothing"
    );
    assert_eq!(store.commit_version(), before);
}

/// The conflict matrix, single-threaded and deterministic: a point read
/// whose count moved conflicts, a scanned range whose *content* changed
/// conflicts (even count-preserving swaps), disjoint and blind writes do
/// not, and between two racing transactions the first committer wins.
#[test]
fn first_committer_wins_across_the_conflict_matrix() {
    let keys: Vec<u64> = (0..2_000).collect();
    let store = ShardedStore::build(StoreConfig::new(spec()).shards(4), &keys).unwrap();

    // Point conflict: the observed count of key 100 moves under the txn.
    let mut txn = store.begin();
    assert_eq!(txn.get(100), 1);
    txn.insert(3_000);
    store.insert(100).unwrap();
    match txn.commit() {
        Err(StoreError::TxnConflict { point, range }) => {
            assert_eq!(point, Some(100));
            assert_eq!(range, None);
        }
        other => panic!("expected point conflict, got {other:?}"),
    }
    assert_eq!(store.count_of(3_000), 0, "conflicted txn applied nothing");

    // Range conflict from a count-preserving swap: delete 150, insert 155
    // in one batch. [140, 160] holds the same number of keys but different
    // content — the fingerprint catches it.
    let mut txn = store.begin();
    let seen = txn.scan(140, 160);
    assert_eq!(seen.len(), 21);
    txn.insert(3_001);
    let mut swap = WriteBatch::new();
    swap.delete(150);
    swap.insert(155);
    store.apply(&swap).unwrap();
    match txn.commit() {
        Err(StoreError::TxnConflict { point, range }) => {
            assert_eq!(point, None);
            assert_eq!(range, Some((140, 160)));
        }
        other => panic!("expected range conflict, got {other:?}"),
    }

    // Disjoint footprints don't conflict: the txn read key 200 only.
    let mut txn = store.begin();
    assert_eq!(txn.get(200), 1);
    txn.insert(3_002);
    store.insert(900).unwrap();
    txn.commit().unwrap();
    assert_eq!(store.count_of(3_002), 1);

    // Blind writes never conflict: no reads were recorded.
    let mut txn = store.begin();
    txn.insert(3_003).delete(3_003);
    store.insert(901).unwrap();
    store.delete(901).unwrap();
    txn.commit().unwrap();

    // Txn vs txn: both read key 400; the first committer wins, the loser
    // gets the point conflict.
    let mut first = store.begin();
    let mut second = store.begin();
    assert_eq!(first.get(400), 1);
    assert_eq!(second.get(400), 1);
    first.insert(400);
    second.insert(400);
    first.commit().unwrap();
    match second.commit() {
        Err(StoreError::TxnConflict { point, .. }) => assert_eq!(point, Some(400)),
        other => panic!("expected first-committer-wins, got {other:?}"),
    }
    assert_eq!(store.count_of(400), 2, "exactly one increment landed");

    // Conflicts were counted and traced with the conflicting key image.
    let report = store.metrics();
    assert_eq!(counter(&report, "store_txn_conflicts_total"), 3);
    let conflicts: Vec<u64> = store
        .trace_events()
        .into_iter()
        .filter(|e| e.kind == TraceKind::TxnConflict)
        .map(|e| e.payload)
        .collect();
    assert_eq!(
        conflicts,
        vec![100, u64::MAX, 400],
        "point conflicts carry the key image, range conflicts u64::MAX"
    );
}

/// `commit_with_retries` re-runs the body on a fresh snapshot after each
/// conflict; an injected concurrent write defeats exactly the first
/// attempt.
#[test]
fn commit_with_retries_recovers_from_an_induced_conflict() {
    let keys: Vec<u64> = (0..500).collect();
    let store = ShardedStore::build(StoreConfig::new(spec()).shards(2), &keys).unwrap();

    let mut attempts = 0u32;
    let ((), receipt) = store
        .commit_with_retries(8, |txn| {
            attempts += 1;
            let c = txn.get(42);
            txn.insert(42);
            if attempts == 1 {
                // Sabotage the first attempt from "outside".
                store.insert(42).unwrap();
            } else {
                assert_eq!(c, 2, "the retry re-read a fresh snapshot");
            }
            Ok(())
        })
        .unwrap();
    assert_eq!(attempts, 2);
    assert_eq!(receipt.inserted, 1);
    assert_eq!(
        store.count_of(42),
        3,
        "one sabotage insert + one txn insert"
    );

    // Attempts exhausted: the last conflict surfaces as the error.
    let err = store
        .commit_with_retries(3, |txn| {
            txn.get(42);
            txn.insert(42);
            store.insert(42).unwrap(); // always sabotaged
            Ok(())
        })
        .unwrap_err();
    assert!(matches!(err, StoreError::TxnConflict { .. }));

    // Non-conflict body errors abort immediately, without retrying.
    let mut calls = 0;
    let err = store
        .commit_with_retries(5, |_| {
            calls += 1;
            Err::<(), _>(StoreError::NotDurable)
        })
        .unwrap_err();
    assert!(matches!(err, StoreError::NotDurable));
    assert_eq!(calls, 1);
}

/// The concurrent conflict matrix against a serializable oracle: writer
/// threads move occurrences between a few hot keys through
/// `commit_with_retries` while readers pin snapshots. Replaying every
/// committed write set in commit-version order through the sequential
/// oracle must land exactly on the final store state — the definition of
/// first-committer-wins serializability for the recorded footprints.
#[test]
fn concurrent_transfers_serialize_against_the_oracle() {
    const HOT: [u64; 4] = [10, 20, 30, 40];
    let writers = env_n("STRESS_TXN_THREADS", 6);
    let txns_per_writer = env_n("STRESS_TXN_OPS", 120);

    // Each hot key starts with `writers` occurrences so early transfers
    // rarely hit an empty source; the rest of the keyspace is ballast.
    let mut base: Vec<u64> = (1_000..4_000).collect();
    for h in HOT {
        for _ in 0..writers {
            base.push(h);
        }
    }
    base.sort_unstable();
    let config = StoreConfig::new(spec()).shards(4).retain_versions(8);
    let store = ShardedStore::build(config, &base).unwrap();

    // (commit_version, src, dst) per successful transfer, across threads.
    let committed: Mutex<Vec<(u64, u64, u64)>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for w in 0..writers {
            let store = &store;
            let committed = &committed;
            scope.spawn(move || {
                let mut rng = SplitMix64::new(0x7A11 + w as u64);
                for _ in 0..txns_per_writer {
                    let src = HOT[rng.next_below(HOT.len() as u64) as usize];
                    let dst = HOT[rng.next_below(HOT.len() as u64) as usize];
                    let moved = store
                        .commit_with_retries(10_000, |txn| {
                            if txn.get(src) == 0 || src == dst {
                                return Ok(false); // read-only no-op commit
                            }
                            txn.delete(src).insert(dst);
                            Ok(true)
                        })
                        .unwrap();
                    if moved.0 {
                        assert!(moved.1.commit_version > 0);
                        committed
                            .lock()
                            .unwrap()
                            .push((moved.1.commit_version, src, dst));
                    }
                }
            });
        }
        // Readers race the writers: every pinned cut must be internally
        // consistent — sorted, and conserving the hot-key occupancy total.
        for r in 0..2 {
            let store = &store;
            scope.spawn(move || {
                let mut rng = SplitMix64::new(0x5EED + r as u64);
                for _ in 0..200 {
                    let snap = match store.retained_versions().last() {
                        Some(&cv) if rng.next_below(2) == 0 => match store.snapshot_at(cv) {
                            Ok(s) => s,
                            Err(StoreError::VersionNotRetained { .. }) => continue,
                            Err(e) => panic!("snapshot_at: {e}"),
                        },
                        _ => store.snapshot(),
                    };
                    let hot_total: usize = HOT.iter().map(|&h| snap.count_of(h)).sum();
                    assert_eq!(
                        hot_total,
                        HOT.len() * writers,
                        "transfers conserve occurrences at cv {}",
                        snap.version()
                    );
                    let keys = snap.scan(0, 100);
                    assert!(keys.is_sorted(), "cut {} unsorted", snap.version());
                }
            });
        }
    });

    // Serial replay in commit-version order reproduces the store exactly.
    let mut log = committed.into_inner().unwrap();
    log.sort_unstable_by_key(|&(cv, _, _)| cv);
    let cvs: Vec<u64> = log.iter().map(|&(cv, _, _)| cv).collect();
    let mut dedup = cvs.clone();
    dedup.dedup();
    assert_eq!(cvs, dedup, "commit versions are unique and totally ordered");
    let mut oracle = Multiset::new(base);
    for &(cv, src, dst) in &log {
        assert!(
            oracle.delete(src),
            "cv {cv}: validated source {src} must still hold an occurrence"
        );
        oracle.insert(dst);
    }
    assert_eq!(store.len(), oracle.keys.len());
    for h in HOT {
        assert_eq!(store.count_of(h), oracle.count_of(h), "hot key {h}");
    }
    assert_eq!(store.snapshot().scan(0, u64::MAX), oracle.keys);

    // Guarantee at least one recorded conflict even if a pathological
    // scheduler serialized every writer: defeat one last transaction
    // deterministically (after the state comparisons above).
    let mut doomed = store.begin();
    doomed.get(HOT[0]);
    doomed.insert(9_999_999);
    store.insert(HOT[0]).unwrap();
    assert!(matches!(
        doomed.commit(),
        Err(StoreError::TxnConflict { .. })
    ));

    // Accounting: every begin ended as a commit or a conflict, and the
    // contention was real.
    let report = store.metrics();
    let begins = counter(&report, "store_txn_begins_total");
    let commits = counter(&report, "store_txn_commits_total");
    let conflicts = counter(&report, "store_txn_conflicts_total");
    assert_eq!(begins, commits + conflicts);
    assert_eq!(commits, (writers * txns_per_writer) as u64);
    assert!(conflicts > 0, "hot-key transfers must actually contend");
}

/// Retention edges: the ring keeps exactly the configured count, evicted
/// versions answer `VersionNotRetained`, retained versions serve frozen
/// historical reads, and evictions are counted and traced.
#[test]
fn retention_ring_serves_history_and_evicts_by_count() {
    let base: Vec<u64> = (0..100).collect();
    let config = StoreConfig::new(spec()).shards(2).retain_versions(4);
    let store = ShardedStore::build(config, &base).unwrap();
    assert!(store.retained_versions().is_empty(), "nothing written yet");

    for i in 0..10u64 {
        store.insert(1_000 + i).unwrap();
    }
    assert_eq!(store.retained_versions(), vec![7, 8, 9, 10]);

    // A retained cut is frozen: cv 7 has keys 1000..=1006 and never sees
    // the writes that came after it.
    let snap = store.snapshot_at(7).unwrap();
    assert_eq!(snap.version(), 7);
    assert_eq!(snap.len(), 107);
    assert_eq!(snap.scan(1_000, 2_000), (1_000..=1_006).collect::<Vec<_>>());
    assert_eq!(snap.count_of(1_009), 0);
    store.insert(5_000).unwrap(); // the pinned cut still doesn't move
    assert_eq!(snap.len(), 107);
    assert_eq!(store.len(), 111);

    // Evicted and never-assigned versions are typed errors.
    for cv in [1, 6, 999] {
        match store.snapshot_at(cv) {
            Err(StoreError::VersionNotRetained { cv: got }) => assert_eq!(got, cv),
            Err(other) => panic!("cv {cv}: expected VersionNotRetained, got {other:?}"),
            Ok(_) => panic!("cv {cv}: expected VersionNotRetained, got a snapshot"),
        }
    }
    // The live current version is always servable, ring or not.
    let live = store.snapshot_at(store.commit_version()).unwrap();
    assert_eq!(live.len(), store.len());

    let stats = store.version_stats();
    assert_eq!(stats.retained, 4);
    assert_eq!(stats.oldest_cv, Some(8));
    assert_eq!(stats.newest_cv, Some(11));
    assert!(
        stats.approx_bytes > 0,
        "retained cuts pin superseded shard state"
    );

    // 11 captures through a 4-deep ring = 7 evictions, each traced with
    // the evicted version and the post-eviction occupancy.
    let report = store.metrics();
    assert_eq!(counter(&report, "store_version_evictions_total"), 7);
    let evicted: Vec<(u64, u64)> = store
        .trace_events()
        .into_iter()
        .filter(|e| e.kind == TraceKind::VersionEvicted)
        .map(|e| (e.commit_version, e.payload))
        .collect();
    assert_eq!(
        evicted,
        (1..=7).map(|cv| (cv, 4)).collect::<Vec<_>>(),
        "oldest-first evictions, ring stays at capacity"
    );
}

/// The CDC property: for *every* ordered pair of retained versions,
/// `scan_between` equals the brute-force multiset diff of the two full
/// snapshot scans — across single writes, batches, transactions, and
/// maintenance that rebuilds and republishes shard state mid-trace.
#[test]
fn scan_between_matches_brute_force_diff_for_all_retained_pairs() {
    let mut rng = SplitMix64::new(0xD1FF_0007);
    let mut base: Vec<u64> = (0..3_000).map(|_| rng.next_below(50_000)).collect();
    base.sort_unstable();
    let config = StoreConfig::new(spec())
        .shards(4)
        .delta_threshold(48)
        .retain_versions(12);
    let store = ShardedStore::build(config, &base).unwrap();

    // The trace mixes every write path; `state_at[cv]` records the full
    // oracle multiset right after each commit version.
    let mut oracle = Multiset::new(base);
    let mut state_at: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for step in 0..80 {
        match rng.next_below(4) {
            0 => {
                let k = rng.next_below(55_000);
                store.insert(k).unwrap();
                oracle.insert(k);
            }
            1 => {
                let k = if !oracle.keys.is_empty() && rng.next_below(3) != 0 {
                    oracle.keys[rng.next_below(oracle.keys.len() as u64) as usize]
                } else {
                    rng.next_below(55_000)
                };
                assert_eq!(store.delete(k).unwrap(), oracle.delete(k));
            }
            2 => {
                let mut batch = WriteBatch::new();
                for _ in 0..(2 + rng.next_below(4)) {
                    if rng.next_below(3) == 0 && !oracle.keys.is_empty() {
                        let k = oracle.keys[rng.next_below(oracle.keys.len() as u64) as usize];
                        batch.delete(k);
                        oracle.delete(k);
                    } else {
                        let k = rng.next_below(55_000);
                        batch.insert(k);
                        oracle.insert(k);
                    }
                }
                store.apply(&batch).unwrap();
            }
            _ => {
                let mut txn = store.begin();
                let probe = rng.next_below(55_000);
                let _ = txn.get(probe);
                for _ in 0..(1 + rng.next_below(3)) {
                    let k = rng.next_below(55_000);
                    txn.insert(k);
                    oracle.insert(k);
                }
                txn.commit().unwrap();
            }
        }
        state_at.insert(store.commit_version(), oracle.keys.clone());
        if step % 27 == 26 {
            // Rebuilds and rebalances republish shard state (and even the
            // table) without moving the clock — retained cuts must keep
            // serving the old structures and diffs must cross epochs.
            store.flush().unwrap();
            store.rebalance().unwrap();
        }
    }
    assert!(store.total_rebuilds() > 0, "the trace must rebuild shards");

    // Every retained version serves exactly the recorded oracle state.
    let mut versions = store.retained_versions();
    assert!(versions.len() >= 8);
    for &v in &versions {
        let snap = store.snapshot_at(v).unwrap();
        assert_eq!(
            snap.scan(0, u64::MAX),
            state_at[&v],
            "cv {v} must serve its frozen state"
        );
    }

    // All ordered pairs, both directions, plus the identical-pair edge.
    versions.push(store.commit_version());
    versions.dedup();
    for &a in &versions {
        for &b in &versions {
            let diff = store.scan_between(a, b).unwrap();
            let expect = brute_diff(&state_at[&a], &state_at[&b]);
            assert_eq!(diff, expect, "scan_between({a}, {b})");
            if a == b {
                assert!(diff.is_empty());
            }
        }
    }

    // Unretained endpoints are typed errors, on either side.
    let evicted = 1u64; // cv 1 is long gone through the 12-deep ring
    assert!(matches!(
        store.scan_between(evicted, versions[0]),
        Err(StoreError::VersionNotRetained { cv: 1 })
    ));
    assert!(matches!(
        store.scan_between(versions[0], evicted),
        Err(StoreError::VersionNotRetained { cv: 1 })
    ));
}

/// Durable transactions at every crash point: each commit is one multi-op
/// WAL record, a conflicted commit appends nothing, and truncating the log
/// at every record boundary *and* inside every transaction frame recovers
/// a whole number of transactions — never a partial one.
#[test]
fn durable_txn_commits_are_atomic_at_every_crash_point() {
    let dir = scratch("txn-crash-points");
    let mut rng = SplitMix64::new(0x7C4A_0009);
    let mut base: Vec<u64> = (0..2_000).map(|_| rng.next_below(30_000)).collect();
    base.sort_unstable();

    let config = StoreConfig::new(spec())
        .shards(4)
        .delta_threshold(64)
        .durability(DurabilityConfig::new().checkpoint_ops(0));
    let store = ShardedStore::open_seeded(&dir, config, &base).unwrap();

    // A trace of entries: every third a single op, the rest transactions
    // of 2..=5 buffered ops committed through the optimistic path.
    // `prefixes[i]` is the oracle after the first `i` WAL entries.
    let mut oracle = Multiset::new(base);
    let mut prefixes: Vec<Multiset> = vec![oracle.clone()];
    for e in 0..48 {
        if e % 3 == 2 {
            let k = rng.next_below(35_000);
            store.insert(k).unwrap();
            oracle.insert(k);
        } else {
            let mut txn = store.begin();
            for _ in 0..(2 + rng.next_below(4)) {
                if rng.next_below(3) == 0 && !oracle.keys.is_empty() {
                    let k = oracle.keys[rng.next_below(oracle.keys.len() as u64) as usize];
                    if txn.get(k) > 0 {
                        txn.delete(k);
                        oracle.delete(k);
                    }
                } else {
                    let k = rng.next_below(35_000);
                    txn.insert(k);
                    oracle.insert(k);
                }
            }
            txn.commit().unwrap();
        }
        prefixes.push(oracle.clone());
    }

    // A conflicted durable commit must leave no trace in the log: same
    // record count before and after, and the sabotage write is entry 49.
    let records_before = store.durability_stats().unwrap().wal_records;
    let mut doomed = store.begin();
    assert!(doomed.get(77_777) <= 1);
    doomed.insert(88_888);
    store.insert(77_777).unwrap(); // entry 49, moves the observed count
    oracle.insert(77_777);
    prefixes.push(oracle.clone());
    assert!(matches!(
        doomed.commit(),
        Err(StoreError::TxnConflict { .. })
    ));
    let stats = store.durability_stats().unwrap();
    assert_eq!(
        stats.wal_records,
        records_before + 1,
        "the sabotage single logged; the conflicted txn appended nothing"
    );
    assert_eq!(store.count_of(88_888), 0);
    drop(store); // crash: no flush, no checkpoint beyond the seed

    const ENTRIES: usize = 49;
    let segments = wal::list_segments(&dir).unwrap();
    assert_eq!(segments.len(), 1, "seed checkpoint leaves one live segment");
    let wal_path = segments[0].1.clone();
    let scan = wal::read_segment(&wal_path).unwrap();
    assert_eq!(scan.records.len(), ENTRIES, "one WAL record per entry");
    assert!(
        scan.records.iter().any(|r| r.op_count() > 1),
        "transactions log as multi-op records"
    );
    assert!(!scan.torn_tail);
    let full = std::fs::read(&wal_path).unwrap();

    let crash_dir = scratch("txn-crash-image");
    let open_config = StoreConfig::new(spec()).durability(DurabilityConfig::new());
    #[allow(clippy::needless_range_loop)] // `entries` is a crash point, not just an index
    for entries in 0..=ENTRIES {
        let keep = if entries == 0 {
            0u64
        } else {
            scan.boundaries[entries - 1]
        };
        // Cut at the boundary and at points strictly inside the next
        // frame: a torn transaction must vanish whole.
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
                "entries {entries} cut {cut}: len (partial txn applied?)"
            );
            let mut prng = SplitMix64::new(entries as u64 * 37 + cut as u64);
            for _ in 0..20 {
                let q = prng.next_below(40_000);
                assert_eq!(
                    recovered.count_of(q),
                    oracle.count_of(q),
                    "entries {entries} cut {cut}: count {q}"
                );
                assert_eq!(
                    recovered.lower_bound(q),
                    oracle.keys.partition_point(|&x| x < q),
                    "entries {entries} cut {cut}: q={q}"
                );
            }
            assert_eq!(
                recovered.count_of(88_888),
                0,
                "the conflicted txn must never resurface from the log"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&crash_dir);
}
