//! Concurrent acceptance properties of the lock-free read path.
//!
//! 1. **Concurrent oracle (bounded-snapshot check).** Reader threads race
//!    writer threads and the background maintenance worker. Every writer
//!    publishes two atomic progress counters around each write (`started`
//!    before, `finished` after); because the per-thread write streams are
//!    deterministic, a reader can translate any `(finished, started)`
//!    counter sample into exact lower/upper bounds on what a correct store
//!    may answer. Every read must land **between the two oracle epochs**
//!    delimited by the counters sampled immediately before and after it,
//!    and repeated reads of the same probe must be monotonic while writes
//!    only move in one direction. The check runs across ≥3 `IndexSpec`s and
//!    shard counts {1, 4}, through an insert phase and a delete phase, and
//!    finishes with an exact comparison after the threads join.
//! 2. **Deterministic rebalance.** A skewed write pattern forces a shard
//!    split; the test verifies the split actually happened, that every
//!    fence remains duplicate-run-aligned (no run of equal keys spans two
//!    shards), and that reads stay exact across the new topology.
//!
//! 3. **One write path.** All four front doors race each other, a
//!    rebalancer and a snapshotting reader; every snapshot must equal the
//!    oracle at its commit version.
//!
//! Thread counts and per-thread op counts scale up for the CI release
//! stress job via `STRESS_READERS` / `STRESS_WRITERS` / `STRESS_OPS`.

use algo_index::RangeIndex;
use shift_store::delta::{COMPACT_RUNS, MAX_RUN_LEN};
use shift_store::{
    DurabilityConfig, ShardedStore, StoreConfig, StoreSnapshot, SyncPolicy, TraceKind, WriteBatch,
};
use shift_table::spec::IndexSpec;
use sosd_data::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

const KEY_DOMAIN: u64 = 50_000;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The probes the readers check, spanning misses, hits, shard boundaries
/// and both extremes.
fn probes() -> Vec<u64> {
    vec![
        0,
        1,
        5_000,
        12_345,
        25_000,
        40_500,
        41_000,
        49_999,
        KEY_DOMAIN,
        u64::MAX,
    ]
}

/// Per-writer deterministic key streams: writer 0 hammers a narrow hot
/// range (so the rebalancer sees skew), the rest draw uniformly.
fn writer_streams(writers: usize, ops: usize, seed: u64) -> Vec<Vec<u64>> {
    let mut root = SplitMix64::new(seed);
    (0..writers)
        .map(|w| {
            let mut rng = root.fork();
            (0..ops)
                .map(|_| {
                    if w == 0 {
                        40_000 + rng.next_below(2_000)
                    } else {
                        rng.next_below(KEY_DOMAIN)
                    }
                })
                .collect()
        })
        .collect()
}

/// `prefix[w][i][p]` = how many of the first `i` keys of writer `w`'s
/// stream are strictly below probe `p` — the translation from a progress
/// counter to an exact oracle bound.
fn prefix_counts(streams: &[Vec<u64>], probes: &[u64]) -> Vec<Vec<Vec<u32>>> {
    streams
        .iter()
        .map(|keys| {
            let mut rows = Vec::with_capacity(keys.len() + 1);
            let mut acc = vec![0u32; probes.len()];
            rows.push(acc.clone());
            for &k in keys {
                for (c, &p) in acc.iter_mut().zip(probes.iter()) {
                    if k < p {
                        *c += 1;
                    }
                }
                rows.push(acc.clone());
            }
            rows
        })
        .collect()
}

/// Sum one probe's bound over every writer at the given counter sample.
fn bound_at(prefix: &[Vec<Vec<u32>>], counts: &[usize], probe_idx: usize) -> i64 {
    prefix
        .iter()
        .zip(counts.iter())
        .map(|(rows, &i)| rows[i][probe_idx] as i64)
        .sum()
}

struct Progress {
    started: Vec<AtomicUsize>,
    finished: Vec<AtomicUsize>,
}

impl Progress {
    fn new(writers: usize) -> Self {
        Self {
            started: (0..writers).map(|_| AtomicUsize::new(0)).collect(),
            finished: (0..writers).map(|_| AtomicUsize::new(0)).collect(),
        }
    }

    fn sample(&self, of: &[AtomicUsize]) -> Vec<usize> {
        of.iter().map(|a| a.load(Ordering::SeqCst)).collect()
    }
}

/// One racing phase: writers apply `apply(w, i)` for each op of their
/// stream while readers continuously assert the bounded-snapshot property.
/// `direction` is +1 while counts can only grow (inserts), −1 while they
/// can only shrink (deletes).
#[allow(clippy::too_many_arguments)]
fn race_phase(
    store: &ShardedStore<u64>,
    base_lb: &[i64],
    probes: &[u64],
    prefix: &[Vec<Vec<u32>>],
    streams: &[Vec<u64>],
    readers: usize,
    direction: i64,
    tag: &str,
    apply: impl Fn(usize, u64) + Sync,
) {
    let progress = Progress::new(streams.len());
    let remaining = AtomicUsize::new(streams.len());
    std::thread::scope(|scope| {
        for (w, keys) in streams.iter().enumerate() {
            let progress = &progress;
            let remaining = &remaining;
            let apply = &apply;
            scope.spawn(move || {
                for (i, &k) in keys.iter().enumerate() {
                    progress.started[w].store(i + 1, Ordering::SeqCst);
                    apply(w, k);
                    progress.finished[w].store(i + 1, Ordering::SeqCst);
                }
                remaining.fetch_sub(1, Ordering::SeqCst);
            });
        }
        for _ in 0..readers {
            let progress = &progress;
            let remaining = &remaining;
            scope.spawn(move || {
                // An op counted in `finished` sampled *before* the read is
                // surely visible to it; an op visible to the read is surely
                // counted in `started` sampled *after* it. For inserts that
                // brackets the count from below/above; for deletes the signs
                // flip because each visible op removes a key.
                let bounds_of = |pre: &[usize], post: &[usize], pi: usize| -> (i64, i64) {
                    if direction > 0 {
                        (bound_at(prefix, pre, pi), bound_at(prefix, post, pi))
                    } else {
                        (-bound_at(prefix, post, pi), -bound_at(prefix, pre, pi))
                    }
                };
                let mut last: Vec<Option<i64>> = vec![None; probes.len()];
                let mut rounds = 0usize;
                loop {
                    let done = remaining.load(Ordering::SeqCst) == 0;
                    // Scalar reads, one bound sample pair per probe.
                    for (pi, &p) in probes.iter().enumerate() {
                        let pre = progress.sample(&progress.finished);
                        let x = store.lower_bound(p) as i64 - base_lb[pi];
                        let post = progress.sample(&progress.started);
                        let (lo, hi) = bounds_of(&pre, &post, pi);
                        assert!(
                            (lo..=hi).contains(&x),
                            "{tag}: probe {p} read {x} outside oracle bounds [{lo}, {hi}]"
                        );
                        if let Some(prev) = last[pi] {
                            let monotonic = if direction > 0 { x >= prev } else { x <= prev };
                            assert!(
                                monotonic,
                                "{tag}: probe {p} read {x} broke monotonicity (last {prev})"
                            );
                        }
                        last[pi] = Some(x);
                    }
                    // Batched reads: the whole batch must sit inside the
                    // bounds sampled around the one call.
                    if rounds.is_multiple_of(4) {
                        let pre = progress.sample(&progress.finished);
                        let batch = store.lower_bound_many(probes);
                        let post = progress.sample(&progress.started);
                        for (pi, (&p, &got)) in probes.iter().zip(batch.iter()).enumerate() {
                            let x = got as i64 - base_lb[pi];
                            let (lo, hi) = bounds_of(&pre, &post, pi);
                            assert!(
                                (lo..=hi).contains(&x),
                                "{tag}: batch probe {p} read {x} outside [{lo}, {hi}]"
                            );
                        }
                    }
                    rounds += 1;
                    if done {
                        break;
                    }
                }
                assert!(rounds > 0);
            });
        }
    });
}

#[test]
fn concurrent_reads_stay_between_oracle_epochs_for_every_spec() {
    let readers = env_usize("STRESS_READERS", 2);
    let writers = env_usize("STRESS_WRITERS", 2);
    let ops = env_usize("STRESS_OPS", 250);
    let specs = ["im+r1", "rmi:64+r1", "rs:32+s10"];
    let probes = probes();
    let mut seed = 0xD1CE_u64;
    for spec_text in specs {
        let spec = IndexSpec::parse(spec_text).unwrap();
        for shards in [1usize, 4] {
            seed += 1;
            // A duplicate-bearing sorted base in the same domain as the
            // writers, so writes collide with existing runs.
            let mut rng = SplitMix64::new(seed);
            let mut base: Vec<u64> = (0..2_000).map(|_| rng.next_below(KEY_DOMAIN)).collect();
            base.sort_unstable();
            let base_lb: Vec<i64> = probes
                .iter()
                .map(|&p| base.partition_point(|&x| x < p) as i64)
                .collect();
            let streams = writer_streams(writers, ops, seed);
            let prefix = prefix_counts(&streams, &probes);
            let config = StoreConfig::new(spec)
                .shards(shards)
                .delta_threshold(48)
                .auto_rebuild(false)
                .background_maintenance(true);
            let store = ShardedStore::build(config, &base).unwrap();
            let tag = format!("{spec_text} shards={shards}");

            // Phase 1: racing inserts (counts only grow).
            race_phase(
                &store,
                &base_lb,
                &probes,
                &prefix,
                &streams,
                readers,
                1,
                &format!("{tag} insert"),
                |_, k| store.insert(k).unwrap(),
            );
            // Between the phases the merged view is exactly base + inserts.
            let full: Vec<usize> = vec![ops; streams.len()];
            for (pi, &p) in probes.iter().enumerate() {
                let expect = base_lb[pi] + bound_at(&prefix, &full, pi);
                assert_eq!(store.lower_bound(p) as i64, expect, "{tag}: settle {p}");
            }

            // Phase 2: racing deletes of the very same per-writer streams
            // (every delete targets a key its writer inserted, so all
            // succeed and counts only shrink). Bounds are relative to the
            // post-insert state.
            let after_insert: Vec<i64> = probes
                .iter()
                .enumerate()
                .map(|(pi, _)| base_lb[pi] + bound_at(&prefix, &full, pi))
                .collect();
            race_phase(
                &store,
                &after_insert,
                &probes,
                &prefix,
                &streams,
                readers,
                -1,
                &format!("{tag} delete"),
                |_, k| {
                    assert!(store.delete(k).unwrap(), "{tag}: delete of own key");
                },
            );

            // Joined: the store must be exactly the base again.
            while store.flush().unwrap() > 0 {}
            assert_eq!(store.len(), base.len(), "{tag}: back to base");
            for (pi, &p) in probes.iter().enumerate() {
                assert_eq!(store.lower_bound(p) as i64, base_lb[pi], "{tag}: final {p}");
            }
            assert!(
                store.total_rebuilds() > 0,
                "{tag}: the background worker must have rebuilt mid-race"
            );
            assert!(store.take_maintenance_errors().is_empty(), "{tag}");
        }
    }
}

/// Assert every fence of the current topology is duplicate-run-aligned:
/// after a flush, shard columns are exact, and no run of equal keys may
/// span a boundary — the key at each fence must be strictly greater than
/// the last key of the shard before it.
fn assert_fences_aligned(store: &ShardedStore<u64>, tag: &str) {
    let table = store.table();
    let shards = table.shards();
    let fences = table.router().fences();
    assert_eq!(shards.len(), fences.len().max(1), "{tag}: table shape");
    for i in 1..shards.len() {
        let prev = shards[i - 1].snapshot();
        let cur = shards[i].snapshot();
        let fence = fences[i];
        let prev_last = *prev.keys().last().expect("non-empty shard");
        let cur_first = *cur.keys().first().expect("non-empty shard");
        assert!(
            prev_last < fence,
            "{tag}: duplicate run spans the fence at shard {i}: last {prev_last} >= fence {fence}"
        );
        assert!(
            cur_first >= fence,
            "{tag}: shard {i} holds a key below its fence ({cur_first} < {fence})"
        );
        // Routing agrees with physical placement at the boundary.
        assert_eq!(table.router().shard_of(prev_last), i - 1, "{tag}");
        assert_eq!(table.router().shard_of(cur_first), i, "{tag}");
    }
}

#[test]
fn forced_skew_splits_deterministically_with_aligned_fences() {
    let spec = IndexSpec::parse("im+r1").unwrap();
    // Sixteen shards of 500 keys: the one holding 7 000 grows past 4× the
    // mean (a shard can never exceed 4× the mean of four shards).
    let config = StoreConfig::new(spec)
        .shards(16)
        .delta_threshold(1_000_000)
        .auto_rebuild(false);
    let base: Vec<u64> = (0..8_000u64).collect();
    let store = ShardedStore::build(config, &base).unwrap();
    let mut oracle: Vec<u64> = base.clone();

    // Skew the shard of 7 000: a large duplicate run right at what will
    // become the split median, plus spread around it — the aligned fence
    // must not cut the run.
    for _ in 0..6_000 {
        store.insert(7_000).unwrap();
    }
    oracle.extend(std::iter::repeat_n(7_000, 6_000));
    let mut rng = SplitMix64::new(7);
    for _ in 0..6_000 {
        let k = 6_000 + rng.next_below(2_000);
        store.insert(k).unwrap();
        let pos = oracle.partition_point(|&x| x < k);
        oracle.insert(pos, k);
    }
    oracle.sort_unstable();

    let splits_before = store.total_splits();
    let actions = store.rebalance().unwrap();
    assert!(actions > 0, "rebalance must act on the forced skew");
    assert!(store.total_splits() > splits_before, "a split must happen");

    // Determinism: the same trace yields the same topology.
    let store2 = ShardedStore::build(config, &base).unwrap();
    for _ in 0..6_000 {
        store2.insert(7_000).unwrap();
    }
    let mut rng = SplitMix64::new(7);
    for _ in 0..6_000 {
        store2.insert(6_000 + rng.next_below(2_000)).unwrap();
    }
    store2.rebalance().unwrap();
    assert_eq!(
        store.fences(),
        store2.fences(),
        "rebalancing is deterministic"
    );
    assert_eq!(store.shard_count(), store2.shard_count());

    // Fold residual chains so shard columns are exact, then audit fences.
    while store.flush().unwrap() > 0 {}
    assert_fences_aligned(&store, "post-split");

    // Reads match the oracle across the new topology, including inside the
    // big duplicate run.
    assert_eq!(store.len(), oracle.len());
    for q in [0u64, 3_999, 6_000, 6_999, 7_000, 7_001, 7_999, u64::MAX] {
        assert_eq!(
            store.lower_bound(q),
            oracle.partition_point(|&x| x < q),
            "q={q}"
        );
    }
    let queries: Vec<u64> = (0..1_000).map(|i| i * 17 % 10_000).collect();
    let expected: Vec<usize> = queries
        .iter()
        .map(|&q| oracle.partition_point(|&x| x < q))
        .collect();
    assert_eq!(store.lower_bound_many(&queries), expected);

    // The giant run sits wholly inside one shard.
    let run_len = oracle.iter().filter(|&&k| k == 7_000).count();
    assert!(run_len >= 6_001, "the trace builds a giant run");
    let table = store.table();
    let owner = table.router().shard_of(7_000);
    let count_in_owner = table.shards()[owner]
        .snapshot()
        .keys()
        .iter()
        .filter(|&&k| k == 7_000)
        .count();
    assert_eq!(count_in_owner, run_len, "the duplicate run never splits");
}

/// The snapshot-consistency stress property: N readers each pin a
/// [`shift_store::StoreSnapshot`] and assert every probed read is **frozen**
/// — byte-identical across re-reads — while M writers (mixing single ops
/// and atomic [`WriteBatch`]es) and the background maintenance worker churn
/// rebuilds, compactions, splits and merges underneath. Batch atomicity is
/// asserted through cross-shard pair keys: every batch inserts one low key
/// and one high key (routed to different shards), so any snapshot in which
/// the two counts disagree caught a batch half-applied.
#[test]
fn snapshots_freeze_consistent_cuts_under_write_and_rebalance_churn() {
    let readers = env_usize("STRESS_READERS", 2);
    let writers = env_usize("STRESS_WRITERS", 2);
    let ops = env_usize("STRESS_OPS", 200);
    let mut rng = SplitMix64::new(0x5AAF);
    // Even base keys only: the odd half of the domain is reserved for the
    // pair batches' low keys, so their counts stay exactly 0-then-1.
    let mut base: Vec<u64> = (0..3_000)
        .map(|_| rng.next_below(KEY_DOMAIN / 2) * 2)
        .collect();
    base.sort_unstable();
    // The pair batches' high keys all land in the last shard; no shard of
    // four can pass 4× their mean, so the absolute ceiling is what makes the
    // worker split it while the readers run.
    let config = StoreConfig::new(IndexSpec::parse("im+r1").unwrap())
        .shards(4)
        .delta_threshold(48)
        .auto_rebuild(false)
        .background_maintenance(true)
        .split_max_len(1_000);
    let store = ShardedStore::build(config, &base).unwrap();

    // Pair keys: batch b of writer w inserts lo(w, b) — an *odd* key inside
    // the base domain, so it routes through the low/middle shards the base
    // populated — and hi(w, b), far above every base key (the last shard),
    // in one atomic batch: the pair is genuinely cross-shard from the very
    // first batch, not only after splits. Keys are unique per (w, b), never
    // collide with the even base keys or the even churn keys, and each is
    // inserted exactly once, so any snapshot where the two counts disagree
    // caught a batch half-applied.
    let lo_key = |w: usize, b: usize| (w * ops + b) as u64 * 2 + 1;
    let hi_key = |w: usize, b: usize| (w * ops + b) as u64 * 2 + KEY_DOMAIN * 4;
    assert!(
        lo_key(writers - 1, ops - 1) < KEY_DOMAIN,
        "low pair keys must stay inside the sharded base domain"
    );
    let probes = probes();
    let done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        for w in 0..writers {
            let store = &store;
            scope.spawn(move || {
                let mut rng = SplitMix64::new(0xB00 + w as u64);
                for b in 0..ops {
                    // One atomic cross-shard pair batch…
                    let mut batch = WriteBatch::with_capacity(2);
                    batch.insert(lo_key(w, b)).insert(hi_key(w, b));
                    let receipt = store.apply(&batch).unwrap();
                    assert_eq!(receipt.inserted, 2);
                    // …plus a single-op insert/delete churn pair (net zero;
                    // even keys only — see the pair-key reservation above).
                    let k = rng.next_below(KEY_DOMAIN / 2) * 2;
                    store.insert(k).unwrap();
                    assert!(store.delete(k).unwrap(), "own key must delete");
                }
            });
        }
        for r in 0..readers {
            let store = &store;
            let done = &done;
            let probes = &probes;
            scope.spawn(move || {
                let mut last_version = 0u64;
                let mut rng = SplitMix64::new(0x5EE + r as u64);
                loop {
                    let finished = done.load(Ordering::SeqCst);
                    let snap = store.snapshot();
                    assert!(
                        snap.version() >= last_version,
                        "snapshot versions must never go backwards"
                    );
                    last_version = snap.version();
                    // Freeze check: two full read sweeps over the pinned
                    // snapshot must agree exactly, however the store moves.
                    let sweep = |s: &shift_store::StoreSnapshot<u64>| {
                        let mut v: Vec<usize> = probes.iter().map(|&p| s.lower_bound(p)).collect();
                        v.extend(probes.iter().map(|&p| s.count_of(p)));
                        v.push(s.len());
                        v
                    };
                    let first = sweep(&snap);
                    std::thread::yield_now();
                    assert_eq!(sweep(&snap), first, "pinned snapshot moved");
                    // Batch atomicity: pair keys always arrive together.
                    for w in 0..writers {
                        let b = rng.next_below(ops as u64) as usize;
                        assert_eq!(
                            snap.count_of(lo_key(w, b)),
                            snap.count_of(hi_key(w, b)),
                            "snapshot v{} split the pair batch (w={w} b={b})",
                            snap.version()
                        );
                    }
                    // Internal consistency: a batched read equals scalars,
                    // and a range's width equals its endpoints' distance.
                    let batch_lb = snap.lower_bound_many(probes);
                    assert_eq!(&batch_lb[..], &first[..probes.len()], "batch != scalar");
                    let r = snap.range(1_000, 40_000);
                    assert_eq!(r.len(), snap.lower_bound(40_001) - snap.lower_bound(1_000));
                    if finished {
                        break;
                    }
                }
            });
        }
        scope.spawn(|| {
            // Main thread duty: wait for writers by polling the expected
            // final pair count, then release the readers.
            let expected = writers * ops * 2 + base.len();
            while store.len() != expected {
                std::thread::sleep(Duration::from_millis(1));
            }
            done.store(true, Ordering::SeqCst);
        });
    });

    // Settled: every pair key is present exactly once, churn cancelled out.
    let snap = store.snapshot();
    assert_eq!(snap.len(), base.len() + writers * ops * 2);
    for w in 0..writers {
        for b in (0..ops).step_by(13.max(ops / 16)) {
            assert_eq!(snap.count_of(lo_key(w, b)), 1);
            assert_eq!(snap.count_of(hi_key(w, b)), 1);
        }
    }
    assert!(store.take_maintenance_errors().is_empty());
    assert!(
        store.commit_version() >= (writers * ops * 3) as u64,
        "every batch and single stamped a commit version"
    );
}

/// Maintenance republishes shard state (or the table) without a commit, so
/// the clock does not move: only the cut's maintenance generation tells a
/// read that the published cut is behind. After each of rebuild, split,
/// merge and compaction — with a cut published just before and **no write
/// in between** — the next `snapshot()` must pin exactly the live states,
/// at the same version with the same answers, while the snapshot taken
/// before keeps answering from the structures it pinned.
#[test]
fn the_first_snapshot_after_a_maintenance_swap_pins_the_live_states() {
    let spec = IndexSpec::parse("im+r1").unwrap();
    let answers = |s: &StoreSnapshot<u64>| {
        let mut v: Vec<usize> = (0..64).map(|i| s.lower_bound(i * 311)).collect();
        v.extend((0..64).map(|i| s.count_of(i * 311 + 1)));
        v.push(s.len());
        v
    };
    let assert_live = |store: &ShardedStore<u64>, tag: &str| {
        let snap = store.snapshot();
        let table = store.table();
        assert!(Arc::ptr_eq(snap.table(), &table), "{tag}: stale table");
        for (s, shard) in table.shards().iter().enumerate() {
            let live = Arc::ptr_eq(&snap.states()[s], &shard.state());
            assert!(live, "{tag}: shard {s} still pinned at its pre-swap state");
        }
        snap
    };
    let check = |store: &ShardedStore<u64>, tag: &str, swap: &dyn Fn()| {
        let before = store.snapshot(); // publishes the pre-swap cut
        let frozen = answers(&before);
        swap();
        let after = assert_live(store, tag);
        assert_eq!(after.version(), before.version(), "{tag} is no commit");
        assert_eq!(answers(&after), frozen, "{tag} moved the merged view");
        assert_eq!(answers(&before), frozen, "{tag} moved a pinned snapshot");
    };

    let config = StoreConfig::new(spec)
        .shards(8)
        .delta_threshold(1_000_000)
        .auto_rebuild(false);
    let base: Vec<u64> = (0..8_000u64).map(|i| i * 2).collect();
    let store = ShardedStore::build(config, &base).unwrap();
    for k in 0..500u64 {
        store.insert(k * 31 + 1).unwrap();
    }
    check(&store, "rebuild", &|| assert!(store.flush().unwrap() > 0));
    // The last of eight shards grows past 4× the mean.
    for k in 0..12_000u64 {
        store.insert(14_001 + k % 1_000 * 2).unwrap();
    }
    check(&store, "split", &|| {
        let splits = store.total_splits();
        store.rebalance().unwrap();
        assert!(store.total_splits() > splits, "the skew must split");
    });
    for &k in &base[10..4_000] {
        assert!(store.delete(k).unwrap());
    }
    check(&store, "merge", &|| {
        let merges = store.total_merges();
        store.rebalance().unwrap();
        assert!(
            store.total_merges() > merges,
            "the hollow shards must merge"
        );
    });

    // Compaction is the background worker's alone. One run short of its
    // trigger nothing is due; the next insert makes exactly one due, and
    // its trace event is emitted after the cut was marked stale.
    let config = StoreConfig::new(spec)
        .shards(2)
        .delta_threshold(1_000_000)
        .background_maintenance(true);
    let store = ShardedStore::build(config, &base).unwrap();
    let due = ((COMPACT_RUNS / 2 - 1) * MAX_RUN_LEN) as u64;
    for k in 0..due {
        store.insert(k * 2 + 1).unwrap();
    }
    let runs = |store: &ShardedStore<u64>| store.shards()[0].state().delta().unsealed_run_count();
    assert_eq!(runs(&store), COMPACT_RUNS / 2 - 1, "no compaction due yet");
    store.insert(due * 2 + 1).unwrap();
    check(&store, "compaction", &|| {
        let compacted = |e: &shift_store::TraceEvent| e.kind == TraceKind::Compact;
        while !store.trace_events().iter().any(compacted) {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(runs(&store), 1);
    });
}

/// Retention is deterministic: with retention on every commit
/// captures its own cut inside its commit window, so two writers racing
/// `N` plain commits into an in-memory store leave exactly the versions
/// `1..=N` retained, each holding exactly its commits.
#[test]
fn racing_plain_commits_retain_every_version_once() {
    let n = env_usize("STRESS_OPS", 200).clamp(2, 2_000) / 2 * 2;
    let config = StoreConfig::new(IndexSpec::parse("im+r1").unwrap())
        .shards(4)
        .delta_threshold(1_000_000)
        .auto_rebuild(false)
        .retain_versions(n);
    let base: Vec<u64> = (0..4_000u64).map(|i| i * 2).collect();
    let store = ShardedStore::build(config, &base).unwrap();
    let start = Barrier::new(2);
    std::thread::scope(|scope| {
        for w in 0..2u64 {
            let (store, start) = (&store, &start);
            scope.spawn(move || {
                start.wait();
                for i in 0..n as u64 / 2 {
                    store.insert((i * 2 + w) * 2 + 1).unwrap();
                }
            });
        }
    });
    let expected: Vec<u64> = (1..=n as u64).collect();
    assert_eq!(store.retained_versions(), expected);
    for &cv in &expected {
        let at = store.snapshot_at(cv).unwrap();
        assert_eq!(at.version(), cv);
        assert_eq!(
            at.len(),
            base.len() + cv as usize,
            "v{cv} holds {cv} commits"
        );
    }
}

/// A reader racing a durable writer that syncs every record: each pinned
/// cut holds whole batches only — its length is the sum of its shards' and
/// exactly two keys per commit up to its version — and versions never go
/// backwards, whether the cut was shared from the slot or pinned behind a
/// commit's window.
#[test]
fn a_reader_racing_a_synced_durable_writer_pins_whole_monotonic_cuts() {
    let commits = env_usize("STRESS_OPS", 200).clamp(20, 400);
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("synced-writer-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = StoreConfig::new(IndexSpec::parse("im+r1").unwrap())
        .shards(4)
        .durability(DurabilityConfig::new().sync(SyncPolicy::Always));
    let base: Vec<u64> = (0..4_000u64).map(|i| i * 2).collect();
    let store = ShardedStore::open_seeded(&dir, config, &base).unwrap();
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for i in 0..commits as u64 {
                // One key in the first shard, one in the last.
                let mut batch = WriteBatch::with_capacity(2);
                batch.insert(i * 2 + 1).insert(KEY_DOMAIN + i);
                store.apply(&batch).unwrap();
            }
            done.store(true, Ordering::SeqCst);
        });
        scope.spawn(|| {
            let mut last = 0u64;
            loop {
                let finished = done.load(Ordering::SeqCst);
                let snap = store.snapshot();
                let v = snap.version();
                assert!(v >= last, "pinned versions fell: {last} -> {v}");
                last = v;
                let by_shard: usize = snap.states().iter().map(|s| s.merged_len()).sum();
                assert_eq!(snap.len(), by_shard, "v{v}: len is not the shards' sum");
                assert_eq!(
                    snap.len(),
                    base.len() + 2 * v as usize,
                    "v{v} split a batch"
                );
                if finished {
                    assert_eq!(v, commits as u64);
                    break;
                }
            }
        });
    });
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The one-write-path storm: ≥ 4 writers drive all four front doors —
/// `insert`, `apply`, `Txn::commit`, `delete`, in that order, round after
/// round — at keys of the same two shards of an in-memory store, while a
/// rebalancer splits the growing shard under them and a reader pins
/// snapshots. Writer `w` owns the keys of residue class `w`, and its
/// commits are sequential, so what a snapshot holds of its class must be
/// the state after some *prefix* of its commit stream; every commit
/// consumes exactly one commit version, so the prefix lengths must add up
/// to the snapshot's `version()` — the snapshot **equals the oracle at its
/// version**. Each shard's `applied_cv` must never decrease from one pin to
/// the next (children of a split inherit the parent's stamp), and after
/// the storm the store holds exactly what the oracle holds: no op lost.
#[test]
fn one_commit_path_storm_keeps_every_snapshot_exact_at_its_version() {
    let writers = env_usize("STRESS_WRITERS", 4).max(4);
    let min_rounds = env_usize("STRESS_OPS", 200) / 4;
    const MAX_ROUNDS: usize = 4_000;
    let classes = writers as u64 + 1; // class 0 is the base, writer `w` has `w + 1`
    let half = classes << 20; // keys below it route to shard 0, the rest to shard 1
    let key = |class: usize, upper: bool, n: usize| {
        u64::from(upper) * half + n as u64 * classes + class as u64
    };
    let mix = |k: u64| (k ^ (k >> 29)).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let base: Vec<u64> = (0..1_000).map(|n| key(0, n >= 500, n % 500)).collect();
    let config = StoreConfig::new(IndexSpec::parse("im+r1").unwrap())
        .shards(2)
        .delta_threshold(64)
        .split_max_len(600);
    let store = ShardedStore::build(config, &base).unwrap();
    assert_eq!(store.fences()[1], half, "two shards, cut at the half");

    // Round `i` of writer `w`, commit `j`: the keys it adds and removes.
    // A and C live in shard 0, B and D in shard 1; only D outlives its round.
    let round_keys = |w: usize, i: usize| {
        let [a, c] = [2 * i, 2 * i + 1].map(|n| key(w + 1, false, n));
        let [b, d] = [2 * i, 2 * i + 1].map(|n| key(w + 1, true, n));
        [a, b, c, d]
    };
    let effect = |w: usize, i: usize, j: usize| -> (Vec<u64>, Vec<u64>) {
        let [a, b, c, d] = round_keys(w, i);
        match j {
            0 => (vec![a], vec![]),
            1 => (vec![b, c], vec![a]),
            2 => (vec![d], vec![c]),
            _ => (vec![], vec![b]),
        }
    };
    let split_raced = AtomicBool::new(false);
    let running = AtomicUsize::new(writers);
    let rounds_done: Vec<AtomicUsize> = (0..writers).map(|_| AtomicUsize::new(0)).collect();

    std::thread::scope(|scope| {
        for w in 0..writers {
            let (store, split_raced, running, rounds_done) =
                (&store, &split_raced, &running, &rounds_done);
            scope.spawn(move || {
                let mut i = 0;
                // Keep the storm up until a split has raced it.
                while i < min_rounds || !split_raced.load(Ordering::SeqCst) {
                    assert!(i < MAX_ROUNDS, "no split raced {MAX_ROUNDS} rounds");
                    let [a, b, c, d] = round_keys(w, i);
                    store.insert(a).unwrap();
                    let mut batch = WriteBatch::with_capacity(3);
                    batch.insert(b).insert(c).delete(a);
                    let receipt = store.apply(&batch).unwrap();
                    assert_eq!((receipt.inserted, receipt.deleted), (2, 1));
                    let mut txn = store.begin();
                    assert_eq!(txn.get(c), 1, "own key, own snapshot");
                    txn.insert(d).delete(c);
                    let receipt = txn.commit().expect("nobody else writes class {w}");
                    assert_eq!((receipt.inserted, receipt.deleted), (1, 1));
                    assert!(store.delete(b).unwrap(), "own key must delete");
                    i += 1;
                    rounds_done[w].store(i, Ordering::SeqCst);
                    std::thread::yield_now();
                }
                running.fetch_sub(1, Ordering::SeqCst);
            });
        }
        // The rebalancer: a sweep that split something while every writer
        // was still inside its loop raced the storm.
        scope.spawn(|| {
            while running.load(Ordering::SeqCst) > 0 {
                let all_running = running.load(Ordering::SeqCst) == writers;
                let splits = store.total_splits();
                store.rebalance().unwrap();
                let still_running = running.load(Ordering::SeqCst) == writers;
                if all_running && still_running && store.total_splits() > splits {
                    split_raced.store(true, Ordering::SeqCst);
                }
                std::thread::yield_now();
            }
        });
        // The reader.
        scope.spawn(|| {
            // Per class: commits known applied, and the multiset they leave
            // as (sum of mixed keys, count).
            let mut prefix = vec![0usize; writers];
            let mut state = vec![(0u64, 0usize); writers];
            let base_state = base
                .iter()
                .fold((0u64, 0usize), |(f, n), &k| (f.wrapping_add(mix(k)), n + 1));
            let mut stamps: Vec<(u64, u64, u64)> = Vec::new(); // (lo, hi, applied_cv)
            loop {
                let finished = running.load(Ordering::SeqCst) == 0;
                let snap = store.snapshot();
                let v = snap.version();
                // Stamps: never above the cut, never below an earlier pin
                // of any shard covering some of the same keys.
                let fences = snap.table().router().fences();
                let now: Vec<(u64, u64, u64)> = (snap.states().iter().enumerate())
                    .map(|(s, state)| {
                        let lo = if s == 0 { 0 } else { fences[s] };
                        let hi = fences.get(s + 1).copied().unwrap_or(u64::MAX);
                        (lo, hi, state.applied_cv())
                    })
                    .collect();
                for &(lo, hi, cv) in &now {
                    assert!(cv <= v, "shard [{lo}, {hi}) stamped {cv} in a cut at {v}");
                    for &(plo, phi, pcv) in &stamps {
                        let overlap = lo < phi && plo < hi;
                        assert!(!overlap || cv >= pcv, "applied_cv fell: {pcv} -> {cv}");
                    }
                }
                stamps = now;
                // Content: a prefix of every writer's stream, v commits in all.
                let mut seen = vec![(0u64, 0usize); writers + 1];
                for k in snap.scan(0, u64::MAX) {
                    let class = &mut seen[(k % classes) as usize];
                    *class = (class.0.wrapping_add(mix(k)), class.1 + 1);
                }
                assert_eq!(seen[0], base_state, "the base moved at v{v}");
                for w in 0..writers {
                    while state[w] != seen[w + 1] {
                        let (i, j) = (prefix[w] / 4, prefix[w] % 4);
                        assert!(
                            i < rounds_done[w].load(Ordering::SeqCst) + 1,
                            "class {w} at v{v} is no prefix of its writer's commits"
                        );
                        let (added, removed) = effect(w, i, j);
                        let (mut f, mut n) = state[w];
                        for k in added {
                            (f, n) = (f.wrapping_add(mix(k)), n + 1);
                        }
                        for k in removed {
                            (f, n) = (f.wrapping_sub(mix(k)), n - 1);
                        }
                        state[w] = (f, n);
                        prefix[w] += 1;
                    }
                }
                assert_eq!(
                    prefix.iter().sum::<usize>() as u64,
                    v,
                    "the snapshot at v{v} holds {prefix:?} commits per writer"
                );
                if finished {
                    break;
                }
            }
        });
    });

    assert!(store.total_splits() >= 1);
    let rounds: Vec<usize> = (rounds_done.iter())
        .map(|r| r.load(Ordering::SeqCst))
        .collect();
    assert_eq!(
        store.commit_version(),
        4 * rounds.iter().sum::<usize>() as u64,
        "every front door stamped exactly one commit version"
    );
    let mut expected = base.clone();
    for (w, &done) in rounds.iter().enumerate() {
        expected.extend((0..done).map(|i| key(w + 1, true, 2 * i + 1)));
    }
    expected.sort_unstable();
    assert_eq!(
        store.scan(0, u64::MAX),
        expected,
        "an op was lost or doubled"
    );
    assert_eq!(store.len(), expected.len());
}

/// Regression: `range` / `count_of` (and every other read) taken
/// mid-`rebalance()` must be exact. The store's content is static, so any
/// deviation means the read composed a retired shard's state with its
/// successors' — the bug the snapshot read path closes.
#[test]
fn ranged_reads_stay_exact_while_rebalance_retires_shards() {
    let spec = IndexSpec::parse("im+r1").unwrap();
    // Born as one giant shard; the absolute ceiling forces a cascade of
    // splits (and the shard count stays 1 in config, so only the ceiling
    // drives the churn — deterministic, content-preserving).
    let n = 16_000u64;
    let config = StoreConfig::new(spec)
        .shards(1)
        .delta_threshold(1_000_000)
        .auto_rebuild(false)
        .split_max_len(1_000);
    let keys: Vec<u64> = (0..n).map(|i| i * 3).collect();
    let store = ShardedStore::build(config, &keys).unwrap();
    assert_eq!(store.shard_count(), 1);

    let mut rng = SplitMix64::new(0x7A11);
    let cases: Vec<(u64, u64)> = (0..64)
        .map(|_| {
            let lo = rng.next_below(3 * n);
            (lo, lo + rng.next_below(9_000))
        })
        .collect();
    let expected: Vec<std::ops::Range<usize>> = cases
        .iter()
        .map(|&(lo, hi)| {
            let start = keys.partition_point(|&x| x < lo);
            let end = keys.partition_point(|&x| x <= hi);
            start..end.max(start)
        })
        .collect();

    let churning = AtomicBool::new(true);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            let store = &store;
            let churning = &churning;
            let cases = &cases;
            let expected = &expected;
            scope.spawn(move || {
                while churning.load(Ordering::SeqCst) {
                    for (&(lo, hi), want) in cases.iter().zip(expected.iter()) {
                        assert_eq!(store.range(lo, hi), *want, "range [{lo}, {hi}]");
                        assert_eq!(
                            store.count_of(lo),
                            usize::from(lo % 3 == 0 && lo < 3 * n),
                            "count {lo}"
                        );
                    }
                }
            });
        }
        scope.spawn(|| {
            // Drive the split cascade to quiescence, then keep sweeping a
            // few more times mid-read for good measure.
            let mut sweeps = 0;
            loop {
                let actions = store.rebalance().unwrap();
                sweeps += 1;
                if actions == 0 && sweeps > 6 {
                    break;
                }
            }
            churning.store(false, Ordering::SeqCst);
        });
    });
    assert!(
        store.total_splits() >= 4,
        "the ceiling cascade must have retired shards mid-read"
    );
    assert!(store.shards().iter().all(|s| s.len() <= 1_000));
    for (&(lo, hi), want) in cases.iter().zip(expected.iter()) {
        assert_eq!(store.range(lo, hi), *want, "settled range [{lo}, {hi}]");
    }
}

#[test]
fn growth_from_a_single_shard_reaches_the_requested_count() {
    let spec = IndexSpec::parse("im+r1").unwrap();
    let config = StoreConfig::new(spec)
        .shards(4)
        .delta_threshold(1_000_000)
        .auto_rebuild(false);
    // Born with fewer shards than requested (too few keys to cut).
    let store = ShardedStore::build(config, [10u64, 20]).unwrap();
    assert!(store.shard_count() < 4);
    let mut rng = SplitMix64::new(99);
    let mut oracle = vec![10u64, 20];
    for _ in 0..4_000 {
        let k = rng.next_below(100_000);
        store.insert(k).unwrap();
        oracle.push(k);
    }
    oracle.sort_unstable();
    // Catch-up growth: one split per sweep until the requested count.
    for _ in 0..8 {
        store.rebalance().unwrap();
    }
    assert_eq!(store.shard_count(), 4, "grew back to the requested count");
    while store.flush().unwrap() > 0 {}
    assert_fences_aligned(&store, "post-growth");
    for q in [0u64, 1, 50_000, 99_999, u64::MAX] {
        assert_eq!(
            store.lower_bound(q),
            oracle.partition_point(|&x| x < q),
            "q={q}"
        );
    }
}
