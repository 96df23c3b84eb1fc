//! The store acceptance property: for **every** `IndexSpec` in the matrix,
//! shard counts {1, 4, 13}, and a mixed insert/delete/lookup/range trace,
//! every store read — scalar, batched and range — equals a plain sorted-`Vec`
//! oracle, *before and after* background rebuild triggers.

use algo_index::RangeIndex;
use shift_store::{DurabilityConfig, ShardedStore, StoreConfig, SyncPolicy};
use shift_table::spec::IndexSpec;
use sosd_data::prelude::*;

/// The reference implementation: a plain sorted vector with the same
/// insert/delete semantics as the store (delete removes one occurrence if
/// present, else no-op).
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

    fn range(&self, lo: u64, hi: u64) -> std::ops::Range<usize> {
        if lo > hi || self.keys.is_empty() {
            return 0..0;
        }
        let start = self.lower_bound(lo);
        let end = match lo <= hi && hi < u64::MAX {
            true => self.lower_bound(hi + 1),
            false => self.keys.len(),
        };
        start..end.max(start)
    }
}

/// Compare every read path against the oracle.
fn assert_reads_match(store: &ShardedStore<u64>, oracle: &Oracle, probes: &[u64], tag: &str) {
    assert_eq!(store.len(), oracle.keys.len(), "{tag}: len");
    for &q in probes {
        assert_eq!(store.lower_bound(q), oracle.lower_bound(q), "{tag}: q={q}");
    }
    let batch = store.lower_bound_many(probes);
    let expected: Vec<usize> = probes.iter().map(|&q| oracle.lower_bound(q)).collect();
    assert_eq!(batch, expected, "{tag}: batch");
    for pair in probes.chunks(2) {
        if pair.len() < 2 {
            continue;
        }
        let (lo, hi) = (pair[0].min(pair[1]), pair[0].max(pair[1]));
        assert_eq!(
            store.range(lo, hi),
            oracle.range(lo, hi),
            "{tag}: [{lo}, {hi}]"
        );
        // Inverted ranges are always empty.
        if lo != hi {
            assert_eq!(store.range(hi, lo), 0..0, "{tag}: inverted [{hi}, {lo}]");
        }
    }
    assert_eq!(
        store.range(0, u64::MAX),
        oracle.range(0, u64::MAX),
        "{tag}: full-domain range"
    );
}

/// A probe set mixing present keys, misses and extremes.
fn probe_set(rng: &mut SplitMix64, oracle: &Oracle) -> Vec<u64> {
    let mut probes = vec![0u64, 1, u64::MAX];
    for _ in 0..40 {
        let q = if !oracle.keys.is_empty() && rng.next_below(2) == 0 {
            oracle.keys[rng.next_below(oracle.keys.len() as u64) as usize]
        } else {
            rng.next_below(60_000)
        };
        probes.push(q);
        probes.push(q.saturating_add(1));
    }
    probes
}

/// Pinned snapshots keep serving **batched** reads from their frozen cut
/// while churn, rebuilds and flushes race them: every snapshot taken during
/// a mixed trace is paired with a clone of the oracle at capture time, and
/// `lower_bound_batch` / `range` / `scan` against the pinned view must equal
/// that frozen oracle — verified twice, once mid-trace and once after all
/// later churn has landed, so repeatability is part of the contract. Batch
/// lengths are deliberately not multiples of the kernel's 64-query block.
#[test]
fn pinned_snapshots_serve_batched_reads_from_their_frozen_cut_during_churn() {
    let mut rng = SplitMix64::new(0xBA7C_4E11);
    for spec_str in [
        "im+r1",
        "rmi:64+s8",
        "pgm:32+auto",
        "rmi:4096+r1",
        "rmi:64:cubic+r1",
    ] {
        let spec = IndexSpec::parse(spec_str).unwrap();
        for shards in [1usize, 5] {
            let mut base: Vec<u64> = (0..1_400).map(|_| rng.next_below(40_000)).collect();
            base.sort_unstable();
            let mut oracle = Oracle { keys: base.clone() };
            let config = StoreConfig::new(spec).shards(shards).delta_threshold(16);
            let store = ShardedStore::build(config, &base).unwrap();
            let tag = format!("{spec} shards={shards}");

            let frozen_matches = |snap: &shift_store::StoreSnapshot<u64>,
                                  keys: &[u64],
                                  probes: &[u64],
                                  tag: &str| {
                let expected: Vec<usize> = probes
                    .iter()
                    .map(|&q| keys.partition_point(|&x| x < q))
                    .collect();
                let mut out = vec![0usize; probes.len()];
                snap.lower_bound_batch(probes, &mut out);
                assert_eq!(out, expected, "{tag}: pinned batch");
                for pair in probes.chunks(2) {
                    if pair.len() < 2 {
                        continue;
                    }
                    let (lo, hi) = (pair[0].min(pair[1]), pair[0].max(pair[1]));
                    let start = keys.partition_point(|&x| x < lo);
                    let end = match hi.checked_add(1) {
                        Some(h) => keys.partition_point(|&x| x < h),
                        None => keys.len(),
                    };
                    assert_eq!(snap.range(lo, hi), start..end.max(start), "{tag}: range");
                    assert_eq!(
                        snap.scan(lo, hi),
                        keys[start..end.max(start)],
                        "{tag}: scan"
                    );
                }
            };

            // Churn with a snapshot pinned every 80 steps; verify each new
            // snapshot immediately against its frozen oracle.
            let mut pinned: Vec<(shift_store::StoreSnapshot<u64>, Vec<u64>)> = Vec::new();
            for step in 0..400 {
                match rng.next_below(10) {
                    0..=3 => {
                        let k = rng.next_below(50_000);
                        store.insert(k).unwrap();
                        oracle.insert(k);
                    }
                    4..=5 => {
                        let k = if !oracle.keys.is_empty() && rng.next_below(4) != 0 {
                            oracle.keys[rng.next_below(oracle.keys.len() as u64) as usize]
                        } else {
                            rng.next_below(50_000)
                        };
                        assert_eq!(store.delete(k).unwrap(), oracle.delete(k), "{tag} del {k}");
                    }
                    _ => {
                        let q = rng.next_below(60_000);
                        assert_eq!(store.lower_bound(q), oracle.lower_bound(q), "{tag} q={q}");
                    }
                }
                if step % 80 == 0 {
                    let snap = store.snapshot();
                    // 131 probes: straddles two 64-query kernel blocks with a
                    // 3-query tail.
                    let mut probes = vec![0u64, 1, u64::MAX];
                    for _ in 0..64 {
                        let q = rng.next_below(60_000);
                        probes.push(q);
                        probes.push(q.saturating_add(1));
                    }
                    frozen_matches(&snap, &oracle.keys, &probes, &format!("{tag} step {step}"));
                    pinned.push((snap, oracle.keys.clone()));
                }
            }
            assert!(store.total_rebuilds() > 0, "{tag}: trace must rebuild");
            store.flush().unwrap();

            // Every snapshot still answers from its own cut after all later
            // churn, rebuilds and the final flush have landed.
            let mut probes = vec![0u64, 1, u64::MAX];
            for _ in 0..64 {
                let q = rng.next_below(60_000);
                probes.push(q);
                probes.push(q.saturating_add(1));
            }
            for (i, (snap, keys)) in pinned.iter().enumerate() {
                frozen_matches(snap, keys, &probes, &format!("{tag} pinned#{i} post"));
            }
        }
    }
}

#[test]
fn store_reads_match_a_sorted_vec_oracle_for_every_spec_and_shard_count() {
    let combos = IndexSpec::all_combinations();
    assert_eq!(combos.len(), 24, "6 model families x 4 layer families");
    let mut rng = SplitMix64::new(0x570E_E0E1);
    for &spec in &combos {
        for shards in [1usize, 4, 13] {
            // A duplicate-bearing base: values in a narrow range so inserts,
            // deletes and probes collide with existing runs.
            let n = 1_200 + rng.next_below(400) as usize;
            let mut base: Vec<u64> = (0..n).map(|_| rng.next_below(40_000)).collect();
            base.sort_unstable();
            let mut oracle = Oracle { keys: base.clone() };
            // A threshold small enough that the trace triggers rebuilds in
            // every shard-count configuration (auto_rebuild is on).
            let config = StoreConfig::new(spec).shards(shards).delta_threshold(16);
            let store = ShardedStore::build(config, &base).unwrap();
            let tag = format!("{spec} shards={shards}");

            // Reads must be exact before any write or rebuild.
            let probes = probe_set(&mut rng, &oracle);
            assert_reads_match(&store, &oracle, &probes, &format!("{tag} pre"));

            // The mixed trace: ~50% lookups, 30% inserts, 20% deletes, with
            // read verification after every write so mid-buffer and
            // just-rebuilt states are both exercised.
            for step in 0..600 {
                match rng.next_below(10) {
                    0..=2 => {
                        let k = rng.next_below(50_000);
                        store.insert(k).unwrap();
                        oracle.insert(k);
                    }
                    3..=4 => {
                        // Bias deletes towards existing keys.
                        let k = if !oracle.keys.is_empty() && rng.next_below(4) != 0 {
                            oracle.keys[rng.next_below(oracle.keys.len() as u64) as usize]
                        } else {
                            rng.next_below(50_000)
                        };
                        assert_eq!(store.delete(k).unwrap(), oracle.delete(k), "{tag} del {k}");
                    }
                    _ => {
                        let q = rng.next_below(60_000);
                        assert_eq!(
                            store.lower_bound(q),
                            oracle.lower_bound(q),
                            "{tag} step {step} q={q}"
                        );
                    }
                }
                if step % 97 == 0 {
                    let probes = probe_set(&mut rng, &oracle);
                    assert_reads_match(&store, &oracle, &probes, &format!("{tag} step {step}"));
                }
            }
            assert!(
                store.total_rebuilds() > 0,
                "{tag}: the trace must have triggered background rebuilds"
            );

            // And again after a full flush (every buffer folded into base).
            store.flush().unwrap();
            let probes = probe_set(&mut rng, &oracle);
            assert_reads_match(&store, &oracle, &probes, &format!("{tag} post-flush"));
        }
    }
}

/// Keys, layer bytes, patched drifts and shifted lines of every shard's
/// range layer.
fn layers(store: &ShardedStore<u64>) -> Vec<(usize, usize, usize, usize)> {
    let table = store.table();
    let shards = table.shards().iter().map(|s| s.snapshot());
    shards
        .map(|s| {
            let shifted = s.layer_shifted_lines();
            (s.base_len(), s.layer_bytes(), s.layer_patches(), shifted)
        })
        .collect()
}

/// One trace for a store whose shards serve from layers worth watching:
/// writes into shard `written` past `delta_threshold` (inline rebuilds), a
/// split of that shard, and for the durable store a checkpoint, a WAL-tail
/// write and a reopen — reading like the sorted-`Vec` oracle at every
/// stage, through `lower_bound`, the batch kernel, `range` and `scan`.
/// `expect(stage, layers)` checks what the shards serve from: `written`
/// names the shard the writes went to, or `None` once it has split.
fn a_store_matches_the_oracle_through_rebuild_split_and_reopen(
    base: &[u64],
    spec: &str,
    shards: usize,
    written: usize,
    expect: impl Fn(&str, Option<usize>, &[(usize, usize, usize, usize)]),
) {
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("oracle-{spec}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = |split_max_len| {
        StoreConfig::new(IndexSpec::parse(spec).unwrap())
            .shards(shards)
            .delta_threshold(512)
            .split_max_len(split_max_len)
            .durability(
                DurabilityConfig::new()
                    .sync(SyncPolicy::Os)
                    .checkpoint_ops(0),
            )
    };
    // The written shard outgrows the ceiling once the trace has landed
    // (800 keys net) and splits in the next rebalance sweep; it is the
    // longest, so no other does.
    let lens: Vec<usize> = {
        let probe = ShardedStore::build(config(usize::MAX), base).unwrap();
        let table = probe.table();
        table.shards().iter().map(|s| s.len()).collect()
    };
    let first = lens[..written].iter().sum::<usize>();
    let len = lens[written];
    assert_eq!(lens.iter().max(), Some(&len), "shards of {lens:?} keys");
    let config = config(len + 400);
    let in_memory = ShardedStore::build(config, base).unwrap();
    let durable = ShardedStore::open_seeded(&dir, config, base).unwrap();

    for (store, tag) in [(&in_memory, "in-memory"), (&durable, "durable")] {
        let mut rng = SplitMix64::new(0x4E1A_71FE);
        let mut oracle = Oracle {
            keys: base.to_vec(),
        };
        // Probes in the gaps between keys, on keys, and at the extremes.
        let probes = |rng: &mut SplitMix64, oracle: &Oracle| -> Vec<u64> {
            let mut probes = vec![0, 1, u64::MAX];
            for _ in 0..60 {
                let key = oracle.keys[rng.next_below(oracle.keys.len() as u64) as usize];
                probes.extend([key.saturating_sub(1), key, key.saturating_add(1)]);
            }
            probes
        };
        let check = |oracle: &Oracle, probes: &[u64], tag: &str| {
            assert_reads_match(store, oracle, probes, tag);
            for pair in probes.chunks(2).filter(|pair| pair.len() == 2).take(20) {
                // Close-by endpoints: the scans stay short.
                let lo = pair[0].min(pair[1]);
                let hi = lo.saturating_add(1 << 24).min(pair[0].max(pair[1]));
                assert_eq!(
                    store.scan(lo, hi),
                    oracle.keys[oracle.range(lo, hi)],
                    "{tag}: scan [{lo}, {hi}]"
                );
            }
        };
        expect(
            &format!("{tag}: freshly built"),
            Some(written),
            &layers(store),
        );
        check(&oracle, &probes(&mut rng, &oracle), &format!("{tag} pre"));

        // Writes into the shard's key range, well past its threshold.
        let (min, max) = (base[first], base[first + len - 1]);
        for step in 0..2_400 {
            if step % 3 == 2 {
                let key = oracle.keys[first + rng.next_below(len as u64 - 1_000) as usize];
                assert_eq!(store.delete(key).unwrap(), oracle.delete(key), "{tag}");
            } else {
                let key = min + rng.next_below(max - min);
                store.insert(key).unwrap();
                oracle.insert(key);
            }
            if step % 601 == 600 {
                check(
                    &oracle,
                    &probes(&mut rng, &oracle),
                    &format!("{tag} step {step}"),
                );
            }
        }
        assert!(store.total_rebuilds() >= 2, "{tag}: inline rebuilds");
        expect(&format!("{tag}: rebuilt"), Some(written), &layers(store));

        assert_eq!(store.rebalance().unwrap(), 1, "{tag}: one topology change");
        assert_eq!(store.total_splits(), 1, "{tag}: the written shard splits");
        let split = layers(store);
        assert_eq!(split.len(), lens.len() + 1, "{tag}");
        expect(&format!("{tag}: split"), None, &split);
        check(
            &oracle,
            &probes(&mut rng, &oracle),
            &format!("{tag} post-split"),
        );
    }

    // Both stores ran the same trace: one oracle serves the reopen.
    let mut oracle = Oracle {
        keys: in_memory.scan(0, u64::MAX),
    };
    durable.checkpoint().unwrap();
    let tail = oracle.keys[oracle.keys.len() / 2] + 1;
    durable.insert(tail).unwrap();
    oracle.insert(tail);
    drop(durable);
    let reopened = ShardedStore::<u64>::open(&dir, config).unwrap();
    expect("reopened", None, &layers(&reopened));
    let mut rng = SplitMix64::new(0x0E09);
    let mut probes = probe_set(&mut rng, &oracle);
    probes.extend([tail - 1, tail, tail + 1]);
    assert_reads_match(&reopened, &oracle, &probes, "reopened");
    assert_eq!(
        reopened.scan(0, u64::MAX),
        oracle.keys,
        "reopened: full scan"
    );
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Long windows end to end: a least-squares line over the upper half of
/// 400 k lognormal keys crowds its predictions into few partitions between
/// long stretches of empty ones — nearly every fetch serves a window past
/// 127 records or an empty one at the next start, the batch kernel's
/// correct stage included — and every shard's layer stays under 1.4 bytes
/// a key, before and after its rebuilds, split and reopen.
#[cfg_attr(miri, ignore = "dataset too large for Miri")]
#[test]
fn a_coded_count_store_matches_the_oracle_through_rebuild_split_and_reopen() {
    let base: Dataset<u64> = SosdName::Logn32.generate(400_000, 7);
    a_store_matches_the_oracle_through_rebuild_split_and_reopen(
        base.as_slice(),
        "linear+r1",
        2,
        1,
        |stage, _, layers| {
            for &(keys, bytes, _, _) in layers {
                assert!(bytes * 10 <= keys * 14, "{stage}: {layers:?}");
            }
        },
    );
}

/// Layers built from an RMI trainer's handed-over predictions end to end:
/// the benchmark's `rmi:4096+r1` (monotone, the emitter's) and a cubic root
/// (the scatter builder's) are seeded, rebuilt inline, split and reopened —
/// every one of those a training that hands its audit to the layer builder.
#[cfg_attr(miri, ignore = "dataset too large for Miri")]
#[test]
fn rmi_stores_match_the_oracle_through_rebuild_split_and_reopen() {
    let base: Dataset<u64> = SosdName::Logn32.generate(400_000, 7);
    for spec in ["rmi:4096+r1", "rmi:64:cubic+r1"] {
        a_store_matches_the_oracle_through_rebuild_split_and_reopen(
            base.as_slice(),
            spec,
            2,
            1,
            |stage, _, layers| {
                for &(keys, bytes, _, _) in layers {
                    assert!(bytes * 10 <= keys * 14, "{stage}: {layers:?}");
                }
            },
        );
    }
}

/// A patched shard end to end: amzn64 under `im+r1`, whose first shards
/// hold dense regions that climb the drift past 126 inside one seven-bit
/// line of 68
/// — a few hundred shifted lines across the store, and a few dozen
/// escaped ones that climb past 1 015. Every read of the trace that lands on one of those lines
/// (the batch kernel's correct stage included) goes through the shifted
/// offsets or the patch array, before and after rebuild, split and
/// reopen.
#[cfg_attr(miri, ignore = "dataset too large for Miri")]
#[test]
fn a_patched_byte_tier_store_matches_the_oracle_through_rebuild_split_and_reopen() {
    let base: Dataset<u64> = SosdName::Amzn64.generate(400_000, 21);
    a_store_matches_the_oracle_through_rebuild_split_and_reopen(
        base.as_slice(),
        "im+r1",
        8,
        0,
        |stage, written, layers| {
            let patched = match written {
                Some(shard) => layers[shard].2,
                None => layers.iter().map(|&(_, _, patches, _)| patches).sum(),
            };
            assert!(patched > 0, "{stage}: {layers:?}");
            // The written shard climbs past 1 015 only; the others shift.
            let shifted: usize = layers.iter().map(|&(_, _, _, shifted)| shifted).sum();
            assert!(shifted > 0, "{stage}: {layers:?}");
        },
    );
}
