//! Tests of the delta runs and the delta chain. The helpers that assert
//! carry `#[cfg(test)]` of their own: shift-lint masks test items, not
//! test files.

use super::*;
use sosd_data::rng::SplitMix64;
use std::collections::BTreeMap;

fn chain_of(ops: &[(u64, i64)], max_run_len: usize) -> DeltaChain<u64> {
    let mut c = DeltaChain::new();
    for &(k, net) in ops {
        c = c.with_op(k, net, max_run_len);
    }
    c
}

#[test]
fn run_prefix_sums_and_point_nets() {
    let run = DeltaRun::singleton(5u64, 1)
        .amended(2, 2)
        .and_then(|r| r.amended(7, -1))
        .and_then(|r| r.amended(9, 1))
        .unwrap();
    assert_eq!(run.ops(), 4);
    assert_eq!(run.net_below(0), 0);
    assert_eq!(run.net_below(2), 0);
    assert_eq!(run.net_below(3), 2);
    assert_eq!(run.net_below(8), 2);
    assert_eq!(run.net_below(u64::MAX), 3);
    assert_eq!(run.net_of(2), 2);
    assert_eq!(run.net_of(7), -1);
    assert_eq!(run.net_of(4), 0);
    assert_eq!(run.len_delta(), 3);
}

#[test]
fn amend_cancellation_drops_the_entry_but_keeps_ops() {
    let run = DeltaRun::singleton(5u64, 1).amended(5, -1).unwrap();
    assert_eq!(run.entry_count(), 0, "net cancelled to zero");
    assert_eq!(run.ops(), 2, "churn still counts towards dirtiness");
    assert_eq!(run.len_delta(), 0);
}

#[test]
fn chain_bookkeeping_matches_a_reference_map() {
    let ops: Vec<(u64, i64)> = vec![
        (2, 1),
        (2, 1),
        (7, -1),
        (9, 1),
        (2, -1),
        (100, 1),
        (50, 1),
        (50, -1),
    ];
    for max_run_len in [1usize, 2, 4, 64] {
        let c = chain_of(&ops, max_run_len);
        assert_eq!(c.ops(), ops.len());
        assert_eq!(c.len_delta(), ops.iter().map(|&(_, n)| n).sum::<i64>());
        let mut reference: BTreeMap<u64, i64> = BTreeMap::new();
        for &(k, n) in &ops {
            *reference.entry(k).or_insert(0) += n;
        }
        for q in [0u64, 1, 2, 3, 7, 8, 9, 10, 50, 51, 100, u64::MAX] {
            let expect: i64 = reference
                .iter()
                .filter(|&(&k, _)| k < q)
                .map(|(_, &n)| n)
                .sum();
            assert_eq!(c.net_below(q), expect, "q={q} max_run_len={max_run_len}");
            assert_eq!(
                c.net_of(q),
                reference.get(&q).copied().unwrap_or(0),
                "net_of {q}"
            );
        }
    }
}

#[test]
fn net_below_batch_matches_scalar_and_accumulates() {
    let ops: Vec<(u64, i64)> = vec![(2, 1), (2, 1), (7, -1), (9, 1), (50, 1), (50, -1)];
    for max_run_len in [1usize, 2, 64] {
        let c = chain_of(&ops, max_run_len);
        let queries = [0u64, 2, 3, 7, 8, 9, 10, 50, 51, u64::MAX];
        let mut acc = [0i64; 10];
        c.net_below_batch(&queries, &mut acc);
        for (&q, &a) in queries.iter().zip(acc.iter()) {
            assert_eq!(a, c.net_below(q), "q={q} max_run_len={max_run_len}");
        }
        // The batch accumulates into (not overwrites) the scratch, so a
        // pre-seeded accumulator keeps its floor.
        let mut seeded = [100i64; 10];
        c.net_below_batch(&queries, &mut seeded);
        for (&q, &a) in queries.iter().zip(seeded.iter()) {
            assert_eq!(a, 100 + c.net_below(q), "seeded q={q}");
        }
    }
    // The empty chain is a no-op.
    let mut acc = [7i64; 3];
    DeltaChain::<u64>::new().net_below_batch(&[1, 2, 3], &mut acc);
    assert_eq!(acc, [7, 7, 7]);
}

#[test]
fn run_length_bound_controls_chain_growth() {
    let ops: Vec<(u64, i64)> = (0..64u64).map(|i| (i * 3, 1)).collect();
    let tight = chain_of(&ops, 4);
    assert_eq!(tight.run_count(), 16, "64 ops in runs of 4");
    let loose = chain_of(&ops, 64);
    assert_eq!(loose.run_count(), 1);
    assert_eq!(tight.net_below(u64::MAX), loose.net_below(u64::MAX));
}

#[test]
fn compact_folds_unsealed_runs_only() {
    let c = chain_of(&[(1, 1), (2, 1), (3, 1), (4, 1)], 1);
    assert_eq!(c.run_count(), 4);
    let sealed = c.sealed();
    // Writes after the seal start fresh runs.
    let c2 = sealed.with_op(10, 1, 1).with_op(11, 1, 1).with_op(12, 1, 1);
    assert_eq!(c2.run_count(), 7);
    assert_eq!(c2.unsealed_run_count(), 3);
    let compacted = c2.compact();
    assert_eq!(compacted.run_count(), 5, "3 unsealed folded into 1");
    assert_eq!(compacted.unsealed_run_count(), 1);
    assert_eq!(compacted.ops(), c2.ops());
    assert_eq!(compacted.len_delta(), c2.len_delta());
    for q in [0u64, 2, 5, 11, 100] {
        assert_eq!(compacted.net_below(q), c2.net_below(q), "q={q}");
    }
    // Fully-cancelling unsealed runs fold to an entry-less run that
    // still carries the churn (ops feed the rebuild threshold).
    let cancel = DeltaChain::new()
        .sealed()
        .with_op(5, 1, 1)
        .with_op(5, -1, 1);
    let compacted = cancel.compact();
    assert_eq!(compacted.run_count(), 1);
    assert_eq!(compacted.entry_count(), 0);
    assert_eq!(compacted.ops(), 2);
    assert_eq!(compacted.net_below(u64::MAX), 0);
}

#[test]
fn seal_then_strip_leaves_the_residual() {
    let c = chain_of(&[(1, 1), (2, 1)], 64);
    let frozen = c.sealed();
    // Writes arriving "during the rebuild".
    let live = frozen.with_op(2, 1, 64).with_op(1, -1, 64);
    assert_eq!(live.run_count(), 2, "post-seal ops opened a fresh head");
    let residual = live.strip_sealed(&frozen);
    assert_eq!(residual.net_of(1), -1, "the in-flight delete survives");
    assert_eq!(residual.net_of(2), 1, "the in-flight insert survives");
    assert_eq!(residual.ops(), 2);
    // Stripping an empty freeze is the identity.
    let empty = DeltaChain::<u64>::new();
    assert_eq!(c.strip_sealed(&empty.sealed()).ops(), c.ops());
}

#[test]
fn merge_splices_inserts_and_drops_tombstones() {
    let base = vec![1u64, 4, 4, 4, 9];
    let c = chain_of(&[(0, 1), (4, 1), (9, -1), (12, 1), (12, 1)], 2);
    assert_eq!(c.merge_into(&base), vec![0, 1, 4, 4, 4, 4, 12, 12]);

    // Deleting from the middle of a run shortens it.
    let c = chain_of(&[(4, -1), (4, -1)], 2);
    assert_eq!(c.merge_into(&base), vec![1, 4, 9]);

    // Empty base: only inserts can exist.
    let c = chain_of(&[(3, 1), (1, 1), (3, 1)], 1);
    assert_eq!(c.merge_into(&[]), vec![1, 3, 3]);
    assert_eq!(DeltaChain::<u64>::new().merge_into(&[]), Vec::<u64>::new());
}

#[test]
fn merge_range_agrees_with_the_full_merge() {
    let base = vec![1u64, 4, 4, 4, 9, 12, 15];
    let c = chain_of(&[(0, 1), (4, 1), (9, -1), (13, 1), (13, 1), (4, -1)], 2);
    let full = c.merge_into(&base);
    // Inverted range: empty pair set, base passed through (no panic).
    assert_eq!(c.merge_range(&[], 10, 1), Vec::<u64>::new());
    for (lo, hi) in [(0u64, u64::MAX), (4, 9), (2, 13), (5, 8), (13, 13)] {
        let start = base.partition_point(|&x| x < lo);
        let end = base.partition_point(|&x| x <= hi);
        let got = c.merge_range(&base[start..end], lo, hi);
        let expect: Vec<u64> = full
            .iter()
            .copied()
            .filter(|&k| lo <= k && k <= hi)
            .collect();
        assert_eq!(got, expect, "[{lo}, {hi}]");
    }
}

#[test]
fn partition_splits_nets_at_the_key() {
    let c = chain_of(&[(1, 1), (5, 1), (5, 1), (9, -1), (3, -1)], 2);
    let (l, r) = c.partition(5);
    assert_eq!(l.net_of(1), 1);
    assert_eq!(l.net_of(3), -1);
    assert_eq!(l.net_of(5), 0, "split key goes right");
    assert_eq!(r.net_of(5), 2);
    assert_eq!(r.net_of(9), -1);
    assert_eq!(l.len_delta() + r.len_delta(), c.len_delta());
    assert_eq!(
        l.net_below(u64::MAX) + r.net_below(u64::MAX),
        c.net_below(u64::MAX)
    );
    // Both sides stay amendable.
    assert_eq!(l.unsealed_run_count(), l.run_count());
}

#[test]
fn concat_sums_both_sides() {
    let a = chain_of(&[(1, 1), (2, 1)], 64);
    let b = chain_of(&[(10, 1), (11, -1)], 64);
    let c = a.concat(&b);
    assert_eq!(c.ops(), 4);
    assert_eq!(c.len_delta(), 2);
    assert_eq!(c.net_below(5), 2);
    assert_eq!(c.net_below(u64::MAX), 2);
    assert_eq!(c.net_of(11), -1);
}

#[test]
fn published_chains_share_runs_structurally() {
    let a = chain_of(&[(1, 1)], 1);
    let b = a.with_op(2, 1, 1); // new head, old run shared
    assert_eq!(b.run_count(), 2);
    assert!(a.runs[0].same_run(&b.runs[1]));
    // Amending within the run bound copies the head only.
    let c = chain_of(&[(1, 1)], 8);
    let d = c.with_op(2, 1, 8);
    assert_eq!(d.run_count(), 1);
    assert!(!c.runs[0].same_run(&d.runs[0]));
}

/// `chain` against the `(key, net)` oracle: prefix sums, point nets,
/// totals and the nets of a range, at every key of `probes`.
#[cfg(test)]
fn check_oracle<K: Key>(chain: &DeltaChain<K>, oracle: &BTreeMap<K, i64>, probes: &[K]) {
    let below = |q: K| oracle.range(..q).map(|(_, &n)| n).sum::<i64>();
    for &q in probes {
        assert_eq!(chain.net_below(q), below(q), "net_below {q}");
        assert_eq!(
            chain.net_of(q),
            oracle.get(&q).copied().unwrap_or(0),
            "net_of {q}"
        );
    }
    assert_eq!(chain.len_delta(), oracle.values().sum::<i64>());
    let runs: i64 = chain.runs.iter().map(|r| r.len_delta()).sum();
    assert_eq!(runs, chain.len_delta(), "cached total");
    assert_eq!(
        chain.entry_count(),
        chain.runs.iter().map(|r| r.entry_count()).sum()
    );
}

fn oracle_nets<K: Key>(oracle: &BTreeMap<K, i64>, range: &impl RangeBounds<K>) -> Vec<(K, i64)> {
    let inside = oracle.iter().filter(|(k, &n)| range.contains(k) && n != 0);
    inside.map(|(&k, &n)| (k, n)).collect()
}

/// Random writes (repeated keys, cancellations, nets up to ±3) with
/// seals, compactions and refolds between them, for one key type.
#[cfg(test)]
fn oracle_sweep<K: Key>(seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let key = |rng: &mut SplitMix64| K::from_u64_saturating(rng.next_u64() >> (64 - K::BITS));
    for round in 0..60 {
        let mut pool: Vec<K> = vec![K::MIN_KEY, K::MAX_KEY];
        pool.extend((0..1 + rng.next_below(40)).map(|_| key(&mut rng)));
        let max_run_len = [1, 2, 5, MAX_RUN_LEN][round % 4];
        let (mut chain, mut oracle) = (DeltaChain::new(), BTreeMap::new());
        for step in 0..rng.next_below(300) {
            let k = pool[rng.next_below(pool.len() as u64) as usize];
            let net = [-3, -2, -1, 1, 1, 2, 3][rng.next_below(7) as usize];
            chain = chain.with_op(k, net, max_run_len);
            *oracle.entry(k).or_insert(0i64) += net;
            chain = match (step % 37, rng.next_below(8)) {
                (36, _) => chain.sealed(),
                (_, 0) => chain.compact(),
                (_, 1) => DeltaChain::from_nets(crate::merge::consolidate(chain.nets(..)), 1),
                _ => chain,
            };
        }
        let probes: Vec<K> = pool
            .iter()
            .copied()
            .chain((0..8).map(|_| key(&mut rng)))
            .collect();
        check_oracle(&chain, &oracle, &probes);
        let folded = chain.unsealed_all().compact();
        check_oracle(&folded, &oracle, &probes);
        assert_eq!(folded.entry_count(), oracle_nets(&oracle, &..).len());
        for _ in 0..20 {
            let (a, b) = (
                probes[rng.next_below(probes.len() as u64) as usize],
                key(&mut rng),
            );
            let bound = |rng: &mut SplitMix64, k: K| match rng.next_below(3) {
                0 => Bound::Included(k),
                1 => Bound::Excluded(k),
                _ => Bound::Unbounded,
            };
            let range = (bound(&mut rng, a), bound(&mut rng, b)); // inverted when a > b
            let got = merge::consolidate(chain.nets(range));
            assert_eq!(got, oracle_nets(&oracle, &range), "{range:?}");
        }
    }
}

#[test]
fn columnar_runs_match_a_btreemap_oracle() {
    oracle_sweep::<u32>(0xC01);
    oracle_sweep::<u64>(0xC02);
}

#[test]
fn a_write_that_would_leave_i32_opens_a_fresh_run() {
    let short = i32::MAX as i64 - 1;
    let mut oracle = BTreeMap::from([(10u64, short)]);
    let chain = DeltaChain::from_nets(vec![(10u64, short)], 1);
    let reaches = chain.with_op(20, 1, MAX_RUN_LEN);
    assert_eq!(
        reaches.run_count(),
        1,
        "a cumulative of i32::MAX is amended"
    );
    *oracle.entry(20).or_insert(0) += 1;
    let past = reaches.with_op(5, 1, MAX_RUN_LEN);
    assert_eq!(past.run_count(), 2, "shifting i32::MAX up opens a run");
    *oracle.entry(5).or_insert(0) += 1;
    check_oracle(&past, &oracle, &[0, 5, 6, 10, 11, 20, 21, u64::MAX]);
    // The same at the bottom, and a net past i32 on its own.
    let low = DeltaChain::from_nets(vec![(10u64, i32::MIN as i64)], 1);
    assert_eq!(low.with_op(20, -1, MAX_RUN_LEN).run_count(), 2);
    assert_eq!(low.with_op(10, 1, MAX_RUN_LEN).run_count(), 1);
    let huge = low.with_op(3, 1 << 33, MAX_RUN_LEN);
    let oracle = BTreeMap::from([(3u64, 1i64 << 33), (10, i32::MIN as i64)]);
    check_oracle(&huge, &oracle, &[0, 3, 4, 10, 11]);
}

#[test]
fn a_fold_past_i32_splits_into_runs_that_sum_exactly() {
    let big = i32::MAX as i64;
    let nets = vec![(1u64, big - 5), (2, 7), (3, -3 * big), (4, 5 * big), (9, 1)];
    let oracle: BTreeMap<u64, i64> = nets.iter().copied().collect();
    let chain = DeltaChain::from_nets(nets.clone(), 9);
    assert!(chain.run_count() > 1, "the cumulative left i32");
    assert_eq!(
        (chain.ops(), chain.runs[0].ops()),
        (9, 9),
        "the first run holds the ops"
    );
    let probes: Vec<u64> = (0..=10).chain([u64::MAX]).collect();
    check_oracle(&chain, &oracle, &probes);
    assert_eq!(merge::consolidate(chain.nets(..)), nets);
    // Compaction and a split at every key re-fold them the same way.
    let twice = chain.concat(&chain).compact();
    let doubled = oracle.iter().map(|(&k, &n)| (k, 2 * n)).collect();
    check_oracle(&twice, &doubled, &probes);
    for split in 0..=10u64 {
        let (l, r) = twice.partition(split);
        for &q in &probes {
            assert_eq!(
                l.net_below(q) + r.net_below(q),
                twice.net_below(q),
                "{split} {q}"
            );
        }
    }
}

#[test]
fn size_bytes_is_the_buffer() {
    let mut run = DeltaRun::singleton(0u64, 1);
    for n in 1..=6usize {
        assert_eq!(run.size_bytes(), 8 * run.buf.len(), "n={n}");
        assert_eq!(run.size_bytes(), 12 * n + 4 * (n % 2), "n={n}");
        run = run.amended(2 * n as u64, -1).unwrap();
    }
    let empty = DeltaRun::singleton(3u32, 1).amended(3, -1).unwrap();
    assert_eq!((empty.size_bytes(), empty.entry_count()), (0, 0));
}
