//! The store's only merge code: three primitives over sorted slices.
//!
//! The learned layer under a shard is read-only and rebuilt by one linear
//! pass over a sorted key column, so everything the store does to stay
//! updatable is one step — fold sorted `(key, ±n)` deltas, splice them
//! into a sorted column — written here once, as three plain functions:
//!
//! * [`consolidate`] — any number of `(key, net)` sources, concatenated,
//!   become **one** run sorted strictly by key, equal keys summed, zero
//!   nets dropped. The sort is `std`'s stable, run-adaptive one: `k`
//!   already-sorted sources cost `O(n log k)`, a single one `O(n)`.
//! * [`splice`] — one consolidated run into one sorted column (duplicates
//!   allowed): every stretch between two net keys is copied in bulk, and
//!   only a net key's own duplicate run is rewritten, to `run + net`
//!   occurrences (clamped at zero — the write path never records a
//!   tombstone for an occurrence that is not there).
//! * [`fold_ops`] — ordered insert/delete operations against a base-count
//!   lookup, with the write path's semantics (a delete removes one
//!   occurrence when the key has one by its turn, else it is a no-op), to
//!   a consolidated run plus the number of operations that took effect.
//!
//! [`run_lengths`] and [`count_in`] adapt a sorted column to those three.
//! Callers — every merge the store performs:
//!
//! | caller | uses |
//! |--------|------|
//! | `DeltaChain::{merge_into, merge_range}` — rebuild, split, merge, checkpoint and scan views, behind `ShardState::{merged_view, merged_keys, merged_range_keys}` | `consolidate`, `splice` |
//! | `DeltaChain::compact` | `consolidate` |
//! | `versions::diff_cuts` (`scan_between`): `consolidate(b ∪ −a)` over chain nets or column run lengths | `consolidate`, `run_lengths` |
//! | `txn::overlay_scan` (read-your-writes scans) | `fold_ops`, `splice`, `count_in` |
//! | `persist::recovery` (WAL-tail replay, per shard) | `fold_ops`, `splice`, `count_in` |
//!
//! `DeltaRun::amended`, the ≤ 32-entry copy on the hot write path, stays
//! outside: it adds one operation to one run and never merges two, writing
//! the copy's key and cumulative columns straight into one new buffer (and
//! declining, so the write opens a fresh run, when a cumulative would leave
//! `i32`).

use crate::batch::BatchOp;
use sosd_data::key::Key;

/// Concatenate `(key, net)` sources into one run: sorted strictly by key,
/// equal keys summed, zero nets dropped. The sources may arrive in any
/// order; sorted ones make the sort linear.
pub(crate) fn consolidate<K: Key>(nets: impl IntoIterator<Item = (K, i64)>) -> Vec<(K, i64)> {
    let mut nets: Vec<(K, i64)> = nets.into_iter().collect();
    nets.sort_by_key(|&(k, _)| k);
    // Fold in place: `nets[..len]` is the consolidated prefix, whose last
    // slot may still sum to zero until its key's group ends.
    let mut len = 0usize;
    for i in 0..nets.len() {
        let (k, n) = nets[i];
        if len > 0 && nets[len - 1].0 == k {
            nets[len - 1].1 += n;
            continue;
        }
        if len > 0 && nets[len - 1].1 == 0 {
            len -= 1;
        }
        nets[len] = (k, n);
        len += 1;
    }
    if len > 0 && nets[len - 1].1 == 0 {
        len -= 1;
    }
    nets.truncate(len);
    nets
}

/// Splice a consolidated run (the output of [`consolidate`] or
/// [`fold_ops`]) into the sorted column `base`, returning the new sorted
/// column. Cost is one bulk copy of `base` plus `O(log gap)` per net key.
pub(crate) fn splice<K: Key>(base: &[K], nets: &[(K, i64)]) -> Vec<K> {
    let grown: i64 = nets.iter().map(|&(_, n)| n).sum();
    let mut out = Vec::with_capacity((base.len() as i64 + grown).max(0) as usize);
    let mut rest = base;
    for &(k, n) in nets {
        let below = gallop(rest, |x| x < k);
        out.extend_from_slice(&rest[..below]);
        rest = &rest[below..];
        let run = gallop(rest, |x| x == k);
        rest = &rest[run..];
        let total = run as i64 + n;
        debug_assert!(total >= 0, "tombstones exceed the key's occurrences");
        out.extend(std::iter::repeat_n(k, total.max(0) as usize));
    }
    out.extend_from_slice(rest);
    debug_assert!(out.is_sorted());
    out
}

/// Length of the prefix of `sorted` on which `pred` holds (`pred` must be
/// true on a prefix and false after it), found by doubling steps from the
/// front: `O(log answer)` probes, all near the front. A plain binary search
/// per net key misses the cache ~`log n` times on a multi-MiB column, where
/// the next net key is typically a few hundred keys ahead and a key's own
/// run a few long.
fn gallop<K: Key>(sorted: &[K], pred: impl Fn(K) -> bool) -> usize {
    let (mut lo, mut step) = (0usize, 1usize);
    while lo + step <= sorted.len() && pred(sorted[lo + step - 1]) {
        lo += step;
        step *= 2;
    }
    let end = (lo + step - 1).min(sorted.len());
    lo + sorted[lo..end].partition_point(|&x| pred(x))
}

/// Fold `ops` — in application order — to a consolidated run, given the
/// occurrence count each key starts from: an insert adds one occurrence; a
/// delete removes one when the key holds any by its turn and is a no-op
/// otherwise. Returns the run and how many operations took effect (every
/// insert, every delete that removed something — a pair that cancels still
/// counts twice). `base_count` is asked once per distinct key.
pub(crate) fn fold_ops<K: Key>(
    mut ops: Vec<BatchOp<K>>,
    base_count: impl Fn(K) -> usize,
) -> (Vec<(K, i64)>, usize) {
    // Stable: the operations on one key keep their order.
    ops.sort_by_key(BatchOp::key);
    let mut nets = Vec::new();
    let mut applied = 0usize;
    for group in ops.chunk_by(|a, b| a.key() == b.key()) {
        let k = group[0].key();
        let base = base_count(k) as i64;
        let mut count = base;
        for op in group {
            match op {
                BatchOp::Insert(_) => count += 1,
                BatchOp::Delete(_) if count > 0 => count -= 1,
                BatchOp::Delete(_) => continue,
            }
            applied += 1;
        }
        if count != base {
            nets.push((k, count - base));
        }
    }
    (nets, applied)
}

/// The sorted column `keys` as `(key, sign × occurrences)` pairs, one per
/// distinct key — what [`consolidate`] diffs two columns with. The column
/// is held (borrowed or owned) only while the iterator lives.
pub(crate) fn run_lengths<K: Key>(
    keys: impl AsRef<[K]>,
    sign: i64,
) -> impl Iterator<Item = (K, i64)> {
    let mut next = 0usize;
    std::iter::from_fn(move || {
        let keys = keys.as_ref();
        let &k = keys.get(next)?;
        let run = keys[next..].iter().take_while(|&&x| x == k).count();
        next += run;
        Some((k, sign * run as i64))
    })
}

/// Occurrences of `k` in the sorted column `sorted`.
pub(crate) fn count_in<K: Key>(sorted: &[K], k: K) -> usize {
    let start = sorted.partition_point(|&x| x < k);
    sorted[start..].partition_point(|&x| x == k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sosd_data::prelude::*;
    use std::collections::BTreeMap;

    /// Keys per generated column: Miri interprets every comparison.
    const N: usize = if cfg!(miri) { 48 } else { 1_500 };

    /// The reference: a `BTreeMap` multiset with the store's semantics.
    #[derive(Default)]
    struct Multiset(BTreeMap<u64, usize>);

    impl Multiset {
        fn of(keys: &[u64]) -> Self {
            let mut m = Self::default();
            for &k in keys {
                m.apply(BatchOp::Insert(k));
            }
            m
        }

        fn apply(&mut self, op: BatchOp<u64>) -> bool {
            match op {
                BatchOp::Insert(k) => *self.0.entry(k).or_insert(0) += 1,
                BatchOp::Delete(k) => match self.0.get_mut(&k) {
                    Some(c) if *c > 1 => *c -= 1,
                    Some(_) => drop(self.0.remove(&k)),
                    None => return false,
                },
            }
            true
        }

        fn column(&self) -> Vec<u64> {
            let copies = |(&k, &c): (&u64, &usize)| std::iter::repeat_n(k, c);
            self.0.iter().flat_map(copies).collect()
        }
    }

    /// Ops over `base` covering every shape a tail can take: duplicate
    /// inserts, deletes of present and absent keys, insert-then-delete and
    /// delete-then-insert of one key, keys outside the base's range.
    fn mixed_ops(base: &[u64], count: usize, rng: &mut SplitMix64) -> Vec<BatchOp<u64>> {
        let pick = |rng: &mut SplitMix64| match base.is_empty() {
            true => rng.next_below(50),
            false => base[rng.next_below(base.len() as u64) as usize],
        };
        let mut ops = Vec::new();
        while ops.len() < count {
            let k = pick(rng);
            match rng.next_below(8) {
                0 => ops.extend([BatchOp::Insert(k), BatchOp::Insert(k)]),
                1 => ops.push(BatchOp::Delete(k)),
                2 => ops.push(BatchOp::Delete(k.wrapping_add(1))),
                3 => ops.extend([BatchOp::Insert(k ^ 1), BatchOp::Delete(k ^ 1)]),
                4 => ops.extend([BatchOp::Delete(k), BatchOp::Insert(k)]),
                5 => ops.push(BatchOp::Insert(rng.next_below(u64::MAX))),
                6 => ops.extend([BatchOp::Delete(k); 3]),
                _ => ops.push(BatchOp::Insert(k)),
            }
        }
        ops
    }

    #[test]
    fn fold_then_splice_equals_the_multiset_oracle_on_every_generator() {
        let mut rng = SplitMix64::new(0x5EED_0017);
        for name in SosdName::all() {
            let d: Dataset<u64> = name.generate(N, 11);
            let base = d.as_slice();
            let ops = mixed_ops(base, N / 2, &mut rng);
            // Replay on the oracle, noting `(key, ±1)` per op that took
            // effect, dealt round-robin into three unordered sources.
            let mut oracle = Multiset::of(base);
            let mut sources = vec![Vec::new(); 3];
            for (i, &op) in ops.iter().enumerate() {
                if oracle.apply(op) {
                    sources[i % 3].push(match op {
                        BatchOp::Insert(k) => (k, 1),
                        BatchOp::Delete(k) => (k, -1),
                    });
                }
            }
            let took_effect: usize = sources.iter().map(Vec::len).sum();

            let (nets, applied) = fold_ops(ops, |k| count_in(base, k));
            assert_eq!(applied, took_effect, "{name}: ops that took effect");
            assert!(nets.windows(2).all(|w| w[0].0 < w[1].0), "{name}: sorted");
            assert!(nets.iter().all(|&(_, n)| n != 0), "{name}: zeros dropped");
            assert_eq!(splice(base, &nets), oracle.column(), "{name}: column");
            assert_eq!(consolidate(sources.concat()), nets, "{name}: consolidate");

            // Diffing the two columns recovers the nets too.
            let after = oracle.column();
            let diff = consolidate(run_lengths(&after, 1).chain(run_lengths(base, -1)));
            assert_eq!(diff, nets, "{name}: column diff");
        }
    }

    #[test]
    fn edge_shapes() {
        // Empty base: only inserts can take effect.
        let ops = vec![
            BatchOp::Delete(3u64),
            BatchOp::Insert(3),
            BatchOp::Insert(1),
        ];
        let (nets, applied) = fold_ops(ops, |_| 0);
        assert_eq!((nets.as_slice(), applied), (&[(1, 1), (3, 1)][..], 2));
        assert_eq!(splice(&[], &nets), vec![1, 3]);
        // Empty nets: the column passes through.
        assert_eq!(splice(&[4u64, 4, 9], &[]), vec![4, 4, 9]);
        assert_eq!(splice::<u64>(&[], &[]), Vec::<u64>::new());
        assert_eq!(fold_ops(Vec::<BatchOp<u64>>::new(), |_| 7), (vec![], 0));
        // A run tombstoned entirely disappears; its neighbours stay.
        assert_eq!(splice(&[1u64, 5, 5, 5, 8], &[(5, -3)]), vec![1, 8]);
        // Net keys below and above every base key, and the largest key.
        let nets = [(0u64, 2), (7, 1), (u64::MAX, 1)];
        assert_eq!(splice(&[3, 4], &nets), vec![0, 0, 3, 4, 7, u64::MAX]);
        let nets = [(u32::MAX, -1)];
        assert_eq!(
            splice(&[9u32, u32::MAX, u32::MAX], &nets),
            vec![9, u32::MAX]
        );
        assert_eq!(count_in(&[9u32, u32::MAX, u32::MAX], u32::MAX), 2);
        assert_eq!(count_in::<u64>(&[], 1), 0);
        // A delete floors at zero however many follow; a cancelled pair
        // leaves no net but still counts as two applied operations.
        let (nets, applied) = fold_ops(vec![BatchOp::Delete(5u64); 4], |_| 2);
        assert_eq!((nets, applied), (vec![(5, -2)], 2));
        let pair = vec![BatchOp::Insert(5u64), BatchOp::Delete(5)];
        assert_eq!(fold_ops(pair, |_| 0), (vec![], 2));
        // Consolidation drops a key whose sum passes through zero only at
        // the end of its group, and keeps one that merely touches it.
        let touched = [(4u64, 1), (4, -1), (4, 2), (6, 1), (6, -1)];
        assert_eq!(consolidate(touched), vec![(4, 2)]);
        assert_eq!(consolidate(Vec::<(u64, i64)>::new()), vec![]);
        // The bounded form the scan path uses: inverted bounds fold nothing.
        let chain = crate::delta::DeltaChain::new().with_op(5u64, 1, 4);
        assert_eq!(chain.merge_range(&[], 10, 1), Vec::<u64>::new());
        assert_eq!(chain.merge_range(&[5], 5, 5), vec![5, 5]);
    }

    #[test]
    fn galloping_finds_every_boundary() {
        let column: Vec<u64> = (0..40u64).flat_map(|k| [k * 2; 3]).collect();
        for q in 0..=81u64 {
            let expect = column.partition_point(|&x| x < q);
            assert_eq!(gallop(&column, |x| x < q), expect, "q={q}");
            assert_eq!(gallop(&column[expect..], |x| x == q), count_in(&column, q));
        }
        assert_eq!(gallop::<u64>(&[], |_| true), 0);
    }

    /// The version diff over two chains of one base: `consolidate(b ∪ −a)`.
    #[test]
    fn net_runs_subtract_per_key() {
        let a = vec![(2u64, 1i64), (5, -1), (9, 2)];
        let b = vec![(2u64, 1i64), (7, 3), (9, 1)];
        let negated = |run: &[(u64, i64)]| run.iter().map(|&(k, n)| (k, -n)).collect::<Vec<_>>();
        // 2 cancels, 5's −1 reverts to +1, 7 appears, 9 shrinks by 1.
        let diff = consolidate(b.iter().copied().chain(negated(&a)));
        assert_eq!(diff, vec![(5, 1), (7, 3), (9, -1)]);
        assert_eq!(consolidate(b.clone()), b, "empty a passes b through");
        assert_eq!(
            consolidate(negated(&a)),
            vec![(2, -1), (5, 1), (9, -2)],
            "empty b negates a"
        );
    }

    /// The version diff over two rebuilt bases: run lengths, subtracted.
    #[test]
    fn columns_diff_by_occurrence_count() {
        let a = vec![1u64, 4, 4, 4, 9, 12];
        let b = vec![1u64, 4, 4, 7, 12, 12];
        let diff = |a: &[u64], b: &[u64]| consolidate(run_lengths(b, 1).chain(run_lengths(a, -1)));
        assert_eq!(diff(&a, &b), vec![(4, -1), (7, 1), (9, -1), (12, 1)]);
        assert_eq!(diff(&[], &[3, 3]), vec![(3, 2)]);
        assert_eq!(diff(&[3, 3], &[]), vec![(3, -2)]);
        // An owned column is held by the iterator itself.
        assert_eq!(
            run_lengths(vec![8u64, 8, 9], -1).collect::<Vec<_>>(),
            [(8, -2), (9, -1)]
        );
    }
}
