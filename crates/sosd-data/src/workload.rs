//! Query workload generators.
//!
//! The SOSD benchmark (and §4 of the paper) measures lookup latency for
//! queries sampled uniformly from the *indexed keys*. This module provides
//! that workload plus three extensions used by the tests and ablations:
//! domain-uniform queries, non-indexed ("miss") queries, and hot-range
//! (skewed) queries — and, for the updatable store layer, [`MixedWorkload`]:
//! reproducible read-heavy and insert-heavy read/write traces over a
//! dataset's key domain.

use crate::dataset::Dataset;
use crate::key::Key;
use crate::rng::Xoshiro256;

/// Which distribution the query keys are drawn from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Uniformly sampled existing keys (the SOSD/paper default).
    UniformKeys,
    /// Uniformly sampled values from `[min_key, max_key]`; may or may not be
    /// indexed.
    UniformDomain,
    /// Values that are guaranteed *not* to be indexed keys (gap midpoints),
    /// exercising §3.1's non-indexed-key handling.
    NonIndexed,
    /// 90% of the queries fall into a contiguous 10% slice of the key space
    /// (a simple hot-range skew).
    HotRange,
}

/// A reproducible batch of lookup queries together with their ground-truth
/// lower-bound positions.
#[derive(Debug, Clone)]
pub struct Workload<K: Key> {
    kind: WorkloadKind,
    queries: Vec<K>,
    expected: Vec<usize>,
}

impl<K: Key> Workload<K> {
    /// Queries sampled uniformly from the indexed keys (paper default).
    pub fn uniform_keys(dataset: &Dataset<K>, count: usize, seed: u64) -> Self {
        let mut rng = Xoshiro256::new(seed);
        let n = dataset.len();
        let mut queries = Vec::with_capacity(count);
        if n > 0 {
            for _ in 0..count {
                let i = rng.next_below(n as u64) as usize;
                queries.push(dataset.key_at(i));
            }
        }
        Self::finish(WorkloadKind::UniformKeys, queries, dataset)
    }

    /// Queries sampled uniformly from the key domain `[min, max]`.
    pub fn uniform_domain(dataset: &Dataset<K>, count: usize, seed: u64) -> Self {
        let mut rng = Xoshiro256::new(seed);
        let mut queries = Vec::with_capacity(count);
        if let (Some(min), Some(max)) = (dataset.min_key(), dataset.max_key()) {
            let (lo, hi) = (min.to_u64(), max.to_u64());
            for _ in 0..count {
                queries.push(K::from_u64_saturating(rng.next_in_range(lo, hi)));
            }
        }
        Self::finish(WorkloadKind::UniformDomain, queries, dataset)
    }

    /// Queries guaranteed to miss: midpoints of gaps between consecutive keys.
    /// Falls back to key queries when the data has no usable gap (e.g. dense
    /// consecutive integers).
    pub fn non_indexed(dataset: &Dataset<K>, count: usize, seed: u64) -> Self {
        let mut rng = Xoshiro256::new(seed);
        let keys = dataset.as_slice();
        let mut queries = Vec::with_capacity(count);
        if keys.len() >= 2 {
            let mut attempts = 0usize;
            while queries.len() < count && attempts < count * 20 {
                attempts += 1;
                let i = rng.next_below((keys.len() - 1) as u64) as usize;
                let (a, b) = (keys[i].to_u64(), keys[i + 1].to_u64());
                if b > a + 1 {
                    let mid = a + (b - a) / 2;
                    queries.push(K::from_u64_saturating(mid));
                }
            }
        }
        // Fallback: if the dataset is perfectly dense there are no misses.
        while queries.len() < count && !keys.is_empty() {
            let i = rng.next_below(keys.len() as u64) as usize;
            queries.push(keys[i]);
        }
        Self::finish(WorkloadKind::NonIndexed, queries, dataset)
    }

    /// Skewed workload: 90% of queries from a contiguous 10% of positions.
    pub fn hot_range(dataset: &Dataset<K>, count: usize, seed: u64) -> Self {
        let mut rng = Xoshiro256::new(seed);
        let n = dataset.len();
        let mut queries = Vec::with_capacity(count);
        if n > 0 {
            let hot_len = (n / 10).max(1);
            let hot_start = rng.next_below((n - hot_len + 1) as u64) as usize;
            for _ in 0..count {
                let i = if rng.next_f64() < 0.9 {
                    hot_start + rng.next_below(hot_len as u64) as usize
                } else {
                    rng.next_below(n as u64) as usize
                };
                queries.push(dataset.key_at(i));
            }
        }
        Self::finish(WorkloadKind::HotRange, queries, dataset)
    }

    fn finish(kind: WorkloadKind, queries: Vec<K>, dataset: &Dataset<K>) -> Self {
        let expected = queries.iter().map(|&q| dataset.lower_bound(q)).collect();
        Self {
            kind,
            queries,
            expected,
        }
    }

    /// The kind of workload.
    #[inline]
    pub fn kind(&self) -> WorkloadKind {
        self.kind
    }

    /// The query keys.
    #[inline]
    pub fn queries(&self) -> &[K] {
        &self.queries
    }

    /// Ground-truth lower-bound position for each query (parallel to
    /// [`Self::queries`]).
    #[inline]
    pub fn expected(&self) -> &[usize] {
        &self.expected
    }

    /// Number of queries.
    #[inline]
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// True if the workload has no queries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Iterate `(query, expected_lower_bound)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (K, usize)> + '_ {
        self.queries
            .iter()
            .copied()
            .zip(self.expected.iter().copied())
    }
}

/// One operation of a mixed read/write trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MixedOp<K: Key> {
    /// Point lower-bound lookup.
    Lookup(K),
    /// Insert one occurrence of the key.
    Insert(K),
    /// Delete one occurrence of the key (a no-op when absent).
    Delete(K),
    /// Range query `lo <= key <= hi`.
    Range(K, K),
}

/// Which trace shape a [`MixedWorkload`] was generated from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MixedKind {
    /// 90% lookups, 5% inserts, 3% deletes, 2% ranges — a serving cache in
    /// front of a mostly-static corpus.
    ReadHeavy,
    /// 50% inserts, 10% deletes, 35% lookups, 5% ranges — ingest-dominated.
    InsertHeavy,
}

/// A reproducible mixed read/write trace over a dataset's key domain.
///
/// The trace carries operations only (no ground truth): the truth of an
/// updatable store depends on every preceding write, so consumers replay the
/// trace against the store and an oracle side by side (as the store's
/// property tests do) or just measure it (as the examples and the store's
/// metrics-overhead gate do).
#[derive(Debug, Clone)]
pub struct MixedWorkload<K: Key> {
    kind: MixedKind,
    ops: Vec<MixedOp<K>>,
}

impl<K: Key> MixedWorkload<K> {
    /// Read-heavy trace (see [`MixedKind::ReadHeavy`]).
    pub fn read_heavy(dataset: &Dataset<K>, count: usize, seed: u64) -> Self {
        Self::generate(dataset, count, seed, MixedKind::ReadHeavy)
    }

    /// Insert-heavy trace (see [`MixedKind::InsertHeavy`]).
    pub fn insert_heavy(dataset: &Dataset<K>, count: usize, seed: u64) -> Self {
        Self::generate(dataset, count, seed, MixedKind::InsertHeavy)
    }

    fn generate(dataset: &Dataset<K>, count: usize, seed: u64, kind: MixedKind) -> Self {
        let mut rng = Xoshiro256::new(seed);
        let (lo, hi) = match (dataset.min_key(), dataset.max_key()) {
            (Some(min), Some(max)) => (min.to_u64(), max.to_u64()),
            _ => (0, u64::MAX / 2),
        };
        let span = hi.saturating_sub(lo).max(1);
        let draw_key =
            |rng: &mut Xoshiro256| -> K { K::from_u64_saturating(lo + rng.next_below(span)) };
        let (insert_pct, delete_pct, range_pct) = match kind {
            MixedKind::ReadHeavy => (5, 3, 2),
            MixedKind::InsertHeavy => (50, 10, 5),
        };
        let mut ops = Vec::with_capacity(count);
        for _ in 0..count {
            let roll = rng.next_below(100);
            let op = if roll < insert_pct {
                MixedOp::Insert(draw_key(&mut rng))
            } else if roll < insert_pct + delete_pct {
                // Bias deletes towards keys that exist (sampled from the
                // base) so they are not all no-ops.
                let k = if !dataset.is_empty() && rng.next_below(4) != 0 {
                    dataset.key_at(rng.next_below(dataset.len() as u64) as usize)
                } else {
                    draw_key(&mut rng)
                };
                MixedOp::Delete(k)
            } else if roll < insert_pct + delete_pct + range_pct {
                // Short scans: a span of ~0.1% of the domain.
                let a = draw_key(&mut rng);
                let b = K::from_u64_saturating(a.to_u64().saturating_add(span / 1000));
                MixedOp::Range(a.min(b), a.max(b))
            } else {
                MixedOp::Lookup(draw_key(&mut rng))
            };
            ops.push(op);
        }
        Self { kind, ops }
    }

    /// The trace shape this workload was generated from.
    #[inline]
    pub fn kind(&self) -> MixedKind {
        self.kind
    }

    /// The operations, in replay order.
    #[inline]
    pub fn ops(&self) -> &[MixedOp<K>] {
        &self.ops
    }

    /// Number of operations.
    #[inline]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if the trace is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Operation counts as `(lookups, inserts, deletes, ranges)`.
    pub fn op_counts(&self) -> (usize, usize, usize, usize) {
        let mut c = (0usize, 0usize, 0usize, 0usize);
        for op in &self.ops {
            match op {
                MixedOp::Lookup(_) => c.0 += 1,
                MixedOp::Insert(_) => c.1 += 1,
                MixedOp::Delete(_) => c.2 += 1,
                MixedOp::Range(_, _) => c.3 += 1,
            }
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::SosdName;

    fn dataset() -> Dataset<u64> {
        SosdName::Face64.generate(20_000, 1)
    }

    #[test]
    fn uniform_keys_only_contains_indexed_keys() {
        let d = dataset();
        let w = Workload::uniform_keys(&d, 500, 3);
        assert_eq!(w.len(), 500);
        assert_eq!(w.kind(), WorkloadKind::UniformKeys);
        for (q, pos) in w.iter() {
            assert_eq!(
                d.key_at(pos),
                q,
                "expected position must hold the key itself"
            );
        }
    }

    #[test]
    fn expected_positions_are_lower_bounds() {
        let d = dataset();
        for w in [
            Workload::uniform_keys(&d, 200, 1),
            Workload::uniform_domain(&d, 200, 2),
            Workload::non_indexed(&d, 200, 3),
            Workload::hot_range(&d, 200, 4),
        ] {
            for (q, pos) in w.iter() {
                assert_eq!(pos, d.lower_bound(q));
                if pos < d.len() {
                    assert!(d.key_at(pos) >= q);
                }
                if pos > 0 {
                    assert!(d.key_at(pos - 1) < q);
                }
            }
        }
    }

    #[test]
    fn non_indexed_queries_miss() {
        let d = dataset();
        let w = Workload::non_indexed(&d, 300, 9);
        assert_eq!(w.len(), 300);
        let missing = w
            .queries()
            .iter()
            .filter(|&&q| d.equal_range(q).is_empty())
            .count();
        assert!(
            missing as f64 > 0.9 * w.len() as f64,
            "most non-indexed queries should miss, only {missing} did"
        );
    }

    #[test]
    fn hot_range_is_skewed() {
        let d = dataset();
        let w = Workload::hot_range(&d, 2_000, 5);
        // The most popular decile of positions should receive far more than
        // 10% of the queries.
        let n = d.len();
        let mut decile_counts = [0usize; 10];
        for &pos in w.expected() {
            decile_counts[(pos * 10 / n).min(9)] += 1;
        }
        let max = *decile_counts.iter().max().unwrap();
        assert!(
            max as f64 > 0.5 * w.len() as f64,
            "hot decile only got {max} of {} queries",
            w.len()
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let d = dataset();
        let a = Workload::uniform_keys(&d, 100, 42);
        let b = Workload::uniform_keys(&d, 100, 42);
        let c = Workload::uniform_keys(&d, 100, 43);
        assert_eq!(a.queries(), b.queries());
        assert_ne!(a.queries(), c.queries());
    }

    #[test]
    fn empty_dataset_yields_empty_workload() {
        let d: Dataset<u64> = Dataset::from_keys("e", vec![]);
        assert!(Workload::uniform_keys(&d, 10, 1).is_empty());
        assert!(Workload::uniform_domain(&d, 10, 1).is_empty());
        assert!(Workload::non_indexed(&d, 10, 1).is_empty());
        assert!(Workload::hot_range(&d, 10, 1).is_empty());
    }

    #[test]
    fn mixed_workloads_have_the_advertised_shape() {
        let d = dataset();
        let read = MixedWorkload::read_heavy(&d, 10_000, 7);
        assert_eq!(read.len(), 10_000);
        assert_eq!(read.kind(), MixedKind::ReadHeavy);
        let (lookups, inserts, deletes, ranges) = read.op_counts();
        assert_eq!(lookups + inserts + deletes + ranges, 10_000);
        assert!(
            lookups > 8_500,
            "read-heavy must be ~90% lookups: {lookups}"
        );
        assert!(inserts > 100 && deletes > 100 && ranges > 50);

        let write = MixedWorkload::insert_heavy(&d, 10_000, 7);
        let (w_lookups, w_inserts, ..) = write.op_counts();
        assert!(
            w_inserts > 4_500,
            "insert-heavy must be ~50% inserts: {w_inserts}"
        );
        assert!(w_inserts > w_lookups);
    }

    #[test]
    fn mixed_traces_are_deterministic_per_seed() {
        let d = dataset();
        let a = MixedWorkload::insert_heavy(&d, 500, 42);
        let b = MixedWorkload::insert_heavy(&d, 500, 42);
        let c = MixedWorkload::insert_heavy(&d, 500, 43);
        assert_eq!(a.ops(), b.ops());
        assert_ne!(a.ops(), c.ops());
    }

    #[test]
    fn mixed_workload_on_empty_dataset_is_usable() {
        let d: Dataset<u64> = Dataset::from_keys("e", vec![]);
        let w = MixedWorkload::read_heavy(&d, 100, 1);
        assert_eq!(w.len(), 100);
        // No deletes can be base-biased; all ops must still be well-formed.
        for op in w.ops() {
            if let MixedOp::Range(lo, hi) = op {
                assert!(lo <= hi);
            }
        }
    }

    #[test]
    fn dense_data_non_indexed_falls_back() {
        // Dense consecutive integers have no gaps to place misses in.
        let d = Dataset::from_keys("dense", (0u64..1000).collect::<Vec<_>>());
        let w = Workload::non_indexed(&d, 50, 1);
        assert_eq!(w.len(), 50);
    }
}
