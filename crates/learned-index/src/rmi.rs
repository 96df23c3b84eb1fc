//! Recursive Model Index (RMI): the paper's "RMI" learned-index baseline.
//!
//! A two-level RMI: a root model partitions the key space over `L` leaf
//! models; each leaf is a least-squares line fitted to the keys routed to it.
//! SOSD hand-tunes the architecture per dataset; here [`RmiBuilder::tuned`]
//! performs the equivalent sweep over leaf counts and keeps the
//! configuration with the smallest mean log2 error — the metric SOSD uses to
//! pick architectures.
//!
//! As the paper notes in §3.8, an RMI is *not* in general a monotone
//! model: where two leaves meet, the left one's line may predict past the
//! right one's first key. This one never decreases, over every key and not
//! only the trained ones. Its root never falls (a line of slope ≥ 0, or a
//! [`CubicModel`], which is non-decreasing by construction), so each leaf
//! is routed one contiguous run of keys, at positions `lo_j..lo_{j+1}`.
//! A leaf keeps its least-squares line but clamps what it predicts to
//! `[lo_j, max(lo_j, lo_{j+1} − 1)]`, the positions its keys occupy (an
//! empty leaf predicts `lo_j`), so a leaf's predictions never pass the
//! next one's. The clamp only moves a key toward its own run, so it never
//! raises a trained key's error; it costs one `u32` per leaf.
//!
//! ## Training cost
//!
//! `O(n + L)` time for `n` keys and `L` leaves, two passes over the keys and
//! one leaf evaluation per key. Both passes walk *leaf stretches* — maximal
//! runs of consecutive keys routed to one leaf — found by galloping, so the
//! root is evaluated `O(log len)` times a stretch. The first pass adds each
//! stretch to its leaf's least-squares sums and records where it starts,
//! the leaves are solved from the sums, and the audit pass predicts every
//! key from its leaf once, measuring the error bound. Scratch is `40L`
//! bytes of sums; the audit's `4n` bytes of clamped predictions are the
//! result [`RmiBuilder::build_with_predictions`] hands back, so a
//! Shift-Table built from them evaluates no model. Empty leaves cost
//! nothing, so sparse configurations (most of a [`RmiBuilder::tuned`] sweep
//! on clustered data) train as fast as dense ones.

use crate::cubic::CubicModel;
use crate::linear::{truncate_clamped, LinearModel};
use crate::model::CdfModel;
use sosd_data::dataset::Dataset;
use sosd_data::key::Key;
use std::ops::Range;

/// Which model family the RMI root uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RootModelKind {
    /// Least-squares straight line (fast).
    #[default]
    Linear,
    /// Cubic polynomial (better for S-shaped CDFs; a line where the fitted
    /// cubic would turn, see [`CubicModel`]).
    Cubic,
}

/// Builder for [`RmiIndex`].
#[derive(Debug, Clone)]
pub struct RmiBuilder {
    leaf_count: usize,
    root: RootModelKind,
}

impl Default for RmiBuilder {
    fn default() -> Self {
        Self {
            leaf_count: 1024,
            root: RootModelKind::Linear,
        }
    }
}

impl RmiBuilder {
    /// Number of second-level (leaf) models.
    pub fn leaf_count(mut self, count: usize) -> Self {
        self.leaf_count = count.max(1);
        self
    }

    /// Root model family.
    pub fn root_model(mut self, kind: RootModelKind) -> Self {
        self.root = kind;
        self
    }

    /// Build the RMI over a dataset.
    pub fn build<K: Key>(self, dataset: &Dataset<K>) -> RmiIndex {
        self.build_from_sorted_keys(dataset.as_slice())
    }

    /// Build the RMI over a sorted key slice.
    pub fn build_from_sorted_keys<K: Key>(self, keys: &[K]) -> RmiIndex {
        self.build_with_predictions(keys).0
    }

    /// Build the RMI over a sorted key slice and return, beside it, the
    /// clamped prediction of every key: `predictions[i] ==
    /// predict_clamped(keys[i])`. The audit computes them anyway, so a layer
    /// builder handed them evaluates no model at all. Positions are narrowed
    /// to `u32`, as [`CdfModel::predict_clamped_into`]'s are.
    pub fn build_with_predictions<K: Key>(self, keys: &[K]) -> (RmiIndex, Vec<u32>) {
        let n = keys.len();
        if n == 0 {
            let empty = RmiIndex {
                root: RootModel::Linear(LinearModel::fit(std::iter::empty(), 0)),
                leaves: Vec::new(),
                lo: Vec::new(),
                n: 0,
                max_error: 0,
            };
            return (empty, Vec::new());
        }
        let leaf_count = self.leaf_count.min(n).max(1);

        // 1. Fit the root over the whole data.
        let root = match self.root {
            RootModelKind::Linear => RootModel::Linear(LinearModel::from_sorted_keys(keys)),
            RootModelKind::Cubic => RootModel::Cubic(CubicModel::from_sorted_keys(keys)),
        };

        // 2. One walk over the leaf stretches: a stretch's keys are added to
        //    its leaf's least-squares sums in registers — the additions a
        //    per-key pass makes, in the same order, so the same bits. The
        //    root never falls, so leaves come one stretch each and in order:
        //    a stretch's first position is its leaf's `lo`, and that of the
        //    empty leaves before it. Empty leaves past the last key start at
        //    `n`.
        let mut sums = vec![LeafSums::default(); leaf_count];
        let mut lo = Vec::with_capacity(leaf_count);
        for (leaf, stretch) in Stretches::new(&root, n, leaf_count, keys) {
            debug_assert!(lo.len() <= leaf, "leaves come in order");
            lo.resize(leaf + 1, stretch.start as u32);
            let mut leaf_sums = LeafSums::default();
            for (i, k) in stretch.clone().zip(&keys[stretch]) {
                leaf_sums.add(k.to_f64(), i as f64);
            }
            sums[leaf] = leaf_sums;
        }
        lo.resize(leaf_count, n as u32);

        // 3. Solve every leaf from its sums. An empty leaf reuses the
        //    previous leaf's model so predictions remain sensible (a
        //    constant for the very first leaf).
        let mut leaves: Vec<LinearModel> = Vec::with_capacity(leaf_count);
        for s in &sums {
            let model = match (s.count, leaves.last()) {
                (0, Some(prev)) => prev.clone(),
                _ => s.solve(n),
            };
            leaves.push(model);
        }

        // 4. The audit walks the stretches again: every key's clamped
        //    prediction, from its leaf, into the buffer the caller gets,
        //    and the error bound from it.
        let mut rmi = RmiIndex {
            root,
            leaves,
            lo,
            n,
            max_error: 0,
        };
        let mut predictions = vec![0u32; n];
        for (leaf, stretch) in Stretches::new(&rmi.root, n, leaf_count, keys) {
            let out = &mut predictions[stretch.clone()];
            rmi.predict_stretch(leaf, &keys[stretch.clone()], out);
            rmi.max_error = stretch
                .zip(out.iter())
                .map(|(i, &p)| i.abs_diff(p as usize))
                .fold(rmi.max_error, usize::max);
        }
        (rmi, predictions)
    }

    /// SOSD-style tuning: sweep leaf counts (and root kinds) and keep the
    /// configuration with the lowest mean log2 error on the training keys.
    pub fn tuned<K: Key>(dataset: &Dataset<K>, leaf_counts: &[usize]) -> RmiIndex {
        let mut best: Option<(f64, RmiIndex)> = None;
        for &lc in leaf_counts {
            for root in [RootModelKind::Linear, RootModelKind::Cubic] {
                let rmi = RmiBuilder::default()
                    .leaf_count(lc)
                    .root_model(root)
                    .build(dataset);
                let err = crate::error::ModelErrorStats::compute(&rmi, dataset).mean_log2;
                if best.as_ref().map(|(e, _)| err < *e).unwrap_or(true) {
                    best = Some((err, rmi));
                }
            }
        }
        best.map(|(_, rmi)| rmi)
            .unwrap_or_else(|| RmiBuilder::default().build(dataset))
    }
}

/// The least-squares sums of one leaf: `(key, global position)` pairs are
/// added as they stream by and the line is solved at the end.
#[derive(Debug, Clone, Copy, Default)]
struct LeafSums {
    count: usize,
    x: f64,
    y: f64,
    xx: f64,
    xy: f64,
}

impl LeafSums {
    #[inline]
    fn add(&mut self, x: f64, y: f64) {
        self.count += 1;
        self.x += x;
        self.y += y;
        self.xx += x * x;
        self.xy += x * y;
    }

    /// The fitted line; `n` is the total record count predictions will
    /// later be clamped to.
    fn solve(&self, n: usize) -> LinearModel {
        if self.count == 0 {
            return LinearModel::fit(std::iter::empty(), 0);
        }
        let nf = self.count as f64;
        let denom = nf * self.xx - self.x * self.x;
        let (slope, intercept) = if denom.abs() < f64::EPSILON || self.count < 2 {
            (0.0, self.y / nf)
        } else {
            let slope = ((nf * self.xy - self.x * self.y) / denom).max(0.0);
            (slope, (self.y - slope * self.x) / nf)
        };
        LinearModel::from_parts(intercept, slope, n)
    }
}

#[inline]
fn clamp_pred(p: f64, n: usize) -> usize {
    if n == 0 || p <= 0.0 {
        0
    } else {
        (p as usize).min(n - 1)
    }
}

/// The maximal stretches of consecutive keys a root routes to one leaf, in
/// key order, as `(leaf, positions)`: the one walk that training, its audit
/// and [`CdfModel::predict_clamped_into`] share. A root never falls, so it
/// routes a non-decreasing run to non-decreasing leaves, and a stretch's
/// end is found by galloping from its first key and bisecting the last
/// step — `O(log len)` root evaluations a stretch.
struct Stretches<'a, K> {
    root: &'a RootModel,
    n: usize,
    leaf_count: usize,
    keys: &'a [K],
    start: usize,
}

impl<'a, K: Key> Stretches<'a, K> {
    fn new(root: &'a RootModel, n: usize, leaf_count: usize, keys: &'a [K]) -> Self {
        debug_assert!(keys.is_sorted(), "stretches are walked over sorted keys");
        Self {
            root,
            n,
            leaf_count,
            keys,
            start: 0,
        }
    }
}

impl<K: Key> Iterator for Stretches<'_, K> {
    type Item = (usize, Range<usize>);

    fn next(&mut self) -> Option<Self::Item> {
        let rest = &self.keys[self.start..];
        let route = |key: &K| self.root.route(key.to_f64(), self.n, self.leaf_count);
        let leaf = route(rest.first()?);
        let within = |key: &K| route(key) <= leaf;
        // Every key before `probe / 2 + 1` is in the stretch.
        let mut probe = 1;
        while probe < rest.len() && within(&rest[probe]) {
            probe *= 2;
        }
        let known = probe / 2 + 1;
        let len = known + rest[known..probe.min(rest.len())].partition_point(within);
        let stretch = self.start..self.start + len;
        self.start += len;
        Some((leaf, stretch))
    }
}

/// The root model variants.
#[derive(Debug, Clone)]
enum RootModel {
    Linear(LinearModel),
    Cubic(CubicModel),
}

impl RootModel {
    /// Route a key to a leaf index in `[0, leaf_count)`.
    #[inline]
    fn route(&self, key: f64, n: usize, leaf_count: usize) -> usize {
        let raw = match self {
            Self::Linear(m) => m.predict_f64(key),
            Self::Cubic(m) => m.predict_f64(key),
        };
        if n == 0 || leaf_count == 0 {
            return 0;
        }
        let frac = (raw / n as f64).clamp(0.0, 1.0);
        ((frac * leaf_count as f64) as usize).min(leaf_count - 1)
    }

    fn size_bytes(&self) -> usize {
        match self {
            Self::Linear(_) => 2 * std::mem::size_of::<f64>(),
            Self::Cubic(_) => 6 * std::mem::size_of::<f64>(),
        }
    }
}

/// A trained two-level recursive model index.
#[derive(Debug, Clone)]
pub struct RmiIndex {
    root: RootModel,
    leaves: Vec<LinearModel>,
    /// Per leaf, the position of the first key routed to it — for an empty
    /// leaf, where the next leaf's keys start (`n` past the last key).
    lo: Vec<u32>,
    n: usize,
    max_error: usize,
}

impl RmiIndex {
    /// Start building an RMI.
    pub fn builder() -> RmiBuilder {
        RmiBuilder::default()
    }

    /// Build with default parameters (1024 linear leaves).
    pub fn build<K: Key>(dataset: &Dataset<K>) -> Self {
        RmiBuilder::default().build(dataset)
    }

    /// Number of leaf models.
    pub fn leaf_count(&self) -> usize {
        self.leaves.len()
    }

    /// The leaf a key routes to.
    pub fn leaf_for<K: Key>(&self, key: K) -> usize {
        self.root.route(key.to_f64(), self.n, self.leaves.len())
    }

    /// `(lo_j, lo_{j+1} − 1)` of leaf `leaf`, within `[0, n)`: a position
    /// capped at the second and then raised to the first lies in `[lo_j,
    /// max(lo_j, lo_{j+1} − 1)]`, the positions the leaf's keys occupy.
    #[inline]
    fn bounds(&self, leaf: usize) -> (usize, usize) {
        let next = self.lo.get(leaf + 1).map_or(self.n, |&next| next as usize);
        let lo = (self.lo[leaf] as usize).min(self.n - 1);
        (lo, next.saturating_sub(1))
    }

    /// Write the clamped predictions of `keys`, all routed to `leaf`, into
    /// `out`: the leaf's line and bounds stay in registers for the whole
    /// stretch. Each is clamped in `f64` and truncated once — the
    /// prediction `predict` makes by truncating first, capping at `last`
    /// and raising to `lo`, so a leaf whose `last` is below its `lo`
    /// serves `lo`.
    #[inline]
    fn predict_stretch<K: Key>(&self, leaf: usize, keys: &[K], out: &mut [u32]) {
        let (line, (lo, last)) = (&self.leaves[leaf], self.bounds(leaf));
        let (lo, hi) = (lo as f64, last.max(lo) as f64);
        for (slot, key) in out.iter_mut().zip(keys) {
            *slot = truncate_clamped(line.predict_f64(key.to_f64()), lo, hi) as u32;
        }
    }
}

impl<K: Key> CdfModel<K> for RmiIndex {
    #[inline]
    fn predict(&self, key: K) -> usize {
        if self.n == 0 || self.leaves.is_empty() {
            return 0;
        }
        let x = key.to_f64();
        let leaf = self.root.route(x, self.n, self.leaves.len());
        let (lo, last) = self.bounds(leaf);
        clamp_pred(self.leaves[leaf].predict_f64(x), self.n)
            .min(last)
            .max(lo)
    }

    /// The leaf is looked up once per stretch of keys routed to it instead
    /// of once per key — the stretch walk training uses — and the inner
    /// loop holds the leaf's two parameters in registers.
    fn predict_clamped_into(&self, keys: &[K], out: &mut [u32]) {
        assert_eq!(keys.len(), out.len(), "one output slot per key");
        debug_assert!(keys.is_sorted(), "a run is non-decreasing");
        if self.n == 0 || self.leaves.is_empty() {
            out.fill(0);
            return;
        }
        for (leaf, stretch) in Stretches::new(&self.root, self.n, self.leaves.len(), keys) {
            self.predict_stretch(leaf, &keys[stretch.clone()], &mut out[stretch]);
        }
    }

    fn key_count(&self) -> usize {
        self.n
    }

    fn size_bytes(&self) -> usize {
        self.root.size_bytes()
            + self.leaves.len() * 2 * std::mem::size_of::<f64>()
            + self.lo.len() * std::mem::size_of::<u32>()
    }

    fn max_error_bound(&self) -> Option<usize> {
        Some(self.max_error)
    }

    fn name(&self) -> &'static str {
        "RMI"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ModelErrorStats;
    use sosd_data::generators::SosdName;

    #[test]
    fn rmi_is_near_exact_on_uniform_dense_data() {
        let d: Dataset<u64> = SosdName::Uden64.generate(50_000, 1);
        let rmi = RmiIndex::builder().leaf_count(256).build(&d);
        let stats = ModelErrorStats::compute(&rmi, &d);
        assert!(
            stats.mean_abs < 4.0,
            "uden should be almost perfectly learned, mean error {}",
            stats.mean_abs
        );
    }

    #[test]
    fn more_leaves_reduce_error() {
        let d: Dataset<u64> = SosdName::Face64.generate(50_000, 2);
        let coarse = RmiIndex::builder().leaf_count(16).build(&d);
        let fine = RmiIndex::builder().leaf_count(4096).build(&d);
        let e_coarse = ModelErrorStats::compute(&coarse, &d).mean_abs;
        let e_fine = ModelErrorStats::compute(&fine, &d).mean_abs;
        assert!(
            e_fine < e_coarse,
            "4096 leaves ({e_fine}) should beat 16 leaves ({e_coarse})"
        );
    }

    #[test]
    fn predictions_stay_in_range() {
        let d: Dataset<u64> = SosdName::Logn64.generate(20_000, 3);
        let rmi = RmiIndex::build(&d);
        assert!(CdfModel::<u64>::predict(&rmi, 0) < d.len());
        assert!(CdfModel::<u64>::predict(&rmi, u64::MAX) < d.len());
        for &k in d.as_slice().iter().step_by(211) {
            assert!(CdfModel::<u64>::predict(&rmi, k) < d.len());
        }
    }

    #[test]
    fn max_error_bound_covers_training_keys() {
        // Every generator, both root families, sparse to dense leaf counts.
        for name in SosdName::all() {
            let d: Dataset<u64> = name.generate(20_000, 4);
            for root in [RootModelKind::Linear, RootModelKind::Cubic] {
                for leaves in [64, 512, 4096] {
                    let rmi = RmiIndex::builder()
                        .leaf_count(leaves)
                        .root_model(root)
                        .build(&d);
                    let bound = CdfModel::<u64>::max_error_bound(&rmi).unwrap();
                    for (i, &k) in d.as_slice().iter().enumerate() {
                        if i > 0 && d.as_slice()[i - 1] == k {
                            continue; // duplicates: only first occurrence is the target
                        }
                        let p = CdfModel::<u64>::predict(&rmi, k);
                        let err = (p as i64 - i as i64).unsigned_abs() as usize;
                        assert!(
                            err <= bound,
                            "{name} {root:?} {leaves} leaves: key {k} predicted {p}, \
                             actual {i}, bound {bound}"
                        );
                    }
                }
            }
        }
    }

    /// The per-key trainer the stretch trainer replaced: route every key
    /// into an `n`-sized routing array and add it to its leaf's sums, solve
    /// the leaves, start each leaf after the keys routed below it, then
    /// audit every key through the stored routing. Kept as the reference
    /// the stretch trainer must equal bit for bit.
    fn train_reference(builder: RmiBuilder, keys: &[u64]) -> RmiIndex {
        let n = keys.len();
        let leaf_count = builder.leaf_count.min(n).max(1);
        let root = match builder.root {
            RootModelKind::Linear => RootModel::Linear(LinearModel::from_sorted_keys(keys)),
            RootModelKind::Cubic => RootModel::Cubic(CubicModel::from_sorted_keys(keys)),
        };
        let mut assignments: Vec<u32> = Vec::with_capacity(n);
        let mut sums = vec![LeafSums::default(); leaf_count];
        for (i, k) in keys.iter().enumerate() {
            let x = k.to_f64();
            let leaf = root.route(x, n, leaf_count);
            assignments.push(leaf as u32);
            sums[leaf].add(x, i as f64);
        }
        let mut leaves: Vec<LinearModel> = Vec::with_capacity(leaf_count);
        for s in &sums {
            let model = match (s.count, leaves.last()) {
                (0, Some(prev)) => prev.clone(),
                _ => s.solve(n),
            };
            leaves.push(model);
        }
        let lo = sums
            .iter()
            .scan(0, |below, s| {
                let lo = *below;
                *below += s.count as u32;
                Some(lo)
            })
            .collect();
        let mut rmi = RmiIndex {
            root,
            leaves,
            lo,
            n,
            max_error: 0,
        };
        for (i, (k, &leaf)) in keys.iter().zip(&assignments).enumerate() {
            let mut p = 0;
            rmi.predict_stretch(leaf as usize, &[*k], std::slice::from_mut(&mut p));
            rmi.max_error = rmi.max_error.max(i.abs_diff(p as usize));
        }
        rmi
    }

    /// Assert the stretch trainer equals the per-key reference bit for bit
    /// on `keys`, and hands back the reference's clamped predictions.
    fn assert_trains_like_the_reference(builder: RmiBuilder, keys: &[u64], tag: &str) {
        let bits = |rmi: &RmiIndex| -> Vec<(u64, u64)> {
            let leaves = rmi.leaves.iter();
            leaves
                .map(|l| (l.intercept().to_bits(), l.slope().to_bits()))
                .collect()
        };
        let (new, predictions) = builder.clone().build_with_predictions(keys);
        let old = train_reference(builder, keys);
        assert!(bits(&new) == bits(&old), "{tag}: leaf models");
        assert!(new.lo == old.lo, "{tag}: leaf starts");
        assert_eq!(new.max_error, old.max_error, "{tag}: max error");
        assert_eq!(predictions.len(), keys.len(), "{tag}");
        assert!(predictions.is_sorted(), "{tag}: predictions decrease");
        for (&p, &k) in predictions.iter().zip(keys) {
            let want = CdfModel::<u64>::predict_clamped(&old, k);
            assert_eq!(p as usize, want, "{tag}: key {k}");
        }
    }

    #[test]
    fn stretch_trainer_equals_the_per_key_reference_bit_for_bit() {
        // Past 65 536 keys, so the densest ladder is not capped.
        let columns = SosdName::all()
            .into_iter()
            .map(|name| (name.as_str(), name.generate::<u64>(70_000, 11).into_keys()))
            .chain(sosd_data::generators::adversary_columns());
        for (name, keys) in columns {
            for root in [RootModelKind::Linear, RootModelKind::Cubic] {
                for leaves in [1, 64, 4096, 65_536] {
                    let builder = RmiIndex::builder().leaf_count(leaves).root_model(root);
                    let tag = format!("{name} {root:?} {leaves}");
                    assert_trains_like_the_reference(builder, &keys, &tag);
                }
            }
        }
    }

    #[test]
    fn training_time_does_not_grow_with_empty_leaves() {
        // 64 tight clusters under 65 536 leaves: more than 90% of the leaves
        // are empty. A trainer that rescanned all 2^18 keys once per empty
        // leaf would take minutes; a walk over the leaf stretches takes
        // milliseconds, so even a heavily loaded debug build stays far
        // inside the bound.
        let keys: Vec<u64> = (0..1u64 << 18)
            .map(|i| (i >> 12 << 40) + (i & 0xFFF))
            .collect();
        let t = std::time::Instant::now();
        let rmi = RmiIndex::builder()
            .leaf_count(65_536)
            .build_from_sorted_keys(&keys);
        let elapsed = t.elapsed();
        let mut used: Vec<usize> = keys.iter().map(|&k| rmi.leaf_for(k)).collect();
        used.dedup();
        assert!(
            used.len() * 10 < rmi.leaf_count(),
            "{} leaves used",
            used.len()
        );
        assert!(elapsed.as_secs() < 10, "training took {elapsed:?}");
        for (i, &k) in keys.iter().enumerate().step_by(997) {
            let p = CdfModel::<u64>::predict(&rmi, k);
            assert!((p as i64 - i as i64).unsigned_abs() as usize <= rmi.max_error);
        }
    }

    #[test]
    fn cubic_root_works_and_never_decreases() {
        let d: Dataset<u64> = SosdName::Norm64.generate(20_000, 5);
        let rmi = RmiIndex::builder()
            .leaf_count(128)
            .root_model(RootModelKind::Cubic)
            .build(&d);
        // Over the keys, and over queries beside them and past both ends.
        let mut probes: Vec<u64> = d
            .as_slice()
            .iter()
            .flat_map(|&k| [k.saturating_sub(1), k, k.saturating_add(1)])
            .chain([0, u64::MAX])
            .collect();
        probes.sort_unstable();
        assert!(crate::model::verify_monotonic_on::<u64, _>(&rmi, &probes));
        let stats = ModelErrorStats::compute(&rmi, &d);
        assert!(stats.mean_abs < d.len() as f64 / 20.0);
    }

    #[test]
    fn tuned_rmi_is_at_least_as_good_as_any_single_config() {
        let d: Dataset<u64> = SosdName::Wiki64.generate(20_000, 6);
        let tuned = RmiBuilder::tuned(&d, &[64, 512, 2048]);
        let fixed = RmiIndex::builder().leaf_count(64).build(&d);
        let e_tuned = ModelErrorStats::compute(&tuned, &d).mean_log2;
        let e_fixed = ModelErrorStats::compute(&fixed, &d).mean_log2;
        assert!(e_tuned <= e_fixed + 1e-9);
    }

    #[test]
    fn degenerate_inputs() {
        let empty: Dataset<u64> = Dataset::from_keys("e", vec![]);
        let rmi = RmiIndex::build(&empty);
        assert_eq!(CdfModel::<u64>::predict(&rmi, 1), 0);
        assert_eq!(CdfModel::<u64>::key_count(&rmi), 0);

        let tiny = Dataset::from_keys("t", vec![3u64, 9]);
        let rmi = RmiIndex::builder().leaf_count(512).build(&tiny);
        assert!(CdfModel::<u64>::predict(&rmi, 9) < 2);

        let dup = Dataset::from_keys("dup", vec![4u64; 100]);
        let rmi = RmiIndex::build(&dup);
        assert!(CdfModel::<u64>::predict(&rmi, 4) < 100);
    }

    #[test]
    fn batched_predictions_equal_the_per_key_ones_at_the_conversion_edges() {
        // A stretch's predictions clamp in `f64` and truncate once; key by
        // key they equal `predict`'s, which truncates first — on keys at the
        // `u64` → `f64` conversions' edges, beside them, and over columns
        // whose RMIs hold empty leaves.
        let edges = crate::linear::tests::conversion_edges();
        let stride: Vec<u64> = (0..1u64 << 16).map(|i| i * 4_099).collect();
        let mut columns: Vec<Vec<u64>> = vec![vec![7], vec![3, 9], vec![5; 64], stride];
        columns.push(edges.clone());
        columns.push((0..64).map(|b| 1u64 << b).collect());
        for keys in &columns {
            let d = Dataset::from_keys("c", keys.clone());
            for root in [RootModelKind::Linear, RootModelKind::Cubic] {
                let rmi = RmiIndex::builder()
                    .leaf_count(1024)
                    .root_model(root)
                    .build(&d);
                let mut queries: Vec<u64> = keys
                    .iter()
                    .chain(&edges)
                    .flat_map(|&k| [k.saturating_sub(1), k, k.saturating_add(1)])
                    .collect();
                queries.sort_unstable();
                let mut out = vec![u32::MAX; queries.len()];
                CdfModel::<u64>::predict_clamped_into(&rmi, &queries, &mut out);
                for (&q, &p) in queries.iter().zip(&out) {
                    let want = CdfModel::<u64>::predict_clamped(&rmi, q);
                    assert_eq!(p as usize, want, "n={} {root:?} key {q}", keys.len());
                }
            }
        }
    }

    #[test]
    fn leaf_count_is_capped_by_key_count() {
        let d = Dataset::from_keys("small", (0u64..10).collect::<Vec<_>>());
        let rmi = RmiIndex::builder().leaf_count(1_000_000).build(&d);
        assert!(rmi.leaf_count() <= 10);
    }
}
