//! Builders for the Shift-Table layers (Algorithm 2 and its variants).
//!
//! The sequential builder is a single pass over the sorted keys plus a
//! backward pass over the layer (the paper's `O(N · F_θ + M)` complexity),
//! both over the 8-byte `(i32 Δ, u32 C)` layout the wide tier is served
//! from ([`crate::entry`]): the backward pass hands the tier choice the
//! extremes it saw, so packing is either free (wide) or one narrowing pass
//! (narrow).
//! A scoped-thread parallel builder splits the key array into contiguous
//! chunks — valid because for a monotone model the predictions of a sorted
//! chunk cover a contiguous range of partitions, so per-chunk partial layers
//! can be merged with `min`/`sum` at the seams (the parallelisation the paper
//! suggests for expensive models in §3.3). It shares the working layout and
//! the backward pass with the sequential builder.

use crate::entry::{EntryExtent, WideEntry, MAX_KEYS};
use learned_index::model::CdfModel;
use sosd_data::key::Key;

/// A partition no key has been predicted into yet: any drift is smaller.
const UNSET: WideEntry = (i32::MAX, 0);

/// Keys per [`CdfModel::predict_clamped_into`] call of the accumulation
/// pass: the predictions of one run (4 KiB) stay in L1 beside the keys.
const PREDICT_RUN: usize = 1024;

/// A blank working layer for `n` keys.
fn blank_layer(n: usize) -> Vec<WideEntry> {
    // lint: allow(panic) the validating builders turn longer columns into BuildError::TooManyKeys; past them a drift would silently truncate
    assert!(
        n <= MAX_KEYS,
        "a range layer covers at most {MAX_KEYS} keys"
    );
    vec![UNSET; n]
}

/// Compute the `<Δ, C>` entries of a full-resolution (`M = N`) range-mode
/// Shift-Table, *including* the pseudo-entries for empty partitions
/// (Algorithm 2 lines 3–15), and their extremes.
pub(crate) fn compute_range_entries<K: Key, M: CdfModel<K> + ?Sized>(
    model: &M,
    keys: &[K],
) -> (Vec<WideEntry>, EntryExtent) {
    let n = keys.len();
    let mut entries = blank_layer(n);
    accumulate_range(model, keys, 0, n, &mut entries);
    let extent = fill_empty_partitions(&mut entries);
    (entries, extent)
}

/// Accumulate drift minima and cardinalities for `keys[lo..hi]` into
/// `entries` (which spans all `n` partitions). `lo` must either be 0 or start
/// a new distinct key run (the caller aligns chunk boundaries).
fn accumulate_range<K: Key, M: CdfModel<K> + ?Sized>(
    model: &M,
    keys: &[K],
    lo: usize,
    hi: usize,
    entries: &mut [WideEntry],
) {
    // Predictions come a run at a time: through a `dyn` model that is one
    // virtual call per run, with the model's arithmetic inlined behind it.
    let mut predictions = [0u32; PREDICT_RUN];
    let mut first_occurrence = lo;
    for start in (lo..hi).step_by(PREDICT_RUN) {
        let run = &keys[start..hi.min(start + PREDICT_RUN)];
        let predictions = &mut predictions[..run.len()];
        model.predict_clamped_into(run, predictions);
        for (i, &prediction) in (start..).zip(predictions.iter()) {
            if i > lo && keys[i] == keys[i - 1] {
                // duplicate: the CDF target stays at the first occurrence (§3.2)
            } else {
                first_occurrence = i;
            }
            // Both terms are below `n <= MAX_KEYS`: the drift fits an `i32`.
            let drift = (first_occurrence as i64 - prediction as i64) as i32;
            let (delta, count) = &mut entries[prediction as usize];
            *delta = (*delta).min(drift);
            *count += 1;
        }
    }
}

/// Backward pass: give empty partitions pseudo-entries that point at the
/// search region of the first non-empty partition to their right (§3.1).
/// Trailing empty partitions (nothing to their right) point at the very last
/// record. Every entry is final once this pass has visited it, so it also
/// reports the extremes of the finished layer.
fn fill_empty_partitions(entries: &mut [WideEntry]) -> EntryExtent {
    let mut extent = EntryExtent::default();
    // Same absolute region as the partition to the right: that partition's
    // window starts at (k+1) + Δ_{k+1}; expressed relative to k this is
    // Δ_k = Δ_{k+1} + 1. Right of the last partition there is only the last
    // record itself, at drift −1 from the (virtual) partition `n`.
    let mut right: WideEntry = (-1, 1);
    for e in entries.iter_mut().rev() {
        if e.1 == 0 {
            *e = (right.0 + 1, right.1);
        }
        right = *e;
        extent.include(right);
    }
    extent
}

/// Parallel variant of [`compute_range_entries`] using `threads` scoped
/// worker threads. Falls back to the sequential builder for non-monotonic
/// models, tiny inputs or `threads <= 1`.
pub(crate) fn compute_range_entries_parallel<K: Key, M: CdfModel<K> + Sync + ?Sized>(
    model: &M,
    keys: &[K],
    threads: usize,
) -> (Vec<WideEntry>, EntryExtent) {
    let n = keys.len();
    if threads <= 1 || n < 4096 || !model.is_monotonic() {
        return compute_range_entries(model, keys);
    }
    // Chunk boundaries aligned so a duplicate run never spans two chunks
    // (the first-occurrence position must be computable inside the chunk).
    let mut bounds = vec![0usize];
    for t in 1..threads {
        let mut b = n * t / threads;
        while b < n && b > 0 && keys[b] == keys[b - 1] {
            b += 1;
        }
        // lint: allow(panic) bounds starts with one element and only grows; last() cannot fail
        if b > *bounds.last().unwrap() && b < n {
            bounds.push(b);
        }
    }
    bounds.push(n);

    // Each worker fills its own partial layer; partials are merged with
    // min/sum which is associative, so seams are handled for free.
    let mut partials: Vec<Vec<WideEntry>> = Vec::with_capacity(bounds.len() - 1);
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for w in bounds.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            handles.push(scope.spawn(move || {
                let mut local = blank_layer(n);
                accumulate_range(model, keys, lo, hi, &mut local);
                local
            }));
        }
        for h in handles {
            // lint: allow(panic) join fails only when the child panicked; re-raising preserves the failure
            partials.push(h.join().expect("shift-table build worker panicked"));
        }
    });

    // Reduce in place into the first partial instead of allocating a fresh
    // n-entry accumulator — one full-layer allocation saved per build, which
    // the serving layer's rebuild path hits on every epoch swap.
    let mut partials = partials.into_iter();
    // lint: allow(panic) the chunking above yields at least one chunk for a non-empty layer
    let mut entries = partials.next().expect("at least one build chunk");
    for partial in partials {
        for (e, p) in entries.iter_mut().zip(partial) {
            // An untouched partition holds `UNSET`, the identity of min/sum.
            e.0 = e.0.min(p.0);
            e.1 += p.1;
        }
    }
    let extent = fill_empty_partitions(&mut entries);
    (entries, extent)
}

/// Compute the midpoint drifts `Δ̄` of a compact (S-X) layer with `m`
/// partitions over every `sample_step`-th key (§3.4; `sample_step = 1` uses
/// every key, larger values implement the sampling-based construction),
/// plus the root-mean-square residual `sqrt(E[(drift − Δ̄)²])` of the
/// sampled keys — derived from the per-partition drift moments accumulated
/// by the same single pass, so the layer's build-time error statistic costs
/// no extra model evaluation.
pub(crate) fn compute_midpoint_deltas_and_residual<K: Key, M: CdfModel<K> + ?Sized>(
    model: &M,
    keys: &[K],
    m: usize,
    sample_step: usize,
) -> (Vec<i64>, f64) {
    let n = keys.len();
    let m = m.max(1);
    let sample_step = sample_step.max(1);
    let mut sums = vec![0i128; m];
    let mut sums_sq = vec![0.0f64; m];
    let mut counts = vec![0u64; m];
    if n > 0 {
        let mut first_occurrence = 0usize;
        for i in 0..n {
            if i > 0 && keys[i] == keys[i - 1] {
                // keep first_occurrence
            } else {
                first_occurrence = i;
            }
            if i % sample_step != 0 {
                continue;
            }
            let prediction = model.predict_clamped(keys[i]);
            let partition = partition_of(prediction, m, n);
            let drift = first_occurrence as i128 - prediction as i128;
            sums[partition] += drift;
            sums_sq[partition] += (drift as f64) * (drift as f64);
            counts[partition] += 1;
        }
    }
    let mut deltas = vec![i64::MAX; m];
    for k in 0..m {
        if counts[k] > 0 {
            deltas[k] = (sums[k] / counts[k] as i128) as i64;
        }
    }
    // RMS residual from the moments: E[(x − Δ̄)²] = E[x²] − 2Δ̄E[x] + Δ̄²
    // per populated partition, weighted by partition cardinality.
    let mut residual_sq = 0.0f64;
    let mut total = 0u64;
    for k in 0..m {
        if counts[k] > 0 {
            let c = counts[k] as f64;
            let d = deltas[k] as f64;
            residual_sq += sums_sq[k] - 2.0 * d * (sums[k] as f64) + c * d * d;
            total += counts[k];
        }
    }
    let residual = if total == 0 {
        0.0
    } else {
        (residual_sq.max(0.0) / total as f64).sqrt()
    };
    // Empty partitions copy the nearest populated neighbour (right first,
    // matching the range-mode backward fill, then left for trailing gaps).
    let mut next: i64 = 0;
    let mut have_next = false;
    for k in (0..m).rev() {
        if deltas[k] != i64::MAX {
            next = deltas[k];
            have_next = true;
        } else if have_next {
            deltas[k] = next;
        }
    }
    let mut prev: i64 = 0;
    for d in deltas.iter_mut() {
        if *d == i64::MAX {
            *d = prev;
        } else {
            prev = *d;
        }
    }
    (deltas, residual)
}

/// Map a prediction (on the `[0, n)` record scale) to a partition index on
/// the `[0, m)` layer scale.
#[inline]
pub(crate) fn partition_of(prediction: usize, m: usize, n: usize) -> usize {
    if n == 0 || m == 0 {
        return 0;
    }
    (((prediction as u128) * (m as u128)) / (n as u128)) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use learned_index::linear::InterpolationModel;
    use sosd_data::prelude::*;

    #[test]
    fn paper_figure5_example() {
        // Figure 5: 100 records in [0, 999], model F_θ(x) = x / 1000, so the
        // prediction for key x is ⌊x / 10⌋. The running example says that for
        // key 771 (position 37) the correction is Δ₇₇ = −41 with a window of
        // length 2 covering [36, 37].
        struct DivTen;
        impl CdfModel<u64> for DivTen {
            fn predict(&self, key: u64) -> usize {
                (key / 10) as usize
            }
            fn key_count(&self) -> usize {
                100
            }
            fn size_bytes(&self) -> usize {
                0
            }
            fn is_monotonic(&self) -> bool {
                true
            }
            fn name(&self) -> &'static str {
                "div10"
            }
        }
        // Reconstruct the visible portion of the figure's data: positions
        // 35..=39 hold keys 769, 770, 771, 782, 785.
        let mut keys: Vec<u64> = Vec::new();
        // 35 smaller keys packed below 769 (their exact values only matter in
        // that they are < 700 so they do not share partitions with the keys
        // of interest).
        for i in 0..35u64 {
            keys.push(i * 20); // 0, 20, ..., 680
        }
        keys.extend_from_slice(&[769, 770, 771, 782, 785]);
        // Fill the remaining 60 positions with keys ≥ 830.
        for i in 0..60u64 {
            keys.push(830 + i * 2);
        }
        assert_eq!(keys.len(), 100);
        assert!(keys.is_sorted());

        let (entries, _) = compute_range_entries(&DivTen, &keys);
        // Partition 77 receives keys 770, 771 and 779-ish? -> in our data 770
        // and 771 (positions 36, 37): Δ = 36 - 77 = -41, C = 2.
        assert_eq!(entries[77], (-41, 2));
        // Partition 76 receives key 769 (position 35): Δ = 35 - 76 = -41.
        assert_eq!(entries[76], (-41, 1));
        // Partition 78 receives keys 782 and 785 (positions 38, 39).
        assert_eq!(entries[78], (-40, 2));
    }

    #[test]
    fn empty_partition_backfill_points_at_next_region() {
        // Keys 0, 30: with F_θ(x) = x/10 over n=2 records... construct
        // directly: use a model predicting key/10 over 4 records with keys
        // clustered so partitions 1 and 2 are empty.
        struct Quarter;
        impl CdfModel<u64> for Quarter {
            fn predict(&self, key: u64) -> usize {
                (key / 10) as usize
            }
            fn key_count(&self) -> usize {
                4
            }
            fn size_bytes(&self) -> usize {
                0
            }
            fn is_monotonic(&self) -> bool {
                true
            }
            fn name(&self) -> &'static str {
                "quarter"
            }
        }
        let keys = vec![1u64, 2, 3, 35];
        // Predictions: 0,0,0,3 → partitions 1 and 2 empty.
        let (entries, extent) = compute_range_entries(&Quarter, &keys);
        assert_eq!(entries[0], (0, 3));
        assert_eq!(entries[3], (0, 1));
        // Pseudo-entries: partition 2 mirrors partition 3 shifted by one,
        // partition 1 mirrors partition 2 shifted by one.
        assert_eq!(entries[2], (1, 1));
        assert_eq!(entries[1], (2, 1));
        // They all resolve to the same absolute window start (position 3).
        assert_eq!(2 + entries[2].0, 3);
        assert_eq!(1 + entries[1].0, 3);
        // The backward pass saw every final entry, pseudo-entries included.
        assert_eq!(extent, EntryExtent::of(&entries));

        // Trailing empty partitions point at the very last record.
        let (entries, _) = compute_range_entries(&Quarter, &[1u64, 2, 3, 4]);
        assert_eq!(entries, [(0, 4), (2, 1), (1, 1), (0, 1)]);
    }

    #[cfg_attr(miri, ignore = "dataset too large for Miri")]
    #[test]
    fn windows_always_contain_the_true_position() {
        for name in SosdName::all() {
            let d: Dataset<u64> = name.generate(20_000, 3);
            let model = InterpolationModel::build(&d);
            let (entries, _) = compute_range_entries(&model, d.as_slice());
            let keys = d.as_slice();
            let mut first_occurrence = 0usize;
            for (i, &k) in keys.iter().enumerate() {
                if i > 0 && keys[i - 1] == k {
                    // duplicate
                } else {
                    first_occurrence = i;
                }
                let pred = model.predict_clamped(k);
                let (delta, count) = entries[pred];
                let start = pred as i64 + delta as i64;
                assert!(
                    start <= first_occurrence as i64
                        && (first_occurrence as i64) < start + count as i64,
                    "{name}: key {k} pos {first_occurrence} outside window [{start}, {})",
                    start + count as i64
                );
            }
        }
    }

    #[cfg_attr(miri, ignore = "dataset too large for Miri")]
    #[test]
    fn parallel_build_matches_sequential() {
        for name in [SosdName::Face64, SosdName::Wiki64, SosdName::Logn64] {
            let d: Dataset<u64> = name.generate(30_000, 9);
            let model = InterpolationModel::build(&d);
            let seq = compute_range_entries(&model, d.as_slice());
            for threads in [2usize, 3, 8] {
                let par = compute_range_entries_parallel(&model, d.as_slice(), threads);
                assert_eq!(seq, par, "{name} with {threads} threads");
            }
        }
    }

    #[cfg_attr(miri, ignore = "dataset too large for Miri")]
    #[test]
    fn parallel_build_is_equivalent_on_every_generator_and_thread_count() {
        // The chunk-boundary audit as a property: `build_parallel ≡ build`
        // over every SOSD generator, with 1 thread (sequential fallback), 2
        // threads (one seam) and 7 threads (seams at non-power-of-two,
        // non-divisor offsets). n exceeds the 4096-key fallback threshold so
        // the scoped-thread path actually runs.
        let n = 6_000;
        for name in SosdName::all() {
            let d: Dataset<u64> = name.generate(n, 13);
            let model = InterpolationModel::build(&d);
            let seq = compute_range_entries(&model, d.as_slice());
            for threads in [1usize, 2, 7] {
                let par = compute_range_entries_parallel(&model, d.as_slice(), threads);
                assert_eq!(seq, par, "{name} with {threads} threads");
            }
        }
    }

    #[cfg_attr(miri, ignore = "dataset too large for Miri")]
    #[test]
    fn parallel_build_never_splits_a_duplicate_run() {
        use sosd_data::rng::SplitMix64;
        // Duplicate-heavy key columns whose run boundaries land on (and far
        // past) the naive n·t/threads chunk offsets: the boundary-alignment
        // loop must push every seam to the start of a fresh run, or the
        // per-chunk first-occurrence tracking diverges from the serial build.
        let mut rng = SplitMix64::new(0xD095);
        let mut keys: Vec<u64> = Vec::new();
        while keys.len() < 10_000 {
            let v = rng.next_below(500);
            let run = 1 + rng.next_below(900) as usize;
            keys.extend(std::iter::repeat_n(v, run));
        }
        keys.sort_unstable();
        let model = InterpolationModel::from_sorted_keys(&keys);
        let seq = compute_range_entries(&model, &keys);
        for threads in [2usize, 3, 7, 16] {
            let par = compute_range_entries_parallel(&model, &keys, threads);
            assert_eq!(seq, par, "duplicate-heavy with {threads} threads");
        }

        // Degenerate: one run covering almost the whole column — every chunk
        // boundary collapses into the run's end.
        let mut keys = vec![7u64; 9_000];
        keys.splice(0..0, [1u64, 2, 3]);
        keys.extend([9u64, 10]);
        let model = InterpolationModel::from_sorted_keys(&keys);
        let seq = compute_range_entries(&model, &keys);
        for threads in [2usize, 7] {
            let par = compute_range_entries_parallel(&model, &keys, threads);
            assert_eq!(seq, par, "mega-run with {threads} threads");
        }
    }

    #[test]
    fn parallel_build_merges_seams_at_the_smallest_parallel_size() {
        // 4096 keys is the smallest column the scoped-thread path accepts —
        // small enough for Miri to run the partial-layer merge.
        let keys: Vec<u64> = (0..4096u64).map(|i| i * i / 7).collect();
        let model = InterpolationModel::from_sorted_keys(&keys);
        let seq = compute_range_entries(&model, &keys);
        assert_eq!(seq, compute_range_entries_parallel(&model, &keys, 3));
    }

    #[test]
    fn parallel_build_falls_back_for_tiny_input() {
        let d: Dataset<u64> = SosdName::Uden64.generate(100, 1);
        let model = InterpolationModel::build(&d);
        let seq = compute_range_entries(&model, d.as_slice());
        let par = compute_range_entries_parallel(&model, d.as_slice(), 4);
        assert_eq!(seq, par);
    }

    #[test]
    fn midpoint_deltas_average_the_drift() {
        // Model that always predicts position 0 over 10 keys: drifts are
        // 0..9, the midpoint over one partition is their mean = 4.
        struct Zero;
        impl CdfModel<u64> for Zero {
            fn predict(&self, _key: u64) -> usize {
                0
            }
            fn key_count(&self) -> usize {
                10
            }
            fn size_bytes(&self) -> usize {
                0
            }
            fn is_monotonic(&self) -> bool {
                true
            }
            fn name(&self) -> &'static str {
                "zero"
            }
        }
        let keys: Vec<u64> = (0..10u64).collect();
        let (deltas, residual) = compute_midpoint_deltas_and_residual(&Zero, &keys, 1, 1);
        assert_eq!(deltas, vec![4]);
        // Drifts 0..=9 around Δ̄ = 4: residuals −4..=5, RMS = sqrt(8.5).
        assert!(
            (residual - 8.5f64.sqrt()).abs() < 1e-9,
            "residual {residual}"
        );
    }

    #[test]
    fn midpoint_empty_partitions_copy_neighbours() {
        let keys: Vec<u64> = (0..100u64).map(|i| i * 3).collect();
        let d = Dataset::from_keys("d", keys);
        let model = InterpolationModel::build(&d);
        let (deltas, _) = compute_midpoint_deltas_and_residual(&model, d.as_slice(), 400, 1);
        assert_eq!(deltas.len(), 400);
        assert!(deltas.iter().all(|&d| d != i64::MAX));
    }

    #[cfg_attr(miri, ignore = "dataset too large for Miri")]
    #[test]
    fn sampling_build_is_close_to_full_build() {
        let d: Dataset<u64> = SosdName::Face64.generate(50_000, 5);
        let model = InterpolationModel::build(&d);
        let full = compute_midpoint_deltas_and_residual(&model, d.as_slice(), 1000, 1).0;
        let sampled = compute_midpoint_deltas_and_residual(&model, d.as_slice(), 1000, 16).0;
        let mut diffs = 0usize;
        for (f, s) in full.iter().zip(sampled.iter()) {
            if (f - s).abs() > 200 {
                diffs += 1;
            }
        }
        assert!(
            diffs < full.len() / 10,
            "sampled layer diverges from the full layer in {diffs}/{} partitions",
            full.len()
        );
    }

    #[test]
    fn partition_of_maps_edges_correctly() {
        assert_eq!(partition_of(0, 10, 100), 0);
        assert_eq!(partition_of(99, 10, 100), 9);
        assert_eq!(partition_of(50, 10, 100), 5);
        assert_eq!(partition_of(0, 10, 0), 0);
        assert_eq!(partition_of(5, 0, 100), 0);
    }

    #[test]
    fn empty_keys_produce_empty_layers() {
        let d: Dataset<u64> = Dataset::from_keys("e", vec![]);
        let model = InterpolationModel::build(&d);
        assert!(compute_range_entries(&model, d.as_slice()).0.is_empty());
        let (deltas, residual) = compute_midpoint_deltas_and_residual(&model, d.as_slice(), 4, 1);
        assert_eq!(deltas, vec![0, 0, 0, 0]);
        assert_eq!(residual, 0.0);
    }
}
