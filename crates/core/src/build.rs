//! Builders for the Shift-Table layers (Algorithm 2 and its variants).
//!
//! A range layer has one builder, the **run-boundary emitter**. It writes
//! the drift of every partition `0..N` and of the virtual partition `N` —
//! 0, the end of the column — and no window length: a window ends where the
//! next partition's starts ([`crate::entry`]).
//!
//! It reads each key's clamped prediction from one source, the model's
//! [`CdfModel::predict_clamped_into`], `PREDICT_RUN` keys at a time into
//! one L1-resident buffer, so the build evaluates the model once per key
//! (an RMI looks each leaf up once per stretch of keys routed to it).
//!
//! Over a sorted column a valid-CDF model's predictions never decrease —
//! every model of `learned_index` is one, over every key (§3.8) — so the
//! keys of one partition are consecutive and, equal keys being predicted
//! alike, a duplicate run never straddles two partitions. The positions
//! `s_p` where the prediction changes therefore *are* the layer: partition
//! `p`, whose first key sits at `s_p`, holds `Δ_p = s_p − p`, and an empty
//! partition `k` left of it starts there too, `Δ_k = s_p − k` (§3.1). Per
//! `PREDICT_RUN` keys the emitter predicts, compacts the change positions
//! without a branch, stages every window's drifts — empty partitions
//! included — as one fixed-size store, and appends the staged whole lines
//! of `LINE` drifts strictly left to right to the layer itself: no blank
//! fill, no read-modify-write on the layer, no backward pass, no key read
//! beyond the model's own. The layer is written once, line by line, in the
//! layout it is served from — a line that does not fit is appended to the
//! patch array, nothing stored is re-encoded. The layer knows the column's
//! length from the start (`Lines::new`), so it escapes a shifted line
//! whose windows would overhang the column as it appends it. The last
//! drift of a line is the first of the next, so it stays staged until that
//! line is appended. Each line takes its slope as it is appended, from its
//! own drifts (`crate::packed`), so a layer whose drifts climb or fall
//! steadily, up to 256 records a partition, stays exact in one pass, and
//! one whose drifts are noise shifts the lines they widen.
//!
//! A model that does fall — one a caller wrote — is not trusted to rise:
//! every prediction is taken at the largest one before it, so the layer is
//! that of the model's running maximum over the column, and for a model
//! that never falls its own. A key predicted below that maximum may then
//! miss its window; the lookup's validating gallop (the §3.8 repair in
//! [`crate::kernel`]) finds its lower bound all the same.
//!
//! The paper's scatter builder (Algorithm 2 lines 3–15: scatter drift
//! minima into a blank array, fill the empty partitions backwards, pack) is
//! kept as test-only reference code the emitter is checked against, array
//! by array.

use crate::entry::MAX_KEYS;
use crate::packed::{Line, Lines};
use learned_index::model::CdfModel;
use sosd_data::key::Key;
use std::ops::Range;

/// Keys per [`CdfModel::predict_clamped_into`] call: the predictions of
/// one run (4 KiB) stay in L1 beside the keys.
const PREDICT_RUN: usize = 1024;

/// Drifts the emitter stages before appending them to the layer (4 KiB,
/// L1-resident beside the predictions).
const STAGE: usize = 1024;

/// Drifts the emitter writes a window at, whatever the window's count of
/// partitions.
const WIDTH: usize = 8;

/// The emitter's staging buffer. Every window is written as a fixed
/// [`WIDTH`] of drifts, whether or not that many partitions start at it —
/// the next window overwrites the surplus — so writing a window costs no
/// branch that depends on its length, and the layer is fed whole lines.
struct Stage {
    layer: Lines,
    drifts: [i32; STAGE + WIDTH],
    len: usize,
}

impl Stage {
    fn new(layer: Lines) -> Self {
        Self {
            layer,
            drifts: [0; STAGE + WIDTH],
            len: 0,
        }
    }

    /// Stage the drifts of `partitions`, which all start at record `start`.
    #[inline]
    fn fill(&mut self, partitions: Range<usize>, start: usize) {
        let mut k = partitions.start;
        while k < partitions.end {
            // Both terms are at most `n <= MAX_KEYS`: the drift fits an
            // `i32`. The surplus slots may wrap; they are never read.
            let drift = start as i32 - k as i32;
            for (i, slot) in self.drifts[self.len..][..WIDTH].iter_mut().enumerate() {
                *slot = drift.wrapping_sub(i as i32);
            }
            let staged = WIDTH.min(partitions.end - k);
            k += staged;
            self.len += staged;
            if self.len >= STAGE {
                self.drain();
            }
        }
    }

    /// Append the staged whole lines to the layer, keeping the last drift
    /// staged: it is also the first of the next line.
    fn drain(&mut self) {
        let pairs = Line::PAIRS;
        let whole = (self.len - 1) / pairs * pairs;
        self.layer.extend(&self.drifts[..=whole]);
        self.drifts.copy_within(whole..self.len, 0);
        self.len -= whole;
    }

    /// The layer, with everything staged appended.
    fn finish(mut self) -> Lines {
        self.layer.extend(&self.drifts[..self.len]);
        self.layer.finish();
        self.layer
    }
}

/// Build the full-resolution (`M = N`) range layer of `model` over the
/// sorted `keys` with the run-boundary emitter, straight into the layer's
/// arrays: every partition's drift — empty or not, in order, those right
/// of the last key and the end itself starting at `n`. A prediction below
/// the largest before it is taken at that largest (see the module docs).
pub(crate) fn build_range_layer<K: Key, M: CdfModel<K> + ?Sized>(model: &M, keys: &[K]) -> Lines {
    // lint: allow(panic) the validating builders turn longer columns into BuildError::TooManyKeys; past them a drift would silently truncate
    assert!(
        keys.len() <= MAX_KEYS,
        "a range layer covers at most {MAX_KEYS} keys"
    );
    let n = keys.len();
    let mut stage = Stage::new(Lines::new(n));
    if n == 0 {
        return stage.finish();
    }
    // Partitions below `next` are staged. `open` is the partition whose
    // keys are being walked; its first key sits at `open_start`, where it
    // and the empty partitions on its left all start (§3.1). Partition 0
    // opens at the first key: if that key is predicted past it, partition 0
    // is one of those empty ones.
    let mut next = 0;
    let mut open = 0;
    let mut open_start = 0;
    // The last partition: a prediction past it — which a model keeping
    // its `predict_clamped_into` contract never makes — is taken there, so
    // the layer holds `n + 1` drifts whatever the model hands over.
    let last = (n - 1) as u32;
    let mut buffer = [0u32; PREDICT_RUN];
    let mut changes = [0u16; PREDICT_RUN];
    for start in (0..n).step_by(PREDICT_RUN) {
        let run = &keys[start..n.min(start + PREDICT_RUN)];
        // Through a `dyn` model, one virtual call per run, with the
        // model's arithmetic inlined behind it.
        let predictions = &mut buffer[..run.len()];
        model.predict_clamped_into(run, predictions);
        // Compact the positions where the prediction changes: every
        // position is written, the cursor moves on only past a change.
        let mut found = 0;
        let mut falls = false;
        let mut previous = open as u32;
        for (i, &prediction) in predictions.iter().enumerate() {
            changes[found] = i as u16;
            found += usize::from(prediction != previous);
            falls |= prediction < previous;
            previous = prediction;
        }
        // Unless the run falls, its last prediction is its largest. A run
        // that falls, or passes the last partition, is compacted again at
        // its running maximum.
        if falls || previous > last {
            found = rises_of_running_maximum(predictions, open as u32, last, &mut changes);
        }
        // At a change of the running maximum it is the prediction itself.
        for &i in &changes[..found] {
            stage.fill(next..open + 1, open_start);
            next = open + 1;
            open = predictions[usize::from(i)].min(last) as usize;
            open_start = start + usize::from(i);
        }
    }
    stage.fill(next..open + 1, open_start);
    // Right of the last partition with keys, every partition — and the
    // end, partition `n` — starts past the last key.
    stage.fill(open + 1..n + 1, n);
    stage.finish()
}

/// The emitter's compaction of a run of `predictions` from a model that
/// falls (or predicts past `last`): the positions where their running
/// maximum, from `open` on and capped at `last`, rises. Its own loop, so a
/// model that never falls pays no dependency through the maximum.
#[cold]
fn rises_of_running_maximum(
    predictions: &[u32],
    open: u32,
    last: u32,
    changes: &mut [u16; PREDICT_RUN],
) -> usize {
    let mut found = 0;
    let mut previous = open;
    for (i, &prediction) in predictions.iter().enumerate() {
        let prediction = prediction.min(last).max(previous);
        changes[found] = i as u16;
        found += usize::from(prediction != previous);
        previous = prediction;
    }
    found
}

/// Reference code the tests check the emitter and the packed layout
/// against: the paper's scatter builder, and packing a finished drift
/// array in one call.
#[cfg(test)]
pub(crate) mod testing {
    use super::*;

    /// A partition no key has been predicted into yet: any drift is smaller.
    const UNSET: i32 = i32::MAX;

    impl Lines {
        /// Pack a finished drift array in one call: the layer over
        /// `drifts.len() − 1` keys.
        pub(crate) fn from_drifts(drifts: &[i32]) -> Self {
            Lines::new(drifts.len().saturating_sub(1)).with(drifts)
        }
    }

    /// The scatter builder: the drifts of the layer for *any* model, those
    /// of the empty partitions and of the end included (Algorithm 2 lines
    /// 3–15), `n + 1` of them over `n > 0` keys. One pass scatters drift
    /// minima into a blank array, a backward pass gives the empty
    /// partitions the start of the partition to their right. For a model
    /// that never falls over `keys`, the emitter's layer.
    pub(crate) fn compute_range_drifts<K: Key, M: CdfModel<K> + ?Sized>(
        model: &M,
        keys: &[K],
    ) -> Vec<i32> {
        let n = keys.len();
        if n == 0 {
            return Vec::new();
        }
        let mut drifts = vec![UNSET; n + 1];
        drifts[n] = 0;
        let mut first_occurrence = 0;
        for (i, &key) in keys.iter().enumerate() {
            if i > 0 && key == keys[i - 1] {
                // duplicate: the CDF target stays at the first occurrence (§3.2)
            } else {
                first_occurrence = i;
            }
            // Keys arrive in position order, so the first one predicted
            // into a partition holds its smallest drift.
            let prediction = model.predict_clamped(key);
            let drift = &mut drifts[prediction];
            *drift = (*drift).min(first_occurrence as i32 - prediction as i32);
        }
        fill_empty_partitions(&mut drifts);
        drifts
    }

    /// Backward pass: an empty partition starts where the partition to its
    /// right does (§3.1) — `k + Δ_k = (k + 1) + Δ_{k+1}`, so
    /// `Δ_k = Δ_{k+1} + 1`. The last drift, the end's, is set.
    fn fill_empty_partitions(drifts: &mut [i32]) {
        let mut right = 0;
        for drift in drifts.iter_mut().rev() {
            if *drift == UNSET {
                *drift = right + 1;
            }
            right = *drift;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testing::compute_range_drifts;
    use super::*;
    use crate::correction::{Correction, SearchHint};
    use crate::entry::ShiftEntry;
    use crate::packed::tests::assert_no_wider_than_plain;
    use crate::table::ShiftTable;
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

        let drifts = compute_range_drifts(&DivTen, &keys);
        // Partition 77 receives keys 770 and 771 (positions 36, 37): Δ = 36 −
        // 77 = −41. Partition 76 receives key 769 (position 35): Δ = 35 − 76
        // = −41. Partition 78 receives keys 782 and 785 (positions 38, 39):
        // Δ = 38 − 78 = −40.
        assert_eq!(drifts[76..=78], [-41, -41, -40]);
        // Each window ends where the next partition's starts: `C₇₇` = 38 −
        // 36 = 2, the figure's window [36, 37].
        let window = |k: usize| (k + 1).wrapping_add_signed(drifts[k + 1] as isize);
        let windows =
            [76usize, 77, 78].map(|k| (k.wrapping_add_signed(drifts[k] as isize), window(k)));
        assert_eq!(windows, [(35, 36), (36, 38), (38, 40)]);
        // The layer's one line falls from 0 to −43 and climbs back to −7
        // by its last drift: its residuals spread 37 under its slope, past
        // the 14 four bits hold, so it takes unit 3 — but rounded down by
        // up to 2 records, its first window would start before position 0.
        // It escapes to a short patch, and every window — partition 77's,
        // the running example, and its neighbours' — is served exactly.
        let table = ShiftTable::build(&DivTen, &keys);
        assert_eq!((table.shifted_lines(), table.patches()), (0, 59));
        assert_eq!(table.entry(77), ShiftEntry::new(-41, 2));
        assert_eq!(table.correct(77), SearchHint::bounded(36, 2));
        for (k, (start, end)) in [76usize, 77, 78].into_iter().zip(windows) {
            assert_eq!(
                table.correct(k),
                SearchHint::bounded(start, end - start),
                "{k}"
            );
        }
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
            fn name(&self) -> &'static str {
                "quarter"
            }
        }
        let keys = vec![1u64, 2, 3, 35];
        // Predictions: 0,0,0,3 → partitions 1 and 2 empty. Partition 2
        // mirrors partition 3 shifted by one, partition 1 partition 2, and
        // the end, partition 4, sits at the end of the column.
        let drifts = compute_range_drifts(&Quarter, &keys);
        assert_eq!(drifts, [0, 2, 1, 0, 0]);
        // They all resolve to the same absolute start (position 3): the
        // empty partitions' windows are empty there, partition 0's ends
        // there.
        let table = ShiftTable::build(&Quarter, &keys);
        let windows: Vec<_> = (0..4).map(|k| table.correct(k)).collect();
        assert_eq!(
            windows,
            [(0, 3), (3, 0), (3, 0), (3, 1)].map(|(start, len)| SearchHint::bounded(start, len))
        );

        // Trailing empty partitions start past the last key.
        let drifts = compute_range_drifts(&Quarter, &[1u64, 2, 3, 4]);
        assert_eq!(drifts, [0, 3, 2, 1, 0]);
    }

    #[cfg_attr(miri, ignore = "dataset too large for Miri")]
    #[test]
    fn windows_always_contain_the_true_position() {
        for name in SosdName::all() {
            let d: Dataset<u64> = name.generate(20_000, 3);
            let model = InterpolationModel::build(&d);
            let drifts = compute_range_drifts(&model, d.as_slice());
            let keys = d.as_slice();
            let mut first_occurrence = 0usize;
            for (i, &k) in keys.iter().enumerate() {
                if i > 0 && keys[i - 1] == k {
                    // duplicate
                } else {
                    first_occurrence = i;
                }
                let pred = model.predict_clamped(k);
                let start = pred as i64 + drifts[pred] as i64;
                let end = pred as i64 + 1 + drifts[pred + 1] as i64;
                assert!(
                    start <= first_occurrence as i64 && (first_occurrence as i64) < end,
                    "{name}: key {k} pos {first_occurrence} outside window [{start}, {end})",
                );
            }
        }
    }

    /// The scatter builder's layer: the reference the emitter must equal.
    fn reference<K: Key, M: CdfModel<K> + ?Sized>(model: &M, keys: &[K]) -> Lines {
        Lines::from_drifts(&compute_range_drifts(model, keys))
    }

    /// Assert that the emitter builds the scatter reference — the same
    /// lines and patches, so the same `size_bytes`.
    fn assert_emitter_matches_reference<K: Key, M: CdfModel<K> + ?Sized>(
        model: &M,
        keys: &[K],
        tag: &str,
    ) -> Lines {
        let expected = reference(model, keys);
        assert!(
            build_range_layer(model, keys) == expected,
            "{tag}: emitted layer differs"
        );
        expected
    }

    #[cfg_attr(miri, ignore = "dataset too large for Miri")]
    #[test]
    fn emitter_matches_scatter_reference_on_every_generator_and_model() {
        use learned_index::spec::ModelSpec;
        // Every built-in model never falls, so the scatter builder's layer
        // is the emitter's. The matrix holds layers with escaped lines and
        // layers of long windows throughout: a least-squares line over
        // lognormal keys crowds its predictions into few partitions between
        // long stretches of empty ones. On every layer a sloped line is
        // shifted or escaped only where a plain one would be, and on many
        // the slopes leave fewer such lines.
        let (mut patched, mut narrowed) = (0, 0);
        let adversaries = sosd_data::generators::adversary_columns();
        let specs = [
            "im",
            "linear",
            "cubic",
            "rmi:64",
            "rmi:4096",
            "rmi:64:cubic",
            "rs:32",
            "pgm:64",
        ];
        for spec in specs.map(|spec| ModelSpec::parse(spec).unwrap()) {
            let mut check = |keys: &[u64], tag: String| {
                let model = spec.build(keys);
                let layer = assert_emitter_matches_reference(&*model, keys, &tag);
                patched += usize::from(layer.patches() > 0);
                // Sloped lines against plain ones, line for line.
                let drifts = compute_range_drifts(&*model, keys);
                let (sloped, plain) = assert_no_wider_than_plain(&drifts, &tag);
                narrowed += usize::from(sloped < plain);
            };
            for n in [4_096, 6_000, 70_000, 200_000] {
                for name in SosdName::all() {
                    let d: Dataset<u64> = name.generate(n, 21);
                    check(d.as_slice(), format!("{name} {spec} n={n}"));
                }
            }
            for (name, keys) in &adversaries {
                check(keys, format!("{name} {spec}"));
            }
        }
        assert!(patched > 20, "and patches: {patched} layers hold some");
        assert!(narrowed > 100, "slopes narrow {narrowed} layers");
    }

    #[cfg_attr(miri, ignore = "dataset too large for Miri")]
    #[test]
    fn emitter_matches_scatter_on_duplicate_runs_and_empty_stretches() {
        for (name, keys) in sosd_data::generators::adversary_columns() {
            let model = InterpolationModel::from_sorted_keys(&keys);
            assert_emitter_matches_reference(&model, &keys, name);
        }
    }

    #[test]
    fn emitter_matches_scatter_on_a_quadratic_column_of_4096_keys() {
        // Small enough for Miri to run the emitter's staging and line
        // appends end to end.
        let keys: Vec<u64> = (0..4096u64).map(|i| i * i / 7).collect();
        let model = InterpolationModel::from_sorted_keys(&keys);
        assert_emitter_matches_reference(&model, &keys, "4096");
    }

    /// A staircase over `0..n`: never falling, or with every `dip`-th key
    /// predicted two steps too low.
    struct Stairs {
        n: usize,
        step: u64,
        dip: Option<u64>,
    }
    impl CdfModel<u64> for Stairs {
        fn predict(&self, key: u64) -> usize {
            let stair = (key / self.step * self.step) as usize;
            match self.dip {
                Some(dip) if key % dip == dip - 1 => stair.saturating_sub(2 * self.step as usize),
                _ => stair,
            }
        }
        fn key_count(&self) -> usize {
            self.n
        }
        fn size_bytes(&self) -> usize {
            0
        }
        fn name(&self) -> &'static str {
            "stairs"
        }
    }

    /// Predicts `self.0[key]`: a model over the keys `0..n` given by its
    /// predictions.
    struct Listed(Vec<usize>);
    impl CdfModel<u64> for Listed {
        fn predict(&self, key: u64) -> usize {
            self.0[key as usize]
        }
        fn key_count(&self) -> usize {
            self.0.len()
        }
        fn size_bytes(&self) -> usize {
            0
        }
        fn name(&self) -> &'static str {
            "listed"
        }
    }

    /// Assert that `model`, which falls somewhere over the keys `0..n`,
    /// builds the scatter reference of its running maximum.
    fn assert_builds_its_running_maximum(model: &dyn CdfModel<u64>, n: usize, tag: &str) {
        let keys: Vec<u64> = (0..n as u64).collect();
        assert!(
            !learned_index::model::verify_monotonic_on(model, &keys),
            "{tag}: the model must actually fall"
        );
        let maximum = keys.iter().scan(0, |maximum, &key| {
            *maximum = model.predict_clamped(key).max(*maximum);
            Some(*maximum)
        });
        let maximum = Listed(maximum.collect());
        assert!(
            build_range_layer(model, &keys) == reference(&maximum, &keys),
            "{tag}: not the running maximum's layer"
        );
    }

    #[cfg_attr(miri, ignore = "dataset too large for Miri")]
    #[test]
    fn a_model_that_falls_builds_through_its_running_maximum_and_answers_exactly() {
        use algo_index::RangeIndex;
        let n = 5_000;
        let keys: Vec<u64> = (0..n as u64).collect();
        // Every key, and past the last.
        let queries: Vec<u64> = (0..n as u64 + 2).chain([u64::MAX]).collect();
        let expected: Vec<usize> = queries
            .iter()
            .map(|&q| keys.partition_point(|&k| k < q))
            .collect();
        // One dip per 1 000 keys — inside a run, or on a run's first or last
        // key, depending on the step — and one only the last key tells.
        let dips = [
            (10, 1_000),
            (7, 1_024),
            (1, 1_025),
            (1_000, 999),
            (1, n as u64),
        ];
        for (step, dip) in dips {
            let tag = format!("step {step} dip {dip}");
            let liar = Stairs {
                n,
                step,
                dip: Some(dip),
            };
            assert_builds_its_running_maximum(&liar, n, &tag);
            // Its windows miss some lower bounds; the lookups find them.
            let index = crate::CorrectedIndex::builder(keys.as_slice(), &liar)
                .with_range_table()
                .build()
                .unwrap();
            let scalar: Vec<usize> = queries.iter().map(|&q| index.lower_bound(q)).collect();
            assert!(scalar == expected, "{tag}: scalar lookups");
            let mut batch = vec![0; queries.len()];
            index.lower_bound_batch(&queries, &mut batch);
            assert!(batch == expected, "{tag}: batch lookups");
            // The same staircase without the dips builds the reference.
            let honest = Stairs { n, step, dip: None };
            assert_emitter_matches_reference(&honest, &keys, "stairs");
        }
    }

    /// Pairs a line serves.
    const PAIRS: usize = Line::PAIRS;

    #[cfg_attr(miri, ignore = "dataset too large for Miri")]
    #[test]
    fn an_over_wide_block_is_patched_and_an_over_long_count_coded() {
        // Stairs of 70 000 keys: every window is 70 000 records, and `Δ`
        // falls from 69 999 back to 0 at a stair's first partition — the
        // line holding both drifts spreads past 239 and is escaped.
        // Three stairs' worth, three escaped lines: two patches of 116
        // drifts, and a short one of 59 words where the last stair's
        // 10 000 keys spread its line less than 65 536. The short last
        // line, 40 pairs falling to the end's 0 and 75 of flat padding,
        // bends by more than 14 under its slope, and its rounded windows
        // would end past the column: a second short patch.
        let n = 150_000;
        let keys: Vec<u64> = (0..n as u64).collect();
        let stairs = |step| Stairs { n, step, dip: None };
        let bytes = |patches: usize| 64 * n.div_ceil(PAIRS) + 4 * patches;
        let (full, short) = (116, 59);
        assert_eq!(n % PAIRS, 40);
        let layer = assert_emitter_matches_reference(&stairs(70_000), &keys, "long stairs");
        // A stair's empty partitions fall by one apiece: a slope of −1
        // stores them exactly.
        let patches = 2 * full + 2 * short;
        assert_eq!(
            (layer.patches(), layer.size_bytes()),
            (patches, bytes(patches))
        );
        // The window ends where the next stair starts: served exactly.
        assert_eq!(layer.pair(0), Some((0, 0, 70_000)));
        assert_eq!(layer.delta(8), 69_992);
        // Stairs of 40 000, four short patches and the last line's, and one
        // duplicate run of 70 000 among them.
        let layer = assert_emitter_matches_reference(&stairs(40_000), &keys, "short stairs");
        let patches = 5 * short;
        assert_eq!(
            (layer.patches(), layer.size_bytes()),
            (patches, bytes(patches))
        );
        let mut dups = keys.clone();
        dups[50_000..120_000].fill(50_000);
        let layer = assert_emitter_matches_reference(&stairs(40_000), &dups, "duplicate run");
        // Partition 40 000 takes 80 000 keys: its window ends at 120 000,
        // and its line takes a patch of 116 drifts.
        assert_eq!(layer.pair(40_000), Some((40_000, 0, 80_000)));
        let patches = full + 3 * short;
        assert_eq!(
            (layer.patches(), layer.size_bytes()),
            (patches, bytes(patches))
        );
        // Every key predicted into the last partition: every other one is
        // empty and starts at the first key, drifting down by one a
        // partition. Only the last line, where the end's drift of 0 follows
        // the last partition's `1 − n`, is escaped.
        let n = 70_000;
        let model = Stairs {
            n,
            step: 1,
            dip: None,
        };
        let layer = assert_emitter_matches_reference(&model, &vec![n as u64; n], "last");
        assert_eq!(layer.pair(n - 1), Some((n - 1, 1 - n as i32, n)));
        let bytes = 64 * n.div_ceil(PAIRS) + 464;
        assert_eq!((layer.patches(), layer.size_bytes()), (116, bytes));
    }

    #[cfg_attr(miri, ignore = "dataset too large for Miri")]
    #[test]
    fn one_over_long_window_is_served_exactly() {
        // wiki64 under IM: the last partition with keys takes more of them
        // than `u16` counts. Its window is served at its exact length, from
        // the drift of the partition after it.
        let n = 512 * 1024;
        let d: Dataset<u64> = SosdName::Wiki64.generate(n, 7);
        let model = InterpolationModel::build(&d);
        let mut counts = vec![0usize; n];
        d.as_slice()
            .iter()
            .for_each(|&key| counts[model.predict_clamped(key)] += 1);
        let (at, &longest) = counts.iter().enumerate().max_by_key(|c| c.1).unwrap();
        assert!(longest > u16::MAX as usize, "longest window {longest}");
        let layer = assert_emitter_matches_reference(&model, d.as_slice(), "wiki64");
        let table = ShiftTable::build(&model, d.as_slice());
        let delta = compute_range_drifts(&model, d.as_slice())[at];
        assert_eq!(
            table.entry(at),
            ShiftEntry::new(delta.into(), longest as u64)
        );
        // A window past 248 records, less its line's climb, escapes its
        // line: under 3 % of them.
        assert!(layer.patches() < n / 25, "{} patches", layer.patches());
        assert!(layer.size_bytes() < n * 14 / 10);
    }

    #[test]
    fn small_columns_are_emitted_like_the_reference() {
        for n in [0usize, 1, 7, 8, 9, 1_023, 1_024, 1_025, 2_049] {
            let keys: Vec<u64> = (0..n as u64).map(|i| i * i / 3).collect();
            let model = InterpolationModel::from_sorted_keys(&keys);
            let layer = assert_emitter_matches_reference(&model, &keys, &format!("n={n}"));
            // A drift a partition, and the end's.
            assert_eq!(layer.len(), if n == 0 { 0 } else { n + 1 });
        }
        // All keys in the first partition; all in the last; one duplicate.
        let model = Stairs {
            n: 9,
            step: 100,
            dip: None,
        };
        assert_emitter_matches_reference(&model, &[1, 2, 3, 4, 5, 6, 7, 8, 9], "first");
        assert_emitter_matches_reference(&model, &[900; 9], "last");
        // A model that falls, small enough for Miri.
        let liar = Stairs {
            n: 1_100,
            step: 3,
            dip: Some(500),
        };
        assert_builds_its_running_maximum(&liar, 1_100, "falls");
        // A model whose runs break the range contract is held at the last
        // partition: the layer has `n + 1` drifts all the same.
        struct Past;
        impl CdfModel<u64> for Past {
            fn predict(&self, _key: u64) -> usize {
                usize::MAX
            }
            fn key_count(&self) -> usize {
                20
            }
            fn size_bytes(&self) -> usize {
                0
            }
            fn name(&self) -> &'static str {
                "past"
            }
            fn predict_clamped_into(&self, _keys: &[u64], out: &mut [u32]) {
                out.fill(u32::MAX);
            }
        }
        let keys: Vec<u64> = (0..20).collect();
        assert!(build_range_layer(&Past, &keys) == reference(&Past, &keys));
    }

    #[test]
    fn empty_keys_produce_empty_layers() {
        let d: Dataset<u64> = Dataset::from_keys("e", vec![]);
        let model = InterpolationModel::build(&d);
        assert!(compute_range_drifts(&model, d.as_slice()).is_empty());
        assert!(build_range_layer(&model, d.as_slice()).is_empty());
    }
}
