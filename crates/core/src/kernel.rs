//! # Batch kernel
//!
//! The stage-blocked batch lower-bound loop behind
//! [`crate::index::CorrectedIndex`]'s `lower_bound_batch`. It is one lookup
//! for both layers: generic over the [`Correction`] — instantiated for the
//! [`crate::ShiftTable`] and for no layer — it predicts, corrects once and
//! resolves each hint: a bounded `<Δ, C>` window (R-1) or the raw
//! prediction as an unbounded position (no layer, or one switched off).
//!
//! ## Stages
//!
//! A batch is cut into blocks of [`BATCH_BLOCK`] queries. Within a block the
//! lookup is split into stages, and each stage runs as its own tight loop so
//! its memory traffic is issued back-to-back instead of interleaved with
//! unrelated work:
//!
//! 1. **Predict** — one model execution per query; model parameters stay hot
//!    in registers/L1 across the whole block.
//! 2. **Correct** — one layer slot load per prediction; the slots are
//!    independent, so the block's layer loads all overlap in the memory
//!    system (memory-level parallelism) instead of serializing.
//! 3. **Resolve** — Algorithm 1's local search, lane by lane, exactly as the
//!    scalar `lower_bound` runs it: a bounded window is scanned linearly
//!    below the linear/binary threshold and binary-searched at or above it,
//!    then repaired with the §3.8 gallop when it missed — which it never
//!    does under a model of `learned_index`, and may under a caller's model
//!    that falls; an unbounded hint gallops from its position.
//!
//! ## Tail-truncation invariant
//!
//! Stage state lives in fixed-capacity stack buffers (`[_; BATCH_BLOCK]`)
//! reused across blocks, so entries past the current chunk length still hold
//! values from the *previous* block. Every stage loop is therefore truncated
//! to the chunk length up front — no loop may iterate the full buffer, or it
//! would consume a stale prediction/hint and silently return a wrong
//! position. (Regression-tested in `index.rs` and here.)

use crate::correction::{Correction, SearchHint};
use crate::local_search::{binary_in_window, exponential_around, linear_in_window};
use learned_index::model::CdfModel;
use sosd_data::key::Key;

/// Queries per amortization block, and the capacity of the kernel's stack
/// stage buffers. Model prediction and layer correction run as tight
/// per-block loops; 64 lanes is enough to overlap a block's layer loads
/// while the stage state stays a few KB of stack. Not a knob: a sweep of
/// blocks of 16, 32, 64 and 128 (uniform and osmc keys under `im+r1`, 2 M
/// keys, 2-vCPU x86) put every block within 6 % of 64, either way — inside
/// run-to-run noise.
pub const BATCH_BLOCK: usize = 64;

/// Validate that `pos` is the lower bound of `q` and fall back to the §3.8
/// repair gallop when the window missed: under a model that falls, whose
/// layer is that of its running maximum ([`crate::build`]).
#[inline]
fn repair<K: Key>(keys: &[K], pos: usize, q: K) -> usize {
    let n = keys.len();
    if (pos == n || keys[pos] >= q) && (pos == 0 || keys[pos - 1] < q) {
        pos
    } else {
        exponential_around(keys, pos.min(keys.len() - 1), q)
    }
}

/// Algorithm 1's local search from one hint, on a non-empty key column: a
/// bounded window is scanned linearly below `threshold` and binary-searched
/// at or above it, then repaired (§3.8); an unbounded hint gallops from its
/// start. The scalar `lower_bound` and [`run`] both resolve here.
#[inline]
pub(crate) fn resolve<K: Key>(keys: &[K], hint: SearchHint, q: K, threshold: usize) -> usize {
    let Some(window) = hint.window else {
        return exponential_around(keys, hint.start, q);
    };
    let window = window.max(1);
    let pos = if window < threshold {
        linear_in_window(keys, hint.start, window, q)
    } else {
        binary_in_window(keys, hint.start, window, q)
    };
    repair(keys, pos, q)
}

/// Batch lower bounds through any correction (module docs): predict and
/// correct per block, then [`resolve`] each lane.
pub(crate) fn run<K: Key, M: CdfModel<K> + ?Sized, C: Correction + ?Sized>(
    model: &M,
    correction: &C,
    keys: &[K],
    threshold: usize,
    queries: &[K],
    out: &mut [usize],
) {
    if keys.is_empty() {
        out.fill(0);
        return;
    }
    let mut predictions = [0usize; BATCH_BLOCK];
    let mut hints = [SearchHint::unbounded(0); BATCH_BLOCK];
    for (qs, os) in queries.chunks(BATCH_BLOCK).zip(out.chunks_mut(BATCH_BLOCK)) {
        // Tail-truncation invariant (module docs): every stage loop runs
        // over `..len` of the reused stage buffers.
        let len = qs.len();
        let predictions = &mut predictions[..len];
        let hints = &mut hints[..len];
        for (p, &q) in predictions.iter_mut().zip(qs.iter()) {
            *p = model.predict_clamped(q);
        }
        for (h, &p) in hints.iter_mut().zip(predictions.iter()) {
            *h = correction.correct(p);
        }
        for ((o, &q), &h) in os.iter_mut().zip(qs.iter()).zip(hints.iter()) {
            *o = resolve(keys, h, q, threshold);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correction::Uncorrected;
    use crate::table::ShiftTable;
    use learned_index::linear::InterpolationModel;
    use sosd_data::prelude::*;

    /// The default linear/binary threshold.
    const THRESHOLD: usize = 8;

    /// Query lengths that cross the block size: below, at and past one and
    /// two blocks, and a three-block run with a tail.
    const LENGTHS: [usize; 11] = [1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 3 * BATCH_BLOCK + 19];

    /// Run `run` and the scalar `resolve` with each of the two corrections
    /// over `queries` and assert both match `partition_point`.
    fn assert_all_paths<M: CdfModel<u64>>(model: &M, keys: &[u64], queries: &[u64]) {
        let expected: Vec<usize> = queries
            .iter()
            .map(|&q| keys.partition_point(|&k| k < q))
            .collect();
        let table = ShiftTable::build(model, keys);
        let corrections: [(&str, &dyn Correction); 2] =
            [("range", &table), ("uncorrected", &Uncorrected)];
        let mut out = vec![usize::MAX; queries.len()];
        for (name, c) in corrections {
            run(model, c, keys, THRESHOLD, queries, &mut out);
            assert_eq!(out, expected, "run {name} len={}", queries.len());
            out.fill(usize::MAX);
            if !keys.is_empty() {
                let scalar = |&q| resolve(keys, c.correct(model.predict_clamped(q)), q, THRESHOLD);
                let out: Vec<usize> = queries.iter().map(scalar).collect();
                assert_eq!(out, expected, "scalar {name} len={}", queries.len());
            }
        }
    }

    #[cfg_attr(miri, ignore = "dataset too large for Miri")]
    #[test]
    fn every_length_across_wave_and_block_edges_matches_reference() {
        // Uniform keys a thousand apart (narrow R-1 windows) plus a cluster
        // of 300 keys inside 300 units (one prediction slot, a window of
        // hundreds of keys). The first block queries the uniform part only,
        // and none of it within 150 000 units of the cluster — about 160
        // predictions, two lines — so no lane reads the cluster's line,
        // whose long window escapes it: every
        // lane scans linearly. From the second block
        // on every fifth query hits the cluster, so blocks mix scanned,
        // binary-searched and tail lanes.
        let mut keys: Vec<u64> = (0..4_000u64).map(|i| i * 1_000).collect();
        keys.extend((0..300u64).map(|j| 2_000_000 + j));
        keys.sort_unstable();
        let model = InterpolationModel::from_sorted_keys(&keys);
        let mut rng = SplitMix64::new(0x1E9);
        let pool: Vec<u64> = (0..*LENGTHS.iter().max().unwrap())
            .map(|i| {
                if i >= BATCH_BLOCK && i % 5 == 0 {
                    2_000_000 + rng.next_below(300)
                } else {
                    loop {
                        let q = rng.next_below(4_000_000);
                        if i >= BATCH_BLOCK || q.abs_diff(2_000_000) > 150_000 {
                            break q;
                        }
                    }
                }
            })
            .collect();

        let table = ShiftTable::build(&model, &keys);
        let window = |q: u64| table.correct(model.predict_clamped(q)).window.unwrap();
        let (head, rest) = pool.split_at(BATCH_BLOCK);
        assert!(head.iter().all(|&q| window(q) < THRESHOLD), "narrow block");
        let second = &rest[..BATCH_BLOCK];
        assert!(second.iter().any(|&q| window(q) > 100));
        assert!(second.iter().any(|&q| window(q) < THRESHOLD));

        for len in LENGTHS {
            assert_all_paths(&model, &keys, &pool[..len]);
        }
    }

    #[test]
    fn adversarial_shapes_match_reference() {
        // Empty keys.
        let mut out = vec![9usize; 3];
        let empty: Vec<u64> = vec![];
        let model = InterpolationModel::from_sorted_keys(&empty);
        let table = ShiftTable::build(&model, &empty);
        run(&model, &table, &empty, THRESHOLD, &[1, 2, 3], &mut out);
        assert_eq!(out, vec![0, 0, 0]);

        // Single key, duplicate runs, and swing queries across block tails.
        let single = vec![7u64];
        let model = InterpolationModel::from_sorted_keys(&single);
        assert_all_paths(&model, &single, &[6, 7, 8]);

        let mut dups: Vec<u64> = Vec::new();
        for v in 0..150u64 {
            dups.extend(std::iter::repeat_n(v * 3, 1 + (v % 13) as usize));
        }
        let mut rng = SplitMix64::new(0x51D3);
        let queries: Vec<u64> = (0..2 * BATCH_BLOCK + 11)
            .map(|i| {
                if i % 2 == 0 {
                    dups[rng.next_below(dups.len() as u64) as usize]
                } else {
                    rng.next_below(500)
                }
            })
            .collect();
        let model = InterpolationModel::from_sorted_keys(&dups);
        for len in LENGTHS.into_iter().filter(|&l| l <= queries.len()) {
            assert_all_paths(&model, &dups, &queries[..len]);
        }

        // Empty query slice is a no-op.
        let table = ShiftTable::build(&model, &dups);
        run(&model, &table, &dups, THRESHOLD, &[], &mut []);
    }

    #[test]
    fn predictions_into_empty_partitions_resolve_at_the_next_start() {
        // Two far clusters under IM: every partition between them is empty,
        // so most queries drawn from the domain are predicted into one and
        // served an empty window where the second cluster starts.
        let (_, keys) = sosd_data::generators::adversary_columns()
            .into_iter()
            .find(|(name, _)| *name == "two clusters")
            .unwrap();
        let model = InterpolationModel::from_sorted_keys(&keys);
        let table = ShiftTable::build(&model, &keys);
        let mut rng = SplitMix64::new(0xE3F7);
        let top = keys[keys.len() - 1] + 2;
        let queries: Vec<u64> = (0..*LENGTHS.iter().max().unwrap())
            .map(|i| match i % 8 {
                0 => keys[rng.next_below(keys.len() as u64) as usize],
                _ => rng.next_below(top),
            })
            .collect();
        let empty = queries
            .iter()
            .filter(|&&q| table.correct(model.predict_clamped(q)).window == Some(0))
            .count();
        assert!(2 * empty > queries.len(), "{empty} empty windows");
        for len in LENGTHS {
            assert_all_paths(&model, &keys, &queries[..len]);
        }
    }

    #[test]
    fn non_monotone_model_windows_are_repaired() {
        // A zig-zag model builds through its running maximum, so its
        // windows miss; the repair gallop must keep every path exact
        // through the batch loop.
        struct ZigZag(usize);
        impl CdfModel<u64> for ZigZag {
            fn predict(&self, key: u64) -> usize {
                let n = self.0;
                let k = key as usize % n;
                if k.is_multiple_of(2) {
                    n - 1 - k
                } else {
                    k
                }
            }
            fn key_count(&self) -> usize {
                self.0
            }
            fn size_bytes(&self) -> usize {
                0
            }
            fn name(&self) -> &'static str {
                "zigzag"
            }
        }
        let keys: Vec<u64> = (0..1_000u64).map(|i| i * 5).collect();
        let model = ZigZag(keys.len());
        let queries: Vec<u64> = (0..321u64).map(|i| i * 17 % 5_200).collect();
        for len in [1, 9, BATCH_BLOCK + 5, queries.len()] {
            assert_all_paths(&model, &keys, &queries[..len]);
        }
    }
}
