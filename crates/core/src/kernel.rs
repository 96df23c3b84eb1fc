//! # Batch kernel pipeline
//!
//! The software-pipelined batch lower-bound kernel behind
//! [`crate::index::CorrectedIndex`]'s `lower_bound_batch`. It is one lookup
//! for every layer: generic over the [`Correction`], it predicts, corrects
//! once and resolves each hint — a bounded `<Δ, C>` window (R-1) or an
//! unbounded position (S-X, or the raw prediction when no layer serves).
//!
//! ## Wave structure
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
//! 3. **Small lanes** — bounded windows below the linear/binary threshold (a
//!    cache line or two) resolve with an early-exit linear scan; unbounded
//!    hints gallop from their position. A block of bounded narrow windows
//!    only — detected for free during the correct stage — takes a fast path
//!    with no lane list and no touch; any other block resolves its small
//!    lanes behind a [`WAVE_DEPTH`] lookahead touch that pulls lane
//!    `j + WAVE_DEPTH`'s lines while lane `j` compares.
//! 4. **Wavefront, wide windows** — bounded lookups with wide windows would
//!    each serialize dependent loads down a binary-search chain, so they
//!    resolve *breadth-first across the block*: a bracket-init pass loads
//!    every wide lane's boundary keys back-to-back, then each level advances
//!    every surviving lane by one iterated-interpolation probe (cached
//!    boundary keys make the interpolant free; a lane whose probe shrank its
//!    bracket by less than a quarter bisects on its next level instead, so
//!    interpolation-hostile data still converges in `O(log w)` levels
//!    without taxing the lanes where interpolation is working). A level's
//!    loads are independent across lanes, so the block extracts memory-level
//!    parallelism that a lane-at-a-time search cannot. Lanes leave the
//!    wavefront at [`WAVEFRONT_FINISH`] wide and finish with an early-exit
//!    scan from a line the probes already warmed. Unbounded lanes never
//!    enter it. Every bounded path ends with the §3.8 repair gallop when the
//!    window missed — which it never does under a model of
//!    `learned_index`, and may under a caller's model that falls.
//!
//! ## Why the touch stage is safe-Rust prefetch
//!
//! The kernel issues no intrinsics: the touch stage performs ordinary
//! bounds-checked reads (`keys[first] < q`) whose results accumulate into a
//! counter fed to [`std::hint::black_box`] once per call. The loads are real
//! (the black-box sink keeps them from being dead-code-eliminated), they
//! carry no side effects, and their values are never used for an answer — so
//! they behave exactly like a prefetch, in 100% safe code.
//!
//! ## Tail-truncation invariant
//!
//! Stage state lives in fixed-capacity stack buffers (`[_; BATCH_BLOCK]`)
//! reused across blocks, so entries past the current chunk length still hold
//! values from the *previous* block. Every stage loop is therefore truncated
//! to the chunk length up front — no loop may iterate the full buffer, or it
//! would consume a stale prediction/hint and silently return a wrong
//! position. (Regression-tested in `index.rs` and here.)
//!
//! `run_blocked` is the one stage-blocked reference: the same predict and
//! correct stages, then `resolve` lane by lane — exactly the scalar
//! `lower_bound`'s search. It is the benchmark baseline the pipelined kernel
//! is measured against and the differential-test oracle.

use crate::correction::{Correction, SearchHint};
use crate::local_search::{binary_in_window, exponential_around, linear_in_window};
use learned_index::model::CdfModel;
use sosd_data::key::Key;

/// Queries per amortization block, and the capacity of the kernel's stack
/// stage buffers. Model prediction and layer correction run as tight
/// per-block loops; 64 lanes is enough to overlap a block's layer loads
/// while the stage state stays a few KB of stack. Not a knob: the block/wave
/// sweep this constant replaced (blocks of 16, 32, 64 and 128 at waves of 8,
/// on uniform and osmc keys under `im+r1`, 2 M keys, 2-vCPU x86) put every
/// block within 6 % of 64, either way — inside run-to-run noise.
pub const BATCH_BLOCK: usize = 64;

/// Lookups per pipeline wave: the small-lane loop touches lane
/// `j + WAVE_DEPTH`'s key lines while lane `j` resolves. Deep enough that the
/// touch runs a cache-miss latency ahead of the resolve, small enough that
/// the touched lines are still resident when their lane resolves. The same
/// sweep put waves of 1, 4, 16, 32 and 64 at a 64-query block within 6 % of
/// 8, either way.
pub const WAVE_DEPTH: usize = 8;

/// Bracket width at which the wavefront search stops probing and hands the
/// lane to an early-exit scan: six cache lines of `u64` keys. Below this
/// width a probe saves at most a couple of sequential, prefetch-friendly
/// lines while adding a level of bookkeeping to every surviving lane —
/// measured across the SOSD sweep, 48 beat both 16 and 64.
pub const WAVEFRONT_FINISH: usize = 48;

/// Touch the first and last key of a predicted window — the safe-Rust
/// prefetch described in the module docs. Returns a value that must flow
/// into a [`std::hint::black_box`] sink so the loads are not elided.
#[inline]
fn touch_span<K: Key>(keys: &[K], start: usize, window: usize, q: K) -> usize {
    let n = keys.len();
    debug_assert!(n > 0, "kernel entry points guard the empty-key case");
    let first = start.min(n - 1);
    let last = (start + window.saturating_sub(1)).min(n - 1);
    (keys[first] < q) as usize + (keys[last] < q) as usize
}

/// Touch helper for a hint: a bounded window's endpoints, or an unbounded
/// hint's one position.
#[inline]
fn touch_hint<K: Key>(keys: &[K], hint: SearchHint, q: K) -> usize {
    touch_span(keys, hint.start, hint.window.unwrap_or(1).max(1), q)
}

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

/// Does `hint` go to the wavefront? Only bounded windows at or past the
/// linear/binary threshold do.
#[inline]
fn is_wide(hint: SearchHint, threshold: usize) -> bool {
    hint.window.is_some_and(|w| w.max(1) >= threshold)
}

/// Algorithm 1's local search from one hint, on a non-empty key column: a
/// bounded window is scanned linearly below `threshold` and binary-searched
/// at or above it, then repaired (§3.8); an unbounded hint gallops from its
/// start. The scalar `lower_bound` and [`run_blocked`] both resolve here.
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

/// Resolve lanes `lane(0..count)` behind a lookahead touch: the first wave
/// is touched up front, then lane `lane(j + WAVE_DEPTH)`'s lines are
/// requested while `lane(j)` resolves. Returns the touch sink. A small lane
/// is `resolve` without the binary arm none takes (3 % faster on the
/// benchmark's `static_narrow` kernel); `lane` is a closure so a block with
/// no wide lane indexes directly (through a list, S-X on uniform keys was a
/// quarter slower).
#[inline]
fn small_lanes<K: Key>(
    keys: &[K],
    hints: &[SearchHint],
    qs: &[K],
    os: &mut [usize],
    count: usize,
    lane: impl Fn(usize) -> usize,
) -> usize {
    let mut touched = 0usize;
    for t in (0..count.min(WAVE_DEPTH)).map(&lane) {
        touched += touch_hint(keys, hints[t], qs[t]);
    }
    for j in 0..count {
        if j + WAVE_DEPTH < count {
            let t = lane(j + WAVE_DEPTH);
            touched += touch_hint(keys, hints[t], qs[t]);
        }
        let i = lane(j);
        let (h, q) = (hints[i], qs[i]);
        os[i] = match h.window {
            Some(w) => repair(keys, linear_in_window(keys, h.start, w.max(1), q), q),
            None => exponential_around(keys, h.start, q),
        };
    }
    touched
}

/// Pipelined batch lower bounds through any correction (module docs).
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
    // Kernel statistics: plain local accumulators in the loop, one set of
    // relaxed atomic adds at the end — and only when someone is listening
    // (the gate is a predicted branch per call when stats are off).
    let stats_on = crate::stats::enabled();
    let (mut st_blocks, mut st_wide, mut st_levels) = (0u64, 0u64, 0u64);
    let mut predictions = [0usize; BATCH_BLOCK];
    let mut hints = [SearchHint::unbounded(0); BATCH_BLOCK];
    // Lane lists and wavefront state, indexed by cohort slot.
    let mut small = [0usize; BATCH_BLOCK];
    let mut big = [0usize; BATCH_BLOCK];
    let mut blo = [0usize; BATCH_BLOCK];
    let mut bhi = [0usize; BATCH_BLOCK];
    let mut klo = [0.0f64; BATCH_BLOCK];
    let mut khi = [0.0f64; BATCH_BLOCK];
    let mut act = [0usize; BATCH_BLOCK];
    // Per-lane adaptive-bisection flag: set when the lane's last
    // interpolation probe shrank its bracket by less than a quarter, making
    // the *next* level bisect instead (see the probe loop below).
    let mut bis = [false; BATCH_BLOCK];
    let mut touched = 0usize;
    for (qs, os) in queries.chunks(BATCH_BLOCK).zip(out.chunks_mut(BATCH_BLOCK)) {
        // Tail-truncation invariant (module docs): every stage loop runs
        // over `..len` of the reused stage buffers.
        let len = qs.len();
        let predictions = &mut predictions[..len];
        let hints = &mut hints[..len];
        let os = &mut os[..len];
        // Stage 1: predict the whole block.
        for (p, &q) in predictions.iter_mut().zip(qs.iter()) {
            *p = model.predict_clamped(q);
        }
        // Stage 2: correct the whole block — independent layer-slot loads,
        // issued back-to-back. Piggyback counts of wide and unbounded hints
        // so a block of narrow windows only (the common case on
        // well-modelled data) can skip the lane-split stage entirely.
        let (mut wide, mut gallop) = (0usize, 0usize);
        for (h, &p) in hints.iter_mut().zip(predictions.iter()) {
            let hint = correction.correct(p);
            wide += is_wide(hint, threshold) as usize;
            gallop += hint.window.is_none() as usize;
            *h = hint;
        }
        let cutoff = threshold.max(WAVEFRONT_FINISH);
        let mut nb = 0usize;
        if wide == 0 && gallop == 0 {
            // Narrow windows only: lane order, no touch — each lane is one
            // or two independent loads, which the core overlaps on its own.
            for ((&q, o), h) in qs.iter().zip(os.iter_mut()).zip(hints.iter()) {
                let pos = linear_in_window(keys, h.start, h.window.unwrap_or(0).max(1), q);
                *o = repair(keys, pos, q);
            }
        } else if wide == 0 {
            // No wide window: every lane is small, in lane order.
            touched += small_lanes(keys, hints, qs, os, len, |j| j);
        } else {
            // Stage 3: split the block. Wide windows go through the
            // block-wide wavefront search below; the rest resolve here.
            let mut ns = 0usize;
            for (i, &h) in hints.iter().enumerate() {
                if is_wide(h, threshold) {
                    big[nb] = i;
                    nb += 1;
                } else {
                    small[ns] = i;
                    ns += 1;
                }
            }
            touched += small_lanes(keys, hints, qs, os, ns, |j| small[j]);
        }
        // Big lanes, level 0: bracket every lane's window and cache its
        // boundary keys — the two end loads of each lane issue back-to-back
        // across the block. The bracket invariant is `partition_point`'s:
        // every index below `blo` holds a key `< q`, every index at or above
        // `bhi` a key `>= q`, so the answer stays in `[blo, bhi]`.
        let mut active = 0usize;
        for (b, &i) in big.iter().enumerate().take(nb) {
            let start = hints[i].start.min(keys.len());
            let end = start
                .saturating_add(hints[i].window.unwrap_or(0).max(1))
                .min(keys.len());
            blo[b] = start;
            bhi[b] = end;
            if end - start > cutoff {
                // Probing lane: cache the boundary keys interpolation needs.
                klo[b] = keys[start].to_f64();
                khi[b] = keys[end - 1].to_f64();
                bis[b] = false;
                act[active] = b;
                active += 1;
            } else {
                // Scan-only lane: the bracket is already narrow enough for
                // the finish scan. Touch its first and expected-middle lines
                // instead of the boundary keys — the end key would never be
                // used, while the scan's own lines are now in flight.
                touched += touch_span(keys, start, (end - start) / 2 + 1, qs[i]);
            }
        }
        // Big lanes, probe levels: breadth-first iterated interpolation.
        // Each pass advances *every* wide bracket by one probe — exactly one
        // new key load per lane per level, so a level's loads are
        // independent and overlap in the memory system instead of
        // serializing down one lane's compare chain. Interpolation probes
        // collapse a smooth bracket in O(log log w) levels where binary
        // needs O(log w); each lane *adapts* per level — a probe that shrank
        // its bracket by less than a quarter flags the lane to bisect on its
        // next level (after which it tries interpolating again), so
        // interpolation-hostile windows (edge-hugging probes on clustered
        // keys) alternate probe/halve and still finish in O(log w) levels,
        // while well-modelled lanes in the same block never pay a blind
        // scheduled halving.
        // The cached boundary keys come from prior probes, so interpolation
        // never costs an extra load. The active list compacts each level, so
        // finished lanes cost nothing.
        let mut level = 0usize;
        while active > 0 {
            let mut kept = 0usize;
            for s in 0..active {
                let b = act[s];
                let (lo, hi) = (blo[b], bhi[b]);
                let q = qs[big[b]];
                let span = khi[b] - klo[b];
                let g = if bis[b] || span <= 0.0 {
                    lo + (hi - lo) / 2
                } else {
                    let frac = ((q.to_f64() - klo[b]) / span).clamp(0.0, 1.0);
                    (lo + (frac * (hi - 1 - lo) as f64) as usize).min(hi - 1)
                };
                let kg = keys[g];
                if kg < q {
                    blo[b] = g + 1;
                    klo[b] = kg.to_f64();
                } else {
                    bhi[b] = g;
                    khi[b] = kg.to_f64();
                }
                let new_w = bhi[b] - blo[b];
                // A bisection shrinks by half, so this resets to false and
                // the lane alternates back to interpolation next level.
                bis[b] = 4 * new_w > 3 * (hi - lo);
                if new_w > cutoff {
                    act[kept] = b;
                    kept += 1;
                }
            }
            active = kept;
            level += 1;
        }
        // Big lanes, finish: the surviving bracket starts at a line a probe
        // already pulled — an early-exit forward scan (sequential,
        // speculation- and prefetch-friendly compares) beats the serial
        // conditional-move chain a binary finish would pay. Validate/repair
        // closes the contract.
        for (b, &i) in big.iter().enumerate().take(nb) {
            let pos = linear_in_window(keys, blo[b], bhi[b] - blo[b], qs[i]);
            os[i] = repair(keys, pos, qs[i]);
        }
        if stats_on {
            st_blocks += 1;
            st_wide += nb as u64;
            st_levels += level as u64;
        }
    }
    if stats_on {
        crate::stats::record(st_blocks, queries.len() as u64, st_wide, st_levels);
    }
    std::hint::black_box(touched);
}

/// The stage-blocked reference: predict and correct per block, then
/// [`resolve`] each lane serially — the benchmark baseline and
/// differential-test oracle of [`run`].
pub(crate) fn run_blocked<K: Key, M: CdfModel<K> + ?Sized, C: Correction + ?Sized>(
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
        let predictions = &mut predictions[..qs.len()];
        let hints = &mut hints[..qs.len()];
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
    use crate::compact::CompactShiftTable;
    use crate::correction::Uncorrected;
    use crate::table::ShiftTable;
    use learned_index::linear::InterpolationModel;
    use sosd_data::prelude::*;

    /// The default linear/binary threshold.
    const THRESHOLD: usize = 8;

    /// Query lengths that cross the wave and block sizes: below, at and past
    /// one wave, one block and two blocks, and a three-block run with a tail.
    const LENGTHS: [usize; 11] = [1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 3 * BATCH_BLOCK + 19];

    /// Run `run`, `run_blocked` and the scalar `resolve` with each of the
    /// three corrections over `queries` and assert all of them match
    /// `partition_point`.
    fn assert_all_paths<M: CdfModel<u64>>(model: &M, keys: &[u64], queries: &[u64]) {
        let expected: Vec<usize> = queries
            .iter()
            .map(|&q| keys.partition_point(|&k| k < q))
            .collect();
        let table = ShiftTable::build(model, keys);
        let compact = CompactShiftTable::build(model, keys, 4);
        let corrections: [(&str, &dyn Correction); 3] = [
            ("range", &table),
            ("midpoint", &compact),
            ("uncorrected", &Uncorrected),
        ];
        let mut out = vec![usize::MAX; queries.len()];
        for (name, c) in corrections {
            run(model, c, keys, THRESHOLD, queries, &mut out);
            assert_eq!(out, expected, "run {name} len={}", queries.len());
            out.fill(usize::MAX);
            run_blocked(model, c, keys, THRESHOLD, queries, &mut out);
            assert_eq!(out, expected, "run_blocked {name} len={}", queries.len());
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
        // of 300 keys inside 300 units (one prediction slot, a window far
        // past `WAVEFRONT_FINISH`). The first block queries the uniform part
        // only — the narrow fast path; from the second block on every fifth
        // query hits the cluster, so blocks mix narrow, probing and tail
        // lanes.
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
                    rng.next_below(4_000_000)
                }
            })
            .collect();

        let table = ShiftTable::build(&model, &keys);
        let window = |q: u64| table.correct(model.predict_clamped(q)).window.unwrap();
        let (head, rest) = pool.split_at(BATCH_BLOCK);
        assert!(
            head.iter().all(|&q| window(q) < THRESHOLD),
            "fast-path block"
        );
        let second = &rest[..BATCH_BLOCK];
        assert!(second.iter().any(|&q| window(q) > WAVEFRONT_FINISH));
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
    fn kernel_stats_record_lanes_and_blocks_when_opted_in() {
        let d: Dataset<u64> = SosdName::Logn64.generate(10_000, 7);
        let keys = d.as_slice();
        let model = InterpolationModel::from_sorted_keys(keys);
        let table = ShiftTable::build(&model, keys);
        let compact = CompactShiftTable::build(&model, keys, 10);
        let w = Workload::uniform_domain(&d, 1_000, 5);
        let mut out = vec![0usize; w.len()];

        let _flag = crate::stats::FLAG_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let was = crate::stats::enabled();
        let off = crate::stats::snapshot();
        crate::stats::set_enabled(true);
        assert!(crate::stats::enabled());
        // Other tests record too while the flag is on, so the deltas are
        // lower bounds. Every layer's batches are recorded.
        let before = crate::stats::snapshot();
        run(&model, &table, keys, THRESHOLD, w.queries(), &mut out);
        run(&model, &compact, keys, THRESHOLD, w.queries(), &mut out);
        run(&model, &Uncorrected, keys, THRESHOLD, w.queries(), &mut out);
        let after = crate::stats::snapshot();
        crate::stats::set_enabled(was);
        assert!(after.lanes - before.lanes >= 3_000);
        assert!(after.blocks - before.blocks >= 3 * 1_000_u64.div_ceil(64));
        assert!(after.wide_lanes >= off.wide_lanes);
    }

    #[test]
    fn non_monotone_model_windows_are_repaired() {
        // A zig-zag model builds through its running maximum, so its
        // windows miss; the repair gallop must keep every path exact
        // through the pipeline.
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
        for len in [1, WAVE_DEPTH + 1, BATCH_BLOCK + 5, queries.len()] {
            assert_all_paths(&model, &keys, &queries[..len]);
        }
    }
}
