//! # Batch kernel pipeline
//!
//! The software-pipelined batch lower-bound kernel behind
//! [`crate::index::CorrectedIndex`]'s `lower_bound_batch`.
//!
//! ## Wave structure
//!
//! A batch is cut into blocks of [`ShiftTableConfig::batch_block`] queries
//! (default [`DEFAULT_BATCH_BLOCK`]). Within a block the lookup is split into
//! stages, and each stage runs as its own tight loop so its memory traffic is
//! issued back-to-back instead of interleaved with unrelated work:
//!
//! 1. **Predict** — one model execution per query; model parameters stay hot
//!    in registers/L1 across the whole block.
//! 2. **Correct** — one Shift-Table slot load per prediction; the slots are
//!    independent, so the block's layer loads all overlap in the memory
//!    system (memory-level parallelism) instead of serializing.
//! 3. **Small windows** — lookups whose corrected window is below the
//!    linear/binary threshold (a cache line or two) resolve with an
//!    early-exit linear scan. A block with no wide window — detected for
//!    free during the correct stage — takes a fast path with no lane lists
//!    at all; mixed blocks scan behind a [`ShiftTableConfig::wave_depth`]
//!    lookahead touch that pulls wave `i + 1`'s lines while wave `i`
//!    compares.
//! 4. **Wavefront, large windows** — lookups with wide windows would each
//!    serialize dependent loads down a binary-search chain, so they resolve
//!    *breadth-first across the block*: a bracket-init pass loads every wide
//!    lane's boundary keys back-to-back, then each level advances every
//!    surviving lane by one iterated-interpolation probe (cached boundary
//!    keys make the interpolant free; a lane whose probe shrank its bracket
//!    by less than a quarter bisects on its next level instead, so
//!    interpolation-hostile data still converges in `O(log w)` levels
//!    without taxing the lanes where interpolation is working). A
//!    level's loads are independent across lanes, so the block extracts
//!    memory-level parallelism that a lane-at-a-time search cannot. Lanes
//!    leave the wavefront at [`WAVEFRONT_FINISH`] wide and finish with an
//!    early-exit scan from a line the probes already warmed. Both paths end
//!    with the §3.8 repair gallop when the window missed (non-monotone model
//!    or far out-of-range query).
//!
//! ## Why the touch stage is safe-Rust prefetch
//!
//! The kernel issues no intrinsics: the touch stage performs ordinary
//! bounds-checked reads (`keys[first] < q`) whose results accumulate into a
//! counter fed to [`std::hint::black_box`] once per block. The loads are real
//! (the black-box sink keeps them from being dead-code-eliminated), they
//! carry no side effects, and their values are never used for an answer — so
//! they behave exactly like a prefetch, in 100% safe code.
//!
//! ## Tail-truncation invariant
//!
//! Stage state lives in fixed-capacity stack buffers
//! (`[_; MAX_BATCH_BLOCK]`) reused across blocks, so entries past the current
//! chunk length still hold values from the *previous* block. Every stage loop
//! is therefore truncated to the chunk length up front — no loop may iterate
//! the full buffer, or it would consume a stale prediction/hint and silently
//! return a wrong position. (Regression-tested in `index.rs` and here.)
//!
//! The stage-blocked predecessors of the pipelined kernel (`*_blocked`) are
//! kept verbatim: they are the benchmark baseline the acceptance criterion
//! compares against and the differential-test oracle.

use crate::compact::CompactShiftTable;
use crate::config::ShiftTableConfig;
use crate::correction::{Correction, SearchHint};
use crate::local_search::{binary_in_window, exponential_around, linear_in_window};
use crate::table::ShiftTable;
use learned_index::model::CdfModel;
use sosd_data::key::Key;

/// Default queries per amortization block (the historical `BATCH_BLOCK`).
pub const DEFAULT_BATCH_BLOCK: usize = 64;

/// Capacity of the kernel's stack stage buffers; `batch_block` is clamped to
/// this at query time.
pub const MAX_BATCH_BLOCK: usize = 128;

/// Default lookups per pipeline wave: deep enough that the touch stage runs
/// a cache-miss latency ahead of the resolve stage, small enough that the
/// touched lines are still resident when their wave resolves.
pub const DEFAULT_WAVE_DEPTH: usize = 8;

/// Bracket width at which the wavefront search stops probing and hands the
/// lane to an early-exit scan: six cache lines of `u64` keys. Below this
/// width a probe saves at most a couple of sequential, prefetch-friendly
/// lines while adding a level of bookkeeping to every surviving lane —
/// measured across the SOSD sweep, 48 beat both 16 and 64.
pub const WAVEFRONT_FINISH: usize = 48;

/// Is `pos` the lower bound of `q` in `keys`?
#[inline]
pub(crate) fn is_lower_bound<K: Key>(keys: &[K], pos: usize, q: K) -> bool {
    let n = keys.len();
    (pos == n || keys[pos] >= q) && (pos == 0 || keys[pos - 1] < q)
}

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

/// Touch helper for a range-mode hint (window endpoints).
#[inline]
fn touch_hint<K: Key>(keys: &[K], hint: SearchHint, q: K) -> usize {
    touch_span(keys, hint.start, hint.window.unwrap_or(1).max(1), q)
}

/// Validate a resolved position and fall back to the §3.8 repair gallop when
/// the window missed (non-monotone model or far out-of-range query).
#[inline]
fn repair<K: Key>(keys: &[K], pos: usize, q: K) -> usize {
    if is_lower_bound(keys, pos, q) {
        pos
    } else {
        exponential_around(keys, pos.min(keys.len() - 1), q)
    }
}

/// The clamped `(block, wave)` pair for a config.
#[inline]
fn block_and_wave(config: &ShiftTableConfig) -> (usize, usize) {
    let block = config.batch_block.clamp(1, MAX_BATCH_BLOCK);
    let wave = config.wave_depth.clamp(1, block);
    (block, wave)
}

/// Pipelined batch lower bounds through a range-mode (`<Δ, C>`) layer.
pub(crate) fn run_range<K: Key, M: CdfModel<K> + ?Sized>(
    model: &M,
    table: &ShiftTable,
    keys: &[K],
    config: &ShiftTableConfig,
    queries: &[K],
    out: &mut [usize],
) {
    if keys.is_empty() {
        out.fill(0);
        return;
    }
    let (block, wave) = block_and_wave(config);
    let threshold = config.linear_to_binary_threshold;
    // Kernel statistics: plain local accumulators in the loop, one set of
    // relaxed atomic adds at the end — and only when someone is listening
    // (the gate is a predicted branch per call when stats are off).
    let stats_on = crate::stats::enabled();
    let (mut st_blocks, mut st_wide, mut st_levels) = (0u64, 0u64, 0u64);
    let mut predictions = [0usize; MAX_BATCH_BLOCK];
    let mut hints = [SearchHint::unbounded(0); MAX_BATCH_BLOCK];
    // Lane lists and wavefront state, indexed by cohort slot.
    let mut small = [0usize; MAX_BATCH_BLOCK];
    let mut big = [0usize; MAX_BATCH_BLOCK];
    let mut blo = [0usize; MAX_BATCH_BLOCK];
    let mut bhi = [0usize; MAX_BATCH_BLOCK];
    let mut klo = [0.0f64; MAX_BATCH_BLOCK];
    let mut khi = [0.0f64; MAX_BATCH_BLOCK];
    let mut act = [0usize; MAX_BATCH_BLOCK];
    // Per-lane adaptive-bisection flag: set when the lane's last
    // interpolation probe shrank its bracket by less than a quarter, making
    // the *next* level bisect instead (see the probe loop below).
    let mut bis = [false; MAX_BATCH_BLOCK];
    let mut touched = 0usize;
    for (qs, os) in queries.chunks(block).zip(out.chunks_mut(block)) {
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
        // issued back-to-back. Piggyback a count of wide windows so an
        // all-small block (the common case on well-modelled data) can skip
        // the lane-split stage entirely.
        let mut wide = 0usize;
        for (h, &p) in hints.iter_mut().zip(predictions.iter()) {
            let hint = table.correct(p);
            wide += (hint.window.unwrap_or(0).max(1) >= threshold) as usize;
            *h = hint;
        }
        // Stage 3: split the block by window size. Small windows fit a cache
        // line or two and resolve with an early-exit scan behind a touch
        // wave; large windows go through the block-wide wavefront search.
        let cutoff = threshold.max(WAVEFRONT_FINISH);
        let (mut ns, mut nb) = (0usize, 0usize);
        if wide > 0 {
            for (i, h) in hints.iter().enumerate() {
                if h.window.unwrap_or(0).max(1) < threshold {
                    small[ns] = i;
                    ns += 1;
                } else {
                    big[nb] = i;
                    nb += 1;
                }
            }
        }
        // Small lanes. A block with no wide windows resolves in lane order
        // with no list indirection — each lane is one or two independent
        // loads, which the core overlaps on its own. Mixed blocks go through
        // the small-lane list behind a `wave_depth` lookahead touch: while
        // lane `j` resolves, lane `j + wave`'s window lines are requested,
        // so the scan finds them already in flight.
        if wide == 0 {
            for (i, (&q, o)) in qs.iter().zip(os.iter_mut()).enumerate() {
                let window = hints[i].window.unwrap_or(0).max(1);
                let pos = linear_in_window(keys, hints[i].start, window, q);
                *o = repair(keys, pos, q);
            }
        } else {
            for j in 0..ns {
                if let Some(&t) = small[..ns].get(j + wave) {
                    touched += touch_hint(keys, hints[t], qs[t]);
                }
                let i = small[j];
                let window = hints[i].window.unwrap_or(0).max(1);
                let pos = linear_in_window(keys, hints[i].start, window, qs[i]);
                os[i] = repair(keys, pos, qs[i]);
            }
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

/// Pipelined batch lower bounds through a midpoint (compact) layer: the
/// corrected positions seed galloping searches, with the position's cache
/// line touched one wave ahead.
pub(crate) fn run_midpoint<K: Key, M: CdfModel<K> + ?Sized>(
    model: &M,
    table: &CompactShiftTable,
    keys: &[K],
    config: &ShiftTableConfig,
    queries: &[K],
    out: &mut [usize],
) {
    if keys.is_empty() {
        out.fill(0);
        return;
    }
    let (block, wave) = block_and_wave(config);
    let mut starts = [0usize; MAX_BATCH_BLOCK];
    let mut touched = 0usize;
    for (qs, os) in queries.chunks(block).zip(out.chunks_mut(block)) {
        let len = qs.len();
        let starts = &mut starts[..len];
        let os = &mut os[..len];
        for (p, &q) in starts.iter_mut().zip(qs.iter()) {
            *p = model.predict_clamped(q);
        }
        for p in starts.iter_mut() {
            *p = table.correct(*p).start;
        }
        for i in 0..wave.min(len) {
            touched += touch_span(keys, starts[i], 1, qs[i]);
        }
        let mut lo = 0usize;
        while lo < len {
            let hi = (lo + wave).min(len);
            let next_hi = (hi + wave).min(len);
            for i in hi..next_hi {
                touched += touch_span(keys, starts[i], 1, qs[i]);
            }
            for i in lo..hi {
                os[i] = exponential_around(keys, starts[i], qs[i]);
            }
            lo = hi;
        }
    }
    std::hint::black_box(touched);
}

/// Pipelined batch lower bounds from raw model predictions (no layer, or the
/// layer disabled at run time).
pub(crate) fn run_raw<K: Key, M: CdfModel<K> + ?Sized>(
    model: &M,
    keys: &[K],
    config: &ShiftTableConfig,
    queries: &[K],
    out: &mut [usize],
) {
    if keys.is_empty() {
        out.fill(0);
        return;
    }
    let (block, wave) = block_and_wave(config);
    let mut predictions = [0usize; MAX_BATCH_BLOCK];
    let mut touched = 0usize;
    for (qs, os) in queries.chunks(block).zip(out.chunks_mut(block)) {
        let len = qs.len();
        let predictions = &mut predictions[..len];
        let os = &mut os[..len];
        for (p, &q) in predictions.iter_mut().zip(qs.iter()) {
            *p = model.predict_clamped(q);
        }
        for i in 0..wave.min(len) {
            touched += touch_span(keys, predictions[i], 1, qs[i]);
        }
        let mut lo = 0usize;
        while lo < len {
            let hi = (lo + wave).min(len);
            let next_hi = (hi + wave).min(len);
            for i in hi..next_hi {
                touched += touch_span(keys, predictions[i], 1, qs[i]);
            }
            for i in lo..hi {
                os[i] = exponential_around(keys, predictions[i], qs[i]);
            }
            lo = hi;
        }
    }
    std::hint::black_box(touched);
}

/// One range-mode lookup exactly as the pre-kernel scalar path performs it:
/// branchy bounded search, then the repair gallop.
#[inline]
fn resolve_range_blocked<K: Key>(
    keys: &[K],
    hint: SearchHint,
    q: K,
    config: &ShiftTableConfig,
) -> usize {
    let window = hint.window.unwrap_or(0).max(1);
    let pos = if window < config.linear_to_binary_threshold {
        linear_in_window(keys, hint.start, window, q)
    } else {
        binary_in_window(keys, hint.start, window, q)
    };
    if is_lower_bound(keys, pos, q) {
        pos
    } else {
        exponential_around(keys, pos.min(keys.len() - 1), q)
    }
}

/// The pre-pipeline stage-blocked range path, kept verbatim as the benchmark
/// baseline and differential-test oracle.
pub(crate) fn run_range_blocked<K: Key, M: CdfModel<K> + ?Sized>(
    model: &M,
    table: &ShiftTable,
    keys: &[K],
    config: &ShiftTableConfig,
    queries: &[K],
    out: &mut [usize],
) {
    if keys.is_empty() {
        out.fill(0);
        return;
    }
    let mut predictions = [0usize; DEFAULT_BATCH_BLOCK];
    let mut hints = [SearchHint::unbounded(0); DEFAULT_BATCH_BLOCK];
    for (qs, os) in queries
        .chunks(DEFAULT_BATCH_BLOCK)
        .zip(out.chunks_mut(DEFAULT_BATCH_BLOCK))
    {
        let predictions = &mut predictions[..qs.len()];
        let hints = &mut hints[..qs.len()];
        for (p, &q) in predictions.iter_mut().zip(qs.iter()) {
            *p = model.predict_clamped(q);
        }
        for (h, &p) in hints.iter_mut().zip(predictions.iter()) {
            *h = table.correct(p);
        }
        for ((o, &q), &h) in os.iter_mut().zip(qs.iter()).zip(hints.iter()) {
            *o = resolve_range_blocked(keys, h, q, config);
        }
    }
}

/// The pre-pipeline stage-blocked midpoint path (baseline/oracle twin of
/// [`run_midpoint`]).
pub(crate) fn run_midpoint_blocked<K: Key, M: CdfModel<K> + ?Sized>(
    model: &M,
    table: &CompactShiftTable,
    keys: &[K],
    queries: &[K],
    out: &mut [usize],
) {
    if keys.is_empty() {
        out.fill(0);
        return;
    }
    let mut predictions = [0usize; DEFAULT_BATCH_BLOCK];
    for (qs, os) in queries
        .chunks(DEFAULT_BATCH_BLOCK)
        .zip(out.chunks_mut(DEFAULT_BATCH_BLOCK))
    {
        let predictions = &mut predictions[..qs.len()];
        for (p, &q) in predictions.iter_mut().zip(qs.iter()) {
            *p = model.predict_clamped(q);
        }
        for p in predictions.iter_mut() {
            *p = table.correct(*p).start;
        }
        for ((o, &q), &start) in os.iter_mut().zip(qs.iter()).zip(predictions.iter()) {
            *o = exponential_around(keys, start, q);
        }
    }
}

/// The pre-pipeline stage-blocked raw-model path (baseline/oracle twin of
/// [`run_raw`]).
pub(crate) fn run_raw_blocked<K: Key, M: CdfModel<K> + ?Sized>(
    model: &M,
    keys: &[K],
    queries: &[K],
    out: &mut [usize],
) {
    if keys.is_empty() {
        out.fill(0);
        return;
    }
    let mut predictions = [0usize; DEFAULT_BATCH_BLOCK];
    for (qs, os) in queries
        .chunks(DEFAULT_BATCH_BLOCK)
        .zip(out.chunks_mut(DEFAULT_BATCH_BLOCK))
    {
        let predictions = &mut predictions[..qs.len()];
        for (p, &q) in predictions.iter_mut().zip(qs.iter()) {
            *p = model.predict_clamped(q);
        }
        for ((o, &q), &p) in os.iter_mut().zip(qs.iter()).zip(predictions.iter()) {
            *o = exponential_around(keys, p, q);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use learned_index::linear::InterpolationModel;
    use sosd_data::prelude::*;

    /// Run every kernel path and its blocked twin over `queries` and assert
    /// all of them match `partition_point`.
    fn assert_all_paths(keys: &[u64], queries: &[u64], config: &ShiftTableConfig) {
        let expected: Vec<usize> = queries
            .iter()
            .map(|&q| keys.partition_point(|&k| k < q))
            .collect();
        let model = InterpolationModel::from_sorted_keys(keys);
        let table = ShiftTable::build(&model, keys);
        let compact = CompactShiftTable::build(&model, keys, 4);
        let mut out = vec![usize::MAX; queries.len()];

        run_range(&model, &table, keys, config, queries, &mut out);
        assert_eq!(out, expected, "run_range block={}", config.batch_block);
        out.fill(usize::MAX);
        run_range_blocked(&model, &table, keys, config, queries, &mut out);
        assert_eq!(out, expected, "run_range_blocked");
        out.fill(usize::MAX);
        run_midpoint(&model, &compact, keys, config, queries, &mut out);
        assert_eq!(out, expected, "run_midpoint block={}", config.batch_block);
        out.fill(usize::MAX);
        run_midpoint_blocked(&model, &compact, keys, queries, &mut out);
        assert_eq!(out, expected, "run_midpoint_blocked");
        out.fill(usize::MAX);
        run_raw(&model, keys, config, queries, &mut out);
        assert_eq!(out, expected, "run_raw block={}", config.batch_block);
        out.fill(usize::MAX);
        run_raw_blocked(&model, keys, queries, &mut out);
        assert_eq!(out, expected, "run_raw_blocked");
    }

    fn block_wave_grid() -> Vec<ShiftTableConfig> {
        let mut configs = Vec::new();
        for block in [1usize, 2, 7, 63, 64, 65, MAX_BATCH_BLOCK, 100_000] {
            for wave in [1usize, 3, 8, 64, 100_000] {
                configs.push(
                    ShiftTableConfig::default()
                        .with_batch_block(block)
                        .with_wave_depth(wave),
                );
            }
        }
        configs
    }

    #[cfg_attr(miri, ignore = "dataset too large for Miri")]
    #[test]
    fn every_block_wave_combination_matches_reference() {
        let d: Dataset<u64> = SosdName::Face64.generate(4_000, 17);
        let keys = d.as_slice();
        let w = Workload::uniform_domain(&d, 3 * DEFAULT_BATCH_BLOCK + 19, 23);
        for config in block_wave_grid() {
            assert_all_paths(keys, w.queries(), &config);
        }
    }

    #[test]
    fn adversarial_shapes_match_reference() {
        let config = ShiftTableConfig::default();
        // Empty keys.
        let mut out = vec![9usize; 3];
        let empty: Vec<u64> = vec![];
        let model = InterpolationModel::from_sorted_keys(&empty);
        let table = ShiftTable::build(&model, &empty);
        run_range(&model, &table, &empty, &config, &[1, 2, 3], &mut out);
        assert_eq!(out, vec![0, 0, 0]);

        // Single key, duplicate runs, and swing queries across block tails.
        let single = vec![7u64];
        assert_all_paths(&single, &[6, 7, 8], &config);

        let mut dups: Vec<u64> = Vec::new();
        for v in 0..150u64 {
            dups.extend(std::iter::repeat_n(v * 3, 1 + (v % 13) as usize));
        }
        let mut rng = SplitMix64::new(0x51D3);
        let queries: Vec<u64> = (0..2 * DEFAULT_BATCH_BLOCK + 11)
            .map(|i| {
                if i % 2 == 0 {
                    dups[rng.next_below(dups.len() as u64) as usize]
                } else {
                    rng.next_below(500)
                }
            })
            .collect();
        for config in block_wave_grid() {
            assert_all_paths(&dups, &queries, &config);
        }

        // Empty query slice is a no-op.
        let model = InterpolationModel::from_sorted_keys(&dups);
        let table = ShiftTable::build(&model, &dups);
        run_range(&model, &table, &dups, &config, &[], &mut []);
    }

    #[test]
    fn kernel_stats_record_lanes_and_blocks_when_opted_in() {
        let d: Dataset<u64> = SosdName::Logn64.generate(10_000, 7);
        let keys = d.as_slice();
        let model = InterpolationModel::from_sorted_keys(keys);
        let table = ShiftTable::build(&model, keys);
        let w = Workload::uniform_domain(&d, 1_000, 5);
        let mut out = vec![0usize; w.len()];
        let config = ShiftTableConfig::default();

        let _flag = crate::stats::FLAG_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let was = crate::stats::enabled();
        let off = crate::stats::snapshot();
        crate::stats::set_enabled(true);
        assert!(crate::stats::enabled());
        // Other tests record too while the flag is on, so the deltas are
        // lower bounds.
        let before = crate::stats::snapshot();
        run_range(&model, &table, keys, &config, w.queries(), &mut out);
        let after = crate::stats::snapshot();
        crate::stats::set_enabled(was);
        assert!(after.lanes - before.lanes >= 1_000);
        assert!(after.blocks - before.blocks >= 1_000_u64.div_ceil(64));
        assert!(after.wide_lanes >= off.wide_lanes);
    }

    #[test]
    fn non_monotone_model_windows_are_repaired() {
        // A zig-zag model produces windows that miss; the repair gallop must
        // keep every path exact through the pipeline.
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
            fn is_monotonic(&self) -> bool {
                false
            }
            fn name(&self) -> &'static str {
                "zigzag"
            }
        }
        let keys: Vec<u64> = (0..1_000u64).map(|i| i * 5).collect();
        let model = ZigZag(keys.len());
        let table = ShiftTable::build(&model, &keys);
        let queries: Vec<u64> = (0..321u64).map(|i| i * 17 % 5_200).collect();
        let expected: Vec<usize> = queries
            .iter()
            .map(|&q| keys.partition_point(|&k| k < q))
            .collect();
        let mut out = vec![0usize; queries.len()];
        for config in [
            ShiftTableConfig::default(),
            ShiftTableConfig::default().with_wave_depth(1),
            ShiftTableConfig::default()
                .with_batch_block(5)
                .with_wave_depth(2),
        ] {
            run_range(&model, &table, &keys, &config, &queries, &mut out);
            assert_eq!(out, expected);
            run_raw(&model, &keys, &config, &queries, &mut out);
            assert_eq!(out, expected);
        }
    }
}
