//! The layout of the range layer: cache lines of one base, one slope and
//! 116 four-bit offsets, one drift a partition.
//!
//! The layer stores each partition's drift `Δ_k` and no window length: the
//! window of partition `k` ends where partition `k + 1`'s starts
//! ([`crate::table`]), so a fetch reads two neighbouring drifts. They are
//! stored in 64-byte, 64-aligned [`Line`]s. Bytes `0..60` hold 116 offsets
//! of 4 bits each, LSB first — offset `i` at bits `4·i..4·i + 4` — then at
//! bits 464 and 465 the high half of the line's **unit** code `u − 1`,
//! `u ∈ 1..=16`, and in the 14 bits above them, up to bit 480, the line's
//! **slope** `a`, two's complement; bytes `60..64` hold one little-endian
//! `i32` base: the line's least residual in its low 30 bits and the unit
//! code's low half in its top two. An offset, below 15, counts units of
//! `u` records above the base, and the slope, in units of `2^−6` records a
//! partition, adds the line's climb to slot `i`:
//!
//! ```text
//! Δ_i = base + ((a·i) >> 6) + o_i·u        (>> flooring)
//! ```
//!
//! Inside one line an inaccurate model's drifts mostly climb or fall at a
//! steady rate — its local slope error — and offsets counted from the
//! line's minimum would have to cover that whole climb; under the slope
//! they cover only what is left, the **residuals** `Δ_i − ((a·i) >> 6)`.
//! A line holds 116 drifts and serves `PAIRS = 115` pairs: line `j` holds
//! the drifts `115·j ..= 115·j + 115`, its last repeating the first of line
//! `j + 1`, so the pair `(k, k + 1)` of every fetch lies in line `k / 115`
//! — one cache line a correction, the paper's "at most one memory lookup".
//! Both offsets of pair `i` sit in the four bytes from byte `⌊i/2⌋ ≤ 57`
//! on: one unaligned `u32` load, shifted right by `4·(i mod 2)` and masked
//! twice. The last pair's load reaches the unit code's bits, the slope's
//! and the base's low byte, which the masks drop.
//!
//! | offsets (bits) | slope: bits, unit, range | pairs a line | bytes a key | escaped line |
//! |----------------|--------------------------|--------------|-------------|--------------|
//! | 116 × 4 (464)  | 14, 1/64 record, `−2^13..=2^13 − 1` | 115 | ≈ 0.557 | 236 B more (464 past a spread of 65 535) |
//!
//! **The slope is the line's own.** The builder offers each line its
//! endpoint slope, `a = round(64·(Δ_last − Δ_first) / 115)` (half up)
//! clamped to the field, and keeps it where it leaves the residuals a
//! smaller spread than slope 0 does — both spreads found in one pass over
//! the line — so a line is never wider than a plain one. A line whose
//! drifts leave 30 bits (no built layer's: `|Δ| ≤ N ≤`
//! [`crate::ShiftTable::MAX_KEYS`]) keeps slope 0, so no residual wraps,
//! and a slope under which a line cannot be stored gives way to slope 0
//! before the line is escaped. A short last line is padded with copies of
//! its last drift, and its slope runs to the last of them.
//!
//! A line's unit is the least `u` with `spread ≤ 15·u − 1`, that is
//! `⌊spread / 15⌋ + 1`, its residuals' spread counted from their minimum.
//! A line spreading at most 14 has `u = 1` and stores every drift exactly.
//! A **shifted** line, `u > 1`, rounds each offset down, so a fetch serves
//! a window from the rounded start to the rounded end plus `u − 1`: the
//! exact window, overhanging each end by at most `u − 1 ≤ 15` records —
//! two 64-byte lines of `u64` keys. The largest unit is 16 because four
//! bits hold less than five: capped at 8, a line escapes past a spread of
//! 119, and noisy models' lines spread past that often — `store_mixed`'s
//! face64 shards under IM weigh 0.682 bytes a key against 0.631, and
//! osmc64 under IM at 6 k keys 1.155 against 0.959.
//!
//! **Every unit up to 16, not powers of two.** A line's served windows
//! overhang the exact ones by `u − 1` records on average, whatever the
//! rounding, so the unit is the least that fits, not the next power of
//! two: a line spreading 60 takes unit 5, not 8. Units of `2^s` read a
//! corrected IM lookup on face64 at 100 k keys 5.12 key-array probes, past
//! FAST's 5.0 (the paper's §2.2 claim, `tests/paper_claims.rs`); every
//! unit up to 16 reads 4.93 (93 five-bit offsets read 4.57). The fetch
//! multiplies by the unit instead of shifting by `s`, and the builder
//! divides by it through a reciprocal. The unit code takes 4 bits, one
//! from the slope: 14 bits hold `±128` records a partition.
//!
//! A line is **escaped** when no unit fits it — its residuals spread past
//! `15·16 − 1 = 239` under either slope — when a shifted window would
//! overhang the column (below position 0 or past `N`), or when its base
//! does not fit 30 bits. Every one of its offsets is `ESCAPE = 15`, its
//! drifts go to a **patch** in a patch array of `i32` words, and its base
//! holds where the patch starts there. A short patch — the line's slope
//! field −1 — holds the least drift `m`, then each drift less it as a
//! 16-bit offset `q_i`, two a word, low half first: 59 words, 236 bytes,
//! for any line whose drifts spread at most 65 535; its last word holds
//! the last pair, `q_114` and `q_115`, whole. A full patch — slope field
//! 0 — holds the 116 drifts as they are, 464 bytes. So with
//! `i = k % 115`, `o` and `p` its offsets `i` and `i + 1`, and
//! `r(i) = (a·i) >> 6`, a fetch serves the drift `Δ` and the window length
//!
//! ```text
//! base + r(i) + o·u,        r(i + 1) − r(i) + (p − o + 1)·u, 0 where not positive      o != ESCAPE
//! m + q_i,                  1 + Δ' − Δ,  0 where Δ' < Δ                 o == ESCAPE, short: Δ' = m + q_{i+1}
//! patches[base + i],        1 + Δ' − Δ,  0 where Δ' < Δ                 o == ESCAPE, full:  Δ' = patches[base + i + 1]
//! ```
//!
//! — one dependent load more on the escape, no directory and no search. A
//! layer without an escaped line keeps no patch array. The length of a
//! line in place is taken from its offsets, not from its two decoded
//! drifts: fewer instructions a fetch, so more of the 64 fetches of a
//! block can wait on memory at once. In seven alternating traced
//! `static_narrow` runs of the benchmark (2-vCPU x86), a fetch that decoded
//! both drifts of a line of 60 byte offsets read a median
//! `core.table.correct_ns` of 39 ns, one that took the length from the
//! offsets 33.
//!
//! **One width.** A model whose error is noise rather than slope spreads
//! the residuals of many lines past 14, and those lines are shifted, not
//! widened: the layer keeps its bytes and its windows overhang by a few
//! records more. At the benchmark's dataset seed, `store_mixed`'s face64
//! shards under IM shift most of their lines and weigh ≈ 0.63 bytes a key
//! (0.77 with 93 five-bit offsets a line), their key-weighted mean window
//! 12.9 keys against 10.3 (14.3 with units of `2^s`). A shifted line's
//! windows can leave the column only within `u − 1` records of its ends,
//! so the builder checks them window by window only where the line's
//! starts may come that near position 0 or `N`: where its first pair plus
//! its least drift, or its last pair plus its greatest, does.
//!
//! An escaped line is, in practice, a stretch where a dense region climbs
//! `Δ` past what a unit fits inside one line, or a window of that many
//! records. Whether a fetch reads one is a property of the query, not of
//! the layer: on the amzn64 IM layer (4 Mi keys) with five-bit lines 264 of
//! 45 591 lines (0.6 %) were escaped and 59.6 % of the keys predicted into
//! one, so the branch on the escape is mispredicted often there. Reading a
//! patch slot on every fetch and selecting without a branch won there and
//! lost where escapes are rare — timed on blocks of 8 drifts, 64 fetches at
//! a time between cache-evicting searches (2-vCPU x86): 26 against 32 ns a
//! fetch on that layer, 26 against 19 on osmc64 under `rmi:4096`, where
//! 0.6 % of the fetches were escaped — so the branch stays.

/// Bytes of a line in front of its base: the 480 bits of its offsets, two
/// unit bits and its slope.
const OFFSET_BYTES: usize = 60;

/// The first byte of the word whose top bits are the line's slope: the
/// four bytes in front of the base.
const SLOPE_WORD: usize = OFFSET_BYTES - 4;

/// The largest unit a line takes: a window overhangs each end by at most
/// `16 − 1 = 15` records. A constant, not a knob — a larger one widens
/// the windows of the lines it saves.
const MAX_UNIT: u32 = 16;

/// Bits of a drift offset.
const BITS: u32 = 4;

/// The first bit of the slope word ([`SLOPE_WORD`]) past the offsets: the
/// two high bits of the line's unit code, the two bits below the slope.
const HIGH_UNIT: u32 = 32 - Line::SLOPE_BITS - 2;

/// Offsets a line is staged in before it is packed: whole groups of eight.
const STAGED: usize = Line::LINE.next_multiple_of(8);

/// One cache line of the layer: [`Line::LINE`] offsets of [`BITS`] bits,
/// one a drift, the high half of the unit code and the slope in the bits
/// they leave, then a little-endian base word — the smallest residual in
/// the low 30 bits, two's complement, and the unit code's low half in the
/// top two, or for an escaped line its first slot in the patch array. The
/// unit code is the line's unit less 1.
#[derive(Debug, Clone, PartialEq, Eq)]
#[repr(C, align(64))]
pub(crate) struct Line([u8; 64]);

// lint: allow(panic) evaluated at compile time: a line is one cache line of four-bit offsets, which with two unit bits and the slope fill the bits in front of its base
const _: () = assert!(
    size_of::<Line>() == 64
        && align_of::<Line>() == 64
        && BITS as usize * Line::LINE + 2 + Line::SLOPE_BITS as usize == 8 * OFFSET_BYTES
);

/// The `width` low bits of every `lane`-bit lane of a `u64`.
const fn lanes(width: u32, lane: u32) -> u64 {
    let mut mask = 0;
    let mut at = 0;
    while at < 64 {
        mask |= ((1 << width) - 1) << at;
        at += lane;
    }
    mask
}

impl Line {
    /// Bits of the slope: 14 of the 16 that 116 four-bit offsets leave of
    /// 480.
    pub(crate) const SLOPE_BITS: u32 = 14;

    /// Fraction bits of the slope: a line climbs in 1/64 of a record a
    /// partition.
    pub(crate) const FRACTION: u32 = 6;

    /// Drifts a line holds: as many offsets as fit beside the slope and
    /// the unit code's high half.
    pub(crate) const LINE: usize =
        (8 * OFFSET_BYTES - 2 - Self::SLOPE_BITS as usize) / BITS as usize;

    /// Pairs of neighbouring drifts a line serves.
    pub(crate) const PAIRS: usize = Self::LINE - 1;

    /// The offset of every drift of an escaped line, all bits set; a
    /// stored offset is below it.
    const ESCAPE: u32 = (1 << BITS) - 1;

    /// The least and the greatest slope the field holds.
    pub(crate) const SLOPES: (i32, i32) = (
        -(1 << (Self::SLOPE_BITS - 1)),
        (1 << (Self::SLOPE_BITS - 1)) - 1,
    );

    /// How far a line of `slope` climbs from slot 0 to `slot`:
    /// `(slope·slot) >> FRACTION`, rounded down.
    #[inline(always)]
    pub(crate) fn rise(slope: i32, slot: usize) -> i32 {
        (slope * slot as i32) >> Self::FRACTION
    }

    /// The slope from a line's first drift to its last, in units of
    /// `2^−FRACTION` records a partition, rounded half up and clamped to
    /// the field.
    #[inline]
    pub(crate) fn endpoint_slope(first: i32, last: i32) -> i32 {
        let climb = (i64::from(last) - i64::from(first)) << Self::FRACTION;
        let pairs = Self::PAIRS as i64;
        let slope = (2 * climb + pairs).div_euclid(2 * pairs);
        slope.clamp(Self::SLOPES.0.into(), Self::SLOPES.1.into()) as i32
    }

    /// A line in place: the `LINE` `drifts`, less the line's rise under
    /// `slope`, as offsets from `base` in units of `unit` records, each
    /// below [`Line::ESCAPE`] — residuals spreading at most
    /// `15·unit − 1`. `base` must fit 30 bits, `unit` be `1..=MAX_UNIT`,
    /// `slope` fit the field.
    #[inline]
    fn in_place(drifts: &[i32], base: i32, unit: u32, slope: i32) -> Self {
        debug_assert!(fits_30_bits(base) && (1..=MAX_UNIT).contains(&unit));
        debug_assert!((Self::SLOPES.0..=Self::SLOPES.1).contains(&slope));
        // `⌊x / unit⌋ = x·⌈2^16 / unit⌉ >> 16` for every `x` below
        // `15·unit ≤ 240`: the product's excess, below `x / 2^16`, stays
        // under the `1 / unit` that `x / unit` lies below the next integer.
        let reciprocal = (1u32 << 16).div_ceil(unit);
        let mut offsets = [0; STAGED];
        for (slot, (offset, &delta)) in offsets.iter_mut().zip(&drifts[..Self::LINE]).enumerate() {
            let residual = delta.wrapping_sub(Self::rise(slope, slot));
            *offset = ((offset_from(base, residual) * reciprocal) >> 16) as u8;
        }
        let code = unit - 1;
        let word = base as u32 & u32::MAX >> 2 | code << 30;
        Self::pack(&offsets, slope, code >> 2, word)
    }

    /// An escaped line whose patch starts at `slot` of the patch array: a
    /// short one under slope −1, a full one under slope 0.
    fn escaped(slot: u32, short: bool) -> Self {
        let mut offsets = [0; STAGED];
        offsets[..Self::LINE].fill(Self::ESCAPE as u8);
        Self::pack(&offsets, -i32::from(short), 0, slot)
    }

    /// A line of the first `LINE` `offsets`, each below `2^BITS` and
    /// those past them 0, then the unit code's high half `high` and `slope`,
    /// in front of the base word `word`.
    #[inline]
    fn pack(offsets: &[u8; STAGED], slope: i32, high: u32, word: u32) -> Self {
        let mut bytes = [0; 64];
        // Eight offsets are `8·BITS` bits: group `g` is stored as the 8
        // bytes from byte `BITS·g` on, whose clear top bytes the next group
        // or the base word overwrites.
        let (groups, _) = offsets.as_chunks::<8>();
        for (g, &group) in groups[..Self::LINE.div_ceil(8)].iter().enumerate() {
            let bits = Self::squeeze(u64::from_le_bytes(group));
            bytes[BITS as usize * g..][..8].copy_from_slice(&bits.to_le_bytes());
        }
        // The offsets past the last are clear: the unit code's high half
        // and the slope take their bits, the top of the word in front of
        // the base.
        let slope = (slope as u32) << (32 - Self::SLOPE_BITS);
        let top = Self::word_at(&bytes, SLOPE_WORD) | high << HIGH_UNIT | slope;
        bytes[SLOPE_WORD..OFFSET_BYTES].copy_from_slice(&top.to_le_bytes());
        bytes[OFFSET_BYTES..].copy_from_slice(&word.to_le_bytes());
        Self(bytes)
    }

    /// The 8 bytes of `x`, each below `2^BITS`, as `8·BITS` bits, byte `j`
    /// at bits `BITS·j..BITS·j + BITS`: neighbouring bytes, then pairs,
    /// then quads close up.
    #[inline]
    fn squeeze(x: u64) -> u64 {
        let (one, two, four) = (lanes(BITS, 16), lanes(2 * BITS, 32), lanes(4 * BITS, 64));
        let x = x & one | (x & one << 8) >> (8 - BITS);
        let x = x & two | (x & two << 16) >> (16 - 2 * BITS);
        x & four | (x & four << 32) >> (32 - 4 * BITS)
    }

    /// The little-endian `u32` from byte `at` on.
    #[inline]
    fn word_at(bytes: &[u8; 64], at: usize) -> u32 {
        u32::from_le_bytes(bytes[at..][..4].try_into().unwrap_or_default())
    }

    /// The base word.
    #[inline]
    fn word(&self) -> u32 {
        Self::word_at(&self.0, OFFSET_BYTES)
    }

    /// The line's smallest residual (not for an escaped line).
    #[inline]
    fn base(&self) -> i32 {
        (self.word() as i32) << 2 >> 2
    }

    /// The word whose top bits are the slope, below them the unit code's
    /// high half.
    #[inline]
    fn slope_word(&self) -> u32 {
        Self::word_at(&self.0, SLOPE_WORD)
    }

    /// The unit of a line of base word `word` and slope word `top`: 1 more
    /// than its code, whose low half is the base word's top two bits and
    /// high half the slope word's two from [`HIGH_UNIT`].
    #[inline(always)]
    fn unit_of(word: u32, top: u32) -> u32 {
        (word >> 30 | top >> (HIGH_UNIT - 2) & 0b1100) + 1
    }

    /// The records an offset of the line counts (not for an escaped line).
    #[inline]
    fn unit(&self) -> u32 {
        Self::unit_of(self.word(), self.slope_word())
    }

    /// The line's slope, in units of `2^−FRACTION` records a partition; for
    /// an escaped line −1 if its patch is short, else 0.
    #[inline]
    fn slope(&self) -> i32 {
        self.slope_word() as i32 >> (32 - Self::SLOPE_BITS)
    }

    /// Where an escaped line's patch starts in the patch array.
    #[inline]
    fn patch_slot(&self) -> usize {
        self.word() as usize
    }

    /// Offset `slot`, then offset `slot + 1` where there is one, from the
    /// low bit on: one `u32` load, from byte `⌊BITS·slot/8⌋ ≤ 57`.
    #[inline]
    fn offsets_from(&self, slot: usize) -> u32 {
        let bit = BITS as usize * slot;
        Self::word_at(&self.0, bit / 8) >> (bit % 8)
    }

    /// Offset `slot`.
    #[inline]
    fn offset(&self, slot: usize) -> u32 {
        self.offsets_from(slot) & Self::ESCAPE
    }

    /// Drift `slot` as served: its residual, rounded down to the unit,
    /// plus the line's rise (not for an escaped line).
    fn drift(&self, slot: usize) -> i64 {
        i64::from(self.base())
            + i64::from(Self::rise(self.slope(), slot))
            + i64::from(self.offset(slot) * self.unit())
    }

    /// True for an escaped line: a line is escaped in every offset or in
    /// none.
    fn is_escaped(&self) -> bool {
        self.offset(0) == Self::ESCAPE
    }
}

/// True if `base` survives the two bits the line's unit code takes.
#[inline]
fn fits_30_bits(base: i32) -> bool {
    base << 2 >> 2 == base
}

/// `delta − base` for a `delta` no smaller than its line's `base`: the
/// wrapped difference is the true one even where that is past `i32`.
#[inline]
fn offset_from(base: i32, delta: i32) -> u32 {
    delta.wrapping_sub(base) as u32
}

/// Words of a short patch: the least drift of an escaped line, then its
/// `LINE` drifts less it as 16-bit offsets, two a word, low half first.
const SHORT_PATCH: usize = 1 + Line::LINE.div_ceil(2);

/// How a line may store its drifts: the base, the spread of the residuals
/// from it and the slope they are taken under.
#[derive(Clone, Copy)]
struct Fit {
    base: i32,
    spread: u32,
    slope: i32,
}

/// The range layer's drift array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Lines {
    /// `⌈(len − 1) / PAIRS⌉` lines over `len > 1` drifts (one over one),
    /// the last possibly short.
    lines: Vec<Line>,
    /// The patches of the escaped lines, in order: each line's drifts as
    /// a short patch ([`SHORT_PATCH`] words) where they spread at most
    /// 65 535, else in full (`LINE` words); a short last line's padded with
    /// copies of its last drift.
    patches: Vec<i32>,
    /// Number of drifts.
    len: usize,
    /// Keys of the column the layer covers: a shifted line serves every
    /// window inside `0..=column`.
    column: usize,
}

impl Lines {
    /// An empty array for the layer over `column` keys — `column + 1`
    /// drifts to come, none over no keys — with room for its lines (and no
    /// patch).
    pub fn new(column: usize) -> Self {
        Self {
            lines: Vec::with_capacity(Self::line_count(column + usize::from(column > 0))),
            patches: Vec::new(),
            len: 0,
            column,
        }
    }

    /// Lines an array of `len` drifts holds.
    pub(crate) fn line_count(len: usize) -> usize {
        match len {
            0 | 1 => len,
            len => (len - 1).div_ceil(Line::PAIRS),
        }
    }

    /// Append one line of `LINE` drifts, under its endpoint slope where
    /// that leaves the residuals a smaller spread than slope 0 does.
    #[inline]
    fn push_line(&mut self, drifts: &[i32]) {
        let drifts = &drifts[..Line::LINE];
        let slope = Line::endpoint_slope(drifts[0], drifts[Line::LINE - 1]);
        // One pass: the extremes of the drifts and of their residuals.
        let (mut min, mut max) = (i32::MAX, i32::MIN);
        let (mut low, mut high) = (i32::MAX, i32::MIN);
        for (slot, &delta) in drifts.iter().enumerate() {
            let residual = delta.wrapping_sub(Line::rise(slope, slot));
            (min, max) = (min.min(delta), max.max(delta));
            (low, high) = (low.min(residual), high.max(residual));
        }
        let plain = Fit {
            base: min,
            spread: offset_from(min, max),
            slope: 0,
        };
        let sloped = Fit {
            base: low,
            spread: offset_from(low, high),
            slope,
        };
        // A residual wraps only past 30 bits of drift: no built layer's.
        let tilted = sloped.spread < plain.spread && fits_30_bits(min) && fits_30_bits(max);
        let fit = if tilted { sloped } else { plain };
        if fit.spread < Line::ESCAPE && fits_30_bits(fit.base) {
            self.lines
                .push(Line::in_place(drifts, fit.base, 1, fit.slope));
        } else if tilted {
            self.push_wide(drifts, &[sloped, plain], (min, max));
        } else {
            self.push_wide(drifts, &[plain], (min, max));
        }
    }

    /// Append a line no fit stores exactly: under the first of `fits`
    /// whose least unit, `⌊spread / 15⌋ + 1`, is at most [`MAX_UNIT`], with
    /// its base in 30 bits and its windows inside the column, else escaped.
    /// Where the slope does not fit, slope 0 may. `extremes` are the least
    /// and the greatest of `drifts`. Not cold: on a noisy model's layer most
    /// lines come here.
    #[inline(never)]
    fn push_wide(&mut self, drifts: &[i32], fits: &[Fit], extremes: (i32, i32)) {
        for fit in fits {
            let unit = fit.spread / Line::ESCAPE + 1;
            if unit <= MAX_UNIT && fits_30_bits(fit.base) {
                let line = Line::in_place(drifts, fit.base, unit, fit.slope);
                if unit == 1 || self.stays_inside(extremes, unit) || self.inside_column(&line) {
                    self.lines.push(line);
                    return;
                }
            }
        }
        self.push_escaped(drifts);
    }

    /// Append `drifts` as an escaped line, with its patch: a short one —
    /// their least and 16-bit offsets from it — where they spread at most
    /// 65 535, else the drifts in full.
    #[cold]
    fn push_escaped(&mut self, drifts: &[i32]) {
        let drifts = &drifts[..Line::LINE];
        // At most `LINE` words a line: the slot fits the base word below
        // `2^30`.
        let slot = self.patches.len() as u32;
        let least = drifts.iter().copied().min().unwrap_or_default();
        let most = drifts.iter().copied().max().unwrap_or_default();
        let short = offset_from(least, most) <= u32::from(u16::MAX);
        self.lines.push(Line::escaped(slot, short));
        if short {
            // Two offsets a word, the first in the low half.
            let word = |pair: &[i32]| {
                let offsets = pair.iter().rev().map(|&delta| offset_from(least, delta));
                offsets.fold(0, |word, offset| word << 16 | offset) as i32
            };
            self.patches.push(least);
            self.patches.extend(drifts.chunks(2).map(word));
            debug_assert_eq!(self.patches.len(), slot as usize + SHORT_PATCH);
        } else {
            self.patches.extend_from_slice(drifts);
        }
    }

    /// The pairs the next line to be appended serves inside the column —
    /// a line padded past the last drift serves none there — and its first.
    fn served_pairs(&self) -> (usize, usize) {
        let first = Line::PAIRS * self.lines.len();
        (first, Line::PAIRS.min(self.column.saturating_sub(first)))
    }

    /// True if the next line to be appended, of `unit`, whose drifts run
    /// from `min` to `max`, keeps every window it serves inside
    /// `0..=column` whatever its rounding: a served start lies at most
    /// `unit − 1` below the exact one, a served end at most as far past the
    /// exact one, and every exact start `k + Δ_k` of the line lies between
    /// its first pair plus `min` and its last plus `max`. Bounds that far or
    /// farther from both ends of the column decide it without decoding the
    /// line; near an end [`Lines::inside_column`] does. Walking the line for
    /// its exact starts instead cost a wiki64 IM layer's build 5 % at four
    /// bits.
    #[inline]
    fn stays_inside(&self, (min, max): (i32, i32), unit: u32) -> bool {
        let first = (Line::PAIRS * self.lines.len()) as i64;
        let overhang = i64::from(unit) - 1;
        let (low, high) = (
            first + i64::from(min),
            first + Line::PAIRS as i64 + i64::from(max),
        );
        low >= overhang && high + overhang <= self.column as i64
    }

    /// True if every window `line`, the next to be appended, serves lies
    /// inside `0..=column`: from its start to the larger of its start and
    /// its end.
    fn inside_column(&self, line: &Line) -> bool {
        let (first, pairs) = self.served_pairs();
        let column = self.column as i64;
        (0..pairs).all(|i| {
            let k = (first + i) as i64;
            let start = k + line.drift(i);
            let end = k + 1 + line.drift(i + 1) + i64::from(line.unit()) - 1;
            start >= 0 && start.max(end) <= column
        })
    }

    /// Append `drifts`, which continue the array from its last drift on:
    /// `drifts[0]` repeats that drift unless the array is empty, as the
    /// last drift of a line repeats the next line's first. Whole lines —
    /// `PAIRS` drifts past the first — except at the end of the array,
    /// where a short last line is padded with copies of its last drift.
    pub fn extend(&mut self, drifts: &[i32]) {
        debug_assert!(
            self.len == 0 || (self.len - 1).is_multiple_of(Line::PAIRS),
            "the array ends at a whole line"
        );
        if drifts.is_empty() {
            return;
        }
        let fresh = self.len == 0;
        let mut rest = drifts;
        while rest.len() >= Line::LINE {
            self.push_line(rest);
            rest = &rest[Line::PAIRS..];
        }
        // A lone last drift is the last of a line already appended — or,
        // alone in an empty array, a line of its own.
        if rest.len() > 1 || (fresh && drifts.len() == 1) {
            let mut line = [rest[rest.len() - 1]; Line::LINE];
            line[..rest.len()].copy_from_slice(rest);
            self.push_line(&line);
        }
        self.len += drifts.len() - usize::from(!fresh);
    }

    /// Give back the patch array's spare capacity.
    pub fn finish(&mut self) {
        debug_assert!(self.len <= self.column + 1, "drifts past the column's end");
        self.patches.shrink_to_fit();
    }

    /// The array with every one of `drifts` appended in one call, finished.
    #[cfg(test)]
    pub fn with(mut self, drifts: &[i32]) -> Self {
        self.extend(drifts);
        self.finish();
        self
    }

    /// Words of the patch array: 59 an escaped line whose drifts spread at
    /// most 65 535, 116 one whose drifts spread more.
    #[inline]
    pub fn patches(&self) -> usize {
        self.patches.len()
    }

    /// Number of shifted lines: lines in place with a unit above 1.
    pub fn shifted_lines(&self) -> usize {
        let shifted = |line: &&Line| !line.is_escaped() && line.unit() > 1;
        self.lines.iter().filter(shifted).count()
    }

    /// Number of drifts.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if there are no drifts.
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The unit of the line pair `k` is read from, `None` if it is
    /// escaped.
    #[cfg(test)]
    pub fn unit(&self, k: usize) -> Option<u32> {
        let line = &self.lines[k / Line::PAIRS];
        (!line.is_escaped()).then(|| line.unit())
    }

    /// Drift `i` as stored: slot `i % PAIRS` of line `i / PAIRS`, the last
    /// drift of an array of `PAIRS·j + 1` the last slot of line `j − 1` —
    /// exact unless its line is shifted, then rounded down by less than
    /// its unit.
    #[cfg(test)]
    pub fn delta(&self, i: usize) -> i32 {
        assert!(i < self.len, "drift {i} of {}", self.len);
        let (line, slot) = match i {
            0 => (&self.lines[0], 0),
            i => (
                &self.lines[(i - 1) / Line::PAIRS],
                (i - 1) % Line::PAIRS + 1,
            ),
        };
        match line.offset(slot) {
            offset if offset == Line::ESCAPE => self.patched(line, slot),
            _ => line.drift(slot) as i32,
        }
    }

    /// Drift `slot` of the escaped `line`, from its patch.
    #[cfg(test)]
    pub fn patched(&self, line: &Line, slot: usize) -> i32 {
        let at = line.patch_slot();
        match line.slope() {
            0 => self.patches[at + slot],
            _ => {
                let word = self.patches[at + 1 + slot / 2] as u32;
                self.patches[at] + (word >> (16 * (slot % 2)) & 0xFFFF) as i32
            }
        }
    }

    /// The pair of neighbours `prediction` falls in — `k`, clamped to the
    /// last pair — with the drift its window starts at and the window's
    /// length: from two adjacent offsets of line `k / PAIRS`, one `u32`
    /// load, its slope and its base, or, from an escaped line, two
    /// adjacent drifts of its patch. This is the "single memory lookup" the paper's
    /// layer costs. The window runs from `k + Δ_k` to `k + 1 + Δ_{k+1}`,
    /// empty where that is not past its start; in a line of unit `u` both
    /// ends are rounded, the start down and the end up, by at most
    /// `u − 1`. `None` without a pair: the layer over no keys. One
    /// branch a fetch, on the escape: a line is escaped in every offset or
    /// in none.
    #[inline(always)]
    pub fn pair(&self, prediction: usize) -> Option<(usize, i32, usize)> {
        let k = prediction.min(self.len.checked_sub(2)?);
        // Every pair index is below `MAX_KEYS < 2^29`: on `u32` the
        // division by `PAIRS` is a 64-bit multiply and a shift.
        let pairs = Line::PAIRS as u32;
        let (j, i) = (k as u32 / pairs, k as u32 % pairs);
        let (line, i) = (&self.lines[j as usize], i as usize);
        let offsets = line.offsets_from(i);
        let (this, next) = (offsets & Line::ESCAPE, offsets >> BITS & Line::ESCAPE);
        // The window is empty exactly when its end is not past its start.
        // A select compiles to a conditional move: whether a query falls
        // into an empty partition is data — gap queries often do — so a
        // branch on it would be mispredicted.
        if this != Line::ESCAPE {
            // `base + rise + offset·unit` is a drift that was an `i32`
            // before packing, rounded down to the unit; the end is rounded
            // up to it. Every term is below `2^30` in magnitude.
            let (word, top) = (line.word(), line.slope_word());
            let slope = top as i32 >> (32 - Line::SLOPE_BITS);
            let (base, unit) = ((word as i32) << 2 >> 2, Line::unit_of(word, top) as i32);
            let climb = slope * i as i32;
            let fraction = Line::FRACTION;
            let (rise, next_rise) = (climb >> fraction, (climb + slope) >> fraction);
            let delta = base + rise + this as i32 * unit;
            let units = next as i32 - this as i32 + 1;
            let len = next_rise - rise + units * unit;
            let len = std::hint::select_unpredictable(len > 0, len, 0);
            Some((k, delta, len as usize))
        } else {
            let at = line.patch_slot();
            let (delta, next) = if line.slope() == 0 {
                let patches = &self.patches[at + i..][..2];
                (patches[0], patches[1])
            } else {
                // Offsets `i` and `i + 1` of a short patch are the 32 bits
                // from bit `16·i` of the words after its least drift: the
                // top half of the two words from `at + ⌈i/2⌉` for an even
                // `i`, their middle for an odd one. Those two words never
                // pass the patch's last, which holds the last pair whole.
                let words = &self.patches[at + i.div_ceil(2)..][..2];
                let words = u64::from(words[1] as u32) << 32 | u64::from(words[0] as u32);
                let offsets = words >> (32 - 16 * (i % 2));
                let least = self.patches[at];
                (
                    least + i32::from(offsets as u16),
                    least + i32::from((offsets >> 16) as u16),
                )
            };
            let len = (1 + i64::from(next) - i64::from(delta)) as usize;
            Some((
                k,
                delta,
                std::hint::select_unpredictable(next >= delta, len, 0),
            ))
        }
    }

    /// Bytes of the lines and the patch array:
    /// `64·⌈(len − 1) / PAIRS⌉ + 4·(patch words)`.
    pub fn size_bytes(&self) -> usize {
        std::mem::size_of_val(self.lines.as_slice())
            + std::mem::size_of_val(self.patches.as_slice())
    }
}

#[cfg(test)]
pub(crate) mod tests;
