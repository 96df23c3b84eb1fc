//! The layout of the range layer: cache lines of one base, one slope and
//! 68 seven-bit or 93 five-bit offsets, one drift a partition, the width
//! chosen per layer.
//!
//! The layer stores each partition's drift `Δ_k` and no window length: the
//! window of partition `k` ends where partition `k + 1`'s starts
//! ([`crate::table`]), so a fetch reads two neighbouring drifts. They are
//! stored in 64-byte, 64-aligned [`Line`]s. Bytes `0..60` hold `LINE`
//! offsets of `b` bits each, LSB first — offset `i` at bits `b·i..b·i + b`
//! — and in the bits they leave, up to bit 480, the line's **slope** `a`,
//! two's complement; bytes `60..64` hold one little-endian `i32` base: the
//! line's least residual in its low 30 bits and its **shift** `s ∈ 0..=3`
//! in its top two. An offset, below `2^b − 1`, counts units of `2^s`
//! records above the base, and the slope, in units of `2^−F` records a
//! partition, adds the line's climb to slot `i`:
//!
//! ```text
//! Δ_i = base + ((a·i) >> F) + (o_i << s)        (>> flooring)
//! ```
//!
//! Inside one line an inaccurate model's drifts mostly climb or fall at a
//! steady rate — its local slope error — and offsets counted from the
//! line's minimum would have to cover that whole climb; under the slope
//! they cover only what is left, the **residuals** `Δ_i − ((a·i) >> F)`.
//! A line holds `LINE` drifts and serves `PAIRS = LINE − 1` pairs: line
//! `j` holds the drifts `PAIRS·j ..= PAIRS·j + PAIRS`, its last repeating
//! the first of line `j + 1`, so the pair `(k, k + 1)` of every fetch lies
//! in line `k / PAIRS` — one cache line a correction, the paper's "at most
//! one memory lookup". Both offsets of pair `i` sit in the four bytes from
//! byte `⌊b·i/8⌋ ≤ 57` on: one unaligned `u32` load, shifted right by
//! `b·i mod 8` and masked twice. The last pair's load reaches the slope's
//! bits — and at seven bits the base's first byte — which the masks drop.
//! There are two widths; the slope takes the bits the offsets leave, so
//! neither loses an offset to it:
//!
//! | `b` | offsets (bits) | slope: bits, unit `2^−F`, range | pairs a line | bytes a key | escaped line |
//! |-----|----------------|---------------------------------|--------------|-------------|--------------|
//! | 7   | 68 (476)       | 4, 1 record, `−8..=7`           | 67           | ≈ 0.955     | 68 drifts, 272 B more |
//! | 5   | 93 (465)       | 15, 1/64 record, `−2^14..=2^14 − 1` | 92       | ≈ 0.696     | 93 drifts, 372 B more |
//!
//! **The slope is the line's own.** The builder offers each line its
//! endpoint slope, `a = round(2^F·(Δ_last − Δ_first) / PAIRS)` (half up)
//! clamped to the field, and keeps it where it leaves the residuals a
//! smaller spread than slope 0 does — both spreads found in one pass over
//! the line — so a seven-bit line is never wider than a plain one. A line
//! whose drifts leave 30 bits (no built layer's: `|Δ| ≤ N ≤`
//! [`crate::ShiftTable::MAX_KEYS`]) keeps slope 0, so no residual wraps,
//! and a slope under which a line cannot be stored gives way to slope 0
//! before the line is escaped. A short last line is padded with copies of
//! its last drift, and its slope runs to the last of them.
//!
//! A line's shift is the least `s` with `spread ≤ (2^b − 1)·2^s − 1`, its
//! residuals' spread counted from their minimum. A line spreading at most
//! `2^b − 2` has `s = 0` and stores every drift exactly. A shifted line
//! rounds each offset down, so a fetch serves a window from the rounded
//! start to the rounded end plus `2^s − 1`: the exact window, overhanging
//! each end by at most `2^s − 1 ≤ 7` records — one 64-byte line of `u64`
//! keys.
//!
//! A line is **escaped** when no shift fits it — its residuals spread past
//! `127·8 − 1 = 1 015` (seven bits) or `31·8 − 1 = 247` (five) under
//! either slope — when a shifted window would overhang the column (below
//! position 0 or past `N`), or when its base does not fit 30 bits. Every
//! one of its offsets is `ESCAPE = 2^b − 1`, its slope 0, its drifts go in
//! full to a patch array, and its base holds where they start there, so
//! with `i = k % PAIRS`, `o` and `p` its offsets `i` and `i + 1`, and
//! `r(i) = (a·i) >> F`, a fetch serves the drift `Δ` and the window length
//!
//! ```text
//! base + r(i) + (o << s),   r(i + 1) − r(i) + ((p − o) << s) + 2^s, 0 where not positive   o != ESCAPE
//! patches[base + i],        1 + Δ' − Δ,  0 where Δ' < Δ                 o == ESCAPE, Δ' = patches[base + i + 1]
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
//! **The width is chosen per layer, from its own drifts.** A layer keeps
//! five bits when at most 1/16 of its five-bit lines are shifted or
//! escaped: the builder packs it at five bits first, with that budget
//! ([`Lines::budgeted`]; the line count is known from the column's
//! length), stops as soon as the budget is spent and packs it again at
//! seven bits. At the benchmark's dataset seed (layer only, key-weighted
//! mean window after): `static_wide` (amzn64 under IM, 4 Mi keys), whose
//! plain six-bit lines were 73 % inexact and which kept seven bits, keeps
//! five, 0.9742 → 0.7191 bytes a key (window 1 362.21 → 1 362.18), 2.7 %
//! of its five-bit lines inexact; `static_narrow` (osmc64 under
//! `rmi:4096`) keeps five where it kept six, 0.8176 → 0.6973 (window
//! 10.41 → 10.38), 2.0 % inexact; and `store_mixed`'s face64 shards,
//! 59–70 % inexact at five bits, keep seven, unchanged at 0.9553, their
//! shifted lines 3 530 → 87. The share sits where no layer the benchmark
//! builds comes near it. The wiki64 shards `durable_ingest` builds under
//! IM fall in two groups, 1.2–4.0 % and 9.5–14 % of their five-bit lines
//! inexact, over twenty op traces. A share of 1/32 cuts through the
//! first group, so which shards keep five bits — 0.032 bytes a key of
//! the store each — turns on the keys the trace has written; at 1/16
//! the first group keeps five and the second seven, whatever the trace.
//! A model whose error is noise rather than slope spreads the five-bit
//! residuals past 30 and keeps seven bits: at 200 k keys RadixSpline's
//! and PGM's on face and osmc keys, of which RadixSpline's kept six bits
//! (≈ 0.81 bytes a key) before five replaced six. There is no knob: the
//! rule is the layer's.
//!
//! An escaped line is, in practice, a stretch where a dense region climbs
//! `Δ` by `C − 1` a partition past what a shift fits inside one line, or a
//! window of that many records. Whether a fetch reads one is a property of
//! the query, not of the layer: on the seven-bit amzn64 IM layer (4 Mi
//! keys) 0.5 % of the lines are escaped and about 63 % of the gap queries
//! fetch from one, so the branch on the escape is mispredicted often
//! there. Reading a
//! patch slot on every fetch and selecting without a branch won there and
//! lost where escapes are rare — timed on blocks of 8 drifts, 64 fetches
//! at a time between cache-evicting searches (2-vCPU x86): 26 against
//! 32 ns a fetch on that layer, 26 against 19 on osmc64 under `rmi:4096`,
//! where 0.6 % of the fetches were escaped — so the branch stays.

/// Bytes of a line in front of its base: its offsets' and its slope's 480
/// bits.
const OFFSET_BYTES: usize = 60;

/// The first byte of the word whose top bits are the line's slope: the
/// four bytes in front of the base.
const SLOPE_WORD: usize = OFFSET_BYTES - 4;

/// The largest shift a line takes: a window overhangs each end by at most
/// `2^3 − 1 = 7` records. A constant, not a knob — a larger one widens
/// the windows of the lines it saves.
const MAX_SHIFT: u32 = 3;

/// The most drifts a line of either width holds: 93 five-bit offsets.
const MAX_LINE: usize = 93;

/// Offsets a line is staged in before it is packed: whole groups of eight.
const STAGED: usize = MAX_LINE.next_multiple_of(8);

/// A layer keeps five-bit lines when at most one line in this many is
/// shifted or escaped: a share between the two groups the benchmark's
/// layers fall in (see the module docs), so no layer sits at its edge.
const NARROW_SHARE: usize = 16;

/// One cache line of the layer: [`Line::LINE`] offsets of `BITS` bits,
/// one a drift, its slope in the bits they leave, then a little-endian
/// base word — the smallest residual in the low 30 bits, two's complement,
/// and the shift in the top two, or for an escaped line its first slot in
/// the patch array.
#[derive(Debug, Clone, PartialEq, Eq)]
#[repr(C, align(64))]
pub(crate) struct Line<const BITS: u32>([u8; 64]);

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

impl<const BITS: u32> Line<BITS> {
    /// Bits of the slope: the 4 that 68 seven-bit offsets leave of 480,
    /// or 15 beside 93 five-bit ones.
    pub(crate) const SLOPE_BITS: u32 = if BITS == 7 { 4 } else { 15 };

    /// Fraction bits of the slope: a seven-bit line climbs whole records a
    /// partition, a five-bit one 1/64 of a record.
    pub(crate) const FRACTION: u32 = if BITS == 7 { 0 } else { 6 };

    /// Drifts a line holds: as many offsets as fit beside the slope.
    pub(crate) const LINE: usize = (8 * OFFSET_BYTES - Self::SLOPE_BITS as usize) / BITS as usize;

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

    // lint: allow(panic) evaluated at compile time: a line is one cache line of five- or seven-bit offsets, which with the slope fill the bits in front of its base
    const LAYOUT: () = assert!(
        size_of::<Self>() == 64
            && align_of::<Self>() == 64
            && (BITS == 5 || BITS == 7)
            && Self::LINE <= MAX_LINE
            && BITS as usize * Self::LINE + Self::SLOPE_BITS as usize == 8 * OFFSET_BYTES
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
    /// `slope`, as offsets from `base` in units of `2^shift`, each below
    /// [`Line::ESCAPE`]. `base` must fit 30 bits, `shift` 2, `slope` the
    /// field.
    #[inline]
    fn in_place(drifts: &[i32], base: i32, shift: u32, slope: i32) -> Self {
        debug_assert!(fits_30_bits(base) && shift <= MAX_SHIFT);
        debug_assert!((Self::SLOPES.0..=Self::SLOPES.1).contains(&slope));
        let mut offsets = [0; STAGED];
        for (slot, (offset, &delta)) in offsets.iter_mut().zip(&drifts[..Self::LINE]).enumerate() {
            let residual = delta.wrapping_sub(Self::rise(slope, slot));
            *offset = (offset_from(base, residual) >> shift) as u8;
        }
        Self::pack(&offsets, slope, base as u32 & u32::MAX >> 2 | shift << 30)
    }

    /// An escaped line whose drifts start at `slot` of the patch array.
    fn escaped(slot: u32) -> Self {
        let mut offsets = [0; STAGED];
        offsets[..Self::LINE].fill(Self::ESCAPE as u8);
        Self::pack(&offsets, 0, slot)
    }

    /// A line of the first `LINE` `offsets`, each below `2^BITS` and
    /// those past them 0, then `slope`, in front of the base word `word`.
    #[inline]
    fn pack(offsets: &[u8; STAGED], slope: i32, word: u32) -> Self {
        let () = Self::LAYOUT;
        let mut bytes = [0; 64];
        // Eight offsets are `8·BITS` bits: group `g` is stored as the 8
        // bytes from byte `BITS·g` on, whose clear top bytes the next group
        // or the base word overwrites.
        let (groups, _) = offsets.as_chunks::<8>();
        for (g, &group) in groups[..Self::LINE.div_ceil(8)].iter().enumerate() {
            let bits = Self::squeeze(u64::from_le_bytes(group));
            bytes[BITS as usize * g..][..8].copy_from_slice(&bits.to_le_bytes());
        }
        // The offsets past the last are clear: the slope takes their bits,
        // the top of the word in front of the base.
        let slope = (slope as u32) << (32 - Self::SLOPE_BITS);
        let top = Self::word_at(&bytes, SLOPE_WORD) | slope;
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

    /// The line's shift (not for an escaped line).
    #[inline]
    fn shift(&self) -> u32 {
        self.word() >> 30
    }

    /// The line's slope, in units of `2^−FRACTION` records a partition: 0
    /// for an escaped line.
    #[inline]
    fn slope(&self) -> i32 {
        Self::word_at(&self.0, SLOPE_WORD) as i32 >> (32 - Self::SLOPE_BITS)
    }

    /// Where an escaped line's drifts start in the patch array.
    #[inline]
    fn patch_slot(&self) -> usize {
        self.word() as usize
    }

    /// Offset `slot`, then offset `slot + 1` where there is one, from the
    /// low bit on: one `u32` load, from byte `⌊BITS·slot/8⌋ ≤ 58`.
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

    /// Drift `slot` as served: its residual, rounded down to the shift,
    /// plus the line's rise (not for an escaped line).
    fn drift(&self, slot: usize) -> i64 {
        i64::from(self.base())
            + i64::from(Self::rise(self.slope(), slot))
            + (i64::from(self.offset(slot)) << self.shift())
    }

    /// True for an escaped line: a line is escaped in every offset or in
    /// none.
    fn is_escaped(&self) -> bool {
        self.offset(0) == Self::ESCAPE
    }
}

/// True if `base` survives the two bits a line's shift takes.
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

/// How a line may store its drifts: the base, the spread of the residuals
/// from it and the slope they are taken under.
#[derive(Clone, Copy)]
struct Fit {
    base: i32,
    spread: u32,
    slope: i32,
}

/// The range layer's drift array at one offset width.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Lines<const BITS: u32> {
    /// `⌈(len − 1) / PAIRS⌉` lines over `len > 1` drifts (one over one),
    /// the last possibly short.
    lines: Vec<Line<BITS>>,
    /// The drifts of the escaped lines in full, `LINE` a line, in order; a
    /// short last line's padded with copies of its last drift.
    patches: Vec<i32>,
    /// Number of drifts.
    len: usize,
    /// Keys of the column the layer covers: a shifted line serves every
    /// window inside `0..=column`.
    column: usize,
    /// Lines shifted or escaped.
    inexact: usize,
    /// Lines that may be shifted or escaped before the width is dropped.
    budget: usize,
}

impl<const BITS: u32> Lines<BITS> {
    const LINE: usize = Line::<BITS>::LINE;
    const PAIRS: usize = Line::<BITS>::PAIRS;
    const ESCAPE: u32 = Line::<BITS>::ESCAPE;

    /// An empty array for the layer over `column` keys — `column + 1`
    /// drifts to come, none over no keys — with room for its lines (and no
    /// patch), kept whatever its lines.
    pub fn new(column: usize) -> Self {
        Self {
            lines: Vec::with_capacity(Self::line_count(column + usize::from(column > 0))),
            patches: Vec::new(),
            len: 0,
            column,
            inexact: 0,
            budget: usize::MAX,
        }
    }

    /// [`Lines::new`], with a budget of one shifted or escaped line in
    /// [`NARROW_SHARE`]: past it, [`Lines::spent`].
    pub fn budgeted(column: usize) -> Self {
        let budget = Self::line_count(column + usize::from(column > 0)) / NARROW_SHARE;
        Self {
            budget,
            ..Self::new(column)
        }
    }

    /// True once more lines are shifted or escaped than the budget: the
    /// layer is not kept at this width.
    #[inline]
    pub fn spent(&self) -> bool {
        self.inexact > self.budget
    }

    /// Lines an array of `len` drifts holds.
    pub(crate) fn line_count(len: usize) -> usize {
        match len {
            0 | 1 => len,
            len => (len - 1).div_ceil(Self::PAIRS),
        }
    }

    /// Append one line of `LINE` drifts, under its endpoint slope where
    /// that leaves the residuals a smaller spread than slope 0 does.
    #[inline]
    fn push_line(&mut self, drifts: &[i32]) {
        let drifts = &drifts[..Self::LINE];
        let slope = Line::<BITS>::endpoint_slope(drifts[0], drifts[Self::LINE - 1]);
        // One pass: the extremes of the drifts and of their residuals.
        let (mut min, mut max) = (i32::MAX, i32::MIN);
        let (mut low, mut high) = (i32::MAX, i32::MIN);
        for (slot, &delta) in drifts.iter().enumerate() {
            let residual = delta.wrapping_sub(Line::<BITS>::rise(slope, slot));
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
        if fit.spread < Self::ESCAPE && fits_30_bits(fit.base) {
            self.lines
                .push(Line::in_place(drifts, fit.base, 0, fit.slope));
        } else if tilted {
            self.push_wide(drifts, &[sloped, plain]);
        } else {
            self.push_wide(drifts, &[plain]);
        }
    }

    /// Append a line no fit stores exactly: under the first of `fits` that
    /// a shift fits with its base in 30 bits and its windows inside the
    /// column, else escaped. Where the slope does not fit, slope 0 may.
    #[cold]
    fn push_wide(&mut self, drifts: &[i32], fits: &[Fit]) {
        for fit in fits {
            let shift = (0..=MAX_SHIFT).find(|&shift| fit.spread >> shift < Self::ESCAPE);
            if let Some(shift) = shift.filter(|_| fits_30_bits(fit.base)) {
                let line = Line::in_place(drifts, fit.base, shift, fit.slope);
                if shift == 0 || self.inside_column(&line) {
                    self.inexact += usize::from(shift > 0);
                    self.lines.push(line);
                    return;
                }
            }
        }
        self.inexact += 1;
        // A slot index below `LINE` a line: it fits the base word below
        // `2^30`.
        self.lines.push(Line::escaped(self.patches.len() as u32));
        self.patches.extend_from_slice(&drifts[..Self::LINE]);
    }

    /// True if every window `line`, the next to be appended, serves lies
    /// inside `0..=column`: from its start to the larger of its start and
    /// its end. A line padded past the last drift serves no pair there.
    fn inside_column(&self, line: &Line<BITS>) -> bool {
        let first = Self::PAIRS * self.lines.len();
        let column = self.column as i64;
        let pairs = Self::PAIRS.min(self.column.saturating_sub(first));
        (0..pairs).all(|i| {
            let k = (first + i) as i64;
            let start = k + line.drift(i);
            let end = k + 1 + line.drift(i + 1) + (1 << line.shift()) - 1;
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
            self.len == 0 || (self.len - 1).is_multiple_of(Self::PAIRS),
            "the array ends at a whole line"
        );
        if drifts.is_empty() {
            return;
        }
        let fresh = self.len == 0;
        let mut rest = drifts;
        while rest.len() >= Self::LINE {
            self.push_line(rest);
            rest = &rest[Self::PAIRS..];
        }
        // A lone last drift is the last of a line already appended — or,
        // alone in an empty array, a line of its own.
        if rest.len() > 1 || (fresh && drifts.len() == 1) {
            let mut line = [rest[rest.len() - 1]; MAX_LINE];
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

    /// Number of drifts stored in the patch array: `LINE` an escaped line.
    fn patches(&self) -> usize {
        self.patches.len()
    }

    /// Number of lines in place with a shift above 0.
    fn shifted_lines(&self) -> usize {
        let shifted = |line: &&Line<BITS>| !line.is_escaped() && line.shift() > 0;
        self.lines.iter().filter(shifted).count()
    }

    /// The shift of the line pair `k` is read from, `None` if it is
    /// escaped.
    #[cfg(test)]
    fn shift(&self, k: usize) -> Option<u32> {
        let line = &self.lines[k / Self::PAIRS];
        (!line.is_escaped()).then(|| line.shift())
    }

    /// Drift `i` as stored: slot `i % PAIRS` of line `i / PAIRS`, the last
    /// drift of an array of `PAIRS·j + 1` the last slot of line `j − 1` —
    /// exact unless its line is shifted, then rounded down by less than
    /// `2^s`.
    #[cfg(test)]
    fn delta(&self, i: usize) -> i32 {
        assert!(i < self.len, "drift {i} of {}", self.len);
        let (line, slot) = match i {
            0 => (&self.lines[0], 0),
            i => (
                &self.lines[(i - 1) / Self::PAIRS],
                (i - 1) % Self::PAIRS + 1,
            ),
        };
        match line.offset(slot) {
            offset if offset == Self::ESCAPE => self.patches[line.patch_slot() + slot],
            _ => line.drift(slot) as i32,
        }
    }

    /// The pair of neighbours `prediction` falls in — `k`, clamped to the
    /// last pair — with the drift its window starts at and the window's
    /// length: from two adjacent offsets of line `k / PAIRS`, one `u32`
    /// load, its slope and its base, or, from an escaped line, two
    /// adjacent patches. This is the "single memory lookup" the paper's
    /// layer costs. The window runs from `k + Δ_k` to `k + 1 + Δ_{k+1}`,
    /// empty where that is not past its start; in a line of shift `s` both
    /// ends are rounded, the start down and the end up, by at most
    /// `2^s − 1`. `None` without a pair: the layer over no keys. One
    /// branch a fetch, on the escape: a line is escaped in every offset or
    /// in none.
    #[inline(always)]
    fn pair(&self, prediction: usize) -> Option<(usize, i32, usize)> {
        let k = prediction.min(self.len.checked_sub(2)?);
        // Every pair index is below `MAX_KEYS < 2^29`: on `u32` the
        // division by `PAIRS` is a 64-bit multiply and a shift.
        let pairs = Self::PAIRS as u32;
        let (j, i) = (k as u32 / pairs, k as u32 % pairs);
        let (line, i) = (&self.lines[j as usize], i as usize);
        let offsets = line.offsets_from(i);
        let (this, next) = (offsets & Self::ESCAPE, offsets >> BITS & Self::ESCAPE);
        // The window is empty exactly when its end is not past its start.
        // A select compiles to a conditional move: whether a query falls
        // into an empty partition is data — gap queries often do — so a
        // branch on it would be mispredicted.
        if this != Self::ESCAPE {
            // `base + rise + offset` is a drift that was an `i32` before
            // packing, rounded down to the shift; the end is rounded up to
            // it. Every term is below `2^30` in magnitude.
            let (word, slope) = (line.word(), line.slope());
            let (base, shift) = ((word as i32) << 2 >> 2, word >> 30);
            let climb = slope * i as i32;
            let fraction = Line::<BITS>::FRACTION;
            let (rise, next_rise) = (climb >> fraction, (climb + slope) >> fraction);
            let delta = base + rise + (this << shift) as i32;
            let units = next as i32 - this as i32;
            let len = next_rise - rise + (units << shift) + (1 << shift);
            let len = std::hint::select_unpredictable(len > 0, len, 0);
            Some((k, delta, len as usize))
        } else {
            let patches = &self.patches[line.patch_slot() + i..][..2];
            let (delta, next) = (patches[0], patches[1]);
            let len = (1 + i64::from(next) - i64::from(delta)) as usize;
            Some((
                k,
                delta,
                std::hint::select_unpredictable(next >= delta, len, 0),
            ))
        }
    }

    /// Bytes of the lines and the patch array:
    /// `64·⌈(len − 1) / PAIRS⌉ + 4·LINE·(escaped lines)`.
    fn size_bytes(&self) -> usize {
        std::mem::size_of_val(self.lines.as_slice())
            + std::mem::size_of_val(self.patches.as_slice())
    }
}

/// The range layer's drift array: its lines at the width its builder
/// chose.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Packed {
    /// 68 seven-bit offsets and a whole-record slope a line, 67 pairs.
    Seven(Lines<7>),
    /// 93 five-bit offsets and a slope in 1/64 of a record a line, 92
    /// pairs.
    Five(Lines<5>),
}

/// `$body` with `$lines` bound to the lines of `$packed`, whatever their
/// width: one dispatch, on a branch every fetch of a layer takes alike.
macro_rules! at_width {
    ($packed:expr, $lines:ident => $body:expr) => {
        match $packed {
            Packed::Seven($lines) => $body,
            Packed::Five($lines) => $body,
        }
    };
}

impl Packed {
    /// Bits an offset takes: 7 or 5.
    pub fn offset_bits(&self) -> u32 {
        match self {
            Self::Seven(_) => 7,
            Self::Five(_) => 5,
        }
    }

    /// Number of drifts stored in the patch array: 68 or 93 an escaped
    /// line.
    #[inline]
    pub fn patches(&self) -> usize {
        at_width!(self, lines => lines.patches())
    }

    /// Number of lines in place with a shift above 0.
    pub fn shifted_lines(&self) -> usize {
        at_width!(self, lines => lines.shifted_lines())
    }

    /// Number of drifts.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        at_width!(self, lines => lines.len)
    }

    /// True if there are no drifts.
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The shift of the line pair `k` is read from, `None` if it is
    /// escaped.
    #[cfg(test)]
    pub fn shift(&self, k: usize) -> Option<u32> {
        at_width!(self, lines => lines.shift(k))
    }

    /// Drift `i` as stored (see [`Lines::delta`]).
    #[cfg(test)]
    pub fn delta(&self, i: usize) -> i32 {
        at_width!(self, lines => lines.delta(i))
    }

    /// The pair of neighbours `prediction` falls in, the drift its window
    /// starts at and the window's length (see [`Lines::pair`]).
    #[inline(always)]
    pub fn pair(&self, prediction: usize) -> Option<(usize, i32, usize)> {
        at_width!(self, lines => lines.pair(prediction))
    }

    /// Bytes of the lines and the patch array.
    pub fn size_bytes(&self) -> usize {
        at_width!(self, lines => lines.size_bytes())
    }
}

#[cfg(test)]
pub(crate) mod tests;
