//! The one layout of the range layer: cache lines of one base and 68
//! seven-bit offsets, one drift a partition.
//!
//! The layer stores each partition's drift `Δ_k` and no window length: the
//! window of partition `k` ends where partition `k + 1`'s starts
//! ([`crate::table`]), so a fetch reads two neighbouring drifts. They are
//! stored in 64-byte, 64-aligned [`Line`]s. Bytes `0..60` hold [`LINE`] =
//! 68 offsets of 7 bits each, LSB first — offset `i` at bits `7i..7i + 7`,
//! 476 of the 480 bits — and bytes `60..64` one little-endian `i32` base:
//! the line's minimum in its low 30 bits and the line's **shift**
//! `s ∈ 0..=3` in its top two. An offset, `0..=126`, counts units of `2^s`
//! records: `Δ = base + (offset << s)`. Line `j` holds the drifts
//! `67j ..= 67j + 67`: its last repeats the first of line `j + 1`, so the
//! pair `(k, k + 1)` of every fetch lies in line `k / 67` — one cache line
//! a correction, the paper's "at most one memory lookup" — at 64 bytes per
//! [`PAIRS`] = 67 drifts, ≈ 0.955 bytes a key. Both offsets of pair `i` sit
//! in the four bytes from byte `⌊7i/8⌋ ≤ 57` on: one unaligned `u32` load,
//! shifted right by `7i mod 8` and masked twice. For `i = 66` that load
//! reaches the base's first byte, which the masks drop.
//!
//! A line's shift is the least `s` with `spread ≤ 127·2^s − 1`, its
//! drifts' spread counted from its minimum. A line spreading at most 126
//! has `s = 0` and stores every drift exactly. A shifted line rounds each
//! offset down, so a fetch serves a window from the rounded start to the
//! rounded end plus `2^s − 1`: the exact window, overhanging each end by
//! at most `2^s − 1 ≤ 7` records — one 64-byte line of `u64` keys.
//!
//! A line is **escaped** when no shift fits it — its drifts spread past
//! `127·8 − 1 = 1 015` — when a shifted window would overhang the column
//! (below position 0 or past `N`), or when its base does not fit 30 bits
//! (no built layer's: `|Δ| ≤ N ≤` [`crate::ShiftTable::MAX_KEYS`]). Every
//! one of its offsets is [`ESCAPE`], its 68 drifts go in full to a patch
//! array (272 bytes more), and its base holds where they start there, so
//! with `i = k % 67` and `o`, `p` its offsets `i` and `i + 1` a fetch
//! serves the drift `Δ` and the window length
//!
//! ```text
//! base + (o << s),      (p + 1 − o) << s,    0 where p < o    o != 127
//! patches[base + i],    1 + Δ' − Δ,          0 where Δ' < Δ   o == 127, Δ' = patches[base + i + 1]
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
//! Seven bits, not eight: 68 offsets a line instead of 60 cut the layer by
//! 11–12 % on every benchmark workload and widen its mean served window by
//! under 3 %. Six bits (79 a line) widened `store_mixed`'s by 14 % and
//! tripled `static_wide`'s escaped lines; the width is a constant, not a
//! knob.
//!
//! An escaped line is, in practice, a stretch where a dense region climbs
//! `Δ` by `C − 1` a partition past 1 015 inside one line, or a window of
//! that many records. Whether a fetch reads one is a property of the
//! query, not of the layer: on the amzn64 IM layer (4 Mi keys) 0.5 % of
//! the lines are escaped and about 63 % of the gap queries fetch from one,
//! so the branch on the escape is mispredicted often there. Reading a
//! patch slot on every fetch and selecting without a branch won there and
//! lost where escapes are rare — timed on blocks of 8 drifts, 64 fetches
//! at a time between cache-evicting searches (2-vCPU x86): 26 against
//! 32 ns a fetch on that layer, 26 against 19 on osmc64 under `rmi:4096`,
//! where 0.6 % of the fetches were escaped — so the branch stays.

/// Drifts one line holds: its 67 pairs' and the first of the next line.
pub(crate) const LINE: usize = 68;

/// Pairs of neighbouring drifts one line serves: line `j` those from
/// `67j` to `67j + 66`.
pub(crate) const PAIRS: usize = LINE - 1;

/// Bits an offset takes.
const OFFSET_BITS: u32 = 7;

/// Bytes of a line in front of its base: its offsets' 476 bits and 4 to
/// spare.
const OFFSET_BYTES: usize = 60;

/// The offset of every drift of an escaped line, all seven bits set; a
/// stored offset is below it.
const ESCAPE: u32 = (1 << OFFSET_BITS) - 1;

/// The largest shift a line takes: a window overhangs each end by at most
/// `2^3 − 1 = 7` records. A constant, not a knob — a larger one widens
/// the windows of the lines it saves.
const MAX_SHIFT: u32 = 3;

/// One cache line of the layer: 68 seven-bit offsets, one a drift, then a
/// little-endian base word — the line's smallest drift in the low 30 bits,
/// two's complement, and its shift in the top two, or for an escaped line
/// its first slot in the patch array.
#[derive(Debug, Clone, PartialEq, Eq)]
#[repr(C, align(64))]
struct Line([u8; 64]);

// lint: allow(panic) evaluated at compile time: a line is one cache line, its offsets fit in front of its base
const _: () = assert!(
    size_of::<Line>() == 64
        && align_of::<Line>() == 64
        && OFFSET_BITS as usize * LINE <= 8 * OFFSET_BYTES
);

impl Line {
    /// A line in place: `drifts` as offsets from `base` in units of
    /// `2^shift`, each below `2^7`. `base` must fit 30 bits, `shift` 2.
    #[inline]
    fn in_place(drifts: &[i32; LINE], base: i32, shift: u32) -> Self {
        debug_assert!(fits_30_bits(base) && shift <= MAX_SHIFT);
        let offsets = drifts.map(|delta| (offset_from(base, delta) >> shift) as u8);
        Self::pack(&offsets, base as u32 & u32::MAX >> 2 | shift << 30)
    }

    /// An escaped line whose drifts start at `slot` of the patch array.
    fn escaped(slot: u32) -> Self {
        Self::pack(&[ESCAPE as u8; LINE], slot)
    }

    /// A line of `offsets`, each below `2^7`, in front of the base word
    /// `word`.
    #[inline]
    fn pack(offsets: &[u8; LINE], word: u32) -> Self {
        let mut bytes = [0; 64];
        // Eight offsets are 56 bits: group `g` is stored as the 8 bytes from
        // byte `7g` on, whose last, clear, the next group overwrites; the
        // last four offsets take bytes 56..60.
        let (groups, last) = offsets.as_chunks::<8>();
        for (g, &group) in groups.iter().enumerate() {
            let bits = squeeze(u64::from_le_bytes(group));
            bytes[7 * g..][..8].copy_from_slice(&bits.to_le_bytes());
        }
        let last = u32::from_le_bytes(last.try_into().unwrap_or_default());
        let last = squeeze(u64::from(last)) as u32;
        bytes[56..OFFSET_BYTES].copy_from_slice(&last.to_le_bytes());
        bytes[OFFSET_BYTES..].copy_from_slice(&word.to_le_bytes());
        Self(bytes)
    }

    /// The base word.
    #[inline]
    fn word(&self) -> u32 {
        u32::from_le_bytes(self.0[OFFSET_BYTES..].try_into().unwrap_or_default())
    }

    /// The line's smallest drift (not for an escaped line).
    #[inline]
    fn base(&self) -> i32 {
        (self.word() as i32) << 2 >> 2
    }

    /// The line's shift (not for an escaped line).
    #[inline]
    fn shift(&self) -> u32 {
        self.word() >> 30
    }

    /// Where an escaped line's drifts start in the patch array.
    #[inline]
    fn patch_slot(&self) -> usize {
        self.word() as usize
    }

    /// Offset `slot`, then offset `slot + 1` where there is one, from the
    /// low bit on: one `u32` load, from byte `⌊7·slot/8⌋ ≤ 58`.
    #[inline]
    fn offsets_from(&self, slot: usize) -> u32 {
        let bit = OFFSET_BITS as usize * slot;
        let bytes = self.0[bit / 8..][..4].try_into().unwrap_or_default();
        u32::from_le_bytes(bytes) >> (bit % 8)
    }

    /// Offset `slot`.
    #[inline]
    fn offset(&self, slot: usize) -> u32 {
        self.offsets_from(slot) & ESCAPE
    }

    /// True for an escaped line: a line is escaped in every offset or in
    /// none.
    fn is_escaped(&self) -> bool {
        self.offset(0) == ESCAPE
    }
}

/// The 8 bytes of `x`, each below `2^7`, as 56 bits, byte `j` at bits
/// `7j..7j + 7`: neighbouring bytes, then pairs, then quads close up.
#[inline]
fn squeeze(x: u64) -> u64 {
    let x = x & 0x007F_007F_007F_007F | (x & 0x7F00_7F00_7F00_7F00) >> 1;
    let x = x & 0x0000_3FFF_0000_3FFF | (x & 0x3FFF_0000_3FFF_0000) >> 2;
    x & 0x0FFF_FFFF | (x & 0x0FFF_FFFF_0000_0000) >> 4
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

/// The least shift `s` with `spread ≤ 127·2^s − 1`, if one up to
/// [`MAX_SHIFT`] is.
fn shift_for(spread: u32) -> Option<u32> {
    (0..=MAX_SHIFT).find(|&shift| spread >> shift < ESCAPE)
}

/// The range layer's drift array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Packed {
    /// `⌈(len − 1) / 67⌉` lines over `len > 1` drifts (one over one), the
    /// last possibly short.
    lines: Vec<Line>,
    /// The drifts of the escaped lines in full, 68 a line, in order; a
    /// short last line's padded with copies of its last drift.
    patches: Vec<i32>,
    /// Number of drifts.
    len: usize,
    /// Keys of the column the layer covers: a shifted line serves every
    /// window inside `0..=column`.
    column: usize,
}

impl Packed {
    /// An empty array for the layer over `column` keys — `column + 1`
    /// drifts to come, none over no keys — with room for its lines (and
    /// no patch).
    pub fn new(column: usize) -> Self {
        Self {
            lines: Vec::with_capacity(column.div_ceil(PAIRS)),
            patches: Vec::new(),
            len: 0,
            column,
        }
    }

    /// Append one line.
    #[inline]
    fn push_line(&mut self, drifts: &[i32; LINE]) {
        let (base, max) = drifts
            .iter()
            .fold((i32::MAX, i32::MIN), |(min, max), &delta| {
                (min.min(delta), max.max(delta))
            });
        let spread = offset_from(base, max);
        if spread < ESCAPE && fits_30_bits(base) {
            self.lines.push(Line::in_place(drifts, base, 0));
        } else {
            self.push_wide(drifts, base, spread);
        }
    }

    /// Append a line whose drifts spread past 126, or whose base does not
    /// fit 30 bits: shifted if a shift fits it and keeps its windows
    /// inside the column, else escaped.
    #[cold]
    fn push_wide(&mut self, drifts: &[i32; LINE], base: i32, spread: u32) {
        if let Some(shift) = shift_for(spread).filter(|_| fits_30_bits(base)) {
            let line = Line::in_place(drifts, base, shift);
            if self.inside_column(&line) {
                self.lines.push(line);
                return;
            }
        }
        self.push_escaped(drifts);
    }

    /// True if every window `line`, the next to be appended, serves lies
    /// inside `0..=column`: from its start to the larger of its start and
    /// its end. A line padded past the last drift serves no pair there.
    fn inside_column(&self, line: &Line) -> bool {
        let first = PAIRS * self.lines.len();
        let column = self.column as i64;
        let drift =
            |slot: usize| i64::from(line.base()) + (i64::from(line.offset(slot)) << line.shift());
        let pairs = PAIRS.min(self.column.saturating_sub(first));
        (0..pairs).all(|i| {
            let k = (first + i) as i64;
            let start = k + drift(i);
            let end = k + 1 + drift(i + 1) + (1 << line.shift()) - 1;
            start >= 0 && start.max(end) <= column
        })
    }

    /// Append a line no shift stores in place.
    #[cold]
    fn push_escaped(&mut self, drifts: &[i32; LINE]) {
        // A slot index below 68 a line: it fits the base word below `2^30`.
        self.lines.push(Line::escaped(self.patches.len() as u32));
        self.patches.extend_from_slice(drifts);
    }

    /// Append the array's last, short line: padded with copies of its last
    /// drift, which moves none of its extremes.
    fn push_last(&mut self, drifts: &[i32]) {
        debug_assert!((1..LINE).contains(&drifts.len()));
        let mut line = [drifts[drifts.len() - 1]; LINE];
        line[..drifts.len()].copy_from_slice(drifts);
        self.push_line(&line);
    }

    /// Append `drifts`, which continue the array from its last drift on:
    /// `drifts[0]` repeats that drift unless the array is empty, as the
    /// 68th drift of a line repeats the next line's first. Whole lines —
    /// 67 drifts past the first — except at the end of the array.
    pub fn extend(&mut self, drifts: &[i32]) {
        debug_assert!(
            self.len == 0 || (self.len - 1).is_multiple_of(PAIRS),
            "the array ends at a whole line"
        );
        if drifts.is_empty() {
            return;
        }
        let fresh = self.len == 0;
        let mut rest = drifts;
        while let Some(line) = rest.first_chunk::<LINE>() {
            self.push_line(line);
            rest = &rest[PAIRS..];
        }
        // A lone last drift is the 68th of a line already appended — or,
        // alone in an empty array, a line of its own.
        if rest.len() > 1 || (fresh && drifts.len() == 1) {
            self.push_last(rest);
        }
        self.len += drifts.len() - usize::from(!fresh);
    }

    /// Give back the patch array's spare capacity.
    pub fn finish(&mut self) {
        debug_assert!(self.len <= self.column + 1, "drifts past the column's end");
        self.patches.shrink_to_fit();
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

    /// Number of drifts stored in the patch array: 68 an escaped line.
    #[inline]
    pub fn patches(&self) -> usize {
        self.patches.len()
    }

    /// Number of lines in place with a shift above 0.
    pub fn shifted_lines(&self) -> usize {
        let shifted = |line: &&Line| !line.is_escaped() && line.shift() > 0;
        self.lines.iter().filter(shifted).count()
    }

    /// The shift of the line pair `k` is read from, `None` if it is
    /// escaped.
    #[cfg(test)]
    pub fn shift(&self, k: usize) -> Option<u32> {
        let line = &self.lines[k / PAIRS];
        (!line.is_escaped()).then(|| line.shift())
    }

    /// Drift `i` as stored: slot `i % 67` of line `i / 67`, the last drift
    /// of an array of `67j + 1` the 68th slot of line `j − 1` — exact
    /// unless its line is shifted, then rounded down by less than `2^s`.
    #[cfg(test)]
    pub fn delta(&self, i: usize) -> i32 {
        assert!(i < self.len, "drift {i} of {}", self.len);
        let (line, slot) = match i {
            0 => (&self.lines[0], 0),
            i => (&self.lines[(i - 1) / PAIRS], (i - 1) % PAIRS + 1),
        };
        match line.offset(slot) {
            ESCAPE => self.patches[line.patch_slot() + slot],
            offset => line.base().wrapping_add_unsigned(offset << line.shift()),
        }
    }

    /// The pair of neighbours `prediction` falls in — `k`, clamped to the
    /// last pair — with the drift its window starts at and the window's
    /// length: from two adjacent offsets of line `k / 67`, one `u32` load,
    /// and its base, or, from an escaped line, two adjacent patches. This
    /// is the "single memory lookup" the paper's layer costs. The window
    /// runs from `k + Δ_k` to `k + 1 + Δ_{k+1}`, empty where that is not
    /// past its start; in a line of shift `s` both ends are rounded, the
    /// start down and the end up, by at most `2^s − 1`. `None` without a
    /// pair: the layer over no keys. One branch a fetch, on the escape: a
    /// line is escaped in every offset or in none.
    #[inline]
    pub fn pair(&self, prediction: usize) -> Option<(usize, i32, usize)> {
        let k = prediction.min(self.len.checked_sub(2)?);
        // Every pair index is below `MAX_KEYS < 2^29`: on `u32` the
        // division by 67 is a 64-bit multiply and a shift.
        let (j, i) = (k as u32 / PAIRS as u32, k as u32 % PAIRS as u32);
        let (line, i) = (&self.lines[j as usize], i as usize);
        let offsets = line.offsets_from(i);
        let (this, next) = (offsets & ESCAPE, offsets >> OFFSET_BITS & ESCAPE);
        // The window is empty exactly when its end is not past its start.
        // A select compiles to a conditional move: whether a query falls
        // into an empty partition is data — gap queries often do — so a
        // branch on it would be mispredicted.
        if this != ESCAPE {
            // `base + offset` is a drift that was an `i32` before packing,
            // rounded down to the shift; the end is rounded up to it.
            let (base, shift) = (line.base(), line.shift());
            let delta = base.wrapping_add_unsigned(this << shift);
            // Wraps where `next < this`; the select drops it there.
            let units = (next + 1).wrapping_sub(this);
            let len = std::hint::select_unpredictable(next >= this, units << shift, 0);
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

    /// Bytes of the lines and the patch array: `64·⌈(len − 1) / 67⌉ +
    /// 272·(escaped lines)`.
    pub fn size_bytes(&self) -> usize {
        std::mem::size_of_val(self.lines.as_slice())
            + std::mem::size_of_val(self.patches.as_slice())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Lines a packed array of `len` drifts holds.
    pub(crate) fn line_count(len: usize) -> usize {
        match len {
            0 | 1 => len,
            len => (len - 1).div_ceil(PAIRS),
        }
    }

    /// How line `j` of `drifts`, the layer over `drifts.len() − 1` keys,
    /// is stored: `Some((base, shift))` in place, `None` escaped. The shift
    /// rule, restated from the drifts alone: the least `s` with
    /// `spread ≤ 127·2^s − 1`, and the line is escaped exactly when that
    /// `s > 3`, when a window it would serve overhangs the column, or when
    /// its minimum does not fit 30 bits.
    fn expected_line(drifts: &[i32], j: usize) -> Option<(i32, u32)> {
        let line = &drifts[PAIRS * j..drifts.len().min(PAIRS * j + LINE)];
        let (min, max) = (*line.iter().min().unwrap(), *line.iter().max().unwrap());
        let spread = i64::from(max) - i64::from(min);
        // `spread ≤ 127·2^s − 1`.
        let shift = (0u32..).find(|&s| spread < 127i64 << s).unwrap();
        if shift > 3 || !(-(1 << 29)..1 << 29).contains(&min) {
            return None;
        }
        let stored = |i: usize| {
            let offset = (i64::from(line[i]) - i64::from(min)) >> shift << shift;
            i64::from(min) + offset
        };
        let column = drifts.len() as i64 - 1;
        let inside = (0..line.len() - 1).all(|i| {
            let k = (PAIRS * j + i) as i64;
            let start = k + stored(i);
            let end = k + 1 + stored(i + 1) + (1i64 << shift) - 1;
            start >= 0 && start.max(end) <= column
        });
        (shift == 0 || inside).then_some((min, shift))
    }

    /// Offset `slot` of `line` and its base word, read bit by bit as the
    /// layout puts them: offset `i` at bits `7i..7i + 7` from byte 0 on,
    /// LSB first, the base word little-endian in bytes `60..64`.
    fn restated(line: &Line, slot: usize) -> (u32, u32) {
        let bit = |at: usize| u32::from(line.0[at / 8] >> (at % 8) & 1);
        let offset = (0..7).map(|b| bit(7 * slot + b) << b).sum();
        let word = (0..32).map(|b| bit(480 + b) << b).sum();
        (offset, word)
    }

    /// Pack `drifts` and check what holds of every packed array: feeding
    /// the whole lines 1, 3 or all at a call reaches the same array, every
    /// offset and base sits at the bits the layout says and the 4 bits past
    /// the 68th offset are clear, a line's 68th drift is the next line's
    /// first, every line is shifted
    /// or escaped by the shift rule ([`expected_line`]), the patch array
    /// holds the escaped lines' drifts, every drift of a line in place is
    /// its offset rounded down to its shift — exact at shift 0 — and every
    /// pair serves a window that holds the exact one and overhangs each of
    /// its ends by less than `2^s`.
    pub(crate) fn pack(drifts: &[i32]) -> Packed {
        let packed = Packed::from_drifts(drifts);
        for lines_per_call in [1, 3] {
            let mut streamed = Packed::new(drifts.len().saturating_sub(1));
            let mut from = 0;
            loop {
                // Each call repeats the last drift of the one before.
                let to = drifts.len().min(from + lines_per_call * PAIRS + 1);
                streamed.extend(&drifts[from..to]);
                if to == drifts.len() {
                    break;
                }
                from = to - 1;
            }
            streamed.finish();
            assert!(streamed == packed, "{lines_per_call} lines a call");
        }
        assert_eq!(packed.len(), drifts.len());
        assert_eq!(packed.lines.len(), line_count(drifts.len()));
        let (mut escaped_lines, mut shifted_lines) = (0, 0);
        for (j, line) in packed.lines.iter().enumerate() {
            let own = &drifts[PAIRS * j..drifts.len().min(PAIRS * j + LINE)];
            for slot in 0..LINE {
                let (offset, word) = restated(line, slot);
                assert_eq!((line.offset(slot), line.word()), (offset, word), "line {j}");
                assert_eq!(offset == ESCAPE, line.is_escaped(), "line {j} slot {slot}");
            }
            assert_eq!(line.0[OFFSET_BYTES - 1] >> 4, 0, "line {j}: padding");
            match expected_line(drifts, j) {
                Some((base, shift)) => {
                    assert!(!line.is_escaped(), "line {j}");
                    assert_eq!((line.base(), line.shift()), (base, shift), "line {j}");
                    shifted_lines += usize::from(shift > 0);
                }
                None => {
                    assert!(line.is_escaped(), "line {j}");
                    let at = line.patch_slot();
                    assert_eq!(packed.patches[at..][..own.len()], *own, "line {j}");
                    escaped_lines += 1;
                }
            }
        }
        assert_eq!(packed.patches(), LINE * escaped_lines);
        assert_eq!(packed.shifted_lines(), shifted_lines);
        assert_eq!(
            packed.size_bytes(),
            64 * packed.lines.len() + 272 * escaped_lines
        );
        // The unit a drift is stored in: `2^s` in a line in place, 1 in an
        // escaped line.
        let unit = |k: usize| 1 << packed.shift(k).unwrap_or(0);
        for (i, &delta) in drifts.iter().enumerate() {
            let stored = packed.delta(i);
            let slot_unit = unit(i.saturating_sub(1));
            assert!(stored <= delta && delta - stored < slot_unit, "drift {i}");
            if i + 1 < drifts.len() {
                // Pair `i` reads line `i / 67`: its start rounded down, its
                // end `Δ_{i+1}` rounded down plus `2^s − 1`, and no window
                // where the end is not past the start.
                let unit = unit(i);
                let rounded = |delta: i32| match expected_line(drifts, i / PAIRS) {
                    Some((base, shift)) => base + ((delta - base) >> shift << shift),
                    None => delta,
                };
                let start = rounded(delta);
                let end = i64::from(rounded(drifts[i + 1])) + i64::from(unit) - 1;
                let len = (1 + end - i64::from(start)).max(0) as usize;
                assert_eq!(packed.pair(i), Some((i, start, len)), "pair {i}");
                assert!(start <= delta && delta - start < unit, "pair {i}");
                let next = i64::from(drifts[i + 1]);
                assert!(end >= next && end - next < i64::from(unit), "pair {i}");
            }
        }
        if let Some(last) = drifts.len().checked_sub(2) {
            let pair = packed.pair(last);
            assert_eq!(packed.pair(usize::MAX), pair, "clamped to the last pair");
        } else {
            assert_eq!(packed.pair(0), None);
        }
        packed
    }

    /// `len` drifts climbing by 1 a partition from `from`: 67 across a
    /// line, never shifted.
    fn climbing(from: i32, len: usize) -> Vec<i32> {
        (0..len as i32).map(|i| from + i).collect()
    }

    /// The drifts of a layer over `n` keys, one a partition: partition `at`
    /// holds `keys` of them, every other one key while they last, and the
    /// partitions after the last key are empty and start at `n`. Its one
    /// long window climbs `Δ` by `keys − 1` inside line `at / 67`.
    fn one_long_window(n: usize, at: usize, keys: usize) -> Vec<i32> {
        (0..=n)
            .map(|k| {
                let start = if k <= at { k } else { n.min(k + keys - 1) };
                start as i32 - k as i32
            })
            .collect()
    }

    /// The drifts of a layer over `n` keys whose last partition holds
    /// `keys` of them, the partitions before it one key each while they
    /// last and empty after: its last line spreads `keys − 1`, from the
    /// last partition's `1 − keys` to the end's 0.
    fn a_long_last_window(n: usize, keys: usize) -> Vec<i32> {
        let last = n - keys;
        (0..=n)
            .map(|k| match k {
                k if k < last => 0,
                k if k < n => last as i32 - k as i32,
                _ => 0,
            })
            .collect()
    }

    #[test]
    fn random_entries_come_back_with_exact_drift_and_a_count_no_shorter() {
        // A window is the difference of two neighbouring drifts: in a line
        // of shift 0 both come back exact, so it is served at its exact
        // length; in a shifted one it is served no shorter.
        use sosd_data::rng::SplitMix64;
        let mut rng = SplitMix64::new(0xC0DE);
        for round in 0..40 {
            let n = rng.next_below(700) as usize;
            // Drifts that wander by up to `step` a partition from anywhere
            // in `i32`.
            let step = [2, 4, 300, 100_000][round % 4];
            let mut delta = rng.next_u64() as i32;
            let drifts: Vec<i32> = (0..n)
                .map(|_| {
                    delta = delta.wrapping_add(rng.next_below(2 * step + 1) as i32 - step as i32);
                    delta
                })
                .collect();
            pack(&drifts);
        }
    }

    #[test]
    fn random_layers_of_clustered_windows_shift_their_wide_lines() {
        // The layers of monotone models over random columns: keys crowd
        // into clusters of up to 3 000, so lines spread anywhere from 0 to
        // past 1 015 — in place, shifted and escaped — and every window
        // they serve lies inside the column.
        use sosd_data::rng::SplitMix64;
        let mut rng = SplitMix64::new(0x5A1F7);
        let mut shifted = 0;
        for _ in 0..30 {
            let n = 1 + rng.next_below(6_000) as usize;
            let mut predictions: Vec<usize> = Vec::with_capacity(n);
            while predictions.len() < n {
                let at = rng.next_below(n as u64) as usize;
                let keys = 1 + rng.next_below([1, 40, 3_000][predictions.len() % 3]) as usize;
                let keys = keys.min(n - predictions.len());
                predictions.extend(std::iter::repeat_n(at, keys));
            }
            predictions.sort_unstable();
            let drifts: Vec<i32> = (0..=n)
                .map(|k| predictions.partition_point(|&p| p < k) as i32 - k as i32)
                .collect();
            let packed = pack(&drifts);
            shifted += packed.shifted_lines();
            for k in 0..n {
                let (_, delta, len) = packed.pair(k).unwrap();
                let start = k as i64 + i64::from(delta);
                assert!(
                    0 <= start && start + len as i64 <= n as i64,
                    "pair {k} of {n}"
                );
            }
        }
        assert!(shifted > 10, "{shifted} shifted lines");
    }

    #[test]
    fn a_line_is_64_bytes_for_67_pairs() {
        // 67 pairs are 68 drifts: one line, however far they sit.
        assert_eq!(pack(&[1; LINE]).size_bytes(), 64);
        assert_eq!(pack(&[1_000_000; LINE]).size_bytes(), 64);
        // One drift more is a second line; 67 more still is.
        assert_eq!(pack(&[1; LINE + 1]).size_bytes(), 128);
        assert_eq!(pack(&[1; LINE + PAIRS]).size_bytes(), 128);
        assert_eq!(pack(&[1; LINE + PAIRS + 1]).size_bytes(), 192);
        // An escaped line, spreading past 1 015: its 68 drifts cost 272
        // bytes more. A shifted line costs nothing more.
        let mut drifts = [1; LINE + 1];
        drifts[9] = 1_017;
        assert_eq!(pack(&drifts).size_bytes(), 128 + 272);
        let shifted = pack(&one_long_window(1_000, 70, 600));
        assert_eq!(shifted.shifted_lines(), 1);
        assert_eq!(shifted.size_bytes(), 64 * 15);
    }

    #[test]
    fn pairs_at_66_67_68_133_134_135_and_every_seam_come_from_one_line() {
        let drifts = climbing(-40, 5 * PAIRS + 1);
        let packed = pack(&drifts);
        assert_eq!(packed.lines.len(), 5);
        for k in [66, 67, 68, 133, 134, 135] {
            assert_eq!(packed.pair(k), Some((k, drifts[k], 2)), "pair {k}");
        }
        // Pair 66 is line 0's last, pair 67 line 1's first; drift 67 is in
        // both.
        assert_eq!(packed.lines[0].offset(PAIRS), 67);
        assert_eq!(packed.lines[1].base(), drifts[PAIRS]);
        assert_eq!(packed.lines[1].offset(0), 0);
        for seam in (PAIRS..drifts.len() - 1).step_by(PAIRS) {
            let (line, next) = (&packed.lines[seam / PAIRS - 1], &packed.lines[seam / PAIRS]);
            let shared = line.base() + line.offset(PAIRS) as i32;
            assert_eq!(
                (shared, next.base()),
                (drifts[seam], drifts[seam]),
                "seam {seam}"
            );
            for k in [seam - 1, seam] {
                assert_eq!(packed.pair(k), Some((k, drifts[k], 2)), "seam {seam}");
            }
        }
    }

    #[test]
    fn a_fetch_from_slot_66_drops_the_base_bytes_at_every_shift_and_beside_an_escape() {
        // Pair 66 of a line loads bytes 57..61: its offsets and the base's
        // low byte. A base of −1 sets every bit of that byte, and the fetch
        // still reads the two offsets alone — at every shift, in place
        // beside an escaped line and from the escaped line's own slot 66.
        let at = 2 * PAIRS - 1;
        for (spread, shift) in [(126, 0), (253, 1), (507, 2), (1_015, 3)] {
            // Partition `at`, line 1's slot 66, holds `spread + 1` keys,
            // every partition from 1 on starts one record early, and a
            // spike escapes line 2.
            let n = at + 1_100 + PAIRS;
            let mut drifts = one_long_window(n, at, spread + 1);
            drifts[1..n].iter_mut().for_each(|delta| *delta -= 1);
            drifts[2 * PAIRS + 30] = 8_000_000;
            let packed = pack(&drifts);
            let tag = format!("spread {spread}");
            assert_eq!(packed.lines[1].0[OFFSET_BYTES], 0xFF, "{tag}");
            assert_eq!(packed.lines[1].base(), -1, "{tag}");
            assert_eq!(packed.shift(at), Some(shift), "{tag}");
            assert_eq!(packed.shift(at + 1), None, "{tag}");
            assert_eq!(packed.patches(), LINE, "{tag}");
            // The long window, its end rounded up to a whole unit.
            let len = ((spread >> shift) + 1) << shift;
            assert_eq!(packed.pair(at), Some((at, -1, len)), "{tag}");
            // Slot 66 of the escaped line: two patches.
            let last = 3 * PAIRS - 1;
            let len = (1 + drifts[last + 1] - drifts[last]) as usize;
            assert_eq!(packed.pair(last), Some((last, drifts[last], len)), "{tag}");
        }
    }

    #[test]
    fn a_short_last_line_of_every_length() {
        // Two whole lines and a last one of 1 to 67 pairs — 67 is whole.
        for pairs in 1..=PAIRS {
            let drifts = climbing(7, 2 * PAIRS + pairs + 1);
            let packed = pack(&drifts);
            assert_eq!(packed.lines.len(), 3, "{pairs} pairs");
            assert_eq!(packed.size_bytes(), 192, "{pairs} pairs");
            // Escaped by its last drift, past what a shift fits: 68
            // patches, the padding included.
            let mut spiked = drifts.clone();
            *spiked.last_mut().unwrap() += 3_000;
            let packed = pack(&spiked);
            assert_eq!(packed.patches(), LINE, "{pairs} pairs");
            assert_eq!(
                packed.patches[pairs..],
                [spiked[spiked.len() - 1]; LINE][pairs..]
            );
        }
        // Arrays of no, one and two drifts.
        assert!(pack(&[]).is_empty());
        assert_eq!(pack(&[]).size_bytes(), 0);
        assert_eq!(pack(&[5]).size_bytes(), 64);
        assert_eq!(pack(&[5, 0]).size_bytes(), 64);
        assert_eq!(pack(&[i32::MAX, 0]).patches(), LINE);
    }

    #[test]
    fn a_shifted_short_last_line_ends_at_the_column() {
        // The last window of a layer ends at the end's drift of 0. A
        // spread of `127·2^s − 1` rounds that drift down by `2^s − 1`, and
        // the window, widened by as much, ends exactly at `n`: the short
        // last line is shifted. One record more rounds it down by `2^s`
        // under the next shift, the window would end past `n`, and the
        // line is escaped.
        let n = 40 * PAIRS + 30;
        for (keys, shift) in [(254, 1), (508, 2), (1_016, 3)] {
            let packed = pack(&a_long_last_window(n, keys));
            let last = packed.lines.len() - 1;
            assert_eq!(packed.shift(n - 1), Some(shift), "{keys} keys");
            assert_eq!(packed.patches(), 0, "{keys} keys");
            let (_, delta, len) = packed.pair(n - 1).unwrap();
            let start = (n - 1).wrapping_add_signed(delta as isize);
            assert_eq!((start, start + len), (n - keys, n), "{keys} keys");
            assert!(packed.lines[..last].iter().all(|line| line.shift() == 0));
            let packed = pack(&a_long_last_window(n, keys + 1));
            assert_eq!(packed.shift(n - 1), None, "{} keys", keys + 1);
            assert_eq!(packed.patches(), LINE, "{} keys", keys + 1);
        }
        // A spread of 126 needs no shift.
        assert_eq!(pack(&a_long_last_window(n, 127)).shift(n - 1), Some(0));
    }

    #[test]
    fn spreads_at_each_shifts_edge_take_the_least_shift_that_fits() {
        // One long window in line 1 spreads it `keys − 1`: at most
        // `127·2^s − 1` fits shift `s`, one more takes the next, and past
        // `127·8 − 1 = 1 015` the line is escaped. Every other line keeps
        // shift 0.
        let at = PAIRS + 20;
        let edges = [
            (126, Some(0)),
            (127, Some(1)),
            (253, Some(1)),
            (254, Some(2)),
            (507, Some(2)),
            (508, Some(3)),
            (1_015, Some(3)),
            (1_016, None),
        ];
        for (spread, shift) in edges {
            let n = at + spread + 200;
            let drifts = one_long_window(n, at, spread + 1);
            let packed = pack(&drifts);
            assert_eq!(packed.shift(at), shift, "spread {spread}");
            let shifted = usize::from(shift.is_some_and(|s| s > 0));
            assert_eq!(packed.shifted_lines(), shifted, "spread {spread}");
            let escaped = usize::from(shift.is_none());
            assert_eq!(packed.patches(), LINE * escaped, "spread {spread}");
            // The long window of `spread + 1` records: its start is exact,
            // its end rounded up to less than one unit of the shift past it.
            let unit = 1 << shift.unwrap_or(0);
            let (_, start, len) = packed.pair(at).unwrap();
            assert_eq!(start, 0, "spread {spread}");
            assert!((0..unit).contains(&(len - spread - 1)), "spread {spread}");
        }
    }

    #[test]
    fn patches_in_the_first_a_middle_and_the_short_last_block() {
        // Three lines, the last of 30 pairs.
        let len = 2 * PAIRS + 31;
        let clean = climbing(-100, len);
        for line in 0..3 {
            // A spike off the seams escapes its own line only; its drifts go
            // to the patch array — the short last line's padded with copies
            // of its last — and its base says where.
            let mut drifts = clean.clone();
            drifts[line * PAIRS + 20] = 8_000_000;
            let packed = pack(&drifts);
            let own = &drifts[line * PAIRS..len.min(line * PAIRS + LINE)];
            assert_eq!(packed.patches[..own.len()], *own, "line {line}");
            assert_eq!(packed.patches(), LINE, "line {line}");
            assert_eq!(packed.lines[line].patch_slot(), 0, "line {line}");
            let at = line * PAIRS + 19;
            let len = (1 + 8_000_000 - drifts[at]) as usize;
            assert_eq!(packed.pair(at), Some((at, drifts[at], len)), "line {line}");
        }
        // All three, each spreading past 126 with no window inside the
        // column to shift: each base is its first slot.
        let mut drifts = clean.clone();
        for line in 0..3 {
            drifts[line * PAIRS + 1] = -300;
        }
        let packed = pack(&drifts);
        let bases: Vec<usize> = packed.lines.iter().map(Line::patch_slot).collect();
        assert_eq!(bases, [0, 68, 136]);
        // A spike on a seam escapes both lines that hold it.
        let mut drifts = clean;
        drifts[2 * PAIRS] = 1 << 30;
        let packed = pack(&drifts);
        assert_eq!(packed.patches[..LINE], drifts[PAIRS..][..LINE]);
        assert_eq!(packed.patches[LINE..][..31], drifts[2 * PAIRS..]);
    }

    #[test]
    fn offsets_and_counts_are_stored_in_place_up_to_the_width() {
        // An offset of 126 is stored in place, unshifted — and with it the
        // window it ends or starts, however long. At the array's first and
        // last drift one line holds it, at a seam two do. These drifts
        // start no window inside the column, so a line spreading 127 is
        // not shifted but escaped.
        let base = -7_000;
        let len = 3 * PAIRS + 1;
        let ends: [(usize, &[usize]); 3] = [(0, &[0]), (PAIRS, &[0, 1]), (len - 1, &[2])];
        for (at, lines) in ends {
            let mut drifts = vec![base; len];
            drifts[at] = base + 126;
            let packed = pack(&drifts);
            assert_eq!(packed.patches(), 0, "{at}");
            for &line in lines {
                assert_eq!(packed.lines[line].base(), base, "{at}");
                assert_eq!(packed.lines[line].shift(), 0, "{at}");
                let slot = at - line * PAIRS;
                assert_eq!(packed.lines[line].offset(slot), 126, "{at}");
            }
            drifts[at] = base + 127;
            let packed = pack(&drifts);
            assert_eq!(packed.patches(), LINE * lines.len(), "{at}");
            // The spread measured from the other end: a drift 127 below.
            drifts[at] = base - 127;
            assert_eq!(pack(&drifts).patches(), LINE * lines.len(), "{at}");
        }
    }

    #[test]
    fn a_low_outlier_is_the_base_and_patches_its_block() {
        // The base is the line's minimum: one drift far below the rest
        // pushes the others past an offset, and the line — starting no
        // window inside the column — is escaped.
        let mut drifts = vec![500; 2 * PAIRS + 1];
        drifts[2] = 100;
        let packed = pack(&drifts);
        assert_eq!(packed.lines[0].patch_slot(), 0);
        assert_eq!(packed.lines[1].base(), 500);
        assert_eq!(packed.patches, drifts[..LINE]);
        assert_eq!(packed.delta(2), 100);
        // Within an offset of the rest, it is the base of a line in place.
        drifts[2] = 400;
        let packed = pack(&drifts);
        assert_eq!(packed.lines[0].base(), 400);
        let offsets = [0, 1, 2].map(|slot| packed.lines[0].offset(slot));
        assert_eq!(offsets, [100, 100, 0]);
    }

    #[test]
    fn bases_reach_both_ends_of_i32() {
        // A base in place has 30 bits: both of their ends are stored in
        // place, shift 0 beside them.
        let (min, max) = (-(1 << 29), (1 << 29) - 1);
        let drifts = [min, min + 126, min + 3];
        let packed = pack(&drifts);
        assert_eq!((packed.lines[0].base(), packed.lines[0].shift()), (min, 0));
        assert_eq!(packed.patches(), 0);
        assert_eq!(pack(&[max, max - 126]).patches(), 0);
        // One past them, and the ends of `i32`, are escaped and exact.
        assert_eq!(pack(&[min - 1, min + 3]).patches[..2], [min - 1, min + 3]);
        assert_eq!(pack(&[max + 1, max + 5]).patches[..2], [max + 1, max + 5]);
        let drifts = [i32::MIN, i32::MIN + 126, i32::MIN + 3];
        assert_eq!(pack(&drifts).patches[..3], drifts);
        // A line spanning the whole of `i32`: the spread is taken without
        // overflow, and does not fit.
        let drifts = [i32::MIN, i32::MAX, -1];
        assert_eq!(pack(&drifts).patches[..3], drifts);
        // The extremes a layer over `MAX_KEYS` keys can hold come back as
        // they are.
        let max = crate::entry::MAX_KEYS as i32;
        let drifts = [max, -max, 0, max];
        assert_eq!(pack(&drifts).patches[..4], drifts);
        let drifts = [-max, -max + 126, -max];
        assert_eq!(pack(&drifts).lines[0].base(), -max);
    }
}
