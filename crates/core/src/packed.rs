//! The one layout of the range layer: cache lines of one base and 60
//! offsets, one drift a partition.
//!
//! The layer stores each partition's drift `Δ_k` and no window length: the
//! window of partition `k` ends where partition `k + 1`'s starts
//! ([`crate::table`]), so a fetch reads two neighbouring drifts. They are
//! stored in 64-byte, 64-aligned [`Line`]s: one `i32` base — the line's
//! minimum — and [`LINE`] = 60 `u8` offsets from it, `0..=254`,
//! `Δ = base + offset`. Line `j` holds the drifts `59j ..= 59j + 59`: its
//! last repeats the first of line `j + 1`, so the pair `(k, k + 1)` of every
//! fetch lies in line `k / 59` — one cache line a correction, the paper's
//! "at most one memory lookup" — at 64 bytes per [`PAIRS`] = 59 drifts,
//! ≈ 1.085 bytes a key. A line whose drifts spread past 254 is
//! **escaped**: every one of its offsets is [`ESCAPE`], its 60 drifts go in
//! full to a patch array (240 bytes more), and its base holds where they
//! start there, so with `i = k % 59` a fetch is
//!
//! ```text
//! base + offsets[i],   base + offsets[i + 1]        offsets[i] != 255
//! patches[base + i],   patches[base + i + 1]        offsets[i] == 255
//! ```
//!
//! — one dependent load more on the escape, no directory and no search. A
//! layer without an escaped line keeps no patch array.
//!
//! An escaped line is, in practice, a stretch where a dense region climbs
//! `Δ` by `C − 1` a partition past 254 inside one line, or a long window's
//! partition beside the empty ones after it. Whether a fetch reads one is a
//! property of the query, not of the layer: on the amzn64 IM layer (4 Mi
//! keys) 1.3 % of the lines are escaped and 71 % of the gap queries fetch
//! from one (with blocks of 8 drifts, 0.21 % and 59 %), so the branch on
//! the escape is mispredicted about every third fetch there. Reading a
//! patch slot on every fetch and selecting without a branch won there and
//! lost where escapes are rare — timed on the blocks of 8, 64 fetches at a
//! time between cache-evicting searches (2-vCPU x86): 26 against 32 ns a
//! fetch on that layer, 26 against 19 on osmc64 under `rmi:4096`, where
//! 0.6 % of the fetches were escaped — so the branch stays.

/// Drifts one line holds: its 59 pairs' and the first of the next line.
pub(crate) const LINE: usize = 60;

/// Pairs of neighbouring drifts one line serves: line `j` those from
/// `59j` to `59j + 58`.
pub(crate) const PAIRS: usize = LINE - 1;

/// The offset of every drift of an escaped line; a stored offset is below
/// it.
const ESCAPE: u8 = u8::MAX;

/// One cache line of the layer: a base and an offset a drift, or for an
/// escaped line where its drifts start in the patch array.
#[derive(Debug, Clone, PartialEq, Eq)]
#[repr(C, align(64))]
struct Line {
    /// The line's smallest drift; an escaped line's first slot in
    /// `patches`, as the bits of a `u32`.
    base: i32,
    /// One offset a drift; [`ESCAPE`] throughout an escaped line.
    offsets: [u8; LINE],
}

// lint: allow(panic) evaluated at compile time: a line is one cache line
const _: () = assert!(size_of::<Line>() == 64 && align_of::<Line>() == 64);

/// `delta − base` for a `delta` no smaller than its line's `base`: the
/// wrapped difference is the true one even where that is past `i32`.
#[inline]
fn offset_from(base: i32, delta: i32) -> u32 {
    delta.wrapping_sub(base) as u32
}

/// The range layer's drift array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Packed {
    /// `⌈(len − 1) / 59⌉` lines over `len > 1` drifts (one over one), the
    /// last possibly short.
    lines: Vec<Line>,
    /// The drifts of the escaped lines in full, 60 a line, in order; a
    /// short last line's padded with copies of its last drift.
    patches: Vec<i32>,
    /// Number of drifts.
    len: usize,
}

impl Packed {
    /// An empty array with room for `n` drifts (and no patch).
    pub fn with_capacity(n: usize) -> Self {
        Self {
            lines: Vec::with_capacity(n.div_ceil(PAIRS)),
            patches: Vec::new(),
            len: 0,
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
        if offset_from(base, max) < ESCAPE as u32 {
            let offsets = drifts.map(|delta| offset_from(base, delta) as u8);
            self.lines.push(Line { base, offsets });
        } else {
            self.push_escaped(drifts);
        }
    }

    /// Append a line whose drifts spread past a byte.
    #[cold]
    fn push_escaped(&mut self, drifts: &[i32; LINE]) {
        // A slot index below 60 a line: it fits a `u32`.
        let base = self.patches.len() as u32 as i32;
        self.lines.push(Line {
            base,
            offsets: [ESCAPE; LINE],
        });
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
    /// 60th drift of a line repeats the next line's first. Whole lines —
    /// 59 drifts past the first — except at the end of the array.
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
        // A lone last drift is the 60th of a line already appended — or,
        // alone in an empty array, a line of its own.
        if rest.len() > 1 || (fresh && drifts.len() == 1) {
            self.push_last(rest);
        }
        self.len += drifts.len() - usize::from(!fresh);
    }

    /// Give back the patch array's spare capacity.
    pub fn finish(&mut self) {
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

    /// Number of drifts stored in the patch array: 60 an escaped line.
    #[inline]
    pub fn patches(&self) -> usize {
        self.patches.len()
    }

    /// Drift `i`, exact: slot `i % 59` of line `i / 59`, the last drift of
    /// an array of `59j + 1` the 60th slot of line `j − 1`.
    #[cfg(test)]
    pub fn delta(&self, i: usize) -> i32 {
        assert!(i < self.len, "drift {i} of {}", self.len);
        let (line, slot) = match i {
            0 => (&self.lines[0], 0),
            i => (&self.lines[(i - 1) / PAIRS], (i - 1) % PAIRS + 1),
        };
        match line.offsets[slot] {
            ESCAPE => self.patches[line.base as u32 as usize + slot],
            offset => line.base.wrapping_add_unsigned(offset.into()),
        }
    }

    /// The pair of neighbours `prediction` falls in — `k`, clamped to the
    /// last pair — with drifts `k` and `k + 1`: two adjacent offset bytes of
    /// line `k / 59` and its base, or, from an escaped line, two adjacent
    /// patches. This is the "single memory lookup" the paper's layer costs.
    /// `None` without a pair: the layer over no keys. One branch a fetch,
    /// on the escape: a line is escaped in every offset or in none.
    #[inline]
    pub fn pair(&self, prediction: usize) -> Option<(usize, i32, i32)> {
        let k = prediction.min(self.len.checked_sub(2)?);
        let (line, i) = (&self.lines[k / PAIRS], k % PAIRS);
        let (this, next) = (line.offsets[i], line.offsets[i + 1]);
        if this != ESCAPE {
            // `base + offset` is a drift that was an `i32` before packing.
            let base = line.base;
            let (delta, next) = (
                base.wrapping_add_unsigned(this.into()),
                base.wrapping_add_unsigned(next.into()),
            );
            Some((k, delta, next))
        } else {
            let patches = &self.patches[line.base as u32 as usize + i..][..2];
            Some((k, patches[0], patches[1]))
        }
    }

    /// Bytes of the lines and the patch array: `64·⌈(len − 1) / 59⌉ +
    /// 240·(escaped lines)`.
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

    /// Pack `drifts` and check what holds of every packed array: feeding
    /// the whole lines 1, 3 or all at a call reaches the same array, every
    /// drift and every pair of neighbours comes back exact, a line's 60th
    /// drift is the next line's first, a line is escaped exactly when its
    /// drifts spread past 254, and the patch array holds the escaped lines'
    /// drifts.
    pub(crate) fn pack(drifts: &[i32]) -> Packed {
        let packed = Packed::from_drifts(drifts);
        for lines_per_call in [1, 3] {
            let mut streamed = Packed::with_capacity(drifts.len());
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
        let mut escaped_lines = 0;
        for (j, line) in packed.lines.iter().enumerate() {
            let drifts = &drifts[PAIRS * j..drifts.len().min(PAIRS * j + LINE)];
            let spread = drifts
                .iter()
                .max()
                .unwrap()
                .abs_diff(*drifts.iter().min().unwrap());
            let escaped = line.offsets[0] == ESCAPE;
            assert_eq!(escaped, spread > 254, "line {j}");
            assert!(line.offsets.iter().all(|&o| (o == ESCAPE) == escaped));
            if escaped {
                let at = line.base as usize;
                assert_eq!(packed.patches[at..][..drifts.len()], *drifts, "line {j}");
                escaped_lines += 1;
            }
        }
        assert_eq!(packed.patches(), LINE * escaped_lines);
        assert_eq!(
            packed.size_bytes(),
            64 * packed.lines.len() + 240 * escaped_lines
        );
        for (i, &delta) in drifts.iter().enumerate() {
            assert_eq!(packed.delta(i), delta, "drift {i}");
            if i + 1 < drifts.len() {
                assert_eq!(packed.pair(i), Some((i, delta, drifts[i + 1])), "pair {i}");
            }
        }
        if let Some(last) = drifts.len().checked_sub(2) {
            let pair = Some((last, drifts[last], drifts[last + 1]));
            assert_eq!(packed.pair(usize::MAX), pair, "clamped to the last pair");
        } else {
            assert_eq!(packed.pair(0), None);
        }
        packed
    }

    /// `len` drifts climbing by 3 a partition from `from`: 177 across a
    /// line, never escaped.
    fn climbing(from: i32, len: usize) -> Vec<i32> {
        (0..len as i32).map(|i| from + 3 * i).collect()
    }

    #[test]
    fn random_entries_come_back_with_exact_drift_and_a_count_no_shorter() {
        // A window is the difference of two neighbouring drifts: both come
        // back exact, so it is served at its exact length.
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
    fn a_line_is_64_bytes_for_59_pairs() {
        // 59 pairs are 60 drifts: one line, however far they sit.
        assert_eq!(pack(&[1; LINE]).size_bytes(), 64);
        assert_eq!(pack(&[1_000_000; LINE]).size_bytes(), 64);
        // One drift more is a second line; 59 more still is.
        assert_eq!(pack(&[1; LINE + 1]).size_bytes(), 128);
        assert_eq!(pack(&[1; LINE + PAIRS]).size_bytes(), 128);
        assert_eq!(pack(&[1; LINE + PAIRS + 1]).size_bytes(), 192);
        // An escaped line: its 60 drifts cost 240 bytes more.
        let mut drifts = [1; LINE + 1];
        drifts[9] = 256;
        assert_eq!(pack(&drifts).size_bytes(), 128 + 240);
    }

    #[test]
    fn pairs_at_58_59_60_and_every_seam_come_from_one_line() {
        let drifts = climbing(-40, 5 * PAIRS + 1);
        let packed = pack(&drifts);
        assert_eq!(packed.lines.len(), 5);
        for k in [58, 59, 60] {
            assert_eq!(packed.pair(k), Some((k, drifts[k], drifts[k + 1])));
        }
        // Pair 58 is line 0's last, pair 59 line 1's first; drift 59 is in
        // both.
        assert_eq!(packed.lines[0].offsets[PAIRS], 3 * 59);
        assert_eq!(packed.lines[1].base, drifts[PAIRS]);
        assert_eq!(packed.lines[1].offsets[0], 0);
        for seam in (PAIRS..drifts.len() - 1).step_by(PAIRS) {
            let (line, next) = (&packed.lines[seam / PAIRS - 1], &packed.lines[seam / PAIRS]);
            let shared = line.base + i32::from(line.offsets[PAIRS]);
            assert_eq!(
                (shared, next.base),
                (drifts[seam], drifts[seam]),
                "seam {seam}"
            );
            for k in [seam - 1, seam] {
                assert_eq!(
                    packed.pair(k),
                    Some((k, drifts[k], drifts[k + 1])),
                    "seam {seam}"
                );
            }
        }
    }

    #[test]
    fn a_short_last_line_of_every_length() {
        // Two whole lines and a last one of 1 to 59 pairs — 59 is whole.
        for pairs in 1..=PAIRS {
            let drifts = climbing(7, 2 * PAIRS + pairs + 1);
            let packed = pack(&drifts);
            assert_eq!(packed.lines.len(), 3, "{pairs} pairs");
            assert_eq!(packed.size_bytes(), 192, "{pairs} pairs");
            // Escaped by its last drift: 60 patches, the padding included.
            let mut spiked = drifts.clone();
            *spiked.last_mut().unwrap() += 1_000;
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
            assert_eq!(packed.lines[line].base, 0, "line {line}");
            let at = line * PAIRS + 19;
            let pair = Some((at, drifts[at], 8_000_000));
            assert_eq!(packed.pair(at), pair, "line {line}");
        }
        // All three: each base is its first slot.
        let mut drifts = clean.clone();
        for line in 0..3 {
            drifts[line * PAIRS + 1] = -300;
        }
        let packed = pack(&drifts);
        let bases: Vec<i32> = packed.lines.iter().map(|line| line.base).collect();
        assert_eq!(bases, [0, 60, 120]);
        // A spike on a seam escapes both lines that hold it.
        let mut drifts = clean;
        drifts[2 * PAIRS] = 1 << 30;
        let packed = pack(&drifts);
        assert_eq!(packed.patches[..LINE], drifts[PAIRS..][..LINE]);
        assert_eq!(packed.patches[LINE..][..31], drifts[2 * PAIRS..]);
    }

    #[test]
    fn offsets_and_counts_are_stored_in_place_up_to_the_width() {
        // An offset of 254 is stored in place — and with it the window it
        // ends or starts, however long; 255 is the escape. At the array's
        // first and last drift one line holds it, at a seam two do.
        let base = -7_000;
        let len = 3 * PAIRS + 1;
        let ends: [(usize, &[usize]); 3] = [(0, &[0]), (PAIRS, &[0, 1]), (len - 1, &[2])];
        for (at, lines) in ends {
            let mut drifts = vec![base; len];
            drifts[at] = base + 254;
            let packed = pack(&drifts);
            assert_eq!(packed.patches(), 0, "{at}");
            for &line in lines {
                assert_eq!(packed.lines[line].base, base, "{at}");
                let slot = at - line * PAIRS;
                assert_eq!(packed.lines[line].offsets[slot], 254, "{at}");
            }
            drifts[at] = base + 255;
            let packed = pack(&drifts);
            assert_eq!(packed.patches(), LINE * lines.len(), "{at}");
            // The spread measured from the other end: a drift 255 below.
            drifts[at] = base - 255;
            assert_eq!(pack(&drifts).patches(), LINE * lines.len(), "{at}");
        }
    }

    #[test]
    fn a_low_outlier_is_the_base_and_patches_its_block() {
        // The base is the line's minimum: one drift far below the rest
        // pushes the others past a byte, and the line is escaped.
        let mut drifts = vec![500; 2 * PAIRS + 1];
        drifts[2] = 100;
        let packed = pack(&drifts);
        assert_eq!(packed.lines[0].base, 0);
        assert_eq!(packed.lines[1].base, 500);
        assert_eq!(packed.patches, drifts[..LINE]);
        assert_eq!(packed.delta(2), 100);
        // Within a byte of the rest, it is the base of a line in place.
        drifts[2] = 300;
        let packed = pack(&drifts);
        assert_eq!(packed.lines[0].base, 300);
        assert_eq!(packed.lines[0].offsets[..3], [200, 200, 0]);
    }

    #[test]
    fn bases_reach_both_ends_of_i32() {
        let drifts = [i32::MIN, i32::MIN + 254, i32::MIN + 3];
        let packed = pack(&drifts);
        assert_eq!(packed.lines[0].base, i32::MIN);
        assert_eq!(packed.patches(), 0);
        assert_eq!(pack(&[i32::MAX, i32::MAX - 254]).patches(), 0);
        // A line spanning the whole of `i32`: the spread is taken without
        // overflow, and does not fit.
        let drifts = [i32::MIN, i32::MAX, -1];
        assert_eq!(pack(&drifts).patches[..3], drifts);
        // The extremes a layer over `MAX_KEYS` keys can hold come back as
        // they are.
        let max = crate::entry::MAX_KEYS as i32;
        let drifts = [i32::MAX, -max, 0, max];
        assert_eq!(pack(&drifts).patches[..4], drifts);
    }
}
