//! The one layout of the range layer: four plain arrays.
//!
//! Per aligned block of [`BLOCK`] entries one `i32` base — the block's
//! minimum `Δ` — and per entry `(u8 offset, u8 count code)`:
//! `Δ = base + offset`, `C = decode(code)`. That is 2.5 bytes an entry. An
//! entry whose offset is past 255, or whose count no code reaches, is a
//! **patch**: its `(i32, u32)` goes in full to a patch array, its code is 0
//! — the escape — and its free offset byte holds its rank among the
//! patches of its *bucket* of [`BUCKET`] entries. One `u32` per bucket
//! holds the bucket's first patch slot, so a fetch is
//!
//! ```text
//! (bases[i / 8] + entries[i].offset, decode(entries[i].code))   code != 0
//! patches[dir[i / 256] + entries[i].offset]                     code == 0
//! ```
//!
//! — two dependent loads on the escape, no search and no scan. A bucket of
//! 256 is the largest whose rank always fits the offset byte (at most 255
//! patches precede the last entry of a bucket), and it keeps the directory
//! at 4 bytes per 256 entries. A layer without a patch keeps neither array.
//!
//! **The count code.** 0 is the escape, 1..=127 are the counts themselves,
//! and a code `c ≥ 128` is a 3-bit mantissa under a 4-bit exponent,
//! `(8 | c & 7) << ((c >> 3) − 12)`: 128, 144, 160, … 240, 256, 288, … up
//! to [`MAX_CODED_COUNT`] = 7 864 320. A count is stored as the smallest
//! code that decodes to at least it, so a served window is the exact one or
//! up to an eighth longer. Rounding *up* is sound by the paper's own
//! Algorithm 1: `C_k` is nothing but the bound of the local search that
//! starts at `k + Δ_k` — which must be, and is, exact — and the window is
//! clamped to the column, so a longer one is a superset of the exact one
//! and holds the same lower bound (the fetch-weighted mean window of the
//! repository benchmark's four layers grows by 0 to 0.7 %). The decode is
//! computed, not looked up: a 256-entry table read `core.table.correct_ns`
//! 28.6 against 27.5 ns on `static_narrow` and the same on `static_wide`.
//! With the count out of the way a patch is, in practice, an *offset*
//! patch: the short entries after a long window inside its block, and the
//! stretch where a dense region climbs `Δ` by more than 255 inside a block.
//!
//! Whether a fetch hits a patch is a property of the query, not of the
//! layer (on the amzn64 IM layer 0.11 % of the entries are patches and
//! 47 % of all gap queries fetch one, so the branch on the escape is
//! mispredicted every other fetch there). Reading the directory and a
//! patch slot on every fetch and selecting without a branch was measured
//! against it on the repository benchmark: better where patches are
//! fetched often (`static_wide` batch 6.0 against 5.8 Mkeys/s), worse where
//! they are rare (`static_narrow` lookups 286 against 259 ns, batch 12.5
//! against 14.2 Mkeys/s) — the branch stays.

use crate::entry::{ShiftEntry, WideEntry};

/// Entries per base: the base costs half a byte an entry, and eight
/// neighbours keep the drift one base must cover small.
pub(crate) const BLOCK: usize = 8;

/// Entries per directory slot: whole blocks, so a block never straddles
/// two buckets.
pub(crate) const BUCKET: usize = 256;

/// The longest window a count code reaches (code 255); a longer one is a
/// patch.
pub(crate) const MAX_CODED_COUNT: u32 = decode_count(u8::MAX);

/// The smallest code that decodes to at least `count`; 0 — the escape —
/// for a count of 0 (no window over keys is empty) or past
/// [`MAX_CODED_COUNT`].
#[inline]
pub(crate) fn encode_count(count: u32) -> u8 {
    if count < 128 {
        return count as u8;
    }
    if count > MAX_CODED_COUNT {
        return 0;
    }
    // `count = mantissa · 2^shift` rounded up, 8 ≤ mantissa ≤ 16; a
    // mantissa of 16 carries into the next exponent's 8 by the addition.
    let shift = 28 - count.leading_zeros();
    let mantissa = count.div_ceil(1 << shift);
    (((shift + 12) << 3) + (mantissa - 8)) as u8
}

/// The count a code stands for (0 for the escape).
#[inline]
pub(crate) const fn decode_count(code: u8) -> u32 {
    let code = code as u32;
    // Both arms are computed and one selected: the shift is masked so the
    // arm not taken cannot overflow.
    let long = (8 | code & 7) << ((code >> 3).wrapping_sub(12) & 31);
    if code < 128 {
        code
    } else {
        long
    }
}

/// One aligned block of entries in the working layout.
type Block = [WideEntry; BLOCK];

/// `delta − base` for a `delta` no smaller than its block's `base`: the
/// wrapped difference is the true one even where that is past `i32`.
#[inline]
fn offset_from(base: i32, delta: i32) -> u32 {
    delta.wrapping_sub(base) as u32
}

/// The range layer's entry array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Packed {
    /// One base per block, the last block possibly short.
    bases: Vec<i32>,
    /// One `(offset, count code)` per prediction; code 0 marks a patch,
    /// whose offset is its rank in its bucket.
    entries: Vec<(u8, u8)>,
    /// The first patch slot of every bucket (dropped by `finish` from a
    /// layer without a patch).
    dir: Vec<u32>,
    /// The patched entries in full, in entry order.
    patches: Vec<WideEntry>,
}

impl Packed {
    /// An empty array with room for `n` entries (and no patch).
    pub fn with_capacity(n: usize) -> Self {
        Self {
            bases: Vec::with_capacity(n.div_ceil(BLOCK)),
            entries: Vec::with_capacity(n),
            dir: Vec::with_capacity(n.div_ceil(BUCKET)),
            patches: Vec::new(),
        }
    }

    /// Pack a finished working array.
    pub fn from_wide(entries: &[WideEntry]) -> Self {
        let mut packed = Self::with_capacity(entries.len());
        packed.extend(entries);
        packed.finish();
        packed
    }

    /// Append one aligned block.
    #[inline]
    fn push_block(&mut self, block: &Block) {
        debug_assert!(self.len().is_multiple_of(BLOCK), "blocks are aligned");
        if self.len().is_multiple_of(BUCKET) {
            self.dir.push(self.patches.len() as u32);
        }
        // `C − 1` wraps an empty window to the top: one maximum says whether
        // every count is its own code.
        let (base, max_delta, max_count_less_one) = block.iter().fold(
            (i32::MAX, i32::MIN, 0),
            |(min_delta, max_delta, max_count), &(delta, count)| {
                (
                    min_delta.min(delta),
                    max_delta.max(delta),
                    max_count.max(count.wrapping_sub(1)),
                )
            },
        );
        self.bases.push(base);
        if offset_from(base, max_delta) <= u8::MAX as u32 && max_count_less_one < 127 {
            let mut packed = [(0u8, 0u8); BLOCK];
            for (slot, &(delta, count)) in packed.iter_mut().zip(block) {
                *slot = (offset_from(base, delta) as u8, count as u8);
            }
            self.entries.extend_from_slice(&packed);
        } else {
            self.push_coded(block, base);
        }
    }

    /// Append a block with a window past 127 records or an entry to patch.
    #[cold]
    fn push_coded(&mut self, block: &Block, base: i32) {
        for &(delta, count) in block {
            let offset = offset_from(base, delta);
            let code = encode_count(count);
            let packed = if offset <= u8::MAX as u32 && code != 0 {
                (offset as u8, code)
            } else {
                let rank = self.patches.len() as u32 - self.dir[self.dir.len() - 1];
                self.patches.push((delta, count));
                (rank as u8, 0)
            };
            self.entries.push(packed);
        }
    }

    /// Append the array's last, short block: padded with copies of its
    /// last entry, which moves none of its extremes, and cut back.
    fn push_last(&mut self, entries: &[WideEntry]) {
        debug_assert!((1..BLOCK).contains(&entries.len()));
        let mut block = [entries[entries.len() - 1]; BLOCK];
        block[..entries.len()].copy_from_slice(entries);
        self.push_block(&block);
        let len = self.entries.len() - (BLOCK - entries.len());
        // Padding that was patched sits at the end of the patch list.
        let padded_patches = self.entries[len..].iter().filter(|(_, code)| *code == 0);
        self.patches
            .truncate(self.patches.len() - padded_patches.count());
        self.entries.truncate(len);
    }

    /// Append `entries`: whole blocks, except at the end of the array.
    pub fn extend(&mut self, entries: &[WideEntry]) {
        let (blocks, last) = entries.as_chunks::<BLOCK>();
        for block in blocks {
            self.push_block(block);
        }
        if !last.is_empty() {
            self.push_last(last);
        }
    }

    /// Give back what the arrays hold beyond their use: the patch list's
    /// spare capacity, and the directory of a layer without a patch.
    pub fn finish(&mut self) {
        self.patches.shrink_to_fit();
        if self.patches.is_empty() {
            self.dir = Vec::new();
        }
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if there are no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of entries stored in the patch list.
    #[inline]
    pub fn patches(&self) -> usize {
        self.patches.len()
    }

    /// Entry `i` as served: its exact `Δ`, and its window length — exact
    /// up to 127 and from a patch, else rounded up to the next code. One
    /// array access and one more into the base array (a quarter of the
    /// entries' bytes) or, for a patch, into the patch list — this is the
    /// "single memory lookup" the paper's layer costs.
    #[inline]
    pub fn wide(&self, i: usize) -> WideEntry {
        let (offset, code) = self.entries[i];
        if code != 0 {
            // `base + offset` is a `Δ` that was an `i32` before packing.
            let delta = self.bases[i / BLOCK].wrapping_add_unsigned(offset as u32);
            (delta, decode_count(code))
        } else {
            self.patches[self.dir[i / BUCKET] as usize + offset as usize]
        }
    }

    /// Entry `i` as served (see [`Packed::wide`]).
    #[inline]
    pub fn get(&self, i: usize) -> ShiftEntry {
        let (delta, count) = self.wide(i);
        ShiftEntry::new(delta as i64, count as u64)
    }

    /// Bytes of the four arrays.
    pub fn size_bytes(&self) -> usize {
        std::mem::size_of_val(self.bases.as_slice())
            + std::mem::size_of_val(self.entries.as_slice())
            + std::mem::size_of_val(self.dir.as_slice())
            + std::mem::size_of_val(self.patches.as_slice())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Pack `entries` and check what holds of every packed array: feeding
    /// the whole blocks 1, 3 or all at a call reaches the same arrays, and
    /// every fetch returns the entry's `Δ` and — from a patch or up to 127
    /// exactly, else no shorter and at most an eighth longer — its count.
    pub(crate) fn pack(entries: &[WideEntry]) -> Packed {
        let packed = Packed::from_wide(entries);
        for blocks_per_call in [1, 3] {
            let mut streamed = Packed::with_capacity(entries.len());
            entries
                .chunks(blocks_per_call * BLOCK)
                .for_each(|portion| streamed.extend(portion));
            streamed.finish();
            assert!(streamed == packed, "{blocks_per_call} blocks a call");
        }
        assert_eq!(packed.len(), entries.len());
        let mut patches = 0;
        for (i, &(delta, count)) in entries.iter().enumerate() {
            let (served_delta, served) = packed.wide(i);
            assert_eq!(served_delta, delta, "entry {i}");
            let patched = packed.entries[i].1 == 0;
            patches += usize::from(patched);
            if patched || count < 128 {
                assert_eq!(served, count, "entry {i}");
            } else {
                assert!(
                    count <= served && served <= count + count / 8,
                    "entry {i}: {count} served as {served}"
                );
            }
            assert_eq!(packed.get(i), ShiftEntry::new(delta as i64, served as u64));
        }
        assert_eq!(packed.patches(), patches);
        packed
    }

    #[test]
    fn the_256_codes_decode_strictly_increasing_from_one() {
        assert_eq!(decode_count(0), 0);
        assert_eq!(decode_count(1), 1);
        for code in 1..=u8::MAX {
            assert!(decode_count(code) > decode_count(code - 1), "{code}");
            // A code is the code of what it stands for.
            assert_eq!(encode_count(decode_count(code)), code);
        }
        assert_eq!(decode_count(127), 127);
        assert_eq!(decode_count(128), 128);
        assert_eq!(decode_count(129), 144);
        assert_eq!(decode_count(136), 256);
        assert_eq!(MAX_CODED_COUNT, 7_864_320);
    }

    #[test]
    fn a_count_is_rounded_up_by_at_most_an_eighth() {
        let served = |count: u32| decode_count(encode_count(count));
        // Around every code's value, 127 | 128 among them.
        for code in 1..=u8::MAX {
            let at = decode_count(code);
            for count in [at - 1, at, at + 1] {
                if (1..=MAX_CODED_COUNT).contains(&count) {
                    let served = served(count);
                    assert!(count <= served && served <= count + count / 8, "{count}");
                    assert!(count > 127 || served == count, "{count}");
                }
            }
        }
        assert_eq!(served(127), 127);
        assert_eq!(served(129), 144);
        assert_eq!(served(MAX_CODED_COUNT), MAX_CODED_COUNT);
        // The escape: no window, and a window past the last code.
        assert_eq!(encode_count(0), 0);
        assert_eq!(encode_count(MAX_CODED_COUNT + 1), 0);
        assert_eq!(encode_count(u32::MAX), 0);
    }

    #[test]
    fn random_entries_come_back_with_exact_drift_and_a_count_no_shorter() {
        use sosd_data::rng::SplitMix64;
        let mut rng = SplitMix64::new(0xC0DE);
        for round in 0..40 {
            let n = rng.next_below(700) as usize;
            // Counts over every octave and past the last code, drifts that
            // wander by up to `step` an entry from anywhere in `i32`.
            let step = [2, 40, 300, 100_000][round % 4];
            let mut delta = rng.next_u64() as i32;
            let entries: Vec<WideEntry> = (0..n)
                .map(|_| {
                    delta = delta.wrapping_add(rng.next_below(2 * step + 1) as i32 - step as i32);
                    let count = (rng.next_u64() >> (31 + rng.next_below(33))) as u32;
                    (delta, count)
                })
                .collect();
            pack(&entries);
        }
    }

    #[test]
    fn an_entry_is_two_bytes_and_a_base_half_a_byte() {
        assert_eq!(std::mem::size_of::<(u8, u8)>(), 2);
        assert_eq!(std::mem::size_of::<WideEntry>(), 8);
        assert_eq!(2 * std::mem::size_of::<i32>(), BLOCK);
        assert_eq!(BUCKET % BLOCK, 0);
        // The last entry of a bucket has at most 255 patches before it.
        assert_eq!(BUCKET - 1, u8::MAX as usize);
        // 64 smooth entries: 64 * 2 + 8 * 4 bytes, however far they drift.
        assert_eq!(pack(&[(1, 1); 64]).size_bytes(), 160);
        assert_eq!(pack(&[(1_000_000, 1); 64]).size_bytes(), 160);
    }

    #[test]
    fn offsets_and_counts_are_stored_in_place_up_to_the_width() {
        // Offset 255 fits a byte and the longest coded count its code; 256
        // is a patch, one record more is, and so is the escape value
        // itself, a count of 0.
        let base = -7_000;
        let mut entries = vec![(base, 1); 3 * BLOCK];
        entries[BLOCK + 1] = (base + 255, MAX_CODED_COUNT);
        entries[BLOCK + 2] = (base, 127);
        entries[BLOCK + 3] = (base, 255);
        let packed = pack(&entries);
        assert_eq!(packed.patches(), 0);
        assert!(packed.dir.is_empty());
        assert_eq!(packed.bases, [base; 3]);
        assert_eq!(
            packed.entries[BLOCK + 1..BLOCK + 4],
            [(255, 255), (0, 127), (0, 136)]
        );
        assert_eq!(packed.wide(BLOCK + 3), (base, 256));
        for (patched, patch) in [
            (BLOCK + 1, (base + 256, 255)),
            (BLOCK + 1, (base + 255, MAX_CODED_COUNT + 1)),
            (BLOCK + 6, (base + 3, 0)),
        ] {
            let mut entries = entries.clone();
            entries[patched] = patch;
            let packed = pack(&entries);
            assert_eq!(packed.patches, [patch]);
            assert_eq!(packed.dir, [0]);
            assert_eq!(packed.entries[patched], (0, 0));
            // Its neighbours stay in place, under the block's minimum.
            assert_eq!(packed.entries[BLOCK], (0, 1));
        }
    }

    #[test]
    fn a_low_outlier_is_the_base_and_patches_its_block() {
        // The base is the block's minimum, patched or not: one entry far
        // below the rest pushes the other seven past a byte.
        let mut entries = vec![(500, 2); 2 * BLOCK];
        entries[2].0 = 100;
        let packed = pack(&entries);
        assert_eq!(packed.bases, [100, 500]);
        assert_eq!(packed.patches(), 7);
        assert_eq!(packed.entries[2], (0, 2));
        assert_eq!(packed.entries[7], (6, 0));
    }

    #[test]
    fn patches_in_the_first_a_middle_and_the_short_last_block() {
        for n in [0usize, 1, 7, 8, 9, 255, 256, 257, 600] {
            let clean: Vec<WideEntry> = (0..n as i32).map(|i| (-i, 1 + i as u32 % 255)).collect();
            let packed = pack(&clean);
            assert_eq!(packed.patches(), 0, "n={n}");
            assert_eq!(
                packed.size_bytes(),
                2 * n + 4 * n.div_ceil(BLOCK),
                "no patch, no directory: n={n}"
            );
            for at in [0, n / 2, n.saturating_sub(1)] {
                if n == 0 {
                    continue;
                }
                let mut entries = clean.clone();
                entries[at].1 = 8_000_000;
                let packed = pack(&entries);
                assert_eq!(packed.patches, [entries[at]], "n={n} at={at}");
                assert_eq!(packed.dir.len(), n.div_ceil(BUCKET), "n={n} at={at}");
                assert_eq!(
                    packed.size_bytes(),
                    2 * n + 4 * n.div_ceil(BLOCK) + 4 * n.div_ceil(BUCKET) + 8,
                    "n={n} at={at}"
                );
            }
        }
        // A short last block that is patches throughout: the padding's
        // patches are dropped with the padding.
        let mut entries = vec![(0, 1); BLOCK];
        entries.extend([(0, 0), (300, 1), (0, 8_000_000)]);
        let packed = pack(&entries);
        assert_eq!(packed.patches, [(0, 0), (300, 1), (0, 8_000_000)]);
    }

    #[test]
    fn a_bucket_holds_up_to_256_patches_and_the_next_starts_its_own_rank() {
        // Every entry of buckets 0 and 2 a patch, bucket 1 clean, bucket 3
        // patched once, inside the block run that crosses the seam at 768.
        let n = 3 * BUCKET + 40;
        let mut entries: Vec<WideEntry> = (0..n).map(|i| (i as i32, 1)).collect();
        for i in (0..BUCKET).chain(2 * BUCKET..3 * BUCKET) {
            entries[i].1 = 8_000_000 + i as u32;
        }
        entries[3 * BUCKET + 2].1 = 9_999_999;
        let packed = pack(&entries);
        assert_eq!(packed.patches(), 2 * BUCKET + 1);
        assert_eq!(packed.dir, [0, 256, 256, 512]);
        assert_eq!(packed.entries[BUCKET - 1], (255, 0));
        assert_eq!(packed.entries[2 * BUCKET], (0, 0));
        assert_eq!(packed.entries[3 * BUCKET - 1], (255, 0));
        assert_eq!(packed.entries[3 * BUCKET + 2], (0, 0));
        // Buckets behind the last patch start at the end of the list.
        entries.extend(vec![(0, 1); 2 * BUCKET]);
        assert_eq!(pack(&entries).dir, [0, 256, 256, 512, 513, 513]);
    }

    #[test]
    fn bases_reach_both_ends_of_i32() {
        let entries = [(i32::MIN, 1), (i32::MIN + 255, 2), (i32::MIN + 256, 3)];
        let packed = pack(&entries);
        assert_eq!(packed.bases, [i32::MIN]);
        assert_eq!(packed.patches, [(i32::MIN + 256, 3)]);
        let entries = [(i32::MAX, 1), (i32::MAX - 255, 2)];
        assert_eq!(pack(&entries).patches(), 0);
        // A block spanning the whole of `i32`: the offset is taken without
        // overflow, and does not fit.
        let entries = [(i32::MIN, 1), (i32::MAX, 1), (-1, 1)];
        assert_eq!(pack(&entries).patches, [(i32::MAX, 1), (-1, 1)]);
        // The extremes a layer over `MAX_KEYS` keys can hold come back
        // as they are.
        let max = crate::entry::MAX_KEYS;
        let entries = [
            (i32::MAX, u32::MAX),
            (i32::MIN, 0),
            (-(max as i32), max as u32),
        ];
        assert_eq!(pack(&entries).patches(), 3);
    }
}
