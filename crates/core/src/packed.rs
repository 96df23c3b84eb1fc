//! The block-relative layout behind the byte and the relative tier: one
//! implementation, generic over the width of an entry's two fields.
//!
//! Per aligned block of [`BLOCK`] entries one `i32` base — the block's
//! minimum `Δ` — and per entry `(offset, count)` in `W` (`u8` or `u16`):
//! `Δ = base + offset`. An entry whose offset or count is past `W::MAX` is
//! a **patch**: its full `(i32, u32)` goes to a patch array, its count is
//! stored as 0 — the escape; a window built over keys holds at least one
//! record, so no real count is 0 (a hand-written one is patched too) — and
//! its free offset field holds its rank among the patches of its *bucket*
//! of [`BUCKET`] entries. One `u32` per bucket holds the bucket's first
//! patch slot, so a fetch is
//!
//! ```text
//! entries[i] + bases[i / 8]                  count != 0
//! patches[dir[i / 256] + entries[i].offset]  count == 0
//! ```
//!
//! — two dependent loads on the escape, no search and no scan. A bucket of
//! 256 is the largest whose rank always fits the narrowest offset field
//! (at most 255 patches precede the last entry of a bucket), and it keeps
//! the directory at 4 bytes per 256 entries. A layer without a patch keeps
//! neither array.
//!
//! Whether a fetch hits a patch is a property of the query, not of the
//! layer: long windows are the patched ones and they are where queries
//! between keys land (on the amzn64 IM layer 0.12 % of the entries are
//! patches and half of all gap queries fetch one, so the branch on the
//! escape is mispredicted every other fetch there). Reading the directory
//! and a patch slot on every fetch and selecting without a branch was
//! measured against it on the repository benchmark: better where patches
//! are fetched often (`static_wide` batch 6.0 against 5.8 Mkeys/s), worse
//! where they are rare (`static_narrow` lookups 286 against 259 ns, batch
//! 12.5 against 14.2 Mkeys/s) — the branch stays.

use crate::entry::{ShiftEntry, WideEntry};

/// Entries per base (see the [`crate::entry`] docs for the choice of 8).
pub(crate) const BLOCK: usize = 8;

/// Entries per directory slot: whole blocks, so a block never straddles
/// two buckets.
pub(crate) const BUCKET: usize = 256;

/// One aligned block of entries in the working layout.
type Block = [WideEntry; BLOCK];

/// `min Δ`, `max Δ`, `min C` and `max C` of a block.
pub(crate) type Extremes = (i32, i32, u32, u32);

#[inline]
fn block_extremes(block: &Block) -> Extremes {
    block.iter().fold(
        (i32::MAX, i32::MIN, u32::MAX, 0),
        |(min_delta, max_delta, min_count, max_count), &(delta, count)| {
            (
                min_delta.min(delta),
                max_delta.max(delta),
                min_count.min(count),
                max_count.max(count),
            )
        },
    )
}

/// The width of a packed entry's offset and count.
pub(crate) trait Width: Copy + Eq + std::fmt::Debug {
    /// The largest offset and count stored in place.
    const MAX: u32;
    /// `value`, which is at most [`Width::MAX`].
    fn narrow(value: u32) -> Self;
    fn widen(self) -> u32;
}

impl Width for u8 {
    const MAX: u32 = u8::MAX as u32;
    #[inline]
    fn narrow(value: u32) -> Self {
        value as u8
    }
    #[inline]
    fn widen(self) -> u32 {
        self as u32
    }
}

impl Width for u16 {
    const MAX: u32 = u16::MAX as u32;
    #[inline]
    fn narrow(value: u32) -> Self {
        value as u16
    }
    #[inline]
    fn widen(self) -> u32 {
        self as u32
    }
}

/// A block-relative entry array of width `W` with its patch list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Packed<W> {
    /// One base per block, the last block possibly short.
    bases: Vec<i32>,
    /// One `(offset, count)` per prediction; count 0 marks a patch, whose
    /// offset is its rank in its bucket.
    entries: Vec<(W, W)>,
    /// The first patch slot of every bucket (dropped by `finish` from a
    /// layer without a patch).
    dir: Vec<u32>,
    /// The patched entries in full, in entry order.
    patches: Vec<WideEntry>,
}

impl<W: Width> Packed<W> {
    /// An empty array with room for `n` entries (and no patch).
    pub fn with_capacity(n: usize) -> Self {
        Self {
            bases: Vec::with_capacity(n.div_ceil(BLOCK)),
            entries: Vec::with_capacity(n),
            dir: Vec::with_capacity(n.div_ceil(BUCKET)),
            patches: Vec::new(),
        }
    }

    /// Append one aligned block; its extremes come back for the caller
    /// that keeps the layer's.
    #[inline]
    fn push_block(&mut self, block: &Block) -> Extremes {
        debug_assert!(self.len().is_multiple_of(BLOCK), "blocks are aligned");
        if self.len().is_multiple_of(BUCKET) {
            self.dir.push(self.patches.len() as u32);
        }
        let extremes = block_extremes(block);
        let (base, max_delta, min_count, max_count) = extremes;
        self.bases.push(base);
        if max_delta.abs_diff(base) <= W::MAX && min_count >= 1 && max_count <= W::MAX {
            let packed = block.map(|(d, c)| (W::narrow(d.abs_diff(base)), W::narrow(c)));
            self.entries.extend_from_slice(&packed);
        } else {
            self.push_patched(block, base);
        }
        extremes
    }

    /// Append a block of which at least one entry does not fit `W`.
    #[cold]
    fn push_patched(&mut self, block: &Block, base: i32) {
        for &(delta, count) in block {
            let offset = delta.abs_diff(base);
            let fits = offset <= W::MAX && (1..=W::MAX).contains(&count);
            let packed = if fits {
                (W::narrow(offset), W::narrow(count))
            } else {
                let rank = self.patches.len() as u32 - self.dir[self.dir.len() - 1];
                self.patches.push((delta, count));
                (W::narrow(rank), W::narrow(0))
            };
            self.entries.push(packed);
        }
    }

    /// Append the array's last, short block: padded with copies of its
    /// last entry, which moves none of its extremes, and cut back.
    fn push_last(&mut self, entries: &[WideEntry]) -> Extremes {
        debug_assert!((1..BLOCK).contains(&entries.len()));
        let mut block = [entries[entries.len() - 1]; BLOCK];
        block[..entries.len()].copy_from_slice(entries);
        let extremes = self.push_block(&block);
        let len = self.entries.len() - (BLOCK - entries.len());
        // Padding that was patched sits at the end of the patch list.
        let padded_patches = self.entries[len..]
            .iter()
            .filter(|(_, count)| count.widen() == 0);
        self.patches
            .truncate(self.patches.len() - padded_patches.count());
        self.entries.truncate(len);
        extremes
    }

    /// Append `entries`: whole blocks, except at the end of the array.
    pub fn extend(&mut self, entries: &[WideEntry], mut each: impl FnMut(Extremes)) {
        let (blocks, last) = entries.as_chunks::<BLOCK>();
        for block in blocks {
            each(self.push_block(block));
        }
        if !last.is_empty() {
            each(self.push_last(last));
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

    /// Number of entries stored in the patch list.
    #[inline]
    pub fn patches(&self) -> usize {
        self.patches.len()
    }

    /// Entry `i` in the working layout. (Inlined always, as its callers
    /// up to `ShiftTable::correct` are: see there.)
    #[inline(always)]
    pub fn wide(&self, i: usize) -> WideEntry {
        let (offset, count) = self.entries[i];
        if count.widen() != 0 {
            // `base + offset` is a `Δ` that was an `i32` before packing.
            let base = self.bases[i / BLOCK];
            (base.wrapping_add_unsigned(offset.widen()), count.widen())
        } else {
            self.patches[self.dir[i / BUCKET] as usize + offset.widen() as usize]
        }
    }

    /// Fetch an entry.
    #[inline(always)]
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
mod tests {
    use super::*;

    fn pack<W: Width>(entries: &[WideEntry]) -> Packed<W> {
        let mut packed = Packed::<W>::with_capacity(entries.len());
        packed.extend(entries, |_| {});
        packed.finish();
        assert_eq!(packed.len(), entries.len());
        for (i, &entry) in entries.iter().enumerate() {
            assert_eq!(packed.wide(i), entry, "entry {i}");
            assert_eq!(
                packed.get(i),
                ShiftEntry::new(entry.0 as i64, entry.1 as u64)
            );
        }
        packed
    }

    #[test]
    fn an_entry_is_two_bytes_or_four_and_a_base_half_a_byte() {
        assert_eq!(std::mem::size_of::<(u8, u8)>(), 2);
        assert_eq!(std::mem::size_of::<(u16, u16)>(), 4);
        assert_eq!(2 * std::mem::size_of::<i32>(), BLOCK);
        assert_eq!(BUCKET % BLOCK, 0);
        // The last entry of a bucket has at most 255 patches before it.
        assert_eq!(BUCKET - 1, u8::MAX as usize);
        let entries = vec![(1_000_000, 1); 64];
        assert_eq!(pack::<u8>(&entries).size_bytes(), 64 * 2 + 8 * 4);
        assert_eq!(pack::<u16>(&entries).size_bytes(), 64 * 4 + 8 * 4);
    }

    #[test]
    fn offsets_and_counts_are_stored_in_place_up_to_the_width() {
        // Offset 255 and count 255 fit a byte; 256 of either is a patch,
        // and so is the escape value itself, a count of 0.
        let base = -7_000;
        let mut entries = vec![(base, 1); 3 * BLOCK];
        entries[BLOCK + 1] = (base + 255, 255);
        let packed = pack::<u8>(&entries);
        assert_eq!(packed.patches(), 0);
        assert!(packed.dir.is_empty());
        assert_eq!(packed.bases, [base; 3]);
        assert_eq!(packed.entries[BLOCK + 1], (255, 255));
        for (patched, patch) in [
            (BLOCK + 1, (base + 256, 255)),
            (BLOCK + 1, (base + 255, 256)),
            (BLOCK + 6, (base + 3, 0)),
        ] {
            let mut entries = entries.clone();
            entries[patched] = patch;
            let packed = pack::<u8>(&entries);
            assert_eq!(packed.patches, [patch]);
            assert_eq!(packed.dir, [0]);
            assert_eq!(packed.entries[patched], (0, 0));
            // Its neighbours stay in place, under the block's minimum.
            assert_eq!(packed.entries[BLOCK], (0, 1));
        }
        // The same edges one width up.
        let mut entries = vec![(base, 1); 2 * BLOCK];
        entries[3] = (base + 65_535, 65_535);
        assert_eq!(pack::<u16>(&entries).patches(), 0);
        assert_eq!(pack::<u8>(&entries).patches, [(base + 65_535, 65_535)]);
        entries[3].0 += 1;
        entries[12].1 = 65_536;
        assert_eq!(
            pack::<u16>(&entries).patches,
            [(base + 65_536, 65_535), (base, 65_536)]
        );
    }

    #[test]
    fn a_low_outlier_is_the_base_and_patches_its_block() {
        // The base is the block's minimum, patched or not: one entry far
        // below the rest pushes the other seven past a byte.
        let mut entries = vec![(500, 2); 2 * BLOCK];
        entries[2].0 = 100;
        let packed = pack::<u8>(&entries);
        assert_eq!(packed.bases, [100, 500]);
        assert_eq!(packed.patches(), 7);
        assert_eq!(packed.entries[2], (0, 2));
        assert_eq!(packed.entries[7], (6, 0));
    }

    #[test]
    fn patches_in_the_first_a_middle_and_the_short_last_block() {
        for n in [0usize, 1, 7, 8, 9, 255, 256, 257, 600] {
            let clean: Vec<WideEntry> = (0..n as i32).map(|i| (-i, 1 + i as u32 % 255)).collect();
            let packed = pack::<u8>(&clean);
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
                entries[at].1 = 100_000;
                let packed = pack::<u8>(&entries);
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
        entries.extend([(0, 300), (0, 301), (0, 302)]);
        let packed = pack::<u8>(&entries);
        assert_eq!(packed.patches, [(0, 300), (0, 301), (0, 302)]);
    }

    #[test]
    fn a_bucket_holds_up_to_256_patches_and_the_next_starts_its_own_rank() {
        // Every entry of buckets 0 and 2 a patch, bucket 1 clean, bucket 3
        // patched once, inside the block run that crosses the seam at 768.
        let n = 3 * BUCKET + 40;
        let mut entries: Vec<WideEntry> = (0..n).map(|i| (i as i32, 1)).collect();
        for i in (0..BUCKET).chain(2 * BUCKET..3 * BUCKET) {
            entries[i].1 = 1_000 + i as u32;
        }
        entries[3 * BUCKET + 2].1 = 9_999;
        let packed = pack::<u8>(&entries);
        assert_eq!(packed.patches(), 2 * BUCKET + 1);
        assert_eq!(packed.dir, [0, 256, 256, 512]);
        assert_eq!(packed.entries[BUCKET - 1], (255, 0));
        assert_eq!(packed.entries[2 * BUCKET], (0, 0));
        assert_eq!(packed.entries[3 * BUCKET - 1], (255, 0));
        assert_eq!(packed.entries[3 * BUCKET + 2], (0, 0));
        // Buckets behind the last patch start at the end of the list.
        entries.extend(vec![(0, 1); 2 * BUCKET]);
        assert_eq!(pack::<u8>(&entries).dir, [0, 256, 256, 512, 513, 513]);
    }

    #[test]
    fn bases_reach_both_ends_of_i32() {
        let entries = [(i32::MIN, 1), (i32::MIN + 255, 2), (i32::MIN + 256, 3)];
        let packed = pack::<u8>(&entries);
        assert_eq!(packed.bases, [i32::MIN]);
        assert_eq!(packed.patches, [(i32::MIN + 256, 3)]);
        let entries = [(i32::MAX, 1), (i32::MAX - 255, 2)];
        assert_eq!(pack::<u8>(&entries).patches(), 0);
        // A block spanning the whole of `i32`: the offset is taken without
        // overflow, and does not fit.
        let entries = [(i32::MIN, 1), (i32::MAX, 1), (-1, 1)];
        assert_eq!(pack::<u8>(&entries).patches, [(i32::MAX, 1), (-1, 1)]);
        assert_eq!(pack::<u16>(&entries).patches(), 2);
    }
}
