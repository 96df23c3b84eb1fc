//! Shift-Table entry representation and the storage tiers of the range layer.
//!
//! One entry per possible model prediction: the signed drift `Δ` and the
//! local-search window length `C`. The paper's case against big models —
//! parameters that miss the cache cost memory lookups — holds for the layer
//! itself, and it observes (§3.9) that the entry width can follow the
//! model's error. So the layer is stored in one of four tiers, a pure
//! function of its finished entries picked by cost in bytes, no knob:
//!
//! | tier     | entry                                             | bytes per entry   | loads per fetch                        | chosen when                                                                          |
//! |----------|---------------------------------------------------|-------------------|----------------------------------------|--------------------------------------------------------------------------------------|
//! | byte     | `(u8, u8)` + one `i32` base per block + patches   | 2.5 + 8 per patch | entry and base; a patch: entry → patch | its arrays, patches and directory included, take fewer bytes than the tier named below |
//! | narrow   | `(i16, u16)`                                      | 4                 | entry                                  | every `Δ` fits `i16` and every `C` fits `u16`                                        |
//! | relative | `(u16, u16)` + one `i32` base per block           | 4.5               | entry and base                         | otherwise, if every `C` is in `1..=u16::MAX` and every block's `max Δ − min Δ` fits `u16` |
//! | wide     | `(i32, u32)`                                      | 8                 | entry                                  | otherwise                                                                            |
//!
//! The block-relative tiers rest on the paper's own premise: the drift of a
//! model is *locally* smooth even where it is globally large, so a block of
//! neighbouring entries needs few bits once it carries its own base (the
//! block's minimum `Δ`). A block is `BLOCK = 8` aligned entries: the base
//! costs half a byte per entry, and eight neighbours keep the spread a
//! block must fit small (on the amzn64 IM layer, where `Δ` reaches 2.5 M,
//! no block spreads past 43 k, and all but 0.12 % of the entries sit within
//! 255 of their block's minimum with a window of at most 255 records).
//! Doubling the block would save another quarter byte per entry and double
//! the stretch of drift one base has to cover.
//!
//! Both are one implementation (the `packed` module) at two widths. In the
//! byte tier the rare entry that does not fit is a *patch*: stored in full
//! in a side array and addressed by slot — the entry's free offset byte is
//! its rank among the patches of its 256-entry bucket, one `u32` per bucket
//! is the bucket's first slot — so the layer's tier is no longer decided by
//! its single worst entry. 256 entries bound the rank to the one byte there
//! is. The relative tier is the `u16` width, chosen only where it needs no
//! patch, and so holds the plain `bases` and `entries` arrays. A long
//! pseudo-run copying one over-long count can make every entry of a layer
//! a patch (10.5 bytes each), which is why the byte tier is taken by
//! measured size and the other three stay as the ladder below it.
//!
//! Entries reach their tier through the `TierEncoder`: it packs the
//! blocks it is fed, strictly left to right, into the byte tier — the whole
//! layer reserved up front, a misfit entry one more patch, nothing stored
//! ever re-encoded — while keeping the extremes the ladder asks about, and
//! only a layer the byte tier turns out not to shrink is decoded into its
//! ladder tier at the end. The run-boundary builder streams its blocks
//! through it; the scatter builder finishes a whole `(i32, u32)` array and
//! hands it over ([`crate::build`]). A layer over `N` keys has `|Δ| < N`
//! and `C ≤ N`, so up to
//! [`ShiftTable::MAX_KEYS`](crate::ShiftTable::MAX_KEYS) keys the wide tier
//! never truncates.

use crate::packed::{Extremes, Packed, BLOCK};

/// The most keys a range-mode layer can cover: drifts and window lengths
/// are stored in at most 32 bits. Public as
/// [`ShiftTable::MAX_KEYS`](crate::ShiftTable::MAX_KEYS).
pub(crate) const MAX_KEYS: usize = i32::MAX as usize;

/// A single correction entry: the drift of the first key of the partition and
/// the length of the local-search window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShiftEntry {
    /// Signed drift `Δ_k`: how many records ahead (+) or behind (−) the
    /// partition's first key is relative to the prediction.
    pub delta: i64,
    /// Window length `C_k`: how many records the local search must cover.
    pub count: u64,
}

impl ShiftEntry {
    /// Create an entry.
    #[inline]
    pub fn new(delta: i64, count: u64) -> Self {
        Self { delta, count }
    }
}

/// The storage tier a range layer is served from — the smallest encoding
/// of its entries (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EntryTier {
    /// `(u8, u8)` entries relative to one `i32` base per block of 8, the
    /// entries that do not fit in a slot-addressed patch list: 2.5 bytes
    /// each, 8 more per patch.
    Byte,
    /// `(i16, u16)` entries, 4 bytes each.
    Narrow,
    /// `(u16, u16)` entries relative to one `i32` base per block of 8,
    /// 4.5 bytes each.
    Relative,
    /// `(i32, u32)` entries, 8 bytes each.
    Wide,
}

impl EntryTier {
    /// Every tier, smallest first.
    pub const ALL: [Self; 4] = [Self::Byte, Self::Narrow, Self::Relative, Self::Wide];

    /// Lower-case name, as the store's metrics label it.
    pub fn name(self) -> &'static str {
        match self {
            Self::Byte => "byte",
            Self::Narrow => "narrow",
            Self::Relative => "relative",
            Self::Wide => "wide",
        }
    }
}

impl std::fmt::Display for EntryTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// `(Δ, C)` in the 8-byte layout the builders work in and the wide tier is
/// served from.
pub(crate) type WideEntry = (i32, u32);

/// The extremes of the entries seen so far — all the ladder below the byte
/// tier asks about.
#[derive(Debug, Clone, Copy)]
struct EntryExtent {
    min_delta: i32,
    max_delta: i32,
    min_count: u32,
    max_count: u32,
    /// The largest `max Δ − min Δ` inside one aligned block.
    max_spread: u32,
}

impl EntryExtent {
    /// The extent of no entry at all (which packs narrow).
    const EMPTY: Self = Self {
        min_delta: 0,
        max_delta: 0,
        min_count: u32::MAX,
        max_count: 0,
        max_spread: 0,
    };

    /// Widen the extent to cover one more aligned block.
    #[inline]
    fn include(&mut self, (min_delta, max_delta, min_count, max_count): Extremes) {
        self.min_delta = self.min_delta.min(min_delta);
        self.max_delta = self.max_delta.max(max_delta);
        self.min_count = self.min_count.min(min_count);
        self.max_count = self.max_count.max(max_count);
        self.max_spread = self.max_spread.max(max_delta.abs_diff(min_delta));
    }

    /// The smallest of the three plain tiers an array with these extremes
    /// fits, and the bytes `n` entries take in it.
    fn ladder(&self, n: usize) -> (EntryTier, usize) {
        let counts_fit = self.max_count <= u16::MAX as u32;
        if counts_fit && self.min_delta >= i16::MIN as i32 && self.max_delta <= i16::MAX as i32 {
            (EntryTier::Narrow, 4 * n)
        } else if counts_fit && self.min_count >= 1 && self.max_spread <= u16::MAX as u32 {
            (EntryTier::Relative, 4 * n + 4 * n.div_ceil(BLOCK))
        } else {
            (EntryTier::Wide, 8 * n)
        }
    }
}

/// Packed storage for the entry array, in the tier chosen at build time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum EntryStorage {
    /// 2-byte entries `(u8 offset, u8 count)`, the minimum `Δ` of every
    /// aligned block of [`BLOCK`], and the patch list.
    Byte(Packed<u8>),
    /// 4-byte entries: `(i16 delta, u16 count)` — used when every value fits.
    Narrow(Vec<(i16, u16)>),
    /// 4-byte entries `(u16 offset, u16 count)` plus the minimum `Δ` of
    /// every aligned block: the same layout one width up, without a patch.
    Relative(Packed<u16>),
    /// 8-byte entries: `(i32 delta, u32 count)`.
    Wide(Vec<WideEntry>),
}

impl EntryStorage {
    /// Store a finished working array in the smallest encoding of it.
    pub fn from_wide(entries: &[WideEntry]) -> Self {
        let mut encoder = TierEncoder::new(entries.len());
        encoder.extend(entries);
        encoder.finish()
    }

    /// The tier the array is stored in.
    #[inline]
    pub fn tier(&self) -> EntryTier {
        match self {
            Self::Byte(_) => EntryTier::Byte,
            Self::Narrow(_) => EntryTier::Narrow,
            Self::Relative(_) => EntryTier::Relative,
            Self::Wide(_) => EntryTier::Wide,
        }
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            Self::Byte(packed) => packed.len(),
            Self::Narrow(v) => v.len(),
            Self::Relative(packed) => packed.len(),
            Self::Wide(v) => v.len(),
        }
    }

    /// True if there are no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of entries served from a patch list.
    pub fn patches(&self) -> usize {
        match self {
            Self::Byte(packed) => packed.patches(),
            Self::Relative(packed) => packed.patches(),
            Self::Narrow(_) | Self::Wide(_) => 0,
        }
    }

    /// Fetch an entry. One array access, in the block-relative tiers one
    /// more into the base array (a sixteenth of the relative entries, a
    /// quarter of the byte ones) or, for a patch, into the patch list —
    /// this is the "single memory lookup" the paper's layer costs.
    #[inline(always)]
    pub fn get(&self, i: usize) -> ShiftEntry {
        match self {
            Self::Byte(packed) => packed.get(i),
            Self::Narrow(v) => {
                let (d, c) = v[i];
                ShiftEntry::new(d as i64, c as u64)
            }
            Self::Relative(packed) => packed.get(i),
            Self::Wide(v) => {
                let (d, c) = v[i];
                ShiftEntry::new(d as i64, c as u64)
            }
        }
    }

    /// Size of the packed arrays in bytes.
    #[inline]
    pub fn size_bytes(&self) -> usize {
        match self {
            Self::Byte(packed) => packed.size_bytes(),
            Self::Narrow(v) => std::mem::size_of_val(v.as_slice()),
            Self::Relative(packed) => packed.size_bytes(),
            Self::Wide(v) => std::mem::size_of_val(v.as_slice()),
        }
    }
}

/// Streams finished entries, strictly left to right, into the smallest
/// encoding of them without knowing it in advance: everything is packed
/// into the byte tier as it arrives — a block that does not fit adds
/// patches, it re-encodes nothing — and `finish` keeps that
/// array unless the ladder tier the entries fit is no larger.
pub(crate) struct TierEncoder {
    byte: Packed<u8>,
    extent: EntryExtent,
}

impl TierEncoder {
    /// An encoder for `n` entries, with the byte tier's arrays reserved.
    pub fn new(n: usize) -> Self {
        Self {
            byte: Packed::with_capacity(n),
            extent: EntryExtent::EMPTY,
        }
    }

    /// Append the next entries: whole blocks, except in the last call.
    #[inline]
    pub fn extend(&mut self, entries: &[WideEntry]) {
        let extent = &mut self.extent;
        self.byte
            .extend(entries, |extremes| extent.include(extremes));
    }

    /// The finished array.
    pub fn finish(self) -> EntryStorage {
        let Self { mut byte, extent } = self;
        byte.finish();
        let n = byte.len();
        let (tier, bytes) = extent.ladder(n);
        if byte.size_bytes() < bytes {
            return EntryStorage::Byte(byte);
        }
        // Rare: most of the layer's entries would be patches.
        let entries: Vec<WideEntry> = (0..n).map(|i| byte.wide(i)).collect();
        match tier {
            EntryTier::Narrow => {
                let narrow = entries.iter().map(|&(d, c)| (d as i16, c as u16));
                EntryStorage::Narrow(narrow.collect())
            }
            EntryTier::Relative => {
                let mut relative = Packed::with_capacity(n);
                relative.extend(&entries, |_| {});
                relative.finish();
                debug_assert_eq!(relative.patches(), 0, "the ladder names it patch-free");
                EntryStorage::Relative(relative)
            }
            // (The ladder does not name the byte tier.)
            EntryTier::Wide | EntryTier::Byte => EntryStorage::Wide(entries),
        }
    }
}

/// Packed storage for midpoint-only (`Δ̄`) tables.
#[derive(Debug, Clone)]
pub(crate) enum MidpointStorage {
    /// 2-byte entries.
    Narrow(Vec<i16>),
    /// 8-byte entries.
    Wide(Vec<i64>),
}

impl MidpointStorage {
    /// Pack midpoint drifts, choosing the narrowest lossless encoding.
    pub fn pack(deltas: &[i64]) -> Self {
        let narrow_ok = deltas
            .iter()
            .all(|&d| d >= i16::MIN as i64 && d <= i16::MAX as i64);
        if narrow_ok {
            Self::Narrow(deltas.iter().map(|&d| d as i16).collect())
        } else {
            Self::Wide(deltas.to_vec())
        }
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            Self::Narrow(v) => v.len(),
            Self::Wide(v) => v.len(),
        }
    }

    /// Fetch an entry.
    #[inline]
    pub fn get(&self, i: usize) -> i64 {
        match self {
            Self::Narrow(v) => v[i] as i64,
            Self::Wide(v) => v[i],
        }
    }

    /// Size of the packed array in bytes.
    #[inline]
    pub fn size_bytes(&self) -> usize {
        match self {
            Self::Narrow(v) => v.len() * 2,
            Self::Wide(v) => v.len() * 8,
        }
    }

    /// True if the narrow encoding was selected.
    #[inline]
    pub fn is_narrow(&self) -> bool {
        matches!(self, Self::Narrow(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packed::BUCKET;

    /// Pack `entries` and check what holds of every packed array: the
    /// streaming encoder reaches the same arrays however the whole blocks
    /// are portioned out, every fetch returns the wide reference, and the
    /// byte tier was taken exactly if it is smaller than the ladder's.
    fn pack(entries: &[WideEntry]) -> EntryStorage {
        let packed = EntryStorage::from_wide(entries);
        for blocks_per_call in [1, 3, usize::MAX / BLOCK] {
            let mut encoder = TierEncoder::new(entries.len());
            entries
                .chunks(blocks_per_call * BLOCK)
                .for_each(|portion| encoder.extend(portion));
            assert!(
                encoder.finish() == packed,
                "{blocks_per_call} blocks a call"
            );
        }
        assert_eq!(packed.len(), entries.len());
        for (i, &(d, c)) in entries.iter().enumerate() {
            assert_eq!(packed.get(i), ShiftEntry::new(d as i64, c as u64), "{i}");
        }
        let mut byte = Packed::<u8>::with_capacity(entries.len());
        let mut extent = EntryExtent::EMPTY;
        byte.extend(entries, |extremes| extent.include(extremes));
        byte.finish();
        let (ladder, ladder_bytes) = extent.ladder(entries.len());
        if byte.size_bytes() < ladder_bytes {
            assert_eq!(packed.tier(), EntryTier::Byte);
            assert_eq!(packed.size_bytes(), byte.size_bytes());
            assert_eq!(packed.patches(), byte.patches());
        } else {
            assert_eq!(packed.tier(), ladder);
            assert_eq!(packed.size_bytes(), ladder_bytes);
            assert_eq!(packed.patches(), 0);
        }
        packed
    }

    /// `n` entries at drift `base`, every `every`-th one 1 000 further:
    /// with `every` of 2, half of every block is out of a byte's reach.
    fn ragged(n: usize, base: i32, every: usize, count: u32) -> Vec<WideEntry> {
        (0..n)
            .map(|i| (base + 1_000 * (i % every == 1) as i32, count))
            .collect()
    }

    #[test]
    fn the_four_tiers_are_two_and_a_half_four_four_and_a_half_and_eight_bytes() {
        assert_eq!(std::mem::size_of::<(i16, u16)>(), 4);
        assert_eq!(std::mem::size_of::<WideEntry>(), 8);
        // 64 smooth entries: 64 * 2 + 8 * 4 bytes, however far they drift.
        assert_eq!(pack(&[(1, 1); 64]).size_bytes(), 160);
        assert_eq!(pack(&[(100_000, 1); 64]).size_bytes(), 160);
        // Half of every block 1 000 past its minimum: the byte tier would
        // patch 32 entries (164 + 32 * 8 bytes) and is not taken.
        let packed = pack(&ragged(64, 0, 2, 1));
        assert_eq!(
            (packed.tier(), packed.size_bytes()),
            (EntryTier::Narrow, 256)
        );
        let packed = pack(&ragged(64, 100_000, 2, 1));
        assert_eq!(
            (packed.tier(), packed.size_bytes()),
            (EntryTier::Relative, 288)
        );
        let packed = pack(&ragged(64, 100_000, 2, 70_000));
        assert_eq!((packed.tier(), packed.size_bytes()), (EntryTier::Wide, 512));
    }

    #[test]
    fn the_byte_tier_is_taken_exactly_when_it_is_smaller() {
        // 64 entries, `patched` of them with a window past a byte: the
        // byte tier takes 128 + 32 + 4 (one directory slot) + 8 a patch.
        let layer = |base: i32, patched: usize, long: u32| {
            let mut entries = vec![(base, 1); 64];
            entries[..patched].fill((base, 300));
            entries[0].1 = long;
            pack(&entries)
        };
        // Against narrow's 256 bytes the break-even is 11.5 patches,
        // against relative's 288 it is 15.5, against wide's 512, 43.5.
        for (base, long, ladder, last_smaller) in [
            (7, 300, EntryTier::Narrow, 11),
            (1 << 20, 300, EntryTier::Relative, 15),
            (1 << 20, 1 << 16, EntryTier::Wide, 43),
        ] {
            let packed = layer(base, last_smaller, long);
            assert_eq!(packed.tier(), EntryTier::Byte, "{ladder}");
            assert_eq!(packed.patches(), last_smaller);
            assert_eq!(packed.size_bytes(), 164 + 8 * last_smaller);
            let packed = layer(base, last_smaller + 1, long);
            assert_eq!(packed.tier(), ladder);
            assert_eq!(packed.patches(), 0);
        }
        // A tie goes to the ladder: two smooth entries are 8 bytes in
        // either encoding, three are 10 against 12.
        assert_eq!(pack(&[(5, 1); 2]).tier(), EntryTier::Narrow);
        assert_eq!(pack(&[(5, 1); 3]).tier(), EntryTier::Byte);
    }

    #[test]
    fn byte_tier_sizes_at_the_small_lengths() {
        for n in [1usize, 7, 8, 9, 255, 256, 257] {
            let entries: Vec<WideEntry> = (0..n)
                .map(|i| (2_000_000 - 3 * i as i32, 1 + (i % 255) as u32))
                .collect();
            let packed = pack(&entries);
            // One far entry is smaller as `(u8, u8)` + base than as
            // `(u16, u16)` + base, and every longer array more so.
            assert_eq!(packed.tier(), EntryTier::Byte, "n={n}");
            assert_eq!(packed.size_bytes(), 2 * n + 4 * n.div_ceil(BLOCK), "n={n}");
            assert_eq!(packed.patches(), 0);
        }
    }

    #[test]
    fn narrow_encoding_is_chosen_when_lossless() {
        let entries = [(-41, 2), (14, 1), (0, 65_535)];
        let packed = pack(&entries);
        assert_eq!(packed.tier(), EntryTier::Narrow);
        assert_eq!(packed.size_bytes(), 3 * 4);
    }

    #[test]
    fn a_narrow_fitting_array_still_packs_narrow_byte_for_byte() {
        // Drifts 37 apart spread a block past a byte and nearly no window
        // fits one: the byte tier is no use, narrow wins whenever it fits,
        // and holds the values themselves.
        for n in [1, 7, 8, 9, 64, 1_000, 10_000] {
            let entries: Vec<WideEntry> = (0..n)
                .map(|i| ((i * 37 % 65_536) - 32_768, (i * 7919 % 65_536) as u32))
                .collect();
            let expected: Vec<(i16, u16)> =
                entries.iter().map(|&(d, c)| (d as i16, c as u16)).collect();
            assert_eq!(pack(&entries), EntryStorage::Narrow(expected), "n={n}");
        }
    }

    #[test]
    fn wide_encoding_is_chosen_when_values_overflow_narrow() {
        let entries = [(-28_000_000, 3), (5, 200_000)];
        let packed = pack(&entries);
        assert_eq!(packed.tier(), EntryTier::Wide);
        assert_eq!(packed.size_bytes(), 2 * 8);
    }

    #[test]
    fn narrow_tier_boundaries() {
        let at_edge = [(i16::MAX as i32, u16::MAX as u32), (i16::MIN as i32, 0)];
        assert_eq!(pack(&at_edge).tier(), EntryTier::Narrow);

        // One past any of the three edges tips the array out of the narrow
        // tier — next to both `i16` extremes the block then spreads past
        // `u16` as well, so these land wide.
        for over in [
            (i16::MAX as i32 + 1, 1),
            (i16::MIN as i32 - 1, 1),
            (0, u16::MAX as u32 + 1),
        ] {
            let entries = [at_edge[0], over, at_edge[1]];
            assert_eq!(pack(&entries).tier(), EntryTier::Wide, "{over:?}");
        }
        // Past one edge only, the array is relative.
        let entries = [(i16::MAX as i32 + 1, 1), (0, u16::MAX as u32)];
        assert_eq!(pack(&entries).tier(), EntryTier::Relative);
    }

    #[test]
    fn relative_tier_boundaries() {
        // A layer the byte tier cannot shrink (every window past a byte).
        // A block may spread 65 535 and a count may reach 65 535 ...
        let far = 5_000_000;
        let mut entries = ragged(3 * BLOCK, far, 2, 300);
        entries[BLOCK + 2].0 = far + 65_535;
        entries[BLOCK + 5].1 = 65_535;
        let packed = pack(&entries);
        assert_eq!(packed.tier(), EntryTier::Relative);
        // ... as the arrays the `u16` width of the packed layout holds:
        // bases and entries, no directory, no patch.
        let mut relative = Packed::<u16>::with_capacity(entries.len());
        relative.extend(&entries, |_| {});
        relative.finish();
        assert_eq!(relative.size_bytes(), 4 * 3 * BLOCK + 4 * 3);
        assert_eq!(packed, EntryStorage::Relative(relative));
        // One more of either tips the whole array wide, and so does an
        // empty window, the packed layout's escape.
        let mut spread = entries.clone();
        spread[BLOCK + 2].0 += 1;
        let mut count = entries.clone();
        count[BLOCK + 5].1 += 1;
        let mut empty = entries.clone();
        empty[1].1 = 0;
        for entries in [spread, count, empty] {
            assert_eq!(pack(&entries).tier(), EntryTier::Wide);
        }
        // The spread is per aligned block: neighbours 65 536 apart on two
        // sides of a block boundary are fine.
        let mut entries = ragged(2 * BLOCK, far, 2, 300);
        entries[BLOCK..].fill((far + 65_536, 300));
        assert_eq!(pack(&entries).tier(), EntryTier::Relative);
    }

    #[test]
    fn relative_tier_takes_negative_bases_and_a_short_last_block() {
        for n in [7, 8, 9, 17] {
            let entries: Vec<WideEntry> = (0..n)
                .map(|i| (-3_000_000 + 1_000 * i, 1 + i as u32))
                .collect();
            let packed = pack(&entries);
            assert_eq!(packed.tier(), EntryTier::Relative, "n={n}");
            assert_eq!(
                packed.size_bytes(),
                4 * n as usize + 4 * (n as usize).div_ceil(BLOCK),
                "n={n}"
            );
        }
        // The extremes of `i32` as bases, with offsets up to the edge.
        let entries = [
            (i32::MIN, 1),
            (i32::MIN + 65_535, 2),
            (i32::MIN + 1, 65_535),
        ];
        assert_eq!(pack(&entries).tier(), EntryTier::Relative);
        let entries = [(i32::MAX, 1), (i32::MAX - 65_535, 2)];
        assert_eq!(pack(&entries).tier(), EntryTier::Relative);
    }

    #[test]
    fn the_encoder_patches_a_misfit_wherever_it_sits() {
        // A block too far for `i16` — the first, one mid-array, the short
        // last one — and a window too long for `u16` before, inside or
        // after it: what used to tip a whole layer into the next tier is
        // one patch, or none at all.
        let n = 5 * BLOCK + 3;
        for far_block in [0, 2, 5] {
            for long_count_at in [None, Some(1), Some(2 * BLOCK + 4), Some(n - 2)] {
                let mut entries = vec![(7, 3); n];
                entries[far_block * BLOCK..n.min((far_block + 1) * BLOCK)].fill((1 << 20, 3));
                if let Some(at) = long_count_at {
                    entries[at].1 = 1 << 16;
                }
                let packed = pack(&entries);
                assert_eq!(
                    packed.tier(),
                    EntryTier::Byte,
                    "{far_block} {long_count_at:?}"
                );
                assert_eq!(packed.patches(), long_count_at.iter().count());
                assert_eq!(
                    packed.size_bytes(),
                    2 * n + 4 * n.div_ceil(BLOCK) + 12 * packed.patches()
                );
            }
        }
        // 256 patches in one bucket, and a patch either side of the seam
        // between two buckets.
        let mut entries = vec![(-9, 2); 8 * BUCKET + 5];
        entries[BUCKET..2 * BUCKET].fill((-9, 256));
        entries[BUCKET - 1].0 = -9 + 256;
        entries[2 * BUCKET].0 = -9 - 256;
        let packed = pack(&entries);
        assert_eq!(packed.tier(), EntryTier::Byte);
        // The low outlier at the head of bucket 2 is its block's base: the
        // block's other seven are patched in its place.
        assert_eq!(packed.patches(), 1 + BUCKET + 7);
    }

    #[test]
    fn an_all_patch_layer_falls_back_to_wide() {
        // Every partition a pseudo-entry of one window past `u16`: 10.5
        // bytes an entry in the byte tier, 8 as they are.
        let n = 70_000;
        let entries: Vec<WideEntry> = (0..n).map(|k| (-k, n as u32)).collect();
        let packed = pack(&entries);
        assert_eq!(packed.tier(), EntryTier::Wide);
        assert_eq!(packed.size_bytes(), 8 * n as usize);
    }

    #[test]
    fn wide_tier_boundaries() {
        // The extremes a layer over MAX_KEYS keys can hold.
        let entries = [
            (i32::MAX, u32::MAX),
            (i32::MIN, 0),
            (-(MAX_KEYS as i32), MAX_KEYS as u32),
        ];
        assert_eq!(pack(&entries).tier(), EntryTier::Wide);
    }

    #[test]
    fn midpoint_storage_roundtrips() {
        let small = vec![-3i64, 0, 12, 32_000];
        let packed = MidpointStorage::pack(&small);
        assert!(packed.is_narrow());
        assert_eq!(packed.size_bytes(), 8);
        for (i, &d) in small.iter().enumerate() {
            assert_eq!(packed.get(i), d);
        }

        let big = vec![1i64, -40_000_000];
        let packed = MidpointStorage::pack(&big);
        assert!(!packed.is_narrow());
        assert_eq!(packed.get(1), -40_000_000);
        assert_eq!(packed.len(), 2);
    }

    #[test]
    fn empty_storage() {
        let packed = pack(&[]);
        assert!(packed.is_empty());
        assert_eq!(packed.tier(), EntryTier::Narrow);
        assert_eq!(packed.size_bytes(), 0);
    }
}
