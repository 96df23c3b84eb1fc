//! Shift-Table entry representation and the storage tiers of the range layer.
//!
//! One entry per possible model prediction: the signed drift `Δ` and the
//! local-search window length `C`. The paper observes (§3.9) that the entry
//! width can follow the model's error, so the layer is stored in the
//! smallest of three tiers its finished entries fit — a pure function of
//! the entries, no knob:
//!
//! | tier     | entry                                   | bytes | chosen when                                                                    |
//! |----------|-----------------------------------------|-------|--------------------------------------------------------------------------------|
//! | narrow   | `(i16, u16)`                            | 4     | every `Δ` fits `i16` and every `C` fits `u16`                                  |
//! | relative | `(u16, u16)` + one `i32` base per block | 4.5   | otherwise, if every `C` fits `u16` and every block's `max Δ − min Δ` fits `u16` |
//! | wide     | `(i32, u32)`                            | 8     | otherwise                                                                      |
//!
//! The relative tier rests on the paper's own premise: the drift of a model
//! is *locally* smooth even where it is globally large, so a block of
//! neighbouring entries needs 16 bits once it carries its own base (the
//! block's minimum `Δ`). A block is `BLOCK = 8` aligned entries: their
//! 32 bytes are half a cache line, the base costs half a byte per entry,
//! and eight neighbours keep the spread a block must fit small (on the
//! amzn64 IM layer, where `Δ` reaches 2.5 M, no block spreads past 43 k).
//! Doubling the block would save another quarter byte per entry and double
//! the stretch of drift one base has to cover. A lookup reads the base and
//! the entry — two arrays, the first a sixteenth the size of the second.
//!
//! Entries reach their tier through `EntryStorage::push_block`, the one
//! place that knows the encodings: the run-boundary builder streams blocks
//! through a `TierEncoder`, which starts narrow and re-encodes what it
//! holds at most once per tier when a block does not fit; the scatter
//! builder finishes a whole `(i32, u32)` array and hands it over with its
//! `EntryExtent`, which names the tier up front ([`crate::build`]). A
//! layer over `N` keys has `|Δ| < N` and `C ≤ N`, so up to
//! [`ShiftTable::MAX_KEYS`](crate::ShiftTable::MAX_KEYS) keys the wide tier
//! never truncates.

/// The most keys a range-mode layer can cover: drifts and window lengths
/// are stored in at most 32 bits. Public as
/// [`ShiftTable::MAX_KEYS`](crate::ShiftTable::MAX_KEYS).
pub(crate) const MAX_KEYS: usize = i32::MAX as usize;

/// Entries per base of the relative tier (see the module docs).
pub(crate) const BLOCK: usize = 8;

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

/// The storage tier a range layer is served from — the smallest its
/// entries fit (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EntryTier {
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
    pub const ALL: [Self; 3] = [Self::Narrow, Self::Relative, Self::Wide];

    /// Lower-case name, as the store's metrics label it.
    pub fn name(self) -> &'static str {
        match self {
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

/// One aligned block of entries in the working layout. Where an array's
/// last block is short it is padded with copies of its last entry, which
/// moves none of the block's extremes.
pub(crate) type Block = [WideEntry; BLOCK];

/// The block starting `entries`, padded if they end inside it, and how many
/// of its entries are real.
#[inline]
fn first_block(entries: &[WideEntry]) -> (Block, usize) {
    let real = entries.len().min(BLOCK);
    let mut block = [entries[real - 1]; BLOCK];
    block[..real].copy_from_slice(&entries[..real]);
    (block, real)
}

/// `min Δ`, `max Δ` and `max C` of a block.
#[inline]
fn block_extremes(block: &Block) -> (i32, i32, u32) {
    block.iter().fold(
        (i32::MAX, i32::MIN, 0),
        |(min_delta, max_delta, max_count), &(delta, count)| {
            (
                min_delta.min(delta),
                max_delta.max(delta),
                max_count.max(count),
            )
        },
    )
}

/// The extremes of a finished entry array — all the tier choice needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct EntryExtent {
    min_delta: i32,
    max_delta: i32,
    max_count: u32,
    /// The largest `max Δ − min Δ` inside one aligned block.
    max_spread: u32,
}

impl EntryExtent {
    /// Widen the extent to cover one aligned block of finished entries —
    /// the first [`BLOCK`] of `block`, or all of a short one.
    #[inline]
    pub fn include_block(&mut self, block: &[WideEntry]) {
        self.include_extremes(block_extremes(&first_block(block).0));
    }

    /// [`EntryExtent::include_block`] for a caller that took the block's
    /// `min Δ`, `max Δ` and `max C` on its own way through it.
    #[inline]
    pub fn include_extremes(&mut self, (min_delta, max_delta, max_count): (i32, i32, u32)) {
        self.min_delta = self.min_delta.min(min_delta);
        self.max_delta = self.max_delta.max(max_delta);
        self.max_count = self.max_count.max(max_count);
        self.max_spread = self.max_spread.max(max_delta.abs_diff(min_delta));
    }

    /// Fold in the extent of another stretch of the same array. A block
    /// the two stretches share has to be included whole afterwards: each
    /// side saw only its part of the spread.
    pub fn merge(&mut self, other: Self) {
        self.min_delta = self.min_delta.min(other.min_delta);
        self.max_delta = self.max_delta.max(other.max_delta);
        self.max_count = self.max_count.max(other.max_count);
        self.max_spread = self.max_spread.max(other.max_spread);
    }

    /// The extent of a whole array, by one sweep — for layers that were
    /// written by hand rather than finished by a builder.
    #[cfg(test)]
    pub fn of(entries: &[WideEntry]) -> Self {
        let mut extent = Self::default();
        entries
            .chunks(BLOCK)
            .for_each(|block| extent.include_block(block));
        extent
    }

    /// The smallest tier an array with these extremes fits.
    pub fn tier(&self) -> EntryTier {
        let counts_fit = self.max_count <= u16::MAX as u32;
        if counts_fit && self.min_delta >= i16::MIN as i32 && self.max_delta <= i16::MAX as i32 {
            EntryTier::Narrow
        } else if counts_fit && self.max_spread <= u16::MAX as u32 {
            EntryTier::Relative
        } else {
            EntryTier::Wide
        }
    }
}

/// Packed storage for the entry array, in the tier chosen at build time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum EntryStorage {
    /// 4-byte entries: `(i16 delta, u16 count)` — used when every value fits.
    Narrow(Vec<(i16, u16)>),
    /// 4-byte entries `(u16 offset, u16 count)` plus the minimum `Δ` of
    /// every aligned block of [`BLOCK`]: `delta = bases[i / BLOCK] + offset`.
    Relative {
        /// One base per block, the last block possibly short.
        bases: Vec<i32>,
        /// One entry per prediction.
        entries: Vec<(u16, u16)>,
    },
    /// 8-byte entries: `(i32 delta, u32 count)`.
    Wide(Vec<WideEntry>),
}

impl EntryStorage {
    /// An empty array of `tier` with room for `n` entries.
    pub fn with_capacity(tier: EntryTier, n: usize) -> Self {
        match tier {
            EntryTier::Narrow => Self::Narrow(Vec::with_capacity(n)),
            EntryTier::Relative => Self::Relative {
                bases: Vec::with_capacity(n.div_ceil(BLOCK)),
                entries: Vec::with_capacity(n),
            },
            EntryTier::Wide => Self::Wide(Vec::with_capacity(n)),
        }
    }

    /// Append one aligned block if this tier can hold it losslessly;
    /// `false` leaves the array untouched.
    #[inline]
    pub fn push_block(&mut self, block: &Block) -> bool {
        debug_assert!(self.len().is_multiple_of(BLOCK), "blocks are aligned");
        let (min_delta, max_delta, max_count) = block_extremes(block);
        let counts_fit = max_count <= u16::MAX as u32;
        match self {
            Self::Narrow(entries) => {
                let fits =
                    counts_fit && min_delta >= i16::MIN as i32 && max_delta <= i16::MAX as i32;
                if fits {
                    entries.extend_from_slice(&block.map(|(d, c)| (d as i16, c as u16)));
                }
                fits
            }
            Self::Relative { bases, entries } => {
                let fits = counts_fit && max_delta.abs_diff(min_delta) <= u16::MAX as u32;
                if fits {
                    bases.push(min_delta);
                    // `d - min_delta` is the block's spread at most.
                    entries
                        .extend_from_slice(&block.map(|(d, c)| ((d - min_delta) as u16, c as u16)));
                }
                fits
            }
            Self::Wide(entries) => {
                entries.extend_from_slice(block);
                true
            }
        }
    }

    /// Drop the padding behind the last block: keep `len` entries, which
    /// must end inside the last block stored.
    fn truncate(&mut self, len: usize) {
        debug_assert_eq!(len.div_ceil(BLOCK), self.len().div_ceil(BLOCK));
        match self {
            Self::Narrow(entries) => entries.truncate(len),
            Self::Relative { entries, .. } => entries.truncate(len),
            Self::Wide(entries) => entries.truncate(len),
        }
    }

    /// Store a finished working array whose extremes are `extent` in the
    /// smallest tier it fits: kept as it is (wide), or re-encoded in one
    /// pass.
    pub fn from_wide(entries: Vec<WideEntry>, extent: EntryExtent) -> Self {
        match extent.tier() {
            // Nothing in a narrow entry depends on its block: one sweep
            // the compiler vectorises, half the time of the block encoder.
            EntryTier::Narrow => {
                Self::Narrow(entries.iter().map(|&(d, c)| (d as i16, c as u16)).collect())
            }
            EntryTier::Relative => {
                let mut encoder = TierEncoder::new(EntryTier::Relative, entries.len());
                encoder.extend(&entries);
                debug_assert_eq!(encoder.storage.tier(), EntryTier::Relative);
                encoder.finish()
            }
            EntryTier::Wide => Self::Wide(entries),
        }
    }

    /// The tier the array is stored in.
    #[inline]
    pub fn tier(&self) -> EntryTier {
        match self {
            Self::Narrow(_) => EntryTier::Narrow,
            Self::Relative { .. } => EntryTier::Relative,
            Self::Wide(_) => EntryTier::Wide,
        }
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            Self::Narrow(v) => v.len(),
            Self::Relative { entries, .. } => entries.len(),
            Self::Wide(v) => v.len(),
        }
    }

    /// True if there are no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The whole block `index` in the working layout.
    fn block(&self, index: usize) -> Block {
        let entries = index * BLOCK..(index + 1) * BLOCK;
        match self {
            Self::Narrow(v) => std::array::from_fn(|k| {
                (v[entries.start + k].0 as i32, v[entries.start + k].1 as u32)
            }),
            Self::Relative { bases, entries: v } => {
                let (base, v) = (bases[index], &v[entries]);
                std::array::from_fn(|k| (base + v[k].0 as i32, v[k].1 as u32))
            }
            Self::Wide(v) => std::array::from_fn(|k| v[entries.start + k]),
        }
    }

    /// Fetch an entry. One array access (and, in the relative tier, one
    /// more into the sixteen times smaller base array) — this is the
    /// "single memory lookup" the paper's layer costs.
    #[inline]
    pub fn get(&self, i: usize) -> ShiftEntry {
        match self {
            Self::Narrow(v) => {
                let (d, c) = v[i];
                ShiftEntry::new(d as i64, c as u64)
            }
            Self::Relative { bases, entries } => {
                let (offset, c) = entries[i];
                ShiftEntry::new(bases[i / BLOCK] as i64 + offset as i64, c as u64)
            }
            Self::Wide(v) => {
                let (d, c) = v[i];
                ShiftEntry::new(d as i64, c as u64)
            }
        }
    }

    /// Size of the packed array in bytes.
    #[inline]
    pub fn size_bytes(&self) -> usize {
        match self {
            Self::Narrow(v) => std::mem::size_of_val(v.as_slice()),
            Self::Relative { bases, entries } => {
                std::mem::size_of_val(bases.as_slice()) + std::mem::size_of_val(entries.as_slice())
            }
            Self::Wide(v) => std::mem::size_of_val(v.as_slice()),
        }
    }
}

/// Streams finished entries, strictly left to right, into the smallest
/// tier they fit without knowing it in advance: a block the current tier
/// cannot hold re-encodes what has been stored so far into the next tier —
/// once per tier at most, so starting narrow a build pays for at most two
/// re-encodings of a prefix of the array.
pub(crate) struct TierEncoder {
    storage: EntryStorage,
    /// Capacity to give a wider array: the entries the caller announced.
    n: usize,
}

impl TierEncoder {
    /// Entries the narrow array starts with room for; it grows as it fills.
    const NARROW_START: usize = 4096;

    /// An encoder for `n` entries that tries `tier` first.
    ///
    /// A first try at the narrow tier reserves little: a layer that drifts
    /// past `i16` at all mostly does so within its first few thousand
    /// entries, and reserving `n` entries for it would map a region the
    /// size of the layer only to unmap it again (which glibc answers by
    /// raising its mmap threshold to that size for the rest of the
    /// process). A layer that stays narrow pays a few doublings instead,
    /// still well below the scatter builder's time at every size measured.
    pub fn new(tier: EntryTier, n: usize) -> Self {
        let room = match tier {
            EntryTier::Narrow => n.min(Self::NARROW_START),
            EntryTier::Relative | EntryTier::Wide => n,
        };
        Self {
            storage: EntryStorage::with_capacity(tier, room),
            n,
        }
    }

    /// Append the next entries: whole blocks, except in the last call.
    pub fn extend(&mut self, entries: &[WideEntry]) {
        let (blocks, last) = entries.as_chunks::<BLOCK>();
        for block in blocks {
            self.push_block(block);
        }
        if !last.is_empty() {
            let (block, real) = first_block(last);
            self.push_block(&block);
            self.storage.truncate(self.storage.len() - (BLOCK - real));
        }
    }

    /// Store one block, widening the array first if it has to.
    #[inline]
    fn push_block(&mut self, block: &Block) {
        while !self.storage.push_block(block) {
            self.widen();
        }
    }

    /// Re-encode the array in the next tier.
    #[cold]
    fn widen(&mut self) {
        let wider = match self.storage.tier() {
            EntryTier::Narrow => EntryTier::Relative,
            EntryTier::Relative | EntryTier::Wide => EntryTier::Wide,
        };
        let mut wider = EntryStorage::with_capacity(wider, self.n);
        // Only whole blocks are stored while the encoder is still fed.
        for index in 0..self.storage.len() / BLOCK {
            // A block that fitted a smaller tier fits every larger one.
            let fits = wider.push_block(&self.storage.block(index));
            debug_assert!(fits);
        }
        self.storage = wider;
    }

    /// The finished array.
    pub fn finish(mut self) -> EntryStorage {
        if let EntryStorage::Narrow(entries) = &mut self.storage {
            // Grown by doubling: give the surplus back.
            entries.shrink_to_fit();
        }
        self.storage
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

    fn pack(entries: &[WideEntry]) -> EntryStorage {
        let packed = EntryStorage::from_wide(entries.to_vec(), EntryExtent::of(entries));
        // The streaming encoder reaches the same array without the extent.
        // ... however the whole blocks are portioned out.
        for blocks_per_call in [1, 3, usize::MAX / BLOCK] {
            let mut encoder = TierEncoder::new(EntryTier::Narrow, entries.len());
            entries
                .chunks(blocks_per_call * BLOCK)
                .for_each(|portion| encoder.extend(portion));
            assert_eq!(encoder.finish(), packed, "{entries:?}");
        }
        packed
    }

    fn assert_round_trips(packed: &EntryStorage, entries: &[WideEntry]) {
        assert_eq!(packed.len(), entries.len());
        for (i, &(d, c)) in entries.iter().enumerate() {
            assert_eq!(packed.get(i), ShiftEntry::new(d as i64, c as u64));
        }
    }

    #[test]
    fn the_three_tiers_are_four_four_and_a_half_and_eight_bytes() {
        assert_eq!(std::mem::size_of::<(i16, u16)>(), 4);
        assert_eq!(std::mem::size_of::<(u16, u16)>(), 4);
        // One `i32` base per block: half a byte per entry.
        assert_eq!(2 * std::mem::size_of::<i32>(), BLOCK);
        assert_eq!(std::mem::size_of::<WideEntry>(), 8);
        // 64 entries with one far drift: 64 * 4 + 8 * 4 bytes.
        let mut entries = vec![(100_000, 1); 64];
        assert_eq!(pack(&entries).size_bytes(), 288);
        entries[3].1 = 70_000;
        assert_eq!(pack(&entries).size_bytes(), 512);
        assert_eq!(pack(&[(1, 1); 64]).size_bytes(), 256);
    }

    #[test]
    fn narrow_encoding_is_chosen_when_lossless() {
        let entries = [(-41, 2), (14, 1), (0, 65_535)];
        let packed = pack(&entries);
        assert_eq!(packed.tier(), EntryTier::Narrow);
        assert_eq!(packed.size_bytes(), 3 * 4);
        assert_round_trips(&packed, &entries);
    }

    #[test]
    fn a_narrow_fitting_array_still_packs_narrow_byte_for_byte() {
        // Spreads, signs and block fill the relative tier would also take:
        // narrow wins whenever it fits, and holds the values themselves —
        // also once the streamed array has outgrown its first reservation.
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
        assert_round_trips(&packed, &entries);
    }

    #[test]
    fn narrow_tier_boundaries() {
        let at_edge = [(i16::MAX as i32, u16::MAX as u32), (i16::MIN as i32, 0)];
        let packed = pack(&at_edge);
        assert_eq!(packed.tier(), EntryTier::Narrow);
        assert_round_trips(&packed, &at_edge);

        // One past any of the three edges tips the whole array out of the
        // narrow tier — next to both `i16` extremes the block then spreads
        // past `u16` as well, so these land wide.
        for over in [
            (i16::MAX as i32 + 1, 1),
            (i16::MIN as i32 - 1, 1),
            (0, u16::MAX as u32 + 1),
        ] {
            let entries = [at_edge[0], over, at_edge[1]];
            let packed = pack(&entries);
            assert_eq!(packed.tier(), EntryTier::Wide, "{over:?}");
            assert_round_trips(&packed, &entries);
        }
        // Past one edge only, the array is relative.
        let entries = [(i16::MAX as i32 + 1, 1), (0, u16::MAX as u32)];
        let packed = pack(&entries);
        assert_eq!(packed.tier(), EntryTier::Relative);
        assert_round_trips(&packed, &entries);
    }

    #[test]
    fn relative_tier_boundaries() {
        // A block may spread 65 535 and a count may reach 65 535 ...
        let far = 5_000_000;
        let mut entries = vec![(far, 1); 3 * BLOCK];
        entries[BLOCK + 2].0 = far + 65_535;
        entries[BLOCK + 5].1 = 65_535;
        let packed = pack(&entries);
        assert_eq!(packed.tier(), EntryTier::Relative);
        assert_round_trips(&packed, &entries);
        match &packed {
            EntryStorage::Relative { bases, entries } => {
                assert_eq!(bases, &[far; 3]);
                assert_eq!(entries[BLOCK + 2], (65_535, 1));
            }
            other => panic!("{other:?}"),
        }
        // ... one more of either tips the whole array wide.
        let mut spread = entries.clone();
        spread[BLOCK + 2].0 += 1;
        let mut count = entries.clone();
        count[BLOCK + 5].1 += 1;
        for entries in [spread, count] {
            let packed = pack(&entries);
            assert_eq!(packed.tier(), EntryTier::Wide);
            assert_round_trips(&packed, &entries);
        }
        // The spread is per aligned block: neighbours 65 536 apart on two
        // sides of a block boundary are fine.
        let mut entries = vec![(far, 1); 2 * BLOCK];
        entries[BLOCK..].fill((far + 65_536, 1));
        let packed = pack(&entries);
        assert_eq!(packed.tier(), EntryTier::Relative);
        assert_round_trips(&packed, &entries);
    }

    #[test]
    fn relative_tier_takes_negative_bases_and_a_short_last_block() {
        for n in [1, 7, 8, 9, 17] {
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
            assert_round_trips(&packed, &entries);
        }
        // The extremes of `i32` as bases, with offsets up to the edge.
        let entries = [
            (i32::MIN, 1),
            (i32::MIN + 65_535, 2),
            (i32::MIN + 1, 65_535),
        ];
        let packed = pack(&entries);
        assert_eq!(packed.tier(), EntryTier::Relative);
        assert_round_trips(&packed, &entries);
        let entries = [(i32::MAX, 1), (i32::MAX - 65_535, 2)];
        let packed = pack(&entries);
        assert_eq!(packed.tier(), EntryTier::Relative);
        assert_round_trips(&packed, &entries);
    }

    #[test]
    fn the_encoder_widens_at_most_once_per_tier_wherever_the_misfit_sits() {
        // A block too far for narrow — the first, one mid-array, the short
        // last one — and a count too long for relative before, inside or
        // after it.
        let n = 5 * BLOCK + 3;
        for far_block in [0, 2, 5] {
            for long_count_at in [None, Some(1), Some(2 * BLOCK + 4), Some(n - 2)] {
                let mut entries = vec![(7, 3); n];
                entries[far_block * BLOCK..n.min((far_block + 1) * BLOCK)].fill((1 << 20, 3));
                if let Some(at) = long_count_at {
                    entries[at].1 = 1 << 16;
                }
                let packed = pack(&entries);
                let expected = match long_count_at {
                    Some(_) => EntryTier::Wide,
                    None => EntryTier::Relative,
                };
                assert_eq!(packed.tier(), expected, "{far_block} {long_count_at:?}");
                assert_round_trips(&packed, &entries);
            }
        }
    }

    #[test]
    fn wide_tier_boundaries() {
        // The extremes a layer over MAX_KEYS keys can hold.
        let entries = [
            (i32::MAX, u32::MAX),
            (i32::MIN, 0),
            (-(MAX_KEYS as i32), MAX_KEYS as u32),
        ];
        let packed = pack(&entries);
        assert_eq!(packed.tier(), EntryTier::Wide);
        assert_round_trips(&packed, &entries);
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
