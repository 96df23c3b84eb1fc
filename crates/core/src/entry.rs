//! Shift-Table entry representation and the narrow/wide storage encodings.
//!
//! One entry per possible model prediction: the signed drift `Δ` and the
//! local-search window length `C`. The paper observes (§3.9) that the entry
//! width can follow the model's maximum error, so the layer is stored in one
//! of two tiers chosen from the data:
//!
//! | tier   | entry        | bytes | chosen when                              |
//! |--------|--------------|-------|------------------------------------------|
//! | narrow | `(i16, u16)` | 4     | every `Δ` fits `i16` and every `C` `u16` |
//! | wide   | `(i32, u32)` | 8     | otherwise                                |
//!
//! The wide tier is also the layout the builders work in
//! ([`crate::build`]): a layer over `N` keys has `|Δ| < N` and `C ≤ N`, so
//! up to [`ShiftTable::MAX_KEYS`](crate::ShiftTable::MAX_KEYS) keys nothing
//! is ever truncated, a finished wide layer is served from the very array
//! it was built in, and a narrow one costs a single conversion pass —
//! decided in O(1) from the extremes the builder's backward pass tracked.

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

/// `(Δ, C)` in the 8-byte layout the builders work in and the wide tier is
/// served from.
pub(crate) type WideEntry = (i32, u32);

/// The extremes of a finished entry array — all the tier choice needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct EntryExtent {
    min_delta: i32,
    max_delta: i32,
    max_count: u32,
}

impl EntryExtent {
    /// Widen the extent to cover `entry`.
    #[inline]
    pub fn include(&mut self, (delta, count): WideEntry) {
        self.min_delta = self.min_delta.min(delta);
        self.max_delta = self.max_delta.max(delta);
        self.max_count = self.max_count.max(count);
    }

    /// The extent of a whole array, by one sweep — for layers that were
    /// written by hand rather than finished by the builder's backward pass.
    #[cfg(test)]
    pub fn of(entries: &[WideEntry]) -> Self {
        let mut extent = Self::default();
        entries.iter().for_each(|&e| extent.include(e));
        extent
    }

    fn fits_narrow(&self) -> bool {
        self.min_delta >= i16::MIN as i32
            && self.max_delta <= i16::MAX as i32
            && self.max_count <= u16::MAX as u32
    }
}

/// Packed storage for the entry array, chosen at build time.
#[derive(Debug, Clone)]
pub(crate) enum EntryStorage {
    /// 4-byte entries: `(i16 delta, u16 count)` — used when every value fits.
    Narrow(Vec<(i16, u16)>),
    /// 8-byte entries: `(i32 delta, u32 count)`.
    Wide(Vec<WideEntry>),
}

impl EntryStorage {
    /// Choose the narrowest lossless tier for a finished working array whose
    /// extremes are `extent`: kept as it is, or narrowed in one pass.
    pub fn from_wide(entries: Vec<WideEntry>, extent: EntryExtent) -> Self {
        if extent.fits_narrow() {
            Self::Narrow(entries.iter().map(|&(d, c)| (d as i16, c as u16)).collect())
        } else {
            Self::Wide(entries)
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

    /// True if there are no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fetch an entry. One array access — this is the "single memory lookup"
    /// the paper's layer costs.
    #[inline]
    pub fn get(&self, i: usize) -> ShiftEntry {
        match self {
            Self::Narrow(v) => {
                let (d, c) = v[i];
                ShiftEntry::new(d as i64, c as u64)
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
            Self::Wide(v) => std::mem::size_of_val(v.as_slice()),
        }
    }

    /// True if the narrow encoding was selected.
    #[inline]
    pub fn is_narrow(&self) -> bool {
        matches!(self, Self::Narrow(_))
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
        EntryStorage::from_wide(entries.to_vec(), EntryExtent::of(entries))
    }

    fn assert_round_trips(packed: &EntryStorage, entries: &[WideEntry]) {
        assert_eq!(packed.len(), entries.len());
        for (i, &(d, c)) in entries.iter().enumerate() {
            assert_eq!(packed.get(i), ShiftEntry::new(d as i64, c as u64));
        }
    }

    #[test]
    fn the_two_tiers_are_four_and_eight_bytes() {
        assert_eq!(std::mem::size_of::<(i16, u16)>(), 4);
        assert_eq!(std::mem::size_of::<WideEntry>(), 8);
    }

    #[test]
    fn narrow_encoding_is_chosen_when_lossless() {
        let entries = [(-41, 2), (14, 1), (0, 65_535)];
        let packed = pack(&entries);
        assert!(packed.is_narrow());
        assert_eq!(packed.size_bytes(), 3 * 4);
        assert_round_trips(&packed, &entries);
    }

    #[test]
    fn wide_encoding_is_chosen_when_values_overflow_narrow() {
        let entries = [(-28_000_000, 3), (5, 200_000)];
        let packed = pack(&entries);
        assert!(!packed.is_narrow());
        assert_eq!(packed.size_bytes(), 2 * 8);
        assert_round_trips(&packed, &entries);
    }

    #[test]
    fn narrow_tier_boundaries() {
        let at_edge = [(i16::MAX as i32, u16::MAX as u32), (i16::MIN as i32, 0)];
        let packed = pack(&at_edge);
        assert!(packed.is_narrow());
        assert_round_trips(&packed, &at_edge);

        // One past any of the three edges tips the whole array wide.
        for over in [
            (i16::MAX as i32 + 1, 1),
            (i16::MIN as i32 - 1, 1),
            (0, u16::MAX as u32 + 1),
        ] {
            let entries = [at_edge[0], over, at_edge[1]];
            let packed = pack(&entries);
            assert!(!packed.is_narrow(), "{over:?}");
            assert_round_trips(&packed, &entries);
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
        assert!(!packed.is_narrow());
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
        assert_eq!(packed.size_bytes(), 0);
    }
}
