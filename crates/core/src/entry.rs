//! Shift-Table entry representation and how the range layer stores it.
//!
//! One entry per possible model prediction: the signed drift `Δ` and the
//! local-search window length `C`. The paper's case against big models —
//! parameters that miss the cache cost memory lookups — holds for the layer
//! itself, so every range layer is stored in one layout of 2.5 bytes an
//! entry, the same for every model and every key column (the `packed`
//! module has the arrays and the fetch):
//!
//! * **`Δ` is exact, and block-relative.** The drift of a model is
//!   *locally* smooth even where it is globally large — the paper's own
//!   premise — so an aligned block of 8 neighbouring entries carries one
//!   `i32` base, its minimum `Δ`, and each entry a `u8` offset from it (on
//!   the amzn64 IM layer, where `Δ` reaches 2.5 M, all but 0.1 % of the
//!   entries sit within 255 of their block's minimum). Doubling the block
//!   would save another quarter byte per entry and double the stretch of
//!   drift one base has to cover.
//! * **`C` is a `u8` code, rounded up.** Counts up to 127 are stored as
//!   they are, longer ones as the next of eight steps per octave, so a
//!   served window is at most an eighth longer than the exact one and
//!   reaches 7 864 320 records. In Algorithm 1 `C_k` only bounds the local
//!   search that starts at the exact `k + Δ_k` and is clamped to the
//!   column: a longer window is a superset, and every lower bound is the
//!   same. What [`ShiftTable::entries`](crate::ShiftTable::entries),
//!   `window_lengths` and `expected_error` report are these served counts.
//! * **The entry that does not fit is a patch**: an offset past 255, a
//!   window no code reaches, or a hand-written empty window is stored in
//!   full — `(i32, u32)`, exact — in a side array addressed by slot, at 8
//!   bytes more (and 4 per 256 entries for the slot directory, kept only
//!   by a layer with a patch).
//!
//! There is one layout and nothing to choose per layer: plain encodings
//! of 4 to 8 bytes an entry (`(i16, u16)` up to `(i32, u32)`) are smaller
//! for no layer of 14 key generators × 8 models × 4 sizes, only for a
//! layer of a single entry — 6 bytes here (an entry and its base), 4 as a
//! plain `(i16, u16)`.
//!
//! Both builders write the layout strictly left to right, block by block,
//! nothing stored ever re-encoded ([`crate::build`]). A layer over `N` keys
//! has `|Δ| < N` and `C ≤ N`, so up to
//! [`ShiftTable::MAX_KEYS`](crate::ShiftTable::MAX_KEYS) keys nothing
//! truncates.

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

/// `(Δ, C)` in the 8-byte layout the builders work in and a patch is
/// stored in.
pub(crate) type WideEntry = (i32, u32);

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
    use crate::packed::tests::pack;
    use crate::packed::{BLOCK, BUCKET};

    #[test]
    fn byte_tier_sizes_at_the_small_lengths() {
        for n in [1usize, 7, 8, 9, 255, 256, 257] {
            let entries: Vec<WideEntry> = (0..n)
                .map(|i| (2_000_000 - 3 * i as i32, 1 + (i % 255) as u32))
                .collect();
            let packed = pack(&entries);
            // Two bytes an entry and four a block of 8 — 6 bytes for a
            // layer of one entry.
            assert_eq!(packed.size_bytes(), 2 * n + 4 * n.div_ceil(BLOCK), "n={n}");
            assert_eq!(packed.patches(), 0);
        }
        assert_eq!(pack(&[(5, 1)]).size_bytes(), 6);
    }

    #[test]
    fn the_encoder_patches_a_misfit_wherever_it_sits() {
        // A block far from its neighbours — the first, one mid-array, the
        // short last one — costs nothing, it has its own base; a window past
        // `u16` before, inside or after it costs nothing, it has a code; a
        // window past the last code is one patch.
        let n = 5 * BLOCK + 3;
        for far_block in [0, 2, 5] {
            for (long, patches) in [(1 << 16, 0), (1 << 23, 1)] {
                for long_count_at in [1, 2 * BLOCK + 4, n - 2] {
                    let mut entries = vec![(7, 3); n];
                    entries[far_block * BLOCK..n.min((far_block + 1) * BLOCK)].fill((1 << 20, 3));
                    entries[long_count_at].1 = long;
                    let packed = pack(&entries);
                    assert_eq!(packed.patches(), patches, "{far_block} {long_count_at}");
                    assert_eq!(
                        packed.size_bytes(),
                        2 * n + 4 * n.div_ceil(BLOCK) + 12 * patches
                    );
                }
            }
        }
        // 256 patches in one bucket, and a patch either side of the seam
        // between two buckets.
        let mut entries = vec![(-9, 2); 8 * BUCKET + 5];
        entries[BUCKET..2 * BUCKET].fill((-9, 0));
        entries[BUCKET - 1].0 = -9 + 256;
        entries[2 * BUCKET].0 = -9 - 256;
        let packed = pack(&entries);
        // The low outlier at the head of bucket 2 is its block's base: the
        // block's other seven are patched in its place.
        assert_eq!(packed.patches(), 1 + BUCKET + 7);
    }

    #[test]
    fn an_all_long_window_layer_is_two_and_a_half_bytes_an_entry() {
        // Every partition a pseudo-entry of one window past `u16`: its
        // count has a code, so no entry is a patch.
        let n = 70_000;
        let entries: Vec<WideEntry> = (0..n).map(|k| (-k, n as u32)).collect();
        let packed = pack(&entries);
        assert_eq!(packed.patches(), 0);
        assert_eq!(packed.size_bytes(), n as usize * 5 / 2);
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
        assert_eq!(packed.patches(), 0);
        assert_eq!(packed.size_bytes(), 0);
    }
}
