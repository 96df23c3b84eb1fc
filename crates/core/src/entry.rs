//! Shift-Table entry representation and how the range layer stores it.
//!
//! One entry per possible model prediction: the signed drift `Δ` and the
//! local-search window length `C`. The paper's case against big models —
//! parameters that miss the cache cost memory lookups — holds for the layer
//! itself, so every range layer is stored in 64-byte lines — 67 entries a
//! line (≈ 0.955 bytes an entry) at seven bits an offset, 79 (≈ 0.810) at
//! six — the same layout for every model and every key column, and a fetch
//! reads one cache line (the `packed` module has the lines and the fetch):
//!
//! * **Only `Δ` is stored.** Under a valid-CDF model (§3.1, §3.8) the keys
//!   of partition `k` are one run of positions starting at
//!   `S_k = k + Δ_k`, so its window ends where partition `k + 1`'s starts:
//!   `C_k = S_{k+1} − S_k`. An empty partition starts where the next one
//!   does (`Δ_k = Δ_{k+1} + 1`), so its window is empty — at the lower
//!   bound of every query predicted into it — and the partitions right of
//!   the last key start at `S_n = N`. A fetch serves
//!   `[S_k, max(S_k, S_{k+1}))`, inside the column: for a model that never
//!   falls — every model of `learned_index` — exactly the paper's
//!   `<Δ_k, C_k>` window of a non-empty partition. A model that falls gets
//!   the layer of its running maximum, whose windows may miss a key it
//!   predicts below that maximum; the §3.8 repair closes every such
//!   lookup. What [`ShiftTable::entries`](crate::ShiftTable::entries),
//!   `window_lengths` and `expected_error` report are these served windows
//!   — 0 for an empty partition, so they sum to `N`.
//! * **`Δ` is line-relative, and exact where `b` bits hold it.** The drift
//!   of a model is *locally* smooth even where it is globally large — the
//!   paper's own premise — so a 64-byte, 64-aligned line of 68 (`b = 7`)
//!   or 80 (`b = 6`) neighbouring drifts carries one base, its minimum, and
//!   each drift a `b`-bit offset from it, below `2^b − 1`. A line's last
//!   drift repeats the next line's first, so the two drifts of every
//!   window — `Δ_k` and `Δ_{k+1}` — lie in one line: one cache line a
//!   correction, with no second array to read.
//! * **A line spreading past `2^b − 2` is shifted**: its offsets count
//!   units of `2^s` records, the least `s ≤ 3` with
//!   `spread ≤ (2^b − 1)·2^s − 1`, kept in the base's top two bits. Each
//!   offset is rounded down, and a fetch widens the window's end by
//!   `2^s − 1`, so the window served holds the exact one and overhangs
//!   each end by at most 7 records — one 64-byte line of `u64` keys. A
//!   window longer than `2^b − 1` records steps `Δ` past an offset between
//!   its two drifts, so it shifts its line wherever it sits.
//! * **The line that does not fit is escaped**: spreading past 1 015 (503
//!   at six bits), or shifted windows that would overhang the column. Its
//!   68 (80) drifts are stored in full — `i32`, exact — in a side array its
//!   base points into, at 272 (320) bytes more.
//! * **The width is the layer's own**: six bits when at most 1/32 of the
//!   six-bit lines are shifted or escaped — an accurate model's layer —
//!   else seven ([`ShiftTable::offset_bits`](crate::ShiftTable::offset_bits)).
//!
//! There is nothing to tune per layer: plain encodings of 4 to 8 bytes an
//! entry (`(i16, u16)` up to `(i32, u32)`) are smaller for no layer of 14
//! key generators × 8 models × 3 sizes, only for layers of fewer than 16
//! keys — one line, 64 bytes, against 4 a key as a plain `(i16, u16)`.
//!
//! The builder writes the layout strictly left to right, line by line,
//! nothing stored ever re-encoded ([`crate::build`]). A layer over `N` keys
//! has `N + 1` drifts — the last, of the virtual partition `N`, is 0 — in
//! `⌈N / 67⌉` or `⌈N / 79⌉` lines, and `|Δ| ≤ N`, so up to
//! [`ShiftTable::MAX_KEYS`](crate::ShiftTable::MAX_KEYS) `= 2^29 − 1` keys
//! every base fits the 30 bits a line leaves it.

/// The most keys a range-mode layer can cover, `2^29 − 1`: a line's base
/// is a drift in 30 bits, its top two hold the line's shift. Public as
/// [`ShiftTable::MAX_KEYS`](crate::ShiftTable::MAX_KEYS).
pub(crate) const MAX_KEYS: usize = (1 << 29) - 1;

/// A single correction entry: the drift of the first key of the partition and
/// the length of the local-search window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShiftEntry {
    /// Signed drift `Δ_k`: how many records ahead (+) or behind (−) the
    /// partition's first key is relative to the prediction.
    pub delta: i64,
    /// Window length `C_k`: how many records the local search must cover
    /// (0 for an empty partition).
    pub count: u64,
}

impl ShiftEntry {
    /// Create an entry.
    #[inline]
    pub fn new(delta: i64, count: u64) -> Self {
        Self { delta, count }
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
    use crate::packed::tests::pack_seven as pack;
    use crate::packed::{Line, Lines};

    /// The seven-bit line's drifts and pairs.
    const LINE: usize = Line::<7>::LINE;
    const PAIRS: usize = Line::<7>::PAIRS;

    /// Seven-bit lines an array of `len` drifts holds.
    fn line_count(len: usize) -> usize {
        Lines::<7>::line_count(len)
    }

    #[test]
    fn byte_tier_sizes_at_the_small_lengths() {
        for n in [1usize, 2, 67, 68, 69, 134, 135, 136, 255, 256, 257] {
            let drifts: Vec<i32> = (0..n).map(|i| 2_000_000 - i as i32).collect();
            let packed = pack(&drifts);
            // 64 bytes a line of 67 pairs.
            assert_eq!(packed.size_bytes(), 64 * line_count(n), "n={n}");
            assert_eq!(packed.patches(), 0);
        }
        // A layer of one key: its drift and the end's in one line.
        assert_eq!(pack(&[5, 0]).size_bytes(), 64);
    }

    #[test]
    fn the_encoder_patches_a_misfit_wherever_it_sits() {
        // A window of `C` records steps the drift up by `C − 1` from its
        // partition to the next. Up to 126 an offset holds it; past 1 015
        // no shift fits it, and it escapes the one line holding both
        // drifts — the first, a middle one, either side of a seam, the
        // short last one — and no other.
        let n = 5 * PAIRS + 3;
        for long in [127, 1_017, 1_018, 1 << 23] {
            for long_at in [1, PAIRS - 1, PAIRS, PAIRS + 1, 2 * PAIRS + 4, n - 2] {
                let mut drifts = vec![7; n];
                drifts[long_at + 1..]
                    .iter_mut()
                    .for_each(|d| *d += long - 1);
                let packed = pack(&drifts);
                let patches = if long > 127 { LINE } else { 0 };
                let tag = format!("{long} {long_at}");
                assert_eq!(packed.patches(), patches, "{tag}");
                let pair = Some((long_at, 7, long as usize));
                assert_eq!(packed.pair(long_at), pair, "{tag}");
                assert_eq!(
                    packed.size_bytes(),
                    64 * line_count(n) + 4 * patches,
                    "{tag}"
                );
            }
        }
    }

    #[test]
    fn an_all_long_window_layer_escapes_only_its_last_line() {
        // Every key predicted into the last partition: every other
        // partition is empty and starts at the first key, and the last
        // one's window is the whole column — its drift and the end's share
        // the last line, which is escaped.
        let n = 70_000;
        let drifts: Vec<i32> = (0..n).map(|k| -k).chain([0]).collect();
        let packed = pack(&drifts);
        assert_eq!(packed.patches(), LINE);
        let last = n as usize - 1;
        assert_eq!(packed.pair(last), Some((last, 1 - n, n as usize)));
        assert_eq!(packed.size_bytes(), 64 * (n as usize).div_ceil(PAIRS) + 272);
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
