//! Shift-Table entry representation and how the range layer stores it.
//!
//! One entry per possible model prediction: the signed drift `Δ` and the
//! local-search window length `C`. The paper's case against big models —
//! parameters that miss the cache cost memory lookups — holds for the layer
//! itself, so every range layer is stored in 64-byte lines — 115 entries a
//! line, ≈ 0.557 bytes an entry — the same layout for every model and
//! every key column, and a fetch reads one cache line (the `packed` module
//! has the lines and the fetch):
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
//! * **`Δ` is line-relative, and exact where four bits hold it.** The
//!   drift of a model is *locally* smooth even where it is globally large —
//!   the paper's own premise — and mostly climbs or falls at a steady rate
//!   inside a line: the model's local slope error. So a 64-byte, 64-aligned
//!   line of 116 neighbouring drifts carries one slope `a`, in 14 of the
//!   16 bits its offsets leave, and one base, the least residual
//!   `Δ_i − ((a·i) >> 6)`, and each drift a four-bit offset of its residual
//!   from the base, below 15. A line's last drift
//!   repeats the next line's first, so the two drifts of every window —
//!   `Δ_k` and `Δ_{k+1}` — lie in one line: one cache line a correction,
//!   with no second array to read.
//! * **A line whose residuals spread past 14 is shifted**: its offsets
//!   count units of `u` records, the least `u ≤ 16` with
//!   `spread ≤ 15·u − 1`, kept as `u − 1` in the base's top two bits and
//!   the two bits the offsets and the slope leave. Each offset is rounded
//!   down, and a fetch widens the window's end by `u − 1`, so the window
//!   served holds the exact one and overhangs each end by at most 15 records —
//!   two 64-byte lines of `u64` keys. A window longer than 15 records,
//!   less the line's climb across it, steps the residual past an offset
//!   between its two drifts, so it shifts its line wherever it sits.
//! * **The line that does not fit is escaped**: its residuals spreading
//!   past 239, or shifted windows that would overhang the column. Its 116
//!   drifts are stored exactly in a side array its base points into: as
//!   16-bit offsets from their least, at 236 bytes more, or where they
//!   spread past 65 535 in full as `i32`, at 464.
//!
//! There is nothing to tune per layer: plain encodings of 4 to 8 bytes an
//! entry (`(i16, u16)` up to `(i32, u32)`) are smaller for no layer of 14
//! key generators × 8 models × 3 sizes, only for layers of fewer than 16
//! keys — one line, 64 bytes, against 4 a key as a plain `(i16, u16)`.
//!
//! The builder writes the layout strictly left to right, line by line,
//! nothing stored ever re-encoded ([`crate::build`]). A layer over `N` keys
//! has `N + 1` drifts — the last, of the virtual partition `N`, is 0 — in
//! `⌈N / 115⌉` lines, and `|Δ| ≤ N`, so up to
//! [`ShiftTable::MAX_KEYS`](crate::ShiftTable::MAX_KEYS) `= 2^29 − 1` keys
//! every base fits the 30 bits a line leaves it.

/// The most keys a range-mode layer can cover, `2^29 − 1`: a line's base
/// is a drift in 30 bits, its top two hold half of the line's unit code.
/// Public as
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

#[cfg(test)]
mod tests {
    use crate::packed::tests::pack;
    use crate::packed::{Line, Lines};

    /// A line's drifts and pairs.
    const LINE: usize = Line::LINE;
    const PAIRS: usize = Line::PAIRS;

    #[test]
    fn byte_tier_sizes_at_the_small_lengths() {
        for n in [1usize, 2, 115, 116, 117, 230, 231, 232, 345, 346, 347] {
            let drifts: Vec<i32> = (0..n).map(|i| 2_000_000 - i as i32).collect();
            let packed = pack(&drifts);
            // 64 bytes a line of 115 pairs.
            assert_eq!(packed.size_bytes(), 64 * Lines::line_count(n), "n={n}");
            assert_eq!(packed.patches(), 0);
        }
        // A layer of one key: its drift and the end's in one line.
        assert_eq!(pack(&[5, 0]).size_bytes(), 64);
    }

    #[test]
    fn the_encoder_patches_a_misfit_wherever_it_sits() {
        // A window of `C` records steps the drift up by `C − 1` from its
        // partition to the next. Up to 15 an offset holds it; past what a
        // unit fits under the line's slope, or with windows past the
        // column's end, it escapes the one line holding both drifts — the
        // first, a middle one, either side of a seam, the short last one —
        // and no other: a short patch of 59 words up to 65 536, 116 drifts
        // in full past it.
        let n = 5 * PAIRS + 3;
        for long in [15, 300, 1_018, 1 << 23] {
            for long_at in [1, PAIRS - 1, PAIRS, PAIRS + 1, 2 * PAIRS + 4, n - 2] {
                let mut drifts = vec![7; n];
                drifts[long_at + 1..]
                    .iter_mut()
                    .for_each(|d| *d += long - 1);
                let packed = pack(&drifts);
                let patches = match long {
                    ..=15 => 0,
                    16..=65_536 => 59,
                    _ => LINE,
                };
                let tag = format!("{long} {long_at}");
                assert_eq!(packed.patches(), patches, "{tag}");
                let pair = Some((long_at, 7, long as usize));
                assert_eq!(packed.pair(long_at), pair, "{tag}");
                assert_eq!(
                    packed.size_bytes(),
                    64 * Lines::line_count(n) + 4 * patches,
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
        assert_eq!(packed.size_bytes(), 64 * (n as usize).div_ceil(PAIRS) + 464);
    }

    #[test]
    fn empty_storage() {
        let packed = pack(&[]);
        assert!(packed.is_empty());
        assert_eq!(packed.patches(), 0);
        assert_eq!(packed.size_bytes(), 0);
    }
}
