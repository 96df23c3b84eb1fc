//! The one layout of the range layer: three plain arrays, one drift a
//! partition.
//!
//! The layer stores each partition's drift `Δ_k` and no window length: the
//! window of partition `k` ends where partition `k + 1`'s starts
//! ([`crate::table`]), so a fetch reads two neighbouring drifts. Per aligned
//! block of [`BLOCK`] drifts one `i32` base — the block's minimum — and per
//! drift one `u8` offset from it, `0..=254`: `Δ = base + offset`, 1.5 bytes
//! a drift. A block whose drifts spread past 254 is **escaped**: every one
//! of its offsets is [`ESCAPE`], its drifts go in full to a patch array, and
//! its base slot holds where they start there, so a fetch is
//!
//! ```text
//! bases[i / 8] + offsets[i]               offsets[i] != 255
//! patches[bases[i / 8] + i % 8]           offsets[i] == 255
//! ```
//!
//! — one dependent load more on the escape, no directory and no search. A
//! layer without an escaped block keeps no patch array.
//!
//! An escaped block is, in practice, a stretch where a dense region climbs
//! `Δ` by `C − 1` a partition past 254 inside one block, or a long window's
//! partition beside the empty ones after it. Whether a fetch reads one is a
//! property of the query, not of the layer: on the amzn64 IM layer (4 Mi
//! keys) 0.21 % of the blocks are escaped and 59 % of the gap queries fetch
//! from one, so the branch on the escape is mispredicted about every other
//! fetch there. Reading a patch slot on every fetch and selecting without a
//! branch wins there and loses where escapes are rare: timed 64 fetches at
//! a time between cache-evicting searches (2-vCPU x86), 26 against 32 ns a
//! fetch on that layer, 26 against 19 on osmc64 under `rmi:4096`, where
//! 0.6 % of the fetches are escaped — the branch stays.

/// Drifts per base: the base costs half a byte a drift, and eight
/// neighbours keep the spread one base must cover small.
pub(crate) const BLOCK: usize = 8;

/// The offset of every drift of an escaped block; a stored offset is below
/// it.
const ESCAPE: u8 = u8::MAX;

/// One aligned block of drifts.
type Block = [i32; BLOCK];

/// `delta − base` for a `delta` no smaller than its block's `base`: the
/// wrapped difference is the true one even where that is past `i32`.
#[inline]
fn offset_from(base: i32, delta: i32) -> u32 {
    delta.wrapping_sub(base) as u32
}

/// The range layer's drift array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Packed {
    /// One base per block, the last block possibly short; an escaped
    /// block's is its first slot in `patches`.
    bases: Vec<i32>,
    /// One offset per drift; [`ESCAPE`] throughout an escaped block.
    offsets: Vec<u8>,
    /// The drifts of the escaped blocks in full, in order.
    patches: Vec<i32>,
}

impl Packed {
    /// An empty array with room for `n` drifts (and no patch).
    pub fn with_capacity(n: usize) -> Self {
        Self {
            bases: Vec::with_capacity(n.div_ceil(BLOCK)),
            offsets: Vec::with_capacity(n),
            patches: Vec::new(),
        }
    }

    /// Append one aligned block.
    #[inline]
    fn push_block(&mut self, block: &Block) {
        debug_assert!(self.len().is_multiple_of(BLOCK), "blocks are aligned");
        let (base, max) = block
            .iter()
            .fold((i32::MAX, i32::MIN), |(min, max), &delta| {
                (min.min(delta), max.max(delta))
            });
        if offset_from(base, max) < ESCAPE as u32 {
            self.bases.push(base);
            self.offsets
                .extend_from_slice(&block.map(|delta| offset_from(base, delta) as u8));
        } else {
            self.push_escaped(block);
        }
    }

    /// Append a block whose drifts spread past a byte.
    #[cold]
    fn push_escaped(&mut self, block: &Block) {
        // A slot index below the drift count: an `i32`.
        self.bases.push(self.patches.len() as i32);
        self.offsets.extend_from_slice(&[ESCAPE; BLOCK]);
        self.patches.extend_from_slice(block);
    }

    /// Append the array's last, short block: padded with copies of its
    /// last drift, which moves none of its extremes, and cut back.
    fn push_last(&mut self, drifts: &[i32]) {
        debug_assert!((1..BLOCK).contains(&drifts.len()));
        let mut block = [drifts[drifts.len() - 1]; BLOCK];
        block[..drifts.len()].copy_from_slice(drifts);
        self.push_block(&block);
        let padding = BLOCK - drifts.len();
        if self.offsets[self.len() - 1] == ESCAPE {
            self.patches.truncate(self.patches.len() - padding);
        }
        self.offsets.truncate(self.len() - padding);
    }

    /// Append `drifts`: whole blocks, except at the end of the array.
    pub fn extend(&mut self, drifts: &[i32]) {
        let (blocks, last) = drifts.as_chunks::<BLOCK>();
        for block in blocks {
            self.push_block(block);
        }
        if !last.is_empty() {
            self.push_last(last);
        }
    }

    /// Give back the patch array's spare capacity.
    pub fn finish(&mut self) {
        self.patches.shrink_to_fit();
    }

    /// Number of drifts.
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// True if there are no drifts.
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// Number of drifts stored in the patch array: those of the escaped
    /// blocks.
    #[inline]
    pub fn patches(&self) -> usize {
        self.patches.len()
    }

    /// Drift `i`, exact: its block's `base` plus its `offset`, or from an
    /// escaped block its patch.
    #[inline]
    fn resolve(&self, i: usize, offset: u8, base: i32) -> i32 {
        if offset != ESCAPE {
            // `base + offset` is a drift that was an `i32` before packing.
            base.wrapping_add_unsigned(offset as u32)
        } else {
            self.patches[base as usize + i % BLOCK]
        }
    }

    /// Drift `i`, exact.
    #[cfg(test)]
    pub fn delta(&self, i: usize) -> i32 {
        self.resolve(i, self.offsets[i], self.bases[i / BLOCK])
    }

    /// The pair of neighbours `prediction` falls in — `k`, clamped to the
    /// last pair — with drifts `k` and `k + 1`: two adjacent offset bytes
    /// and their bases — the same slot seven times in eight, a quarter of
    /// the offsets' bytes away — or, from an escaped block, the patch array.
    /// This is the "single memory lookup" the paper's layer costs. `None`
    /// without a pair: the layer over no keys. Clamping against the offsets'
    /// own length spares both offset reads their bounds checks. One branch
    /// a drift: of three forms timed 64 fetches at a time between
    /// cache-evicting searches on amzn64 `im` and osmc64 `rmi:4096` (2-vCPU
    /// x86), the other two — one test of both escapes with a fallback, and
    /// one slice of each array — were slower.
    #[inline]
    pub fn pair(&self, prediction: usize) -> Option<(usize, i32, i32)> {
        let k = prediction.min(self.len().checked_sub(2)?);
        let (this, next) = (self.offsets[k], self.offsets[k + 1]);
        let (base, next_base) = (self.bases[k / BLOCK], self.bases[(k + 1) / BLOCK]);
        let delta = self.resolve(k, this, base);
        Some((k, delta, self.resolve(k + 1, next, next_base)))
    }

    /// Bytes of the three arrays.
    pub fn size_bytes(&self) -> usize {
        std::mem::size_of_val(self.bases.as_slice())
            + std::mem::size_of_val(self.offsets.as_slice())
            + std::mem::size_of_val(self.patches.as_slice())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Pack `drifts` and check what holds of every packed array: feeding
    /// the whole blocks 1, 3 or all at a call reaches the same arrays, every
    /// drift and every pair of neighbours comes back exact, a block is
    /// escaped exactly when its drifts spread past 254, and the patch array
    /// holds the escaped blocks' drifts.
    pub(crate) fn pack(drifts: &[i32]) -> Packed {
        let packed = Packed::from_drifts(drifts);
        for blocks_per_call in [1, 3] {
            let mut streamed = Packed::with_capacity(drifts.len());
            drifts
                .chunks(blocks_per_call * BLOCK)
                .for_each(|portion| streamed.extend(portion));
            streamed.finish();
            assert!(streamed == packed, "{blocks_per_call} blocks a call");
        }
        assert_eq!(packed.len(), drifts.len());
        assert_eq!(packed.bases.len(), drifts.len().div_ceil(BLOCK));
        let mut patches = 0;
        for (b, block) in drifts.chunks(BLOCK).enumerate() {
            let spread = block
                .iter()
                .max()
                .unwrap()
                .abs_diff(*block.iter().min().unwrap());
            let escaped = packed.offsets[b * BLOCK] == ESCAPE;
            assert_eq!(escaped, spread > 254, "block {b}");
            patches += if escaped { block.len() } else { 0 };
        }
        assert_eq!(packed.patches(), patches);
        for (i, &delta) in drifts.iter().enumerate() {
            assert_eq!(packed.delta(i), delta, "drift {i}");
            if i + 1 < drifts.len() {
                assert_eq!(packed.pair(i), Some((i, delta, drifts[i + 1])), "pair {i}");
            }
        }
        packed
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
            let step = [2, 40, 300, 100_000][round % 4];
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
    fn an_entry_is_a_byte_and_a_base_half_a_byte() {
        assert_eq!(2 * std::mem::size_of::<i32>(), BLOCK);
        // 64 smooth drifts: 64 + 8 * 4 bytes, however far they sit.
        assert_eq!(pack(&[1; 64]).size_bytes(), 96);
        assert_eq!(pack(&[1_000_000; 64]).size_bytes(), 96);
        // An escaped block: its 8 drifts cost 32 bytes more.
        let mut drifts = [1; 64];
        drifts[9] = 256;
        assert_eq!(pack(&drifts).size_bytes(), 128);
    }

    #[test]
    fn offsets_and_counts_are_stored_in_place_up_to_the_width() {
        // An offset of 254 is stored in place — and with it the window it
        // ends or starts, however long; 255 is the escape, so a spread of
        // 255 escapes the block.
        let base = -7_000;
        let mut drifts = vec![base; 3 * BLOCK];
        drifts[BLOCK + 1] = base + 254;
        drifts[BLOCK + 2] = base + 3;
        let packed = pack(&drifts);
        assert_eq!(packed.patches(), 0);
        assert_eq!(packed.bases, [base; 3]);
        assert_eq!(packed.offsets[BLOCK..BLOCK + 4], [0, 254, 3, 0]);
        assert_eq!(packed.pair(BLOCK), Some((BLOCK, base, base + 254)));
        drifts[BLOCK + 1] = base + 255;
        let packed = pack(&drifts);
        assert_eq!(packed.patches, drifts[BLOCK..2 * BLOCK]);
        assert_eq!(packed.bases, [base, 0, base]);
        assert_eq!(packed.offsets[BLOCK..2 * BLOCK], [ESCAPE; BLOCK]);
        // Its neighbours stay in place; a pair across the seam reads one
        // drift from each array.
        assert_eq!(packed.offsets[BLOCK - 1], 0);
        assert_eq!(packed.pair(BLOCK - 1), Some((BLOCK - 1, base, base)));
        assert_eq!(
            packed.pair(2 * BLOCK - 1),
            Some((2 * BLOCK - 1, base, base))
        );
    }

    #[test]
    fn a_low_outlier_is_the_base_and_patches_its_block() {
        // The base is the block's minimum: one drift far below the rest
        // pushes the other seven past a byte, and the block is escaped.
        let mut drifts = vec![500; 2 * BLOCK];
        drifts[2] = 100;
        let packed = pack(&drifts);
        assert_eq!(packed.bases, [0, 500]);
        assert_eq!(packed.patches, drifts[..BLOCK]);
        assert_eq!(packed.delta(2), 100);
        // Within a byte of the rest, it is the base of a block in place.
        drifts[2] = 300;
        let packed = pack(&drifts);
        assert_eq!(packed.bases, [300, 500]);
        assert_eq!(packed.offsets[..3], [200, 200, 0]);
    }

    #[test]
    fn patches_in_the_first_a_middle_and_the_short_last_block() {
        for n in [0usize, 1, 7, 8, 9, 255, 256, 257, 600] {
            let clean: Vec<i32> = (0..n as i32).map(|i| -i).collect();
            let packed = pack(&clean);
            assert_eq!(packed.patches(), 0, "n={n}");
            assert_eq!(packed.size_bytes(), n + 4 * n.div_ceil(BLOCK), "n={n}");
            if n == 0 {
                continue;
            }
            for at in [0, n / 2, n - 1] {
                let mut drifts = clean.clone();
                drifts[at] = 8_000_000;
                let packed = pack(&drifts);
                // The whole block goes to the patch array — the short last
                // one without its padding — and its base slot says where;
                // a block of one drift spreads nowhere.
                let block = at / BLOCK * BLOCK..n.min(at / BLOCK * BLOCK + BLOCK);
                if block.len() == 1 {
                    assert_eq!(packed.patches(), 0, "n={n} at={at}");
                    continue;
                }
                assert_eq!(packed.patches, drifts[block.clone()], "n={n} at={at}");
                assert_eq!(packed.bases[at / BLOCK], 0, "n={n} at={at}");
                assert_eq!(
                    packed.size_bytes(),
                    n + 4 * n.div_ceil(BLOCK) + 4 * block.len(),
                    "n={n} at={at}"
                );
            }
        }
        // Three escaped blocks, the last short: each base is its first
        // slot.
        let mut drifts = vec![0; 2 * BLOCK + 3];
        drifts[1] = 300;
        drifts[BLOCK + 7] = -300;
        drifts[2 * BLOCK + 2] = 1 << 30;
        let packed = pack(&drifts);
        assert_eq!(packed.bases, [0, 8, 16]);
        assert_eq!(packed.patches, drifts);
    }

    #[test]
    fn bases_reach_both_ends_of_i32() {
        let drifts = [i32::MIN, i32::MIN + 254, i32::MIN + 3];
        let packed = pack(&drifts);
        assert_eq!(packed.bases, [i32::MIN]);
        assert_eq!(packed.patches(), 0);
        assert_eq!(pack(&[i32::MAX, i32::MAX - 254]).patches(), 0);
        // A block spanning the whole of `i32`: the spread is taken without
        // overflow, and does not fit.
        let drifts = [i32::MIN, i32::MAX, -1];
        assert_eq!(pack(&drifts).patches, drifts);
        // The extremes a layer over `MAX_KEYS` keys can hold come back as
        // they are.
        let max = crate::entry::MAX_KEYS as i32;
        let drifts = [i32::MAX, -max, 0, max];
        assert_eq!(pack(&drifts).patches, drifts);
    }
}
