//! Byte-level helpers shared by the v2 builder and reader: block headers,
//! index entries, and binary search over a raw (still-encoded) key block.
//!
//! Every helper works on little-endian `u64` key bytes in place — the
//! reader never materialises a block to answer a point query, which is the
//! property that keeps cold reads allocation-free.

use super::{BLOCK_HEADER_LEN, INDEX_ENTRY_LEN};
use crate::persist::crc32_three;
use sosd_data::key::Key;

/// One parsed block-index entry: where a block lives and what it holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockMeta {
    /// The block's first key, widened to `u64` (duplicated from the block
    /// body so routing a query never touches block bytes).
    pub first_key: u64,
    /// Absolute file offset of the block header.
    pub offset: u64,
    /// Number of keys in the block (always `> 0`; empty files have no
    /// blocks at all).
    pub count: u32,
}

impl BlockMeta {
    /// Total encoded length of the block: header plus key bytes.
    pub fn encoded_len(&self) -> usize {
        BLOCK_HEADER_LEN + self.count as usize * 8
    }

    /// Absolute file offset of the block's first key byte.
    pub fn data_offset(&self) -> usize {
        self.offset as usize + BLOCK_HEADER_LEN
    }

    /// Serialise the index entry.
    pub fn encode_entry(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.first_key.to_le_bytes());
        out.extend_from_slice(&self.offset.to_le_bytes());
        out.extend_from_slice(&self.count.to_le_bytes());
    }

    /// Parse one index entry from exactly [`INDEX_ENTRY_LEN`] bytes.
    pub fn decode_entry(bytes: &[u8]) -> Self {
        debug_assert_eq!(bytes.len(), INDEX_ENTRY_LEN);
        Self {
            // lint: allow(panic) entry length asserted above; fixed-width slices cannot fail try_into
            first_key: u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes")),
            // lint: allow(panic) slice length is fixed by the bounds check/slicing above; try_into cannot fail
            offset: u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes")),
            // lint: allow(panic) slice length is fixed by the bounds check/slicing above; try_into cannot fail
            count: u32::from_le_bytes(bytes[16..20].try_into().expect("4 bytes")),
        }
    }
}

/// Append `keys` to `out`, each widened to `u64` LE — the body encoding of
/// a block, or of one staging-buffer-sized piece of an oversized block.
pub fn encode_keys<K: Key>(keys: &[K], out: &mut Vec<u8>) {
    let keys_at = out.len();
    out.resize(keys_at + keys.len() * 8, 0);
    for (slot, k) in out[keys_at..].chunks_exact_mut(8).zip(keys) {
        slot.copy_from_slice(&k.to_u64().to_le_bytes());
    }
}

/// Append a block header (`crc │ count`) to `out`.
pub fn encode_block_header(crc: u32, count: u32, out: &mut Vec<u8>) {
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(&count.to_le_bytes());
}

/// Append the encoded blocks (`crc │ count │ keys` each) to `out`, widening
/// every key to `u64` LE as it is written: all are encoded first, then
/// checksummed three at a time ([`block_crcs`]) — the builder passes three,
/// so that their bytes are still cache-resident — and the checksums
/// patched into the headers.
pub fn encode_blocks<'k, K: Key>(blocks: impl Iterator<Item = &'k [K]>, out: &mut Vec<u8>) {
    let first = out.len();
    let mut metas = Vec::with_capacity(3);
    for keys in blocks {
        metas.push(BlockMeta {
            first_key: keys.first().map_or(0, |k| k.to_u64()),
            offset: (out.len() - first) as u64,
            count: keys.len() as u32,
        });
        encode_block_header(0, keys.len() as u32, out); // crc patched below
        encode_keys(keys, out);
    }
    for group in metas.chunks(3) {
        for (meta, crc) in group.iter().zip(block_crcs(&out[first..], group)) {
            let at = first + meta.offset as usize;
            out[at..at + 4].copy_from_slice(&crc.to_le_bytes());
        }
    }
}

/// The raw key `u64` at index `i` of a block's key bytes.
pub fn key_u64(data: &[u8], i: usize) -> u64 {
    // lint: allow(panic) an 8-byte slice by construction; try_into cannot fail
    u64::from_le_bytes(data[i * 8..i * 8 + 8].try_into().expect("8 bytes"))
}

/// `partition_point(|k| k < q)` over a block's raw key bytes — the number of
/// keys in the block strictly below `q`.
pub fn block_lower_bound(data: &[u8], count: usize, q: u64) -> usize {
    let (mut lo, mut hi) = (0usize, count);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if key_u64(data, mid) < q {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// A block's checksummed region (count field + keys), given the full file
/// bytes and the block's header offset.
pub fn block_region<'f>(file: &'f [u8], meta: &BlockMeta) -> &'f [u8] {
    &file[meta.offset as usize + 4..meta.offset as usize + meta.encoded_len()]
}

/// The CRC32s of up to three blocks of `file`, computed together.
pub fn block_crcs(file: &[u8], blocks: &[BlockMeta]) -> [u32; 3] {
    let mut regions: [&[u8]; 3] = [&[]; 3];
    for (region, meta) in regions.iter_mut().zip(blocks) {
        *region = block_region(file, meta);
    }
    crc32_three(regions)
}

/// The stored CRC of a block header.
pub fn stored_crc(file: &[u8], meta: &BlockMeta) -> u32 {
    let at = meta.offset as usize;
    // lint: allow(panic) a 4-byte slice by construction; try_into cannot fail
    u32::from_le_bytes(file[at..at + 4].try_into().expect("4 bytes"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_search_matches_partition_point_on_raw_bytes() {
        let keys: Vec<u64> = vec![2, 2, 5, 9, 9, 9, 14];
        let mut out = Vec::new();
        encode_blocks(std::iter::once(&keys[..]), &mut out);
        let meta = BlockMeta {
            first_key: 2,
            offset: 0,
            count: keys.len() as u32,
        };
        assert_eq!(out.len(), meta.encoded_len());
        assert_eq!(
            crate::persist::crc32(block_region(&out, &meta)),
            stored_crc(&out, &meta)
        );
        let data = &out[meta.data_offset()..];
        for q in 0..20u64 {
            assert_eq!(
                block_lower_bound(data, keys.len(), q),
                keys.partition_point(|&k| k < q),
                "q={q}"
            );
        }
        assert_eq!(key_u64(data, 3), 9);

        let mut entry = Vec::new();
        meta.encode_entry(&mut entry);
        assert_eq!(BlockMeta::decode_entry(&entry), meta);
    }
}
