//! The v2 snapshot reader: mounted cold bases and the cold block index.
//!
//! [`ColdBase::mount`] loads a v2 file, validates it **structurally in
//! full** (magics, footer/index/block checksums, block contiguity, key
//! sortedness — see the [`super`] module docs), and then serves point
//! queries straight off the block index: route by first key, binary-search
//! the raw bytes of one block. No key is decoded into a `Vec`, no model is
//! trained — which is exactly what a cold-mounted shard needs to answer
//! `lower_bound`/`range` milliseconds after `open()`.
//!
//! [`ColdBlockIndex`] adapts a shared [`ColdBase`] to the
//! [`RangeIndex`] trait so a cold shard can publish it where a trained
//! model normally sits; hydration later decodes the keys
//! ([`ColdBase::decode_all`]), retrains, and swaps the shard hot.

use super::block::{block_crcs, block_lower_bound, key_u64, stored_crc, BlockMeta};
use super::{FOOTER_LEN, FORMAT_VERSION, INDEX_ENTRY_LEN, MAGIC};
use crate::error::StoreError;
use crate::persist::crc32;
use algo_index::search::RangeIndex;
use sosd_data::key::Key;
use std::io::Read;
use std::path::Path;
use std::sync::Arc;

fn corrupt(path: &Path, reason: impl Into<String>) -> StoreError {
    StoreError::Corrupt {
        path: path.to_path_buf(),
        reason: reason.into(),
    }
}

/// A mounted (still encoded) v2 shard snapshot: the raw file bytes plus the
/// parsed block index. Fully validated at mount — every read afterwards is
/// infallible. Cheap to share behind `Arc`; queries take no lock.
pub struct ColdBase<K: Key> {
    bytes: Vec<u8>,
    applied: u64,
    total: usize,
    /// Per-block routing keys (decoded once at mount).
    first_keys: Vec<K>,
    blocks: Vec<BlockMeta>,
    /// `cum[i]` = keys in blocks `< i`; `cum[block_count]` = `total`.
    cum: Vec<usize>,
}

impl<K: Key> std::fmt::Debug for ColdBase<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ColdBase")
            .field("applied", &self.applied)
            .field("total", &self.total)
            .field("blocks", &self.blocks.len())
            .finish()
    }
}

impl<K: Key> ColdBase<K> {
    /// Mount the v2 snapshot at `path`: read it and validate every
    /// structural invariant (see the module docs).
    ///
    /// # Errors
    /// [`StoreError::Corrupt`] naming `path` on any damage — bad magic or
    /// version, checksum mismatch anywhere, key-width mismatch,
    /// non-contiguous blocks, or unsorted keys. [`StoreError::Io`] if the
    /// file cannot be read at all.
    pub fn mount(path: &Path) -> Result<Self, StoreError> {
        let mut bytes = Vec::new();
        std::fs::File::open(path)?.read_to_end(&mut bytes)?;
        Self::from_bytes(path, bytes)
    }

    /// [`ColdBase::mount`] over bytes already in memory (`path` is only
    /// used to label errors).
    pub(crate) fn from_bytes(path: &Path, bytes: Vec<u8>) -> Result<Self, StoreError> {
        if bytes.len() < MAGIC.len() + FOOTER_LEN {
            return Err(corrupt(path, "truncated: shorter than magic + footer"));
        }
        if bytes[..8] != MAGIC {
            return Err(corrupt(path, "bad leading magic"));
        }
        let footer = &bytes[bytes.len() - FOOTER_LEN..];
        if footer[44..52] != MAGIC {
            return Err(corrupt(path, "bad trailing magic (torn footer)"));
        }
        // lint: allow(panic) slice length is fixed by the bounds check/slicing above; try_into cannot fail
        let version = u32::from_le_bytes(footer[40..44].try_into().expect("4 bytes"));
        if version != FORMAT_VERSION {
            return Err(corrupt(
                path,
                format!("unsupported format version {version}"),
            ));
        }
        // lint: allow(panic) slice length is fixed by the bounds check/slicing above; try_into cannot fail
        let footer_crc = u32::from_le_bytes(footer[36..40].try_into().expect("4 bytes"));
        if crc32(&footer[..36]) != footer_crc {
            return Err(corrupt(path, "footer checksum mismatch"));
        }
        // lint: allow(panic) slice length is fixed by the bounds check/slicing above; try_into cannot fail
        let applied = u64::from_le_bytes(footer[..8].try_into().expect("8 bytes"));
        // lint: allow(panic) slice length is fixed by the bounds check/slicing above; try_into cannot fail
        let key_bits = u32::from_le_bytes(footer[8..12].try_into().expect("4 bytes"));
        if key_bits != K::BITS {
            return Err(corrupt(
                path,
                format!(
                    "key width mismatch: snapshot {key_bits} bits, store {} bits",
                    K::BITS
                ),
            ));
        }
        // lint: allow(panic) slice length is fixed by the bounds check/slicing above; try_into cannot fail
        let total = u64::from_le_bytes(footer[12..20].try_into().expect("8 bytes"));
        // lint: allow(panic) slice length is fixed by the bounds check/slicing above; try_into cannot fail
        let block_count = u32::from_le_bytes(footer[20..24].try_into().expect("4 bytes")) as usize;
        // lint: allow(panic) slice length is fixed by the bounds check/slicing above; try_into cannot fail
        let index_offset = u64::from_le_bytes(footer[24..32].try_into().expect("8 bytes")) as usize;
        // lint: allow(panic) slice length is fixed by the bounds check/slicing above; try_into cannot fail
        let index_crc = u32::from_le_bytes(footer[32..36].try_into().expect("4 bytes"));

        let index_end = bytes.len() - FOOTER_LEN;
        let index_len = block_count
            .checked_mul(INDEX_ENTRY_LEN)
            .filter(|&len| {
                index_offset >= MAGIC.len() && index_offset.checked_add(len) == Some(index_end)
            })
            .ok_or_else(|| corrupt(path, "block index does not fit between blocks and footer"))?;
        let index = &bytes[index_offset..index_offset + index_len];
        if crc32(index) != index_crc {
            return Err(corrupt(path, "block index checksum mismatch"));
        }

        // The index first: once every entry is known to describe a block
        // inside the block region, the sweep below cannot index out of it.
        let mut blocks = Vec::with_capacity(block_count);
        let mut expected_offset = MAGIC.len();
        for entry in index.chunks_exact(INDEX_ENTRY_LEN) {
            let meta = BlockMeta::decode_entry(entry);
            if meta.count == 0 {
                return Err(corrupt(path, "empty block"));
            }
            if meta.offset as usize != expected_offset {
                return Err(corrupt(path, "blocks are not contiguous"));
            }
            expected_offset += meta.encoded_len();
            if expected_offset > index_offset {
                return Err(corrupt(path, "block overruns the index region"));
            }
            blocks.push(meta);
        }
        if expected_offset != index_offset {
            return Err(corrupt(path, "gap between the last block and the index"));
        }
        // One sweep, three blocks at a time (their checksums are computed
        // together, then their keys are walked while still in cache), proves
        // every block checksum, global sortedness and that each index
        // entry's routing key matches the block body.
        let mut first_keys = Vec::with_capacity(block_count);
        let mut cum = Vec::with_capacity(block_count + 1);
        let mut keys_seen = 0usize;
        let mut prev_key: Option<u64> = None;
        for group in blocks.chunks(3) {
            for (meta, crc) in group.iter().zip(block_crcs(&bytes, group)) {
                if crc != stored_crc(&bytes, meta) {
                    return Err(corrupt(
                        path,
                        format!("block at offset {} failed its checksum", meta.offset),
                    ));
                }
            }
            for meta in group {
                let data = &bytes[meta.data_offset()..meta.data_offset() + meta.count as usize * 8];
                if key_u64(data, 0) != meta.first_key {
                    return Err(corrupt(path, "index first-key disagrees with block body"));
                }
                for i in 0..meta.count as usize {
                    let k = key_u64(data, i);
                    if prev_key.is_some_and(|p| p > k) {
                        return Err(corrupt(path, "snapshot keys are not sorted"));
                    }
                    prev_key = Some(k);
                }
                cum.push(keys_seen);
                keys_seen += meta.count as usize;
                first_keys.push(K::from_u64_saturating(meta.first_key));
            }
        }
        if keys_seen as u64 != total {
            return Err(corrupt(path, "footer total disagrees with block counts"));
        }
        cum.push(keys_seen);
        Ok(Self {
            bytes,
            applied,
            total: keys_seen,
            first_keys,
            blocks,
            cum,
        })
    }

    /// Store version the snapshot is exact at (every write `<= applied`
    /// routed to the shard is contained, none above).
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// Number of keys in the snapshot.
    pub fn len(&self) -> usize {
        self.total
    }

    /// True when the snapshot holds no keys.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Resident size: the mounted file bytes plus the decoded index.
    pub fn size_bytes(&self) -> usize {
        self.bytes.len()
            + self.blocks.len() * (std::mem::size_of::<BlockMeta>() + K::size_bytes())
            + self.cum.len() * std::mem::size_of::<usize>()
    }

    /// The raw key bytes of block `b`.
    fn block_data(&self, b: usize) -> &[u8] {
        let meta = &self.blocks[b];
        &self.bytes[meta.data_offset()..meta.data_offset() + meta.count as usize * 8]
    }

    /// Position of the first key `>= q` — route by first key, then
    /// binary-search the raw bytes of exactly one block.
    pub fn lower_bound(&self, q: K) -> usize {
        let q = q.to_u64();
        // First block whose routing key is >= q; only its predecessor can
        // contain keys on both sides of q.
        let b = self.first_keys.partition_point(|fk| fk.to_u64() < q);
        if b == 0 {
            return 0;
        }
        let meta = &self.blocks[b - 1];
        self.cum[b - 1] + block_lower_bound(self.block_data(b - 1), meta.count as usize, q)
    }

    /// Batched lower bounds staged like the core batch kernel
    /// ([`shift_table::kernel`]): per block of queries, **route**
    /// them all over the (cache-resident) first-key array, then **touch**
    /// the midpoint byte of every routed snapshot block — bounds-checked
    /// reads folded into a [`std::hint::black_box`] sink, so the raw block
    /// bytes start travelling toward the cache as independent overlapping
    /// loads — and only then **resolve** the per-block binary searches.
    pub fn lower_bound_batch(&self, queries: &[K], out: &mut [usize]) {
        debug_assert_eq!(queries.len(), out.len());
        if self.total == 0 {
            out.fill(0);
            return;
        }
        const BLOCK: usize = shift_table::kernel::BATCH_BLOCK;
        let mut routed = [0usize; BLOCK];
        let mut touched = 0u64;
        for (qs, os) in queries.chunks(BLOCK).zip(out.chunks_mut(BLOCK)) {
            let routed = &mut routed[..qs.len()];
            // Stage 1: route every query by its block's first key.
            for (r, &q) in routed.iter_mut().zip(qs.iter()) {
                *r = self
                    .first_keys
                    .partition_point(|fk| fk.to_u64() < q.to_u64());
            }
            // Stage 2: touch each routed block's midpoint entry.
            for &r in routed.iter() {
                if r > 0 {
                    let meta = &self.blocks[r - 1];
                    touched ^= key_u64(self.block_data(r - 1), meta.count as usize / 2);
                }
            }
            // Stage 3: resolve each query inside its single block.
            for ((o, &q), &r) in os.iter_mut().zip(qs.iter()).zip(routed.iter()) {
                *o = if r == 0 {
                    0
                } else {
                    let meta = &self.blocks[r - 1];
                    self.cum[r - 1]
                        + block_lower_bound(self.block_data(r - 1), meta.count as usize, q.to_u64())
                };
            }
        }
        std::hint::black_box(touched);
    }

    /// Occurrence count of exactly `k`.
    pub fn count_of(&self, k: K) -> usize {
        let start = self.lower_bound(k);
        let end = match k.checked_next() {
            Some(n) => self.lower_bound(n),
            None => self.total,
        };
        end - start
    }

    /// Decode the full key column (hydration's input).
    pub fn decode_all(&self) -> Vec<K> {
        self.keys_in(0..self.total)
    }

    /// Decode the keys at global positions `range`.
    pub fn keys_in(&self, range: std::ops::Range<usize>) -> Vec<K> {
        debug_assert!(range.start <= range.end && range.end <= self.total);
        let mut out = Vec::with_capacity(range.len());
        if range.is_empty() {
            return out;
        }
        // First block whose cumulative start exceeds range.start, minus one.
        let mut b = self.cum.partition_point(|&c| c <= range.start) - 1;
        let mut pos = range.start;
        while pos < range.end {
            let data = self.block_data(b);
            let lo = pos - self.cum[b];
            let hi = (range.end - self.cum[b]).min(self.blocks[b].count as usize);
            for i in lo..hi {
                out.push(K::from_u64_saturating(key_u64(data, i)));
            }
            pos = self.cum[b] + hi;
            b += 1;
        }
        out
    }
}

/// [`RangeIndex`] adapter over a shared [`ColdBase`]: what a cold shard
/// publishes in place of a trained model. Routing costs one binary search
/// over the per-block first keys plus one over a single block's raw bytes —
/// no decode, no training. Batched probes override the trait default and
/// run [`ColdBase::lower_bound_batch`]'s route/touch/resolve stage split.
#[derive(Debug)]
pub struct ColdBlockIndex<K: Key>(pub Arc<ColdBase<K>>);

impl<K: Key> RangeIndex<K> for ColdBlockIndex<K> {
    fn lower_bound(&self, q: K) -> usize {
        self.0.lower_bound(q)
    }

    fn lower_bound_batch(&self, queries: &[K], out: &mut [usize]) {
        // lint: allow(panic) API contract: unequal lengths would silently write positions to wrong slots
        assert_eq!(
            queries.len(),
            out.len(),
            "lower_bound_batch requires queries and out of equal length"
        );
        self.0.lower_bound_batch(queries, out);
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    fn index_size_bytes(&self) -> usize {
        // The auxiliary structure: block index + routing keys (the encoded
        // key blocks play the role of the key column itself).
        self.0.blocks.len() * (INDEX_ENTRY_LEN + K::size_bytes())
            + self.0.cum.len() * std::mem::size_of::<usize>()
    }

    fn name(&self) -> &'static str {
        "cold-v2"
    }
}

/// Eagerly load a v2 snapshot: mount (full validation) and decode every
/// key. Returns `(applied_version, keys)`.
///
/// # Errors
/// Exactly [`ColdBase::mount`]'s.
pub fn read_snapshot_v2<K: Key>(path: &Path) -> Result<(u64, Vec<K>), StoreError> {
    let base = ColdBase::<K>::mount(path)?;
    Ok((base.applied(), base.decode_all()))
}
