//! The v2 snapshot builder: key column in, block-structured file out,
//! streamed through one staging buffer of constant size.
//!
//! The builder slices the merged key column into blocks of `block_keys`
//! keys (the [`crate::DurabilityConfig::snapshot_block_keys`] knob) and
//! encodes them three at a time into a reused staging buffer of
//! `STAGE_BYTES` (1 MiB): keys are widened to `u64` LE straight into the buffer,
//! the three blocks are checksummed together while their bytes are still
//! cache-resident (`crc32_three`: three interleaved chains, the values of
//! three separate checksums), and the buffer goes to the file with one
//! `write_all` whenever the next three would not fit. The checksummed
//! block index and the footer follow through the same buffer — see the
//! [`super`] module docs for the byte layout — and a single `sync_all`
//! closes the file before the builder returns: the manifest must never
//! reference a snapshot that could still be lost.
//!
//! **Memory is bounded by the buffer, not by the shard.** No file image is
//! built, and the index keeps no per-block record while the blocks stream
//! out: every entry (first key, offset, count) is a function of the key
//! column and `block_keys` alone, so the index is derived when it is
//! written, and its checksum is folded in entry by entry
//! (`Crc32`). A block longer than the buffer (a `block_keys` above
//! ≈ 131 000) cannot be checksummed in place, and its checksum leads its
//! bytes; its keys are encoded twice, once only to checksum them and once
//! to write them, so even that case allocates nothing.
//!
//! The bytes written are those of the whole-image encoder this replaced,
//! which the tests below keep as the reference.

use super::block::{encode_block_header, encode_blocks, encode_keys, BlockMeta};
use super::{BLOCK_HEADER_LEN, FOOTER_LEN, FORMAT_VERSION, INDEX_ENTRY_LEN, MAGIC};
use crate::persist::{crc32, Crc32};
use sosd_data::key::Key;
use std::io::Write;
use std::path::Path;

/// Capacity of the staging buffer: large enough that a checkpoint issues
/// few `write` calls (32 per 32 MiB file), small enough to stay in a
/// core's share of L2/L3 while a block is encoded and checksummed.
const STAGE_BYTES: usize = 1 << 20;

/// Keys per piece of a block that is longer than the staging buffer, sized
/// so the block header and the first piece fill the buffer exactly.
const PIECE_KEYS: usize = (STAGE_BYTES - BLOCK_HEADER_LEN) / 8;

/// The staging buffer in front of the output: encoders append to `buf`,
/// [`Stage::make_room`] empties it into the sink when it would overflow.
struct Stage<'a, W: Write> {
    sink: &'a mut W,
    buf: Vec<u8>,
    /// Bytes already handed to the sink.
    flushed: u64,
}

impl<W: Write> Stage<'_, W> {
    /// File offset of the next byte appended to `buf`.
    fn offset(&self) -> u64 {
        self.flushed + self.buf.len() as u64
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.sink.write_all(&self.buf)?;
        self.flushed += self.buf.len() as u64;
        self.buf.clear();
        Ok(())
    }

    /// Make sure `len <= STAGE_BYTES` more bytes fit in `buf` contiguously
    /// (a region checksummed in place must not straddle a flush).
    fn make_room(&mut self, len: usize) -> std::io::Result<()> {
        debug_assert!(len <= STAGE_BYTES);
        if self.buf.len() + len > STAGE_BYTES {
            self.flush()?;
        }
        Ok(())
    }

    /// Write a block longer than the buffer. Its checksum precedes its
    /// keys in the file, so the keys pass through the buffer twice: first
    /// only to be checksummed, then to be written.
    fn oversized_block<K: Key>(&mut self, keys: &[K]) -> std::io::Result<()> {
        self.flush()?;
        let count = keys.len() as u32;
        let mut crc = Crc32::new();
        crc.update(&count.to_le_bytes());
        for piece in keys.chunks(PIECE_KEYS) {
            self.buf.clear();
            encode_keys(piece, &mut self.buf);
            crc.update(&self.buf);
        }
        self.buf.clear();
        encode_block_header(crc.finish(), count, &mut self.buf);
        for piece in keys.chunks(PIECE_KEYS) {
            self.make_room(piece.len() * 8)?;
            encode_keys(piece, &mut self.buf);
        }
        Ok(())
    }
}

/// Stream the v2 encoding of `keys` into `sink`; returns the bytes written.
fn encode_snapshot<K: Key, W: Write>(
    sink: &mut W,
    applied: u64,
    keys: &[K],
    block_keys: usize,
) -> std::io::Result<u64> {
    let block_keys = block_keys.max(1);
    let block_count = keys.len().div_ceil(block_keys);
    // Block `i` as the index describes it. Full blocks all have one length,
    // so the entry follows from the column and needs no bookkeeping.
    let meta = |i: usize| {
        let start = i * block_keys;
        BlockMeta {
            first_key: keys[start].to_u64(),
            offset: (MAGIC.len() + i * BLOCK_HEADER_LEN + start * 8) as u64,
            count: (keys.len() - start).min(block_keys) as u32,
        }
    };
    let file_len = MAGIC.len()
        + keys.len() * 8
        + block_count * (BLOCK_HEADER_LEN + INDEX_ENTRY_LEN)
        + FOOTER_LEN;
    let mut stage = Stage {
        sink,
        buf: Vec::with_capacity(file_len.min(STAGE_BYTES)),
        flushed: 0,
    };
    stage.buf.extend_from_slice(&MAGIC);

    // Blocks go into the buffer three at a time, so that their checksums
    // are computed together; blocks too long for that go one at a time.
    let block_len = BLOCK_HEADER_LEN + block_keys.min(keys.len()) * 8;
    let together = if 3 * block_len <= STAGE_BYTES { 3 } else { 1 };
    for (g, group) in keys.chunks(block_keys.saturating_mul(together)).enumerate() {
        debug_assert_eq!(stage.offset(), meta(g * together).offset);
        let len = group.len().div_ceil(block_keys) * BLOCK_HEADER_LEN + group.len() * 8;
        if len <= STAGE_BYTES {
            stage.make_room(len)?;
            encode_blocks(group.chunks(block_keys), &mut stage.buf);
        } else {
            stage.oversized_block(group)?;
        }
    }

    let index_offset = stage.offset();
    let mut index_crc = Crc32::new();
    for i in 0..block_count {
        stage.make_room(INDEX_ENTRY_LEN)?;
        let at = stage.buf.len();
        meta(i).encode_entry(&mut stage.buf);
        index_crc.update(&stage.buf[at..]);
    }

    stage.make_room(FOOTER_LEN)?;
    let out = &mut stage.buf;
    let footer_at = out.len();
    out.extend_from_slice(&applied.to_le_bytes());
    out.extend_from_slice(&K::BITS.to_le_bytes());
    out.extend_from_slice(&(keys.len() as u64).to_le_bytes());
    out.extend_from_slice(&(block_count as u32).to_le_bytes());
    out.extend_from_slice(&index_offset.to_le_bytes());
    out.extend_from_slice(&index_crc.finish().to_le_bytes());
    let footer_crc = crc32(&out[footer_at..]);
    out.extend_from_slice(&footer_crc.to_le_bytes());
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&MAGIC);
    debug_assert_eq!(out.len() - footer_at, FOOTER_LEN);

    stage.flush()?;
    debug_assert_eq!(stage.flushed, file_len as u64);
    debug_assert!(
        stage.buf.capacity() <= STAGE_BYTES,
        "the buffer never grows"
    );
    Ok(stage.flushed)
}

/// Write a v2 snapshot of `keys` (consistent with store version `applied`)
/// to `path` in blocks of `block_keys` keys, fsyncing before returning.
/// Returns the bytes written.
pub(crate) fn write_snapshot<K: Key>(
    path: &Path,
    applied: u64,
    keys: &[K],
    block_keys: usize,
) -> std::io::Result<u64> {
    let mut file = std::fs::File::create(path)?;
    let bytes = encode_snapshot(&mut file, applied, keys, block_keys)?;
    file.sync_all()?;
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One block as the format defines it, checksummed on its own.
    fn encode_block<K: Key>(keys: &[K], out: &mut Vec<u8>) {
        let header_at = out.len();
        encode_block_header(0, keys.len() as u32, out);
        encode_keys(keys, out);
        let crc = crc32(&out[header_at + 4..]);
        out[header_at..header_at + 4].copy_from_slice(&crc.to_le_bytes());
    }

    /// The whole-image encoder the streaming writer replaced, kept as the
    /// reference for the file bytes: every block, then the index, then the
    /// footer, appended to one `Vec` the size of the file.
    fn reference_image<K: Key>(applied: u64, keys: &[K], block_keys: usize) -> Vec<u8> {
        let block_keys = block_keys.max(1);
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);

        let mut metas: Vec<BlockMeta> = Vec::new();
        for chunk in keys.chunks(block_keys) {
            metas.push(BlockMeta {
                first_key: chunk[0].to_u64(),
                offset: out.len() as u64,
                count: chunk.len() as u32,
            });
            encode_block(chunk, &mut out);
        }

        let index_offset = out.len() as u64;
        let index_at = out.len();
        for meta in &metas {
            meta.encode_entry(&mut out);
        }
        let index_crc = crc32(&out[index_at..]);

        let footer_at = out.len();
        out.extend_from_slice(&applied.to_le_bytes());
        out.extend_from_slice(&K::BITS.to_le_bytes());
        out.extend_from_slice(&(keys.len() as u64).to_le_bytes());
        out.extend_from_slice(&(metas.len() as u32).to_le_bytes());
        out.extend_from_slice(&index_offset.to_le_bytes());
        out.extend_from_slice(&index_crc.to_le_bytes());
        let footer_crc = crc32(&out[footer_at..]);
        out.extend_from_slice(&footer_crc.to_le_bytes());
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&MAGIC);
        out
    }

    /// A sink that also records the size of every `write` it receives.
    #[derive(Default)]
    struct Recorder {
        bytes: Vec<u8>,
        writes: Vec<usize>,
    }

    impl Write for Recorder {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.bytes.extend_from_slice(buf);
            self.writes.push(buf.len());
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn assert_streams_the_reference<K: Key>(keys: &[K], block_keys: usize) -> Recorder {
        let mut sink = Recorder::default();
        let applied = 0xA11CE ^ keys.len() as u64;
        let len = encode_snapshot(&mut sink, applied, keys, block_keys).unwrap();
        assert_eq!(len, sink.bytes.len() as u64);
        assert!(
            sink.bytes == reference_image(applied, keys, block_keys),
            "{} keys of {} bits, block_keys {block_keys}: bytes differ",
            keys.len(),
            K::BITS
        );
        assert!(
            sink.writes.iter().all(|&w| w <= STAGE_BYTES),
            "every write is a flush of the bounded buffer"
        );
        sink
    }

    /// Key counts around the first staging-buffer flush for blocks of
    /// `block_keys`: `fit` is the number of keys in the whole blocks that fit
    /// in the buffer behind the magic, so the block after them is the first
    /// to be encoded behind a flush. One key before, exactly at and one key
    /// after both the last block before the flush and the first after it.
    fn counts_around_the_first_flush(block_keys: usize) -> [usize; 6] {
        let block_len = BLOCK_HEADER_LEN + block_keys * 8;
        let fit = (STAGE_BYTES - MAGIC.len()) / block_len * block_keys;
        let next = fit + block_keys;
        [fit - 1, fit, fit + 1, next - 1, next, next + 1]
    }

    #[test]
    fn streaming_writer_reproduces_the_reference_image() {
        for block_keys in [1usize, 63, 64, 4096] {
            let mut counts = vec![0usize, 1, block_keys, block_keys + 1];
            counts.extend(counts_around_the_first_flush(block_keys));
            counts.push(3 * STAGE_BYTES / 8 + 5);
            for n in counts {
                // Distinct high and low halves, so a narrowed or swapped
                // key cannot cancel out.
                let wide: Vec<u64> = (0..n as u64).map(|i| (i << 33) | (i * 7 + 1)).collect();
                let sink = assert_streams_the_reference(&wide, block_keys);
                assert_eq!(
                    sink.writes.len() > 1,
                    sink.bytes.len() > STAGE_BYTES,
                    "a file is flushed more than once iff it outgrows the buffer"
                );
                let narrow: Vec<u32> = (0..n as u32).map(|i| i * 3 / 2).collect();
                assert_streams_the_reference(&narrow, block_keys);
            }
        }
    }

    #[test]
    fn a_block_longer_than_the_buffer_is_streamed_in_pieces() {
        for block_keys in [PIECE_KEYS + 1, 2 * PIECE_KEYS + 3, usize::MAX] {
            for n in [PIECE_KEYS + 1, 2 * PIECE_KEYS + 3, 5 * PIECE_KEYS / 2 + 11] {
                let keys: Vec<u64> = (0..n as u64).map(|i| i * i).collect();
                assert_streams_the_reference(&keys, block_keys);
            }
        }
    }
}
