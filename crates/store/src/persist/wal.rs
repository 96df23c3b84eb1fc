//! The write-ahead log: length-prefixed, CRC32-checksummed record segments,
//! plus the group committer that coalesces concurrent `fdatasync`s.
//!
//! ## On-disk format
//!
//! A WAL is a sequence of *segment* files named `wal-<start>.log`, where
//! `<start>` is the zero-padded store version of the segment's first
//! record. Versions are assigned contiguously — one version per record,
//! whether the record carries one operation or a whole batch — so segment
//! `i` holds exactly the versions `[start_i, start_{i+1})`. A fresh segment
//! is started on every store open and on every checkpoint (rotation), and a
//! segment is deleted once a checkpoint covers all of its records.
//!
//! Each record is one frame: a length prefix, a CRC32 and a payload. There
//! is **one record** — a version and the operations committed under it —
//! and it has **two encodings**, chosen by the front door the commit came
//! through (`Frame`). The **compact** encoding is what a lone
//! `insert`/`delete` appends, one operation with no count:
//!
//! ```text
//! ┌──────────┬──────────┬───────────────────────────────────────────┐
//! │ len: u32 │ crc: u32 │ payload (len = 17 bytes)                  │
//! │  (LE)    │  (LE)    │ version: u64 LE │ op: u8 │ key: u64 LE    │
//! └──────────┴──────────┴───────────────────────────────────────────┘
//! ```
//!
//! The **batch** encoding — what [`crate::WriteBatch`] and
//! [`crate::Txn::commit`] append, however many operations they hold —
//! shares the outer framing and is discriminated by the tag byte where the
//! compact encoding keeps its op:
//!
//! ```text
//! ┌──────────┬──────────┬────────────────────────────────────────────────────────┐
//! │ len: u32 │ crc: u32 │ payload (len = 13 + 9·n bytes)                         │
//! │  (LE)    │  (LE)    │ version: u64 │ tag: u8 = 2 │ n: u32 │ n × (op, key)    │
//! └──────────┴──────────┴────────────────────────────────────────────────────────┘
//! ```
//!
//! `crc` is the CRC32 (IEEE) of the payload. `op` is `0` for an insert,
//! `1` for a delete tombstone; tag `2` marks a batch. Keys are widened to
//! `u64` on disk regardless of the store's key width. Because a record is
//! one frame under one checksum, it is durable **all-or-nothing**: a crash
//! can never persist a prefix of a batch. Both encodings decode to the same
//! [`WalEntry`], and one function writes them (`WalWriter::append`, under
//! the store's one commit function — see `write.rs`).
//!
//! A reader stops at the first frame that is short, has an inconsistent
//! length, carries an unknown tag, or fails its checksum: that is the torn
//! tail of a crash, and everything before it is the durable prefix.
//!
//! ## Group commit
//!
//! Under [`SyncPolicy::Always`] every record must be durable before its
//! write is acknowledged — naively one `fdatasync` per record. The
//! crate-internal `GroupCommitter` instead lets concurrently submitted records share
//! syncs: each writer appends its frame (and applies in memory) under the
//! WAL lock, then waits on the committer; one waiter is elected *leader*,
//! syncs the file once — covering every frame appended before the sync —
//! and publishes how far durability reached, releasing every waiter at or
//! below that point. Writers that arrive while the leader is inside
//! `fdatasync` pile up behind the WAL lock and are drained by the *next*
//! leader's single sync, so `w` concurrent writers pay ~2 syncs per wave
//! instead of `w`.

use crate::batch::BatchOp;
use crate::config::SyncPolicy;
use crate::persist::crc32;
use sosd_data::key::Key;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex};

/// Payload bytes of a compact record: version (8) + op (1) + key (8).
pub const PAYLOAD_LEN: usize = 17;
/// Total frame bytes of a compact record: len (4) + crc (4) + payload.
pub const FRAME_LEN: usize = 8 + PAYLOAD_LEN;
/// Payload tag byte marking a batch-encoded record.
pub const BATCH_TAG: u8 = 2;
/// Payload bytes of a batch-encoded record holding `n` operations.
pub const fn batch_payload_len(n: usize) -> usize {
    8 + 1 + 4 + 9 * n
}

/// Which of the record's two encodings a commit is logged in. It follows
/// the front door, not the operation count: a one-operation
/// [`crate::WriteBatch`] or transaction has always been logged
/// batch-encoded, and the bytes on disk stay what they were.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Frame {
    /// A lone `insert` / `delete`: exactly one operation, no count.
    Op,
    /// A [`crate::WriteBatch`] or a transaction's writes.
    Batch,
}

/// One decoded WAL record, whichever way it was encoded: the operations
/// committed under one store version, in application order, keys widened to
/// `u64`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalEntry {
    /// The monotonic store version assigned to the commit.
    pub version: u64,
    /// The commit's operations.
    pub ops: Vec<BatchOp<u64>>,
}

impl WalEntry {
    /// Number of logical operations the entry carries.
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }
}

/// Encode one record as a complete frame — length prefix, CRC32, payload —
/// into `buf`, replacing what it held. The one encoder: the payload is the
/// version, then (batch encoding only) the tag and the count, then every
/// operation as `(op, key)`.
fn encode_frame<K: Key>(buf: &mut Vec<u8>, version: u64, ops: &[BatchOp<K>], frame: Frame) {
    debug_assert!(frame == Frame::Batch || ops.len() == 1);
    buf.clear();
    buf.extend_from_slice(&[0; 8]); // len and crc, filled in below
    buf.extend_from_slice(&version.to_le_bytes());
    if frame == Frame::Batch {
        buf.push(BATCH_TAG);
        buf.extend_from_slice(&(ops.len() as u32).to_le_bytes());
    }
    for op in ops {
        buf.push(matches!(op, BatchOp::Delete(_)) as u8);
        buf.extend_from_slice(&op.key().to_u64().to_le_bytes());
    }
    let (head, payload) = buf.split_at_mut(8);
    head[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    head[4..].copy_from_slice(&crc32(payload).to_le_bytes());
}

/// Decode one `(op, key)` pair of either encoding.
fn decode_op(pair: &[u8]) -> Option<BatchOp<u64>> {
    // lint: allow(panic) callers pass exactly 9 bytes; the key is the last 8
    let key = u64::from_le_bytes(pair[1..9].try_into().expect("8 bytes"));
    match pair[0] {
        0 => Some(BatchOp::Insert(key)),
        1 => Some(BatchOp::Delete(key)),
        _ => None,
    }
}

/// Decode one length- and CRC-validated payload into an entry. `None`
/// means an unknown shape (treated as a torn tail by the reader).
fn decode_payload(payload: &[u8]) -> Option<WalEntry> {
    if payload.len() < batch_payload_len(0) {
        return None;
    }
    // lint: allow(panic) slice length is fixed by the bounds check/slicing above; try_into cannot fail
    let version = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
    let pairs = if payload[8] == BATCH_TAG {
        // lint: allow(panic) slice length is fixed by the bounds check/slicing above; try_into cannot fail
        let count = u32::from_le_bytes(payload[9..13].try_into().expect("4 bytes")) as usize;
        if count == 0 || payload.len() != batch_payload_len(count) {
            return None;
        }
        &payload[13..]
    } else if payload.len() == PAYLOAD_LEN {
        &payload[8..]
    } else {
        return None;
    };
    let ops = pairs
        .chunks_exact(9)
        .map(decode_op)
        .collect::<Option<_>>()?;
    Some(WalEntry { version, ops })
}

/// File name of the segment whose first record carries `start`.
pub fn segment_name(start: u64) -> String {
    format!("wal-{start:020}.log")
}

/// Parse a segment file name back to its start version.
pub fn parse_segment_start(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?
        .strip_suffix(".log")?
        .parse()
        .ok()
}

/// The WAL segments of `dir` as `(start_version, path)` pairs, sorted by
/// start version (replay order).
pub fn list_segments(dir: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(start) = entry.file_name().to_str().and_then(parse_segment_start) {
            out.push((start, entry.path()));
        }
    }
    out.sort_unstable_by_key(|&(start, _)| start);
    Ok(out)
}

/// The decoded contents of one segment scan.
#[derive(Debug, Clone, Default)]
pub struct SegmentScan {
    /// The validated entries (of either encoding), in append (= version)
    /// order.
    pub records: Vec<WalEntry>,
    /// Byte offset of the end of each validated entry — `boundaries[i]` is
    /// where entry `i`'s frame ends, so truncating the file there keeps
    /// exactly the first `i + 1` entries (crash-point tests lean on this).
    pub boundaries: Vec<u64>,
    /// True when trailing bytes after the last validated entry were
    /// discarded (a torn frame, a checksum mismatch, or garbage).
    pub torn_tail: bool,
}

/// Scan a segment file, validating every frame. Never fails on a damaged
/// *tail* — a short frame, a bad length, an unknown tag or a CRC mismatch
/// terminates the scan with `torn_tail` set (recovery invariant 4); only
/// the initial open or read can error.
pub fn read_segment(path: &Path) -> std::io::Result<SegmentScan> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    let mut scan = SegmentScan::default();
    let mut at = 0usize;
    while bytes.len() - at >= 8 {
        // lint: allow(panic) slice length is fixed by the bounds check/slicing above; try_into cannot fail
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes")) as usize;
        // lint: allow(panic) slice length is fixed by the bounds check/slicing above; try_into cannot fail
        let crc = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().expect("4 bytes"));
        if bytes.len() - at - 8 < len {
            break; // short frame: the torn tail of a crash
        }
        let payload = &bytes[at + 8..at + 8 + len];
        if crc32(payload) != crc {
            break;
        }
        let Some(entry) = decode_payload(payload) else {
            break; // unknown record shape: treat as torn
        };
        at += 8 + len;
        scan.records.push(entry);
        scan.boundaries.push(at as u64);
    }
    scan.torn_tail = at < bytes.len();
    Ok(scan)
}

/// Appender over one open segment, enforcing the sync policy.
///
/// A *failed* append is rolled back: the segment is truncated to the last
/// accepted frame, so a write the caller saw fail can never be durable
/// (and a partial frame can never strand later acknowledged frames behind
/// garbage — the reader stops at the first bad frame). If even the
/// rollback fails the writer poisons itself and refuses further appends.
pub(crate) struct WalWriter {
    file: File,
    /// The sync policy. [`SyncPolicy::Always`] appends do **not** sync
    /// inline: the [`GroupCommitter`] owns the sync (after the in-memory
    /// apply, outside the append), so concurrent writers share it.
    policy: SyncPolicy,
    /// Appends since the last explicit sync (drives [`SyncPolicy::EveryN`]).
    unsynced: u32,
    /// `fdatasync`s issued against this segment (for the group-commit
    /// accounting surfaced by `DurabilityStats::wal_syncs`).
    syncs: u64,
    /// Bytes of accepted frames: every successful append ends here, and a
    /// failed one truncates back to here.
    len: u64,
    /// Set when a failed append could not be rolled back — or a deferred
    /// (group) sync failed: the segment tail is in an unknown state, so no
    /// further record may land after it.
    poisoned: bool,
    /// The encoded frame being appended, reused from record to record so the
    /// append path (which runs under the store-wide WAL lock) does not
    /// allocate.
    buf: Vec<u8>,
}

impl WalWriter {
    /// Start the segment whose first record will carry `start` (truncating
    /// any same-named leftover: a collision is only possible when that
    /// leftover holds no validated record, since replay advances the next
    /// version past every record it accepts).
    pub(crate) fn create(dir: &Path, start: u64, policy: SyncPolicy) -> std::io::Result<Self> {
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(dir.join(segment_name(start)))?;
        crate::persist::sync_dir(dir);
        Ok(Self {
            file,
            policy,
            unsynced: 0,
            syncs: 0,
            len: 0,
            poisoned: false,
            buf: Vec::new(),
        })
    }

    /// `fdatasync`s issued against this segment so far.
    pub(crate) fn sync_count(&self) -> u64 {
        self.syncs
    }

    /// True once an unrecoverable append/sync failure has been observed.
    pub(crate) fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Test hook: mark the writer poisoned as a failed sync would, without
    /// injecting a real I/O error.
    pub(crate) fn poison_for_tests(&mut self) {
        self.poisoned = true;
    }

    /// Append the record `(version, ops)` as one frame in the given
    /// encoding and apply the sync policy ([`SyncPolicy::Always`]'s sync is
    /// the group committer's). Returns the bytes written (for write-amplification
    /// accounting). The record is one frame under one checksum — durable
    /// all-or-nothing — but it advances the [`SyncPolicy::EveryN`] counter
    /// by its full operation count, so the documented "lose at most `n − 1`
    /// acknowledged *writes*" bound holds regardless of batching.
    ///
    /// On a short write the frame is rolled back (durably — the truncate is
    /// fsynced) before the error is returned, so the caller's view ("this
    /// write did not happen") matches the disk. On an inline *sync* error
    /// the writer additionally poisons itself: once `fdatasync` has failed,
    /// the kernel may drop the dirty pages of earlier acknowledged frames
    /// while clearing the error, so no durability promise about this
    /// segment can be kept any more and continuing to append would silently
    /// widen the loss beyond the documented `n − 1` bound.
    pub(crate) fn append<K: Key>(
        &mut self,
        version: u64,
        ops: &[BatchOp<K>],
        frame: Frame,
    ) -> std::io::Result<u64> {
        if self.poisoned {
            return Err(std::io::Error::other(
                "WAL writer poisoned by an earlier append or sync failure",
            ));
        }
        encode_frame(&mut self.buf, version, ops, frame);
        if let Err(e) = self.file.write_all(&self.buf) {
            if self.rollback().is_err() {
                self.poisoned = true;
            }
            return Err(e);
        }
        let ops = ops.len().min(u32::MAX as usize) as u32;
        self.unsynced = self.unsynced.saturating_add(ops);
        let sync_due = match self.policy {
            SyncPolicy::EveryN(n) => self.unsynced >= n.max(1),
            SyncPolicy::Always | SyncPolicy::Os => false,
        };
        if sync_due {
            if let Err(e) = self.sync() {
                let _ = self.rollback();
                return Err(e);
            }
        }
        self.len += self.buf.len() as u64;
        Ok(self.buf.len() as u64)
    }

    /// Truncate the segment back to the last accepted frame and make the
    /// truncate itself durable (without the fsync, a power loss could
    /// resurrect the rolled-back frame from cached metadata).
    fn rollback(&mut self) -> std::io::Result<()> {
        self.file.set_len(self.len)?;
        self.file.seek(SeekFrom::Start(self.len))?;
        self.file.sync_data()
    }

    /// Force everything appended so far to stable storage.
    ///
    /// A failed `fdatasync` **poisons the writer**, whichever path issued
    /// it (an inline policy sync, the checkpoint rotation, an explicit
    /// `sync_wal`, or a group-commit leader): the kernel reports a
    /// writeback error once per fd and may drop the dirty pages while
    /// clearing it, so a *later* sync on the same segment could falsely
    /// report lost records as durable. Once poisoned, no further append or
    /// sync is accepted — reopening the store recovers the durable prefix.
    pub(crate) fn sync(&mut self) -> std::io::Result<()> {
        if self.poisoned {
            return Err(std::io::Error::other(
                "WAL writer poisoned by an earlier append or sync failure",
            ));
        }
        self.syncs += 1;
        if let Err(e) = self.file.sync_data() {
            self.poisoned = true;
            return Err(e);
        }
        self.unsynced = 0;
        Ok(())
    }
}

/// Outcome of one group-commit wait (see [`GroupCommitter::commit`]).
#[derive(Debug)]
pub(crate) enum GroupCommitError {
    /// This waiter's own leader sync failed.
    Sync(std::io::Error),
    /// An earlier sync failure poisoned the log before this record became
    /// durable.
    Poisoned,
}

#[derive(Debug, Default)]
struct GroupState {
    /// Highest ticket (append sequence) proven durable.
    synced: u64,
    /// A leader is currently inside the sync.
    leader: bool,
    /// A sync failed on the **live** segment: no later ticket on it can
    /// ever become durable. Cleared by [`GroupCommitter::reset`] when a
    /// checkpoint rotates the poisoned segment away.
    failed: bool,
    /// Tickets below this belong to a poisoned, rotated-away segment whose
    /// unsynced durability is unknowable — they must still fail even after
    /// `failed` is cleared (unless `synced` already covered them before the
    /// failure, in which case they are genuinely durable).
    invalid_below: u64,
}

/// Coalesces the `fdatasync`s of concurrently committed records under
/// [`SyncPolicy::Always`] (see the module docs): waiters elect one leader
/// per wave, the leader's single sync covers every frame appended before
/// it, and everyone whose ticket the sync reached is released at once.
#[derive(Debug, Default)]
pub(crate) struct GroupCommitter {
    state: Mutex<GroupState>,
    cv: Condvar,
}

impl GroupCommitter {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Block until the append identified by `ticket` is durable. `sync` is
    /// the leader duty: flush the log and report the highest ticket the
    /// flush covered (the caller runs it under its WAL lock; this committer
    /// never holds its own state lock across it). `arrivals` is a cheap
    /// monotonic append counter: before paying the sync, the elected
    /// leader yields while it still observes new appends landing (bounded),
    /// so a burst of concurrent writers is drained by one deep wave instead
    /// of several shallow ones — a solo writer sees arrivals stop after one
    /// probe and syncs immediately.
    ///
    /// On a sync failure every waiter whose ticket was not yet covered
    /// gets an error — their records may or may not have reached the disk,
    /// and the caller is expected to poison the writer so the uncertainty
    /// cannot widen.
    pub(crate) fn commit(
        &self,
        ticket: u64,
        arrivals: impl Fn() -> u64,
        mut sync: impl FnMut() -> std::io::Result<u64>,
    ) -> Result<(), GroupCommitError> {
        // lint: allow(panic) group-commit state poisoning means a leader panicked mid-commit; propagate
        let mut st = self.state.lock().expect("group commit state poisoned");
        loop {
            if st.synced >= ticket {
                return Ok(()); // covered by a successful sync: durable
            }
            if st.failed || ticket < st.invalid_below {
                return Err(GroupCommitError::Poisoned);
            }
            if !st.leader {
                st.leader = true;
                drop(st);
                // Deepen the wave: while appends keep arriving, one yield
                // buys many more records per fdatasync. Bounded so a
                // steady trickle cannot delay durability indefinitely.
                let mut last = arrivals();
                for _ in 0..64 {
                    std::thread::yield_now();
                    let now = arrivals();
                    if now == last {
                        break;
                    }
                    last = now;
                }
                let result = sync();
                // lint: allow(panic) group-commit state poisoning means a leader panicked mid-commit; propagate
                st = self.state.lock().expect("group commit state poisoned");
                st.leader = false;
                match result {
                    Ok(upto) => st.synced = st.synced.max(upto),
                    Err(e) => {
                        st.failed = true;
                        self.cv.notify_all();
                        return Err(GroupCommitError::Sync(e));
                    }
                }
                self.cv.notify_all();
            } else {
                // lint: allow(panic) group-commit state poisoning means a leader panicked mid-commit; propagate
                st = self.cv.wait(st).expect("group commit state poisoned");
            }
        }
    }

    /// Heal the committer after a checkpoint rotated a **poisoned** segment
    /// away: tickets on the fresh segment (`>= next_ticket`) commit
    /// normally again, while tickets from the poisoned era keep failing —
    /// their records' durability is unknowable. Without this, the store
    /// would apply-and-append every post-rotation write but report it
    /// failed forever, and retrying callers would double-apply.
    pub(crate) fn reset(&self, next_ticket: u64) {
        // lint: allow(panic) group-commit state poisoning means a leader panicked mid-commit; propagate
        let mut st = self.state.lock().expect("group commit state poisoned");
        st.failed = false;
        st.invalid_below = st.invalid_below.max(next_ticket);
        drop(st);
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchOp::{Delete, Insert};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("shift-store-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create tmp dir");
        dir
    }

    /// `n` single-op entries, versions from 1, every third a delete.
    fn records(n: u64) -> Vec<WalEntry> {
        (0..n)
            .map(|i| WalEntry {
                version: i + 1,
                ops: vec![if i % 3 == 0 {
                    Delete(i * 977)
                } else {
                    Insert(i * 977)
                }],
            })
            .collect()
    }

    fn entry(version: u64, ops: &[BatchOp<u64>]) -> WalEntry {
        let ops = ops.to_vec();
        WalEntry { version, ops }
    }

    fn op_byte(op: BatchOp<u64>) -> u8 {
        matches!(op, Delete(_)) as u8
    }

    /// The single-op frame encoder this module shipped before the two
    /// encoders became one, kept verbatim as the reference.
    fn reference_op_frame(version: u64, op: BatchOp<u64>) -> [u8; FRAME_LEN] {
        let mut payload = [0u8; PAYLOAD_LEN];
        payload[..8].copy_from_slice(&version.to_le_bytes());
        payload[8] = op_byte(op);
        payload[9..17].copy_from_slice(&op.key().to_le_bytes());
        let mut frame = [0u8; FRAME_LEN];
        frame[..4].copy_from_slice(&(PAYLOAD_LEN as u32).to_le_bytes());
        frame[4..8].copy_from_slice(&crc32(&payload).to_le_bytes());
        frame[8..].copy_from_slice(&payload);
        frame
    }

    /// The batch payload encoder of the same vintage.
    fn reference_batch_payload(version: u64, ops: &[BatchOp<u64>]) -> Vec<u8> {
        let mut payload = Vec::with_capacity(batch_payload_len(ops.len()));
        payload.extend_from_slice(&version.to_le_bytes());
        payload.push(BATCH_TAG);
        payload.extend_from_slice(&(ops.len() as u32).to_le_bytes());
        for &op in ops {
            payload.push(op_byte(op));
            payload.extend_from_slice(&op.key().to_le_bytes());
        }
        payload
    }

    /// …and its framing: length prefix, CRC32, body.
    fn reference_frame(payload: &[u8]) -> Vec<u8> {
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        frame
    }

    /// Decode a whole frame the way `read_segment` does one.
    fn decode_frame(frame: &[u8]) -> Option<WalEntry> {
        let len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(frame[4..8].try_into().unwrap());
        assert_eq!(frame.len(), 8 + len);
        assert_eq!(crc32(&frame[8..]), crc);
        decode_payload(&frame[8..])
    }

    #[test]
    fn the_one_encoder_reproduces_both_reference_encoders_byte_for_byte() {
        let mut rng = sosd_data::rng::SplitMix64::new(0x0E0C);
        // One buffer throughout, longest frame first, so every later frame
        // is encoded over the remains of a longer one.
        let mut buf = Vec::new();
        for n in (1..=257usize).rev() {
            let version = rng.next_u64();
            let ops: Vec<BatchOp<u64>> = (0..n)
                .map(|_| match rng.next_below(2) {
                    0 => Insert(rng.next_u64()),
                    _ => Delete(rng.next_u64()),
                })
                .collect();
            encode_frame(&mut buf, version, &ops, Frame::Batch);
            assert_eq!(
                buf,
                reference_frame(&reference_batch_payload(version, &ops)),
                "batch of {n}"
            );
            assert_eq!(
                decode_frame(&buf),
                Some(entry(version, &ops)),
                "batch of {n}"
            );
            // Every op of the batch on its own, in the compact encoding.
            for &op in &ops[..n.min(4)] {
                encode_frame(&mut buf, version, &[op], Frame::Op);
                assert_eq!(buf, reference_op_frame(version, op), "{op:?}");
                assert_eq!(decode_frame(&buf), Some(entry(version, &[op])), "{op:?}");
            }
        }
        // A batch of one keeps the batch encoding (the golden directory's
        // tail holds such a frame: a one-write transaction) and decodes to
        // the entry the compact encoding of the same op decodes to.
        encode_frame(&mut buf, 9, &[Delete(77u64)], Frame::Batch);
        assert_eq!(buf.len(), 8 + batch_payload_len(1));
        assert_eq!(decode_frame(&buf), Some(entry(9, &[Delete(77)])));
        // Narrow keys are widened on disk.
        encode_frame(&mut buf, 9, &[Delete(77u32)], Frame::Op);
        assert_eq!(buf, reference_op_frame(9, Delete(77)));
    }

    #[test]
    fn append_then_scan_round_trips() {
        let dir = tmp_dir("roundtrip");
        let recs = records(20);
        let mut w = WalWriter::create(&dir, 1, SyncPolicy::EveryN(4)).unwrap();
        for r in &recs {
            let bytes = w.append(r.version, &r.ops, Frame::Op).unwrap();
            assert_eq!(bytes, FRAME_LEN as u64);
        }
        drop(w);
        let segments = list_segments(&dir).unwrap();
        assert_eq!(segments.len(), 1);
        assert_eq!(segments[0].0, 1);
        let scan = read_segment(&segments[0].1).unwrap();
        assert_eq!(scan.records, recs);
        assert!(!scan.torn_tail);
        assert_eq!(scan.boundaries.len(), 20);
        assert_eq!(*scan.boundaries.last().unwrap(), 20 * FRAME_LEN as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_records_round_trip_interleaved_with_singles() {
        let dir = tmp_dir("batch-roundtrip");
        let single = entry(1, &[Insert(42)]);
        let batch = entry(2, &[Insert(7), Delete(42), Insert(7)]);
        let tail = entry(3, &[Delete(7)]);
        let mut w = WalWriter::create(&dir, 1, SyncPolicy::Os).unwrap();
        assert_eq!(
            w.append(single.version, &single.ops, Frame::Op).unwrap(),
            FRAME_LEN as u64
        );
        assert_eq!(
            w.append(batch.version, &batch.ops, Frame::Batch).unwrap(),
            (8 + batch_payload_len(3)) as u64
        );
        w.append(tail.version, &tail.ops, Frame::Op).unwrap();
        drop(w);
        let scan = read_segment(&dir.join(segment_name(1))).unwrap();
        assert!(!scan.torn_tail);
        assert_eq!(scan.records, vec![single, batch, tail]);
        assert_eq!(scan.records[1].version, 2);
        assert_eq!(scan.records[1].op_count(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batches_advance_the_every_n_counter_by_their_op_count() {
        // The `EveryN(n)` loss bound is phrased in acknowledged *writes*:
        // a 64-op batch under EveryN(64) must sync just like 64 singles
        // would, not count as one record towards the threshold.
        let dir = tmp_dir("batch-everyn");
        let mut w = WalWriter::create(&dir, 1, SyncPolicy::EveryN(64)).unwrap();
        let batch: Vec<BatchOp<u64>> = (0..64u64).map(Insert).collect();
        w.append(1, &batch, Frame::Batch).unwrap();
        assert_eq!(w.sync_count(), 1, "64 batched ops hit the n = 64 bound");
        // A small batch leaves the counter partially filled…
        let small: Vec<BatchOp<u64>> = (0..60u64).map(Delete).collect();
        w.append(2, &small, Frame::Batch).unwrap();
        assert_eq!(w.sync_count(), 1);
        // …and singles top it up to the next sync.
        for v in 3..7u64 {
            w.append(v, &[Insert(v)], Frame::Op).unwrap();
        }
        assert_eq!(w.sync_count(), 2, "60 + 4 ops crossed the bound");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_batch_records_drop_whole_not_prefix() {
        let dir = tmp_dir("batch-torn");
        let single = entry(1, &[Insert(9)]);
        let batch: Vec<BatchOp<u64>> = (0..8u64).map(|i| Insert(i * 3)).collect();
        let mut w = WalWriter::create(&dir, 1, SyncPolicy::Os).unwrap();
        w.append(1, &single.ops, Frame::Op).unwrap();
        w.append(2, &batch, Frame::Batch).unwrap();
        drop(w);
        let path = dir.join(segment_name(1));
        let full = std::fs::read(&path).unwrap();

        // Truncate anywhere inside the batch frame: the single before it
        // survives, the batch vanishes whole — never a prefix of its ops.
        for cut in [1usize, 8, 13, 20, full.len() - FRAME_LEN - 1] {
            std::fs::write(&path, &full[..FRAME_LEN + cut]).unwrap();
            let scan = read_segment(&path).unwrap();
            assert_eq!(scan.records, vec![single.clone()], "cut {cut}");
            assert!(scan.torn_tail, "cut {cut}");
        }

        // A checksum-valid frame with a lying op count is rejected whole.
        let mut payload = reference_batch_payload(2, &batch);
        payload[9] = 7; // count 8 -> 7: length no longer matches
        let mut evil = full[..FRAME_LEN].to_vec();
        evil.extend_from_slice(&reference_frame(&payload));
        std::fs::write(&path, &evil).unwrap();
        let scan = read_segment(&path).unwrap();
        assert_eq!(scan.records, vec![single]);
        assert!(scan.torn_tail);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_and_corruption_end_the_scan() {
        let dir = tmp_dir("torn");
        let recs = records(10);
        let mut w = WalWriter::create(&dir, 1, SyncPolicy::Os).unwrap();
        for r in &recs {
            w.append(r.version, &r.ops, Frame::Op).unwrap();
        }
        drop(w);
        let path = dir.join(segment_name(1));
        let full = std::fs::read(&path).unwrap();

        // Truncate mid-record: the partial frame is discarded.
        std::fs::write(&path, &full[..4 * FRAME_LEN + 7]).unwrap();
        let scan = read_segment(&path).unwrap();
        assert_eq!(scan.records, recs[..4]);
        assert!(scan.torn_tail);

        // Flip one payload byte of record 6: records 0..=5 survive.
        let mut bent = full.clone();
        bent[6 * FRAME_LEN + 12] ^= 0xFF;
        std::fs::write(&path, &bent).unwrap();
        let scan = read_segment(&path).unwrap();
        assert_eq!(scan.records, recs[..6]);
        assert!(scan.torn_tail);

        // A bogus op byte is rejected by decode, not just by the CRC: craft
        // a frame with a valid checksum but op = 9.
        let mut payload = [0u8; PAYLOAD_LEN];
        payload[8] = 9;
        let mut evil = full[..2 * FRAME_LEN].to_vec();
        evil.extend_from_slice(&reference_frame(&payload));
        std::fs::write(&path, &evil).unwrap();
        let scan = read_segment(&path).unwrap();
        assert_eq!(scan.records, recs[..2]);
        assert!(scan.torn_tail);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_committer_fails_poisoned_era_tickets_and_heals_on_reset() {
        let g = GroupCommitter::new();
        let no_arrivals = || 0u64;
        // Ticket 3 synced successfully through version 5.
        assert!(g.commit(3, no_arrivals, || Ok(5)).is_ok());
        // Ticket 7's leader sync fails: the committer is failed.
        assert!(matches!(
            g.commit(7, no_arrivals, || Err(std::io::Error::other("EIO"))),
            Err(GroupCommitError::Sync(_))
        ));
        // Everything not already covered now fails fast, even with a sync
        // that would succeed (no leader may run while failed).
        assert!(matches!(
            g.commit(6, no_arrivals, || Ok(100)),
            Err(GroupCommitError::Poisoned)
        ));
        // …but a ticket the pre-failure sync covered is genuinely durable.
        assert!(g.commit(4, no_arrivals, || Ok(100)).is_ok());

        // A checkpoint rotates the poisoned segment away at version 10.
        g.reset(10);
        // Poisoned-era tickets stay rejected (durability unknowable)…
        assert!(matches!(
            g.commit(8, no_arrivals, || Ok(100)),
            Err(GroupCommitError::Poisoned)
        ));
        // …old durable tickets stay Ok, and fresh-segment tickets commit.
        assert!(g.commit(5, no_arrivals, || Ok(100)).is_ok());
        assert!(g.commit(11, no_arrivals, || Ok(12)).is_ok());
    }

    #[test]
    fn segments_list_in_version_order() {
        let dir = tmp_dir("order");
        for start in [900u64, 1, 37] {
            WalWriter::create(&dir, start, SyncPolicy::Os).unwrap();
        }
        let starts: Vec<u64> = list_segments(&dir).unwrap().iter().map(|s| s.0).collect();
        assert_eq!(starts, vec![1, 37, 900]);
        assert_eq!(parse_segment_start(&segment_name(42)), Some(42));
        assert_eq!(parse_segment_start("wal-x.log"), None);
        assert_eq!(parse_segment_start("manifest-1"), None);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
