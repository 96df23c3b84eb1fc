//! Store-level error types.
//!
//! The in-memory build paths fail only with [`BuildError`] (unsorted keys, or
//! a shard too long for its layer);
//! the durable paths added by the persistence subsystem can also fail with
//! I/O errors, on-disk corruption, or a spec string that no longer parses.
//! [`StoreError`] is the union every fallible [`crate::ShardedStore`] method
//! returns.

use shift_table::error::BuildError;
use std::path::PathBuf;

/// Any error a [`crate::ShardedStore`] operation can surface.
#[derive(Debug)]
pub enum StoreError {
    /// An index (re)build failed: unsorted input keys, or more keys in one
    /// shard than its correction layer can cover.
    Build(BuildError),
    /// An I/O error from the write-ahead log, a snapshot or the manifest.
    Io(std::io::Error),
    /// An on-disk structure failed validation (bad magic, checksum mismatch,
    /// truncated body, unsorted snapshot keys, inconsistent manifest).
    Corrupt {
        /// The file that failed validation.
        path: PathBuf,
        /// What exactly was wrong with it.
        reason: String,
    },
    /// The spec string persisted in the manifest no longer parses.
    Spec {
        /// The offending spec text.
        text: String,
        /// The parse failure, rendered.
        reason: String,
    },
    /// A durability-only operation (checkpoint, stats) was invoked on a
    /// store that was built in memory rather than opened from a path.
    NotDurable,
    /// The write-ahead log was poisoned by an earlier append or sync
    /// failure: the durable tail of the live segment is in an unknown
    /// state, so no further durable write can be accepted until the store
    /// heals (in-memory reads keep working). Three ways out:
    /// [`crate::ShardedStore::repair_wal`] rotates to a fresh segment and
    /// restores writability immediately; a successful checkpoint is the
    /// full heal — snapshots are cut from the in-memory states, the damaged
    /// segment rotates away and writes resume on a fresh one; reopening
    /// the store instead recovers the durable prefix. Under group commit a
    /// *failed* sync also returns this to every writer whose record had
    /// not yet been proven durable — those writes are applied in memory
    /// but their durability is unknowable, and repair never resurrects
    /// them.
    WalPoisoned,
    /// An optimistic transaction failed first-committer-wins validation:
    /// between the transaction's snapshot and its commit attempt, another
    /// committed write changed something the transaction read. Exactly one
    /// of the fields names the first conflicting observation — a point key
    /// whose occurrence count moved, or a scanned range whose contents
    /// changed. Nothing was applied and no WAL frame was written; re-run
    /// the transaction body against a fresh snapshot (see
    /// [`crate::ShardedStore::commit_with_retries`]).
    TxnConflict {
        /// The point key whose count changed under the transaction, as the
        /// key's `u64` image (`Key::to_u64`).
        point: Option<u64>,
        /// The scanned `(lo, hi)` range whose result set changed under the
        /// transaction, as `u64` key images.
        range: Option<(u64, u64)>,
    },
    /// `snapshot_at`/`scan_between` named a commit version the retention
    /// ring no longer holds (never captured, or evicted by the count/age
    /// policy). [`crate::ShardedStore::retained_versions`] lists what is
    /// currently servable.
    VersionNotRetained {
        /// The requested commit version.
        cv: u64,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Build(e) => write!(f, "index build failed: {e}"),
            Self::Io(e) => write!(f, "store I/O failed: {e}"),
            Self::Corrupt { path, reason } => {
                write!(f, "corrupt store file {}: {reason}", path.display())
            }
            Self::Spec { text, reason } => {
                write!(f, "persisted spec {text:?} no longer parses: {reason}")
            }
            Self::NotDurable => write!(
                f,
                "operation requires a durable store (open one with ShardedStore::open)"
            ),
            Self::WalPoisoned => write!(
                f,
                "write-ahead log poisoned by an earlier append/sync failure; \
                 repair_wal() restores writability, or reopen the store to \
                 recover its durable prefix"
            ),
            Self::TxnConflict { point, range } => match (point, range) {
                (Some(k), _) => write!(
                    f,
                    "transaction conflict: key {k} was modified by a \
                     concurrent commit (first committer wins); retry against \
                     a fresh snapshot"
                ),
                (None, Some((lo, hi))) => write!(
                    f,
                    "transaction conflict: scanned range [{lo}, {hi}] was \
                     modified by a concurrent commit (first committer wins); \
                     retry against a fresh snapshot"
                ),
                (None, None) => write!(
                    f,
                    "transaction conflict: a concurrent commit invalidated \
                     the read set (first committer wins); retry against a \
                     fresh snapshot"
                ),
            },
            Self::VersionNotRetained { cv } => write!(
                f,
                "commit version {cv} is not retained (never captured or \
                 evicted by the retention policy); see retained_versions()"
            ),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Build(e) => Some(e),
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BuildError> for StoreError {
    fn from(e: BuildError) -> Self {
        Self::Build(e)
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_and_convert() {
        let e: StoreError = BuildError::UnsortedKeys { position: 3 }.into();
        assert!(e.to_string().contains("build"));
        let e: StoreError = std::io::Error::other("disk on fire").into();
        assert!(e.to_string().contains("disk on fire"));
        let e = StoreError::Corrupt {
            path: PathBuf::from("/x/manifest-0000000001"),
            reason: "bad crc".into(),
        };
        assert!(e.to_string().contains("bad crc"));
        assert!(StoreError::NotDurable.to_string().contains("open"));
        let e = StoreError::TxnConflict {
            point: Some(42),
            range: None,
        };
        assert!(e.to_string().contains("42"));
        assert!(e.to_string().contains("first committer wins"));
        let e = StoreError::TxnConflict {
            point: None,
            range: Some((10, 20)),
        };
        assert!(e.to_string().contains("[10, 20]"));
        let e = StoreError::TxnConflict {
            point: None,
            range: None,
        };
        assert!(e.to_string().contains("read set"));
        let e = StoreError::VersionNotRetained { cv: 7 };
        assert!(e.to_string().contains("version 7"));
    }
}
