//! The checkpoint manifest: the atomically-rotated root of recovery.
//!
//! ## On-disk format
//!
//! A manifest is a UTF-8 line file named `manifest-<seq>` (`seq` strictly
//! increasing per checkpoint). It is written to a `.tmp` sibling, fsynced,
//! and renamed into place, so a crash can never expose a half-written
//! manifest under a valid name; recovery picks the newest sequence that
//! still validates and treats anything newer-but-broken as the torn debris
//! of an interrupted checkpoint.
//!
//! ```text
//! shift-store-manifest 1
//! seq 7
//! version 1234            ← checkpoint version cv
//! spec im+r1              ← IndexSpec display form, reparsed on load
//! fences 3
//! fence 17
//! fence 940
//! fence 52001
//! shards 3
//! shard snap-0000000007-0000.snap 1234
//! shard snap-0000000007-0001.snap 1234
//! shard snap-0000000007-0002.snap 1234
//! end
//! ```
//!
//! `fences` lists the router's fence keys (widened to `u64`; empty for a
//! store that has never held a key), and each `shard` line pairs a snapshot
//! file with the store version it is consistent with — `cv` for shards the
//! checkpoint rewrote, the *prior* manifest's value for clean shards an
//! incremental checkpoint re-referenced (replay past an older floor is
//! idempotent, so the lower gate is safe). The trailing `end` guards
//! against truncation on filesystems that rename non-atomically.
//!
//! Versions count WAL *records*, and a multi-op batch record
//! ([`crate::WriteBatch`], batch-encoded) consumes exactly one — so `cv`
//! can never land in the middle of a batch: a checkpoint's snapshots
//! contain whole batches, and replay past `cv` re-applies whole batches.

use crate::error::StoreError;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Format version this module writes and understands.
pub const FORMAT_VERSION: u32 = 1;

/// One shard entry of a manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestShard {
    /// Snapshot file name (relative to the store directory).
    pub snapshot: String,
    /// Store version the snapshot is consistent with: replaying a WAL
    /// record at or below it into this shard is a no-op.
    pub applied: u64,
}

/// A parsed checkpoint manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Rotation sequence number (strictly increasing per checkpoint).
    pub seq: u64,
    /// The checkpoint version `cv`: every write `<= cv` is contained in the
    /// referenced snapshots, and no later write is.
    pub version: u64,
    /// The index spec, in its canonical display form.
    pub spec: String,
    /// The fence table of the checkpointed topology, widened to `u64`.
    /// Empty only for a store that has never held a key.
    pub fences: Vec<u64>,
    /// One entry per shard, in router order.
    pub shards: Vec<ManifestShard>,
}

/// File name of the manifest with sequence `seq`.
pub fn manifest_name(seq: u64) -> String {
    format!("manifest-{seq:010}")
}

/// Parse a manifest file name back to its sequence number.
pub fn parse_manifest_seq(name: &str) -> Option<u64> {
    name.strip_prefix("manifest-")?.parse().ok()
}

/// The manifests present in `dir`, newest first.
pub fn list_manifests(dir: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(seq) = entry.file_name().to_str().and_then(parse_manifest_seq) {
            out.push((seq, entry.path()));
        }
    }
    out.sort_unstable_by_key(|&(seq, _)| std::cmp::Reverse(seq));
    Ok(out)
}

/// Write `m` to `dir` durably: temp file → fsync → rename → directory sync.
pub(crate) fn write_manifest(dir: &Path, m: &Manifest) -> std::io::Result<PathBuf> {
    let mut text = String::new();
    text.push_str(&format!("shift-store-manifest {FORMAT_VERSION}\n"));
    text.push_str(&format!("seq {}\n", m.seq));
    text.push_str(&format!("version {}\n", m.version));
    text.push_str(&format!("spec {}\n", m.spec));
    text.push_str(&format!("fences {}\n", m.fences.len()));
    for f in &m.fences {
        text.push_str(&format!("fence {f}\n"));
    }
    text.push_str(&format!("shards {}\n", m.shards.len()));
    for s in &m.shards {
        text.push_str(&format!("shard {} {}\n", s.snapshot, s.applied));
    }
    text.push_str("end\n");

    let final_path = dir.join(manifest_name(m.seq));
    let tmp_path = final_path.with_extension("tmp");
    let mut tmp = std::fs::File::create(&tmp_path)?;
    tmp.write_all(text.as_bytes())?;
    tmp.sync_all()?;
    drop(tmp);
    std::fs::rename(&tmp_path, &final_path)?;
    crate::persist::sync_dir(dir);
    Ok(final_path)
}

fn corrupt(path: &Path, reason: impl Into<String>) -> StoreError {
    StoreError::Corrupt {
        path: path.to_path_buf(),
        reason: reason.into(),
    }
}

/// Load and validate a manifest file.
///
/// # Errors
/// [`StoreError::Corrupt`] on any structural problem (bad header, missing
/// `end`, counts that disagree with the listed lines, unparsable numbers);
/// [`StoreError::Io`] when the file cannot be read.
pub fn load_manifest(path: &Path) -> Result<Manifest, StoreError> {
    let text = std::fs::read_to_string(path)?;
    let mut lines = text.lines();
    let mut field = |name: &str| -> Result<String, StoreError> {
        let line = lines
            .next()
            .ok_or_else(|| corrupt(path, format!("missing {name} line")))?;
        line.strip_prefix(name)
            .and_then(|rest| rest.strip_prefix(' '))
            .map(str::to_string)
            .ok_or_else(|| corrupt(path, format!("expected {name:?} line, got {line:?}")))
    };
    let parse_u64 = |name: &str, v: &str| -> Result<u64, StoreError> {
        v.parse()
            .map_err(|_| corrupt(path, format!("{name} is not a number: {v:?}")))
    };

    let version = field("shift-store-manifest")?;
    if parse_u64("format version", &version)? != FORMAT_VERSION as u64 {
        return Err(corrupt(
            path,
            format!("unsupported format version {version}"),
        ));
    }
    let seq = parse_u64("seq", &field("seq")?)?;
    let cv = parse_u64("version", &field("version")?)?;
    let spec = field("spec")?;
    // Counts come from unchecksummed text: clamp the pre-allocations so a
    // corrupt digit yields StoreError::Corrupt at the missing line below,
    // never a capacity-overflow abort inside `open`.
    let fence_count = parse_u64("fences", &field("fences")?)?;
    let mut fences = Vec::with_capacity(fence_count.min(1 << 16) as usize);
    for _ in 0..fence_count {
        fences.push(parse_u64("fence", &field("fence")?)?);
    }
    let shard_count = parse_u64("shards", &field("shards")?)?;
    let mut shards = Vec::with_capacity(shard_count.min(1 << 16) as usize);
    for _ in 0..shard_count {
        let line = field("shard")?;
        let (snapshot, applied) = line
            .rsplit_once(' ')
            .ok_or_else(|| corrupt(path, format!("malformed shard line {line:?}")))?;
        shards.push(ManifestShard {
            snapshot: snapshot.to_string(),
            applied: parse_u64("shard applied version", applied)?,
        });
    }
    if lines.next() != Some("end") {
        return Err(corrupt(path, "missing end marker (torn manifest)"));
    }
    if !fences.is_empty() && fences.len() != shards.len() {
        return Err(corrupt(
            path,
            format!("{} fences for {} shards", fences.len(), shards.len()),
        ));
    }
    if !fences.windows(2).all(|w| w[0] < w[1]) {
        return Err(corrupt(path, "fence table is not strictly increasing"));
    }
    Ok(Manifest {
        seq,
        version: cv,
        spec,
        fences,
        shards,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("shift-store-manifest-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create tmp dir");
        dir
    }

    fn sample(seq: u64) -> Manifest {
        Manifest {
            seq,
            version: 1234,
            spec: "rmi:64+r1".into(),
            fences: vec![17, 940, 52_001],
            shards: (0..3)
                .map(|i| ManifestShard {
                    snapshot: crate::persist::snapshot_name(seq, i),
                    applied: 1234,
                })
                .collect(),
        }
    }

    #[test]
    fn manifest_round_trips_and_lists_newest_first() {
        let dir = tmp("roundtrip");
        for seq in [1u64, 3, 2] {
            write_manifest(&dir, &sample(seq)).unwrap();
        }
        let listed = list_manifests(&dir).unwrap();
        assert_eq!(
            listed.iter().map(|m| m.0).collect::<Vec<_>>(),
            vec![3, 2, 1]
        );
        let loaded = load_manifest(&listed[0].1).unwrap();
        assert_eq!(loaded, sample(3));
        assert!(
            !dir.join(manifest_name(3)).with_extension("tmp").exists(),
            "tmp file must be renamed away"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_fence_table_round_trips() {
        let dir = tmp("empty");
        let m = Manifest {
            seq: 1,
            version: 0,
            spec: "im+r1".into(),
            fences: vec![],
            shards: vec![ManifestShard {
                snapshot: "snap-0000000001-0000.snap".into(),
                applied: 0,
            }],
        };
        let path = write_manifest(&dir, &m).unwrap();
        assert_eq!(load_manifest(&path).unwrap(), m);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn damage_is_rejected() {
        let dir = tmp("damage");
        let path = write_manifest(&dir, &sample(5)).unwrap();
        let good = std::fs::read_to_string(&path).unwrap();

        // Torn write: missing `end`.
        std::fs::write(&path, good.trim_end_matches("end\n")).unwrap();
        assert!(matches!(
            load_manifest(&path),
            Err(StoreError::Corrupt { .. })
        ));
        // Fence/shard count mismatch.
        std::fs::write(
            &path,
            good.replace("fences 3", "fences 2")
                .replace("fence 17\n", ""),
        )
        .unwrap();
        assert!(load_manifest(&path).is_err());
        // Unsorted fences.
        std::fs::write(&path, good.replace("fence 940", "fence 5")).unwrap();
        assert!(load_manifest(&path).is_err());
        // Wrong format version.
        std::fs::write(&path, good.replace("manifest 1", "manifest 9")).unwrap();
        assert!(load_manifest(&path).is_err());
        // A corrupt astronomic count must come back as Corrupt, not abort
        // in the pre-allocation.
        std::fs::write(
            &path,
            good.replace("fences 3", "fences 18446744073709551615"),
        )
        .unwrap();
        assert!(matches!(
            load_manifest(&path),
            Err(StoreError::Corrupt { .. })
        ));
        std::fs::write(&path, good.replace("shards 3", "shards 9999999999")).unwrap();
        assert!(matches!(
            load_manifest(&path),
            Err(StoreError::Corrupt { .. })
        ));
        assert_eq!(parse_manifest_seq("manifest-0000000005"), Some(5));
        assert_eq!(parse_manifest_seq("manifest-0000000005.tmp"), None);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
