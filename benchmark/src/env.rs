//! The environment fingerprint every result file carries.

use crate::json::quote;
use std::path::{Path, PathBuf};

/// `benchmark/`, as compiled: scratch directories, result files and the
/// git lookup hang off it, so the binary works from any working directory.
pub fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Where result and trace files go (`benchmark/target/`).
pub fn output_dir() -> PathBuf {
    package_dir().join("target")
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `"L2=4096K L3=266240K"` from cpu0's cache directory, or `"unknown"`.
fn caches() -> String {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let read = |index: &Path, file: &str| {
        std::fs::read_to_string(index.join(file))
            .ok()
            .map(|s| s.trim().to_string())
    };
    let mut found = Vec::new();
    for i in 0..8 {
        let index = base.join(format!("index{i}"));
        let (Some(level), Some(size)) = (read(&index, "level"), read(&index, "size")) else {
            continue;
        };
        if level == "2" || level == "3" {
            found.push(format!("L{level}={size}"));
        }
    }
    if found.is_empty() {
        "unknown".into()
    } else {
        found.join(" ")
    }
}

/// The checked-out commit, read from `.git` without spawning `git`; the
/// driver's checkout is not a repository, so this is best effort.
fn git_sha() -> String {
    let git = package_dir().join("../.git");
    let head = match std::fs::read_to_string(git.join("HEAD")) {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(sha) = std::fs::read_to_string(git.join(reference)) {
        return sha.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where `/proc` is
/// not available.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The fingerprint as a JSON object.
pub fn fingerprint_json(seed: u64, trials: usize, seed_keys: usize, trace_ops: usize) -> String {
    format!(
        "{{\"nproc\":{},\"caches\":{},\"rustc\":{},\"git_sha\":{},\"seed\":{},\"trials\":{},\"seed_keys\":{},\"trace_ops\":{}}}",
        nproc(),
        quote(&caches()),
        quote(env!("BENCH_RUSTC_VERSION")),
        quote(&git_sha()),
        seed,
        trials,
        seed_keys,
        trace_ops
    )
}

/// The same facts as one line of text, for run headers and CALIBRATION.md.
pub fn fingerprint_line() -> String {
    format!(
        "nproc={} caches=[{}] rustc=[{}] git={}",
        nproc(),
        caches(),
        env!("BENCH_RUSTC_VERSION"),
        git_sha()
    )
}
