//! Store-level configuration.
//!
//! A value is settable only when two callers that are not tests or examples
//! need different values, or when it is a deployment setting; everything
//! else is a constant at the value every caller used (configuration chosen
//! by cost, not exported). What is left, and who needs it:
//!
//! * `spec`, `shards`, `auto_rebuild`, `metrics`, `durability`, `cold_start`
//!   — the repo benchmark's workloads set or pin each of them.
//! * `delta_threshold`, `background_maintenance` — justified only by the
//!   repo benchmark pinning them at their defaults; no second non-test
//!   caller needs a different value.
//! * `split_max_len` — the only way the oracle and concurrency suites force
//!   a split deterministically (a one-shard store is its own mean, so the
//!   skew signal never fires there).
//! * `metrics_addr` — a deployment setting: where `/metrics` is served.
//! * `retain_versions` — a deployment setting: the history depth
//!   (versions [`crate::ShardedStore::snapshot_at`] can serve) an operator
//!   pays for in retained cuts.
//! * [`DurabilityConfig`]: `sync` and `checkpoint_ops` — the benchmark's
//!   durable workloads set them; `snapshot_block_keys` — the golden
//!   directory `tests/data/parent-store` was written with 64-key blocks
//!   and is reproduced byte for byte.
//!
//! Constants instead of knobs: the rebalancer's skew factor (`SPLIT_SKEW`,
//! 4: split past 4× the mean shard size, merge below a quarter of it), the
//! latency sampling stride ([`crate::obs::LATENCY_SAMPLE`], 1-in-1024) and
//! the trace-ring size ([`crate::obs::TRACE_CAPACITY`], 1024 events). Retained versions are
//! evicted by count only. Group commit under [`SyncPolicy::Always`] and
//! incremental checkpoints are how the store always works. The deprecated
//! no-ops [`StoreConfig::build_threads`],
//! [`DurabilityConfig::group_commit`] and
//! [`DurabilityConfig::incremental_checkpoints`] stay only because the
//! repo benchmark still calls them.

use shift_table::spec::IndexSpec;

/// When the write-ahead log is flushed to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// `fdatasync` after every appended record: no acknowledged write is
    /// ever lost, at the cost of one device round-trip per write.
    Always,
    /// `fdatasync` once every `n` appended records: a crash loses at most
    /// the last `n − 1` acknowledged writes.
    EveryN(u32),
    /// Never sync explicitly; the OS page cache decides. A process crash
    /// loses nothing (the kernel still holds the pages), a power loss can
    /// lose everything since the last checkpoint.
    Os,
}

/// Durability knobs of a store opened with [`crate::ShardedStore::open`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// When WAL appends are flushed to stable storage.
    pub sync: SyncPolicy,
    /// Number of logged operations after which the maintenance worker takes
    /// a checkpoint (snapshot every shard, rotate the manifest, truncate
    /// the WAL). `0` disables automatic checkpoints — only explicit
    /// [`crate::ShardedStore::checkpoint`] calls persist snapshots then.
    pub checkpoint_ops: u64,
    /// Keys per block of v2 snapshot files. Smaller blocks tighten the
    /// blast radius of a corrupt byte and the cost of one cold read;
    /// larger blocks shrink the per-block header/index overhead. Clamped
    /// to at least 1 when writing.
    pub snapshot_block_keys: usize,
}

impl Default for DurabilityConfig {
    /// Sync every 64 records, checkpoint every 8192, 4096-key snapshot
    /// blocks.
    fn default() -> Self {
        Self {
            sync: SyncPolicy::EveryN(64),
            checkpoint_ops: 8192,
            snapshot_block_keys: 4096,
        }
    }
}

impl DurabilityConfig {
    /// The default durability configuration (see [`DurabilityConfig::default`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the WAL sync policy ([`SyncPolicy::EveryN`] is normalised to at
    /// least every record).
    pub fn sync(mut self, policy: SyncPolicy) -> Self {
        self.sync = match policy {
            SyncPolicy::EveryN(n) => SyncPolicy::EveryN(n.max(1)),
            p => p,
        };
        self
    }

    /// Set the automatic-checkpoint record threshold (`0` disables).
    pub fn checkpoint_ops(mut self, ops: u64) -> Self {
        self.checkpoint_ops = ops;
        self
    }

    /// Does nothing: under [`SyncPolicy::Always`] concurrent writers
    /// always share a leader's `fdatasync` (each write still returns only
    /// once its record is durable).
    #[deprecated(
        note = "group commit is always on under SyncPolicy::Always; this setting is ignored"
    )]
    pub fn group_commit(self, _on: bool) -> Self {
        self
    }

    /// Does nothing: a checkpoint always rewrites only the shards whose
    /// applied commit version advanced since their last snapshot and
    /// re-references the prior file for the rest (see [`crate::persist`]).
    #[deprecated(note = "checkpoints are always incremental; this setting is ignored")]
    pub fn incremental_checkpoints(self, _on: bool) -> Self {
        self
    }

    /// Set the keys-per-block granularity of v2 snapshot files (clamped to
    /// at least 1).
    pub fn snapshot_block_keys(mut self, keys: usize) -> Self {
        self.snapshot_block_keys = keys.max(1);
        self
    }
}

/// Configuration of a [`crate::ShardedStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// The model×layer spec every shard index is built from.
    pub spec: IndexSpec,
    /// Requested number of range shards. The effective count can be lower
    /// when duplicate runs swallow chunk boundaries (a run never spans two
    /// shards) or when there are fewer keys than shards — and it changes at
    /// run time once the rebalancer splits or merges shards.
    pub shards: usize,
    /// Number of buffered write operations (inserts plus recorded deletes)
    /// after which a shard is considered *dirty* and scheduled for a rebuild.
    pub delta_threshold: usize,
    /// When true (the default), a write that makes its shard dirty triggers
    /// that shard's rebuild before the write call returns. When false the
    /// shard is drained by the background [`crate::MaintenanceWorker`]
    /// (see [`StoreConfig::background_maintenance`]) or explicitly via
    /// [`crate::ShardedStore::maintain`].
    pub auto_rebuild: bool,
    /// When true, [`crate::ShardedStore::build`] spawns a background
    /// [`crate::MaintenanceWorker`] thread that compacts delta chains,
    /// rebuilds dirty shards and rebalances skewed ones while writers keep
    /// appending. The thread is shut down when the store is dropped.
    pub background_maintenance: bool,
    /// Absolute shard-size ceiling: a shard whose live key count exceeds
    /// this splits regardless of the skew signal. The rebalancer splits a
    /// shard past 4× the mean and merges one below a quarter of it; that
    /// signal is peer-relative, so a store configured with one shard —
    /// where the single shard *is* the mean — could otherwise grow without
    /// bound. `0` disables the absolute fallback.
    pub split_max_len: usize,
    /// Durability knobs used when the store is opened from a path
    /// ([`crate::ShardedStore::open`]); ignored by the in-memory
    /// [`crate::ShardedStore::build`]. `None` falls back to
    /// [`DurabilityConfig::default`] on open.
    pub durability: Option<DurabilityConfig>,
    /// When true, [`crate::ShardedStore::open`] *mounts* v2 snapshots cold
    /// — first reads are served off the per-block index in O(manifest +
    /// mount) time — and decodes + retrains the models in a background
    /// hydrator thread, swapping each shard hot as it finishes (see the
    /// cold → hot lifecycle in [`crate::persist`]). When false (the
    /// default), open decodes and retrains everything before returning,
    /// exactly as before.
    pub cold_start: bool,
    /// When true (the default), the store keeps its observability registry
    /// live: op counters, sampled latency histograms, maintenance trace
    /// events and per-shard access counters, all readable via
    /// [`crate::ShardedStore::metrics`] / `trace_events`. The hot-path cost
    /// is one relaxed counter increment per operation plus a 1-in-1024
    /// sampled timer (see [`crate::obs::LATENCY_SAMPLE`]); the `obs_gate`
    /// binary of `crates/bench` holds the read path's overhead below 3%. When
    /// false every instrumentation site short-circuits on one branch and
    /// the registry reports empty.
    pub metrics: bool,
    /// When set, the store serves Prometheus text at
    /// `http://<addr>/metrics` (and JSON at `/metrics.json`) from a
    /// background thread for as long as the store lives. Use port 0 for an
    /// ephemeral port (the bound address is available via
    /// [`crate::ShardedStore::metrics_addr`]). Requires
    /// [`StoreConfig::metrics`]; ignored when metrics are off.
    pub metrics_addr: Option<std::net::SocketAddr>,
    /// MVCC version retention: how many historical commit versions
    /// [`crate::ShardedStore::snapshot_at`] /
    /// [`crate::ShardedStore::scan_between`] can serve. Every commit
    /// captures its own cut and the oldest is evicted past this count. A
    /// retained version pins the delta runs and base snapshots it
    /// references (see [`crate::ShardedStore::version_stats`]). `0` (the
    /// default) disables retention: nothing is captured and writes pay
    /// nothing.
    pub retain_versions: usize,
}

impl StoreConfig {
    /// A configuration with the given spec and the default knobs
    /// (8 shards, 4096-op delta threshold, auto rebuild, no background
    /// worker, no retained versions). The delta chain's shape is not
    /// a knob: [`crate::delta::MAX_RUN_LEN`] and
    /// [`crate::delta::COMPACT_RUNS`] fix it.
    pub fn new(spec: IndexSpec) -> Self {
        Self {
            spec,
            shards: 8,
            delta_threshold: 4096,
            auto_rebuild: true,
            background_maintenance: false,
            split_max_len: 0,
            durability: None,
            cold_start: false,
            metrics: true,
            metrics_addr: None,
            retain_versions: 0,
        }
    }

    /// Set the shard count (clamped to at least 1).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Set the delta-buffer rebuild threshold (clamped to at least 1).
    pub fn delta_threshold(mut self, ops: usize) -> Self {
        self.delta_threshold = ops.max(1);
        self
    }

    /// Enable or disable rebuild-on-write.
    pub fn auto_rebuild(mut self, auto: bool) -> Self {
        self.auto_rebuild = auto;
        self
    }

    /// Does nothing: a shard's layer is built in one sequential pass, and
    /// the store's parallelism is its bounded task pool across shards.
    #[deprecated(note = "a shard's layer is built on one thread; this setting is ignored")]
    pub fn build_threads(self, _threads: usize) -> Self {
        self
    }

    /// Enable or disable the background maintenance worker.
    pub fn background_maintenance(mut self, on: bool) -> Self {
        self.background_maintenance = on;
        self
    }

    /// Set the absolute shard-size split ceiling (`0` disables the
    /// fallback; see [`StoreConfig::split_max_len`]).
    pub fn split_max_len(mut self, len: usize) -> Self {
        self.split_max_len = len;
        self
    }

    /// Set the durability configuration used by
    /// [`crate::ShardedStore::open`].
    pub fn durability(mut self, durability: DurabilityConfig) -> Self {
        self.durability = Some(durability);
        self
    }

    /// Enable or disable streaming (cold-start) opens — see
    /// [`StoreConfig::cold_start`].
    pub fn cold_start(mut self, on: bool) -> Self {
        self.cold_start = on;
        self
    }

    /// Enable or disable the observability registry — see
    /// [`StoreConfig::metrics`].
    pub fn metrics(mut self, on: bool) -> Self {
        self.metrics = on;
        self
    }

    /// Serve `/metrics` over HTTP from the given address for the life of
    /// the store — see [`StoreConfig::metrics_addr`].
    pub fn metrics_addr(mut self, addr: std::net::SocketAddr) -> Self {
        self.metrics_addr = Some(addr);
        self
    }

    /// Retain the newest `count` commit versions (`0` disables) — see
    /// [`StoreConfig::retain_versions`].
    pub fn retain_versions(mut self, count: usize) -> Self {
        self.retain_versions = count;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_style_knobs() {
        let spec = IndexSpec::parse("im+r1").unwrap();
        let c = StoreConfig::new(spec)
            .shards(0)
            .delta_threshold(0)
            .auto_rebuild(false)
            .background_maintenance(true)
            .split_max_len(10_000)
            .durability(DurabilityConfig::new().sync(SyncPolicy::EveryN(0)));
        assert_eq!(c.shards, 1);
        assert_eq!(c.delta_threshold, 1);
        assert!(!c.auto_rebuild);
        assert!(c.background_maintenance);
        assert_eq!(c.split_max_len, 10_000);
        assert_eq!(
            c.durability,
            Some(DurabilityConfig {
                sync: SyncPolicy::EveryN(1),
                checkpoint_ops: 8192,
                snapshot_block_keys: 4096,
            }),
            "EveryN(0) normalises to every record"
        );
        assert_eq!(
            DurabilityConfig::new()
                .snapshot_block_keys(0)
                .snapshot_block_keys,
            1,
            "block size clamps to at least one key"
        );
        assert!(!c.cold_start, "eager opens by default");
        assert!(StoreConfig::new(spec).cold_start(true).cold_start);
        let d0 = StoreConfig::new(spec);
        assert!(d0.metrics, "metrics on by default");
        assert_eq!(d0.metrics_addr, None, "no HTTP endpoint by default");
        let addr: std::net::SocketAddr = "127.0.0.1:0".parse().unwrap();
        let m = StoreConfig::new(spec).metrics(false).metrics_addr(addr);
        assert!(!m.metrics);
        assert_eq!(m.metrics_addr, Some(addr));
        assert_eq!(c.spec, spec);
        let d = StoreConfig::new(spec);
        assert_eq!(d.shards, 8);
        assert!(d.auto_rebuild);
        assert!(!d.background_maintenance);
        assert_eq!(d.split_max_len, 0, "absolute split fallback off by default");
        assert_eq!(d.durability, None, "in-memory by default");
        assert_eq!(DurabilityConfig::new().sync, SyncPolicy::EveryN(64));
        assert_eq!(DurabilityConfig::new().checkpoint_ops(0).checkpoint_ops, 0);
        assert_eq!(d.retain_versions, 0, "version retention off by default");
        assert_eq!(StoreConfig::new(spec).retain_versions(8).retain_versions, 8);
    }
}
