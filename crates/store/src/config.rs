//! Store-level configuration.

use shift_table::spec::IndexSpec;
use std::time::Duration;

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
    /// Coalesce the `fdatasync`s of concurrent writers under
    /// [`SyncPolicy::Always`] (on by default): each write still returns
    /// only once its record is durable, but one leader's sync covers every
    /// record appended before it, recovering most of the
    /// [`SyncPolicy::EveryN`] throughput at full durability. Has no effect
    /// under the other policies. Disable to force the strict
    /// one-sync-per-record behaviour (e.g. to benchmark against it).
    pub group_commit: bool,
    /// When true (the default), a checkpoint rewrites only shards whose
    /// applied commit version advanced since their last snapshot and
    /// re-references the prior file for the rest (see
    /// [`crate::persist`]'s incremental-checkpoint invariants). Disable to
    /// force every checkpoint to rewrite every shard (e.g. to measure the
    /// write amplification incremental checkpoints save).
    pub incremental_checkpoints: bool,
    /// Keys per block of v2 snapshot files. Smaller blocks tighten the
    /// blast radius of a corrupt byte and the cost of one cold read;
    /// larger blocks shrink the per-block header/index overhead. Clamped
    /// to at least 1 when writing.
    pub snapshot_block_keys: usize,
}

impl Default for DurabilityConfig {
    /// Sync every 64 records, checkpoint every 8192 (incrementally), group
    /// commit on, 4096-key snapshot blocks.
    fn default() -> Self {
        Self {
            sync: SyncPolicy::EveryN(64),
            checkpoint_ops: 8192,
            group_commit: true,
            incremental_checkpoints: true,
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

    /// Enable or disable group commit under [`SyncPolicy::Always`].
    pub fn group_commit(mut self, on: bool) -> Self {
        self.group_commit = on;
        self
    }

    /// Enable or disable incremental checkpoints (skip-and-re-reference
    /// for shards whose applied version has not advanced).
    pub fn incremental_checkpoints(mut self, on: bool) -> Self {
        self.incremental_checkpoints = on;
        self
    }

    /// Set the keys-per-block granularity of v2 snapshot files (clamped to
    /// at least 1).
    pub fn snapshot_block_keys(mut self, keys: usize) -> Self {
        self.snapshot_block_keys = keys.max(1);
        self
    }
}

/// Retention policy of the MVCC version ring: which historical commit
/// versions [`crate::ShardedStore::snapshot_at`] can still serve.
///
/// A retained version is a full store-wide pinned cut — it holds `Arc`s to
/// the shard states (and thus the sealed delta runs and base snapshots) it
/// needs, so compaction, rebuilds and rebalancing never invalidate it; the
/// cost is the heap those structures would otherwise free (readable via
/// [`crate::ShardedStore::version_stats`]).
///
/// `count == 0` (the default) disables retention entirely: no versions are
/// captured and the write path pays nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RetainPolicy {
    /// Maximum number of retained versions; the oldest is evicted when a
    /// newer capture would exceed it. `0` disables retention.
    pub count: usize,
    /// Maximum age of a retained version; the maintenance worker evicts
    /// older ones each pass. `None` means age never evicts.
    pub max_age: Option<Duration>,
}

impl RetainPolicy {
    /// Retain up to `count` versions, no age bound.
    pub fn last(count: usize) -> Self {
        Self {
            count,
            max_age: None,
        }
    }

    /// Add an age bound: the maintenance worker evicts versions older than
    /// `age` each pass.
    pub fn max_age(mut self, age: Duration) -> Self {
        self.max_age = Some(age);
        self
    }

    /// True when the policy retains nothing (the default).
    pub fn is_disabled(&self) -> bool {
        self.count == 0
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
    /// Shard-size skew factor driving the rebalancer: a shard whose live
    /// key count exceeds `split_skew × mean` is split at a duplicate-run-
    /// aligned median fence, and a shard smaller than `mean / split_skew`
    /// is merged into its smaller neighbour. `0` disables rebalancing.
    pub split_skew: usize,
    /// Absolute shard-size ceiling: a shard whose live key count exceeds
    /// this splits regardless of the skew signal. The skew signal is
    /// peer-relative (`split_skew × mean`), so a store configured with one
    /// shard — where the single shard *is* the mean — could otherwise grow
    /// without bound. `0` disables the absolute fallback. Rebalancing as a
    /// whole is still gated by `split_skew != 0`.
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
    /// is one relaxed counter increment per operation plus a 1-in-N sampled
    /// timer (see [`StoreConfig::latency_sample`]); the `store_mixed` bench
    /// gates the end-to-end overhead below 3%. When false every
    /// instrumentation site short-circuits on one branch and the registry
    /// reports empty.
    pub metrics: bool,
    /// Sampling period for the latency histograms (rounded up to a power
    /// of two): one in `latency_sample` reads/writes pays the two
    /// `Instant::now()` calls. Counters are never sampled — they count
    /// every operation exactly.
    pub latency_sample: u64,
    /// Capacity of the maintenance trace-event ring (rounded up to a power
    /// of two, minimum 8). When full, the oldest events are dropped and
    /// counted exactly.
    pub trace_capacity: usize,
    /// When set, the store serves Prometheus text at
    /// `http://<addr>/metrics` (and JSON at `/metrics.json`) from a
    /// background thread for as long as the store lives. Use port 0 for an
    /// ephemeral port (the bound address is available via
    /// [`crate::ShardedStore::metrics_addr`]). Requires
    /// [`StoreConfig::metrics`]; ignored when metrics are off.
    pub metrics_addr: Option<std::net::SocketAddr>,
    /// MVCC version retention: how many historical commit versions (and how
    /// old) [`crate::ShardedStore::snapshot_at`] /
    /// [`crate::ShardedStore::scan_between`] can serve. Disabled by default
    /// (`count == 0`): nothing is captured and writes pay nothing.
    pub retain_versions: RetainPolicy,
}

impl StoreConfig {
    /// A configuration with the given spec and the default knobs
    /// (8 shards, 4096-op delta threshold, auto rebuild, no background
    /// worker, rebalancing at 4× mean skew). The delta chain's shape is not
    /// a knob: [`crate::delta::MAX_RUN_LEN`] and
    /// [`crate::delta::COMPACT_RUNS`] fix it.
    pub fn new(spec: IndexSpec) -> Self {
        Self {
            spec,
            shards: 8,
            delta_threshold: 4096,
            auto_rebuild: true,
            background_maintenance: false,
            split_skew: 4,
            split_max_len: 0,
            durability: None,
            cold_start: false,
            metrics: true,
            latency_sample: 1024,
            trace_capacity: 1024,
            metrics_addr: None,
            retain_versions: RetainPolicy::default(),
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

    /// Set the rebalancer's skew factor (`0` disables rebalancing).
    pub fn split_skew(mut self, factor: usize) -> Self {
        self.split_skew = factor;
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

    /// Set the latency-histogram sampling period (clamped to at least 1,
    /// rounded up to a power of two at use).
    pub fn latency_sample(mut self, period: u64) -> Self {
        self.latency_sample = period.max(1);
        self
    }

    /// Set the trace-event ring capacity (rounded up to a power of two,
    /// minimum 8, at use).
    pub fn trace_capacity(mut self, events: usize) -> Self {
        self.trace_capacity = events;
        self
    }

    /// Serve `/metrics` over HTTP from the given address for the life of
    /// the store — see [`StoreConfig::metrics_addr`].
    pub fn metrics_addr(mut self, addr: std::net::SocketAddr) -> Self {
        self.metrics_addr = Some(addr);
        self
    }

    /// Set the MVCC version-retention policy — see
    /// [`StoreConfig::retain_versions`].
    pub fn retain_versions(mut self, policy: RetainPolicy) -> Self {
        self.retain_versions = policy;
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
            .split_skew(3)
            .split_max_len(10_000)
            .durability(DurabilityConfig::new().sync(SyncPolicy::EveryN(0)));
        assert_eq!(c.shards, 1);
        assert_eq!(c.delta_threshold, 1);
        assert!(!c.auto_rebuild);
        assert!(c.background_maintenance);
        assert_eq!(c.split_skew, 3);
        assert_eq!(c.split_max_len, 10_000);
        assert_eq!(
            c.durability,
            Some(DurabilityConfig {
                sync: SyncPolicy::EveryN(1),
                checkpoint_ops: 8192,
                group_commit: true,
                incremental_checkpoints: true,
                snapshot_block_keys: 4096,
            }),
            "EveryN(0) normalises to every record"
        );
        assert!(
            !DurabilityConfig::new().group_commit(false).group_commit,
            "group commit can be disabled"
        );
        assert!(
            !DurabilityConfig::new()
                .incremental_checkpoints(false)
                .incremental_checkpoints,
            "incremental checkpoints can be disabled"
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
        assert_eq!(d0.latency_sample, 1024);
        assert_eq!(d0.trace_capacity, 1024);
        assert_eq!(d0.metrics_addr, None, "no HTTP endpoint by default");
        let addr: std::net::SocketAddr = "127.0.0.1:0".parse().unwrap();
        let m = StoreConfig::new(spec)
            .metrics(false)
            .latency_sample(0)
            .trace_capacity(16)
            .metrics_addr(addr);
        assert!(!m.metrics);
        assert_eq!(m.latency_sample, 1, "sampling period clamps to 1");
        assert_eq!(m.trace_capacity, 16);
        assert_eq!(m.metrics_addr, Some(addr));
        assert_eq!(c.spec, spec);
        let d = StoreConfig::new(spec);
        assert_eq!(d.shards, 8);
        assert!(d.auto_rebuild);
        assert!(!d.background_maintenance);
        assert_eq!(d.split_skew, 4);
        assert_eq!(d.split_max_len, 0, "absolute split fallback off by default");
        assert_eq!(d.durability, None, "in-memory by default");
        assert_eq!(DurabilityConfig::new().sync, SyncPolicy::EveryN(64));
        assert_eq!(DurabilityConfig::new().checkpoint_ops(0).checkpoint_ops, 0);
        assert!(
            d.retain_versions.is_disabled(),
            "version retention off by default"
        );
        let r = StoreConfig::new(spec)
            .retain_versions(RetainPolicy::last(8).max_age(Duration::from_secs(60)));
        assert_eq!(r.retain_versions.count, 8);
        assert_eq!(r.retain_versions.max_age, Some(Duration::from_secs(60)));
        assert!(!r.retain_versions.is_disabled());
    }
}
