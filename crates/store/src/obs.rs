//! The store's observability registry: named metrics, maintenance trace
//! events and the bounded maintenance-error ring.
//!
//! [`shift_obs`] provides the primitives (relaxed-atomic counters and
//! histograms, 1-in-N samplers, the lock-free trace ring, Prometheus/JSON
//! export); this module names them. `StoreObs` is the per-store registry
//! every instrumentation site records into, [`CATALOGUE`] is the complete
//! list of exported metric families (name, unit, help) — the rustdoc
//! "Observability" section in the crate root and the catalogue-completeness
//! test are both generated against it — and [`TraceEvent`] /[`TraceKind`]
//! define the structured maintenance-event schema drained via
//! [`crate::ShardedStore::trace_events`].
//!
//! ## Cost discipline
//!
//! Counting is one relaxed `fetch_add` per operation — and on the read and
//! write paths that *same* count drives every other decision: the
//! 1-in-[`LATENCY_SAMPLE`] latency timers arm off the
//! op counters (no dedicated sampler tick), and the per-shard access
//! counters are sampled 1-in-64 off a relaxed load of the read count (with
//! sampled bumps scaled by the stride), so an unsampled read's entire
//! metrics bill is one RMW plus two predicted branches. Unsampled calls
//! never read the clock. Maintenance phases (rebuild, compaction,
//! hydration, checkpoint) are timed unconditionally because they are
//! milliseconds-scale cold paths. With [`crate::StoreConfig::metrics`] off,
//! every site short-circuits on one predicted branch and `StoreObs` reports
//! empty.

use crate::config::StoreConfig;
use crate::error::StoreError;
use shift_obs::{Counter, Histogram, Metric, SampledTimer, TraceRing};
use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;

/// Maximum maintenance errors retained before the oldest is dropped (the
/// drop is counted exactly in `store_maintenance_errors_dropped_total`).
pub const ERROR_RING_CAPACITY: usize = 32;

/// Maintenance trace events retained before the oldest is dropped (the drop
/// is counted exactly in `store_trace_dropped_total`).
pub const TRACE_CAPACITY: usize = 1024;

/// One in this many reads (by key count) and writes (by call) pays the
/// latency timer's two clock reads. Counters are never sampled — they count
/// every operation exactly.
pub const LATENCY_SAMPLE: u64 = 1024;

/// Per-shard access counters are sampled 1-in-`2^ACCESS_SAMPLE_SHIFT`
/// reads: the sampling decision is a relaxed load of the read counter the
/// hot path already maintains, and sampled bumps are scaled by the stride
/// (`n << ACCESS_SAMPLE_SHIFT`) so the decayed counter still estimates the
/// true access rate. Unsampled reads pay no per-shard RMW at all.
pub(crate) const ACCESS_SAMPLE_SHIFT: u32 = 6;

/// The complete metric catalogue: `(name, unit, help)` for every family the
/// store can export. Families after `wal_append_ns` appear only on durable
/// stores (opened from a path); everything else is always present when
/// metrics are enabled. The catalogue-completeness test asserts
/// [`crate::ShardedStore::metrics`] and this list never diverge.
pub const CATALOGUE: &[(&str, &str, &str)] = &[
    (
        "store_reads_total",
        "ops",
        "Read operations (point lookups, counts, scans; batch lookups count per key) served by store snapshots.",
    ),
    (
        "store_writes_total",
        "ops",
        "Insert operations applied (batched inserts count per key).",
    ),
    (
        "store_deletes_total",
        "ops",
        "Delete operations applied (batched deletes count per key).",
    ),
    (
        "store_batches_total",
        "ops",
        "Atomic write batches applied.",
    ),
    (
        "store_cut_refreshes_total",
        "events",
        "Snapshot acquisitions that found the published cut stale (a write or a maintenance swap since) and re-pinned under the commit window.",
    ),
    (
        "store_rebuilds_total",
        "events",
        "Shard rebuilds (delta chain folded into a fresh corrected index).",
    ),
    (
        "store_compactions_total",
        "events",
        "Delta-chain compactions (inline or by the maintenance worker).",
    ),
    (
        "store_splits_total",
        "events",
        "Shard splits performed by the rebalancer.",
    ),
    (
        "store_merges_total",
        "events",
        "Shard merges performed by the rebalancer.",
    ),
    (
        "store_hydrations_total",
        "events",
        "Cold shards hydrated (decoded and retrained) after a cold-start open.",
    ),
    (
        "store_read_latency_ns",
        "ns",
        "Sampled read latency (1-in-1024 snapshot reads pays the timer).",
    ),
    (
        "store_write_latency_ns",
        "ns",
        "Sampled write latency (1-in-1024 inserts/deletes pays the timer).",
    ),
    (
        "store_rebuild_duration_ns",
        "ns",
        "Wall time of each shard rebuild (unsampled; cold path).",
    ),
    (
        "store_compaction_duration_ns",
        "ns",
        "Wall time of each worker delta-chain compaction (unsampled; cold path).",
    ),
    (
        "store_hydration_duration_ns",
        "ns",
        "Wall time of each cold-shard hydration (unsampled; cold path).",
    ),
    (
        "store_checkpoint_duration_ns",
        "ns",
        "Wall time of each checkpoint (unsampled; cold path).",
    ),
    (
        "store_shards",
        "shards",
        "Current shard count (changes on split/merge).",
    ),
    ("store_keys", "keys", "Live keys across all shards."),
    (
        "store_cold_shards",
        "shards",
        "Shards still cold (mounted but not yet hydrated).",
    ),
    (
        "store_layer_bytes",
        "bytes",
        "Bytes of the hot shards' correction layers (Shift-Tables), summed.",
    ),
    (
        "store_layer_patches",
        "words",
        "Words the hot shards' Shift-Table layers keep in their patch arrays: the patch of every escaped line, one whose drifts spread past what a unit fits (past 239, less the line's slope) or whose shifted windows would leave the column — its least drift and 16-bit offsets from it, 59 words and 236 bytes more, or where its drifts spread past 65,535 all 116 of them, 464 bytes more; a fetch from one reads its patch instead of the line's base and offsets.",
    ),
    (
        "store_delta_runs",
        "runs",
        "Unsealed delta runs across all shards (each costs one binary search per read).",
    ),
    (
        "store_delta_depth_max",
        "runs",
        "Deepest per-shard delta chain (unsealed runs).",
    ),
    (
        "store_delta_keys",
        "ops",
        "Buffered write operations across all delta chains.",
    ),
    (
        "store_shard_accesses",
        "ops",
        "Decayed per-shard access counter (sampled 1-in-64 reads, recorded scaled; halved each maintenance pass; the rebalancer's frequency signal).",
    ),
    (
        "store_trace_events_total",
        "events",
        "Maintenance trace events pushed into the ring.",
    ),
    (
        "store_trace_dropped_total",
        "events",
        "Trace events dropped by ring overflow (oldest first, counted exactly).",
    ),
    (
        "store_maintenance_errors_total",
        "errors",
        "Maintenance-worker errors captured in the error ring.",
    ),
    (
        "store_maintenance_errors_dropped_total",
        "errors",
        "Maintenance errors dropped by error-ring overflow (oldest first).",
    ),
    (
        "store_txn_begins_total",
        "txns",
        "Optimistic transactions begun (snapshots pinned with a read-set recorder).",
    ),
    (
        "store_txn_commits_total",
        "txns",
        "Optimistic transactions committed (read-set validated, writes applied).",
    ),
    (
        "store_txn_conflicts_total",
        "txns",
        "Optimistic transactions rejected by first-committer-wins validation.",
    ),
    (
        "store_version_evictions_total",
        "versions",
        "Retained MVCC versions evicted by the count/age retention policy.",
    ),
    (
        "store_retained_versions",
        "versions",
        "Historical commit versions currently retained for snapshot_at/scan_between.",
    ),
    (
        "store_retained_bytes",
        "bytes",
        "Approximate heap pinned by retained versions beyond the live state (shared structures counted once).",
    ),
    // --- durable stores only, from here down ---
    (
        "wal_records_total",
        "records",
        "Operations appended to the write-ahead log.",
    ),
    (
        "wal_bytes_total",
        "bytes",
        "Bytes appended to the write-ahead log.",
    ),
    (
        "wal_syncs_total",
        "events",
        "fdatasync calls issued against the write-ahead log.",
    ),
    (
        "wal_append_ns",
        "ns",
        "Sampled WAL append latency, lock-to-applied (1-in-64 appends pays the timer).",
    ),
    (
        "wal_sync_ns",
        "ns",
        "WAL fdatasync latency (unsampled; device-bound).",
    ),
    (
        "wal_group_commit_wave",
        "records",
        "Records proven durable per group-commit leader sync (wave size).",
    ),
    (
        "checkpoints_total",
        "events",
        "Checkpoints taken (explicit or maintenance-triggered).",
    ),
    (
        "checkpoint_shards_written_total",
        "shards",
        "Shard snapshots rewritten by checkpoints.",
    ),
    (
        "checkpoint_shards_skipped_total",
        "shards",
        "Shard snapshots re-referenced unchanged by incremental checkpoints.",
    ),
    (
        "checkpoint_bytes_written_total",
        "bytes",
        "Snapshot bytes written by checkpoints.",
    ),
    (
        "checkpoint_bytes_reused_total",
        "bytes",
        "Snapshot bytes re-referenced (not rewritten) by incremental checkpoints.",
    ),
];

/// Help text for a catalogued metric name (empty for unknown names — the
/// completeness test keeps that from ever being exported).
pub(crate) fn catalogue_help(name: &str) -> &'static str {
    CATALOGUE
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|(_, _, h)| *h)
        .unwrap_or("")
}

/// A catalogued counter sample.
pub(crate) fn counter_metric(name: &'static str, v: u64) -> Metric {
    Metric::counter(name, catalogue_help(name), v)
}

/// A catalogued gauge sample.
pub(crate) fn gauge_metric(name: &'static str, v: f64) -> Metric {
    Metric::gauge(name, catalogue_help(name), v)
}

/// A catalogued histogram sample.
pub(crate) fn hist_metric(name: &'static str, h: &Histogram) -> Metric {
    Metric::histogram(name, catalogue_help(name), h.snapshot())
}

/// Why a shard hydration was initiated (the payload of
/// [`TraceKind::HydrationTriggered`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HydrationReason {
    /// The background hydrator's sweep reached the shard.
    BackgroundSweep,
    /// A read touched the cold shard and enqueued its own hydration.
    FirstTouch,
    /// An explicit [`crate::ShardedStore::hydrate`] call.
    Explicit,
}

impl HydrationReason {
    pub(crate) fn code(self) -> u64 {
        match self {
            Self::BackgroundSweep => 0,
            Self::FirstTouch => 1,
            Self::Explicit => 2,
        }
    }

    fn from_code(code: u64) -> Option<Self> {
        match code {
            0 => Some(Self::BackgroundSweep),
            1 => Some(Self::FirstTouch),
            2 => Some(Self::Explicit),
            _ => None,
        }
    }
}

/// The kind of a structured maintenance [`TraceEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A shard rebuild completed; payload = duration in ns.
    Rebuild,
    /// A worker delta-chain compaction completed; payload = duration in ns.
    Compact,
    /// A shard split committed; payload = duration in ns.
    Split,
    /// A shard merge committed; payload = duration in ns.
    Merge,
    /// A cold shard's hydration was initiated; payload = a
    /// [`HydrationReason`] code (see [`TraceEvent::hydration_reason`]).
    HydrationTriggered,
    /// A cold shard finished hydrating; payload = duration in ns.
    Hydrated,
    /// A checkpoint committed; payload = snapshot bytes written.
    Checkpoint,
    /// The write-ahead log was repaired onto a fresh segment; payload = 0.
    WalRepair,
    /// The write-ahead log was poisoned by an append/sync failure;
    /// payload = 0.
    WalPoisoned,
    /// A maintenance-worker error was captured (the rendered error is in
    /// the error ring); payload = 0.
    MaintenanceError,
    /// An optimistic transaction failed first-committer-wins validation;
    /// payload = the conflicting point key's `u64` image, or `u64::MAX`
    /// for a range conflict.
    TxnConflict,
    /// A retained MVCC version was evicted by the retention policy; the
    /// event's commit version is the evicted cut's, payload = retained
    /// versions remaining after the eviction.
    VersionEvicted,
}

impl TraceKind {
    fn code(self) -> u64 {
        match self {
            Self::Rebuild => 1,
            Self::Compact => 2,
            Self::Split => 3,
            Self::Merge => 4,
            Self::HydrationTriggered => 5,
            Self::Hydrated => 6,
            Self::Checkpoint => 7,
            Self::WalRepair => 8,
            Self::WalPoisoned => 9,
            Self::MaintenanceError => 10,
            Self::TxnConflict => 11,
            Self::VersionEvicted => 12,
        }
    }

    fn from_code(code: u64) -> Option<Self> {
        match code {
            1 => Some(Self::Rebuild),
            2 => Some(Self::Compact),
            3 => Some(Self::Split),
            4 => Some(Self::Merge),
            5 => Some(Self::HydrationTriggered),
            6 => Some(Self::Hydrated),
            7 => Some(Self::Checkpoint),
            8 => Some(Self::WalRepair),
            9 => Some(Self::WalPoisoned),
            10 => Some(Self::MaintenanceError),
            11 => Some(Self::TxnConflict),
            12 => Some(Self::VersionEvicted),
            _ => None,
        }
    }
}

/// One structured maintenance event, drained via
/// [`crate::ShardedStore::trace_events`].
///
/// Events encode to the trace ring's `[u64; 4]` records as
/// `[kind, shard, commit_version, payload]` (`shard == u64::MAX` means
/// store-wide). The payload's meaning is per-kind — see [`TraceKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// What happened.
    pub kind: TraceKind,
    /// The shard it happened to (`None` for store-wide events such as
    /// checkpoints and WAL repair).
    pub shard: Option<u32>,
    /// The store commit version at the moment the event was recorded.
    pub commit_version: u64,
    /// Kind-specific payload (durations in ns, byte counts, reason codes);
    /// see [`TraceKind`].
    pub payload: u64,
}

impl TraceEvent {
    /// An event pinned to a shard.
    pub(crate) fn shard(kind: TraceKind, shard: usize, commit_version: u64, payload: u64) -> Self {
        Self {
            kind,
            shard: u32::try_from(shard).ok(),
            commit_version,
            payload,
        }
    }

    /// A store-wide event.
    pub(crate) fn store(kind: TraceKind, commit_version: u64, payload: u64) -> Self {
        Self {
            kind,
            shard: None,
            commit_version,
            payload,
        }
    }

    /// The hydration reason, when this is a
    /// [`TraceKind::HydrationTriggered`] event.
    pub fn hydration_reason(&self) -> Option<HydrationReason> {
        match self.kind {
            TraceKind::HydrationTriggered => HydrationReason::from_code(self.payload),
            _ => None,
        }
    }

    fn encode(self) -> [u64; 4] {
        [
            self.kind.code(),
            self.shard.map(u64::from).unwrap_or(u64::MAX),
            self.commit_version,
            self.payload,
        ]
    }

    fn decode(raw: [u64; 4]) -> Option<Self> {
        Some(Self {
            kind: TraceKind::from_code(raw[0])?,
            shard: if raw[1] == u64::MAX {
                None
            } else {
                u32::try_from(raw[1]).ok()
            },
            commit_version: raw[2],
            payload: raw[3],
        })
    }
}

impl std::fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.shard {
            Some(s) => write!(f, "{:?}(shard {s}, cv {})", self.kind, self.commit_version)?,
            None => write!(f, "{:?}(store, cv {})", self.kind, self.commit_version)?,
        }
        match self.kind {
            TraceKind::Rebuild
            | TraceKind::Compact
            | TraceKind::Split
            | TraceKind::Merge
            | TraceKind::Hydrated => write!(f, " in {}ns", self.payload),
            TraceKind::Checkpoint => write!(f, ", {} bytes written", self.payload),
            TraceKind::HydrationTriggered => {
                write!(f, ", reason {:?}", self.hydration_reason())
            }
            TraceKind::TxnConflict if self.payload != u64::MAX => {
                write!(f, " on key {}", self.payload)
            }
            TraceKind::VersionEvicted => write!(f, ", {} retained", self.payload),
            _ => Ok(()),
        }
    }
}

/// The per-store observability registry.
///
/// Constructed once per store from its [`StoreConfig`]; every
/// instrumentation site holds the same `Arc` and records through the
/// methods below. With metrics disabled every method is a single predicted
/// branch.
#[derive(Debug)]
pub(crate) struct StoreObs {
    enabled: bool,
    // Op counters: exact, never sampled.
    pub(crate) reads: Counter,
    pub(crate) writes: Counter,
    pub(crate) deletes: Counter,
    pub(crate) batches: Counter,
    pub(crate) cut_refreshes: Counter,
    pub(crate) compactions: Counter,
    pub(crate) hydrations: Counter,
    pub(crate) txn_begins: Counter,
    pub(crate) txn_commits: Counter,
    pub(crate) txn_conflicts: Counter,
    pub(crate) version_evictions: Counter,
    // Latency histograms: sampled on the hot paths, exact on cold paths.
    pub(crate) read_latency: Histogram,
    pub(crate) write_latency: Histogram,
    pub(crate) rebuild_ns: Histogram,
    pub(crate) compaction_ns: Histogram,
    pub(crate) hydration_ns: Histogram,
    pub(crate) checkpoint_ns: Histogram,
    trace: TraceRing,
    errors: Mutex<VecDeque<StoreError>>,
    errors_pushed: Counter,
    errors_dropped: Counter,
}

impl StoreObs {
    /// Build the registry for `config` (disabled when
    /// [`StoreConfig::metrics`] is off — every record path then
    /// short-circuits and reports stay empty).
    pub(crate) fn new(config: &StoreConfig) -> Self {
        let trace_capacity = if config.metrics { TRACE_CAPACITY } else { 8 };
        Self {
            enabled: config.metrics,
            reads: Counter::new(),
            writes: Counter::new(),
            deletes: Counter::new(),
            batches: Counter::new(),
            cut_refreshes: Counter::new(),
            compactions: Counter::new(),
            hydrations: Counter::new(),
            txn_begins: Counter::new(),
            txn_commits: Counter::new(),
            txn_conflicts: Counter::new(),
            version_evictions: Counter::new(),
            read_latency: Histogram::new(),
            write_latency: Histogram::new(),
            rebuild_ns: Histogram::new(),
            compaction_ns: Histogram::new(),
            hydration_ns: Histogram::new(),
            checkpoint_ns: Histogram::new(),
            trace: TraceRing::with_capacity(trace_capacity),
            errors: Mutex::new(VecDeque::new()),
            errors_pushed: Counter::new(),
            errors_dropped: Counter::new(),
        }
    }

    /// Is the registry live?
    #[inline]
    pub(crate) fn enabled(&self) -> bool {
        self.enabled
    }

    /// Count `n` read operations and maybe start a sampled read timer.
    ///
    /// The sampling decision rides on the read count itself: the timer arms
    /// when the add crosses a multiple of [`LATENCY_SAMPLE`], so a scalar
    /// read samples 1-in-1024 and a batch samples in proportion to its key
    /// count — and the unsampled path's only atomic RMW is the count.
    #[inline]
    pub(crate) fn reads_start(&self, n: u64) -> SampledTimer {
        if !self.enabled {
            return SampledTimer::disarmed();
        }
        let prev = self.reads.add_get(n);
        if prev / LATENCY_SAMPLE != (prev + n) / LATENCY_SAMPLE {
            SampledTimer::armed_now()
        } else {
            SampledTimer::disarmed()
        }
    }

    /// Finish a read timer started by [`StoreObs::reads_start`].
    #[inline]
    pub(crate) fn reads_done(&self, timer: SampledTimer) {
        timer.finish(&self.read_latency);
    }

    /// Maybe start a sampled write timer. The caller bumps the specific
    /// op counters itself; the sampling decision is a relaxed load of
    /// their sum, arming on every multiple of [`LATENCY_SAMPLE`] — no
    /// dedicated sampler tick.
    #[inline]
    pub(crate) fn write_start(&self) -> SampledTimer {
        if !self.enabled {
            return SampledTimer::disarmed();
        }
        let ops = self.writes.get() + self.deletes.get() + self.batches.get();
        if ops.is_multiple_of(LATENCY_SAMPLE) {
            SampledTimer::armed_now()
        } else {
            SampledTimer::disarmed()
        }
    }

    /// Finish a write timer started by [`StoreObs::write_start`].
    #[inline]
    pub(crate) fn write_done(&self, timer: SampledTimer) {
        timer.finish(&self.write_latency);
    }

    /// Should this read's per-shard access bump be recorded? Samples
    /// 1-in-`2^`[`ACCESS_SAMPLE_SHIFT`] reads off a relaxed load of the
    /// read counter the caller just paid for; sampled callers record
    /// `n << ACCESS_SAMPLE_SHIFT` to keep the decayed counter an unbiased
    /// estimate of the true access rate.
    #[inline]
    pub(crate) fn access_sampled(&self) -> bool {
        self.enabled && self.reads.get() & ((1 << ACCESS_SAMPLE_SHIFT) - 1) == 0
    }

    /// Count an exact, unsampled counter increment (no-op when disabled,
    /// and for `n == 0`: a commit of inserts alone pays no RMW for its
    /// delete count).
    #[inline]
    pub(crate) fn count(&self, counter: &Counter, n: u64) {
        if self.enabled && n != 0 {
            counter.add(n);
        }
    }

    /// Start timing a cold maintenance phase (rebuild, compaction,
    /// hydration, checkpoint). Unsampled by design: these run at
    /// millisecond scale on background threads, where two clock reads are
    /// noise.
    #[inline]
    pub(crate) fn phase_start(&self) -> Option<Instant> {
        if self.enabled {
            // lint: allow(timing) cold maintenance path — unsampled by design, ms-scale phases
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Elapsed nanoseconds of a phase timer (0 when metrics are disabled) —
    /// for phases that are traced but have no histogram of their own
    /// (splits, merges).
    pub(crate) fn phase_ns(&self, start: Option<Instant>) -> u64 {
        let Some(t0) = start else { return 0 };
        let ns = t0.elapsed().as_nanos();
        if ns > u64::MAX as u128 {
            u64::MAX
        } else {
            ns as u64
        }
    }

    /// Record a finished maintenance phase into `hist`; returns the elapsed
    /// nanoseconds (0 when disabled) for use as a trace-event payload.
    pub(crate) fn phase_done(&self, start: Option<Instant>, hist: &Histogram) -> u64 {
        let ns = self.phase_ns(start);
        if start.is_some() {
            hist.record(ns);
        }
        ns
    }

    /// Push a structured maintenance event into the trace ring.
    pub(crate) fn emit(&self, event: TraceEvent) {
        if self.enabled {
            self.trace.push(event.encode());
        }
    }

    /// Drain and decode every retained trace event, oldest first.
    pub(crate) fn drain_trace(&self) -> Vec<TraceEvent> {
        self.trace
            .drain()
            .into_iter()
            .filter_map(TraceEvent::decode)
            .collect()
    }

    /// Events pushed into the trace ring since the store opened.
    pub(crate) fn trace_pushed(&self) -> u64 {
        self.trace.pushed()
    }

    /// Events dropped by trace-ring overflow since the store opened.
    pub(crate) fn trace_dropped(&self) -> u64 {
        self.trace.dropped()
    }

    /// Capture a maintenance error into the bounded error ring (always on —
    /// errors must not vanish because metrics are off) and emit a
    /// [`TraceKind::MaintenanceError`] event.
    pub(crate) fn push_error(&self, shard: Option<usize>, commit_version: u64, error: StoreError) {
        self.emit(TraceEvent {
            kind: TraceKind::MaintenanceError,
            shard: shard.and_then(|s| u32::try_from(s).ok()),
            commit_version,
            payload: 0,
        });
        self.errors_pushed.inc();
        let mut ring = self.errors.lock().unwrap_or_else(|p| p.into_inner());
        if ring.len() >= ERROR_RING_CAPACITY {
            ring.pop_front();
            self.errors_dropped.inc();
        }
        ring.push_back(error);
    }

    /// Drain every retained maintenance error, oldest first.
    pub(crate) fn take_errors(&self) -> Vec<StoreError> {
        let mut ring = self.errors.lock().unwrap_or_else(|p| p.into_inner());
        ring.drain(..).collect()
    }

    /// The metrics this registry owns directly, in catalogue order.
    /// [`crate::ShardedStore::metrics`] appends the shard and
    /// durability families scraped from their owners.
    pub(crate) fn own_metrics(&self) -> Vec<Metric> {
        vec![
            counter_metric("store_reads_total", self.reads.get()),
            counter_metric("store_writes_total", self.writes.get()),
            counter_metric("store_deletes_total", self.deletes.get()),
            counter_metric("store_batches_total", self.batches.get()),
            counter_metric("store_cut_refreshes_total", self.cut_refreshes.get()),
            counter_metric("store_compactions_total", self.compactions.get()),
            counter_metric("store_hydrations_total", self.hydrations.get()),
            hist_metric("store_read_latency_ns", &self.read_latency),
            hist_metric("store_write_latency_ns", &self.write_latency),
            hist_metric("store_rebuild_duration_ns", &self.rebuild_ns),
            hist_metric("store_compaction_duration_ns", &self.compaction_ns),
            hist_metric("store_hydration_duration_ns", &self.hydration_ns),
            hist_metric("store_checkpoint_duration_ns", &self.checkpoint_ns),
            counter_metric("store_txn_begins_total", self.txn_begins.get()),
            counter_metric("store_txn_commits_total", self.txn_commits.get()),
            counter_metric("store_txn_conflicts_total", self.txn_conflicts.get()),
            counter_metric(
                "store_version_evictions_total",
                self.version_evictions.get(),
            ),
            counter_metric("store_trace_events_total", self.trace_pushed()),
            counter_metric("store_trace_dropped_total", self.trace_dropped()),
            counter_metric("store_maintenance_errors_total", self.errors_pushed.get()),
            counter_metric(
                "store_maintenance_errors_dropped_total",
                self.errors_dropped.get(),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shift_table::spec::IndexSpec;

    fn test_config(metrics: bool) -> StoreConfig {
        StoreConfig::new(IndexSpec::parse("im+r1").unwrap()).metrics(metrics)
    }

    #[test]
    fn trace_events_roundtrip_through_the_ring() {
        let obs = StoreObs::new(&test_config(true));
        obs.emit(TraceEvent::shard(TraceKind::Rebuild, 3, 17, 42));
        obs.emit(TraceEvent::store(TraceKind::Checkpoint, 18, 1024));
        obs.emit(TraceEvent::shard(
            TraceKind::HydrationTriggered,
            1,
            2,
            HydrationReason::FirstTouch.code(),
        ));
        let events = obs.drain_trace();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].kind, TraceKind::Rebuild);
        assert_eq!(events[0].shard, Some(3));
        assert_eq!(events[0].commit_version, 17);
        assert_eq!(events[0].payload, 42);
        assert_eq!(events[1].shard, None);
        assert_eq!(
            events[2].hydration_reason(),
            Some(HydrationReason::FirstTouch)
        );
        assert_eq!(events[0].hydration_reason(), None);
        assert!(events[0].to_string().contains("shard 3"));
        assert!(events[1].to_string().contains("1024 bytes"));
        assert!(obs.drain_trace().is_empty(), "drain consumes");
    }

    #[test]
    fn unknown_codes_decode_to_none() {
        assert!(TraceEvent::decode([999, 0, 0, 0]).is_none());
        assert_eq!(HydrationReason::from_code(77), None);
        for kind in [
            TraceKind::Rebuild,
            TraceKind::Compact,
            TraceKind::Split,
            TraceKind::Merge,
            TraceKind::HydrationTriggered,
            TraceKind::Hydrated,
            TraceKind::Checkpoint,
            TraceKind::WalRepair,
            TraceKind::WalPoisoned,
            TraceKind::MaintenanceError,
            TraceKind::TxnConflict,
            TraceKind::VersionEvicted,
        ] {
            assert_eq!(TraceKind::from_code(kind.code()), Some(kind));
        }
    }

    #[test]
    fn disabled_registry_records_nothing_but_keeps_errors() {
        let obs = StoreObs::new(&test_config(false));
        assert!(!obs.enabled());
        let t = obs.reads_start(5);
        assert!(!t.armed());
        obs.reads_done(t);
        obs.count(&obs.writes, 3);
        obs.emit(TraceEvent::store(TraceKind::Checkpoint, 1, 0));
        assert_eq!(obs.reads.get(), 0);
        assert_eq!(obs.writes.get(), 0);
        assert!(obs.drain_trace().is_empty());
        assert_eq!(obs.phase_start(), None);
        assert_eq!(obs.phase_done(None, &obs.rebuild_ns), 0);
        // Errors survive disabled metrics: losing failures is never OK.
        obs.push_error(Some(1), 9, StoreError::NotDurable);
        assert_eq!(obs.take_errors().len(), 1);
    }

    #[test]
    fn error_ring_bounds_and_counts_drops() {
        let obs = StoreObs::new(&test_config(true));
        for _ in 0..(ERROR_RING_CAPACITY + 5) {
            obs.push_error(None, 0, StoreError::NotDurable);
        }
        assert_eq!(obs.errors_pushed.get(), (ERROR_RING_CAPACITY + 5) as u64);
        assert_eq!(obs.errors_dropped.get(), 5);
        assert_eq!(obs.take_errors().len(), ERROR_RING_CAPACITY);
        assert!(obs.take_errors().is_empty(), "drain consumes");
        let events = obs.drain_trace();
        assert!(events.iter().all(|e| e.kind == TraceKind::MaintenanceError));
    }

    #[test]
    fn every_own_metric_is_catalogued() {
        let obs = StoreObs::new(&test_config(true));
        for m in obs.own_metrics() {
            assert!(
                CATALOGUE.iter().any(|(n, _, _)| *n == m.name),
                "uncatalogued metric {}",
                m.name
            );
            assert!(!m.help.is_empty(), "{} has no help text", m.name);
        }
    }

    #[test]
    fn catalogue_names_are_unique_and_prometheus_safe() {
        for (i, (name, unit, help)) in CATALOGUE.iter().enumerate() {
            assert!(!unit.is_empty() && !help.is_empty(), "{name}");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
                "{name}"
            );
            assert!(
                CATALOGUE[..i].iter().all(|(n, _, _)| n != name),
                "duplicate {name}"
            );
        }
    }
}
