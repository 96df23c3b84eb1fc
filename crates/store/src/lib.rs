//! # shift-store: a sharded, updatable serving layer with a lock-free
//! read path
//!
//! The `shift-table` crate builds *static* corrected range indexes — one
//! sorted key column, one learned model, one correction layer. This crate
//! turns those into a concurrent serving system:
//!
//! * [`StoreShard`] — the updatable building block: an epoch-stamped
//!   [`ShardSnapshot`] (sorted base + learned index) paired with an
//!   immutable [`DeltaChain`] of buffered writes, published together as one
//!   [`ShardState`].
//! * [`ShardedStore`] — the full store: `N` shards range-partitioned
//!   behind a fence-key router in an atomically republished [`StoreTable`]
//!   (batched lookups are grouped by shard so each shard's pipelined batch
//!   kernel is preserved), one write path that transparently re-routes
//!   around splits/merges, and an optional background
//!   [`MaintenanceWorker`]. Never written to, it is the read-only sharded
//!   index.
//!
//! The store implements [`algo_index::RangeIndex`], so it drops into every
//! harness that benchmarks the static indexes.
//!
//! ## Kernel-backed read path
//!
//! Every batched read bottoms out in the core crate's software-pipelined
//! lookup kernel ([`shift_table::kernel`]): per-shard query groups run the
//! corrected index's predict → correct → touch → resolve wave pipeline, the
//! delta shift is accumulated **run-outer** per block
//! ([`DeltaChain::net_below_batch`]) so a run's entry array stays
//! cache-resident across the whole block, and a still-cold base answers
//! batches through its own route → touch → resolve stage split
//! ([`persist::v2::ColdBase::lower_bound_batch`]). Ranges ride the same
//! path: both endpoints of a snapshot's `range` (and
//! [`ShardState::range`]) travel as one two-query batch whenever they
//! resolve in one shard, and [`StoreSnapshot::scan`] derives its per-shard
//! start positions from the kernel-backed `range` of each pinned index.
//!
//! ## Concurrency model
//!
//! Every piece of state a read touches is **immutable and published by
//! pointer swap**:
//!
//! * A shard's state — base snapshot *and* delta chain — is one immutable
//!   [`ShardState`] behind an [`EpochCell`]. A scalar or batched read pins
//!   the state once (a single `Arc` acquisition) and then runs **pure
//!   merges**: probe the learned index, add the chain's prefix sums. No
//!   mutex or `RwLock` is held after that acquisition — in particular, no
//!   lock is held while probing the index — and a read that finds an empty
//!   chain skips the merge machinery entirely.
//! * The delta chain is a short, newest-first list of immutable sorted
//!   runs ([`DeltaRun`]). A write publishes a successor chain that amends
//!   the small head run by copy (up to [`delta::MAX_RUN_LEN`] entries) or
//!   prepends a singleton, folding the unsealed runs into one once there
//!   are [`delta::COMPACT_RUNS`] of them; all other runs are shared by
//!   `Arc`. Both bounds are constants, so live chains have one shape.
//!   Writers are serialised by a per-shard mutex that readers never take.
//! * **One merge path.** Everything that combines sorted deltas with a
//!   sorted column — the rebuild, split, merge, checkpoint and scan views
//!   of a dirty shard, chain compaction, the `scan_between` diff, a
//!   transaction's read-your-writes scan, WAL replay — is a call into the
//!   crate-private `merge` module: `consolidate` (sorted `(key, net)`
//!   sources → one run, equal keys summed, zeros dropped), `splice` (one
//!   run into one column, untouched stretches copied in bulk) and
//!   `fold_ops` (ordered inserts/deletes → one run, with the write path's
//!   delete semantics).
//! * The store's topology — fences plus shard list — is one immutable
//!   [`StoreTable`] behind its own [`EpochCell`]. Multi-shard reads (global
//!   positions, batches, ranges) resolve entirely against one pinned table,
//!   so a concurrent split or merge can never route part of a batch through
//!   one topology and part through another.
//!
//! Maintenance reuses the same mechanism. A **rebuild** seals the chain
//! (an index move — no data copied), merges chain + base and retrains the
//! model entirely off-lock while readers and writers proceed against the
//! sealed state, then swaps in the new epoch and keeps the writes that
//! landed mid-rebuild as the residual chain. A **split** freezes a shard
//! the same way, cuts the merged column at a duplicate-run-aligned median
//! fence, builds both children off-lock, and commits by retiring the old
//! shard and publishing a new table; an in-flight writer that routed to the
//! retired shard gets refused at its write lock and transparently retries
//! against the new table. Merging undersized neighbours is symmetric. The
//! optional [`MaintenanceWorker`] thread (spawned by
//! [`ShardedStore::build`] when
//! [`StoreConfig::background_maintenance`] is set, stopped and joined on
//! drop) runs compaction, dirty-shard rebuilds and rebalancing every
//! [`worker::IDLE_INTERVAL`], kicked early by threshold-crossing writes.
//!
//! ## Consistency model
//!
//! The store exposes two first-class handles — [`StoreSnapshot`], the unit
//! of **consistency**, and [`WriteBatch`], the unit of **atomicity** — and
//! every guarantee below is phrased in terms of the store-wide **commit
//! version**: a monotonic counter ([`EpochCell`]'s sibling
//! [`epoch::CommitClock`]) stamped on every commit as a whole. `insert`,
//! `delete`, [`ShardedStore::apply`] and [`Txn::commit`] are four doors
//! onto **one commit function** (`write.rs`: exclude writers → validate →
//! log → take the commit window → stamp → publish per shard), and the
//! guarantees rest on one lock and one cell (`cut.rs`, with the lock order
//! and the linearizability argument): every commit holds the store's
//! **commit window** from the version stamp to its last shard publish, so
//! commits are serial and nobody who holds the window sees half of one;
//! a cut is pinned only under the window and then **published**, and a
//! read shares the published cut for as long as its version is the
//! clock's. What that costs: in-memory commits to different shards no
//! longer overlap their publication (durable commits, serial under the WAL
//! lock, never did), and the first read after a write waits for a commit
//! that is mid-publication — microseconds of `Arc` swaps, never a WAL sync,
//! which happens before the window is taken.
//!
//! * **Snapshots are store-wide consistent cuts.** [`ShardedStore::snapshot`]
//!   pins one topology epoch plus every shard's state under the commit
//!   window: the snapshot contains **exactly** the writes with commit
//!   version `<= StoreSnapshot::version()`, across all shards at once, and
//!   every read on it — scalar, batch, range, count, scan — is repeatable
//!   forever. This closes the old "cross-shard composition is racy by
//!   design" caveat: multi-shard reads no longer compose states pinned at
//!   different instants.
//! * **All store reads are snapshot reads.** The store's own read methods
//!   pin a fresh snapshot per call, so a batched or ranged read is exact
//!   even while writers, rebuilds and the rebalancer race it — including
//!   mid-`rebalance()`, where the old direct path could combine a retired
//!   shard's final state with its successors'.
//! * **Batches are atomic.** [`ShardedStore::apply`] stamps one commit
//!   version on every operation of a [`WriteBatch`] inside one commit
//!   window: a snapshot observes all of a batch or none of it. On a durable
//!   store the batch is one multi-op WAL record under one checksum, synced
//!   once — after a crash it recovers all-or-nothing.
//! * **Per-shard reads are linearizable.** Each read observes exactly one
//!   published `ShardState`; states are published one at a time under the
//!   shard's write mutex — that order *is* the shard's write order — and
//!   stamped with a strictly monotonic publication version, so a read sees
//!   every write published before its pin and none after.
//! * **Reads never block, and are never blocked by, maintenance.** Sealing,
//!   compaction, rebuilds, splits and merges only ever *publish new
//!   values*; a pinned state (or snapshot) remains valid and immutable
//!   forever. Maintenance never changes the merged view, so it carries a
//!   state's `applied_cv` stamp forward unchanged; it never takes the
//!   commit window, only marks the published cut stale, and the first read
//!   after it pins the new structures.
//! * **Writes are never lost.** A writer either lands in a live shard's
//!   chain (and survives rebuilds as residual, splits via the fence-cut of
//!   the residual) or is refused by a retired shard and retried against the
//!   successor topology.
//!
//! ### MVCC: time travel and change capture
//!
//! With [`StoreConfig::retain_versions`] set, the store keeps a bounded
//! ring of historical cuts (see [`versions`]) — every commit captures its
//! own cut inside its commit window, so the ring holds each of the newest
//! `count` versions — and three calls open up:
//!
//! * [`ShardedStore::snapshot_at`] pins a snapshot at any **retained**
//!   commit version — as capable and as consistent as a live snapshot,
//!   exact at that version forever. An evicted or never-captured version
//!   fails with the typed [`StoreError::VersionNotRetained`].
//! * [`ShardedStore::scan_between`] is the change-data-capture feed: the
//!   ordered key-level diff (net occurrence delta per key, zeros dropped)
//!   between two retained versions, computed from the structural difference
//!   of the pinned cuts — shards untouched between the cuts cost nothing,
//!   shards sharing a base epoch cost only their buffered writes.
//! * [`ShardedStore::version_stats`] reports how much heap the ring pins
//!   beyond the live state (shared structures counted once). Retention
//!   works because maintenance only ever republishes immutable values: a
//!   retained cut simply keeps the sealed runs and base snapshots it needs
//!   alive across compactions, rebuilds and rebalances.
//!
//! ### Optimistic transactions
//!
//! [`ShardedStore::begin`] opens a [`Txn`]: reads run on a snapshot pinned
//! at begin (recording point counts and range fingerprints in a read set),
//! writes buffer into a private [`WriteBatch`] that overlays the
//! transaction's own reads. [`Txn::commit`] revalidates the read set at the
//! store's current cut **inside the same serialization point every plain
//! write uses** (the WAL lock / the commit window) and applies the batch
//! only if every recorded observation still holds — **first committer
//! wins**; the loser gets [`StoreError::TxnConflict`] naming the key or
//! range that moved, and its WAL carries no trace of the attempt.
//! Granularity: point reads conflict on the key's occurrence count; range
//! reads conflict on *any* change to the scanned range's content. A
//! committed transaction is serializable for its recorded footprint — it
//! behaves as if executed atomically at its commit version. Conflicted
//! work should re-run through [`ShardedStore::commit_with_retries`], which
//! re-reads on a fresh snapshot per attempt. Durability is inherited from
//! the batch path: one multi-op WAL frame, one sync, group commit,
//! all-or-nothing crash recovery.
//!
//! ### Migrating from the direct-read API
//!
//! The pre-snapshot direct reads survive as one-shot conveniences (each
//! pins a fresh snapshot internally), but correlated reads should migrate
//! to an explicit snapshot:
//!
//! | Old (per-call pin)                   | New (explicit consistent cut)           |
//! |--------------------------------------|-----------------------------------------|
//! | `store.lower_bound(q)`               | `store.snapshot().lower_bound(q)`       |
//! | `store.lower_bound_batch(qs, out)`   | `store.snapshot().lower_bound_batch(…)` |
//! | `store.range(lo, hi)`                | `store.snapshot().range(lo, hi)`        |
//! | `store.count_of(k)`                  | `store.snapshot().count_of(k)`          |
//! | `store.len()`                        | `store.snapshot().len()`                |
//! | *(no equivalent)*                    | `store.snapshot().scan(lo, hi)`         |
//! | `store.insert(k)` loop               | `store.apply(&batch)` (atomic, 1 sync)  |
//! | `for k { store.insert(k)?; }`        | `WriteBatch::new().insert(k)…` + apply  |
//!
//! Two reads on **one** snapshot always agree with each other; two
//! one-shot calls each see their own (newer) cut, exactly like the old
//! behaviour when no write raced them.
//!
//! ## Durability
//!
//! A store opened with [`ShardedStore::open`] (or seeded with
//! [`ShardedStore::open_seeded`]) persists to a directory and survives a
//! crash; [`ShardedStore::build`] stays purely in memory. Three file kinds
//! make up the on-disk format (full layouts in the [`persist`] module and
//! its submodules):
//!
//! * **WAL segments** (`wal-<start-version>.log`): every commit is
//!   appended as one length-prefixed, CRC32-checksummed record *before* it
//!   is applied in memory — a lone insert/delete in the compact encoding, a
//!   whole [`WriteBatch`] or transaction as **one multi-op record** (one
//!   record, two encodings; see [`persist::wal`]) under one checksum, so
//!   it is durable all-or-nothing. Records carry a
//!   monotonically increasing store version, assigned under the store-wide
//!   WAL lock that also serialises the in-memory apply — so per-shard apply
//!   order always equals version order. [`SyncPolicy`] controls fsync
//!   cadence: `Always` (never lose an acknowledged write; concurrent
//!   writers share `fdatasync`s through the WAL's group committer),
//!   `EveryN(n)` (lose at most `n − 1`), `Os` (page cache decides).
//! * **Shard snapshots** (`snap-<checkpoint>-<shard>.snap`): a checkpoint
//!   writes each shard's merged key column in the **block-structured v2
//!   format** ([`persist::v2`]) — fixed-size key blocks each under its own
//!   CRC32, plus a trailing block index — so recovery can validate blocks
//!   independently and a cold start can serve `lower_bound` straight off
//!   the index before decoding anything. The trained model is *not*
//!   persisted — recovery retrains it from the keys and the spec string,
//!   which round-trips losslessly through its display form. It is the only
//!   snapshot format: any other file is [`StoreError::Corrupt`].
//! * **A manifest** (`manifest-<seq>`): the checkpoint root — spec string,
//!   fence table, snapshot files, checkpoint version — written to a temp
//!   file and atomically renamed, so no crash can expose a torn root.
//!
//! A checkpoint is three steps — **cut → write → publish** — and the
//! maintenance worker, an explicit [`ShardedStore::checkpoint`] and the
//! seeding of a fresh directory all run the same three functions. The
//! *cut* briefly takes the WAL lock, rotates to a fresh segment and pins
//! every shard's immutable state; because durable writes apply under that
//! same lock, the pinned set is an exact cut at one version `cv` — that is
//! what makes checkpoints **epoch-consistent**. The *write* step runs
//! entirely off-lock: one snapshot file per shard, each fsynced. *Publish*
//! makes the manifest durable, remembers what it references, and deletes
//! the WAL segments whose records all sit at or below `cv`. Until the
//! manifest rename nothing refers to the new files, so a failure or crash
//! in any step leaves the previous checkpoint in force. Checkpoints are
//! also **incremental** by default
//! ([`DurabilityConfig::incremental_checkpoints`]): a shard whose merged
//! view has not moved since the previous checkpoint is *skipped* — the new
//! manifest re-references the prior snapshot file instead of rewriting
//! identical bytes ([`DurabilityStats::checkpoint_shards_skipped`] and
//! [`DurabilityStats::snapshot_bytes_reused`] account the savings) — unless
//! that file has gone missing, in which case the shard is written again.
//!
//! **Seeding is a task queue.** The seed snapshot of
//! [`ShardedStore::open_seeded`] depends on the key chunks alone (models
//! and Shift-Tables are never persisted), so after the column is validated
//! and the cut is taken, each shard contributes two independent tasks —
//! write its snapshot file, build its index — and the crate's one task
//! pool (a worker per hardware thread, the caller among them; also behind
//! sharded builds, `maintain()`'s rebuilds, a split's two child builds, a
//! checkpoint's file writes and recovery's replay and retraining) works
//! through them in order. The store is
//! assembled and the checkpoint published when the queue is drained, and
//! [`ShardedStore::open_breakdown`] reports how long the build tasks and
//! the write tasks were busy. A seeding that fails or is killed leaves no
//! manifest and no WAL record, so the directory still counts as unseeded
//! and the retry overwrites whatever snapshot files were left.
//!
//! Every checksum above is one function, [`persist::crc32`] (IEEE,
//! reflected): it consumes eight bytes per step (slice-by-8) and yields the
//! values of the bytewise definition, so the formats are unchanged in both
//! directions. Snapshot blocks, which each carry their own checksum, are
//! checksummed three at a time — by the writer and by the mount sweep —
//! with the three dependency chains interleaved; the values are the same. The snapshot writer is a single pass over the shard in
//! **bounded memory**: a hot shard with an empty delta chain lends its base
//! column to the writer ([`ShardState::merged_view`]) instead of copying
//! it, keys are widened into a reused 1 MiB staging buffer, blocks are
//! checksummed there while their bytes are still in cache, and the buffer is
//! handed to the file whenever the next block would not fit — no
//! allocation in the writer grows with the shard.
//!
//! **Recovery** ([`ShardedStore::open`]) loads the newest manifest that
//! validates, loads (or mounts) each shard's snapshot, and replays the WAL
//! tail **as a merge**: one scan routes each operation through the
//! recovered fence router into its shard's bucket, and the pool task that
//! builds the shard first folds its bucket to one sorted net run and
//! splices it into the key column in a single pass (a cold shard keeps the
//! run as its delta chain) — linear in the tail plus the columns touched.
//! Replay is *idempotent*: a record at or below the routed shard's
//! recovered version never reaches a bucket, so stale segments are
//! harmless; a torn tail (short frame or checksum mismatch) simply ends
//! the log, recovering the exact durable prefix.
//! With [`StoreConfig::cold_start`], reopen is **streaming**: v2 snapshots
//! are *mounted* (footer + block index, no decode, no training) and served
//! cold while a background hydrator retrains models shard by shard — first
//! reads precede model training, and [`ShardedStore::open_breakdown`]
//! reports where the open time went. A WAL sync failure no longer forces a
//! reopen either: [`ShardedStore::repair_wal`] rotates to a fresh segment
//! and restores writability online.
//!
//! ## Observability
//!
//! The store ships its own zero-dependency observability layer
//! (`crates/obs`, re-exported primitives in [`shift_obs`]): a lock-free
//! metrics registry, a bounded trace ring of structured maintenance
//! events, and Prometheus/JSON export — all safe Rust, no external crates,
//! lint-clean under the same rules as the serving path.
//!
//! * [`ShardedStore::metrics`] returns a [`shift_obs::MetricsReport`]
//!   sampling every family in [`obs::CATALOGUE`] (op counters, sampled
//!   read/write latency histograms, maintenance durations, topology
//!   gauges, per-shard access counters, kernel batch statistics, and — on
//!   durable stores — WAL/checkpoint families). `report.to_prometheus()`
//!   renders text-format 0.0.4, `report.to_json()` a stable JSON shape;
//!   [`shift_obs::parse_prometheus`] round-trips the former for tests and
//!   scrapers.
//! * [`ShardedStore::trace_events`] drains the bounded, lock-free ring of
//!   structured [`TraceEvent`]s (rebuilds, compactions, splits, merges,
//!   hydrations with a [`HydrationReason`], checkpoints, WAL repair and
//!   poisoning, captured maintenance errors), each stamped with the commit
//!   version at which it was recorded. The ring holds
//!   [`obs::TRACE_CAPACITY`] (1024) events and drops **oldest first**;
//!   drops are counted exactly in `store_trace_dropped_total`.
//! * [`ShardedStore::take_maintenance_errors`] drains the bounded error
//!   ring ([`obs::ERROR_RING_CAPACITY`] entries, always on — failures are
//!   captured even with metrics disabled).
//! * [`StoreConfig::metrics_addr`] optionally serves
//!   `GET /metrics` (Prometheus) and `GET /metrics.json` from a
//!   std-`TcpListener` thread ([`shift_obs::MetricsServer`]), shut down
//!   with the store.
//!
//! **Cost discipline.** Every count is one relaxed `fetch_add`; nothing on
//! the read or write path takes a lock or allocates. That same count
//! drives every sampling decision: latency timers arm when the op counter
//! crosses a multiple of [`obs::LATENCY_SAMPLE`] (1-in-1024), and
//! per-shard access counters are sampled 1-in-64 off a relaxed load of
//! the read count (sampled bumps scaled by the stride, so the decayed
//! counter still estimates the true rate) — an unsampled read's entire
//! metrics bill is one relaxed `fetch_add`, no clock, no second RMW. WAL
//! appends sample 1-in-64, and only the millisecond-scale cold phases
//! (rebuild, compaction, hydration, checkpoint, WAL fsync) are timed
//! unconditionally. Histograms are
//! log2-bucketed (64 buckets), so quantile readouts are upper bounds within
//! 2× of the true value. With [`StoreConfig::metrics`] off (or via
//! `StoreConfig::metrics(false)`), every site short-circuits on one
//! predicted branch, [`ShardedStore::metrics`] reports empty, and the CI
//! overhead gate (the `obs_gate` binary of `crates/bench`, a metrics-on vs
//! metrics-off head-to-head) holds the metrics-on read path within 3% of
//! metrics-off on both mean and p99.
//!
//! The full metric catalogue — name, unit, and help text for every family,
//! including which appear only on durable stores — lives in
//! [`obs::CATALOGUE`]; a completeness test asserts the exported report and
//! the catalogue never diverge.
//!
//! ## Checked invariants
//!
//! The claims above are machine-checked by `shift-lint` (`crates/lint`), a
//! repo-local static analyzer that runs in CI (`cargo run -p shift-lint --
//! check`) and fails the build on any finding. The rules, and what they
//! guarantee about this crate:
//!
//! * **`atomics-ordering`** — every `Ordering::*` argument in non-test code
//!   carries a `// lint: ordering(X) <why>` annotation naming the ordering
//!   actually used and its synchronisation role. The interesting pairings
//!   are documented where they live: the retired-shard flag
//!   (Release store / Acquire load), `merged_len` (AcqRel / Acquire), the
//!   [`CommitClock`] counter and the cut's maintenance generation (SeqCst;
//!   what each load may conclude is argued in `cut.rs`), and the `Relaxed`
//!   stats counters that publish nothing. An unjustified `Relaxed` is a hard
//!   error.
//! * **`panic-path`** — no `unwrap`/`expect`/`panic!`/`assert!` in this
//!   crate's (or `shift-table`'s) non-test sources. Fallible conditions
//!   return [`StoreError`]; the surviving sites are each annotated
//!   `// lint: allow(panic) <why>` and fall into four audited classes:
//!   lock-poisoning propagation (a dead writer has no sound continuation),
//!   thread-join re-raises, provably infallible conversions (length-checked
//!   `try_into`), and documented API contracts where truncating would
//!   silently serve wrong answers. `debug_assert!` is always allowed.
//! * **`unsafe-hygiene`** — every crate root carries
//!   `#![forbid(unsafe_code)]`; any future `unsafe` block must carry a
//!   `// SAFETY:` comment. This crate's lock-free read path is built
//!   entirely from safe `Arc` swaps — the linter keeps it that way.
//! * **`guard-across-sync`** — no lock guard may be live across an
//!   `fsync`-class call (`sync_all`/`sync_data`/WAL `sync`) unless the site
//!   is annotated `// lint: allow(guard-across-sync) <why>`. The three
//!   annotated sites in `persist/` are intentional: the WAL lock *is* the
//!   checkpoint barrier (group-commit leader, checkpoint cut, drop-time
//!   tail flush).
//! * **`bare-sleep`** — no `thread::sleep` outside tests; coordination uses
//!   condvars and joins, not timing.
//! * **`instant-in-hot-path`** — no raw `Instant::now()` in this crate's
//!   (or `shift-table`'s) non-test sources: clock reads on the serving path
//!   must sit behind a [`shift_obs::Sampler`] so an unsampled operation
//!   never pays one. The deliberately-unsampled cold paths (maintenance
//!   phases, recovery timing) each carry `// lint: allow(timing) <why>`.
//!
//! Annotations are themselves checked: a malformed `// lint:` comment or an
//! annotation no finding consumes (`unused-annotation`) is an error, so
//! justifications cannot rot. See `crates/lint/src/lib.rs` for the rule
//! engine and its fixtures.
//!
//! ## Example
//!
//! ```
//! use shift_store::{ShardedStore, StoreConfig};
//! use shift_table::spec::IndexSpec;
//! use algo_index::RangeIndex;
//!
//! let keys: Vec<u64> = (0..10_000u64).map(|i| i * 3).collect();
//! let config = StoreConfig::new(IndexSpec::parse("im+r1").unwrap())
//!     .shards(4)
//!     .delta_threshold(256);
//! let store = ShardedStore::build(config, &keys).unwrap();
//!
//! // Reads go through the fence-key router to exactly one shard.
//! assert_eq!(store.lower_bound(300), 100);
//! assert_eq!(store.range(300, 330), 100..111);
//!
//! // Writes are absorbed by the shard's delta chain and visible
//! // immediately; the shard rebuilds itself once 256 ops accumulate.
//! store.insert(301).unwrap();
//! assert_eq!(store.lower_bound(302), 102);
//! assert!(store.delete(301).unwrap());
//! assert!(!store.delete(301).unwrap(), "second delete is a no-op");
//!
//! // Batched lookups are grouped per shard before dispatch.
//! let out = store.lower_bound_many(&[0, 3_000, 29_997, u64::MAX]);
//! assert_eq!(out, vec![0, 1_000, 9_999, 10_000]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
mod checkpoint;
pub mod config;
mod cut;
pub mod delta;
pub mod epoch;
pub mod error;
mod maintenance;
mod merge;
mod metrics_report;
pub mod obs;
mod open;
pub mod persist;
mod pool;
mod rebalance;
pub mod router;
pub mod shard;
pub mod sharded;
pub mod snapshot;
mod store_core;
pub mod txn;
pub mod versions;
pub mod worker;
mod write;

pub use batch::{BatchOp, BatchReceipt, WriteBatch};
pub use config::{DurabilityConfig, StoreConfig, SyncPolicy};
pub use delta::{DeltaChain, DeltaRun};
pub use epoch::{CommitClock, EpochCell};
pub use error::StoreError;
pub use obs::{HydrationReason, TraceEvent, TraceKind};
pub use persist::recovery::OpenBreakdown;
pub use persist::DurabilityStats;
pub use router::ShardRouter;
pub use shard::{ShardSnapshot, ShardState, StoreShard};
pub use sharded::{ShardedStore, StoreTable};
pub use snapshot::StoreSnapshot;
pub use txn::Txn;
pub use versions::VersionStats;
pub use worker::{HydrationWorker, MaintenanceWorker};

impl<K: sosd_data::key::Key> shift_table::snapshot::SnapshotRead<K> for ShardedStore<K> {
    type Snapshot = StoreSnapshot<K>;

    fn snapshot(&self) -> StoreSnapshot<K> {
        ShardedStore::snapshot(self)
    }
}

/// Convenient glob import for downstream crates and examples.
pub mod prelude {
    pub use crate::batch::{BatchOp, BatchReceipt, WriteBatch};
    pub use crate::config::{DurabilityConfig, StoreConfig, SyncPolicy};
    pub use crate::error::StoreError;
    pub use crate::obs::{HydrationReason, TraceEvent, TraceKind};
    pub use crate::persist::recovery::OpenBreakdown;
    pub use crate::persist::DurabilityStats;
    pub use crate::shard::{ShardSnapshot, ShardState, StoreShard};
    pub use crate::sharded::{ShardedStore, StoreTable};
    pub use crate::snapshot::StoreSnapshot;
    pub use crate::txn::Txn;
    pub use crate::versions::VersionStats;
    pub use shift_table::snapshot::SnapshotRead;
}
