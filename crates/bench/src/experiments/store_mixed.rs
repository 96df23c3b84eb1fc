//! Mixed read/write serving benchmarks over the sharded store.
//!
//! Not part of the paper's evaluation (the paper serves a static corpus):
//! this suite measures the `shift-store` layer the workspace grows towards —
//! a range-sharded store with a lock-free read path absorbing writes through
//! immutable per-shard delta chains.
//!
//! Two tables are produced:
//!
//! 1. **Single-threaded traces** — four trace shapes (read-heavy,
//!    insert-heavy, Zipfian shard skew, YCSB-E-style scan-heavy) replayed
//!    against stores with increasing shard counts. Alongside mean ns/op the table reports the
//!    serving percentiles (p50/p90/p99/p99.9) — the tail is where rebuild
//!    swaps and chain merges would show up.
//! 2. **Multi-threaded driver** — N reader threads racing M writer threads
//!    (each with its own deterministic trace stream) against one store with
//!    the background maintenance worker enabled. The table reports the
//!    aggregate throughput and the pooled read-latency percentiles; read
//!    scaling with reader count is the lock-free read path's acceptance
//!    signal.
//!
//! Correctness is not re-derived here (the store's oracle and concurrent
//! property tests own that); a fold of every returned position guards
//! against dead-code elimination, and the final store length is
//! cross-checked against an insert/delete counter.

use crate::datasets::{dataset_u64, BenchConfig};
use crate::report::{fmt_mops, fmt_ns, percentile_cells, Table};
use crate::timer::LatencyRecorder;
use algo_index::RangeIndex;
use shift_store::{ShardedStore, StoreConfig};
use shift_table::spec::IndexSpec;
use sosd_data::prelude::*;
use std::hint::black_box;
use std::time::Instant;

/// Shard counts the single-threaded suite sweeps.
pub const SHARD_COUNTS: [usize; 3] = [1, 4, 16];

/// `(reader, writer)` thread counts the multi-threaded driver sweeps.
pub const THREAD_MIXES: [(usize, usize); 3] = [(1, 1), (2, 1), (4, 2)];

/// The trace shapes the single-threaded suite replays.
const SCENARIOS: [(&str, MixedKind); 4] = [
    ("read-heavy", MixedKind::ReadHeavy),
    ("insert-heavy", MixedKind::InsertHeavy),
    ("zipf-shard-skew", MixedKind::ZipfShardSkew),
    ("scan-heavy", MixedKind::ScanHeavy),
];

/// Replay a trace against a store with per-op latency recording, returning
/// `(recorder, checksum, net_inserted)`.
fn replay(store: &ShardedStore<u64>, ops: &[MixedOp<u64>]) -> (LatencyRecorder, u64, i64) {
    let mut rec = LatencyRecorder::with_capacity(ops.len());
    let mut checksum = 0u64;
    let mut net = 0i64;
    for &op in ops {
        match op {
            MixedOp::Lookup(q) => {
                checksum =
                    checksum.wrapping_add(rec.time(|| store.lower_bound(black_box(q))) as u64);
            }
            MixedOp::Insert(k) => {
                rec.time(|| store.insert(black_box(k)).expect("insert cannot fail"));
                net += 1;
            }
            MixedOp::Delete(k) => {
                if rec.time(|| store.delete(black_box(k)).expect("delete cannot fail")) {
                    net -= 1;
                }
            }
            MixedOp::Range(lo, hi) => {
                let r = rec.time(|| store.range(black_box(lo), black_box(hi)));
                checksum = checksum.wrapping_add(r.len() as u64);
            }
        }
    }
    (rec, black_box(checksum), net)
}

/// The delta threshold the suite uses: large enough not to rebuild on every
/// handful of writes, small enough that every trace triggers rebuilds.
fn suite_threshold(ops_per_trace: usize) -> usize {
    (ops_per_trace / 50).clamp(64, 100_000)
}

/// Single-threaded trace replay with percentile reporting.
fn single_threaded(cfg: BenchConfig, spec: IndexSpec, d: &Dataset<u64>) -> Table {
    let ops_per_trace = cfg.queries.max(1);
    let threshold = suite_threshold(ops_per_trace);
    let mut table = Table::new(
        format!(
            "Store — mixed workloads on face64 (n = {}, {} ops/trace, spec {spec}, delta threshold {threshold}, pipelined batch kernel on the read path)",
            d.len(),
            ops_per_trace
        ),
        &[
            "scenario", "shards", "ns/op", "Mops/s", "p50", "p90", "p99", "p99.9", "rebuilds",
            "final_keys", "aux_bytes",
        ],
    );
    for (label, kind) in SCENARIOS {
        for shards in SHARD_COUNTS {
            let trace = match kind {
                MixedKind::ReadHeavy => MixedWorkload::read_heavy(d, ops_per_trace, cfg.seed),
                MixedKind::InsertHeavy => MixedWorkload::insert_heavy(d, ops_per_trace, cfg.seed),
                MixedKind::ZipfShardSkew => {
                    MixedWorkload::zipf_shard_skew(d, ops_per_trace, shards.max(4), 0.99, cfg.seed)
                }
                MixedKind::ScanHeavy => MixedWorkload::scan_heavy(d, ops_per_trace, cfg.seed),
            };
            let config = StoreConfig::new(spec)
                .shards(shards)
                .delta_threshold(threshold);
            let store = ShardedStore::build(config, d.as_slice()).expect("sorted dataset");
            let before = store.len() as i64;
            let (mut rec, _checksum, net) = replay(&store, trace.ops());
            assert_eq!(
                store.len() as i64,
                before + net,
                "store length must track net inserts"
            );
            let mean = rec.mean_ns();
            let p = rec.percentiles();
            let [p50, p90, p99, p999] = percentile_cells(&p);
            table.add_row(vec![
                label.into(),
                store.shard_count().to_string(),
                fmt_ns(mean),
                fmt_mops(mean),
                p50,
                p90,
                p99,
                p999,
                store.total_rebuilds().to_string(),
                store.len().to_string(),
                store.index_size_bytes().to_string(),
            ]);
        }
    }
    table
}

/// Multi-threaded driver: N readers race M writers and the background
/// maintenance worker; reports aggregate throughput plus pooled read
/// percentiles.
fn multi_threaded(cfg: BenchConfig, spec: IndexSpec, d: &Dataset<u64>) -> Table {
    let ops_per_thread = cfg.queries.max(1);
    let threshold = suite_threshold(ops_per_thread);
    let shards = 8usize;
    let mut table = Table::new(
        format!(
            "Store — concurrent driver on face64 (n = {}, {ops_per_thread} ops/thread, {shards} shards, spec {spec}, background maintenance)",
            d.len(),
        ),
        &[
            "mode",
            "threads",
            "agg Mops/s",
            "read ns/op",
            "p50",
            "p90",
            "p99",
            "p99.9",
            "rebuilds",
            "reshards",
            "final_keys",
        ],
    );
    for (readers, writers) in THREAD_MIXES {
        let config = StoreConfig::new(spec)
            .shards(shards)
            .delta_threshold(threshold)
            .auto_rebuild(false)
            .background_maintenance(true);
        let store = ShardedStore::build(config, d.as_slice()).expect("sorted dataset");
        let before = store.len() as i64;
        let write_traces =
            MixedWorkload::concurrent(d, writers, ops_per_thread, cfg.seed, MixedKind::InsertHeavy);
        let read_loads: Vec<Workload<u64>> = (0..readers)
            .map(|r| Workload::uniform_domain(d, ops_per_thread, cfg.seed ^ (0xBEEF + r as u64)))
            .collect();
        let start = Instant::now();
        let (read_recs, write_nets) = std::thread::scope(|scope| {
            let read_handles: Vec<_> = read_loads
                .iter()
                .map(|w| {
                    let store = &store;
                    scope.spawn(move || {
                        let mut rec = LatencyRecorder::with_capacity(w.len());
                        let mut checksum = 0u64;
                        for &q in w.queries() {
                            checksum = checksum
                                .wrapping_add(rec.time(|| store.lower_bound(black_box(q))) as u64);
                        }
                        black_box(checksum);
                        rec
                    })
                })
                .collect();
            let write_handles: Vec<_> = write_traces
                .iter()
                .map(|trace| {
                    let store = &store;
                    scope.spawn(move || replay(store, trace.ops()).2)
                })
                .collect();
            (
                read_handles
                    .into_iter()
                    .map(|h| h.join().expect("reader thread panicked"))
                    .collect::<Vec<_>>(),
                write_handles
                    .into_iter()
                    .map(|h| h.join().expect("writer thread panicked"))
                    .collect::<Vec<_>>(),
            )
        });
        let elapsed = start.elapsed().as_secs_f64();
        // Capture the maintenance counters before draining, so the table
        // reports only what happened during the measured interval.
        let rebuilds = store.total_rebuilds();
        let reshards = store.total_splits() + store.total_merges();
        // The worker may still be folding the last chains; wait for the
        // store to go clean before the length cross-check.
        let net: i64 = write_nets.iter().sum();
        while store.shards().iter().any(|s| s.buffered_ops() > 0) {
            store.flush().expect("flush cannot fail");
        }
        assert_eq!(
            store.len() as i64,
            before + net,
            "store length must track net inserts across threads"
        );
        let mut pooled = LatencyRecorder::default();
        for rec in read_recs {
            pooled.absorb(rec);
        }
        let total_ops = (readers + writers) * ops_per_thread;
        let agg_mops = total_ops as f64 / 1e6 / elapsed.max(1e-9);
        let mean = pooled.mean_ns();
        let p = pooled.percentiles();
        let [p50, p90, p99, p999] = percentile_cells(&p);
        table.add_row(vec![
            format!("{readers}r+{writers}w"),
            (readers + writers).to_string(),
            format!("{agg_mops:.2}"),
            fmt_ns(mean),
            p50,
            p90,
            p99,
            p999,
            rebuilds.to_string(),
            reshards.to_string(),
            store.len().to_string(),
        ]);
    }
    table
}

/// Rounds of the observability head-to-head (round 0 warms both sides).
const OBS_ROUNDS: usize = 33;

/// Ops per head-to-head round. Capped below the suite-wide query count:
/// a round's mean is already precise at this length (sampling error is
/// ~0.1%; round-to-round spread is all layout lottery), so the budget is
/// better spent on more rounds — more lottery draws — than longer ones.
const OBS_ROUND_OPS: usize = 25_000;

/// Observability overhead head-to-head: the identical read-heavy trace
/// replayed in interleaved A/B rounds against a metrics-on and a
/// metrics-off store, so frequency and cache drift hit both sides alike;
/// the side order flips every round so first-mover effects (thermal
/// state, scheduler placement) cancel too. Both stores are rebuilt fresh
/// every round: a store instance's heap layout is a per-build lottery
/// (shard alignment vs cache sets swings a single instance's read mean by
/// ~10%, dwarfing the instrumentation cost being measured), and
/// rebuilding re-rolls it so each side's per-round means sample the same
/// lottery and their floors differ only by the instrumentation. Each
/// side's floor is estimated by its *third-smallest* round (mean and
/// p99): the plain minimum is an extreme order statistic, so one
/// anomalously lucky round on either side swings the comparison; a low
/// order statistic keeps the convergence while shrugging off a couple of
/// outliers. With `OBS_ASSERT=1` in the environment, a regression above 3%
/// on either statistic fails the run; this is the CI overhead gate for
/// the store's metrics layer.
fn obs_overhead(cfg: BenchConfig, spec: IndexSpec, d: &Dataset<u64>) -> Table {
    let ops = cfg.queries.clamp(1, OBS_ROUND_OPS);
    let threshold = suite_threshold(ops);
    let shards = 4usize;
    let gated = std::env::var("OBS_ASSERT").as_deref() == Ok("1");
    let trace = MixedWorkload::read_heavy(d, ops, cfg.seed);
    let build = |metrics: bool| {
        let config = StoreConfig::new(spec)
            .shards(shards)
            .delta_threshold(threshold)
            .metrics(metrics);
        ShardedStore::build(config, d.as_slice()).expect("sorted dataset")
    };
    let mut rounds: [(Vec<f64>, Vec<f64>); 2] = Default::default(); // (means, p99s) per side: 0 = on, 1 = off
    for round in 0..OBS_ROUNDS {
        for i in 0..2usize {
            let side = if round % 2 == 0 { i } else { 1 - i };
            let store = build(side == 0);
            let (mut rec, _checksum, _net) = replay(&store, trace.ops());
            if round > 0 {
                rounds[side].0.push(rec.mean_ns());
                rounds[side].1.push(rec.percentiles().p99);
            }
        }
    }
    // Third-smallest round per side: outlier-robust floor estimate.
    let floor = |xs: &mut Vec<f64>| {
        xs.sort_by(|a, b| a.total_cmp(b));
        xs[2.min(xs.len() - 1)]
    };
    let (on_mean, on_p99) = (floor(&mut rounds[0].0), floor(&mut rounds[0].1));
    let (off_mean, off_p99) = (floor(&mut rounds[1].0), floor(&mut rounds[1].1));
    let mean_pct = (on_mean / off_mean - 1.0) * 100.0;
    let p99_pct = (on_p99 / off_p99 - 1.0) * 100.0;
    let mut table = Table::new(
        format!(
            "Store — observability overhead on face64 (read-heavy, n = {}, {ops} ops/round, {} measured rounds interleaved on/off, {shards} shards, spec {spec})",
            d.len(),
            OBS_ROUNDS - 1
        ),
        &[
            "trace", "on ns/op", "off ns/op", "mean Δ%", "on p99", "off p99", "p99 Δ%", "gate",
        ],
    );
    table.add_row(vec![
        "read-heavy".into(),
        fmt_ns(on_mean),
        fmt_ns(off_mean),
        format!("{mean_pct:+.2}"),
        fmt_ns(on_p99),
        fmt_ns(off_p99),
        format!("{p99_pct:+.2}"),
        if gated {
            "<3% enforced".into()
        } else {
            "report-only".into()
        },
    ]);
    if gated {
        assert!(
            mean_pct < 3.0,
            "metrics-on mean regressed {mean_pct:.2}% (on {on_mean:.1} ns vs off {off_mean:.1} ns) — over the 3% budget"
        );
        assert!(
            p99_pct < 3.0,
            "metrics-on p99 regressed {p99_pct:.2}% (on {on_p99:.1} ns vs off {off_p99:.1} ns) — over the 3% budget"
        );
    }
    table
}

/// Run the mixed-workload store benchmark (single- and multi-threaded,
/// plus the observability-overhead head-to-head).
pub fn run(cfg: BenchConfig) -> Vec<Table> {
    let spec = IndexSpec::parse("im+r1").expect("builtin spec parses");
    let d = dataset_u64(SosdName::Face64, cfg);
    vec![
        single_threaded(cfg, spec, &d),
        multi_threaded(cfg, spec, &d),
        obs_overhead(cfg, spec, &d),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_produces_full_tables() {
        let tables = run(BenchConfig {
            keys: 20_000,
            queries: 1_000,
            seed: 42,
        });
        assert_eq!(tables.len(), 3);
        assert_eq!(tables[0].row_count(), SCENARIOS.len() * SHARD_COUNTS.len());
        assert_eq!(tables[1].row_count(), THREAD_MIXES.len());
        assert_eq!(tables[2].row_count(), 1, "overhead head-to-head row");
    }
}
