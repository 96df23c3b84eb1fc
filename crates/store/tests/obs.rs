//! Observability acceptance tests: counter exactness under concurrent
//! churn, trace-ring overflow semantics, sampled-latency histograms,
//! Prometheus round-trips, catalogue completeness, first-touch hydration
//! events and the `/metrics` endpoint — all through the public store API.

use algo_index::RangeIndex;
use shift_obs::{parse_prometheus, HistogramSnapshot, MetricValue, MetricsReport};
use shift_store::obs::{CATALOGUE, LATENCY_SAMPLE, TRACE_CAPACITY};
use shift_store::{
    DurabilityConfig, HydrationReason, ShardedStore, StoreConfig, StoreShard, TraceKind, WriteBatch,
};
use shift_table::spec::IndexSpec;
use std::path::PathBuf;

fn spec() -> IndexSpec {
    IndexSpec::parse("im+r1").unwrap()
}

/// A scratch directory under the cargo-managed tmp root, wiped on entry.
fn scratch(name: &str) -> PathBuf {
    let dir =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The value of the (unlabelled) counter family `name`, panicking when the
/// family is missing or not a counter.
fn counter(report: &MetricsReport, name: &str) -> u64 {
    let m = report
        .metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("family {name} missing from report"));
    match &m.value {
        MetricValue::Counter(v) => *v,
        other => panic!("{name} is not a counter: {other:?}"),
    }
}

/// The histogram snapshot of family `name`.
fn hist(report: &MetricsReport, name: &str) -> HistogramSnapshot {
    let m = report
        .metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("family {name} missing from report"));
    match &m.value {
        MetricValue::Histogram(s) => (**s).clone(),
        other => panic!("{name} is not a histogram: {other:?}"),
    }
}

/// Every op counter must equal the oracle count exactly — across threads,
/// inline rebuilds and delta-chain churn. Sampling applies to latency
/// timers only, never to counts.
#[test]
fn op_counters_are_exact_under_concurrent_churn() {
    const THREADS: u64 = 4;
    const INSERTS: u64 = 300;
    const DELETES: u64 = 120; // half of these are no-ops (still counted)
    const SCALAR_READS: u64 = 150;
    const BATCH_KEYS: u64 = 256;
    const WRITE_BATCHES: u64 = 3;
    const BATCH_INS: u64 = 10;
    const BATCH_DEL: u64 = 5;

    let keys: Vec<u64> = (0..20_000u64).map(|i| i * 4).collect();
    let config = StoreConfig::new(spec()).shards(4).delta_threshold(64);
    let store = ShardedStore::build(config, &keys).unwrap();

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let store = &store;
            scope.spawn(move || {
                for i in 0..INSERTS {
                    store.insert(t * 1_000_000 + i).unwrap();
                }
                for i in 0..DELETES {
                    // Even deletes hit inserted keys, odd ones miss.
                    let k = if i % 2 == 0 {
                        t * 1_000_000 + i
                    } else {
                        1 + 4 * i
                    };
                    store.delete(k).unwrap();
                }
                for i in 0..SCALAR_READS {
                    let _ = store.lower_bound(i * 17);
                }
                let queries: Vec<u64> = (0..BATCH_KEYS).map(|i| i * 31).collect();
                let mut out = vec![0usize; queries.len()];
                store.lower_bound_batch(&queries, &mut out);
                for b in 0..WRITE_BATCHES {
                    let mut batch = WriteBatch::new();
                    for i in 0..BATCH_INS {
                        batch.insert(t * 2_000_000 + b * 100 + i);
                    }
                    for i in 0..BATCH_DEL {
                        batch.delete(t * 2_000_000 + b * 100 + i);
                    }
                    store.apply(&batch).unwrap();
                }
            });
        }
    });

    let report = store.metrics();
    assert_eq!(
        counter(&report, "store_reads_total"),
        THREADS * (SCALAR_READS + BATCH_KEYS),
        "batch lookups count per key, scalar reads per call"
    );
    assert_eq!(
        counter(&report, "store_writes_total"),
        THREADS * (INSERTS + WRITE_BATCHES * BATCH_INS)
    );
    assert_eq!(
        counter(&report, "store_deletes_total"),
        THREADS * (DELETES + WRITE_BATCHES * BATCH_DEL),
        "no-op deletes count too"
    );
    assert_eq!(
        counter(&report, "store_batches_total"),
        THREADS * WRITE_BATCHES
    );
    assert_eq!(
        counter(&report, "store_rebuilds_total"),
        store.total_rebuilds(),
        "metric and legacy accessor read the same counter"
    );
    assert!(
        store.total_rebuilds() > 0,
        "churn crossed the delta threshold"
    );
}

/// The trace ring drops the **oldest** events on overflow and counts every
/// drop exactly: `pushed - dropped == drained`.
#[test]
fn trace_ring_overflow_drops_oldest_and_counts_exactly() {
    const CAPACITY: usize = TRACE_CAPACITY;
    const ROUNDS: u64 = CAPACITY as u64 + 100;

    let config = StoreConfig::new(spec()).shards(1).delta_threshold(8);
    let store = ShardedStore::build(config, (0..1_000u64).collect::<Vec<_>>().as_slice()).unwrap();

    for round in 0..ROUNDS {
        // Exactly delta_threshold ops: the last one triggers an inline
        // rebuild, which emits one Rebuild trace event.
        for i in 0..8u64 {
            store.insert(round * 100 + i).unwrap();
        }
    }
    let rebuilds = store.total_rebuilds();
    assert!(rebuilds as usize > CAPACITY, "enough events to overflow");

    let events = store.trace_events();
    assert_eq!(events.len(), CAPACITY, "ring retains the newest CAPACITY");

    // Drop accounting happens at drain (ticket arithmetic), so scrape after.
    let report = store.metrics();
    let pushed = counter(&report, "store_trace_events_total");
    let dropped = counter(&report, "store_trace_dropped_total");
    assert_eq!(pushed, rebuilds, "one event per rebuild, nothing else ran");
    assert_eq!(dropped, pushed - CAPACITY as u64, "drops counted exactly");
    assert_eq!(events.len() as u64 + dropped, pushed, "nothing unaccounted");
    assert!(events.iter().all(|e| e.kind == TraceKind::Rebuild));
    assert!(
        events
            .windows(2)
            .all(|w| w[0].commit_version <= w[1].commit_version),
        "drained oldest-first in push order"
    );
    assert!(store.trace_events().is_empty(), "drain consumes");
}

/// The sampling stride is derived from the op counters, so histogram
/// counts follow exactly from [`LATENCY_SAMPLE`]: a write samples when the
/// op count before it is a multiple of the stride, a read when its keys
/// carry the read count across one, and the log2-bucketed quantile readout
/// is ordered and bounds the mean.
#[test]
fn latency_histograms_sample_exactly_and_bound_percentiles() {
    const STRIDES: u64 = 4;
    let config = StoreConfig::new(spec()).shards(2);
    let store = ShardedStore::build(config, (0..10_000u64).collect::<Vec<_>>().as_slice()).unwrap();

    for i in 0..STRIDES * LATENCY_SAMPLE {
        store.insert(20_000 + i).unwrap();
    }
    for i in 0..STRIDES * LATENCY_SAMPLE {
        let _ = store.lower_bound(i * 3);
    }
    // One batch spanning two strides still pays one timer: timers are per
    // call, not per key.
    let batch: Vec<u64> = (0..2 * LATENCY_SAMPLE).collect();
    let mut out = vec![0usize; batch.len()];
    store.lower_bound_batch(&batch, &mut out);

    let report = store.metrics();
    let writes = hist(&report, "store_write_latency_ns");
    assert_eq!(writes.count(), STRIDES, "one write in {LATENCY_SAMPLE}");
    let reads = hist(&report, "store_read_latency_ns");
    assert_eq!(
        reads.count(),
        STRIDES + 1,
        "one scalar read in {LATENCY_SAMPLE}, plus the batch"
    );

    for h in [&writes, &reads] {
        let (p50, p90, p99) = (h.quantile(0.5), h.quantile(0.9), h.quantile(0.99));
        assert!(p50 > 0 && p50 <= p90 && p90 <= p99, "{p50} {p90} {p99}");
        // Each quantile readout is an upper bound (log2 bucket upper edge),
        // so the max-bucket readout bounds the mean from above.
        assert!((h.mean() as u64) <= h.quantile(1.0));
    }
}

/// On a durable store, the exported report covers the **whole** catalogue —
/// every catalogued family is exported and every exported family is
/// catalogued — and the Prometheus rendering round-trips through the
/// parser with values intact.
#[test]
fn catalogue_is_complete_and_prometheus_roundtrips() {
    let dir = scratch("obs-catalogue");
    let config = StoreConfig::new(spec())
        .shards(2)
        .durability(DurabilityConfig::new().checkpoint_ops(0));
    let store =
        ShardedStore::open_seeded(&dir, config, (0..5_000u64).collect::<Vec<_>>().as_slice())
            .unwrap();

    // Touch every subsystem: reads, writes, a batch, a checkpoint.
    for i in 0..100u64 {
        store.insert(10_000 + i).unwrap();
    }
    let _ = store.lower_bound(4_321);
    let mut batch = WriteBatch::new();
    batch.insert(99_999).delete(0);
    store.apply(&batch).unwrap();
    store.checkpoint().unwrap();

    let report = store.metrics();
    let exported: std::collections::BTreeSet<&str> =
        report.metrics.iter().map(|m| m.name.as_str()).collect();
    let catalogued: std::collections::BTreeSet<&str> =
        CATALOGUE.iter().map(|(n, _, _)| *n).collect();
    assert_eq!(
        exported, catalogued,
        "report families and the documented catalogue must never diverge"
    );
    for m in &report.metrics {
        assert!(!m.help.is_empty(), "{} exports without help text", m.name);
    }

    let text = report.to_prometheus();
    let parsed = parse_prometheus(&text).unwrap();
    let reads = counter(&report, "store_reads_total");
    let sample = parsed
        .iter()
        .find(|s| s.name == "store_reads_total")
        .unwrap();
    assert_eq!(sample.value, reads as f64, "values survive the round-trip");
    // Histogram families render as _bucket/_count/_sum series.
    assert!(parsed
        .iter()
        .any(|s| s.name == "store_read_latency_ns_count"));
    assert!(parsed
        .iter()
        .any(|s| s.name == "wal_group_commit_wave_bucket"));
    // Per-shard members carry their label through.
    assert!(parsed
        .iter()
        .any(|s| s.name == "store_shard_accesses" && !s.labels.is_empty()));
}

/// The layer gauges say what the hot shards' Shift-Table layers weigh, how
/// many of their drifts are patches and how many store six-bit offsets:
/// under `im+r1` two shards of 200 k amzn64 keys keep seven bits, take 64
/// bytes per line of 67 keys and 272 more per escaped line, whose 68
/// drifts are patches, and hold shifted lines beside those at no extra
/// cost; three of evenly spaced keys keep six bits, 64 bytes per line of
/// 79 keys, and hold no patch, and a least-squares line over lognormal
/// keys few, under 1.05 bytes a key.
#[test]
fn layer_gauges_report_bytes_and_patches_of_every_hot_shard() {
    use sosd_data::prelude::*;
    let gauge = |store: &ShardedStore<u64>, name: &str| -> f64 {
        let report = store.metrics();
        let mut family = report.metrics.iter().filter(|m| m.name == name);
        let value = match family.next().map(|m| &m.value) {
            Some(MetricValue::Gauge(v)) => *v,
            other => panic!("{name} is not a gauge: {other:?}"),
        };
        assert!(family.next().is_none(), "{name} has one member");
        value
    };
    let amzn: Dataset<u64> = SosdName::Amzn64.generate(400_000, 7);
    let big = ShardedStore::build(StoreConfig::new(spec()).shards(2), amzn.as_slice()).unwrap();
    let table = big.table();
    let patches: usize = table
        .shards()
        .iter()
        .map(|s| s.snapshot().layer_patches())
        .sum();
    // A few dozen escaped lines of 68 drifts, beside a few hundred
    // shifted ones that cost nothing more.
    assert!((1..24_000).contains(&patches), "{patches} patches");
    assert_eq!(patches % 68, 0, "68 patches an escaped line");
    let shifted: usize = table
        .shards()
        .iter()
        .map(|s| s.snapshot().layer_shifted_lines())
        .sum();
    assert!(shifted > 0, "{shifted} shifted lines");
    assert_eq!(gauge(&big, "store_layer_patches"), patches as f64);
    // 64 bytes a line of 67 keys at seven bits, of 79 at six, and 4 a
    // patched drift.
    let layer_bytes = |shard: &StoreShard<u64>| {
        let snapshot = shard.snapshot();
        let pairs = match snapshot.layer_offset_bits() {
            7 => 67,
            6 => 79,
            bits => panic!("{bits}-bit offsets"),
        };
        64 * shard.len().div_ceil(pairs) + 4 * snapshot.layer_patches()
    };
    let bytes: usize = table.shards().iter().map(|s| layer_bytes(s)).sum();
    assert_eq!(gauge(&big, "store_layer_bytes"), bytes as f64);
    let bits = table
        .shards()
        .iter()
        .map(|s| s.snapshot().layer_offset_bits());
    assert!(
        bits.clone().all(|bits| bits == 7),
        "{:?}",
        bits.collect::<Vec<_>>()
    );
    assert_eq!(gauge(&big, "store_layer_narrow_shards"), 0.0);

    let keys: Vec<u64> = (0..5_000u64).collect();
    let small = ShardedStore::build(StoreConfig::new(spec()).shards(3), &keys).unwrap();
    let small_table = small.table();
    let bytes = small_table.shards().iter().map(|s| layer_bytes(s));
    assert_eq!(
        gauge(&small, "store_layer_bytes"),
        bytes.sum::<usize>() as f64
    );
    assert_eq!(gauge(&small, "store_layer_patches"), 0.0);
    assert_eq!(gauge(&small, "store_layer_narrow_shards"), 3.0);

    // Few partitions holding keys between long stretches of empty ones:
    // long windows, each past 1 016 records escaping its line: few patches.
    // The worst of the two reads 1.005 bytes a key.
    let linear = IndexSpec::parse("linear+r1").unwrap();
    for (name, n) in [(SosdName::Logn32, 6_000), (SosdName::Logn64, 70_000)] {
        let logn: Dataset<u64> = name.generate(n, 21);
        let config = StoreConfig::new(linear).shards(1);
        let store = ShardedStore::build(config, logn.as_slice()).unwrap();
        let bytes = gauge(&store, "store_layer_bytes");
        assert!(bytes < 1.05 * n as f64, "{name}: {bytes} bytes");
        assert!(gauge(&store, "store_layer_patches") < n as f64 / 40.0);
    }

    // A shard whose layer is not a Shift-Table range layer weighs what its
    // layer weighs — here nothing.
    let bare = IndexSpec::parse("im+none").unwrap();
    let none = ShardedStore::build(StoreConfig::new(bare).shards(3), &keys).unwrap();
    assert_eq!(gauge(&none, "store_layer_bytes"), 0.0);
    assert_eq!(gauge(&none, "store_layer_patches"), 0.0);
    assert_eq!(gauge(&none, "store_layer_narrow_shards"), 0.0);
}

/// A read that touches a still-cold shard enqueues its own hydration and
/// emits `HydrationTriggered{FirstTouch}`. The background hydrator races
/// the reader, so the assertion retries over fresh opens; a run where the
/// hydrator wins every shard before a single read lands would be a
/// scheduling anomaly, not a pass.
#[test]
fn first_touch_on_a_cold_shard_emits_hydration_trigger() {
    let dir = scratch("obs-first-touch");
    let config = StoreConfig::new(spec())
        .shards(8)
        .durability(DurabilityConfig::new().checkpoint_ops(0));
    let keys: Vec<u64> = (0..80_000u64).collect();
    {
        let store = ShardedStore::open_seeded(&dir, config, &keys).unwrap();
        store.checkpoint().unwrap();
    }

    let mut saw_first_touch = false;
    for _attempt in 0..5 {
        let store = ShardedStore::<u64>::open(&dir, config.cold_start(true)).unwrap();
        // Sweep a key in every shard immediately: any still-cold shard's
        // first read must request its own hydration.
        for q in (0..80_000u64).step_by(10_000) {
            let _ = store.lower_bound(q);
        }
        let events = store.trace_events();
        if events.iter().any(|e| {
            e.kind == TraceKind::HydrationTriggered
                && e.hydration_reason() == Some(HydrationReason::FirstTouch)
                && e.shard.is_some()
        }) {
            saw_first_touch = true;
            // The requested shard still hydrates to completion.
            store.hydrate().unwrap();
            assert_eq!(store.cold_shards(), 0);
            break;
        }
        assert_eq!(
            store.cold_shards(),
            0,
            "no FirstTouch event yet shards stayed cold — the request path is broken"
        );
    }
    assert!(
        saw_first_touch,
        "5 cold opens × 8 shards and no read ever touched a cold shard first"
    );
}

/// WAL poisoning and repair surface as store-wide trace events, and the
/// error ring (always on) drains through `take_maintenance_errors` — a
/// second drain finds it empty.
#[test]
fn wal_poison_and_repair_emit_store_wide_events() {
    let dir = scratch("obs-wal-repair");
    let config = StoreConfig::new(spec()).durability(DurabilityConfig::new());
    let store =
        ShardedStore::open_seeded(&dir, config, (0..1_000u64).collect::<Vec<_>>().as_slice())
            .unwrap();

    store.insert(5_000).unwrap();
    assert!(store.poison_wal_for_tests());
    assert!(store.insert(5_001).is_err(), "poisoned WAL refuses writes");
    assert!(store.repair_wal().unwrap());
    store.insert(5_002).unwrap();

    let kinds: Vec<TraceKind> = store
        .trace_events()
        .into_iter()
        .filter(|e| e.shard.is_none())
        .map(|e| e.kind)
        .collect();
    let poisoned = kinds.iter().position(|k| *k == TraceKind::WalPoisoned);
    let repaired = kinds.iter().position(|k| *k == TraceKind::WalRepair);
    assert!(poisoned.is_some() && repaired.is_some(), "{kinds:?}");
    assert!(poisoned < repaired, "poison precedes repair");

    assert!(store.take_maintenance_errors().is_empty());
    assert!(
        store.take_maintenance_errors().is_empty(),
        "drain is destructive; a second drain finds nothing"
    );
}

/// With metrics disabled the store stays silent — empty report, no trace
/// events even across rebuilds — but keeps serving correctly and still
/// captures maintenance errors.
#[test]
fn disabled_metrics_report_empty_but_store_serves() {
    let config = StoreConfig::new(spec())
        .shards(2)
        .delta_threshold(16)
        .metrics(false);
    let store = ShardedStore::build(config, (0..5_000u64).collect::<Vec<_>>().as_slice()).unwrap();

    for i in 0..100u64 {
        store.insert(10_000 + i).unwrap();
    }
    assert!(store.total_rebuilds() > 0, "rebuilds still happen");
    assert_eq!(store.lower_bound(10_000), 5_000);
    assert!(store.metrics().metrics.is_empty());
    assert!(store.trace_events().is_empty());
    assert!(store.take_maintenance_errors().is_empty());
    assert_eq!(store.metrics_addr(), None);
}

/// The optional endpoint serves the live report over HTTP from the
/// configured listener (port 0 picks a free one).
#[test]
fn metrics_endpoint_serves_the_live_report() {
    use std::io::{Read as _, Write as _};

    let config = StoreConfig::new(spec())
        .shards(2)
        .metrics_addr("127.0.0.1:0".parse().unwrap());
    let store = ShardedStore::build(config, (0..2_000u64).collect::<Vec<_>>().as_slice()).unwrap();
    let addr = store.metrics_addr().expect("endpoint is up");

    for i in 0..7u64 {
        let _ = store.lower_bound(i);
    }

    let mut conn = std::net::TcpStream::connect(addr).unwrap();
    conn.write_all(b"GET /metrics HTTP/1.0\r\nHost: x\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    conn.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.0 200"), "{response}");
    let body = response.split("\r\n\r\n").nth(1).unwrap();
    let parsed = parse_prometheus(body).unwrap();
    let reads = parsed
        .iter()
        .find(|s| s.name == "store_reads_total")
        .unwrap();
    assert_eq!(reads.value, 7.0, "the endpoint scrapes the live registry");
}
