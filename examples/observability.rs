//! Observability scenario: a store under a mixed workload exporting its
//! metrics registry as Prometheus text, streaming structured maintenance
//! trace events, and serving a scrape endpoint — all zero-dependency.
//!
//! Run with `cargo run --release --example observability`.

use shift_table_repro::prelude::*;
use std::io::{Read as _, Write as _};

fn main() {
    // Metrics are on by default: 1-in-1024 reads and writes pay the latency
    // timer and the trace ring keeps the last 1024 maintenance events. Port
    // 0 picks a free port for the optional `/metrics` endpoint.
    let dataset: Dataset<u64> = SosdName::Face64.generate(100_000, 42);
    let spec = IndexSpec::parse("im+r1").unwrap();
    let config = StoreConfig::new(spec)
        .shards(8)
        .delta_threshold(1_024)
        .metrics_addr("127.0.0.1:0".parse().unwrap());
    let store = ShardedStore::build(config, dataset.as_slice()).unwrap();

    // A mixed trace: enough writes to force rebuilds, and reads through the
    // kernel-backed batch path.
    let trace = MixedWorkload::insert_heavy(&dataset, 30_000, 7);
    let mut checksum = 0u64;
    for &op in trace.ops() {
        match op {
            MixedOp::Lookup(q) => checksum = checksum.wrapping_add(store.lower_bound(q) as u64),
            MixedOp::Insert(k) => store.insert(k).unwrap(),
            MixedOp::Delete(k) => {
                store.delete(k).unwrap();
            }
            MixedOp::Range(lo, hi) => {
                checksum = checksum.wrapping_add(store.range(lo, hi).len() as u64)
            }
        }
    }
    let queries: Vec<u64> = (0..4_096u64).map(|i| i * 31).collect();
    let mut out = vec![0usize; queries.len()];
    store.lower_bound_batch(&queries, &mut out);
    println!(
        "replayed {} ops (checksum {checksum:x})\n",
        trace.ops().len()
    );

    // The Prometheus export: every catalogued family, histograms as
    // _bucket/_count/_sum series. A scraper parses this text verbatim.
    let report = store.metrics();
    let text = report.to_prometheus();
    println!("--- store.metrics().to_prometheus(), first lines ---");
    for line in text.lines().take(18) {
        println!("{line}");
    }
    println!("... ({} lines total)\n", text.lines().count());

    // Structured maintenance events, drained oldest-first. Each carries
    // the commit version it was recorded at and a kind-specific payload.
    println!("--- store.trace_events() ---");
    for event in store.trace_events() {
        println!("{event}");
    }
    println!();

    // The endpoint serves the live registry to any HTTP/1.0 client.
    let addr = store.metrics_addr().expect("endpoint configured");
    let mut conn = std::net::TcpStream::connect(addr).unwrap();
    conn.write_all(b"GET /metrics HTTP/1.0\r\nHost: x\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    conn.read_to_string(&mut response).unwrap();
    let body = response.split("\r\n\r\n").nth(1).unwrap_or("");
    println!(
        "--- GET http://{addr}/metrics: {} ({} body lines) ---",
        response.lines().next().unwrap_or(""),
        body.lines().count()
    );
}
