//! Quickstart: compose a Shift-Table-corrected learned index at run time,
//! own the keys, and answer point, batched and range queries with it.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```

use shift_table_repro::prelude::*;

fn main() {
    // 1. A "real-world-like" dataset: one million OSM-style cell IDs.
    //    (Swap in `sosd_data::io::read_dataset_file` to index your own keys.)
    let dataset: Dataset<u64> = SosdName::Osmc64.generate(1_000_000, 42);
    println!(
        "dataset: {} keys, {} duplicates, {:.1} MiB of key data",
        dataset.len(),
        dataset.duplicate_count(),
        dataset.size_bytes() as f64 / (1024.0 * 1024.0)
    );

    // 2. The index is described by a spec string — model + correction layer —
    //    so the configuration can come from a CLI flag or a config file.
    //    "im+r1" is the paper's headline setup: the dummy two-parameter
    //    interpolation model corrected by a full-resolution Shift-Table.
    let spec = IndexSpec::parse("im+r1").expect("valid spec");

    // 3. Build it over *owned* (shared) key storage. The result is
    //    'static + Send + Sync and exposes the corrected-index API.
    let keys = dataset.to_shared();
    let index = spec.build_corrected(keys).expect("keys are sorted");
    println!(
        "index '{spec}'      : {} — {}",
        index.name(),
        index.correction_error()
    );
    // The layer is 64-byte cache lines of one base and 68 seven-bit
    // offsets, 67 entries a line (≈ 0.96 B/key), or 80 six-bit ones, 79
    // entries a line (≈ 0.81 B/key), where at most 1/32 of those lines
    // would be shifted or escaped — a window ends where the next entry's
    // starts, so its length costs nothing, and a correction reads one
    // line. A line whose drifts spread past what an offset holds (126 at
    // seven bits) counts them in units of up to 8 records (a shifted line,
    // at no extra bytes), and one spreading past 1 015 (503) costs 272
    // (320) bytes more, its drifts kept in full in a patch array.
    let (bits, patches, shifted) = match index.layer() {
        CorrectionLayer::Range(table) => {
            (table.offset_bits(), table.patches(), table.shifted_lines())
        }
        _ => (0, 0, 0),
    };
    println!(
        "index footprint      : {:.1} MiB ({} entries, {:.2} B/key, {bits}-bit offsets, {patches} patches, {shifted} shifted lines)",
        index.index_size_bytes() as f64 / (1024.0 * 1024.0),
        dataset.len(),
        index.index_size_bytes() as f64 / dataset.len() as f64,
    );

    // 4. Point lookups: lower_bound(q) = first position with key >= q.
    let q = dataset.key_at(dataset.len() / 3);
    let pos = index.lower_bound(q);
    assert_eq!(pos, dataset.lower_bound(q));
    println!("lower_bound({q}) = {pos}");

    // 5. Batched lookups amortize the model and layer stages across queries.
    let queries: Vec<u64> = (0..8)
        .map(|i| dataset.key_at(i * dataset.len() / 8))
        .collect();
    let positions = index.lower_bound_many(&queries);
    for (q, p) in queries.iter().zip(&positions) {
        assert_eq!(*p, dataset.lower_bound(*q));
    }
    println!("batched lookup of {} queries OK", queries.len());

    // 6. Range queries: both endpoints located with index probes.
    let lo = dataset.key_at(dataset.len() / 2);
    let hi = dataset.key_at(dataset.len() / 2 + 500);
    let range = index.range(lo, hi);
    println!(
        "range [{lo}, {hi}] -> {} matching records (positions {:?})",
        range.len(),
        range
    );
    assert_eq!(range, dataset.range_query(lo, hi));

    // 7. Because the index owns its keys, it can move to another thread.
    let handle = std::thread::spawn(move || index.lower_bound(q));
    assert_eq!(handle.join().unwrap(), pos);
    println!("lookup from a second thread OK — quickstart done");
}
