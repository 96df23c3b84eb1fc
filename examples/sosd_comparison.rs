//! SOSD-style comparison: measure every baseline of Table 2 on one dataset
//! and print a mini version of the paper's headline result.
//!
//! Run with (dataset name and key count are optional):
//! ```text
//! cargo run --release --example sosd_comparison -- face64 2000000
//! ```

use shift_table_repro::prelude::*;
use std::time::Instant;

fn measure<I: RangeIndex<u64>>(label: &str, index: &I, queries: &[u64], expected: &[usize]) {
    // Verify before timing.
    for (q, e) in queries.iter().zip(expected.iter()).take(200) {
        assert_eq!(index.lower_bound(*q), *e, "{label} is incorrect");
    }
    let start = Instant::now();
    let mut checksum = 0usize;
    for &q in queries {
        checksum = checksum.wrapping_add(index.lower_bound(q));
    }
    let ns = start.elapsed().as_nanos() as f64 / queries.len() as f64;
    println!(
        "{label:<18} {ns:>8.1} ns/lookup   (index: {:>12} bytes, checksum {checksum})",
        index.index_size_bytes()
    );
}

/// Exit with `message` on stderr: a bad argument is never replaced by a
/// default.
fn fail(message: &str) -> ! {
    eprintln!("sosd_comparison: {message}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let name: SosdName = match args.get(1) {
        Some(s) => s.parse().unwrap_or_else(|e: String| fail(&e)),
        None => SosdName::Face64,
    };
    let n: usize = match args.get(2) {
        Some(s) => s
            .parse()
            .unwrap_or_else(|_| fail(&format!("key count `{s}` is not a whole number"))),
        None => 2_000_000,
    };

    println!("dataset {name} with {n} keys\n");
    let dataset: Dataset<u64> = name.generate(n, 42);
    let keys = dataset.as_slice();
    let workload = Workload::uniform_keys(&dataset, 200_000.min(n), 7);
    let (queries, expected) = (workload.queries(), workload.expected());

    // On-the-fly search and algorithmic baselines.
    measure(
        "BinarySearch",
        &BinarySearchIndex::new(keys),
        queries,
        expected,
    );
    measure("B+tree", &BPlusTree::new(keys), queries, expected);
    measure("FAST-style", &FastTree::new(keys), queries, expected);
    measure("RBS", &RadixBinarySearch::new(keys), queries, expected);
    measure("TIP", &TipSearchIndex::new(keys), queries, expected);
    if !dataset.has_duplicates() {
        measure("ART", &ArtIndex::new(keys), queries, expected);
    } else {
        println!("{:<18} N/A (duplicate keys)", "ART");
    }

    // Learned indexes, with and without the Shift-Table layer — every
    // configuration composed at run time from a spec string over shared
    // (owned) key storage.
    let shared = dataset.to_shared();
    for spec_str in [
        "im+none",
        "rs:32+none",
        "rmi:16384+none",
        "im+r1",
        "rs:32+r1",
        "im+auto",
    ] {
        let spec = IndexSpec::parse(spec_str).expect("valid spec");
        let index = spec.build(shared.clone()).expect("sorted keys");
        measure(spec_str, &index, queries, expected);
    }
}
