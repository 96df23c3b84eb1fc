//! Bench behind Figure 7: index build times.
//!
//! Self-contained harness (no criterion): run with
//! `cargo bench -p shift-bench --bench build_times`.

use algo_index::prelude::*;
use learned_index::prelude::*;
use shift_bench::prelude::*;
use shift_table::prelude::*;
use sosd_data::prelude::*;

fn report(label: &str, samples: &[f64]) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    println!(
        "{label:<26} {:>9.2} ms (median of {})",
        sorted[sorted.len() / 2],
        sorted.len()
    );
}

fn timed<T>(label: &str, repeats: usize, mut build: impl FnMut() -> T) {
    let samples: Vec<f64> = (0..repeats).map(|_| measure_build(&mut build).0).collect();
    report(label, &samples);
}

fn main() {
    let d: Dataset<u64> = SosdName::Face64.generate(500_000, 42);
    let keys = d.as_slice();
    let shared = d.to_shared();
    let repeats = 5;
    println!("== figure7_build_face64 ({} keys) ==", d.len());

    timed("B+tree", repeats, || BPlusTree::new(keys));
    timed("FAST", repeats, || FastTree::new(keys));
    timed("RBS", repeats, || RadixBinarySearch::new(keys));
    timed("ART", repeats, || ArtIndex::new(keys));
    timed("RS (model only)", repeats, || {
        RadixSpline::builder().max_error(32).build(&d)
    });
    timed("RMI-4096 (model only)", repeats, || {
        RmiIndex::builder().leaf_count(4096).build(&d)
    });
    timed("IM+ShiftTable (layer)", repeats, || {
        let model = InterpolationModel::build(&d);
        ShiftTable::build(&model, keys)
    });
    // Spec-driven end-to-end builds (model + layer over shared storage).
    for spec in ["im+r1", "rs:32+r1", "rmi:4096+none"] {
        let parsed = IndexSpec::parse(spec).unwrap();
        timed(&format!("spec {spec}"), repeats, || {
            parsed.build(shared.clone()).unwrap()
        });
    }
}
