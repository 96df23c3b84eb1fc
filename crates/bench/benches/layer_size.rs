//! Bench behind Figure 9: lookup latency by Shift-Table layer size.
//!
//! Self-contained harness (no criterion): run with
//! `cargo bench -p shift-bench --bench layer_size`.

use algo_index::RangeIndex;
use learned_index::linear::InterpolationModel;
use shift_bench::prelude::*;
use shift_table::prelude::*;
use sosd_data::prelude::*;

/// Print one layer's scalar and batched lookup cost beside its bytes.
fn report<I: RangeIndex<u64>>(layer: &str, index: &I, layer_bytes: usize, w: &Workload<u64>) {
    let (ns, _) = measure_lookups(w.queries(), |q| index.lower_bound(q));
    let (batch_ns, _) =
        measure_lookups_batched(w.queries(), |qs, out| index.lower_bound_batch(qs, out));
    println!(
        "im+{layer:<6} {ns:>8.1} ns/lookup   batched {batch_ns:>8.1} ns/lookup   layer {layer_bytes:>10} B"
    );
}

fn main() {
    let d: Dataset<u64> = SosdName::Osmc64.generate(1_000_000, 42);
    let shared = d.to_shared();
    let w = Workload::uniform_keys(&d, 100_000, 9);
    println!("== figure9_layer_size_osmc64 ({} keys) ==", d.len());

    // R-1 and no layer as the serving path builds them; the S-X ladder from
    // the bench's midpoint layers, which serve only the scalar gallop.
    let spec = |layer: &str| IndexSpec::parse(&format!("im+{layer}")).unwrap();
    let r1 = spec("r1").build_corrected(shared.clone()).unwrap();
    report("r1", &r1, r1.layer().size_bytes(), &w);
    for x in [1usize, 10, 100, 1000] {
        let model = InterpolationModel::from_sorted_keys(&shared);
        let index = MidpointIndex::build(shared.clone(), model, x);
        report(&format!("s{x}"), &index, index.table().size_bytes(), &w);
    }
    let none = spec("none").build_corrected(shared.clone()).unwrap();
    report("none", &none, none.layer().size_bytes(), &w);
}
