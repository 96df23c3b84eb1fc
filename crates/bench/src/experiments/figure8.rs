//! Figure 8 — effect of index size on performance (face64 and osmc64).
//!
//! The paper sweeps the size knob of every index (radix bits, spline error,
//! RMI leaf count, B+tree fanout, Shift-Table layer size) and reports lookup
//! time, average log2 error, instruction count and L1/LLC misses as functions
//! of the index footprint. This experiment reproduces the sweep with lookup
//! time, log2 error and the out-of-cache probe proxy per configuration.

use crate::counters::ProbeCounter;
use crate::datasets::{dataset_u64, BenchConfig};
use crate::midpoint::MidpointIndex;
use crate::report::{fmt_ns, Table};
use crate::timer::{measure_build, measure_lookups};
use algo_index::prelude::*;
use learned_index::prelude::*;
use shift_table::prelude::*;
use sosd_data::prelude::*;

/// The two datasets Figure 8 analyses.
pub const FIGURE8_DATASETS: [SosdName; 2] = [SosdName::Face64, SosdName::Osmc64];

struct SweepPoint {
    index: &'static str,
    parameter: String,
    size_bytes: usize,
    lookup_ns: f64,
    mean_log2_error: f64,
    probes: f64,
}

/// Run the Figure 8 experiment.
pub fn run(cfg: BenchConfig) -> Vec<Table> {
    let mut tables = Vec::new();
    for name in FIGURE8_DATASETS {
        let d = dataset_u64(name, cfg);
        let w = Workload::uniform_keys(&d, cfg.queries, cfg.seed ^ 0x88);
        let mut points: Vec<SweepPoint> = Vec::new();

        sweep_radix_spline(&d, &w, &mut points);
        sweep_rmi(&d, &w, &mut points);
        sweep_btree(&d, &w, &mut points);
        sweep_rbs(&d, &w, &mut points);
        sweep_shift_table(&d, &w, &mut points);

        let mut table = Table::new(
            format!("Figure 8 — index size vs performance on {name}"),
            &[
                "index",
                "parameter",
                "index_bytes",
                "lookup_ns",
                "mean_log2_error",
                "probes_per_lookup",
            ],
        );
        for p in points {
            table.add_row(vec![
                p.index.to_string(),
                p.parameter,
                p.size_bytes.to_string(),
                fmt_ns(p.lookup_ns),
                format!("{:.2}", p.mean_log2_error),
                format!("{:.1}", p.probes),
            ]);
        }
        tables.push(table);
    }
    tables
}

fn log2_error_of_model<M: CdfModel<u64>>(model: &M, d: &Dataset<u64>) -> f64 {
    ModelErrorStats::compute(model, d).mean_log2
}

fn sweep_radix_spline(d: &Dataset<u64>, w: &Workload<u64>, out: &mut Vec<SweepPoint>) {
    let shared = d.to_shared();
    for max_error in [8usize, 32, 128, 512, 2048] {
        let spec = IndexSpec::parse(&format!("rs:{max_error}+none")).unwrap();
        let (_, index) =
            measure_build(|| spec.build_corrected(shared.clone()).expect("sorted keys"));
        let log2 = log2_error_of_model(index.model(), d);
        out.push(SweepPoint {
            index: "RS",
            parameter: format!("eps={max_error}"),
            size_bytes: index.model().size_bytes(),
            lookup_ns: measure_lookups(w.queries(), |q| index.lower_bound(q)).0,
            mean_log2_error: log2,
            probes: ProbeCounter::learned(1.0, (max_error as f64).max(1.0)),
        });
    }
}

fn sweep_rmi(d: &Dataset<u64>, w: &Workload<u64>, out: &mut Vec<SweepPoint>) {
    let shared = d.to_shared();
    for leaves in [256usize, 4_096, 65_536, 524_288] {
        if leaves > d.len() {
            continue;
        }
        let spec = IndexSpec::parse(&format!("rmi:{leaves}+none")).unwrap();
        let (_, index) =
            measure_build(|| spec.build_corrected(shared.clone()).expect("sorted keys"));
        let log2 = log2_error_of_model(index.model(), d);
        let err = ModelErrorStats::compute(index.model(), d).mean_abs;
        out.push(SweepPoint {
            index: "RMI",
            parameter: format!("leaves={leaves}"),
            size_bytes: index.model().size_bytes(),
            lookup_ns: measure_lookups(w.queries(), |q| index.lower_bound(q)).0,
            mean_log2_error: log2,
            probes: ProbeCounter::learned(1.0, err),
        });
    }
}

fn sweep_btree(d: &Dataset<u64>, w: &Workload<u64>, out: &mut Vec<SweepPoint>) {
    for fanout in [8usize, 16, 64, 256, 1024] {
        let (_, bt) = measure_build(|| BPlusTree::with_fanout(d.as_slice(), fanout));
        let (ns, _) = measure_lookups(w.queries(), |q| bt.lower_bound(q));
        out.push(SweepPoint {
            index: "B+tree",
            parameter: format!("fanout={fanout}"),
            size_bytes: bt.index_size_bytes(),
            lookup_ns: ns,
            mean_log2_error: (fanout as f64).log2(),
            probes: ProbeCounter::tree(bt.height(), fanout),
        });
    }
}

fn sweep_rbs(d: &Dataset<u64>, w: &Workload<u64>, out: &mut Vec<SweepPoint>) {
    for bits in [10u32, 14, 18, 22] {
        let (_, rbs) = measure_build(|| RadixBinarySearch::with_radix_bits(d.as_slice(), bits));
        let (ns, _) = measure_lookups(w.queries(), |q| rbs.lower_bound(q));
        let expected_bucket = (d.len() as f64 / (1u64 << bits) as f64).max(1.0);
        out.push(SweepPoint {
            index: "RBS",
            parameter: format!("bits={bits}"),
            size_bytes: rbs.index_size_bytes(),
            lookup_ns: ns,
            mean_log2_error: expected_bucket.log2().max(0.0),
            probes: expected_bucket.log2().max(1.0),
        });
    }
}

fn sweep_shift_table(d: &Dataset<u64>, w: &Workload<u64>, out: &mut Vec<SweepPoint>) {
    // IM + Shift-Table across layer sizes: R-1 (the `im+r1` spec) plus the
    // S-X ladder of `crate::midpoint` layers.
    let shared = d.to_shared();
    let spec = IndexSpec::parse("im+r1").unwrap();
    let r1 = spec.build_corrected(shared.clone()).expect("sorted keys");
    out.push(shift_table_point(
        "R-1".to_string(),
        &r1,
        r1.correction_error(),
        w,
    ));
    for x in [1usize, 10, 100, 1000] {
        let model = InterpolationModel::from_sorted_keys(&shared);
        let index = MidpointIndex::build(shared.clone(), model, x);
        let err = index.correction_error();
        out.push(shift_table_point(format!("S-{x}"), &index, err, w));
    }
}

fn shift_table_point<I: RangeIndex<u64>>(
    parameter: String,
    index: &I,
    err: CorrectionErrorStats,
    w: &Workload<u64>,
) -> SweepPoint {
    SweepPoint {
        index: "IM+Shift-Table",
        parameter,
        size_bytes: index.index_size_bytes(),
        lookup_ns: measure_lookups(w.queries(), |q| index.lower_bound(q)).0,
        mean_log2_error: err.mean_log2,
        probes: ProbeCounter::corrected(0.0, err.mean_abs.max(1.0)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure8_smoke_sweeps_every_index_family() {
        let tables = run(BenchConfig::smoke());
        assert_eq!(tables.len(), 2);
        let rendered = tables[0].render();
        for family in ["RS", "RMI", "B+tree", "RBS", "IM+Shift-Table"] {
            assert!(rendered.contains(family), "missing {family}");
        }
    }
}
