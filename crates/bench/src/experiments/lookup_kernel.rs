//! Lookup-kernel benchmark: the software-pipelined batch kernel vs. the
//! stage-blocked reference, for every layer family.
//!
//! Not part of the paper's evaluation: this suite measures the
//! [`shift_table::kernel`] perf work. One table is produced: the same query
//! batch resolved through `CorrectedIndex::lower_bound_batch` (the
//! wave-pipelined kernel: predict → correct → touch → resolve) and through
//! `lower_bound_batch_blocked` (the stage-blocked reference loop, kept as
//! the oracle baseline), for each spec in [`KERNEL_SPECS`] — a range layer,
//! a midpoint layer and no layer, the three corrections the one kernel
//! serves — across synthetic and real-world SOSD distributions. A parity
//! column asserts both paths equal the scalar `lower_bound` per query — the
//! kernel must buy latency, never positions. With `KERNEL_ASSERT=1` and at
//! least [`ASSERT_MIN_KEYS`] keys, the run aborts unless the pipelined
//! kernel reaches [`ASSERT_MIN_SPEEDUP`]× on at least half the
//! distributions of the `im+r1` rows (the CI `kernel-perf` job's acceptance
//! gate); the other specs' rows are reported, not gated.

use crate::datasets::{dataset_u64, BenchConfig};
use crate::report::{fmt_ns, Table};
use crate::timer::measure_lookups_batched_pair;
use algo_index::RangeIndex;
use shift_table::spec::IndexSpec;
use sosd_data::prelude::*;

/// SOSD distributions the table sweeps: the four synthetic generators plus
/// the two hardest real-world ones.
pub const KERNEL_DATASETS: [SosdName; 6] = [
    SosdName::Uden64,
    SosdName::Uspr64,
    SosdName::Logn64,
    SosdName::Face64,
    SosdName::Amzn64,
    SosdName::Osmc64,
];

/// One spec per layer family: bounded range windows, unbounded midpoint
/// hints and raw predictions. The first is the one the assert gate counts.
pub const KERNEL_SPECS: [&str; 3] = ["im+r1", "im+s10", "im+none"];

/// Speedup floor the `KERNEL_ASSERT=1` gate enforces on at least half the
/// swept distributions of the `im+r1` rows.
pub const ASSERT_MIN_SPEEDUP: f64 = 1.15;

/// The gate only engages at a scale where the key column outruns the cache
/// hierarchy — below this the touch stage has nothing to hide.
pub const ASSERT_MIN_KEYS: usize = 1_000_000;

/// Run the lookup-kernel benchmark: pipelined kernel vs. stage-blocked
/// reference per spec and distribution.
pub fn run(cfg: BenchConfig) -> Vec<Table> {
    let mut table = Table::new(
        format!(
            "Lookup kernel — pipelined vs. stage-blocked batch lower bounds \
             (n = {}, {} queries, block 64 / wave 8)",
            cfg.keys, cfg.queries
        ),
        &[
            "spec",
            "dataset",
            "blocked ns",
            "pipelined ns",
            "speedup",
            "parity",
        ],
    );
    let mut meets_floor = 0usize;
    for spec_text in KERNEL_SPECS {
        let spec = IndexSpec::parse(spec_text).expect("builtin spec parses");
        for name in KERNEL_DATASETS {
            let d = dataset_u64(name, cfg);
            let w = Workload::uniform_keys(&d, cfg.queries, cfg.seed ^ 0x7A7A);
            let index = spec.build_corrected(d.to_shared()).expect("sorted dataset");

            // Parity first: both batch paths must equal the scalar path on
            // every query (checked once, outside the timing loops).
            let mut out = vec![0usize; w.queries().len()];
            let mut mismatches = 0usize;
            index.lower_bound_batch(w.queries(), &mut out);
            for (&q, &got) in w.queries().iter().zip(out.iter()) {
                mismatches += (got != index.lower_bound(q)) as usize;
            }
            index.lower_bound_batch_blocked(w.queries(), &mut out);
            for (&q, &got) in w.queries().iter().zip(out.iter()) {
                mismatches += (got != index.lower_bound(q)) as usize;
            }
            assert_eq!(
                mismatches, 0,
                "{spec} {name}: batch paths diverged from scalar"
            );

            // Head-to-head: interleaved rounds with a min estimator, so
            // shared-vCPU noise and frequency drift hit both paths
            // symmetrically instead of whichever happened to run second.
            let ((blocked_ns, blocked_sum), (kernel_ns, kernel_sum)) = measure_lookups_batched_pair(
                w.queries(),
                7,
                |qs, os| index.lower_bound_batch_blocked(qs, os),
                |qs, os| index.lower_bound_batch(qs, os),
            );
            assert_eq!(blocked_sum, kernel_sum, "{spec} {name}: checksums diverged");

            let speedup = if kernel_ns > 0.0 {
                blocked_ns / kernel_ns
            } else {
                1.0
            };
            if spec_text == KERNEL_SPECS[0] {
                meets_floor += (speedup >= ASSERT_MIN_SPEEDUP) as usize;
            }
            table.add_row(vec![
                spec_text.to_string(),
                name.to_string(),
                fmt_ns(blocked_ns),
                fmt_ns(kernel_ns),
                format!("{speedup:.2}x"),
                "exact".into(),
            ]);
        }
    }
    if std::env::var("KERNEL_ASSERT").as_deref() == Ok("1") && cfg.keys >= ASSERT_MIN_KEYS {
        assert!(
            meets_floor * 2 >= KERNEL_DATASETS.len(),
            "KERNEL_ASSERT: pipelined kernel reached {ASSERT_MIN_SPEEDUP}x on only \
             {meets_floor}/{} {} distributions (need at least half)",
            KERNEL_DATASETS.len(),
            KERNEL_SPECS[0]
        );
        println!(
            "[kernel-assert] ok: >= {ASSERT_MIN_SPEEDUP}x on {meets_floor}/{} {} distributions\n",
            KERNEL_DATASETS.len(),
            KERNEL_SPECS[0]
        );
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_produces_the_three_spec_table_with_exact_parity() {
        let tables = run(BenchConfig {
            keys: 4_000,
            queries: 300,
            seed: 7,
        });
        assert_eq!(tables.len(), 1);
        assert_eq!(
            tables[0].row_count(),
            KERNEL_SPECS.len() * KERNEL_DATASETS.len()
        );
        let rendered = tables[0].render();
        assert!(rendered.contains("exact"), "parity column must be exact");
        assert!(!rendered.contains("MISMATCH"));
        for spec in KERNEL_SPECS {
            assert!(rendered.contains(spec), "a row per {spec}");
        }
    }
}
