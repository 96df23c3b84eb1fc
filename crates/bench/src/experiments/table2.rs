//! Table 2 — lookup times (ns per lookup) of every method over the 14 SOSD
//! datasets.
//!
//! Queries are sampled uniformly from the indexed keys, as in the SOSD
//! benchmark and §4. The absolute numbers depend on the machine and the
//! dataset scale (`SOSD_N`); the reproducible claims are the *relationships*:
//! learned indexes dominate on synthetic data, while `IM+Shift-Table` beats
//! RMI/RS by ~1.5–2× on the real-world distributions.

use crate::datasets::{dataset_u32, dataset_u64, BenchConfig};
use crate::report::{fmt_ns, Table};
use crate::suites::{measure_all, Competitor, MeasuredResult};
use sosd_data::prelude::*;

/// Measure one dataset row (dispatching on the key width).
pub fn measure_dataset(name: SosdName, cfg: BenchConfig) -> Vec<MeasuredResult> {
    if name.bits() == 32 {
        let d = dataset_u32(name, cfg);
        let w = Workload::uniform_keys(&d, cfg.queries, cfg.seed ^ 0x5151);
        measure_all(&d, w.queries(), w.expected())
    } else {
        let d = dataset_u64(name, cfg);
        let w = Workload::uniform_keys(&d, cfg.queries, cfg.seed ^ 0x5151);
        measure_all(&d, w.queries(), w.expected())
    }
}

/// Run the full Table 2 experiment over `datasets` (defaults to all 14).
pub fn run_subset(cfg: BenchConfig, datasets: &[SosdName]) -> Vec<Table> {
    let mut columns = vec!["Dataset".to_string()];
    columns.extend(Competitor::all().iter().map(|c| c.label().to_string()));
    let header_refs: Vec<&str> = columns.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(
        format!(
            "Table 2 — lookup time (ns/lookup), {} keys per dataset, {} lookups",
            cfg.keys, cfg.queries
        ),
        &header_refs,
    );
    let mut speedup = Table::new(
        "Table 2 (derived) — speedup of IM+Shift-Table over the best tuned learned index (RMI/RS)",
        &["Dataset", "best_learned_ns", "im_shift_table_ns", "speedup"],
    );

    for &name in datasets {
        let results = measure_dataset(name, cfg);
        let cell = |c: Competitor| -> String {
            results
                .iter()
                .find(|r| r.competitor == c)
                .and_then(|r| r.lookup_ns)
                .map(fmt_ns)
                .unwrap_or_else(|| "N/A".to_string())
        };
        let mut row = vec![name.to_string()];
        row.extend(Competitor::all().iter().map(|&c| cell(c)));
        table.add_row(row);

        let ns_of = |c: Competitor| -> Option<f64> {
            results
                .iter()
                .find(|r| r.competitor == c)
                .and_then(|r| r.lookup_ns)
        };
        if let (Some(st), Some(rmi), Some(rs)) = (
            ns_of(Competitor::ImShiftTable),
            ns_of(Competitor::Rmi),
            ns_of(Competitor::RadixSpline),
        ) {
            let best = rmi.min(rs);
            speedup.add_row(vec![
                name.to_string(),
                fmt_ns(best),
                fmt_ns(st),
                format!("{:.2}x", best / st),
            ]);
        }
    }

    vec![table, speedup]
}

/// Run over all 14 datasets (or the subset named in `SOSD_DATASETS`, a
/// comma-separated list).
///
/// # Panics
/// If `SOSD_DATASETS` names a dataset that does not exist: the message
/// names the bad token and lists every known name.
pub fn run(cfg: BenchConfig) -> Vec<Table> {
    let datasets: Vec<SosdName> = match std::env::var("SOSD_DATASETS") {
        Ok(list) => parse_datasets(&list).unwrap_or_else(|e| panic!("SOSD_DATASETS: {e}")),
        Err(_) => SosdName::all().to_vec(),
    };
    run_subset(cfg, &datasets)
}

/// Parse a comma-separated list of dataset names; the first unknown one is
/// an error.
fn parse_datasets(list: &str) -> Result<Vec<SosdName>, String> {
    list.split(',').map(|s| s.trim().parse()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_smoke_covers_a_32bit_and_a_64bit_dataset() {
        let cfg = BenchConfig::smoke();
        let tables = run_subset(cfg, &[SosdName::Uden32, SosdName::Osmc64]);
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].row_count(), 2);
        let rendered = tables[0].render();
        assert!(rendered.contains("uden32"));
        assert!(rendered.contains("osmc64"));
        // FAST must be N/A on the 64-bit row.
        assert!(rendered.contains("N/A"));
    }

    #[test]
    fn an_unknown_dataset_name_is_an_error_naming_it() {
        assert_eq!(
            parse_datasets(" uden32,osmc64"),
            Ok(vec![SosdName::Uden32, SosdName::Osmc64])
        );
        let err = parse_datasets("uden32,bogus").unwrap_err();
        assert!(err.contains("`bogus`") && err.contains("wiki64"), "{err}");
    }
}
