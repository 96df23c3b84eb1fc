//! Figure 7 — index build times.
//!
//! The paper reports the average build time per index (over all datasets)
//! with standard-deviation bars. The ranking to reproduce: the Shift-Table
//! variants build in a single pass and are no slower than the competing
//! learned indexes (RMI build/tuning dominates), while ART/B+tree/FAST/RBS
//! are cheap bulk loads.
//!
//! For the spec-built (learned) competitors the build is also shown split
//! into its two streaming stages, timed apart on a second build: `train_ms`
//! (every candidate model of the competitor's sweep) and `table_ms`
//! (Algorithm 2 over the trained model, for specs that carry a range
//! layer). `build_ms` additionally holds key validation and, for the RMI
//! sweep, the per-candidate error scan that picks the winner.

use crate::datasets::{dataset_u32, dataset_u64, BenchConfig};
use crate::report::Table;
use crate::suites::{measure_one, Competitor};
use crate::timer::{mean_and_std, measure_build};
use shift_table::spec::LayerSpec;
use shift_table::ShiftTable;
use sosd_data::prelude::*;

/// The indexes Figure 7 reports build times for.
pub const FIGURE7_COMPETITORS: [Competitor; 8] = [
    Competitor::Art,
    Competitor::BPlusTree,
    Competitor::Fast,
    Competitor::Rbs,
    Competitor::Rmi,
    Competitor::RadixSpline,
    Competitor::RsShiftTable,
    Competitor::ImShiftTable,
];

/// Build times of one competitor on one dataset, in ms. The split is
/// `None` for the algorithmic baselines.
struct BuildTimes {
    competitor: Competitor,
    build: Option<f64>,
    split: Option<(f64, f64)>,
}

/// `(train_ms, table_ms)` of a spec-built competitor: all its candidate
/// models trained, and the range layer built for the specs that carry one.
fn train_table_split<K: Key>(competitor: Competitor, keys: &[K]) -> Option<(f64, f64)> {
    let candidates = competitor.candidate_specs(keys.len());
    if candidates.is_empty() {
        return None;
    }
    let (mut train, mut table) = (0.0, 0.0);
    for spec in &candidates {
        let (ms, model) = measure_build(|| spec.model.build(keys));
        train += ms;
        if spec.layer == LayerSpec::Range {
            table += measure_build(|| ShiftTable::build(&model, keys)).0;
        }
    }
    Some((train, table))
}

fn measure_builds<K: Key>(d: &Dataset<K>, query_count: usize) -> Vec<BuildTimes> {
    let w = Workload::uniform_keys(d, query_count, 3);
    FIGURE7_COMPETITORS
        .iter()
        .map(|&competitor| BuildTimes {
            competitor,
            build: measure_one(competitor, d, w.queries(), w.expected()).build_ms,
            split: train_table_split(competitor, d.as_slice()),
        })
        .collect()
}

/// Run the Figure 7 experiment over `datasets`.
pub fn run_subset(cfg: BenchConfig, datasets: &[SosdName]) -> Vec<Table> {
    // Few queries: we only need the builds verified, not timed precisely.
    let query_count = cfg.queries.min(1_000);
    // Per index: build, train and table samples.
    let mut per_index: Vec<(Competitor, [Vec<f64>; 3])> = FIGURE7_COMPETITORS
        .iter()
        .map(|&c| (c, Default::default()))
        .collect();

    let mut detail = Table::new(
        "Figure 7 (detail) — build time per index and dataset (ms)",
        &["dataset", "index", "build_ms", "train_ms", "table_ms"],
    );
    let ms_or_dash = |ms: Option<f64>| ms.map_or("-".to_string(), |ms| format!("{ms:.2}"));

    for &name in datasets {
        let results = if name.bits() == 32 {
            measure_builds(&dataset_u32(name, cfg), query_count)
        } else {
            measure_builds(&dataset_u64(name, cfg), query_count)
        };
        for r in results {
            let Some(build) = r.build else { continue };
            detail.add_row(vec![
                name.to_string(),
                r.competitor.label().to_string(),
                format!("{build:.2}"),
                ms_or_dash(r.split.map(|s| s.0)),
                ms_or_dash(r.split.map(|s| s.1)),
            ]);
            let samples = &mut per_index
                .iter_mut()
                .find(|(c, _)| *c == r.competitor)
                .unwrap()
                .1;
            samples[0].push(build);
            if let Some((train, table)) = r.split {
                samples[1].push(train);
                samples[2].push(table);
            }
        }
    }

    let mut summary = Table::new(
        format!(
            "Figure 7 — average index build time over {} datasets (ms)",
            datasets.len()
        ),
        &[
            "index",
            "mean_build_ms",
            "std_dev_ms",
            "mean_train_ms",
            "mean_table_ms",
            "datasets_measured",
        ],
    );
    for (competitor, [build, train, table]) in &per_index {
        let (mean, std) = mean_and_std(build);
        let mean_or_dash = |s: &[f64]| ms_or_dash((!s.is_empty()).then(|| mean_and_std(s).0));
        summary.add_row(vec![
            competitor.label().to_string(),
            format!("{mean:.2}"),
            format!("{std:.2}"),
            mean_or_dash(train),
            mean_or_dash(table),
            build.len().to_string(),
        ]);
    }

    vec![summary, detail]
}

/// Run over all 14 datasets.
pub fn run(cfg: BenchConfig) -> Vec<Table> {
    run_subset(cfg, &SosdName::all())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure7_smoke_collects_build_times() {
        let tables = run_subset(BenchConfig::smoke(), &[SosdName::Uspr32, SosdName::Wiki64]);
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].row_count(), FIGURE7_COMPETITORS.len());
        assert!(tables[1].row_count() >= 10);
        // Only the spec-built competitors carry the train/table split, and
        // only the ones with a range layer a table time.
        let summary = tables[0].render();
        let row = |label: &str| -> Vec<&str> {
            let cells = summary.lines().map(|l| l.split_whitespace().collect());
            cells.into_iter().find(|c: &Vec<_>| c[0] == label).unwrap()
        };
        assert_eq!(row("ART")[3..5], ["-", "-"]);
        assert_eq!(row("RMI")[4], "0.00");
        assert!(row("IM+Shift-Table")[4].parse::<f64>().unwrap() > 0.0);
    }
}
