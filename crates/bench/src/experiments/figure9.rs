//! Figure 9 — effect of the Shift-Table layer size.
//!
//! For eight datasets the paper compares the full range-mode layer (R-1), the
//! midpoint layers S-1 / S-10 / S-100 / S-1000, and the bare model, reporting
//! lookup latency (9a) and average prediction error (9b). The reproducible
//! shape: R-1 and S-1 are the fastest, error and latency grow as the layer is
//! compressed, and the bare model is far worse on the hard datasets. A third
//! table puts the price next to it: bytes per key of every layer, and the
//! words the R-1 layer keeps in its patch array (59 per escaped line whose
//! drifts spread at most 65 535, 116 per one that spreads more).
//!
//! R-1 and the bare model are built from `im+r1` / `im+none` specs, as the
//! serving path builds them. The S-X layers serve no lookup there: they are
//! this crate's [`crate::midpoint`] layers, under the same IM model.

use crate::datasets::{dataset_u32, dataset_u64, BenchConfig};
use crate::midpoint::MidpointIndex;
use crate::report::{fmt_ns, Table};
use crate::timer::measure_lookups;
use algo_index::RangeIndex;
use learned_index::linear::InterpolationModel;
use shift_table::prelude::*;
use sosd_data::prelude::*;

/// The eight datasets of Figure 9.
pub const FIGURE9_DATASETS: [SosdName; 8] = [
    SosdName::Amzn64,
    SosdName::Face32,
    SosdName::Logn32,
    SosdName::Norm64,
    SosdName::Osmc64,
    SosdName::Uden32,
    SosdName::Uspr32,
    SosdName::Wiki64,
];

/// The layer configurations of Figure 9.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayerConfig {
    /// Full `<Δ, C>` layer.
    R1,
    /// Midpoint layer with one entry per X records.
    S(usize),
    /// No layer (bare model).
    Without,
}

impl LayerConfig {
    /// The configurations in the order the figure lists them.
    pub fn all() -> [LayerConfig; 6] {
        [
            Self::R1,
            Self::S(1),
            Self::S(10),
            Self::S(100),
            Self::S(1000),
            Self::Without,
        ]
    }

    /// Display label.
    pub fn label(self) -> String {
        match self {
            Self::R1 => "R-1".to_string(),
            Self::S(x) => format!("S-{x}"),
            Self::Without => "Without Shift-Table".to_string(),
        }
    }
}

/// Lookup ns, mean absolute error after correction, and the layer's size
/// as the size table prints it.
fn measure_config<K: Key>(
    shared: &std::sync::Arc<[K]>,
    w: &Workload<K>,
    config: LayerConfig,
) -> (f64, f64, String) {
    let per_key = |bytes: usize| bytes as f64 / shared.len().max(1) as f64;
    let layer = match config {
        LayerConfig::S(x) => {
            let model = InterpolationModel::from_sorted_keys(shared);
            let index = MidpointIndex::build(shared.clone(), model, x);
            let (ns, _) = measure_lookups(w.queries(), |q| index.lower_bound(q));
            let bytes = per_key(index.table().size_bytes());
            return (ns, index.correction_error().mean_abs, format!("{bytes:.3}"));
        }
        LayerConfig::R1 => "r1",
        LayerConfig::Without => "none",
    };
    let spec = IndexSpec::parse(&format!("im+{layer}")).unwrap();
    let index = spec.build_corrected(shared.clone()).expect("sorted keys");
    let (ns, _) = measure_lookups(w.queries(), |q| index.lower_bound(q));
    let err = index.correction_error().mean_abs;
    let bytes = per_key(index.layer().size_bytes());
    let size = match index.layer() {
        CorrectionLayer::Range(table) => {
            let (patches, shifted) = (table.patches(), table.shifted_lines());
            format!("{bytes:.2} ({patches} patch words, {shifted} shifted lines)")
        }
        CorrectionLayer::None => format!("{bytes:.3}"),
    };
    (ns, err, size)
}

/// Run the Figure 9 experiment over `datasets`.
pub fn run_subset(cfg: BenchConfig, datasets: &[SosdName]) -> Vec<Table> {
    let mut latency = Table::new(
        "Figure 9a — lookup time (ns) by Shift-Table layer size (IM model)",
        &[
            "dataset", "R-1", "S-1", "S-10", "S-100", "S-1000", "without",
        ],
    );
    let mut error = Table::new(
        "Figure 9b — average prediction error (records) by Shift-Table layer size (IM model)",
        &[
            "dataset", "R-1", "S-1", "S-10", "S-100", "S-1000", "without",
        ],
    );
    let mut size = Table::new(
        "Figure 9c — layer size (bytes per key; R-1 with the words of its escaped lines' patches and its shifted lines) (IM model)",
        &[
            "dataset", "R-1", "S-1", "S-10", "S-100", "S-1000", "without",
        ],
    );

    for &name in datasets {
        let mut ns_cells = vec![name.to_string()];
        let mut err_cells = vec![name.to_string()];
        let mut size_cells = vec![name.to_string()];
        // One shared copy of the key column per dataset; each configuration
        // clones the Arc, not the keys.
        if name.bits() == 32 {
            let d = dataset_u32(name, cfg);
            let w = Workload::uniform_keys(&d, cfg.queries, cfg.seed ^ 0x99);
            let shared = d.to_shared();
            for config in LayerConfig::all() {
                let (ns, err, bytes) = measure_config(&shared, &w, config);
                ns_cells.push(fmt_ns(ns));
                err_cells.push(format!("{err:.1}"));
                size_cells.push(bytes);
            }
        } else {
            let d = dataset_u64(name, cfg);
            let w = Workload::uniform_keys(&d, cfg.queries, cfg.seed ^ 0x99);
            let shared = d.to_shared();
            for config in LayerConfig::all() {
                let (ns, err, bytes) = measure_config(&shared, &w, config);
                ns_cells.push(fmt_ns(ns));
                err_cells.push(format!("{err:.1}"));
                size_cells.push(bytes);
            }
        }
        latency.add_row(ns_cells);
        error.add_row(err_cells);
        size.add_row(size_cells);
    }

    vec![latency, error, size]
}

/// Run over the figure's eight datasets.
pub fn run(cfg: BenchConfig) -> Vec<Table> {
    run_subset(cfg, &FIGURE9_DATASETS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure9_smoke_produces_latency_and_error_tables() {
        let tables = run_subset(BenchConfig::smoke(), &[SosdName::Face32, SosdName::Osmc64]);
        // ... and the size table beside them.
        assert_eq!(tables.len(), 3);
        assert!(tables.iter().all(|table| table.row_count() == 2));
    }

    #[test]
    fn compression_increases_error_on_hard_data() {
        // On osmc the S-1000 layer must have a larger error than S-1.
        let cfg = BenchConfig::smoke();
        let d = dataset_u64(SosdName::Osmc64, cfg);
        let w = Workload::uniform_keys(&d, 1_000, 5);
        let shared = d.to_shared();
        let (_, e1, _) = measure_config(&shared, &w, LayerConfig::S(1));
        let (_, e1000, _) = measure_config(&shared, &w, LayerConfig::S(1000));
        let (_, e_without, _) = measure_config(&shared, &w, LayerConfig::Without);
        assert!(e1 <= e1000);
        assert!(e1000 <= e_without);
    }
}
