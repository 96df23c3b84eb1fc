//! Integration tests asserting the paper's qualitative claims at test scale.
//!
//! Absolute nanosecond numbers are machine-dependent, but the *relationships*
//! the paper reports must hold: they are what EXPERIMENTS.md records and what
//! these tests pin down.

use learned_index::ModelErrorStats;
use shift_table_repro::prelude::*;

const N: usize = 100_000;

/// §1 / Table 2: the Shift-Table layer corrects even a dummy linear model so
/// well that its remaining error is orders of magnitude below the raw model
/// on every real-world dataset.
#[test]
fn correction_reduces_dummy_model_error_by_an_order_of_magnitude_on_real_world_data() {
    for name in SosdName::real_world() {
        let dataset: Dataset<u64> = name.generate(N, 42);
        let model = InterpolationModel::build(&dataset);
        let before = ModelErrorStats::compute(&model, &dataset).mean_abs;
        let index = CorrectedIndex::builder(dataset.as_slice(), model)
            .with_range_table()
            .build()
            .unwrap();
        let after = index.correction_error().mean_abs;
        assert!(
            before >= 10.0 * after.max(0.1),
            "{name}: expected ≥10× error reduction, got {before:.1} -> {after:.1}"
        );
    }
}

/// §2.4: real-world distributions are harder to model than the synthetic
/// ones even when their macro shape matches (face vs uden/uspr).
#[test]
fn real_world_data_is_harder_for_compact_models_than_synthetic_uniform_data() {
    let spline_count = |name: SosdName| {
        let d: Dataset<u64> = name.generate(N, 1);
        RadixSpline::builder().max_error(32).build(&d).num_points()
    };
    let uden = spline_count(SosdName::Uden64);
    let uspr = spline_count(SosdName::Uspr64);
    let face = spline_count(SosdName::Face64);
    let osmc = spline_count(SosdName::Osmc64);
    assert!(face > 3 * uden.max(1), "face {face} vs uden {uden}");
    assert!(face > uspr, "face {face} vs uspr {uspr}");
    assert!(osmc > 3 * uden.max(1), "osmc {osmc} vs uden {uden}");
}

/// §3.6 / Figure 6: on OSM data the average error of the linear model drops
/// from a large fraction of N to a handful of records.
#[test]
fn figure6_error_reduction_on_osmc() {
    let dataset: Dataset<u64> = SosdName::Osmc64.generate(N, 42);
    let model = InterpolationModel::build(&dataset);
    let before = ModelErrorStats::compute(&model, &dataset).mean_abs;
    let table = ShiftTable::build(&model, dataset.as_slice());
    let after = shift_table::CorrectionErrorStats::compute(&model, &table, dataset.as_slice());
    assert!(
        before > 0.01 * N as f64,
        "the dummy model must be far off on osmc (got {before:.1})"
    );
    assert!(
        after.mean_abs < 100.0,
        "corrected error should be tiny (got {:.1})",
        after.mean_abs
    );
}

/// §3.9 / §4.1 tuning: synthetic uniform-dense data does not need the layer;
/// real-world data does.
#[test]
fn auto_tuning_matches_the_papers_configuration_choices() {
    let uden: Dataset<u64> = SosdName::Uden64.generate(N, 3);
    let auto = CorrectedIndex::builder(uden.as_slice(), InterpolationModel::build(&uden))
        .with_auto_tuning()
        .build()
        .unwrap();
    assert!(!auto.layer_enabled(), "uden64 must not enable the layer");

    for name in [SosdName::Face64, SosdName::Osmc64, SosdName::Wiki64] {
        let d: Dataset<u64> = name.generate(N, 3);
        let auto = CorrectedIndex::builder(d.as_slice(), InterpolationModel::build(&d))
            .with_auto_tuning()
            .build()
            .unwrap();
        assert!(auto.layer_enabled(), "{name} must enable the layer");
    }
}

/// §2.2: the cache-optimised FAST-style tree and the B+tree outperform plain
/// binary search in memory probes per lookup (the mechanism behind their
/// speedup), and the corrected learned index needs fewer still on hard data.
#[test]
fn probe_counts_follow_the_papers_cost_analysis() {
    let dataset: Dataset<u64> = SosdName::Face64.generate(N, 21);
    let keys = dataset.as_slice();
    let fast = FastTree::new(keys);
    let im_st = CorrectedIndex::builder(keys, InterpolationModel::build(&dataset))
        .with_range_table()
        .build()
        .unwrap();
    let w = Workload::uniform_keys(&dataset, 500, 5);

    // Binary search probes ~log2(n) uncached locations; FAST's hierarchy
    // touches one node per level; the corrected index touches the layer plus
    // a tiny window.
    let bs_probes = (N as f64).log2() - 5.0;
    let fast_probes = fast.probes_per_lookup() as f64;
    let st_probes: f64 = w
        .queries()
        .iter()
        .map(|&q| im_st.probe_estimate(q) as f64)
        .sum::<f64>()
        / w.len() as f64;
    assert!(fast_probes < bs_probes);
    assert!(
        st_probes < fast_probes,
        "corrected index probes {st_probes:.1} should undercut FAST {fast_probes:.1}"
    );
}

/// The layer is model-agnostic (§3): correcting RadixSpline or PGM gives the
/// same exactness guarantees as correcting the dummy model.
#[test]
fn correction_is_model_agnostic() {
    let dataset: Dataset<u64> = SosdName::Wiki64.generate(N, 31);
    let keys = dataset.as_slice();
    let w = Workload::uniform_domain(&dataset, 500, 7);
    let rs_st =
        CorrectedIndex::builder(keys, RadixSpline::builder().max_error(256).build(&dataset))
            .with_range_table()
            .build()
            .unwrap();
    let pgm_st = CorrectedIndex::builder(keys, PgmModel::with_epsilon(&dataset, 256))
        .with_range_table()
        .build()
        .unwrap();
    for (q, expected) in w.iter() {
        assert_eq!(rs_st.lower_bound(q), expected);
        assert_eq!(pgm_st.lower_bound(q), expected);
    }
    // And the corrected error is bounded by the window structure, not by the
    // models' ε.
    assert!(rs_st.correction_error().mean_abs < 256.0);
    assert!(pgm_st.correction_error().mean_abs < 256.0);
}
