//! Cross-crate integration tests: every index in the workspace must agree
//! with the reference lower bound on every dataset family, end to end —
//! whether it is monomorphized over a borrowed key slice or composed at run
//! time from an `IndexSpec` over owned storage.

use shift_table_repro::prelude::*;

const N: usize = 20_000;
const QUERIES: usize = 400;

/// Every baseline and every corrected learned index, checked against the
/// reference `partition_point` lower bound on hit, miss and domain-uniform
/// workloads. The learned competitors are built twice: monomorphized over the
/// borrowed slice, and runtime-composed from spec strings over `Arc` storage.
#[test]
fn all_indexes_agree_with_the_reference_on_all_datasets() {
    for name in SosdName::all() {
        let dataset: Dataset<u64> = name.generate(N, 2024);
        let keys = dataset.as_slice();
        let shared = dataset.to_shared();

        let bs = BinarySearchIndex::new(keys);
        let branchless = BranchlessBinarySearch::new(keys);
        let is = InterpolationSearchIndex::new(keys);
        let tip = TipSearchIndex::new(keys);
        let rbs = RadixBinarySearch::new(keys);
        let btree = BPlusTree::new(keys);
        let fast = FastTree::new(keys);
        let art = ArtIndex::new(keys);
        let im_st = CorrectedIndex::builder(keys, InterpolationModel::build(&dataset))
            .with_range_table()
            .build()
            .unwrap();
        let rs_st =
            CorrectedIndex::builder(keys, RadixSpline::builder().max_error(32).build(&dataset))
                .with_range_table()
                .build()
                .unwrap();
        let rmi =
            CorrectedIndex::builder(keys, RmiIndex::builder().leaf_count(256).build(&dataset))
                .without_correction()
                .build()
                .unwrap();
        let pgm_st = CorrectedIndex::builder(keys, PgmModel::with_epsilon(&dataset, 64))
            .with_range_table()
            .build()
            .unwrap();

        // The same learned configurations, composed at run time.
        let spec_built: Vec<(String, DynRangeIndex<u64>)> =
            ["im+r1", "rs:32+r1", "rmi:256+none", "pgm:64+r1"]
                .iter()
                .map(|s| {
                    let index = IndexSpec::parse(s).unwrap().build(shared.clone()).unwrap();
                    (format!("spec:{s}"), index)
                })
                .collect();

        let mut indexes: Vec<(String, &dyn RangeIndex<u64>)> = vec![
            ("BS".into(), &bs),
            ("BS-branchless".into(), &branchless),
            ("IS".into(), &is),
            ("TIP".into(), &tip),
            ("RBS".into(), &rbs),
            ("B+tree".into(), &btree),
            ("FAST".into(), &fast),
            ("ART".into(), &art),
            ("IM+ShiftTable".into(), &im_st),
            ("RS+ShiftTable".into(), &rs_st),
            ("RMI".into(), &rmi),
            ("PGM+ShiftTable".into(), &pgm_st),
        ];
        for (label, index) in &spec_built {
            indexes.push((label.clone(), index));
        }

        for workload in [
            Workload::uniform_keys(&dataset, QUERIES, 1),
            Workload::uniform_domain(&dataset, QUERIES, 2),
            Workload::non_indexed(&dataset, QUERIES, 3),
            Workload::hot_range(&dataset, QUERIES, 4),
        ] {
            for (q, expected) in workload.iter() {
                for (label, index) in &indexes {
                    assert_eq!(
                        index.lower_bound(q),
                        expected,
                        "{label} disagrees on {name} for query {q}"
                    );
                }
            }
            // Batched lookups must agree with the scalar path for every index.
            for (label, index) in &indexes {
                assert_eq!(
                    index.lower_bound_many(workload.queries()),
                    workload.expected().to_vec(),
                    "{label} batch disagrees on {name}"
                );
            }
        }
    }
}

/// The full query path survives boundary queries on every dataset.
#[test]
fn boundary_queries_are_handled_everywhere() {
    for name in [SosdName::Face64, SosdName::Wiki64, SosdName::Logn64] {
        let dataset: Dataset<u64> = name.generate(5_000, 7);
        let keys = dataset.as_slice();
        let index = CorrectedIndex::builder(keys, InterpolationModel::build(&dataset))
            .with_range_table()
            .build()
            .unwrap();
        for q in [
            0u64,
            dataset.min_key().unwrap(),
            dataset.min_key().unwrap().saturating_sub(1),
            dataset.max_key().unwrap(),
            dataset.max_key().unwrap().saturating_add(1),
            u64::MAX,
        ] {
            assert_eq!(index.lower_bound(q), dataset.lower_bound(q), "{name} q={q}");
        }
    }
}

/// Range queries resolve both endpoints with index probes (no keys argument,
/// no trailing scan) and agree with the reference on every index kind.
#[test]
fn range_queries_agree_with_the_reference() {
    let dataset: Dataset<u64> = SosdName::Wiki64.generate(N, 33);
    let keys = dataset.as_slice();
    let bs = BinarySearchIndex::new(keys);
    let corrected = CorrectedIndex::builder(keys, InterpolationModel::build(&dataset))
        .with_range_table()
        .build()
        .unwrap();
    let dynamic = IndexSpec::parse("rs:32+r1")
        .unwrap()
        .build(dataset.to_shared())
        .unwrap();
    let w = Workload::uniform_domain(&dataset, 2 * QUERIES, 5);
    for pair in w.queries().chunks(2) {
        if pair.len() < 2 {
            continue;
        }
        let (lo, hi) = (pair[0].min(pair[1]), pair[0].max(pair[1]));
        let expected = dataset.range_query(lo, hi);
        assert_eq!(bs.range(lo, hi), expected, "BS [{lo}, {hi}]");
        assert_eq!(corrected.range(lo, hi), expected, "corrected [{lo}, {hi}]");
        assert_eq!(dynamic.range(lo, hi), expected, "dyn [{lo}, {hi}]");
    }
    assert_eq!(bs.range(0, u64::MAX), 0..dataset.len());
}

/// SOSD file round trip feeds the whole pipeline: write a generated dataset,
/// read it back, move its keys into shared storage, index it, query it.
#[test]
fn sosd_file_roundtrip_feeds_the_index() {
    let dir = std::env::temp_dir().join("shift_table_integration");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("amzn64_20k");

    let original: Dataset<u64> = SosdName::Amzn64.generate(N, 11);
    sosd_data::io::write_dataset_file(&path, &original).unwrap();
    let reloaded: Dataset<u64> = sosd_data::io::read_dataset_file(&path).unwrap();
    assert_eq!(original.as_slice(), reloaded.as_slice());

    let w = Workload::uniform_keys(&reloaded, QUERIES, 13);
    // Owned handoff: the dataset's key column moves into the index.
    let index =
        CorrectedIndex::owned_builder(reloaded.to_shared(), InterpolationModel::build(&reloaded))
            .with_range_table()
            .build()
            .unwrap();
    for (q, expected) in w.iter() {
        assert_eq!(index.lower_bound(q), expected);
    }
    std::fs::remove_file(&path).ok();
}

/// 32-bit datasets exercise the same pipeline with the narrower key type.
#[test]
fn u32_pipeline_end_to_end() {
    for name in [SosdName::Face32, SosdName::Amzn32, SosdName::Uspr32] {
        let dataset: Dataset<u32> = name.generate(N, 5);
        let keys = dataset.as_slice();
        let fast = FastTree::new(keys);
        let corrected = CorrectedIndex::builder(keys, InterpolationModel::build(&dataset))
            .with_range_table()
            .build()
            .unwrap();
        let dynamic = IndexSpec::parse("im+r1")
            .unwrap()
            .build(dataset.to_shared())
            .unwrap();
        let w = Workload::uniform_domain(&dataset, QUERIES, 17);
        for (q, expected) in w.iter() {
            assert_eq!(fast.lower_bound(q), expected, "{name}");
            assert_eq!(corrected.lower_bound(q), expected, "{name}");
            assert_eq!(dynamic.lower_bound(q), expected, "{name}");
        }
    }
}
