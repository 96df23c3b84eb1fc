//! Randomized property tests over the core invariants of the workspace,
//! driven by a deterministic in-workspace RNG (`SplitMix64`) so they run
//! without external dependencies and reproduce exactly: for *arbitrary* key
//! multisets and models, every index must return exactly the reference lower
//! bound, batched lookups must equal scalar lookups, Shift-Table windows must
//! cover their keys, and error bounds must hold.

use shift_table_repro::prelude::*;

/// Number of random cases per property.
const CASES: usize = 64;

/// A sorted key vector with duplicates, clusters and extremes (the shape the
/// old proptest strategy produced).
fn arb_keys(rng: &mut SplitMix64) -> Vec<u64> {
    let len = 1 + rng.next_below(400) as usize;
    let mut keys = Vec::with_capacity(len);
    for _ in 0..len {
        let k = match rng.next_below(3) {
            // small dense values (forces duplicates)
            0 => rng.next_below(500),
            // clustered mid-range values
            1 => 1_000_000 + rng.next_below(1_000),
            // sparse huge values
            _ => rng.next_u64(),
        };
        keys.push(k);
    }
    keys.sort_unstable();
    keys
}

/// Query values that mix indexed keys, near misses and extremes.
fn arb_queries(rng: &mut SplitMix64, keys: &[u64]) -> Vec<u64> {
    let len = 1 + rng.next_below(50) as usize;
    (0..len)
        .map(|_| {
            let pick = keys[rng.next_below(keys.len() as u64) as usize];
            match rng.next_below(5) {
                0 => pick,
                1 => pick.saturating_add(1),
                2 => rng.next_u64(),
                3 => 0,
                _ => u64::MAX,
            }
        })
        .collect()
}

fn reference(keys: &[u64], q: u64) -> usize {
    keys.partition_point(|&k| k < q)
}

/// The corrected index (IM + range-mode Shift-Table) is exact for any key
/// multiset and any query, on both the scalar and the batched path.
#[test]
fn corrected_index_matches_reference() {
    let mut rng = SplitMix64::new(0x5EED_0001);
    for case in 0..CASES {
        let keys = arb_keys(&mut rng);
        let queries = arb_queries(&mut rng, &keys);
        let dataset = Dataset::from_sorted_keys("prop", keys);
        let index =
            CorrectedIndex::builder(dataset.as_slice(), InterpolationModel::build(&dataset))
                .with_range_table()
                .build()
                .unwrap();
        for &q in &queries {
            assert_eq!(
                index.lower_bound(q),
                reference(dataset.as_slice(), q),
                "case {case} q={q}"
            );
        }
        let batch = index.lower_bound_many(&queries);
        for (&q, got) in queries.iter().zip(batch) {
            assert_eq!(
                got,
                reference(dataset.as_slice(), q),
                "case {case} batch q={q}"
            );
        }
    }
}

/// Every algorithmic baseline agrees with the reference lower bound.
#[test]
fn baselines_match_reference() {
    let mut rng = SplitMix64::new(0x5EED_0003);
    for case in 0..CASES {
        let keys = arb_keys(&mut rng);
        let queries = arb_queries(&mut rng, &keys);
        let dataset = Dataset::from_sorted_keys("prop", keys);
        let k = dataset.as_slice();
        let bs = BinarySearchIndex::new(k);
        let is = InterpolationSearchIndex::new(k);
        let tip = TipSearchIndex::new(k);
        let rbs = RadixBinarySearch::new(k);
        let bt = BPlusTree::new(k);
        let fast = FastTree::new(k);
        let art = ArtIndex::new(k);
        for &q in &queries {
            let expected = reference(k, q);
            assert_eq!(bs.lower_bound(q), expected, "case {case} BS q={q}");
            assert_eq!(is.lower_bound(q), expected, "case {case} IS q={q}");
            assert_eq!(tip.lower_bound(q), expected, "case {case} TIP q={q}");
            assert_eq!(rbs.lower_bound(q), expected, "case {case} RBS q={q}");
            assert_eq!(bt.lower_bound(q), expected, "case {case} B+tree q={q}");
            assert_eq!(fast.lower_bound(q), expected, "case {case} FAST q={q}");
            assert_eq!(art.lower_bound(q), expected, "case {case} ART q={q}");
        }
    }
}

/// For **every** `IndexSpec` model×layer combination, on **all** SOSD
/// generators: `lower_bound_batch` ≡ scalar `lower_bound` ≡
/// `slice::partition_point`, for hit, miss and extreme queries. This is the
/// acceptance matrix of the runtime-composition layer.
#[test]
fn every_spec_combination_is_exact_on_all_sosd_generators() {
    let n = 2_000;
    let combos = IndexSpec::all_combinations();
    assert_eq!(combos.len(), 18, "6 model families x 3 layer families");
    for name in SosdName::all() {
        let dataset: Dataset<u64> = name.generate(n, 77);
        let shared = dataset.to_shared();
        let mut workload = Workload::uniform_domain(&dataset, 100, 7)
            .queries()
            .to_vec();
        workload.extend(Workload::uniform_keys(&dataset, 100, 8).queries());
        workload.extend([0, 1, u64::MAX, dataset.max_key().unwrap()]);
        let expected: Vec<usize> = workload
            .iter()
            .map(|&q| dataset.as_slice().partition_point(|&k| k < q))
            .collect();
        for spec in &combos {
            let index = spec.build(shared.clone()).unwrap();
            assert_eq!(index.len(), n, "{name} {spec}");
            for (&q, &e) in workload.iter().zip(expected.iter()) {
                assert_eq!(index.lower_bound(q), e, "{name} {spec} scalar q={q}");
            }
            assert_eq!(
                index.lower_bound_many(&workload),
                expected,
                "{name} {spec} batch"
            );
        }
    }
}

/// For **every** `IndexSpec` combination, the batch kernel and the scalar
/// path both equal `slice::partition_point` — on SOSD-shaped data and on adversarial
/// shapes (empty and single-key columns, duplicate-heavy runs), with query
/// slices whose lengths are deliberately not multiples of the kernel's
/// batch block (so the tail-truncation invariant is exercised every case).
#[test]
fn batched_kernel_equals_blocked_and_reference_for_every_spec() {
    let mut dup_heavy: Vec<u64> = (0..1_500u64).map(|v| (v % 13) * 100).collect();
    dup_heavy.sort_unstable();
    let shapes: Vec<(&str, Vec<u64>)> = vec![
        ("empty", Vec::new()),
        ("single", vec![42]),
        ("dup-heavy", dup_heavy),
        (
            "osmc",
            SosdName::Osmc64.generate(1_500, 99).as_slice().to_vec(),
        ),
        (
            "face",
            SosdName::Face64.generate(1_500, 99).as_slice().to_vec(),
        ),
    ];
    // 0 and 1 are degenerate batches; 63/65/130/203 straddle the 64-query
    // default block without ever being a multiple of it.
    let lens = [0usize, 1, 63, 64, 65, 130, 203];
    for (label, keys) in &shapes {
        let mut rng = SplitMix64::new(0x5EED_0010);
        let pool: Vec<u64> = (0..lens.iter().copied().max().unwrap())
            .map(|_| match rng.next_below(5) {
                0 if !keys.is_empty() => keys[rng.next_below(keys.len() as u64) as usize],
                1 if !keys.is_empty() => {
                    keys[rng.next_below(keys.len() as u64) as usize].saturating_add(1)
                }
                2 => rng.next_u64(),
                3 => 0,
                _ => u64::MAX,
            })
            .collect();
        let expected: Vec<usize> = pool
            .iter()
            .map(|&q| keys.partition_point(|&k| k < q))
            .collect();
        let shared: std::sync::Arc<[u64]> = keys.clone().into();
        for spec in IndexSpec::all_combinations() {
            let index = spec.build_corrected(shared.clone()).unwrap();
            for &len in &lens {
                let queries = &pool[..len];
                let mut kernel = vec![0usize; len];
                index.lower_bound_batch(queries, &mut kernel);
                assert_eq!(kernel, expected[..len], "{label} {spec} kernel len={len}");
                for (&q, &e) in queries.iter().zip(expected.iter()) {
                    assert_eq!(index.lower_bound(q), e, "{label} {spec} scalar q={q}");
                }
            }
        }
    }
}

/// The batch kernel stays exact at every query length that crosses its
/// 64-query block, for each layer family: short batches, below, at and past
/// one block and two blocks, and a three-block run with a tail. Amazon keys
/// under IM give blocks that mix scanned and binary-searched range windows;
/// the pool interleaves hits, misses and extremes.
#[test]
fn batched_kernel_is_exact_across_wave_and_block_lengths() {
    let dataset: Dataset<u64> = SosdName::Amzn64.generate(2_000, 5);
    let shared = dataset.to_shared();
    let lens = [1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 211];
    let mut pool = Vec::new();
    for (i, (hit, miss)) in Workload::uniform_keys(&dataset, 120, 11)
        .queries()
        .iter()
        .zip(Workload::uniform_domain(&dataset, 120, 12).queries())
        .enumerate()
    {
        pool.extend([*hit, *miss]);
        if i % 40 == 0 {
            pool.extend([0, 1, u64::MAX]);
        }
    }
    let expected: Vec<usize> = pool
        .iter()
        .map(|&q| dataset.as_slice().partition_point(|&k| k < q))
        .collect();
    for spec in ["im+r1", "im+none"] {
        let index = IndexSpec::parse(spec)
            .unwrap()
            .build_corrected(shared.clone())
            .unwrap();
        for len in lens {
            let mut out = vec![usize::MAX; len];
            index.lower_bound_batch(&pool[..len], &mut out);
            assert_eq!(out, expected[..len], "{spec} kernel len={len}");
        }
    }
}

/// The batch kernel equals the scalar `lower_bound` and `partition_point`
/// on 200 k-key SOSD columns under every layer family and a large RMI:
/// indexed keys, queries in the gaps between keys and queries outside the
/// key domain. wiki64's duplicate runs serve R-1 windows of thousands of
/// keys, so the kernel's binary-search arm runs at full width.
#[cfg_attr(miri, ignore = "dataset too large for Miri")]
#[test]
fn batch_lower_bound_equals_scalar_on_sosd_columns() {
    let mut widest = 0usize;
    for name in [
        SosdName::Amzn64,
        SosdName::Wiki64,
        SosdName::Osmc64,
        SosdName::Face64,
    ] {
        let dataset: Dataset<u64> = name.generate(200_000, 34);
        let keys = dataset.as_slice();
        let mut queries: Vec<u64> = Workload::uniform_keys(&dataset, 3_000, 1)
            .queries()
            .to_vec();
        queries.extend_from_slice(Workload::non_indexed(&dataset, 3_000, 2).queries());
        queries.extend_from_slice(Workload::uniform_domain(&dataset, 3_000, 3).queries());
        let (min, max) = (keys[0], keys[keys.len() - 1]);
        queries.extend([0, 1, min.saturating_sub(1), max.saturating_add(1), u64::MAX]);
        let expected: Vec<usize> = queries
            .iter()
            .map(|&q| keys.partition_point(|&k| k < q))
            .collect();
        for spec in ["im+r1", "im+none", "rmi:4096+r1"] {
            let index = IndexSpec::parse(spec)
                .unwrap()
                .build_corrected(dataset.to_shared())
                .unwrap();
            let mut out = vec![usize::MAX; queries.len()];
            index.lower_bound_batch(&queries, &mut out);
            assert_eq!(out, expected, "{name:?} {spec} batch");
            for (&q, &e) in queries.iter().zip(&expected) {
                assert_eq!(index.lower_bound(q), e, "{name:?} {spec} scalar q={q}");
            }
            if let CorrectionLayer::Range(t) = index.layer() {
                for &q in &queries {
                    let window = t.correct(index.predict_uncorrected(q)).window;
                    widest = widest.max(window.unwrap());
                }
            }
        }
    }
    assert!(widest >= 1_000, "widest R-1 window {widest}");
}

/// Spec strings round-trip through `Display`/`parse`, and malformed specs are
/// rejected with the right error class.
#[test]
fn spec_parse_roundtrip_and_errors() {
    for spec in IndexSpec::all_combinations() {
        let text = spec.to_string();
        assert_eq!(IndexSpec::parse(&text).unwrap(), spec, "{text}");
    }
    // Layer defaults to r1 when omitted.
    assert_eq!(
        IndexSpec::parse("pgm:64").unwrap(),
        IndexSpec::parse("pgm:64+r1").unwrap()
    );
    for bad in [
        "",
        "+r1",
        "im+",
        "skiplist+r1",
        "rmi+r1",
        "rmi:zero+r1",
        "rs:0+r1",
        "im+r2",
        "im+s",
        "im+s0",
        "im+auto+r1",
        "im:s1",
    ] {
        assert!(IndexSpec::parse(bad).is_err(), "`{bad}` should not parse");
    }
}

/// Shift-Table windows contain the true position of every indexed key (the §3
/// invariant behind Algorithm 1), for any monotone model.
#[test]
fn shift_table_windows_cover_all_keys() {
    let mut rng = SplitMix64::new(0x5EED_0004);
    for case in 0..CASES {
        let keys = arb_keys(&mut rng);
        let dataset = Dataset::from_sorted_keys("prop", keys);
        let model = InterpolationModel::build(&dataset);
        let table = ShiftTable::build(&model, dataset.as_slice());
        for &k in dataset.as_slice() {
            let target = dataset.lower_bound(k);
            let hint = table.correct(learned_index::CdfModel::<u64>::predict_clamped(&model, k));
            let window = hint.window.unwrap().max(1);
            assert!(
                hint.start <= target && target < hint.start + window,
                "case {case}: key {k} target {target} outside [{}, {})",
                hint.start,
                hint.start + window
            );
        }
    }
}

/// RadixSpline and PGM honour their declared error bounds on arbitrary data.
#[test]
fn error_bounded_models_hold_their_bounds() {
    let mut rng = SplitMix64::new(0x5EED_0005);
    for _ in 0..CASES {
        let keys = arb_keys(&mut rng);
        let eps = 1 + rng.next_below(127) as usize;
        let dataset = Dataset::from_sorted_keys("prop", keys);
        let rs = RadixSpline::builder().max_error(eps).build(&dataset);
        let pgm = PgmModel::with_epsilon(&dataset, eps);
        let mut last = None;
        for (i, &k) in dataset.as_slice().iter().enumerate() {
            if last == Some(k) {
                continue;
            }
            last = Some(k);
            let rs_err =
                (learned_index::CdfModel::<u64>::predict(&rs, k) as i64 - i as i64).unsigned_abs();
            let pgm_err =
                (learned_index::CdfModel::<u64>::predict(&pgm, k) as i64 - i as i64).unsigned_abs();
            assert!(rs_err as usize <= eps + 1, "RS err {rs_err} > eps {eps}");
            assert!(pgm_err as usize <= eps + 1, "PGM err {pgm_err} > eps {eps}");
        }
    }
}

/// The dataset's own range query is consistent with lower/upper bounds, and
/// the corrected index reproduces it through the probe-based `range`.
#[test]
fn range_queries_are_consistent() {
    let mut rng = SplitMix64::new(0x5EED_0006);
    for case in 0..CASES {
        let keys = arb_keys(&mut rng);
        let queries = arb_queries(&mut rng, &keys);
        let dataset = Dataset::from_sorted_keys("prop", keys);
        let index =
            CorrectedIndex::builder(dataset.as_slice(), InterpolationModel::build(&dataset))
                .with_range_table()
                .build()
                .unwrap();
        for pair in queries.chunks(2) {
            if pair.len() < 2 {
                continue;
            }
            let (lo, hi) = (pair[0].min(pair[1]), pair[0].max(pair[1]));
            let expected = dataset.range_query(lo, hi);
            let got = index.range(lo, hi);
            assert_eq!(got, expected, "case {case} [{lo}, {hi}]");
            for i in got {
                assert!(dataset.key_at(i) >= lo && dataset.key_at(i) <= hi);
            }
        }
    }
}

/// `RangeIndex::range` boundary cases hold for **every** `IndexSpec` in the
/// matrix: `hi == K::MAX` (the `checked_next() → None` path), inverted
/// ranges (`lo > hi`), the empty index, and ranges fully inside a run of
/// duplicate keys.
#[test]
fn range_boundary_cases_hold_for_every_spec() {
    // A long duplicate run, sparse neighbours and a key at the domain
    // maximum (so `hi == u64::MAX` must still include it).
    let mut keys: Vec<u64> = vec![0, 1, 5];
    keys.extend(std::iter::repeat_n(1_000u64, 500));
    keys.extend([2_000, 3_000, u64::MAX]);
    let dataset = Dataset::from_sorted_keys("edge", keys);
    let shared = dataset.to_shared();
    let oracle = |lo: u64, hi: u64| -> std::ops::Range<usize> {
        let ks = dataset.as_slice();
        if lo > hi {
            return 0..0;
        }
        let start = ks.partition_point(|&k| k < lo);
        let end = match hi.checked_add(1) {
            Some(h) => ks.partition_point(|&k| k < h),
            None => ks.len(),
        };
        start..end.max(start)
    };
    let cases: &[(u64, u64)] = &[
        (0, u64::MAX),        // whole domain, checked_next() → None
        (u64::MAX, u64::MAX), // single key at the maximum
        (3_001, u64::MAX),    // tail range ending at the maximum
        (1_000, 1_000),       // exactly the duplicate run
        (999, 1_001),         // straddling the run by one on each side
        (6, 900),             // miss range left of the run
        (2_001, 2_999),       // miss range right of the run
        (0, 0),               // single smallest key
    ];
    for spec in IndexSpec::all_combinations() {
        let index = spec.build(shared.clone()).unwrap();
        for &(lo, hi) in cases {
            assert_eq!(index.range(lo, hi), oracle(lo, hi), "{spec} [{lo}, {hi}]");
        }
        // Inverted ranges are empty regardless of the endpoints.
        assert_eq!(index.range(9, 3), 0..0, "{spec} inverted");
        assert_eq!(index.range(u64::MAX, 0), 0..0, "{spec} inverted max");

        // The empty index: every range is empty, on every spec.
        let empty = spec.build(Vec::<u64>::new()).unwrap();
        assert_eq!(empty.len(), 0, "{spec} empty len");
        assert_eq!(empty.range(0, u64::MAX), 0..0, "{spec} empty full");
        assert_eq!(empty.range(5, 5), 0..0, "{spec} empty point");
    }
}

/// The SOSD binary format round-trips arbitrary key vectors.
#[test]
fn sosd_io_roundtrips() {
    let mut rng = SplitMix64::new(0x5EED_0007);
    for _ in 0..CASES {
        let keys = arb_keys(&mut rng);
        let mut buf = Vec::new();
        sosd_data::io::write_keys(&mut buf, &keys).unwrap();
        let back: Vec<u64> = sosd_data::io::read_keys(&buf[..]).unwrap();
        assert_eq!(back, keys);
    }
}

/// Workload ground truth is always the reference lower bound.
#[test]
fn workloads_report_correct_expected_positions() {
    let mut rng = SplitMix64::new(0x5EED_0008);
    for _ in 0..CASES {
        let keys = arb_keys(&mut rng);
        let seed = rng.next_u64();
        let dataset = Dataset::from_sorted_keys("prop", keys);
        for w in [
            Workload::uniform_keys(&dataset, 32, seed),
            Workload::uniform_domain(&dataset, 32, seed),
            Workload::non_indexed(&dataset, 32, seed),
        ] {
            for (q, expected) in w.iter() {
                assert_eq!(expected, reference(dataset.as_slice(), q));
            }
        }
    }
}
