//! Bring your own model: the Shift-Table layer corrects *any* CDF model that
//! implements `learned_index::CdfModel` — here a deliberately tiny
//! "histogram" model written from scratch in ~40 lines.
//!
//! The layer's windows are exact for a model that never decreases as the
//! key grows, over every key a query may bring (§3.8). This one never does,
//! by construction; one that did would still build, and the lookups its
//! windows miss would find their answer through a slower gallop.
//!
//! Run with:
//! ```text
//! cargo run --release --example custom_model
//! ```

use shift_table_repro::prelude::*;

/// A 256-bucket equi-width histogram over the key domain: each bucket stores
/// the position of its first key. Three cache lines of state, monotone by
/// construction — a model in the spirit of the paper's "small, semi-accurate
/// model + algorithmic correction" recipe.
struct HistogramModel {
    min: u64,
    bucket_width: u64,
    starts: Vec<usize>,
    n: usize,
}

impl HistogramModel {
    fn build(dataset: &Dataset<u64>) -> Self {
        let keys = dataset.as_slice();
        let n = keys.len();
        let (min, max) = (keys[0], keys[n - 1]);
        let buckets = 256usize;
        let bucket_width = ((max - min) / buckets as u64).max(1);
        let mut starts = vec![0usize; buckets + 1];
        let mut pos = 0usize;
        for (b, s) in starts.iter_mut().enumerate() {
            let bucket_lo = min + b as u64 * bucket_width;
            while pos < n && keys[pos] < bucket_lo {
                pos += 1;
            }
            *s = pos;
        }
        Self {
            min,
            bucket_width,
            starts,
            n,
        }
    }
}

impl learned_index::CdfModel<u64> for HistogramModel {
    fn predict(&self, key: u64) -> usize {
        let bucket = ((key.saturating_sub(self.min)) / self.bucket_width) as usize;
        self.starts[bucket.min(self.starts.len() - 1)]
    }
    fn key_count(&self) -> usize {
        self.n
    }
    fn size_bytes(&self) -> usize {
        self.starts.len() * std::mem::size_of::<usize>() + 16
    }
    fn name(&self) -> &'static str {
        "Histogram256"
    }
}

fn main() {
    let dataset: Dataset<u64> = SosdName::Wiki64.generate(1_000_000, 7);
    let model = HistogramModel::build(&dataset);
    let before = learned_index::ModelErrorStats::compute(&model, &dataset);
    println!("histogram model alone        : {before}");

    // Correct it with a Shift-Table; the layer does not care what the model is.
    let index = CorrectedIndex::builder(dataset.as_slice(), model)
        .with_range_table()
        .build()
        .unwrap();
    println!(
        "histogram + Shift-Table      : {}",
        index.correction_error()
    );

    // Verify on a workload that includes non-indexed keys.
    let workload = Workload::non_indexed(&dataset, 50_000, 3);
    for (q, expected) in workload.iter() {
        assert_eq!(index.lower_bound(q), expected);
    }
    println!(
        "verified {} lookups (including misses) — custom model OK",
        workload.len()
    );

    // The same works for the PGM-style model shipped with the workspace.
    let pgm = PgmModel::with_epsilon(&dataset, 128);
    let pgm_index = CorrectedIndex::builder(dataset.as_slice(), pgm)
        .with_range_table()
        .build()
        .unwrap();
    println!(
        "PGM(ε=128) + Shift-Table     : {}",
        pgm_index.correction_error()
    );
}
