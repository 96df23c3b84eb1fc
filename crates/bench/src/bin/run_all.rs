//! Run every experiment of the paper's evaluation in sequence.
//!
//! Output is printed and written as CSV under `target/experiments/`.
//! Scale with `SOSD_N` (keys per dataset) and `SOSD_QUERIES`.

#![forbid(unsafe_code)]

use shift_bench::prelude::*;
use std::time::Instant;

fn main() {
    let cfg = BenchConfig::from_env();
    println!("Shift-Table reproduction — full evaluation (config: {cfg:?})");
    println!("CSV output directory: {}\n", experiments_dir().display());

    let start = Instant::now();
    type Experiment = (
        &'static str,
        fn(BenchConfig) -> Vec<shift_bench::Table>,
        &'static str,
    );
    let all: &[Experiment] = &[
        (
            "Figure 2",
            experiments::figure2::run,
            "figure2_local_search",
        ),
        ("Figure 3", experiments::figure3::run, "figure3_cdf"),
        ("Table 2", experiments::table2::run, "table2_sosd"),
        ("Figure 6", experiments::figure6::run, "figure6_error"),
        ("Figure 7", experiments::figure7::run, "figure7_build_times"),
        ("Figure 8", experiments::figure8::run, "figure8_index_size"),
        ("Figure 9", experiments::figure9::run, "figure9_layer_size"),
    ];
    for (name, run, stem) in all {
        println!("=== {name} ===");
        let t = Instant::now();
        experiments::emit(&run(cfg), stem);
        println!("[{name} done in {:.1} s]\n", t.elapsed().as_secs_f64());
    }
    println!(
        "All experiments finished in {:.1} s",
        start.elapsed().as_secs_f64()
    );
}
