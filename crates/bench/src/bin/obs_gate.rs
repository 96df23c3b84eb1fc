//! Store gate: the metrics layer's read-path overhead (metrics on vs off,
//! mean and p99 each under 3%).
//!
//! Scale with `SOSD_N` / `SOSD_QUERIES`; from 200 000 keys (CI's size) a
//! missed budget exits with status 1, below that the run only reports.

#![forbid(unsafe_code)]

use shift_bench::prelude::*;

fn main() {
    let cfg = BenchConfig::from_env();
    println!("Shift-Table reproduction — store metrics overhead gate (config: {cfg:?})\n");
    store_gates::obs_overhead(cfg).finish("obs_gate");
}
