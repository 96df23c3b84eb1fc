//! Store gate: incremental checkpoints re-reference snapshot bytes, a cold
//! reopen reads before hydration finishes and retrains a fraction of what
//! an eager one does, and a seeding's tasks overlap.
//!
//! Scale with `SOSD_N`; from 2 000 000 keys (CI's size) a missed signal
//! exits with status 1, below that the run only reports. Scratch
//! directories go to `$TMPDIR`.

#![forbid(unsafe_code)]

use shift_bench::prelude::*;

fn main() {
    let cfg = BenchConfig::from_env();
    println!("Shift-Table reproduction — store cold-start gate (config: {cfg:?})\n");
    store_gates::cold_start(cfg).finish("cold_start_gate");
}
