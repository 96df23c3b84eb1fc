//! Lookup-kernel suite: the software-pipelined batch kernel vs. the
//! stage-blocked reference (with scalar-parity checks), in one table with a
//! row per layer family (`im+r1`, `im+s10`, `im+none`) and distribution.
//!
//! Scale with `SOSD_N` / `SOSD_QUERIES`. With `KERNEL_ASSERT=1` and at
//! least 1M keys the run aborts unless the pipelined kernel reaches its
//! acceptance speedup on at least half the distributions of the `im+r1`
//! rows.

#![forbid(unsafe_code)]

use shift_bench::prelude::*;

fn main() {
    let cfg = BenchConfig::from_env();
    println!("Shift-Table reproduction — pipelined lookup kernel (config: {cfg:?})\n");
    experiments::emit(&experiments::lookup_kernel::run(cfg), "lookup_kernel");
}
