//! Benchmark harness reproducing every table and figure of the Shift-Table
//! paper's evaluation (§4).
//!
//! The harness is organised as a library so the same experiment code backs
//! four entry points:
//!
//! * the `figure*`/`table2_sosd` binaries (one per table/figure) that print
//!   the rows/series the paper reports and write CSVs under
//!   `target/experiments/`, and `lookup_kernel`, the batch-kernel
//!   comparison,
//! * the `run_all` binary that executes every experiment in sequence,
//! * the self-contained benches in `benches/` (`harness = false`), which
//!   sample the same configurations through `cargo bench` using the
//!   [`timer`] measurement loops,
//! * the `obs_gate` and `cold_start_gate` binaries: the store's two CI
//!   acceptance gates ([`store_gates`]), which enforce their signals once
//!   `SOSD_N` reaches the size CI runs them at. The store itself is
//!   measured end to end by the repo benchmark (`benchmark/`), not here.
//!
//! Scale is controlled by environment variables so the same code runs on a
//! laptop (default 2M keys) or at the paper's 200M-key scale:
//!
//! | variable | default | meaning |
//! |---|---|---|
//! | `SOSD_N` | 2_000_000 | keys per dataset |
//! | `SOSD_QUERIES` | 100_000 | lookups measured per configuration |
//! | `SOSD_SEED` | 42 | generator seed |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counters;
pub mod datasets;
pub mod experiments;
pub mod memlat;
pub mod report;
pub mod store_gates;
pub mod suites;
pub mod timer;

pub use datasets::BenchConfig;
pub use report::Table;

/// Convenient glob import for the harness binaries.
pub mod prelude {
    pub use crate::counters::ProbeCounter;
    pub use crate::datasets::BenchConfig;
    pub use crate::experiments;
    pub use crate::memlat;
    pub use crate::report::{experiments_dir, Table};
    pub use crate::store_gates;
    pub use crate::suites::{self, Competitor, MeasuredResult};
    pub use crate::timer::{
        measure_build, measure_lookups, measure_lookups_batched, measure_lookups_batched_pair,
    };
}
