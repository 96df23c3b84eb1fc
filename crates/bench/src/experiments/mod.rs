//! One module per table/figure of the paper's evaluation, plus
//! `lookup_kernel`, the batch-kernel comparison.
//!
//! Every experiment exposes `run(cfg) -> Vec<Table>`: the returned tables are
//! printed by the corresponding binary and written as CSV under
//! `target/experiments/`.

pub mod figure2;
pub mod figure3;
pub mod figure6;
pub mod figure7;
pub mod figure8;
pub mod figure9;
pub mod lookup_kernel;
pub mod table2;

use crate::report::Table;

/// Print every table of an experiment and write the CSVs.
pub fn emit(tables: &[Table], file_prefix: &str) {
    for (i, t) in tables.iter().enumerate() {
        t.print();
        let stem = if tables.len() == 1 {
            file_prefix.to_string()
        } else {
            format!("{file_prefix}_{i}")
        };
        match t.write_csv(&stem) {
            Ok(path) => println!("[csv] {}\n", path.display()),
            Err(e) => eprintln!("[csv] failed to write {stem}: {e}\n"),
        }
    }
}
