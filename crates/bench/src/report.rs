//! Result tables: aligned console output plus CSV files under
//! `target/experiments/`.

use std::fs;
use std::io::Write;
use std::path::PathBuf;

/// Directory every experiment writes its CSV output to.
pub fn experiments_dir() -> PathBuf {
    let dir = std::env::var("SOSD_OUTPUT_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("target/experiments"));
    fs::create_dir_all(&dir).ok();
    dir
}

/// A simple result table: a header row plus data rows of equal width.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with the given title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row. Rows shorter than the header are padded with blanks.
    pub fn add_row(&mut self, cells: Vec<String>) {
        let mut cells = cells;
        while cells.len() < self.headers.len() {
            cells.push(String::new());
        }
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Render the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                } else {
                    widths.push(cell.len());
                }
            }
        }
        let mut out = String::new();
        out.push_str(&format!("## {}\n", self.title));
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    format!(
                        "{:>width$}",
                        c,
                        width = widths.get(i).copied().unwrap_or(c.len())
                    )
                })
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(
            &"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Print the table to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }

    /// Write the table as a CSV file under [`experiments_dir`], returning the
    /// path written.
    pub fn write_csv(&self, file_stem: &str) -> std::io::Result<PathBuf> {
        let path = experiments_dir().join(format!("{file_stem}.csv"));
        let mut f = fs::File::create(&path)?;
        writeln!(f, "{}", self.headers.join(","))?;
        for row in &self.rows {
            let escaped: Vec<String> = row
                .iter()
                .map(|c| {
                    if c.contains(',') || c.contains('"') {
                        format!("\"{}\"", c.replace('"', "\"\""))
                    } else {
                        c.clone()
                    }
                })
                .collect();
            writeln!(f, "{}", escaped.join(","))?;
        }
        Ok(path)
    }
}

/// Format a nanosecond value the way Table 2 prints it (one decimal below
/// 1 µs, integer above).
pub fn fmt_ns(ns: f64) -> String {
    if ns <= 0.0 {
        "N/A".to_string()
    } else if ns < 1_000.0 {
        format!("{ns:.1}")
    } else {
        format!("{ns:.0}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns_and_pads_rows() {
        let mut t = Table::new("demo", &["dataset", "ns"]);
        t.add_row(vec!["face64".into(), "103".into()]);
        t.add_row(vec!["uden64".into()]);
        let text = t.render();
        assert!(text.contains("## demo"));
        assert!(text.contains("face64"));
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.title(), "demo");
    }

    #[test]
    fn csv_roundtrip() {
        let mut t = Table::new("csv test", &["a", "b"]);
        t.add_row(vec!["1".into(), "two, three".into()]);
        let path = t.write_csv("unit_test_csv").unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("a,b\n"));
        assert!(content.contains("\"two, three\""));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_ns(0.0), "N/A");
        assert_eq!(fmt_ns(103.46), "103.5");
        assert_eq!(fmt_ns(1384.2), "1384");
    }
}
