//! Plain-text tables and CSV dumps for experiment results.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// A fixed-width text table builder; prints figure-shaped result grids.
#[derive(Debug, Default)]
pub struct TableWriter {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
    title: String,
}

impl TableWriter {
    /// Starts a table with a title line.
    pub fn new(title: impl Into<String>) -> Self {
        Self {
            title: title.into(),
            ..Self::default()
        }
    }

    /// Sets the column headers.
    pub fn header(&mut self, cols: &[&str]) -> &mut Self {
        self.header = cols.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Appends a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        self.rows.push(cells);
        self
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let cols = self
            .header
            .len()
            .max(self.rows.iter().map(|r| r.len()).max().unwrap_or(0));
        let mut widths = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        if !self.header.is_empty() {
            let line: Vec<String> = self
                .header
                .iter()
                .enumerate()
                .map(|(i, h)| format!("{h:>w$}", w = widths[i]))
                .collect();
            let _ = writeln!(out, "{}", line.join("  "));
            let total: usize = widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1));
            let _ = writeln!(out, "{}", "-".repeat(total));
        }
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{c:>w$}", w = widths[i]))
                .collect();
            let _ = writeln!(out, "{}", line.join("  "));
        }
        out
    }
}

/// One flat record per measured cell, serialized to CSV.
#[derive(Debug, Clone)]
pub struct CsvRecord {
    /// Figure identifier, e.g. `"fig4"`.
    pub figure: String,
    /// Dataset name.
    pub dataset: String,
    /// Workload family.
    pub workload: String,
    /// Mechanism name.
    pub mechanism: String,
    /// Name of the swept parameter (`"n"`, `"m"`, `"gamma"`, …).
    pub x_name: String,
    /// Value of the swept parameter.
    pub x: f64,
    /// Privacy budget.
    pub epsilon: f64,
    /// Closed-form expected average squared error.
    pub analytic_avg_error: f64,
    /// Monte-Carlo average squared error.
    pub empirical_avg_error: f64,
    /// Mechanism compile time (decomposition time for LRM), seconds.
    pub compile_seconds: f64,
    /// Per-batch answer time, seconds.
    pub answer_seconds: f64,
}

/// Writes records as a CSV file (no external csv crate: the fields are
/// all numeric or alphanumeric, so plain joining is unambiguous).
pub fn write_csv(path: &Path, records: &[CsvRecord]) -> io::Result<()> {
    let mut out = String::from(
        "figure,dataset,workload,mechanism,x_name,x,epsilon,analytic_avg_error,empirical_avg_error,compile_seconds,answer_seconds\n",
    );
    for r in records {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{}",
            r.figure,
            r.dataset,
            r.workload,
            r.mechanism,
            r.x_name,
            r.x,
            r.epsilon,
            r.analytic_avg_error,
            r.empirical_avg_error,
            r.compile_seconds,
            r.answer_seconds
        );
    }
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let mut t = TableWriter::new("demo");
        t.header(&["n", "LM", "LRM"]);
        t.row(vec!["128".into(), "1.5e6".into(), "3.2e4".into()]);
        t.row(vec!["8192".into(), "9.917e7".into(), "8e4".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("n"));
        let lines: Vec<&str> = s.lines().collect();
        // All data lines share the same width.
        assert_eq!(lines[3].len(), lines[4].len());
    }

    #[test]
    fn csv_round_trip() {
        let dir = std::env::temp_dir().join("lrm_eval_test_csv");
        let path = dir.join("out.csv");
        let rec = CsvRecord {
            figure: "fig4".into(),
            dataset: "Search Logs".into(),
            workload: "WDiscrete".into(),
            mechanism: "LRM".into(),
            x_name: "n".into(),
            x: 128.0,
            epsilon: 0.1,
            analytic_avg_error: 123.5,
            empirical_avg_error: 120.0,
            compile_seconds: 0.5,
            answer_seconds: 0.001,
        };
        write_csv(&path, &[rec]).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("figure,dataset"));
        assert!(content.contains("fig4,Search Logs,WDiscrete,LRM,n,128,0.1,123.5,120,0.5,0.001"));
        let _ = std::fs::remove_dir_all(dir);
    }
}
