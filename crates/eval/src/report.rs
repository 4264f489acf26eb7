//! Plain-text tables and CSV dumps for experiment results, and the
//! [`Verdict`] every smoke gate prints.

use lrm_obs::json::{push_f64, push_str};
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;
use std::process::ExitCode;

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

/// The outcome of one gate: the checks it made, the names of those that
/// failed, and the run's metrics as `(name, value, unit)`.
///
/// Every gate binary prints it as its last stdout line in perfbench's
/// result-line shape — `correct`, `attempted` (checks made), `failed`
/// (checks failed) and `metrics: {name: {value, unit}}` — with the
/// metrics kept even on failure, since they are what explains it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Verdict {
    /// Checks made.
    pub checked: u64,
    /// Names of the checks that failed, in the order they were made.
    pub failed: Vec<String>,
    /// `(name, value, unit)` in insertion order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Verdict {
    /// Records check `name`, failing it unless `ok`.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) -> &mut Self {
        self.checked += 1;
        if !ok {
            self.failed.push(name.into());
        }
        self
    }

    /// Appends a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) -> &mut Self {
        self.metrics.push((name.into(), value, unit));
        self
    }

    /// Whether every check held.
    pub fn passed(&self) -> bool {
        self.failed.is_empty()
    }

    /// Appends `other`'s checks and metrics, each name prefixed with
    /// `prefix.` — one binary running several gates reports them all.
    pub fn merge(&mut self, prefix: &str, other: Verdict) -> &mut Self {
        self.checked += other.checked;
        self.failed
            .extend(other.failed.into_iter().map(|c| format!("{prefix}.{c}")));
        self.metrics.extend(
            other
                .metrics
                .into_iter()
                .map(|(name, value, unit)| (format!("{prefix}.{name}"), value, unit)),
        );
        self
    }

    /// The result line: one JSON object, no trailing newline.
    pub fn result_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.passed(),
            self.checked,
            self.failed.len()
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            push_str(&mut out, name);
            out.push_str(": {\"value\": ");
            push_f64(&mut out, *value);
            out.push_str(", \"unit\": ");
            push_str(&mut out, unit);
            out.push('}');
        }
        out.push_str("}}");
        out
    }

    /// Reports the verdict and returns the binary's exit code: each
    /// failed check goes to stderr as `FAIL: <check>` (through
    /// [`crate::progress::fail`]), the result line to stdout, and the
    /// code is 1 if and only if a check failed.
    pub fn finish(&self, bin: &'static str) -> ExitCode {
        for check in &self.failed {
            crate::progress::fail(bin, format!("FAIL: {check}"));
        }
        println!("{}", self.result_line());
        if self.passed() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_renders_perfbench_result_line() {
        let mut v = Verdict::default();
        v.check("holds", true)
            .metric("z \"quoted\"\\path", 1.5, "ms")
            .metric("a", f64::NAN, "ratio")
            .metric("m", f64::INFINITY, "1/s");
        assert_eq!(
            v.result_line(),
            r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {"z \"quoted\"\\path": {"value": 1.5, "unit": "ms"}, "a": {"value": null, "unit": "ratio"}, "m": {"value": null, "unit": "1/s"}}}"#
        );

        let mut failing = Verdict::default();
        failing.check("first", true).check("second", false);
        let mut merged = Verdict::default();
        merged.merge("pass", failing).merge("other", v);
        assert!(!merged.passed());
        assert_eq!(merged.failed, vec!["pass.second".to_string()]);
        let line = merged.result_line();
        assert!(line.starts_with(
            r#"{"correct": false, "attempted": 3, "failed": 1, "metrics": {"other.z"#
        ));
        // Metrics keep insertion order across the merge.
        let names: Vec<&str> = merged.metrics.iter().map(|(n, ..)| n.as_str()).collect();
        assert_eq!(names, ["other.z \"quoted\"\\path", "other.a", "other.m"]);
        // The exit code is 1 exactly when a check failed.
        assert_eq!(merged.finish("test"), ExitCode::FAILURE);
        assert_eq!(Verdict::default().finish("test"), ExitCode::SUCCESS);
    }

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
