//! Experiment series, reports, renderers and output sinks shared by the
//! scenario registry and the `run_experiments` front ends.

use std::fmt::Write as _;
use std::io;
use std::path::PathBuf;

use serde::{Deserialize, Serialize};

/// A named data series: `(x, y)` pairs plus a label, the unit the figures
/// plot.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Series {
    /// Legend label (e.g. `"deg = 5"`, `"DDSR"`, `"Normal"`).
    pub label: String,
    /// X values (e.g. nodes deleted).
    pub x: Vec<f64>,
    /// Y values (e.g. average closeness centrality).
    pub y: Vec<f64>,
}

/// Hand-written so a decoded series upholds [`Series::new`]'s invariant.
/// Cache entries and worker frames arrive from outside the process, and a
/// series whose axes differ in length would panic the renderers, which
/// index `y` by positions in `x`. Rejecting it here sends a bad cache
/// entry to quarantine and a bad frame down the undecodable-frame path.
impl serde::Deserialize for Series {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let entries = value
            .as_object()
            .ok_or_else(|| serde::Error::custom("expected object for Series"))?;
        let field = |name: &str| serde::obj_get(entries, name);
        let series = Series {
            label: serde::Deserialize::from_value(field("label"))?,
            x: serde::Deserialize::from_value(field("x"))?,
            y: serde::Deserialize::from_value(field("y"))?,
        };
        if series.x.len() != series.y.len() {
            return Err(serde::Error::custom(format!(
                "series '{}' has {} x value(s) but {} y value(s)",
                series.label,
                series.x.len(),
                series.y.len()
            )));
        }
        Ok(series)
    }
}

impl Series {
    /// Creates a series from parallel vectors.
    ///
    /// # Panics
    /// Panics if `x` and `y` differ in length.
    pub fn new(label: impl Into<String>, x: Vec<f64>, y: Vec<f64>) -> Self {
        assert_eq!(x.len(), y.len(), "series axes must have equal length");
        Series {
            label: label.into(),
            x,
            y,
        }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// The final y value, if any.
    pub fn last_y(&self) -> Option<f64> {
        self.y.last().copied()
    }
}

/// A complete experiment report: the figure/table it reproduces plus its
/// series, renderable as CSV or a fixed-width table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentReport {
    /// Experiment identifier, e.g. `"fig4a"`.
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Label of the x axis.
    pub x_label: String,
    /// Label of the y axis.
    pub y_label: String,
    /// The measured series.
    pub series: Vec<Series>,
    /// Free-form annotation lines (trace output, per-row commentary),
    /// rendered after the table.
    pub notes: Vec<String>,
}

impl ExperimentReport {
    /// Creates an empty report.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        ExperimentReport {
            id: id.into(),
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Adds a series.
    pub fn push_series(&mut self, series: Series) {
        self.series.push(series);
    }

    /// Adds an annotation line.
    pub fn push_note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Builds the aligned row grid: the sorted union of every series' x
    /// values, with each series contributing `Some(y)` exactly where it has
    /// a point at that x. Series with different x grids (e.g. a takedown
    /// sampled every 10 deletions next to one sampled every 25) no longer
    /// get their y values attributed to another series' x positions.
    ///
    /// A series may legally contain the same x more than once (e.g. two
    /// merged parts that both sampled one x); every occurrence gets its
    /// own row — the j-th row for an x value pairs the j-th occurrence in
    /// each series — so no point is silently dropped.
    fn aligned_rows(&self) -> Vec<(f64, Vec<Option<f64>>)> {
        let mut grid: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.x.iter().copied())
            .collect();
        grid.sort_by(|a, b| a.partial_cmp(b).expect("x values are comparable"));
        grid.dedup();
        let mut rows = Vec::new();
        for x in grid {
            let occurrences = self
                .series
                .iter()
                .map(|s| s.x.iter().filter(|&&sx| sx == x).count())
                .max()
                .unwrap_or(0);
            for occurrence in 0..occurrences {
                let ys = self
                    .series
                    .iter()
                    .map(|s| {
                        s.x.iter()
                            .enumerate()
                            .filter(|&(_, &sx)| sx == x)
                            .nth(occurrence)
                            .map(|(i, _)| s.y[i])
                    })
                    .collect();
                rows.push((x, ys));
            }
        }
        rows
    }

    /// Renders as CSV: header `x,<label1>,<label2>,...` with one row per
    /// distinct x value across all series (aligned by x value); cells are
    /// blank where a series has no point at that x.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let mut header = vec![self.x_label.clone()];
        header.extend(self.series.iter().map(|s| s.label.clone()));
        let _ = writeln!(out, "{}", header.join(","));
        for (x, ys) in self.aligned_rows() {
            let mut row = vec![format_num(x)];
            row.extend(
                ys.into_iter()
                    .map(|y| y.map(format_num).unwrap_or_default()),
            );
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }

    /// Renders as an aligned text table with the title (rows aligned by x
    /// value, like [`to_csv`](Self::to_csv)), followed by any notes —
    /// the console output of `run_experiments --format table`.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {} ({}) ==", self.title, self.id);
        let _ = write!(out, "{:>14}", self.x_label);
        for s in &self.series {
            let _ = write!(out, " {:>16}", s.label);
        }
        let _ = writeln!(out);
        for (x, ys) in self.aligned_rows() {
            let _ = write!(out, "{:>14}", format_num(x));
            for y in ys {
                let _ = write!(out, " {:>16}", y.map(format_num).unwrap_or_default());
            }
            let _ = writeln!(out);
        }
        for note in &self.notes {
            let _ = writeln!(out, "{note}");
        }
        out
    }

    /// Serializes the report as pretty JSON (for EXPERIMENTS.md provenance).
    ///
    /// # Panics
    /// Never panics in practice; the structure is always serializable.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }
}

/// A destination for finished reports, pluggable into the experiment
/// runner's CLI (console table, CSV files, JSON files, ...).
pub trait ReportSink {
    /// Consumes one report from the named scenario.
    ///
    /// # Errors
    /// Returns any I/O error from the underlying destination.
    fn write_report(&mut self, scenario_id: &str, report: &ExperimentReport) -> io::Result<()>;

    /// Flushes buffered state after the last report.
    ///
    /// # Errors
    /// Returns any I/O error from the underlying destination.
    fn finish(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Renders every report as an aligned text table to a writer.
#[derive(Debug)]
pub struct TableSink<W: io::Write> {
    out: W,
}

impl<W: io::Write> TableSink<W> {
    /// Creates a table sink over any writer (e.g. stdout).
    pub fn new(out: W) -> Self {
        TableSink { out }
    }
}

impl<W: io::Write> ReportSink for TableSink<W> {
    fn write_report(&mut self, _scenario_id: &str, report: &ExperimentReport) -> io::Result<()> {
        writeln!(self.out, "{}", report.to_table())
    }

    fn finish(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

/// Resolves `<dir>/<scenario id>/<report id>.<ext>`, creating the
/// scenario subdirectory. Namespacing by scenario keeps reports from two
/// scenarios that happen to reuse a report id (easy with user-registered
/// scenarios) from silently overwriting each other.
fn report_path(
    dir: &std::path::Path,
    scenario_id: &str,
    report_id: &str,
    ext: &str,
) -> io::Result<PathBuf> {
    let scenario_dir = dir.join(scenario_id);
    std::fs::create_dir_all(&scenario_dir)?;
    Ok(scenario_dir.join(format!("{report_id}.{ext}")))
}

/// Writes `<dir>/<scenario id>/<report id>.csv` per report.
#[derive(Debug)]
pub struct CsvDirSink {
    dir: PathBuf,
}

impl CsvDirSink {
    /// Creates the sink, creating `dir` if needed.
    ///
    /// # Errors
    /// Returns the error from `create_dir_all`.
    pub fn new(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(CsvDirSink { dir })
    }
}

impl ReportSink for CsvDirSink {
    fn write_report(&mut self, scenario_id: &str, report: &ExperimentReport) -> io::Result<()> {
        std::fs::write(
            report_path(&self.dir, scenario_id, &report.id, "csv")?,
            report.to_csv(),
        )
    }
}

/// Writes `<dir>/<scenario id>/<report id>.json` per report.
#[derive(Debug)]
pub struct JsonDirSink {
    dir: PathBuf,
}

impl JsonDirSink {
    /// Creates the sink, creating `dir` if needed.
    ///
    /// # Errors
    /// Returns the error from `create_dir_all`.
    pub fn new(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(JsonDirSink { dir })
    }
}

impl ReportSink for JsonDirSink {
    fn write_report(&mut self, scenario_id: &str, report: &ExperimentReport) -> io::Result<()> {
        std::fs::write(
            report_path(&self.dir, scenario_id, &report.id, "json")?,
            report.to_json(),
        )
    }
}

fn format_num(v: f64) -> String {
    if (v.fract()).abs() < 1e-9 && v.abs() < 1e12 {
        format!("{}", v as i64)
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> ExperimentReport {
        let mut r = ExperimentReport::new("fig-test", "Test figure", "x", "y");
        r.push_series(Series::new(
            "a",
            vec![0.0, 1.0, 2.0],
            vec![0.5, 0.25, 0.125],
        ));
        r.push_series(Series::new("b", vec![0.0, 1.0], vec![3.0, 4.0]));
        r
    }

    #[test]
    fn series_construction_and_accessors() {
        let s = Series::new("deg = 5", vec![0.0, 10.0], vec![0.9, 0.8]);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        assert_eq!(s.last_y(), Some(0.8));
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_series_axes_panic() {
        Series::new("bad", vec![1.0], vec![]);
    }

    #[test]
    fn csv_has_header_and_all_rows() {
        let csv = report().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "x,a,b");
        assert_eq!(lines.len(), 4);
        assert!(lines[1].starts_with("0,"));
        assert!(lines[3].ends_with(','), "short series leaves a blank cell");
    }

    #[test]
    fn table_contains_title_and_labels() {
        let table = report().to_table();
        assert!(table.contains("Test figure"));
        assert!(table.contains("fig-test"));
        assert!(table.contains('a'));
        assert!(table.contains('b'));
    }

    #[test]
    fn mismatched_x_grids_align_by_x_value() {
        // Regression: row i used to take x from the first series long
        // enough and pair it with y[i] of *every* series, which misplaced
        // values when series were sampled on different x grids.
        let mut r = ExperimentReport::new("fig-align", "Alignment", "x", "y");
        r.push_series(Series::new(
            "coarse",
            vec![0.0, 10.0, 20.0],
            vec![1.0, 2.0, 3.0],
        ));
        r.push_series(Series::new(
            "fine",
            vec![0.0, 5.0, 10.0, 15.0],
            vec![9.0, 8.0, 7.0, 6.0],
        ));
        let csv = r.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "x,coarse,fine");
        assert_eq!(lines[1], "0,1,9");
        assert_eq!(lines[2], "5,,8", "fine-only x leaves coarse blank");
        assert_eq!(lines[3], "10,2,7", "shared x pairs the right values");
        assert_eq!(lines[4], "15,,6");
        assert_eq!(lines[5], "20,3,");
        assert_eq!(lines.len(), 6, "one row per distinct x value");
        let table = r.to_table();
        let row10: Vec<&str> = table
            .lines()
            .find(|l| l.trim_start().starts_with("10 ") || l.trim_start().starts_with("10"))
            .map(|l| l.split_whitespace().collect())
            .unwrap();
        assert_eq!(row10, vec!["10", "2", "7"]);
    }

    #[test]
    fn repeated_x_values_keep_every_point() {
        // A series may sample the same x twice (e.g. merged parts); both
        // points must survive rendering instead of the second vanishing.
        let mut r = ExperimentReport::new("fig-dup", "Duplicates", "x", "y");
        r.push_series(Series::new(
            "a",
            vec![0.0, 1.0, 1.0, 2.0],
            vec![9.0, 8.0, 7.0, 6.0],
        ));
        r.push_series(Series::new("b", vec![1.0], vec![5.0]));
        let csv = r.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[1], "0,9,");
        assert_eq!(lines[2], "1,8,5", "first occurrence pairs with b");
        assert_eq!(lines[3], "1,7,", "second occurrence keeps its row");
        assert_eq!(lines[4], "2,6,");
        assert_eq!(lines.len(), 5);
    }

    #[test]
    fn notes_render_after_the_table_and_survive_json() {
        let mut r = report();
        r.push_note("first note");
        r.push_note("second note");
        let table = r.to_table();
        assert!(table.ends_with("first note\nsecond note\n"));
        let restored: ExperimentReport = serde_json::from_str(&r.to_json()).unwrap();
        assert_eq!(restored, r);
    }

    #[test]
    fn sinks_write_expected_files() {
        let dir = std::env::temp_dir().join(format!("sim-sink-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let r = report();
        let mut json_sink = JsonDirSink::new(&dir).unwrap();
        json_sink.write_report("scenario", &r).unwrap();
        json_sink.finish().unwrap();
        let mut csv_sink = CsvDirSink::new(&dir).unwrap();
        csv_sink.write_report("scenario", &r).unwrap();
        let json = std::fs::read_to_string(dir.join("scenario/fig-test.json")).unwrap();
        let restored: ExperimentReport = serde_json::from_str(&json).unwrap();
        assert_eq!(restored, r);
        let csv = std::fs::read_to_string(dir.join("scenario/fig-test.csv")).unwrap();
        assert_eq!(csv, r.to_csv());
        // Same report id from a second scenario lands in its own
        // subdirectory instead of clobbering the first scenario's file.
        let mut other = report();
        other.push_note("other scenario's variant");
        let mut json_sink = JsonDirSink::new(&dir).unwrap();
        json_sink.write_report("other", &other).unwrap();
        assert!(dir.join("other/fig-test.json").exists());
        assert_eq!(
            std::fs::read_to_string(dir.join("scenario/fig-test.json")).unwrap(),
            json,
            "first scenario's report untouched"
        );
        let mut buf = Vec::new();
        let mut table_sink = TableSink::new(&mut buf);
        table_sink.write_report("scenario", &r).unwrap();
        table_sink.finish().unwrap();
        assert!(String::from_utf8(buf).unwrap().contains("Test figure"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn json_roundtrip() {
        let r = report();
        let restored: ExperimentReport = serde_json::from_str(&r.to_json()).unwrap();
        assert_eq!(restored, r);
    }

    #[test]
    fn numbers_are_formatted_compactly() {
        assert_eq!(format_num(5.0), "5");
        assert_eq!(format_num(0.12345678), "0.1235");
    }
}
