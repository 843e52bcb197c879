//! Shared summary rendering for the CLI front ends.
//!
//! The one-shot `run_experiments` path and the `submit` client render a
//! [`RunSummary`] through this single function, so a summary that came
//! back from the simulation service daemon produces byte-identical
//! stdout, per-report files and `summary.json` to a local run — the
//! rendering layer cannot drift between the two paths.

use std::io::Write;
use std::path::Path;

use sim::RunSummary;

/// How reports are rendered to stdout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Format {
    /// Human-readable tables (the default).
    #[default]
    Table,
    /// CSV blocks, one per report.
    Csv,
    /// One JSON document per report.
    Json,
}

impl Format {
    /// Parses a `--format` value.
    ///
    /// # Errors
    /// Returns a message naming the accepted spellings.
    pub fn parse(value: &str) -> Result<Self, String> {
        match value {
            "table" => Ok(Format::Table),
            "csv" => Ok(Format::Csv),
            "json" => Ok(Format::Json),
            other => Err(format!("unknown --format '{other}' (table|csv|json)")),
        }
    }
}

/// Renders a summary to `stdout` in `format` and, with `out` set, writes
/// `<out>/<scenario id>/<report id>.json` and `.csv` per report plus
/// `summary.json` — exactly what the one-shot CLI has always produced.
/// Namespacing the report files by scenario keeps two scenarios that
/// reuse a report id from overwriting each other's files.
///
/// A failed `stdout` write (a closed pipe, say) stops the stdout
/// rendering only: every `out` file is still written, and the failure is
/// returned afterwards, the same way in every format.
///
/// # Errors
/// Returns a human-readable message when the output directory, a file or
/// `stdout` cannot be written.
pub fn render_summary(
    summary: &RunSummary,
    format: Format,
    out: Option<&str>,
    stdout: &mut dyn Write,
) -> Result<(), String> {
    if let Some(dir) = out {
        std::fs::create_dir_all(dir)
            .map_err(|error| format!("cannot create output directory {dir}: {error}"))?;
    }
    let mut printed = Ok(());
    for outcome in &summary.outcomes {
        for report in &outcome.reports {
            if printed.is_ok() {
                printed = match format {
                    Format::Table => writeln!(stdout, "{}", report.to_table()),
                    Format::Csv => writeln!(stdout, "# {}\n{}", report.id, report.to_csv()),
                    Format::Json => writeln!(stdout, "{}", report.to_json()),
                };
            }
            if let Some(dir) = out {
                let scenario_dir = Path::new(dir).join(&outcome.scenario_id);
                let file = |ext: &str| scenario_dir.join(format!("{}.{ext}", report.id));
                std::fs::create_dir_all(&scenario_dir)
                    .and_then(|()| std::fs::write(file("json"), report.to_json()))
                    .and_then(|()| std::fs::write(file("csv"), report.to_csv()))
                    .map_err(|error| format!("writing report {}: {error}", report.id))?;
            }
        }
    }
    if let Some(dir) = out {
        let path = Path::new(dir).join("summary.json");
        std::fs::write(&path, summary.to_json())
            .map_err(|error| format!("writing {}: {error}", path.display()))?;
    }
    printed
        .and_then(|()| stdout.flush())
        .map_err(|error| format!("writing to stdout: {error}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_parses_known_spellings_and_rejects_typos() {
        assert_eq!(Format::parse("table").unwrap(), Format::Table);
        assert_eq!(Format::parse("csv").unwrap(), Format::Csv);
        assert_eq!(Format::parse("json").unwrap(), Format::Json);
        assert!(Format::parse("yaml").is_err());
        assert_eq!(Format::default(), Format::Table);
    }

    /// A two-scenario summary whose scenarios both emit a report with
    /// the id `tiny`.
    fn tiny_summary() -> RunSummary {
        use sim::scenario_api::{Scenario, ScenarioParams};
        use sim::Runner;
        use std::sync::Arc;

        struct Tiny(&'static str);
        impl Scenario for Tiny {
            fn id(&self) -> &str {
                self.0
            }
            fn title(&self) -> &str {
                "tiny"
            }
            fn run_part(
                &self,
                _part: usize,
                _params: &ScenarioParams,
                _rng: &mut rand::rngs::StdRng,
            ) -> Vec<sim::ExperimentReport> {
                let mut r = sim::ExperimentReport::new("tiny", self.0, "x", "y");
                r.push_series(sim::Series::new("s", vec![0.0], vec![1.0]));
                vec![r]
            }
        }

        let scenarios: Vec<Arc<dyn Scenario>> =
            vec![Arc::new(Tiny("tiny")), Arc::new(Tiny("other"))];
        Runner::new(ScenarioParams::with_seed(1))
            .try_run_observed(&scenarios, &())
            .unwrap()
            .0
    }

    /// A fresh, empty directory unique to the calling test.
    fn scratch_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "bench-output-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Asserts that `dir` holds every `--out` file of `summary`.
    fn assert_out_files(dir: &Path, summary: &RunSummary) {
        let written = std::fs::read_to_string(dir.join("summary.json")).unwrap();
        assert_eq!(written, summary.to_json());
        // Each scenario's report lands under its own directory, so the
        // shared report id does not clobber the first scenario's files.
        for outcome in &summary.outcomes {
            let report = &outcome.reports[0];
            let stem = dir.join(&outcome.scenario_id).join("tiny");
            let read = |ext: &str| std::fs::read_to_string(stem.with_extension(ext)).unwrap();
            assert_eq!(read("json"), report.to_json());
            assert_eq!(read("csv"), report.to_csv());
        }
    }

    #[test]
    fn render_writes_summary_json_and_per_report_files() {
        let summary = tiny_summary();
        let dir = scratch_dir("render");
        let mut stdout = Vec::new();
        render_summary(
            &summary,
            Format::Json,
            Some(dir.to_str().unwrap()),
            &mut stdout,
        )
        .unwrap();
        assert_out_files(&dir, &summary);
        let expected: String = summary
            .outcomes
            .iter()
            .map(|outcome| format!("{}\n", outcome.reports[0].to_json()))
            .collect();
        assert_eq!(String::from_utf8(stdout).unwrap(), expected);
        // An unusable directory degrades to an error message, not a panic.
        let blocked = dir.join("summary.json"); // a file, not a directory
        let error = render_summary(
            &summary,
            Format::Table,
            Some(blocked.to_str().unwrap()),
            &mut Vec::new(),
        )
        .unwrap_err();
        assert!(error.contains("cannot create output directory"), "{error}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_stdout_write_fails_every_format_after_the_files_are_written() {
        /// Stdout behind a closed pipe: every write fails.
        struct ClosedPipe;
        impl Write for ClosedPipe {
            fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
                Err(std::io::ErrorKind::BrokenPipe.into())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let summary = tiny_summary();
        for format in [Format::Table, Format::Csv, Format::Json] {
            let dir = scratch_dir(&format!("closed-{format:?}"));
            let error = render_summary(
                &summary,
                format,
                Some(dir.to_str().unwrap()),
                &mut ClosedPipe,
            )
            .unwrap_err();
            assert!(
                error.starts_with("writing to stdout"),
                "{format:?}: {error}"
            );
            assert_out_files(&dir, &summary);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
