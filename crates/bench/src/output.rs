//! Shared summary rendering for the CLI front ends.
//!
//! The one-shot `run_experiments` path and the `submit` client render a
//! [`RunSummary`] through this single function, so a summary that came
//! back from the simulation service daemon produces byte-identical
//! stdout, per-report files and `summary.json` to a local run — the
//! rendering layer cannot drift between the two paths.

use std::io::Write as _;
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

/// Renders a summary to stdout in `format` and, with `out` set, writes
/// `<out>/<scenario id>/<report id>.json` and `.csv` per report plus
/// `summary.json` — exactly what the one-shot CLI has always produced.
/// Namespacing the report files by scenario keeps two scenarios that
/// reuse a report id from overwriting each other's files.
///
/// # Errors
/// Returns a human-readable message when the output directory or a file
/// cannot be written.
pub fn render_summary(
    summary: &RunSummary,
    format: Format,
    out: Option<&str>,
) -> Result<(), String> {
    if let Some(dir) = out {
        std::fs::create_dir_all(dir)
            .map_err(|error| format!("cannot create output directory {dir}: {error}"))?;
    }
    let mut stdout = std::io::stdout();
    for outcome in &summary.outcomes {
        for report in &outcome.reports {
            let written = match format {
                Format::Table => writeln!(stdout, "{}", report.to_table()),
                Format::Csv => {
                    let _ = writeln!(stdout, "# {}\n{}", report.id, report.to_csv());
                    Ok(())
                }
                Format::Json => {
                    let _ = writeln!(stdout, "{}", report.to_json());
                    Ok(())
                }
            };
            written
                .and_then(|()| match out {
                    Some(dir) => {
                        let scenario_dir = Path::new(dir).join(&outcome.scenario_id);
                        std::fs::create_dir_all(&scenario_dir)?;
                        let file = |ext: &str| scenario_dir.join(format!("{}.{ext}", report.id));
                        std::fs::write(file("json"), report.to_json())?;
                        std::fs::write(file("csv"), report.to_csv())
                    }
                    None => Ok(()),
                })
                .map_err(|error| format!("writing report {}: {error}", report.id))?;
        }
    }
    if format == Format::Table {
        stdout
            .flush()
            .map_err(|error| format!("flushing output: {error}"))?;
    }
    if let Some(dir) = out {
        let path = Path::new(dir).join("summary.json");
        std::fs::write(&path, summary.to_json())
            .map_err(|error| format!("writing {}: {error}", path.display()))?;
    }
    Ok(())
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

    #[test]
    fn render_writes_summary_json_and_per_report_files() {
        use sim::scenario_api::{Scenario, ScenarioParams};
        use sim::Runner;
        use std::sync::Arc;

        /// Every instance emits a report with the same id, `tiny`.
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
        let (summary, _) = Runner::new(ScenarioParams::with_seed(1))
            .try_run_observed(&scenarios, &())
            .unwrap();
        let dir = std::env::temp_dir().join(format!(
            "bench-output-render-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        render_summary(&summary, Format::Json, Some(dir.to_str().unwrap())).unwrap();
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
        // An unusable directory degrades to an error message, not a panic.
        let blocked = dir.join("summary.json"); // a file, not a directory
        let error =
            render_summary(&summary, Format::Table, Some(blocked.to_str().unwrap())).unwrap_err();
        assert!(error.contains("cannot create output directory"), "{error}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
