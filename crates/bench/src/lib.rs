//! # onionbots-bench
//!
//! Figure/table-regeneration harness for the OnionBots (DSN 2015)
//! reproduction.
//!
//! Every paper figure/table/ablation is a registered
//! [`sim::Scenario`](sim::scenario_api::Scenario) in [`scenarios`]; the
//! `run_experiments` binary lists, selects and executes them in parallel
//! (`run_experiments --list`, `run_experiments --only fig4,fig7 --scale
//! full --jobs 8 --out results/`). Scenario knobs are overridable with
//! repeated `--set KEY=VALUE` flags, and `--cache-dir DIR` (or
//! `ONIONBOTS_CACHE_DIR`) replays previously computed parts from the
//! content-addressed [`sim::ResultCache`] with byte-identical output —
//! see `EXPERIMENTS.md` at the repository root for the full walkthrough.
//! With `--backend process` the run fans its work items out to
//! `run_experiments worker` subprocesses (the [`worker`] module) over the
//! newline-delimited JSON protocol in [`sim::wire`], with the same
//! byte-identical summaries.
//! `run_experiments serve` keeps the whole stack resident as a daemon
//! ([`service_cli`], over [`sim::service`]): clients `submit` jobs and
//! `status`-poll over Unix-domain or TCP loopback sockets, per-part
//! progress streams back as NDJSON frames, and every job shares one
//! result cache. The [`output`] module renders a `RunSummary`
//! identically for the one-shot and daemon paths.
//! The per-figure binaries in `src/bin/` are thin wrappers that delegate
//! to the same registry, and the Criterion benchmarks in `benches/` cover
//! the micro-level costs (repair, routing, metrics, descriptors, crypto,
//! SOAP iterations, event-queue throughput).
//!
//! Scenarios default to a scaled-down population so that a full
//! regeneration run finishes in minutes on a laptop; pass `--scale full`
//! to `run_experiments` (or `full` to a legacy figure binary, or set
//! `ONIONBOTS_FULL=1`) to run at the paper's scale (5000/15000 nodes).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod output;
pub mod scenarios;
pub mod service_cli;
pub mod worker;

use sim::scenario_api::ScenarioParams;

/// Experiment scale selection shared by the scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Scaled-down population for quick runs (default).
    Quick,
    /// The paper's population (5000 / 15000 nodes).
    Full,
}

impl Scale {
    /// Reads the scale from the environment only (`ONIONBOTS_FULL=1` or
    /// `=true`). Command-line flags are parsed explicitly via
    /// [`Scale::from_args`]; this no longer scans `std::env::args()`, which
    /// silently mis-triggered on unrelated flags once binaries took real
    /// options.
    pub fn from_env() -> Self {
        let env_full = std::env::var("ONIONBOTS_FULL").is_ok_and(|v| v == "1" || v == "true");
        if env_full {
            Scale::Full
        } else {
            Scale::Quick
        }
    }

    /// Parses the scale from explicit command-line arguments, falling back
    /// to the environment ([`Scale::from_env`]).
    ///
    /// Recognized forms: `--scale full|quick` / `--scale=full|quick` /
    /// `--full` / `--quick` anywhere, plus the legacy positional
    /// `full`/`quick` the original figure binaries documented — but only
    /// as the *first* argument, so values of unrelated flags (e.g.
    /// `--out full`) can never flip the scale. The last explicit option
    /// wins.
    ///
    /// # Errors
    /// Returns a message when a `--scale` value is not `full`/`quick`
    /// rather than silently running at the wrong scale.
    pub fn from_args(args: &[String]) -> Result<Self, String> {
        let mut scale = match args.first().map(String::as_str) {
            Some("full") => Some(Scale::Full),
            Some("quick") => Some(Scale::Quick),
            _ => None,
        };
        let mut i = 0;
        while i < args.len() {
            let value = args.get(i + 1).map(String::as_str);
            if let Some((parsed, consumed_value)) = Scale::match_flag(&args[i], value)? {
                scale = Some(parsed);
                i += usize::from(consumed_value);
            }
            i += 1;
        }
        Ok(scale.unwrap_or_else(Scale::from_env))
    }

    /// Interprets one argument as a scale flag, shared by every CLI front
    /// end so the spellings cannot drift apart. `value` is the following
    /// argument (consumed only for the space-separated `--scale VALUE`
    /// form, signalled by the returned bool); non-scale arguments return
    /// `Ok(None)`.
    ///
    /// # Errors
    /// Returns a message for a missing or unparseable `--scale` value.
    pub fn match_flag(arg: &str, value: Option<&str>) -> Result<Option<(Self, bool)>, String> {
        let parse_strict = |value: &str| -> Result<Scale, String> {
            Scale::parse(value).ok_or_else(|| format!("unknown --scale '{value}' (quick|full)"))
        };
        match arg {
            "--full" => Ok(Some((Scale::Full, false))),
            "--quick" => Ok(Some((Scale::Quick, false))),
            "--scale" => {
                let value = value.ok_or_else(|| "--scale requires a value".to_string())?;
                Ok(Some((parse_strict(value)?, true)))
            }
            other => match other.strip_prefix("--scale=") {
                Some(inline) => Ok(Some((parse_strict(inline)?, false))),
                None => Ok(None),
            },
        }
    }

    /// Parses `"full"` / `"quick"` (case-insensitive).
    pub fn parse(value: &str) -> Option<Self> {
        match value.to_ascii_lowercase().as_str() {
            "full" => Some(Scale::Full),
            "quick" => Some(Scale::Quick),
            _ => None,
        }
    }

    /// The scale a scenario run was configured with
    /// ([`ScenarioParams::full_scale`]).
    pub fn from_params(params: &ScenarioParams) -> Self {
        if params.full_scale {
            Scale::Full
        } else {
            Scale::Quick
        }
    }

    /// Whether this is the paper-scale configuration.
    pub fn is_full(self) -> bool {
        self == Scale::Full
    }

    /// Scales a paper-sized population down for quick runs (divides by 10,
    /// with a floor).
    pub fn population(self, paper_size: usize) -> usize {
        match self {
            Scale::Full => paper_size,
            Scale::Quick => (paper_size / 10).max(100),
        }
    }

    /// Number of BFS sources for sampled metrics.
    pub fn metric_samples(self) -> usize {
        match self {
            Scale::Full => 200,
            Scale::Quick => 60,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn quick_scale_shrinks_paper_populations() {
        assert_eq!(Scale::Quick.population(5000), 500);
        assert_eq!(Scale::Quick.population(15000), 1500);
        assert_eq!(Scale::Quick.population(500), 100);
        assert_eq!(Scale::Full.population(5000), 5000);
    }

    #[test]
    fn metric_samples_differ_by_scale() {
        assert!(Scale::Full.metric_samples() > Scale::Quick.metric_samples());
    }

    fn parsed(list: &[&str]) -> Scale {
        Scale::from_args(&args(list)).unwrap()
    }

    #[test]
    fn from_args_parses_explicit_forms() {
        assert_eq!(parsed(&["--scale", "full"]), Scale::Full);
        assert_eq!(parsed(&["--scale=full"]), Scale::Full);
        assert_eq!(parsed(&["--full"]), Scale::Full);
        assert_eq!(parsed(&["full"]), Scale::Full);
        assert_eq!(parsed(&["--scale", "quick"]), Scale::Quick);
        // Later options override earlier ones, in either direction.
        assert_eq!(parsed(&["--full", "--scale", "quick"]), Scale::Quick);
        assert_eq!(parsed(&["--scale", "full", "--quick"]), Scale::Quick);
        assert_eq!(parsed(&["--scale=quick", "--full"]), Scale::Full);
    }

    #[test]
    fn from_args_rejects_invalid_scale_values() {
        // A typo must error rather than silently run at the wrong scale.
        assert!(Scale::from_args(&args(&["--scale", "ful"])).is_err());
        assert!(Scale::from_args(&args(&["--scale=Full-size"])).is_err());
        // ... and so must a trailing --scale with its value missing.
        assert!(Scale::from_args(&args(&["--scale"])).is_err());
        assert!(Scale::from_args(&args(&["--jobs", "2", "--scale"])).is_err());
    }

    #[test]
    fn from_args_ignores_unrelated_flags() {
        // Regression: the old `from_env` scanned raw `std::env::args()` for
        // the substring "full", so flags like `--out fullresults` or a
        // binary path containing "full" flipped the scale.
        assert_eq!(
            parsed(&["--out", "fullresults", "--jobs", "8"]),
            Scale::Quick
        );
        assert_eq!(parsed(&["--only", "fig4"]), Scale::Quick);
    }

    #[test]
    fn bare_scale_words_only_count_in_first_position() {
        // Regression: `--out full` must not flip the scale just because a
        // flag value happens to be the word "full"; the legacy positional
        // form is only honored as the leading argument.
        assert_eq!(parsed(&["--out", "full"]), Scale::Quick);
        assert_eq!(parsed(&["--only", "full"]), Scale::Quick);
        assert_eq!(parsed(&["full", "--jobs", "2"]), Scale::Full);
        assert_eq!(parsed(&["quick"]), Scale::Quick);
    }

    #[test]
    fn from_params_maps_the_flag() {
        let mut params = sim::scenario_api::ScenarioParams::default();
        assert_eq!(Scale::from_params(&params), Scale::Quick);
        params.full_scale = true;
        assert_eq!(Scale::from_params(&params), Scale::Full);
    }
}
