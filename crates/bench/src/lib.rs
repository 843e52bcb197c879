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
//! `status`-poll over one Unix domain socket, per-part
//! progress streams back as NDJSON frames, and every job shares one
//! result cache. Every front end describes a run as one
//! [`sim::JobSpec`], parsed from the same job flags ([`cli`]) and turned
//! into a runner by the same [`sim::ServiceConfig::runner`]; the
//! [`output`] module renders a `RunSummary` identically for the one-shot
//! and daemon paths. The Criterion benchmarks in `benches/` cover the
//! micro-level costs (repair, sharded builds, routing, metrics,
//! descriptors, crypto, SOAP iterations).
//!
//! Scenarios default to a scaled-down population so that a full
//! regeneration run finishes in minutes on a laptop; pass `--scale full`
//! to `run_experiments` to run at the paper's scale (5000/15000 nodes).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cli;
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

    #[test]
    fn from_params_maps_the_flag() {
        let mut params = sim::scenario_api::ScenarioParams::default();
        assert_eq!(Scale::from_params(&params), Scale::Quick);
        params.full_scale = true;
        assert_eq!(Scale::from_params(&params), Scale::Full);
    }
}
