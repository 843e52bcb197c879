//! The first-class scenario API: [`Scenario`], [`ScenarioParams`] and
//! [`ScenarioRegistry`].
//!
//! Every paper figure/table/ablation is a [`Scenario`]: a named, seeded,
//! parameterized experiment producing [`ExperimentReport`]s. Scenarios are
//! split into independent **parts** (e.g. the `k = 5/10/15` series of
//! Figure 4) so the [`Runner`](crate::runner::Runner) can fan them across
//! worker threads; each part draws its RNG from a seed derived from
//! `(params.seed, scenario id, part index)`, which makes results identical
//! whether parts run sequentially, in parallel, or interleaved with other
//! scenarios.
//!
//! ```
//! use rand::rngs::StdRng;
//! use sim::experiment::{ExperimentReport, Series};
//! use sim::scenario_api::{Scenario, ScenarioParams, ScenarioRegistry};
//!
//! struct Doubler;
//!
//! impl Scenario for Doubler {
//!     fn id(&self) -> &str { "doubler" }
//!     fn title(&self) -> &str { "Toy scenario" }
//!     fn run_part(&self, part: usize, _p: &ScenarioParams, _rng: &mut StdRng)
//!         -> Vec<ExperimentReport>
//!     {
//!         let mut r = ExperimentReport::new("doubler", "Toy scenario", "x", "y");
//!         r.push_series(Series::new("2x", vec![part as f64], vec![part as f64 * 2.0]));
//!         vec![r]
//!     }
//!     fn parts(&self, _p: &ScenarioParams) -> usize { 3 }
//! }
//!
//! let mut registry = ScenarioRegistry::new();
//! registry.register(Doubler);
//! let scenario = registry.get("doubler").unwrap();
//! let reports = scenario.run(&ScenarioParams::default());
//! assert_eq!(reports[0].series[0].x, vec![0.0, 1.0, 2.0]);
//! ```

use std::collections::BTreeMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::experiment::ExperimentReport;

/// Serializable knobs shared by every scenario.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScenarioParams {
    /// Run at the paper's full population instead of the scaled-down quick
    /// mode (bench crates map this onto their `Scale`).
    pub full_scale: bool,
    /// Base seed; per-part RNGs derive from it via [`part_seed`].
    pub seed: u64,
    /// Scenario-specific knob overrides (`key=value`), populated from
    /// repeated `--set KEY=VALUE` CLI flags. Scenarios read them through
    /// the typed accessors ([`override_usize`](Self::override_usize) and
    /// friends) and declare the keys they consume via
    /// [`Scenario::override_keys`] so the result cache can fingerprint
    /// exactly the overrides that affect each part.
    pub overrides: BTreeMap<String, String>,
}

impl Default for ScenarioParams {
    fn default() -> Self {
        ScenarioParams {
            full_scale: false,
            seed: 2015, // the paper's year; any fixed default works
            overrides: BTreeMap::new(),
        }
    }
}

impl ScenarioParams {
    /// Quick-scale params with an explicit seed.
    pub fn with_seed(seed: u64) -> Self {
        ScenarioParams {
            seed,
            ..ScenarioParams::default()
        }
    }

    /// Builder-style insertion of one override (last write wins).
    #[must_use]
    pub fn with_override(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.overrides.insert(key.into(), value.into());
        self
    }

    /// An override parsed as `usize`, or `default` when the key is absent.
    ///
    /// # Panics
    /// Panics when the override is present but not a valid `usize` — a
    /// mistyped `--set` value must fail loudly, not silently fall back.
    pub fn override_usize(&self, key: &str, default: usize) -> usize {
        self.override_usize_opt(key).unwrap_or(default)
    }

    /// An override parsed as `usize`, or `None` when the key is absent —
    /// for scenarios where mere *presence* of a key changes behavior
    /// (e.g. `scale`'s `n` collapsing the population sweep to one part).
    ///
    /// # Panics
    /// Panics when the override is present but unparseable, like
    /// [`override_usize`](Self::override_usize).
    pub fn override_usize_opt(&self, key: &str) -> Option<usize> {
        self.override_opt(key)
    }

    /// An override parsed as `f64`, or `default` when the key is absent.
    ///
    /// # Panics
    /// Panics when the override is present but unparseable, like
    /// [`override_usize`](Self::override_usize).
    pub fn override_f64(&self, key: &str, default: f64) -> f64 {
        self.override_opt(key).unwrap_or(default)
    }

    /// The primitive every typed accessor routes through: present keys
    /// parse (or panic loudly), absent keys are `None`.
    fn override_opt<T>(&self, key: &str) -> Option<T>
    where
        T: std::str::FromStr,
        T::Err: std::fmt::Display,
    {
        self.overrides.get(key).map(|raw| {
            raw.parse().unwrap_or_else(|e| {
                panic!(
                    "override '{key}={raw}' is not a valid {}: {e}",
                    std::any::type_name::<T>()
                )
            })
        })
    }
}

/// Parses one `KEY=VALUE` override (the argument of a `--set` flag).
///
/// The key must be non-empty and the first `=` separates key from value, so
/// values may themselves contain `=`.
///
/// # Errors
/// Returns a human-readable message when the `=` or the key is missing.
pub fn parse_override(spec: &str) -> Result<(String, String), String> {
    let Some((key, value)) = spec.split_once('=') else {
        return Err(format!("override '{spec}' is not of the form KEY=VALUE"));
    };
    let key = key.trim();
    if key.is_empty() {
        return Err(format!("override '{spec}' has an empty key"));
    }
    Ok((key.to_string(), value.trim().to_string()))
}

/// Derives the deterministic seed for one part of one scenario.
///
/// FNV-1a over the scenario id, mixed with the base seed and part index;
/// the same `(seed, id, part)` triple always yields the same stream no
/// matter which worker thread runs it.
pub fn part_seed(base_seed: u64, scenario_id: &str, part: usize) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in scenario_id.bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash ^= base_seed.rotate_left(17);
    hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    hash ^= part as u64;
    hash.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// A named, seeded, parameterized experiment.
///
/// Implementations provide [`run_part`](Scenario::run_part); the provided
/// [`run`](Scenario::run) method executes all parts sequentially with the
/// same per-part seeds the parallel [`Runner`](crate::runner::Runner)
/// uses, so both paths produce identical reports.
pub trait Scenario: Send + Sync {
    /// Stable identifier (e.g. `"fig4"`), used by `--only` selection and
    /// output file names.
    fn id(&self) -> &str;

    /// Human-readable title.
    fn title(&self) -> &str;

    /// The override keys this scenario consumes, if it knows them.
    ///
    /// `Some(keys)` lets the result cache fingerprint only the overrides
    /// that can actually change this scenario's output, so an unrelated
    /// `--set` does not invalidate its cached parts. The default `None`
    /// means "unknown — fingerprint every override", which is always
    /// correct, just conservative.
    fn override_keys(&self) -> Option<Vec<&str>> {
        None
    }

    /// Number of independently runnable parts under `params`. Parts must
    /// not share mutable state; their reports are merged in part order.
    /// Every caller reads it through [`part_count`], which runs a
    /// scenario that declares no parts as one part.
    fn parts(&self, params: &ScenarioParams) -> usize {
        let _ = params;
        1
    }

    /// Runs one part with a part-specific RNG, returning (possibly
    /// partial) reports. Reports from different parts that share an id are
    /// merged by [`merge_reports`]; series that share a label are
    /// concatenated point-wise.
    fn run_part(
        &self,
        part: usize,
        params: &ScenarioParams,
        rng: &mut StdRng,
    ) -> Vec<ExperimentReport>;

    /// Runs every part sequentially and merges the reports — the
    /// single-threaded entry point for tests and examples.
    fn run(&self, params: &ScenarioParams) -> Vec<ExperimentReport> {
        let mut merged = Vec::new();
        for part in 0..part_count(self, params) {
            let mut rng = StdRng::seed_from_u64(part_seed(params.seed, self.id(), part));
            merge_reports(&mut merged, self.run_part(part, params, &mut rng));
        }
        merged
    }
}

/// How many parts `scenario` runs under `params`: its
/// [`parts`](Scenario::parts), but at least one. The one rule the runner,
/// the planner, [`Scenario::run`], the listings and the daemon's job
/// table all share.
pub fn part_count<S: Scenario + ?Sized>(scenario: &S, params: &ScenarioParams) -> usize {
    scenario.parts(params).max(1)
}

/// Merges `incoming` reports into `acc`: reports with a known id merge
/// into the existing report (series with a known label are concatenated,
/// new labels are appended, notes accumulate); new ids are appended.
pub fn merge_reports(acc: &mut Vec<ExperimentReport>, incoming: Vec<ExperimentReport>) {
    for report in incoming {
        match acc.iter_mut().find(|r| r.id == report.id) {
            None => acc.push(report),
            Some(existing) => {
                for series in report.series {
                    match existing.series.iter_mut().find(|s| s.label == series.label) {
                        None => existing.series.push(series),
                        Some(target) => {
                            target.x.extend(series.x);
                            target.y.extend(series.y);
                        }
                    }
                }
                existing.notes.extend(report.notes);
            }
        }
    }
}

/// Error returned when `--only` names a scenario the registry doesn't
/// know.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownScenario {
    /// The id that failed to resolve.
    pub requested: String,
    /// Every registered id, for the error message.
    pub known: Vec<String>,
}

impl std::fmt::Display for UnknownScenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown scenario '{}'; known scenarios: {}",
            self.requested,
            self.known.join(", ")
        )
    }
}

impl std::error::Error for UnknownScenario {}

/// An ordered collection of registered scenarios.
#[derive(Default, Clone)]
pub struct ScenarioRegistry {
    scenarios: Vec<Arc<dyn Scenario>>,
}

impl ScenarioRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        ScenarioRegistry::default()
    }

    /// Registers a scenario, preserving insertion order.
    ///
    /// # Panics
    /// Panics if a scenario with the same id is already registered —
    /// duplicate registration is a programming error, not a runtime
    /// condition.
    pub fn register(&mut self, scenario: impl Scenario + 'static) -> &mut Self {
        assert!(
            self.get(scenario.id()).is_none(),
            "scenario '{}' registered twice",
            scenario.id()
        );
        self.scenarios.push(Arc::new(scenario));
        self
    }

    /// Number of registered scenarios.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }

    /// Registered ids in registration order.
    pub fn ids(&self) -> Vec<&str> {
        self.scenarios.iter().map(|s| s.id()).collect()
    }

    /// Iterates over the registered scenarios in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<dyn Scenario>> {
        self.scenarios.iter()
    }

    /// Looks a scenario up by id.
    pub fn get(&self, id: &str) -> Option<Arc<dyn Scenario>> {
        self.scenarios.iter().find(|s| s.id() == id).cloned()
    }

    /// Resolves a selection: an empty `only` list selects everything;
    /// otherwise each id must exist. An id named more than once is
    /// selected once, at its first position (`--only` accumulates across
    /// flags, so a repeat is a convenience, not an error).
    ///
    /// # Errors
    /// Returns [`UnknownScenario`] for the first id that does not resolve.
    pub fn select(&self, only: &[String]) -> Result<Vec<Arc<dyn Scenario>>, UnknownScenario> {
        if only.is_empty() {
            return Ok(self.scenarios.clone());
        }
        let mut selected: Vec<Arc<dyn Scenario>> = Vec::new();
        for id in only {
            if selected.iter().any(|s| s.id() == id) {
                continue;
            }
            selected.push(self.get(id).ok_or_else(|| UnknownScenario {
                requested: id.clone(),
                known: self.ids().iter().map(|s| s.to_string()).collect(),
            })?);
        }
        Ok(selected)
    }
}

impl std::fmt::Debug for ScenarioRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScenarioRegistry")
            .field("ids", &self.ids())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Series;

    struct Toy {
        id: &'static str,
        parts: usize,
    }

    impl Scenario for Toy {
        fn id(&self) -> &str {
            self.id
        }
        fn title(&self) -> &str {
            "toy"
        }
        fn parts(&self, _params: &ScenarioParams) -> usize {
            self.parts
        }
        fn run_part(
            &self,
            part: usize,
            _params: &ScenarioParams,
            rng: &mut StdRng,
        ) -> Vec<ExperimentReport> {
            use rand::Rng;
            let mut r = ExperimentReport::new(self.id, "toy", "x", "y");
            r.push_series(Series::new(
                "samples",
                vec![part as f64],
                vec![rng.gen_range(0.0f64..1.0)],
            ));
            r.push_note(format!("part {part}"));
            vec![r]
        }
    }

    #[test]
    fn part_seeds_are_distinct_per_scenario_and_part() {
        let a = part_seed(1, "fig4", 0);
        let b = part_seed(1, "fig4", 1);
        let c = part_seed(1, "fig5", 0);
        let d = part_seed(2, "fig4", 0);
        assert!(a != b && a != c && a != d && b != c);
        assert_eq!(a, part_seed(1, "fig4", 0));
    }

    #[test]
    fn run_merges_parts_in_order_with_derived_seeds() {
        let toy = Toy {
            id: "toy",
            parts: 3,
        };
        let params = ScenarioParams::default();
        let reports = toy.run(&params);
        assert_eq!(reports.len(), 1);
        let series = &reports[0].series[0];
        assert_eq!(series.x, vec![0.0, 1.0, 2.0]);
        assert_eq!(reports[0].notes, vec!["part 0", "part 1", "part 2"]);
        // Re-running yields the identical report (deterministic seeds).
        assert_eq!(toy.run(&params), reports);
    }

    #[test]
    fn merge_reports_appends_unknown_labels_and_ids() {
        let mut acc = vec![];
        let mut a = ExperimentReport::new("r1", "t", "x", "y");
        a.push_series(Series::new("s1", vec![0.0], vec![1.0]));
        merge_reports(&mut acc, vec![a]);
        let mut b = ExperimentReport::new("r1", "t", "x", "y");
        b.push_series(Series::new("s1", vec![1.0], vec![2.0]));
        b.push_series(Series::new("s2", vec![0.0], vec![9.0]));
        let c = ExperimentReport::new("r2", "t2", "x", "y");
        merge_reports(&mut acc, vec![b, c]);
        assert_eq!(acc.len(), 2);
        assert_eq!(acc[0].series.len(), 2);
        assert_eq!(acc[0].series[0].x, vec![0.0, 1.0]);
        assert_eq!(acc[0].series[0].y, vec![1.0, 2.0]);
        assert_eq!(acc[1].id, "r2");
    }

    #[test]
    fn registry_lookup_selection_and_errors() {
        let mut reg = ScenarioRegistry::new();
        reg.register(Toy { id: "a", parts: 1 })
            .register(Toy { id: "b", parts: 1 });
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.ids(), vec!["a", "b"]);
        assert!(reg.get("a").is_some());
        assert!(reg.get("zzz").is_none());
        assert_eq!(reg.select(&[]).unwrap().len(), 2);
        let picked = reg.select(&["b".to_string()]).unwrap();
        assert_eq!(picked.len(), 1);
        assert_eq!(picked[0].id(), "b");
        let Err(err) = reg.select(&["nope".to_string()]) else {
            panic!("unknown id must not resolve");
        };
        assert_eq!(err.requested, "nope");
        assert!(err.to_string().contains("known scenarios: a, b"));
    }

    #[test]
    fn repeated_ids_select_once_in_first_occurrence_order() {
        let mut reg = ScenarioRegistry::new();
        reg.register(Toy { id: "a", parts: 1 })
            .register(Toy { id: "b", parts: 1 });
        let only: Vec<String> = ["b", "a", "b", "a"].map(String::from).to_vec();
        let picked: Vec<String> = reg
            .select(&only)
            .unwrap()
            .iter()
            .map(|s| s.id().to_string())
            .collect();
        assert_eq!(picked, vec!["b", "a"]);
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_registration_panics() {
        let mut reg = ScenarioRegistry::new();
        reg.register(Toy { id: "a", parts: 1 })
            .register(Toy { id: "a", parts: 1 });
    }

    #[test]
    fn parse_override_splits_on_first_equals() {
        assert_eq!(
            parse_override("n=500").unwrap(),
            ("n".to_string(), "500".to_string())
        );
        assert_eq!(
            parse_override("filter=a=b").unwrap(),
            ("filter".to_string(), "a=b".to_string())
        );
        assert_eq!(
            parse_override(" k = 10 ").unwrap(),
            ("k".to_string(), "10".to_string())
        );
        assert_eq!(
            parse_override("empty=").unwrap(),
            ("empty".to_string(), String::new())
        );
        assert!(parse_override("no-equals").is_err());
        assert!(parse_override("=value").is_err());
    }

    #[test]
    fn typed_override_accessors_fall_back_to_defaults() {
        let params = ScenarioParams::default()
            .with_override("n", "500")
            .with_override("rate", "0.25");
        assert_eq!(params.override_usize("n", 9), 500);
        assert_eq!(params.override_usize("missing", 9), 9);
        assert_eq!(params.override_usize_opt("n"), Some(500));
        assert_eq!(params.override_usize_opt("missing"), None);
        assert!((params.override_f64("rate", 0.0) - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "not a valid")]
    fn malformed_override_value_panics_instead_of_defaulting() {
        let params = ScenarioParams::default().with_override("n", "lots");
        params.override_usize("n", 1);
    }

    #[test]
    fn a_zero_part_scenario_runs_one_part_on_every_path() {
        use crate::runner::Runner;
        use crate::service::ScenarioInfo;

        let params = ScenarioParams::with_seed(8);
        let zero = Toy {
            id: "zero",
            parts: 0,
        };
        assert_eq!(part_count(&zero, &params), 1);
        let mut registry = ScenarioRegistry::new();
        registry.register(Toy {
            id: "zero",
            parts: 0,
        });
        let summary = Runner::new(params.clone())
            .try_run_observed(&registry.select(&[]).unwrap(), &())
            .unwrap()
            .0;
        assert_eq!(summary.outcomes[0].parts, 1);
        assert_eq!(summary.outcomes[0].reports, zero.run(&params));
        assert_eq!(zero.run(&params)[0].notes, vec!["part 0"]);
        let infos = ScenarioInfo::collect(&registry, &params);
        assert_eq!(infos[0].parts, 1);
    }

    #[test]
    fn override_keys_default_to_unknown() {
        assert_eq!(Toy { id: "a", parts: 1 }.override_keys(), None);
    }
}
