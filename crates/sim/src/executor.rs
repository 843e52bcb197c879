//! Pluggable execution backends for the experiment
//! [`Runner`](crate::runner::Runner).
//!
//! The unit of execution is a [`WorkItem`]: one *(scenario id, part,
//! derived part seed, scale, scoped overrides)* tuple, self-contained
//! enough that any process holding the scenario registry can execute it
//! without further context. A work item's identity **is** its cache
//! fingerprint (the same SHA-256 digest [`PartFingerprint`] derives), so
//! the cache-aware path — replay hits, execute only misses, store fresh
//! results — lives entirely above the backend and behaves identically no
//! matter which backend runs the misses.
//!
//! One type implements the [`Executor`] trait for all three built-in
//! backends: the [`Dispatcher`](crate::dispatch::Dispatcher), which
//! drives in-process worker threads, worker subprocesses or TCP worker
//! hosts through one channel state machine speaking the [`crate::wire`]
//! frames, served on the worker side by one loop,
//! [`serve_connection`](crate::wire::serve_connection).
//!
//! Because every backend consumes the same serialized work items and
//! per-part seeding makes results position-independent, a `RunSummary`
//! is byte-identical across backends and worker counts.

use std::collections::BTreeMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::cache::PartFingerprint;
use crate::experiment::ExperimentReport;
use crate::runner::RunObserver;
use crate::scenario_api::{part_count, part_seed, Scenario, ScenarioParams};

/// One self-contained unit of executable work: a single part of a single
/// scenario under fully resolved parameters.
///
/// The `fingerprint` field is the part's content address — the exact hex
/// digest [`PartFingerprint::compute`] derives — so work items double as
/// cache keys and cross-host dedup keys. `params` carries the base seed
/// and scale verbatim but only the *scoped* overrides: the keys the
/// scenario declares via [`Scenario::override_keys`] (all of them when
/// the scenario declares none). Scoping makes the item's bytes match its
/// identity — two items with equal fingerprints are bytewise equal up to
/// the `threads` execution hint — and keeps undeclared-key leakage from
/// ever differing between backends.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkItem {
    /// Registry id of the scenario to run.
    pub scenario_id: String,
    /// Part index within the scenario.
    pub part: usize,
    /// The derived per-part RNG seed ([`part_seed`]), precomputed so a
    /// worker does not need to re-derive it.
    pub part_seed: u64,
    /// Hex SHA-256 content address; equals
    /// [`PartFingerprint::compute`]`(..).hex()` for this item.
    pub fingerprint: String,
    /// Base seed, scale and scoped overrides the part runs with.
    pub params: ScenarioParams,
    /// Intra-item thread budget **hint**: how many threads this item's
    /// graph sweeps may use (scoped around execution via
    /// [`onion_graph::budget`]). Execution metadata, *not* identity — it
    /// is excluded from the fingerprint and can never change a byte of
    /// the part's output (the BFS kernel writes results by source index,
    /// so any thread count produces identical bytes); it only bounds
    /// resource use. The runner assigns it by splitting the machine
    /// across in-flight items (`Runner::threads_per_item`).
    pub threads: usize,
}

impl WorkItem {
    /// Builds the work item for `part` of `scenario` under `params`,
    /// scoping the overrides and computing the content address.
    pub fn new(scenario: &dyn Scenario, part: usize, params: &ScenarioParams) -> Self {
        let declared = scenario.override_keys();
        let mut scoped = params.clone();
        scoped
            .overrides
            .retain(|key, _| crate::cache::override_relevant(declared.as_deref(), key));
        let fingerprint = PartFingerprint::compute(scenario, part, params);
        WorkItem {
            scenario_id: scenario.id().to_string(),
            part,
            part_seed: part_seed(params.seed, scenario.id(), part),
            fingerprint: fingerprint.hex().to_string(),
            params: scoped,
            threads: 1,
        }
    }

    /// The item's identity as a [`PartFingerprint`] (for cache lookups
    /// and stores).
    pub fn part_fingerprint(&self) -> PartFingerprint {
        PartFingerprint::from_parts(&self.scenario_id, self.part, &self.fingerprint)
    }
}

/// The result of executing one [`WorkItem`]: the reports, or a per-item
/// error the backend could not recover from (e.g. the worker process does
/// not have the scenario registered).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartResult {
    /// Echo of [`WorkItem::scenario_id`].
    pub scenario_id: String,
    /// Echo of [`WorkItem::part`].
    pub part: usize,
    /// Echo of [`WorkItem::fingerprint`], so results can be matched to
    /// items (and stored in the cache) without positional bookkeeping.
    pub fingerprint: String,
    /// The reports the part produced (empty on error).
    pub reports: Vec<ExperimentReport>,
    /// Per-item status: `None` means success, `Some(message)` means the
    /// item could not be executed. Workers report status per item; the
    /// parent aggregates and reports, so a worker never prints summaries.
    pub error: Option<String>,
}

impl PartResult {
    /// A successful result for `item`.
    pub fn ok(item: &WorkItem, reports: Vec<ExperimentReport>) -> Self {
        PartResult {
            scenario_id: item.scenario_id.clone(),
            part: item.part,
            fingerprint: item.fingerprint.clone(),
            reports,
            error: None,
        }
    }

    /// A failed result for `item`.
    pub fn failed(item: &WorkItem, error: impl Into<String>) -> Self {
        PartResult {
            scenario_id: item.scenario_id.clone(),
            part: item.part,
            fingerprint: item.fingerprint.clone(),
            reports: Vec::new(),
            error: Some(error.into()),
        }
    }
}

/// Executes one work item against its (already resolved) scenario: scope
/// the item's thread-budget hint, seed the part RNG from the precomputed
/// [`WorkItem::part_seed`] and run the part. This is the one place the
/// worker loop calls, so local and remote execution cannot drift apart —
/// and the one place the budget is applied, so a part's graph sweeps see
/// the same budget whether they run on a local worker thread or inside a
/// worker subprocess.
pub fn run_work_item(scenario: &dyn Scenario, item: &WorkItem) -> Vec<ExperimentReport> {
    onion_graph::budget::with_thread_budget(item.threads, || {
        let mut rng = StdRng::seed_from_u64(item.part_seed);
        scenario.run_part(item.part, &item.params, &mut rng)
    })
}

/// Error produced when a backend cannot complete its batch of work items,
/// or when the run was cancelled before it could.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutorError {
    message: String,
    cancelled: bool,
}

impl ExecutorError {
    /// Creates an error from a message.
    pub fn new(message: impl Into<String>) -> Self {
        ExecutorError {
            message: message.into(),
            cancelled: false,
        }
    }

    /// The error a run fails with when its observer cancelled it while
    /// `remaining` of its `total` dispatched items had no result.
    pub fn cancelled(remaining: usize, total: usize) -> Self {
        ExecutorError {
            message: format!("job cancelled with {remaining} of {total} item(s) still pending"),
            cancelled: true,
        }
    }

    /// Whether the run failed because it was cancelled rather than
    /// because the backend could not complete it.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled
    }
}

impl std::fmt::Display for ExecutorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ExecutorError {}

/// A pluggable execution backend.
///
/// `execute` consumes a batch of [`WorkItem`]s and returns one successful
/// [`PartResult`] per item, in **completion order** (callers reassemble
/// by `(scenario, part)`; nothing about the output order is guaranteed).
/// Backends retry transient failures themselves; an `Err` means the batch
/// could not be completed and the run must fail.
///
/// While it runs, a backend reports a `Started`
/// [`PartEvent`](crate::runner::PartEvent) as each item begins (again,
/// if it was re-queued), a `Finished` event as each result lands, and an
/// `Error` event for the item that fails the batch, just before it
/// returns the error. Events come from worker threads in completion
/// order and are informational: the returned results stay the single
/// source of truth. A backend polls [`RunObserver::cancelled`] each time
/// it is about to take the next item; once it reads `true` it takes no
/// further items, lets started items finish, hands back any item it
/// assigned ahead but had not started (no `Started` event, no result)
/// and returns the results it has. Returning fewer results than items is
/// then expected, not a failure: the caller asked for the stop.
pub trait Executor: Send + Sync {
    /// Executes every item, returning their results in completion order.
    ///
    /// # Errors
    /// Returns an [`ExecutorError`] when any item cannot be executed
    /// (unknown scenario, worker that keeps dying, ...).
    fn execute(
        &self,
        items: Vec<WorkItem>,
        observer: &dyn RunObserver,
    ) -> Result<Vec<PartResult>, ExecutorError>;
}

/// Builds one [`WorkItem`] per part of every scenario, in `(scenario,
/// part)` order, alongside the scenario's index in `scenarios` — the
/// planning step the `Runner` feeds into the cache pass and then an
/// [`Executor`].
pub fn plan_work_items(
    scenarios: &[Arc<dyn Scenario>],
    params: &ScenarioParams,
) -> Vec<(usize, WorkItem)> {
    let mut items = Vec::new();
    for (scenario_idx, scenario) in scenarios.iter().enumerate() {
        for part in 0..part_count(&**scenario, params) {
            items.push((scenario_idx, WorkItem::new(&**scenario, part, params)));
        }
    }
    items
}

/// Maps scenario ids back to their index in `scenarios`, verifying
/// uniqueness — with ids as the wire identity, two scenarios sharing an
/// id would make results ambiguous.
///
/// # Panics
/// Panics when two scenarios share an id (the registry already rejects
/// this; direct `Runner` callers get the same contract).
pub fn index_by_id(scenarios: &[Arc<dyn Scenario>]) -> BTreeMap<String, usize> {
    let mut by_id = BTreeMap::new();
    for (idx, scenario) in scenarios.iter().enumerate() {
        let previous = by_id.insert(scenario.id().to_string(), idx);
        assert!(
            previous.is_none(),
            "scenario id '{}' appears twice in one run",
            scenario.id()
        );
    }
    by_id
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::{Dispatcher, WorkerCommand};
    use crate::experiment::Series;
    use rand::Rng;

    struct Toy {
        id: &'static str,
        parts: usize,
        keys: Option<Vec<&'static str>>,
    }

    impl Scenario for Toy {
        fn id(&self) -> &str {
            self.id
        }
        fn title(&self) -> &str {
            "toy"
        }
        fn override_keys(&self) -> Option<Vec<&str>> {
            self.keys.clone()
        }
        fn parts(&self, _params: &ScenarioParams) -> usize {
            self.parts
        }
        fn run_part(
            &self,
            part: usize,
            params: &ScenarioParams,
            rng: &mut StdRng,
        ) -> Vec<ExperimentReport> {
            let offset = params.override_f64("offset", 0.0);
            let mut r = ExperimentReport::new(self.id, "toy", "part", "value");
            r.push_series(Series::new(
                "trace",
                vec![part as f64],
                vec![offset + rng.gen_range(0.0f64..1.0)],
            ));
            vec![r]
        }
    }

    fn toys() -> Vec<Arc<dyn Scenario>> {
        vec![
            Arc::new(Toy {
                id: "t1",
                parts: 3,
                keys: Some(vec!["offset"]),
            }),
            Arc::new(Toy {
                id: "t2",
                parts: 2,
                keys: None,
            }),
        ]
    }

    #[test]
    fn work_items_scope_overrides_to_declared_keys() {
        let params = ScenarioParams::with_seed(5)
            .with_override("offset", "2.0")
            .with_override("unrelated", "1");
        let declared = Toy {
            id: "t1",
            parts: 1,
            keys: Some(vec!["offset"]),
        };
        let item = WorkItem::new(&declared, 0, &params);
        assert_eq!(item.params.overrides.get("offset").unwrap(), "2.0");
        assert_eq!(
            item.params.overrides.get("unrelated"),
            None,
            "undeclared keys are stripped"
        );
        // A scenario with unknown keys keeps every override.
        let unknown = Toy {
            id: "t2",
            parts: 1,
            keys: None,
        };
        let item = WorkItem::new(&unknown, 0, &params);
        assert_eq!(item.params.overrides.get("unrelated").unwrap(), "1");
    }

    #[test]
    fn work_item_identity_is_the_cache_fingerprint() {
        let params = ScenarioParams::with_seed(9).with_override("unrelated", "x");
        let scenario = Toy {
            id: "t1",
            parts: 2,
            keys: Some(vec!["offset"]),
        };
        let item = WorkItem::new(&scenario, 1, &params);
        let fp = PartFingerprint::compute(&scenario, 1, &params);
        assert_eq!(item.fingerprint, fp.hex());
        assert_eq!(item.part_fingerprint(), fp);
        assert_eq!(item.part_seed, part_seed(params.seed, "t1", 1));
        // Equal fingerprints imply bytewise-equal items: the digest already
        // ignores undeclared overrides, and scoping strips them from the
        // serialized params too.
        let stripped = ScenarioParams::with_seed(9);
        assert_eq!(item, WorkItem::new(&scenario, 1, &stripped));
    }

    #[test]
    fn run_work_item_scopes_the_thread_budget_hint() {
        /// A scenario that (unlike any real one) leaks the ambient thread
        /// budget into its report, to prove the hint reaches `run_part`.
        struct BudgetProbe;
        impl Scenario for BudgetProbe {
            fn id(&self) -> &str {
                "budget-probe"
            }
            fn title(&self) -> &str {
                "budget probe"
            }
            fn run_part(
                &self,
                part: usize,
                _params: &ScenarioParams,
                _rng: &mut StdRng,
            ) -> Vec<ExperimentReport> {
                let mut r = ExperimentReport::new("budget-probe", "probe", "part", "budget");
                r.push_series(Series::new(
                    "budget",
                    vec![part as f64],
                    vec![onion_graph::budget::thread_budget() as f64],
                ));
                vec![r]
            }
        }

        let params = ScenarioParams::with_seed(1);
        let mut item = WorkItem::new(&BudgetProbe, 0, &params);
        item.threads = 5;
        let reports = run_work_item(&BudgetProbe, &item);
        assert_eq!(reports[0].series[0].y, vec![5.0], "hint visible in-part");
        assert_eq!(
            onion_graph::budget::thread_budget(),
            1,
            "budget restored after the item"
        );
        // The default hint keeps parts sequential.
        assert_eq!(WorkItem::new(&BudgetProbe, 0, &params).threads, 1);
    }

    #[test]
    fn work_items_without_a_threads_field_are_rejected() {
        // Every dispatcher that passes the `Hello` version check sends
        // `threads`, so an item without it is malformed, like one missing
        // an identity field.
        let params = ScenarioParams::with_seed(3).with_override("offset", "1.5");
        let scenario = Toy {
            id: "t1",
            parts: 1,
            keys: Some(vec!["offset"]),
        };
        let item = WorkItem::new(&scenario, 0, &params);
        let unhinted = format!(
            "{{\"scenario_id\":\"{}\",\"part\":{},\"part_seed\":{},\"fingerprint\":\"{}\",\"params\":{}}}",
            item.scenario_id,
            item.part,
            item.part_seed,
            item.fingerprint,
            serde_json::to_string(&item.params).unwrap()
        );
        assert!(serde_json::from_str::<WorkItem>(&unhinted).is_err());
        let hinted = format!("{},\"threads\":1}}", &unhinted[..unhinted.len() - 1]);
        assert_eq!(serde_json::from_str::<WorkItem>(&hinted).unwrap(), item);
        // Identity fields stay required: dropping one is still an error.
        let truncated = hinted.replace("\"part\":0,", "");
        assert!(serde_json::from_str::<WorkItem>(&truncated).is_err());
    }

    #[test]
    fn protocol_messages_roundtrip_through_json_lines() {
        let params = ScenarioParams::with_seed(3).with_override("offset", "1.5");
        let scenario = Toy {
            id: "t1",
            parts: 1,
            keys: Some(vec!["offset"]),
        };
        let item = WorkItem::new(&scenario, 0, &params);
        let line = serde_json::to_string(&item).unwrap();
        assert!(!line.contains('\n'), "one item per line");
        let parsed: WorkItem = serde_json::from_str(&line).unwrap();
        assert_eq!(parsed, item);

        let result = PartResult::ok(&item, run_work_item(&scenario, &item));
        let line = serde_json::to_string(&result).unwrap();
        assert!(!line.contains('\n'), "one result per line");
        let parsed: PartResult = serde_json::from_str(&line).unwrap();
        assert_eq!(parsed, result);

        let failed = PartResult::failed(&item, "boom");
        let parsed: PartResult =
            serde_json::from_str(&serde_json::to_string(&failed).unwrap()).unwrap();
        assert_eq!(parsed.error.as_deref(), Some("boom"));
        assert!(parsed.reports.is_empty());
    }

    #[test]
    fn local_executor_matches_sequential_scenario_runs_at_any_jobs() {
        let params = ScenarioParams::with_seed(11);
        let items: Vec<WorkItem> = plan_work_items(&toys(), &params)
            .into_iter()
            .map(|(_, item)| item)
            .collect();
        // Items are planned in (scenario, part) order, so the sequential
        // reference is already sorted that way.
        let scenarios = toys();
        let reference: Vec<PartResult> = items
            .iter()
            .map(|item| {
                let scenario = scenarios.iter().find(|s| s.id() == item.scenario_id);
                PartResult::ok(item, run_work_item(&**scenario.unwrap(), item))
            })
            .collect();
        for jobs in [1, 2, 8] {
            let mut threaded = Dispatcher::threads(toys(), jobs)
                .execute(items.clone(), &())
                .unwrap();
            threaded.sort_by(|a, b| (&a.scenario_id, a.part).cmp(&(&b.scenario_id, b.part)));
            assert_eq!(threaded, reference, "jobs={jobs}");
        }
    }

    #[test]
    fn only_the_cancel_constructor_makes_a_cancelled_error() {
        let cancelled = ExecutorError::cancelled(2, 5);
        assert!(cancelled.is_cancelled());
        assert_eq!(
            cancelled.to_string(),
            "job cancelled with 2 of 5 item(s) still pending"
        );
        // The same text from any other source is an ordinary failure.
        let lookalike = ExecutorError::new(cancelled.to_string());
        assert!(!lookalike.is_cancelled());
        assert_ne!(lookalike, cancelled);
    }

    #[test]
    fn local_executor_rejects_unknown_scenarios() {
        let params = ScenarioParams::with_seed(1);
        let stranger = Toy {
            id: "stranger",
            parts: 1,
            keys: None,
        };
        let item = WorkItem::new(&stranger, 0, &params);
        let error = Dispatcher::threads(toys(), 1)
            .execute(vec![item], &())
            .unwrap_err();
        assert_eq!(
            error.to_string(),
            "worker thread failed on stranger#0: scenario 'stranger' is not registered on this worker"
        );
    }

    #[test]
    fn plan_work_items_enumerates_every_part_in_order() {
        let params = ScenarioParams::with_seed(4);
        let planned = plan_work_items(&toys(), &params);
        let shape: Vec<(usize, &str, usize)> = planned
            .iter()
            .map(|(idx, item)| (*idx, item.scenario_id.as_str(), item.part))
            .collect();
        assert_eq!(
            shape,
            vec![
                (0, "t1", 0),
                (0, "t1", 1),
                (0, "t1", 2),
                (1, "t2", 0),
                (1, "t2", 1)
            ]
        );
    }

    #[test]
    #[should_panic(expected = "appears twice")]
    fn duplicate_ids_in_one_run_are_rejected() {
        let twins: Vec<Arc<dyn Scenario>> = vec![
            Arc::new(Toy {
                id: "twin",
                parts: 1,
                keys: None,
            }),
            Arc::new(Toy {
                id: "twin",
                parts: 1,
                keys: None,
            }),
        ];
        index_by_id(&twins);
    }

    #[test]
    fn process_executor_fails_cleanly_when_the_worker_cannot_spawn() {
        let params = ScenarioParams::with_seed(1);
        let scenario = Toy {
            id: "t1",
            parts: 1,
            keys: None,
        };
        let item = WorkItem::new(&scenario, 0, &params);
        let command = WorkerCommand::new("/nonexistent/onionbots-worker-binary");
        let error = Dispatcher::processes(command, 1)
            .execute(vec![item], &())
            .unwrap_err();
        assert!(error.to_string().contains("cannot spawn worker"), "{error}");
    }
}
