//! The experiment [`Runner`]: plans *(scenario, part)* work items,
//! resolves them against the result cache, and hands the misses to a
//! pluggable execution [`Backend`].
//!
//! The unit of scheduling is a [`WorkItem`] — *(scenario id, part,
//! derived part seed, scale, scoped overrides)*, see [`crate::executor`]
//! — so independent series inside one scenario (the `k = 5/10/15`
//! variants of Figure 4, the fifteen sizes of Figure 6, ...) parallelize
//! just like independent scenarios do. Every part draws its RNG from
//! [`part_seed`](crate::scenario_api::part_seed) and results are merged
//! in part order, which makes a [`RunSummary`] — including its JSON
//! rendering — byte-identical for any worker count *and any backend*.
//!
//! The cache-aware path sits entirely above the backend: with
//! [`Runner::with_cache`] every planned item is first resolved against
//! the [`ResultCache`] by its fingerprint (which is the work item's
//! identity), hits are replayed from disk, and only the misses are
//! dispatched — to in-process worker threads ([`Backend::Local`]),
//! worker subprocesses ([`Backend::Process`]) or worker hosts
//! ([`Backend::Remote`]), all three through one [`Dispatcher`], or to
//! any custom [`Executor`] ([`Backend::Custom`]). Workers report per-item
//! status; the parent aggregates the [`CacheStats`] and prints the
//! single stderr summary.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::cache::{CacheLookup, CacheStats, PartFingerprint, ResultCache};
use crate::dispatch::{Dispatcher, WorkerCommand, DEFAULT_ITEM_DEADLINE_MS};
use crate::executor::{
    index_by_id, plan_work_items, Executor, ExecutorError, PartResult, WorkItem,
};
use crate::experiment::ExperimentReport;
use crate::scenario_api::{merge_reports, part_count, Scenario, ScenarioParams};

/// All reports produced by one scenario in a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioOutcome {
    /// The scenario's id.
    pub scenario_id: String,
    /// The scenario's title.
    pub title: String,
    /// Number of parts the scenario was split into.
    pub parts: usize,
    /// Merged reports, in the order the scenario produced them.
    pub reports: Vec<ExperimentReport>,
}

/// The deterministic result of a [`Runner`] invocation.
///
/// Contains no timing data on purpose: two runs with the same params and
/// scenario set serialize to byte-identical JSON regardless of `jobs` or
/// the execution backend. Wall-clock measurement is the caller's concern.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSummary {
    /// The parameters every scenario ran with.
    pub params: ScenarioParams,
    /// One outcome per executed scenario, in selection order.
    pub outcomes: Vec<ScenarioOutcome>,
}

impl RunSummary {
    /// Serializes the summary as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("summary serializes")
    }

    /// Total number of reports across all outcomes.
    pub fn report_count(&self) -> usize {
        self.outcomes.iter().map(|o| o.reports.len()).sum()
    }
}

/// Lifecycle state of one *(scenario, part)* work item as a run
/// progresses, streamed to a [`RunObserver`].
///
/// The happy paths are `Queued → Started → Finished` for an executed part
/// and a single `CacheHit` for a replayed one. `Started` may repeat
/// without an intervening terminal state when a backend re-queues an item
/// (e.g. after a worker death), and `Error` carries the per-item message a
/// backend reported. Events are informational: the run's returned
/// [`RunSummary`] (or error) stays the single source of truth.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PartState {
    /// The part missed the cache and was queued for execution.
    Queued,
    /// The part was served from the result cache without executing.
    CacheHit,
    /// A backend worker began executing the part.
    Started,
    /// The part's result landed successfully.
    Finished,
    /// The backend reported a per-item error for the part.
    Error(String),
}

/// One part lifecycle transition, as reported to a [`RunObserver`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartEvent {
    /// The scenario the part belongs to.
    pub scenario_id: String,
    /// The part index within the scenario.
    pub part: usize,
    /// The part's content address (the work-item identity).
    pub fingerprint: String,
    /// The state the part transitioned into.
    pub state: PartState,
}

impl PartEvent {
    pub(crate) fn for_item(item: &WorkItem, state: PartState) -> Self {
        PartEvent {
            scenario_id: item.scenario_id.clone(),
            part: item.part,
            fingerprint: item.fingerprint.clone(),
            state,
        }
    }

    pub(crate) fn for_result(result: &PartResult) -> Self {
        PartEvent {
            scenario_id: result.scenario_id.clone(),
            part: result.part,
            fingerprint: result.fingerprint.clone(),
            state: match &result.error {
                None => PartState::Finished,
                Some(message) => PartState::Error(message.clone()),
            },
        }
    }
}

/// Receives [`PartEvent`]s while a [`Runner`] executes — the streaming
/// hook the simulation service daemon uses to forward per-part progress
/// to its clients as results land — and carries the run's one control
/// signal, [`cancelled`](Self::cancelled).
///
/// Implementations must be `Sync`: events are delivered concurrently from
/// the executing backend's worker threads. The no-op observer `&()` is
/// what a caller without a progress display passes to
/// [`Runner::try_run_observed`].
pub trait RunObserver: Sync {
    /// Called once per part lifecycle transition, in completion order.
    fn part_event(&self, event: PartEvent);

    /// Whether the caller wants the run stopped at the next item
    /// boundary. The runner checks it before dispatch and after the
    /// backend returns; the backends poll it each time they are about to
    /// take the next item (see [`Executor`]).
    fn cancelled(&self) -> bool {
        false
    }
}

/// The no-op observer, for callers that need no progress events.
impl RunObserver for () {
    fn part_event(&self, _event: PartEvent) {}
}

/// Which execution backend a [`Runner`] dispatches its work items to.
#[derive(Clone, Default)]
pub enum Backend {
    /// In-process worker threads, speaking the [`crate::wire`] frames
    /// over socket pairs ([`Dispatcher::threads`]; the default).
    #[default]
    Local,
    /// Worker subprocesses launched from this command, speaking the
    /// [`crate::wire`] frames over their stdio
    /// ([`Dispatcher::processes`]).
    Process(WorkerCommand),
    /// A fleet of `serve-worker` hosts at these socket addresses,
    /// speaking the same frames over TCP ([`Dispatcher::hosts`]).
    Remote(Vec<String>),
    /// Any user-provided executor (e.g. a remote/multi-host backend that
    /// speaks the same protocol over a different transport).
    Custom(Arc<dyn Executor>),
}

impl std::fmt::Debug for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Backend::Local => f.write_str("Local"),
            Backend::Process(command) => f.debug_tuple("Process").field(command).finish(),
            Backend::Remote(workers) => f.debug_tuple("Remote").field(workers).finish(),
            Backend::Custom(_) => f.write_str("Custom(..)"),
        }
    }
}

/// How many threads each in-flight work item may use for its intra-item
/// graph sweeps (the [`WorkItem::threads`] hint).
///
/// The budget composes with `--jobs` instead of multiplying against it:
/// [`Auto`](ThreadsPerItem::Auto) divides the machine's cores by the
/// number of concurrently executing items, so `jobs × threads-per-item ≈
/// cores` and two layers of parallelism never oversubscribe the host.
/// The hint can never change output bytes — the BFS kernel is
/// deterministic at any thread count — so any setting is safe; it is
/// purely a throughput knob.
///
/// It is also the wire form of a job's `threads_per_item` field
/// ([`crate::service::JobSpec`]): `"Auto"` or `{"Fixed":N}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ThreadsPerItem {
    /// Split the machine evenly: `max(1, cores / min(jobs, pending
    /// items))` threads per item.
    Auto,
    /// A fixed number of threads per item (clamped to at least 1).
    Fixed(usize),
}

impl Default for ThreadsPerItem {
    /// One thread per item: intra-item work stays sequential.
    fn default() -> Self {
        ThreadsPerItem::Fixed(1)
    }
}

impl ThreadsPerItem {
    /// Resolves the policy to a concrete per-item thread count for a
    /// batch of `pending` items executed by up to `jobs` workers.
    pub fn resolve(self, jobs: usize, pending: usize) -> usize {
        match self {
            ThreadsPerItem::Fixed(threads) => threads.max(1),
            ThreadsPerItem::Auto => {
                let cores =
                    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
                let in_flight = jobs.max(1).min(pending.max(1));
                (cores / in_flight).max(1)
            }
        }
    }
}

/// Executes a selected set of scenarios, optionally in parallel,
/// optionally backed by a [`ResultCache`], on a pluggable [`Backend`].
#[derive(Debug, Clone)]
pub struct Runner {
    params: ScenarioParams,
    jobs: usize,
    cache: Option<ResultCache>,
    refresh: bool,
    backend: Backend,
    threads_per_item: ThreadsPerItem,
    item_deadline_ms: u64,
}

impl Runner {
    /// Creates a single-threaded, uncached runner on the local backend.
    pub fn new(params: ScenarioParams) -> Self {
        Runner {
            params,
            jobs: 1,
            cache: None,
            refresh: false,
            backend: Backend::Local,
            threads_per_item: ThreadsPerItem::default(),
            item_deadline_ms: DEFAULT_ITEM_DEADLINE_MS,
        }
    }

    /// Sets the number of workers — worker threads for
    /// [`Backend::Local`], subprocesses for [`Backend::Process`] (clamped
    /// to at least 1).
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Attaches a result cache: valid entries are replayed instead of
    /// executed, fresh results are stored back.
    pub fn with_cache(mut self, cache: ResultCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// With `refresh` set, existing cache entries are bypassed (counted as
    /// invalidated) and overwritten with freshly executed results.
    pub fn refresh(mut self, refresh: bool) -> Self {
        self.refresh = refresh;
        self
    }

    /// Selects the execution backend (default: [`Backend::Local`]).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Sets the intra-item thread budget policy (default:
    /// `ThreadsPerItem::Fixed(1)`, sequential items). The
    /// resolved count is stamped onto every dispatched [`WorkItem`], and
    /// every backend scopes it around the item's execution (in
    /// [`run_work_item`](crate::executor::run_work_item)). Output bytes
    /// are identical for any setting.
    pub fn threads_per_item(mut self, threads: ThreadsPerItem) -> Self {
        self.threads_per_item = threads;
        self
    }

    /// Overrides the per-item reply deadline (milliseconds) of the
    /// out-of-process backends, [`Backend::Process`] and
    /// [`Backend::Remote`]; see [`Dispatcher::deadline_millis`]. Has no
    /// effect on the other backends: a local worker thread cannot be
    /// killed, so [`Backend::Local`] waits without a deadline.
    pub fn item_deadline_ms(mut self, millis: u64) -> Self {
        self.item_deadline_ms = millis;
        self
    }

    /// Runs the scenarios and returns their deterministic summary plus the
    /// cache counters (`None` when no cache is attached): the one
    /// plan → cache → dispatch → validate → merge pipeline.
    ///
    /// Work items are planned in `(scenario, part)` order, resolved
    /// against the cache, dispatched to the backend, and reassembled in
    /// `(scenario, part)` order before merging — so neither scheduling
    /// order, cache hits nor the backend leak into the output. Every part
    /// reports `Queued`/`CacheHit` to `observer` during the cache pass and
    /// `Started`/`Finished`/`Error` live from the backend as it executes;
    /// the one-shot CLI attaches the no-op observer `&()`, the simulation
    /// service daemon forwards events to its clients, and the observer can
    /// never change output bytes. When a cache is attached the counters
    /// are also reported on stderr — by this parent process only, never by
    /// a worker — as are store failures: a cache that stops being writable
    /// mid-run degrades to a warning, never a failed run.
    ///
    /// Once [`RunObserver::cancelled`] reads `true`, no further item
    /// starts, in-flight items finish, and the run fails with an
    /// [`ExecutorError`] whose [`is_cancelled`](ExecutorError::is_cancelled)
    /// reads `true`. Because fresh results are only
    /// written back after the *whole* dispatch succeeds, a cancelled run
    /// never leaves partial state in the cache. A cancel raised while the
    /// last items were in flight cancels the run too, though every item
    /// finished: the cancel was acknowledged, so nothing is stored.
    ///
    /// # Errors
    /// Returns the [`ExecutorError`] when the backend cannot complete the
    /// batch (worker binary missing, an item that keeps killing workers,
    /// a scenario unknown to the executor, ...).
    pub fn try_run_observed(
        &self,
        scenarios: &[Arc<dyn Scenario>],
        observer: &dyn RunObserver,
    ) -> Result<(RunSummary, Option<CacheStats>), ExecutorError> {
        let by_id = index_by_id(scenarios);
        let part_counts: Vec<usize> = scenarios
            .iter()
            .map(|s| part_count(&**s, &self.params))
            .collect();
        let work = plan_work_items(scenarios, &self.params);

        // Cache pass: resolve every work item to either a replayed result
        // or a pending execution. The item's identity *is* the cache
        // fingerprint, so no separate fingerprinting step exists anymore.
        let mut stats = self.cache.as_ref().map(|_| CacheStats::default());
        let mut cached: Vec<(usize, usize, Vec<ExperimentReport>)> = Vec::new();
        let mut pending: Vec<WorkItem> = Vec::new();
        match (&self.cache, stats.as_mut()) {
            (Some(cache), Some(stats)) => {
                for (scenario_idx, item) in work {
                    let fp = item.part_fingerprint();
                    if self.refresh {
                        if cache.contains(&fp) {
                            stats.invalidated += 1;
                        } else {
                            stats.misses += 1;
                        }
                    } else {
                        match cache.lookup(&fp) {
                            CacheLookup::Hit(reports) => {
                                stats.hits += 1;
                                observer
                                    .part_event(PartEvent::for_item(&item, PartState::CacheHit));
                                cached.push((scenario_idx, item.part, reports));
                                continue;
                            }
                            CacheLookup::Miss => stats.misses += 1,
                            CacheLookup::Invalid => stats.invalidated += 1,
                        }
                    }
                    observer.part_event(PartEvent::for_item(&item, PartState::Queued));
                    pending.push(item);
                }
            }
            _ => {
                pending = work.into_iter().map(|(_, item)| item).collect();
                for item in &pending {
                    observer.part_event(PartEvent::for_item(item, PartState::Queued));
                }
            }
        }

        // The fingerprint is unique per item (distinct (scenario, part)
        // pairs hash differently), so it doubles as the completeness
        // ledger for the backend's answers; the (scenario, part) echo is
        // remembered alongside it so a mislabeled result cannot slip
        // through on a valid fingerprint.
        let mut awaited: std::collections::BTreeMap<String, (String, usize)> = pending
            .iter()
            .map(|item| {
                (
                    item.fingerprint.clone(),
                    (item.scenario_id.clone(), item.part),
                )
            })
            .collect();
        let executed = self.dispatch(scenarios, pending, observer)?;

        // Trust but verify: built-in backends fail fast on per-item
        // errors, but a Backend::Custom is free to return failed, foreign,
        // mislabeled, duplicate or missing results — none of which may
        // reach the cache or silently corrupt the summary.
        for result in &executed {
            if let Some(error) = &result.error {
                return Err(ExecutorError::new(format!(
                    "backend reported a failed item {}#{}: {error}",
                    result.scenario_id, result.part
                )));
            }
            match awaited.remove(&result.fingerprint) {
                Some((scenario_id, part))
                    if scenario_id == result.scenario_id && part == result.part => {}
                Some((scenario_id, part)) => {
                    return Err(ExecutorError::new(format!(
                        "backend mislabeled the result for {scenario_id}#{part} as {}#{}",
                        result.scenario_id, result.part
                    )));
                }
                None => {
                    return Err(ExecutorError::new(format!(
                        "backend returned an unexpected or duplicate result for {}#{}",
                        result.scenario_id, result.part
                    )));
                }
            }
        }
        if !awaited.is_empty() {
            return Err(ExecutorError::new(format!(
                "backend dropped {} work item(s) without a result",
                awaited.len()
            )));
        }

        // Write fresh results back under the identity each result echoes;
        // the backend returns results in completion order, which is fine
        // because the fingerprint travels with them.
        if let (Some(cache), Some(stats)) = (&self.cache, stats.as_mut()) {
            let mut first_error: Option<std::io::Error> = None;
            for result in &executed {
                let fp = PartFingerprint::from_parts(
                    &result.scenario_id,
                    result.part,
                    &result.fingerprint,
                );
                match cache.store(&fp, &result.reports) {
                    Ok(()) => stats.stored += 1,
                    Err(e) => {
                        stats.store_failures += 1;
                        first_error.get_or_insert(e);
                    }
                }
            }
            if let Some(e) = first_error {
                eprintln!(
                    "warning: {} cache write(s) failed ({e}); results were computed but not cached",
                    stats.store_failures
                );
            }
            eprintln!("cache: {stats}");
        }

        let mut results = cached;
        for result in executed {
            let scenario_idx = *by_id
                .get(&result.scenario_id)
                .expect("executors only return results for submitted items");
            results.push((scenario_idx, result.part, result.reports));
        }
        results.sort_by_key(|&(scenario_idx, part, _)| (scenario_idx, part));
        let mut outcomes: Vec<ScenarioOutcome> = scenarios
            .iter()
            .zip(&part_counts)
            .map(|(s, &parts)| ScenarioOutcome {
                scenario_id: s.id().to_string(),
                title: s.title().to_string(),
                parts,
                reports: Vec::new(),
            })
            .collect();
        for (scenario_idx, _part, reports) in results {
            merge_reports(&mut outcomes[scenario_idx].reports, reports);
        }
        Ok((
            RunSummary {
                params: self.params.clone(),
                outcomes,
            },
            stats,
        ))
    }

    /// How many items the backend runs at once: one per listed host
    /// channel on [`Backend::Remote`], which ignores `jobs`, and `jobs`
    /// on every other backend.
    fn slots(&self) -> usize {
        match &self.backend {
            Backend::Remote(workers) => workers.len(),
            _ => self.jobs,
        }
    }

    /// Hands the pending items to the configured backend as one batch,
    /// stamping the per-item thread budget, resolved against the
    /// backend's [`slots`](Self::slots), onto every item first.
    /// A cancel raised before dispatch fails the run without starting the
    /// backend; one raised mid-run stops the backend at its next item
    /// boundary, and the run fails whenever the observer reads cancelled
    /// once the backend returns, also if every item has its result.
    fn dispatch(
        &self,
        scenarios: &[Arc<dyn Scenario>],
        mut pending: Vec<WorkItem>,
        observer: &dyn RunObserver,
    ) -> Result<Vec<PartResult>, ExecutorError> {
        if pending.is_empty() {
            return Ok(Vec::new());
        }
        let total = pending.len();
        if observer.cancelled() {
            return Err(ExecutorError::cancelled(total, total));
        }
        let threads = self.threads_per_item.resolve(self.slots(), total);
        for item in &mut pending {
            item.threads = threads;
        }
        let executed = match &self.backend {
            Backend::Local => {
                Dispatcher::threads(scenarios.to_vec(), self.jobs).execute(pending, observer)
            }
            Backend::Process(command) => Dispatcher::processes(command.clone(), self.jobs)
                .deadline_millis(self.item_deadline_ms)
                .execute(pending, observer),
            Backend::Remote(workers) => Dispatcher::hosts(workers.clone())
                .deadline_millis(self.item_deadline_ms)
                .execute(pending, observer),
            Backend::Custom(executor) => executor.execute(pending, observer),
        }?;
        if observer.cancelled() {
            return Err(ExecutorError::cancelled(total - executed.len(), total));
        }
        Ok(executed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Series;
    use rand::rngs::StdRng;
    use rand::Rng;
    use std::sync::atomic::{AtomicBool, Ordering};

    /// A scenario with configurable part count and artificial skew so
    /// parallel completion order differs from part order.
    struct Skewed {
        id: &'static str,
        parts: usize,
    }

    impl Scenario for Skewed {
        fn id(&self) -> &str {
            self.id
        }
        fn title(&self) -> &str {
            "skewed toy scenario"
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
            // Early parts sleep longest, so with >1 worker the completion
            // order is roughly reversed relative to part order.
            // detlint: allow(D002) reason="test-only skew: forces completion order != part order to prove merging is order-independent; duration never reaches any report"
            std::thread::sleep(std::time::Duration::from_millis(
                (self.parts - part) as u64 * 3,
            ));
            let mut r = ExperimentReport::new(self.id, "skewed", "part", "value");
            r.push_series(Series::new(
                "trace",
                vec![part as f64],
                vec![rng.gen_range(0.0f64..1.0)],
            ));
            vec![r]
        }
    }

    fn scenarios() -> Vec<Arc<dyn Scenario>> {
        vec![
            Arc::new(Skewed { id: "s1", parts: 4 }),
            Arc::new(Skewed { id: "s2", parts: 2 }),
            Arc::new(Skewed { id: "s3", parts: 1 }),
        ]
    }

    #[test]
    fn parallel_runs_match_sequential_runs_byte_for_byte() {
        let params = ScenarioParams::with_seed(42);
        let sequential = Runner::new(params.clone())
            .try_run_observed(&scenarios(), &())
            .unwrap()
            .0;
        let parallel = Runner::new(params)
            .jobs(8)
            .try_run_observed(&scenarios(), &())
            .unwrap()
            .0;
        assert_eq!(sequential, parallel);
        assert_eq!(sequential.to_json(), parallel.to_json());
    }

    #[test]
    fn outcomes_follow_selection_order_and_merge_parts_in_order() {
        let summary = Runner::new(ScenarioParams::with_seed(7))
            .jobs(4)
            .try_run_observed(&scenarios(), &())
            .unwrap()
            .0;
        assert_eq!(summary.outcomes.len(), 3);
        assert_eq!(summary.outcomes[0].scenario_id, "s1");
        assert_eq!(summary.outcomes[0].parts, 4);
        let series = &summary.outcomes[0].reports[0].series[0];
        assert_eq!(series.x, vec![0.0, 1.0, 2.0, 3.0], "parts merged in order");
        assert_eq!(summary.report_count(), 3);
    }

    #[test]
    fn different_seeds_change_results() {
        let a = Runner::new(ScenarioParams::with_seed(1))
            .try_run_observed(&scenarios(), &())
            .unwrap()
            .0;
        let b = Runner::new(ScenarioParams::with_seed(2))
            .try_run_observed(&scenarios(), &())
            .unwrap()
            .0;
        assert_ne!(a, b);
    }

    #[test]
    fn summary_json_roundtrips() {
        let summary = Runner::new(ScenarioParams::with_seed(3))
            .try_run_observed(&scenarios(), &())
            .unwrap()
            .0;
        let restored: RunSummary = serde_json::from_str(&summary.to_json()).unwrap();
        assert_eq!(restored, summary);
    }

    #[test]
    fn custom_backend_receives_only_the_planned_items() {
        use crate::executor::run_work_item;

        /// An executor that records how many items it saw and runs them
        /// in-process.
        struct Recording {
            scenarios: Vec<Arc<dyn Scenario>>,
            seen: std::sync::Mutex<usize>,
        }

        impl Executor for Recording {
            fn execute(
                &self,
                items: Vec<WorkItem>,
                _observer: &dyn RunObserver,
            ) -> Result<Vec<PartResult>, ExecutorError> {
                *self.seen.lock().unwrap() += items.len();
                Ok(items
                    .into_iter()
                    .map(|item| {
                        let scenario = self
                            .scenarios
                            .iter()
                            .find(|s| s.id() == item.scenario_id)
                            .expect("known scenario");
                        let reports = run_work_item(&**scenario, &item);
                        PartResult::ok(&item, reports)
                    })
                    .collect())
            }
        }

        let recording = Arc::new(Recording {
            scenarios: scenarios(),
            seen: std::sync::Mutex::new(0),
        });
        let params = ScenarioParams::with_seed(42);
        let reference = Runner::new(params.clone())
            .try_run_observed(&scenarios(), &())
            .unwrap()
            .0;
        let custom = Runner::new(params)
            .backend(Backend::Custom(recording.clone()))
            .try_run_observed(&scenarios(), &())
            .unwrap()
            .0;
        assert_eq!(custom.to_json(), reference.to_json());
        assert_eq!(*recording.seen.lock().unwrap(), 7, "4 + 2 + 1 parts");
    }

    #[test]
    fn threads_per_item_stamps_dispatched_items_and_never_changes_output() {
        use crate::executor::run_work_item;

        /// Runs items in-process while recording the thread hints it saw.
        struct RecordingThreads {
            scenarios: Vec<Arc<dyn Scenario>>,
            hints: std::sync::Mutex<Vec<usize>>,
        }

        impl Executor for RecordingThreads {
            fn execute(
                &self,
                items: Vec<WorkItem>,
                _observer: &dyn RunObserver,
            ) -> Result<Vec<PartResult>, ExecutorError> {
                let mut hints = self.hints.lock().unwrap();
                Ok(items
                    .into_iter()
                    .map(|item| {
                        hints.push(item.threads);
                        let scenario = self
                            .scenarios
                            .iter()
                            .find(|s| s.id() == item.scenario_id)
                            .expect("known scenario");
                        PartResult::ok(&item, run_work_item(&**scenario, &item))
                    })
                    .collect())
            }
        }

        let params = ScenarioParams::with_seed(42);
        let reference = Runner::new(params.clone())
            .try_run_observed(&scenarios(), &())
            .unwrap()
            .0;
        for policy in [
            ThreadsPerItem::Fixed(1),
            ThreadsPerItem::Fixed(3),
            ThreadsPerItem::Auto,
        ] {
            let recording = Arc::new(RecordingThreads {
                scenarios: scenarios(),
                hints: std::sync::Mutex::new(Vec::new()),
            });
            let summary = Runner::new(params.clone())
                .jobs(2)
                .threads_per_item(policy)
                .backend(Backend::Custom(recording.clone()))
                .try_run_observed(&scenarios(), &())
                .unwrap()
                .0;
            assert_eq!(
                summary.to_json(),
                reference.to_json(),
                "{policy:?}: the hint must never change output bytes"
            );
            let hints = recording.hints.lock().unwrap();
            let expected = policy.resolve(2, hints.len());
            assert_eq!(hints.len(), 7, "4 + 2 + 1 parts");
            assert!(
                hints.iter().all(|&h| h == expected),
                "{policy:?}: hints {hints:?} != resolved {expected}"
            );
        }
    }

    #[test]
    fn threads_per_item_resolution_is_bounded_and_sane() {
        assert_eq!(ThreadsPerItem::Fixed(1).resolve(8, 100), 1);
        assert_eq!(ThreadsPerItem::Fixed(4).resolve(8, 100), 4);
        assert_eq!(ThreadsPerItem::Fixed(0).resolve(1, 1), 1, "clamped");
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        assert_eq!(
            ThreadsPerItem::Auto.resolve(1, 1),
            cores,
            "one in-flight item gets it all"
        );
        assert_eq!(
            ThreadsPerItem::Auto.resolve(cores * 4, 1000),
            1,
            "oversubscribed jobs leave one thread per item"
        );
        assert_eq!(
            ThreadsPerItem::Auto.resolve(0, 0),
            cores,
            "degenerate inputs are clamped, not panics"
        );
        assert_eq!(ThreadsPerItem::default(), ThreadsPerItem::Fixed(1));
    }

    #[test]
    fn threads_per_item_resolves_against_the_slots_the_backend_opens() {
        let runner = |jobs: usize, backend: Backend| {
            Runner::new(ScenarioParams::with_seed(1))
                .jobs(jobs)
                .backend(backend)
        };
        // The remote backend opens one channel per listed host and
        // ignores `jobs`: two channels at `--jobs 1` share the cores.
        let hosts = Backend::Remote(vec!["127.0.0.1:1".to_string(); 2]);
        assert_eq!(runner(1, hosts.clone()).slots(), 2);
        assert_eq!(runner(8, hosts).slots(), 2);
        assert_eq!(runner(3, Backend::Local).slots(), 3);
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let remote = runner(1, Backend::Remote(vec!["127.0.0.1:1".to_string(); cores]));
        assert_eq!(ThreadsPerItem::Auto.resolve(remote.slots(), 100), 1);
    }

    #[test]
    fn misbehaving_custom_backends_cannot_poison_the_summary_or_cache() {
        use crate::executor::run_work_item;

        #[derive(Clone, Copy, PartialEq)]
        enum Misbehavior {
            FailFirst,
            DropLast,
            MislabelFirst,
        }

        /// A custom backend that executes correctly except for one
        /// configured misbehavior.
        struct Lossy {
            scenarios: Vec<Arc<dyn Scenario>>,
            mode: Misbehavior,
        }

        impl Executor for Lossy {
            fn execute(
                &self,
                mut items: Vec<WorkItem>,
                _observer: &dyn RunObserver,
            ) -> Result<Vec<PartResult>, ExecutorError> {
                match self.mode {
                    Misbehavior::FailFirst => {
                        let first = items.remove(0);
                        let mut results = vec![PartResult::failed(&first, "simulated oom")];
                        results.extend(items.iter().map(|item| self.run(item)));
                        Ok(results)
                    }
                    Misbehavior::DropLast => {
                        items.pop();
                        Ok(items.iter().map(|item| self.run(item)).collect())
                    }
                    Misbehavior::MislabelFirst => {
                        // Correct reports and a genuine fingerprint, but
                        // the identity echo points at another scenario.
                        let mut results: Vec<PartResult> =
                            items.iter().map(|item| self.run(item)).collect();
                        results[0].scenario_id = items[1].scenario_id.clone();
                        results[0].part = items[1].part;
                        Ok(results)
                    }
                }
            }
        }

        impl Lossy {
            fn run(&self, item: &WorkItem) -> PartResult {
                let scenario = self
                    .scenarios
                    .iter()
                    .find(|s| s.id() == item.scenario_id)
                    .expect("known scenario");
                PartResult::ok(item, run_work_item(&**scenario, item))
            }
        }

        let (cache, dir) = temp_cache("lossy");
        let params = ScenarioParams::with_seed(5);
        for (mode, expected) in [
            (Misbehavior::FailFirst, "simulated oom"),
            (Misbehavior::DropLast, "dropped 1 work item"),
            (Misbehavior::MislabelFirst, "mislabeled the result"),
        ] {
            let backend = Backend::Custom(Arc::new(Lossy {
                scenarios: scenarios(),
                mode,
            }));
            let error = Runner::new(params.clone())
                .backend(backend)
                .with_cache(cache.clone())
                .try_run_observed(&scenarios(), &())
                .unwrap_err();
            let message = error.to_string();
            assert!(message.contains(expected), "{message}");
        }
        // Nothing was stored: the next cached run misses everywhere
        // instead of replaying a poisoned (empty or partial) entry.
        let (_, stats) = Runner::new(params)
            .with_cache(cache)
            .try_run_observed(&scenarios(), &())
            .unwrap();
        let stats = stats.unwrap();
        assert_eq!(stats.hits, 0, "no entry from a failed run may survive");
        assert_eq!(stats.misses, 7);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failing_backend_surfaces_as_an_error_not_a_hang() {
        struct Broken;
        impl Executor for Broken {
            fn execute(
                &self,
                _items: Vec<WorkItem>,
                _observer: &dyn RunObserver,
            ) -> Result<Vec<PartResult>, ExecutorError> {
                Err(ExecutorError::new("backend exploded"))
            }
        }
        let error = Runner::new(ScenarioParams::with_seed(1))
            .backend(Backend::Custom(Arc::new(Broken)))
            .try_run_observed(&scenarios(), &())
            .unwrap_err();
        assert_eq!(error.to_string(), "backend exploded");
    }

    #[test]
    fn a_panicking_part_fails_a_local_run_with_an_error_naming_it() {
        struct Infeasible;
        impl Scenario for Infeasible {
            fn id(&self) -> &str {
                "infeasible"
            }
            fn title(&self) -> &str {
                "part 1 panics"
            }
            fn parts(&self, _params: &ScenarioParams) -> usize {
                3
            }
            fn run_part(
                &self,
                part: usize,
                params: &ScenarioParams,
                rng: &mut StdRng,
            ) -> Vec<ExperimentReport> {
                if part == 1 {
                    panic!("part {part} has no feasible grid");
                }
                Skewed { id: "s", parts: 3 }.run_part(part, params, rng)
            }
        }
        let all: Vec<Arc<dyn Scenario>> = vec![Arc::new(Infeasible)];
        for jobs in [1usize, 2] {
            let error = Runner::new(ScenarioParams::with_seed(1))
                .jobs(jobs)
                .try_run_observed(&all, &())
                .unwrap_err();
            assert_eq!(
                error.to_string(),
                "worker thread failed on infeasible#1: panicked: part 1 has no feasible grid",
                "jobs={jobs}"
            );
        }
    }

    fn temp_cache(tag: &str) -> (ResultCache, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "sim-runner-cache-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        (ResultCache::open(&dir).unwrap(), dir)
    }

    #[test]
    fn warm_cache_run_executes_nothing_and_matches_cold_run_byte_for_byte() {
        let (cache, dir) = temp_cache("warm");
        let params = ScenarioParams::with_seed(42);
        let uncached = Runner::new(params.clone())
            .try_run_observed(&scenarios(), &())
            .unwrap()
            .0;
        let (cold, cold_stats) = Runner::new(params.clone())
            .with_cache(cache.clone())
            .try_run_observed(&scenarios(), &())
            .unwrap();
        let cold_stats = cold_stats.unwrap();
        assert_eq!(cold_stats.misses, 7, "4 + 2 + 1 parts all miss");
        assert_eq!(cold_stats.hits, 0);
        assert_eq!(cold_stats.stored, 7);
        assert_eq!(
            cold.to_json(),
            uncached.to_json(),
            "a cold cached run must not change the summary"
        );
        for jobs in [1, 8] {
            let (warm, warm_stats) = Runner::new(params.clone())
                .jobs(jobs)
                .with_cache(cache.clone())
                .try_run_observed(&scenarios(), &())
                .unwrap();
            let warm_stats = warm_stats.unwrap();
            assert!(warm_stats.all_hits(), "jobs={jobs}: {warm_stats:?}");
            assert_eq!(warm_stats.hits, 7);
            assert_eq!(
                warm.to_json(),
                cold.to_json(),
                "jobs={jobs}: warm summary must be byte-identical"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn changed_seed_and_overrides_invalidate_the_affected_parts() {
        let (cache, dir) = temp_cache("invalidate");
        let params = ScenarioParams::with_seed(1);
        let runner = |p: ScenarioParams| Runner::new(p).with_cache(cache.clone());
        runner(params.clone())
            .try_run_observed(&scenarios(), &())
            .unwrap();
        // A different seed misses everywhere (part seeds derive from it).
        let (_, stats) = runner(ScenarioParams::with_seed(2))
            .try_run_observed(&scenarios(), &())
            .unwrap();
        let stats = stats.unwrap();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 7);
        // Toggling full_scale misses everywhere too.
        let mut full = params.clone();
        full.full_scale = true;
        let (_, stats) = runner(full).try_run_observed(&scenarios(), &()).unwrap();
        assert_eq!(stats.unwrap().hits, 0);
        // An override misses everywhere for scenarios with undeclared keys
        // (the conservative default fingerprints every override).
        let with_override = params.clone().with_override("n", "5");
        let (_, stats) = runner(with_override.clone())
            .try_run_observed(&scenarios(), &())
            .unwrap();
        assert_eq!(stats.unwrap().hits, 0);
        // ... and each parameterization stays warm independently.
        let (_, stats) = runner(params).try_run_observed(&scenarios(), &()).unwrap();
        assert!(stats.unwrap().all_hits());
        let (_, stats) = runner(with_override)
            .try_run_observed(&scenarios(), &())
            .unwrap();
        assert!(stats.unwrap().all_hits());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn refresh_bypasses_and_overwrites_existing_entries() {
        let (cache, dir) = temp_cache("refresh");
        let params = ScenarioParams::with_seed(9);
        let baseline = Runner::new(params.clone())
            .with_cache(cache.clone())
            .try_run_observed(&scenarios(), &())
            .unwrap()
            .0;
        let (refreshed, stats) = Runner::new(params.clone())
            .with_cache(cache.clone())
            .refresh(true)
            .try_run_observed(&scenarios(), &())
            .unwrap();
        let stats = stats.unwrap();
        assert_eq!(stats.hits, 0, "refresh must not serve cached entries");
        assert_eq!(stats.invalidated, 7, "all existing entries are bypassed");
        assert_eq!(stats.stored, 7, "and overwritten with fresh results");
        assert_eq!(refreshed.to_json(), baseline.to_json());
        // The refreshed entries are valid: a follow-up run is all hits.
        let (_, stats) = Runner::new(params)
            .with_cache(cache)
            .try_run_observed(&scenarios(), &())
            .unwrap();
        assert!(stats.unwrap().all_hits());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An observer whose cancel poll reads a shared token, the way the
    /// daemon's job observer does.
    struct Token(Arc<AtomicBool>);

    impl RunObserver for Token {
        fn part_event(&self, _event: PartEvent) {}
        fn cancelled(&self) -> bool {
            self.0.load(Ordering::SeqCst)
        }
    }

    #[test]
    fn pre_set_cancel_token_aborts_before_any_work_and_stores_nothing() {
        let (cache, dir) = temp_cache("cancel-early");
        let token = Arc::new(AtomicBool::new(true));
        let error = Runner::new(ScenarioParams::with_seed(6))
            .with_cache(cache.clone())
            .try_run_observed(&scenarios(), &Token(token))
            .unwrap_err();
        assert_eq!(
            error.to_string(),
            "job cancelled with 7 of 7 item(s) still pending"
        );
        // Nothing reached the cache: a follow-up run misses everywhere.
        let (_, stats) = Runner::new(ScenarioParams::with_seed(6))
            .with_cache(cache)
            .try_run_observed(&scenarios(), &())
            .unwrap();
        let stats = stats.unwrap();
        assert_eq!(stats.hits, 0, "a cancelled run must not warm the cache");
        assert_eq!(stats.misses, 7);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A custom backend that executes items in order, trips the shared
    /// cancel token once `trip_after` items have run, and honours the
    /// observer's cancel poll before taking each next item — the same
    /// item-boundary contract the built-in backends keep.
    struct CancelAfter {
        scenarios: Vec<Arc<dyn Scenario>>,
        token: Arc<AtomicBool>,
        trip_after: usize,
        executed: std::sync::Mutex<usize>,
    }

    impl Executor for CancelAfter {
        fn execute(
            &self,
            items: Vec<WorkItem>,
            observer: &dyn RunObserver,
        ) -> Result<Vec<PartResult>, ExecutorError> {
            let mut results = Vec::new();
            for item in items {
                if observer.cancelled() {
                    break;
                }
                let scenario = self
                    .scenarios
                    .iter()
                    .find(|s| s.id() == item.scenario_id)
                    .expect("known scenario");
                let reports = crate::executor::run_work_item(&**scenario, &item);
                results.push(PartResult::ok(&item, reports));
                *self.executed.lock().unwrap() += 1;
                if results.len() == self.trip_after {
                    self.token.store(true, Ordering::SeqCst);
                }
            }
            Ok(results)
        }
    }

    #[test]
    fn mid_run_cancel_drains_pending_items_and_poisons_nothing() {
        let (cache, dir) = temp_cache("cancel-mid");
        let token = Arc::new(AtomicBool::new(false));
        let backend = Arc::new(CancelAfter {
            scenarios: scenarios(),
            token: token.clone(),
            trip_after: 2,
            executed: std::sync::Mutex::new(0),
        });
        let error = Runner::new(ScenarioParams::with_seed(6))
            .jobs(2)
            .with_cache(cache.clone())
            .backend(Backend::Custom(backend.clone()))
            .try_run_observed(&scenarios(), &Token(token))
            .unwrap_err();
        assert_eq!(
            error.to_string(),
            "job cancelled with 5 of 7 item(s) still pending"
        );
        assert_eq!(
            *backend.executed.lock().unwrap(),
            2,
            "no item starts after the token trips"
        );
        // Even the *completed* items are discarded: results are stored
        // only after the whole dispatch succeeds, so the cache holds no
        // partial state from the cancelled run.
        let (_, stats) = Runner::new(ScenarioParams::with_seed(6))
            .with_cache(cache)
            .try_run_observed(&scenarios(), &())
            .unwrap();
        let stats = stats.unwrap();
        assert_eq!(stats.hits, 0, "no entry from a cancelled run may survive");
        assert_eq!(stats.misses, 7);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancel_after_the_last_item_still_cancels_the_run() {
        let (cache, dir) = temp_cache("cancel-late");
        let params = ScenarioParams::with_seed(6);
        let token = Arc::new(AtomicBool::new(false));
        let backend = Arc::new(CancelAfter {
            scenarios: scenarios(),
            token: token.clone(),
            trip_after: 7,
            executed: std::sync::Mutex::new(0),
        });
        let error = Runner::new(params.clone())
            .jobs(2)
            .with_cache(cache.clone())
            .backend(Backend::Custom(backend.clone()))
            .try_run_observed(&scenarios(), &Token(token))
            .unwrap_err();
        assert!(error.is_cancelled());
        assert_eq!(
            error.to_string(),
            "job cancelled with 0 of 7 item(s) still pending"
        );
        assert_eq!(*backend.executed.lock().unwrap(), 7, "every item ran");
        let (_, stats) = Runner::new(params)
            .with_cache(cache)
            .try_run_observed(&scenarios(), &())
            .unwrap();
        let stats = stats.unwrap();
        assert_eq!(stats.hits, 0, "a cancelled run stores none of its results");
        assert_eq!(stats.misses, 7);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A one-part scenario whose part trips the cancel token while it
    /// runs, the way a client's cancel lands on a job's last part.
    struct TripsCancel(Arc<AtomicBool>);

    impl Scenario for TripsCancel {
        fn id(&self) -> &str {
            "trips-cancel"
        }
        fn title(&self) -> &str {
            "a part cancelled while it runs"
        }
        fn parts(&self, _params: &ScenarioParams) -> usize {
            1
        }
        fn run_part(
            &self,
            _part: usize,
            _params: &ScenarioParams,
            _rng: &mut StdRng,
        ) -> Vec<ExperimentReport> {
            self.0.store(true, Ordering::SeqCst);
            vec![ExperimentReport::new("trips-cancel", "t", "x", "y")]
        }
    }

    #[test]
    fn a_one_part_job_cancelled_while_its_part_runs_ends_cancelled_and_stores_nothing() {
        let (cache, dir) = temp_cache("cancel-in-flight");
        let token = Arc::new(AtomicBool::new(false));
        let scenarios: Vec<Arc<dyn Scenario>> = vec![Arc::new(TripsCancel(token.clone()))];
        let error = Runner::new(ScenarioParams::with_seed(6))
            .with_cache(cache)
            .try_run_observed(&scenarios, &Token(token))
            .unwrap_err();
        assert!(error.is_cancelled(), "{error}");
        let mut entries = Vec::new();
        let mut dirs = vec![dir.clone()];
        while let Some(d) = dirs.pop() {
            for entry in std::fs::read_dir(d).unwrap() {
                let path = entry.unwrap().path();
                if path.is_dir() {
                    dirs.push(path);
                } else {
                    entries.push(path);
                }
            }
        }
        assert!(entries.is_empty(), "the cache holds {entries:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_cancellable_run_dispatches_to_one_executor_call() {
        /// Counts `execute` calls and runs items on worker threads.
        struct Counting {
            scenarios: Vec<Arc<dyn Scenario>>,
            calls: std::sync::Mutex<usize>,
        }
        impl Executor for Counting {
            fn execute(
                &self,
                items: Vec<WorkItem>,
                observer: &dyn RunObserver,
            ) -> Result<Vec<PartResult>, ExecutorError> {
                *self.calls.lock().unwrap() += 1;
                Dispatcher::threads(self.scenarios.clone(), 2).execute(items, observer)
            }
        }

        let backend = Arc::new(Counting {
            scenarios: scenarios(),
            calls: std::sync::Mutex::new(0),
        });
        let params = ScenarioParams::with_seed(42);
        let summary = Runner::new(params.clone())
            .jobs(2)
            .backend(Backend::Custom(backend.clone()))
            .try_run_observed(&scenarios(), &Token(Arc::new(AtomicBool::new(false))))
            .unwrap()
            .0;
        assert_eq!(
            *backend.calls.lock().unwrap(),
            1,
            "all 7 items go to one executor call"
        );
        assert_eq!(
            summary.to_json(),
            Runner::new(params)
                .try_run_observed(&scenarios(), &())
                .unwrap()
                .0
                .to_json()
        );
    }

    #[test]
    fn unset_cancel_token_changes_nothing_about_the_run() {
        let params = ScenarioParams::with_seed(42);
        let reference = Runner::new(params.clone())
            .try_run_observed(&scenarios(), &())
            .unwrap()
            .0;
        let cancellable = Runner::new(params)
            .jobs(2)
            .try_run_observed(&scenarios(), &Token(Arc::new(AtomicBool::new(false))))
            .unwrap()
            .0;
        assert_eq!(
            cancellable.to_json(),
            reference.to_json(),
            "a cancellable run must be byte-identical to a plain one"
        );
    }

    #[test]
    fn cache_that_vanishes_mid_run_degrades_to_a_warning() {
        let (cache, dir) = temp_cache("vanish");
        // Replace the cache directory with a plain file after opening, so
        // every store fails; the run itself must still succeed and match
        // the uncached summary.
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::write(&dir, b"in the way").unwrap();
        let params = ScenarioParams::with_seed(4);
        let (summary, stats) = Runner::new(params.clone())
            .with_cache(cache)
            .try_run_observed(&scenarios(), &())
            .unwrap();
        let stats = stats.unwrap();
        assert_eq!(stats.store_failures, 7);
        assert_eq!(stats.stored, 0);
        assert_eq!(
            summary.to_json(),
            Runner::new(params)
                .try_run_observed(&scenarios(), &())
                .unwrap()
                .0
                .to_json()
        );
        let _ = std::fs::remove_file(&dir);
    }
}
