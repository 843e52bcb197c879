//! The always-on simulation service: a persistent daemon front-end over
//! the [`Runner`] pipeline.
//!
//! A [`Service`] loads the [`ScenarioRegistry`] once, owns the shared
//! [`ResultCache`] and the executor backend configuration, and serves
//! concurrent client connections on one Unix domain socket
//! ([`Service::serve_unix`]). The wire protocol is newline-delimited
//! JSON — the one framing in [`crate::wire`], shared with the worker
//! protocol: one [`Request`] frame per client line, one [`Event`] frame
//! per daemon line. No HTTP stack is involved; `std::os::unix::net`
//! suffices.
//!
//! A submitted job ([`JobSpec`]) becomes a [`Runner`] through
//! [`ServiceConfig::runner`] — the same path the one-shot CLI takes — and
//! runs through [`Runner::try_run_observed`], so for a fixed seed the
//! final [`RunSummary`] is **byte-identical** to a one-shot run, cold or
//! fully cached, no matter how many clients are connected. A backend the
//! daemon cannot provide (no worker command, no worker hosts) is only
//! an error once a job actually has parts to dispatch: the job is
//! accepted, a fully cached one completes from the cache, and an
//! uncached one fails with a job-scoped [`Event::Error`].
//! While the job executes, the daemon streams per-part lifecycle frames
//! ([`Event::Part`] wrapping [`PartEvent`]:
//! queued/cache-hit/started/finished/error) as they land, so cached
//! parts answer instantly while cold parts trickle in; the final
//! [`Event::Done`] frame carries the summary plus the job's own
//! [`CacheStats`].
//!
//! Job lifecycle is tracked in one job table behind one lock: each
//! job's [`JobStatus`] row together with its cancel token, plus the last
//! job id handed out. Admission, id assignment, cancel, progress and
//! finish each take that lock once, so a row and its token appear and
//! disappear together. The table serves [`Request::Status`] from any
//! connection and is bounded: it keeps every `Running` row plus the
//! [`MAX_FINISHED_JOBS`] most recent finished ones, evicting the oldest
//! finished row first, so a long-lived daemon's memory does not grow
//! with the number of jobs it has served. An evicted job answers
//! `Status` and `Cancel` exactly like an unknown one. Shutdown is
//! graceful and has one flag: once draining begins (SIGTERM/ctrl-c in
//! the CLI, or a [`Request::Shutdown`] frame — the two mean the same),
//! new submissions are refused with an error frame, in-flight jobs run
//! to completion (their fresh parts are flushed to the cache by the
//! runner as usual), idle connections are told [`Event::ShuttingDown`],
//! and the serve loop returns once every connection has wound down.
//!
//! A misbehaving client costs only its own connection: a malformed
//! frame (not JSON, the wrong shape, or arrays and objects nested deeper
//! than [`serde::MAX_DEPTH`], which the parser refuses instead of
//! overflowing the connection thread's stack) gets an [`Event::Error`]
//! answer and the connection keeps serving; a line longer than
//! [`MAX_FRAME_BYTES`](crate::wire::MAX_FRAME_BYTES) gets an
//! [`Event::Error`] answer and the connection is closed, so the read
//! buffer never grows past the bound; and a client that disconnects
//! mid-job merely stops receiving events — the job still runs to
//! completion, so the shared cache is warmed, never poisoned.
//!
//! Resource use is bounded and jobs are revocable: admission control
//! refuses submissions beyond [`ServiceConfig::max_active_jobs`]
//! concurrently running jobs with an [`Event::Rejected`] frame (nothing
//! queues — the client retries), and [`Request::Cancel`] drains a
//! running job's remaining work items at the next *item* boundary: a job
//! runs on one executor, which polls the job's cancel token (through the
//! job's [`RunObserver`]) each time it is about to take the next item,
//! lets in-flight items finish and stops. Whether a failed run was
//! cancelled is the runner's call alone
//! ([`ExecutorError::is_cancelled`]); the daemon never reads error text.
//! Because the runner stores results only after a dispatch fully
//! succeeds, a cancelled job writes *nothing* to the shared cache — no
//! partial state can ever be replayed. The `service.job` and
//! `service.sink` failpoints ([`crate::faults`]) inject daemon-side job
//! deaths and mid-frame client disconnects for the robustness tests.

// The daemon must never die on a recoverable condition (the doc block
// above promises exactly that), so panicking extractors are banned in
// this module; the test module below opts back in, where a panic *is*
// the failure report.
#![deny(clippy::unwrap_used)]

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::cache::{CacheStats, ResultCache};
use crate::dispatch::WorkerCommand;
use crate::executor::{Executor, ExecutorError, PartResult, WorkItem};
use crate::faults;
use crate::runner::{Backend, PartEvent, RunObserver, RunSummary, Runner, ThreadsPerItem};
use crate::scenario_api::{part_count, ScenarioParams, ScenarioRegistry};
use crate::wire::{write_frame, Frame, FrameReader};

// The unused-import lint would otherwise flag these doc-link-only names.
#[allow(unused_imports)]
use crate::runner::PartState;
#[allow(unused_imports)]
use crate::scenario_api::Scenario;

/// One machine-readable registry entry, as listed by [`Request::List`]
/// (and by `run_experiments --list --json`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScenarioInfo {
    /// The scenario's registry id (the `--only` selector).
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Part count under the parameters the listing was taken with.
    pub parts: usize,
    /// The override keys the scenario declares ([`Scenario::override_keys`]);
    /// `None` means undeclared — every `--set` key is fingerprinted.
    pub override_keys: Option<Vec<String>>,
}

impl ScenarioInfo {
    /// Collects the listing for every registered scenario, in
    /// registration order, with part counts evaluated under `params`.
    pub fn collect(registry: &ScenarioRegistry, params: &ScenarioParams) -> Vec<ScenarioInfo> {
        registry
            .iter()
            .map(|scenario| ScenarioInfo {
                id: scenario.id().to_string(),
                title: scenario.title().to_string(),
                parts: part_count(&**scenario, params),
                override_keys: scenario
                    .override_keys()
                    .map(|keys| keys.iter().map(|k| (*k).to_string()).collect()),
            })
            .collect()
    }
}

/// Which execution backend a job asks for, on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BackendSpec {
    /// In-process threads ([`Backend::Local`]).
    Local,
    /// Worker subprocesses ([`Backend::Process`]); requires the service
    /// to be configured with a [`WorkerCommand`].
    Process,
    /// A `serve-worker` fleet over TCP ([`Backend::Remote`]); requires
    /// worker host addresses on the job or in the service configuration.
    Remote,
}

/// One job submission: scenario selector, seed, scale, overrides and
/// execution knobs. Every field is optional on the wire — an absent (or
/// `null`) field falls back to the daemon's configuration, and the
/// defaults reproduce the one-shot CLI's defaults (seed 2015, quick
/// scale, no overrides), so `{"Submit":{...all null...}}` runs the full
/// registry exactly like a bare `run_experiments` invocation.
///
/// Execution knobs (`jobs`, `backend`, `threads_per_item`) can never
/// change output bytes — the runner's determinism contract — so clients
/// may tune them freely without perturbing results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct JobSpec {
    /// Scenario ids to run; empty or absent selects the whole registry.
    pub only: Option<Vec<String>>,
    /// Base RNG seed (default: the [`ScenarioParams::default`] seed).
    pub seed: Option<u64>,
    /// Run at the paper's full population (default: quick scale).
    pub full_scale: Option<bool>,
    /// Scenario overrides, as `--set KEY=VALUE` pairs.
    pub overrides: Option<BTreeMap<String, String>>,
    /// Bypass and overwrite existing cache entries (default: false).
    pub refresh: Option<bool>,
    /// Worker count for this job (default: the service's configuration).
    pub jobs: Option<usize>,
    /// Execution backend (default: the service's configuration).
    pub backend: Option<BackendSpec>,
    /// Worker host addresses for [`BackendSpec::Remote`] jobs (default:
    /// the service's configuration).
    pub workers: Option<Vec<String>>,
    /// Intra-item thread budget (default: the service's configuration).
    pub threads_per_item: Option<ThreadsPerItem>,
}

impl JobSpec {
    /// A spec that runs the whole registry with every default.
    pub fn all() -> Self {
        JobSpec::default()
    }

    /// The scenario parameters this spec resolves to — identical to what
    /// the one-shot CLI would build from the same seed/scale/overrides.
    pub fn params(&self) -> ScenarioParams {
        let mut params = ScenarioParams::default();
        if let Some(seed) = self.seed {
            params.seed = seed;
        }
        params.full_scale = self.full_scale.unwrap_or(false);
        if let Some(overrides) = &self.overrides {
            params.overrides = overrides.clone();
        }
        params
    }

    /// The scenario selector (empty = everything).
    pub fn selector(&self) -> Vec<String> {
        self.only.clone().unwrap_or_default()
    }
}

/// One client → daemon frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Submit a job; the daemon answers [`Event::Accepted`], streams
    /// [`Event::Part`] frames, and closes the job with [`Event::Done`]
    /// or [`Event::Error`].
    Submit(JobSpec),
    /// Query the job table; `job: null` lists every job. Answered with
    /// [`Event::Jobs`].
    Status {
        /// A specific job id, or `None` for all jobs.
        job: Option<u64>,
    },
    /// List the registered scenarios. Answered with [`Event::Scenarios`].
    List,
    /// Cancel a running job: its remaining work items are drained, the
    /// submitting connection receives [`Event::Cancelled`] as the job's
    /// final frame, and — because the runner only writes results back
    /// after a dispatch fully succeeds — nothing from the cancelled job
    /// reaches the shared cache. Answered with [`Event::Cancelled`] (or
    /// [`Event::Error`] for an unknown or already finished job).
    Cancel {
        /// The job to cancel.
        job: u64,
    },
    /// Ask the daemon to drain and exit: submissions are refused from
    /// this point on, in-flight jobs finish, then the serve loop
    /// returns. Answered with [`Event::ShuttingDown`].
    Shutdown,
}

/// One daemon → client frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// A submission was accepted and assigned a job id.
    Accepted {
        /// The new job's id.
        job: u64,
    },
    /// One part lifecycle transition of a running job, streamed live.
    Part {
        /// The job the part belongs to.
        job: u64,
        /// The transition ([`PartState`] queued/cache-hit/started/
        /// finished/error).
        event: PartEvent,
    },
    /// A job finished successfully: the final frame of a submission.
    Done {
        /// The finished job's id.
        job: u64,
        /// The deterministic summary — byte-identical to a one-shot CLI
        /// run with the same spec.
        summary: RunSummary,
        /// This job's cache counters (`None` when the daemon runs
        /// uncached).
        cache: Option<CacheStats>,
    },
    /// A request failed. `job` is set when a previously accepted job
    /// failed mid-run, `None` when the request itself was rejected
    /// (malformed frame, unknown scenario, draining daemon, ...).
    Error {
        /// The failed job, if one was accepted.
        job: Option<u64>,
        /// Human-readable reason.
        message: String,
    },
    /// A submission was refused by admission control: the daemon already
    /// runs its configured maximum of concurrent jobs. Nothing was
    /// queued — the client should retry after a running job finishes.
    Rejected {
        /// Why the submission was refused.
        reason: String,
    },
    /// A job was cancelled: sent as the acknowledgement to
    /// [`Request::Cancel`] and as the final frame of the cancelled
    /// submission.
    Cancelled {
        /// The cancelled job's id.
        job: u64,
    },
    /// The job-table snapshot answering [`Request::Status`].
    Jobs(Vec<JobStatus>),
    /// The registry listing answering [`Request::List`].
    Scenarios(Vec<ScenarioInfo>),
    /// The daemon is draining: no further submissions are accepted and
    /// the connection is about to close.
    ShuttingDown,
}

/// Lifecycle state of one job in the job table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JobState {
    /// The job is executing.
    Running,
    /// The job finished and its summary was delivered.
    Done,
    /// The job was cancelled before completing; none of its results
    /// reached the cache.
    Cancelled,
    /// The job failed with the contained backend error.
    Failed(String),
}

/// One row of the daemon's job table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobStatus {
    /// The job's id (assigned in submission order, starting at 1).
    pub job: u64,
    /// Current lifecycle state.
    pub state: JobState,
    /// The scenario ids the job runs, in selection order.
    pub scenarios: Vec<String>,
    /// Total planned parts across those scenarios.
    pub parts_total: usize,
    /// Parts resolved so far (cache hits plus finished executions).
    pub parts_done: usize,
    /// The job's cache counters once it finished (`None` while running
    /// or when the daemon runs uncached).
    pub cache: Option<CacheStats>,
}

/// How a [`Service`] executes the jobs it accepts.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Default worker count per job.
    pub jobs: usize,
    /// Default execution backend.
    pub backend: BackendSpec,
    /// How to launch worker subprocesses for [`BackendSpec::Process`]
    /// jobs; `None` makes process-backend jobs with parts to execute
    /// fail cleanly.
    pub worker_command: Option<WorkerCommand>,
    /// Default worker host addresses for [`BackendSpec::Remote`] jobs;
    /// empty makes remote jobs without their own `workers` fail cleanly
    /// once they have parts to execute.
    pub workers: Vec<String>,
    /// Default intra-item thread budget.
    pub threads_per_item: ThreadsPerItem,
    /// The shared result cache every job resolves against; `None` runs
    /// every job uncached.
    pub cache: Option<ResultCache>,
    /// Admission bound: how many jobs may run concurrently. A submission
    /// arriving while this many jobs are `Running` is answered with
    /// [`Event::Rejected`] instead of being queued — the daemon's memory
    /// and thread use stay bounded no matter how many clients push work.
    pub max_active_jobs: usize,
    /// Per-item reply deadline (milliseconds) for process- and
    /// remote-backend jobs; `None` keeps the dispatcher default.
    pub item_deadline_ms: Option<u64>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            jobs: 1,
            backend: BackendSpec::Local,
            worker_command: None,
            workers: Vec::new(),
            threads_per_item: ThreadsPerItem::default(),
            cache: None,
            max_active_jobs: DEFAULT_MAX_ACTIVE_JOBS,
            item_deadline_ms: None,
        }
    }
}

impl ServiceConfig {
    /// The one path from a job description to a [`Runner`]: every field
    /// the spec leaves unset falls back to this configuration. The daemon
    /// and the one-shot CLI both run the result as is; a daemon job's
    /// cancel reaches the run through its observer.
    pub fn runner(&self, spec: &JobSpec) -> Runner {
        let mut runner = Runner::new(spec.params())
            .jobs(spec.jobs.unwrap_or(self.jobs))
            .backend(self.resolve_backend(spec))
            .threads_per_item(spec.threads_per_item.unwrap_or(self.threads_per_item));
        if let Some(millis) = self.item_deadline_ms {
            runner = runner.item_deadline_ms(millis);
        }
        if let Some(cache) = &self.cache {
            runner = runner
                .with_cache(cache.clone())
                .refresh(spec.refresh.unwrap_or(false));
        }
        runner
    }

    /// The backend a job runs on. A backend this configuration cannot
    /// provide becomes an executor that fails at dispatch, so a job whose
    /// parts are all cache hits never notices it.
    fn resolve_backend(&self, spec: &JobSpec) -> Backend {
        let unavailable =
            |message: &str| Backend::Custom(Arc::new(Unavailable(message.to_string())));
        match spec.backend.unwrap_or(self.backend) {
            BackendSpec::Local => Backend::Local,
            BackendSpec::Process => match &self.worker_command {
                Some(command) => Backend::Process(command.clone()),
                None => unavailable(
                    "this service has no worker command configured; \
                     the process backend is unavailable",
                ),
            },
            BackendSpec::Remote => {
                let workers = spec
                    .workers
                    .clone()
                    .filter(|workers| !workers.is_empty())
                    .unwrap_or_else(|| self.workers.clone());
                if workers.is_empty() {
                    unavailable(
                        "this service has no worker hosts configured; \
                         the remote backend is unavailable",
                    )
                } else {
                    Backend::Remote(workers)
                }
            }
        }
    }
}

/// The executor behind a backend the service cannot provide: it fails
/// every dispatch with the reason.
struct Unavailable(String);

impl Executor for Unavailable {
    fn execute(
        &self,
        _items: Vec<WorkItem>,
        _observer: &dyn RunObserver,
    ) -> Result<Vec<PartResult>, ExecutorError> {
        Err(ExecutorError::new(self.0.clone()))
    }
}

/// Default admission bound for [`ServiceConfig::max_active_jobs`].
pub const DEFAULT_MAX_ACTIVE_JOBS: usize = 8;

/// How many finished rows the job table keeps besides the `Running`
/// ones; the oldest finished row is evicted first.
pub const MAX_FINISHED_JOBS: usize = 64;

/// One job in the table: its row and the token its run polls for
/// cancellation, created and dropped together.
struct Job {
    status: JobStatus,
    cancel: Arc<AtomicBool>,
}

/// The daemon's job table: every kept job, in id order, and the last id
/// handed out.
#[derive(Default)]
struct JobTable {
    jobs: Vec<Job>,
    last_id: u64,
}

impl JobTable {
    fn get_mut(&mut self, job: u64) -> Option<&mut Job> {
        self.jobs.iter_mut().find(|entry| entry.status.job == job)
    }
}

/// The persistent simulation service: registry + cache + backend loaded
/// once, serving concurrent NDJSON clients.
///
/// [`handle_connection`] drives any `Read`/`Write` pair, and
/// [`serve_unix`] layers the Unix socket's accept/drain mechanics on
/// top. Its state is one job table behind one lock and one drain flag,
/// which the serve loop exits on.
///
/// [`handle_connection`]: Service::handle_connection
/// [`serve_unix`]: Service::serve_unix
pub struct Service {
    registry: ScenarioRegistry,
    config: ServiceConfig,
    table: Mutex<JobTable>,
    draining: AtomicBool,
}

impl Service {
    /// Creates a service over `registry` with the given execution
    /// configuration.
    pub fn new(registry: ScenarioRegistry, config: ServiceConfig) -> Self {
        Service {
            registry,
            config,
            table: Mutex::default(),
            draining: AtomicBool::new(false),
        }
    }

    /// The machine-readable scenario listing (quick-scale part counts).
    pub fn scenario_infos(&self) -> Vec<ScenarioInfo> {
        ScenarioInfo::collect(&self.registry, &ScenarioParams::default())
    }

    /// Starts draining (what SIGTERM and a [`Request::Shutdown`] frame
    /// both do): submissions are refused from this point on and the serve
    /// loops stop accepting. In-flight jobs are unaffected — they run to
    /// completion and their fresh results still reach the cache.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    /// Whether the service is draining.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    fn table(&self) -> MutexGuard<'_, JobTable> {
        self.table.lock().expect("job table lock")
    }

    /// A snapshot of the job table; `job` filters to one id.
    pub fn jobs_snapshot(&self, job: Option<u64>) -> Vec<JobStatus> {
        self.table()
            .jobs
            .iter()
            .filter(|entry| job.is_none_or(|id| entry.status.job == id))
            .map(|entry| entry.status.clone())
            .collect()
    }

    fn bump_parts_done(&self, job: u64) {
        if let Some(entry) = self.table().get_mut(job) {
            entry.status.parts_done += 1;
        }
    }

    /// Closes a job's row and, past [`MAX_FINISHED_JOBS`] finished rows,
    /// evicts the oldest finished one (rows are in job-id order).
    fn finish_job(&self, job: u64, state: JobState, cache: Option<CacheStats>) {
        let mut table = self.table();
        if let Some(entry) = table.get_mut(job) {
            entry.status.state = state;
            entry.status.cache = cache;
        }
        let finished = |entry: &Job| entry.status.state != JobState::Running;
        if table.jobs.iter().filter(|entry| finished(entry)).count() > MAX_FINISHED_JOBS {
            if let Some(oldest) = table.jobs.iter().position(finished) {
                table.jobs.remove(oldest);
            }
        }
    }

    /// Executes one submission synchronously on the calling (connection)
    /// thread, streaming events into `sink`. Concurrency across clients
    /// comes from one connection thread per client; parallelism *within*
    /// a job comes from the runner's backend fan-out.
    ///
    /// A broken sink (client gone) never aborts the job: results are
    /// computed and cached regardless, so a disconnecting client cannot
    /// poison or cool the shared cache.
    pub fn run_job<W: Write + Send>(&self, spec: &JobSpec, sink: &EventSink<W>) {
        if self.is_draining() {
            sink.send(&Event::Error {
                job: None,
                message: "service is shutting down; submissions are refused".to_string(),
            });
            return;
        }
        let selected = match self.registry.select(&spec.selector()) {
            Ok(selected) => selected,
            Err(error) => {
                sink.send(&Event::Error {
                    job: None,
                    message: error.to_string(),
                });
                return;
            }
        };
        let params = spec.params();
        let parts_total: usize = selected.iter().map(|s| part_count(&**s, &params)).sum();
        // Admission control: the Running count is checked and the new row
        // inserted under one table lock, so concurrent submissions cannot
        // both squeeze past the bound.
        let (job, cancel) = {
            let mut table = self.table();
            let active = table
                .jobs
                .iter()
                .filter(|entry| entry.status.state == JobState::Running)
                .count();
            if active >= self.config.max_active_jobs.max(1) {
                sink.send(&Event::Rejected {
                    reason: format!(
                        "job queue is full ({active} of {} job slot(s) running); \
                         retry after a job finishes",
                        self.config.max_active_jobs.max(1)
                    ),
                });
                return;
            }
            table.last_id += 1;
            let job = table.last_id;
            let cancel = Arc::new(AtomicBool::new(false));
            table.jobs.push(Job {
                status: JobStatus {
                    job,
                    state: JobState::Running,
                    scenarios: selected.iter().map(|s| s.id().to_string()).collect(),
                    parts_total,
                    parts_done: 0,
                    cache: None,
                },
                cancel: cancel.clone(),
            });
            (job, cancel)
        };
        sink.send(&Event::Accepted { job });

        // The `service.job` failpoint models an accepted job dying inside
        // the daemon (OOM, a panicked scenario, ...): the table rows it
        // as Failed and the client gets the typed Error frame.
        if let Err(error) = faults::hit_io(faults::points::SERVICE_JOB) {
            let message = error.to_string();
            self.finish_job(job, JobState::Failed(message.clone()), None);
            sink.send(&Event::Error {
                job: Some(job),
                message,
            });
            return;
        }

        let runner = self.config.runner(spec);
        let observer = JobObserver {
            service: self,
            job,
            sink,
            cancel: &cancel,
        };
        match runner.try_run_observed(&selected, &observer) {
            Ok((summary, cache)) => {
                self.finish_job(job, JobState::Done, cache);
                sink.send(&Event::Done {
                    job,
                    summary,
                    cache,
                });
            }
            Err(error) if error.is_cancelled() => {
                self.finish_job(job, JobState::Cancelled, None);
                sink.send(&Event::Cancelled { job });
            }
            Err(error) => {
                let message = error.to_string();
                self.finish_job(job, JobState::Failed(message.clone()), None);
                sink.send(&Event::Error {
                    job: Some(job),
                    message,
                });
            }
        }
    }

    /// Requests cancellation of a running job. The job's executor takes
    /// no further items once it sees the request: pending items are
    /// drained at the next item boundary, in-flight items finish, and
    /// the submitter receives [`Event::Cancelled`] as the final frame.
    ///
    /// # Errors
    /// Returns a human-readable reason when `job` is unknown or no longer
    /// running.
    pub fn cancel_job(&self, job: u64) -> Result<(), String> {
        match self.table().get_mut(job) {
            Some(entry) if entry.status.state == JobState::Running => {
                entry.cancel.store(true, Ordering::SeqCst);
                Ok(())
            }
            Some(entry) => Err(format!(
                "job {job} is not running (state: {:?})",
                entry.status.state
            )),
            None => Err(format!("unknown job {job}")),
        }
    }

    fn handle_request<W: Write + Send>(&self, request: Request, sink: &EventSink<W>) {
        match request {
            Request::Submit(spec) => self.run_job(&spec, sink),
            Request::Status { job } => sink.send(&Event::Jobs(self.jobs_snapshot(job))),
            Request::List => sink.send(&Event::Scenarios(self.scenario_infos())),
            Request::Cancel { job } => match self.cancel_job(job) {
                Ok(()) => sink.send(&Event::Cancelled { job }),
                Err(message) => sink.send(&Event::Error {
                    job: Some(job),
                    message,
                }),
            },
            Request::Shutdown => {
                self.begin_drain();
                sink.send(&Event::ShuttingDown);
            }
        }
    }

    /// Serves one client connection until EOF, a dead peer, or drain.
    ///
    /// Malformed frames are answered with [`Event::Error`] and the
    /// connection keeps serving — a bad client can cost itself, never
    /// the daemon. When the connection's transport has a read timeout
    /// ([`Service::serve_unix`] sets one), idle periods poll the drain
    /// flag so a silent client cannot stall shutdown.
    ///
    /// # Errors
    /// Returns the underlying I/O error when the transport fails in a
    /// way that is neither EOF nor a read timeout, or when a request
    /// line exceeds [`MAX_FRAME_BYTES`](crate::wire::MAX_FRAME_BYTES) or
    /// is not UTF-8;
    /// either is first answered with an [`Event::Error`] frame where the
    /// transport still allows it.
    pub fn handle_connection<R: Read, W: Write + Send>(
        &self,
        input: R,
        output: W,
    ) -> io::Result<()> {
        let sink = EventSink::new(output);
        let mut frames = FrameReader::new(input);
        loop {
            let frame = match frames.read_frame() {
                Ok(frame) => frame,
                Err(error) => {
                    // An oversized line leaves the stream unframeable and
                    // a line that is not UTF-8 is not a frame, so the
                    // client is told why and the connection ends.
                    sink.send(&Event::Error {
                        job: None,
                        message: format!("cannot read request frame: {error}"),
                    });
                    return Err(error);
                }
            };
            match frame {
                Frame::Eof => return Ok(()),
                Frame::Idle => {
                    if self.is_draining() {
                        sink.send(&Event::ShuttingDown);
                        return Ok(());
                    }
                }
                Frame::Line(line) => {
                    if line.trim().is_empty() {
                        continue;
                    }
                    match serde_json::from_str::<Request>(&line) {
                        Ok(request) => self.handle_request(request, &sink),
                        Err(error) => sink.send(&Event::Error {
                            job: None,
                            message: format!("malformed request frame: {error}"),
                        }),
                    }
                }
            }
            if sink.is_broken() {
                // The client is gone; nothing further can be delivered.
                return Ok(());
            }
        }
    }

    /// Serves clients on a Unix domain socket at `path` until `stop` is
    /// set or the service drains (a client's [`Request::Shutdown`]):
    /// one scoped thread per connection; once draining begins, no new
    /// connection is accepted, every connection thread is joined, and
    /// the socket file is removed. A stale socket file — one nothing
    /// answers on — is replaced; a live service's socket is left alone.
    ///
    /// # Errors
    /// Returns [`io::ErrorKind::AddrInUse`] when a service already
    /// answers at `path`, and the I/O error when the socket cannot be
    /// probed or bound or the accept loop fails.
    pub fn serve_unix(&self, path: &Path, stop: &AtomicBool) -> io::Result<()> {
        match UnixStream::connect(path) {
            Ok(_) => {
                return Err(io::Error::new(
                    io::ErrorKind::AddrInUse,
                    format!("a live service already answers on {}", path.display()),
                ))
            }
            Err(error)
                if matches!(
                    error.kind(),
                    io::ErrorKind::NotFound | io::ErrorKind::ConnectionRefused
                ) =>
            {
                let _ = std::fs::remove_file(path);
            }
            Err(error) => return Err(error),
        }
        let listener = UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        // Scope exit joins every connection thread: in-flight jobs finish
        // (flushing fresh parts to the cache) before the serve loop
        // returns — the graceful-drain barrier.
        let result = std::thread::scope(|scope| loop {
            if stop.load(Ordering::SeqCst) || self.is_draining() {
                self.begin_drain();
                return Ok(());
            }
            match listener.accept() {
                Ok((stream, _addr)) => {
                    // The per-read timeout turns blocked reads into
                    // Frame::Idle polls, so idle connections notice the
                    // drain instead of pinning the scope's join.
                    let reader = stream
                        .set_nonblocking(false)
                        .and_then(|()| stream.set_read_timeout(Some(Duration::from_millis(50))))
                        .and_then(|()| stream.try_clone());
                    if let Ok(reader) = reader {
                        scope.spawn(move || {
                            let _ = self.handle_connection(reader, stream);
                        });
                    }
                }
                Err(error) if error.kind() == io::ErrorKind::WouldBlock => {
                    // detlint: allow(D002) reason="accept-loop idle poll; paces the nonblocking accept() retry and can never reach an output path"
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(error) => {
                    self.begin_drain();
                    return Err(error);
                }
            }
        });
        let _ = std::fs::remove_file(path);
        result
    }
}

/// Forwards runner part events to one job's client, keeps the job
/// table's progress counter current and answers the run's cancel polls
/// from the job's cancel token.
struct JobObserver<'a, W: Write + Send> {
    service: &'a Service,
    job: u64,
    sink: &'a EventSink<W>,
    cancel: &'a AtomicBool,
}

impl<W: Write + Send> RunObserver for JobObserver<'_, W> {
    fn part_event(&self, event: PartEvent) {
        if matches!(event.state, PartState::CacheHit | PartState::Finished) {
            self.service.bump_parts_done(self.job);
        }
        self.sink.send(&Event::Part {
            job: self.job,
            event,
        });
    }

    fn cancelled(&self) -> bool {
        self.cancel.load(Ordering::SeqCst)
    }
}

/// A concurrency-safe NDJSON event writer over one connection.
///
/// Events arrive from multiple backend worker threads (via the
/// [`RunObserver`]), so writes are serialized through a mutex and each
/// event is flushed as one complete line. A write failure marks the
/// sink broken and silences all further events instead of erroring:
/// a vanished client must never abort the job it submitted.
pub struct EventSink<W: Write> {
    writer: Mutex<W>,
    broken: AtomicBool,
}

impl<W: Write> EventSink<W> {
    /// Wraps a writer.
    pub fn new(writer: W) -> Self {
        EventSink {
            writer: Mutex::new(writer),
            broken: AtomicBool::new(false),
        }
    }

    /// Sends one event frame (a no-op once the sink is broken).
    pub fn send(&self, event: &Event) {
        if self.is_broken() {
            return;
        }
        let mut writer = self.writer.lock().expect("sink lock");
        // The `service.sink` failpoint models the peer vanishing mid
        // stream; a `partial` action additionally delivers a truncated
        // frame first — the worst case a real half-closed socket can
        // produce — before the sink goes silent.
        let delivered = match faults::hit(faults::points::SERVICE_SINK) {
            Ok(faults::Injected::None) => write_frame(&mut *writer, event).is_ok(),
            Ok(faults::Injected::PartialWrite) => {
                let line = serde_json::to_string(event).expect("events serialize");
                let _ = writer.write_all(&line.as_bytes()[..line.len() / 2]);
                let _ = writer.flush();
                false
            }
            Err(_) => false,
        };
        if !delivered {
            self.broken.store(true, Ordering::SeqCst);
        }
    }

    /// Whether a previous write failed (the peer is gone).
    pub fn is_broken(&self) -> bool {
        self.broken.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::experiment::{ExperimentReport, Series};
    use crate::scenario_api::Scenario;
    use crate::wire::MAX_FRAME_BYTES;
    use rand::rngs::StdRng;
    use rand::Rng;
    use std::sync::Arc;

    struct Toy {
        id: &'static str,
        parts: usize,
    }

    impl Scenario for Toy {
        fn id(&self) -> &str {
            self.id
        }
        fn title(&self) -> &str {
            "toy service scenario"
        }
        fn override_keys(&self) -> Option<Vec<&str>> {
            Some(vec!["offset"])
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
            assert!(offset >= 0.0, "offset must not be negative");
            let mut r = ExperimentReport::new(self.id, "toy", "part", "value");
            r.push_series(Series::new(
                "trace",
                vec![part as f64],
                vec![offset + rng.gen_range(0.0f64..1.0)],
            ));
            vec![r]
        }
    }

    fn registry() -> ScenarioRegistry {
        let mut registry = ScenarioRegistry::new();
        registry
            .register(Toy { id: "s1", parts: 3 })
            .register(Toy { id: "s2", parts: 2 });
        registry
    }

    fn scenarios() -> Vec<Arc<dyn Scenario>> {
        registry().select(&[]).unwrap()
    }

    /// Pins a fake `Running` row, with its cancel token, that no run will
    /// ever finish; returns the token.
    fn pin_running(service: &Service, job: u64) -> Arc<AtomicBool> {
        let cancel = Arc::new(AtomicBool::new(false));
        service.table().jobs.push(Job {
            status: JobStatus {
                job,
                state: JobState::Running,
                scenarios: vec!["s1".to_string()],
                parts_total: 3,
                parts_done: 0,
                cache: None,
            },
            cancel: cancel.clone(),
        });
        cancel
    }

    fn service(cache: Option<ResultCache>) -> Service {
        Service::new(
            registry(),
            ServiceConfig {
                jobs: 2,
                cache,
                ..ServiceConfig::default()
            },
        )
    }

    fn temp_cache(tag: &str) -> (ResultCache, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "sim-service-cache-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        (ResultCache::open(&dir).unwrap(), dir)
    }

    /// Drives one connection end-to-end: writes every request line, half
    /// closes, and collects every event frame the service answers.
    fn roundtrip(service: &Service, requests: &[String]) -> Vec<Event> {
        let (client, server) = UnixStream::pair().unwrap();
        std::thread::scope(|scope| {
            // The thread must *own* the server end: handle_connection
            // returning then drops every server-side fd, which is what
            // turns the client's read loop below into an EOF.
            let handle = scope.spawn(move || {
                let reader = server.try_clone().unwrap();
                service.handle_connection(reader, server).unwrap();
            });
            let mut out = client.try_clone().unwrap();
            for request in requests {
                writeln!(out, "{request}").unwrap();
            }
            client.shutdown(std::net::Shutdown::Write).unwrap();
            let mut events = Vec::new();
            let mut frames = FrameReader::new(&client);
            loop {
                match frames.read_frame().unwrap() {
                    Frame::Eof => break,
                    Frame::Idle => continue,
                    Frame::Line(line) => {
                        events.push(serde_json::from_str::<Event>(&line).unwrap());
                    }
                }
            }
            handle.join().unwrap();
            events
        })
    }

    fn submit_frame(spec: &JobSpec) -> String {
        serde_json::to_string(&Request::Submit(spec.clone())).unwrap()
    }

    fn spec_with_seed(seed: u64) -> JobSpec {
        JobSpec {
            seed: Some(seed),
            ..JobSpec::default()
        }
    }

    fn done_frame(events: &[Event]) -> (u64, RunSummary, Option<CacheStats>) {
        match events.last().expect("at least one event") {
            Event::Done {
                job,
                summary,
                cache,
            } => (*job, summary.clone(), *cache),
            other => panic!("expected a Done frame, got {other:?}"),
        }
    }

    #[test]
    fn submitted_job_streams_lifecycle_and_matches_one_shot_bytes() {
        let service = service(None);
        let events = roundtrip(&service, &[submit_frame(&spec_with_seed(42))]);
        assert_eq!(events.first(), Some(&Event::Accepted { job: 1 }));
        let states: Vec<&PartState> = events
            .iter()
            .filter_map(|e| match e {
                Event::Part { job: 1, event } => Some(&event.state),
                _ => None,
            })
            .collect();
        let count = |wanted: &PartState| states.iter().filter(|s| **s == wanted).count();
        assert_eq!(count(&PartState::Queued), 5, "3 + 2 parts queued");
        assert_eq!(count(&PartState::Started), 5);
        assert_eq!(count(&PartState::Finished), 5);
        assert_eq!(count(&PartState::CacheHit), 0);
        let (job, summary, cache) = done_frame(&events);
        assert_eq!(job, 1);
        assert_eq!(cache, None, "uncached service reports no stats");
        // The daemon path and the one-shot path share the pipeline:
        // summaries are byte-identical.
        let one_shot = Runner::new(ScenarioParams::with_seed(42))
            .jobs(2)
            .try_run_observed(&scenarios(), &())
            .unwrap()
            .0;
        assert_eq!(summary.to_json(), one_shot.to_json());
        // The job table records completion.
        let jobs = service.jobs_snapshot(None);
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].state, JobState::Done);
        assert_eq!(jobs[0].parts_total, 5);
        assert_eq!(jobs[0].parts_done, 5);
        assert_eq!(jobs[0].scenarios, vec!["s1", "s2"]);
    }

    #[test]
    fn warm_submission_is_all_hits_with_per_job_stats_and_identical_bytes() {
        let (cache, dir) = temp_cache("warm");
        let service = service(Some(cache));
        let cold = roundtrip(&service, &[submit_frame(&spec_with_seed(7))]);
        let warm = roundtrip(&service, &[submit_frame(&spec_with_seed(7))]);
        let (_, cold_summary, cold_stats) = done_frame(&cold);
        let (warm_job, warm_summary, warm_stats) = done_frame(&warm);
        assert_eq!(warm_job, 2, "job ids increment across connections");
        // Satellite: per-job cache stats surface in the final frame and
        // aggregate per job, not across the daemon's lifetime.
        let cold_stats = cold_stats.expect("cached service reports stats");
        assert_eq!(cold_stats.misses, 5);
        assert_eq!(cold_stats.stored, 5);
        assert_eq!(cold_stats.hits, 0);
        let warm_stats = warm_stats.expect("cached service reports stats");
        assert!(warm_stats.all_hits(), "{warm_stats:?}");
        assert_eq!(warm_stats.hits, 5);
        assert_eq!(warm_stats.misses, 0);
        // A warm job streams cache-hit frames and never starts a part.
        let warm_states: Vec<&PartState> = warm
            .iter()
            .filter_map(|e| match e {
                Event::Part { event, .. } => Some(&event.state),
                _ => None,
            })
            .collect();
        assert_eq!(warm_states.len(), 5);
        assert!(warm_states.iter().all(|s| **s == PartState::CacheHit));
        // Cold and warm submissions are byte-identical, and both match
        // the uncached one-shot run.
        assert_eq!(cold_summary.to_json(), warm_summary.to_json());
        let one_shot = Runner::new(ScenarioParams::with_seed(7))
            .try_run_observed(&scenarios(), &())
            .unwrap()
            .0;
        assert_eq!(warm_summary.to_json(), one_shot.to_json());
        // The table keeps each job's own counters.
        let rows = service.jobs_snapshot(None);
        assert_eq!(rows[0].cache, Some(cold_stats));
        assert_eq!(rows[1].cache, Some(warm_stats));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_frames_get_an_error_and_the_connection_survives() {
        let service = service(None);
        let events = roundtrip(
            &service,
            &[
                "this is not json".to_string(),
                "{\"Submit\":{\"only\":42}}".to_string(),
                serde_json::to_string(&Request::List).unwrap(),
            ],
        );
        assert_eq!(events.len(), 3);
        for event in &events[..2] {
            let Event::Error { job: None, message } = event else {
                panic!("expected a job-less Error frame, got {event:?}");
            };
            assert!(message.contains("malformed"), "{message}");
        }
        let Event::Scenarios(infos) = &events[2] else {
            panic!("the connection must keep serving after a bad frame");
        };
        assert_eq!(infos.len(), 2);
    }

    #[test]
    fn unknown_scenarios_are_rejected_without_creating_a_job() {
        let service = service(None);
        let spec = JobSpec {
            only: Some(vec!["nope".to_string()]),
            ..JobSpec::default()
        };
        let events = roundtrip(&service, &[submit_frame(&spec)]);
        assert_eq!(events.len(), 1);
        let Event::Error { job: None, message } = &events[0] else {
            panic!("expected rejection, got {:?}", events[0]);
        };
        assert!(message.contains("unknown scenario"), "{message}");
        assert!(service.jobs_snapshot(None).is_empty());
    }

    /// Asserts the frames of a job that was accepted and then failed at
    /// dispatch, and its `Failed` row; returns the job's error message.
    fn accepted_then_failed(service: &Service, events: &[Event]) -> String {
        let Some(Event::Accepted { job }) = events.first() else {
            panic!("expected the job to be accepted, got {events:?}");
        };
        let Some(Event::Error {
            job: Some(failed),
            message,
        }) = events.last()
        else {
            panic!("expected a job-scoped Error frame, got {events:?}");
        };
        assert_eq!(failed, job);
        let rows = service.jobs_snapshot(Some(*job));
        assert_eq!(rows[0].state, JobState::Failed(message.clone()));
        message.clone()
    }

    #[test]
    fn process_backend_without_a_worker_command_fails_cleanly() {
        let service = service(None);
        let spec = JobSpec {
            backend: Some(BackendSpec::Process),
            ..JobSpec::default()
        };
        let events = roundtrip(&service, &[submit_frame(&spec)]);
        let message = accepted_then_failed(&service, &events);
        assert!(message.contains("no worker command"), "{message}");
    }

    #[test]
    fn remote_backend_without_worker_hosts_fails_cleanly() {
        let service = service(None);
        let spec = JobSpec {
            backend: Some(BackendSpec::Remote),
            ..JobSpec::default()
        };
        let events = roundtrip(&service, &[submit_frame(&spec)]);
        let message = accepted_then_failed(&service, &events);
        assert!(message.contains("no worker hosts"), "{message}");
    }

    #[test]
    fn fully_cached_submission_never_plans_a_backend_dispatch() {
        let (cache, dir) = temp_cache("memo");
        let service = service(Some(cache));
        let cold = roundtrip(&service, &[submit_frame(&spec_with_seed(11))]);
        let (_, cold_summary, _) = done_frame(&cold);
        // The sentinel: a remote submission with no fleet configured can
        // only succeed if the runner's cache pass leaves nothing to
        // dispatch.
        let spec = JobSpec {
            backend: Some(BackendSpec::Remote),
            ..spec_with_seed(11)
        };
        let warm = roundtrip(&service, &[submit_frame(&spec)]);
        let (_, warm_summary, warm_stats) = done_frame(&warm);
        assert!(warm_stats.expect("cached service reports stats").all_hits());
        assert_eq!(cold_summary.to_json(), warm_summary.to_json());
        // refresh=true must bypass the cached parts and fail on the
        // missing fleet — a forced re-run really re-runs.
        let refresh = JobSpec {
            refresh: Some(true),
            ..spec.clone()
        };
        let events = roundtrip(&service, &[submit_frame(&refresh)]);
        let message = accepted_then_failed(&service, &events);
        assert!(message.contains("no worker hosts"), "{message}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn draining_service_refuses_submissions_but_answers_status() {
        let service = service(None);
        service.begin_drain();
        let events = roundtrip(
            &service,
            &[
                submit_frame(&spec_with_seed(1)),
                serde_json::to_string(&Request::Status { job: None }).unwrap(),
            ],
        );
        let Event::Error { job: None, message } = &events[0] else {
            panic!("expected refusal, got {:?}", events[0]);
        };
        assert!(message.contains("shutting down"), "{message}");
        assert_eq!(events[1], Event::Jobs(Vec::new()));
        assert!(service.jobs_snapshot(None).is_empty());
    }

    #[test]
    fn shutdown_request_marks_the_service_stopped() {
        let service = service(None);
        let events = roundtrip(
            &service,
            &[serde_json::to_string(&Request::Shutdown).unwrap()],
        );
        assert_eq!(events, vec![Event::ShuttingDown]);
        assert!(service.is_draining());
    }

    /// Asks the service at `path` for its job table over a fresh
    /// connection.
    fn status_over(path: &Path) -> io::Result<Event> {
        let mut client = UnixStream::connect(path)?;
        write_frame(&mut client, &Request::Status { job: None })?;
        let line = FrameReader::new(&client)
            .next_line()?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "no answer"))?;
        serde_json::from_str(&line).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    #[test]
    fn a_second_serve_leaves_a_live_socket_alone() {
        let dir = std::env::temp_dir().join(format!("sim-service-live-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("svc.sock");
        let (first, second) = (service(None), service(None));
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let serving = scope.spawn(|| first.serve_unix(&path, &stop));
            for _ in 0..1000 {
                if UnixStream::connect(&path).is_ok() {
                    break;
                }
                // detlint: allow(D002) reason="bounded start-up poll until the first service answers; never reaches an output"
                std::thread::sleep(Duration::from_millis(5));
            }
            // Everything is observed before the first service is stopped,
            // so a failed expectation below cannot leave it running.
            let second_outcome = second.serve_unix(&path, &AtomicBool::new(true));
            let status = status_over(&path);
            stop.store(true, Ordering::SeqCst);
            let first_outcome = serving.join().unwrap();
            let error = second_outcome.unwrap_err();
            assert_eq!(error.kind(), io::ErrorKind::AddrInUse, "{error}");
            assert!(error.to_string().contains("svc.sock"), "{error}");
            assert!(matches!(status.unwrap(), Event::Jobs(_)));
            first_outcome.unwrap();
        });
        assert!(!path.exists(), "the first service removed its socket");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_stale_socket_file_is_replaced() {
        let dir = std::env::temp_dir().join(format!("sim-service-stale-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("svc.sock");
        // A bound listener that is dropped leaves a file nothing answers on.
        drop(UnixListener::bind(&path).unwrap());
        assert!(path.exists());
        service(None)
            .serve_unix(&path, &AtomicBool::new(true))
            .unwrap();
        assert!(!path.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disconnecting_mid_job_still_completes_and_caches_the_job() {
        let (cache, dir) = temp_cache("disconnect");
        let service = service(Some(cache));
        // A sink over a closed pipe: every write fails, as if the client
        // vanished right after submitting.
        let (client, server) = UnixStream::pair().unwrap();
        drop(client);
        let sink = EventSink::new(server);
        service.run_job(&spec_with_seed(3), &sink);
        assert!(sink.is_broken());
        // The job completed and warmed the shared cache anyway: a fresh
        // submission over a healthy connection is all hits.
        let rows = service.jobs_snapshot(Some(1));
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].state, JobState::Done);
        let events = roundtrip(&service, &[submit_frame(&spec_with_seed(3))]);
        let (_, _, stats) = done_frame(&events);
        assert!(stats.unwrap().all_hits());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn full_job_table_rejects_submissions_without_queueing() {
        // Pin a fake Running row so the admission bound (1) is already
        // met; a real submission must bounce with Rejected and leave no
        // trace in the table.
        let service = Service::new(
            registry(),
            ServiceConfig {
                max_active_jobs: 1,
                ..ServiceConfig::default()
            },
        );
        pin_running(&service, 99);
        let events = roundtrip(&service, &[submit_frame(&spec_with_seed(5))]);
        assert_eq!(events.len(), 1);
        let Event::Rejected { reason } = &events[0] else {
            panic!("expected Rejected, got {:?}", events[0]);
        };
        assert!(reason.contains("job queue is full"), "{reason}");
        assert_eq!(service.jobs_snapshot(None).len(), 1, "nothing was queued");
        // Freeing the slot lets the next submission through.
        service.table().jobs[0].status.state = JobState::Done;
        let events = roundtrip(&service, &[submit_frame(&spec_with_seed(5))]);
        let (_, _, _) = done_frame(&events);
    }

    #[test]
    fn a_panicking_job_is_rowed_failed_and_frees_its_slot() {
        let service = Service::new(
            registry(),
            ServiceConfig {
                max_active_jobs: 1,
                ..ServiceConfig::default()
            },
        );
        let infeasible = JobSpec {
            overrides: Some([("offset".to_string(), "-1".to_string())].into()),
            ..spec_with_seed(5)
        };
        let events = roundtrip(&service, &[submit_frame(&infeasible)]);
        let message = accepted_then_failed(&service, &events);
        assert!(
            message.contains("panicked: offset must not be negative"),
            "{message}"
        );
        // The failed job holds no slot: the next submission runs.
        let events = roundtrip(&service, &[submit_frame(&spec_with_seed(5))]);
        let (job, _, _) = done_frame(&events);
        assert_eq!(service.jobs_snapshot(Some(job))[0].state, JobState::Done);
    }

    #[test]
    fn a_repeated_selection_runs_once_and_frees_its_slot() {
        let service = Service::new(
            registry(),
            ServiceConfig {
                max_active_jobs: 1,
                ..ServiceConfig::default()
            },
        );
        let selecting = |ids: &[&str]| JobSpec {
            only: Some(ids.iter().map(|id| id.to_string()).collect()),
            ..spec_with_seed(5)
        };
        let events = roundtrip(&service, &[submit_frame(&selecting(&["s2", "s2"]))]);
        let (job, repeated, _) = done_frame(&events);
        assert_eq!(service.jobs_snapshot(Some(job))[0].state, JobState::Done);
        // The slot is free again: the single selection is accepted and
        // produces the same bytes.
        let events = roundtrip(&service, &[submit_frame(&selecting(&["s2"]))]);
        let (_, single, _) = done_frame(&events);
        assert_eq!(repeated.to_json(), single.to_json());
    }

    #[test]
    fn job_table_keeps_running_rows_and_the_newest_finished_rows() {
        let service = service(None);
        // A pinned Running row older than every real job: the oldest row
        // in the table, and never evictable.
        pin_running(&service, 0);
        let extra = 3;
        for seed in 0..(MAX_FINISHED_JOBS + extra) as u64 {
            service.run_job(&spec_with_seed(seed), &EventSink::new(Vec::new()));
        }
        let rows = service.jobs_snapshot(None);
        assert_eq!(rows.len(), MAX_FINISHED_JOBS + 1, "the table stays bounded");
        assert_eq!(rows[0].job, 0);
        assert_eq!(rows[0].state, JobState::Running);
        let kept: Vec<u64> = rows[1..].iter().map(|row| row.job).collect();
        let newest: Vec<u64> = (extra as u64 + 1..=(MAX_FINISHED_JOBS + extra) as u64).collect();
        assert_eq!(kept, newest, "the oldest finished rows go first");
        // An evicted job answers like an unknown one.
        assert!(service.jobs_snapshot(Some(1)).is_empty());
        let error = service.cancel_job(1).unwrap_err();
        assert!(error.contains("unknown job"), "{error}");
    }

    #[test]
    fn job_spec_wire_json_is_pinned() {
        // Recorded before `threads_per_item` changed type: the frames a
        // client sends must not change.
        let fields = "\"only\":null,\"seed\":null,\"full_scale\":null,\"overrides\":null,\
                      \"refresh\":null,\"jobs\":null,\"backend\":null,\"workers\":null";
        for (threads, wire) in [
            (ThreadsPerItem::Auto, "\"Auto\""),
            (ThreadsPerItem::Fixed(3), "{\"Fixed\":3}"),
        ] {
            let spec = JobSpec {
                threads_per_item: Some(threads),
                ..JobSpec::default()
            };
            let json = format!("{{{fields},\"threads_per_item\":{wire}}}");
            assert_eq!(serde_json::to_string(&spec).unwrap(), json);
            assert_eq!(serde_json::from_str::<JobSpec>(&json).unwrap(), spec);
        }
    }

    #[test]
    fn cancelled_job_drains_and_poisons_nothing() {
        /// A scenario whose first part cancels its own job — a
        /// deterministic stand-in for a second client connection sending
        /// `Cancel` while the job is mid-run (no timing race: the token
        /// is guaranteed set before the executor takes the second part).
        struct CancelSelf {
            service: std::sync::Weak<Service>,
        }
        impl Scenario for CancelSelf {
            fn id(&self) -> &str {
                "cancel-self"
            }
            fn title(&self) -> &str {
                "self-cancelling scenario"
            }
            fn parts(&self, _params: &ScenarioParams) -> usize {
                5
            }
            fn run_part(
                &self,
                part: usize,
                _params: &ScenarioParams,
                rng: &mut StdRng,
            ) -> Vec<ExperimentReport> {
                if part == 0 {
                    if let Some(service) = self.service.upgrade() {
                        // Ignored Err: on the *resubmission* below job 1
                        // is already gone, which is exactly the point.
                        let _ = service.cancel_job(1);
                    }
                }
                let mut r = ExperimentReport::new("cancel-self", "toy", "part", "value");
                r.push_series(Series::new(
                    "trace",
                    vec![part as f64],
                    vec![rng.gen_range(0.0f64..1.0)],
                ));
                vec![r]
            }
        }

        let (cache, dir) = temp_cache("cancel");
        let service = Arc::new_cyclic(|weak: &std::sync::Weak<Service>| {
            let mut registry = ScenarioRegistry::new();
            registry.register(CancelSelf {
                service: weak.clone(),
            });
            Service::new(
                registry,
                ServiceConfig {
                    jobs: 1,
                    cache: Some(cache),
                    ..ServiceConfig::default()
                },
            )
        });
        // jobs=1 → one local worker thread runs the parts in order and
        // its dispatcher polls the token before taking each: part 0
        // trips it, so no further part starts.
        let events = roundtrip(&service, &[submit_frame(&spec_with_seed(13))]);
        assert_eq!(
            events.last(),
            Some(&Event::Cancelled { job: 1 }),
            "the submitter's final frame is Cancelled: {events:?}"
        );
        let rows = service.jobs_snapshot(Some(1));
        assert_eq!(rows[0].state, JobState::Cancelled);
        // Nothing from the cancelled job reached the shared cache — not
        // even the part that *did* complete before the cancel: the same
        // spec resubmitted misses everywhere.
        let redo = roundtrip(&service, &[submit_frame(&spec_with_seed(13))]);
        let (_, _, stats) = done_frame(&redo);
        let stats = stats.unwrap();
        assert_eq!(stats.hits, 0, "a cancelled job must not warm the cache");
        assert_eq!(stats.misses, 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancelling_unknown_or_finished_jobs_answers_an_error() {
        let service = service(None);
        let done = roundtrip(&service, &[submit_frame(&spec_with_seed(2))]);
        let (job, _, _) = done_frame(&done);
        let events = roundtrip(
            &service,
            &[
                serde_json::to_string(&Request::Cancel { job }).unwrap(),
                serde_json::to_string(&Request::Cancel { job: 77 }).unwrap(),
            ],
        );
        let Event::Error {
            job: Some(1),
            message,
        } = &events[0]
        else {
            panic!(
                "expected an Error for the finished job, got {:?}",
                events[0]
            );
        };
        assert!(message.contains("not running"), "{message}");
        let Event::Error {
            job: Some(77),
            message,
        } = &events[1]
        else {
            panic!("expected an Error for the unknown job, got {:?}", events[1]);
        };
        assert!(message.contains("unknown job"), "{message}");
    }

    #[test]
    fn a_running_row_can_be_cancelled_through_its_token() {
        let service = service(None);
        let token = pin_running(&service, 5);
        assert_eq!(service.cancel_job(5), Ok(()));
        assert!(
            token.load(Ordering::SeqCst),
            "the row's own token is tripped"
        );
        // Closing the row ends cancellability; evicting it makes it unknown.
        service.finish_job(5, JobState::Cancelled, None);
        let error = service.cancel_job(5).unwrap_err();
        assert!(error.contains("not running (state: Cancelled)"), "{error}");
        service.table().jobs.clear();
        assert_eq!(service.cancel_job(5), Err("unknown job 5".to_string()));
    }

    #[test]
    fn a_panicking_part_streams_its_error_before_the_job_error() {
        let service = service(None);
        let infeasible = JobSpec {
            only: Some(vec!["s2".to_string()]),
            jobs: Some(1),
            overrides: Some([("offset".to_string(), "-1".to_string())].into()),
            ..spec_with_seed(5)
        };
        let events = roundtrip(&service, &[submit_frame(&infeasible)]);
        let message = accepted_then_failed(&service, &events);
        let part_error = events.iter().position(|event| {
            matches!(event, Event::Part { job: 1, event }
                if event.scenario_id == "s2"
                    && event.part == 0
                    && event.state == PartState::Error(message.clone()))
        });
        assert_eq!(
            part_error,
            Some(events.len() - 2),
            "the part's Error frame comes right before the job's: {events:?}"
        );
    }

    #[test]
    fn scenario_infos_expose_ids_parts_and_override_keys() {
        let service = service(None);
        let infos = service.scenario_infos();
        assert_eq!(
            infos,
            vec![
                ScenarioInfo {
                    id: "s1".to_string(),
                    title: "toy service scenario".to_string(),
                    parts: 3,
                    override_keys: Some(vec!["offset".to_string()]),
                },
                ScenarioInfo {
                    id: "s2".to_string(),
                    title: "toy service scenario".to_string(),
                    parts: 2,
                    override_keys: Some(vec!["offset".to_string()]),
                },
            ]
        );
    }

    #[test]
    fn job_spec_defaults_reproduce_the_cli_defaults() {
        let params = JobSpec::all().params();
        assert_eq!(params, ScenarioParams::default());
        let spec = JobSpec {
            seed: Some(9),
            full_scale: Some(true),
            overrides: Some(
                [("offset".to_string(), "1.5".to_string())]
                    .into_iter()
                    .collect(),
            ),
            ..JobSpec::default()
        };
        let params = spec.params();
        assert_eq!(params.seed, 9);
        assert!(params.full_scale);
        assert_eq!(params.overrides.get("offset").unwrap(), "1.5");
        assert_eq!(spec.selector(), Vec::<String>::new());
    }

    #[test]
    fn a_request_line_that_is_not_utf8_is_answered_and_closes_the_connection() {
        let service = service(None);
        let input = b"{\"Status\":{\"job\":\"a\xffb\"}}\n\"List\"\n";
        let mut output = Vec::new();
        let error = service
            .handle_connection(&input[..], &mut output)
            .unwrap_err();
        assert_eq!(error.kind(), io::ErrorKind::InvalidData);
        let text = String::from_utf8(output).unwrap();
        let frames: Vec<Event> = text
            .lines()
            .map(|line| serde_json::from_str(line).unwrap())
            .collect();
        assert_eq!(frames.len(), 1, "nothing after the bad line: {text}");
        let Event::Error { job: None, message } = &frames[0] else {
            panic!("expected an Error frame, got {:?}", frames[0]);
        };
        assert!(message.contains("not valid UTF-8"), "{message}");
    }

    #[test]
    fn an_oversized_request_line_is_answered_and_closes_the_connection() {
        let service = service(None);
        let mut input = vec![b'x'; MAX_FRAME_BYTES + 1];
        input.extend_from_slice(b"\n\"List\"\n");
        let mut output = Vec::new();
        let error = service
            .handle_connection(&input[..], &mut output)
            .unwrap_err();
        assert_eq!(error.kind(), io::ErrorKind::InvalidData);
        let text = String::from_utf8(output).unwrap();
        let frames: Vec<Event> = text
            .lines()
            .map(|line| serde_json::from_str(line).unwrap())
            .collect();
        assert_eq!(frames.len(), 1, "nothing after the oversized line: {text}");
        let Event::Error { job: None, message } = &frames[0] else {
            panic!("expected an Error frame, got {:?}", frames[0]);
        };
        assert!(message.contains("line limit"), "{message}");
    }

    #[test]
    fn concurrent_clients_share_the_cache_and_agree_byte_for_byte() {
        let (cache, dir) = temp_cache("concurrent");
        let service = service(Some(cache));
        let (left, right) = std::thread::scope(|scope| {
            let left = scope.spawn(|| roundtrip(&service, &[submit_frame(&spec_with_seed(21))]));
            let right = scope.spawn(|| roundtrip(&service, &[submit_frame(&spec_with_seed(21))]));
            (left.join().unwrap(), right.join().unwrap())
        });
        let (_, left_summary, _) = done_frame(&left);
        let (_, right_summary, _) = done_frame(&right);
        assert_eq!(left_summary.to_json(), right_summary.to_json());
        let one_shot = Runner::new(ScenarioParams::with_seed(21))
            .try_run_observed(&scenarios(), &())
            .unwrap()
            .0;
        assert_eq!(left_summary.to_json(), one_shot.to_json());
        // Both jobs are on the table with distinct ids.
        let mut ids: Vec<u64> = service.jobs_snapshot(None).iter().map(|r| r.job).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
