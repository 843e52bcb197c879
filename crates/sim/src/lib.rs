//! # sim
//!
//! Experiment infrastructure for the OnionBots (DSN 2015) evaluation:
//!
//! * [`scenario`] — the takedown primitives behind Figures 4, 5 and 6:
//!   gradual (self-repairing vs. normal) takedowns with metric sampling, and
//!   the simultaneous-deletion partition threshold.
//! * [`scenario_api`] — the first-class scenario layer: the [`Scenario`]
//!   trait (named, seeded, parameterized experiments split into
//!   independently runnable parts), [`ScenarioParams`] and the
//!   [`ScenarioRegistry`] that `crates/bench` populates with every paper
//!   figure/table/ablation.
//! * [`runner`] — the [`Runner`]: plans *(scenario, part)* work items
//!   with per-part deterministic seeds, resolves them against the result
//!   cache, dispatches the misses to a pluggable execution [`Backend`]
//!   and collects a [`RunSummary`] whose JSON is byte-identical for any
//!   worker count and backend.
//! * [`executor`] — the [`Executor`] trait over serializable
//!   [`WorkItem`]s (whose identity is the cache fingerprint).
//! * [`dispatch`] — the one backend behind `local`, `process` and
//!   `remote`: a work-stealing [`Dispatcher`] driving in-process worker
//!   threads, worker subprocesses (`run_experiments worker`) and TCP
//!   worker hosts (`serve-worker`) through the same channel state
//!   machine — handshake, per-item deadline, crash re-queue, fingerprint
//!   dedup.
//! * [`wire`] — the one NDJSON framing every out-of-process channel
//!   speaks: the bounded [`wire::FrameReader`], [`wire::write_frame`],
//!   the versioned dispatcher↔worker frames and the one serving loop,
//!   [`serve_connection`].
//! * [`service`] — the always-on simulation service: a persistent
//!   daemon over the same runner pipeline, speaking an NDJSON job API
//!   ([`service::Request`]/[`service::Event`] frames) over one Unix
//!   domain socket, streaming per-part lifecycle events and
//!   fronting one shared result cache for every client.
//! * [`faults`] — deterministic fault injection: named failpoints
//!   compiled into the worker loop, the dispatcher, the cache and the
//!   service, armed via `--faults NAME=SPEC` schedules with
//!   count-based (never wall-clock) triggers — the chaos layer behind
//!   the robustness tests.
//! * [`cache`] — the persistent, content-addressed [`ResultCache`]: stores
//!   each part's reports under a SHA-256 fingerprint of *(scenario id,
//!   part, seed, scale, overrides, format version)* so re-runs only
//!   execute changed parts, with byte-identical summaries either way.
//! * [`experiment`] — data series and reports with their CSV / table /
//!   JSON rendering, written out by the `run_experiments` binary in
//!   `crates/bench`.
//!
//! ```
//! use sim::scenario::{gradual_takedown, TakedownMode, TakedownParams};
//! use onionbots_core::{DdsrConfig, DdsrOverlay};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(3);
//! let (mut overlay, ids) = DdsrOverlay::new_regular(120, 10, DdsrConfig::for_degree(10), &mut rng);
//! let samples = gradual_takedown(
//!     &mut overlay,
//!     &ids,
//!     TakedownMode::SelfRepairing,
//!     TakedownParams { deletions: 36, sample_every: 12, metric_samples: 30 },
//!     &mut rng,
//! );
//! assert_eq!(samples.last().unwrap().connected_components, 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod dispatch;
pub mod executor;
pub mod experiment;
pub mod faults;
pub mod runner;
pub mod scenario;
pub mod scenario_api;
pub mod service;
pub mod wire;

pub use cache::{CacheLookup, CacheStats, PartFingerprint, ResultCache, CACHE_FORMAT_VERSION};
pub use dispatch::{Dispatcher, WorkerCommand};
pub use executor::{Executor, ExecutorError, PartResult, WorkItem};
pub use experiment::{ExperimentReport, Series};
pub use faults::FAULTS_ENV;
pub use runner::{
    Backend, PartEvent, PartState, RunObserver, RunSummary, Runner, ScenarioOutcome, ThreadsPerItem,
};
pub use scenario::{gradual_takedown, partition_threshold, TakedownMode, TakedownParams};
pub use scenario_api::{
    merge_reports, parse_override, part_seed, Scenario, ScenarioParams, ScenarioRegistry,
    UnknownScenario,
};
// The service's `Request`/`Event` frame types stay namespaced
// (`sim::service::{Request, Event}`): the bare nouns are too generic for
// the crate root. The nouns below are unambiguous.
pub use service::{
    BackendSpec, JobSpec, JobState, JobStatus, ScenarioInfo, Service, ServiceConfig,
};
pub use wire::{serve_connection, serve_remote_host, DispatchFrame, WorkerFrame, PROTOCOL_VERSION};
