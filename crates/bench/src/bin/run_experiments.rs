//! Unified experiment runner over the scenario registry.
//!
//! ```text
//! run_experiments --list
//! run_experiments --only fig4,fig7 --scale full --jobs 8 --out results/
//! run_experiments --only fig6 --cache-dir .exp-cache --set steps=5
//! run_experiments serve --socket /tmp/onionbots.sock --cache-dir .exp-cache
//! run_experiments submit --socket /tmp/onionbots.sock --only fig6
//! run_experiments status --socket /tmp/onionbots.sock
//! ```
//!
//! Selected scenarios (default: all) run through the [`sim::Runner`] on
//! the chosen execution backend (`--backend local|process`); results
//! render to stdout (`--format table|csv|json`) and, with `--out DIR`,
//! to per-report `.json`/`.csv` files plus a `summary.json`. Reports are
//! deterministic for a given `--seed` regardless of `--jobs` *and* of
//! the backend, and with `--cache-dir DIR` (or `ONIONBOTS_CACHE_DIR`)
//! previously computed parts replay from the content-addressed
//! [`sim::ResultCache`] without changing a byte of the output.
//!
//! The `serve` / `submit` / `status` subcommands front the always-on
//! simulation service ([`sim::service`]): `serve` keeps the registry,
//! cache and backend resident and speaks newline-delimited JSON to
//! concurrent clients over Unix-domain and/or TCP loopback sockets;
//! `submit` streams one job's per-part progress and renders the final
//! summary byte-identically to a one-shot run; `status` inspects the
//! daemon's job table or asks it to drain. SIGTERM/ctrl-c drain the
//! daemon gracefully: submissions are refused, in-flight parts finish
//! and flush to the cache, and the process exits 0.
//!
//! The hidden `worker` mode (`run_experiments worker`) is the subprocess
//! side of `--backend process`: it speaks the [`sim::wire`] frames on
//! stdin/stdout and is not meant to be invoked by hand. `serve-worker
//! --listen ADDR` is the same loop as a standalone TCP worker host — the
//! fleet side of `--backend remote --worker ADDR`.

// Deny (not forbid) so the one inventoried exception below can carry a
// scoped `#[allow]`; detlint rule D004 pins this binary to exactly one
// `unsafe` token via the inventory in detlint.toml, and every library
// crate in the workspace is `forbid(unsafe_code)`.
#![deny(unsafe_code)]

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use onionbots_bench::output::{render_summary, Format};
use onionbots_bench::Scale;
use onionbots_bench::{scenarios, service_cli, worker};
use sim::scenario_api::{parse_override, ScenarioParams};
use sim::{Backend, ResultCache, Runner, ScenarioInfo, ThreadsPerItem, WorkerCommand};

/// Set by the SIGTERM/SIGINT handler; the serve loop polls it and
/// drains when it flips.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn handle_shutdown_signal(_signum: i32) {
    // Only async-signal-safe work here: flip the flag and return.
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Routes SIGINT and SIGTERM to [`handle_shutdown_signal`] so the
/// daemon drains instead of dying mid-part. `std` exposes no signal
/// API, so this calls libc's `signal(2)` directly — the one unsafe
/// block in the workspace, confined to this binary (the libraries
/// `forbid(unsafe_code)`).
#[allow(unsafe_code)] // the single inventoried exception (detlint D004)
fn install_shutdown_handler() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, handle_shutdown_signal);
        signal(SIGTERM, handle_shutdown_signal);
    }
}

struct Options {
    list: bool,
    json: bool,
    only: Vec<String>,
    scale: Scale,
    jobs: usize,
    seed: u64,
    out: Option<String>,
    format: Format,
    overrides: Vec<(String, String)>,
    cache_dir: Option<String>,
    no_cache: bool,
    refresh: bool,
    backend: BackendChoice,
    workers: Vec<String>,
    threads_per_item: ThreadsPerItem,
    faults: Vec<String>,
    item_deadline_ms: Option<u64>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum BackendChoice {
    Local,
    Process,
    Remote,
}

const USAGE: &str = "\
Usage: run_experiments [options]
       run_experiments serve|submit|status [options]

Subcommands (see each one's --help):
  serve               start the persistent simulation service daemon
  submit              send one job to a running daemon and stream results
  status              inspect a running daemon's job table / scenarios
  serve-worker        run a standalone TCP worker host for --backend remote

Options:
  --list              list registered scenarios and exit
  --json              with --list, print the listing as machine-readable
                      JSON (ids, part counts, override keys)
  --only ID[,ID...]   run only the named scenarios (repeatable)
  --scale quick|full  population scale (default: quick; env ONIONBOTS_FULL=1)
  --jobs N            workers: threads (local) or subprocesses (process)
                      (default: 1)
  --threads-per-item T
                      intra-item thread budget for graph sweeps: auto
                      (split cores across in-flight items, the default)
                      or a fixed thread count; never changes output bytes
  --backend B         execution backend: local (in-process threads,
                      default), process (run_experiments worker
                      subprocesses speaking ndjson over stdin/stdout) or
                      remote (a fleet of serve-worker hosts over TCP)
  --worker ADDR       remote worker host address, repeatable (requires
                      --backend remote; list an address twice for two
                      concurrent channels to the same host)
  --item-deadline-ms MS
                      per-item reply deadline for --backend process and
                      remote (default: 60000). A worker that accepts
                      work but does not answer within MS is abandoned
                      and its items re-queue on the surviving workers;
                      raise it for parts that run longer than MS
  --faults POINT=SPEC deterministic fault injection, repeatable; also
                      via env ONIONBOTS_FAULTS (';'-separated). SPEC is
                      ACTION[:MILLIS]@ORDINALS with ACTION one of
                      err|delay|hang|crash|partial and ORDINALS 1-based
                      hit counts like 2 or 3,5 or 4.. (open range).
                      Example: --faults remote.read=err@2
                      Schedules are exported to process-backend workers;
                      remote hosts arm from their own environment
  --seed N            base RNG seed (default: 2015)
  --set KEY=VALUE     scenario override, repeatable (e.g. --set steps=5)
  --out DIR           also write per-report .json/.csv files and summary.json
  --format FMT        stdout rendering: table (default), csv, json
  --cache-dir DIR     replay cached parts / store fresh ones under DIR
                      (default: env ONIONBOTS_CACHE_DIR; unset = no cache)
  --no-cache          ignore --cache-dir and ONIONBOTS_CACHE_DIR
  --refresh           re-execute cached parts and overwrite their entries
  --help              show this help
";

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        list: false,
        json: false,
        only: Vec::new(),
        scale: Scale::from_env(),
        jobs: 1,
        seed: ScenarioParams::default().seed,
        out: None,
        format: Format::Table,
        overrides: Vec::new(),
        cache_dir: None,
        no_cache: false,
        refresh: false,
        backend: BackendChoice::Local,
        workers: Vec::new(),
        threads_per_item: ThreadsPerItem::Auto,
        faults: Vec::new(),
        item_deadline_ms: None,
    };
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        i += 1;
        // Scale spellings are matched by the same helper the legacy
        // binaries use, so the two front ends cannot drift apart.
        if let Some((scale, consumed_value)) =
            Scale::match_flag(arg, args.get(i).map(String::as_str))?
        {
            options.scale = scale;
            i += usize::from(consumed_value);
            continue;
        }
        let mut value_for = |name: &str| -> Result<String, String> {
            let value = args
                .get(i)
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"));
            i += 1;
            value
        };
        match arg.as_str() {
            "--list" => options.list = true,
            "--json" => options.json = true,
            "--only" => {
                let value = value_for("--only")?;
                options.only.extend(
                    value
                        .split(',')
                        .map(str::trim)
                        .filter(|s| !s.is_empty())
                        .map(String::from),
                );
            }
            "--jobs" => {
                let value = value_for("--jobs")?;
                options.jobs = value
                    .parse()
                    .map_err(|_| format!("invalid --jobs value '{value}'"))?;
            }
            "--threads-per-item" => {
                let value = value_for("--threads-per-item")?;
                options.threads_per_item = match value.as_str() {
                    "auto" => ThreadsPerItem::Auto,
                    raw => raw
                        .parse::<usize>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .map(ThreadsPerItem::Fixed)
                        .ok_or_else(|| {
                            format!("invalid --threads-per-item value '{raw}' (auto or N >= 1)")
                        })?,
                };
            }
            "--seed" => {
                let value = value_for("--seed")?;
                options.seed = value
                    .parse()
                    .map_err(|_| format!("invalid --seed value '{value}'"))?;
            }
            "--set" => {
                let value = value_for("--set")?;
                options.overrides.push(parse_override(&value)?);
            }
            "--backend" => {
                let value = value_for("--backend")?;
                options.backend = match value.as_str() {
                    "local" => BackendChoice::Local,
                    "process" => BackendChoice::Process,
                    "remote" => BackendChoice::Remote,
                    other => {
                        return Err(format!(
                            "unknown --backend '{other}' (local|process|remote)"
                        ))
                    }
                };
            }
            "--worker" => options.workers.push(value_for("--worker")?),
            "--item-deadline-ms" => {
                let value = value_for("--item-deadline-ms")?;
                options.item_deadline_ms = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&ms| ms >= 1)
                        .ok_or_else(|| {
                            format!("invalid --item-deadline-ms value '{value}' (MS >= 1)")
                        })?,
                );
            }
            "--faults" => {
                let value = value_for("--faults")?;
                // Validate eagerly so a typo'd point name fails the
                // invocation instead of silently never firing.
                sim::faults::parse_entry(&value)?;
                options.faults.push(value);
            }
            "--out" => options.out = Some(value_for("--out")?),
            "--cache-dir" => options.cache_dir = Some(value_for("--cache-dir")?),
            "--no-cache" => options.no_cache = true,
            "--refresh" => options.refresh = true,
            "--format" => options.format = Format::parse(&value_for("--format")?)?,
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            // Legacy positional scale word: only valid as the leading
            // argument (mirrors Scale::from_args).
            "full" if i == 1 => options.scale = Scale::Full,
            "quick" if i == 1 => options.scale = Scale::Quick,
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    if options.json && !options.list {
        return Err("--json is only valid together with --list".to_string());
    }
    if options.backend == BackendChoice::Remote && options.workers.is_empty() {
        return Err("--backend remote requires at least one --worker ADDR".to_string());
    }
    if options.backend != BackendChoice::Remote && !options.workers.is_empty() {
        return Err("--worker is only valid together with --backend remote".to_string());
    }
    if options.backend == BackendChoice::Local && options.item_deadline_ms.is_some() {
        return Err(
            "--item-deadline-ms is only valid together with --backend process or remote"
                .to_string(),
        );
    }
    Ok(options)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Subcommands are dispatched before option parsing — each has its
    // own flag set. `worker` is the hidden subprocess side of
    // --backend process; it takes no other arguments and speaks only
    // the stdin/stdout protocol.
    match args.first().map(String::as_str) {
        Some("worker") => {
            return match worker::run_worker() {
                Ok(()) => ExitCode::SUCCESS,
                Err(error) => {
                    eprintln!("worker error: {error}");
                    ExitCode::FAILURE
                }
            };
        }
        Some("serve-worker") => return worker::serve_worker_main(&args[1..]),
        Some("serve") => {
            install_shutdown_handler();
            return service_cli::serve_main(&args[1..], &SHUTDOWN);
        }
        Some("submit") => return service_cli::submit_main(&args[1..]),
        Some("status") => return service_cli::status_main(&args[1..]),
        _ => {}
    }
    let options = match parse_options(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("error: {message}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let registry = scenarios::registry();
    if options.list {
        let params = ScenarioParams::default();
        if options.json {
            // Machine-readable listing: the same ScenarioInfo frames the
            // service's List request returns, so scripts can parse one
            // format for both the offline and daemon paths.
            let infos = ScenarioInfo::collect(&registry, &params);
            println!(
                "{}",
                serde_json::to_string_pretty(&infos).expect("scenario listing serializes")
            );
            return ExitCode::SUCCESS;
        }
        println!("{} registered scenarios:\n", registry.len());
        for scenario in registry.iter() {
            println!(
                "  {:<24} {:>2} part(s)  {}",
                scenario.id(),
                scenario.parts(&params),
                scenario.title()
            );
            // Declared override keys make --set discoverable; a scenario
            // without declared keys accepts (and is fingerprinted by)
            // every override.
            match scenario.override_keys() {
                Some(keys) => println!("  {:<24} --set keys: {}", "", keys.join(", ")),
                None => println!("  {:<24} --set keys: (undeclared)", ""),
            }
        }
        return ExitCode::SUCCESS;
    }

    let selected = match registry.select(&options.only) {
        Ok(selected) => selected,
        Err(error) => {
            eprintln!("error: {error}");
            return ExitCode::from(2);
        }
    };

    let mut params = ScenarioParams {
        full_scale: options.scale.is_full(),
        seed: options.seed,
        ..ScenarioParams::default()
    };
    // Repeated --set flags: later flags win, matching every other option.
    for (key, value) in options.overrides {
        params.overrides.insert(key, value);
    }
    eprintln!(
        "running {} scenario(s) at {:?} scale with {} job(s), seed {}, {} backend, {} thread(s)/item",
        selected.len(),
        options.scale,
        options.jobs,
        params.seed,
        match options.backend {
            BackendChoice::Local => "local",
            BackendChoice::Process => "process",
            BackendChoice::Remote => "remote",
        },
        match options.threads_per_item {
            ThreadsPerItem::Auto => "auto".to_string(),
            ThreadsPerItem::Fixed(n) => n.to_string(),
            ThreadsPerItem::Sequential => "1".to_string(),
        }
    );
    let cache_dir = match (&options.no_cache, &options.cache_dir) {
        (true, _) => None,
        (false, Some(dir)) => Some(dir.clone()),
        (false, None) => std::env::var("ONIONBOTS_CACHE_DIR")
            .ok()
            .filter(|dir| !dir.is_empty()),
    };
    // The combined fault schedule: the environment's entries first, then
    // every --faults flag. Arming is all-or-nothing — a typo anywhere
    // fails the invocation rather than running with half a schedule.
    let fault_schedule = {
        let mut entries: Vec<String> = std::env::var(sim::FAULTS_ENV)
            .ok()
            .filter(|schedule| !schedule.is_empty())
            .into_iter()
            .collect();
        entries.extend(options.faults.iter().cloned());
        entries.join(";")
    };
    if !fault_schedule.is_empty() {
        if let Err(error) = sim::faults::arm_schedule(&fault_schedule) {
            eprintln!("error: invalid fault schedule: {error}");
            return ExitCode::from(2);
        }
        eprintln!("fault injection armed: {fault_schedule}");
    }
    let backend = match options.backend {
        BackendChoice::Local => Backend::Local,
        BackendChoice::Process => {
            // Workers are this very binary re-invoked in worker mode, so
            // parent and workers can never disagree about the registry.
            let exe = match std::env::current_exe() {
                Ok(exe) => exe,
                Err(error) => {
                    eprintln!("error: cannot locate own executable for worker mode: {error}");
                    return ExitCode::FAILURE;
                }
            };
            // Worker subprocesses inherit the full schedule, so
            // worker-side failpoints (worker.item) fire in them with
            // their own per-process hit counters.
            let mut command = WorkerCommand::new(exe).arg("worker");
            if !fault_schedule.is_empty() {
                command = command.env(sim::FAULTS_ENV, &fault_schedule);
            }
            Backend::Process(command)
        }
        BackendChoice::Remote => Backend::Remote(options.workers.clone()),
    };
    let mut runner = Runner::new(params)
        .jobs(options.jobs)
        .backend(backend)
        .threads_per_item(options.threads_per_item);
    if let Some(millis) = options.item_deadline_ms {
        runner = runner.item_deadline_ms(millis);
    }
    let mut cache_active = false;
    if let Some(dir) = cache_dir {
        // An unusable cache location degrades to an uncached run: caching
        // is an accelerator, never a prerequisite.
        match ResultCache::open(&dir) {
            Ok(cache) => {
                runner = runner.with_cache(cache).refresh(options.refresh);
                cache_active = true;
            }
            Err(error) => {
                eprintln!("warning: cache dir {dir} is unusable ({error}); running uncached");
            }
        }
    }
    if options.refresh && !cache_active {
        eprintln!("warning: --refresh has no effect without an active cache");
    }
    let started = Instant::now();
    let summary = match runner.try_run_with_stats(&selected) {
        Ok((summary, _stats)) => summary,
        Err(error) => {
            eprintln!("error: {error}");
            return ExitCode::FAILURE;
        }
    };
    let elapsed = started.elapsed();

    if let Err(message) = render_summary(&summary, options.format, options.out.as_deref()) {
        eprintln!("error: {message}");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "completed {} scenario(s), {} report(s) in {:.2}s",
        summary.outcomes.len(),
        summary.report_count(),
        elapsed.as_secs_f64()
    );
    ExitCode::SUCCESS
}
