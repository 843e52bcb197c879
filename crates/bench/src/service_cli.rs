//! The `run_experiments serve` / `submit` / `status` front ends over the
//! simulation service in [`sim::service`].
//!
//! `serve` starts the persistent daemon: the scenario registry is loaded
//! once, the result cache and execution backend are owned centrally, and
//! concurrent clients speak newline-delimited JSON over a Unix domain
//! socket (`--socket PATH`) and/or TCP loopback (`--tcp ADDR`). `submit`
//! is the client: it sends one job, streams the per-part progress frames
//! to stderr as they land, and renders the final summary through the
//! exact pipeline the one-shot CLI uses ([`crate::output`]), so stdout
//! and `summary.json` are byte-identical to a local run with the same
//! seed. `status` queries the daemon's job table, lists its scenarios,
//! or asks it to shut down gracefully.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::AtomicBool;

use sim::scenario_api::parse_override;
use sim::service::{Event, Request};
use sim::wire::{write_frame, Frame, FrameReader};
use sim::{
    BackendSpec, JobSpec, ResultCache, Service, ServiceConfig, ThreadsPerItem, ThreadsSpec,
    WorkerCommand,
};

use crate::output::{render_summary, Format};
use crate::scenarios;
use crate::Scale;

/// Where a daemon listens / a client connects.
enum Transport {
    /// Unix domain socket at this path.
    Unix(PathBuf),
    /// TCP address, e.g. `127.0.0.1:7415`.
    Tcp(String),
}

/// Interprets the shared `--socket PATH` / `--tcp ADDR` transport flags.
/// Returns `Ok(Some(...))` when `arg` was a transport flag (consuming
/// `value`), `Ok(None)` otherwise.
fn match_transport(arg: &str, value: Option<&String>) -> Result<Option<Transport>, String> {
    let required = |name: &str| {
        value
            .cloned()
            .ok_or_else(|| format!("{name} requires a value"))
    };
    match arg {
        "--socket" => Ok(Some(Transport::Unix(PathBuf::from(required("--socket")?)))),
        "--tcp" => Ok(Some(Transport::Tcp(required("--tcp")?))),
        _ => Ok(None),
    }
}

fn parse_threads_per_item(value: &str) -> Result<ThreadsPerItem, String> {
    match value {
        "auto" => Ok(ThreadsPerItem::Auto),
        raw => raw
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .map(ThreadsPerItem::Fixed)
            .ok_or_else(|| format!("invalid --threads-per-item value '{raw}' (auto or N >= 1)")),
    }
}

fn parse_backend(value: &str) -> Result<BackendSpec, String> {
    match value {
        "local" => Ok(BackendSpec::Local),
        "process" => Ok(BackendSpec::Process),
        "remote" => Ok(BackendSpec::Remote),
        other => Err(format!(
            "unknown --backend '{other}' (local|process|remote)"
        )),
    }
}

/// The read and write halves of a client connection.
type Connection = (Box<dyn Read>, Box<dyn Write>);

/// Opens both halves of a client connection.
fn connect(transport: &Transport) -> Result<Connection, String> {
    match transport {
        Transport::Unix(path) => {
            let stream = UnixStream::connect(path)
                .map_err(|e| format!("cannot connect to socket {}: {e}", path.display()))?;
            let reader = stream
                .try_clone()
                .map_err(|e| format!("cannot clone socket: {e}"))?;
            Ok((Box::new(reader), Box::new(stream)))
        }
        Transport::Tcp(addr) => {
            let stream =
                TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
            let reader = stream
                .try_clone()
                .map_err(|e| format!("cannot clone socket: {e}"))?;
            Ok((Box::new(reader), Box::new(stream)))
        }
    }
}

/// Sends one request frame and returns the daemon's single response
/// frame. Every non-submission request is answered with exactly one
/// event, so the client never has to wait for the connection to close
/// (dropping a cloned read/write half does not shut the socket down).
fn request_one(transport: &Transport, request: &Request) -> Result<Event, String> {
    let (reader, mut writer) = connect(transport)?;
    write_frame(&mut writer, request).map_err(|e| format!("cannot send request: {e}"))?;
    let mut frames = FrameReader::new(reader);
    loop {
        match frames
            .read_frame()
            .map_err(|e| format!("connection failed: {e}"))?
        {
            Frame::Eof => {
                return Err("the service closed the connection without answering".to_string())
            }
            Frame::Idle => {}
            Frame::Line(line) => {
                if line.trim().is_empty() {
                    continue;
                }
                return serde_json::from_str::<Event>(&line)
                    .map_err(|e| format!("unparseable event frame: {e}"));
            }
        }
    }
}

// ------------------------------------------------------------------ serve

const SERVE_USAGE: &str = "\
Usage: run_experiments serve [options]

Starts the persistent simulation service. Clients connect with
`run_experiments submit` / `status` and speak newline-delimited JSON.

Options:
  --socket PATH       listen on a Unix domain socket at PATH
  --tcp ADDR          listen on a TCP address (loopback recommended,
                      e.g. 127.0.0.1:0); may be combined with --socket
  --jobs N            default workers per job (default: 1)
  --backend B         default execution backend: local|process|remote
  --worker ADDR       default remote worker host address, repeatable
                      (used by --backend remote jobs)
  --threads-per-item T
                      default intra-item thread budget: auto or N >= 1
  --max-jobs N        admission bound: at most N jobs run concurrently;
                      further submissions are answered with a Rejected
                      frame instead of queueing (default: 8)
  --item-deadline-ms MS
                      per-item reply deadline for process- and
                      remote-backend jobs (default: 60000)
  --cache-dir DIR     shared result cache for every job
                      (default: env ONIONBOTS_CACHE_DIR; unset = no cache)
  --no-cache          run every job uncached
  --help              show this help

SIGTERM/ctrl-c drain the daemon: new submissions are refused, in-flight
jobs finish and flush their cache entries, then the process exits 0.
";

struct ServeOptions {
    transports: Vec<Transport>,
    jobs: usize,
    backend: BackendSpec,
    workers: Vec<String>,
    threads_per_item: ThreadsPerItem,
    max_active_jobs: usize,
    item_deadline_ms: Option<u64>,
    cache_dir: Option<String>,
    no_cache: bool,
}

fn parse_serve_options(args: &[String]) -> Result<ServeOptions, String> {
    let mut options = ServeOptions {
        transports: Vec::new(),
        jobs: 1,
        backend: BackendSpec::Local,
        workers: Vec::new(),
        threads_per_item: ThreadsPerItem::Auto,
        max_active_jobs: sim::service::DEFAULT_MAX_ACTIVE_JOBS,
        item_deadline_ms: None,
        cache_dir: None,
        no_cache: false,
    };
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        i += 1;
        if let Some(transport) = match_transport(arg, args.get(i))? {
            options.transports.push(transport);
            i += 1;
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
            "--jobs" => {
                let value = value_for("--jobs")?;
                options.jobs = value
                    .parse()
                    .map_err(|_| format!("invalid --jobs value '{value}'"))?;
            }
            "--backend" => options.backend = parse_backend(&value_for("--backend")?)?,
            "--worker" => options.workers.push(value_for("--worker")?),
            "--threads-per-item" => {
                options.threads_per_item =
                    parse_threads_per_item(&value_for("--threads-per-item")?)?;
            }
            "--max-jobs" => {
                let value = value_for("--max-jobs")?;
                options.max_active_jobs =
                    value.parse().ok().filter(|&n| n >= 1).ok_or_else(|| {
                        format!("invalid --max-jobs value '{value}' (need N >= 1)")
                    })?;
            }
            "--item-deadline-ms" => {
                let value = value_for("--item-deadline-ms")?;
                options.item_deadline_ms =
                    Some(value.parse().ok().filter(|&ms| ms >= 1).ok_or_else(|| {
                        format!("invalid --item-deadline-ms value '{value}' (need MS >= 1)")
                    })?);
            }
            "--cache-dir" => options.cache_dir = Some(value_for("--cache-dir")?),
            "--no-cache" => options.no_cache = true,
            "--help" | "-h" => {
                print!("{SERVE_USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    if options.transports.is_empty() {
        return Err("serve needs at least one of --socket PATH or --tcp ADDR".to_string());
    }
    Ok(options)
}

/// Runs the daemon until `stop` is set (the binary's signal handler) or
/// a client sends a `Shutdown` frame, then drains and exits.
pub fn serve_main(args: &[String], stop: &AtomicBool) -> ExitCode {
    let options = match parse_serve_options(args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("error: {message}\n\n{SERVE_USAGE}");
            return ExitCode::from(2);
        }
    };
    // Daemon-side failpoints (`service.job`, `service.sink`, the backend
    // points) arm from the environment, exactly like worker processes. A
    // bad schedule fails startup loudly — a daemon running with half a
    // chaos schedule would be worse than no daemon at all.
    if let Err(error) = sim::faults::arm_from_env() {
        eprintln!("error: invalid {} schedule: {error}", sim::FAULTS_ENV);
        return ExitCode::from(2);
    }
    let cache_dir = match (options.no_cache, &options.cache_dir) {
        (true, _) => None,
        (false, Some(dir)) => Some(dir.clone()),
        (false, None) => std::env::var("ONIONBOTS_CACHE_DIR")
            .ok()
            .filter(|dir| !dir.is_empty()),
    };
    let cache = match cache_dir {
        None => None,
        Some(dir) => match ResultCache::open(&dir) {
            Ok(cache) => {
                eprintln!("service: caching results under {dir}");
                Some(cache)
            }
            Err(error) => {
                eprintln!("warning: cache dir {dir} is unusable ({error}); serving uncached");
                None
            }
        },
    };
    // Workers are this very binary re-invoked in worker mode, exactly
    // like the one-shot --backend process path.
    let worker_command = std::env::current_exe()
        .ok()
        .map(|exe| WorkerCommand::new(exe).arg("worker"));
    if options.backend == BackendSpec::Process && worker_command.is_none() {
        eprintln!("error: cannot locate own executable for worker mode");
        return ExitCode::FAILURE;
    }
    let service = Service::new(
        scenarios::registry(),
        ServiceConfig {
            jobs: options.jobs,
            backend: options.backend,
            worker_command,
            workers: options.workers,
            threads_per_item: options.threads_per_item,
            max_active_jobs: options.max_active_jobs,
            item_deadline_ms: options.item_deadline_ms,
            cache,
        },
    );
    // Bind TCP listeners up front so `--tcp 127.0.0.1:0` can report the
    // assigned port before the first client tries to connect.
    let mut tcp_listeners = Vec::new();
    let mut unix_paths = Vec::new();
    for transport in &options.transports {
        match transport {
            Transport::Unix(path) => unix_paths.push(path.clone()),
            Transport::Tcp(addr) => match TcpListener::bind(addr) {
                Ok(listener) => {
                    match listener.local_addr() {
                        Ok(addr) => eprintln!("service: listening on tcp {addr}"),
                        Err(_) => eprintln!("service: listening on tcp {addr}"),
                    }
                    tcp_listeners.push(listener);
                }
                Err(error) => {
                    eprintln!("error: cannot bind {addr}: {error}");
                    return ExitCode::FAILURE;
                }
            },
        }
    }
    let failed = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for listener in tcp_listeners {
            let service = &service;
            handles.push(scope.spawn(move || {
                service
                    .serve_tcp(listener, stop)
                    .map_err(|e| format!("tcp serve loop failed: {e}"))
            }));
        }
        for path in &unix_paths {
            let service = &service;
            eprintln!("service: listening on socket {}", path.display());
            handles.push(scope.spawn(move || {
                service
                    .serve_unix(path, stop)
                    .map_err(|e| format!("socket serve loop failed: {e}"))
            }));
        }
        let mut failed = false;
        for handle in handles {
            if let Err(message) = handle.join().expect("serve loop thread") {
                eprintln!("error: {message}");
                failed = true;
            }
        }
        failed
    });
    if failed {
        return ExitCode::FAILURE;
    }
    eprintln!("service: drained cleanly");
    ExitCode::SUCCESS
}

// ----------------------------------------------------------------- submit

const SUBMIT_USAGE: &str = "\
Usage: run_experiments submit [options]

Submits one job to a running `run_experiments serve` daemon, streams its
per-part progress to stderr, and renders the final summary exactly like
a one-shot run (byte-identical stdout / summary.json for a fixed seed).

Options:
  --socket PATH       connect to the daemon's Unix domain socket
  --tcp ADDR          connect to the daemon's TCP address
  --only ID[,ID...]   run only the named scenarios (repeatable)
  --scale quick|full  population scale (default: quick; env ONIONBOTS_FULL=1)
  --seed N            base RNG seed (default: the daemon's default, 2015)
  --set KEY=VALUE     scenario override, repeatable
  --jobs N            workers for this job (default: the daemon's default)
  --backend B         backend for this job: local|process|remote
  --worker ADDR       remote worker host address for this job, repeatable
                      (default: the daemon's configured fleet)
  --threads-per-item T
                      intra-item thread budget: auto or N >= 1
  --refresh           re-execute cached parts and overwrite their entries
  --out DIR           write per-report .json/.csv files and summary.json
  --format FMT        stdout rendering: table (default), csv, json
  --quiet             suppress the per-part progress frames on stderr
  --help              show this help
";

struct SubmitOptions {
    transport: Transport,
    spec: JobSpec,
    format: Format,
    out: Option<String>,
    quiet: bool,
}

fn parse_submit_options(args: &[String]) -> Result<SubmitOptions, String> {
    let mut transport = None;
    let mut spec = JobSpec::default();
    let mut format = Format::Table;
    let mut out = None;
    let mut quiet = false;
    let mut only: Vec<String> = Vec::new();
    let mut overrides: Vec<(String, String)> = Vec::new();
    let mut workers: Vec<String> = Vec::new();
    let mut scale = Scale::from_env();
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        i += 1;
        if let Some(parsed) = match_transport(arg, args.get(i))? {
            transport = Some(parsed);
            i += 1;
            continue;
        }
        if let Some((parsed, consumed_value)) =
            Scale::match_flag(arg, args.get(i).map(String::as_str))?
        {
            scale = parsed;
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
            "--only" => {
                let value = value_for("--only")?;
                only.extend(
                    value
                        .split(',')
                        .map(str::trim)
                        .filter(|s| !s.is_empty())
                        .map(String::from),
                );
            }
            "--seed" => {
                let value = value_for("--seed")?;
                spec.seed = Some(
                    value
                        .parse()
                        .map_err(|_| format!("invalid --seed value '{value}'"))?,
                );
            }
            "--set" => overrides.push(parse_override(&value_for("--set")?)?),
            "--jobs" => {
                let value = value_for("--jobs")?;
                spec.jobs = Some(
                    value
                        .parse()
                        .map_err(|_| format!("invalid --jobs value '{value}'"))?,
                );
            }
            "--backend" => spec.backend = Some(parse_backend(&value_for("--backend")?)?),
            "--worker" => workers.push(value_for("--worker")?),
            "--threads-per-item" => {
                spec.threads_per_item = Some(
                    match parse_threads_per_item(&value_for("--threads-per-item")?)? {
                        ThreadsPerItem::Sequential => ThreadsSpec::Sequential,
                        ThreadsPerItem::Auto => ThreadsSpec::Auto,
                        ThreadsPerItem::Fixed(n) => ThreadsSpec::Fixed(n),
                    },
                );
            }
            "--refresh" => spec.refresh = Some(true),
            "--out" => out = Some(value_for("--out")?),
            "--format" => format = Format::parse(&value_for("--format")?)?,
            "--quiet" => quiet = true,
            "--help" | "-h" => {
                print!("{SUBMIT_USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    if !only.is_empty() {
        spec.only = Some(only);
    }
    if !overrides.is_empty() {
        spec.overrides = Some(overrides.into_iter().collect());
    }
    if !workers.is_empty() {
        spec.workers = Some(workers);
    }
    if scale.is_full() {
        spec.full_scale = Some(true);
    }
    let transport =
        transport.ok_or_else(|| "submit needs --socket PATH or --tcp ADDR".to_string())?;
    Ok(SubmitOptions {
        transport,
        spec,
        format,
        out,
        quiet,
    })
}

fn run_submit(options: &SubmitOptions) -> Result<(), String> {
    let (reader, mut writer) = connect(&options.transport)?;
    write_frame(&mut writer, &Request::Submit(options.spec.clone()))
        .map_err(|e| format!("cannot send job: {e}"))?;
    let mut frames = FrameReader::new(reader);
    loop {
        let line = match frames
            .read_frame()
            .map_err(|e| format!("connection to the service failed: {e}"))?
        {
            Frame::Eof => {
                return Err("the service closed the connection before the job finished".to_string())
            }
            Frame::Idle => continue,
            Frame::Line(line) => line,
        };
        if line.trim().is_empty() {
            continue;
        }
        let event = serde_json::from_str::<Event>(&line)
            .map_err(|e| format!("unparseable event frame: {e}"))?;
        match event {
            Event::Accepted { job } => eprintln!("submitted as job {job}"),
            Event::Part { job, event } => {
                if !options.quiet {
                    eprintln!(
                        "job {job}: {}#{} {:?}",
                        event.scenario_id, event.part, event.state
                    );
                }
            }
            Event::Done {
                job,
                summary,
                cache,
            } => {
                if let Some(stats) = cache {
                    eprintln!("cache: {stats}");
                }
                render_summary(&summary, options.format, options.out.as_deref())?;
                eprintln!(
                    "job {job} completed: {} scenario(s), {} report(s)",
                    summary.outcomes.len(),
                    summary.report_count()
                );
                return Ok(());
            }
            Event::Error { job, message } => {
                return Err(match job {
                    Some(job) => format!("job {job} failed: {message}"),
                    None => message,
                })
            }
            Event::Rejected { reason } => {
                return Err(format!("the service refused the job: {reason}"))
            }
            Event::Cancelled { job } => {
                return Err(format!(
                    "job {job} was cancelled before completion; no summary was produced"
                ))
            }
            Event::ShuttingDown => {
                return Err("the service is shutting down; the job was not accepted".to_string())
            }
            other => return Err(format!("unexpected frame from the service: {other:?}")),
        }
    }
}

/// The `submit` client entry point.
pub fn submit_main(args: &[String]) -> ExitCode {
    let options = match parse_submit_options(args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("error: {message}\n\n{SUBMIT_USAGE}");
            return ExitCode::from(2);
        }
    };
    match run_submit(&options) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

// ----------------------------------------------------------------- status

const STATUS_USAGE: &str = "\
Usage: run_experiments status [options]

Queries a running `run_experiments serve` daemon.

Options:
  --socket PATH       connect to the daemon's Unix domain socket
  --tcp ADDR          connect to the daemon's TCP address
  --job N             show only job N (default: every job)
  --list              list the daemon's scenarios instead of its jobs
  --cancel N          cancel running job N: its pending items are drained
                      and nothing is written to the shared cache
  --shutdown          ask the daemon to drain and exit
  --help              show this help

Output is pretty-printed JSON (the job table, the scenario listing, or
a shutdown/cancel acknowledgement).
";

struct StatusOptions {
    transport: Transport,
    request: Request,
}

fn parse_status_options(args: &[String]) -> Result<StatusOptions, String> {
    let mut transport = None;
    let mut job = None;
    let mut list = false;
    let mut cancel = None;
    let mut shutdown = false;
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        i += 1;
        if let Some(parsed) = match_transport(arg, args.get(i))? {
            transport = Some(parsed);
            i += 1;
            continue;
        }
        match arg.as_str() {
            "--job" => {
                let value = args
                    .get(i)
                    .cloned()
                    .ok_or_else(|| "--job requires a value".to_string())?;
                i += 1;
                job = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("invalid --job value '{value}'"))?,
                );
            }
            "--list" => list = true,
            "--cancel" => {
                let value = args
                    .get(i)
                    .cloned()
                    .ok_or_else(|| "--cancel requires a value".to_string())?;
                i += 1;
                cancel = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("invalid --cancel value '{value}'"))?,
                );
            }
            "--shutdown" => shutdown = true,
            "--help" | "-h" => {
                print!("{STATUS_USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    let transport =
        transport.ok_or_else(|| "status needs --socket PATH or --tcp ADDR".to_string())?;
    let request = if shutdown {
        Request::Shutdown
    } else if let Some(job) = cancel {
        Request::Cancel { job }
    } else if list {
        Request::List
    } else {
        Request::Status { job }
    };
    Ok(StatusOptions { transport, request })
}

fn run_status(options: &StatusOptions) -> Result<(), String> {
    let first = request_one(&options.transport, &options.request)?;
    match first {
        Event::Jobs(jobs) => println!(
            "{}",
            serde_json::to_string_pretty(&jobs).expect("job table serializes")
        ),
        Event::Scenarios(infos) => println!(
            "{}",
            serde_json::to_string_pretty(&infos).expect("scenario listing serializes")
        ),
        Event::ShuttingDown => eprintln!("service acknowledged shutdown; draining"),
        Event::Cancelled { job } => eprintln!("job {job} cancelled; its pending items are drained"),
        Event::Error { message, .. } => return Err(message),
        other => return Err(format!("unexpected frame from the service: {other:?}")),
    }
    Ok(())
}

/// The `status` client entry point.
pub fn status_main(args: &[String]) -> ExitCode {
    let options = match parse_status_options(args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("error: {message}\n\n{STATUS_USAGE}");
            return ExitCode::from(2);
        }
    };
    match run_status(&options) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
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
    fn serve_options_require_a_transport_and_parse_knobs() {
        assert!(parse_serve_options(&args(&[])).is_err());
        let options = parse_serve_options(&args(&[
            "--socket",
            "/tmp/svc.sock",
            "--tcp",
            "127.0.0.1:0",
            "--jobs",
            "4",
            "--backend",
            "process",
            "--threads-per-item",
            "2",
            "--max-jobs",
            "2",
            "--item-deadline-ms",
            "3000",
            "--no-cache",
        ]))
        .unwrap();
        assert_eq!(options.transports.len(), 2);
        assert_eq!(options.jobs, 4);
        assert_eq!(options.backend, BackendSpec::Process);
        assert_eq!(options.threads_per_item, ThreadsPerItem::Fixed(2));
        assert_eq!(options.max_active_jobs, 2);
        assert_eq!(options.item_deadline_ms, Some(3000));
        assert!(options.no_cache);
        let defaults = parse_serve_options(&args(&["--socket", "/tmp/svc.sock"])).unwrap();
        assert_eq!(
            defaults.max_active_jobs,
            sim::service::DEFAULT_MAX_ACTIVE_JOBS
        );
        assert_eq!(defaults.item_deadline_ms, None);
        assert!(parse_serve_options(&args(&["--socket"])).is_err());
        assert!(parse_serve_options(&args(&["--socket", "p", "--backend", "warp"])).is_err());
        assert!(parse_serve_options(&args(&["--socket", "p", "--max-jobs", "0"])).is_err());
        assert!(
            parse_serve_options(&args(&["--socket", "p", "--item-deadline-ms", "never"])).is_err()
        );
    }

    #[test]
    fn submit_options_build_the_job_spec() {
        let options = parse_submit_options(&args(&[
            "--socket",
            "/tmp/svc.sock",
            "--only",
            "fig6,fig4",
            "--seed",
            "99",
            "--set",
            "steps=2",
            "--scale",
            "full",
            "--jobs",
            "3",
            "--backend",
            "local",
            "--threads-per-item",
            "auto",
            "--refresh",
            "--format",
            "json",
            "--quiet",
        ]))
        .unwrap();
        assert_eq!(
            options.spec.only,
            Some(vec!["fig6".to_string(), "fig4".to_string()])
        );
        assert_eq!(options.spec.seed, Some(99));
        assert_eq!(options.spec.full_scale, Some(true));
        assert_eq!(
            options.spec.overrides.as_ref().unwrap().get("steps"),
            Some(&"2".to_string())
        );
        assert_eq!(options.spec.jobs, Some(3));
        assert_eq!(options.spec.backend, Some(BackendSpec::Local));
        assert_eq!(options.spec.threads_per_item, Some(ThreadsSpec::Auto));
        assert_eq!(options.spec.refresh, Some(true));
        assert_eq!(options.format, Format::Json);
        assert!(options.quiet);
        // Defaults: an empty flag set is a bare full-registry submission.
        let bare = parse_submit_options(&args(&["--tcp", "127.0.0.1:7415"])).unwrap();
        assert_eq!(bare.spec, JobSpec::default());
        assert!(
            parse_submit_options(&args(&["--seed", "1"])).is_err(),
            "no transport"
        );
    }

    #[test]
    fn status_options_select_the_request() {
        let plain = parse_status_options(&args(&["--socket", "/tmp/s"])).unwrap();
        assert_eq!(plain.request, Request::Status { job: None });
        let one = parse_status_options(&args(&["--socket", "/tmp/s", "--job", "7"])).unwrap();
        assert_eq!(one.request, Request::Status { job: Some(7) });
        let list = parse_status_options(&args(&["--socket", "/tmp/s", "--list"])).unwrap();
        assert_eq!(list.request, Request::List);
        let stop = parse_status_options(&args(&["--socket", "/tmp/s", "--shutdown"])).unwrap();
        assert_eq!(stop.request, Request::Shutdown);
        let cancel = parse_status_options(&args(&["--socket", "/tmp/s", "--cancel", "3"])).unwrap();
        assert_eq!(cancel.request, Request::Cancel { job: 3 });
        assert!(parse_status_options(&args(&["--socket", "/tmp/s", "--cancel", "x"])).is_err());
        assert!(
            parse_status_options(&args(&["--job", "1"])).is_err(),
            "no transport"
        );
        assert!(parse_status_options(&args(&["--socket", "/tmp/s", "--job", "x"])).is_err());
    }

    #[test]
    fn connecting_to_a_missing_socket_is_a_clean_error() {
        let transport = Transport::Unix(PathBuf::from("/nonexistent/service.sock"));
        let error = match connect(&transport) {
            Ok(_) => panic!("connected to a nonexistent socket"),
            Err(error) => error,
        };
        assert!(error.contains("cannot connect"), "{error}");
    }
}
