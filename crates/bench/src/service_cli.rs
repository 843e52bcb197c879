//! The `run_experiments serve` / `submit` / `status` front ends over the
//! simulation service in [`sim::service`].
//!
//! `serve` starts the persistent daemon: the scenario registry is loaded
//! once, the result cache and execution backend are owned centrally, and
//! concurrent clients speak newline-delimited JSON over one Unix domain
//! socket (`--socket PATH`). `submit` is the client: it sends one job,
//! streams the per-part progress frames to stderr as they land, and
//! renders the final summary through the exact pipeline the one-shot
//! CLI uses ([`crate::output`]), so stdout and `summary.json` are
//! byte-identical to a local run with the same seed. `status` queries
//! the daemon's job table, lists its scenarios, or asks it to shut down
//! gracefully.

use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::AtomicBool;

use sim::service::{Event, Request};
use sim::wire::{write_frame, FrameReader};
use sim::{JobSpec, Service, ServiceConfig};

use crate::cli::{number, Args, JobFlags, ServiceFlags};
use crate::output::render_summary;
use crate::scenarios;

/// Opens a client connection to the daemon's socket: a read half and a
/// write half.
fn connect(socket: &Path) -> Result<(UnixStream, UnixStream), String> {
    let stream = UnixStream::connect(socket)
        .map_err(|e| format!("cannot connect to socket {}: {e}", socket.display()))?;
    let reader = stream
        .try_clone()
        .map_err(|e| format!("cannot clone socket: {e}"))?;
    Ok((reader, stream))
}

/// Reads the daemon's next event frame; EOF is the error `eof`.
fn next_event(frames: &mut FrameReader<UnixStream>, eof: &str) -> Result<Event, String> {
    let line = frames
        .next_line()
        .map_err(|e| format!("connection to the service failed: {e}"))?
        .ok_or_else(|| eof.to_string())?;
    serde_json::from_str(&line).map_err(|e| format!("unparseable event frame: {e}"))
}

/// Sends one request frame and returns the daemon's single response
/// frame. Every non-submission request is answered with exactly one
/// event, so the client never has to wait for the connection to close
/// (dropping a cloned read/write half does not shut the socket down).
fn request_one(socket: &Path, request: &Request) -> Result<Event, String> {
    let (reader, mut writer) = connect(socket)?;
    write_frame(&mut writer, request).map_err(|e| format!("cannot send request: {e}"))?;
    next_event(
        &mut FrameReader::new(reader),
        "the service closed the connection without answering",
    )
}

// ------------------------------------------------------------------ serve

const SERVE_USAGE: &str = "\
Usage: run_experiments serve [options]

Starts the persistent simulation service. Clients connect with
`run_experiments submit` / `status` and speak newline-delimited JSON.

Options:
  --socket PATH       listen on a Unix domain socket at PATH (required)
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
    socket: PathBuf,
    /// The per-job defaults: `--jobs`, `--backend`, `--worker` and
    /// `--threads-per-item`, parsed exactly like a job's own flags.
    defaults: JobSpec,
    service: ServiceFlags,
    max_active_jobs: usize,
}

fn parse_serve_options(args: &[String]) -> Result<ServeOptions, String> {
    let mut socket = None;
    let mut defaults = JobFlags::default();
    let mut service = ServiceFlags::default();
    let mut max_active_jobs = sim::service::DEFAULT_MAX_ACTIVE_JOBS;
    let mut args = Args::new(args);
    while let Some(flag) = args.flag() {
        if service.apply(flag, &mut args)? {
            continue;
        }
        match flag {
            "--socket" => socket = Some(PathBuf::from(args.value(flag)?)),
            "--jobs" | "--backend" | "--worker" | "--threads-per-item" => {
                defaults.apply(flag, &mut args)?;
            }
            "--max-jobs" => {
                let value = args.value(flag)?;
                max_active_jobs =
                    value.parse().ok().filter(|&n| n >= 1).ok_or_else(|| {
                        format!("invalid --max-jobs value '{value}' (need N >= 1)")
                    })?;
            }
            "--help" | "-h" => {
                print!("{SERVE_USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    Ok(ServeOptions {
        socket: socket.ok_or_else(|| "serve needs --socket PATH".to_string())?,
        defaults: defaults.spec,
        service,
        max_active_jobs,
    })
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
    // Worker subprocesses inherit the daemon's environment, schedule
    // included, so no schedule is exported explicitly.
    let config = ServiceConfig {
        max_active_jobs: options.max_active_jobs,
        ..options.service.config(&options.defaults, "")
    };
    if let Some(cache) = &config.cache {
        eprintln!("service: caching results under {}", cache.dir().display());
    }
    let service = Service::new(scenarios::registry(), config);
    eprintln!("service: starting on socket {}", options.socket.display());
    if let Err(error) = service.serve_unix(&options.socket, stop) {
        eprintln!(
            "error: cannot serve socket {}: {error}",
            options.socket.display()
        );
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
  --socket PATH       connect to the daemon's Unix domain socket (required)
  --only ID[,ID...]   run only the named scenarios (repeatable)
  --scale quick|full  population scale (default: quick)
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

pub(crate) struct SubmitOptions {
    socket: PathBuf,
    pub(crate) job: JobFlags,
    quiet: bool,
}

pub(crate) fn parse_submit_options(args: &[String]) -> Result<SubmitOptions, String> {
    let mut socket = None;
    let mut job = JobFlags::default();
    let mut quiet = false;
    let mut args = Args::new(args);
    while let Some(flag) = args.flag() {
        if job.apply(flag, &mut args)? {
            continue;
        }
        match flag {
            "--socket" => socket = Some(PathBuf::from(args.value(flag)?)),
            "--quiet" => quiet = true,
            "--help" | "-h" => {
                print!("{SUBMIT_USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    Ok(SubmitOptions {
        socket: socket.ok_or_else(|| "submit needs --socket PATH".to_string())?,
        job,
        quiet,
    })
}

fn run_submit(options: &SubmitOptions) -> Result<(), String> {
    let (reader, mut writer) = connect(&options.socket)?;
    write_frame(&mut writer, &Request::Submit(options.job.spec.clone()))
        .map_err(|e| format!("cannot send job: {e}"))?;
    let mut frames = FrameReader::new(reader);
    loop {
        let eof = "the service closed the connection before the job finished";
        match next_event(&mut frames, eof)? {
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
                let out = options.job.out.as_deref();
                render_summary(&summary, options.job.format, out, &mut std::io::stdout())?;
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
  --socket PATH       connect to the daemon's Unix domain socket (required)
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
    socket: PathBuf,
    request: Request,
}

fn parse_status_options(args: &[String]) -> Result<StatusOptions, String> {
    let mut socket = None;
    let mut job = None;
    let mut list = false;
    let mut cancel = None;
    let mut shutdown = false;
    let mut args = Args::new(args);
    while let Some(flag) = args.flag() {
        match flag {
            "--socket" => socket = Some(PathBuf::from(args.value(flag)?)),
            "--job" => job = Some(number(flag, args.value(flag)?)?),
            "--list" => list = true,
            "--cancel" => cancel = Some(number(flag, args.value(flag)?)?),
            "--shutdown" => shutdown = true,
            "--help" | "-h" => {
                print!("{STATUS_USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    let socket = socket.ok_or_else(|| "status needs --socket PATH".to_string())?;
    let request = if shutdown {
        Request::Shutdown
    } else if let Some(job) = cancel {
        Request::Cancel { job }
    } else if list {
        Request::List
    } else {
        Request::Status { job }
    };
    Ok(StatusOptions { socket, request })
}

fn run_status(options: &StatusOptions) -> Result<(), String> {
    let first = request_one(&options.socket, &options.request)?;
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
    use crate::output::Format;
    use sim::{BackendSpec, ThreadsPerItem};

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn serve_options_require_a_transport_and_parse_knobs() {
        assert!(parse_serve_options(&args(&[])).is_err());
        let options = parse_serve_options(&args(&[
            "--socket",
            "/tmp/svc.sock",
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
        assert_eq!(options.socket, PathBuf::from("/tmp/svc.sock"));
        assert_eq!(options.defaults.jobs, Some(4));
        assert_eq!(options.defaults.backend, Some(BackendSpec::Process));
        assert_eq!(
            options.defaults.threads_per_item,
            Some(ThreadsPerItem::Fixed(2))
        );
        assert_eq!(options.max_active_jobs, 2);
        assert_eq!(options.service.item_deadline_ms, Some(3000));
        assert!(options.service.no_cache);
        let defaults = parse_serve_options(&args(&["--socket", "/tmp/svc.sock"])).unwrap();
        assert_eq!(
            defaults.max_active_jobs,
            sim::service::DEFAULT_MAX_ACTIVE_JOBS
        );
        assert_eq!(defaults.service.item_deadline_ms, None);
        // Job flags that are not per-job defaults stay unknown to serve.
        assert!(parse_serve_options(&args(&["--socket", "p", "--only", "fig6"])).is_err());
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
            options.job.spec.only,
            Some(vec!["fig6".to_string(), "fig4".to_string()])
        );
        assert_eq!(options.job.spec.seed, Some(99));
        assert_eq!(options.job.spec.full_scale, Some(true));
        assert_eq!(
            options.job.spec.overrides.as_ref().unwrap().get("steps"),
            Some(&"2".to_string())
        );
        assert_eq!(options.job.spec.jobs, Some(3));
        assert_eq!(options.job.spec.backend, Some(BackendSpec::Local));
        assert_eq!(
            options.job.spec.threads_per_item,
            Some(ThreadsPerItem::Auto)
        );
        assert_eq!(options.job.spec.refresh, Some(true));
        assert_eq!(options.job.format, Format::Json);
        assert!(options.quiet);
        // Defaults: an empty flag set is a bare full-registry submission.
        let bare = parse_submit_options(&args(&["--socket", "/tmp/svc.sock"])).unwrap();
        assert_eq!(bare.job.spec, JobSpec::default());
        assert!(
            parse_submit_options(&args(&["--seed", "1"])).is_err(),
            "no socket"
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
            "no socket"
        );
        assert!(parse_status_options(&args(&["--socket", "/tmp/s", "--job", "x"])).is_err());
    }

    #[test]
    fn connecting_to_a_missing_socket_is_a_clean_error() {
        let error = match connect(Path::new("/nonexistent/service.sock")) {
            Ok(_) => panic!("connected to a nonexistent socket"),
            Err(error) => error,
        };
        assert!(error.contains("cannot connect"), "{error}");
    }
}
