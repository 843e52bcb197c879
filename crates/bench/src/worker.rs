//! The hidden `run_experiments worker` mode: the subprocess side of the
//! `--backend process` dispatcher ([`sim::Dispatcher::processes`]).
//!
//! A worker serves one dispatcher channel over its stdio with
//! [`sim::serve_connection`], the same loop a worker host runs per TCP
//! connection and a `--backend local` worker thread runs over its socket:
//! a `Hello`/`Welcome` version handshake, then one [`sim::WorkItem`] per
//! `Assign` frame, looked up by id in the same
//! [`registry`](crate::scenarios::registry) the parent uses and executed
//! with its precomputed seed, answered by one `Completed` frame carrying
//! the [`sim::PartResult`]. Per-item failures (an unknown scenario id, a
//! part that panics) are reported *in* the result, so the parent fails
//! the run once instead of respawning the worker; the parent aggregates
//! status and prints every summary. A worker writes nothing to stdout
//! but frames, and nothing user-facing to stderr beyond a panic's own
//! message.
//!
//! EOF on stdin ends the worker; the dispatcher kills and reaps it when
//! it closes the channel. Crash-recovery tests inject deterministic
//! deaths through a [`sim::FAULTS_ENV`] schedule: `worker.item=crash@2`
//! makes every worker incarnation exit (status 101, without answering)
//! on reading its second item, and `remote.host.item=crash@2` does the
//! same to a worker host.
//!
//! The `run_experiments serve-worker --listen ADDR` mode
//! ([`serve_worker_main`]) is the same loop promoted to a standalone
//! **worker host** for `--backend remote`: registry loaded once, one
//! thread per dispatcher connection, the identical frames over TCP (see
//! [`sim::wire`]).

use std::io;
use std::net::TcpListener;
use std::process::ExitCode;

use sim::faults::points::WORKER_ITEM;
use sim::{serve_connection, serve_remote_host};

use crate::cli::Args;
use crate::scenarios;

/// Arms this process's failpoint plan from the [`sim::FAULTS_ENV`]
/// schedule.
fn arm_worker_faults() {
    if let Err(error) = sim::faults::arm_from_env() {
        // A bad schedule disables injection rather than killing a worker
        // that real work was dispatched to.
        eprintln!(
            "warning: ignoring invalid {} schedule: {error}",
            sim::FAULTS_ENV
        );
    }
}

/// Serves one dispatcher channel over stdin/stdout until EOF.
///
/// # Errors
/// Returns the underlying I/O error when the channel breaks or the
/// parent violates the protocol (not a recoverable condition).
pub fn run_worker() -> io::Result<()> {
    let registry = scenarios::registry();
    arm_worker_faults();
    serve_connection(
        io::stdin().lock(),
        io::stdout().lock(),
        |id| registry.get(id),
        WORKER_ITEM,
    )
}

/// Usage text for the `serve-worker` subcommand.
pub const SERVE_WORKER_USAGE: &str = "\
Usage: run_experiments serve-worker --listen ADDR

Runs a standalone worker host for `--backend remote`: loads the scenario
registry once, accepts dispatcher connections on ADDR and serves
newline-delimited JSON work-item frames until the process is killed.

ADDR is a TCP socket address like 127.0.0.1:7461; port 0 picks a free
port. The actually bound address is printed as the first line on stdout
so scripts can use `--listen 127.0.0.1:0` and read the port back.

Options:
  --listen ADDR   TCP socket address to accept dispatchers on (required)
  --help          show this help
";

/// Parses the `serve-worker` flags into the address to listen on.
fn parse_listen(args: &[String]) -> Result<String, String> {
    let mut listen = None;
    let mut args = Args::new(args);
    while let Some(flag) = args.flag() {
        match flag {
            "--listen" => listen = Some(args.value(flag)?.to_string()),
            "--help" | "-h" => {
                print!("{SERVE_WORKER_USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    listen.ok_or_else(|| "serve-worker requires --listen ADDR".to_string())
}

/// Entry point for `run_experiments serve-worker` (args exclude the
/// subcommand word). Runs until killed.
pub fn serve_worker_main(args: &[String]) -> ExitCode {
    let addr = match parse_listen(args) {
        Ok(addr) => addr,
        Err(message) => {
            eprintln!("error: {message}\n\n{SERVE_WORKER_USAGE}");
            return ExitCode::from(2);
        }
    };
    let listener = match TcpListener::bind(&addr) {
        Ok(listener) => listener,
        Err(error) => {
            eprintln!("error: cannot listen on {addr}: {error}");
            return ExitCode::FAILURE;
        }
    };
    let bound = match listener.local_addr() {
        Ok(bound) => bound,
        Err(error) => {
            eprintln!("error: cannot resolve the bound address: {error}");
            return ExitCode::FAILURE;
        }
    };
    // The first stdout line is machine-readable: scripts bind port 0 and
    // read the real address back. (Rust's stdout is line-buffered, so
    // this lands before the accept loop blocks.)
    println!("{bound}");
    let registry = scenarios::registry();
    arm_worker_faults();
    eprintln!(
        "worker host: serving {} scenario(s) on {bound}",
        registry.len()
    );
    match serve_remote_host(listener, |id| registry.get(id)) {
        // The accept loop never returns Ok; a worker host runs until
        // killed.
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("worker host error: {error}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::parse_listen;
    use sim::executor::{run_work_item, PartResult, WorkItem};
    use sim::scenario_api::ScenarioParams;
    use sim::wire::{write_frame, DispatchFrame, WorkerFrame, PROTOCOL_VERSION};
    use sim::{faults, serve_connection};

    use crate::scenarios;

    /// Drives the worker loop against the real registry through in-memory
    /// buffers, mirroring what `run_worker` wires to stdin/stdout: a
    /// handshake, then one assignment per item.
    fn serve(items: &[WorkItem]) -> Vec<PartResult> {
        let registry = scenarios::registry();
        let mut input = Vec::new();
        let hello = DispatchFrame::Hello {
            protocol: PROTOCOL_VERSION,
        };
        write_frame(&mut input, &hello).unwrap();
        for item in items {
            write_frame(&mut input, &DispatchFrame::Assign(item.clone())).unwrap();
        }
        let mut output = Vec::new();
        let point = faults::points::WORKER_ITEM;
        serve_connection(&input[..], &mut output, |id| registry.get(id), point).unwrap();
        let mut frames = std::str::from_utf8(&output)
            .unwrap()
            .lines()
            .map(|line| serde_json::from_str::<WorkerFrame>(line).unwrap());
        assert!(matches!(frames.next(), Some(WorkerFrame::Welcome { .. })));
        frames
            .map(|frame| match frame {
                WorkerFrame::Completed(result) => result,
                other => panic!("expected a result, got {other:?}"),
            })
            .collect()
    }

    #[test]
    fn worker_resolves_registry_scenarios_by_id_and_matches_in_process_runs() {
        let registry = scenarios::registry();
        let fig6 = registry.get("fig6").unwrap();
        let params = ScenarioParams::with_seed(7)
            .with_override("steps", "2")
            .with_override("step-nodes", "500");
        let items: Vec<WorkItem> = (0..2)
            .map(|part| WorkItem::new(&*fig6, part, &params))
            .collect();
        let results = serve(&items);
        assert_eq!(results.len(), 2);
        for (item, result) in items.iter().zip(&results) {
            assert_eq!(result.error, None);
            assert_eq!(result.fingerprint, item.fingerprint);
            assert_eq!(
                result.reports,
                run_work_item(&*fig6, item),
                "worker output must equal in-process execution"
            );
        }
    }

    #[test]
    fn serve_worker_flags_parse_through_the_shared_cursor() {
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            parse_listen(&args(&["--listen", "127.0.0.1:0"])),
            Ok("127.0.0.1:0".to_string())
        );
        assert_eq!(
            parse_listen(&args(&["--listen"])),
            Err("--listen requires a value".to_string())
        );
        assert_eq!(
            parse_listen(&args(&["--port", "1"])),
            Err("unknown option '--port'".to_string())
        );
        assert_eq!(
            parse_listen(&args(&[])),
            Err("serve-worker requires --listen ADDR".to_string())
        );
    }

    #[test]
    fn worker_reports_unknown_scenarios_per_item_instead_of_dying() {
        let registry = scenarios::registry();
        let fig6 = registry.get("fig6").unwrap();
        let params = ScenarioParams::with_seed(1).with_override("steps", "1");
        let mut stranger = WorkItem::new(&*fig6, 0, &params);
        stranger.scenario_id = "not-a-scenario".to_string();
        let results = serve(&[stranger]);
        assert_eq!(results.len(), 1);
        let error = results[0].error.as_deref().unwrap();
        assert!(error.contains("not-a-scenario"), "{error}");
        assert!(results[0].reports.is_empty());
    }
}
