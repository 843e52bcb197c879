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
//! the chosen execution backend (`--backend local|process|remote`), built
//! by the same [`sim::ServiceConfig::runner`] path a daemon job takes
//! (the one-shot front end lives in [`onionbots_bench::cli`]); results
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
//! concurrent clients over one Unix domain socket;
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

use onionbots_bench::{cli, service_cli, worker};

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
    cli::one_shot_main(&args)
}
