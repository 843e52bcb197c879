//! End-to-end tests for the simulation service daemon: a real
//! `run_experiments serve` subprocess on a Unix domain socket, driven by
//! real client connections speaking the NDJSON job API.
//!
//! Covered: cold and warm submissions are byte-identical to the one-shot
//! runner (with per-job cache stats flipping from all-misses to
//! all-hits), two concurrent clients agree byte-for-byte, malformed
//! frames (a megabyte of nesting among them) are rejected without killing
//! the daemon, an oversized request
//! line closes only its own connection, `Cancel` stops a process-backend
//! job at an item boundary without warming the cache, and SIGTERM drains
//! an in-flight job to completion — even while a `worker.item=crash@2`
//! fault schedule keeps killing its workers mid-drain — before the
//! daemon exits 0.

#![cfg(unix)]

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use onionbots_bench::scenarios;
use sim::scenario_api::ScenarioParams;
use sim::service::{Event, Request};
use sim::wire::MAX_FRAME_BYTES;
use sim::{CacheStats, JobSpec, PartState, RunSummary, Runner};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_run_experiments")
}

/// A `run_experiments serve` subprocess bound to a fresh socket in a
/// fresh scratch directory, killed and cleaned up on drop.
struct Daemon {
    child: Child,
    socket: PathBuf,
    dir: PathBuf,
}

impl Daemon {
    fn spawn(tag: &str, cached: bool, extra_args: &[&str], envs: &[(&str, &str)]) -> Daemon {
        let dir =
            std::env::temp_dir().join(format!("onionbots-service-it-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let socket = dir.join("service.sock");
        let mut command = Command::new(bin());
        command.arg("serve").arg("--socket").arg(&socket);
        if cached {
            command.arg("--cache-dir").arg(dir.join("cache"));
        }
        command
            .args(extra_args)
            // The ambient environment must not smuggle a cache into
            // tests that want an uncached daemon.
            .env_remove("ONIONBOTS_CACHE_DIR")
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        for (key, value) in envs {
            command.env(key, value);
        }
        let mut child = command.spawn().unwrap();
        let deadline = Instant::now() + Duration::from_secs(120);
        while !socket.exists() {
            if let Some(status) = child.try_wait().unwrap() {
                panic!("daemon exited before binding its socket: {status}");
            }
            assert!(
                Instant::now() < deadline,
                "daemon never bound {}",
                socket.display()
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        Daemon { child, socket, dir }
    }

    fn connect(&self) -> UnixStream {
        UnixStream::connect(&self.socket).unwrap()
    }

    fn wait_for_exit(&mut self) -> i32 {
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            if let Some(status) = self.child.try_wait().unwrap() {
                return status.code().expect("daemon exited without a code");
            }
            assert!(Instant::now() < deadline, "daemon did not drain and exit");
            std::thread::sleep(Duration::from_millis(50));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn send_frame(writer: &mut impl Write, request: &Request) {
    let frame = serde_json::to_string(request).unwrap();
    writeln!(writer, "{frame}").unwrap();
    writer.flush().unwrap();
}

fn read_event(reader: &mut impl BufRead) -> Event {
    let mut line = String::new();
    loop {
        line.clear();
        let read = reader.read_line(&mut line).unwrap();
        assert!(read > 0, "daemon closed the connection unexpectedly");
        if line.trim().is_empty() {
            continue;
        }
        return serde_json::from_str(line.trim()).unwrap();
    }
}

/// Submits `spec` on `stream` and drives the connection to the final
/// frame; panics if the job errors out.
fn submit(stream: UnixStream, spec: &JobSpec) -> (RunSummary, Option<CacheStats>, Vec<Event>) {
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    send_frame(&mut writer, &Request::Submit(spec.clone()));
    let mut seen = Vec::new();
    loop {
        match read_event(&mut reader) {
            Event::Done { summary, cache, .. } => return (summary, cache, seen),
            Event::Error { job, message } => panic!("job {job:?} failed: {message}"),
            other => seen.push(other),
        }
    }
}

/// The test job: fig6 shortened to a debug-profile-friendly sweep.
fn fig6_spec(seed: u64) -> JobSpec {
    let mut overrides = BTreeMap::new();
    overrides.insert("steps".to_string(), "4".to_string());
    JobSpec {
        only: Some(vec!["fig6".to_string()]),
        seed: Some(seed),
        overrides: Some(overrides),
        ..JobSpec::default()
    }
}

/// What the one-shot runner produces for [`fig6_spec`] — the byte-level
/// reference every daemon submission must reproduce.
fn fig6_reference(seed: u64) -> RunSummary {
    let params = ScenarioParams::with_seed(seed).with_override("steps", "4");
    let selected = scenarios::registry().select(&["fig6".to_string()]).unwrap();
    Runner::new(params)
        .try_run_observed(&selected, &())
        .unwrap()
        .0
}

#[test]
fn cold_then_warm_submissions_match_the_one_shot_bytes() {
    let daemon = Daemon::spawn("coldwarm", true, &[], &[]);
    let reference = fig6_reference(2015).to_json();

    let (cold, cold_stats, events) = submit(daemon.connect(), &fig6_spec(2015));
    assert_eq!(cold.to_json(), reference, "cold submission diverged");
    let cold_stats = cold_stats.expect("cached daemon reports stats");
    assert_eq!(cold_stats.hits, 0, "{cold_stats:?}");
    assert!(cold_stats.misses > 0, "{cold_stats:?}");
    assert_eq!(cold_stats.stored, cold_stats.misses, "{cold_stats:?}");
    // The stream saw the job get accepted and every part progress.
    assert!(matches!(events.first(), Some(Event::Accepted { .. })));
    assert!(
        events.iter().any(|e| matches!(e, Event::Part { .. })),
        "no part lifecycle frames streamed"
    );

    let (warm, warm_stats, _) = submit(daemon.connect(), &fig6_spec(2015));
    assert_eq!(warm.to_json(), reference, "warm submission diverged");
    let warm_stats = warm_stats.expect("cached daemon reports stats");
    assert!(warm_stats.all_hits(), "{warm_stats:?}");
    assert_eq!(warm_stats.hits, cold_stats.misses, "{warm_stats:?}");
}

#[test]
fn two_concurrent_clients_share_the_cache_and_agree_byte_for_byte() {
    let daemon = Daemon::spawn("concurrent", true, &[], &[]);
    let reference = fig6_reference(77).to_json();
    let spec = fig6_spec(77);
    let (first, second) = std::thread::scope(|scope| {
        let a = scope.spawn(|| submit(daemon.connect(), &spec));
        let b = scope.spawn(|| submit(daemon.connect(), &spec));
        (a.join().unwrap(), b.join().unwrap())
    });
    assert_eq!(first.0.to_json(), reference, "client A diverged");
    assert_eq!(second.0.to_json(), reference, "client B diverged");
    // Both clients were served with stats; between them every part was
    // either computed once or replayed, never recomputed redundantly
    // into divergent bytes.
    assert!(first.1.is_some() && second.1.is_some());
}

#[test]
fn malformed_frames_are_rejected_without_killing_the_daemon() {
    let daemon = Daemon::spawn("malformed", false, &[], &[]);

    // An abrupt no-data disconnect must be shrugged off.
    drop(daemon.connect());

    let stream = daemon.connect();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    // Garbage that is not JSON at all.
    writeln!(writer, "this is not a frame").unwrap();
    writer.flush().unwrap();
    match read_event(&mut reader) {
        Event::Error { job: None, message } => {
            assert!(message.contains("malformed"), "{message}")
        }
        other => panic!("expected a malformed-frame error, got {other:?}"),
    }
    // A megabyte of nesting: refused at the parser's depth bound instead
    // of overflowing the connection thread's stack (which aborts the
    // whole daemon).
    writeln!(writer, "{}", "[".repeat(1 << 20)).unwrap();
    writer.flush().unwrap();
    match read_event(&mut reader) {
        Event::Error { job: None, message } => {
            assert!(message.contains("nesting deeper"), "{message}")
        }
        other => panic!("expected a nesting error, got {other:?}"),
    }
    // Well-formed JSON that fails validation: an unknown scenario.
    let bogus = JobSpec {
        only: Some(vec!["no-such-figure".to_string()]),
        ..JobSpec::default()
    };
    send_frame(&mut writer, &Request::Submit(bogus));
    match read_event(&mut reader) {
        Event::Error { job: None, message } => {
            assert!(message.contains("no-such-figure"), "{message}")
        }
        other => panic!("expected an unknown-scenario error, got {other:?}"),
    }
    // The same connection still answers real requests afterwards...
    send_frame(&mut writer, &Request::List);
    match read_event(&mut reader) {
        Event::Scenarios(infos) => {
            assert!(infos.iter().any(|info| info.id == "fig6"), "{infos:?}")
        }
        other => panic!("expected the scenario listing, got {other:?}"),
    }
    // ... and no job was ever created by the rejected submissions.
    send_frame(&mut writer, &Request::Status { job: None });
    match read_event(&mut reader) {
        Event::Jobs(jobs) => assert!(jobs.is_empty(), "{jobs:?}"),
        other => panic!("expected the job table, got {other:?}"),
    }
    // The next client is served too.
    let stream = daemon.connect();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    send_frame(&mut writer, &Request::List);
    match read_event(&mut reader) {
        Event::Scenarios(infos) => assert!(!infos.is_empty()),
        other => panic!("expected the scenario listing, got {other:?}"),
    }
}

#[test]
fn sigterm_drains_an_inflight_job_despite_crashing_workers_then_exits_zero() {
    // Process backend with crash injection inherited by every worker:
    // each worker dies after completing one item, so finishing the drain
    // requires the executor to keep re-queueing and re-spawning while the
    // daemon is shutting down.
    let mut daemon = Daemon::spawn(
        "drain",
        false,
        &["--backend", "process", "--jobs", "2"],
        &[(sim::FAULTS_ENV, "worker.item=crash@2")],
    );
    let reference = fig6_reference(7).to_json();

    let stream = daemon.connect();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    send_frame(&mut writer, &Request::Submit(fig6_spec(7)));
    // Wait until the job is in flight, then pull the trigger.
    match read_event(&mut reader) {
        Event::Accepted { .. } => {}
        other => panic!("expected acceptance, got {other:?}"),
    }
    let killed = Command::new("kill")
        .arg("-TERM")
        .arg(daemon.child.id().to_string())
        .status()
        .unwrap();
    assert!(killed.success());
    // The in-flight job must still stream to completion with the
    // reference bytes — dying workers and all.
    let summary = loop {
        match read_event(&mut reader) {
            Event::Done { summary, .. } => break summary,
            Event::Error { job, message } => panic!("job {job:?} failed during drain: {message}"),
            _ => {}
        }
    };
    assert_eq!(summary.to_json(), reference, "drained job diverged");
    drop(writer);
    drop(reader);
    // Drained daemons exit 0; anything else is a crash.
    assert_eq!(daemon.wait_for_exit(), 0);
    // And the socket is gone: no half-dead endpoint is left behind.
    assert!(!daemon.socket.exists(), "socket file survived the shutdown");
}

#[test]
fn a_full_daemon_rejects_submissions_instead_of_queueing() {
    // One job slot, and a `service.job` delay failpoint that holds the
    // first accepted job in Running long enough to probe the admission
    // bound without a timing race.
    let daemon = Daemon::spawn(
        "admission",
        false,
        &["--max-jobs", "1"],
        &[("ONIONBOTS_FAULTS", "service.job=delay:3000@1")],
    );
    let a = daemon.connect();
    let mut a_writer = a.try_clone().unwrap();
    let mut a_reader = BufReader::new(a);
    send_frame(&mut a_writer, &Request::Submit(fig6_spec(21)));
    match read_event(&mut a_reader) {
        Event::Accepted { .. } => {}
        other => panic!("expected acceptance, got {other:?}"),
    }
    // The second submission bounces with Rejected — nothing queues, the
    // connection survives, and no job row is created for it.
    let b = daemon.connect();
    let mut b_writer = b.try_clone().unwrap();
    let mut b_reader = BufReader::new(b);
    send_frame(&mut b_writer, &Request::Submit(fig6_spec(22)));
    match read_event(&mut b_reader) {
        Event::Rejected { reason } => assert!(reason.contains("full"), "{reason}"),
        other => panic!("expected Rejected, got {other:?}"),
    }
    send_frame(&mut b_writer, &Request::Status { job: None });
    match read_event(&mut b_reader) {
        Event::Jobs(jobs) => assert_eq!(jobs.len(), 1, "a rejected job left a row: {jobs:?}"),
        other => panic!("expected the job table, got {other:?}"),
    }
    // The occupying job still completes with the reference bytes...
    let summary = loop {
        match read_event(&mut a_reader) {
            Event::Done { summary, .. } => break summary,
            Event::Error { job, message } => panic!("job {job:?} failed: {message}"),
            _ => {}
        }
    };
    assert_eq!(summary.to_json(), fig6_reference(21).to_json());
    // ... which frees the slot: the bounced client's retry is admitted.
    let (retry, _, _) = submit(daemon.connect(), &fig6_spec(22));
    assert_eq!(retry.to_json(), fig6_reference(22).to_json());
}

#[test]
fn cancel_over_the_wire_drains_the_job_and_never_warms_the_cache() {
    // The delay failpoint holds job 1 mid-run so the cancel provably
    // lands while the job is Running, before any item executed.
    let daemon = Daemon::spawn(
        "cancel",
        true,
        &[],
        &[("ONIONBOTS_FAULTS", "service.job=delay:3000@1")],
    );
    let a = daemon.connect();
    let mut a_writer = a.try_clone().unwrap();
    let mut a_reader = BufReader::new(a);
    send_frame(&mut a_writer, &Request::Submit(fig6_spec(31)));
    let job = match read_event(&mut a_reader) {
        Event::Accepted { job } => job,
        other => panic!("expected acceptance, got {other:?}"),
    };
    // A second connection cancels the running job and gets an ack.
    let b = daemon.connect();
    let mut b_writer = b.try_clone().unwrap();
    let mut b_reader = BufReader::new(b);
    send_frame(&mut b_writer, &Request::Cancel { job });
    match read_event(&mut b_reader) {
        Event::Cancelled { job: acked } => assert_eq!(acked, job),
        other => panic!("expected a cancel acknowledgement, got {other:?}"),
    }
    // The submitter's stream ends with Cancelled, never Done.
    loop {
        match read_event(&mut a_reader) {
            Event::Cancelled { job: cancelled } => {
                assert_eq!(cancelled, job);
                break;
            }
            Event::Done { .. } => panic!("cancelled job ran to completion"),
            Event::Error { job, message } => panic!("job {job:?} failed: {message}"),
            _ => {}
        }
    }
    // Cancelling an already-cancelled job is a clean per-request error.
    send_frame(&mut b_writer, &Request::Cancel { job });
    match read_event(&mut b_reader) {
        Event::Error { message, .. } => assert!(message.contains("not running"), "{message}"),
        other => panic!("expected a not-running error, got {other:?}"),
    }
    // Nothing from the cancelled job reached the shared cache: a rerun
    // of the same spec starts fully cold, then matches the reference.
    let (rerun, stats, _) = submit(daemon.connect(), &fig6_spec(31));
    assert_eq!(rerun.to_json(), fig6_reference(31).to_json());
    let stats = stats.expect("cached daemon reports stats");
    assert_eq!(stats.hits, 0, "cancelled job warmed the cache: {stats:?}");
    assert!(stats.misses > 0, "{stats:?}");
}

#[test]
fn cancel_stops_a_process_backend_job_at_an_item_boundary() {
    // One worker subprocess runs the whole job and inherits the delay
    // schedule, so its third item stalls while the cancel lands; the
    // fourth is never taken.
    let daemon = Daemon::spawn(
        "cancel-process",
        true,
        &["--backend", "process", "--jobs", "1"],
        &[("ONIONBOTS_FAULTS", "worker.item=delay:2000@3")],
    );
    let a = daemon.connect();
    let mut a_writer = a.try_clone().unwrap();
    let mut a_reader = BufReader::new(a);
    send_frame(&mut a_writer, &Request::Submit(fig6_spec(51)));
    let job = match read_event(&mut a_reader) {
        Event::Accepted { job } => job,
        other => panic!("expected acceptance, got {other:?}"),
    };
    // Wait until the third item is handed to the worker, then cancel.
    let mut started = 0;
    while started < 3 {
        match read_event(&mut a_reader) {
            Event::Part { event, .. } if event.state == PartState::Started => started += 1,
            Event::Done { .. } => panic!("job finished before the cancel"),
            Event::Error { job, message } => panic!("job {job:?} failed: {message}"),
            _ => {}
        }
    }
    let b = daemon.connect();
    let mut b_writer = b.try_clone().unwrap();
    let mut b_reader = BufReader::new(b);
    send_frame(&mut b_writer, &Request::Cancel { job });
    match read_event(&mut b_reader) {
        Event::Cancelled { job: acked } => assert_eq!(acked, job),
        other => panic!("expected a cancel acknowledgement, got {other:?}"),
    }
    loop {
        match read_event(&mut a_reader) {
            Event::Cancelled { job: cancelled } => {
                assert_eq!(cancelled, job);
                break;
            }
            Event::Part { event, .. } => assert_ne!(
                event.state,
                PartState::Started,
                "an item started after the cancel"
            ),
            Event::Done { .. } => panic!("cancelled job ran to completion"),
            Event::Error { job, message } => panic!("job {job:?} failed: {message}"),
            _ => {}
        }
    }
    // The same cache misses everywhere afterwards, and the daemon's next
    // job is byte-identical to a one-shot local run.
    let (rerun, stats, _) = submit(daemon.connect(), &fig6_spec(51));
    let stats = stats.expect("cached daemon reports stats");
    assert_eq!(stats.hits, 0, "cancelled job warmed the cache: {stats:?}");
    assert_eq!(stats.misses, 4, "{stats:?}");
    assert_eq!(rerun.to_json(), fig6_reference(51).to_json());
}

#[test]
fn an_oversized_request_line_costs_only_its_own_connection() {
    let daemon = Daemon::spawn("oversized", false, &[], &[]);
    let stream = daemon.connect();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    // One byte over the bound and no newline: the daemon must refuse it
    // instead of buffering forever.
    writer
        .write_all(&vec![b'x'; MAX_FRAME_BYTES + 1])
        .expect("the daemon reads the whole oversized line before refusing it");
    match read_event(&mut reader) {
        Event::Error { job: None, message } => {
            assert!(message.contains("line limit"), "{message}")
        }
        other => panic!("expected a frame-limit error, got {other:?}"),
    }
    let mut rest = String::new();
    reader.read_to_string(&mut rest).unwrap();
    assert!(rest.is_empty(), "the connection kept talking: {rest:?}");
    // The daemon keeps serving the next client.
    let next = daemon.connect();
    let mut next_writer = next.try_clone().unwrap();
    let mut next_reader = BufReader::new(next);
    send_frame(&mut next_writer, &Request::List);
    match read_event(&mut next_reader) {
        Event::Scenarios(infos) => {
            assert!(infos.iter().any(|info| info.id == "fig6"), "{infos:?}")
        }
        other => panic!("expected the scenario listing, got {other:?}"),
    }
}

#[test]
fn a_client_that_vanishes_mid_frame_never_stops_the_job_or_the_daemon() {
    // The `service.sink` partial failpoint tears the submitter's second
    // event frame in half and breaks the sink — the daemon-side image of
    // a client that vanished mid-frame. The client really does hang up
    // its write half too, so the handler sees EOF after the job.
    let daemon = Daemon::spawn(
        "sinkdrop",
        true,
        &[],
        &[("ONIONBOTS_FAULTS", "service.sink=partial@2")],
    );
    let stream = daemon.connect();
    let mut writer = stream.try_clone().unwrap();
    send_frame(&mut writer, &Request::Submit(fig6_spec(41)));
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    // Drain whatever arrives until the daemon closes the connection: the
    // accepted frame, then the torn half-frame, then EOF once the job
    // has finished server-side. The job must NOT be cancelled by the
    // broken sink.
    let mut raw = String::new();
    BufReader::new(stream).read_to_string(&mut raw).unwrap();
    assert!(raw.contains("Accepted"), "no acceptance frame: {raw:?}");
    assert!(
        !raw.contains("Done"),
        "the torn sink delivered a final frame anyway: {raw:?}"
    );
    // The daemon is alive and the orphaned job completed and warmed the
    // shared cache: the same spec replays as all hits, byte-identically.
    let (warm, stats, _) = submit(daemon.connect(), &fig6_spec(41));
    assert_eq!(warm.to_json(), fig6_reference(41).to_json());
    let stats = stats.expect("cached daemon reports stats");
    assert!(stats.all_hits(), "orphaned job did not warm: {stats:?}");
}

#[test]
fn shutdown_request_via_the_protocol_also_drains_and_exits_zero() {
    let mut daemon = Daemon::spawn("protostop", false, &[], &[]);
    let stream = daemon.connect();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    send_frame(&mut writer, &Request::Shutdown);
    match read_event(&mut reader) {
        Event::ShuttingDown => {}
        other => panic!("expected a shutdown acknowledgement, got {other:?}"),
    }
    assert_eq!(daemon.wait_for_exit(), 0);
}
