//! Integration tests for the remote (multi-host TCP) backend against
//! real registered scenarios and real `serve-worker` host processes:
//! `RunSummary` byte-equality remote-vs-local at several fleet sizes
//! (cold and warm), host-kill recovery with identical output, retry
//! exhaustion against a host that keeps corrupting the stream, a
//! panicking part that fails the run once, fatal rejection by a host
//! that refuses the handshake, a host whose reply nests past the parser's
//! depth bound (abandoned; the run finishes on the other host), a reply
//! that pauses mid-character, a clean failure on an endless line, and
//! cache sharing (parts computed by remote hosts replay as local hits,
//! byte-identically — and a failed remote run never poisons the cache).
//!
//! Worker hosts are this package's own `run_experiments` binary in its
//! `serve-worker` mode, bound to `127.0.0.1:0`; each host prints its
//! bound address as its first stdout line, which is how the tests learn
//! the ephemeral ports.

mod common;

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use onionbots_bench::scenarios;
use sim::executor::{run_work_item, PartResult, WorkItem};
use sim::scenario_api::ScenarioParams;
use sim::wire::{DispatchFrame, WorkerFrame, MAX_FRAME_BYTES, PROTOCOL_VERSION};
use sim::{Backend, ResultCache, Runner, Scenario, ThreadsPerItem};

use common::WorkerHost;

fn fleet(hosts: &[WorkerHost]) -> Vec<String> {
    hosts.iter().map(|host| host.addr.clone()).collect()
}

/// The executor-backend suite's parameterization: fig6 plus scale pinned
/// to one 2000-node part, sweeps shortened for debug-profile runtime.
fn params(seed: u64) -> ScenarioParams {
    ScenarioParams::with_seed(seed)
        .with_override("steps", "4")
        .with_override("n", "2000")
        .with_override("waves", "3")
}

fn selected() -> Vec<Arc<dyn Scenario>> {
    scenarios::registry()
        .select(&["fig6".to_string(), "scale".to_string()])
        .unwrap()
}

const PARTS: usize = 4 + 1; // fig6 steps=4 + scale collapsed to n=2000

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "onionbots-remote-it-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn remote_backend_is_byte_identical_to_local_at_1_2_4_hosts() {
    let reference = Runner::new(params(2015))
        .try_run_observed(&selected(), &())
        .unwrap()
        .0;
    for host_count in [1usize, 2, 4] {
        let hosts: Vec<WorkerHost> = (0..host_count).map(|_| WorkerHost::spawn(None)).collect();
        let summary = Runner::new(params(2015))
            .jobs(host_count)
            .backend(Backend::Remote(fleet(&hosts)))
            .try_run_observed(&selected(), &())
            .unwrap()
            .0;
        assert_eq!(
            summary.to_json(),
            reference.to_json(),
            "remote backend, {host_count} host(s)"
        );
    }
}

#[test]
fn remote_hosts_honor_threads_per_item_byte_identically() {
    let hosts = [WorkerHost::spawn(None), WorkerHost::spawn(None)];
    let reference = Runner::new(params(2015))
        .try_run_observed(&selected(), &())
        .unwrap()
        .0;
    for threads in [1usize, 4] {
        let summary = Runner::new(params(2015))
            .jobs(2)
            .threads_per_item(ThreadsPerItem::Fixed(threads))
            .backend(Backend::Remote(fleet(&hosts)))
            .try_run_observed(&selected(), &())
            .unwrap()
            .0;
        assert_eq!(
            summary.to_json(),
            reference.to_json(),
            "remote backend, threads-per-item={threads}"
        );
    }
}

#[test]
fn a_host_killed_mid_run_requeues_its_items_and_the_output_is_unchanged() {
    let reference = Runner::new(params(7))
        .try_run_observed(&selected(), &())
        .unwrap()
        .0;
    // The second host abruptly exits while holding its second assignment
    // (read, never answered); its items must re-queue on the survivor and
    // the run must still converge to the reference bytes.
    let hosts = [
        WorkerHost::spawn(None),
        WorkerHost::spawn(Some("remote.host.item=crash@2")),
    ];
    let summary = Runner::new(params(7))
        .jobs(2)
        .backend(Backend::Remote(fleet(&hosts)))
        .try_run_observed(&selected(), &())
        .unwrap()
        .0;
    assert_eq!(summary.to_json(), reference.to_json());
}

/// A *hung* in-test "host": completes the handshake, then reads
/// assignments forever without ever answering one. Unlike a killed host
/// the connection stays open, so only the per-item deadline can unstick
/// the dispatcher thread that fed it.
fn spawn_hung_host() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { break };
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            let mut line = String::new();
            if reader.read_line(&mut line).unwrap_or(0) == 0 {
                continue;
            }
            let welcome = serde_json::to_string(&WorkerFrame::Welcome {
                protocol: PROTOCOL_VERSION,
            })
            .unwrap();
            if writeln!(writer, "{welcome}").is_err() {
                continue;
            }
            // Swallow every assignment without replying until the
            // dispatcher gives up and closes the connection.
            loop {
                line.clear();
                if reader.read_line(&mut line).unwrap_or(0) == 0 {
                    break;
                }
            }
        }
    });
    addr
}

#[test]
fn a_hung_host_is_abandoned_after_the_deadline_and_its_items_requeue() {
    let reference = Runner::new(params(9))
        .try_run_observed(&selected(), &())
        .unwrap()
        .0;
    // One healthy host, one that accepts work and never answers. The
    // per-item deadline must cut the hung channel loose and re-queue its
    // in-flight item on the survivor — same bytes, no stall, no retry
    // charge against the item.
    let real = WorkerHost::spawn(None);
    let hung = spawn_hung_host();
    let summary = Runner::new(params(9))
        .jobs(2)
        .item_deadline_ms(1_500)
        .backend(Backend::Remote(vec![real.addr.clone(), hung]))
        .try_run_observed(&selected(), &())
        .unwrap()
        .0;
    assert_eq!(summary.to_json(), reference.to_json());
}

/// An adversarial in-test "host": completes the handshake, then answers
/// every assignment with a corrupt line, on every connection, forever.
/// Unlike a killed host it stays reachable, so the dispatcher's
/// reconnect-and-retry path runs until the per-item retry bound trips.
fn spawn_garbage_host() -> (String, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { break };
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            let mut line = String::new();
            if reader.read_line(&mut line).unwrap_or(0) == 0 {
                continue;
            }
            let welcome = serde_json::to_string(&WorkerFrame::Welcome {
                protocol: PROTOCOL_VERSION,
            })
            .unwrap();
            if writeln!(writer, "{welcome}").is_err() {
                continue;
            }
            loop {
                line.clear();
                if reader.read_line(&mut line).unwrap_or(0) == 0 {
                    break;
                }
                if writeln!(writer, "this is not a worker frame").is_err() {
                    break;
                }
            }
        }
    });
    (addr, handle)
}

#[test]
fn an_item_that_keeps_corrupting_the_stream_fails_the_run_instead_of_looping() {
    let (addr, _handle) = spawn_garbage_host();
    let error = Runner::new(params(3))
        .jobs(1)
        .backend(Backend::Remote(vec![addr]))
        .try_run_observed(&selected(), &())
        .unwrap_err();
    let message = error.to_string();
    assert!(
        message.contains("worker") && message.contains("giving up"),
        "unexpected error: {message}"
    );
}

#[test]
fn a_host_that_replies_with_deep_nesting_is_abandoned_and_the_run_finishes_elsewhere() {
    let reference = Runner::new(params(11))
        .try_run_observed(&selected(), &())
        .unwrap()
        .0;
    // A one-connection "host": it completes the handshake, answers the
    // first assignment with a megabyte of `[`, then stops listening. The
    // dispatcher must refuse the reply at the parser's depth bound (not
    // overflow its thread's stack), fail to reconnect, abandon the slot
    // and finish the run on the healthy host.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let nested_addr = listener.local_addr().unwrap().to_string();
    let answered = Arc::new(AtomicBool::new(false));
    let flag = answered.clone();
    std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let welcome = serde_json::to_string(&WorkerFrame::Welcome {
            protocol: PROTOCOL_VERSION,
        })
        .unwrap();
        writeln!(writer, "{welcome}").unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        writeln!(writer, "{}", "[".repeat(1 << 20)).unwrap();
        flag.store(true, Ordering::SeqCst);
    });
    let real = WorkerHost::spawn(None);
    let summary = Runner::new(params(11))
        .backend(Backend::Remote(vec![nested_addr, real.addr.clone()]))
        .try_run_observed(&selected(), &())
        .unwrap()
        .0;
    assert!(answered.load(Ordering::SeqCst), "the nested reply was sent");
    assert_eq!(summary.to_json(), reference.to_json());
}

#[test]
fn a_panicking_part_fails_a_remote_run_once_naming_the_part_and_the_panic() {
    // `k >= n`: the scale part panics on the host, which answers a failed
    // result instead of dropping the connection, so the part is not
    // retried on fresh connections.
    let host = WorkerHost::spawn(None);
    let scale = scenarios::registry()
        .select(&["scale".to_string()])
        .unwrap();
    let error = Runner::new(ScenarioParams::with_seed(1).with_override("n", "5"))
        .backend(Backend::Remote(vec![host.addr.clone()]))
        .try_run_observed(&scale, &())
        .unwrap_err();
    assert_eq!(
        error.to_string(),
        format!(
            "worker host '{}' failed on scale#0: panicked: degree must be smaller than the node count",
            host.addr
        )
    );
}

#[test]
fn a_host_that_rejects_the_handshake_fails_the_run_and_never_poisons_the_cache() {
    // A "host" from the future: it refuses the dispatcher's hello.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let _handle = std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { break };
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            let mut line = String::new();
            let _ = reader.read_line(&mut line);
            // Sanity: the dispatcher leads with a versioned hello.
            let hello: DispatchFrame = serde_json::from_str(line.trim()).unwrap();
            assert!(matches!(hello, DispatchFrame::Hello { .. }));
            let reject = serde_json::to_string(&WorkerFrame::Reject {
                reason: "speaks remote protocol v999".to_string(),
            })
            .unwrap();
            let _ = writeln!(writer, "{reject}");
        }
    });
    let dir = temp_dir("reject-no-poison");
    let cache = ResultCache::open(&dir).unwrap();
    let error = Runner::new(params(5))
        .jobs(1)
        .backend(Backend::Remote(vec![addr]))
        .with_cache(cache.clone())
        .try_run_observed(&selected(), &())
        .unwrap_err();
    let message = error.to_string();
    assert!(message.contains("refused"), "unexpected error: {message}");
    // Nothing from the failed run may have been cached: a local run over
    // the same cache starts fully cold.
    let (_, stats) = Runner::new(params(5))
        .with_cache(cache)
        .try_run_observed(&selected(), &())
        .unwrap();
    let stats = stats.unwrap();
    assert_eq!(stats.hits, 0, "failed remote run poisoned the cache");
    assert_eq!(stats.misses, PARTS);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn parts_computed_by_remote_hosts_replay_as_local_cache_hits_byte_identically() {
    let dir = temp_dir("remote-cache");
    let cache = ResultCache::open(&dir).unwrap();
    let hosts = [WorkerHost::spawn(None), WorkerHost::spawn(None)];
    // Cold run on the remote backend: every part misses, executes on a
    // worker host, and is stored by the dispatcher.
    let (cold, stats) = Runner::new(params(11))
        .jobs(2)
        .backend(Backend::Remote(fleet(&hosts)))
        .with_cache(cache.clone())
        .try_run_observed(&selected(), &())
        .unwrap();
    let stats = stats.unwrap();
    assert_eq!(stats.misses, PARTS);
    assert_eq!(stats.stored, PARTS);
    assert_eq!(stats.hits, 0);
    drop(hosts); // the fleet is gone; the cache outlives it
    let (warm, stats) = Runner::new(params(11))
        .jobs(4)
        .with_cache(cache)
        .try_run_observed(&selected(), &())
        .unwrap();
    let stats = stats.unwrap();
    assert!(stats.all_hits(), "{stats:?}");
    assert_eq!(stats.hits, PARTS);
    assert_eq!(warm.to_json(), cold.to_json());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_remote_submission_is_byte_identical_to_its_cold_run() {
    let dir = temp_dir("remote-warm");
    let cache = ResultCache::open(&dir).unwrap();
    let hosts = [WorkerHost::spawn(None)];
    let run = |cache: ResultCache| {
        Runner::new(params(13))
            .jobs(1)
            .backend(Backend::Remote(fleet(&hosts)))
            .with_cache(cache)
            .try_run_observed(&selected(), &())
            .unwrap()
    };
    let (cold, cold_stats) = run(cache.clone());
    assert_eq!(cold_stats.unwrap().misses, PARTS);
    let (warm, warm_stats) = run(cache);
    assert!(warm_stats.unwrap().all_hits());
    assert_eq!(warm.to_json(), cold.to_json());
    let _ = std::fs::remove_dir_all(&dir);
}

/// An in-test "host" that completes the handshake, then answers every
/// assignment on every connection through `answer`, which writes its
/// reply (or none) onto the stream.
fn spawn_scripted_host(answer: fn(&mut TcpStream, WorkItem)) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { break };
            stream.set_nodelay(true).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut line = String::new();
            if reader.read_line(&mut line).unwrap_or(0) == 0 {
                continue;
            }
            let welcome = serde_json::to_string(&WorkerFrame::Welcome {
                protocol: PROTOCOL_VERSION,
            })
            .unwrap();
            if writeln!(stream, "{welcome}").is_err() {
                continue;
            }
            loop {
                line.clear();
                if reader.read_line(&mut line).unwrap_or(0) == 0 {
                    break;
                }
                let Ok(DispatchFrame::Assign(item)) = serde_json::from_str(&line) else {
                    break;
                };
                answer(&mut stream, item);
            }
        }
    });
    addr
}

#[test]
fn a_reply_that_pauses_mid_character_is_merged_intact() {
    // table1's report carries multi-byte characters. The host pauses
    // longer than one dispatcher read poll inside the first of them, so
    // the dispatcher's read times out mid-character and must keep the
    // bytes it already has.
    let answer = |stream: &mut TcpStream, item: WorkItem| {
        let scenario = scenarios::registry().get(&item.scenario_id).unwrap();
        let result = PartResult::ok(&item, run_work_item(&*scenario, &item));
        let line = serde_json::to_string(&WorkerFrame::Completed(result)).unwrap() + "\n";
        let split = line
            .bytes()
            .position(|b| b >= 0xC0)
            .expect("a multi-byte character")
            + 1;
        let _ = stream.write_all(&line.as_bytes()[..split]);
        // detlint: allow(D002) reason="test host pacing: the pause only positions a read timeout inside a character"
        std::thread::sleep(Duration::from_millis(500));
        let _ = stream.write_all(&line.as_bytes()[split..]);
    };
    let table1 = scenarios::registry()
        .select(&["table1".to_string()])
        .unwrap();
    let params = ScenarioParams::with_seed(2015);
    let reference = Runner::new(params.clone())
        .try_run_observed(&table1, &())
        .unwrap()
        .0;
    let summary = Runner::new(params)
        .backend(Backend::Remote(vec![spawn_scripted_host(answer)]))
        .try_run_observed(&table1, &())
        .unwrap()
        .0;
    assert_eq!(summary.to_json(), reference.to_json());
}

#[test]
fn a_host_streaming_an_endless_line_fails_the_run_naming_the_line_limit() {
    let answer = |stream: &mut TcpStream, _item: WorkItem| {
        let mut endless = std::io::repeat(b'x').take(MAX_FRAME_BYTES as u64 + 1);
        let _ = std::io::copy(&mut endless, stream);
    };
    let error = Runner::new(params(3))
        .backend(Backend::Remote(vec![spawn_scripted_host(answer)]))
        .try_run_observed(&selected(), &())
        .unwrap_err();
    let message = error.to_string();
    assert!(
        message.contains("line limit"),
        "unexpected error: {message}"
    );
}
