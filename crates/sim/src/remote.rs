//! Multi-host distributed backend: TCP work-stealing fleet dispatch.
//!
//! [`RemoteExecutor`] fans the same serializable [`WorkItem`]s the
//! process backend pins out to a fleet of worker *hosts* over TCP. The
//! wire format is one JSON frame per line, and the payload frames embed
//! the exact [`WorkItem`]/[`PartResult`] objects `serve_work_items`
//! already speaks — a worker host is a `ProcessExecutor` worker with a
//! socket where the pipe used to be, plus a one-line version handshake:
//!
//! | direction | frame | meaning |
//! |---|---|---|
//! | dispatcher → host | `Hello { protocol }` | open a work channel |
//! | host → dispatcher | `Welcome { protocol }` | versions match, send work |
//! | host → dispatcher | `Reject { reason }` | refused (version skew, …) |
//! | dispatcher → host | `Assign(WorkItem)` | execute one item |
//! | host → dispatcher | `Completed(PartResult)` | the item's result |
//!
//! Dispatch is **work-stealing**: one dispatcher-side thread per
//! configured host pulls items off a shared pending queue, so a slow
//! host never stalls the run — it just steals fewer items. Host loss
//! follows the `ProcessExecutor` semantics exactly: the in-flight item
//! is re-queued for the surviving hosts, deaths of *fresh* connections
//! (no completed items) charge the item's bounded retry budget, and a
//! run fails instead of looping when an item keeps killing fresh
//! connections or when every host is gone with work still queued.
//! Results dedup on the item **fingerprint** — a re-queued item can
//! never be double-merged even if a half-dead host answered it late.
//!
//! Determinism is inherited, not re-argued: hosts compute parts with
//! [`run_work_item`] (per-part seed, `threads` budget scoped around the
//! part), the cache pass sits above the backend, and the `Runner`
//! reassembles results in `(scenario, part)` order — so `RunSummary` is
//! byte-identical to `--backend local` at any host count, including
//! under mid-run host kills.
//!
//! **No call here can block forever.** Connections are opened with
//! [`TcpStream::connect_timeout`], every read carries a socket read
//! timeout of [`REMOTE_READ_POLL_MS`], and each reply is bounded by a
//! per-item deadline enforced by *counting* timeout polls (never by
//! reading a wall clock — detlint rule D002). A host that accepts TCP
//! but never replies — during the handshake or mid-item — is abandoned
//! after the deadline and its item re-queued on the surviving hosts;
//! retried items back off with a bounded exponential pause whose jitter
//! derives deterministically from the item fingerprint (no ambient
//! randomness). The `remote.connect`/`remote.read` failpoints
//! ([`crate::faults`]) sit on the dispatcher side and
//! `remote.host.item` on the host side, so chaos schedules can rehearse
//! every one of these failure shapes on demand.

use std::collections::{BTreeSet, VecDeque};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::faults;

use crate::executor::{
    run_work_item, ExecutionObserver, Executor, ExecutorError, PartResult, WorkItem,
    DEFAULT_MAX_ITEM_RETRIES,
};
use crate::scenario_api::Scenario;

/// Version of the dispatcher↔host wire protocol. Part of the handshake:
/// a host refuses a dispatcher whose version differs, which fails the
/// run up front instead of corrupting it halfway through.
pub const REMOTE_PROTOCOL_VERSION: u32 = 1;

/// How long one connection attempt to a worker host may take before the
/// host counts as unreachable.
pub const REMOTE_CONNECT_TIMEOUT_MS: u64 = 5_000;

/// Socket read timeout bounding every blocking read on a host channel.
/// Reads poll at this granularity while waiting out the per-reply
/// deadline, so the deadline is enforced by counting polls instead of
/// reading a wall clock.
pub const REMOTE_READ_POLL_MS: u64 = 200;

/// Default per-reply deadline: a host that has not answered an
/// assignment (or the handshake) within this budget is abandoned and
/// its in-flight item re-queued on the surviving hosts. Deliberately
/// generous — a deadline shorter than the slowest legitimate item would
/// turn a healthy fleet into serial re-queueing; tune it down per run
/// with [`RemoteExecutor::deadline_millis`] (`--remote-deadline-ms`).
pub const DEFAULT_REMOTE_DEADLINE_MS: u64 = 60_000;

/// Ceiling on one retry-backoff pause, so retries stay exponential only
/// up to a bounded, test-friendly cap.
const BACKOFF_CAP_MS: u64 = 500;

/// How long a retried item's dispatcher thread pauses before re-queueing
/// it: bounded exponential in the charged retry count, with jitter
/// folded in deterministically from the item's fingerprint bytes (two
/// colliding items desynchronize without any ambient randomness).
fn retry_backoff_millis(fingerprint: &str, retries: usize) -> u64 {
    let base = 10u64.saturating_mul(1 << retries.min(5) as u32);
    let jitter = fingerprint.bytes().fold(0u64, |acc, b| {
        acc.wrapping_mul(31).wrapping_add(u64::from(b))
    }) % base.max(1);
    (base + jitter).min(BACKOFF_CAP_MS)
}

/// Is this error a bounded-read timeout (the deadline machinery), as
/// opposed to a dead or misbehaving peer?
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
    )
}

/// The shared dispatch queue plus the in-flight ledger that makes the
/// work-stealing termination protocol sound. An idle dispatcher thread
/// may only exit when the queue is empty AND nothing is in flight:
/// otherwise a dying host could re-queue its in-flight item after every
/// survivor already went home, stranding the item with live hosts
/// available (the race the in-flight count exists to close). Threads
/// with nothing to steal park on the paired [`Condvar`] and are woken by
/// every re-queue, every settled item and every fatal error.
struct DispatchQueue {
    pending: VecDeque<(WorkItem, usize)>,
    in_flight: usize,
}

/// Frames the dispatcher sends to a worker host (one JSON object per
/// line).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DispatchFrame {
    /// Opens a work channel; must be the first frame on a connection.
    Hello {
        /// The dispatcher's [`REMOTE_PROTOCOL_VERSION`].
        protocol: u32,
    },
    /// Assigns one work item; the host answers with
    /// [`WorkerFrame::Completed`].
    Assign(WorkItem),
}

/// Frames a worker host sends back to the dispatcher (one JSON object
/// per line).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkerFrame {
    /// Handshake accepted; the host will serve assignments.
    Welcome {
        /// The host's [`REMOTE_PROTOCOL_VERSION`].
        protocol: u32,
    },
    /// Handshake refused; the host closes the connection after this.
    Reject {
        /// Human-readable refusal cause (version skew, bad hello, …).
        reason: String,
    },
    /// One assignment's result, echoing the item's identity.
    Completed(PartResult),
}

fn send_frame<W: Write, T: Serialize>(output: &mut W, frame: &T) -> io::Result<()> {
    let line = serde_json::to_string(frame).expect("protocol frames serialize");
    output.write_all(line.as_bytes())?;
    output.write_all(b"\n")?;
    output.flush()
}

/// Reads one line, `None` on EOF.
fn read_frame_line<R: BufRead>(input: &mut R) -> io::Result<Option<String>> {
    let mut line = String::new();
    if input.read_line(&mut line)? == 0 {
        return Ok(None);
    }
    Ok(Some(line))
}

/// Why a connection attempt to a worker host did not produce a usable
/// channel — the two cases have opposite consequences for the run.
enum ConnectFailure {
    /// The host is unreachable or vanished mid-handshake. Fatal on the
    /// first attempt (a configured host must exist when the run starts,
    /// mirroring the process backend's cannot-spawn error); mere host
    /// loss on a reconnect, where the rest of the fleet absorbs the
    /// queue.
    Dead(io::Error),
    /// The host answered and refused us (version skew, not speaking the
    /// protocol at all). Always fatal: a misconfigured fleet member
    /// would silently absorb retries otherwise.
    Refused(String),
}

/// A live work channel to one worker host.
struct HostChannel {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    /// Items this connection answered successfully — same fresh-death
    /// heuristic as the process backend's per-incarnation counter.
    completed: usize,
    /// Per-reply deadline, expressed in [`REMOTE_READ_POLL_MS`] polls.
    deadline_polls: u64,
}

impl HostChannel {
    fn connect(addr: &str, deadline_ms: u64) -> Result<HostChannel, ConnectFailure> {
        faults::hit_io(faults::points::REMOTE_CONNECT).map_err(ConnectFailure::Dead)?;
        let target = addr
            .to_socket_addrs()
            .map_err(ConnectFailure::Dead)?
            .next()
            .ok_or_else(|| {
                ConnectFailure::Dead(io::Error::new(
                    io::ErrorKind::AddrNotAvailable,
                    "address resolves to no socket address",
                ))
            })?;
        let writer =
            TcpStream::connect_timeout(&target, Duration::from_millis(REMOTE_CONNECT_TIMEOUT_MS))
                .map_err(ConnectFailure::Dead)?;
        // The protocol is strictly request/response with small frames;
        // without TCP_NODELAY every round trip stalls on Nagle vs
        // delayed-ACK (~40 ms each way — measured ~87 ms/item on
        // loopback, dwarfing the work itself).
        writer.set_nodelay(true).map_err(ConnectFailure::Dead)?;
        // Bound every read. The clone below shares the socket, so the
        // reader inherits the timeout; reads then poll at this
        // granularity and `read_reply_line` counts polls against the
        // per-reply deadline.
        writer
            .set_read_timeout(Some(Duration::from_millis(REMOTE_READ_POLL_MS)))
            .map_err(ConnectFailure::Dead)?;
        let reader = BufReader::new(writer.try_clone().map_err(ConnectFailure::Dead)?);
        let mut channel = HostChannel {
            writer,
            reader,
            completed: 0,
            deadline_polls: deadline_ms.div_ceil(REMOTE_READ_POLL_MS).max(1),
        };
        send_frame(
            &mut channel.writer,
            &DispatchFrame::Hello {
                protocol: REMOTE_PROTOCOL_VERSION,
            },
        )
        .map_err(ConnectFailure::Dead)?;
        let line = match channel.read_reply_line().map_err(ConnectFailure::Dead)? {
            Some(line) => line,
            None => {
                return Err(ConnectFailure::Dead(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "host closed the connection during the handshake",
                )))
            }
        };
        let reply: WorkerFrame = serde_json::from_str(&line).map_err(|e| {
            ConnectFailure::Refused(format!("sent an unparseable handshake reply: {e}"))
        })?;
        match reply {
            WorkerFrame::Welcome { protocol } if protocol == REMOTE_PROTOCOL_VERSION => Ok(channel),
            WorkerFrame::Welcome { protocol } => Err(ConnectFailure::Refused(format!(
                "speaks remote protocol v{protocol}, this dispatcher speaks v{REMOTE_PROTOCOL_VERSION}"
            ))),
            WorkerFrame::Reject { reason } => Err(ConnectFailure::Refused(reason)),
            WorkerFrame::Completed(_) => Err(ConnectFailure::Refused(
                "answered the handshake with a result frame".to_string(),
            )),
        }
    }

    /// Reads one reply line under the per-reply deadline: each blocking
    /// read times out after [`REMOTE_READ_POLL_MS`] and the polls are
    /// counted, so a host that stops answering surfaces a `TimedOut`
    /// error after `deadline_polls` polls instead of wedging the
    /// dispatcher thread. Partial lines survive timeouts (`read_line`
    /// keeps already-read bytes in the buffer), so a slow-but-live host
    /// is never corrupted by the polling.
    fn read_reply_line(&mut self) -> io::Result<Option<String>> {
        let mut line = String::new();
        let mut polls: u64 = 0;
        loop {
            match self.reader.read_line(&mut line) {
                Ok(0) => return Ok(None),
                Ok(_) => return Ok(Some(line)),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) if is_timeout(&e) => {
                    polls += 1;
                    if polls >= self.deadline_polls {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            format!(
                                "no reply within the {} ms deadline",
                                self.deadline_polls * REMOTE_READ_POLL_MS
                            ),
                        ));
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Sends one assignment and reads back its result. Any error means
    /// the channel is unusable and must be replaced.
    fn round_trip(&mut self, item: &WorkItem) -> io::Result<PartResult> {
        send_frame(&mut self.writer, &DispatchFrame::Assign(item.clone()))?;
        faults::hit_io(faults::points::REMOTE_READ)?;
        let line = self.read_reply_line()?.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "host closed the connection mid-item",
            )
        })?;
        let frame: WorkerFrame = serde_json::from_str(&line).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("host sent an unparseable frame: {e}"),
            )
        })?;
        match frame {
            WorkerFrame::Completed(result) => Ok(result),
            WorkerFrame::Welcome { .. } | WorkerFrame::Reject { .. } => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "host sent a handshake frame mid-run",
            )),
        }
    }
}

/// The multi-host backend: dispatches work items to a fleet of
/// [`serve_remote_host`] worker hosts over TCP.
///
/// One dispatcher thread per configured host address pulls from a shared
/// pending queue (work stealing). Crash semantics mirror
/// [`ProcessExecutor`](crate::executor::ProcessExecutor): a host that
/// dies mid-item has the item re-queued, only fresh-connection deaths
/// are charged against the item's bounded retry budget, and results are
/// deduplicated by fingerprint so a re-queued item is never merged
/// twice. A host that is unreachable when the run starts, or that
/// rejects the handshake (version skew), fails the run immediately. On
/// cancel ([`ExecutionObserver::cancelled`]) each dispatcher thread stops
/// taking items, lets its in-flight item finish and closes its channel.
pub struct RemoteExecutor {
    workers: Vec<String>,
    max_item_retries: usize,
    deadline_ms: u64,
}

impl RemoteExecutor {
    /// Creates a remote executor dispatching to `workers` (socket
    /// addresses like `127.0.0.1:7461`; list an address twice for two
    /// concurrent channels to the same host).
    pub fn new(workers: Vec<String>) -> Self {
        RemoteExecutor {
            workers,
            max_item_retries: DEFAULT_MAX_ITEM_RETRIES,
            deadline_ms: DEFAULT_REMOTE_DEADLINE_MS,
        }
    }

    /// Sets how many fresh-connection deaths one item may cause before
    /// the run fails.
    #[must_use]
    pub fn max_item_retries(mut self, retries: usize) -> Self {
        self.max_item_retries = retries;
        self
    }

    /// Sets the per-reply deadline in milliseconds (clamped to at least
    /// one read poll). A host that has not answered within this budget
    /// is abandoned and its item re-queued on the surviving hosts.
    #[must_use]
    pub fn deadline_millis(mut self, deadline_ms: u64) -> Self {
        self.deadline_ms = deadline_ms.max(REMOTE_READ_POLL_MS);
        self
    }
}

impl Executor for RemoteExecutor {
    fn execute(&self, items: Vec<WorkItem>) -> Result<Vec<PartResult>, ExecutorError> {
        self.execute_observed(items, &())
    }

    fn execute_observed(
        &self,
        items: Vec<WorkItem>,
        observer: &dyn ExecutionObserver,
    ) -> Result<Vec<PartResult>, ExecutorError> {
        if items.is_empty() {
            return Ok(Vec::new());
        }
        if self.workers.is_empty() {
            return Err(ExecutorError::new(
                "remote backend has no worker hosts configured (add --worker ADDR)",
            ));
        }
        let total = items.len();
        let queue: Mutex<DispatchQueue> = Mutex::new(DispatchQueue {
            pending: items.into_iter().map(|item| (item, 0)).collect(),
            in_flight: 0,
        });
        let wake = Condvar::new();
        let results: Mutex<Vec<PartResult>> = Mutex::new(Vec::new());
        // Fingerprints already merged — the dedup ledger that guarantees
        // a re-queued item can never land twice.
        let merged: Mutex<BTreeSet<String>> = Mutex::new(BTreeSet::new());
        let fatal: Mutex<Option<ExecutorError>> = Mutex::new(None);
        let fail = |message: String| {
            fatal
                .lock()
                .expect("fatal lock")
                .get_or_insert(ExecutorError::new(message));
            // Parked stealers re-check the fatal flag on every wake-up.
            wake.notify_all();
        };
        // An item leaves a thread's hands one of exactly two ways; both
        // wake the parked stealers so the termination condition (empty
        // queue, nothing in flight) is re-evaluated.
        let requeue = |item: WorkItem, retries: usize| {
            let mut state = queue.lock().expect("queue lock");
            state.pending.push_back((item, retries));
            state.in_flight -= 1;
            wake.notify_all();
        };
        let settle = || {
            queue.lock().expect("queue lock").in_flight -= 1;
            wake.notify_all();
        };
        std::thread::scope(|scope| {
            for addr in self.workers.iter().take(total) {
                let addr = addr.as_str();
                let (queue, wake, results, merged) = (&queue, &wake, &results, &merged);
                let (fail, requeue, settle) = (&fail, &requeue, &settle);
                let fatal = &fatal;
                let max_item_retries = self.max_item_retries;
                let deadline_ms = self.deadline_ms;
                scope.spawn(move || {
                    let mut channel: Option<HostChannel> = None;
                    let mut ever_connected = false;
                    loop {
                        if fatal.lock().expect("fatal lock").is_some() {
                            break;
                        }
                        let next = {
                            let mut state = queue.lock().expect("queue lock");
                            loop {
                                // Checked before every pop, including
                                // after waking from the park below: a
                                // cancelled run takes no further items.
                                if observer.cancelled() {
                                    break None;
                                }
                                if let Some(entry) = state.pending.pop_front() {
                                    state.in_flight += 1;
                                    break Some(entry);
                                }
                                if state.in_flight == 0 {
                                    // Drained for good: nothing queued and
                                    // nothing left that could re-queue.
                                    break None;
                                }
                                // Another host holds the remaining items;
                                // if it dies they come back here. Park
                                // until a re-queue, a settle or a fatal.
                                state = wake.wait(state).expect("queue lock");
                                if fatal.lock().expect("fatal lock").is_some() {
                                    break None;
                                }
                            }
                        };
                        let Some((item, retries)) = next else {
                            break;
                        };
                        if channel.is_none() {
                            match HostChannel::connect(addr, deadline_ms) {
                                Ok(connected) => {
                                    channel = Some(connected);
                                    ever_connected = true;
                                }
                                Err(ConnectFailure::Refused(reason)) => {
                                    fail(format!(
                                        "worker host '{addr}' refused the dispatcher: {reason}"
                                    ));
                                    settle();
                                    break;
                                }
                                Err(ConnectFailure::Dead(e)) => {
                                    // A host that accepts TCP but never
                                    // answers the handshake is *hung*,
                                    // not misconfigured: abandon it and
                                    // let the survivors drain the queue,
                                    // even on the very first attempt.
                                    if ever_connected || is_timeout(&e) {
                                        // Host loss: hand the item back and
                                        // let the surviving hosts drain the
                                        // queue; this thread is done.
                                        eprintln!(
                                            "warning: worker host '{addr}' is gone ({e}); re-queueing {}#{} for the remaining hosts",
                                            item.scenario_id, item.part
                                        );
                                        requeue(item, retries);
                                        break;
                                    }
                                    fail(format!(
                                        "cannot connect to worker host '{addr}': {e}"
                                    ));
                                    settle();
                                    break;
                                }
                            }
                        }
                        let active = channel.as_mut().expect("channel just ensured");
                        observer.item_started(&item);
                        match active.round_trip(&item) {
                            Ok(result) => {
                                if let Some(error) = &result.error {
                                    fail(format!(
                                        "worker host '{addr}' failed on {}#{}: {error}",
                                        item.scenario_id, item.part
                                    ));
                                    settle();
                                    break;
                                }
                                if result.scenario_id != item.scenario_id
                                    || result.part != item.part
                                    || result.fingerprint != item.fingerprint
                                {
                                    fail(format!(
                                        "worker host '{addr}' answered {}#{} with a result for {}#{} (protocol error)",
                                        item.scenario_id,
                                        item.part,
                                        result.scenario_id,
                                        result.part
                                    ));
                                    settle();
                                    break;
                                }
                                active.completed += 1;
                                let first_landing = merged
                                    .lock()
                                    .expect("merged lock")
                                    .insert(result.fingerprint.clone());
                                if first_landing {
                                    observer.item_finished(&result);
                                    results.lock().expect("results lock").push(result);
                                } else {
                                    // A half-dead host answered an item
                                    // that was already re-queued and
                                    // completed elsewhere.
                                    eprintln!(
                                        "warning: dropped a duplicate result for {}#{} from '{addr}' (fingerprint already merged)",
                                        item.scenario_id, item.part
                                    );
                                }
                                settle();
                            }
                            Err(e) if is_timeout(&e) => {
                                // Per-item deadline: the host is hung
                                // (connected, silent). Abandon the host
                                // — a late reply on this channel would
                                // desync the framing anyway — re-queue
                                // the item on the survivors and end this
                                // thread. No retry charge: the host is
                                // at fault, not the item.
                                drop(channel.take());
                                eprintln!(
                                    "warning: worker host '{addr}' hit the per-item deadline on {}#{} ({e}); re-queueing for the remaining hosts",
                                    item.scenario_id, item.part
                                );
                                requeue(item, retries);
                                break;
                            }
                            Err(e) => {
                                // The channel is gone or confused: drop
                                // it, re-queue the in-flight item and
                                // reconnect lazily on the next loop
                                // iteration. As with worker processes,
                                // only deaths of *fresh* connections
                                // (no completed items) are charged to
                                // the item — that is the toxic-item
                                // signature.
                                let fresh_death = channel
                                    .take()
                                    .map(|dead| dead.completed == 0)
                                    .unwrap_or(true);
                                let retries = if fresh_death { retries + 1 } else { retries };
                                if retries > max_item_retries {
                                    fail(format!(
                                        "{}#{} killed {retries} fresh worker connection(s) ({e}); giving up",
                                        item.scenario_id, item.part
                                    ));
                                    settle();
                                    break;
                                }
                                let pause = retry_backoff_millis(&item.fingerprint, retries);
                                eprintln!(
                                    "warning: worker host '{addr}' failed while running {}#{} ({e}); re-queueing after {pause} ms ({retries}/{} charged retries)",
                                    item.scenario_id,
                                    item.part,
                                    max_item_retries
                                );
                                // detlint: allow(D002) reason="bounded retry backoff; the pause is deterministic (fingerprint-derived) and its duration never feeds back into any output"
                                std::thread::sleep(Duration::from_millis(pause));
                                requeue(item, retries);
                            }
                        }
                    }
                    // Dropping the channel closes the socket; the host
                    // sees EOF and ends the connection cleanly.
                });
            }
        });
        if let Some(error) = fatal.into_inner().expect("fatal lock") {
            return Err(error);
        }
        let stranded = queue.into_inner().expect("queue lock").pending.len();
        // Items left queued by a cancel are the caller's to account for;
        // only a fleet that died under a live run strands them.
        if stranded > 0 && !observer.cancelled() {
            return Err(ExecutorError::new(format!(
                "all {} worker host(s) are gone with {stranded} of {total} item(s) still queued",
                self.workers.len()
            )));
        }
        Ok(results.into_inner().expect("results lock"))
    }
}

/// Serves one dispatcher connection: handshake, then assignments until
/// EOF. Transport-agnostic so tests can drive it over in-memory buffers.
///
/// A hello with the wrong protocol version — or anything that is not a
/// hello — is answered with [`WorkerFrame::Reject`] and an error return;
/// a malformed assignment line is a protocol violation and terminates
/// the connection without a response (the dispatcher charges it like a
/// death). An unknown scenario id becomes a per-item error result, which
/// the dispatcher treats as fatal. Every read assignment hits the
/// `remote.host.item` failpoint ([`faults::points::REMOTE_HOST_ITEM`])
/// before it is answered; the failpoint counter is process-wide, so a
/// `crash@N` spec injects one deterministic host crash no matter how
/// connections interleave (the bench host translates the legacy
/// `ONIONBOTS_WORKER_CRASH_AFTER_ITEMS` hook into exactly that spec).
///
/// # Errors
/// Returns the underlying I/O error when the transport breaks or the
/// dispatcher violates the protocol.
pub fn serve_remote_connection<R, W, F>(mut input: R, mut output: W, resolve: F) -> io::Result<()>
where
    R: BufRead,
    W: Write,
    F: Fn(&str) -> Option<Arc<dyn Scenario>>,
{
    let hello = match read_frame_line(&mut input)? {
        Some(line) => line,
        // EOF before any frame: a probe, not a dispatcher.
        None => return Ok(()),
    };
    match serde_json::from_str::<DispatchFrame>(&hello) {
        Ok(DispatchFrame::Hello { protocol }) if protocol == REMOTE_PROTOCOL_VERSION => {
            send_frame(
                &mut output,
                &WorkerFrame::Welcome {
                    protocol: REMOTE_PROTOCOL_VERSION,
                },
            )?;
        }
        Ok(DispatchFrame::Hello { protocol }) => {
            let reason = format!(
                "dispatcher speaks remote protocol v{protocol}, this host speaks v{REMOTE_PROTOCOL_VERSION}"
            );
            send_frame(
                &mut output,
                &WorkerFrame::Reject {
                    reason: reason.clone(),
                },
            )?;
            return Err(io::Error::new(io::ErrorKind::InvalidData, reason));
        }
        Ok(DispatchFrame::Assign(_)) => {
            let reason = "assignment before handshake".to_string();
            send_frame(
                &mut output,
                &WorkerFrame::Reject {
                    reason: reason.clone(),
                },
            )?;
            return Err(io::Error::new(io::ErrorKind::InvalidData, reason));
        }
        Err(e) => {
            let reason = format!("unparseable hello frame: {e}");
            send_frame(
                &mut output,
                &WorkerFrame::Reject {
                    reason: reason.clone(),
                },
            )?;
            return Err(io::Error::new(io::ErrorKind::InvalidData, reason));
        }
    }
    loop {
        let line = match read_frame_line(&mut input)? {
            Some(line) => line,
            // EOF: the dispatcher is done with this channel.
            None => return Ok(()),
        };
        if line.trim().is_empty() {
            continue;
        }
        let frame: DispatchFrame = serde_json::from_str(&line).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("malformed dispatch frame: {e}"),
            )
        })?;
        let item = match frame {
            DispatchFrame::Assign(item) => item,
            DispatchFrame::Hello { .. } => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "duplicate handshake on an established channel",
                ))
            }
        };
        faults::hit_io(faults::points::REMOTE_HOST_ITEM)?;
        let result = match resolve(&item.scenario_id) {
            Some(scenario) => PartResult::ok(&item, run_work_item(&*scenario, &item)),
            None => PartResult::failed(
                &item,
                format!(
                    "scenario '{}' is not registered on this worker host",
                    item.scenario_id
                ),
            ),
        };
        send_frame(&mut output, &WorkerFrame::Completed(result))?;
    }
}

/// Runs a worker host: accepts dispatcher connections on `listener`
/// forever (one thread per connection, registry resolved through
/// `resolve`) and serves each with [`serve_remote_connection`]. Fault
/// schedules armed in this process (via [`crate::faults::arm_from_env`])
/// apply host-wide: the `remote.host.item` counter spans every
/// connection.
///
/// Never returns `Ok`: a worker host runs until its process is killed.
///
/// # Errors
/// Returns the underlying I/O error when accepting fails outright.
pub fn serve_remote_host<F>(listener: TcpListener, resolve: F) -> io::Result<()>
where
    F: Fn(&str) -> Option<Arc<dyn Scenario>> + Sync,
{
    std::thread::scope(|scope| loop {
        let (stream, peer) = match listener.accept() {
            Ok(accepted) => accepted,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        let resolve = &resolve;
        scope.spawn(move || {
            // Mirror of the dispatcher side: request/response frames must
            // not sit in Nagle's buffer waiting for a delayed ACK.
            if let Err(e) = stream.set_nodelay(true) {
                eprintln!("warning: dropping connection from {peer}: {e}");
                return;
            }
            let reader = match stream.try_clone() {
                Ok(clone) => BufReader::new(clone),
                Err(e) => {
                    eprintln!("warning: dropping connection from {peer}: {e}");
                    return;
                }
            };
            if let Err(e) = serve_remote_connection(reader, &stream, resolve) {
                eprintln!("warning: connection from {peer} ended with a protocol error: {e}");
            }
        });
    })
}
