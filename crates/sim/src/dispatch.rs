//! The one work-stealing dispatcher behind every built-in backend:
//! in-process worker threads, worker subprocesses and TCP worker hosts.
//!
//! [`Dispatcher`] sends serialized [`WorkItem`]s over *channels*: duplex
//! byte streams with a read timeout, speaking the [`crate::wire`]
//! protocol (`Hello`/`Welcome` handshake, then `Assign` frames each
//! answered, in order, by a `Completed` frame). A channel is opened one
//! of three ways, and nothing past the opening differs:
//!
//! * **starting a thread** (`--backend local`): one end of a
//!   `UnixStream::pair()` goes to an in-process thread running
//!   [`serve_connection`], the dispatcher holds the other; closing the
//!   channel shuts the socket down and joins the thread;
//! * **spawning** a [`WorkerCommand`] (e.g. `run_experiments worker`):
//!   the child's stdin and stdout are both one end of a
//!   `UnixStream::pair()`, the dispatcher holds the other; closing the
//!   channel kills and reaps the child;
//! * **connecting** over TCP to a `serve-worker` host.
//!
//! Dispatch is **work-stealing**: one dispatcher thread per slot (per
//! worker thread, per worker subprocess, per configured host address;
//! the calling thread serves the first slot) pulls items off a shared
//! pending queue, so a slow worker never stalls the run — it just
//! steals fewer items.
//!
//! Dispatch is **pipelined**: a slot keeps up to [`PIPELINE_DEPTH`]
//! items assigned on a subprocess or host channel. It writes the next
//! `Assign` as soon as the current one is on the wire, then reads the
//! oldest item's `Completed`, so the worker finds its next item already
//! buffered instead of idling for a round trip, and the dispatcher's
//! parsing and merging overlap the worker's compute. The worker runs
//! items in order, so the oldest unanswered item (the *head*) is the one
//! running and is reported `Started` when it becomes the head.
//!
//! A pre-assigned item is one a faster slot can no longer steal, so a
//! slot pre-assigns only while the queue cannot run dry before its head
//! ends: it counts how many items the rest of the fleet finished while it
//! ran its last head, and leaves [`PRE_ASSIGN_MARGIN`] times that many
//! queued. A slot's first item runs alone, since it has no count yet, and
//! a slot the fleet outpaces stops pre-assigning. The gain is one round
//! trip per item, which matters for short parts on workers of similar
//! speed; a pre-assignment that misjudges costs at most one of the
//! slot's items at the end of a batch. A worker thread cannot be killed,
//! so thread channels keep one item: closing one joins the thread only
//! after it ran its buffer.
//!
//! A channel that fails mid-item is dropped, its head re-queued and its
//! unstarted tail handed back uncharged; deaths of *fresh* channels (no
//! completed items) charge the head's bounded retry budget, and a run
//! fails instead of looping when an item keeps killing fresh channels or
//! when every slot is gone with work still queued. A worker that answers
//! a failed result (a panicking part, an unknown scenario id) fails the
//! run at once. Results dedup on the item **fingerprint**, so a re-queued
//! item can never be double-merged.
//!
//! **No call here can block forever.** Every read carries a timeout of
//! [`READ_POLL_MS`] and each reply from a subprocess or host is bounded
//! by a per-item deadline enforced by *counting* timeout polls (never by
//! reading a wall clock — detlint rule D002). A worker that never replies
//! — during the handshake or mid-item — is abandoned after the deadline
//! and its items re-queued on the surviving slots; TCP connects are
//! bounded by [`CONNECT_TIMEOUT_MS`]. A worker thread cannot be killed,
//! so thread slots set no deadline. Retried items back off with a
//! bounded exponential pause whose jitter derives deterministically from
//! the item fingerprint. The `remote.connect`/`remote.read` failpoints
//! ([`crate::faults`]) sit on the TCP channels' dispatcher side.
//!
//! Determinism is inherited, not re-argued: every worker computes parts
//! with [`run_work_item`](crate::executor::run_work_item), the cache pass
//! sits above the backend, and the `Runner` reassembles results in
//! `(scenario, part)` order — so `RunSummary` is byte-identical across
//! backends at any worker count, including under mid-run worker kills.

use std::collections::{BTreeSet, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::os::fd::OwnedFd;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::executor::{Executor, ExecutorError, PartResult, WorkItem};
use crate::faults;
use crate::runner::{PartEvent, PartState, RunObserver};
use crate::scenario_api::Scenario;
use crate::wire::{
    serve_connection, write_frame, DispatchFrame, Duplex, Frame, FrameReader, WorkerFrame,
    PROTOCOL_VERSION,
};

/// Bound on how many *fresh* channels one item may kill before the run
/// fails.
pub const DEFAULT_MAX_ITEM_RETRIES: usize = 3;

/// How long one TCP connection attempt to a worker host may take before
/// the host counts as unreachable.
pub const CONNECT_TIMEOUT_MS: u64 = 5_000;

/// Read timeout bounding every blocking read on a channel. Reads poll at
/// this granularity while waiting out the per-reply deadline, so the
/// deadline is enforced by counting polls instead of reading a clock.
pub const READ_POLL_MS: u64 = 200;

/// Default per-reply deadline: a worker that has not answered an
/// assignment (or the handshake) within this budget is abandoned and its
/// in-flight items re-queued on the surviving slots. Deliberately generous
/// — a deadline shorter than the slowest legitimate item would turn a
/// healthy run into serial re-queueing; a part that runs longer needs it
/// raised with [`Dispatcher::deadline_millis`] (`--item-deadline-ms`).
pub const DEFAULT_ITEM_DEADLINE_MS: u64 = 60_000;

/// Items a slot keeps assigned and unanswered on one subprocess or host
/// channel: the one the worker runs plus one waiting in its receive
/// buffer. A worker thread's channel keeps one, for the reason thread
/// slots set no deadline: the thread cannot be killed. At most one unread
/// `Assign` of well under a socket buffer sits with the worker, so
/// neither side can block on a write while the other blocks on its own.
pub const PIPELINE_DEPTH: usize = 2;

/// A slot pre-assigns an item only while at least this many items stay
/// queued for each item the rest of the fleet finished during the slot's
/// last head. The pre-assigned item waits for the running one, and the
/// others keep taking items meanwhile; the margin keeps the queue from
/// running dry before the running item ends even if that item takes up
/// to this many times as long as the last one did, measured against the
/// fleet.
pub const PRE_ASSIGN_MARGIN: usize = 3;

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

/// How to launch one worker subprocess: program, arguments and any
/// extra environment variables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerCommand {
    program: PathBuf,
    args: Vec<String>,
    envs: Vec<(String, String)>,
}

impl WorkerCommand {
    /// A worker launched as `program` with no arguments.
    pub fn new(program: impl Into<PathBuf>) -> Self {
        WorkerCommand {
            program: program.into(),
            args: Vec::new(),
            envs: Vec::new(),
        }
    }

    /// Appends one argument.
    #[must_use]
    pub fn arg(mut self, arg: impl Into<String>) -> Self {
        self.args.push(arg.into());
        self
    }

    /// Sets one extra environment variable for the worker (on top of the
    /// inherited environment). Used, among other things, to inject
    /// deterministic crashes in the worker-recovery tests.
    #[must_use]
    pub fn env(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.envs.push((key.into(), value.into()));
        self
    }

    fn command(&self) -> Command {
        let mut command = Command::new(&self.program);
        command.args(&self.args);
        for (key, value) in &self.envs {
            command.env(key, value);
        }
        command
    }
}

/// The worker a channel started, closed with the channel.
enum Worker {
    /// A subprocess: killed and reaped.
    Process(Child),
    /// An in-process thread and a handle on the dispatcher's end of its
    /// socket: the socket is shut down, which ends the thread's serving
    /// loop, and the thread is joined.
    Thread(UnixStream, JoinHandle<()>),
}

/// A freshly opened duplex byte stream to one worker; its reads time out
/// every [`READ_POLL_MS`].
struct Stream {
    reader: Box<dyn Read + Send>,
    writer: Box<dyn Write + Send>,
    /// The subprocess or thread behind a started stream.
    worker: Option<Worker>,
    /// Dispatcher-side failpoint hit before each reply read, if any.
    read_failpoint: Option<&'static str>,
}

impl Stream {
    fn new<S: Duplex>(socket: S) -> io::Result<Stream> {
        socket.set_read_interval(Duration::from_millis(READ_POLL_MS))?;
        Ok(Stream {
            reader: Box::new(socket.duplicate()?),
            writer: Box::new(socket),
            worker: None,
            read_failpoint: None,
        })
    }
}

/// What the dispatch loop needs from one slot's peer: names for messages
/// and a way to open a fresh stream to it.
trait Endpoint: Sync {
    /// Names the peer in messages, e.g. `worker host '127.0.0.1:7461'`.
    fn label(&self) -> String;
    /// What a failed first open could not do: `start`, `spawn` or
    /// `connect to`.
    fn open_verb(&self) -> &'static str;
    fn open(&self) -> io::Result<Stream>;
    /// How many items a slot keeps assigned and unanswered on one of
    /// this peer's channels.
    fn window(&self) -> usize {
        PIPELINE_DEPTH
    }
}

/// The three ways a [`Dispatcher`] slot opens its channels.
#[derive(Clone)]
enum Peer {
    /// An in-process worker thread resolving ids against these scenarios.
    Thread(Arc<[Arc<dyn Scenario>]>),
    Spawn(WorkerCommand),
    Host(String),
}

impl Endpoint for Peer {
    fn label(&self) -> String {
        match self {
            Peer::Thread(_) => "worker thread".to_string(),
            Peer::Spawn(command) => format!("worker process '{}'", command.program.display()),
            Peer::Host(addr) => format!("worker host '{addr}'"),
        }
    }

    fn open_verb(&self) -> &'static str {
        match self {
            Peer::Thread(_) => "start",
            Peer::Spawn(_) => "spawn",
            Peer::Host(_) => "connect to",
        }
    }

    fn window(&self) -> usize {
        match self {
            // Closing a thread's channel joins the thread once it has run
            // everything buffered, so a cancel would wait out a
            // pre-assigned part too (and the thread would warn of the
            // broken pipe its answer met).
            Peer::Thread(_) => 1,
            Peer::Spawn(_) | Peer::Host(_) => PIPELINE_DEPTH,
        }
    }

    fn open(&self) -> io::Result<Stream> {
        match self {
            Peer::Thread(scenarios) => {
                let (parent, child_end) = UnixStream::pair()?;
                let mut stream = Stream::new(parent.try_clone()?)?;
                let reader = child_end.try_clone()?;
                let scenarios = scenarios.clone();
                let resolve = move |id: &str| scenarios.iter().find(|s| s.id() == id).cloned();
                let thread = std::thread::Builder::new().spawn(move || {
                    // The thread's end closes only after the warning, so
                    // it precedes the dispatcher's re-queue line.
                    let point = faults::points::LOCAL_ITEM;
                    if let Err(e) = serve_connection(reader, &child_end, resolve, point) {
                        eprintln!("warning: worker thread ended: {e}");
                    }
                })?;
                stream.worker = Some(Worker::Thread(parent, thread));
                Ok(stream)
            }
            Peer::Spawn(command) => {
                let (parent, child_end) = UnixStream::pair()?;
                let mut stream = Stream::new(parent)?;
                // stderr is inherited: worker panics and warnings surface
                // on the parent's stderr. The command (and with it this
                // process's copies of the child's end) drops right after
                // the spawn, so the child's exit reads as EOF here.
                stream.worker = Some(Worker::Process(
                    command
                        .command()
                        .stdin(Stdio::from(OwnedFd::from(child_end.try_clone()?)))
                        .stdout(Stdio::from(OwnedFd::from(child_end)))
                        .spawn()?,
                ));
                Ok(stream)
            }
            Peer::Host(addr) => {
                faults::hit_io(faults::points::REMOTE_CONNECT)?;
                let target = addr.to_socket_addrs()?.next().ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::AddrNotAvailable,
                        "address resolves to no socket address",
                    )
                })?;
                let socket =
                    TcpStream::connect_timeout(&target, Duration::from_millis(CONNECT_TIMEOUT_MS))?;
                // Frames are small and each one is waited on; without
                // TCP_NODELAY every round trip stalls on
                // Nagle vs delayed-ACK (~40 ms each way — measured
                // ~87 ms/item on loopback, dwarfing the work itself).
                socket.set_nodelay(true)?;
                let mut stream = Stream::new(socket)?;
                stream.read_failpoint = Some(faults::points::REMOTE_READ);
                Ok(stream)
            }
        }
    }
}

/// Why opening a channel did not produce a usable one — the two cases
/// have opposite consequences for the run.
enum ConnectFailure {
    /// The peer is unreachable or vanished mid-handshake. Fatal on a
    /// slot's first attempt (a configured worker must exist when the run
    /// starts); mere loss on a reopen, where the other slots absorb the
    /// queue.
    Dead(io::Error),
    /// The peer answered and refused us (version skew, not speaking the
    /// protocol at all). Always fatal: a misconfigured worker would
    /// silently absorb retries otherwise.
    Refused(String),
}

/// A live, handshaken work channel.
struct Channel {
    frames: FrameReader<Box<dyn Read + Send>>,
    writer: Box<dyn Write + Send>,
    worker: Option<Worker>,
    read_failpoint: Option<&'static str>,
    /// Items this channel answered successfully — distinguishes a worker
    /// that dies on its very first item (the item is suspect) from one
    /// that wears out after completing work (the item is innocent).
    completed: usize,
    /// Per-reply deadline, expressed in [`READ_POLL_MS`] polls.
    deadline_polls: u64,
}

impl Drop for Channel {
    /// Closing a channel kills and reaps its subprocess or ends and joins
    /// its thread, if any; a TCP host sees EOF when the socket drops and
    /// ends the connection.
    fn drop(&mut self) {
        match self.worker.take() {
            Some(Worker::Process(mut child)) => {
                let _ = child.kill();
                let _ = child.wait();
            }
            Some(Worker::Thread(socket, thread)) => {
                let _ = socket.shutdown(Shutdown::Both);
                let _ = thread.join();
            }
            None => {}
        }
    }
}

impl Channel {
    fn open(endpoint: &dyn Endpoint, deadline_polls: u64) -> Result<Channel, ConnectFailure> {
        let stream = endpoint.open().map_err(ConnectFailure::Dead)?;
        let mut channel = Channel {
            frames: FrameReader::new(stream.reader),
            writer: stream.writer,
            worker: stream.worker,
            read_failpoint: stream.read_failpoint,
            completed: 0,
            deadline_polls,
        };
        let hello = DispatchFrame::Hello {
            protocol: PROTOCOL_VERSION,
        };
        write_frame(&mut channel.writer, &hello).map_err(ConnectFailure::Dead)?;
        let line = channel
            .read_reply("closed the connection during the handshake")
            .map_err(ConnectFailure::Dead)?;
        let reply: WorkerFrame = serde_json::from_str(&line).map_err(|e| {
            ConnectFailure::Refused(format!("sent an unparseable handshake reply: {e}"))
        })?;
        match reply {
            WorkerFrame::Welcome { protocol } if protocol == PROTOCOL_VERSION => Ok(channel),
            WorkerFrame::Welcome { protocol } => Err(ConnectFailure::Refused(format!(
                "speaks protocol v{protocol}, this dispatcher speaks v{PROTOCOL_VERSION}"
            ))),
            WorkerFrame::Reject { reason } => Err(ConnectFailure::Refused(reason)),
            WorkerFrame::Completed(_) => Err(ConnectFailure::Refused(
                "answered the handshake with a result frame".to_string(),
            )),
        }
    }

    /// Reads one reply line under the per-reply deadline: each blocking
    /// read times out after [`READ_POLL_MS`] and the polls are counted,
    /// so a worker that stops answering surfaces a `TimedOut` error after
    /// `deadline_polls` polls instead of wedging the dispatcher thread.
    fn read_reply(&mut self, eof: &str) -> io::Result<String> {
        let mut polls: u64 = 0;
        loop {
            match self.frames.read_frame()? {
                Frame::Line(line) => return Ok(line),
                Frame::Eof => return Err(io::Error::new(io::ErrorKind::UnexpectedEof, eof)),
                Frame::Idle => {
                    polls += 1;
                    if polls >= self.deadline_polls {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            format!(
                                "no reply within the {} ms deadline",
                                self.deadline_polls.saturating_mul(READ_POLL_MS)
                            ),
                        ));
                    }
                }
            }
        }
    }

    /// Sends one assignment. Any error here or in
    /// [`read_result`](Self::read_result) means the channel is unusable
    /// and must be replaced.
    fn assign(&mut self, item: &WorkItem) -> io::Result<()> {
        write_frame(&mut self.writer, &DispatchFrame::Assign(item.clone()))
    }

    /// Reads the result of the oldest unanswered assignment: the worker
    /// answers in order.
    fn read_result(&mut self) -> io::Result<PartResult> {
        if let Some(point) = self.read_failpoint {
            faults::hit_io(point)?;
        }
        let line = self.read_reply("closed the connection mid-item")?;
        let frame: WorkerFrame = serde_json::from_str(&line).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("sent an unparseable frame: {e}"),
            )
        })?;
        match frame {
            WorkerFrame::Completed(result) => Ok(result),
            WorkerFrame::Welcome { .. } | WorkerFrame::Reject { .. } => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "sent a handshake frame mid-run",
            )),
        }
    }
}

/// The shared dispatch queue plus the in-flight ledger that makes the
/// work-stealing termination protocol sound. An idle dispatcher thread
/// may only exit when the queue is empty AND nothing is in flight (a
/// slot's running and pre-assigned items both count): otherwise a dying
/// channel could re-queue its items after every peer already went home,
/// stranding them with live slots available (the race the in-flight
/// count exists to close). Threads
/// with nothing to steal park on the paired [`Condvar`] and are woken by
/// every re-queue, every settled item and every fatal error.
struct DispatchQueue {
    pending: VecDeque<(WorkItem, usize)>,
    in_flight: usize,
    /// Items settled so far by every slot: a slot reads from it how many
    /// items the rest of the fleet finished while it ran one.
    finished: usize,
}

/// The backend behind [`Backend::Local`], [`Backend::Process`] and
/// [`Backend::Remote`]: dispatches work items over worker channels, one
/// dispatcher thread per slot, the calling thread serving the first.
/// Each subprocess or host slot keeps up to [`PIPELINE_DEPTH`] items
/// assigned on its channel while the queue is long enough (see
/// [`PRE_ASSIGN_MARGIN`]), so its worker does not wait out a round trip
/// between items; a thread slot keeps one.
///
/// A slot whose first channel cannot be opened, or whose peer rejects the
/// handshake (version skew), fails the run immediately. On cancel
/// ([`RunObserver::cancelled`]) each dispatcher thread stops taking
/// items, lets its running item finish, closes its channel and hands a
/// pre-assigned item back unstarted.
///
/// [`Backend::Local`]: crate::runner::Backend::Local
/// [`Backend::Process`]: crate::runner::Backend::Process
/// [`Backend::Remote`]: crate::runner::Backend::Remote
pub struct Dispatcher {
    peers: Vec<Peer>,
    deadline_ms: u64,
}

impl Dispatcher {
    /// Dispatches to `jobs` in-process worker threads (clamped to at
    /// least one) that resolve ids against `scenarios`. A thread cannot
    /// be killed, so these slots wait for every reply without a deadline.
    pub fn threads(scenarios: Vec<Arc<dyn Scenario>>, jobs: usize) -> Self {
        Dispatcher {
            peers: vec![Peer::Thread(scenarios.into()); jobs.max(1)],
            deadline_ms: u64::MAX,
        }
    }

    /// Dispatches to `jobs` worker subprocesses launched from `command`
    /// (clamped to at least one).
    pub fn processes(command: WorkerCommand, jobs: usize) -> Self {
        Dispatcher {
            peers: vec![Peer::Spawn(command); jobs.max(1)],
            deadline_ms: DEFAULT_ITEM_DEADLINE_MS,
        }
    }

    /// Dispatches to `serve-worker` hosts at `workers` (socket addresses
    /// like `127.0.0.1:7461`; list an address twice for two concurrent
    /// channels to the same host).
    pub fn hosts(workers: Vec<String>) -> Self {
        Dispatcher {
            peers: workers.into_iter().map(Peer::Host).collect(),
            deadline_ms: DEFAULT_ITEM_DEADLINE_MS,
        }
    }

    /// Sets the per-reply deadline in milliseconds (clamped to at least
    /// one read poll). A worker that has not answered within this budget
    /// is abandoned and its item re-queued on the surviving slots. A
    /// worker thread is joined when abandoned, so on
    /// [`threads`](Self::threads) slots the re-queue waits for its part.
    #[must_use]
    pub fn deadline_millis(mut self, deadline_ms: u64) -> Self {
        self.deadline_ms = deadline_ms.max(READ_POLL_MS);
        self
    }
}

impl Executor for Dispatcher {
    fn execute(
        &self,
        items: Vec<WorkItem>,
        observer: &dyn RunObserver,
    ) -> Result<Vec<PartResult>, ExecutorError> {
        dispatch(&self.peers, items, observer, self.deadline_ms)
    }
}

/// The dispatch loop: one slot per endpoint steals items off the shared
/// queue and keeps up to the endpoint's window of them assigned on that
/// endpoint's channel. The calling thread runs the first slot, a scoped
/// thread each other one.
fn dispatch<E: Endpoint>(
    endpoints: &[E],
    items: Vec<WorkItem>,
    observer: &dyn RunObserver,
    deadline_ms: u64,
) -> Result<Vec<PartResult>, ExecutorError> {
    if items.is_empty() {
        return Ok(Vec::new());
    }
    if endpoints.is_empty() {
        return Err(ExecutorError::new(
            "remote backend has no worker hosts configured (add --worker ADDR)",
        ));
    }
    let total = items.len();
    let deadline_polls = deadline_ms.div_ceil(READ_POLL_MS).max(1);
    let queue: Mutex<DispatchQueue> = Mutex::new(DispatchQueue {
        pending: items.into_iter().map(|item| (item, 0)).collect(),
        in_flight: 0,
        finished: 0,
    });
    let wake = Condvar::new();
    let results: Mutex<Vec<PartResult>> = Mutex::new(Vec::new());
    // Fingerprints already merged — the dedup ledger that guarantees a
    // re-queued item can never land twice.
    let merged: Mutex<BTreeSet<String>> = Mutex::new(BTreeSet::new());
    let fatal: Mutex<Option<ExecutorError>> = Mutex::new(None);
    // Why the last abandoned slot went away, for the stranded-work error.
    let last_loss: Mutex<Option<String>> = Mutex::new(None);
    let fail = |message: String| {
        fatal
            .lock()
            .expect("fatal lock")
            .get_or_insert(ExecutorError::new(message));
        // Parked stealers re-check the fatal flag on every wake-up.
        wake.notify_all();
    };
    // An item leaves a slot's hands by a re-queue (`requeue`,
    // `hand_back`) or a settle; each wakes the parked stealers so the
    // termination condition (empty queue, nothing in flight) is
    // re-evaluated.
    let fail_item = |item: &WorkItem, message: String| {
        let state = PartState::Error(message.clone());
        observer.part_event(PartEvent::for_item(item, state));
        fail(message);
    };
    let requeue = |item: WorkItem, retries: usize| {
        let mut state = queue.lock().expect("queue lock");
        state.pending.push_back((item, retries));
        state.in_flight -= 1;
        wake.notify_all();
    };
    // Returns how many items the whole fleet has settled.
    let settle = |count: usize| {
        let mut state = queue.lock().expect("queue lock");
        state.in_flight -= count;
        state.finished += count;
        wake.notify_all();
        state.finished
    };
    // A slot's pre-assigned items never ran: they go back to the front
    // of the queue, in order and uncharged.
    let hand_back = |tail: &mut VecDeque<(WorkItem, usize)>| {
        let mut state = queue.lock().expect("queue lock");
        state.in_flight -= tail.len();
        while let Some(entry) = tail.pop_back() {
            state.pending.push_front(entry);
        }
        wake.notify_all();
    };
    // A slot gives up on its peer: hand the item back to the survivors.
    let abandon = |item: WorkItem, retries: usize, loss: String| {
        eprintln!(
            "warning: {loss}; re-queueing {}#{} for the remaining workers",
            item.scenario_id, item.part
        );
        *last_loss.lock().expect("loss lock") = Some(loss);
        requeue(item, retries);
    };
    let slots = endpoints.len().min(total);
    // Takes the next item off the queue, with the count of items settled
    // so far. A slot with nothing assigned (`keep` is `None`) parks until
    // an item comes back or the run drains. A slot topping up its window
    // never parks, and takes an item only while at least `keep` stay
    // queued behind it.
    let take = |keep: Option<usize>| {
        let mut state = queue.lock().expect("queue lock");
        loop {
            // Checked before every pop, including after waking from the
            // park below: a cancelled run takes no further items.
            if observer.cancelled() || keep.is_some_and(|keep| state.pending.len() <= keep) {
                return None;
            }
            if let Some(entry) = state.pending.pop_front() {
                state.in_flight += 1;
                return Some((entry, state.finished));
            }
            if state.in_flight == 0 {
                // Drained for good: nothing queued and nothing left
                // that could re-queue.
                return None;
            }
            // Another slot holds the remaining items; if it dies they
            // come back here. Park until a re-queue, a settle or a fatal.
            state = wake.wait(state).expect("queue lock");
            if fatal.lock().expect("fatal lock").is_some() {
                return None;
            }
        }
    };
    // One slot: steal items off the queue and keep up to the endpoint's
    // window of them assigned on a channel to `endpoint`.
    let slot = |endpoint: &E| {
        let label = endpoint.label();
        let window = endpoint.window();
        let mut channel: Option<Channel> = None;
        let mut ever_connected = false;
        // Assigned, unanswered items, oldest first. The worker runs them
        // in order: the head is running, the tail waits in its buffer.
        let mut assigned: VecDeque<(WorkItem, usize)> = VecDeque::new();
        // The fleet's settled count when the head started, and how many
        // items the rest of the fleet settled while the last head ran.
        let mut head_mark = 0;
        let mut others: Option<usize> = None;
        loop {
            if fatal.lock().expect("fatal lock").is_some() {
                settle(assigned.len());
                break;
            }
            let mut sent = Ok(());
            if assigned.is_empty() {
                let Some(((item, retries), settled)) = take(None) else {
                    break;
                };
                head_mark = settled;
                if channel.is_none() {
                    match Channel::open(endpoint, deadline_polls) {
                        Ok(opened) => {
                            channel = Some(opened);
                            ever_connected = true;
                        }
                        Err(ConnectFailure::Refused(reason)) => {
                            fail(format!("{label} refused the dispatcher: {reason}"));
                            settle(1);
                            break;
                        }
                        // A peer that opens but never answers the
                        // handshake is *hung*, not misconfigured:
                        // abandon it and let the survivors drain the
                        // queue, even on the very first attempt.
                        Err(ConnectFailure::Dead(e)) if ever_connected || is_timeout(&e) => {
                            abandon(item, retries, format!("{label} is gone ({e})"));
                            break;
                        }
                        Err(ConnectFailure::Dead(e)) => {
                            fail(format!("cannot {} {label}: {e}", endpoint.open_verb()));
                            settle(1);
                            break;
                        }
                    }
                }
                observer.part_event(PartEvent::for_item(&item, PartState::Started));
                sent = channel
                    .as_mut()
                    .expect("channel just ensured")
                    .assign(&item);
                assigned.push_back((item, retries));
            }
            let active = channel.as_mut().expect("assigned items have a channel");
            let keep = others.map(|others| others * PRE_ASSIGN_MARGIN);
            while sent.is_ok() && keep.is_some() && assigned.len() < window {
                let Some((entry, _)) = take(keep) else {
                    break;
                };
                sent = active.assign(&entry.0);
                assigned.push_back(entry);
            }
            let reply = sent.and_then(|()| active.read_result());
            let (item, retries) = assigned.pop_front().expect("a slot reads only its head");
            match reply {
                Ok(result) => {
                    if let Some(error) = &result.error {
                        fail_item(
                            &item,
                            format!(
                                "{label} failed on {}#{}: {error}",
                                item.scenario_id, item.part
                            ),
                        );
                        settle(1 + assigned.len());
                        break;
                    }
                    if result.scenario_id != item.scenario_id
                        || result.part != item.part
                        || result.fingerprint != item.fingerprint
                    {
                        fail(format!(
                            "{label} answered {}#{} with a result for {}#{} (protocol error)",
                            item.scenario_id, item.part, result.scenario_id, result.part
                        ));
                        settle(1 + assigned.len());
                        break;
                    }
                    active.completed += 1;
                    let first_landing = merged
                        .lock()
                        .expect("merged lock")
                        .insert(result.fingerprint.clone());
                    if first_landing {
                        observer.part_event(PartEvent::for_result(&result));
                        results.lock().expect("results lock").push(result);
                    } else {
                        eprintln!(
                            "warning: dropped a duplicate result for {}#{} from {label} (fingerprint already merged)",
                            item.scenario_id, item.part
                        );
                    }
                    let settled = settle(1);
                    others = Some(settled - head_mark - 1);
                    head_mark = settled;
                    if let Some((next, _)) = assigned.front() {
                        if observer.cancelled() {
                            // Stop at the boundary: the tail goes back
                            // unstarted and is never merged. Closing
                            // kills a subprocess that began it; a host
                            // has the tail's `Assign` buffered already,
                            // so it still runs the whole part and then
                            // fails to write the answer.
                            drop(channel.take());
                            hand_back(&mut assigned);
                        } else {
                            observer.part_event(PartEvent::for_item(next, PartState::Started));
                        }
                    }
                }
                Err(e) if is_timeout(&e) => {
                    // Per-item deadline: the worker is hung (open,
                    // silent). Abandon the slot — a late reply on
                    // this channel would desync the framing anyway
                    // — and re-queue its items on the survivors. No
                    // retry charge: the worker is at fault, not
                    // the items.
                    drop(channel.take());
                    hand_back(&mut assigned);
                    let loss = format!(
                        "{label} hit the per-item deadline on {}#{} ({e})",
                        item.scenario_id, item.part
                    );
                    abandon(item, retries, loss);
                    break;
                }
                Err(e) => {
                    // The channel is gone or confused: drop it,
                    // re-queue its items and reopen lazily on the
                    // next iteration. Only deaths of *fresh* channels
                    // (no completed items) are charged, and only to
                    // the head — a toxic item kills every fresh
                    // worker it meets, while a worker wearing out
                    // after completed work says nothing about the
                    // item it happened to hold, and the tail never
                    // ran at all.
                    let fresh_death = channel
                        .take()
                        .map(|dead| dead.completed == 0)
                        .unwrap_or(true);
                    let retries = if fresh_death { retries + 1 } else { retries };
                    if retries > DEFAULT_MAX_ITEM_RETRIES {
                        fail_item(
                            &item,
                            format!(
                                "{}#{} killed {retries} fresh worker channel(s) ({e}); giving up",
                                item.scenario_id, item.part
                            ),
                        );
                        settle(1 + assigned.len());
                        break;
                    }
                    hand_back(&mut assigned);
                    let pause = retry_backoff_millis(&item.fingerprint, retries);
                    eprintln!(
                        "warning: {label} failed while running {}#{} ({e}); re-queueing after {pause} ms ({retries}/{DEFAULT_MAX_ITEM_RETRIES} charged retries)",
                        item.scenario_id, item.part
                    );
                    // detlint: allow(D002) reason="bounded retry backoff; the pause is deterministic (fingerprint-derived) and its duration never feeds back into any output"
                    std::thread::sleep(Duration::from_millis(pause));
                    requeue(item, retries);
                }
            }
        }
    };
    std::thread::scope(|scope| {
        let slot = &slot;
        let mut endpoints = endpoints.iter().take(slots);
        let first = endpoints.next().expect("items and endpoints are non-empty");
        for endpoint in endpoints {
            scope.spawn(move || slot(endpoint));
        }
        // The calling thread runs one slot itself, so a one-slot job
        // starts no dispatcher thread.
        slot(first);
    });
    if let Some(error) = fatal.into_inner().expect("fatal lock") {
        return Err(error);
    }
    let stranded = queue.into_inner().expect("queue lock").pending.len();
    // Items left queued by a cancel are the caller's to account for; only
    // slots that all died under a live run strand them.
    if stranded > 0 && !observer.cancelled() {
        let cause = last_loss
            .into_inner()
            .expect("loss lock")
            .map(|loss| format!(" (last loss: {loss})"))
            .unwrap_or_default();
        return Err(ExecutorError::new(format!(
            "all {slots} worker slot(s) are gone with {stranded} of {total} item(s) still queued{cause}"
        )));
    }
    Ok(results.into_inner().expect("results lock"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::run_work_item;
    use crate::experiment::{ExperimentReport, Series};
    use crate::scenario_api::{Scenario, ScenarioParams};
    use rand::rngs::StdRng;
    use rand::Rng;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;

    /// A toy scenario whose report title carries multi-byte characters,
    /// like the real registry's.
    struct Toy;

    impl Scenario for Toy {
        fn id(&self) -> &str {
            "toy"
        }
        fn title(&self) -> &str {
            "toy"
        }
        fn run_part(
            &self,
            part: usize,
            _params: &ScenarioParams,
            rng: &mut StdRng,
        ) -> Vec<ExperimentReport> {
            let mut r = ExperimentReport::new("toy", "Toy — deletions (±1)", "part", "value");
            r.push_series(Series::new(
                "trace",
                vec![part as f64],
                vec![rng.gen_range(0.0f64..1.0)],
            ));
            vec![r]
        }
    }

    fn items(count: usize) -> Vec<WorkItem> {
        let params = ScenarioParams::with_seed(5);
        (0..count)
            .map(|part| WorkItem::new(&Toy, part, &params))
            .collect()
    }

    fn completed(item: &WorkItem) -> Vec<u8> {
        let mut line = Vec::new();
        let result = PartResult::ok(item, run_work_item(&Toy, item));
        write_frame(&mut line, &WorkerFrame::Completed(result)).unwrap();
        line
    }

    /// One read step of a fake channel.
    enum Step {
        Bytes(Vec<u8>),
        /// One read timeout (a deadline poll).
        Stall,
        /// Block until the gate opens, then read EOF (the worker dies).
        DieAfter(Arc<(Mutex<bool>, Condvar)>),
        /// Count one reply the dispatcher began to read, then read on.
        Mark(Arc<AtomicUsize>),
        /// Block until the gate opens (or for at most [`AWAIT_LIMIT`]),
        /// then read on.
        Await(Arc<(Mutex<bool>, Condvar)>),
    }

    /// How long an [`Step::Await`] waits for a gate that never opens, so
    /// a dispatcher that does not open it fails the test instead of
    /// hanging it.
    const AWAIT_LIMIT: Duration = Duration::from_secs(5);

    fn open_gate(gate: &(Mutex<bool>, Condvar)) {
        *gate.0.lock().unwrap() = true;
        gate.1.notify_all();
    }

    /// How a fake worker answers one assignment: `(channel ordinal,
    /// item) -> read steps`. An empty answer is a silent, hung worker.
    type Answer = dyn Fn(usize, &WorkItem) -> Vec<Step> + Send + Sync;

    /// An in-memory worker endpoint: no sockets, no processes. It always
    /// welcomes the handshake and answers assignments through `answer`.
    struct Fake {
        opens: AtomicUsize,
        /// Opens beyond this many fail, so the slot's peer is gone.
        max_opens: usize,
        answer: Arc<Answer>,
    }

    impl Fake {
        fn new(answer: impl Fn(usize, &WorkItem) -> Vec<Step> + Send + Sync + 'static) -> Self {
            Fake {
                opens: AtomicUsize::new(0),
                max_opens: usize::MAX,
                answer: Arc::new(answer),
            }
        }

        fn healthy() -> Self {
            Fake::new(|_, item| vec![Step::Bytes(completed(item))])
        }
    }

    type Steps = Arc<Mutex<VecDeque<Step>>>;

    struct FakeReader(Steps);

    impl Read for FakeReader {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            loop {
                let step = self.0.lock().unwrap().pop_front();
                match step {
                    None | Some(Step::Stall) => return Err(io::ErrorKind::WouldBlock.into()),
                    Some(Step::Bytes(mut bytes)) => {
                        let n = bytes.len().min(buf.len());
                        buf[..n].copy_from_slice(&bytes[..n]);
                        if n < bytes.len() {
                            self.0
                                .lock()
                                .unwrap()
                                .push_front(Step::Bytes(bytes.split_off(n)));
                        }
                        return Ok(n);
                    }
                    Some(Step::DieAfter(gate)) => {
                        let (open, signal) = &*gate;
                        let mut opened = open.lock().unwrap();
                        while !*opened {
                            opened = signal.wait(opened).unwrap();
                        }
                        return Ok(0);
                    }
                    Some(Step::Mark(count)) => {
                        count.fetch_add(1, Ordering::SeqCst);
                    }
                    Some(Step::Await(gate)) => {
                        let (open, signal) = &*gate;
                        let opened = open.lock().unwrap();
                        let _ = signal
                            .wait_timeout_while(opened, AWAIT_LIMIT, |opened| !*opened)
                            .unwrap();
                    }
                }
            }
        }
    }

    struct FakeWriter {
        steps: Steps,
        ordinal: usize,
        answer: Arc<Answer>,
        pending: Vec<u8>,
    }

    impl Write for FakeWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.pending.extend_from_slice(buf);
            while let Some(end) = self.pending.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.pending.drain(..=end).collect();
                let reply = match serde_json::from_slice::<DispatchFrame>(&line).unwrap() {
                    DispatchFrame::Hello { .. } => {
                        let mut welcome = Vec::new();
                        let frame = WorkerFrame::Welcome {
                            protocol: PROTOCOL_VERSION,
                        };
                        write_frame(&mut welcome, &frame).unwrap();
                        vec![Step::Bytes(welcome)]
                    }
                    DispatchFrame::Assign(item) => (self.answer)(self.ordinal, &item),
                };
                self.steps.lock().unwrap().extend(reply);
            }
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Endpoint for Fake {
        fn label(&self) -> String {
            "fake worker".to_string()
        }
        fn open_verb(&self) -> &'static str {
            "open"
        }
        fn open(&self) -> io::Result<Stream> {
            let ordinal = self.opens.fetch_add(1, Ordering::SeqCst);
            if ordinal >= self.max_opens {
                return Err(io::ErrorKind::ConnectionRefused.into());
            }
            let steps: Steps = Arc::default();
            Ok(Stream {
                reader: Box::new(FakeReader(steps.clone())),
                writer: Box::new(FakeWriter {
                    steps,
                    ordinal,
                    answer: self.answer.clone(),
                    pending: Vec::new(),
                }),
                worker: None,
                read_failpoint: None,
            })
        }
    }

    /// Records lifecycle events and can raise a cancel.
    #[derive(Default)]
    struct Recorder {
        started: AtomicUsize,
        finished: Mutex<Vec<usize>>,
        cancel_after: Option<usize>,
        cancelled: AtomicBool,
    }

    impl RunObserver for Recorder {
        fn part_event(&self, event: PartEvent) {
            if event.state == PartState::Started {
                self.started.fetch_add(1, Ordering::SeqCst);
                return;
            }
            let mut finished = self.finished.lock().unwrap();
            finished.push(event.part);
            if Some(finished.len()) == self.cancel_after {
                self.cancelled.store(true, Ordering::SeqCst);
            }
        }
        fn cancelled(&self) -> bool {
            self.cancelled.load(Ordering::SeqCst)
        }
    }

    fn sorted(mut results: Vec<PartResult>) -> Vec<PartResult> {
        results.sort_by_key(|r| r.part);
        results
    }

    fn expected(items: &[WorkItem]) -> Vec<PartResult> {
        items
            .iter()
            .map(|item| PartResult::ok(item, run_work_item(&Toy, item)))
            .collect()
    }

    #[test]
    fn a_reply_split_mid_character_by_a_timeout_arrives_intact() {
        // The reply pauses (one read timeout) inside the three-byte '—'
        // of the report title: the frame must survive the poll intact.
        let fake = Fake::new(|_, item| {
            let line = completed(item);
            let dash = line
                .windows(3)
                .position(|w| w == "—".as_bytes())
                .expect("the title carries an em dash");
            vec![
                Step::Bytes(line[..dash + 1].to_vec()),
                Step::Stall,
                Step::Bytes(line[dash + 1..].to_vec()),
            ]
        });
        let batch = items(2);
        let results = dispatch(&[fake], batch.clone(), &(), DEFAULT_ITEM_DEADLINE_MS).unwrap();
        assert_eq!(sorted(results), expected(&batch));
    }

    #[test]
    fn cancel_stops_taking_items_at_the_next_boundary() {
        let observer = Recorder {
            cancel_after: Some(1),
            ..Recorder::default()
        };
        let fake = Fake::healthy();
        let results = dispatch(&[fake], items(4), &observer, DEFAULT_ITEM_DEADLINE_MS).unwrap();
        assert_eq!(results.len(), 1, "the in-flight item finished, no more");
        assert_eq!(observer.started.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn an_item_requeued_after_its_peers_went_idle_still_completes() {
        // Slot A takes part 0 and dies only once part 1 has finished on
        // slot B — after B found the queue empty. B must be woken by the
        // re-queue instead of having gone home, since A cannot reopen.
        let gate: Arc<(Mutex<bool>, Condvar)> = Arc::default();
        let dies = gate.clone();
        let doomed = Arc::new(AtomicBool::new(true));
        let answer = move |_: usize, item: &WorkItem| {
            if item.part == 0 && doomed.swap(false, Ordering::SeqCst) {
                vec![Step::DieAfter(dies.clone())]
            } else {
                vec![Step::Bytes(completed(item))]
            }
        };
        let answer: Arc<Answer> = Arc::new(answer);
        let fake = || Fake {
            opens: AtomicUsize::new(0),
            max_opens: 1,
            answer: answer.clone(),
        };
        struct OpenGate(Arc<(Mutex<bool>, Condvar)>);
        impl RunObserver for OpenGate {
            fn part_event(&self, event: PartEvent) {
                if event.state == PartState::Finished {
                    *self.0 .0.lock().unwrap() = true;
                    self.0 .1.notify_all();
                }
            }
        }
        let batch = items(2);
        let results = dispatch(
            &[fake(), fake()],
            batch.clone(),
            &OpenGate(gate),
            DEFAULT_ITEM_DEADLINE_MS,
        )
        .unwrap();
        assert_eq!(sorted(results), expected(&batch));
    }

    #[test]
    fn duplicate_results_are_merged_once() {
        let batch = items(1);
        let twice = vec![batch[0].clone(), batch[0].clone()];
        let observer = Recorder::default();
        let fakes = [Fake::healthy(), Fake::healthy()];
        let results = dispatch(&fakes, twice, &observer, DEFAULT_ITEM_DEADLINE_MS).unwrap();
        assert_eq!(results, expected(&batch));
        assert_eq!(*observer.finished.lock().unwrap(), vec![0]);
    }

    #[test]
    fn an_item_that_kills_every_fresh_channel_fails_after_the_retry_bound() {
        let fake = Fake::new(|_, _| vec![Step::Bytes(b"garbage\n".to_vec())]);
        let error = dispatch(&[fake], items(1), &(), DEFAULT_ITEM_DEADLINE_MS).unwrap_err();
        let message = error.to_string();
        assert!(message.contains("giving up"), "{message}");
        assert!(
            message.contains(&format!("killed {}", DEFAULT_MAX_ITEM_RETRIES + 1)),
            "{message}"
        );
    }

    #[test]
    fn a_result_that_is_not_utf8_kills_its_channel_and_is_never_merged() {
        // A byte of the title's em dash becomes 0xff: decoded leniently,
        // the corrupt title would be merged into the summary.
        let corrupt = |item: &WorkItem| {
            let mut line = completed(item);
            let dash = line
                .windows(3)
                .position(|w| w == "—".as_bytes())
                .expect("the title carries an em dash");
            line[dash + 1] = 0xff;
            line
        };
        let fake = Fake::new(move |ordinal, item| match ordinal {
            0 => vec![Step::Bytes(corrupt(item))],
            _ => vec![Step::Bytes(completed(item))],
        });
        let batch = items(2);
        let results = dispatch(&[fake], batch.clone(), &(), DEFAULT_ITEM_DEADLINE_MS).unwrap();
        assert_eq!(sorted(results), expected(&batch), "re-queued, then served");
        let fake = Fake::new(move |_, item| vec![Step::Bytes(corrupt(item))]);
        let error = dispatch(&[fake], items(1), &(), DEFAULT_ITEM_DEADLINE_MS).unwrap_err();
        let message = error.to_string();
        assert!(message.contains("not valid UTF-8"), "{message}");
        assert!(message.contains("giving up"), "{message}");
    }

    #[test]
    fn the_item_that_fails_the_batch_is_reported_as_an_error_event() {
        /// Records every state in arrival order.
        #[derive(Default)]
        struct States(Mutex<Vec<PartState>>);
        impl RunObserver for States {
            fn part_event(&self, event: PartEvent) {
                self.0.lock().unwrap().push(event.state);
            }
        }
        // A worker that answers with an error result.
        let refusing = Fake::new(|_, item| {
            let mut line = Vec::new();
            let result = PartResult::failed(item, "scenario 'toy' is not registered");
            write_frame(&mut line, &WorkerFrame::Completed(result)).unwrap();
            vec![Step::Bytes(line)]
        });
        let observer = States::default();
        let error = dispatch(&[refusing], items(1), &observer, DEFAULT_ITEM_DEADLINE_MS)
            .unwrap_err()
            .to_string();
        assert!(error.contains("is not registered"), "{error}");
        let states = observer.0.into_inner().unwrap();
        assert_eq!(states, vec![PartState::Started, PartState::Error(error)]);
        // An item that exhausts its retry budget.
        let killing = Fake::new(|_, _| vec![Step::Bytes(b"garbage\n".to_vec())]);
        let observer = States::default();
        let error = dispatch(&[killing], items(1), &observer, DEFAULT_ITEM_DEADLINE_MS)
            .unwrap_err()
            .to_string();
        assert!(error.contains("giving up"), "{error}");
        let states = observer.0.into_inner().unwrap();
        assert_eq!(states.last(), Some(&PartState::Error(error)));
        assert_eq!(
            states.len(),
            DEFAULT_MAX_ITEM_RETRIES + 2,
            "one start per channel"
        );
    }

    #[test]
    fn a_silent_worker_is_abandoned_at_the_deadline_and_its_item_requeued() {
        let hung = Fake::new(|_, _| Vec::new());
        let batch = items(3);
        let results = dispatch(&[hung, Fake::healthy()], batch.clone(), &(), READ_POLL_MS).unwrap();
        assert_eq!(sorted(results), expected(&batch));
        // Alone, the silent worker strands the batch with a named cause.
        let hung = Fake::new(|_, _| Vec::new());
        let error = dispatch(&[hung], batch, &(), READ_POLL_MS).unwrap_err();
        let message = error.to_string();
        assert!(message.contains("still queued"), "{message}");
        assert!(message.contains("deadline"), "{message}");
    }

    /// A fake endpoint with a worker thread's window.
    struct ThreadLike(Fake);

    impl Endpoint for ThreadLike {
        fn label(&self) -> String {
            self.0.label()
        }
        fn open_verb(&self) -> &'static str {
            self.0.open_verb()
        }
        fn open(&self) -> io::Result<Stream> {
            self.0.open()
        }
        fn window(&self) -> usize {
            Peer::Thread(Vec::new().into()).window()
        }
    }

    /// `(part, replies the dispatcher had begun to read)` per assignment,
    /// in the order the assignments were written.
    type Seen = Arc<Mutex<Vec<(usize, usize)>>>;

    /// A fake worker that records a [`Seen`] entry per assignment.
    fn recording_reads() -> (Fake, Seen) {
        let begun = Arc::new(AtomicUsize::new(0));
        let seen: Seen = Arc::default();
        let log = seen.clone();
        let fake = Fake::new(move |_, item| {
            log.lock()
                .unwrap()
                .push((item.part, begun.load(Ordering::SeqCst)));
            vec![Step::Mark(begun.clone()), Step::Bytes(completed(item))]
        });
        (fake, seen)
    }

    #[test]
    fn the_next_item_is_assigned_before_the_head_is_answered() {
        let (fake, seen) = recording_reads();
        let batch = items(4);
        let results = dispatch(&[fake], batch.clone(), &(), DEFAULT_ITEM_DEADLINE_MS).unwrap();
        assert_eq!(sorted(results), expected(&batch));
        // Part 0 runs alone: the slot has not yet measured the fleet.
        // Part 2 goes out before part 1's reply is read, part 3 right
        // after it: never more than one item waits behind the head.
        assert_eq!(*seen.lock().unwrap(), vec![(0, 0), (1, 1), (2, 1), (3, 2)]);
    }

    #[test]
    fn a_thread_peer_never_has_two_assignments_outstanding() {
        assert_eq!(Peer::Thread(Vec::new().into()).window(), 1);
        let (fake, seen) = recording_reads();
        let batch = items(3);
        let results = dispatch(
            &[ThreadLike(fake)],
            batch.clone(),
            &(),
            DEFAULT_ITEM_DEADLINE_MS,
        )
        .unwrap();
        assert_eq!(sorted(results), expected(&batch));
        assert_eq!(*seen.lock().unwrap(), vec![(0, 0), (1, 1), (2, 2)]);
    }

    #[test]
    fn a_channel_dying_on_its_head_charges_only_a_fresh_head_and_hands_the_tail_back() {
        // Channel 0 answers part 0, then dies holding part 1 as head and
        // part 2 as tail: not fresh, so nothing is charged. Channels 1 to
        // 6 die fresh, each holding one of the two parts as head and the
        // other as tail; the heads alternate, so each part is charged
        // three times, within the bound, and channel 7 serves both.
        // Charging a tail, or the head of channel 0, exceeds the bound.
        let dead: Arc<(Mutex<bool>, Condvar)> = Arc::new((Mutex::new(true), Condvar::new()));
        let fake = Fake::new(move |ordinal, item| match ordinal {
            0 if item.part == 0 => vec![Step::Bytes(completed(item))],
            0..=6 => vec![Step::DieAfter(dead.clone())],
            _ => vec![Step::Bytes(completed(item))],
        });
        let batch = items(3);
        let fakes = [fake];
        let results = dispatch(&fakes, batch.clone(), &(), DEFAULT_ITEM_DEADLINE_MS).unwrap();
        assert_eq!(sorted(results), expected(&batch));
        assert_eq!(fakes[0].opens.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn a_silent_worker_holding_a_tail_hands_both_items_to_the_survivor() {
        // The silent worker answers its first item, then nothing. The
        // healthy worker answers nothing until the silent one holds a
        // head and a tail, so the silent one cannot miss its tail.
        let gate: Arc<(Mutex<bool>, Condvar)> = Arc::default();
        let assigned = Arc::new(AtomicUsize::new(0));
        let (opens, count) = (gate.clone(), assigned.clone());
        let hung = Fake::new(move |_, item| match count.fetch_add(1, Ordering::SeqCst) {
            0 => vec![Step::Bytes(completed(item))],
            1 => Vec::new(),
            _ => {
                open_gate(&opens);
                Vec::new()
            }
        });
        let healthy =
            Fake::new(move |_, item| vec![Step::Await(gate.clone()), Step::Bytes(completed(item))]);
        let batch = items(6);
        let results = dispatch(&[hung, healthy], batch.clone(), &(), READ_POLL_MS).unwrap();
        assert_eq!(sorted(results), expected(&batch));
        assert_eq!(
            assigned.load(Ordering::SeqCst),
            3,
            "one answered, a head and a tail"
        );
    }

    #[test]
    fn a_slot_the_fleet_outpaces_does_not_pre_assign() {
        // Slot B starts once slot A holds its first item, and A's first
        // reply waits until B holds its fifth, so B finished three items
        // while A ran one. With four items queued, A then takes its
        // second item alone. B stalls on its fourth item until A holds
        // its fourth, so B finishes nothing during A's second item and A
        // pipelines from then on.
        let gates: [Arc<(Mutex<bool>, Condvar)>; 3] = Default::default();
        let [a_first, b_fifth, a_fourth] = gates.clone();
        let begun = Arc::new(AtomicUsize::new(0));
        let seen: Seen = Arc::default();
        let log = seen.clone();
        let a = Fake::new(move |_, item| {
            let mut log = log.lock().unwrap();
            log.push((item.part, begun.load(Ordering::SeqCst)));
            let mut steps = Vec::new();
            match log.len() {
                1 => {
                    open_gate(&a_first);
                    steps.push(Step::Await(b_fifth.clone()));
                }
                4 => open_gate(&a_fourth),
                _ => {}
            }
            steps.extend([Step::Mark(begun.clone()), Step::Bytes(completed(item))]);
            steps
        });
        let [a_first, b_fifth, a_fourth] = gates;
        let b_assigned = AtomicUsize::new(0);
        let b = Fake::new(move |_, item| {
            let mut steps = Vec::new();
            match b_assigned.fetch_add(1, Ordering::SeqCst) {
                0 => steps.push(Step::Await(a_first.clone())),
                3 => steps.push(Step::Await(a_fourth.clone())),
                4 => open_gate(&b_fifth),
                _ => {}
            }
            steps.push(Step::Bytes(completed(item)));
            steps
        });
        let batch = items(10);
        let results = dispatch(&[a, b], batch.clone(), &(), DEFAULT_ITEM_DEADLINE_MS).unwrap();
        assert_eq!(sorted(results), expected(&batch));
        let begun_at: Vec<usize> = seen.lock().unwrap().iter().map(|&(_, b)| b).collect();
        assert_eq!(begun_at[..4], [0, 1, 2, 2], "{begun_at:?}");
    }

    #[test]
    fn a_cancel_hands_a_pre_assigned_item_back_unstarted() {
        let observer = Recorder {
            cancel_after: Some(2),
            ..Recorder::default()
        };
        let (fake, seen) = recording_reads();
        let results = dispatch(&[fake], items(4), &observer, DEFAULT_ITEM_DEADLINE_MS).unwrap();
        assert_eq!(
            results.len(),
            2,
            "the running item finished, its tail did not"
        );
        assert_eq!(observer.started.load(Ordering::SeqCst), 2);
        assert_eq!(seen.lock().unwrap().len(), 3, "part 2 was pre-assigned");
    }
}
