//! The one NDJSON wire every out-of-process channel speaks.
//!
//! Every frame the system exchanges with another process is one JSON
//! document per line: the dispatcher↔worker frames below, and the
//! simulation service's [`Request`](crate::service::Request) /
//! [`Event`](crate::service::Event) frames. This module owns the framing
//! for all of them — [`write_frame`] on the sending side, the bounded
//! [`FrameReader`] on the receiving side — so no other module reads
//! lines off a stream.
//!
//! The dispatcher↔worker protocol, spoken over a worker subprocess's
//! stdio and over TCP to a `serve-worker` host alike:
//!
//! | direction | frame | meaning |
//! |---|---|---|
//! | dispatcher → worker | `Hello { protocol }` | open a work channel |
//! | worker → dispatcher | `Welcome { protocol }` | versions match, send work |
//! | worker → dispatcher | `Reject { reason }` | refused (version skew, …) |
//! | dispatcher → worker | `Assign(WorkItem)` | execute one item |
//! | worker → dispatcher | `Completed(PartResult)` | the item's result |
//!
//! A dispatcher may have two `Assign`s outstanding on one channel, so a
//! worker answers assignments in the order it received them.
//!
//! [`serve_connection`] is the one serving loop behind every worker kind:
//! the local backend's worker threads, worker subprocesses and worker
//! hosts; [`serve_remote_host`] runs it per accepted TCP connection.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::executor::{run_work_item, PartResult, WorkItem};
use crate::faults;
use crate::scenario_api::Scenario;

/// Version of the dispatcher↔worker protocol. Part of the handshake: a
/// worker refuses a dispatcher whose version differs, which fails the
/// run up front instead of corrupting it halfway through.
pub const PROTOCOL_VERSION: u32 = 1;

/// The longest line, in bytes and without its terminator, a
/// [`FrameReader`] accepts. A peer that streams more bytes than this
/// without a newline gets an [`io::ErrorKind::InvalidData`] error instead
/// of an ever-growing buffer. 16 MiB is about 700 times the `Done` frame
/// of the whole quick registry.
pub const MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

/// Frames the dispatcher sends to a worker.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DispatchFrame {
    /// Opens a work channel; must be the first frame on a connection.
    Hello {
        /// The dispatcher's [`PROTOCOL_VERSION`].
        protocol: u32,
    },
    /// Assigns one work item; the worker answers with
    /// [`WorkerFrame::Completed`].
    Assign(WorkItem),
}

/// Frames a worker sends back to the dispatcher.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkerFrame {
    /// Handshake accepted; the worker will serve assignments.
    Welcome {
        /// The worker's [`PROTOCOL_VERSION`].
        protocol: u32,
    },
    /// Handshake refused; the worker closes the connection after this.
    Reject {
        /// Human-readable refusal cause (version skew, bad hello, …).
        reason: String,
    },
    /// One assignment's result, echoing the item's identity.
    Completed(PartResult),
}

/// Writes `frame` as one JSON line in one write, and flushes it.
///
/// # Errors
/// Returns the underlying I/O error when the write or flush fails.
pub fn write_frame<W: Write + ?Sized, T: Serialize>(output: &mut W, frame: &T) -> io::Result<()> {
    // One write per frame, so a reader wakes once per line.
    let mut line = serde_json::to_string(frame).expect("protocol frames serialize");
    line.push('\n');
    output.write_all(line.as_bytes())?;
    output.flush()
}

/// One read step of a [`FrameReader`].
#[derive(Debug, PartialEq, Eq)]
pub enum Frame {
    /// A complete line (without its terminator).
    Line(String),
    /// The read timed out with no complete line buffered — the caller
    /// may poll state (a drain flag, a deadline) and try again.
    Idle,
    /// The peer closed the connection.
    Eof,
}

/// An incremental NDJSON line reader that survives read timeouts.
///
/// `BufRead::read_line` drops the bytes it consumed when a timeout
/// interrupts it inside a multi-byte character; this reader keeps
/// partial bytes between calls and decodes only complete lines, so a
/// transport with a read timeout yields [`Frame::Idle`] without
/// corrupting the stream. Lines are bounded by [`MAX_FRAME_BYTES`] and
/// must be UTF-8.
pub struct FrameReader<R: Read> {
    input: R,
    buffer: Vec<u8>,
    /// How much of `buffer` is known to hold no newline, so each read
    /// scans only the bytes it appended.
    scanned: usize,
}

impl<R: Read> FrameReader<R> {
    /// Wraps a reader.
    pub fn new(input: R) -> Self {
        FrameReader {
            input,
            buffer: Vec::new(),
            scanned: 0,
        }
    }

    /// Reads until one complete line, a timeout, or EOF.
    ///
    /// # Errors
    /// Returns the underlying I/O error for failures that are neither
    /// timeouts nor EOF, and an [`io::ErrorKind::InvalidData`] error for
    /// a line longer than [`MAX_FRAME_BYTES`] or one that is not UTF-8
    /// (the line is consumed, so the next call reads the line after it).
    pub fn read_frame(&mut self) -> io::Result<Frame> {
        loop {
            let newline = self.buffer[self.scanned..]
                .iter()
                .position(|&b| b == b'\n')
                .map(|offset| self.scanned + offset);
            self.scanned = newline.unwrap_or(self.buffer.len());
            if self.scanned > MAX_FRAME_BYTES {
                self.buffer = Vec::new();
                self.scanned = 0;
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("frame exceeds the {MAX_FRAME_BYTES}-byte line limit"),
                ));
            }
            if let Some(pos) = newline {
                self.scanned = 0;
                let rest = self.buffer.split_off(pos + 1);
                let mut line = std::mem::replace(&mut self.buffer, rest);
                line.pop(); // the '\n'
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                return into_text(line);
            }
            let mut chunk = [0u8; 4096];
            match self.input.read(&mut chunk) {
                Ok(0) => {
                    if self.buffer.is_empty() {
                        return Ok(Frame::Eof);
                    }
                    // A final unterminated line; the next call sees EOF.
                    self.scanned = 0;
                    return into_text(std::mem::take(&mut self.buffer));
                }
                Ok(read) => self.buffer.extend_from_slice(&chunk[..read]),
                Err(error) if error.kind() == io::ErrorKind::Interrupted => {}
                Err(error)
                    if matches!(
                        error.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(Frame::Idle)
                }
                Err(error) => return Err(error),
            }
        }
    }

    /// Reads the next non-blank line, waiting out timeouts; `None` on
    /// EOF. For serving loops and clients that block until their peer
    /// speaks.
    ///
    /// # Errors
    /// Returns the errors of [`read_frame`](Self::read_frame).
    pub fn next_line(&mut self) -> io::Result<Option<String>> {
        loop {
            match self.read_frame()? {
                Frame::Line(line) if line.trim().is_empty() => {}
                Frame::Line(line) => return Ok(Some(line)),
                Frame::Idle => {}
                Frame::Eof => return Ok(None),
            }
        }
    }
}

/// A line's bytes as a frame: valid UTF-8 is taken over without a copy,
/// anything else is an [`io::ErrorKind::InvalidData`] error, the rule the
/// result cache applies to its entries.
fn into_text(line: Vec<u8>) -> io::Result<Frame> {
    String::from_utf8(line).map(Frame::Line).map_err(|invalid| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame is not valid UTF-8: {}", invalid.utf8_error()),
        )
    })
}

/// A socket that can hand out a second handle for its read side and
/// bound its blocking reads — what the service's serve loops and the
/// dispatcher's channels both need from a transport.
pub(crate) trait Duplex: Read + Write + Send + Sized + 'static {
    fn duplicate(&self) -> io::Result<Self>;
    fn set_read_interval(&self, timeout: Duration) -> io::Result<()>;
}

impl Duplex for UnixStream {
    fn duplicate(&self) -> io::Result<Self> {
        self.try_clone()
    }
    fn set_read_interval(&self, timeout: Duration) -> io::Result<()> {
        self.set_read_timeout(Some(timeout))
    }
}

impl Duplex for TcpStream {
    fn duplicate(&self) -> io::Result<Self> {
        self.try_clone()
    }
    fn set_read_interval(&self, timeout: Duration) -> io::Result<()> {
        self.set_read_timeout(Some(timeout))
    }
}

/// Serves one dispatcher channel: handshake, then assignments until EOF.
/// Transport-agnostic, so a local worker thread serves its end of a
/// socket pair, a worker subprocess serves its stdio, a worker host
/// serves each TCP connection, and tests serve in-memory buffers.
///
/// A hello with the wrong protocol version — or anything that is not a
/// hello — is answered with [`WorkerFrame::Reject`] and an error return;
/// a malformed assignment or an oversized line is a protocol violation
/// and terminates the channel without a response (the dispatcher treats
/// it like a death). An unknown scenario id and a part that panics (an
/// infeasible `--set` override, say) each become a per-item error
/// result, which the dispatcher treats as fatal: a panic is answered as
/// `panicked: <message>` instead of unwinding through the worker, so
/// the run fails once, naming the part, on every backend.
///
/// Every read assignment hits `failpoint` before it is answered —
/// `local.item` in local worker threads, `worker.item` in worker
/// subprocesses, `remote.host.item` on worker hosts
/// ([`faults::points`]). An injected error ends the channel like a
/// malformed frame does. Failpoint counters are process-wide, so a
/// `crash@N` spec injects one deterministic crash no matter how a host's
/// connections interleave.
///
/// # Errors
/// Returns the underlying I/O error when the transport breaks or the
/// dispatcher violates the protocol.
pub fn serve_connection<R, W, F>(
    input: R,
    mut output: W,
    resolve: F,
    failpoint: &str,
) -> io::Result<()>
where
    R: Read,
    W: Write,
    F: Fn(&str) -> Option<Arc<dyn Scenario>>,
{
    let mut frames = FrameReader::new(input);
    // EOF before any frame: a probe, not a dispatcher.
    let Some(hello) = frames.next_line()? else {
        return Ok(());
    };
    let refusal = match serde_json::from_str::<DispatchFrame>(&hello) {
        Ok(DispatchFrame::Hello { protocol }) if protocol == PROTOCOL_VERSION => None,
        Ok(DispatchFrame::Hello { protocol }) => Some(format!(
            "dispatcher speaks protocol v{protocol}, this worker speaks v{PROTOCOL_VERSION}"
        )),
        Ok(DispatchFrame::Assign(_)) => Some("assignment before handshake".to_string()),
        Err(e) => Some(format!("unparseable hello frame: {e}")),
    };
    if let Some(reason) = refusal {
        write_frame(
            &mut output,
            &WorkerFrame::Reject {
                reason: reason.clone(),
            },
        )?;
        return Err(io::Error::new(io::ErrorKind::InvalidData, reason));
    }
    write_frame(
        &mut output,
        &WorkerFrame::Welcome {
            protocol: PROTOCOL_VERSION,
        },
    )?;
    // EOF: the dispatcher is done with this channel.
    while let Some(line) = frames.next_line()? {
        let item = match serde_json::from_str::<DispatchFrame>(&line) {
            Ok(DispatchFrame::Assign(item)) => item,
            Ok(DispatchFrame::Hello { .. }) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "duplicate handshake on an established channel",
                ))
            }
            Err(e) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("malformed dispatch frame: {e}"),
                ))
            }
        };
        faults::hit_io(failpoint)?;
        let result = match resolve(&item.scenario_id) {
            Some(scenario) => {
                match catch_unwind(AssertUnwindSafe(|| run_work_item(&*scenario, &item))) {
                    Ok(reports) => PartResult::ok(&item, reports),
                    Err(payload) => {
                        let message = payload
                            .downcast_ref::<&str>()
                            .map(|text| text.to_string())
                            .or_else(|| payload.downcast_ref::<String>().cloned())
                            .unwrap_or_else(|| "a non-text panic payload".to_string());
                        PartResult::failed(&item, format!("panicked: {message}"))
                    }
                }
            }
            None => PartResult::failed(
                &item,
                format!(
                    "scenario '{}' is not registered on this worker",
                    item.scenario_id
                ),
            ),
        };
        write_frame(&mut output, &WorkerFrame::Completed(result))?;
    }
    Ok(())
}

/// Runs a worker host: accepts dispatcher connections on `listener`
/// forever (one thread per connection, registry resolved through
/// `resolve`) and serves each with [`serve_connection`] under the
/// `remote.host.item` failpoint. Fault schedules armed in this process
/// (via [`crate::faults::arm_from_env`]) apply host-wide: the failpoint
/// counter spans every connection.
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
            let reader = match stream.set_nodelay(true).and_then(|()| stream.try_clone()) {
                Ok(reader) => reader,
                Err(e) => {
                    eprintln!("warning: dropping connection from {peer}: {e}");
                    return;
                }
            };
            let failpoint = faults::points::REMOTE_HOST_ITEM;
            if let Err(e) = serve_connection(reader, &stream, resolve, failpoint) {
                eprintln!("warning: connection from {peer} ended with a protocol error: {e}");
            }
        });
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{ExperimentReport, Series};
    use crate::scenario_api::ScenarioParams;
    use rand::rngs::StdRng;
    use rand::Rng;

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
            let mut r = ExperimentReport::new("toy", "toy — ±", "part", "value");
            r.push_series(Series::new(
                "trace",
                vec![part as f64],
                vec![rng.gen_range(0.0f64..1.0)],
            ));
            vec![r]
        }
    }

    fn lookup(id: &str) -> Option<Arc<dyn Scenario>> {
        (id == "toy").then(|| Arc::new(Toy) as Arc<dyn Scenario>)
    }

    fn line<T: Serialize>(frame: &T) -> String {
        let mut out = Vec::new();
        write_frame(&mut out, frame).unwrap();
        String::from_utf8(out).unwrap()
    }

    fn hello() -> String {
        line(&DispatchFrame::Hello {
            protocol: PROTOCOL_VERSION,
        })
    }

    fn replies(output: &[u8]) -> Vec<WorkerFrame> {
        std::str::from_utf8(output)
            .unwrap()
            .lines()
            .map(|line| serde_json::from_str(line).unwrap())
            .collect()
    }

    #[test]
    fn serve_connection_executes_and_reports_per_item_status() {
        let params = ScenarioParams::with_seed(2);
        let known = WorkItem::new(&Toy, 0, &params);
        let mut unknown = known.clone();
        unknown.scenario_id = "stranger".to_string();
        let input = format!(
            "{}{}\n{}",
            hello(),
            line(&DispatchFrame::Assign(known.clone())),
            line(&DispatchFrame::Assign(unknown))
        );
        let mut output = Vec::new();
        serve_connection(
            input.as_bytes(),
            &mut output,
            lookup,
            faults::points::WORKER_ITEM,
        )
        .unwrap();
        let frames = replies(&output);
        assert_eq!(frames.len(), 3, "welcome + one result per item: {frames:?}");
        let WorkerFrame::Completed(first) = &frames[1] else {
            panic!("expected a result, got {:?}", frames[1]);
        };
        assert_eq!(first.error, None);
        assert_eq!(
            first.reports,
            run_work_item(&Toy, &known),
            "served output equals in-process execution"
        );
        let WorkerFrame::Completed(second) = &frames[2] else {
            panic!("expected a result, got {:?}", frames[2]);
        };
        assert!(second.error.as_deref().unwrap().contains("stranger"));
    }

    #[test]
    fn serve_connection_rejects_malformed_frames() {
        // A megabyte of openers must be refused, not recursed into until
        // the worker's stack overflows.
        let nested = "[".repeat(1 << 20);
        for garbage in ["this is not json", nested.as_str()] {
            let mut output = Vec::new();
            let input = format!("{}{garbage}\n", hello());
            let error = serve_connection(
                input.as_bytes(),
                &mut output,
                lookup,
                faults::points::WORKER_ITEM,
            )
            .unwrap_err();
            assert_eq!(error.kind(), io::ErrorKind::InvalidData);
            assert_eq!(replies(&output).len(), 1, "only the welcome was written");
        }
        // The same nesting in place of the hello is answered with a Reject.
        let mut output = Vec::new();
        let input = format!("{nested}\n");
        let error = serve_connection(
            input.as_bytes(),
            &mut output,
            lookup,
            faults::points::WORKER_ITEM,
        )
        .unwrap_err();
        assert_eq!(error.kind(), io::ErrorKind::InvalidData);
        match &replies(&output)[..] {
            [WorkerFrame::Reject { reason }] => {
                assert!(reason.contains("nesting deeper"), "{reason}")
            }
            other => panic!("expected one Reject, got {other:?}"),
        }
    }

    #[test]
    fn an_assignment_that_is_not_utf8_ends_the_channel_unanswered() {
        let item = WorkItem::new(&Toy, 0, &ScenarioParams::with_seed(2));
        let mut input = hello().into_bytes();
        let assign = line(&DispatchFrame::Assign(item));
        let at = input.len() + assign.find("\"toy\"").expect("the item names its scenario") + 2;
        input.extend_from_slice(assign.as_bytes());
        input[at] = 0xff; // "toy" becomes "t\xffy"
        let mut output = Vec::new();
        let error = serve_connection(&input[..], &mut output, lookup, faults::points::WORKER_ITEM)
            .unwrap_err();
        assert_eq!(error.kind(), io::ErrorKind::InvalidData);
        assert!(error.to_string().contains("not valid UTF-8"), "{error}");
        assert_eq!(replies(&output).len(), 1, "only the welcome was written");
    }

    #[test]
    fn write_frame_issues_one_write_per_frame() {
        // Two writes (line, then terminator) could wake a reader twice.
        struct Counting(Vec<Vec<u8>>);
        impl Write for Counting {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.push(buf.to_vec());
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut output = Counting(Vec::new());
        let hello = DispatchFrame::Hello {
            protocol: PROTOCOL_VERSION,
        };
        write_frame(&mut output, &hello).unwrap();
        let expected = format!("{{\"Hello\":{{\"protocol\":{PROTOCOL_VERSION}}}}}\n");
        assert_eq!(output.0, [expected.into_bytes()]);
    }

    #[test]
    fn frame_reader_survives_timeouts_and_split_lines() {
        // A reader that yields a line in fragments with timeouts between
        // them — the shape a socket with a read timeout produces. The
        // first fragment ends inside the three-byte '—'.
        struct Choppy {
            steps: std::collections::VecDeque<Result<Vec<u8>, io::ErrorKind>>,
        }
        impl Read for Choppy {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                match self.steps.pop_front() {
                    None => Ok(0),
                    Some(Err(kind)) => Err(io::Error::new(kind, "injected")),
                    Some(Ok(bytes)) => {
                        buf[..bytes.len()].copy_from_slice(&bytes);
                        Ok(bytes.len())
                    }
                }
            }
        }
        let dash = "—".as_bytes();
        let mut reader = FrameReader::new(Choppy {
            steps: [
                Ok([b"{\"half".as_slice(), &dash[..1]].concat()),
                Err(io::ErrorKind::WouldBlock),
                Err(io::ErrorKind::TimedOut),
                Ok([&dash[1..], b"\":1}\r\nsecond".as_slice()].concat()),
                Err(io::ErrorKind::Interrupted),
                Ok(b" line\n".to_vec()),
                Ok(b"tail".to_vec()),
            ]
            .into_iter()
            .collect(),
        });
        assert_eq!(reader.read_frame().unwrap(), Frame::Idle);
        assert_eq!(reader.read_frame().unwrap(), Frame::Idle);
        assert_eq!(
            reader.read_frame().unwrap(),
            Frame::Line("{\"half—\":1}".to_string()),
            "partial bytes survive timeouts, even mid-character; CRLF is stripped"
        );
        assert_eq!(
            reader.read_frame().unwrap(),
            Frame::Line("second line".to_string())
        );
        assert_eq!(
            reader.read_frame().unwrap(),
            Frame::Line("tail".to_string()),
            "a final unterminated line is delivered"
        );
        assert_eq!(reader.read_frame().unwrap(), Frame::Eof);
    }

    #[test]
    fn frame_reader_refuses_a_line_that_is_not_utf8() {
        let mut reader = FrameReader::new(&b"{\"title\":\"a\xffb\"}\nnext\n"[..]);
        let error = reader.read_frame().unwrap_err();
        assert_eq!(error.kind(), io::ErrorKind::InvalidData);
        assert!(error.to_string().contains("not valid UTF-8"), "{error}");
        assert_eq!(reader.read_frame().unwrap(), Frame::Line("next".into()));
        assert_eq!(reader.read_frame().unwrap(), Frame::Eof);
    }

    #[test]
    fn frame_reader_bounds_a_line_that_never_ends() {
        // An endless stream with no newline is a clean InvalidData error
        // once the buffered line passes the bound, not an unbounded
        // allocation.
        let mut reader = FrameReader::new(io::repeat(b'x'));
        let error = reader.read_frame().unwrap_err();
        assert_eq!(error.kind(), io::ErrorKind::InvalidData);
        assert!(error.to_string().contains("line limit"), "{error}");
        // A line of exactly the bound still parses, followed by a
        // normal one: the limit is on one line, not on the stream.
        let input = io::repeat(b'y')
            .take(MAX_FRAME_BYTES as u64)
            .chain(&b"\nnext\n"[..]);
        let mut reader = FrameReader::new(input);
        let Frame::Line(line) = reader.read_frame().unwrap() else {
            panic!("expected the bound-sized line");
        };
        assert_eq!(line.len(), MAX_FRAME_BYTES);
        assert_eq!(reader.read_frame().unwrap(), Frame::Line("next".into()));
        assert_eq!(reader.read_frame().unwrap(), Frame::Eof);
        // One byte over the bound is refused even when its newline is
        // already buffered.
        let input = io::repeat(b'z')
            .take(MAX_FRAME_BYTES as u64 + 1)
            .chain(&b"\n"[..]);
        let error = FrameReader::new(input).read_frame().unwrap_err();
        assert_eq!(error.kind(), io::ErrorKind::InvalidData);
    }
}
