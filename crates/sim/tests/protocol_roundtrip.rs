//! Property tests for the one wire ([`sim::wire`]): arbitrary
//! [`WorkItem`]s and [`PartResult`]s must survive the newline-delimited
//! JSON framing — one message per line, parse(render(m)) == m, no
//! embedded newlines — and so must the simulation service's job API
//! ([`Request`]/[`Event`] frames, with every payload type they embed)
//! and the dispatcher↔worker frames ([`DispatchFrame`]/[`WorkerFrame`]).
//! The bounded [`FrameReader`] must decode any chunking of a valid frame
//! stream, timeouts interleaved, to the same frames, and must never
//! panic or buffer past [`MAX_FRAME_BYTES`] on arbitrary bytes. The
//! serving loop ([`serve_connection`]) must *reject* — never execute —
//! malformed or version-skewed handshakes. Cache entries are the other
//! bytes decoded from outside the process: a torn or bit-flipped entry
//! must never panic a [`ResultCache`] lookup or the renderers.

use std::io::Read;
use std::sync::Arc;

use proptest::prelude::*;
use sim::cache::{CacheLookup, PartFingerprint, ResultCache};
use sim::executor::{PartResult, WorkItem};
use sim::experiment::{ExperimentReport, Series};
use sim::scenario_api::{Scenario, ScenarioParams};
use sim::service::{Event, Request};
use sim::wire::{
    serve_connection, write_frame, DispatchFrame, Frame, FrameReader, WorkerFrame, MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
};
use sim::{
    BackendSpec, CacheStats, JobSpec, JobState, JobStatus, PartEvent, PartState, RunSummary,
    ScenarioInfo, ScenarioOutcome, ThreadsPerItem,
};

/// A printable-ASCII identifier-ish string (scenario ids, override keys
/// and values all live in this alphabet in practice; the JSON layer must
/// not care either way).
fn ident(rng_bytes: Vec<u8>) -> String {
    if rng_bytes.is_empty() {
        return "x".to_string();
    }
    rng_bytes
        .into_iter()
        .map(|b| {
            const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789-_/. ";
            ALPHABET[b as usize % ALPHABET.len()] as char
        })
        .collect()
}

fn ident_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(any::<u8>(), 1..16).prop_map(ident)
}

fn params_strategy() -> impl Strategy<Value = ScenarioParams> {
    (
        any::<bool>(),
        any::<u64>(),
        prop::collection::vec((ident_strategy(), ident_strategy()), 0..4),
    )
        .prop_map(|(full_scale, seed, overrides)| {
            let mut params = ScenarioParams::with_seed(seed);
            params.full_scale = full_scale;
            for (key, value) in overrides {
                params.overrides.insert(key, value);
            }
            params
        })
}

fn report_strategy() -> impl Strategy<Value = ExperimentReport> {
    (
        ident_strategy(),
        ident_strategy(),
        prop::collection::vec((0.0f64..1e9, 0.0f64..1e9), 0..8),
        prop::collection::vec(ident_strategy(), 0..3),
    )
        .prop_map(|(id, title, points, notes)| {
            let mut report = ExperimentReport::new(id, title, "x", "y");
            let (x, y): (Vec<f64>, Vec<f64>) = points.into_iter().unzip();
            report.push_series(Series::new("trace", x, y));
            for note in notes {
                report.push_note(note);
            }
            report
        })
}

fn work_item_strategy() -> impl Strategy<Value = WorkItem> {
    (
        (ident_strategy(), 0usize..64),
        any::<u64>(),
        prop::collection::vec(any::<u8>(), 32..33).prop_map(hex::encode_like),
        params_strategy(),
        1usize..64,
    )
        .prop_map(
            |((scenario_id, part), part_seed, fingerprint, params, threads)| WorkItem {
                scenario_id,
                part,
                part_seed,
                fingerprint,
                params,
                threads,
            },
        )
}

/// Minimal hex rendering for fingerprint-shaped strings.
mod hex {
    pub fn encode_like(bytes: Vec<u8>) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }
}

/// An optional value: roughly half the samples are `None`, so absent
/// wire fields get as much coverage as present ones.
fn opt<S: Strategy>(inner: S) -> impl Strategy<Value = Option<S::Value>> {
    (any::<bool>(), inner).prop_map(|(present, value)| if present { Some(value) } else { None })
}

fn fingerprint_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(any::<u8>(), 32..33).prop_map(hex::encode_like)
}

fn part_state_strategy() -> impl Strategy<Value = PartState> {
    // The vendored proptest has no prop_oneof; variants are selected by
    // index, with unused payloads simply dropped.
    (0u8..5, ident_strategy()).prop_map(|(variant, message)| match variant {
        0 => PartState::Queued,
        1 => PartState::CacheHit,
        2 => PartState::Started,
        3 => PartState::Finished,
        _ => PartState::Error(message),
    })
}

fn part_event_strategy() -> impl Strategy<Value = PartEvent> {
    (
        ident_strategy(),
        0usize..64,
        fingerprint_strategy(),
        part_state_strategy(),
    )
        .prop_map(|(scenario_id, part, fingerprint, state)| PartEvent {
            scenario_id,
            part,
            fingerprint,
            state,
        })
}

fn cache_stats_strategy() -> impl Strategy<Value = CacheStats> {
    (
        0usize..999,
        0usize..999,
        0usize..999,
        0usize..999,
        0usize..999,
    )
        .prop_map(
            |(hits, misses, invalidated, stored, store_failures)| CacheStats {
                hits,
                misses,
                invalidated,
                stored,
                store_failures,
            },
        )
}

fn job_spec_strategy() -> impl Strategy<Value = JobSpec> {
    (
        (
            opt(prop::collection::vec(ident_strategy(), 0..3)),
            opt(any::<u64>()),
            opt(any::<bool>()),
            opt(prop::collection::vec(
                (ident_strategy(), ident_strategy()),
                0..3,
            )),
        ),
        (
            opt(any::<bool>()),
            opt(1usize..9),
            opt(0u8..3),
            opt(prop::collection::vec(ident_strategy(), 0..3)),
            opt((0u8..3, 1usize..9)),
        ),
    )
        .prop_map(
            |((only, seed, full_scale, overrides), (refresh, jobs, backend, workers, threads))| {
                JobSpec {
                    only,
                    seed,
                    full_scale,
                    overrides: overrides.map(|pairs| pairs.into_iter().collect()),
                    refresh,
                    jobs,
                    backend: backend.map(|variant| match variant {
                        0 => BackendSpec::Local,
                        1 => BackendSpec::Process,
                        _ => BackendSpec::Remote,
                    }),
                    workers,
                    threads_per_item: threads.map(|(variant, count)| match variant {
                        0 => ThreadsPerItem::Sequential,
                        1 => ThreadsPerItem::Auto,
                        _ => ThreadsPerItem::Fixed(count),
                    }),
                }
            },
        )
}

fn dispatch_frame_strategy() -> impl Strategy<Value = DispatchFrame> {
    (0u8..2, any::<u32>(), work_item_strategy()).prop_map(|(variant, protocol, item)| match variant
    {
        0 => DispatchFrame::Hello { protocol },
        _ => DispatchFrame::Assign(item),
    })
}

fn worker_frame_strategy() -> impl Strategy<Value = WorkerFrame> {
    (
        0u8..3,
        any::<u32>(),
        ident_strategy(),
        work_item_strategy(),
        prop::collection::vec(report_strategy(), 0..3),
    )
        .prop_map(|(variant, protocol, reason, item, reports)| match variant {
            0 => WorkerFrame::Welcome { protocol },
            1 => WorkerFrame::Reject { reason },
            _ => WorkerFrame::Completed(PartResult::ok(&item, reports)),
        })
}

fn request_strategy() -> impl Strategy<Value = Request> {
    (0u8..4, job_spec_strategy(), opt(any::<u64>())).prop_map(
        |(variant, spec, job)| match variant {
            0 => Request::Submit(spec),
            1 => Request::Status { job },
            2 => Request::List,
            _ => Request::Shutdown,
        },
    )
}

fn job_status_strategy() -> impl Strategy<Value = JobStatus> {
    (
        (any::<u64>(), 0u8..3, ident_strategy()),
        prop::collection::vec(ident_strategy(), 0..4),
        (0usize..64, 0usize..64),
        opt(cache_stats_strategy()),
    )
        .prop_map(
            |((job, state, failure), scenarios, (parts_total, parts_done), cache)| JobStatus {
                job,
                state: match state {
                    0 => JobState::Running,
                    1 => JobState::Done,
                    _ => JobState::Failed(failure),
                },
                scenarios,
                parts_total,
                parts_done,
                cache,
            },
        )
}

fn scenario_info_strategy() -> impl Strategy<Value = ScenarioInfo> {
    (
        ident_strategy(),
        ident_strategy(),
        1usize..16,
        opt(prop::collection::vec(ident_strategy(), 0..4)),
    )
        .prop_map(|(id, title, parts, override_keys)| ScenarioInfo {
            id,
            title,
            parts,
            override_keys,
        })
}

fn summary_strategy() -> impl Strategy<Value = RunSummary> {
    let outcome = (
        (ident_strategy(), ident_strategy()),
        1usize..8,
        prop::collection::vec(report_strategy(), 0..3),
    )
        .prop_map(|((scenario_id, title), parts, reports)| ScenarioOutcome {
            scenario_id,
            title,
            parts,
            reports,
        });
    (params_strategy(), prop::collection::vec(outcome, 0..3))
        .prop_map(|(params, outcomes)| RunSummary { params, outcomes })
}

fn event_strategy() -> impl Strategy<Value = Event> {
    (
        (0u8..7, any::<u64>(), ident_strategy()),
        (
            part_event_strategy(),
            summary_strategy(),
            opt(cache_stats_strategy()),
        ),
        (
            prop::collection::vec(job_status_strategy(), 0..3),
            prop::collection::vec(scenario_info_strategy(), 0..3),
            opt(any::<u64>()),
        ),
    )
        .prop_map(
            |((variant, job, message), (part, summary, cache), (jobs, scenarios, failed_job))| {
                match variant {
                    0 => Event::Accepted { job },
                    1 => Event::Part { job, event: part },
                    2 => Event::Done {
                        job,
                        summary,
                        cache,
                    },
                    3 => Event::Error {
                        job: failed_job,
                        message,
                    },
                    4 => Event::Jobs(jobs),
                    5 => Event::Scenarios(scenarios),
                    _ => Event::ShuttingDown,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn work_items_roundtrip_the_line_protocol(item in work_item_strategy()) {
        let line = serde_json::to_string(&item).unwrap();
        prop_assert!(!line.contains('\n'), "one item per line: {line}");
        let parsed: WorkItem = serde_json::from_str(&line).unwrap();
        prop_assert_eq!(parsed, item);
    }

    #[test]
    fn part_results_roundtrip_the_line_protocol(
        item in work_item_strategy(),
        reports in prop::collection::vec(report_strategy(), 0..4),
        failed in any::<bool>(),
        error in ident_strategy(),
    ) {
        let result = if failed {
            PartResult::failed(&item, error)
        } else {
            PartResult::ok(&item, reports)
        };
        let line = serde_json::to_string(&result).unwrap();
        prop_assert!(!line.contains('\n'), "one result per line: {line}");
        let parsed: PartResult = serde_json::from_str(&line).unwrap();
        prop_assert_eq!(&parsed, &result);
        // Identity echo survives framing: results can always be matched
        // back to the item that produced them.
        prop_assert_eq!(&parsed.scenario_id, &item.scenario_id);
        prop_assert_eq!(parsed.part, item.part);
        prop_assert_eq!(&parsed.fingerprint, &item.fingerprint);
    }

    #[test]
    fn service_requests_roundtrip_the_line_protocol(request in request_strategy()) {
        let line = serde_json::to_string(&request).unwrap();
        prop_assert!(!line.contains('\n'), "one request per line: {line}");
        let parsed: Request = serde_json::from_str(&line).unwrap();
        prop_assert_eq!(parsed, request);
    }

    #[test]
    fn service_events_roundtrip_the_line_protocol(event in event_strategy()) {
        let line = serde_json::to_string(&event).unwrap();
        prop_assert!(!line.contains('\n'), "one event per line: {line}");
        let parsed: Event = serde_json::from_str(&line).unwrap();
        prop_assert_eq!(parsed, event);
    }

    #[test]
    fn dispatch_frames_roundtrip_the_line_protocol(frame in dispatch_frame_strategy()) {
        let line = serde_json::to_string(&frame).unwrap();
        prop_assert!(!line.contains('\n'), "one frame per line: {line}");
        let parsed: DispatchFrame = serde_json::from_str(&line).unwrap();
        prop_assert_eq!(parsed, frame);
    }

    #[test]
    fn worker_frames_roundtrip_the_line_protocol(frame in worker_frame_strategy()) {
        let line = serde_json::to_string(&frame).unwrap();
        prop_assert!(!line.contains('\n'), "one frame per line: {line}");
        let parsed: WorkerFrame = serde_json::from_str(&line).unwrap();
        prop_assert_eq!(parsed, frame);
    }
}

/// A reader that hands out `bytes` in the given chunk sizes (cycled),
/// answering a read timeout before every chunk whose flag is set — the
/// shape a socket with a read timeout produces under any scheduling.
struct Chunked {
    bytes: Vec<u8>,
    at: usize,
    sizes: Vec<usize>,
    stalls: Vec<bool>,
    step: usize,
    stalled: bool,
}

impl Chunked {
    fn new(bytes: Vec<u8>, sizes: Vec<usize>, stalls: Vec<bool>) -> Self {
        Chunked {
            bytes,
            at: 0,
            sizes,
            stalls,
            step: 0,
            stalled: false,
        }
    }
}

impl Read for Chunked {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let step = self.step;
        if !self.stalled && self.stalls[step % self.stalls.len()] {
            self.stalled = true;
            return Err(std::io::ErrorKind::WouldBlock.into());
        }
        self.stalled = false;
        self.step += 1;
        let size = self.sizes[step % self.sizes.len()].min(buf.len());
        let end = (self.at + size).min(self.bytes.len());
        buf[..end - self.at].copy_from_slice(&self.bytes[self.at..end]);
        let read = end - self.at;
        self.at = end;
        Ok(read)
    }
}

/// Every complete line the reader yields until EOF, skipping timeouts.
fn decode_lines<R: Read>(reader: &mut FrameReader<R>) -> std::io::Result<Vec<String>> {
    let mut lines = Vec::new();
    loop {
        match reader.read_frame()? {
            Frame::Line(line) => lines.push(line),
            Frame::Idle => {}
            Frame::Eof => return Ok(lines),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn any_chunking_with_timeouts_decodes_the_same_frames(
        frames in prop::collection::vec(worker_frame_strategy(), 1..6),
        sizes in prop::collection::vec(1usize..64, 1..8),
        stalls in prop::collection::vec(any::<bool>(), 1..8),
    ) {
        let mut stream = Vec::new();
        for frame in &frames {
            write_frame(&mut stream, frame).unwrap();
        }
        let mut reader = FrameReader::new(Chunked::new(stream, sizes, stalls));
        let decoded: Vec<WorkerFrame> = decode_lines(&mut reader)
            .unwrap()
            .iter()
            .map(|line| serde_json::from_str(line).unwrap())
            .collect();
        prop_assert_eq!(decoded, frames);
    }

    #[test]
    fn arbitrary_bytes_never_panic_and_lines_stay_bounded(
        bytes in prop::collection::vec(any::<u8>(), 0..2048),
        sizes in prop::collection::vec(1usize..512, 1..8),
        stalls in prop::collection::vec(any::<bool>(), 1..8),
    ) {
        let mut reader = FrameReader::new(Chunked::new(bytes.clone(), sizes, stalls));
        let lines = decode_lines(&mut reader).unwrap();
        prop_assert!(lines.len() <= bytes.len() + 1);
        for line in &lines {
            prop_assert!(!line.contains('\n'), "one line per frame");
            // Garbage is rejected by the frame parser, never executed.
            let _ = serde_json::from_str::<DispatchFrame>(line);
        }
    }
}

#[test]
fn completed_frames_with_unequal_series_axes_are_rejected() {
    // A remote host's reports are decoded from the wire; a series whose
    // axes differ in length would panic the renderers later, so the frame
    // must fail to decode (the dispatcher's undecodable-frame path).
    let item = WorkItem {
        scenario_id: "toy".into(),
        part: 0,
        part_seed: 1,
        fingerprint: "00".repeat(32),
        params: ScenarioParams::with_seed(1),
        threads: 1,
    };
    let mut report = ExperimentReport::new("r", "t", "x", "y");
    report.push_series(Series {
        label: "torn".into(),
        x: vec![0.0, 1.0, 2.0],
        y: vec![0.5, 0.25],
    });
    let mut stream = Vec::new();
    write_frame(
        &mut stream,
        &WorkerFrame::Completed(PartResult::ok(&item, vec![report])),
    )
    .unwrap();
    let mut reader = FrameReader::new(std::io::Cursor::new(stream));
    let lines = decode_lines(&mut reader).unwrap();
    assert_eq!(lines.len(), 1, "the frame itself is well formed");
    let error = serde_json::from_str::<WorkerFrame>(&lines[0]).unwrap_err();
    assert!(error.to_string().contains("2 y value(s)"), "{error}");
}

/// A fresh, empty cache directory for one property case.
fn scratch_cache() -> (ResultCache, std::path::PathBuf) {
    static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "sim-cache-fuzz-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    (ResultCache::open(&dir).unwrap(), dir)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn torn_or_bit_flipped_cache_entries_never_panic(
        reports in prop::collection::vec(report_strategy(), 1..3),
        offset in any::<usize>(),
        bit in 0u8..8,
        truncate in any::<bool>(),
    ) {
        // Damage a stored entry by truncating it at any offset (the whole
        // file included) or by flipping any one bit. The lookup must then
        // quarantine it (a miss, with a `.corrupt-*` sibling), invalidate
        // it (still parses, no longer matches its key), or serve a hit
        // whose reports render — and never panic.
        let (cache, dir) = scratch_cache();
        let fp = PartFingerprint::from_parts("toy", 0, &"ab".repeat(32));
        cache.store(&fp, &reports).unwrap();
        let path = cache.entry_path(&fp);
        let mut bytes = std::fs::read(&path).unwrap();
        if truncate {
            bytes.truncate(offset % (bytes.len() + 1));
        } else {
            let at = offset % bytes.len();
            bytes[at] ^= 1 << bit;
        }
        std::fs::write(&path, &bytes).unwrap();
        match cache.lookup(&fp) {
            CacheLookup::Miss => {
                prop_assert!(!path.exists(), "a miss moved the entry aside");
                let siblings = std::fs::read_dir(path.parent().unwrap())
                    .unwrap()
                    .filter_map(|e| e.ok())
                    .filter(|e| e.file_name().to_string_lossy().contains(".corrupt-"))
                    .count();
                prop_assert_eq!(siblings, 1);
            }
            CacheLookup::Invalid => prop_assert!(path.exists(), "left in place"),
            CacheLookup::Hit(found) => {
                for report in &found {
                    let _ = report.to_csv();
                    let _ = report.to_table();
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Counts the bytes a reader has handed out.
struct Counting<R> {
    inner: R,
    read: Arc<std::sync::atomic::AtomicUsize>,
}

impl<R: Read> Read for Counting<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let read = self.inner.read(buf)?;
        self.read
            .fetch_add(read, std::sync::atomic::Ordering::SeqCst);
        Ok(read)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn arbitrary_bytes_then_an_endless_line_stop_at_the_bound(
        prefix in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        // Whatever came before, a line that never ends is refused once it
        // passes MAX_FRAME_BYTES: the reader consumes at most one more
        // read chunk beyond the bound, never the endless rest.
        let read = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let input = Counting {
            inner: std::io::Cursor::new(prefix.clone()).chain(std::io::repeat(b'x')),
            read: read.clone(),
        };
        let mut reader = FrameReader::new(input);
        let error = decode_lines(&mut reader).unwrap_err();
        prop_assert_eq!(error.kind(), std::io::ErrorKind::InvalidData);
        let consumed = read.load(std::sync::atomic::Ordering::SeqCst);
        prop_assert!(consumed <= prefix.len() + MAX_FRAME_BYTES + 8192, "read {consumed}");
    }
}

#[test]
fn serve_connection_refuses_an_endless_hello_without_answering() {
    let mut output = Vec::new();
    let error = serve_connection(
        std::io::repeat(b'{'),
        &mut output,
        |_| None,
        sim::faults::points::REMOTE_HOST_ITEM,
    )
    .unwrap_err();
    assert_eq!(error.kind(), std::io::ErrorKind::InvalidData);
    assert!(error.to_string().contains("line limit"), "{error}");
    assert!(output.is_empty(), "no frame answers an unframeable stream");
}

#[test]
fn absent_job_spec_fields_fall_back_to_defaults() {
    // A client may send a bare submission; every omitted field must read
    // back as None (the daemon's defaults), not a parse error.
    let parsed: Request = serde_json::from_str(r#"{"Submit":{}}"#).unwrap();
    assert_eq!(parsed, Request::Submit(JobSpec::default()));
    // And the defaults resolve to the one-shot CLI's parameters.
    let params = JobSpec::default().params();
    assert_eq!(params, ScenarioParams::default());
}

/// One-part toy scenario so the worker-host loop has something to run.
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
        _part: usize,
        _params: &ScenarioParams,
        _rng: &mut rand::rngs::StdRng,
    ) -> Vec<ExperimentReport> {
        vec![ExperimentReport::new("toy", "toy", "x", "y")]
    }
}

/// Drives [`serve_connection`] over in-memory buffers: `lines`
/// become the dispatcher's input; returns the loop outcome and the
/// worker frames it wrote back.
fn serve_lines(lines: &[&str]) -> (std::io::Result<()>, Vec<WorkerFrame>) {
    let input = lines
        .iter()
        .map(|line| format!("{line}\n"))
        .collect::<String>();
    let mut output = Vec::new();
    let outcome = serve_connection(
        input.as_bytes(),
        &mut output,
        |id| (id == "toy").then(|| Arc::new(Toy) as Arc<dyn Scenario>),
        sim::faults::points::REMOTE_HOST_ITEM,
    );
    let frames = String::from_utf8(output)
        .unwrap()
        .lines()
        .map(|line| serde_json::from_str(line).unwrap())
        .collect();
    (outcome, frames)
}

fn hello() -> String {
    serde_json::to_string(&DispatchFrame::Hello {
        protocol: PROTOCOL_VERSION,
    })
    .unwrap()
}

fn assign(scenario_id: &str) -> String {
    serde_json::to_string(&DispatchFrame::Assign(WorkItem {
        scenario_id: scenario_id.to_string(),
        part: 0,
        part_seed: 7,
        fingerprint: "f".repeat(64),
        params: ScenarioParams::default(),
        threads: 1,
    }))
    .unwrap()
}

#[test]
fn worker_host_welcomes_a_matching_dispatcher_and_answers_items() {
    let (outcome, frames) = serve_lines(&[&hello(), &assign("toy")]);
    outcome.unwrap();
    assert_eq!(frames.len(), 2, "welcome then one result: {frames:?}");
    assert_eq!(
        frames[0],
        WorkerFrame::Welcome {
            protocol: PROTOCOL_VERSION
        }
    );
    match &frames[1] {
        WorkerFrame::Completed(result) => {
            assert!(result.error.is_none(), "toy part must succeed: {result:?}");
            assert_eq!(result.scenario_id, "toy");
        }
        other => panic!("expected a completed result, got {other:?}"),
    }
}

#[test]
fn worker_host_rejects_a_version_skewed_dispatcher() {
    let skewed = serde_json::to_string(&DispatchFrame::Hello {
        protocol: PROTOCOL_VERSION + 1,
    })
    .unwrap();
    let (outcome, frames) = serve_lines(&[&skewed, &assign("toy")]);
    outcome.unwrap_err();
    assert_eq!(frames.len(), 1, "reject and stop: {frames:?}");
    match &frames[0] {
        WorkerFrame::Reject { reason } => {
            assert!(
                reason.contains("protocol"),
                "reason names the skew: {reason}"
            )
        }
        other => panic!("expected a rejection, got {other:?}"),
    }
}

#[test]
fn worker_host_rejects_a_garbage_hello() {
    let (outcome, frames) = serve_lines(&["{\"not\": \"a frame\"}"]);
    outcome.unwrap_err();
    assert!(
        matches!(&frames[..], [WorkerFrame::Reject { .. }]),
        "garbage handshake draws a rejection, nothing runs: {frames:?}"
    );
}

#[test]
fn worker_host_rejects_an_assignment_before_the_handshake() {
    let (outcome, frames) = serve_lines(&[&assign("toy")]);
    outcome.unwrap_err();
    assert!(
        matches!(&frames[..], [WorkerFrame::Reject { .. }]),
        "no handshake, no work: {frames:?}"
    );
}

#[test]
fn worker_host_dies_on_a_malformed_assignment_without_answering_it() {
    let (outcome, frames) = serve_lines(&[&hello(), "not json at all"]);
    let error = outcome.unwrap_err();
    assert_eq!(error.kind(), std::io::ErrorKind::InvalidData);
    assert_eq!(
        frames,
        vec![WorkerFrame::Welcome {
            protocol: PROTOCOL_VERSION
        }],
        "a malformed frame terminates the connection before any result"
    );
}

#[test]
fn worker_host_answers_unknown_scenarios_with_a_failed_result() {
    let (outcome, frames) = serve_lines(&[&hello(), &assign("nonesuch")]);
    outcome.unwrap();
    match &frames[..] {
        [WorkerFrame::Welcome { .. }, WorkerFrame::Completed(result)] => {
            assert!(result.error.is_some(), "unknown scenario fails the item");
            assert!(
                result.error.as_deref().unwrap_or("").contains("nonesuch"),
                "error names the missing scenario: {:?}",
                result.error
            );
        }
        other => panic!("expected welcome + failed result, got {other:?}"),
    }
}

#[test]
fn worker_host_treats_a_probe_connection_as_clean() {
    // Port scanners and health checks connect and immediately hang up;
    // that must not be a protocol error.
    let (outcome, frames) = serve_lines(&[]);
    outcome.unwrap();
    assert!(frames.is_empty(), "no hello, no frames: {frames:?}");
}
