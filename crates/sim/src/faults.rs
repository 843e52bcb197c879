//! Deterministic fault injection ("failpoints") for the execution stack.
//!
//! A *failpoint* is a named hook compiled into a hot path — the worker
//! loop's item intake, the remote dispatcher's connect/read calls, cache
//! loads and stores, the daemon's job intake ([`points`] is the full
//! catalog). In a normal run every hook is free: [`hit`] reads one
//! relaxed atomic, sees nothing armed and returns. Under a *fault
//! schedule* — armed from the
//! `--faults NAME=SPEC` CLI flag or the [`FAULTS_ENV`] environment
//! variable — a hook can inject an I/O error, a delay or hang, a partial
//! write, or an abrupt process crash, and the hardened call sites must
//! resolve every injection into a re-queue, a clean typed error, or a
//! graceful degradation — never a wedged run.
//!
//! Triggering is **count-based and therefore deterministic**: each
//! failpoint carries a process-wide hit counter and a spec fires on exact
//! hit ordinals (`@2,5`) or open ranges (`@3..`), never on wall-clock
//! time or ambient randomness. A "randomized" chaos schedule is produced
//! by seeding a generator *outside* this module and rendering the
//! resulting specs; replaying the same schedule byte-for-byte replays the
//! same faults.
//!
//! The spec grammar, one entry per `--faults` flag (or `;`-separated in
//! the environment variable):
//!
//! ```text
//! ENTRY   := POINT '=' ACTION [':' MILLIS] '@' TRIGGERS
//! ACTION  := 'err' | 'delay' | 'hang' | 'crash' | 'partial'
//! TRIGGERS:= ORDINAL [',' ORDINAL]*      1-based hit numbers
//! ORDINAL := N | N '..'                  exact hit, or every hit from N on
//! ```
//!
//! `delay` sleeps its argument (default 100 ms) and continues; `hang` is
//! `delay` with a ten-minute duration — long enough that only a deadline
//! or watchdog ends the wait. `crash` exits the process with status 101
//! without answering: `worker.item=crash@N+1` kills every worker
//! incarnation after it has answered `N` items. `partial` asks a write
//! site to truncate its payload mid-write; sites without a payload treat
//! it as `err`.
//!
//! This module is the **only sanctioned home for injected
//! nondeterminism**: its env read and its sleeps are exempted by name in
//! `detlint.toml` (rules D002/D003), so any sleep or env read added
//! elsewhere still fails the determinism lint.

use std::collections::BTreeMap;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// Environment variable carrying a `;`-separated fault schedule.
///
/// Worker subprocesses inherit the parent's environment, so arming a
/// schedule here (as `--faults` does) also arms every process-backend
/// worker; remote worker hosts read it at startup via [`arm_from_env`].
pub const FAULTS_ENV: &str = "ONIONBOTS_FAULTS";

/// Exit status used by injected crashes (matches a Rust panic's status,
/// i.e. the shape of a real worker falling over).
pub const CRASH_EXIT_CODE: i32 = 101;

/// The failpoint catalog. Arming an unknown name is a spec error, so a
/// typo in a chaos schedule fails fast instead of silently never firing.
pub mod points {
    /// Worker-thread side of the local backend
    /// ([`serve_connection`](crate::wire::serve_connection) in an
    /// in-process thread): before each assignment is answered.
    pub const LOCAL_ITEM: &str = "local.item";
    /// Worker-subprocess side of the process backend
    /// ([`serve_connection`](crate::wire::serve_connection) over stdio):
    /// before each assignment is answered.
    pub const WORKER_ITEM: &str = "worker.item";
    /// [`Dispatcher`](crate::dispatch::Dispatcher), TCP channels only:
    /// before each host connection attempt.
    pub const REMOTE_CONNECT: &str = "remote.connect";
    /// `Dispatcher`, TCP channels only: before each reply read.
    pub const REMOTE_READ: &str = "remote.read";
    /// Worker-host side of the remote backend
    /// ([`serve_remote_host`](crate::wire::serve_remote_host)): before
    /// each assignment is answered.
    pub const REMOTE_HOST_ITEM: &str = "remote.host.item";
    /// [`ResultCache::lookup`](crate::cache::ResultCache::lookup): before
    /// the entry file is read.
    pub const CACHE_LOAD: &str = "cache.load";
    /// [`ResultCache::store`](crate::cache::ResultCache::store): before
    /// the entry file is written (`partial` truncates the payload).
    pub const CACHE_STORE: &str = "cache.store";
    /// [`Service::run_job`](crate::service::Service::run_job): at job
    /// intake, after admission control.
    pub const SERVICE_JOB: &str = "service.job";
    /// [`EventSink::send`](crate::service::EventSink::send): before each
    /// event frame is written.
    pub const SERVICE_SINK: &str = "service.sink";
    /// Reserved for this module's unit tests; no production code hits it.
    pub const TEST_PROBE: &str = "test.probe";

    /// Every known failpoint name.
    pub const ALL: [&str; 10] = [
        LOCAL_ITEM,
        WORKER_ITEM,
        REMOTE_CONNECT,
        REMOTE_READ,
        REMOTE_HOST_ITEM,
        CACHE_LOAD,
        CACHE_STORE,
        SERVICE_JOB,
        SERVICE_SINK,
        TEST_PROBE,
    ];
}

/// What an armed spec does when it triggers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultAction {
    /// Return an injected `io::Error` from the failpoint.
    Err,
    /// Sleep for the given number of milliseconds, then continue.
    Delay(u64),
    /// Exit the process with [`CRASH_EXIT_CODE`] without answering.
    Crash,
    /// Ask a write site to truncate its payload; `err` elsewhere.
    PartialWrite,
}

/// When a spec triggers: on an exact 1-based hit ordinal, or on every
/// hit from an ordinal onwards.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Trigger {
    At(u64),
    From(u64),
}

impl Trigger {
    fn matches(&self, hit: u64) -> bool {
        match *self {
            Trigger::At(n) => hit == n,
            Trigger::From(n) => hit >= n,
        }
    }
}

/// One armed fault: an action plus the hit ordinals that trigger it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    action: FaultAction,
    triggers: Vec<Trigger>,
}

impl FaultSpec {
    fn triggered(&self, hit: u64) -> bool {
        self.triggers.iter().any(|t| t.matches(hit))
    }
}

/// Per-failpoint state: the process-wide hit counter and the specs armed
/// against it.
#[derive(Debug, Default)]
struct PointState {
    hits: u64,
    specs: Vec<FaultSpec>,
}

/// Process-wide "is any spec armed at all" gate, kept in sync with the
/// plan by [`arm`] / [`disarm_all`] so [`hit`] can skip the plan lock
/// entirely in unarmed processes.
static ANY_ARMED: AtomicBool = AtomicBool::new(false);

/// The armed plan. Entries exist exactly for the points something armed,
/// and [`ANY_ARMED`] gates the lock away entirely while the map is empty.
fn plan() -> &'static Mutex<BTreeMap<String, PointState>> {
    static PLAN: OnceLock<Mutex<BTreeMap<String, PointState>>> = OnceLock::new();
    PLAN.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Parses one `POINT=ACTION[:MILLIS]@TRIGGERS` entry.
///
/// # Errors
/// Returns a human-readable message naming the offending part when the
/// point is unknown, the action unrecognized, or the triggers malformed.
pub fn parse_entry(entry: &str) -> Result<(String, FaultSpec), String> {
    let entry = entry.trim();
    let (name, spec) = entry
        .split_once('=')
        .ok_or_else(|| format!("fault entry '{entry}' is missing '=' (POINT=ACTION@TRIGGERS)"))?;
    let name = name.trim();
    if !points::ALL.contains(&name) {
        return Err(format!(
            "unknown failpoint '{name}' (known: {})",
            points::ALL.join(", ")
        ));
    }
    let (action_part, trigger_part) = spec
        .split_once('@')
        .ok_or_else(|| format!("fault entry '{entry}' is missing '@TRIGGERS'"))?;
    let (action_name, action_arg) = match action_part.split_once(':') {
        Some((a, arg)) => (a.trim(), Some(arg.trim())),
        None => (action_part.trim(), None),
    };
    let parse_millis = |arg: Option<&str>, default: u64| -> Result<u64, String> {
        match arg {
            None => Ok(default),
            Some(raw) => raw
                .parse::<u64>()
                .map_err(|_| format!("bad delay milliseconds '{raw}' in fault entry '{entry}'")),
        }
    };
    let action = match action_name {
        "err" => FaultAction::Err,
        "delay" => FaultAction::Delay(parse_millis(action_arg, 100)?),
        // Long enough that only a deadline or watchdog ends the wait.
        "hang" => FaultAction::Delay(parse_millis(action_arg, 600_000)?),
        "crash" => FaultAction::Crash,
        "partial" => FaultAction::PartialWrite,
        other => {
            return Err(format!(
                "unknown fault action '{other}' (known: err, delay[:ms], hang[:ms], crash, partial)"
            ))
        }
    };
    if action_arg.is_some() && !matches!(action, FaultAction::Delay(_)) {
        return Err(format!(
            "fault action '{action_name}' takes no ':' argument in entry '{entry}'"
        ));
    }
    let mut triggers = Vec::new();
    for raw in trigger_part.split(',') {
        let raw = raw.trim();
        let trigger = match raw.strip_suffix("..") {
            Some(from) => Trigger::From(parse_ordinal(from, entry)?),
            None => Trigger::At(parse_ordinal(raw, entry)?),
        };
        triggers.push(trigger);
    }
    Ok((name.to_string(), FaultSpec { action, triggers }))
}

fn parse_ordinal(raw: &str, entry: &str) -> Result<u64, String> {
    let n = raw
        .parse::<u64>()
        .map_err(|_| format!("bad trigger ordinal '{raw}' in fault entry '{entry}'"))?;
    if n == 0 {
        return Err(format!(
            "trigger ordinals are 1-based; '0' in fault entry '{entry}' would never fire"
        ));
    }
    Ok(n)
}

/// Parses and arms one entry, merging it into the process-wide plan.
///
/// # Errors
/// Propagates [`parse_entry`] errors.
pub fn arm(entry: &str) -> Result<(), String> {
    let (name, spec) = parse_entry(entry)?;
    let mut plan = plan().lock().expect("fault plan lock");
    plan.entry(name).or_default().specs.push(spec);
    ANY_ARMED.store(true, Ordering::Relaxed);
    Ok(())
}

/// Arms a whole `;`-separated schedule (empty segments are skipped, so a
/// trailing `;` is harmless).
///
/// # Errors
/// Propagates the first entry's parse error.
pub fn arm_schedule(schedule: &str) -> Result<(), String> {
    for entry in schedule.split(';') {
        if entry.trim().is_empty() {
            continue;
        }
        arm(entry)?;
    }
    Ok(())
}

/// Arms the schedule in [`FAULTS_ENV`], if set. Call once at process
/// startup (the bench binary and both worker entry points do).
///
/// # Errors
/// Propagates parse errors, prefixed with the variable name.
pub fn arm_from_env() -> Result<(), String> {
    match std::env::var(FAULTS_ENV) {
        Ok(schedule) => arm_schedule(&schedule).map_err(|e| format!("{FAULTS_ENV}: {e}")),
        Err(_) => Ok(()),
    }
}

/// Clears every armed spec and resets every hit counter (tests only; a
/// production process arms once at startup and never disarms).
pub fn disarm_all() {
    let mut plan = plan().lock().expect("fault plan lock");
    plan.clear();
    ANY_ARMED.store(false, Ordering::Relaxed);
}

/// Whether any fault is currently armed (the benchmark harness refuses
/// to measure an armed process).
pub fn armed() -> bool {
    plan()
        .lock()
        .expect("fault plan lock")
        .values()
        .any(|p| !p.specs.is_empty())
}

/// What a triggered failpoint injected, for sites that can act on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Injected {
    /// Nothing triggered (or only a delay, which already elapsed).
    None,
    /// A write site should truncate its payload mid-write.
    PartialWrite,
}

/// Registers one hit at `name` and applies whatever is armed there.
///
/// Delays sleep inline and return [`Injected::None`]; crashes never
/// return. When several specs trigger on the same hit, the first armed
/// one wins.
///
/// # Errors
/// Returns the injected `io::Error` when an `err` spec triggers.
pub fn hit(name: &str) -> io::Result<Injected> {
    // Fast path: with nothing armed anywhere (every production run), a
    // failpoint costs one relaxed atomic load — no lock, no counting.
    if !ANY_ARMED.load(Ordering::Relaxed) {
        return Ok(Injected::None);
    }
    let action = {
        let mut plan = plan().lock().expect("fault plan lock");
        let Some(point) = plan.get_mut(name) else {
            return Ok(Injected::None);
        };
        point.hits += 1;
        let hit = point.hits;
        point
            .specs
            .iter()
            .find(|spec| spec.triggered(hit))
            .map(|spec| (spec.action.clone(), hit))
    };
    let Some((action, ordinal)) = action else {
        return Ok(Injected::None);
    };
    match action {
        FaultAction::Err => Err(io::Error::other(format!(
            "injected fault at failpoint `{name}` (hit {ordinal})"
        ))),
        FaultAction::Delay(millis) => {
            std::thread::sleep(Duration::from_millis(millis));
            Ok(Injected::None)
        }
        FaultAction::Crash => {
            eprintln!("fault injection: crashing at failpoint `{name}` (hit {ordinal})");
            std::process::exit(CRASH_EXIT_CODE);
        }
        FaultAction::PartialWrite => Ok(Injected::PartialWrite),
    }
}

/// [`hit`] for sites without a write payload: a triggered `partial` is
/// downgraded to the injected error.
///
/// # Errors
/// Returns the injected `io::Error` when an `err` or `partial` spec
/// triggers.
pub fn hit_io(name: &str) -> io::Result<()> {
    match hit(name)? {
        Injected::None => Ok(()),
        Injected::PartialWrite => Err(io::Error::other(format!(
            "injected fault (partial write) at failpoint `{name}`"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The plan is process-global, so tests that arm it must not overlap.
    fn test_lock() -> &'static Mutex<()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
    }

    struct Armed<'a> {
        _serialized: std::sync::MutexGuard<'a, ()>,
    }

    fn arm_probe(schedule: &str) -> Armed<'static> {
        let guard = test_lock().lock().expect("test lock");
        disarm_all();
        arm_schedule(schedule).expect("schedule parses");
        Armed { _serialized: guard }
    }

    impl Drop for Armed<'_> {
        fn drop(&mut self) {
            disarm_all();
        }
    }

    #[test]
    fn spec_grammar_parses_actions_and_triggers() {
        let (name, spec) = parse_entry("test.probe=err@1,3").unwrap();
        assert_eq!(name, "test.probe");
        assert_eq!(spec.action, FaultAction::Err);
        assert!(spec.triggered(1) && !spec.triggered(2) && spec.triggered(3));

        let (_, spec) = parse_entry("test.probe=delay:250@2..").unwrap();
        assert_eq!(spec.action, FaultAction::Delay(250));
        assert!(!spec.triggered(1) && spec.triggered(2) && spec.triggered(9));

        let (_, spec) = parse_entry("test.probe=hang@1").unwrap();
        assert_eq!(spec.action, FaultAction::Delay(600_000));

        let (_, spec) = parse_entry("test.probe=crash@4").unwrap();
        assert_eq!(spec.action, FaultAction::Crash);

        let (_, spec) = parse_entry("test.probe=partial@1").unwrap();
        assert_eq!(spec.action, FaultAction::PartialWrite);
    }

    #[test]
    fn spec_grammar_rejects_garbage_with_named_errors() {
        for (entry, needle) in [
            ("test.probe", "missing '='"),
            ("nope.nope=err@1", "unknown failpoint"),
            ("test.probe=err", "missing '@TRIGGERS'"),
            ("test.probe=explode@1", "unknown fault action"),
            ("test.probe=delay:soon@1", "bad delay milliseconds"),
            ("test.probe=err:5@1", "takes no ':' argument"),
            ("test.probe=err@x", "bad trigger ordinal"),
            ("test.probe=err@0", "1-based"),
        ] {
            let error = parse_entry(entry).unwrap_err();
            assert!(error.contains(needle), "{entry}: {error}");
        }
    }

    #[test]
    fn unarmed_points_are_free_and_silent() {
        let _guard = test_lock().lock().expect("test lock");
        disarm_all();
        for _ in 0..100 {
            assert_eq!(hit(points::TEST_PROBE).unwrap(), Injected::None);
        }
        assert!(!armed());
    }

    #[test]
    fn count_based_triggers_fire_on_exact_hits() {
        let _armed = arm_probe("test.probe=err@2,4");
        assert!(hit(points::TEST_PROBE).is_ok(), "hit 1 clean");
        assert!(hit(points::TEST_PROBE).is_err(), "hit 2 fires");
        assert!(hit(points::TEST_PROBE).is_ok(), "hit 3 clean");
        assert!(hit(points::TEST_PROBE).is_err(), "hit 4 fires");
        assert!(hit(points::TEST_PROBE).is_ok(), "hit 5 clean");
    }

    #[test]
    fn open_ranges_fire_forever_and_merge_with_other_entries() {
        let _armed = arm_probe("test.probe=partial@1;test.probe=err@3..");
        assert_eq!(hit(points::TEST_PROBE).unwrap(), Injected::PartialWrite);
        assert_eq!(hit(points::TEST_PROBE).unwrap(), Injected::None);
        for _ in 0..5 {
            assert!(hit(points::TEST_PROBE).is_err(), "open range keeps firing");
        }
        assert!(armed());
    }

    #[test]
    fn hit_io_downgrades_partial_writes_to_errors() {
        let _armed = arm_probe("test.probe=partial@1");
        let error = hit_io(points::TEST_PROBE).unwrap_err();
        assert!(error.to_string().contains("partial write"), "{error}");
        assert!(hit_io(points::TEST_PROBE).is_ok());
    }

    #[test]
    fn injected_errors_name_the_failpoint_and_ordinal() {
        let _armed = arm_probe("test.probe=err@1");
        let error = hit(points::TEST_PROBE).unwrap_err();
        let message = error.to_string();
        assert!(
            message.contains("test.probe") && message.contains("hit 1"),
            "{message}"
        );
    }

    #[test]
    fn schedules_skip_empty_segments() {
        let _armed = arm_probe("test.probe=err@1;;");
        assert!(hit(points::TEST_PROBE).is_err());
    }
}
