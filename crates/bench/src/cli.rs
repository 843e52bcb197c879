//! The one-shot `run_experiments` front end, and the flags every front
//! end shares.
//!
//! Each job flag is defined once, in `JobFlags::apply`, with its value
//! grammar and error text: the one-shot CLI and `submit` fill a
//! [`JobSpec`] — the one description of a run — with it, and `serve`
//! parses its per-job defaults through the same code. `ServiceFlags`
//! covers the flags the one-shot CLI and `serve` share: it resolves
//! `--cache-dir`/`--no-cache`/`ONIONBOTS_CACHE_DIR` into an opened cache
//! and builds the [`ServiceConfig`] whose [`ServiceConfig::runner`] turns
//! a job into a [`sim::Runner`] on both paths.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Instant;

use sim::scenario_api::{parse_override, ScenarioParams};
use sim::{BackendSpec, JobSpec, ResultCache, ScenarioInfo, ServiceConfig, ThreadsPerItem};
use sim::{WorkerCommand, FAULTS_ENV};

use crate::output::{render_summary, Format};
use crate::{scenarios, Scale};

/// A cursor over command-line arguments.
pub(crate) struct Args<'a>(std::slice::Iter<'a, String>);

impl<'a> Args<'a> {
    /// Starts at the first argument.
    pub(crate) fn new(args: &'a [String]) -> Self {
        Args(args.iter())
    }

    /// The next argument, if any.
    pub(crate) fn flag(&mut self) -> Option<&'a str> {
        self.0.next().map(String::as_str)
    }

    /// The value of `flag`: the next argument.
    ///
    /// # Errors
    /// Returns a message when the arguments end first.
    pub(crate) fn value(&mut self, flag: &str) -> Result<&'a str, String> {
        self.flag()
            .ok_or_else(|| format!("{flag} requires a value"))
    }
}

/// Parses the numeric value of `flag`.
///
/// # Errors
/// Returns a message naming the flag and the value.
pub(crate) fn number<T: FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("invalid {flag} value '{value}'"))
}

fn full_scale(value: &str) -> Result<Option<bool>, String> {
    match value.to_ascii_lowercase().as_str() {
        "full" => Ok(Some(true)),
        "quick" => Ok(None),
        _ => Err(format!("unknown --scale '{value}' (quick|full)")),
    }
}

/// The job flags of one invocation: the job itself, and where its
/// summary goes.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct JobFlags {
    /// The job the flags describe; unset fields take the executing side's
    /// defaults.
    pub(crate) spec: JobSpec,
    /// `--out DIR`: also write per-report files and `summary.json`.
    pub(crate) out: Option<String>,
    /// `--format FMT`: the stdout rendering.
    pub(crate) format: Format,
}

impl JobFlags {
    /// Applies `flag` when it is a job flag, taking its value from
    /// `args`; returns `Ok(false)` and consumes nothing for any other
    /// flag. Repeated flags accumulate (`--only`, `--set`, `--worker`) or
    /// the last one wins.
    ///
    /// # Errors
    /// Returns a message for a missing or malformed value.
    pub(crate) fn apply(&mut self, flag: &str, args: &mut Args) -> Result<bool, String> {
        let spec = &mut self.spec;
        match flag {
            "--only" => {
                let ids = args.value(flag)?.split(',').map(str::trim);
                let ids: Vec<String> = ids.filter(|s| !s.is_empty()).map(String::from).collect();
                if !ids.is_empty() {
                    spec.only.get_or_insert_with(Vec::new).extend(ids);
                }
            }
            "--scale" => spec.full_scale = full_scale(args.value(flag)?)?,
            "--seed" => spec.seed = Some(number(flag, args.value(flag)?)?),
            "--set" => {
                let (key, value) = parse_override(args.value(flag)?)?;
                spec.overrides
                    .get_or_insert_with(BTreeMap::new)
                    .insert(key, value);
            }
            "--jobs" => spec.jobs = Some(number(flag, args.value(flag)?)?),
            "--backend" => {
                spec.backend = Some(match args.value(flag)? {
                    "local" => BackendSpec::Local,
                    "process" => BackendSpec::Process,
                    "remote" => BackendSpec::Remote,
                    other => {
                        return Err(format!(
                            "unknown --backend '{other}' (local|process|remote)"
                        ))
                    }
                });
            }
            "--worker" => spec
                .workers
                .get_or_insert_with(Vec::new)
                .push(args.value(flag)?.to_string()),
            "--threads-per-item" => {
                spec.threads_per_item = Some(match args.value(flag)? {
                    "auto" => ThreadsPerItem::Auto,
                    raw => raw
                        .parse::<usize>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .map(ThreadsPerItem::Fixed)
                        .ok_or_else(|| {
                            format!("invalid --threads-per-item value '{raw}' (auto or N >= 1)")
                        })?,
                });
            }
            "--refresh" => spec.refresh = Some(true),
            "--out" => self.out = Some(args.value(flag)?.to_string()),
            "--format" => self.format = Format::parse(args.value(flag)?)?,
            _ => return Ok(false),
        }
        Ok(true)
    }
}

/// The flags that say how jobs execute rather than what they run, shared
/// by the one-shot CLI and `serve`.
#[derive(Debug, Default)]
pub(crate) struct ServiceFlags {
    /// `--cache-dir DIR`.
    pub(crate) cache_dir: Option<String>,
    /// `--no-cache`.
    pub(crate) no_cache: bool,
    /// `--item-deadline-ms MS`.
    pub(crate) item_deadline_ms: Option<u64>,
}

impl ServiceFlags {
    /// Applies `flag` when it is one of these flags, like
    /// [`JobFlags::apply`].
    ///
    /// # Errors
    /// Returns a message for a missing or malformed value.
    pub(crate) fn apply(&mut self, flag: &str, args: &mut Args) -> Result<bool, String> {
        match flag {
            "--cache-dir" => self.cache_dir = Some(args.value(flag)?.to_string()),
            "--no-cache" => self.no_cache = true,
            "--item-deadline-ms" => {
                let value = args.value(flag)?;
                self.item_deadline_ms =
                    Some(value.parse().ok().filter(|&ms| ms >= 1).ok_or_else(|| {
                        format!("invalid --item-deadline-ms value '{value}' (MS >= 1)")
                    })?);
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The configuration jobs run under: per-job defaults from
    /// `defaults` (unset: one worker, the local backend, `auto` threads
    /// per item), the cache these flags select, and this very binary
    /// re-invoked as `worker` for the process backend — so parent and
    /// workers can never disagree about the registry. A non-empty
    /// `fault_schedule` is exported to the workers, so worker-side
    /// failpoints fire in them with their own hit counters.
    pub(crate) fn config(&self, defaults: &JobSpec, fault_schedule: &str) -> ServiceConfig {
        let worker_command = std::env::current_exe().ok().map(|exe| {
            let command = WorkerCommand::new(exe).arg("worker");
            match fault_schedule {
                "" => command,
                schedule => command.env(FAULTS_ENV, schedule),
            }
        });
        ServiceConfig {
            jobs: defaults.jobs.unwrap_or(1),
            backend: defaults.backend.unwrap_or(BackendSpec::Local),
            worker_command,
            workers: defaults.workers.clone().unwrap_or_default(),
            threads_per_item: defaults.threads_per_item.unwrap_or(ThreadsPerItem::Auto),
            cache: self.open_cache(),
            item_deadline_ms: self.item_deadline_ms,
            ..ServiceConfig::default()
        }
    }

    /// The cache `--cache-dir` (default: `ONIONBOTS_CACHE_DIR`) selects
    /// unless `--no-cache` is given. An unusable location degrades to
    /// running uncached: caching is an accelerator, never a prerequisite.
    fn open_cache(&self) -> Option<ResultCache> {
        if self.no_cache {
            return None;
        }
        let dir = self.cache_dir.clone().or_else(|| {
            std::env::var("ONIONBOTS_CACHE_DIR")
                .ok()
                .filter(|dir| !dir.is_empty())
        })?;
        ResultCache::open(&dir)
            .map_err(|error| {
                eprintln!("warning: cache dir {dir} is unusable ({error}); running uncached");
            })
            .ok()
    }
}

const USAGE: &str = "\
Usage: run_experiments [options]
       run_experiments serve|submit|status [options]

Subcommands (see each one's --help):
  serve               start the persistent simulation service daemon
  submit              send one job to a running daemon and stream results
  status              inspect a running daemon's job table / scenarios
  serve-worker        run a standalone TCP worker host for --backend remote

Options:
  --list              list registered scenarios and exit
  --json              with --list, print the listing as machine-readable
                      JSON (ids, part counts, override keys)
  --only ID[,ID...]   run only the named scenarios (repeatable)
  --scale quick|full  population scale (default: quick)
  --jobs N            workers: threads (local) or subprocesses (process)
                      (default: 1)
  --threads-per-item T
                      intra-item thread budget for graph sweeps: auto
                      (split cores across in-flight items, the default)
                      or a fixed thread count; never changes output bytes
  --backend B         execution backend: local (in-process threads,
                      default), process (run_experiments worker
                      subprocesses speaking ndjson over stdin/stdout) or
                      remote (a fleet of serve-worker hosts over TCP)
  --worker ADDR       remote worker host address, repeatable (requires
                      --backend remote; list an address twice for two
                      concurrent channels to the same host)
  --item-deadline-ms MS
                      per-item reply deadline for --backend process and
                      remote (default: 60000). A worker that accepts
                      work but does not answer within MS is abandoned
                      and its items re-queue on the surviving workers;
                      raise it for parts that run longer than MS
  --faults POINT=SPEC deterministic fault injection, repeatable; also
                      via env ONIONBOTS_FAULTS (';'-separated). SPEC is
                      ACTION[:MILLIS]@ORDINALS with ACTION one of
                      err|delay|hang|crash|partial and ORDINALS 1-based
                      hit counts like 2 or 3,5 or 4.. (open range).
                      Example: --faults remote.read=err@2
                      Schedules are exported to process-backend workers;
                      remote hosts arm from their own environment
  --seed N            base RNG seed (default: 2015)
  --set KEY=VALUE     scenario override, repeatable (e.g. --set steps=5)
  --out DIR           also write per-report .json/.csv files and summary.json
  --format FMT        stdout rendering: table (default), csv, json
  --cache-dir DIR     replay cached parts / store fresh ones under DIR
                      (default: env ONIONBOTS_CACHE_DIR; unset = no cache)
  --no-cache          ignore --cache-dir and ONIONBOTS_CACHE_DIR
  --refresh           re-execute cached parts and overwrite their entries
  --help              show this help
";

/// The one-shot CLI's options.
#[derive(Debug)]
struct Options {
    list: bool,
    json: bool,
    job: JobFlags,
    service: ServiceFlags,
    faults: Vec<String>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        list: false,
        json: false,
        job: JobFlags::default(),
        service: ServiceFlags::default(),
        faults: Vec::new(),
    };
    let mut args = Args::new(args);
    while let Some(flag) = args.flag() {
        if options.job.apply(flag, &mut args)? || options.service.apply(flag, &mut args)? {
            continue;
        }
        match flag {
            "--list" => options.list = true,
            "--json" => options.json = true,
            "--faults" => {
                let value = args.value(flag)?;
                // Validate eagerly so a typo'd point name fails the
                // invocation instead of silently never firing.
                sim::faults::parse_entry(value)?;
                options.faults.push(value.to_string());
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    let backend = options.job.spec.backend.unwrap_or(BackendSpec::Local);
    if options.json && !options.list {
        return Err("--json is only valid together with --list".to_string());
    }
    if backend == BackendSpec::Remote && options.job.spec.workers.is_none() {
        return Err("--backend remote requires at least one --worker ADDR".to_string());
    }
    if backend != BackendSpec::Remote && options.job.spec.workers.is_some() {
        return Err("--worker is only valid together with --backend remote".to_string());
    }
    if backend == BackendSpec::Local && options.service.item_deadline_ms.is_some() {
        return Err(
            "--item-deadline-ms is only valid together with --backend process or remote"
                .to_string(),
        );
    }
    Ok(options)
}

/// The text `--list` prints for `infos`.
fn listing_text(infos: &[ScenarioInfo]) -> String {
    let mut text = format!("{} registered scenarios:\n\n", infos.len());
    for info in infos {
        text += &format!(
            "  {:<24} {:>2} part(s)  {}\n",
            info.id, info.parts, info.title
        );
        // Declared override keys make --set discoverable; a scenario
        // without declared keys accepts (and is fingerprinted by) every
        // override.
        let keys = match &info.override_keys {
            Some(keys) => keys.join(", "),
            None => "(undeclared)".to_string(),
        };
        text += &format!("  {:<24} --set keys: {keys}\n", "");
    }
    text
}

/// Prints the registry listing. Both forms render the same
/// [`ScenarioInfo`] rows the service's List request returns, so scripts
/// parse one format for the offline and daemon paths.
fn print_listing(json: bool) {
    let infos = ScenarioInfo::collect(&scenarios::registry(), &ScenarioParams::default());
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&infos).expect("scenario listing serializes")
        );
    } else {
        print!("{}", listing_text(&infos));
    }
}

/// The one-shot entry point: lists the registry, or runs the selected
/// scenarios and renders their summary.
pub fn one_shot_main(args: &[String]) -> ExitCode {
    let options = match parse_options(args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("error: {message}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if options.list {
        print_listing(options.json);
        return ExitCode::SUCCESS;
    }
    let spec = &options.job.spec;
    let selected = match scenarios::registry().select(&spec.selector()) {
        Ok(selected) => selected,
        Err(error) => {
            eprintln!("error: {error}");
            return ExitCode::from(2);
        }
    };
    // The combined fault schedule: the environment's entries first, then
    // every --faults flag. Arming is all-or-nothing — a typo anywhere
    // fails the invocation rather than running with half a schedule.
    let mut faults: Vec<String> = std::env::var(FAULTS_ENV)
        .ok()
        .filter(|schedule| !schedule.is_empty())
        .into_iter()
        .collect();
    faults.extend(options.faults.iter().cloned());
    let fault_schedule = faults.join(";");
    if !fault_schedule.is_empty() {
        if let Err(error) = sim::faults::arm_schedule(&fault_schedule) {
            eprintln!("error: invalid fault schedule: {error}");
            return ExitCode::from(2);
        }
        eprintln!("fault injection armed: {fault_schedule}");
    }
    let config = options.service.config(spec, &fault_schedule);
    let params = spec.params();
    eprintln!(
        "running {} scenario(s) at {:?} scale with {} job(s), seed {}, {} backend, {} thread(s)/item",
        selected.len(),
        Scale::from_params(&params),
        config.jobs,
        params.seed,
        match config.backend {
            BackendSpec::Local => "local",
            BackendSpec::Process => "process",
            BackendSpec::Remote => "remote",
        },
        match config.threads_per_item {
            ThreadsPerItem::Auto => "auto".to_string(),
            ThreadsPerItem::Fixed(n) => n.to_string(),
        }
    );
    if spec.refresh.is_some() && config.cache.is_none() {
        eprintln!("warning: --refresh has no effect without an active cache");
    }
    let started = Instant::now();
    let summary = match config.runner(spec).try_run_observed(&selected, &()) {
        Ok((summary, _stats)) => summary,
        Err(error) => {
            eprintln!("error: {error}");
            return ExitCode::FAILURE;
        }
    };
    let elapsed = started.elapsed();
    let out = options.job.out.as_deref();
    if let Err(message) = render_summary(&summary, options.job.format, out, &mut std::io::stdout())
    {
        eprintln!("error: {message}");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "completed {} scenario(s), {} report(s) in {:.2}s",
        summary.outcomes.len(),
        summary.report_count(),
        elapsed.as_secs_f64()
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    /// The job flags parsed by the one-shot path.
    fn one_shot(list: &[&str]) -> Result<JobFlags, String> {
        parse_options(&args(list)).map(|options| options.job)
    }

    /// The job flags parsed by the `submit` path.
    fn submit(list: &[&str]) -> Result<JobFlags, String> {
        let mut list = list.to_vec();
        list.splice(0..0, ["--socket", "/tmp/svc.sock"]);
        crate::service_cli::parse_submit_options(&args(&list)).map(|options| options.job)
    }

    fn scale_of(list: &[&str]) -> bool {
        one_shot(list).unwrap().spec.params().full_scale
    }

    #[test]
    fn one_shot_and_submit_parse_job_flags_into_the_same_job_spec() {
        let cases: [&[&str]; 6] = [
            &[],
            &["--only", "fig6,fig4", "--only", " table1 ,", "--seed", "99"],
            &[
                "--scale", "full", "--set", "steps=2", "--set", "steps=3", "--set", "n=5",
            ],
            &[
                "--jobs",
                "3",
                "--backend",
                "process",
                "--threads-per-item",
                "auto",
            ],
            &[
                "--backend",
                "remote",
                "--worker",
                "a:1",
                "--worker",
                "a:1",
                "--refresh",
            ],
            &[
                "--scale",
                "quick",
                "--threads-per-item",
                "2",
                "--out",
                "dir",
                "--format",
                "csv",
            ],
        ];
        for flags in cases {
            let parsed = one_shot(flags).unwrap();
            assert_eq!(parsed, submit(flags).unwrap(), "{flags:?}");
        }
        let spec = one_shot(cases[1]).unwrap().spec;
        assert_eq!(spec.selector(), ["fig6", "fig4", "table1"]);
        assert_eq!(spec.seed, Some(99));
        let spec = one_shot(cases[2]).unwrap().spec;
        assert_eq!(spec.full_scale, Some(true));
        let overrides = spec.overrides.unwrap();
        assert_eq!(overrides.len(), 2);
        assert_eq!(overrides["steps"], "3", "the last --set wins");
        let spec = one_shot(cases[4]).unwrap().spec;
        assert_eq!(spec.backend, Some(BackendSpec::Remote));
        assert_eq!(spec.workers, Some(vec!["a:1".to_string(); 2]));
        assert_eq!(spec.refresh, Some(true));
        let flags = one_shot(cases[5]).unwrap();
        assert_eq!(flags.spec.threads_per_item, Some(ThreadsPerItem::Fixed(2)));
        assert_eq!(flags.out.as_deref(), Some("dir"));
        assert_eq!(flags.format, Format::Csv);
    }

    #[test]
    fn bad_job_flag_values_give_the_same_error_on_every_path() {
        for (flags, expected) in [
            (&["--jobs", "x"][..], "invalid --jobs value 'x'"),
            (&["--seed", "-1"], "invalid --seed value '-1'"),
            (
                &["--threads-per-item", "0"],
                "invalid --threads-per-item value '0' (auto or N >= 1)",
            ),
            (
                &["--backend", "warp"],
                "unknown --backend 'warp' (local|process|remote)",
            ),
            (&["--scale", "ful"], "unknown --scale 'ful' (quick|full)"),
            (
                &["--format", "xml"],
                "unknown --format 'xml' (table|csv|json)",
            ),
            (&["--only"], "--only requires a value"),
        ] {
            assert_eq!(one_shot(flags).unwrap_err(), expected, "{flags:?}");
            assert_eq!(submit(flags).unwrap_err(), expected, "{flags:?}");
        }
        let set = one_shot(&["--set", "nokey"]).unwrap_err();
        assert!(set.contains("nokey"), "{set}");
        assert_eq!(submit(&["--set", "nokey"]).unwrap_err(), set);
    }

    #[test]
    fn one_shot_keeps_its_own_checks() {
        let error = |list: &[&str]| parse_options(&args(list)).unwrap_err();
        assert!(error(&["--backend", "remote"]).contains("requires at least one --worker"));
        assert!(error(&["--worker", "a:1"]).contains("only valid together with --backend remote"));
        assert!(error(&["--item-deadline-ms", "10"]).contains("--backend process or remote"));
        assert!(error(&["--json"]).contains("only valid together with --list"));
        assert!(error(&["--faults", "nowhere=err@1"]).contains("nowhere"));
        let options = parse_options(&args(&["--no-cache", "--cache-dir", "c", "--list"])).unwrap();
        assert!(options.list && options.service.no_cache);
        assert_eq!(options.service.cache_dir.as_deref(), Some("c"));
        assert!(options.service.open_cache().is_none(), "--no-cache wins");
    }

    #[test]
    fn scale_flags_parse_explicit_forms() {
        assert!(scale_of(&["--scale", "full"]));
        assert!(scale_of(&["--scale", "FULL"]));
        assert!(!scale_of(&["--scale", "quick"]));
        // The last --scale wins, in either direction.
        assert!(!scale_of(&["--scale", "full", "--scale", "quick"]));
        assert!(scale_of(&["--scale", "quick", "--scale", "full"]));
    }

    #[test]
    fn scale_flags_reject_invalid_values() {
        // A typo must error rather than silently run at the wrong scale.
        assert!(one_shot(&["--scale", "ful"]).is_err());
        assert!(one_shot(&["--scale", "Full-size"]).is_err());
        // ... and so must a trailing --scale with its value missing.
        assert!(one_shot(&["--scale"]).is_err());
        assert!(one_shot(&["--jobs", "2", "--scale"]).is_err());
    }

    #[test]
    fn scale_flags_ignore_unrelated_flag_values() {
        // Regression: scanning raw arguments for the substring "full"
        // once let `--out fullresults` flip the scale.
        assert!(!scale_of(&["--out", "fullresults", "--jobs", "8"]));
        assert!(!scale_of(&["--only", "fig4"]));
        assert!(!scale_of(&["--out", "full"]));
    }

    #[test]
    fn bare_scale_words_are_not_flags() {
        // The positional `full`/`quick` of the removed figure binaries is
        // gone, and so are the flags named after them: only
        // `--scale quick|full` sets the scale.
        for word in ["full", "quick"] {
            let error = one_shot(&[word]).unwrap_err();
            assert_eq!(error, format!("unknown option '{word}'"));
            let flag = format!("--{word}");
            for parsed in [one_shot(&[&flag]), submit(&[&flag])] {
                assert_eq!(parsed.unwrap_err(), format!("unknown option '{flag}'"));
            }
        }
        assert!(one_shot(&["full", "--jobs", "2"]).is_err());
    }

    #[test]
    fn the_text_and_json_listings_agree_on_a_zero_part_scenario() {
        use rand::rngs::StdRng;
        use sim::scenario_api::{Scenario, ScenarioRegistry};
        use sim::ExperimentReport;

        struct Partless;
        impl Scenario for Partless {
            fn id(&self) -> &str {
                "partless"
            }
            fn title(&self) -> &str {
                "declares no parts"
            }
            fn parts(&self, _params: &ScenarioParams) -> usize {
                0
            }
            fn run_part(
                &self,
                _part: usize,
                _params: &ScenarioParams,
                _rng: &mut StdRng,
            ) -> Vec<ExperimentReport> {
                Vec::new()
            }
        }
        let mut registry = ScenarioRegistry::new();
        registry.register(Partless);
        let infos = ScenarioInfo::collect(&registry, &ScenarioParams::default());
        assert_eq!(infos[0].parts, 1, "the runner runs one part");
        let text = listing_text(&infos);
        let line = text.lines().find(|line| line.contains("partless")).unwrap();
        assert!(line.contains(" 1 part(s)  declares no parts"), "{line}");
        assert!(text.contains("--set keys: (undeclared)"), "{text}");
    }
}
