//! Persistent, content-addressed cache of per-part experiment results.
//!
//! Every *(scenario, part)* work item the [`Runner`](crate::runner::Runner)
//! schedules is identified by a [`PartFingerprint`]: a SHA-256 digest over a
//! stable encoding of the cache format version, the scenario id, the part
//! index, the derived [`part_seed`], the population scale and the override
//! map (restricted to the keys the scenario declares via
//! [`Scenario::override_keys`], so unrelated `--set` flags do not invalidate
//! its entries). The [`ResultCache`] stores each part's
//! `Vec<ExperimentReport>` as JSON under that fingerprint; re-running with
//! identical inputs replays the stored reports instead of executing the
//! part, and changing any fingerprinted input changes the key, which makes
//! stale entries unreachable rather than wrong.
//!
//! Entries live at `<dir>/<scenario id>/part<index>-<fingerprint>.json` and
//! embed the fingerprint plus format version again in the payload; a file
//! that no longer matches its own key is treated as invalidated, never
//! served. A file that does not even parse — a torn write from a crashed
//! process, disk corruption — is **quarantined**: renamed to a
//! `.corrupt-*` sibling (preserving the evidence) and degraded to a
//! plain miss with a warning, so one bad entry costs one recompute
//! instead of failing or poisoning a run. The `cache.load` and
//! `cache.store` failpoints ([`crate::faults`]) let a fault schedule
//! rehearse read errors and torn writes deterministically.
//!
//! ```
//! use sim::cache::{CacheLookup, PartFingerprint, ResultCache};
//! use sim::experiment::ExperimentReport;
//! use sim::scenario_api::{Scenario, ScenarioParams};
//! use rand::rngs::StdRng;
//!
//! struct Toy;
//! impl Scenario for Toy {
//!     fn id(&self) -> &str { "toy" }
//!     fn title(&self) -> &str { "toy" }
//!     fn run_part(&self, _: usize, _: &ScenarioParams, _: &mut StdRng)
//!         -> Vec<ExperimentReport> { vec![] }
//! }
//!
//! let dir = std::env::temp_dir().join(format!("sim-cache-doc-{}", std::process::id()));
//! let cache = ResultCache::open(&dir).unwrap();
//! let params = ScenarioParams::with_seed(1);
//! let fp = PartFingerprint::compute(&Toy, 0, &params);
//! assert!(matches!(cache.lookup(&fp), CacheLookup::Miss));
//! let reports = vec![ExperimentReport::new("r", "t", "x", "y")];
//! cache.store(&fp, &reports).unwrap();
//! assert!(matches!(cache.lookup(&fp), CacheLookup::Hit(found) if found == reports));
//! // A different seed derives a different fingerprint -> different entry.
//! assert_ne!(fp, PartFingerprint::compute(&Toy, 0, &ScenarioParams::with_seed(2)));
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use onion_crypto::digest::Digest as _;
use onion_crypto::sha256::Sha256;
use serde::{Deserialize, Serialize};

use crate::experiment::ExperimentReport;
use crate::faults;
use crate::scenario_api::{part_seed, Scenario, ScenarioParams};

/// Version of the on-disk entry layout; part of every fingerprint, so
/// bumping it orphans (rather than misreads) all existing entries.
///
/// v2: the `scale` scenario moved to sharded overlay construction and
/// partitioned wave repair (per-shard RNG streams split from the part
/// seed), which changes its output stream while its fingerprint inputs
/// are unchanged — stale v1 entries would replay old-stream bytes.
///
/// v3: the default shard grid is now gated on the population
/// (`shard::default_shards_for`: one shard below 50k nodes, 64 above),
/// so `scale` parts without an explicit `shards` override changed their
/// output stream again — small parts now run the plain sequential
/// pairing model instead of a 64-shard grid.
pub const CACHE_FORMAT_VERSION: u32 = 3;

/// Whether an override key is relevant to a scenario that declared
/// `declared` consumed keys (`None` = unknown, every key is relevant).
///
/// This single predicate defines override scoping for both the
/// fingerprint hash and the serialized
/// [`WorkItem`](crate::executor::WorkItem) params, keeping the "equal
/// fingerprints imply bytewise-equal work items" invariant from resting
/// on two hand-synchronized copies.
pub(crate) fn override_relevant(declared: Option<&[&str]>, key: &str) -> bool {
    declared.is_none_or(|keys| keys.contains(&key))
}

/// The content-addressed identity of one *(scenario, part, params)*
/// execution.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PartFingerprint {
    scenario_id: String,
    part: usize,
    hex: String,
}

impl PartFingerprint {
    /// Computes the fingerprint of `part` of `scenario` under `params`.
    ///
    /// Inputs are fed length-prefixed into SHA-256 so no two field
    /// sequences collide structurally: format version, scenario id, part
    /// index, the derived per-part seed (which already mixes the base seed
    /// with id and part), the scale flag and the relevant overrides in
    /// sorted key order.
    pub fn compute(scenario: &dyn Scenario, part: usize, params: &ScenarioParams) -> Self {
        let mut hasher = Sha256::new();
        let mut feed = |bytes: &[u8]| {
            hasher.update(&(bytes.len() as u64).to_le_bytes());
            hasher.update(bytes);
        };
        feed(b"onionbots-result-cache");
        feed(&CACHE_FORMAT_VERSION.to_le_bytes());
        feed(scenario.id().as_bytes());
        feed(&(part as u64).to_le_bytes());
        feed(&part_seed(params.seed, scenario.id(), part).to_le_bytes());
        feed(&[u8::from(params.full_scale)]);
        let declared = scenario.override_keys();
        for (key, value) in &params.overrides {
            if override_relevant(declared.as_deref(), key) {
                feed(key.as_bytes());
                feed(value.as_bytes());
            }
        }
        PartFingerprint {
            scenario_id: scenario.id().to_string(),
            part,
            hex: onion_crypto::hex::encode(&hasher.finalize()),
        }
    }

    /// Reassembles a fingerprint from its components — the inverse of
    /// reading [`scenario_id`](Self::scenario_id)/[`part`](Self::part)/
    /// [`hex`](Self::hex) off a computed one.
    ///
    /// This is how a work item that traveled across a process boundary
    /// (see [`WorkItem`](crate::executor::WorkItem), whose identity is
    /// exactly this digest) becomes a cache key again without re-running
    /// [`compute`](Self::compute). The digest is not re-derived or
    /// validated here; feeding a hex string that `compute` never produced
    /// simply addresses an entry that does not exist.
    pub fn from_parts(scenario_id: &str, part: usize, hex: &str) -> Self {
        PartFingerprint {
            scenario_id: scenario_id.to_string(),
            part,
            hex: hex.to_string(),
        }
    }

    /// The scenario this fingerprint belongs to.
    pub fn scenario_id(&self) -> &str {
        &self.scenario_id
    }

    /// The part index this fingerprint belongs to.
    pub fn part(&self) -> usize {
        self.part
    }

    /// The hex-encoded SHA-256 digest (the content address).
    pub fn hex(&self) -> &str {
        &self.hex
    }

    /// The entry path relative to the cache root:
    /// `<scenario id>/part<index>-<digest>.json`. Scenario ids are
    /// sanitized to filesystem-safe characters; uniqueness comes from the
    /// digest, which covers the unsanitized id.
    pub fn relative_path(&self) -> PathBuf {
        let safe_id: String = self
            .scenario_id
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        PathBuf::from(safe_id).join(format!("part{:04}-{}.json", self.part, self.hex))
    }
}

/// The outcome of a cache probe.
#[derive(Debug, Clone, PartialEq)]
pub enum CacheLookup {
    /// A valid entry was found; these are its reports.
    Hit(Vec<ExperimentReport>),
    /// No entry exists for this fingerprint.
    Miss,
    /// An entry exists but is unreadable, inconsistent with its own key,
    /// or corrupt and impossible to move aside — it must be re-executed
    /// and overwritten.
    Invalid,
}

/// Counters the [`Runner`](crate::runner::Runner) accumulates while
/// consulting a [`ResultCache`].
///
/// Serializable so the simulation service daemon can surface each job's
/// hit/miss/invalidation counts to its clients in the final job frame
/// (the one-shot CLI path prints them to stderr instead).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Parts served from the cache without executing.
    pub hits: usize,
    /// Parts with no cache entry, executed and stored.
    pub misses: usize,
    /// Parts whose entry existed but was bypassed (`--refresh`) or
    /// unusable (corrupt / format mismatch), executed and overwritten.
    pub invalidated: usize,
    /// Fresh results successfully written back.
    pub stored: usize,
    /// Fresh results that could not be written back (the run itself still
    /// succeeds).
    pub store_failures: usize,
}

impl CacheStats {
    /// Total parts that were considered.
    pub fn total(&self) -> usize {
        self.hits + self.misses + self.invalidated
    }

    /// Whether every considered part was served from the cache.
    pub fn all_hits(&self) -> bool {
        self.total() > 0 && self.hits == self.total()
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hit(s), {} miss(es), {} invalidated",
            self.hits, self.misses, self.invalidated
        )
    }
}

/// The on-disk JSON payload of one entry. Format version and fingerprint
/// are stored redundantly so a moved or hand-edited file can never be
/// served under the wrong key.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct CacheEntry {
    format: u32,
    fingerprint: String,
    scenario_id: String,
    part: usize,
    reports: Vec<ExperimentReport>,
}

/// A directory of content-addressed experiment results.
#[derive(Debug, Clone)]
pub struct ResultCache {
    dir: PathBuf,
}

impl ResultCache {
    /// Opens (creating if necessary) a cache rooted at `dir` and probes
    /// that it is writable, so an unusable location fails here — where the
    /// caller can fall back to running uncached — instead of at the first
    /// store.
    ///
    /// # Errors
    /// Returns the underlying error when the directory cannot be created
    /// or written to.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let probe = dir.join(format!(".probe-{}-{}", std::process::id(), next_unique()));
        std::fs::write(&probe, b"")?;
        std::fs::remove_file(&probe)?;
        Ok(ResultCache { dir })
    }

    /// The cache root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The absolute path an entry for `fp` would live at.
    pub fn entry_path(&self, fp: &PartFingerprint) -> PathBuf {
        self.dir.join(fp.relative_path())
    }

    /// Whether an entry file exists for `fp` (without validating it).
    pub fn contains(&self, fp: &PartFingerprint) -> bool {
        self.entry_path(fp).exists()
    }

    /// Probes the cache for `fp`.
    ///
    /// A well-formed entry that mismatches its own key (stale format,
    /// foreign fingerprint) is [`CacheLookup::Invalid`] — recompute and
    /// overwrite. An entry that does not parse at all is *quarantined*:
    /// renamed to a `.corrupt-*` sibling and reported as a plain
    /// [`CacheLookup::Miss`] with a warning, because a torn write must
    /// cost one recompute, never a run failure — and the renamed file
    /// keeps the evidence for a post-mortem.
    pub fn lookup(&self, fp: &PartFingerprint) -> CacheLookup {
        if let Err(e) = faults::hit_io(faults::points::CACHE_LOAD) {
            eprintln!(
                "warning: cache read failed for {}#{} ({e}); degrading to a miss",
                fp.scenario_id, fp.part
            );
            return CacheLookup::Miss;
        }
        let path = self.entry_path(fp);
        // Bytes, not a string: invalid UTF-8 (a flipped high bit) is
        // corruption like any other parse failure and goes to quarantine.
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return CacheLookup::Miss,
            Err(_) => return CacheLookup::Invalid,
        };
        match serde_json::from_slice::<CacheEntry>(&bytes) {
            Ok(entry)
                if entry.format == CACHE_FORMAT_VERSION
                    && entry.fingerprint == fp.hex
                    && entry.scenario_id == fp.scenario_id
                    && entry.part == fp.part =>
            {
                CacheLookup::Hit(entry.reports)
            }
            Ok(_) => CacheLookup::Invalid,
            Err(parse_error) => {
                let quarantine = path.with_extension(format!(
                    "corrupt-{}-{}",
                    std::process::id(),
                    next_unique()
                ));
                match std::fs::rename(&path, &quarantine) {
                    Ok(()) => {
                        eprintln!(
                            "warning: quarantined corrupt cache entry for {}#{} ({parse_error}) as '{}'; degrading to a miss",
                            fp.scenario_id,
                            fp.part,
                            quarantine.display()
                        );
                        CacheLookup::Miss
                    }
                    Err(rename_error) => {
                        // Cannot move it aside; recompute-and-overwrite
                        // still repairs the entry.
                        eprintln!(
                            "warning: corrupt cache entry for {}#{} ({parse_error}) could not be quarantined ({rename_error})",
                            fp.scenario_id, fp.part
                        );
                        CacheLookup::Invalid
                    }
                }
            }
        }
    }

    /// Stores `reports` under `fp`, atomically (write to a temporary file
    /// in the same directory, then rename), overwriting any previous
    /// entry.
    ///
    /// # Errors
    /// Returns the underlying I/O error; callers are expected to treat a
    /// store failure as a warning, not a run failure.
    pub fn store(&self, fp: &PartFingerprint, reports: &[ExperimentReport]) -> io::Result<()> {
        let entry = CacheEntry {
            format: CACHE_FORMAT_VERSION,
            fingerprint: fp.hex.clone(),
            scenario_id: fp.scenario_id.clone(),
            part: fp.part,
            reports: reports.to_vec(),
        };
        let path = self.entry_path(fp);
        let parent = path.parent().expect("entry paths always have a parent");
        std::fs::create_dir_all(parent)?;
        let tmp = parent.join(format!(".tmp-{}-{}", std::process::id(), next_unique()));
        let payload = serde_json::to_string_pretty(&entry).expect("cache entry serializes");
        // The `cache.store` failpoint can fail the store outright or
        // simulate a torn write: half the payload lands under the final
        // name (as if the process died between write and fsync) and the
        // store still reports failure. The next lookup must quarantine
        // the torn entry and recompute — never serve or fail on it.
        match faults::hit(faults::points::CACHE_STORE) {
            Ok(faults::Injected::None) => {}
            Ok(faults::Injected::PartialWrite) => {
                let torn = &payload.as_bytes()[..payload.len() / 2];
                std::fs::write(&tmp, torn)?;
                let _ = std::fs::rename(&tmp, &path);
                return Err(io::Error::other(
                    "injected fault (torn write) at failpoint `cache.store`",
                ));
            }
            Err(e) => return Err(e),
        }
        std::fs::write(&tmp, payload)?;
        match std::fs::rename(&tmp, &path) {
            Ok(()) => Ok(()),
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                Err(e)
            }
        }
    }
}

/// Process-wide counter for collision-free temporary file names (several
/// worker threads may store entries into the same scenario directory).
fn next_unique() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    COUNTER.fetch_add(1, Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Series;
    use rand::rngs::StdRng;

    struct Toy {
        id: &'static str,
        keys: Option<Vec<&'static str>>,
    }

    impl Scenario for Toy {
        fn id(&self) -> &str {
            self.id
        }
        fn title(&self) -> &str {
            "toy"
        }
        fn override_keys(&self) -> Option<Vec<&str>> {
            self.keys.clone()
        }
        fn run_part(
            &self,
            _part: usize,
            _params: &ScenarioParams,
            _rng: &mut StdRng,
        ) -> Vec<ExperimentReport> {
            vec![]
        }
    }

    fn toy(id: &'static str) -> Toy {
        Toy { id, keys: None }
    }

    fn temp_cache(tag: &str) -> (ResultCache, PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "sim-cache-test-{tag}-{}-{}",
            std::process::id(),
            next_unique()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        (ResultCache::open(&dir).unwrap(), dir)
    }

    fn sample_reports() -> Vec<ExperimentReport> {
        let mut r = ExperimentReport::new("r1", "title", "x", "y");
        r.push_series(Series::new("s", vec![0.0, 1.0], vec![0.125, 2.5]));
        r.push_note("a note");
        vec![r]
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive_to_every_input() {
        let params = ScenarioParams::with_seed(7);
        let base = PartFingerprint::compute(&toy("a"), 0, &params);
        assert_eq!(base, PartFingerprint::compute(&toy("a"), 0, &params));
        // Part index, scenario id, seed and scale all change the digest.
        assert_ne!(
            base.hex(),
            PartFingerprint::compute(&toy("a"), 1, &params).hex()
        );
        assert_ne!(
            base.hex(),
            PartFingerprint::compute(&toy("b"), 0, &params).hex()
        );
        assert_ne!(
            base.hex(),
            PartFingerprint::compute(&toy("a"), 0, &ScenarioParams::with_seed(8)).hex()
        );
        let mut full = params.clone();
        full.full_scale = true;
        assert_ne!(
            base.hex(),
            PartFingerprint::compute(&toy("a"), 0, &full).hex()
        );
        // ... and so does any override, for a scenario with unknown keys.
        let with_override = params.clone().with_override("n", "100");
        assert_ne!(
            base.hex(),
            PartFingerprint::compute(&toy("a"), 0, &with_override).hex()
        );
        assert_ne!(
            PartFingerprint::compute(&toy("a"), 0, &with_override).hex(),
            PartFingerprint::compute(&toy("a"), 0, &params.clone().with_override("n", "200")).hex()
        );
    }

    #[test]
    fn declared_override_keys_scope_the_fingerprint() {
        let declares_n = Toy {
            id: "a",
            keys: Some(vec!["n"]),
        };
        let params = ScenarioParams::with_seed(7);
        let base = PartFingerprint::compute(&declares_n, 0, &params);
        // An override the scenario does not consume leaves the key alone...
        let unrelated = params.clone().with_override("other", "1");
        assert_eq!(
            base.hex(),
            PartFingerprint::compute(&declares_n, 0, &unrelated).hex()
        );
        // ... while a consumed override changes it.
        let relevant = params.clone().with_override("n", "1");
        assert_ne!(
            base.hex(),
            PartFingerprint::compute(&declares_n, 0, &relevant).hex()
        );
    }

    #[test]
    fn store_then_lookup_roundtrips_reports_exactly() {
        let (cache, dir) = temp_cache("roundtrip");
        let fp = PartFingerprint::compute(&toy("fig-x"), 3, &ScenarioParams::with_seed(1));
        assert_eq!(cache.lookup(&fp), CacheLookup::Miss);
        assert!(!cache.contains(&fp));
        let reports = sample_reports();
        cache.store(&fp, &reports).unwrap();
        assert!(cache.contains(&fp));
        assert_eq!(cache.lookup(&fp), CacheLookup::Hit(reports));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entries_are_quarantined_and_degrade_to_misses() {
        let (cache, dir) = temp_cache("corrupt");
        let params = ScenarioParams::with_seed(1);
        let fp = PartFingerprint::compute(&toy("s"), 0, &params);
        // Corrupt JSON — e.g. a torn write that landed under the final
        // name. The entry is moved aside and the lookup is a miss, so
        // the runner recomputes instead of failing the whole run.
        std::fs::create_dir_all(cache.entry_path(&fp).parent().unwrap()).unwrap();
        std::fs::write(cache.entry_path(&fp), b"{ not json").unwrap();
        assert_eq!(cache.lookup(&fp), CacheLookup::Miss);
        assert!(
            !cache.entry_path(&fp).exists(),
            "the corrupt entry is renamed out of the way"
        );
        assert_eq!(
            quarantined_siblings(&cache, &fp),
            1,
            "exactly one quarantined sibling"
        );
        // A later store through the normal path repairs the slot.
        cache.store(&fp, &sample_reports()).unwrap();
        assert_eq!(cache.lookup(&fp), CacheLookup::Hit(sample_reports()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// How many `.corrupt-*` siblings sit next to `fp`'s entry.
    fn quarantined_siblings(cache: &ResultCache, fp: &PartFingerprint) -> usize {
        std::fs::read_dir(cache.entry_path(fp).parent().unwrap())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| {
                e.path()
                    .extension()
                    .is_some_and(|ext| ext.to_string_lossy().starts_with("corrupt-"))
            })
            .count()
    }

    #[test]
    fn invalid_utf8_entries_are_quarantined_not_overwritten() {
        // One flipped high bit turns an ASCII byte into invalid UTF-8.
        // That is corruption like any other parse failure: the evidence
        // is kept, not silently overwritten as "invalidated".
        let (cache, dir) = temp_cache("utf8");
        let fp = PartFingerprint::compute(&toy("s"), 0, &ScenarioParams::with_seed(1));
        cache.store(&fp, &sample_reports()).unwrap();
        let mut bytes = std::fs::read(cache.entry_path(&fp)).unwrap();
        let middle = bytes.len() / 2;
        bytes[middle] ^= 0x80;
        assert!(std::str::from_utf8(&bytes).is_err());
        std::fs::write(cache.entry_path(&fp), &bytes).unwrap();
        assert_eq!(cache.lookup(&fp), CacheLookup::Miss);
        assert!(!cache.entry_path(&fp).exists());
        assert_eq!(quarantined_siblings(&cache, &fp), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn entries_with_unequal_series_axes_are_quarantined() {
        // A series built around `Series::new` (its fields are public) can
        // reach the disk with axes of different lengths, e.g. from another
        // build. Serving it would panic the renderers; it must not parse.
        let (cache, dir) = temp_cache("axes");
        let fp = PartFingerprint::compute(&toy("s"), 0, &ScenarioParams::with_seed(1));
        let mut report = ExperimentReport::new("r1", "title", "x", "y");
        report.push_series(Series {
            label: "torn".into(),
            x: vec![0.0, 1.0],
            y: vec![0.125],
        });
        cache.store(&fp, &[report]).unwrap();
        assert_eq!(cache.lookup(&fp), CacheLookup::Miss);
        assert!(!cache.entry_path(&fp).exists());
        assert_eq!(quarantined_siblings(&cache, &fp), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_entries_are_invalid_not_hits() {
        let (cache, dir) = temp_cache("mismatch");
        let params = ScenarioParams::with_seed(1);
        let fp = PartFingerprint::compute(&toy("s"), 0, &params);
        // An entry copied under the wrong key (here: another part's file
        // renamed onto this fingerprint) parses fine but must not be
        // served — and, unlike corruption, it is *not* quarantined: it
        // signals an addressing bug worth loud failure, not bit rot.
        let other = PartFingerprint::compute(&toy("s"), 1, &params);
        cache.store(&other, &sample_reports()).unwrap();
        std::fs::copy(cache.entry_path(&other), cache.entry_path(&fp)).unwrap();
        assert_eq!(cache.lookup(&fp), CacheLookup::Invalid);
        assert!(
            cache.entry_path(&fp).exists(),
            "left in place for forensics"
        );
        // Overwriting through store() repairs it.
        cache.store(&fp, &sample_reports()).unwrap();
        assert_eq!(cache.lookup(&fp), CacheLookup::Hit(sample_reports()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_rejects_unusable_locations() {
        let file = std::env::temp_dir().join(format!(
            "sim-cache-test-file-{}-{}",
            std::process::id(),
            next_unique()
        ));
        std::fs::write(&file, b"i am a file").unwrap();
        assert!(
            ResultCache::open(&file).is_err(),
            "a plain file cannot become a cache directory"
        );
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn entry_paths_are_namespaced_and_sanitized() {
        let fp = PartFingerprint::compute(&toy("fig/6 weird"), 2, &ScenarioParams::with_seed(1));
        let rel = fp.relative_path();
        let rendered = rel.to_string_lossy();
        assert!(rendered.starts_with("fig_6_weird/part0002-"));
        assert!(rendered.ends_with(".json"));
        assert_eq!(fp.hex().len(), 64, "full SHA-256 digest in the name");
    }

    #[test]
    fn cache_stats_roundtrip_the_service_line_protocol() {
        // The daemon ships per-job counters to clients in the final job
        // frame; they must survive the newline-delimited JSON framing.
        let stats = CacheStats {
            hits: 3,
            misses: 2,
            invalidated: 1,
            stored: 2,
            store_failures: 1,
        };
        let line = serde_json::to_string(&stats).unwrap();
        assert!(!line.contains('\n'), "one frame per line");
        let parsed: CacheStats = serde_json::from_str(&line).unwrap();
        assert_eq!(parsed, stats);
    }

    #[test]
    fn cache_stats_display_and_totals() {
        let stats = CacheStats {
            hits: 3,
            misses: 2,
            invalidated: 1,
            stored: 3,
            store_failures: 0,
        };
        assert_eq!(stats.total(), 6);
        assert!(!stats.all_hits());
        assert_eq!(stats.to_string(), "3 hit(s), 2 miss(es), 1 invalidated");
        let all = CacheStats {
            hits: 4,
            ..CacheStats::default()
        };
        assert!(all.all_hits());
        assert!(!CacheStats::default().all_hits());
    }
}
