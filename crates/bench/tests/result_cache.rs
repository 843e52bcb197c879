//! Integration tests for the content-addressed result cache against real
//! registered scenarios: cold/warm byte-equality at any worker count,
//! fingerprint invalidation on seed/scale/override changes, `--refresh`
//! semantics, quarantine of an entry nested past the parser's depth bound,
//! and graceful degradation when the cache location is unusable.

use std::path::PathBuf;

use onionbots_bench::scenarios;
use sim::scenario_api::ScenarioParams;
use sim::{PartFingerprint, ResultCache, Runner};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "onionbots-cache-it-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Small-but-real parameterization: fig6 limited to a 3-size sweep plus
/// the SOAP ablation, both of which consume declared overrides.
fn params(seed: u64) -> ScenarioParams {
    ScenarioParams::with_seed(seed)
        .with_override("steps", "3")
        .with_override("n", "500")
}

fn selected() -> Vec<std::sync::Arc<dyn sim::Scenario>> {
    scenarios::registry()
        .select(&["fig6".to_string(), "ablation-soap-defenses".to_string()])
        .unwrap()
}

const PARTS: usize = 3 + 5; // fig6 steps=3 + five defense configurations

#[test]
fn warm_runs_are_all_hits_and_byte_identical_at_any_jobs_value() {
    let dir = temp_dir("warm");
    let cache = ResultCache::open(&dir).unwrap();
    let uncached = Runner::new(params(42))
        .try_run_observed(&selected(), &())
        .unwrap()
        .0;
    let (cold, stats) = Runner::new(params(42))
        .jobs(8)
        .with_cache(cache.clone())
        .try_run_observed(&selected(), &())
        .unwrap();
    let stats = stats.unwrap();
    assert_eq!(stats.misses, PARTS);
    assert_eq!(stats.stored, PARTS);
    assert_eq!(
        cold.to_json(),
        uncached.to_json(),
        "cold cached run must match the plain run byte-for-byte"
    );
    for jobs in [1, 8] {
        let (warm, stats) = Runner::new(params(42))
            .jobs(jobs)
            .with_cache(cache.clone())
            .try_run_observed(&selected(), &())
            .unwrap();
        let stats = stats.unwrap();
        assert!(
            stats.all_hits(),
            "jobs={jobs}: warm run must execute zero parts ({stats:?})"
        );
        assert_eq!(stats.hits, PARTS);
        assert_eq!(warm.to_json(), cold.to_json(), "jobs={jobs}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn seed_scale_and_override_changes_invalidate_exactly_the_affected_parts() {
    let dir = temp_dir("fingerprint");
    let cache = ResultCache::open(&dir).unwrap();
    let runner = |p: ScenarioParams| Runner::new(p).jobs(4).with_cache(cache.clone());
    runner(params(1))
        .try_run_observed(&selected(), &())
        .unwrap();

    // Different seed: every part derives a new part seed -> all miss.
    let (_, stats) = runner(params(2))
        .try_run_observed(&selected(), &())
        .unwrap();
    assert_eq!(stats.unwrap().hits, 0);

    // Different scale: all miss.
    let mut full = params(1);
    full.full_scale = true;
    let (_, stats) = runner(full).try_run_observed(&selected(), &()).unwrap();
    assert_eq!(stats.unwrap().hits, 0);

    // fig6 consumes `steps`; the ablation declares only `n`/`k`, so its
    // five parts stay warm — invalidation is scoped to the affected parts.
    let (_, stats) = runner(params(1).with_override("steps", "2"))
        .try_run_observed(&selected(), &())
        .unwrap();
    let stats = stats.unwrap();
    assert_eq!(stats.hits, 5, "the SOAP ablation must stay cached");
    assert_eq!(stats.misses, 2, "only the changed fig6 sweep re-executes");

    // Symmetrically, changing `n` re-executes only the ablation.
    let (_, stats) = runner(params(1).with_override("n", "700"))
        .try_run_observed(&selected(), &())
        .unwrap();
    let stats = stats.unwrap();
    assert_eq!(stats.hits, 3, "fig6 must stay cached");
    assert_eq!(stats.misses, 5, "only the ablation re-executes");

    // The original parameterization is still fully warm.
    let (_, stats) = runner(params(1))
        .try_run_observed(&selected(), &())
        .unwrap();
    assert!(stats.unwrap().all_hits());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn refresh_reexecutes_everything_but_changes_nothing() {
    let dir = temp_dir("refresh");
    let cache = ResultCache::open(&dir).unwrap();
    let baseline = Runner::new(params(3))
        .with_cache(cache.clone())
        .try_run_observed(&selected(), &())
        .unwrap()
        .0;
    let (refreshed, stats) = Runner::new(params(3))
        .jobs(4)
        .with_cache(cache.clone())
        .refresh(true)
        .try_run_observed(&selected(), &())
        .unwrap();
    let stats = stats.unwrap();
    assert_eq!(stats.hits, 0);
    assert_eq!(stats.invalidated, PARTS);
    assert_eq!(stats.stored, PARTS);
    assert_eq!(refreshed.to_json(), baseline.to_json());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_deeply_nested_entry_is_quarantined_as_a_miss() {
    let dir = temp_dir("nested");
    let cache = ResultCache::open(&dir).unwrap();
    let (cold, _) = Runner::new(params(8))
        .with_cache(cache.clone())
        .try_run_observed(&selected(), &())
        .unwrap();
    // A megabyte of `[` under one entry's name: the lookup must refuse it
    // at the parser's depth bound instead of overflowing the stack, move
    // it aside and recompute that one part.
    let fig6 = scenarios::registry().get("fig6").unwrap();
    let path = cache.entry_path(&PartFingerprint::compute(&*fig6, 0, &params(8)));
    std::fs::write(&path, "[".repeat(1 << 20)).unwrap();
    let (warm, stats) = Runner::new(params(8))
        .with_cache(cache)
        .try_run_observed(&selected(), &())
        .unwrap();
    let stats = stats.unwrap();
    assert_eq!((stats.hits, stats.misses), (PARTS - 1, 1), "{stats:?}");
    assert_eq!(warm.to_json(), cold.to_json());
    let quarantined = std::fs::read_dir(path.parent().unwrap())
        .unwrap()
        .filter(|entry| {
            let name = entry.as_ref().unwrap().file_name();
            name.to_string_lossy().contains(".corrupt-")
        })
        .count();
    assert_eq!(quarantined, 1, "the nested entry is kept aside as evidence");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unusable_cache_location_is_detected_at_open_time() {
    let file = temp_dir("blocked");
    std::fs::write(&file, b"a file, not a directory").unwrap();
    assert!(
        ResultCache::open(&file).is_err(),
        "open must fail so the CLI can fall back to an uncached run"
    );
    let _ = std::fs::remove_file(&file);
}
