//! The study cache, end to end: JSON round-trips of the full `Study`
//! object graph (including the paper's awkward corners — `Mech::Vrs`
//! payloads, full-range `u64` digests, negative/fractional floats) and
//! the cold→warm disk behaviour of `run_study` (atomic writes, stale
//! cleanup, `OG_STUDY_NOCACHE`, `OG_STUDY_REQUIRE_CACHE`).
//!
//! The on-disk flows are driven through `run_study_with` with a cheap
//! synthetic study, so this suite exercises every cache path without
//! paying for a real 8×9 pipeline computation. All environment-variable
//! manipulation lives in the single `cache_lifecycle` test: tests in one
//! binary share a process, so concurrent `set_var` calls would race.

use og_lab::{
    run_study_with, study_cache_path, Mech, RunSummary, Study, VrsSummary, STUDY_VERSION,
};
use og_sim::{ActivityCounts, CycleStats, Structure};
use proptest::prelude::*;
use std::path::Path;

/// A small but fully-populated study: every field of every summary type
/// carries a value that stresses its encoding.
fn synthetic_study(digest: u64, cost: u32, frac: f64) -> Study {
    let mut activity = ActivityCounts::new();
    activity.record_plain(Structure::Rename);
    activity.record_value(Structure::Fu, 4, 3);
    activity.record_value(Structure::RegFile, 8, 1);

    let sim = CycleStats {
        cycles: 123_456,
        insts: 100_000,
        cond_branches: 20_000,
        mispredicts: 777,
        icache: (100_000, 12),
        dcache: (30_000, 345),
        l2: (357, u64::MAX - 3),
        loads: 25_000,
        stores: 5_000,
    };

    let mut class_width = [[0u64; 4]; 13];
    class_width[0][0] = digest ^ 0x5555;
    class_width[12][3] = u64::MAX;

    let baseline = RunSummary {
        bench: "compress".into(),
        mech: Mech::Baseline,
        digest,
        insts: 100_000,
        sim: sim.clone(),
        activity: activity.clone(),
        width_fracs: [0.25, 0.25, 0.125, 0.375],
        sig_fracs: [frac, -frac, 0.0, 1.0 / 3.0, 0.1, 0.2, 0.3, 0.4],
        class_width,
        vrs: None,
    };
    let vrs = RunSummary {
        bench: "go".into(),
        mech: Mech::Vrs(cost),
        digest: digest.wrapping_mul(0x9e3779b97f4a7c15),
        insts: 99_000,
        sim,
        activity,
        width_fracs: [0.0, 0.5, 0.5, 0.0],
        sig_fracs: [0.125; 8],
        class_width,
        vrs: Some(VrsSummary {
            profiled: 42,
            fates: (7, 11, 24),
            static_specialized: 99,
            static_eliminated: 3,
            runtime_specialized_frac: frac / 2.0,
            runtime_guard_frac: 0.015625,
        }),
    };
    Study::new(STUDY_VERSION, vec![baseline, vrs])
}

#[test]
fn study_roundtrips_through_og_json() {
    let study = synthetic_study(u64::MAX, 110, 0.1);
    let text = og_json::to_string(&study).expect("study serializes");
    let back: Study = og_json::from_str(&text).expect("study deserializes");
    assert_eq!(back, study);
    // The digest exceeds 2^53, so it must have taken the string encoding.
    assert!(text.contains(&format!("\"{}\"", u64::MAX)), "extreme u64 must be string-encoded");
}

#[test]
fn study_rejects_tampered_text() {
    let study = synthetic_study(1, 30, 0.5);
    let text = og_json::to_string(&study).unwrap();
    assert!(og_json::from_str::<Study>(&text[..text.len() - 2]).is_err(), "truncated");
    assert!(og_json::from_str::<Study>(&format!("{text}{{}}")).is_err(), "trailing garbage");
    assert!(
        og_json::from_str::<Study>(&text.replace("\"Baseline\"", "\"Mystery\"")).is_err(),
        "unknown mechanism"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn arbitrary_studies_roundtrip(digest in any::<u64>(), cost in 0u32..=200, num in any::<i64>()) {
        let frac = num as f64 / (1u64 << 40) as f64;
        let study = synthetic_study(digest, cost, frac);
        let text = og_json::to_string(&study).expect("study serializes");
        let back: Study = og_json::from_str(&text).expect("study deserializes");
        prop_assert_eq!(back, study);
    }
}

#[test]
fn benches_derived_from_runs_in_suite_order() {
    let mut study = synthetic_study(5, 70, 0.25);
    // Runs arrive in (go, compress) order plus an off-suite name; suite
    // order must win, unknown names sort last.
    study.runs_mut().reverse();
    let mut extra = study.runs()[0].clone();
    extra.bench = "mystery".into();
    study.runs_mut().push(extra);
    assert_eq!(study.benches(), vec!["compress", "go", "mystery"]);

    let empty = Study::new(STUDY_VERSION, vec![]);
    assert_eq!(empty.benches(), Vec::<&str>::new(), "partial study is detectable, not a panic");
}

/// Files named like a study cache in `dir`.
fn cache_files(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .filter(|n| n.contains("og-study"))
                .collect()
        })
        .unwrap_or_default();
    names.sort();
    names
}

#[test]
fn cache_lifecycle() {
    let dir = std::env::temp_dir().join(format!("og-study-cache-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::env::set_var("OG_STUDY_DIR", &dir);
    let current = format!("og-study-{STUDY_VERSION:032x}.json");
    let reference = synthetic_study(u64::MAX - 17, 90, 0.375);

    // Cold: computes once and writes the cache atomically (no tmp debris).
    let study = run_study_with(|| reference.clone());
    assert_eq!(study, reference);
    let path = study_cache_path();
    assert_eq!(path, dir.join(&current));
    assert!(path.is_file(), "cold run must write {}", path.display());
    assert_eq!(cache_files(&dir), vec![current.clone()], "no tmp files left behind");

    // Warm: served from disk, the computation must not run.
    let study = run_study_with(|| panic!("warm path recomputed"));
    assert_eq!(study, reference);
    assert_eq!(og_lab::study_recomputes(), 0, "no real compute_study in this test");

    // Warm, in-process: shared_study loads the same cache once.
    let shared_a = og_lab::shared_study();
    let shared_b = og_lab::shared_study();
    assert!(std::ptr::eq(shared_a, shared_b));
    assert_eq!(*shared_a, reference);

    // Stale: an old-version entry (evicted by the store's capacity of
    // one), an old crash-orphaned tmp file (swept as debris) and a corrupt
    // current entry (removed on read) all go (a *fresh* tmp file — maybe
    // a live writer in another process — is spared), and the recompute
    // repopulates a valid cache.
    std::fs::write(dir.join("og-study-00000000000000000000000000000003.json"), "{\"version\": 3}")
        .unwrap();
    let orphan = dir.join(format!("{current}.tmp.999999.0"));
    std::fs::write(&orphan, "{\"version\"").unwrap();
    std::fs::File::options()
        .write(true)
        .open(&orphan)
        .unwrap()
        .set_modified(std::time::SystemTime::now() - std::time::Duration::from_secs(3600))
        .unwrap();
    let live = dir.join(format!("{current}.tmp.999999.1"));
    std::fs::write(&live, "{\"version\"").unwrap();
    std::fs::write(&path, "{\"version\":").unwrap();
    let study = run_study_with(|| reference.clone());
    assert_eq!(study, reference);
    assert_eq!(
        cache_files(&dir),
        vec![current.clone(), format!("{current}.tmp.999999.1")],
        "old stale caches removed, live-writer tmp spared, fresh cache written"
    );
    std::fs::remove_file(&live).unwrap();
    let warm = run_study_with(|| panic!("repopulated cache must serve warm"));
    assert_eq!(warm, reference);

    // A body-version mismatch (file name right, payload stale) recomputes.
    let mut old = reference.clone();
    old.version = STUDY_VERSION - 1;
    std::fs::write(&path, og_json::to_string(&old).unwrap()).unwrap();
    let study = run_study_with(|| reference.clone());
    assert_eq!(study, reference);
    let warm = run_study_with(|| panic!("the recompute must overwrite the stale entry"));
    assert_eq!(warm, reference);

    // OG_STUDY_NOCACHE: neither read nor written.
    std::env::set_var("OG_STUDY_NOCACHE", "1");
    std::fs::remove_file(&path).unwrap();
    let study = run_study_with(|| reference.clone());
    assert_eq!(study, reference);
    assert_eq!(cache_files(&dir), Vec::<String>::new(), "nocache must not write");
    std::env::remove_var("OG_STUDY_NOCACHE");

    // OG_STUDY_REQUIRE_CACHE: a warm hit passes, a miss panics.
    let study = run_study_with(|| reference.clone());
    assert_eq!(study, reference);
    std::env::set_var("OG_STUDY_REQUIRE_CACHE", "1");
    let study = run_study_with(|| panic!("require-cache warm path recomputed"));
    assert_eq!(study, reference);
    std::fs::remove_file(&path).unwrap();
    let missed = std::panic::catch_unwind(|| run_study_with(|| reference.clone()));
    assert!(missed.is_err(), "cache miss under OG_STUDY_REQUIRE_CACHE must panic");
    std::env::remove_var("OG_STUDY_REQUIRE_CACHE");

    std::env::remove_var("OG_STUDY_DIR");
    let _ = std::fs::remove_dir_all(&dir);
}
